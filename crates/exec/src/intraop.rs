//! Intra-op dispatch onto the shared [`ThreadPool`]: a scoped-join
//! runner that lets one node's kernel fan its chunks out across idle
//! pool workers.
//!
//! [`PoolRunner`] implements [`ngb_ops::parallel::IntraOpRunner`]. A
//! dispatch spawns up to `threads - 1` helper jobs at the *front* of the
//! pool queue (ahead of queued node tickets) and then drains chunks on
//! the calling thread too, so the scope always completes even when every
//! helper is busy elsewhere — there is no cyclic wait. The caller blocks
//! until all chunks are done (scoped join), which is what makes the
//! borrowed chunk closure safe to share, and re-raises the first chunk
//! panic on the calling thread afterwards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};

use ngb_ops::parallel::IntraOpRunner;

use crate::pool::ThreadPool;

/// Scoped intra-op runner over the engine's [`ThreadPool`].
pub(crate) struct PoolRunner {
    pool: Weak<ThreadPool>,
    threads: usize,
}

impl std::fmt::Debug for PoolRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRunner")
            .field("threads", &self.threads)
            .finish()
    }
}

impl PoolRunner {
    /// A runner dispatching helper chunks onto `pool`. Holds only a weak
    /// handle: if the pool is gone the runner degrades to serial, and it
    /// can never keep worker threads alive past their pool's drop.
    pub(crate) fn new(pool: &Arc<ThreadPool>) -> PoolRunner {
        PoolRunner {
            threads: pool.threads(),
            pool: Arc::downgrade(pool),
        }
    }
}

/// Lifetime-erased pointer to the borrowed chunk closure. Only
/// dereferenced between a successful chunk claim and the matching `done`
/// increment; the caller cannot leave [`IntraOpRunner::run`] until every
/// claimed chunk reported done, so the borrow is live for every deref.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for JobPtr {}
unsafe impl Sync for JobPtr {}

/// One scoped dispatch: claim counter + completion latch + panic slot.
struct Scope {
    job: JobPtr,
    chunks: usize,
    next: AtomicUsize,
    participants: AtomicUsize,
    done: Mutex<usize>,
    joined: Condvar,
    panic: Mutex<Option<String>>,
}

impl Scope {
    /// Claims and runs chunks until none remain. Every claimed chunk
    /// increments `done` exactly once, panic or not, so the join latch
    /// always releases.
    fn drain(&self) {
        let mut claimed = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            claimed += 1;
            // SAFETY: i < chunks, so the caller is still blocked in
            // `run` waiting for this chunk's `done` increment below; the
            // closure behind the pointer is therefore alive.
            let job = unsafe { &*self.job.0 };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i)));
            if let Err(panic) = outcome {
                let msg = crate::runcore::panic_message(&*panic);
                let mut slot = self.panic.lock().expect("intra-op panic slot");
                slot.get_or_insert(msg);
            }
            let mut done = self.done.lock().expect("intra-op join latch");
            *done += 1;
            if *done == self.chunks {
                self.joined.notify_all();
            }
        }
        if claimed > 0 {
            self.participants.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl IntraOpRunner for PoolRunner {
    fn run(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) -> usize {
        let pool = self.pool.upgrade();
        if chunks <= 1 || self.threads <= 1 || pool.is_none() {
            for c in 0..chunks {
                job(c);
            }
            return 1;
        }
        let pool = pool.expect("checked above");
        // SAFETY: erases the borrow's lifetime; `Scope::drain` only
        // dereferences it for claimed chunks, and this function does not
        // return until `done == chunks`, so the borrow outlives every use.
        let job: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        let scope = Arc::new(Scope {
            job: JobPtr(job),
            chunks,
            next: AtomicUsize::new(0),
            participants: AtomicUsize::new(0),
            done: Mutex::new(0),
            joined: Condvar::new(),
            panic: Mutex::new(None),
        });
        for _ in 0..(self.threads - 1).min(chunks - 1) {
            let scope = Arc::clone(&scope);
            pool.spawn_front(move |_worker| scope.drain());
        }
        scope.drain(); // the caller participates: the scope completes even with zero helpers
        let mut done = scope.done.lock().expect("intra-op join latch");
        while *done < chunks {
            done = scope.joined.wait(done).expect("intra-op join latch");
        }
        drop(done);
        if let Some(msg) = scope.panic.lock().expect("intra-op panic slot").take() {
            std::panic::resume_unwind(Box::new(msg));
        }
        scope.participants.load(Ordering::Relaxed).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_ops::parallel::{self, with_runner};

    #[test]
    fn dispatches_chunks_across_pool_workers() {
        let pool = Arc::new(ThreadPool::new(4));
        let runner = Arc::new(PoolRunner::new(&pool));
        let n = 4 * parallel::GRAIN_ELEMS;
        let mut out = vec![0.0f32; n];
        let mut want = vec![0.0f32; n];
        for (i, v) in want.iter_mut().enumerate() {
            *v = (i as f32).sqrt();
        }
        with_runner(runner, || {
            parallel::par_for_out(&mut out, |start, win| {
                for (j, v) in win.iter_mut().enumerate() {
                    *v = ((start + j) as f32).sqrt();
                }
            });
        });
        assert!(want
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn single_thread_pool_degrades_to_serial() {
        let pool = Arc::new(ThreadPool::new(1));
        let runner = PoolRunner::new(&pool);
        let hits = AtomicUsize::new(0);
        let got = runner.run(8, &|_c| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        assert_eq!(got, 1);
    }

    #[test]
    fn chunk_panic_is_reraised_on_the_caller_after_join() {
        let pool = Arc::new(ThreadPool::new(2));
        let runner = PoolRunner::new(&pool);
        let completed = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run(6, &|c| {
                if c == 3 {
                    panic!("chunk 3 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let err = caught.expect_err("panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("chunk 3 exploded"), "{msg}");
        // the join still ran to completion: every other chunk executed
        assert_eq!(completed.load(Ordering::Relaxed), 5);
        // and the pool is still usable
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move |w| tx.send(w).unwrap());
        rx.recv().unwrap();
    }

    #[test]
    fn concurrent_scoped_dispatches_share_the_pool() {
        // four caller threads each run many scoped dispatches against one
        // pool; helpers of different scopes interleave through the shared
        // front-of-queue, and every scope must still claim exactly its own
        // chunks (no cross-scope leaks, no lost chunks, no cyclic wait)
        let pool = Arc::new(ThreadPool::new(4));
        let mut callers = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            callers.push(std::thread::spawn(move || {
                let runner = PoolRunner::new(&pool);
                for _ in 0..50 {
                    let hits = AtomicUsize::new(0);
                    let participants = runner.run(16, &|_c| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(hits.load(Ordering::Relaxed), 16);
                    assert!(participants >= 1);
                }
            }));
        }
        for c in callers {
            c.join().unwrap();
        }
    }

    #[test]
    fn pool_drop_races_scoped_join() {
        // the pool's last strong handle drops while a caller thread is
        // mid-dispatch: in-flight scopes hold their own upgraded handle
        // until the join completes, later dispatches degrade to serial,
        // and every chunk of every scope still runs exactly once
        for round in 0..16 {
            let pool = Arc::new(ThreadPool::new(3));
            let runner = PoolRunner::new(&pool);
            let caller = std::thread::spawn(move || {
                let mut total = 0usize;
                for _ in 0..32 {
                    let hits = AtomicUsize::new(0);
                    runner.run(8, &|_c| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(hits.load(Ordering::Relaxed), 8);
                    total += 8;
                }
                total
            });
            drop(pool); // races the scoped joins above
            assert_eq!(caller.join().unwrap(), 32 * 8, "round {round}");
        }
    }

    #[test]
    fn dropped_pool_degrades_to_serial() {
        let pool = Arc::new(ThreadPool::new(4));
        let runner = PoolRunner::new(&pool);
        drop(pool);
        let hits = AtomicUsize::new(0);
        assert_eq!(
            runner.run(5, &|_c| {
                hits.fetch_add(1, Ordering::Relaxed);
            }),
            1
        );
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }
}
