//! Dependency-scheduled parallel graph execution: the ticket driver of
//! the run core.
//!
//! [`run_tickets`] runs a graph on the interpreter's [`ThreadPool`],
//! dispatching nodes as their producers complete, highest critical-path
//! priority first. It produces the same [`ExecutionTrace`] as the
//! sequential driver with **bit-identical outputs**: every node's weights
//! and synthetic inputs come from an RNG keyed on the node id (never on
//! execution order), and kernels are pure functions of their input
//! tensors.
//!
//! Scheduling is *ticket-based*: each ready node enqueues one short pool
//! job (a ticket) that pops the highest-priority ready node, gathers its
//! inputs under the run lock, executes it unlocked, finishes it under the
//! lock again, and enqueues tickets for newly-ready successors. Workers
//! are free between tickets, which is what lets intra-op helper chunks
//! (spawned by kernels through [`crate::intraop::PoolRunner`] when
//! intra-op is on) interleave on the same pool instead of starving behind
//! long-lived node loops.
//!
//! A kernel error (or panic) aborts the run cleanly: the first failure is
//! recorded, remaining tickets drain without executing, in-flight kernels
//! finish and discard their results, and the pool stays reusable.

use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Condvar, Mutex, Weak};

use ngb_graph::{Graph, NodeId};
use ngb_tensor::{Tensor, TensorError};

use crate::bufplan::BufferPlan;
use crate::interp::{ExecutionTrace, Interpreter};
use crate::pool::ThreadPool;
use crate::runcore::{ExecCtx, RunCore};
use crate::schedule::Schedule;

/// Runs `graph` on `interp`'s pool under `sched` and `plan`.
pub(crate) fn run_tickets(
    interp: &Interpreter,
    graph: &Graph,
    inputs: &HashMap<NodeId, Tensor>,
    sched: Schedule,
    plan: BufferPlan,
) -> Result<ExecutionTrace, TensorError> {
    let len = graph.len();
    let pool = interp.pool();
    let mut ready = BinaryHeap::new();
    for (pos, &deg) in sched.indegree.iter().enumerate() {
        if deg == 0 {
            ready.push(ReadyItem {
                priority: sched.priority[pos],
                pos,
            });
        }
    }
    let initial = ready.len();
    let indegree = sched.indegree.clone();
    let shared = Arc::new(RunState {
        graph: Arc::new(graph.clone()),
        overrides: inputs.clone(),
        ctx: interp.begin_run(),
        sched,
        pool: Arc::downgrade(&pool),
        inner: Mutex::new(Inner {
            ready,
            indegree,
            core: RunCore::for_plan(plan, interp.sanitize_enabled()),
            completed: 0,
            inflight: initial,
            error: None,
        }),
        progress: Condvar::new(),
    });

    for _ in 0..initial {
        let state = Arc::clone(&shared);
        pool.spawn(move |worker| state.run_ticket(worker));
    }

    // Wait for every ticket to fully retire (not just for the last
    // node to complete): a ticket briefly upgrades the pool Weak to
    // spawn successors, and returning while one is still in flight
    // would let that worker drop — and self-join — the pool.
    let mut inner = shared.inner.lock().expect("run lock");
    while !(inner.inflight == 0 && (inner.completed == len || inner.error.is_some())) {
        inner = shared.progress.wait(inner).expect("run lock");
    }
    if let Some(err) = inner.error.take() {
        return Err(err);
    }
    inner.core.drain_trace(graph, &interp.store)
}

/// Everything a ticket needs, shared behind one `Arc`.
struct RunState {
    graph: Arc<Graph>,
    overrides: HashMap<NodeId, Tensor>,
    ctx: ExecCtx,
    sched: Schedule,
    /// Weak so a ticket finishing after the waiter returned can never be
    /// the one to drop (and join) the pool from a worker thread.
    pool: Weak<ThreadPool>,
    inner: Mutex<Inner>,
    progress: Condvar,
}

/// Mutable run state, guarded by `RunState::inner`.
struct Inner {
    ready: BinaryHeap<ReadyItem>,
    indegree: Vec<usize>,
    core: RunCore,
    completed: usize,
    /// Tickets spawned but not yet finished — the abort path waits for
    /// this to reach zero so in-flight kernels drain before returning.
    inflight: usize,
    error: Option<TensorError>,
}

/// Ready-queue entry: max-heap on priority, ties broken toward the lower
/// node id so pop order is deterministic.
#[derive(Debug, PartialEq)]
struct ReadyItem {
    priority: f64,
    pos: usize,
}

impl Eq for ReadyItem {}

impl Ord for ReadyItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

impl PartialOrd for ReadyItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl RunState {
    /// One ticket: pop the best ready node, execute it, release
    /// successors, and enqueue their tickets. Every ticket decrements
    /// `inflight` exactly once.
    fn run_ticket(self: &Arc<Self>, worker: usize) {
        let mut inner = self.inner.lock().expect("run lock");
        if inner.error.is_some() {
            inner.inflight -= 1;
            self.progress.notify_all();
            return;
        }
        let Some(item) = inner.ready.pop() else {
            // defensive: tickets are 1:1 with ready pushes, so this only
            // happens if a sibling over-drained — never leak the ticket
            inner.inflight -= 1;
            self.progress.notify_all();
            return;
        };
        let node = &self.graph.nodes[item.pos];
        let gathered = inner.core.gather(node);
        drop(inner);

        let outcome = gathered.and_then(|args| {
            let override_input = self.overrides.get(&node.id);
            self.ctx.execute(node, args, override_input, worker)
        });

        let mut newly_ready = 0usize;
        let mut inner = self.inner.lock().expect("run lock");
        let finished = match outcome {
            Ok(_) if inner.error.is_some() => Ok(false), // stale result of an aborted run
            Ok(done) => inner.core.finish(node, done).map(|()| true),
            Err(e) => Err(e),
        };
        match finished {
            Ok(true) => {
                inner.completed += 1;
                for &succ in &self.sched.successors[item.pos] {
                    inner.indegree[succ] -= 1;
                    if inner.indegree[succ] == 0 {
                        inner.ready.push(ReadyItem {
                            priority: self.sched.priority[succ],
                            pos: succ,
                        });
                        newly_ready += 1;
                    }
                }
            }
            Ok(false) => {}
            Err(e) => {
                inner.error.get_or_insert(e);
            }
        }
        // account successor tickets before releasing the lock so the
        // waiter can never observe inflight == 0 with work outstanding
        inner.inflight += newly_ready;
        drop(inner);

        // Spawn successors while this ticket is still counted in
        // `inflight`: the waiter cannot return yet, so the interpreter
        // (and its pool) are still alive and the Arc upgraded here can
        // never be the last one — otherwise a completed run could race
        // this block, leaving a worker to drop (and self-join) the pool.
        if newly_ready > 0 {
            let pool = self
                .pool
                .upgrade()
                .expect("interpreter (and its pool) outlive the run");
            for _ in 0..newly_ready {
                let state = Arc::clone(self);
                pool.spawn(move |w| state.run_ticket(w));
            }
        }

        let mut inner = self.inner.lock().expect("run lock");
        inner.inflight -= 1;
        self.progress.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use ngb_graph::{GraphBuilder, OpKind};
    use std::time::Duration;

    fn branchy_graph() -> Graph {
        // input fans out to 4 linear branches that are summed pairwise
        let mut b = GraphBuilder::new("branchy");
        let x = b.input(&[4, 32]);
        let branches: Vec<NodeId> = (0..4)
            .map(|i| {
                b.push(
                    OpKind::Linear {
                        in_f: 32,
                        out_f: 32,
                        bias: true,
                    },
                    &[x],
                    &format!("fc{i}"),
                )
                .unwrap()
            })
            .collect();
        let a = b
            .push(OpKind::Add, &[branches[0], branches[1]], "a")
            .unwrap();
        let c = b
            .push(OpKind::Add, &[branches[2], branches[3]], "c")
            .unwrap();
        b.push(OpKind::Add, &[a, c], "sum").unwrap();
        b.finish()
    }

    #[test]
    fn matches_sequential_bit_for_bit() {
        let g = branchy_graph();
        let seq = Interpreter::new(42).run(&g).unwrap();
        for threads in [1, 2, 4] {
            let par = Interpreter::new(42)
                .engine(Engine::Parallel(threads))
                .run(&g)
                .unwrap();
            assert_eq!(seq.outputs.len(), par.outputs.len());
            for ((id_s, t_s), (id_p, t_p)) in seq.outputs.iter().zip(&par.outputs) {
                assert_eq!(id_s, id_p);
                assert_eq!(t_s, t_p, "threads={threads}");
            }
            assert_eq!(par.timings.len(), g.len());
            for (node, timing) in g.iter().zip(&par.timings) {
                assert_eq!(node.id, timing.id);
                assert!(timing.worker < threads.max(1));
            }
        }
    }

    #[test]
    fn intra_op_switch_never_changes_results() {
        let g = branchy_graph();
        let seq = Interpreter::new(42).run(&g).unwrap();
        for threads in [1, 4] {
            for on in [false, true] {
                let par = Interpreter::new(42)
                    .engine(Engine::Parallel(threads))
                    .intra_op(on)
                    .run(&g)
                    .unwrap();
                for ((id_s, t_s), (id_p, t_p)) in seq.outputs.iter().zip(&par.outputs) {
                    assert_eq!(id_s, id_p);
                    assert_eq!(t_s, t_p, "threads={threads} intra_op={on}");
                }
            }
        }
    }

    #[test]
    fn executor_is_reusable_across_graphs_and_runs() {
        let exec = Interpreter::new(7).engine(Engine::Parallel(2));
        let g = branchy_graph();
        let a = exec.run(&g).unwrap();
        let b = exec.run(&g).unwrap();
        assert_eq!(a.outputs[0].1, b.outputs[0].1);
        // and across a different graph
        let mut gb = GraphBuilder::new("other");
        let x = gb.input(&[2, 2]);
        gb.push(OpKind::Relu, &[x], "r").unwrap();
        assert!(exec.run(&gb.finish()).is_ok());
    }

    #[test]
    fn structural_errors_match_sequential_contract() {
        let mut g = branchy_graph();
        g.nodes[2].inputs = vec![NodeId(99)];
        let err = Interpreter::new(0)
            .engine(Engine::Parallel(2))
            .run(&g)
            .unwrap_err();
        assert!(err.to_string().contains("nonexistent node %99"), "{err}");

        let mut g2 = branchy_graph();
        g2.nodes[1].id = NodeId(3);
        let err2 = Interpreter::new(0)
            .engine(Engine::Parallel(2))
            .run(&g2)
            .unwrap_err();
        assert!(err2.to_string().contains("position 1 has id %3"), "{err2}");
    }

    #[test]
    fn cycle_is_rejected_not_deadlocked() {
        let mut g = branchy_graph();
        let last = g.len() - 1;
        g.nodes[last].inputs = vec![NodeId(last)]; // self-loop
        let err = Interpreter::new(0)
            .engine(Engine::Parallel(2))
            .run(&g)
            .unwrap_err();
        assert!(err.to_string().contains("dependency cycle"), "{err}");
    }

    #[test]
    fn create_run_drop_cycle_never_joins_pool_from_a_worker() {
        // Regression: a ticket that spawned successors used to hold its
        // upgraded Arc<ThreadPool> past the point where the waiter could
        // return; dropping the executor right after run() then let a
        // worker drop — and self-join — the pool ("Resource deadlock
        // avoided"). Worker panics are caught by the pool, so detect via
        // a counting panic hook instead of the run result.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static JOIN_PANICS: AtomicUsize = AtomicUsize::new(0);
        std::panic::set_hook(Box::new(|info| {
            if info.to_string().contains("failed to join thread") {
                JOIN_PANICS.fetch_add(1, Ordering::SeqCst);
            }
        }));
        let g = branchy_graph();
        for _ in 0..100 {
            // executor (and pool) dropped immediately after the run
            Interpreter::new(1)
                .engine(Engine::Parallel(4))
                .run(&g)
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let _ = std::panic::take_hook(); // restore the default hook
        assert_eq!(JOIN_PANICS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parallel_engine_spawns_its_workers_once() {
        let g = branchy_graph();
        let interp = Interpreter::new(3).engine(Engine::Parallel(2));
        let pool = interp.pool();
        let clone = interp.clone();
        for _ in 0..50 {
            let trace = clone.run(&g).unwrap();
            assert!(trace.timings.iter().all(|t| t.worker < 2));
            assert!(Arc::ptr_eq(&pool, &interp.pool()));
        }
        assert!(Arc::ptr_eq(&pool, &clone.pool()), "clones share the pool");
        assert_eq!(pool.threads(), 2);
        // a differently sized engine cannot reuse it
        let wider = interp.clone().engine(Engine::Parallel(3));
        assert!(!Arc::ptr_eq(&pool, &wider.pool()));
        assert_eq!(wider.pool().threads(), 3);
    }

    #[test]
    fn peak_live_bytes_is_tracked() {
        let g = branchy_graph();
        let t = Interpreter::new(0)
            .engine(Engine::Parallel(2))
            .run(&g)
            .unwrap();
        assert!(t.peak_live_bytes >= 4 * 32 * 4); // at least one activation
    }
}
