//! Thread placement for `serve_mix`: the server's threads on all of the
//! process's CPUs but the last, the load generator's on the last.
//!
//! Left to the scheduler, the five threads of that workload settle into one
//! of two placements on a 2-vCPU host that differ by 15 % in every latency
//! (a wake-up that crosses to a halted vCPU is expensive in a virtual
//! machine), and which one a run gets is chance. A generator that shares
//! cores with the server it loads also measures its own interference.
//!
//! The CPUs to place on are the ones the process started with. They are read
//! once, before anything is pinned: a pinned thread asking how many CPUs
//! there are (`std::thread::available_parallelism` reads the caller's mask)
//! is told one.

use std::sync::OnceLock;

/// glibc's `cpu_set_t`: 1024 bits, CPU `c` is bit `c % 64` of word `c / 64`.
const WORDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

impl CpuSet {
    pub fn of(cpus: impl IntoIterator<Item = usize>) -> CpuSet {
        let mut mask = [0u64; WORDS];
        for cpu in cpus.into_iter().filter(|c| *c < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        CpuSet(mask)
    }

    /// The CPUs of the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on; `None` where the kernel does not
/// say.
#[cfg(target_os = "linux")]
pub fn current() -> Option<CpuSet> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live 128-byte buffer and its exact size is passed;
    // the kernel writes at most that many bytes. pid 0 names the calling
    // thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
    ok.then_some(CpuSet(mask))
}

#[cfg(not(target_os = "linux"))]
pub fn current() -> Option<CpuSet> {
    None
}

/// The CPUs this process was given. Read on the first call, which `main`
/// and [`Pinned::split`] make before any thread is pinned, and the same ever
/// after.
pub fn original() -> CpuSet {
    static ORIGINAL: OnceLock<CpuSet> = OnceLock::new();
    *ORIGINAL.get_or_init(|| {
        current().filter(|set| set.len() > 0).unwrap_or_else(|| {
            let n = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            CpuSet::of(0..n)
        })
    })
}

/// Restricts the calling thread, and threads it spawns from now on, to
/// `cpus`. Returns whether the kernel accepted it; placement is best effort
/// and a refusal only costs steadiness.
#[cfg(target_os = "linux")]
fn pin_current_thread(cpus: &CpuSet) -> bool {
    // SAFETY: `cpus.0` is a live, initialized 128-byte buffer and its exact
    // size is passed; the kernel only reads it. pid 0 names the calling
    // thread, so no other thread's state is touched.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&cpus.0), cpus.0.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_cpus: &CpuSet) -> bool {
    false
}

/// CPUs of the server and of the generator out of `all`: the generator gets
/// the highest one. With one CPU there is nothing to separate.
pub fn split(all: &CpuSet) -> (CpuSet, CpuSet) {
    let cpus = all.cpus();
    match cpus.split_last() {
        Some((last, rest)) if !rest.is_empty() => {
            (CpuSet::of(rest.iter().copied()), CpuSet::of([*last]))
        }
        _ => (*all, *all),
    }
}

/// The calling thread's placement while `serve_mix`'s server and generator
/// run; dropping it gives the thread back the process's original CPUs.
pub struct Pinned {
    server: CpuSet,
    generator: CpuSet,
}

impl Pinned {
    /// Splits the original CPUs; pins nothing yet.
    pub fn split() -> Pinned {
        let (server, generator) = split(&original());
        Pinned { server, generator }
    }

    /// Threads spawned after this inherit the server's CPUs.
    pub fn as_server(&self) {
        pin_current_thread(&self.server);
    }

    pub fn as_generator(&self) {
        pin_current_thread(&self.generator);
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        pin_current_thread(&original());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_gets_the_last_cpu() {
        let set = |cpus: &[usize]| CpuSet::of(cpus.iter().copied());
        assert_eq!(split(&set(&[0])), (set(&[0]), set(&[0])));
        assert_eq!(split(&set(&[0, 1])), (set(&[0]), set(&[1])));
        // the CPUs a container was given need not start at 0 or be adjacent
        assert_eq!(split(&set(&[2, 5, 70])), (set(&[2, 5]), set(&[70])));
        assert_eq!(set(&[2, 5, 70]).cpus(), vec![2, 5, 70]);
        assert_eq!(set(&[2, 5, 70]).len(), 3);
    }
}
