//! Dependency-scheduled parallel graph execution.
//!
//! [`ParallelExecutor`] runs a graph on a [`ThreadPool`], dispatching nodes
//! as their producers complete, highest critical-path priority first. It
//! produces the same [`ExecutionTrace`] as the sequential interpreter with
//! **bit-identical outputs**: every node's weights and synthetic inputs
//! come from an RNG keyed on the node id (never on execution order), and
//! kernels are pure functions of their input tensors.
//!
//! Scheduling is *ticket-based*: each ready node enqueues one short pool
//! job (a ticket) that pops the highest-priority ready node, executes it,
//! and enqueues tickets for newly-ready successors. Workers are free
//! between tickets, which is what lets intra-op helper chunks (spawned by
//! kernels through [`crate::PoolRunner`] when `intra_op` is on) interleave
//! on the same pool instead of starving behind long-lived node loops.
//!
//! A kernel error (or panic) aborts the run cleanly: the first failure is
//! recorded, remaining tickets drain without executing, in-flight kernels
//! finish and discard their results, and the pool stays reusable.

use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use ngb_graph::{Graph, NodeId};
use ngb_ops::parallel::{self as intra, IntraOpRunner, IntraOpStats};
use ngb_tensor::{Tensor, TensorError};

use crate::bufplan::BufferPlan;
use crate::interp::{
    collect_outputs, execute_node, gather_args, planner_bytes, ExecutionTrace, NodeTiming,
};
use crate::intraop::PoolRunner;
use crate::params::{FetchTally, ParamStore};
use crate::pool::ThreadPool;
use crate::schedule::Schedule;

/// Parallel engine: owns a worker pool and a parameter store, both
/// reusable across runs and graphs.
#[derive(Debug)]
pub struct ParallelExecutor {
    pub(crate) seed: u64,
    pub(crate) preflight: bool,
    pub(crate) intra_op: bool,
    pub(crate) sanitize: bool,
    pub(crate) quant: ngb_ops::Quant,
    pub(crate) pool: Arc<ThreadPool>,
    /// Fresh per executor, except that an [`crate::Interpreter`] hands the
    /// executor it drives its own.
    pub(crate) store: Arc<ParamStore>,
}

impl ParallelExecutor {
    /// Creates an executor with `threads.max(1)` workers deriving weights
    /// from `seed`. Intra-op parallelism defaults to the `NGB_INTRAOP`
    /// environment setting (on when unset); the execution sanitizer to
    /// `NGB_SANITIZE` (off when unset).
    pub fn new(seed: u64, threads: usize) -> ParallelExecutor {
        ParallelExecutor::with_pool(seed, Arc::new(ThreadPool::new(threads)))
    }

    /// Creates an executor running on a caller-owned pool. Lets several
    /// executors (or a server's scheduler) share one set of workers instead
    /// of each spinning up their own.
    pub fn with_pool(seed: u64, pool: Arc<ThreadPool>) -> ParallelExecutor {
        ParallelExecutor {
            seed,
            preflight: false,
            intra_op: crate::env_intraop(true),
            sanitize: crate::env_sanitize(false),
            quant: crate::env_quant(ngb_ops::Quant::None),
            pool,
            store: Arc::default(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// A shared handle to the executor's worker pool (for backpressure
    /// counters or graceful shutdown coordination).
    pub fn pool(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.pool)
    }

    /// Enables the same preflight check as the sequential interpreter.
    #[must_use]
    pub fn preflight(mut self, enabled: bool) -> ParallelExecutor {
        self.preflight = enabled;
        self
    }

    /// Enables or disables intra-op parallelism (kernels fanning chunks
    /// out across idle pool workers). Partitioning is a pure function of
    /// shape, so this switch never changes results — only where chunks run.
    #[must_use]
    pub fn intra_op(mut self, enabled: bool) -> ParallelExecutor {
        self.intra_op = enabled;
        self
    }

    /// Whether kernels dispatch intra-op chunks onto the pool.
    pub fn intra_op_enabled(&self) -> bool {
        self.intra_op
    }

    /// Enables or disables the shadow-memory execution sanitizer (see
    /// [`crate::ShadowMemory`]): every value-table access is tagged and
    /// checked, and hazards abort the run with the offending node ids and
    /// an access trace. Results are unchanged; when off, no shadow state
    /// exists at all.
    #[must_use]
    pub fn sanitize(mut self, enabled: bool) -> ParallelExecutor {
        self.sanitize = enabled;
        self
    }

    /// Selects the weight-quantization mode for GEMM-family layers
    /// (same contract as [`crate::Interpreter::quantize`]).
    #[must_use]
    pub fn quantize(mut self, quant: ngb_ops::Quant) -> ParallelExecutor {
        self.quant = quant;
        self
    }

    /// The effective weight-quantization mode.
    pub fn quant(&self) -> ngb_ops::Quant {
        self.quant
    }

    /// Whether value-table accesses are checked against a shadow memory.
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Runs the graph with synthetic inputs.
    ///
    /// # Errors
    ///
    /// Returns the first kernel error; the run aborts without deadlocking
    /// and the executor remains usable.
    pub fn run(&self, graph: &Graph) -> Result<ExecutionTrace, TensorError> {
        self.run_with_inputs(graph, &HashMap::new())
    }

    /// Runs the graph with caller-provided input overrides.
    ///
    /// # Errors
    ///
    /// Returns structural errors (same contract as the sequential engine)
    /// or the first kernel error.
    pub fn run_with_inputs(
        &self,
        graph: &Graph,
        inputs: &HashMap<NodeId, Tensor>,
    ) -> Result<ExecutionTrace, TensorError> {
        if self.preflight {
            crate::interp::preflight_check(graph)?;
        }
        let len = graph.len();
        // same structural contract (and messages) as the sequential engine
        for node in graph.iter() {
            for &i in &node.inputs {
                if i.0 >= len {
                    return Err(TensorError::InvalidArgument(format!(
                        "node {} consumes nonexistent node {i}",
                        node.id
                    )));
                }
            }
        }
        for (pos, node) in graph.iter().enumerate() {
            if node.id.0 != pos {
                return Err(TensorError::InvalidArgument(format!(
                    "node at position {pos} has id {}",
                    node.id
                )));
            }
        }
        let sched = Schedule::new(graph);
        if !sched.is_complete() {
            return Err(TensorError::InvalidArgument(format!(
                "graph has a dependency cycle: only {} of {} nodes schedulable",
                sched.wavefronts.iter().map(Vec::len).sum::<usize>(),
                len
            )));
        }
        let plan = BufferPlan::new(graph);
        self.run_prepared(graph, inputs, sched, plan)
    }

    /// Runs the graph under a caller-supplied [`Schedule`] and
    /// [`BufferPlan`] instead of recomputing them — the fault-injection
    /// hook the sanitizer's seeded-fault tests use to execute
    /// deliberately corrupted parts and assert the shadow memory catches
    /// the resulting hazard.
    ///
    /// The caller is responsible for parts whose dependency counts drain
    /// (every node must eventually become ready); the normal entry points
    /// guarantee this via [`Schedule::is_complete`].
    ///
    /// # Errors
    ///
    /// Returns the first kernel or sanitizer error.
    pub fn run_with_parts(
        &self,
        graph: &Graph,
        sched: Schedule,
        plan: BufferPlan,
    ) -> Result<ExecutionTrace, TensorError> {
        self.run_prepared(graph, &HashMap::new(), sched, plan)
    }

    fn run_prepared(
        &self,
        graph: &Graph,
        inputs: &HashMap<NodeId, Tensor>,
        sched: Schedule,
        plan: BufferPlan,
    ) -> Result<ExecutionTrace, TensorError> {
        let len = graph.len();
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
        let runner = (self.intra_op && self.pool.threads() > 1)
            .then(|| Arc::new(PoolRunner::new(&self.pool)));
        let shared = Arc::new(RunState {
            graph: Arc::new(graph.clone()),
            overrides: inputs.clone(),
            seed: self.seed,
            quant: self.quant,
            sched,
            is_output: (0..len).map(|i| plan.is_output(i)).collect(),
            store: Arc::clone(&self.store),
            shadow: self.sanitize.then(|| crate::ShadowMemory::new(len)),
            started_at: Instant::now(),
            pool: Arc::downgrade(&self.pool),
            runner,
            inner: Mutex::new(Inner {
                ready,
                indegree,
                uses: plan.uses,
                values: vec![None; len],
                timings: (0..len).map(|_| None).collect(),
                completed: 0,
                inflight: initial,
                live_bytes: 0,
                peak_live_bytes: 0,
                fetched: FetchTally::default(),
                error: None,
            }),
            progress: Condvar::new(),
        });

        for _ in 0..initial {
            let state = Arc::clone(&shared);
            self.pool.spawn(move |worker| state.run_ticket(worker));
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
        let timings = inner
            .timings
            .iter_mut()
            .map(|t| t.take().expect("every node timed on success"))
            .collect();
        let mut values = std::mem::take(&mut inner.values);
        let peak_live_bytes = inner.peak_live_bytes;
        let fetched = inner.fetched;
        drop(inner);
        let outputs = collect_outputs(graph, &shared.is_output, &mut values)?;
        Ok(ExecutionTrace {
            outputs,
            timings,
            peak_live_bytes,
            arena: fetched.stats(&self.store),
            param_synthesis: fetched.synthesis(),
        })
    }
}

/// Everything a ticket needs, shared behind one `Arc`.
struct RunState {
    graph: Arc<Graph>,
    overrides: HashMap<NodeId, Tensor>,
    seed: u64,
    quant: ngb_ops::Quant,
    sched: Schedule,
    is_output: Vec<bool>,
    store: Arc<ParamStore>,
    /// Present only in sanitize mode: the shadow of `Inner::values`.
    shadow: Option<crate::ShadowMemory>,
    started_at: Instant,
    /// Weak so a ticket finishing after the waiter returned can never be
    /// the one to drop (and join) the pool from a worker thread.
    pool: Weak<ThreadPool>,
    /// Installed around every kernel when intra-op parallelism is on.
    runner: Option<Arc<PoolRunner>>,
    inner: Mutex<Inner>,
    progress: Condvar,
}

/// Mutable run state, guarded by `RunState::inner`.
struct Inner {
    ready: BinaryHeap<ReadyItem>,
    indegree: Vec<usize>,
    uses: Vec<usize>,
    values: Vec<Option<Tensor>>,
    timings: Vec<Option<NodeTiming>>,
    completed: usize,
    /// Tickets spawned but not yet finished — the abort path waits for
    /// this to reach zero so in-flight kernels drain before returning.
    inflight: usize,
    live_bytes: usize,
    peak_live_bytes: usize,
    fetched: FetchTally,
    error: Option<TensorError>,
}

/// What a ticket's kernel call produced, handed to `finish_node`.
struct Executed {
    out: Tensor,
    start: Duration,
    elapsed: Duration,
    stats: IntraOpStats,
    bytes_materialized: u64,
    fetched: FetchTally,
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
        // shadow reads are tagged under the same lock the gather holds, so
        // the shadow observes exactly the executor's interleaving of
        // gathers against frees; read-before-write outranks the gather's
        // own missing-input error
        let read_check = self.shadow.as_ref().map_or(Ok(()), |s| {
            node.inputs
                .iter()
                .try_for_each(|&i| s.begin_read(i.0, item.pos))
        });
        let gathered = read_check.and_then(|()| gather_args(node, &inner.values));
        drop(inner);

        let outcome = gathered.and_then(|args| {
            // one unwind boundary for the draw and the kernel: a first
            // touch can panic in the weight generator like a kernel can
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut fetched = FetchTally::default();
                let params = self.store.fetch(self.seed, node, &mut fetched)?;
                let kernel_start = Instant::now();
                intra::reset_stats();
                // contiguous-copy telemetry is thread-local; the node's
                // copies all happen on this worker thread (intra-op chunk
                // jobs never materialize), so reset/take brackets exactly
                // this node
                ngb_tensor::telemetry::reset_bytes_materialized();
                let exec_once = || {
                    execute_node(
                        self.seed,
                        node,
                        &args,
                        self.overrides.get(&node.id),
                        &params,
                        self.quant,
                    )
                };
                let out = match &self.runner {
                    Some(r) => {
                        intra::with_runner(Arc::clone(r) as Arc<dyn IntraOpRunner>, exec_once)
                    }
                    None => exec_once(),
                }?;
                Ok(Executed {
                    out,
                    start: kernel_start.duration_since(self.started_at),
                    elapsed: kernel_start.elapsed(),
                    stats: intra::take_stats(),
                    bytes_materialized: ngb_tensor::telemetry::take_bytes_materialized(),
                    fetched,
                })
            }));
            result.unwrap_or_else(|panic| {
                Err(TensorError::InvalidArgument(format!(
                    "node {} ({}) kernel panicked: {}",
                    node.id,
                    node.name,
                    panic_message(&*panic)
                )))
            })
        });

        let mut newly_ready = 0usize;
        let mut inner = self.inner.lock().expect("run lock");
        match outcome {
            Err(e) => {
                if inner.error.is_none() {
                    inner.error = Some(e);
                }
            }
            Ok(_) if inner.error.is_some() => {} // stale result of an aborted run
            Ok(done) => match self.finish_node(&mut inner, item.pos, worker, done) {
                Ok(n) => newly_ready = n,
                Err(e) => {
                    if inner.error.is_none() {
                        inner.error = Some(e);
                    }
                }
            },
        }
        // account successor tickets before releasing the lock so the
        // waiter can never observe inflight == 0 with work outstanding
        inner.inflight += newly_ready;
        drop(inner);

        // Spawn successors while this ticket is still counted in
        // `inflight`: the waiter cannot return yet, so the executor (and
        // its pool) are still alive and the Arc upgraded here can never
        // be the last one — otherwise a completed run could race this
        // block, leaving a worker to drop (and self-join) the pool.
        if newly_ready > 0 {
            let pool = self
                .pool
                .upgrade()
                .expect("executor (and its pool) outlive the run");
            for _ in 0..newly_ready {
                let state = Arc::clone(self);
                pool.spawn(move |w| state.run_ticket(w));
            }
        }

        let mut inner = self.inner.lock().expect("run lock");
        inner.inflight -= 1;
        self.progress.notify_all();
    }

    /// Records a completed node and releases newly ready/dead state,
    /// returning how many successors became ready. Caller holds the run
    /// lock and spawns one ticket per newly-ready successor.
    ///
    /// # Errors
    ///
    /// In sanitize mode, a shadow-memory violation (the run aborts).
    fn finish_node(
        &self,
        inner: &mut Inner,
        pos: usize,
        worker: usize,
        done: Executed,
    ) -> Result<usize, TensorError> {
        let Executed {
            out,
            start,
            elapsed,
            stats,
            bytes_materialized,
            fetched,
        } = done;
        inner.fetched.merge(fetched);
        let node = &self.graph.nodes[pos];
        if let Some(s) = &self.shadow {
            s.write(pos, pos)?;
            for &i in &node.inputs {
                s.end_read(i.0, pos);
            }
        }
        inner.live_bytes += planner_bytes(out.shape());
        inner.peak_live_bytes = inner.peak_live_bytes.max(inner.live_bytes);
        inner.timings[pos] = Some(NodeTiming {
            id: node.id,
            elapsed,
            start,
            worker,
            out_shape: out.shape().to_vec(),
            intra_chunks: stats.chunks,
            intra_participants: stats.max_participants.max(1),
            bytes_materialized,
        });
        inner.values[pos] = Some(out);
        let mut newly_ready = 0;
        for &succ in &self.sched.successors[pos] {
            inner.indegree[succ] -= 1;
            if inner.indegree[succ] == 0 {
                inner.ready.push(ReadyItem {
                    priority: self.sched.priority[succ],
                    pos: succ,
                });
                newly_ready += 1;
            }
        }
        for &input in &node.inputs {
            let i = input.0;
            inner.uses[i] -= 1;
            if inner.uses[i] == 0 && !self.is_output[i] {
                if let Some(dead) = inner.values[i].take() {
                    if let Some(s) = &self.shadow {
                        s.free(i, pos)?;
                    }
                    inner.live_bytes -= planner_bytes(dead.shape());
                }
            }
        }
        inner.completed += 1;
        Ok(newly_ready)
    }
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{GraphBuilder, OpKind};

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
        let seq = crate::Interpreter::new(42).run(&g).unwrap();
        for threads in [1, 2, 4] {
            let par = ParallelExecutor::new(42, threads).run(&g).unwrap();
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
        let seq = crate::Interpreter::new(42).run(&g).unwrap();
        for threads in [1, 4] {
            for on in [false, true] {
                let par = ParallelExecutor::new(42, threads)
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
        let exec = ParallelExecutor::new(7, 2);
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
        let err = ParallelExecutor::new(0, 2).run(&g).unwrap_err();
        assert!(err.to_string().contains("nonexistent node %99"), "{err}");

        let mut g2 = branchy_graph();
        g2.nodes[1].id = NodeId(3);
        let err2 = ParallelExecutor::new(0, 2).run(&g2).unwrap_err();
        assert!(err2.to_string().contains("position 1 has id %3"), "{err2}");
    }

    #[test]
    fn cycle_is_rejected_not_deadlocked() {
        let mut g = branchy_graph();
        let last = g.len() - 1;
        g.nodes[last].inputs = vec![NodeId(last)]; // self-loop
        let err = ParallelExecutor::new(0, 2).run(&g).unwrap_err();
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
            ParallelExecutor::new(1, 4).run(&g).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let _ = std::panic::take_hook(); // restore the default hook
        assert_eq!(JOIN_PANICS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn peak_live_bytes_is_tracked() {
        let g = branchy_graph();
        let t = ParallelExecutor::new(0, 2).run(&g).unwrap();
        assert!(t.peak_live_bytes >= 4 * 32 * 4); // at least one activation
    }
}
