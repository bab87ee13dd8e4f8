//! The one run core every executor drives.
//!
//! A run is three steps per node — [`RunCore::gather`] the inputs out of
//! the value table, [`ExecCtx::execute`] the kernel under the timer, and
//! [`RunCore::finish`] the bookkeeping — and this module is the only
//! implementation of each. The drivers add scheduling and nothing else:
//! the sequential engine walks positions on a `&mut` core, the ticket
//! scheduler (`parallel.rs`) calls the same steps with the core behind its
//! run mutex and `execute` outside it, and an `ngb-shard` device thread
//! walks its own node list with `Transfer` arguments arriving from its
//! inbox instead of the table.
//!
//! [`ExecCtx`] is the immutable half of a run (seed, quantization, the
//! owner's [`ParamStore`], the intra-op runner, the run's time origin) so
//! `execute` can run unlocked on any thread; [`RunCore`] is the mutable
//! half: values, remaining consumer counts from the [`BufferPlan`],
//! live/peak bytes, per-node [`NodeTiming`]s, the parameter-fetch tally,
//! and the shadow memory when the sanitizer is on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ngb_graph::{Graph, Node};
use ngb_ops::parallel::{self as intra, IntraOpRunner};
use ngb_ops::Quant;
use ngb_tensor::{Tensor, TensorError};

use crate::bufplan::BufferPlan;
use crate::interp::{execute_node, node_splits, ExecutionTrace, NodeTiming};
use crate::params::{FetchTally, ParamStore};
use crate::sanitizer::ShadowMemory;

/// The structural contract every driver checks before touching a value
/// table: inputs name existing nodes and ids equal positions.
///
/// # Errors
///
/// The first dangling input or out-of-step id.
pub fn validate(graph: &Graph) -> Result<(), TensorError> {
    let len = graph.len();
    for node in graph.iter() {
        if let Some(i) = node.inputs.iter().find(|i| i.0 >= len) {
            return Err(TensorError::InvalidArgument(format!(
                "node {} consumes nonexistent node {i}",
                node.id
            )));
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
    Ok(())
}

/// Bytes of one value in the planner's metric: element count × 4 (the
/// f32-equivalent accounting [`Graph::peak_activation_bytes`] uses).
fn planner_bytes(shape: &[usize]) -> usize {
    ngb_tensor::num_elements(shape) * 4
}

pub(crate) fn missing_input(node: &Node, i: usize) -> TensorError {
    TensorError::InvalidArgument(format!(
        "node {} ({}) is missing input {i}",
        node.id, node.name
    ))
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

/// What one [`ExecCtx::execute`] call produced, handed to
/// [`RunCore::finish`].
#[derive(Debug)]
pub struct Executed {
    /// The node's output value.
    pub out: Tensor,
    /// The node's trace record (kernel time only: parameters were fetched
    /// before the timer started).
    pub timing: NodeTiming,
    fetched: FetchTally,
}

/// Fails `node` when its kernels dispatched, on this thread, a split that
/// is not among its [`crate::NodeSplits`] for `args` and `out`.
fn check_splits(node: &Node, args: &[Tensor], out: &Tensor) -> Result<(), TensorError> {
    let dispatched = intra::take_split_log();
    let inputs: Vec<_> = args.iter().map(|t| (t.shape(), t.strides())).collect();
    let declared = node_splits(&node.op, &inputs, out.shape()).splits;
    match dispatched.iter().find(|s| !declared.contains(s)) {
        None => Ok(()),
        Some(split) => Err(TensorError::InvalidArgument(format!(
            "sanitizer: node {} ({}) dispatched {split:?}, which it does not declare \
             (declared: {declared:?})",
            node.id, node.name
        ))),
    }
}

/// The immutable half of one run; see [`crate::Interpreter::begin_run`].
pub struct ExecCtx {
    pub(crate) seed: u64,
    pub(crate) quant: Quant,
    /// Holds every kernel dispatch to its node's declared splits.
    pub(crate) sanitize: bool,
    pub(crate) store: Arc<ParamStore>,
    /// Installed around every kernel when intra-op parallelism is on.
    pub(crate) runner: Option<Arc<dyn IntraOpRunner>>,
    pub(crate) started_at: Instant,
}

impl ExecCtx {
    /// Runs `node` on `args` (dropped before returning, so a last use
    /// frees its storage) as `worker`: parameters are fetched first, then
    /// the kernel runs under the timer with the thread's intra-op and
    /// contiguous-copy counters bracketing exactly this node. When the run
    /// sanitizes, the splits the kernel dispatched are then checked
    /// against the node's declaration.
    ///
    /// # Errors
    ///
    /// Kernel errors; a panic in the weight generator or the kernel comes
    /// back as a `node … kernel panicked: …` error naming the node; when
    /// sanitizing, a `sanitizer:` error naming the node and a dispatched
    /// split it does not declare.
    pub fn execute(
        &self,
        node: &Node,
        args: Vec<Tensor>,
        override_input: Option<&Tensor>,
        worker: usize,
    ) -> Result<Executed, TensorError> {
        // one unwind boundary for the draw and the kernel: a first touch
        // can panic in the weight generator like a kernel can
        catch_unwind(AssertUnwindSafe(|| {
            let mut fetched = FetchTally::default();
            let params = self.store.fetch(self.seed, node, &mut fetched)?;
            let started = Instant::now();
            // the split log rides the counters, armed only to sanitize
            intra::reset_stats(self.sanitize);
            // contiguous-copy telemetry is thread-local; the node's copies
            // all happen on this thread (intra-op chunk jobs never
            // materialize), so reset/take brackets exactly this node
            ngb_tensor::telemetry::reset_bytes_materialized();
            let kernel =
                || execute_node(self.seed, node, &args, override_input, &params, self.quant);
            let out = match &self.runner {
                Some(r) => intra::with_runner(Arc::clone(r), kernel),
                None => kernel(),
            }?;
            let stats = intra::take_stats();
            let timing = NodeTiming {
                id: node.id,
                elapsed: started.elapsed(),
                start: started.duration_since(self.started_at),
                worker,
                out_shape: out.shape().to_vec(),
                intra_chunks: stats.chunks,
                intra_participants: stats.max_participants.max(1),
                bytes_materialized: ngb_tensor::telemetry::take_bytes_materialized(),
            };
            if self.sanitize {
                check_splits(node, &args, &out)?;
            }
            Ok(Executed {
                out,
                timing,
                fetched,
            })
        }))
        .unwrap_or_else(|panic| {
            Err(TensorError::InvalidArgument(format!(
                "node {} ({}) kernel panicked: {}",
                node.id,
                node.name,
                panic_message(&*panic)
            )))
        })
    }
}

/// The mutable half of one run: the value table and everything counted
/// against it. Slots are graph positions.
#[derive(Debug)]
pub struct RunCore {
    values: Vec<Option<Tensor>>,
    /// Consumers still to run per value; a value is dropped when its last
    /// one finishes.
    uses: Vec<usize>,
    is_output: Vec<bool>,
    live_bytes: usize,
    peak_live_bytes: usize,
    /// In completion order; [`RunCore::drain_trace`] sorts by id.
    timings: Vec<NodeTiming>,
    fetched: FetchTally,
    /// Present only in sanitize mode: the shadow of `values`.
    shadow: Option<ShadowMemory>,
}

impl RunCore {
    /// A core that keeps each value until `uses[v]` consumers finished
    /// and never drops an `is_output` value. The shard driver passes
    /// same-device consumer counts here; everyone else goes through
    /// [`RunCore::for_plan`].
    pub fn new(uses: Vec<usize>, is_output: Vec<bool>, sanitize: bool) -> RunCore {
        let len = uses.len();
        RunCore {
            values: vec![None; len],
            uses,
            is_output,
            live_bytes: 0,
            peak_live_bytes: 0,
            timings: Vec::with_capacity(len),
            fetched: FetchTally::default(),
            shadow: sanitize.then(|| ShadowMemory::new(len)),
        }
    }

    /// A core following `plan`'s consumer counts — the lifetimes
    /// `ngb-sanitize` certifies.
    pub fn for_plan(plan: BufferPlan, sanitize: bool) -> RunCore {
        let is_output = plan.uses.iter().map(|&u| u == 0).collect();
        RunCore::new(plan.uses, is_output, sanitize)
    }

    /// Clones `node`'s inputs out of the table. Drivers that lock the core
    /// call this under the lock, so the shadow memory observes exactly the
    /// executor's interleaving of gathers against frees.
    ///
    /// # Errors
    ///
    /// A missing input; in sanitize mode a read-before-write or
    /// use-after-free, which outranks it.
    pub fn gather(&self, node: &Node) -> Result<Vec<Tensor>, TensorError> {
        if let Some(s) = &self.shadow {
            let pos = node.id.0;
            node.inputs
                .iter()
                .try_for_each(|&i| s.begin_read(i.0, pos))?;
        }
        node.inputs
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                self.values
                    .get(id.0)
                    .and_then(|v| v.clone())
                    .ok_or_else(|| missing_input(node, i))
            })
            .collect()
    }

    /// Records `node`'s result, stores its value, and drops every input
    /// this was the last consumer of.
    ///
    /// # Errors
    ///
    /// In sanitize mode, a shadow-memory violation.
    pub fn finish(&mut self, node: &Node, done: Executed) -> Result<(), TensorError> {
        let pos = node.id.0;
        let Executed {
            out,
            timing,
            fetched,
        } = done;
        self.fetched.merge(fetched);
        if let Some(s) = &self.shadow {
            s.write(pos, pos)?;
            for &i in &node.inputs {
                s.end_read(i.0, pos);
            }
        }
        self.live_bytes += planner_bytes(out.shape());
        self.peak_live_bytes = self.peak_live_bytes.max(self.live_bytes);
        self.timings.push(timing);
        self.values[pos] = Some(out);
        for &input in &node.inputs {
            let i = input.0;
            // saturating: a fault-injected plan may undercount consumers
            self.uses[i] = self.uses[i].saturating_sub(1);
            if self.uses[i] == 0 && !self.is_output[i] {
                if let Some(dead) = self.values[i].take() {
                    if let Some(s) = &self.shadow {
                        s.free(i, pos)?;
                    }
                    self.live_bytes -= planner_bytes(dead.shape());
                }
            }
        }
        Ok(())
    }

    /// Ends a run that finished every node of `graph`, moving its output
    /// values (nodes without consumers) and timings out in id order.
    ///
    /// # Errors
    ///
    /// An output that is missing because its node never ran.
    pub(crate) fn drain_trace(
        &mut self,
        graph: &Graph,
        store: &ParamStore,
    ) -> Result<ExecutionTrace, TensorError> {
        let outputs = graph
            .iter()
            .filter(|n| self.is_output[n.id.0])
            .map(|n| {
                let value = self.values[n.id.0].take().ok_or_else(|| {
                    TensorError::InvalidArgument(format!("output node {} never executed", n.id))
                })?;
                Ok((n.id, value))
            })
            .collect::<Result<_, TensorError>>()?;
        let mut timings = std::mem::take(&mut self.timings);
        timings.sort_unstable_by_key(|t| t.id);
        Ok(ExecutionTrace {
            outputs,
            timings,
            peak_live_bytes: self.peak_live_bytes,
            arena: self.fetched.stats(store),
            param_synthesis: self.fetched.synthesis(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{NodeId, OpKind};

    #[test]
    fn an_undeclared_split_fails_the_node_that_dispatched_it() {
        // a node declaring a relu whose kernel dispatched a roll's rows:
        // the mirror of a wrong declaration in the split map
        let x = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[2, 3, 4]).unwrap();
        let node = Node {
            id: NodeId(7),
            op: OpKind::Relu,
            inputs: vec![NodeId(0)],
            out_shape: vec![2, 3, 4],
            name: "act".into(),
            seed_hint: None,
        };
        intra::reset_stats(true);
        let out = ngb_ops::memory::roll(&x, 1, 1).unwrap();
        let err = check_splits(&node, std::slice::from_ref(&x), &out)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("sanitizer: node %7 (act) dispatched") && err.contains("roll-row"),
            "{err}"
        );
        // the relu's own split is declared, and the check disarmed the log
        intra::reset_stats(true);
        let out = ngb_ops::activation::relu(&x).unwrap();
        check_splits(&node, std::slice::from_ref(&x), &out).unwrap();
        ngb_ops::memory::roll(&x, 1, 1).unwrap();
        assert!(intra::take_split_log().is_empty());
    }
}
