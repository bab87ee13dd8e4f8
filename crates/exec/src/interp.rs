//! Graph interpreter: executes an operator graph on real tensors.
//!
//! Weights derive from a seeded RNG keyed by node id, so a graph is a
//! complete, reproducible executable artifact; each is drawn on first use
//! and then kept resident in the interpreter's [`ParamStore`]. The
//! interpreter also records per-node wall-clock time — kernel time on
//! resident weights — which is the *measured* (host CPU) profiling mode of
//! the benchmark.
//!
//! [`Interpreter`] is the one engine value: seed, engine, intra-op,
//! sanitizer, quantization and preflight settings, the parameter store and
//! (for [`Engine::Parallel`]) the resident worker pool. Every engine
//! drives the same run core ([`crate::RunCore`] / [`crate::ExecCtx`]) over
//! the same per-node kernel dispatch ([`execute_node`]) and per-node RNG
//! seeding, so outputs are bit-identical whichever engine runs them.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ngb_tensor::random::TensorRng;
use ngb_tensor::{Tensor, TensorError};

use ngb_graph::{FusedKind, Graph, Node, NodeId, OpKind};
use ngb_ops::gemm::{self, ConvLowering};
use ngb_ops::parallel::{self as intra, Split};
use ngb_ops::{interpolate, logit, memory, normalization, reduction, Quant};

use crate::bufplan::BufferPlan;
use crate::intraop::PoolRunner;
use crate::params::{ArenaStats, NodeParams, ParamStore};
use crate::pool::ThreadPool;
use crate::runcore::{missing_input, validate, ExecCtx, RunCore};
use crate::schedule::Schedule;

/// Which execution engine [`Interpreter::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One node at a time on the calling thread.
    Sequential,
    /// Dependency-scheduled execution on the interpreter's pool of N
    /// worker threads: nodes dispatch as their producers complete, highest
    /// critical-path priority first. `Parallel(1)` still exercises the
    /// scheduler and pool with a single worker.
    Parallel(usize),
}

impl Engine {
    /// Worker-thread count of this engine (1 for sequential and for
    /// `Parallel(0)`).
    pub fn threads(&self) -> usize {
        match *self {
            Engine::Sequential => 1,
            Engine::Parallel(n) => n.max(1),
        }
    }
}

/// Per-node record of one executed inference.
#[derive(Debug, Clone)]
pub struct NodeTiming {
    /// Executed node.
    pub id: NodeId,
    /// Wall-clock execution time of the kernel on the host.
    pub elapsed: Duration,
    /// Offset of the kernel's start from the beginning of the run (lets
    /// traces reconstruct the concurrency structure of a parallel run).
    pub start: Duration,
    /// Worker thread that executed the node (0 for sequential runs).
    pub worker: usize,
    /// Actual output shape (may differ from the static shape after dynamic
    /// ops like NMS).
    pub out_shape: Vec<usize>,
    /// Intra-op chunks the node's kernels dispatched (1 per serial kernel
    /// call; a pure function of shape, never of thread count).
    pub intra_chunks: usize,
    /// Maximum number of threads that cooperated on one of the node's
    /// intra-op dispatches (1 when everything ran serially).
    pub intra_participants: usize,
    /// Bytes of dense copies the node's kernels materialized from strided
    /// views (`Tensor::contiguous` copy path, sampled from the executing
    /// thread's counter). Zero for every layout chain the strided kernels
    /// consume in place.
    pub bytes_materialized: u64,
}

/// Result of executing a graph.
#[derive(Debug)]
pub struct ExecutionTrace {
    /// Values of the graph's terminal nodes (no consumers), in id order.
    pub outputs: Vec<(NodeId, Tensor)>,
    /// Per-node timings in node-id order.
    pub timings: Vec<NodeTiming>,
    /// High-water mark of live activation memory during the run, in the
    /// planner's f32-equivalent metric (elements × 4 bytes, actual shapes).
    /// For sequential runs this is bounded by
    /// [`Graph::peak_activation_bytes`]; parallel runs may exceed it because
    /// concurrent wavefronts keep more values live at once.
    pub peak_live_bytes: usize,
    /// The run's parameter fetches — served resident vs synthesized — and
    /// the bytes resident in the owner's [`ParamStore`] afterwards.
    pub arena: ArenaStats,
    /// Time the run spent synthesizing parameters, outside every node's
    /// `elapsed`: non-zero on an owner's first run of a graph, zero once
    /// its parameters are resident.
    pub param_synthesis: Duration,
}

impl ExecutionTrace {
    /// Total measured execution time (sum of per-node kernel times; for a
    /// parallel run this is the *work*, not the wall-clock).
    pub fn total_time(&self) -> Duration {
        self.timings.iter().map(|t| t.elapsed).sum()
    }

    /// Wall-clock span of the run: latest kernel end minus first start.
    pub fn span(&self) -> Duration {
        self.timings
            .iter()
            .map(|t| t.start + t.elapsed)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Total bytes of dense copies materialized from strided views across
    /// the run (sum of per-node counters).
    pub fn bytes_materialized(&self) -> u64 {
        self.timings.iter().map(|t| t.bytes_materialized).sum()
    }
}

/// Executes graphs with reproducible synthetic weights.
///
/// Clones share one [`ParamStore`] and, under [`Engine::Parallel`], one
/// resident [`ThreadPool`], so a layer is synthesized once and workers are
/// spawned once per interpreter however many graphs, runs, or sessions use
/// it. The pool is created by the first parallel run (or [`Self::pool`])
/// and joined when the last clone drops — always on a caller's thread,
/// because a run holds only a weak handle to it.
#[derive(Debug, Clone)]
pub struct Interpreter {
    seed: u64,
    preflight: bool,
    engine: Engine,
    intra_op: bool,
    sanitize: bool,
    quant: Quant,
    pub(crate) store: Arc<ParamStore>,
    pool: Arc<OnceLock<Arc<ThreadPool>>>,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new(0x5eed)
    }
}

impl Interpreter {
    /// Creates a sequential interpreter whose weights derive from `seed`,
    /// with intra-op parallelism on, the sanitizer off and weights
    /// unquantized.
    pub fn new(seed: u64) -> Interpreter {
        Interpreter {
            seed,
            preflight: false,
            engine: Engine::Sequential,
            intra_op: true,
            sanitize: false,
            quant: Quant::None,
            store: Arc::default(),
            pool: Arc::default(),
        }
    }

    /// Selects the execution engine (builder style). A different engine
    /// gets its own pool; the parameter store stays shared.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Interpreter {
        if engine != self.engine {
            self.pool = Arc::default();
        }
        self.engine = engine;
        self
    }

    /// The selected execution engine.
    pub fn engine_kind(&self) -> Engine {
        self.engine
    }

    /// Forces intra-op parallelism on or off for the parallel engine.
    /// The switch never changes results — chunk partitioning is a pure
    /// function of shape — only where chunks execute.
    #[must_use]
    pub fn intra_op(mut self, enabled: bool) -> Interpreter {
        self.intra_op = enabled;
        self
    }

    /// Whether kernels dispatch intra-op chunks onto the pool.
    pub fn intra_op_enabled(&self) -> bool {
        self.intra_op
    }

    /// Forces the shadow-memory execution sanitizer on or off. When
    /// enabled, every value-table access is checked against a
    /// [`crate::ShadowMemory`] and hazards fail the run with the offending
    /// node ids and an access trace; results are unchanged (the sanitizer
    /// only observes), and when off no shadow state exists at all.
    #[must_use]
    pub fn sanitize(mut self, enabled: bool) -> Interpreter {
        self.sanitize = enabled;
        self
    }

    /// Whether value-table accesses are checked against a shadow memory.
    pub fn sanitize_enabled(&self) -> bool {
        self.sanitize
    }

    /// Selects the weight-quantization mode for GEMM-family layers.
    /// `Quant::Int8` quantizes Linear / GPT-2 Conv1D weights per output
    /// channel at execution time; all other operators are unaffected.
    #[must_use]
    pub fn quantize(mut self, quant: Quant) -> Interpreter {
        self.quant = quant;
        self
    }

    /// The effective weight-quantization mode.
    pub fn quant(&self) -> Quant {
        self.quant
    }

    /// The RNG seed this interpreter derives synthetic weights and
    /// inputs from (what [`synth_input`] needs to reproduce them).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables (or disables) the opt-in preflight check: before executing,
    /// the graph's structural invariants are verified and every node's
    /// stored shape is re-inferred, so corruption surfaces as one clear
    /// [`TensorError`] instead of a mid-execution kernel failure.
    #[must_use]
    pub fn preflight(mut self, enabled: bool) -> Interpreter {
        self.preflight = enabled;
        self
    }

    /// Runs the preflight checks on `graph` without executing it.
    ///
    /// # Errors
    ///
    /// Returns the first structural defect or shape-conformance mismatch.
    pub fn check(&self, graph: &Graph) -> Result<(), TensorError> {
        preflight_check(graph)
    }

    /// The resident worker pool, spawned on first use with the engine's
    /// thread count and shared with every clone — for backpressure
    /// counters or graceful-shutdown coordination.
    pub fn pool(&self) -> Arc<ThreadPool> {
        Arc::clone(
            self.pool
                .get_or_init(|| Arc::new(ThreadPool::new(self.engine.threads()))),
        )
    }

    /// Starts a run: the context every [`ExecCtx::execute`] of it shares.
    /// Kernels fan chunks out over the pool when the engine has more than
    /// one worker and intra-op parallelism is on; otherwise the same
    /// shape-pure chunks run serially, so outputs match bit for bit.
    pub fn begin_run(&self) -> ExecCtx {
        let runner = (self.intra_op && self.engine.threads() > 1)
            .then(|| Arc::new(PoolRunner::new(&self.pool())) as _);
        ExecCtx {
            seed: self.seed,
            quant: self.quant,
            sanitize: self.sanitize,
            store: Arc::clone(&self.store),
            runner,
            started_at: Instant::now(),
        }
    }

    /// Runs the graph end to end with synthetic inputs, timing every node.
    ///
    /// # Errors
    ///
    /// Propagates any kernel error (a structurally valid graph built through
    /// [`ngb_graph::GraphBuilder`] executes without error).
    pub fn run(&self, graph: &Graph) -> Result<ExecutionTrace, TensorError> {
        self.run_with_inputs(graph, &HashMap::new())
    }

    /// Runs the graph, overriding selected input nodes with caller-provided
    /// tensors (e.g. preprocessed dataset samples).
    ///
    /// # Errors
    ///
    /// Structural errors, then the first kernel error (including shape
    /// mismatches from overridden inputs, and a kernel panic as a typed
    /// error naming the node); a parallel run aborts without deadlocking
    /// and the interpreter remains usable.
    pub fn run_with_inputs(
        &self,
        graph: &Graph,
        inputs: &HashMap<NodeId, Tensor>,
    ) -> Result<ExecutionTrace, TensorError> {
        if self.preflight {
            self.check(graph)?;
        }
        validate(graph)?;
        let plan = BufferPlan::new(graph);
        if self.engine == Engine::Sequential {
            let mut core = RunCore::for_plan(plan, self.sanitize);
            let ctx = self.begin_run();
            for node in graph.iter() {
                let args = core.gather(node)?;
                let done = ctx.execute(node, args, inputs.get(&node.id), 0)?;
                core.finish(node, done)?;
            }
            return core.drain_trace(graph, &self.store);
        }
        let sched = Schedule::new(graph);
        if !sched.is_complete() {
            return Err(TensorError::InvalidArgument(format!(
                "graph has a dependency cycle: only {} of {} nodes schedulable",
                sched.wavefronts.iter().map(Vec::len).sum::<usize>(),
                graph.len()
            )));
        }
        crate::parallel::run_tickets(self, graph, inputs, sched, plan)
    }

    /// Runs the graph on the ticket scheduler under a caller-supplied
    /// [`Schedule`] and [`BufferPlan`] instead of recomputing them — the
    /// fault-injection hook the sanitizer's seeded-fault tests use to
    /// execute deliberately corrupted parts and assert the shadow memory
    /// catches the resulting hazard.
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
        validate(graph)?;
        crate::parallel::run_tickets(self, graph, &HashMap::new(), sched, plan)
    }
}

/// Structural + shape-conformance preflight.
///
/// # Errors
///
/// Returns the first structural defect or shape mismatch found.
pub fn preflight_check(graph: &Graph) -> Result<(), TensorError> {
    if let Some(issue) = graph.structural_issues().first() {
        return Err(TensorError::InvalidArgument(format!("preflight: {issue}")));
    }
    for node in graph.iter() {
        if matches!(node.op, OpKind::Input | OpKind::InputIds { .. }) {
            continue;
        }
        let input_shapes: Vec<Vec<usize>> = node
            .inputs
            .iter()
            .map(|&i| graph.node(i).out_shape.clone())
            .collect();
        let inferred = ngb_graph::infer_shape(&node.op, &input_shapes).map_err(|e| {
            TensorError::InvalidArgument(format!(
                "preflight: node {} ({}) fails shape inference: {e}",
                node.id, node.name
            ))
        })?;
        if inferred != node.out_shape {
            return Err(TensorError::InvalidArgument(format!(
                "preflight: node {} ({}) stores shape {:?} but infers {:?}",
                node.id, node.name, node.out_shape, inferred
            )));
        }
    }
    Ok(())
}

/// The per-node weight/input RNG: keyed on node id (never execution
/// order), which is what makes parallel execution bit-identical to
/// sequential.
pub(crate) fn rng_for(seed: u64, node: NodeId) -> TensorRng {
    TensorRng::seed(seed ^ ((node.0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Generates the synthetic input tensor an input node would receive when no
/// override is supplied — public so callers (e.g. a serving layer that
/// batches per-request inputs) can reproduce exactly what
/// `Interpreter::run` with seed `seed` would feed the node.
pub fn synth_input(seed: u64, node: &Node) -> Tensor {
    let mut rng = rng_for(seed, node.seed_hint.unwrap_or(node.id));
    match &node.op {
        OpKind::InputIds { vocab } => rng.uniform_i64(&node.out_shape, 0, (*vocab).max(1) as i64),
        _ => rng.uniform(&node.out_shape, -1.0, 1.0),
    }
}

/// Executes one node given its already-gathered input tensors and its
/// already-fetched parameters, so a caller's timer around this call reads
/// kernel time only.
///
/// # Errors
///
/// Propagates kernel errors.
pub(crate) fn execute_node(
    seed: u64,
    node: &Node,
    args: &[Tensor],
    override_input: Option<&Tensor>,
    params: &NodeParams,
    quant: Quant,
) -> Result<Tensor, TensorError> {
    match &node.op {
        OpKind::Fused(f) => crate::fused::execute_fused(seed, f, args, params, quant),
        _ => execute_op(seed, node, args, override_input, params.stage(0), quant),
    }
}

/// One primitive op — a plain node, or a stage of a fused pipeline under a
/// synthetic node — on its parameter set `p` (empty for ops without one).
pub(crate) fn execute_op(
    seed: u64,
    node: &Node,
    args: &[Tensor],
    override_input: Option<&Tensor>,
    p: &[Tensor],
    quant: Quant,
) -> Result<Tensor, TensorError> {
    let arg = |i: usize| -> Result<&Tensor, TensorError> {
        args.get(i).ok_or_else(|| missing_input(node, i))
    };
    let param = |i: usize| -> Result<&Tensor, TensorError> {
        p.get(i).ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "node {} ({}) was not given parameter {i}",
                node.id, node.name
            ))
        })
    };
    match &node.op {
        OpKind::Input | OpKind::InputIds { .. } => Ok(override_input
            .cloned()
            .unwrap_or_else(|| synth_input(seed, node))),

        OpKind::Linear { .. } => match quant {
            Quant::None => ngb_ops::gemm::linear(arg(0)?, param(0)?, p.get(1)),
            Quant::Int8 => ngb_ops::quant::linear_int8(arg(0)?, param(0)?, p.get(1)),
        },
        OpKind::Conv1dGpt2 { .. } => match quant {
            Quant::None => ngb_ops::gemm::conv1d_gpt2(arg(0)?, param(0)?, p.get(1)),
            Quant::Int8 => ngb_ops::quant::conv1d_gpt2_int8(arg(0)?, param(0)?, p.get(1)),
        },
        OpKind::Conv2d {
            stride,
            padding,
            groups,
            ..
        } => ngb_ops::gemm::conv2d(arg(0)?, param(0)?, p.get(1), *stride, *padding, *groups),
        OpKind::Matmul => ngb_ops::gemm::matmul(arg(0)?, arg(1)?),
        OpKind::Bmm => ngb_ops::gemm::bmm(arg(0)?, arg(1)?),

        // the eager profile keeps `NewGELU`'s eight-kernel decomposition
        // (paper §4.1.4); every other pointwise op takes the last arm, the
        // one element-wise kernel
        OpKind::NewGelu => ngb_ops::activation::new_gelu(arg(0)?),

        OpKind::LayerNorm { .. } => {
            ngb_ops::normalization::layer_norm(arg(0)?, param(0)?, param(1)?, 1e-5)
        }
        OpKind::RmsNorm { .. } => ngb_ops::normalization::rms_norm(arg(0)?, param(0)?, 1e-6),
        OpKind::LlamaRmsNorm { .. } => {
            ngb_ops::normalization::llama_rms_norm(arg(0)?, param(0)?, 1e-6)
        }
        OpKind::BatchNorm2d { .. } => ngb_ops::normalization::batch_norm2d(
            arg(0)?,
            param(0)?,
            param(1)?,
            param(2)?,
            param(3)?,
            1e-5,
        ),
        OpKind::FrozenBatchNorm2d { .. } => ngb_ops::normalization::frozen_batch_norm2d(
            arg(0)?,
            param(0)?,
            param(1)?,
            param(2)?,
            param(3)?,
            1e-5,
        ),
        OpKind::GroupNorm { groups, .. } => {
            ngb_ops::normalization::group_norm(arg(0)?, *groups, param(0)?, param(1)?, 1e-5)
        }

        // views on non-contiguous values fall back to reshape; real models
        // insert `.contiguous()` where PyTorch requires it, and the runtime
        // cost model charges that there
        OpKind::Reshape { shape } | OpKind::View { shape } => arg(0)?.reshape(shape),
        OpKind::Permute { perm } => arg(0)?.permute(perm),
        OpKind::Transpose { d0, d1 } => arg(0)?.transpose(*d0 as isize, *d1 as isize),
        OpKind::Contiguous => Ok(ngb_ops::memory::contiguous(arg(0)?)),
        OpKind::Expand { shape } => arg(0)?.expand(shape),
        OpKind::Squeeze { dim } => arg(0)?.squeeze(*dim as isize),
        OpKind::Unsqueeze { dim } => arg(0)?.unsqueeze(*dim),
        OpKind::Slice { dim, start, len } => arg(0)?.narrow(*dim, *start, *len),
        OpKind::Roll { shift, dim } => ngb_ops::memory::roll(arg(0)?, *shift, *dim),
        OpKind::Cat { dim } => {
            let tensors: Vec<Tensor> = (0..node.inputs.len())
                .map(|i| arg(i).cloned())
                .collect::<Result<_, _>>()?;
            Tensor::cat(&tensors, *dim)
        }

        OpKind::Add => ngb_ops::arithmetic::add(arg(0)?, arg(1)?),
        OpKind::Sub => ngb_ops::arithmetic::sub(arg(0)?, arg(1)?),
        OpKind::Mul => ngb_ops::arithmetic::mul(arg(0)?, arg(1)?),
        OpKind::Div => ngb_ops::arithmetic::div(arg(0)?, arg(1)?),
        OpKind::MeanDim { dim, keepdim } => ngb_ops::arithmetic::mean_dim(arg(0)?, *dim, *keepdim),
        OpKind::CausalMask => causal_mask(arg(0)?),

        OpKind::Softmax { dim } => ngb_ops::logit::softmax(arg(0)?, *dim),
        OpKind::LogSoftmax { dim } => ngb_ops::logit::log_softmax(arg(0)?, *dim),

        OpKind::MaxPool2d {
            kernel,
            stride,
            padding,
        } => ngb_ops::pooling::max_pool2d(arg(0)?, *kernel, *stride, *padding),
        OpKind::AvgPool2d {
            kernel,
            stride,
            padding,
        } => ngb_ops::pooling::avg_pool2d(arg(0)?, *kernel, *stride, *padding),
        OpKind::AdaptiveAvgPool2d { oh, ow } => {
            ngb_ops::pooling::adaptive_avg_pool2d(arg(0)?, *oh, *ow)
        }

        OpKind::Nms { iou_threshold, .. } => {
            let boxes = arg(0)?;
            let scores = if node.inputs.len() > 1 {
                arg(1)?.clone()
            } else {
                // shape-dependent, so an input stand-in rather than a parameter
                let mut rng = rng_for(seed, node.seed_hint.unwrap_or(node.id));
                rng.uniform(&[boxes.shape()[0]], 0.0, 1.0)
            };
            ngb_ops::roi::nms(boxes, &scores, *iou_threshold)
        }
        OpKind::RoiAlign { out, spatial_scale } => {
            ngb_ops::roi::roi_align(arg(0)?, arg(1)?, *out, *spatial_scale)
        }
        OpKind::BoxConvert => ngb_ops::roi::box_cxcywh_to_xyxy(arg(0)?),

        OpKind::InterpolateNearest { oh, ow } => {
            ngb_ops::interpolate::interpolate_nearest(arg(0)?, *oh, *ow)
        }
        OpKind::InterpolateBilinear { oh, ow } => {
            ngb_ops::interpolate::interpolate_bilinear(arg(0)?, *oh, *ow)
        }

        OpKind::Embedding { .. } => ngb_ops::embedding::embedding(param(0)?, arg(0)?),

        // Collectives run as ordinary kernels on whichever device owns
        // them; the sharded executor charges interconnect latency around
        // them, never by changing their math.
        OpKind::AllReduce => {
            // rank-order accumulation: deterministic for a fixed plan
            let mut acc = arg(0)?.clone();
            for i in 1..node.inputs.len() {
                acc = ngb_ops::arithmetic::add(&acc, arg(i)?)?;
            }
            Ok(acc)
        }
        OpKind::AllGather { dim } => {
            let shards: Vec<Tensor> = (0..node.inputs.len())
                .map(|i| arg(i).cloned())
                .collect::<Result<_, _>>()?;
            Tensor::cat(&shards, *dim)
        }
        OpKind::Transfer => Ok(arg(0)?.contiguous()),
        OpKind::LinearShard {
            in_f,
            out_f,
            part,
            parts,
            row_split,
            ..
        } => {
            // The parameter set is the *full* layer's (keyed by the
            // original node via seed_hint); slice this shard's view, so
            // shard weights are bitwise slices of the unsplit layer.
            let (w, b) = (param(0)?, p.get(1));
            let (start, len) =
                ngb_graph::shard_span(if *row_split { *in_f } else { *out_f }, *part, *parts);
            let (ws, bs) = if *row_split {
                // row-parallel: slice input features; only part 0 adds
                // the bias (the AllReduce sums partials exactly once).
                (w.narrow(1, start, len)?, b.filter(|_| *part == 0).cloned())
            } else {
                let bs = match b {
                    Some(full) => Some(full.narrow(0, start, len)?),
                    None => None,
                };
                (w.narrow(0, start, len)?, bs)
            };
            ngb_ops::gemm::linear(arg(0)?, &ws, bs.as_ref())
        }

        OpKind::Argmax { dim } => ngb_ops::reduction::argmax(arg(0)?, *dim),
        OpKind::TopK { k } => ngb_ops::reduction::topk(arg(0)?, *k).map(|(v, _)| v),

        OpKind::Fused(_) => Err(TensorError::InvalidArgument(format!(
            "node {} ({}) nests a fused op inside a fused stage",
            node.id, node.name
        ))),
        OpKind::Relu
        | OpKind::Relu6
        | OpKind::Gelu
        | OpKind::GeluTanh
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Hardswish
        | OpKind::Neg
        | OpKind::AddScalar(_)
        | OpKind::MulScalar(_)
        | OpKind::DivScalar(_)
        | OpKind::PowScalar(_)
        | OpKind::Sqrt => ngb_ops::fused::map_run(node.op.pointwise().as_slice(), arg(0)?),
    }
}

/// The intra-op splits one node's kernels dispatch: the one declaration
/// of each, built from the kernels' own split functions.
/// `ngb-sanitize` certifies every one statically, and the armed execution
/// sanitizer fails a node whose kernels dispatch a split not declared
/// here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSplits {
    /// Every split the node's kernels may dispatch, each once.
    pub splits: Vec<Split>,
    /// The `(m, k, n)` of each GEMM among them, whose work units must
    /// also tile the `[m, n]` output.
    pub gemms: Vec<[usize; 3]>,
}

impl NodeSplits {
    fn push(&mut self, split: Split) {
        if !self.splits.contains(&split) {
            self.splits.push(split);
        }
    }

    /// A `[m, k] @ [k, n]` GEMM: its B-panel packing and its work units.
    fn gemm(&mut self, m: usize, k: usize, n: usize) {
        self.push(gemm::packed_panels(k, n));
        self.push(gemm::tile_units(m, k, n));
        self.gemms.push([m, k, n]);
    }
}

/// The [`NodeSplits`] of a node running `op` on inputs of the given
/// `(shape, strides)` into an output of shape `out`. A fused node declares
/// the stages it runs: a Conv+BN fusion its folded conv, which has a bias,
/// and its activation epilogue; a pipeline every stage. A pointwise stage
/// declares `elements(numel)` wherever it runs, as every pointwise pass is
/// the one element-wise kernel.
pub fn node_splits(op: &OpKind, inputs: &[(&[usize], &[isize])], out: &[usize]) -> NodeSplits {
    let mut d = NodeSplits::default();
    match op {
        // a plain `NewGELU` node runs its decomposed chain serially
        OpKind::NewGelu => {}
        OpKind::Fused(f) if f.kind == FusedKind::ConvBnAct => {
            if let Some(conv) = f.stages.first() {
                declare(&conv.op, inputs, out, &mut d);
                d.push(gemm::conv2d_rows(out));
            }
            // the epilogue after the folded batch norm
            for stage in f.stages.iter().skip(2) {
                declare(&stage.op, &[], out, &mut d);
            }
        }
        OpKind::Fused(f) => {
            let shapes: Vec<Vec<usize>> = inputs.iter().map(|l| l.0.to_vec()).collect();
            let (mut k, mut next) = (0, 0);
            // a malformed pipeline fails to execute; it declares its
            // stages up to the first that does not re-infer
            let _ = ngb_graph::walk_fused(f, &shapes, |stage, s_in, s_out| {
                // a chained value is the previous stage's dense output
                let chained = (k > 0).then(|| ngb_tensor::contiguous_strides(&s_in[0]));
                let mut layouts: Vec<(&[usize], &[isize])> = Vec::new();
                layouts.extend(chained.as_deref().map(|st| (&s_in[0][..], st)));
                layouts.extend(inputs.iter().skip(next).take(stage.extra_inputs));
                declare(&stage.op, &layouts, s_out, &mut d);
                (k, next) = (k + 1, next + stage.extra_inputs);
            });
        }
        op => declare(op, inputs, out, &mut d),
    }
    d
}

/// The splits of one primitive op: the kernel [`execute_op`] runs for it.
fn declare(op: &OpKind, inputs: &[(&[usize], &[isize])], out: &[usize], d: &mut NodeSplits) {
    let numel = ngb_tensor::num_elements(out);
    let (x, x_strides) = inputs.first().copied().unwrap_or_default();
    match *op {
        // rows of `k` features in, of `n` out
        OpKind::Linear { .. } | OpKind::Conv1dGpt2 { .. } | OpKind::LinearShard { .. } => {
            if let (&[.., k], &[.., n]) = (x, out) {
                d.gemm(numel / n.max(1), k, n)
            }
        }
        // one `[m, k] @ [k, n]` GEMM per batch
        OpKind::Matmul | OpKind::Bmm => {
            if let (&[.., k], &[.., m, n]) = (x, out) {
                d.gemm(m, k, n)
            }
        }
        OpKind::Conv2d {
            in_c,
            out_c,
            kernel,
            groups,
            bias,
            ..
        } => {
            let w = [out_c, in_c / groups.max(1), kernel, kernel];
            match out
                .try_into()
                .map(|out| gemm::conv2d_lowering(out, w, groups))
            {
                Ok(ConvLowering::Depthwise) => d.push(gemm::conv2d_rows(out)),
                Ok(ConvLowering::Im2col { m, k, n }) => d.gemm(m, k, n),
                Err(_) => {}
            }
            if bias {
                d.push(gemm::conv2d_rows(out));
            }
        }
        OpKind::LayerNorm { .. } | OpKind::RmsNorm { .. } => d.push(normalization::norm_rows(out)),
        OpKind::BatchNorm2d { .. } | OpKind::FrozenBatchNorm2d { .. } => {
            d.push(normalization::batch_norm_planes(out))
        }
        OpKind::GroupNorm { groups, .. } => d.push(normalization::group_norm_segments(out, groups)),
        OpKind::Softmax { dim } | OpKind::LogSoftmax { dim } => {
            d.push(logit::softmax_blocks(out, dim))
        }
        OpKind::Argmax { dim } => d.push(reduction::argmax_lanes(x, dim)),
        OpKind::Contiguous => d.splits.extend(memory::contiguous_blocks(x, x_strides)),
        OpKind::Roll { dim, .. } => d.push(memory::roll_rows(out, dim)),
        OpKind::InterpolateNearest { .. } | OpKind::InterpolateBilinear { .. } => {
            d.push(interpolate::output_rows(out))
        }
        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div | OpKind::AllReduce => {
            d.push(intra::elements(numel))
        }
        _ if op.pointwise().is_some() => d.push(intra::elements(numel)),
        _ => {}
    }
}

/// Fills the strict upper triangle of the trailing `[T, T]` dims with a
/// large negative value (causal attention masking).
fn causal_mask(x: &Tensor) -> Result<Tensor, TensorError> {
    let rank = x.rank();
    if rank < 2 {
        return Err(TensorError::InvalidArgument(
            "causal mask requires rank >= 2".into(),
        ));
    }
    let (tq, tk) = (x.shape()[rank - 2], x.shape()[rank - 1]);
    let v = x.to_vec_f32()?;
    let rows = x.numel() / (tq * tk);
    let mut out = v;
    for r in 0..rows {
        for q in 0..tq {
            for k in 0..tk {
                // allow attending to positions <= q (aligned to the right
                // for tk >= tq, matching decoder caches)
                let limit = k as isize - (tk as isize - tq as isize);
                if limit > q as isize {
                    out[r * tq * tk + q * tk + k] = -1e9;
                }
            }
        }
    }
    Tensor::from_vec(out, x.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::GraphBuilder;

    fn mlp_graph() -> Graph {
        let mut b = GraphBuilder::new("mlp");
        let x = b.input(&[2, 16]);
        let h = b
            .push(
                OpKind::Linear {
                    in_f: 16,
                    out_f: 32,
                    bias: true,
                },
                &[x],
                "fc1",
            )
            .unwrap();
        let a = b.push(OpKind::Gelu, &[h], "act").unwrap();
        let o = b
            .push(
                OpKind::Linear {
                    in_f: 32,
                    out_f: 4,
                    bias: true,
                },
                &[a],
                "fc2",
            )
            .unwrap();
        b.push(OpKind::Softmax { dim: 1 }, &[o], "probs").unwrap();
        b.finish()
    }

    #[test]
    fn runs_and_times_every_node() {
        let g = mlp_graph();
        let trace = Interpreter::default().run(&g).unwrap();
        assert_eq!(trace.timings.len(), g.len());
        assert_eq!(trace.outputs.len(), 1);
        let (_, probs) = &trace.outputs[0];
        assert_eq!(probs.shape(), &[2, 4]);
        let sums = probs.reduce_dim(1, false, 0.0, |a, v| a + v).unwrap();
        for s in sums.to_vec_f32().unwrap() {
            assert!((s - 1.0).abs() < 1e-5);
        }
        assert!(trace.total_time() > Duration::ZERO);
        assert!(trace.span() >= trace.timings.last().unwrap().elapsed);
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let g = mlp_graph();
        let a = Interpreter::new(7).run(&g).unwrap();
        let b = Interpreter::new(7).run(&g).unwrap();
        let c = Interpreter::new(8).run(&g).unwrap();
        assert_eq!(a.outputs[0].1, b.outputs[0].1);
        assert_ne!(a.outputs[0].1, c.outputs[0].1);
    }

    #[test]
    fn engine_knob_dispatches_to_the_parallel_executor() {
        let g = mlp_graph();
        let seq = Interpreter::new(7).run(&g).unwrap();
        let par = Interpreter::new(7)
            .engine(Engine::Parallel(2))
            .run(&g)
            .unwrap();
        assert_eq!(seq.outputs[0].1, par.outputs[0].1);
        assert_eq!(Engine::Sequential.threads(), 1);
        assert_eq!(Engine::Parallel(4).threads(), 4);
    }

    #[test]
    fn input_override_is_used() {
        let g = mlp_graph();
        let x = Tensor::zeros(&[2, 16]);
        let mut inputs = HashMap::new();
        inputs.insert(NodeId(0), x);
        let t = Interpreter::default().run_with_inputs(&g, &inputs).unwrap();
        // zero input -> both rows identical
        let p = t.outputs[0].1.to_vec_f32().unwrap();
        assert_eq!(&p[0..4], &p[4..8]);
    }

    #[test]
    fn static_shapes_match_actual_for_static_ops() {
        let g = mlp_graph();
        let t = Interpreter::default().run(&g).unwrap();
        for (node, timing) in g.iter().zip(&t.timings) {
            assert_eq!(node.out_shape, timing.out_shape, "node {}", node.name);
        }
    }

    #[test]
    fn intermediates_are_dropped_at_last_use() {
        // a long unary chain: live set is never more than two values, so
        // the measured peak must track the planner, not the sum of all
        // intermediates
        let mut b = GraphBuilder::new("chain");
        let mut cur = b.input(&[64, 64]);
        for i in 0..16 {
            cur = b.push(OpKind::Gelu, &[cur], &format!("g{i}")).unwrap();
        }
        let g = b.finish();
        let t = Interpreter::default().run(&g).unwrap();
        assert!(t.peak_live_bytes > 0);
        assert!(
            t.peak_live_bytes <= g.peak_activation_bytes(),
            "measured {} > planned {}",
            t.peak_live_bytes,
            g.peak_activation_bytes()
        );
        // the planner says two live values; the naive sum is 17
        assert_eq!(g.peak_activation_bytes(), 2 * 64 * 64 * 4);
    }

    #[test]
    fn synthesis_is_reported_on_the_first_run_only() {
        let g = mlp_graph();
        for engine in [Engine::Sequential, Engine::Parallel(2)] {
            let interp = Interpreter::new(7).engine(engine);
            let first = interp.run(&g).unwrap();
            assert!(first.param_synthesis > Duration::ZERO, "{engine:?}");
            assert_eq!((first.arena.hits, first.arena.misses), (0, 2));
            // weights and biases of both layers stay resident
            let bytes = (16 * 32 + 32 + 32 * 4 + 4) * 4;
            assert_eq!(first.arena.retained_bytes, bytes);

            let second = interp.clone().run(&g).unwrap();
            assert_eq!(second.param_synthesis, Duration::ZERO, "{engine:?}");
            assert_eq!((second.arena.hits, second.arena.misses), (2, 0));
            assert_eq!(second.arena.retained_bytes, bytes);
            assert_eq!(first.outputs[0].1, second.outputs[0].1);
        }
    }

    #[test]
    fn dynamic_nms_subgraph_executes() {
        let mut b = GraphBuilder::new("det");
        let boxes = b.input(&[64, 4]);
        let scores = b.input(&[64]);
        let keep = b
            .push(
                OpKind::Nms {
                    iou_threshold: 0.5,
                    nominal_keep: 32,
                },
                &[boxes, scores],
                "nms",
            )
            .unwrap();
        let g = b.finish();
        let t = Interpreter::default().run(&g).unwrap();
        let kept = &t.outputs.iter().find(|(id, _)| *id == keep).unwrap().1;
        assert!(kept.numel() <= 64);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mut b = GraphBuilder::new("mask");
        let x = b.input(&[1, 2, 3, 3]);
        b.push(OpKind::CausalMask, &[x], "mask").unwrap();
        let g = b.finish();
        let mut inputs = HashMap::new();
        inputs.insert(NodeId(0), Tensor::ones(&[1, 2, 3, 3]));
        let t = Interpreter::default().run_with_inputs(&g, &inputs).unwrap();
        let m = &t.outputs[0].1;
        assert_eq!(m.at(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert!(m.at(&[0, 0, 0, 1]).unwrap() < -1e8);
        assert!(m.at(&[0, 0, 1, 2]).unwrap() < -1e8);
        assert_eq!(m.at(&[0, 0, 2, 2]).unwrap(), 1.0);
    }

    #[test]
    fn corrupted_graph_errors_instead_of_panicking() {
        // dangling input id: typed error, not an index panic
        let mut g = mlp_graph();
        g.nodes[2].inputs = vec![NodeId(99)];
        let err = Interpreter::default().run(&g).unwrap_err();
        assert!(err.to_string().contains("nonexistent node %99"), "{err}");

        // id out of step with position: typed error, not a slot mix-up
        let mut g2 = mlp_graph();
        g2.nodes[1].id = NodeId(3);
        let err2 = Interpreter::default().run(&g2).unwrap_err();
        assert!(err2.to_string().contains("position 1 has id %3"), "{err2}");
    }

    #[test]
    fn preflight_rejects_wrong_stored_shape_before_execution() {
        let mut g = mlp_graph();
        g.nodes[2].out_shape = vec![2, 33]; // gelu output lies about its shape
                                            // without preflight this silently executes (the kernel recomputes)
        assert!(Interpreter::default().run(&g).is_ok());
        let err = Interpreter::default().preflight(true).run(&g).unwrap_err();
        assert!(err.to_string().contains("preflight"), "{err}");
        assert!(err.to_string().contains("[2, 33]"), "{err}");
        // a clean graph passes preflight
        assert!(Interpreter::default()
            .preflight(true)
            .run(&mlp_graph())
            .is_ok());
    }

    #[test]
    fn embedding_pipeline_executes() {
        let mut b = GraphBuilder::new("emb");
        let ids = b.input_ids(&[1, 6], 100);
        let e = b
            .push(OpKind::Embedding { vocab: 100, dim: 8 }, &[ids], "wte")
            .unwrap();
        b.push(OpKind::LayerNorm { dim: 8 }, &[e], "ln").unwrap();
        let g = b.finish();
        let t = Interpreter::default().run(&g).unwrap();
        assert_eq!(t.outputs[0].1.shape(), &[1, 6, 8]);
    }
}
