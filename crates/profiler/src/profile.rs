//! Per-operator profiles and their aggregation.

use std::collections::BTreeMap;

use ngb_exec::{Engine, Interpreter};
use ngb_graph::{Graph, NodeId, NonGemmGroup, OpClass};
use ngb_platform::Platform;
use ngb_runtime::{Flow, Placement};
use serde::Serialize;

/// Which autoregressive stage a profiled node belongs to.
///
/// Profiles of full-sequence graphs default to [`StagePhase::Prefill`]
/// (for non-LM models the whole run is "prefill" in the trivial sense:
/// every input position is processed at once). A decode-step profile is
/// tagged [`StagePhase::Decode`] via [`ModelProfile::with_stage`], and
/// [`ModelProfile::stage_breakdown`] reports the paper's non-GEMM
/// fraction per stage — generation sits even deeper in the non-GEMM
/// regime than prefill because every GEMM shrinks to a matrix-vector
/// product while the normalization/memory chains keep their per-token
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum StagePhase {
    /// Full-sequence prompt processing (the default).
    #[default]
    Prefill,
    /// Single-token cached generation.
    Decode,
}

impl StagePhase {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            StagePhase::Prefill => "prefill",
            StagePhase::Decode => "decode",
        }
    }
}

/// Profile of one executed operator.
#[derive(Debug, Clone, Serialize)]
pub struct NodeProfile {
    /// Graph node id.
    pub id: NodeId,
    /// Dotted scope name.
    pub name: String,
    /// Operator short name.
    pub op: &'static str,
    /// GEMM / non-GEMM classification.
    pub class: OpClass,
    /// Kernel + dispatch latency, seconds.
    pub latency_s: f64,
    /// Host↔device transfer latency attributed to this node, seconds.
    pub transfer_s: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Where the flow placed the op.
    pub placement: &'static str,
    /// Start offset of the kernel from the beginning of the run, seconds.
    /// Analytic profiles lay nodes out end-to-start; measured profiles use
    /// the recorded wall-clock start (which exposes concurrency).
    pub start_s: f64,
    /// Execution lane: the worker thread for measured runs, or a
    /// per-placement lane (cpu=0, gpu=1) for analytic ones.
    pub tid: usize,
    /// Output tensor shape.
    pub out_shape: Vec<usize>,
    /// Intra-op chunks this node's kernels dispatched in the measured run
    /// (a pure function of the tensor shapes; 1 per small serial kernel).
    /// 0 for analytic profiles, which execute nothing.
    pub intra_chunks: usize,
    /// Maximum number of threads that cooperated on one of this node's
    /// intra-op dispatches (1 when serial; 0 for analytic profiles).
    pub intra_parallelism: usize,
    /// Bytes this node's kernels copied into fresh dense buffers to
    /// satisfy a layout requirement (`contiguous()` materializations),
    /// from the final measured iteration. 0 when every kernel consumed
    /// its operands in place — the target state for strided view chains —
    /// and 0 for analytic profiles, which execute nothing.
    pub bytes_materialized: u64,
    /// For [`OpKind::Fused`](ngb_graph::OpKind::Fused) nodes: `(class,
    /// fraction)` pairs splitting this node's time back across the
    /// taxonomy classes of its constituent stages, pro-rated by the
    /// analytic cost model. Empty for primitive nodes (the node's own
    /// `class` owns all of its time).
    pub attribution: Vec<(OpClass, f64)>,
    /// Autoregressive stage this node's time belongs to (prefill unless
    /// the profile was retagged with [`ModelProfile::with_stage`]).
    pub stage: StagePhase,
    /// Simulated device index the node ran on (0 for single-device
    /// profiles; the `ngb-shard` executor numbers devices from its
    /// `--devices` roster).
    pub device: usize,
}

impl NodeProfile {
    /// Total wall time attributed to this node.
    pub fn total_s(&self) -> f64 {
        self.latency_s + self.transfer_s
    }
}

/// Cost-model attribution of a fused node's time back to its stages'
/// classes; empty for primitive nodes.
fn node_attribution(graph: &Graph, node: &ngb_graph::Node) -> Vec<(OpClass, f64)> {
    if let ngb_graph::OpKind::Fused(f) = &node.op {
        let inputs: Vec<Vec<usize>> = node
            .inputs
            .iter()
            .map(|&i| graph.nodes[i.0].out_shape.clone())
            .collect();
        ngb_graph::fused_attribution(f, &inputs)
    } else {
        Vec::new()
    }
}

/// Latency aggregated into the paper's categories.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Breakdown {
    /// End-to-end seconds.
    pub total_s: f64,
    /// Seconds in GEMM-classified operators.
    pub gemm_s: f64,
    /// Seconds per non-GEMM group.
    pub groups: BTreeMap<NonGemmGroup, f64>,
}

impl Breakdown {
    /// Seconds in all non-GEMM operators.
    pub fn non_gemm_s(&self) -> f64 {
        self.groups.values().sum()
    }

    /// Fraction of end-to-end time in GEMM operators.
    pub fn gemm_frac(&self) -> f64 {
        if self.total_s > 0.0 {
            self.gemm_s / self.total_s
        } else {
            0.0
        }
    }

    /// Fraction of end-to-end time in non-GEMM operators.
    pub fn non_gemm_frac(&self) -> f64 {
        if self.total_s > 0.0 {
            self.non_gemm_s() / self.total_s
        } else {
            0.0
        }
    }

    /// Fraction of end-to-end time in one non-GEMM group.
    pub fn group_frac(&self, g: NonGemmGroup) -> f64 {
        if self.total_s > 0.0 {
            self.groups.get(&g).copied().unwrap_or(0.0) / self.total_s
        } else {
            0.0
        }
    }

    /// Per-group seconds as stable `(label, seconds)` pairs in group
    /// order — the extractor the `ngb-regress` baseline snapshots record.
    /// Only groups that were actually charged appear.
    pub fn group_pairs(&self) -> Vec<(&'static str, f64)> {
        self.groups.iter().map(|(&g, &s)| (g.label(), s)).collect()
    }

    /// The most expensive non-GEMM group, with its share of total time
    /// (the paper's Table 4 metric).
    pub fn dominant_group(&self) -> Option<(NonGemmGroup, f64)> {
        self.groups
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite latencies"))
            .map(|(&g, &s)| {
                (
                    g,
                    if self.total_s > 0.0 {
                        s / self.total_s
                    } else {
                        0.0
                    },
                )
            })
    }
}

/// A complete profile of one (model × platform × flow × batch) run.
#[derive(Debug, Clone, Serialize)]
pub struct ModelProfile {
    /// Model name (graph name).
    pub model: String,
    /// Platform label (e.g. `"Data Center (CPU+GPU)"`).
    pub platform: String,
    /// Deployment flow label.
    pub flow: String,
    /// Batch size.
    pub batch: usize,
    /// Per-node profiles in graph order.
    pub nodes: Vec<NodeProfile>,
    /// Estimated peak activation memory, bytes.
    pub peak_memory_bytes: usize,
    /// Seconds a measured profile's engine spent synthesizing parameters
    /// — once, before the kernels of its first iteration, and outside
    /// every node's latency (see `ngb_exec::ParamStore`). 0 for analytic
    /// profiles.
    pub param_synthesis_s: f64,
}

impl ModelProfile {
    /// End-to-end latency in seconds.
    pub fn total_latency_s(&self) -> f64 {
        self.nodes.iter().map(NodeProfile::total_s).sum()
    }

    /// End-to-end energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy_j).sum()
    }

    /// Aggregates node latencies into the paper's breakdown. Transfer time
    /// is charged to the node that caused it (so ORT's fallen-back memory
    /// ops carry their PCIe cost, as in §4.2). Fused nodes split their
    /// time across their constituent classes by the recorded
    /// [`NodeProfile::attribution`] fractions, so a fused `linear → gelu`
    /// still contributes to both the GEMM bucket and the Activation group.
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        let charge = |class: OpClass, t: f64, b: &mut Breakdown| match class {
            OpClass::Gemm => b.gemm_s += t,
            OpClass::NonGemm(g) => *b.groups.entry(g).or_insert(0.0) += t,
        };
        for n in &self.nodes {
            let t = n.total_s();
            b.total_s += t;
            if n.attribution.is_empty() {
                charge(n.class, t, &mut b);
            } else {
                for &(class, frac) in &n.attribution {
                    charge(class, t * frac, &mut b);
                }
            }
        }
        b
    }

    /// Retags every node with `stage` (builder style) — used when a
    /// profile of a decode-step graph should report under
    /// [`StagePhase::Decode`].
    #[must_use]
    pub fn with_stage(mut self, stage: StagePhase) -> ModelProfile {
        for n in &mut self.nodes {
            n.stage = stage;
        }
        self
    }

    /// [`ModelProfile::breakdown`] restricted to nodes tagged `stage`.
    /// An empty stage yields a zeroed breakdown (`non_gemm_frac() == 0`).
    pub fn stage_breakdown(&self, stage: StagePhase) -> Breakdown {
        let filtered = ModelProfile {
            nodes: self
                .nodes
                .iter()
                .filter(|n| n.stage == stage)
                .cloned()
                .collect(),
            ..self.clone()
        };
        filtered.breakdown()
    }

    /// Merges another profile's nodes into this one (e.g. a decode-step
    /// profile appended to its prefill profile), keeping each node's
    /// stage tag so [`ModelProfile::stage_breakdown`] can split them
    /// back apart.
    #[must_use]
    pub fn merged_with(mut self, other: ModelProfile) -> ModelProfile {
        self.nodes.extend(other.nodes);
        self.param_synthesis_s += other.param_synthesis_s;
        self
    }

    /// The `k` slowest nodes (for hot-spot reports).
    pub fn hottest(&self, k: usize) -> Vec<&NodeProfile> {
        let mut v: Vec<&NodeProfile> = self.nodes.iter().collect();
        v.sort_by(|a, b| b.total_s().partial_cmp(&a.total_s()).expect("finite"));
        v.truncate(k);
        v
    }
}

/// Profiles `graph` analytically on `platform` under `flow`.
///
/// `use_gpu` requests GPU execution; it is ignored when the platform has no
/// GPU (matching the paper's CPU-only configurations).
pub fn profile_analytic(
    graph: &Graph,
    platform: &Platform,
    flow: Flow,
    use_gpu: bool,
    batch: usize,
) -> ModelProfile {
    profile_analytic_with_options(graph, platform, flow, use_gpu, batch, Default::default())
}

/// [`profile_analytic`] with extra runtime optimization passes
/// (e.g. FlashAttention-style fusion).
pub fn profile_analytic_with_options(
    graph: &Graph,
    platform: &Platform,
    flow: Flow,
    use_gpu: bool,
    batch: usize,
    options: ngb_runtime::RuntimeOptions,
) -> ModelProfile {
    let gpu_active = use_gpu && platform.has_gpu();
    let exec_plan = ngb_runtime::plan_with_options(graph, flow, gpu_active, options);
    let mut nodes = Vec::with_capacity(graph.len());
    let mut cursor_s = 0.0f64;
    for (node, planned) in graph.iter().zip(&exec_plan.nodes) {
        let device = match planned.placement {
            Placement::Gpu => platform.gpu.as_ref().expect("gpu placement requires gpu"),
            Placement::Cpu => &platform.cpu,
        };
        let kernel_s = device.op_latency(&planned.cost, planned.is_gemm);
        let latency_s = kernel_s + planned.dispatch_s;
        // transfers ride the GPU's PCIe link regardless of which side runs
        // the op
        let transfer_s = platform
            .gpu
            .as_ref()
            .map(|g| g.transfer_latency(planned.transfer_bytes))
            .unwrap_or(0.0);
        // utilization: compute-bound ops load the device fully, launch- or
        // bandwidth-bound ops much less
        let util = if planned.is_gemm { 0.9 } else { 0.35 };
        let energy_j = device.energy(latency_s + transfer_s, util);
        let start_s = cursor_s;
        cursor_s += latency_s + transfer_s;
        nodes.push(NodeProfile {
            id: node.id,
            name: node.name.clone(),
            op: node.op.name(),
            class: node.class(),
            latency_s,
            transfer_s,
            energy_j,
            placement: match planned.placement {
                Placement::Gpu => "gpu",
                Placement::Cpu => "cpu",
            },
            start_s,
            tid: match planned.placement {
                Placement::Cpu => 0,
                Placement::Gpu => 1,
            },
            out_shape: node.out_shape.clone(),
            intra_chunks: 0,
            intra_parallelism: 0,
            bytes_materialized: 0,
            attribution: node_attribution(graph, node),
            stage: StagePhase::Prefill,
            device: 0,
        });
    }
    ModelProfile {
        model: graph.name.clone(),
        platform: if gpu_active {
            platform.label()
        } else {
            format!("{} (CPU only)", platform.class)
        },
        flow: flow.label().to_string(),
        batch,
        nodes,
        peak_memory_bytes: graph.peak_activation_bytes(),
        param_synthesis_s: 0.0,
    }
}

/// Profiles `graph` by real execution on the host CPU through `interp` —
/// its engine, intra-op, sanitizer and quantization settings, its resident
/// parameters and pool — taking each node's minimum over `iterations` runs
/// (warm caches, like the paper's steady-state iterations). Under
/// [`Engine::Parallel`] start offsets and worker attribution come from the
/// final iteration, so the trace shows one coherent concurrent timeline;
/// per-node profiles record the chunk count and the maximum effective
/// intra-op parallelism observed.
///
/// # Errors
///
/// Propagates interpreter errors, including sanitizer violations (the
/// offending nodes plus a replayable event trace).
pub fn profile_measured(
    graph: &Graph,
    iterations: usize,
    interp: &Interpreter,
) -> Result<ModelProfile, ngb_tensor::TensorError> {
    let iterations = iterations.max(1);
    let mut best: Vec<f64> = vec![f64::INFINITY; graph.len()];
    let mut shapes: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
    let mut starts: Vec<f64> = vec![0.0; graph.len()];
    let mut workers: Vec<usize> = vec![0; graph.len()];
    let mut chunks: Vec<usize> = vec![1; graph.len()];
    let mut intra: Vec<usize> = vec![1; graph.len()];
    let mut bytes_mat: Vec<u64> = vec![0; graph.len()];
    let mut param_synthesis_s = 0.0;
    for _ in 0..iterations {
        let trace = interp.run(graph)?;
        param_synthesis_s += trace.param_synthesis.as_secs_f64();
        for t in &trace.timings {
            best[t.id.0] = best[t.id.0].min(t.elapsed.as_secs_f64());
            shapes[t.id.0] = t.out_shape.clone();
            starts[t.id.0] = t.start.as_secs_f64();
            workers[t.id.0] = t.worker;
            chunks[t.id.0] = t.intra_chunks.max(1);
            intra[t.id.0] = intra[t.id.0].max(t.intra_participants);
            bytes_mat[t.id.0] = t.bytes_materialized;
        }
    }
    let nodes = graph
        .iter()
        .map(|n| NodeProfile {
            id: n.id,
            name: n.name.clone(),
            op: n.op.name(),
            class: n.class(),
            latency_s: best[n.id.0],
            transfer_s: 0.0,
            energy_j: 0.0, // no power telemetry on the host
            placement: "host",
            start_s: starts[n.id.0],
            tid: workers[n.id.0],
            out_shape: shapes[n.id.0].clone(),
            intra_chunks: chunks[n.id.0],
            intra_parallelism: intra[n.id.0],
            bytes_materialized: bytes_mat[n.id.0],
            attribution: node_attribution(graph, n),
            stage: StagePhase::Prefill,
            device: 0,
        })
        .collect();
    let batch = graph
        .iter()
        .next()
        .map(|n| n.out_shape.first().copied().unwrap_or(1))
        .unwrap_or(1);
    Ok(ModelProfile {
        model: graph.name.clone(),
        platform: "Host (measured)".to_string(),
        flow: match interp.engine_kind() {
            Engine::Sequential => "interpreter".to_string(),
            Engine::Parallel(n) => format!("interpreter-parallel-{}", n.max(1)),
        },
        batch,
        nodes,
        peak_memory_bytes: graph.peak_activation_bytes(),
        param_synthesis_s,
    })
}

/// Aggregates one execution trace's per-node timings straight into the
/// paper's taxonomy [`Breakdown`] — the lightweight path for per-request
/// profiling (e.g. a serving layer attaching a breakdown to every response)
/// where building a full [`ModelProfile`] per request would be wasteful.
/// Fused nodes split their time across constituent classes exactly as
/// [`ModelProfile::breakdown`] does.
pub fn breakdown_from_trace(graph: &Graph, timings: &[ngb_exec::NodeTiming]) -> Breakdown {
    let mut b = Breakdown::default();
    let charge = |class: OpClass, t: f64, b: &mut Breakdown| match class {
        OpClass::Gemm => b.gemm_s += t,
        OpClass::NonGemm(g) => *b.groups.entry(g).or_insert(0.0) += t,
    };
    for timing in timings {
        let node = graph.node(timing.id);
        let t = timing.elapsed.as_secs_f64();
        b.total_s += t;
        let attribution = node_attribution(graph, node);
        if attribution.is_empty() {
            charge(node.class(), t, &mut b);
        } else {
            for (class, frac) in attribution {
                charge(class, t * frac, &mut b);
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{GraphBuilder, OpKind};

    fn transformer_ish() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input(&[1, 64, 256]);
        let n = b.push(OpKind::LayerNorm { dim: 256 }, &[x], "ln").unwrap();
        let q = b
            .push(
                OpKind::Linear {
                    in_f: 256,
                    out_f: 256,
                    bias: true,
                },
                &[n],
                "q",
            )
            .unwrap();
        let g = b.push(OpKind::NewGelu, &[q], "act").unwrap();
        let v = b
            .push(
                OpKind::View {
                    shape: vec![64, 256],
                },
                &[g],
                "view",
            )
            .unwrap();
        b.push(OpKind::Contiguous, &[v], "contig").unwrap();
        b.finish()
    }

    #[test]
    fn analytic_profile_covers_all_nodes() {
        let g = transformer_ish();
        let p = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        assert_eq!(p.nodes.len(), g.len());
        assert!(p.total_latency_s() > 0.0);
        assert!(p.total_energy_j() > 0.0);
        assert!(p.peak_memory_bytes > 0);
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let g = transformer_ish();
        let p = profile_analytic(&g, &Platform::workstation(), Flow::Eager, true, 1);
        let b = p.breakdown();
        let total_frac = b.gemm_frac() + b.non_gemm_frac();
        assert!((total_frac - 1.0).abs() < 1e-9, "{total_frac}");
        assert!(b.dominant_group().is_some());
    }

    #[test]
    fn gpu_shifts_time_toward_non_gemm() {
        // the paper's headline effect, on a small but realistic mix
        let g = ngb_models_stub();
        let cpu = profile_analytic(
            &g,
            &Platform::data_center().cpu_only(),
            Flow::Eager,
            false,
            1,
        );
        let gpu = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        assert!(
            gpu.breakdown().non_gemm_frac() > cpu.breakdown().non_gemm_frac(),
            "gpu {:.2} vs cpu {:.2}",
            gpu.breakdown().non_gemm_frac(),
            cpu.breakdown().non_gemm_frac()
        );
        assert!(gpu.total_latency_s() < cpu.total_latency_s());
    }

    /// A GEMM-heavy block with a realistic non-GEMM tail.
    fn ngb_models_stub() -> Graph {
        let mut b = GraphBuilder::new("stub");
        let x = b.input(&[1, 128, 1024]);
        let mut h = x;
        for i in 0..4 {
            let n = b
                .push(OpKind::LayerNorm { dim: 1024 }, &[h], &format!("ln{i}"))
                .unwrap();
            let l = b
                .push(
                    OpKind::Linear {
                        in_f: 1024,
                        out_f: 4096,
                        bias: true,
                    },
                    &[n],
                    &format!("up{i}"),
                )
                .unwrap();
            let a = b.push(OpKind::NewGelu, &[l], &format!("act{i}")).unwrap();
            let d = b
                .push(
                    OpKind::Linear {
                        in_f: 4096,
                        out_f: 1024,
                        bias: true,
                    },
                    &[a],
                    &format!("dn{i}"),
                )
                .unwrap();
            h = b.push(OpKind::Add, &[h, d], &format!("res{i}")).unwrap();
        }
        b.finish()
    }

    #[test]
    fn ort_charges_transfers_to_memory_ops() {
        let g = transformer_ish();
        let p = profile_analytic(&g, &Platform::data_center(), Flow::Ort, true, 1);
        // views are native ORT ops and stay on the GPU; the data-moving
        // contiguous falls back to the CPU and pays PCIe transfers
        let view = p.nodes.iter().find(|n| n.name == "view").unwrap();
        assert_eq!(view.placement, "gpu");
        let contig = p.nodes.iter().find(|n| n.name == "contig").unwrap();
        assert!(contig.transfer_s > 0.0);
        assert_eq!(contig.placement, "cpu");
        let q = p.nodes.iter().find(|n| n.name == "q").unwrap();
        assert_eq!(q.placement, "gpu");
        assert_eq!(q.transfer_s, 0.0);
    }

    #[test]
    fn cpu_only_ignores_use_gpu_flag() {
        let g = transformer_ish();
        let p = profile_analytic(&g, &Platform::mobile().cpu_only(), Flow::Eager, true, 1);
        assert!(p.nodes.iter().all(|n| n.placement == "cpu"));
        assert!(p.platform.contains("CPU only"));
    }

    #[test]
    fn measured_profile_times_real_execution() {
        let g = transformer_ish();
        let p = profile_measured(&g, 3, &Interpreter::new(42)).unwrap();
        assert_eq!(p.nodes.len(), g.len());
        assert!(p.total_latency_s() > 0.0);
        assert!(p.nodes.iter().all(|n| n.latency_s.is_finite()));
        // linear on [64, 256] must out-cost the zero-copy view
        let q = p.nodes.iter().find(|n| n.name == "q").unwrap();
        let v = p.nodes.iter().find(|n| n.name == "view").unwrap();
        assert!(q.latency_s > v.latency_s);
    }

    #[test]
    fn measured_parallel_profile_attributes_workers() {
        let g = transformer_ish();
        let p = profile_measured(&g, 2, &Interpreter::new(42).engine(Engine::Parallel(2))).unwrap();
        assert_eq!(p.nodes.len(), g.len());
        assert!(p.nodes.iter().all(|n| n.tid < 2));
        assert!(p.flow.contains("parallel"));
        // start offsets are real wall-clock offsets, so some node after the
        // input must start later than the input
        let input_start = p.nodes[0].start_s;
        assert!(p.nodes.iter().any(|n| n.start_s >= input_start));
    }

    #[test]
    fn measured_profile_records_intra_op_stats() {
        let mut b = GraphBuilder::new("wide");
        let x = b.input(&[1, 64, 2048]); // 128 Ki elems: above the chunk grain
        b.push(OpKind::Gelu, &[x], "act").unwrap();
        let g = b.finish();
        let p = profile_measured(&g, 1, &Interpreter::new(42).intra_op(true)).unwrap();
        let act = p.nodes.iter().find(|n| n.name == "act").unwrap();
        // chunk count is a pure function of shape: 128Ki / 32Ki = 4 chunks
        assert_eq!(act.intra_chunks, 4);
        assert!(act.intra_parallelism >= 1);
        // sequential engine installs no runner, so chunks run serially
        assert_eq!(act.intra_parallelism, 1);
        // and the analytic path reports zeros (nothing executed)
        let a = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        assert!(a.nodes.iter().all(|n| n.intra_chunks == 0));
    }

    #[test]
    fn measured_profile_records_bytes_materialized() {
        let mut b = GraphBuilder::new("mat");
        let x = b.input(&[1, 8, 16]);
        let t = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t")
            .unwrap();
        b.push(OpKind::Contiguous, &[t], "contig").unwrap();
        let g = b.finish();
        let p = profile_measured(&g, 1, &Interpreter::new(42)).unwrap();
        let contig = p.nodes.iter().find(|n| n.name == "contig").unwrap();
        // the transposed view is non-dense, so Contiguous copies 8*16 f32s
        assert_eq!(contig.bytes_materialized, 8 * 16 * 4);
        // every other kernel consumes its operand in place
        assert!(p
            .nodes
            .iter()
            .filter(|n| n.name != "contig")
            .all(|n| n.bytes_materialized == 0));
        // analytic profiles execute nothing
        let a = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        assert!(a.nodes.iter().all(|n| n.bytes_materialized == 0));
    }

    #[test]
    fn analytic_profile_lays_nodes_end_to_start() {
        let g = transformer_ish();
        let p = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        let mut cursor = 0.0;
        for n in &p.nodes {
            assert!((n.start_s - cursor).abs() < 1e-12, "node {}", n.name);
            cursor += n.latency_s + n.transfer_s;
        }
    }

    #[test]
    fn fused_nodes_attribute_time_across_classes() {
        use ngb_graph::{FusedKind, FusedOp, FusedStage};
        let mut b = GraphBuilder::new("fused");
        let x = b.input(&[8, 64]);
        b.push(
            OpKind::Fused(FusedOp {
                kind: FusedKind::GemmEpilogue,
                stages: vec![
                    FusedStage {
                        op: OpKind::Linear {
                            in_f: 64,
                            out_f: 64,
                            bias: true,
                        },
                        seed_id: 1,
                        extra_inputs: 1,
                    },
                    FusedStage {
                        op: OpKind::Gelu,
                        seed_id: 2,
                        extra_inputs: 0,
                    },
                ],
            }),
            &[x],
            "fc_act",
        )
        .unwrap();
        let g = b.finish();
        let p = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        let fused = &p.nodes[1];
        assert!(!fused.attribution.is_empty());
        let sum: f64 = fused.attribution.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        // the fused node is GEMM-classified, yet the breakdown still
        // charges its gelu stage to the Activation group
        let bd = p.breakdown();
        assert!(bd.gemm_s > 0.0);
        assert!(bd.group_frac(NonGemmGroup::Activation) > 0.0);
        assert!((bd.gemm_frac() + bd.non_gemm_frac() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stage_breakdown_splits_prefill_from_decode() {
        let g = transformer_ish();
        let prefill = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        let decode = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1)
            .with_stage(StagePhase::Decode);
        assert!(prefill.nodes.iter().all(|n| n.stage == StagePhase::Prefill));
        assert!(decode.nodes.iter().all(|n| n.stage == StagePhase::Decode));
        let merged = prefill.merged_with(decode);
        let p = merged.stage_breakdown(StagePhase::Prefill);
        let d = merged.stage_breakdown(StagePhase::Decode);
        assert!(p.total_s > 0.0);
        assert!(d.total_s > 0.0);
        assert!(
            (p.total_s + d.total_s - merged.breakdown().total_s).abs() < 1e-12,
            "stages partition the merged total"
        );
    }

    #[test]
    fn hottest_sorts_descending() {
        let g = transformer_ish();
        let p = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        let h = p.hottest(3);
        assert_eq!(h.len(), 3);
        assert!(h[0].total_s() >= h[1].total_s());
        assert!(h[1].total_s() >= h[2].total_s());
    }
}
