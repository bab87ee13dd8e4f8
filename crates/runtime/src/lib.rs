//! # ngb-runtime
//!
//! Deployment-flow models: how the *same* operator graph executes under
//! different software stacks (paper §3.2.1 "Deployment Flow" and §4.2).
//!
//! A [`Flow`] turns a graph into an [`ExecutionPlan`] of per-node
//! [`PlannedNode`]s — which device each operator runs on, how many kernels
//! it launches, what framework dispatch overhead it pays, and what
//! host↔device transfer traffic it induces. The four flows model:
//!
//! * [`Flow::Eager`] — PyTorch eager: high per-op dispatch, and custom
//!   operators (NewGELU, LlamaRMSNorm, FrozenBatchNorm2d) execute as their
//!   decomposed multi-kernel chains (§4.1.4's overhead).
//! * [`Flow::TorchScript`] — the same kernels behind a cheaper static
//!   dispatcher.
//! * [`Flow::Dynamo`] — `torch.compile`: cheap dispatch plus fusion of
//!   element-wise chains into single kernels (intermediates stay in
//!   registers).
//! * [`Flow::Ort`] — ONNX Runtime with the CUDA execution provider: graph
//!   optimizations fuse decomposed ops into library kernels, **but Memory
//!   operators are not supported on the CUDA EP and fall back to the CPU**,
//!   paying PCIe transfers both ways — the mechanism §4.2 identifies as
//!   making Memory ops dominate every ORT profile.

#![forbid(unsafe_code)]

mod cache;
pub mod decode;

pub use cache::{GraphCache, GraphCacheStats, GraphKey};
pub use decode::{
    greedy_decode, greedy_reference, synth_prompt, DecodeSession, GenerateReport, KvCache,
    KvCacheStats,
};

use ngb_graph::{attention_prologue, Graph, NodeId, NonGemmGroup, OpClass, OpKind};
use ngb_ops::OpCost;

/// A deployment software flow (paper Figure 4 "Deployment Flow" input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Flow {
    /// PyTorch eager mode.
    Eager,
    /// TorchScript.
    TorchScript,
    /// TorchDynamo / `torch.compile`.
    Dynamo,
    /// ONNX Runtime (CUDA EP on GPU platforms, CPU EP otherwise).
    Ort,
}

impl Flow {
    /// All flows in report order.
    pub fn all() -> &'static [Flow] {
        &[Flow::Eager, Flow::TorchScript, Flow::Dynamo, Flow::Ort]
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Flow::Eager => "PyTorch (Eager)",
            Flow::TorchScript => "TorchScript",
            Flow::Dynamo => "TorchDynamo",
            Flow::Ort => "ONNX Runtime",
        }
    }

    /// Per-node framework dispatch overhead in seconds.
    pub fn dispatch_s(self) -> f64 {
        match self {
            Flow::Eager => 14.0e-6,
            Flow::TorchScript => 2.5e-6,
            Flow::Dynamo => 1.2e-6,
            Flow::Ort => 1.5e-6,
        }
    }
}

impl std::fmt::Display for Flow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which device a planned operator executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Host CPU.
    Cpu,
    /// Attached GPU.
    Gpu,
}

/// One operator as scheduled by a flow.
#[derive(Debug, Clone)]
pub struct PlannedNode {
    /// The graph node.
    pub id: NodeId,
    /// Flow-adjusted cost (fusion may rewrite the eager cost).
    pub cost: OpCost,
    /// Where it runs.
    pub placement: Placement,
    /// Framework dispatch overhead paid by this node, seconds.
    pub dispatch_s: f64,
    /// Host↔device bytes moved because of placement (ORT CPU fallback).
    pub transfer_bytes: f64,
    /// Whether the op is GEMM-classified (selects the device throughput).
    pub is_gemm: bool,
    /// Whether Dynamo fused this node into its predecessor (no dispatch,
    /// no launch, no intermediate materialization).
    pub fused_into_prev: bool,
}

/// A flow's schedule for a whole graph.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// The flow that produced this plan.
    pub flow: Flow,
    /// Whether a GPU was targeted.
    pub gpu: bool,
    /// Per-node schedule, in graph order.
    pub nodes: Vec<PlannedNode>,
}

impl ExecutionPlan {
    /// Total kernels launched across the plan.
    pub fn total_kernels(&self) -> u64 {
        self.nodes.iter().map(|n| n.cost.kernels as u64).sum()
    }

    /// Number of nodes placed on the CPU.
    pub fn cpu_fallback_count(&self) -> usize {
        if self.gpu {
            self.nodes
                .iter()
                .filter(|n| n.placement == Placement::Cpu)
                .count()
        } else {
            0
        }
    }
}

/// Whether a flow's optimizer can fuse this op into an element-wise chain.
fn is_fusible(op: &OpKind) -> bool {
    matches!(
        op.class(),
        OpClass::NonGemm(
            NonGemmGroup::Activation | NonGemmGroup::Arithmetic | NonGemmGroup::Normalization
        )
    )
}

/// Replaces a decomposed custom op's cost with its fused-library-kernel
/// equivalent (what ORT's graph optimizer and Dynamo's compiler emit).
fn fused_cost(node: &ngb_graph::Node, graph: &Graph) -> OpCost {
    let shape = graph
        .node(node.inputs.first().copied().unwrap_or(node.id))
        .out_shape
        .clone();
    match &node.op {
        OpKind::NewGelu => ngb_ops::activation::gelu_tanh_cost(&shape),
        OpKind::LlamaRmsNorm { .. } => ngb_ops::normalization::rms_norm_cost(&shape),
        OpKind::FrozenBatchNorm2d { .. } => ngb_ops::normalization::batch_norm2d_cost(&shape),
        _ => {
            let mut c = graph.node_cost(node.id);
            c.kernels = c.kernels.min(1);
            c
        }
    }
}

fn io_bytes(graph: &Graph, node: &ngb_graph::Node) -> f64 {
    let inputs: f64 = node
        .inputs
        .iter()
        .map(|&i| ngb_tensor_bytes(&graph.node(i).out_shape))
        .sum();
    inputs + ngb_tensor_bytes(&node.out_shape)
}

fn ngb_tensor_bytes(shape: &[usize]) -> f64 {
    shape.iter().product::<usize>() as f64 * 4.0
}

/// Optional optimization passes layered on top of a flow — the
/// "non-GEMM-operator-oriented system optimizations" the paper's registry
/// exists to guide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Fuse the attention pattern `Bmm → scale → (mask) → Softmax → Bmm`
    /// into one FlashAttention-style kernel: the `[B, T, T]` score and
    /// probability intermediates never touch memory, and the five launches
    /// collapse into one.
    pub fuse_attention: bool,
}

/// Schedules `graph` under `flow` with extra optimization passes.
pub fn plan_with_options(
    graph: &Graph,
    flow: Flow,
    gpu: bool,
    options: RuntimeOptions,
) -> ExecutionPlan {
    let mut exec_plan = plan(graph, flow, gpu);
    if options.fuse_attention {
        fuse_attention(graph, &mut exec_plan);
    }
    exec_plan
}

/// Rewrites the plan entries of every attention block into a single fused
/// kernel (see [`RuntimeOptions::fuse_attention`]). A block is an
/// [`attention_prologue`] with a `Bmm` head and a `CausalMask` or no mask,
/// whose softmax feeds only the `inputs[0]` of a second `Bmm`.
///
/// The head `Bmm` keeps the combined FLOPs of both matmuls plus the softmax
/// chain, reads only q/k/v, and writes only the context; the interior nodes
/// become free fused continuations.
fn fuse_attention(graph: &Graph, exec_plan: &mut ExecutionPlan) {
    let consumers = graph.consumer_counts();
    for bmm2 in graph.iter().filter(|n| n.op == OpKind::Bmm) {
        let Some(m) = bmm2
            .inputs
            .first()
            .and_then(|&softmax| attention_prologue(graph, &consumers, softmax))
        else {
            continue;
        };
        let start = graph.node(m.head);
        if consumers[m.softmax.0] != 1
            || start.op != OpKind::Bmm
            || m.mask
                .is_some_and(|id| graph.node(id).op != OpKind::CausalMask)
        {
            continue;
        }
        let chain: Vec<NodeId> = m.nodes().chain([bmm2.id]).collect();

        // rewrite: head gets everything, interior nodes become free
        let combined: OpCost = chain.iter().map(|&id| exec_plan.nodes[id.0].cost).sum();
        let qkv_bytes: f64 = start
            .inputs
            .iter()
            .chain(bmm2.inputs.get(1))
            .map(|&i| ngb_tensor_bytes(&graph.node(i).out_shape))
            .sum();
        let out_bytes = ngb_tensor_bytes(&bmm2.out_shape);
        let head = &mut exec_plan.nodes[m.head.0];
        head.cost = OpCost {
            flops: combined.flops,
            bytes_read: qkv_bytes,
            bytes_written: out_bytes,
            kernels: 1,
            dynamic: false,
        };
        head.dispatch_s = exec_plan.flow.dispatch_s();
        for &id in &chain[1..] {
            let n = &mut exec_plan.nodes[id.0];
            n.cost = OpCost::metadata();
            n.dispatch_s = 0.0;
            n.fused_into_prev = true;
        }
    }
}

/// Schedules `graph` under `flow`, targeting the GPU when `gpu` is true.
pub fn plan(graph: &Graph, flow: Flow, gpu: bool) -> ExecutionPlan {
    let mut nodes = Vec::with_capacity(graph.len());
    let mut prev_fusible_consumer: Option<NodeId> = None;
    for node in graph.iter() {
        // inputs are free: they model data already resident
        if matches!(node.op, OpKind::Input | OpKind::InputIds { .. }) {
            nodes.push(PlannedNode {
                id: node.id,
                cost: OpCost::metadata(),
                placement: if gpu { Placement::Gpu } else { Placement::Cpu },
                dispatch_s: 0.0,
                transfer_bytes: 0.0,
                is_gemm: false,
                fused_into_prev: false,
            });
            prev_fusible_consumer = None;
            continue;
        }
        let is_gemm = node.class().is_gemm();
        let eager_cost = graph.node_cost(node.id);
        let (mut cost, mut placement, mut transfer, mut dispatch, mut fused) = (
            eager_cost,
            if gpu { Placement::Gpu } else { Placement::Cpu },
            0.0f64,
            flow.dispatch_s(),
            false,
        );
        match flow {
            Flow::Eager | Flow::TorchScript => {
                // every kernel of a decomposed custom op (NewGELU,
                // LlamaRMSNorm, FrozenBatchNorm2d) is a separate framework
                // op in eager execution, each paying full dispatch —
                // the overhead §4.1.4 describes
                dispatch = flow.dispatch_s() * cost.kernels.max(1) as f64;
            }
            Flow::Dynamo => {
                if is_fusible(&node.op) {
                    cost = fused_cost(node, graph);
                    // chain fusion: a fusible node feeding straight from the
                    // previous fusible node joins its kernel
                    let feeds_from_prev = node
                        .inputs
                        .first()
                        .is_some_and(|&i| prev_fusible_consumer == Some(i));
                    if feeds_from_prev {
                        fused = true;
                        dispatch = 0.0;
                        cost.kernels = 0;
                        // intermediate stays in registers: drop one read+write
                        cost.bytes_read = (cost.bytes_read - cost.bytes_written).max(0.0);
                    }
                    prev_fusible_consumer = Some(node.id);
                } else {
                    prev_fusible_consumer = None;
                }
            }
            Flow::Ort => {
                cost = fused_cost(node, graph);
                // Reshape/View are first-class (zero-cost) ORT ops; the
                // unsupported subset is the data-moving layout ops
                let falls_back = node.class().group() == Some(NonGemmGroup::Memory)
                    && !matches!(node.op, OpKind::Reshape { .. } | OpKind::View { .. });
                if gpu && falls_back {
                    // unsupported on the CUDA EP: run on host, pay transfers
                    placement = Placement::Cpu;
                    transfer = io_bytes(graph, node);
                }
            }
        }
        if flow != Flow::Dynamo {
            prev_fusible_consumer = None;
        }
        // pure-metadata ops (views, permutes, ...) skip the kernel
        // dispatcher entirely; they only pay the cheaper Python/framework
        // call overhead
        if cost.kernels == 0 && !fused {
            dispatch = flow.dispatch_s() * 0.25;
        }
        nodes.push(PlannedNode {
            id: node.id,
            cost,
            placement,
            dispatch_s: dispatch,
            transfer_bytes: transfer,
            is_gemm,
            fused_into_prev: fused,
        });
    }
    ExecutionPlan { flow, gpu, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{GraphBuilder, OpKind};

    fn toy_graph() -> Graph {
        let mut b = GraphBuilder::new("toy");
        let x = b.input(&[1, 8, 64]);
        let n = b
            .push(OpKind::LlamaRmsNorm { dim: 64 }, &[x], "norm")
            .unwrap();
        let l = b
            .push(
                OpKind::Linear {
                    in_f: 64,
                    out_f: 64,
                    bias: false,
                },
                &[n],
                "fc",
            )
            .unwrap();
        let a = b.push(OpKind::NewGelu, &[l], "act").unwrap();
        let v = b
            .push(OpKind::View { shape: vec![8, 64] }, &[a], "view")
            .unwrap();
        let p = b
            .push(OpKind::Permute { perm: vec![1, 0] }, &[v], "perm")
            .unwrap();
        b.push(OpKind::Contiguous, &[p], "contig").unwrap();
        b.finish()
    }

    #[test]
    fn eager_keeps_decomposed_kernels() {
        let g = toy_graph();
        let plan = plan(&g, Flow::Eager, true);
        let act = plan
            .nodes
            .iter()
            .find(|n| g.node(n.id).name == "act")
            .unwrap();
        assert_eq!(act.cost.kernels, 8); // NewGELU chain
        let norm = plan
            .nodes
            .iter()
            .find(|n| g.node(n.id).name == "norm")
            .unwrap();
        assert_eq!(norm.cost.kernels, 6); // LlamaRMSNorm chain
        assert!(plan.nodes.iter().all(|n| n.transfer_bytes == 0.0));
    }

    #[test]
    fn ort_fuses_custom_ops() {
        let g = toy_graph();
        let plan = plan(&g, Flow::Ort, true);
        let act = plan
            .nodes
            .iter()
            .find(|n| g.node(n.id).name == "act")
            .unwrap();
        assert_eq!(act.cost.kernels, 1);
        let norm = plan
            .nodes
            .iter()
            .find(|n| g.node(n.id).name == "norm")
            .unwrap();
        assert_eq!(norm.cost.kernels, 1);
    }

    #[test]
    fn ort_gpu_falls_back_memory_ops_to_cpu_with_transfers() {
        let g = toy_graph();
        let p = plan(&g, Flow::Ort, true);
        // view is a native ORT Reshape and stays resident; the data-moving
        // layout ops fall back with transfers
        let view = p
            .nodes
            .iter()
            .find(|n| g.node(n.id).name == "view")
            .unwrap();
        assert_eq!(view.placement, Placement::Gpu);
        for name in ["perm", "contig"] {
            let n = p.nodes.iter().find(|n| g.node(n.id).name == name).unwrap();
            assert_eq!(n.placement, Placement::Cpu, "{name} should fall back");
            assert!(n.transfer_bytes > 0.0, "{name} should pay transfers");
        }
        // GEMM stays on GPU
        let fc = p.nodes.iter().find(|n| g.node(n.id).name == "fc").unwrap();
        assert_eq!(fc.placement, Placement::Gpu);
        assert!(p.cpu_fallback_count() >= 2);
    }

    #[test]
    fn ort_cpu_only_has_no_transfers() {
        let g = toy_graph();
        let p = plan(&g, Flow::Ort, false);
        assert!(p.nodes.iter().all(|n| n.transfer_bytes == 0.0));
        assert!(p.nodes.iter().all(|n| n.placement == Placement::Cpu));
    }

    #[test]
    fn dynamo_fuses_elementwise_chains() {
        let mut b = GraphBuilder::new("chain");
        let x = b.input(&[1024]);
        let a = b.push(OpKind::Relu, &[x], "a").unwrap();
        let c = b.push(OpKind::Sigmoid, &[a], "b").unwrap();
        b.push(OpKind::Sqrt, &[c], "c").unwrap();
        let g = b.finish();
        let p = plan(&g, Flow::Dynamo, true);
        let fused: Vec<bool> = p.nodes.iter().map(|n| n.fused_into_prev).collect();
        // input, head-of-chain, then two fused continuations
        assert_eq!(fused, vec![false, false, true, true]);
        assert!(p.total_kernels() < super::plan(&g, Flow::Eager, true).total_kernels());
    }

    #[test]
    fn attention_fusion_collapses_the_pattern() {
        // build the bmm -> scale -> mask -> softmax -> bmm chain
        let mut b = GraphBuilder::new("attn");
        let q = b.input(&[4, 16, 8]);
        let k = b.input(&[4, 8, 16]);
        let v = b.input(&[4, 16, 8]);
        let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
        let sc = b.push(OpKind::DivScalar(2.83), &[s], "scale").unwrap();
        let m = b.push(OpKind::CausalMask, &[sc], "mask").unwrap();
        let p = b.push(OpKind::Softmax { dim: 2 }, &[m], "softmax").unwrap();
        b.push(OpKind::Bmm, &[p, v], "context").unwrap();
        let g = b.finish();

        let base = plan(&g, Flow::Dynamo, true);
        let fused = plan_with_options(
            &g,
            Flow::Dynamo,
            true,
            RuntimeOptions {
                fuse_attention: true,
            },
        );
        assert!(fused.total_kernels() < base.total_kernels());
        // interior nodes are free, head keeps the combined flops
        let head = &fused.nodes[s.0];
        assert_eq!(head.cost.kernels, 1);
        let base_flops: f64 = base.nodes.iter().map(|n| n.cost.flops).sum();
        let fused_flops: f64 = fused.nodes.iter().map(|n| n.cost.flops).sum();
        assert!((base_flops - fused_flops).abs() / base_flops < 1e-9);
        // traffic shrinks: the [4, 16, 16] intermediates are never stored
        let base_bytes: f64 = base.nodes.iter().map(|n| n.cost.memory_bytes()).sum();
        let fused_bytes: f64 = fused.nodes.iter().map(|n| n.cost.memory_bytes()).sum();
        assert!(fused_bytes < base_bytes);
        let interior = &fused.nodes[p.0];
        assert!(interior.fused_into_prev);
    }

    #[test]
    fn attention_fusion_ignores_non_matching_chains() {
        // a bmm followed by something else must be left alone
        let mut b = GraphBuilder::new("plain");
        let a = b.input(&[2, 4, 4]);
        let c = b.input(&[2, 4, 4]);
        let s = b.push(OpKind::Bmm, &[a, c], "mm").unwrap();
        b.push(OpKind::Relu, &[s], "act").unwrap();
        let g = b.finish();
        let base = plan(&g, Flow::Eager, true);
        let opt = plan_with_options(
            &g,
            Flow::Eager,
            true,
            RuntimeOptions {
                fuse_attention: true,
            },
        );
        assert_eq!(base.total_kernels(), opt.total_kernels());
    }

    /// `bmm(q, k) → scale → mask → softmax → bmm(·, v)`; an `Add` mask
    /// takes its tensor at `inputs[1]`.
    fn attention_block(mask: OpKind) -> Graph {
        let mut b = GraphBuilder::new("attn");
        let q = b.input(&[2, 4, 8]);
        let k = b.input(&[2, 8, 4]);
        let v = b.input(&[2, 4, 8]);
        let bias = b.input(&[2, 4, 4]);
        let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
        let sc = b.push(OpKind::DivScalar(2.83), &[s], "scale").unwrap();
        let m = match mask {
            OpKind::Add => b.push(OpKind::Add, &[sc, bias], "mask"),
            op => b.push(op, &[sc], "mask"),
        }
        .unwrap();
        let p = b.push(OpKind::Softmax { dim: 2 }, &[m], "softmax").unwrap();
        b.push(OpKind::Bmm, &[p, v], "context").unwrap();
        b.finish()
    }

    #[test]
    fn attention_fusion_leaves_add_masks_and_matmul_heads_unfused() {
        // prologues the shared matcher accepts but the analytic kernel does
        // not model: an additive mask, and a Matmul head (no rank-2 Matmul
        // can feed a Bmm shape-correctly, so its op is swapped in after
        // building; the analytic plan only reads the op and shapes)
        let add_masked = attention_block(OpKind::Add);
        let mut matmul_headed = attention_block(OpKind::CausalMask);
        matmul_headed.nodes[4].op = OpKind::Matmul;
        for g in [add_masked, matmul_headed] {
            let softmax = NodeId(g.len() - 2);
            assert!(attention_prologue(&g, &g.consumer_counts(), softmax).is_some());
            let base = plan(&g, Flow::Eager, true);
            let opt = plan_with_options(
                &g,
                Flow::Eager,
                true,
                RuntimeOptions {
                    fuse_attention: true,
                },
            );
            assert_eq!(base.total_kernels(), opt.total_kernels());
            assert!(!opt.nodes.iter().any(|n| n.fused_into_prev));
        }
    }

    #[test]
    fn dispatch_ordering_across_flows() {
        assert!(Flow::Eager.dispatch_s() > Flow::TorchScript.dispatch_s());
        assert!(Flow::TorchScript.dispatch_s() > Flow::Dynamo.dispatch_s());
        assert_eq!(Flow::all().len(), 4);
    }
}
