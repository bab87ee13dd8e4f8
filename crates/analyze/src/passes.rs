//! The [`Analyzer`] and its nine passes.
//!
//! Passes run in a fixed order — structural, shape, taxonomy, cost,
//! fusion, parallelism, hazard, decode, shard — and each appends
//! [`Diagnostic`]s to the report. Later passes
//! guard against structurally broken nodes (out-of-range inputs) instead of
//! assuming the structural pass came back clean, so a single corrupted node
//! produces one precise finding rather than a cascade of panics.

use std::collections::BTreeMap;

use ngb_graph::{
    attention_prologue, conv_bn, infer_shape, Graph, Node, NodeId, NonGemmGroup, OpClass, OpKind,
    StructuralIssue,
};
use ngb_tensor::num_elements;

use crate::diag::{Diagnostic, Lint, LintConfig};
use crate::report::{AnalysisReport, Census, ParallelismStats};

/// Multi-pass static analyzer over an operator [`Graph`].
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    config: LintConfig,
}

/// Mutable state threaded through the passes of one `analyze` call.
struct Ctx<'g> {
    graph: &'g Graph,
    config: &'g LintConfig,
    /// consumers[i] = number of nodes consuming node i's output.
    consumers: Vec<usize>,
    /// Whether every input id of node i is in range (safe to cost/infer).
    sound: Vec<bool>,
    diagnostics: Vec<Diagnostic>,
}

impl<'g> Ctx<'g> {
    fn new(graph: &'g Graph, config: &'g LintConfig) -> Ctx<'g> {
        // an out-of-range or forward input makes the node's semantics
        // undefined; the structural pass owns that finding
        let sound = graph
            .iter()
            .enumerate()
            .map(|(i, node)| node.inputs.iter().all(|inp| inp.0 < i))
            .collect();
        Ctx {
            graph,
            config,
            consumers: graph.consumer_counts(),
            sound,
            diagnostics: Vec::new(),
        }
    }

    /// Records a node-scoped finding at the configured severity.
    fn emit(&mut self, lint: Lint, node: NodeId, message: String) {
        let node_name = self
            .graph
            .nodes
            .get(node.0)
            .map(|n| n.name.clone())
            .unwrap_or_default();
        self.diagnostics.push(Diagnostic {
            lint,
            severity: self.config.severity(lint),
            node: Some(node),
            node_name,
            message,
        });
    }

    /// Records a graph-level finding at the configured severity.
    fn emit_graph(&mut self, lint: Lint, message: String) {
        self.diagnostics.push(Diagnostic {
            lint,
            severity: self.config.severity(lint),
            node: None,
            node_name: String::new(),
            message,
        });
    }

    /// Input shapes of `node`, when all its inputs are in range.
    fn input_shapes(&self, node: &Node) -> Option<Vec<Vec<usize>>> {
        node.inputs
            .iter()
            .map(|&i| self.graph.nodes.get(i.0).map(|n| n.out_shape.clone()))
            .collect()
    }
}

impl Analyzer {
    /// An analyzer with every lint at its default severity.
    pub fn new() -> Analyzer {
        Analyzer::default()
    }

    /// An analyzer with per-lint severity overrides.
    pub fn with_config(config: LintConfig) -> Analyzer {
        Analyzer { config }
    }

    /// Runs all nine passes over `graph`.
    pub fn analyze(&self, graph: &Graph) -> AnalysisReport {
        let mut ctx = Ctx::new(graph, &self.config);
        structural_pass(&mut ctx);
        shape_pass(&mut ctx);
        let census = taxonomy_pass(&mut ctx);
        cost_pass(&mut ctx);
        fusion_pass(&mut ctx);
        let parallelism = parallelism_pass(&mut ctx);
        hazard_pass(&mut ctx);
        decode_pass(&mut ctx);
        shard_pass(&mut ctx);
        AnalysisReport {
            graph_name: graph.name.clone(),
            diagnostics: ctx.diagnostics,
            census,
            parallelism,
        }
    }
}

/// Pass 1: NodeId/topology consistency (via [`Graph::structural_issues`]),
/// dead-node detection, and duplicate-subgraph (CSE) candidates.
fn structural_pass(ctx: &mut Ctx) {
    for issue in ctx.graph.structural_issues() {
        let lint = match issue {
            StructuralIssue::IdMismatch { .. } => Lint::NodeIdMismatch,
            StructuralIssue::InputOutOfRange { .. } => Lint::DanglingInput,
            StructuralIssue::NonTopologicalInput { .. } => Lint::NonTopologicalInput,
        };
        ctx.emit(lint, issue.node(), issue.to_string());
    }

    // Dead nodes: a sink (no consumers) is dead when some later node is
    // still interior — the graph moved on without this result. Trailing
    // sinks are the graph's output frontier and stay live.
    let last_interior = ctx
        .consumers
        .iter()
        .rposition(|&c| c > 0)
        .map(|p| p as isize)
        .unwrap_or(-1);
    for (i, node) in ctx.graph.iter().enumerate() {
        if ctx.consumers[i] == 0 && (i as isize) < last_interior {
            ctx.emit(
                Lint::DeadNode,
                NodeId(i),
                format!(
                    "'{}' is never consumed but the graph continues past it",
                    node.name
                ),
            );
        }
    }

    // Duplicate subgraphs: identical op applied to identical inputs.
    // Inputs themselves are excluded (same shape does not mean same data).
    let mut seen: BTreeMap<String, NodeId> = BTreeMap::new();
    for node in ctx.graph.iter() {
        if node.inputs.is_empty() {
            continue;
        }
        let key = format!("{:?}|{:?}", node.op, node.inputs);
        match seen.get(&key) {
            Some(&first) => {
                let msg = format!(
                    "'{}' recomputes {} ({}) on the same inputs; CSE candidate",
                    node.name,
                    first,
                    node.op.name()
                );
                ctx.emit(Lint::DuplicateSubgraph, node.id, msg);
            }
            None => {
                seen.insert(key, node.id);
            }
        }
    }
}

/// Pass 2: independently re-runs shape inference on every node and
/// cross-checks the stored `out_shape`.
fn shape_pass(ctx: &mut Ctx) {
    for (i, node) in ctx.graph.iter().enumerate() {
        if matches!(node.op, OpKind::Input | OpKind::InputIds { .. }) || !ctx.sound[i] {
            continue;
        }
        let Some(input_shapes) = ctx.input_shapes(node) else {
            continue;
        };
        match infer_shape(&node.op, &input_shapes) {
            Err(e) => {
                let msg = format!("{} on inputs {:?}: {e}", node.op.name(), input_shapes);
                ctx.emit(Lint::ShapeInferFailed, node.id, msg);
            }
            Ok(inferred) if inferred != node.out_shape => {
                let msg = format!(
                    "stored shape {:?} but {} infers {:?}",
                    node.out_shape,
                    node.op.name(),
                    inferred
                );
                ctx.emit(Lint::ShapeMismatch, node.id, msg);
            }
            Ok(_) => {}
        }
    }
}

/// Pass 3: audits the GEMM / non-GEMM taxonomy and produces the per-model
/// census (the paper's §2.1 breakdown), cross-checked against the
/// [`Graph`] counting helpers.
fn taxonomy_pass(ctx: &mut Ctx) -> Census {
    let mut gemm = 0usize;
    let mut dynamic = 0usize;
    let mut by_group: BTreeMap<&'static str, usize> = BTreeMap::new();
    for node in ctx.graph.iter() {
        if node.op.is_dynamic() {
            dynamic += 1;
        }
        match node.class() {
            OpClass::Gemm => gemm += 1,
            OpClass::NonGemm(group) => {
                if !NonGemmGroup::all().contains(&group) {
                    let msg = format!(
                        "group {:?} of {} is missing from NonGemmGroup::all(); census \
                         reports would drop it",
                        group,
                        node.op.name()
                    );
                    ctx.emit(Lint::UnknownGroup, node.id, msg);
                }
                *by_group.entry(group.label()).or_insert(0) += 1;
            }
        }
    }
    let groups: Vec<(&'static str, usize)> = NonGemmGroup::all()
        .iter()
        .map(|g| (g.label(), by_group.get(g.label()).copied().unwrap_or(0)))
        .collect();
    let census = Census {
        nodes: ctx.graph.len(),
        gemm,
        groups,
        dynamic,
    };

    if census.gemm + census.non_gemm() != census.nodes {
        ctx.emit_graph(
            Lint::CensusMismatch,
            format!(
                "{} gemm + {} non-gemm != {} nodes",
                census.gemm,
                census.non_gemm(),
                census.nodes
            ),
        );
    }
    if ctx.graph.gemm_count() != census.gemm {
        ctx.emit_graph(
            Lint::CensusMismatch,
            format!(
                "Graph::gemm_count() says {} but the per-node census says {}",
                ctx.graph.gemm_count(),
                census.gemm
            ),
        );
    }
    for &g in NonGemmGroup::all() {
        let from_graph = ctx.graph.group_count(g);
        let from_census = census
            .groups
            .iter()
            .find(|&&(l, _)| l == g.label())
            .map_or(0, |&(_, n)| n);
        if from_graph != from_census {
            ctx.emit_graph(
                Lint::CensusMismatch,
                format!(
                    "Graph::group_count({}) says {from_graph} but the census says {from_census}",
                    g.label()
                ),
            );
        }
    }
    census
}

/// Pass 4: `op_cost` sanity invariants — GEMMs do work, work launches
/// kernels, kernels move at least their operands, and nothing but inputs
/// and metadata views is free.
fn cost_pass(ctx: &mut Ctx) {
    for (i, node) in ctx.graph.iter().enumerate() {
        if matches!(node.op, OpKind::Input | OpKind::InputIds { .. }) || !ctx.sound[i] {
            continue;
        }
        let Some(input_shapes) = ctx.input_shapes(node) else {
            continue;
        };
        let cost = ngb_graph::op_cost(&node.op, &input_shapes, &node.out_shape);

        if node.class().is_gemm() && cost.flops <= 0.0 {
            ctx.emit(
                Lint::GemmZeroFlops,
                node.id,
                format!("GEMM op {} reports {} flops", node.op.name(), cost.flops),
            );
        }
        let works = cost.flops > 0.0 || cost.memory_bytes() > 0.0;
        if cost.kernels == 0 && works {
            ctx.emit(
                Lint::KernellessWork,
                node.id,
                format!(
                    "{} reports {} flops and {} traffic bytes with zero kernel launches",
                    node.op.name(),
                    cost.flops,
                    cost.memory_bytes()
                ),
            );
        }
        if cost.kernels == 0 && !works && node.class().group() != Some(NonGemmGroup::Memory) {
            ctx.emit(
                Lint::ZeroCostNode,
                node.id,
                format!(
                    "{} reports an all-zero cost but is not a metadata view",
                    node.op.name()
                ),
            );
        }
        // Static kernels must move at least their operands; dynamic ops
        // (NMS, RoIAlign) cost nominal shapes and are exempt.
        if cost.kernels >= 1 && !cost.dynamic {
            let operand_bytes = 4.0
                * (num_elements(&node.out_shape)
                    + input_shapes.iter().map(|s| num_elements(s)).sum::<usize>())
                    as f64;
            if cost.memory_bytes() + 0.5 < operand_bytes {
                ctx.emit(
                    Lint::TrafficUnderflow,
                    node.id,
                    format!(
                        "{} moves {} bytes but its operands total {} bytes",
                        node.op.name(),
                        cost.memory_bytes(),
                        operand_bytes
                    ),
                );
            }
        }
    }
}

/// Pass 5: fusion-opportunity patterns. The attention and Conv→BN chains
/// are [`attention_prologue`] and [`conv_bn`], the matchers `ngb-opt`
/// rewrites with. All three lints default to
/// [`crate::diag::Severity::Allow`]: they flag optimization candidates,
/// not defects.
fn fusion_pass(ctx: &mut Ctx) {
    let g = ctx.graph;
    let len = g.len();
    // in-range single input of a node, if any
    let single_input = |node: &Node| -> Option<NodeId> {
        match node.inputs.first() {
            Some(&i) if i.0 < len => Some(i),
            _ => None,
        }
    };
    let mut found: Vec<(Lint, NodeId, String)> = Vec::new();
    for node in g.iter() {
        // GEMM feeding a single-consumer activation: fusable epilogue.
        if node.class().group() == Some(NonGemmGroup::Activation) {
            if let Some(prev) = single_input(node) {
                let producer = g.node(prev);
                if producer.class().is_gemm() && ctx.consumers[prev.0] == 1 {
                    found.push((
                        Lint::FuseLinearActivation,
                        node.id,
                        format!(
                            "{} '{}' feeds only this {}; fusable as a GEMM epilogue",
                            producer.op.name(),
                            producer.name,
                            node.op.name()
                        ),
                    ));
                }
            }
        }
        if let Some(m) = attention_prologue(g, &ctx.consumers, node.id) {
            let chain: Vec<&str> = m.nodes().map(|id| g.node(id).op.name()).collect();
            found.push((
                Lint::FuseAttention,
                node.id,
                format!(
                    "attention prologue {} ending at '{}'; FlashAttention-style \
                     fusion candidate",
                    chain.join(" -> "),
                    node.name
                ),
            ));
        }
        // Conv2d -> BatchNorm -> ReLU: BN folds into the conv at inference.
        if matches!(node.op, OpKind::Relu | OpKind::Relu6) {
            if let Some(bn_id) = single_input(node).filter(|b| ctx.consumers[b.0] == 1) {
                if let Some(conv_id) = conv_bn(g, &ctx.consumers, bn_id) {
                    found.push((
                        Lint::FuseConvBnRelu,
                        node.id,
                        format!(
                            "'{}' -> '{}' -> '{}' folds into a single conv kernel",
                            g.node(conv_id).name,
                            g.node(bn_id).name,
                            node.name
                        ),
                    ));
                }
            }
        }
    }
    for (lint, node, msg) in found {
        ctx.emit(lint, node, msg);
    }
}

/// Pass 6: inter-operator parallelism. Builds the same wavefront
/// [`ngb_exec::Schedule`] the parallel executor runs from and reports its
/// shape (depth, max/mean width). A structurally broken graph has no
/// meaningful schedule, so the pass reports zeros and stays silent there —
/// the structural pass already owns those findings.
fn parallelism_pass(ctx: &mut Ctx) -> ParallelismStats {
    if ctx.graph.is_empty() || !ctx.graph.structural_issues().is_empty() {
        return ParallelismStats::default();
    }
    let sched = ngb_exec::Schedule::new(ctx.graph);
    if !sched.is_complete() {
        return ParallelismStats::default();
    }
    let stats = ParallelismStats {
        wavefronts: sched.depth(),
        max_width: sched.max_width(),
        mean_width: sched.mean_width(),
    };
    if stats.max_width <= 1 && ctx.graph.len() > 1 {
        ctx.emit_graph(
            Lint::SerialGraph,
            format!(
                "all {} nodes form a single dependency chain; a parallel \
                 executor cannot overlap any two operators",
                ctx.graph.len()
            ),
        );
    }
    stats
}

/// Pass 7: schedule/memory hazard verification, delegated to
/// [`ngb_sanitize::verify_graph`]. Each hazard maps onto one of four
/// lints by class; a clean graph emits nothing, so this pass never
/// perturbs finding counts (or the perf-regression baselines built on
/// them) for healthy models. Structurally broken graphs are skipped —
/// the structural pass already owns those findings, and the verifier
/// would only re-report the same corruption.
fn hazard_pass(ctx: &mut Ctx) {
    if ctx.graph.is_empty() || !ctx.graph.structural_issues().is_empty() {
        return;
    }
    let report = ngb_sanitize::verify_graph(ctx.graph);
    for hazard in report.hazards {
        let lint = match hazard.kind {
            ngb_sanitize::HazardKind::DroppedEdge
            | ngb_sanitize::HazardKind::IncompleteSchedule => Lint::PlanDroppedEdges,
            ngb_sanitize::HazardKind::MissingEdge
            | ngb_sanitize::HazardKind::UnorderedPair
            | ngb_sanitize::HazardKind::IndegreeMismatch => Lint::UnorderedDataEdge,
            ngb_sanitize::HazardKind::UsesMismatch
            | ngb_sanitize::HazardKind::LifetimeTruncated
            | ngb_sanitize::HazardKind::LifetimeExtended
            | ngb_sanitize::HazardKind::PeakMismatch
            | ngb_sanitize::HazardKind::UnorderedReuse
            | ngb_sanitize::HazardKind::SlotConflict
            | ngb_sanitize::HazardKind::Runtime => Lint::StorageInterference,
            ngb_sanitize::HazardKind::PartitionOverlap
            | ngb_sanitize::HazardKind::PartitionGap
            | ngb_sanitize::HazardKind::PartitionOutOfBounds => Lint::PartitionHazard,
        };
        match hazard.nodes.first() {
            Some(&node) => ctx.emit(lint, node, hazard.message),
            None => ctx.emit_graph(lint, hazard.message),
        }
    }
}

/// Pass 8: KV-cache conventions of autoregressive decode-step graphs.
///
/// * **Unbounded cache growth** — a `Cat` along the slot dimension that
///   appends computed rows onto an `Input` buffer and re-exports the
///   grown result as a graph output. A driver feeding that output back
///   as the next step's cache input needs one more slot every step.
///   Well-formed decode graphs keep the cache input's capacity fixed,
///   consume the concatenation internally, and expose only the fresh
///   K/V rows.
/// * **Stale cache shape** — `*.kv.*_cache` inputs whose slot dimension
///   (dim 1) disagrees across layers, so layers attend over different
///   windows of history.
///
/// Graphs without cache-shaped inputs (every non-decode model) trigger
/// neither lint.
fn decode_pass(ctx: &mut Ctx) {
    let g = ctx.graph;
    // unbounded growth: Cat{dim:1}(..., Input, ..., computed, ...) whose
    // result is a graph output (zero consumers)
    for (i, node) in g.iter().enumerate() {
        if !matches!(node.op, OpKind::Cat { dim: 1 }) || !ctx.sound[i] || ctx.consumers[i] != 0 {
            continue;
        }
        let buffer = node
            .inputs
            .iter()
            .find(|&&inp| matches!(g.node(inp).op, OpKind::Input));
        let computed = node
            .inputs
            .iter()
            .any(|&inp| !matches!(g.node(inp).op, OpKind::Input | OpKind::InputIds { .. }));
        if let (Some(&buffer), true) = (buffer, computed) {
            ctx.emit(
                Lint::UnboundedCacheGrowth,
                node.id,
                format!(
                    "'{}' appends computed rows onto input '{}' and re-exports the grown \
                     result; a cache fed from this output needs one more slot every step",
                    node.name,
                    g.node(buffer).name
                ),
            );
        }
    }

    // stale shape: cache-convention inputs with differing slot capacity
    let caches: Vec<&Node> = g
        .iter()
        .filter(|n| {
            matches!(n.op, OpKind::Input)
                && n.out_shape.len() == 3
                && (n.name.ends_with(".kv.k_cache") || n.name.ends_with(".kv.v_cache"))
        })
        .collect();
    if let Some(first) = caches.first() {
        let cap = first.out_shape[1];
        for c in &caches[1..] {
            if c.out_shape[1] != cap {
                ctx.emit(
                    Lint::StaleCacheShape,
                    c.id,
                    format!(
                        "'{}' holds {} slots but '{}' holds {}; layers would attend over \
                         different windows of history",
                        c.name, c.out_shape[1], first.name, cap
                    ),
                );
            }
        }
    }
}

/// Pass 9: shard-plan health of graphs carrying collective/transfer
/// nodes (plain single-device graphs trigger neither lint).
///
/// * **Unbalanced stage** — stages are the maximal runs of compute nodes
///   between [`OpKind::Transfer`] boundaries in id order; when the
///   heaviest stage models more than twice the work of the lightest, the
///   pipeline's bubble is paced by one device while the others idle.
/// * **Transfer-dominated cut** — the activation bytes crossing the
///   plan's cuts exceed the bytes its compute nodes write, so the links
///   outweigh the compute they connect.
fn shard_pass(ctx: &mut Ctx) {
    let g = ctx.graph;
    if !g.iter().any(|n| n.op.is_collective()) {
        return;
    }
    // modeled work per node: flops + logical traffic (the partitioner's
    // own balance weight)
    let weight = |ctx: &Ctx, node: &Node| -> f64 {
        match ctx.input_shapes(node) {
            Some(shapes) => {
                let c = ngb_graph::op_cost(&node.op, &shapes, &node.out_shape);
                c.flops + c.memory_bytes()
            }
            None => 0.0,
        }
    };
    let mut stages: Vec<f64> = vec![0.0];
    let mut transfer_bytes = 0.0f64;
    let mut compute_bytes = 0.0f64;
    for (i, node) in g.iter().enumerate() {
        if !ctx.sound[i] {
            continue;
        }
        if matches!(node.op, OpKind::Transfer) {
            transfer_bytes += num_elements(&node.out_shape) as f64 * 4.0;
            if *stages.last().expect("nonempty") > 0.0 {
                stages.push(0.0);
            }
            continue;
        }
        if !node.op.is_collective() && !matches!(node.op, OpKind::Input | OpKind::InputIds { .. }) {
            compute_bytes += num_elements(&node.out_shape) as f64 * 4.0;
        }
        *stages.last_mut().expect("nonempty") += weight(ctx, node);
    }
    stages.retain(|&w| w > 0.0);
    if stages.len() >= 2 {
        let heaviest = stages.iter().cloned().fold(0.0f64, f64::max);
        let lightest = stages.iter().cloned().fold(f64::INFINITY, f64::min);
        if heaviest > 2.0 * lightest {
            ctx.emit_graph(
                Lint::UnbalancedStage,
                format!(
                    "heaviest stage models {:.0} work units against the lightest's {:.0} \
                     ({}x); the slowest device paces every microbatch",
                    heaviest,
                    lightest,
                    (heaviest / lightest.max(1.0)).round()
                ),
            );
        }
    }
    if transfer_bytes > 0.0 && transfer_bytes >= compute_bytes.max(1.0) {
        ctx.emit_graph(
            Lint::TransferDominatedCut,
            format!(
                "{:.0} activation bytes cross device cuts against {:.0} bytes computed; \
                 the links dominate the schedule",
                transfer_bytes, compute_bytes
            ),
        );
    }
}
