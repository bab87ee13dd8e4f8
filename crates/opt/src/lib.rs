//! # ngb-opt
//!
//! Graph-rewrite optimizer: executes the fusions `ngb-analyze` can only
//! flag. [`optimize`] rewrites a [`Graph`] before scheduling, replacing
//! fusable subgraphs with [`OpKind::Fused`] composite nodes:
//!
//! * **Conv + BN (+ activation) folding** — `Conv2d → BatchNorm2d/`
//!   `FrozenBatchNorm2d` collapses into one folded convolution
//!   ([`FusedKind::ConvBnAct`]). Folding reorders floating-point
//!   arithmetic, so this runs only at [`OptLevel::O2`] and is checked
//!   against a tolerance, not bit equality.
//! * **GEMM epilogues** — a unary pointwise op whose single-consumer
//!   producer is GEMM-classified rides in the producer's kernel
//!   ([`FusedKind::GemmEpilogue`]). Bit-identical.
//! * **Element-wise chains** — runs of single-consumer unary pointwise
//!   ops collapse into one loop ([`FusedKind::ElementwiseChain`]).
//!   Bit-identical.
//! * **Attention prologues** — `MatMul/Bmm → scale → (mask) → Softmax`
//!   becomes one node ([`FusedKind::AttentionPrologue`]). The chain is
//!   [`ngb_graph::attention_prologue`], the same matcher behind the
//!   analyzer's `fuse-attention` lint. Bit-identical.
//! * **Layout coalescing** — adjacent `Transpose`/`Permute`/`Reshape`/
//!   `View`/`Contiguous` pairs cancel or compose. Bit-identical.
//! * **Contiguous elision** — a `Contiguous` node is dropped when static
//!   stride propagation proves its input is already dense, or when every
//!   (transitive) consumer declares [`OpKind::stride_capable`] and any
//!   `Reshape`/`View` on the path stays zero-copy under the incoming
//!   strides (checked with [`ngb_tensor::reshape_strides`]). The strided
//!   kernels are bit-identical to their contiguous fast paths, so elision
//!   never changes results; [`optimize_with`] can pin it off.
//!
//! A graph with [`Graph::structural_issues`] (a dangling or forward input,
//! a misplaced id) is returned unchanged with a zero-rewrite report:
//! `ngb-analyze` owns reporting those defects, and no rewrite is defined
//! on them.
//!
//! Passes run to a fixpoint; every rewrite strictly shrinks the graph, so
//! the loop terminates. Rewritten nodes carry `seed_hint` (and fused
//! stages carry `seed_id`) so synthetic weights and inputs keep deriving
//! from the *original* node ids — renumbering never changes the numbers a
//! model computes.
//!
//! The level comes from the caller: `BenchConfig::opt_level`,
//! `ServeConfig::opt_level` or the CLI's `--opt-level` (default `O0`).
//!
//! # Examples
//!
//! ```
//! use ngb_graph::{GraphBuilder, OpKind};
//! use ngb_opt::{optimize, OptLevel};
//!
//! # fn main() -> Result<(), ngb_tensor::TensorError> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input(&[1, 4]);
//! let h = b.push(OpKind::Linear { in_f: 4, out_f: 4, bias: true }, &[x], "fc")?;
//! b.push(OpKind::Gelu, &[h], "act")?;
//! let (g, report) = optimize(&b.finish(), OptLevel::O1);
//! assert_eq!(report.gemm_epilogue, 1);
//! assert_eq!(g.len(), 2); // input + fused(linear, gelu)
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

use ngb_graph::{
    attention_prologue, conv_bn, static_strides, FusedKind, FusedOp, FusedStage, Graph, Node,
    NodeId, OpKind,
};
use ngb_tensor::{expand_strides, is_contiguous, num_elements, reshape_strides};
use serde::{Deserialize, Serialize};

/// How aggressively [`optimize`] rewrites a graph.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum OptLevel {
    /// No rewrites: the graph executes exactly as built.
    #[default]
    O0,
    /// Bit-identical fusions only (epilogues, element-wise chains,
    /// attention prologues, layout coalescing).
    O1,
    /// Everything in `O1` plus Conv+BN folding, which reorders
    /// floating-point arithmetic (tolerance-checked, not bitwise).
    O2,
}

impl OptLevel {
    /// Parses `"0"`/`"1"`/`"2"` with an optional `O`/`o` prefix.
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s.trim().trim_start_matches(['O', 'o']) {
            "0" => Some(OptLevel::O0),
            "1" => Some(OptLevel::O1),
            "2" => Some(OptLevel::O2),
            _ => None,
        }
    }

    /// Canonical display name (`"O0"`, `"O1"`, `"O2"`).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What [`optimize`] did to a graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OptReport {
    /// Node count before rewriting.
    pub nodes_before: usize,
    /// Node count after rewriting.
    pub nodes_after: usize,
    /// Bytes of intermediate tensors that no longer materialize (4 bytes
    /// per eliminated interior element).
    pub intermediate_bytes_saved: usize,
    /// Conv+BN(+activation) folds applied.
    pub conv_bn_act: usize,
    /// Pointwise epilogues absorbed into GEMM-classified producers.
    pub gemm_epilogue: usize,
    /// Element-wise chain merges applied.
    pub elementwise_chain: usize,
    /// Attention prologues fused.
    pub attention: usize,
    /// Layout pairs cancelled or composed.
    pub layout: usize,
    /// `Contiguous` nodes elided because their consumers accept strided
    /// views (or the input was provably dense already).
    pub contiguous_elided: usize,
    /// Bytes of dense copies the elided `Contiguous` nodes would have
    /// materialized (counted only when the incoming layout was strided).
    pub elision_bytes_saved: usize,
}

impl OptReport {
    /// Total kernel-fusion rewrites (everything except layout coalescing).
    pub fn fusions(&self) -> usize {
        self.conv_bn_act + self.gemm_epilogue + self.elementwise_chain + self.attention
    }

    /// Total rewrites of any kind.
    pub fn rewrites(&self) -> usize {
        self.fusions() + self.layout + self.contiguous_elided
    }

    /// Per-rewrite counters as stable `(label, count)` pairs — the
    /// extractor the `ngb-regress` baseline snapshots record. The labels
    /// are keys of every committed baseline file; renaming one rewrites
    /// them all.
    pub fn counters(&self) -> [(&'static str, usize); 6] {
        [
            ("conv_bn_act", self.conv_bn_act),
            ("gemm_epilogue", self.gemm_epilogue),
            ("elementwise_chain", self.elementwise_chain),
            ("attention", self.attention),
            ("layout", self.layout),
            ("contiguous_elided", self.contiguous_elided),
        ]
    }
}

/// Rewrites `graph` at `level`, returning the optimized graph and a
/// report of what changed. At [`OptLevel::O0`], and for a graph with any
/// [`Graph::structural_issues`], the graph is returned unchanged (a plain
/// clone) with a zero-rewrite report; at `O1+` contiguous elision is on.
pub fn optimize(graph: &Graph, level: OptLevel) -> (Graph, OptReport) {
    optimize_with(graph, level, true)
}

/// [`optimize`] with contiguous elision pinned on or off (the layout
/// tests compare the two; the regress snapshots pin it on).
pub fn optimize_with(graph: &Graph, level: OptLevel, elide: bool) -> (Graph, OptReport) {
    let mut report = OptReport {
        nodes_before: graph.len(),
        nodes_after: graph.len(),
        ..OptReport::default()
    };
    if level == OptLevel::O0 || !graph.structural_issues().is_empty() {
        return (graph.clone(), report);
    }
    let mut g = graph.clone();
    // Every applied rewrite strictly decreases the node count, so the
    // fixpoint is reached within `nodes_before` iterations; the cap is a
    // belt-and-braces guard, not a tuning knob.
    for _ in 0..graph.len().max(1) {
        let mut changed = false;
        if level >= OptLevel::O2 {
            if let Some(ng) = conv_bn_pass(&g, &mut report) {
                g = ng;
                changed = true;
            }
        }
        if let Some(ng) = attention_pass(&g, &mut report) {
            g = ng;
            changed = true;
        }
        if let Some(ng) = absorb_pass(&g, &mut report) {
            g = ng;
            changed = true;
        }
        if let Some(ng) = layout_pass(&g, &mut report) {
            g = ng;
            changed = true;
        }
        if elide {
            if let Some(ng) = elide_pass(&g, &mut report) {
                g = ng;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    report.nodes_after = g.len();
    (g, report)
}

// ---------------------------------------------------------------- rebuild

/// Per-node rewrite decision, in the *old* id space.
enum Action {
    /// Copy the node through (inputs remapped).
    Keep,
    /// Remove the node; anything still referencing it follows `redirect`
    /// (transitively) to a surviving node.
    Drop { redirect: NodeId },
    /// Substitute a new op and input list (old ids) at this position.
    Replace { op: OpKind, inputs: Vec<NodeId> },
}

/// The RNG identity a node carries through rewrites: its original id in
/// the pre-optimization graph.
fn seed_of(n: &Node) -> usize {
    n.seed_hint.unwrap_or(n.id).0
}

/// A primitive node as a fused stage. Stage 0 of a fused op has no chain
/// value, so all of its operands arrive as extra inputs.
fn primitive_stage(n: &Node) -> FusedStage {
    FusedStage {
        op: n.op.clone(),
        seed_id: seed_of(n),
        extra_inputs: n.inputs.len(),
    }
}

/// One non-overlapping batch of rewrites over a graph.
struct Sweep {
    actions: Vec<Action>,
    used: Vec<bool>,
    changed: bool,
}

impl Sweep {
    fn new(len: usize) -> Sweep {
        Sweep {
            actions: (0..len).map(|_| Action::Keep).collect(),
            used: vec![false; len],
            changed: false,
        }
    }

    /// True when none of `ids` is already part of an earlier match.
    fn free(&self, ids: &[NodeId]) -> bool {
        ids.iter().all(|i| !self.used[i.0])
    }

    fn claim(&mut self, ids: &[NodeId]) {
        for i in ids {
            self.used[i.0] = true;
        }
        self.changed = true;
    }

    fn drop_node(&mut self, id: NodeId, redirect: NodeId) {
        self.actions[id.0] = Action::Drop { redirect };
    }

    fn replace(&mut self, id: NodeId, op: OpKind, inputs: Vec<NodeId>) {
        self.actions[id.0] = Action::Replace { op, inputs };
    }

    /// Applies the batch, renumbering surviving nodes compactly.
    fn finish(self, g: &Graph) -> Option<Graph> {
        if !self.changed {
            return None;
        }
        let actions = self.actions;
        // Redirect chains always point at strictly earlier nodes, so this
        // terminates at a surviving node.
        let resolve = |mut id: NodeId| loop {
            match &actions[id.0] {
                Action::Drop { redirect } => id = *redirect,
                _ => return id,
            }
        };
        let mut new_ids = vec![usize::MAX; g.len()];
        let mut nodes = Vec::with_capacity(g.len());
        for node in g.iter() {
            let (op, inputs) = match &actions[node.id.0] {
                Action::Drop { .. } => continue,
                Action::Keep => (node.op.clone(), node.inputs.clone()),
                Action::Replace { op, inputs } => (op.clone(), inputs.clone()),
            };
            let inputs = inputs
                .iter()
                .map(|&i| NodeId(new_ids[resolve(i).0]))
                .collect();
            new_ids[node.id.0] = nodes.len();
            nodes.push(Node {
                id: NodeId(nodes.len()),
                op,
                inputs,
                out_shape: node.out_shape.clone(),
                name: node.name.clone(),
                seed_hint: Some(NodeId(seed_of(node))),
            });
        }
        Some(Graph {
            nodes,
            name: g.name.clone(),
        })
    }
}

// ------------------------------------------------------------------ passes

/// `Conv2d → BatchNorm2d/FrozenBatchNorm2d` (single-consumer link) folds
/// into one [`FusedKind::ConvBnAct`] node. Any trailing activation is
/// absorbed later by [`absorb_pass`], which appends to existing fused
/// GEMM-classified nodes.
fn conv_bn_pass(g: &Graph, report: &mut OptReport) -> Option<Graph> {
    let consumers = g.consumer_counts();
    let mut sw = Sweep::new(g.len());
    for n in g.iter() {
        let Some(pid) = conv_bn(g, &consumers, n.id) else {
            continue;
        };
        if !sw.free(&[pid, n.id]) {
            continue;
        }
        let p = &g.nodes[pid.0];
        let fused = FusedOp {
            kind: FusedKind::ConvBnAct,
            stages: vec![
                primitive_stage(p),
                FusedStage {
                    op: n.op.clone(),
                    seed_id: seed_of(n),
                    extra_inputs: 0,
                },
            ],
        };
        sw.claim(&[pid, n.id]);
        sw.drop_node(pid, p.inputs[0]);
        sw.replace(n.id, OpKind::Fused(fused), p.inputs.clone());
        report.conv_bn_act += 1;
        report.intermediate_bytes_saved += 4 * num_elements(&p.out_shape);
    }
    sw.finish(g)
}

/// Every [`attention_prologue`] becomes one
/// [`FusedKind::AttentionPrologue`] node at the softmax's position.
fn attention_pass(g: &Graph, report: &mut OptReport) -> Option<Graph> {
    let consumers = g.consumer_counts();
    let mut sw = Sweep::new(g.len());
    for n in g.iter() {
        let Some(m) = attention_prologue(g, &consumers, n.id) else {
            continue;
        };
        let (head, scale) = (&g.nodes[m.head.0], &g.nodes[m.scale.0]);
        let mask = m.mask.map(|id| &g.nodes[id.0]);

        let involved: Vec<NodeId> = m.nodes().collect();
        if !sw.free(&involved) {
            continue;
        }

        let mut stages = vec![
            primitive_stage(head),
            FusedStage {
                op: scale.op.clone(),
                seed_id: seed_of(scale),
                extra_inputs: 0,
            },
        ];
        let mut inputs = head.inputs.clone();
        if let Some(m) = mask {
            let extra = if matches!(m.op, OpKind::Add) {
                // The chain value is `Add.inputs[0]`; the mask tensor
                // rides along as one extra fused input.
                let Some(&mask_in) = m.inputs.get(1) else {
                    continue;
                };
                inputs.push(mask_in);
                1
            } else {
                0
            };
            stages.push(FusedStage {
                op: m.op.clone(),
                seed_id: seed_of(m),
                extra_inputs: extra,
            });
        }
        stages.push(FusedStage {
            op: n.op.clone(),
            seed_id: seed_of(n),
            extra_inputs: 0,
        });

        let interior = || {
            involved
                .iter()
                .filter(|&&i| i != n.id)
                .map(|i| &g.nodes[i.0])
        };
        let saved: usize = interior().map(|p| num_elements(&p.out_shape)).sum();
        sw.claim(&involved);
        for p in interior() {
            sw.drop_node(p.id, p.inputs[0]);
        }
        let fused = FusedOp {
            kind: FusedKind::AttentionPrologue,
            stages,
        };
        sw.replace(n.id, OpKind::Fused(fused), inputs);
        report.attention += 1;
        report.intermediate_bytes_saved += 4 * saved;
    }
    sw.finish(g)
}

/// A node's stages when it rides as an epilogue appended to a producer:
/// a primitive unary pointwise op, or an existing element-wise chain
/// (whose head then takes the chain value instead of an extra input).
fn epilogue_stages(n: &Node) -> Option<Vec<FusedStage>> {
    match &n.op {
        OpKind::Fused(f) if f.kind == FusedKind::ElementwiseChain => {
            let mut stages = f.stages.clone();
            if let Some(first) = stages.first_mut() {
                first.extra_inputs = 0;
            }
            Some(stages)
        }
        op => op.pointwise().map(|_| {
            vec![FusedStage {
                op: op.clone(),
                seed_id: seed_of(n),
                extra_inputs: 0,
            }]
        }),
    }
}

/// Shard-plan machinery is never rewritten: collective / transfer nodes
/// mark `ngb-shard` device cut points, and `LinearShard` must replay the
/// unsplit layer's RNG stream and slice it exactly — fusing into or
/// across any of them would move work between devices or change the
/// math. Every rewrite pass skips matches touching these ops.
fn shard_frozen(op: &OpKind) -> bool {
    op.is_collective() || matches!(op, OpKind::LinearShard { .. })
}

/// Merges a unary pointwise node (or element-wise chain) into its
/// single-consumer producer. A GEMM-classified producer — primitive or
/// already fused — yields a GEMM epilogue (this is what clears the
/// analyzer's `fuse-linear-activation` lint, including re-matches
/// against fused nodes); a pointwise producer yields an element-wise
/// chain.
fn absorb_pass(g: &Graph, report: &mut OptReport) -> Option<Graph> {
    let consumers = g.consumer_counts();
    let mut sw = Sweep::new(g.len());
    for n in g.iter() {
        let Some(tail) = epilogue_stages(n) else {
            continue;
        };
        let [pid] = n.inputs.as_slice() else { continue };
        let p = &g.nodes[pid.0];
        if consumers[pid.0] != 1 || !sw.free(&[*pid, n.id]) {
            continue;
        }
        if shard_frozen(&p.op) || shard_frozen(&n.op) {
            continue;
        }
        let (kind, head) = match &p.op {
            OpKind::Fused(f) => (f.kind, f.stages.clone()),
            op if op.class().is_gemm() => (FusedKind::GemmEpilogue, vec![primitive_stage(p)]),
            op if op.pointwise().is_some() => {
                (FusedKind::ElementwiseChain, vec![primitive_stage(p)])
            }
            _ => continue,
        };
        let mut stages = head;
        stages.extend(tail);
        sw.claim(&[*pid, n.id]);
        sw.drop_node(*pid, p.inputs[0]);
        sw.replace(
            n.id,
            OpKind::Fused(FusedOp { kind, stages }),
            p.inputs.clone(),
        );
        if kind == FusedKind::ElementwiseChain {
            report.elementwise_chain += 1;
        } else {
            report.gemm_epilogue += 1;
        }
        report.intermediate_bytes_saved += 4 * num_elements(&p.out_shape);
    }
    sw.finish(g)
}

/// Coalesces adjacent memory-layout pairs: inverse transposes cancel,
/// permutes compose, reshape/view pairs collapse to one reshape, and
/// double `Contiguous` deduplicates. The first node of a pair must have
/// exactly one consumer; pairs whose removal would delete a graph output
/// are left alone.
fn layout_pass(g: &Graph, report: &mut OptReport) -> Option<Graph> {
    let consumers = g.consumer_counts();
    let mut sw = Sweep::new(g.len());
    for n in g.iter() {
        let [pid] = n.inputs.as_slice() else { continue };
        let p = &g.nodes[pid.0];
        if consumers[pid.0] != 1 || !sw.free(&[*pid, n.id]) {
            continue;
        }
        match (&p.op, &n.op) {
            (OpKind::Transpose { d0: a, d1: b }, OpKind::Transpose { d0: c, d1: d })
                if (a, b) == (c, d) || (a, b) == (d, c) =>
            {
                // The pair is the identity: bypass both. Skip when the
                // second transpose is a graph output (dropping it would
                // remove the output).
                if consumers[n.id.0] == 0 {
                    continue;
                }
                sw.claim(&[*pid, n.id]);
                sw.drop_node(*pid, p.inputs[0]);
                sw.drop_node(n.id, p.inputs[0]);
                report.layout += 1;
            }
            (OpKind::Permute { perm: p1 }, OpKind::Permute { perm: p2 })
                if p1.len() == p2.len() =>
            {
                let composed: Vec<usize> = p2.iter().map(|&i| p1[i]).collect();
                sw.claim(&[*pid, n.id]);
                sw.drop_node(*pid, p.inputs[0]);
                sw.replace(n.id, OpKind::Permute { perm: composed }, p.inputs.clone());
                report.layout += 1;
            }
            (
                OpKind::Reshape { .. } | OpKind::View { .. },
                OpKind::Reshape { .. } | OpKind::View { .. },
            ) => {
                // Row-major copy semantics compose: reshape straight to
                // the final (concrete, already-inferred) shape.
                sw.claim(&[*pid, n.id]);
                sw.drop_node(*pid, p.inputs[0]);
                sw.replace(
                    n.id,
                    OpKind::Reshape {
                        shape: n.out_shape.clone(),
                    },
                    p.inputs.clone(),
                );
                report.layout += 1;
            }
            (OpKind::Contiguous, OpKind::Contiguous) => {
                // The second copy is redundant; keep the first.
                if consumers[n.id.0] == 0 {
                    continue;
                }
                sw.claim(&[*pid, n.id]);
                sw.drop_node(n.id, *pid);
                report.layout += 1;
                report.intermediate_bytes_saved += 4 * num_elements(&n.out_shape);
            }
            _ => {}
        }
    }
    sw.finish(g)
}

// ------------------------------------------------------- contiguous elision

/// Whether consumer `c` can take a view with `strides` over `shape` in
/// place of a dense copy, recursing through metadata ops (which forward
/// the layout to *their* consumers with the strides transformed the way
/// the runtime view methods transform them).
fn accepts(
    g: &Graph,
    consumers_of: &[Vec<NodeId>],
    c: &Node,
    shape: &[usize],
    strides: &[isize],
) -> bool {
    if is_contiguous(shape, strides) {
        return true;
    }
    let forward = |ns: Vec<isize>| {
        consumers_of[c.id.0]
            .iter()
            .all(|&x| accepts(g, consumers_of, &g.nodes[x.0], &c.out_shape, &ns))
    };
    match &c.op {
        // An explicit copy downstream absorbs any layout.
        OpKind::Contiguous => true,
        // Zero-copy only when the strides merge; a copying reshape would
        // just relocate the materialization, so refuse and keep the
        // explicit `Contiguous` node honest.
        OpKind::Reshape { .. } | OpKind::View { .. } => {
            match reshape_strides(shape, strides, &c.out_shape) {
                Some(ns) => forward(ns),
                None => false,
            }
        }
        OpKind::Permute { perm } if perm.len() == strides.len() => {
            forward(perm.iter().map(|&i| strides[i]).collect())
        }
        OpKind::Transpose { d0, d1 } if *d0 < strides.len() && *d1 < strides.len() => {
            let mut ns = strides.to_vec();
            ns.swap(*d0, *d1);
            forward(ns)
        }
        OpKind::Squeeze { dim } if *dim < strides.len() => {
            let mut ns = strides.to_vec();
            ns.remove(*dim);
            forward(ns)
        }
        OpKind::Unsqueeze { dim } => {
            let mut ns = strides.to_vec();
            ns.insert((*dim).min(ns.len()), 0);
            forward(ns)
        }
        OpKind::Slice { .. } => forward(strides.to_vec()),
        OpKind::Expand { .. } => match expand_strides(shape, strides, &c.out_shape) {
            Some(ns) => forward(ns),
            None => false,
        },
        // Guarded arms above fell through on malformed attributes: refuse
        // rather than trusting the blanket capability bit.
        OpKind::Permute { .. } | OpKind::Transpose { .. } | OpKind::Squeeze { .. } => false,
        op => op.stride_capable(),
    }
}

/// One NodeId list of consumers per node.
fn consumer_lists(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut lists = vec![Vec::new(); g.len()];
    for n in g.iter() {
        for &i in &n.inputs {
            lists[i.0].push(n.id);
        }
    }
    lists
}

/// Drops `Contiguous` nodes whose copy is provably unnecessary: the input
/// is already dense, or every transitive consumer handles the strided
/// layout bit-identically (see [`OpKind::stride_capable`]). Graph outputs
/// are never dropped.
fn elide_pass(g: &Graph, report: &mut OptReport) -> Option<Graph> {
    let strides = static_strides(g);
    let consumers_of = consumer_lists(g);
    let mut sw = Sweep::new(g.len());
    for n in g.iter() {
        if !matches!(n.op, OpKind::Contiguous) || consumers_of[n.id.0].is_empty() {
            continue;
        }
        let [pid] = n.inputs.as_slice() else { continue };
        if !sw.free(&[n.id]) {
            continue;
        }
        let pshape = &g.nodes[pid.0].out_shape;
        let pstrides = &strides[pid.0];
        let dense_already = is_contiguous(pshape, pstrides);
        if !dense_already
            && !consumers_of[n.id.0]
                .iter()
                .all(|&c| accepts(g, &consumers_of, &g.nodes[c.0], pshape, pstrides))
        {
            continue;
        }
        sw.claim(&[n.id]);
        sw.drop_node(n.id, *pid);
        report.contiguous_elided += 1;
        if !dense_already {
            let bytes = 4 * num_elements(&n.out_shape);
            report.elision_bytes_saved += bytes;
            report.intermediate_bytes_saved += bytes;
        }
    }
    sw.finish(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::GraphBuilder;

    fn linear(in_f: usize, out_f: usize) -> OpKind {
        OpKind::Linear {
            in_f,
            out_f,
            bias: true,
        }
    }

    #[test]
    fn opt_level_parses_and_orders() {
        assert_eq!(OptLevel::parse("0"), Some(OptLevel::O0));
        assert_eq!(OptLevel::parse("O1"), Some(OptLevel::O1));
        assert_eq!(OptLevel::parse(" o2 "), Some(OptLevel::O2));
        assert_eq!(OptLevel::parse("3"), None);
        assert_eq!(OptLevel::parse(""), None);
        assert!(OptLevel::O2 > OptLevel::O1 && OptLevel::O1 > OptLevel::O0);
        assert_eq!(OptLevel::default().name(), "O0");
    }

    #[test]
    fn o0_is_a_no_op() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[1, 4]);
        let h = b.push(linear(4, 4), &[x], "fc").unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let g = b.finish();
        let (og, report) = optimize(&g, OptLevel::O0);
        assert_eq!(og.len(), g.len());
        assert_eq!(report.rewrites(), 0);
        assert_eq!(report.nodes_before, report.nodes_after);
    }

    #[test]
    fn structurally_broken_graphs_are_returned_unchanged() {
        // a dangling input, and a forward input (the Gelu reads itself)
        for bad in [NodeId(42), NodeId(2)] {
            let mut b = GraphBuilder::new("g");
            let x = b.input(&[1, 4]);
            let h = b.push(linear(4, 4), &[x], "fc").unwrap();
            b.push(OpKind::Gelu, &[h], "act").unwrap();
            let mut g = b.finish();
            g.nodes[2].inputs.push(bad);
            for level in [OptLevel::O1, OptLevel::O2] {
                let (og, report) = optimize(&g, level);
                assert_eq!(og.nodes, g.nodes, "{bad} at {level}");
                assert_eq!(report.rewrites(), 0);
                assert_eq!(report.nodes_after, report.nodes_before);
            }
        }
    }

    #[test]
    fn gemm_epilogue_absorbs_activation() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[1, 4]);
        let h = b.push(linear(4, 8), &[x], "fc").unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert_eq!(report.gemm_epilogue, 1);
        assert_eq!(og.len(), 2);
        let OpKind::Fused(f) = &og.nodes[1].op else {
            panic!("expected fused node, got {:?}", og.nodes[1].op);
        };
        assert_eq!(f.kind, FusedKind::GemmEpilogue);
        assert_eq!(f.stages.len(), 2);
        // Stage seed ids preserve the original node identities.
        assert_eq!(f.stages[0].seed_id, 1);
        assert_eq!(f.stages[1].seed_id, 2);
        og.validate().unwrap();
    }

    #[test]
    fn multi_consumer_producer_is_not_fused() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[1, 4]);
        let h = b.push(linear(4, 4), &[x], "fc").unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        b.push(OpKind::Relu, &[h], "other").unwrap(); // second consumer of fc
        let (og, report) = optimize(&b.finish(), OptLevel::O2);
        assert_eq!(report.fusions(), 0);
        assert_eq!(og.len(), 4);
    }

    #[test]
    fn elementwise_chain_collapses_runs() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 6]);
        let a = b.push(OpKind::Neg, &[x], "neg").unwrap();
        let c = b.push(OpKind::Gelu, &[a], "gelu").unwrap();
        b.push(OpKind::Sigmoid, &[c], "sig").unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert!(report.elementwise_chain >= 1);
        assert_eq!(og.len(), 2);
        let OpKind::Fused(f) = &og.nodes[1].op else {
            panic!("expected fused chain");
        };
        assert_eq!(f.kind, FusedKind::ElementwiseChain);
        assert_eq!(f.stages.len(), 3);
        assert_eq!(f.total_inputs(), 1);
        og.validate().unwrap();
    }

    #[test]
    fn conv_bn_relu_folds_at_o2_only() {
        let conv = OpKind::Conv2d {
            in_c: 3,
            out_c: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            bias: false,
        };
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[1, 3, 8, 8]);
        let c = b.push(conv, &[x], "conv").unwrap();
        let n = b.push(OpKind::BatchNorm2d { c: 4 }, &[c], "bn").unwrap();
        b.push(OpKind::Relu, &[n], "act").unwrap();
        let g = b.finish();

        let (o1, r1) = optimize(&g, OptLevel::O1);
        assert_eq!(r1.conv_bn_act, 0);
        assert_eq!(o1.len(), 4); // bn is not pointwise; nothing fuses at O1

        let (o2, r2) = optimize(&g, OptLevel::O2);
        assert_eq!(r2.conv_bn_act, 1);
        assert_eq!(o2.len(), 2);
        let OpKind::Fused(f) = &o2.nodes[1].op else {
            panic!("expected fused conv");
        };
        assert_eq!(f.kind, FusedKind::ConvBnAct);
        // relu was appended by the absorb pass in a later iteration
        assert_eq!(f.stages.len(), 3);
        assert_eq!(r2.gemm_epilogue, 1);
        o2.validate().unwrap();
    }

    #[test]
    fn attention_prologue_matches_lint_pattern() {
        let mut b = GraphBuilder::new("g");
        let q = b.input(&[2, 4, 8]);
        let k = b.input(&[2, 8, 4]);
        let m = b.input(&[2, 4, 4]);
        let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
        let d = b.push(OpKind::DivScalar(2.828), &[s], "scale").unwrap();
        let a = b.push(OpKind::Add, &[d, m], "mask").unwrap();
        b.push(OpKind::Softmax { dim: 2 }, &[a], "probs").unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert_eq!(report.attention, 1);
        assert_eq!(og.len(), 4); // 3 inputs + 1 fused node
        let fused = &og.nodes[3];
        let OpKind::Fused(f) = &fused.op else {
            panic!("expected fused attention");
        };
        assert_eq!(f.kind, FusedKind::AttentionPrologue);
        assert_eq!(f.stages.len(), 4);
        assert_eq!(f.total_inputs(), 3); // q, k, mask
        assert_eq!(fused.inputs.len(), 3);
        og.validate().unwrap();
    }

    #[test]
    fn layout_pairs_cancel_and_compose() {
        // transpose . transpose (inverse) cancels entirely
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let t1 = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t1")
            .unwrap();
        let t2 = b
            .push(OpKind::Transpose { d0: 2, d1: 1 }, &[t1], "t2")
            .unwrap();
        b.push(OpKind::Relu, &[t2], "act").unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert_eq!(report.layout, 1);
        assert_eq!(og.len(), 2);
        og.validate().unwrap();

        // reshape . view composes into one reshape with the final shape
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let r = b
            .push(OpKind::Reshape { shape: vec![6, 4] }, &[x], "r")
            .unwrap();
        b.push(OpKind::View { shape: vec![4, 6] }, &[r], "v")
            .unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert_eq!(report.layout, 1);
        assert_eq!(og.len(), 2);
        assert!(matches!(&og.nodes[1].op, OpKind::Reshape { shape } if shape == &vec![4, 6]));
        og.validate().unwrap();

        // permute . permute composes
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let p1 = b
            .push(
                OpKind::Permute {
                    perm: vec![2, 0, 1],
                },
                &[x],
                "p1",
            )
            .unwrap();
        b.push(
            OpKind::Permute {
                perm: vec![1, 2, 0],
            },
            &[p1],
            "p2",
        )
        .unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert_eq!(report.layout, 1);
        assert_eq!(og.len(), 2);
        let OpKind::Permute { perm } = &og.nodes[1].op else {
            panic!("expected composed permute");
        };
        // permute(permute(x, [2,0,1]), [1,2,0]) leaves axis i reading
        // x's axis p1[p2[i]] = [0, 1, 2]... composed explicitly:
        assert_eq!(perm, &vec![0, 1, 2]);
        og.validate().unwrap();
    }

    #[test]
    fn output_transposes_are_preserved() {
        // The second transpose IS the graph output: the pair must stay.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let t1 = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t1")
            .unwrap();
        b.push(OpKind::Transpose { d0: 1, d1: 2 }, &[t1], "t2")
            .unwrap();
        let (og, report) = optimize(&b.finish(), OptLevel::O1);
        assert_eq!(report.layout, 0);
        assert_eq!(og.len(), 3);
    }

    #[test]
    fn seed_hints_survive_repeated_optimization() {
        // optimize(optimize(g)) must keep pointing at ORIGINAL ids.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let t1 = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t1")
            .unwrap();
        let t2 = b
            .push(OpKind::Transpose { d0: 2, d1: 1 }, &[t1], "t2")
            .unwrap();
        let h = b.push(linear(4, 8), &[t2], "fc").unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let g = b.finish();
        let (once, _) = optimize(&g, OptLevel::O2);
        let (twice, again) = optimize(&once, OptLevel::O2);
        assert_eq!(again.rewrites(), 0, "optimization must be idempotent");
        assert_eq!(once.len(), twice.len());
        // The fused tail node sits at position 1 but its linear stage
        // still seeds from original id 3.
        let OpKind::Fused(f) = &twice.nodes[1].op else {
            panic!("expected fused node");
        };
        assert_eq!(f.stages[0].seed_id, 3);
        assert_eq!(twice.nodes[0].seed_hint, Some(NodeId(0)));
    }

    #[test]
    fn contiguous_before_stride_capable_consumer_is_elided() {
        // transpose -> contiguous -> softmax: the softmax kernel walks
        // strided lanes, so the copy goes away.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let t = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t")
            .unwrap();
        let c = b.push(OpKind::Contiguous, &[t], "c").unwrap();
        b.push(OpKind::Softmax { dim: 2 }, &[c], "sm").unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O1, true);
        assert_eq!(report.contiguous_elided, 1);
        assert_eq!(report.elision_bytes_saved, 4 * 24);
        assert_eq!(og.len(), 3);
        assert!(!og.iter().any(|n| matches!(n.op, OpKind::Contiguous)));
        og.validate().unwrap();

        // with elision pinned off the copy stays
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let t = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t")
            .unwrap();
        let c = b.push(OpKind::Contiguous, &[t], "c").unwrap();
        b.push(OpKind::Softmax { dim: 2 }, &[c], "sm").unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O1, false);
        assert_eq!(report.contiguous_elided, 0);
        assert!(og.iter().any(|n| matches!(n.op, OpKind::Contiguous)));
    }

    #[test]
    fn contiguous_before_incapable_consumer_stays() {
        // transpose -> contiguous -> topk: the selection kernel still
        // materializes internally, so the explicit copy must survive.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[4, 4]);
        let t = b
            .push(OpKind::Transpose { d0: 0, d1: 1 }, &[x], "t")
            .unwrap();
        let c = b.push(OpKind::Contiguous, &[t], "c").unwrap();
        b.push(OpKind::TopK { k: 2 }, &[c], "top").unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O1, true);
        assert_eq!(report.contiguous_elided, 0);
        assert_eq!(og.len(), 4);
    }

    #[test]
    fn shard_machinery_is_never_fused() {
        // linear_shard -> gelu would normally absorb into a GEMM epilogue;
        // shard plans must keep the shard's exact RNG/slice semantics, and
        // the all_gather marks a device cut point no rewrite may cross.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 8]);
        let s = b
            .push(
                OpKind::LinearShard {
                    in_f: 8,
                    out_f: 8,
                    bias: true,
                    part: 0,
                    parts: 2,
                    row_split: false,
                },
                &[x],
                "fc.shard0",
            )
            .unwrap();
        let a = b.push(OpKind::Gelu, &[s], "act").unwrap();
        let g1 = b
            .push(OpKind::AllGather { dim: 1 }, &[a], "gather")
            .unwrap();
        b.push(OpKind::Relu, &[g1], "post").unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O2, true);
        assert_eq!(report.gemm_epilogue, 0);
        assert!(og
            .iter()
            .any(|n| matches!(n.op, OpKind::LinearShard { .. })));
        assert!(og.iter().any(|n| matches!(n.op, OpKind::Gelu)));
        assert!(og.iter().any(|n| matches!(n.op, OpKind::AllGather { .. })));
    }

    #[test]
    fn copying_reshape_consumer_blocks_elision() {
        // transpose -> contiguous -> reshape that merges the transposed
        // dims: dropping the copy would only move it into the reshape, so
        // the pass refuses.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3, 4]);
        let t = b
            .push(OpKind::Transpose { d0: 1, d1: 2 }, &[x], "t")
            .unwrap();
        let c = b.push(OpKind::Contiguous, &[t], "c").unwrap();
        let r = b
            .push(OpKind::Reshape { shape: vec![8, 3] }, &[c], "r")
            .unwrap();
        b.push(OpKind::Relu, &[r], "act").unwrap();
        let (_, report) = optimize_with(&b.finish(), OptLevel::O1, true);
        assert_eq!(report.contiguous_elided, 0);
    }

    #[test]
    fn zero_copy_reshape_consumer_allows_elision() {
        // batch-1 attention prologue: [1,H,T,hd] permuted view reshaped to
        // [H,T,hd] merges only the size-1 batch dim -> zero-copy, and the
        // consuming bmm packs straight from strides.
        let mut b = GraphBuilder::new("g");
        let q = b.input(&[1, 4, 6, 8]); // [B,T,H,hd] pre-permute
        let k = b.input(&[6, 8, 4]); // side operand for bmm
        let p = b
            .push(
                OpKind::Permute {
                    perm: vec![0, 2, 1, 3],
                },
                &[q],
                "p",
            )
            .unwrap();
        let c = b.push(OpKind::Contiguous, &[p], "c").unwrap();
        let r = b
            .push(
                OpKind::Reshape {
                    shape: vec![6, 4, 8],
                },
                &[c],
                "r",
            )
            .unwrap();
        b.push(OpKind::Bmm, &[r, k], "scores").unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O1, true);
        assert_eq!(
            report.contiguous_elided, 1,
            "size-1 batch merge is stride-compatible"
        );
        og.validate().unwrap();
    }

    #[test]
    fn output_contiguous_is_preserved() {
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[2, 3]);
        let t = b
            .push(OpKind::Transpose { d0: 0, d1: 1 }, &[x], "t")
            .unwrap();
        b.push(OpKind::Contiguous, &[t], "c").unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O1, true);
        assert_eq!(report.contiguous_elided, 0);
        assert_eq!(og.len(), 3);
    }

    #[test]
    fn dense_input_contiguous_is_always_elided() {
        // relu output is dense, so the copy is a no-op regardless of the
        // consumer's capability.
        let mut b = GraphBuilder::new("g");
        let x = b.input(&[1, 3, 4, 4]);
        let a = b.push(OpKind::Relu, &[x], "act").unwrap();
        let c = b.push(OpKind::Contiguous, &[a], "c").unwrap();
        b.push(OpKind::InterpolateBilinear { oh: 8, ow: 8 }, &[c], "up")
            .unwrap();
        let (og, report) = optimize_with(&b.finish(), OptLevel::O1, true);
        assert_eq!(report.contiguous_elided, 1);
        assert_eq!(report.elision_bytes_saved, 0, "no copy was happening");
        assert!(!og.iter().any(|n| matches!(n.op, OpKind::Contiguous)));
    }

    #[test]
    fn report_serializes() {
        let r = OptReport {
            nodes_before: 10,
            nodes_after: 7,
            conv_bn_act: 1,
            ..OptReport::default()
        };
        let s = serde_json::to_string(&r).unwrap();
        assert!(s.contains("\"nodes_before\":10"), "got {s}");
    }
}
