//! The fusion patterns every layer agrees on.
//!
//! `ngb-opt` rewrites these chains, `ngb-analyze` flags them as lints and
//! `ngb-runtime` prices them as one fused kernel. Each asks the matchers
//! here, so the three cannot disagree about what a chain is; each keeps
//! only what it does with a match (a rewrite, a message, a cost) and any
//! extra condition of its own.
//!
//! The matchers are total: an out-of-range id anywhere in the walk yields
//! `None`, never a panic, so a structurally broken graph simply matches
//! nothing.

use crate::{Graph, NodeId, OpKind};

impl Graph {
    /// How many input edges name each node (a node consuming another twice
    /// counts twice). Out-of-range input ids are skipped.
    pub fn consumer_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.len()];
        for n in self.iter() {
            for &i in &n.inputs {
                if let Some(c) = counts.get_mut(i.0) {
                    *c += 1;
                }
            }
        }
        counts
    }
}

/// One attention prologue `head → scale → [mask] → softmax`, found by
/// [`attention_prologue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionMatch {
    /// The `Matmul`/`Bmm` producing the scores.
    pub head: NodeId,
    /// The `DivScalar`/`MulScalar` scaling them.
    pub scale: NodeId,
    /// The `CausalMask`, or the `Add` whose `inputs[1]` is the mask tensor.
    pub mask: Option<NodeId>,
    /// The `Softmax` the chain ends at.
    pub softmax: NodeId,
}

impl AttentionMatch {
    /// The matched nodes in chain order: head, scale, [mask], softmax.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        [
            Some(self.head),
            Some(self.scale),
            self.mask,
            Some(self.softmax),
        ]
        .into_iter()
        .flatten()
    }
}

/// Matches `Matmul/Bmm → DivScalar/MulScalar → [CausalMask | Add] →
/// Softmax` backwards from `softmax`. The chain runs through `inputs[0]`
/// of every link, and every link before the softmax has exactly one
/// consumer according to `consumers` (from [`Graph::consumer_counts`]).
pub fn attention_prologue(
    g: &Graph,
    consumers: &[usize],
    softmax: NodeId,
) -> Option<AttentionMatch> {
    if !matches!(g.nodes.get(softmax.0)?.op, OpKind::Softmax { .. }) {
        return None;
    }
    let mut cur = sole_producer(g, consumers, softmax)?;
    let mut mask = None;
    if matches!(g.nodes[cur.0].op, OpKind::CausalMask | OpKind::Add) {
        mask = Some(cur);
        cur = sole_producer(g, consumers, cur)?;
    }
    if !matches!(
        g.nodes[cur.0].op,
        OpKind::DivScalar(_) | OpKind::MulScalar(_)
    ) {
        return None;
    }
    let scale = cur;
    let head = sole_producer(g, consumers, scale)?;
    matches!(g.nodes[head.0].op, OpKind::Matmul | OpKind::Bmm).then_some(AttentionMatch {
        head,
        scale,
        mask,
        softmax,
    })
}

/// Matches `Conv2d → BatchNorm2d/FrozenBatchNorm2d` at `bn`: the batch
/// norm's one input is a convolution it alone consumes. Returns the
/// convolution.
pub fn conv_bn(g: &Graph, consumers: &[usize], bn: NodeId) -> Option<NodeId> {
    let n = g.nodes.get(bn.0)?;
    if !matches!(
        n.op,
        OpKind::BatchNorm2d { .. } | OpKind::FrozenBatchNorm2d { .. }
    ) {
        return None;
    }
    let &[conv] = n.inputs.as_slice() else {
        return None;
    };
    let is_conv = matches!(g.nodes.get(conv.0)?.op, OpKind::Conv2d { .. });
    (is_conv && consumers.get(conv.0) == Some(&1)).then_some(conv)
}

/// The producer at `inputs[0]` of `id`, when it exists and `id` is its
/// only consumer.
fn sole_producer(g: &Graph, consumers: &[usize], id: NodeId) -> Option<NodeId> {
    let p = *g.nodes.get(id.0)?.inputs.first()?;
    (p.0 < g.len() && consumers.get(p.0) == Some(&1)).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// `q @ k → scale → [mask] → softmax` over `[4, 4]` scores, batched
    /// to `[2, 4, 4]` under a `Bmm` head; `mask` picks the mask link.
    /// Returns the graph and the softmax id.
    fn chain(head: OpKind, mask: Option<OpKind>) -> (Graph, NodeId) {
        let batch: &[usize] = if head == OpKind::Bmm { &[2] } else { &[] };
        let shape = |dims: [usize; 2]| [batch, &dims].concat();
        let mut b = GraphBuilder::new("attn");
        let q = b.input(&shape([4, 8]));
        let k = b.input(&shape([8, 4]));
        let m = b.input(&shape([4, 4]));
        let s = b.push(head, &[q, k], "scores").unwrap();
        let mut cur = b.push(OpKind::DivScalar(2.0), &[s], "scale").unwrap();
        match mask {
            Some(OpKind::Add) => cur = b.push(OpKind::Add, &[cur, m], "mask").unwrap(),
            Some(op) => cur = b.push(op, &[cur], "mask").unwrap(),
            None => {}
        }
        let dim = batch.len() + 1;
        let sm = b.push(OpKind::Softmax { dim }, &[cur], "probs").unwrap();
        (b.finish(), sm)
    }

    fn matched(g: &Graph, softmax: NodeId) -> Option<AttentionMatch> {
        attention_prologue(g, &g.consumer_counts(), softmax)
    }

    #[test]
    fn matches_each_accepted_chain() {
        let (g, sm) = chain(OpKind::Bmm, Some(OpKind::CausalMask));
        let want = AttentionMatch {
            head: NodeId(3),
            scale: NodeId(4),
            mask: Some(NodeId(5)),
            softmax: sm,
        };
        assert_eq!(matched(&g, sm), Some(want));

        // the Add's mask tensor rides at inputs[1]; the chain goes through inputs[0]
        let (g, sm) = chain(OpKind::Bmm, Some(OpKind::Add));
        assert_eq!(matched(&g, sm), Some(want));

        let (g, sm) = chain(OpKind::Bmm, None);
        let no_mask = AttentionMatch { mask: None, ..want };
        assert_eq!(
            matched(&g, sm),
            Some(AttentionMatch {
                softmax: sm,
                ..no_mask
            })
        );

        let (g, sm) = chain(OpKind::Matmul, None);
        assert_eq!(
            matched(&g, sm),
            Some(AttentionMatch {
                softmax: sm,
                ..no_mask
            })
        );
    }

    #[test]
    fn rejects_shared_links_other_inputs_and_bad_ids() {
        // the scale also feeds a second consumer
        let (mut g, sm) = chain(OpKind::Bmm, Some(OpKind::CausalMask));
        let mut extra = g.nodes[sm.0].clone();
        extra.id = NodeId(g.len());
        extra.inputs = vec![NodeId(4)];
        g.nodes.push(extra);
        assert_eq!(matched(&g, sm), None);

        // the scale reaches the Add through inputs[1], not inputs[0]
        let (mut g, sm) = chain(OpKind::Bmm, Some(OpKind::Add));
        g.nodes[5].inputs.swap(0, 1);
        assert_eq!(matched(&g, sm), None);

        // out-of-range anchor, and an out-of-range link mid-chain
        let (mut g, sm) = chain(OpKind::Bmm, None);
        assert_eq!(matched(&g, NodeId(99)), None);
        g.nodes[4].inputs[0] = NodeId(42);
        assert_eq!(matched(&g, sm), None);
        assert_eq!(g.consumer_counts()[3], 0, "dangling edges are not counted");
    }

    #[test]
    fn conv_bn_needs_a_sole_conv_input() {
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
        let mut g = b.finish();
        assert_eq!(conv_bn(&g, &g.consumer_counts(), n), Some(c));
        assert_eq!(conv_bn(&g, &g.consumer_counts(), c), None);
        g.nodes[n.0].inputs[0] = NodeId(7);
        assert_eq!(conv_bn(&g, &g.consumer_counts(), n), None);
    }
}
