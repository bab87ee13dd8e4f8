//! The analyzer's `fuse-attention` lint and the runtime's analytic
//! attention fusion both start from `ngb_graph::attention_prologue`; the
//! runtime then keeps only blocks its fused kernel models (a `Bmm` head, a
//! causal or no mask, a second `Bmm` after the softmax). These tests pin
//! that every registry model's attention blocks are of that kind, so the
//! lint sites and the fused heads coincide.

use ngb_analyze::{Analyzer, Lint};
use ngb_graph::{Graph, GraphBuilder, OpKind};
use ngb_models::{ModelId, Scale};
use ngb_runtime::{plan, plan_with_options, Flow, RuntimeOptions};

/// bmm -> scale -> mask -> softmax -> bmm, the chain `fuse_attention` rewrites.
fn attention_graph() -> Graph {
    let mut b = GraphBuilder::new("attn");
    let q = b.input(&[4, 16, 8]);
    let k = b.input(&[4, 8, 16]);
    let v = b.input(&[4, 16, 8]);
    let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
    let sc = b.push(OpKind::DivScalar(2.83), &[s], "scale").unwrap();
    let m = b.push(OpKind::CausalMask, &[sc], "mask").unwrap();
    let p = b.push(OpKind::Softmax { dim: 2 }, &[m], "softmax").unwrap();
    b.push(OpKind::Bmm, &[p, v], "context").unwrap();
    b.finish()
}

#[test]
fn attention_lint_fires_exactly_where_the_runtime_fuses() {
    let g = attention_graph();
    let report = Analyzer::new().analyze(&g);
    let lints = report.findings(Lint::FuseAttention);
    assert_eq!(lints.len(), 1, "one attention prologue expected");

    let base = plan(&g, Flow::Dynamo, true);
    let fused = plan_with_options(
        &g,
        Flow::Dynamo,
        true,
        RuntimeOptions {
            fuse_attention: true,
        },
    );
    let rewritten = fused.nodes.iter().filter(|n| n.fused_into_prev).count()
        - base.nodes.iter().filter(|n| n.fused_into_prev).count();
    assert!(
        rewritten > 0,
        "the runtime must also fuse the chain the lint flagged"
    );
}

#[test]
fn non_matching_chain_fires_neither() {
    let mut b = GraphBuilder::new("plain");
    let a = b.input(&[2, 4, 4]);
    let c = b.input(&[2, 4, 4]);
    let s = b.push(OpKind::Bmm, &[a, c], "mm").unwrap();
    b.push(OpKind::Relu, &[s], "act").unwrap();
    let g = b.finish();

    assert!(Analyzer::new()
        .analyze(&g)
        .findings(Lint::FuseAttention)
        .is_empty());
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

#[test]
fn gpt2_lint_count_matches_runtime_fusion_sites() {
    // every per-layer attention block should be seen by both systems, in
    // gpt2 and in every other registry model
    for &m in ModelId::all() {
        let g = m.build(1, Scale::Tiny).unwrap();
        let lint_sites = Analyzer::new()
            .analyze(&g)
            .findings(Lint::FuseAttention)
            .len();
        if m == ModelId::Gpt2 {
            assert!(lint_sites > 0);
        }

        let base = plan(&g, Flow::Eager, true);
        let fused = plan_with_options(
            &g,
            Flow::Eager,
            true,
            RuntimeOptions {
                fuse_attention: true,
            },
        );
        let heads = fused
            .nodes
            .iter()
            .zip(&base.nodes)
            .filter(|(f, b)| f.cost.kernels == 1 && f.cost.flops > b.cost.flops)
            .count();
        assert_eq!(
            lint_sites,
            heads,
            "{}: lint sites and fused attention heads must agree",
            m.spec().alias
        );
    }
}
