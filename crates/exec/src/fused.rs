//! Execution of [`OpKind::Fused`] composite nodes, and the one path every
//! unary f32 map takes.
//!
//! Two strategies, chosen by [`FusedKind`]:
//!
//! * **Conv+BN folding** ([`FusedKind::ConvBnAct`]): the batch-norm's
//!   scale/shift is folded into the convolution's weights and bias — once,
//!   when the [`crate::ParamStore`] first draws the node's parameters —
//!   so the single conv kernel runs on the folded set, then any activation
//!   epilogue is applied in one pass. Folding reorders floating-point
//!   arithmetic, so outputs match the unfused graph within a tolerance,
//!   not bitwise.
//! * **Stage pipeline** (everything else): stages execute in order, with
//!   consecutive unary pointwise stages collapsed into one pass and every
//!   other stage dispatched through the interpreter's regular
//!   [`execute_op`] under a synthetic node carrying the stage's original
//!   seed id. Per-stage arithmetic is therefore identical to the unfused
//!   kernels — outputs are bit-identical to `-O0`.
//!
//! Every such pass — a pipeline's pointwise run, the Conv+BN epilogue and
//! a standalone pointwise node alike — is [`map_run`] on the
//! chunk-parallel [`ngb_ops::parallel::unary`] kernel, which dispatches
//! `elements(numel)` wherever it runs, compiles each stage's own loop and
//! checks the run's arguments first, so a fused stage fails exactly as its
//! standalone node.

use std::borrow::Cow;

use ngb_graph::{FusedKind, FusedOp, FusedStage, Node, NodeId, OpKind};
use ngb_ops::fused::{map_run, Pointwise};
use ngb_tensor::{Tensor, TensorError};

use crate::interp::execute_op;
use crate::params::NodeParams;

type Result<T> = std::result::Result<T, TensorError>;

/// Executes one fused node given the gathered input tensors.
pub(crate) fn execute_fused(
    seed: u64,
    f: &FusedOp,
    args: &[Tensor],
    params: &NodeParams,
    quant: ngb_ops::Quant,
) -> Result<Tensor> {
    match f.kind {
        FusedKind::ConvBnAct => conv_bn_act(f, args, params.stage(0)),
        FusedKind::GemmEpilogue | FusedKind::ElementwiseChain | FusedKind::AttentionPrologue => {
            pipeline(seed, f, args, params, quant)
        }
    }
}

fn bad(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

fn take_arg(args: &[Tensor], i: usize) -> Result<&Tensor> {
    args.get(i)
        .ok_or_else(|| bad(format!("fused node is missing input {i}")))
}

/// `Conv2d → BatchNorm2d/FrozenBatchNorm2d [→ pointwise...]` as a single
/// convolution on the folded `[weight, bias]` set.
fn conv_bn_act(f: &FusedOp, args: &[Tensor], folded: &[Tensor]) -> Result<Tensor> {
    let [conv_stage, bn_stage, rest @ ..] = f.stages.as_slice() else {
        return Err(bad("conv_bn_act requires at least conv + bn stages"));
    };
    let OpKind::Conv2d {
        stride,
        padding,
        groups,
        ..
    } = &conv_stage.op
    else {
        return Err(bad("conv_bn_act stage 0 must be Conv2d"));
    };
    if !matches!(
        bn_stage.op,
        OpKind::BatchNorm2d { .. } | OpKind::FrozenBatchNorm2d { .. }
    ) {
        return Err(bad("conv_bn_act stage 1 must be a 2-d batch norm"));
    }
    let [w, folded_bias] = folded else {
        return Err(bad("conv_bn_act was not given its folded parameters"));
    };
    let out = ngb_ops::gemm::conv2d(
        take_arg(args, 0)?,
        w,
        Some(folded_bias),
        *stride,
        *padding,
        *groups,
    )?;

    let chain: Vec<Pointwise> = rest
        .iter()
        .map(|s| {
            s.op.pointwise().ok_or_else(|| {
                bad(format!(
                    "conv_bn_act epilogue '{}' is not pointwise",
                    s.op.name()
                ))
            })
        })
        .collect::<Result<_>>()?;
    map_run(&chain, out)
}

fn synthetic_node(stage: &FusedStage) -> Node {
    Node {
        id: NodeId(stage.seed_id),
        op: stage.op.clone(),
        inputs: Vec::new(),
        out_shape: Vec::new(),
        name: String::new(),
        seed_hint: None,
    }
}

/// Generic stage pipeline: pointwise runs collapse into one [`map_run`]
/// dispatch each; every other stage runs through the shared kernel dispatch.
fn pipeline(
    seed: u64,
    f: &FusedOp,
    args: &[Tensor],
    params: &NodeParams,
    quant: ngb_ops::Quant,
) -> Result<Tensor> {
    let mut cursor = 0usize;
    let mut chain: Option<Cow<Tensor>> = None;
    let mut pending: Vec<Pointwise> = Vec::new();
    for (k, stage) in f.stages.iter().enumerate() {
        match (chain.is_some(), stage.op.pointwise(), stage.extra_inputs) {
            (true, Some(p), 0) => pending.push(p),
            (false, Some(p), 1) => {
                chain = Some(Cow::Borrowed(take_arg(args, cursor)?));
                cursor += 1;
                pending.push(p);
            }
            _ => {
                let mut stage_args: Vec<Tensor> = Vec::with_capacity(stage.extra_inputs + 1);
                if let Some(t) = chain.take() {
                    stage_args.push(map_run(&std::mem::take(&mut pending), t)?);
                }
                for k in 0..stage.extra_inputs {
                    stage_args.push(take_arg(args, cursor + k)?.clone());
                }
                cursor += stage.extra_inputs;
                let synth = synthetic_node(stage);
                let p = params.stage(k);
                let out = execute_op(seed, &synth, &stage_args, None, p, quant)?;
                chain = Some(Cow::Owned(out));
            }
        }
    }
    let t = chain.ok_or_else(|| bad("fused node has no stages"))?;
    map_run(&pending, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;
    use ngb_graph::{GraphBuilder, OpKind};
    use ngb_tensor::{bit_equal, Tolerance};

    fn stage(op: OpKind, seed_id: usize, extra_inputs: usize) -> FusedStage {
        FusedStage {
            op,
            seed_id,
            extra_inputs,
        }
    }

    /// Hand-builds `linear -> gelu` unfused and as one fused node, checking
    /// bit-identical outputs (same seed ids -> same weights).
    #[test]
    fn fused_gemm_epilogue_is_bit_identical() {
        let mut b = GraphBuilder::new("unfused");
        let x = b.input(&[3, 8]);
        let h = b
            .push(
                OpKind::Linear {
                    in_f: 8,
                    out_f: 16,
                    bias: true,
                },
                &[x],
                "fc",
            )
            .unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let unfused = b.finish();

        let mut b = GraphBuilder::new("fused");
        let x = b.input(&[3, 8]);
        b.push(
            OpKind::Fused(ngb_graph::FusedOp {
                kind: FusedKind::GemmEpilogue,
                stages: vec![
                    stage(
                        OpKind::Linear {
                            in_f: 8,
                            out_f: 16,
                            bias: true,
                        },
                        1,
                        1,
                    ),
                    stage(OpKind::Gelu, 2, 0),
                ],
            }),
            &[x],
            "fc_act",
        )
        .unwrap();
        let fused = b.finish();

        let a = Interpreter::default().run(&unfused).unwrap();
        let f = Interpreter::default().run(&fused).unwrap();
        assert!(bit_equal(&a.outputs[0].1, &f.outputs[0].1).unwrap());
    }

    /// `conv -> bn -> relu` folded: equal within the documented tolerance.
    #[test]
    fn fused_conv_bn_relu_matches_within_tolerance() {
        let conv = OpKind::Conv2d {
            in_c: 3,
            out_c: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            bias: true,
        };
        let mut b = GraphBuilder::new("unfused");
        let x = b.input(&[2, 3, 8, 8]);
        let c = b.push(conv.clone(), &[x], "conv").unwrap();
        let n = b.push(OpKind::BatchNorm2d { c: 8 }, &[c], "bn").unwrap();
        b.push(OpKind::Relu, &[n], "act").unwrap();
        let unfused = b.finish();

        let mut b = GraphBuilder::new("fused");
        let x = b.input(&[2, 3, 8, 8]);
        b.push(
            OpKind::Fused(ngb_graph::FusedOp {
                kind: FusedKind::ConvBnAct,
                stages: vec![
                    stage(conv, 1, 1),
                    stage(OpKind::BatchNorm2d { c: 8 }, 2, 0),
                    stage(OpKind::Relu, 3, 0),
                ],
            }),
            &[x],
            "conv_bn_act",
        )
        .unwrap();
        let fused = b.finish();

        let a = Interpreter::default().run(&unfused).unwrap();
        let f = Interpreter::default().run(&fused).unwrap();
        Tolerance::bn_folding()
            .check(&a.outputs[0].1, &f.outputs[0].1)
            .unwrap();
    }

    /// The attention prologue (`bmm -> scale -> mask-add -> softmax`) with a
    /// non-pointwise interior stage taking an extra input.
    #[test]
    fn fused_attention_prologue_is_bit_identical() {
        let mut b = GraphBuilder::new("unfused");
        let q = b.input(&[2, 4, 8]);
        let k = b.input(&[2, 8, 4]);
        let m = b.input(&[2, 4, 4]);
        let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
        let d = b.push(OpKind::DivScalar(2.828), &[s], "scale").unwrap();
        let a = b.push(OpKind::Add, &[d, m], "mask").unwrap();
        b.push(OpKind::Softmax { dim: 2 }, &[a], "probs").unwrap();
        let unfused = b.finish();

        let mut b = GraphBuilder::new("fused");
        let q = b.input(&[2, 4, 8]);
        let k = b.input(&[2, 8, 4]);
        let m = b.input(&[2, 4, 4]);
        b.push(
            OpKind::Fused(ngb_graph::FusedOp {
                kind: FusedKind::AttentionPrologue,
                stages: vec![
                    stage(OpKind::Bmm, 3, 2),
                    stage(OpKind::DivScalar(2.828), 4, 0),
                    stage(OpKind::Add, 5, 1),
                    stage(OpKind::Softmax { dim: 2 }, 6, 0),
                ],
            }),
            &[q, k, m],
            "attn",
        )
        .unwrap();
        let fused = b.finish();

        let a = Interpreter::default().run(&unfused).unwrap();
        let f = Interpreter::default().run(&fused).unwrap();
        assert!(bit_equal(&a.outputs[0].1, &f.outputs[0].1).unwrap());
    }

    #[test]
    fn fused_pointwise_runs_are_chunk_parallel() {
        // Linear(3072 -> 768) -> GELU on [64, 3072]: at O2 one GEMM
        // epilogue, whose GELU dispatches the element chunks its O0 node does
        let mut b = GraphBuilder::new("mlp");
        let x = b.input(&[64, 3072]);
        let linear = OpKind::Linear {
            in_f: 3072,
            out_f: 768,
            bias: true,
        };
        let h = b.push(linear, &[x], "fc").unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let unfused = b.finish();
        let (fused, _) = ngb_opt::optimize(&unfused, ngb_opt::OptLevel::O2);
        assert_eq!(fused.len(), 2, "the Linear and GELU fuse into one node");
        let [o0, o2] = [unfused, fused].map(|g| {
            let trace = Interpreter::default()
                .engine(crate::Engine::Parallel(2))
                .run(&g)
                .unwrap();
            let chunks: Vec<usize> = trace.timings.iter().map(|t| t.intra_chunks).collect();
            (trace.outputs[0].1.clone(), chunks)
        });
        let gelu = ngb_ops::parallel::elements(64 * 768).partition().len();
        assert!(gelu > 1);
        assert_eq!(o0.1[2], gelu);
        assert_eq!(o2.1[1], o0.1[1] + o0.1[2], "O0 {:?}, O2 {:?}", o0.1, o2.1);
        assert!(bit_equal(&o0.0, &o2.0).unwrap());
    }

    #[test]
    fn dividing_by_zero_fails_alike_at_every_opt_level() {
        let linear = OpKind::Linear {
            in_f: 8,
            out_f: 16,
            bias: true,
        };
        let mut b = GraphBuilder::new("linear");
        let x = b.input(&[3, 8]);
        let h = b.push(linear, &[x], "fc").unwrap();
        b.push(OpKind::DivScalar(0.0), &[h], "scale").unwrap();
        let gemm_epilogue = b.finish();

        let mut b = GraphBuilder::new("attn");
        let q = b.input(&[2, 4, 8]);
        let k = b.input(&[2, 8, 4]);
        let m = b.input(&[2, 4, 4]);
        let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
        let d = b.push(OpKind::DivScalar(0.0), &[s], "scale").unwrap();
        let a = b.push(OpKind::Add, &[d, m], "mask").unwrap();
        b.push(OpKind::Softmax { dim: 2 }, &[a], "probs").unwrap();
        let attention = b.finish();

        for (g, kind) in [
            (gemm_epilogue, FusedKind::GemmEpilogue),
            (attention, FusedKind::AttentionPrologue),
        ] {
            let (o2, _) = ngb_opt::optimize(&g, ngb_opt::OptLevel::O2);
            assert!(
                o2.iter()
                    .any(|n| matches!(&n.op, OpKind::Fused(f) if f.kind == kind)),
                "{kind:?}"
            );
            for graph in [&g, &o2] {
                let err = Interpreter::default().run(graph).unwrap_err();
                assert!(
                    matches!(&err, TensorError::InvalidArgument(m) if m.contains("div_scalar by zero")),
                    "{kind:?}: {err}"
                );
            }
        }
    }
}
