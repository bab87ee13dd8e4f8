//! Execution of [`OpKind::Fused`] composite nodes.
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
//!   consecutive unary pointwise stages collapsed into one fused loop
//!   ([`ngb_ops::fused::map_chain`]) and every other stage dispatched
//!   through the interpreter's regular [`execute_op`] under a synthetic
//!   node carrying the stage's original seed id. Per-stage arithmetic is
//!   therefore identical to the unfused kernels — outputs are
//!   bit-identical to `-O0`.

use ngb_graph::{FusedKind, FusedOp, FusedStage, Node, NodeId, OpKind};
use ngb_ops::fused::{map_chain, Pointwise};
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
    if chain.is_empty() {
        Ok(out)
    } else {
        map_chain(out, &chain)
    }
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

/// Generic stage pipeline: pointwise runs collapse into single fused
/// loops; every other stage runs through the shared kernel dispatch.
fn pipeline(
    seed: u64,
    f: &FusedOp,
    args: &[Tensor],
    params: &NodeParams,
    quant: ngb_ops::Quant,
) -> Result<Tensor> {
    let mut cursor = 0usize;
    let mut chain: Option<Tensor> = None;
    let mut pending: Vec<Pointwise> = Vec::new();
    for (k, stage) in f.stages.iter().enumerate() {
        match (chain.is_some(), stage.op.pointwise(), stage.extra_inputs) {
            (true, Some(p), 0) => pending.push(p),
            (false, Some(p), 1) => {
                chain = Some(take_arg(args, cursor)?.clone());
                cursor += 1;
                pending.push(p);
            }
            _ => {
                if let Some(t) = chain.take() {
                    chain = Some(flush(t, &mut pending)?);
                }
                let mut stage_args: Vec<Tensor> = Vec::with_capacity(stage.extra_inputs + 1);
                if let Some(t) = chain.take() {
                    stage_args.push(t);
                }
                for k in 0..stage.extra_inputs {
                    stage_args.push(take_arg(args, cursor + k)?.clone());
                }
                cursor += stage.extra_inputs;
                let synth = synthetic_node(stage);
                let p = params.stage(k);
                chain = Some(execute_op(seed, &synth, &stage_args, None, p, quant)?);
            }
        }
    }
    let t = chain.ok_or_else(|| bad("fused node has no stages"))?;
    flush(t, &mut pending)
}

fn flush(t: Tensor, pending: &mut Vec<Pointwise>) -> Result<Tensor> {
    if pending.is_empty() {
        return Ok(t);
    }
    let out = map_chain(t, pending)?;
    pending.clear();
    Ok(out)
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
}
