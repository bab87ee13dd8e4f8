//! Static shape inference and cost dispatch for every [`OpKind`].

use ngb_ops::OpCost;
use ngb_tensor::{
    broadcast_shapes, contiguous_strides, expand_strides, num_elements, reshape_strides,
    resolve_reshape, TensorError,
};

use crate::graph::Graph;
use crate::op::{FusedOp, FusedStage, OpClass, OpKind};

type Result<T> = std::result::Result<T, TensorError>;

/// Walks a fused op's stages in order, re-inferring each stage's output
/// shape from the chained value plus its share of the fused node's inputs,
/// and calling `visit` with every (stage, stage inputs, stage output).
/// Returns the final stage's output shape — the fused node's shape.
///
/// This is how consumers recover the *primitive* operator instances a
/// fused node packs (the microbench extractor harvests stages through it,
/// so the operator registry is opt-level-independent).
///
/// # Errors
///
/// Returns a [`TensorError`] when the fused node's inputs don't cover its
/// stages' operand counts or a stage shape fails to re-infer.
pub fn walk_fused(
    f: &FusedOp,
    inputs: &[Vec<usize>],
    mut visit: impl FnMut(&FusedStage, &[Vec<usize>], &[usize]),
) -> Result<Vec<usize>> {
    let mut cursor = 0usize;
    let mut chain: Option<Vec<usize>> = None;
    for stage in &f.stages {
        let mut stage_inputs: Vec<Vec<usize>> = Vec::with_capacity(stage.extra_inputs + 1);
        if let Some(c) = chain.take() {
            stage_inputs.push(c);
        }
        let extra = inputs
            .get(cursor..cursor + stage.extra_inputs)
            .ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "fused node supplies {} inputs but its stages consume more",
                    inputs.len()
                ))
            })?;
        stage_inputs.extend(extra.iter().cloned());
        cursor += stage.extra_inputs;
        let out = infer_shape(&stage.op, &stage_inputs)?;
        visit(stage, &stage_inputs, &out);
        chain = Some(out);
    }
    if cursor != inputs.len() {
        return Err(TensorError::InvalidArgument(format!(
            "fused node has {} inputs but its stages consume {cursor}",
            inputs.len()
        )));
    }
    chain.ok_or_else(|| TensorError::InvalidArgument("fused node has no stages".into()))
}

/// Pro-rates a fused node's work across the GEMM / non-GEMM classes of its
/// constituent stages, weighted by each stage's analytic cost
/// (FLOPs + memory traffic). Fractions sum to 1. The profiler uses this to
/// keep Figure-6-style group breakdowns comparable between `-O0` and
/// `-O2` runs. Returns an empty vector when the stage shapes don't
/// re-infer (malformed fused node).
pub fn fused_attribution(f: &FusedOp, inputs: &[Vec<usize>]) -> Vec<(OpClass, f64)> {
    let mut weights: Vec<(OpClass, f64)> = Vec::new();
    let walked = walk_fused(f, inputs, |stage, s_in, s_out| {
        let c = op_cost(&stage.op, s_in, s_out);
        let w = (c.flops + c.memory_bytes()).max(1.0);
        let class = stage.op.class();
        match weights.iter_mut().find(|(cl, _)| *cl == class) {
            Some(e) => e.1 += w,
            None => weights.push((class, w)),
        }
    });
    if walked.is_err() {
        return Vec::new();
    }
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        return Vec::new();
    }
    for e in &mut weights {
        e.1 /= total;
    }
    weights
}

fn one(inputs: &[Vec<usize>], op: &'static str) -> Result<Vec<usize>> {
    inputs
        .first()
        .cloned()
        .ok_or_else(|| TensorError::InvalidArgument(format!("{op} requires at least one input")))
}

/// Infers the output shape of `op` given its input shapes.
///
/// # Errors
///
/// Returns a [`TensorError`] when the input shapes are incompatible with
/// the operator's attributes — the same conditions under which the real
/// kernel would fail.
pub fn infer_shape(op: &OpKind, inputs: &[Vec<usize>]) -> Result<Vec<usize>> {
    match op {
        OpKind::Input | OpKind::InputIds { .. } => one(inputs, "input"),

        OpKind::Linear { in_f, out_f, .. } | OpKind::Conv1dGpt2 { in_f, out_f } => {
            let mut s = one(inputs, "linear")?;
            match s.last() {
                Some(&d) if d == *in_f => {}
                _ => {
                    return Err(TensorError::ShapeMismatch {
                        expected: vec![*in_f],
                        actual: s.clone(),
                        op: "linear",
                    })
                }
            }
            *s.last_mut().expect("checked") = *out_f;
            Ok(s)
        }
        OpKind::Conv2d {
            in_c,
            out_c,
            kernel,
            stride,
            padding,
            ..
        } => {
            let s = one(inputs, "conv2d")?;
            if s.len() != 4 || s[1] != *in_c {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![0, *in_c, 0, 0],
                    actual: s,
                    op: "conv2d",
                });
            }
            let oh = ngb_ops::gemm::conv_out_dim(s[2], *kernel, *stride, *padding);
            let ow = ngb_ops::gemm::conv_out_dim(s[3], *kernel, *stride, *padding);
            Ok(vec![s[0], *out_c, oh, ow])
        }
        OpKind::Matmul => {
            let (a, b) = two(inputs, "matmul")?;
            if a.len() != 2 || b.len() != 2 || a[1] != b[0] {
                return Err(TensorError::ShapeMismatch {
                    expected: a,
                    actual: b,
                    op: "matmul",
                });
            }
            Ok(vec![a[0], b[1]])
        }
        OpKind::Bmm => {
            let (a, b) = two(inputs, "bmm")?;
            if a.len() != 3 || b.len() != 3 || a[0] != b[0] || a[2] != b[1] {
                return Err(TensorError::ShapeMismatch {
                    expected: a,
                    actual: b,
                    op: "bmm",
                });
            }
            Ok(vec![a[0], a[1], b[2]])
        }

        // unary element-wise: shape-preserving
        OpKind::Relu
        | OpKind::Relu6
        | OpKind::Gelu
        | OpKind::GeluTanh
        | OpKind::NewGelu
        | OpKind::Silu
        | OpKind::Sigmoid
        | OpKind::Hardswish
        | OpKind::Neg
        | OpKind::AddScalar(_)
        | OpKind::MulScalar(_)
        | OpKind::DivScalar(_)
        | OpKind::PowScalar(_)
        | OpKind::Sqrt
        | OpKind::Contiguous
        | OpKind::CausalMask
        | OpKind::BoxConvert => one(inputs, "elementwise"),

        OpKind::LayerNorm { dim } | OpKind::RmsNorm { dim } | OpKind::LlamaRmsNorm { dim } => {
            let s = one(inputs, "norm")?;
            if s.last() != Some(dim) {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![*dim],
                    actual: s,
                    op: "norm",
                });
            }
            Ok(s)
        }
        OpKind::BatchNorm2d { c } | OpKind::FrozenBatchNorm2d { c } => {
            let s = one(inputs, "batch_norm")?;
            if s.len() != 4 || s[1] != *c {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![0, *c, 0, 0],
                    actual: s,
                    op: "batch_norm",
                });
            }
            Ok(s)
        }
        OpKind::GroupNorm { groups, c } => {
            let s = one(inputs, "group_norm")?;
            if s.len() != 4 || s[1] != *c || c % groups != 0 {
                return Err(TensorError::ShapeMismatch {
                    expected: vec![0, *c, 0, 0],
                    actual: s,
                    op: "group_norm",
                });
            }
            Ok(s)
        }

        OpKind::Reshape { shape } | OpKind::View { shape } => {
            let s = one(inputs, "reshape")?;
            resolve_reshape(num_elements(&s), shape)
        }
        OpKind::Permute { perm } => {
            let s = one(inputs, "permute")?;
            if perm.len() != s.len() {
                return Err(TensorError::InvalidPermutation { perm: perm.clone() });
            }
            let mut seen = vec![false; s.len()];
            for &p in perm {
                if p >= s.len() || std::mem::replace(&mut seen[p], true) {
                    return Err(TensorError::InvalidPermutation { perm: perm.clone() });
                }
            }
            Ok(perm.iter().map(|&p| s[p]).collect())
        }
        OpKind::Transpose { d0, d1 } => {
            let mut s = one(inputs, "transpose")?;
            if *d0 >= s.len() || *d1 >= s.len() {
                return Err(TensorError::InvalidDim {
                    dim: (*d0).max(*d1),
                    rank: s.len(),
                });
            }
            s.swap(*d0, *d1);
            Ok(s)
        }
        OpKind::Expand { shape } => {
            let s = one(inputs, "expand")?;
            // validate via broadcast rules
            let b = broadcast_shapes(&s, shape)?;
            if &b != shape {
                return Err(TensorError::ShapeMismatch {
                    expected: shape.clone(),
                    actual: s,
                    op: "expand",
                });
            }
            Ok(shape.clone())
        }
        OpKind::Squeeze { dim } => {
            let mut s = one(inputs, "squeeze")?;
            if *dim >= s.len() || s[*dim] != 1 {
                return Err(TensorError::InvalidArgument(format!(
                    "cannot squeeze dim {dim} of {s:?}"
                )));
            }
            s.remove(*dim);
            Ok(s)
        }
        OpKind::Unsqueeze { dim } => {
            let mut s = one(inputs, "unsqueeze")?;
            if *dim > s.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: s.len(),
                });
            }
            s.insert(*dim, 1);
            Ok(s)
        }
        OpKind::Slice { dim, start, len } => {
            let mut s = one(inputs, "slice")?;
            if *dim >= s.len() || start + len > s[*dim] {
                return Err(TensorError::InvalidArgument(format!(
                    "slice {start}+{len} exceeds dim {dim} of {s:?}"
                )));
            }
            s[*dim] = *len;
            Ok(s)
        }
        OpKind::Roll { dim, .. } => {
            let s = one(inputs, "roll")?;
            if *dim >= s.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: s.len(),
                });
            }
            Ok(s)
        }
        OpKind::Cat { dim } => {
            let first = one(inputs, "cat")?;
            if *dim >= first.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: first.len(),
                });
            }
            let mut out = first.clone();
            out[*dim] = 0;
            for s in inputs {
                if s.len() != first.len()
                    || s.iter()
                        .enumerate()
                        .any(|(i, &d)| i != *dim && d != first[i])
                {
                    return Err(TensorError::ShapeMismatch {
                        expected: first,
                        actual: s.clone(),
                        op: "cat",
                    });
                }
                out[*dim] += s[*dim];
            }
            Ok(out)
        }

        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
            let (a, b) = two(inputs, "binary")?;
            broadcast_shapes(&a, &b)
        }
        OpKind::MeanDim { dim, keepdim } => {
            let mut s = one(inputs, "mean")?;
            if *dim >= s.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: s.len(),
                });
            }
            if *keepdim {
                s[*dim] = 1;
            } else {
                s.remove(*dim);
            }
            Ok(s)
        }

        OpKind::Softmax { dim } | OpKind::LogSoftmax { dim } => {
            let s = one(inputs, "softmax")?;
            if *dim >= s.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: s.len(),
                });
            }
            Ok(s)
        }

        OpKind::MaxPool2d {
            kernel,
            stride,
            padding,
        }
        | OpKind::AvgPool2d {
            kernel,
            stride,
            padding,
        } => {
            let s = one(inputs, "pool")?;
            if s.len() != 4 {
                return Err(TensorError::InvalidArgument("pool requires NCHW".into()));
            }
            let oh = ngb_ops::gemm::conv_out_dim(s[2], *kernel, *stride, *padding);
            let ow = ngb_ops::gemm::conv_out_dim(s[3], *kernel, *stride, *padding);
            Ok(vec![s[0], s[1], oh, ow])
        }
        OpKind::AdaptiveAvgPool2d { oh, ow } => {
            let s = one(inputs, "adaptive_pool")?;
            if s.len() != 4 {
                return Err(TensorError::InvalidArgument("pool requires NCHW".into()));
            }
            Ok(vec![s[0], s[1], *oh, *ow])
        }

        OpKind::Nms { nominal_keep, .. } => {
            let s = one(inputs, "nms")?;
            if s.len() != 2 || s[1] != 4 {
                return Err(TensorError::InvalidArgument(
                    "nms boxes must be [N, 4]".into(),
                ));
            }
            Ok(vec![(*nominal_keep).min(s[0])])
        }
        OpKind::RoiAlign { out, .. } => {
            let (f, r) = two(inputs, "roi_align")?;
            if f.len() != 3 || r.len() != 2 || r[1] != 4 {
                return Err(TensorError::InvalidArgument(
                    "roi_align requires [C,H,W] features and [R,4] rois".into(),
                ));
            }
            Ok(vec![r[0], f[0], *out, *out])
        }

        OpKind::InterpolateNearest { oh, ow } | OpKind::InterpolateBilinear { oh, ow } => {
            let s = one(inputs, "interpolate")?;
            if s.len() != 4 {
                return Err(TensorError::InvalidArgument(
                    "interpolate requires NCHW".into(),
                ));
            }
            Ok(vec![s[0], s[1], *oh, *ow])
        }

        OpKind::Embedding { dim, .. } => {
            let mut s = one(inputs, "embedding")?;
            s.push(*dim);
            Ok(s)
        }

        OpKind::AllReduce => {
            let first = one(inputs, "all_reduce")?;
            for s in inputs {
                if *s != first {
                    return Err(TensorError::ShapeMismatch {
                        expected: first,
                        actual: s.clone(),
                        op: "all_reduce",
                    });
                }
            }
            Ok(first)
        }
        OpKind::AllGather { dim } => {
            let first = one(inputs, "all_gather")?;
            if *dim >= first.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: first.len(),
                });
            }
            let mut out = first.clone();
            out[*dim] = 0;
            for s in inputs {
                if s.len() != first.len()
                    || s.iter()
                        .enumerate()
                        .any(|(i, &d)| i != *dim && d != first[i])
                {
                    return Err(TensorError::ShapeMismatch {
                        expected: first,
                        actual: s.clone(),
                        op: "all_gather",
                    });
                }
                out[*dim] += s[*dim];
            }
            Ok(out)
        }
        OpKind::Transfer => one(inputs, "transfer"),
        OpKind::LinearShard {
            in_f,
            out_f,
            part,
            parts,
            row_split,
            ..
        } => {
            let mut s = one(inputs, "linear_shard")?;
            let (_, len) =
                crate::op::shard_span(if *row_split { *in_f } else { *out_f }, *part, *parts);
            let (expect_in, give_out) = if *row_split {
                (len, *out_f)
            } else {
                (*in_f, len)
            };
            match s.last() {
                Some(&d) if d == expect_in => {}
                _ => {
                    return Err(TensorError::ShapeMismatch {
                        expected: vec![expect_in],
                        actual: s.clone(),
                        op: "linear_shard",
                    })
                }
            }
            *s.last_mut().expect("checked") = give_out;
            Ok(s)
        }

        OpKind::Argmax { dim } => {
            let mut s = one(inputs, "argmax")?;
            if *dim >= s.len() {
                return Err(TensorError::InvalidDim {
                    dim: *dim,
                    rank: s.len(),
                });
            }
            s.remove(*dim);
            Ok(s)
        }
        OpKind::TopK { k } => {
            let mut s = one(inputs, "topk")?;
            match s.last() {
                Some(&d) if *k <= d && *k > 0 => {}
                _ => return Err(TensorError::InvalidArgument("topk k out of range".into())),
            }
            *s.last_mut().expect("checked") = *k;
            Ok(s)
        }

        OpKind::Fused(f) => walk_fused(f, inputs, |_, _, _| {}),
    }
}

fn two(inputs: &[Vec<usize>], op: &'static str) -> Result<(Vec<usize>, Vec<usize>)> {
    if inputs.len() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "{op} requires exactly two inputs, got {}",
            inputs.len()
        )));
    }
    Ok((inputs[0].clone(), inputs[1].clone()))
}

/// Computes the device-independent [`OpCost`] of `op` on the given input
/// shapes and (already inferred) output shape.
pub fn op_cost(op: &OpKind, inputs: &[Vec<usize>], output: &[usize]) -> OpCost {
    let in0 = inputs.first().map(Vec::as_slice).unwrap_or(&[]);
    let n_out = num_elements(output);
    match op {
        OpKind::Input | OpKind::InputIds { .. } => OpCost::metadata(),

        OpKind::Linear { in_f, out_f, bias } => {
            let rows = num_elements(in0) / in_f.max(&1);
            ngb_ops::gemm::linear_cost(rows, *in_f, *out_f, *bias)
        }
        OpKind::Conv1dGpt2 { in_f, out_f } => {
            let rows = num_elements(in0) / in_f.max(&1);
            ngb_ops::gemm::linear_cost(rows, *in_f, *out_f, true)
        }
        OpKind::Conv2d {
            in_c,
            out_c,
            kernel,
            groups,
            ..
        } => {
            let (n, oh, ow) = (output[0], output[2], output[3]);
            ngb_ops::gemm::conv2d_cost(n, *in_c, *out_c, oh, ow, *kernel, *kernel, *groups)
        }
        OpKind::Matmul => {
            let (a, b) = (&inputs[0], &inputs[1]);
            ngb_ops::gemm::matmul_cost(a[0], a[1], b[1])
        }
        OpKind::Bmm => {
            let (a, b) = (&inputs[0], &inputs[1]);
            ngb_ops::gemm::bmm_cost(a[0], a[1], a[2], b[2])
        }

        OpKind::Relu | OpKind::Relu6 => ngb_ops::activation::relu_cost(in0),
        OpKind::Gelu => ngb_ops::activation::gelu_cost(in0),
        OpKind::GeluTanh => ngb_ops::activation::gelu_tanh_cost(in0),
        OpKind::NewGelu => ngb_ops::activation::new_gelu_cost(in0),
        OpKind::Silu => ngb_ops::activation::silu_cost(in0),
        OpKind::Sigmoid => ngb_ops::activation::sigmoid_cost(in0),
        OpKind::Hardswish => ngb_ops::activation::hardswish_cost(in0),

        OpKind::LayerNorm { .. } => ngb_ops::normalization::layer_norm_cost(in0),
        OpKind::RmsNorm { .. } => ngb_ops::normalization::rms_norm_cost(in0),
        OpKind::LlamaRmsNorm { .. } => ngb_ops::normalization::llama_rms_norm_cost(in0),
        OpKind::BatchNorm2d { .. } => ngb_ops::normalization::batch_norm2d_cost(in0),
        OpKind::FrozenBatchNorm2d { .. } => ngb_ops::normalization::frozen_batch_norm2d_cost(in0),
        OpKind::GroupNorm { .. } => ngb_ops::normalization::group_norm_cost(in0),

        // reshape may or may not copy; the conservative static assumption is
        // a view for Reshape/View and a copy for Contiguous.
        OpKind::Reshape { .. } | OpKind::View { .. } => ngb_ops::memory::metadata_cost(),
        OpKind::Permute { .. }
        | OpKind::Transpose { .. }
        | OpKind::Expand { .. }
        | OpKind::Squeeze { .. }
        | OpKind::Unsqueeze { .. }
        | OpKind::Slice { .. } => ngb_ops::memory::metadata_cost(),
        OpKind::Contiguous => ngb_ops::memory::contiguous_cost(in0),
        OpKind::Cat { .. } => ngb_ops::memory::cat_cost(n_out),
        OpKind::Roll { .. } => ngb_ops::memory::roll_cost(in0),

        OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
            ngb_ops::arithmetic::binary_cost(output)
        }
        OpKind::Neg
        | OpKind::AddScalar(_)
        | OpKind::MulScalar(_)
        | OpKind::DivScalar(_)
        | OpKind::PowScalar(_)
        | OpKind::Sqrt => ngb_ops::arithmetic::unary_cost(in0),
        OpKind::MeanDim { dim, .. } => ngb_ops::arithmetic::reduce_cost(in0, *dim),
        OpKind::CausalMask => ngb_ops::arithmetic::unary_cost(in0),

        OpKind::Softmax { .. } => ngb_ops::logit::softmax_cost(in0),
        OpKind::LogSoftmax { .. } => ngb_ops::logit::log_softmax_cost(in0),

        OpKind::MaxPool2d { kernel, .. } | OpKind::AvgPool2d { kernel, .. } => {
            ngb_ops::pooling::pool_cost(in0, *kernel, n_out)
        }
        OpKind::AdaptiveAvgPool2d { .. } => ngb_ops::pooling::pool_cost(in0, 1, n_out),

        OpKind::Nms { .. } => ngb_ops::roi::nms_cost(in0.first().copied().unwrap_or(0)),
        OpKind::RoiAlign { out, .. } => {
            let r = inputs.get(1).and_then(|s| s.first()).copied().unwrap_or(0);
            let c = in0.first().copied().unwrap_or(0);
            ngb_ops::roi::roi_align_cost(r, c, *out)
        }
        OpKind::BoxConvert => ngb_ops::arithmetic::unary_cost(in0),

        OpKind::InterpolateNearest { .. } => {
            ngb_ops::interpolate::interpolate_cost(in0, n_out, false)
        }
        OpKind::InterpolateBilinear { .. } => {
            ngb_ops::interpolate::interpolate_cost(in0, n_out, true)
        }

        OpKind::Embedding { dim, .. } => {
            ngb_ops::embedding::embedding_cost(num_elements(in0), *dim)
        }

        // Collectives: accumulate/concatenate/copy every input element
        // once — pure memory-bound non-GEMM work, one kernel each.
        OpKind::AllReduce => OpCost {
            flops: (inputs.len().saturating_sub(1) * n_out) as f64,
            bytes_read: (inputs.len() * n_out * 4) as f64,
            bytes_written: (n_out * 4) as f64,
            kernels: 1,
            dynamic: false,
        },
        OpKind::AllGather { .. } | OpKind::Transfer => OpCost {
            flops: 0.0,
            bytes_read: (n_out * 4) as f64,
            bytes_written: (n_out * 4) as f64,
            kernels: 1,
            dynamic: false,
        },
        OpKind::LinearShard {
            in_f,
            out_f,
            bias,
            part,
            parts,
            row_split,
        } => {
            let (_, len) =
                crate::op::shard_span(if *row_split { *in_f } else { *out_f }, *part, *parts);
            let (k, n) = if *row_split {
                (len, *out_f)
            } else {
                (*in_f, len)
            };
            let rows = num_elements(in0) / k.max(1);
            ngb_ops::gemm::linear_cost(rows, k, n, *bias && (!*row_split || *part == 0))
        }

        OpKind::Argmax { dim } => ngb_ops::reduction::argmax_cost(in0, *dim),
        OpKind::TopK { k } => ngb_ops::reduction::topk_cost(in0, *k),

        OpKind::Fused(f) => {
            let mut stage_costs = Vec::with_capacity(f.stages.len());
            let mut interiors = Vec::with_capacity(f.stages.len());
            if walk_fused(f, inputs, |stage, s_in, s_out| {
                stage_costs.push(op_cost(&stage.op, s_in, s_out));
                interiors.push(num_elements(s_out));
            })
            .is_err()
            {
                return OpCost::metadata();
            }
            // The final stage's output is materialized; everything before it
            // stays in registers, saving one write and one read per element.
            interiors.pop();
            OpCost::fused(&stage_costs, &interiors)
        }
    }
}

/// Statically-propagated output strides per node: compute ops and copying
/// layout ops produce dense outputs; metadata ops transform their
/// producer's layout by the same rules the `ngb_tensor` view methods use
/// at runtime. A `Reshape`/`View` that cannot stay zero-copy falls back to
/// dense (that is exactly what `Tensor::reshape` materializes).
///
/// `ngb-opt`'s contiguous elision and `ngb-sanitize`'s partition check of
/// layout-dependent splits both read it.
pub fn static_strides(g: &Graph) -> Vec<Vec<isize>> {
    let mut out: Vec<Vec<isize>> = Vec::with_capacity(g.len());
    for n in g.iter() {
        let dense = || contiguous_strides(&n.out_shape);
        // the producer's shape and strides; a dangling or forward input
        // (the structural pass's finding) reads as a dense producer-less node
        let producer = n
            .inputs
            .first()
            .and_then(|pid| Some((&g.nodes.get(pid.0)?.out_shape, out.get(pid.0)?.clone())));
        let s = match (&n.op, producer) {
            (OpKind::Permute { perm }, Some((_, p))) if perm.len() == p.len() => {
                perm.iter().map(|&i| p[i]).collect()
            }
            (OpKind::Transpose { d0, d1 }, Some((_, mut p))) if *d0 < p.len() && *d1 < p.len() => {
                p.swap(*d0, *d1);
                p
            }
            (OpKind::Squeeze { dim }, Some((_, mut p))) if *dim < p.len() => {
                p.remove(*dim);
                p
            }
            (OpKind::Unsqueeze { dim }, Some((_, mut p))) => {
                p.insert((*dim).min(p.len()), 0);
                p
            }
            (OpKind::Slice { .. }, Some((_, p))) => p,
            (OpKind::Expand { .. }, Some((shape, p))) => {
                expand_strides(shape, &p, &n.out_shape).unwrap_or_else(dense)
            }
            (OpKind::Reshape { .. } | OpKind::View { .. }, Some((shape, p))) => {
                reshape_strides(shape, &p, &n.out_shape).unwrap_or_else(dense)
            }
            _ => dense(),
        };
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, NodeId};

    #[test]
    fn static_strides_follow_views_and_survive_dangling_inputs() {
        let mut b = GraphBuilder::new("views");
        let x = b.input(&[2, 3, 4]);
        let p = b
            .push(
                OpKind::Permute {
                    perm: vec![2, 0, 1],
                },
                &[x],
                "p",
            )
            .unwrap();
        b.push(OpKind::Contiguous, &[p], "c").unwrap();
        let mut g = b.finish();
        assert_eq!(
            static_strides(&g),
            vec![vec![12, 4, 1], vec![1, 12, 4], vec![6, 3, 1]]
        );
        // a self-reference or a dangling input is read as dense
        g.nodes[1].inputs = vec![NodeId(1)];
        g.nodes[2].inputs = vec![NodeId(99)];
        assert_eq!(static_strides(&g)[1], vec![6, 3, 1]);
    }

    #[test]
    fn linear_shape() {
        let op = OpKind::Linear {
            in_f: 8,
            out_f: 16,
            bias: true,
        };
        assert_eq!(infer_shape(&op, &[vec![2, 5, 8]]).unwrap(), vec![2, 5, 16]);
        assert!(infer_shape(&op, &[vec![2, 5, 9]]).is_err());
    }

    #[test]
    fn conv_shape() {
        let op = OpKind::Conv2d {
            in_c: 3,
            out_c: 64,
            kernel: 7,
            stride: 2,
            padding: 3,
            groups: 1,
            bias: false,
        };
        assert_eq!(
            infer_shape(&op, &[vec![1, 3, 224, 224]]).unwrap(),
            vec![1, 64, 112, 112]
        );
        assert!(infer_shape(&op, &[vec![1, 4, 224, 224]]).is_err());
    }

    #[test]
    fn matmul_bmm_shapes() {
        assert_eq!(
            infer_shape(&OpKind::Matmul, &[vec![2, 3], vec![3, 5]]).unwrap(),
            vec![2, 5]
        );
        assert!(infer_shape(&OpKind::Matmul, &[vec![2, 3], vec![4, 5]]).is_err());
        assert_eq!(
            infer_shape(&OpKind::Bmm, &[vec![4, 2, 3], vec![4, 3, 7]]).unwrap(),
            vec![4, 2, 7]
        );
    }

    #[test]
    fn memory_shapes() {
        assert_eq!(
            infer_shape(
                &OpKind::Reshape {
                    shape: vec![4, usize::MAX]
                },
                &[vec![2, 2, 3]]
            )
            .unwrap(),
            vec![4, 3]
        );
        assert_eq!(
            infer_shape(
                &OpKind::Permute {
                    perm: vec![2, 0, 1]
                },
                &[vec![2, 3, 4]]
            )
            .unwrap(),
            vec![4, 2, 3]
        );
        assert_eq!(
            infer_shape(&OpKind::Transpose { d0: 1, d1: 2 }, &[vec![2, 3, 4]]).unwrap(),
            vec![2, 4, 3]
        );
        assert_eq!(
            infer_shape(
                &OpKind::Slice {
                    dim: 1,
                    start: 2,
                    len: 3
                },
                &[vec![2, 8]]
            )
            .unwrap(),
            vec![2, 3]
        );
        assert_eq!(
            infer_shape(&OpKind::Cat { dim: 1 }, &[vec![2, 3], vec![2, 5]]).unwrap(),
            vec![2, 8]
        );
        assert_eq!(
            infer_shape(&OpKind::Expand { shape: vec![4, 3] }, &[vec![1, 3]]).unwrap(),
            vec![4, 3]
        );
        assert!(infer_shape(&OpKind::Expand { shape: vec![4, 2] }, &[vec![1, 3]]).is_err());
    }

    #[test]
    fn binary_broadcasts() {
        assert_eq!(
            infer_shape(&OpKind::Add, &[vec![2, 1, 4], vec![3, 1]]).unwrap(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn detection_shapes() {
        let nms = OpKind::Nms {
            iou_threshold: 0.5,
            nominal_keep: 100,
        };
        assert_eq!(infer_shape(&nms, &[vec![4663, 4]]).unwrap(), vec![100]);
        assert_eq!(infer_shape(&nms, &[vec![50, 4]]).unwrap(), vec![50]);
        let ra = OpKind::RoiAlign {
            out: 7,
            spatial_scale: 0.25,
        };
        assert_eq!(
            infer_shape(&ra, &[vec![256, 50, 68], vec![100, 4]]).unwrap(),
            vec![100, 256, 7, 7]
        );
    }

    #[test]
    fn nlp_shapes() {
        let e = OpKind::Embedding {
            vocab: 50257,
            dim: 768,
        };
        assert_eq!(infer_shape(&e, &[vec![1, 8]]).unwrap(), vec![1, 8, 768]);
        assert_eq!(
            infer_shape(&OpKind::TopK { k: 5 }, &[vec![1, 50257]]).unwrap(),
            vec![1, 5]
        );
        assert_eq!(
            infer_shape(&OpKind::Argmax { dim: 1 }, &[vec![8, 1000]]).unwrap(),
            vec![8]
        );
    }

    #[test]
    fn costs_dispatch() {
        let lin = OpKind::Linear {
            in_f: 768,
            out_f: 3072,
            bias: true,
        };
        let c = op_cost(&lin, &[vec![1, 8, 768]], &[1, 8, 3072]);
        assert!(c.flops > 2.0 * 8.0 * 768.0 * 3072.0 - 1.0);
        let view = OpKind::View {
            shape: vec![8, 768],
        };
        assert_eq!(op_cost(&view, &[vec![1, 8, 768]], &[8, 768]).kernels, 0);
        let ng = op_cost(&OpKind::NewGelu, &[vec![1, 8, 6400]], &[1, 8, 6400]);
        assert_eq!(ng.kernels, 8);
        let nms = OpKind::Nms {
            iou_threshold: 0.5,
            nominal_keep: 10,
        };
        assert!(op_cost(&nms, &[vec![1000, 4], vec![1000]], &[10]).dynamic);
    }
}
