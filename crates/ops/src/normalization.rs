//! Normalization operators (paper Table 2 "Normalization" group).
//!
//! Besides the library kernels (LayerNorm, BatchNorm2d, GroupNorm) this
//! module implements the *custom* variants the paper singles out:
//! `FrozenBatchNorm2d` (detection models re-implement batch norm as a
//! scale-and-shift, bypassing the fused library kernel — §4.1.2) and
//! Llama's `RMSNorm`, whose eager-mode execution decomposes into several
//! kernels (§4.1.4).

use ngb_tensor::{LaneMap, Tensor, TensorError};

use crate::parallel;
use crate::{OpCost, Result, F32_BYTES};

/// `(planes, plane)` of an NCHW map: the `N·C` planes of `H·W` elements
/// the batch-norm kernels split their output into, one channel's
/// constants per plane.
pub fn batch_norm_planes(shape: &[usize]) -> (usize, usize) {
    match shape {
        [n, c, h, w] => (n * c, h * w),
        _ => (0, 0),
    }
}

/// Copies logical rows `first_row..` (each `w` long, `buf.len() / w` of
/// them) of a strided rank-4 view into `buf`, one lane of `map` — built
/// over the last dim — at a time.
fn gather_rows(xs: &[f32], map: &LaneMap, first_row: usize, w: usize, buf: &mut [f32]) {
    let step = map.step();
    for (r, row) in buf.chunks_exact_mut(w.max(1)).enumerate() {
        let base = map.lane_base(first_row + r, 0) as isize;
        for (t, v) in row.iter_mut().enumerate() {
            *v = xs[(base + t as isize * step) as usize];
        }
    }
}

/// Runs `body(channel, src, dst)` over every `H·W` plane of the NCHW map
/// `x`, chunk-parallel over [`batch_norm_planes`]: `src` is the plane in
/// logical order — borrowed when `x` is dense, gathered lane by lane into
/// a per-chunk scratch plane otherwise — and `dst` its window of `out`.
fn per_plane(x: &Tensor, out: &mut [f32], body: impl Fn(usize, &[f32], &mut [f32]) + Sync) {
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let (planes, plane) = batch_norm_planes(x.shape());
    if let Some(xs) = x.as_slice_f32() {
        parallel::par_rows_out(out, planes, plane, |first, win| {
            for (p, dst) in win.chunks_exact_mut(plane.max(1)).enumerate() {
                let i = first + p;
                body(i % c, &xs[i * plane..(i + 1) * plane], dst);
            }
        });
    } else {
        let xs = x.storage_f32().expect("f32 NCHW input");
        let map = LaneMap::new(x.shape(), x.strides(), x.storage_offset(), 3);
        parallel::par_rows_out(out, planes, plane, |first, win| {
            let mut buf = vec![0.0f32; plane];
            for (p, dst) in win.chunks_exact_mut(plane.max(1)).enumerate() {
                let i = first + p;
                gather_rows(xs, &map, i * h, w, &mut buf);
                body(i % c, &buf, dst);
            }
        });
    }
}

/// Layer normalization over the last dimension:
/// `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
///
/// `gamma`/`beta` have the size of the last dim.
///
/// # Errors
///
/// Fails when the affine parameter shapes do not match the last dim.
pub fn layer_norm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
    let d = *x.shape().last().ok_or_else(|| {
        TensorError::InvalidArgument("layer_norm input must have at least one dim".into())
    })?;
    if gamma.shape() != [d] || beta.shape() != [d] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d],
            actual: gamma.shape().to_vec(),
            op: "layer_norm",
        });
    }
    let rows = x.numel() / d;
    let gp = crate::param_f32(gamma);
    let bp = crate::param_f32(beta);
    let (gs, bs) = (&*gp, &*bp);
    let ln_row = |row: &[f32], orow: &mut [f32]| {
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for i in 0..d {
            orow[i] = (row[i] - mean) * inv * gs[i] + bs[i];
        }
    };
    let mut out = vec![0.0f32; rows * d];
    // row-parallel: each row's statistics and normalize stay serial
    // within the row, so chunking never changes the reduction order
    if let Some(xs) = x.as_slice_f32() {
        parallel::par_rows_out(&mut out, rows, d, |first_row, win| {
            for (r, orow) in win.chunks_exact_mut(d.max(1)).enumerate() {
                ln_row(&xs[(first_row + r) * d..(first_row + r + 1) * d], orow);
            }
        });
    } else {
        // strided-lane path: rows with unit innermost stride are borrowed
        // in place; anything else gathers one row at a time into a
        // per-chunk scratch buffer (never the whole tensor)
        let xs = x.storage_f32().expect("f32 layer_norm input");
        let map = LaneMap::new(x.shape(), x.strides(), x.storage_offset(), x.rank() - 1);
        let step = map.step();
        parallel::par_rows_out(&mut out, rows, d, |first_row, win| {
            let mut buf = vec![0.0f32; d];
            for (r, orow) in win.chunks_exact_mut(d.max(1)).enumerate() {
                let base = map.lane_base(first_row + r, 0) as isize;
                if step == 1 {
                    ln_row(&xs[base as usize..base as usize + d], orow);
                } else {
                    for (t, v) in buf.iter_mut().enumerate() {
                        *v = xs[(base + t as isize * step) as usize];
                    }
                    ln_row(&buf, orow);
                }
            }
        });
    }
    Tensor::from_vec(out, x.shape())
}

/// Cost of the fused [`layer_norm`] kernel on `shape`.
pub fn layer_norm_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    // eager CUDA layer norm runs a statistics pass and a normalize pass
    OpCost {
        flops: 8.0 * n as f64,
        bytes_read: 2.0 * n as f64 * F32_BYTES,
        bytes_written: n as f64 * F32_BYTES,
        kernels: 2,
        dynamic: false,
    }
}

/// Root-mean-square norm (Llama): `y = x / rms(x) * gamma` with
/// `rms(x) = sqrt(mean(x^2) + eps)` over the last dim — fused form.
///
/// # Errors
///
/// Fails when `gamma` does not match the last dim.
pub fn rms_norm(x: &Tensor, gamma: &Tensor, eps: f32) -> Result<Tensor> {
    let d = *x.shape().last().ok_or_else(|| {
        TensorError::InvalidArgument("rms_norm input must have at least one dim".into())
    })?;
    if gamma.shape() != [d] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d],
            actual: gamma.shape().to_vec(),
            op: "rms_norm",
        });
    }
    let rows = x.numel() / d;
    let gp = crate::param_f32(gamma);
    let gs = &*gp;
    let rms_row = |row: &[f32], orow: &mut [f32]| {
        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for i in 0..d {
            orow[i] = row[i] * inv * gs[i];
        }
    };
    let mut out = vec![0.0f32; rows * d];
    if let Some(xs) = x.as_slice_f32() {
        parallel::par_rows_out(&mut out, rows, d, |first_row, win| {
            for (r, orow) in win.chunks_exact_mut(d.max(1)).enumerate() {
                rms_row(&xs[(first_row + r) * d..(first_row + r + 1) * d], orow);
            }
        });
    } else {
        let xs = x.storage_f32().expect("f32 rms_norm input");
        let map = LaneMap::new(x.shape(), x.strides(), x.storage_offset(), x.rank() - 1);
        let step = map.step();
        parallel::par_rows_out(&mut out, rows, d, |first_row, win| {
            let mut buf = vec![0.0f32; d];
            for (r, orow) in win.chunks_exact_mut(d.max(1)).enumerate() {
                let base = map.lane_base(first_row + r, 0) as isize;
                if step == 1 {
                    rms_row(&xs[base as usize..base as usize + d], orow);
                } else {
                    for (t, v) in buf.iter_mut().enumerate() {
                        *v = xs[(base + t as isize * step) as usize];
                    }
                    rms_row(&buf, orow);
                }
            }
        });
    }
    Tensor::from_vec(out, x.shape())
}

/// Cost of the fused [`rms_norm`] kernel on `shape`.
pub fn rms_norm_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    OpCost {
        flops: 5.0 * n as f64,
        bytes_read: 2.0 * n as f64 * F32_BYTES,
        bytes_written: n as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

/// `LlamaRMSNorm` as Hugging Face executes it in eager mode: `pow` →
/// `mean` → `add eps` → `rsqrt` → `mul` → `mul gamma`, six kernels with
/// intermediate materialization (the overhead §4.1.4 describes).
///
/// Numerically identical to [`rms_norm`].
///
/// # Errors
///
/// Fails when `gamma` does not match the last dim.
pub fn llama_rms_norm(x: &Tensor, gamma: &Tensor, eps: f32) -> Result<Tensor> {
    let sq = x.map(|v| v * v)?; // pow(2)
    let rank = x.rank();
    let ms = sq.reduce_dim(rank - 1, true, 0.0, |a, v| a + v)?; // mean (sum…
    let d = *x.shape().last().expect("checked nonempty");
    let ms = ms.map(|v| v / d as f32)?; // …/ n)
    let inv = ms.map(|v| 1.0 / (v + eps).sqrt())?; // add + rsqrt
    let normed = x.zip_map(&inv, |a, b| a * b)?; // mul (broadcast)
    normed.zip_map(gamma, |a, g| a * g) // mul gamma
}

/// Cost of the decomposed [`llama_rms_norm`] chain on `shape`.
pub fn llama_rms_norm_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    let rows = n / shape.last().copied().unwrap_or(1).max(1);
    OpCost::elementwise(n, 1.0) // pow
        + OpCost::reduction(n, rows, 1.0) // mean
        + OpCost::elementwise(rows, 2.0) // add eps + div n
        + OpCost::elementwise(rows, 2.0) // rsqrt
        + OpCost::elementwise_binary(n, 1.0) // mul inv
        + OpCost::elementwise_binary(n, 1.0) // mul gamma
}

/// Inference-mode 2-D batch norm on NCHW using running statistics:
/// `y = (x - mean_c) / sqrt(var_c + eps) * gamma_c + beta_c`.
///
/// # Errors
///
/// Fails when `x` is not rank 4 or per-channel parameters mismatch `C`.
pub fn batch_norm2d(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &Tensor,
    running_var: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "batch_norm2d requires NCHW input".into(),
        ));
    }
    let c = x.shape()[1];
    for (t, name) in [
        (gamma, "gamma"),
        (beta, "beta"),
        (running_mean, "mean"),
        (running_var, "var"),
    ] {
        if t.shape() != [c] {
            return Err(TensorError::InvalidArgument(format!(
                "batch_norm2d {name} must have shape [{c}], got {:?}",
                t.shape()
            )));
        }
    }
    let gp = crate::param_f32(gamma);
    let bp = crate::param_f32(beta);
    let mp = crate::param_f32(running_mean);
    let vp = crate::param_f32(running_var);
    let (gs, bs, ms, vs) = (&*gp, &*bp, &*mp, &*vp);
    // `sqrt(var + eps)` once per channel; per element the expression and
    // its order stay those of the broadcast chain (sub, div-sqrt, mul,
    // add), bit for bit
    let sd: Vec<f32> = vs.iter().map(|v| (v + eps).sqrt()).collect();
    let mut out = vec![0.0f32; x.numel()];
    per_plane(x, &mut out, |ch, src, dst| {
        let (m, s, g, b) = (ms[ch], sd[ch], gs[ch], bs[ch]);
        for (o, &a) in dst.iter_mut().zip(src) {
            *o = (a - m) / s * g + b;
        }
    });
    Tensor::from_vec(out, x.shape())
}

/// Cost of a fused inference [`batch_norm2d`] kernel on `shape`.
pub fn batch_norm2d_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 4.0)
}

/// `FrozenBatchNorm2d` — torchvision detection models' hand-rolled batch
/// norm (`(x * scale) + shift` with precomputed per-channel constants).
/// In eager mode this executes as separate `mul` and `add` broadcasts
/// rather than one fused norm kernel — the custom-implementation overhead
/// §4.1.2 identifies as the reason Normalization dominates detection
/// models on GPU.
///
/// # Errors
///
/// Fails when `x` is not rank 4 or parameters mismatch `C`.
pub fn frozen_batch_norm2d(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    running_mean: &Tensor,
    running_var: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "frozen_batch_norm2d requires NCHW input".into(),
        ));
    }
    // scale = gamma * rsqrt(var + eps); shift = beta - mean * scale
    let scale = gamma.zip_map(running_var, move |g, v| g / (v + eps).sqrt())?;
    let shift = beta.zip_map(&running_mean.zip_map(&scale, |m, s| m * s)?, |b, ms| b - ms)?;
    // zip_map outputs are freshly contiguous, so these are plain borrows
    let ss = scale.as_slice_f32().expect("scale is contiguous f32");
    let shs = shift.as_slice_f32().expect("shift is contiguous f32");
    let mut out = vec![0.0f32; x.numel()];
    // the scale-then-shift broadcasts collapse into one plane-parallel
    // pass; per element this is exactly `x * s` then `+ shift`
    per_plane(x, &mut out, |ch, src, dst| {
        let (sc, sh) = (ss[ch], shs[ch]);
        for (o, &a) in dst.iter_mut().zip(src) {
            *o = a * sc + sh;
        }
    });
    Tensor::from_vec(out, x.shape())
}

/// Cost of the decomposed [`frozen_batch_norm2d`]: four kernels (scale
/// prep ×2 on `C` elements, then `mul` + `add` broadcasts over the map).
pub fn frozen_batch_norm2d_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    let c = if shape.len() >= 2 { shape[1] } else { 1 };
    // eager torchvision: rsqrt, two per-channel prep kernels, then the
    // broadcast mul and add each re-touch the whole map
    OpCost::elementwise(c, 3.0)
        + OpCost::elementwise(c, 2.0)
        + OpCost::elementwise(c, 2.0)
        + OpCost::elementwise_binary(n, 1.0)
        + OpCost::elementwise_binary(n, 1.0)
}

/// Group normalization on NCHW with `groups` channel groups.
///
/// # Errors
///
/// Fails when `C % groups != 0`, parameters mismatch `C`, or input is not
/// rank 4.
pub fn group_norm(
    x: &Tensor,
    groups: usize,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "group_norm requires NCHW input".into(),
        ));
    }
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    if groups == 0 || c % groups != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "group_norm: {groups} groups do not divide {c} channels"
        )));
    }
    if gamma.shape() != [c] || beta.shape() != [c] {
        return Err(TensorError::InvalidArgument(
            "group_norm affine params must have shape [C]".into(),
        ));
    }
    let cg = c / groups;
    let gp = crate::param_f32(gamma);
    let bp = crate::param_f32(beta);
    let (gs, bs) = (&*gp, &*bp);
    let mut out = vec![0.0f32; x.numel()];
    let plane = h * w;
    let (segments, seg_len) = group_norm_segments(x.shape(), groups);
    let gn_seg = |g: usize, seg: &[f32], oseg: &mut [f32]| {
        let mean: f32 = seg.iter().sum::<f32>() / seg_len as f32;
        let var: f32 = seg.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / seg_len as f32;
        let inv = 1.0 / (var + eps).sqrt();
        let planes = seg
            .chunks_exact(plane.max(1))
            .zip(oseg.chunks_exact_mut(plane.max(1)));
        for (cc, (src, dst)) in planes.enumerate() {
            let (gc, bc) = (gs[g * cg + cc], bs[g * cg + cc]);
            for (o, &a) in dst.iter_mut().zip(src) {
                *o = (a - mean) * inv * gc + bc;
            }
        }
    };
    // segment-parallel: one (batch, group) segment per work unit, its
    // statistics and normalize serial within the segment
    if let Some(xs) = x.as_slice_f32() {
        parallel::par_rows_out(&mut out, segments, seg_len, |first_seg, win| {
            for (s, oseg) in win.chunks_exact_mut(seg_len.max(1)).enumerate() {
                let seg_idx = first_seg + s;
                let start = seg_idx * seg_len;
                gn_seg(seg_idx % groups, &xs[start..start + seg_len], oseg);
            }
        });
    } else {
        // strided path: gather each segment (a row-major-contiguous run of
        // the logical NCHW order, `cg * h` rows of `w`) lane by lane into a
        // per-chunk scratch buffer, then run the identical stats/normalize
        // — bit-identical, and never materializes more than one segment
        // per worker
        let xs = x.storage_f32().expect("f32 group_norm input");
        let map = LaneMap::new(x.shape(), x.strides(), x.storage_offset(), 3);
        parallel::par_rows_out(&mut out, segments, seg_len, |first_seg, win| {
            let mut buf = vec![0.0f32; seg_len];
            for (s, oseg) in win.chunks_exact_mut(seg_len.max(1)).enumerate() {
                let seg_idx = first_seg + s;
                gather_rows(xs, &map, seg_idx * cg * h, w, &mut buf);
                gn_seg(seg_idx % groups, &buf, oseg);
            }
        });
    }
    Tensor::from_vec(out, x.shape())
}

/// `(segments, seg_len)` of an NCHW map under `groups` channel groups:
/// the `N·groups` segments of `C / groups · H·W` elements [`group_norm`]
/// splits its output into, each normalized serially.
pub fn group_norm_segments(shape: &[usize], groups: usize) -> (usize, usize) {
    match shape {
        [n, c, h, w] if groups > 0 => (n * groups, c / groups * h * w),
        _ => (0, 0),
    }
}

/// Cost of [`group_norm`] on `shape`.
pub fn group_norm_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    OpCost {
        flops: 8.0 * n as f64,
        bytes_read: 2.0 * n as f64 * F32_BYTES,
        bytes_written: n as f64 * F32_BYTES,
        kernels: 2,
        dynamic: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::test_runner::with_test_runner;
    use crate::parallel::GRAIN_ELEMS;
    use ngb_tensor::random::TensorRng;

    /// Storage offset of logical row-major element `i` of a strided view,
    /// via a [`LaneMap`] built over the **last** dim (`last` = its size):
    /// the per-element walk the kernels ran before they went plane by
    /// plane.
    fn elem_offset(map: &LaneMap, last: usize, i: usize) -> usize {
        (map.lane_base(i / last, 0) as isize + (i % last) as isize * map.step()) as usize
    }

    /// `x`'s values in logical order, one [`elem_offset`] per element.
    fn logical(x: &Tensor) -> Vec<f32> {
        let xs = x.storage_f32().unwrap();
        let last = x.shape()[3].max(1);
        let map = LaneMap::new(x.shape(), x.strides(), x.storage_offset(), 3);
        (0..x.numel())
            .map(|i| xs[elem_offset(&map, last, i)])
            .collect()
    }

    /// The per-element batch norm: channel recovered from the flat index,
    /// `sqrt(var + eps)` per element.
    fn batch_norm_per_element(x: &Tensor, p: [&Tensor; 4], eps: f32) -> Vec<f32> {
        let [gs, bs, ms, vs] = p.map(|t| t.to_vec_f32().unwrap());
        let (c, plane) = (x.shape()[1], x.shape()[2] * x.shape()[3]);
        let xs = logical(x);
        (0..xs.len())
            .map(|i| {
                let ch = (i / plane.max(1)) % c;
                (xs[i] - ms[ch]) / (vs[ch] + eps).sqrt() * gs[ch] + bs[ch]
            })
            .collect()
    }

    /// The per-element frozen batch norm, on the same scale and shift.
    fn frozen_per_element(x: &Tensor, p: [&Tensor; 4], eps: f32) -> Vec<f32> {
        let [g, b, m, v] = p;
        let scale = g.zip_map(v, move |g, v| g / (v + eps).sqrt()).unwrap();
        let shift = b
            .zip_map(&m.zip_map(&scale, |m, s| m * s).unwrap(), |b, ms| b - ms)
            .unwrap();
        let (ss, shs) = (scale.to_vec_f32().unwrap(), shift.to_vec_f32().unwrap());
        let (c, plane) = (x.shape()[1], x.shape()[2] * x.shape()[3]);
        let xs = logical(x);
        (0..xs.len())
            .map(|i| {
                let ch = (i / plane.max(1)) % c;
                xs[i] * ss[ch] + shs[ch]
            })
            .collect()
    }

    /// The per-element group norm: each segment gathered one
    /// [`elem_offset`] at a time, then the per-element normalize loop.
    fn group_norm_per_element(x: &Tensor, groups: usize, g: &Tensor, b: &Tensor) -> Vec<f32> {
        let (gs, bs) = (g.to_vec_f32().unwrap(), b.to_vec_f32().unwrap());
        let (c, plane) = (x.shape()[1], x.shape()[2] * x.shape()[3]);
        let cg = c / groups;
        let seg_len = cg * plane;
        let xs = logical(x);
        let mut out = vec![0.0f32; xs.len()];
        for (s, (seg, oseg)) in xs
            .chunks_exact(seg_len)
            .zip(out.chunks_exact_mut(seg_len))
            .enumerate()
        {
            let mean: f32 = seg.iter().sum::<f32>() / seg_len as f32;
            let var: f32 =
                seg.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / seg_len as f32;
            let inv = 1.0 / (var + 1e-5).sqrt();
            for cc in 0..cg {
                let ch = (s % groups) * cg + cc;
                for p in 0..plane {
                    let i = cc * plane + p;
                    oseg[i] = (seg[i] - mean) * inv * gs[ch] + bs[ch];
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `[2, 5, 97, 131]` dense, permuted from NHWC and sliced: several
    /// grains whose plane (12 707) does not divide `GRAIN_ELEMS`.
    fn multi_grain_maps(rng: &mut TensorRng) -> Vec<Tensor> {
        let maps = vec![
            rng.normal(&[2, 5, 97, 131]),
            rng.normal(&[2, 97, 131, 5]).permute(&[0, 3, 1, 2]).unwrap(),
            rng.normal(&[2, 7, 99, 140])
                .narrow(1, 1, 5)
                .unwrap()
                .narrow(2, 2, 97)
                .unwrap()
                .narrow(3, 4, 131)
                .unwrap(),
        ];
        for x in &maps {
            assert_eq!(x.shape(), [2, 5, 97, 131]);
            assert!(x.numel() > 3 * GRAIN_ELEMS && !GRAIN_ELEMS.is_multiple_of(97 * 131));
        }
        assert!(!maps[1].is_contiguous() && !maps[2].is_contiguous());
        maps
    }

    #[test]
    fn batch_norm_family_matches_the_per_element_loops_across_chunks() {
        let mut rng = TensorRng::seed(31);
        let g = rng.uniform(&[5], 0.5, 1.5);
        let b = rng.normal(&[5]);
        let m = rng.normal(&[5]);
        let v = rng.uniform(&[5], 0.5, 2.0);
        let (gg, gb) = (rng.uniform(&[5], 0.5, 1.5), rng.normal(&[5]));
        for x in multi_grain_maps(&mut rng) {
            let want_bn = bits(&batch_norm_per_element(&x, [&g, &b, &m, &v], 1e-5));
            let want_frozen = bits(&frozen_per_element(&x, [&g, &b, &m, &v], 1e-5));
            let want_gn = bits(&group_norm_per_element(&x, 5, &gg, &gb));
            let run = || {
                [
                    batch_norm2d(&x, &g, &b, &m, &v, 1e-5).unwrap(),
                    frozen_batch_norm2d(&x, &g, &b, &m, &v, 1e-5).unwrap(),
                    group_norm(&x, 5, &gg, &gb, 1e-5).unwrap(),
                ]
                .map(|t| bits(&t.to_vec_f32().unwrap()))
            };
            let serial = run();
            for got in [serial]
                .into_iter()
                .chain([1, 2, 8].map(|t| with_test_runner(t, run)))
            {
                let label = format!("strides {:?}", x.strides());
                assert!(got[0] == want_bn, "batch_norm2d, {label}");
                assert!(got[1] == want_frozen, "frozen_batch_norm2d, {label}");
                assert!(got[2] == want_gn, "group_norm, {label}");
            }
        }
    }

    #[test]
    fn plane_and_segment_splits_follow_the_shape() {
        assert_eq!(batch_norm_planes(&[2, 5, 97, 131]), (10, 97 * 131));
        assert_eq!(group_norm_segments(&[2, 6, 4, 4], 3), (6, 2 * 16));
        assert_eq!(batch_norm_planes(&[2, 5]), (0, 0));
    }

    fn mean_var(v: &[f32]) -> (f32, f32) {
        let mean = v.iter().sum::<f32>() / v.len() as f32;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / v.len() as f32;
        (mean, var)
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let x = TensorRng::seed(1).normal(&[4, 16]);
        let g = Tensor::ones(&[16]);
        let b = Tensor::zeros(&[16]);
        let y = layer_norm(&x, &g, &b, 1e-5).unwrap();
        for r in 0..4 {
            let row = y.select(0, r).unwrap().to_vec_f32().unwrap();
            let (m, v) = mean_var(&row);
            assert!(m.abs() < 1e-5, "row {r} mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "row {r} var {v}");
        }
    }

    #[test]
    fn layer_norm_affine() {
        let x = TensorRng::seed(2).normal(&[2, 8]);
        let g = Tensor::full(&[8], 2.0);
        let b = Tensor::full(&[8], 1.0);
        let y = layer_norm(&x, &g, &b, 1e-5).unwrap();
        let plain = layer_norm(&x, &Tensor::ones(&[8]), &Tensor::zeros(&[8]), 1e-5).unwrap();
        let expect = plain.map(|v| 2.0 * v + 1.0).unwrap();
        for (a, e) in y
            .to_vec_f32()
            .unwrap()
            .iter()
            .zip(expect.to_vec_f32().unwrap())
        {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn rms_norm_fused_vs_decomposed() {
        let x = TensorRng::seed(3).normal(&[2, 5, 32]);
        let g = TensorRng::seed(4).uniform(&[32], 0.5, 1.5);
        let fused = rms_norm(&x, &g, 1e-6).unwrap();
        let dec = llama_rms_norm(&x, &g, 1e-6).unwrap();
        for (a, b) in fused
            .to_vec_f32()
            .unwrap()
            .iter()
            .zip(dec.to_vec_f32().unwrap())
        {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn rms_norm_unit_rms() {
        let x = TensorRng::seed(5).normal(&[1, 64]);
        let y = rms_norm(&x, &Tensor::ones(&[64]), 0.0)
            .unwrap()
            .to_vec_f32()
            .unwrap();
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 64.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn llama_rms_norm_costs_six_kernels() {
        let fused = rms_norm_cost(&[1, 10, 4096]);
        let dec = llama_rms_norm_cost(&[1, 10, 4096]);
        assert_eq!(fused.kernels, 1);
        assert_eq!(dec.kernels, 6);
        assert!(dec.memory_bytes() > fused.memory_bytes());
    }

    #[test]
    fn batch_norm_matches_frozen_variant() {
        let mut rng = TensorRng::seed(6);
        let x = rng.normal(&[2, 3, 4, 4]);
        let g = rng.uniform(&[3], 0.5, 1.5);
        let b = rng.normal(&[3]);
        let m = rng.normal(&[3]);
        let v = rng.uniform(&[3], 0.5, 2.0);
        let bn = batch_norm2d(&x, &g, &b, &m, &v, 1e-5).unwrap();
        let fbn = frozen_batch_norm2d(&x, &g, &b, &m, &v, 1e-5).unwrap();
        for (a, c) in bn
            .to_vec_f32()
            .unwrap()
            .iter()
            .zip(fbn.to_vec_f32().unwrap())
        {
            assert!((a - c).abs() < 1e-4, "{a} vs {c}");
        }
    }

    #[test]
    fn frozen_bn_costs_more_kernels() {
        let shape = [1, 1024, 50, 68];
        assert_eq!(batch_norm2d_cost(&shape).kernels, 1);
        assert_eq!(frozen_batch_norm2d_cost(&shape).kernels, 5);
    }

    #[test]
    fn batch_norm_normalizes_with_true_stats() {
        // if running stats equal the data stats, output is ~N(0,1) per channel
        let x = TensorRng::seed(7).normal(&[8, 1, 16, 16]);
        let data = x.to_vec_f32().unwrap();
        let (m, v) = mean_var(&data);
        let y = batch_norm2d(
            &x,
            &Tensor::ones(&[1]),
            &Tensor::zeros(&[1]),
            &Tensor::full(&[1], m),
            &Tensor::full(&[1], v),
            0.0,
        )
        .unwrap();
        let (ym, yv) = mean_var(&y.to_vec_f32().unwrap());
        assert!(ym.abs() < 1e-5);
        assert!((yv - 1.0).abs() < 1e-3);
    }

    #[test]
    fn group_norm_per_group_stats() {
        let x = TensorRng::seed(8).normal(&[1, 4, 3, 3]);
        let y = group_norm(&x, 2, &Tensor::ones(&[4]), &Tensor::zeros(&[4]), 0.0).unwrap();
        let v = y.to_vec_f32().unwrap();
        // each group = 2 channels * 9 = 18 elements, should be ~N(0,1)
        let (m0, v0) = mean_var(&v[0..18]);
        assert!(m0.abs() < 1e-5);
        assert!((v0 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn validation_errors() {
        let x = Tensor::zeros(&[2, 4]);
        assert!(layer_norm(&x, &Tensor::ones(&[3]), &Tensor::zeros(&[4]), 1e-5).is_err());
        assert!(rms_norm(&x, &Tensor::ones(&[5]), 1e-5).is_err());
        let x4 = Tensor::zeros(&[1, 4, 2, 2]);
        assert!(group_norm(&x4, 3, &Tensor::ones(&[4]), &Tensor::zeros(&[4]), 1e-5).is_err());
        assert!(batch_norm2d(
            &Tensor::zeros(&[2, 4]),
            &Tensor::ones(&[4]),
            &Tensor::zeros(&[4]),
            &Tensor::zeros(&[4]),
            &Tensor::ones(&[4]),
            1e-5
        )
        .is_err());
    }
}
