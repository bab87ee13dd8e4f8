//! RoI selection operators (Table 2 "RoI Selection"): non-maximum
//! suppression, box IoU, and RoIAlign — the data-dependent ("dynamic")
//! operators of the R-CNN detection family (paper Figure 2 (a)).

use ngb_tensor::{Tensor, TensorError};

use crate::{OpCost, Result, F32_BYTES};

/// Intersection-over-Union for every box pair.
///
/// `a: [N, 4]`, `b: [M, 4]` in `(x1, y1, x2, y2)` corner format; returns
/// `[N, M]`.
///
/// # Errors
///
/// Fails when either input is not `[*, 4]` f32.
pub fn box_iou(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    for t in [a, b] {
        if t.rank() != 2 || t.shape()[1] != 4 {
            return Err(TensorError::InvalidArgument(
                "box_iou inputs must be [N, 4]".into(),
            ));
        }
    }
    let (n, m) = (a.shape()[0], b.shape()[0]);
    let av = a.to_vec_f32()?;
    let bv = b.to_vec_f32()?;
    let area = |v: &[f32]| ((v[2] - v[0]).max(0.0)) * ((v[3] - v[1]).max(0.0));
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let ba = &av[i * 4..i * 4 + 4];
        let aa = area(ba);
        for j in 0..m {
            let bb = &bv[j * 4..j * 4 + 4];
            let ab = area(bb);
            let ix1 = ba[0].max(bb[0]);
            let iy1 = ba[1].max(bb[1]);
            let ix2 = ba[2].min(bb[2]);
            let iy2 = ba[3].min(bb[3]);
            let inter = (ix2 - ix1).max(0.0) * (iy2 - iy1).max(0.0);
            let union = aa + ab - inter;
            out[i * m + j] = if union > 0.0 { inter / union } else { 0.0 };
        }
    }
    Tensor::from_vec(out, &[n, m])
}

/// Non-maximum suppression (the paper's flagship dynamic non-GEMM
/// operator, Figure 2 (a)).
///
/// `boxes: [N, 4]` corner format, `scores: [N]`. Returns the **indices of
/// kept boxes** (i64, descending score order, NaN scores last): greedy NMS
/// identical to `torchvision.ops.nms`.
///
/// # Errors
///
/// Fails when shapes disagree or inputs are not f32.
pub fn nms(boxes: &Tensor, scores: &Tensor, iou_threshold: f32) -> Result<Tensor> {
    if boxes.rank() != 2
        || boxes.shape()[1] != 4
        || scores.rank() != 1
        || boxes.shape()[0] != scores.shape()[0]
    {
        return Err(TensorError::InvalidArgument(
            "nms requires boxes [N, 4] and scores [N]".into(),
        ));
    }
    let n = boxes.shape()[0];
    let bv = boxes.to_vec_f32()?;
    let sv = scores.to_vec_f32()?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| crate::reduction::descending_nan_last(sv[a], sv[b]));
    let area = |i: usize| {
        let b = &bv[i * 4..i * 4 + 4];
        ((b[2] - b[0]).max(0.0)) * ((b[3] - b[1]).max(0.0))
    };
    let mut keep: Vec<i64> = Vec::new();
    let mut suppressed = vec![false; n];
    for (oi, &i) in order.iter().enumerate() {
        if suppressed[i] {
            continue;
        }
        keep.push(i as i64);
        let bi = &bv[i * 4..i * 4 + 4];
        let ai = area(i);
        for &j in &order[oi + 1..] {
            if suppressed[j] {
                continue;
            }
            let bj = &bv[j * 4..j * 4 + 4];
            let ix1 = bi[0].max(bj[0]);
            let iy1 = bi[1].max(bj[1]);
            let ix2 = bi[2].min(bj[2]);
            let iy2 = bi[3].min(bj[3]);
            let inter = (ix2 - ix1).max(0.0) * (iy2 - iy1).max(0.0);
            let union = ai + area(j) - inter;
            if union > 0.0 && inter / union > iou_threshold {
                suppressed[j] = true;
            }
        }
    }
    let k = keep.len();
    Tensor::from_i64(keep, &[k])
}

/// Cost of greedy NMS over `n` boxes: sort + worst-case pairwise IoU.
/// Marked `dynamic` — the output size depends on the data.
pub fn nms_cost(n: usize) -> OpCost {
    let nf = n as f64;
    OpCost {
        flops: nf * nf.max(1.0).log2() + 16.0 * nf * nf / 2.0,
        bytes_read: nf * 5.0 * F32_BYTES * nf.sqrt().max(1.0),
        bytes_written: nf * 8.0,
        kernels: 3, // sort + iou matrix + gather
        dynamic: true,
    }
}

/// RoIAlign: bilinear sampling of `features [C, H, W]` inside each RoI to a
/// fixed `out × out` grid, one sample per bin center (sampling_ratio = 1).
///
/// `rois: [R, 4]` in feature-map coordinates, `spatial_scale` maps box
/// coordinates onto the feature map. Returns `[R, C, out, out]`.
///
/// # Errors
///
/// Fails when shapes are not `[C, H, W]` and `[R, 4]`.
pub fn roi_align(
    features: &Tensor,
    rois: &Tensor,
    out: usize,
    spatial_scale: f32,
) -> Result<Tensor> {
    if features.rank() != 3 || rois.rank() != 2 || rois.shape()[1] != 4 || out == 0 {
        return Err(TensorError::InvalidArgument(
            "roi_align requires features [C, H, W] and rois [R, 4]".into(),
        ));
    }
    let (c, h, w) = (
        features.shape()[0],
        features.shape()[1],
        features.shape()[2],
    );
    let r = rois.shape()[0];
    // Walk the feature map's own strides (like the pooling kernels): the
    // scattered bilinear taps read permuted or sliced views in place.
    let fs = features.storage_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: features.dtype().name(),
        op: "roi_align",
    })?;
    let fbase = features.storage_offset() as isize;
    let (sc, sh, sw) = (
        features.strides()[0],
        features.strides()[1],
        features.strides()[2],
    );
    let rv = rois.to_vec_f32()?;
    let mut outv = vec![0.0f32; r * c * out * out];
    let bilinear = |ch: usize, y: f32, x: f32| -> f32 {
        let y = y.clamp(0.0, (h - 1) as f32);
        let x = x.clamp(0.0, (w - 1) as f32);
        let (y0, x0) = (y.floor() as usize, x.floor() as usize);
        let (y1, x1) = ((y0 + 1).min(h - 1), (x0 + 1).min(w - 1));
        let (dy, dx) = (y - y0 as f32, x - x0 as f32);
        let at = |yy: usize, xx: usize| {
            fs[(fbase + ch as isize * sc + yy as isize * sh + xx as isize * sw) as usize]
        };
        at(y0, x0) * (1.0 - dy) * (1.0 - dx)
            + at(y0, x1) * (1.0 - dy) * dx
            + at(y1, x0) * dy * (1.0 - dx)
            + at(y1, x1) * dy * dx
    };
    for ri in 0..r {
        let b = &rv[ri * 4..ri * 4 + 4];
        let (x1, y1, x2, y2) = (
            b[0] * spatial_scale,
            b[1] * spatial_scale,
            b[2] * spatial_scale,
            b[3] * spatial_scale,
        );
        let bw = (x2 - x1).max(1e-3) / out as f32;
        let bh = (y2 - y1).max(1e-3) / out as f32;
        for ch in 0..c {
            for oy in 0..out {
                for ox in 0..out {
                    let sy = y1 + (oy as f32 + 0.5) * bh;
                    let sx = x1 + (ox as f32 + 0.5) * bw;
                    outv[((ri * c + ch) * out + oy) * out + ox] = bilinear(ch, sy, sx);
                }
            }
        }
    }
    Tensor::from_vec(outv, &[r, c, out, out])
}

/// Cost of [`roi_align`] over `r` RoIs, `c` channels, `out × out` bins.
pub fn roi_align_cost(r: usize, c: usize, out: usize) -> OpCost {
    let samples = (r * c * out * out) as f64;
    OpCost {
        flops: 11.0 * samples,
        bytes_read: 4.0 * samples * F32_BYTES,
        bytes_written: samples * F32_BYTES,
        kernels: 1,
        dynamic: true, // R depends on upstream proposal filtering
    }
}

/// Converts `(cx, cy, w, h)` boxes to corner format `(x1, y1, x2, y2)`
/// (DETR's output head).
///
/// # Errors
///
/// Fails when input is not `[N, 4]` f32.
pub fn box_cxcywh_to_xyxy(boxes: &Tensor) -> Result<Tensor> {
    if boxes.rank() != 2 || boxes.shape()[1] != 4 {
        return Err(TensorError::InvalidArgument("expected boxes [N, 4]".into()));
    }
    let v = boxes.to_vec_f32()?;
    let mut out = vec![0.0f32; v.len()];
    for i in 0..boxes.shape()[0] {
        let (cx, cy, w, h) = (v[i * 4], v[i * 4 + 1], v[i * 4 + 2], v[i * 4 + 3]);
        out[i * 4] = cx - w / 2.0;
        out[i * 4 + 1] = cy - h / 2.0;
        out[i * 4 + 2] = cx + w / 2.0;
        out[i * 4 + 3] = cy + h / 2.0;
    }
    Tensor::from_vec(out, boxes.shape())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_tensor::random::TensorRng;

    fn boxes(v: &[[f32; 4]]) -> Tensor {
        Tensor::from_vec(v.iter().flatten().copied().collect(), &[v.len(), 4]).unwrap()
    }

    #[test]
    fn iou_identity_and_disjoint() {
        let a = boxes(&[[0.0, 0.0, 2.0, 2.0], [10.0, 10.0, 12.0, 12.0]]);
        let iou = box_iou(&a, &a).unwrap();
        assert!((iou.at(&[0, 0]).unwrap() - 1.0).abs() < 1e-6);
        assert_eq!(iou.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = boxes(&[[0.0, 0.0, 2.0, 2.0]]);
        let b = boxes(&[[1.0, 0.0, 3.0, 2.0]]);
        // intersection 2, union 6
        assert!((box_iou(&a, &b).unwrap().item().unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn nms_suppresses_overlapping_lower_scores() {
        let b = boxes(&[
            [0.0, 0.0, 10.0, 10.0],   // score .9 — kept
            [1.0, 1.0, 10.5, 10.5],   // heavy overlap with 0 — suppressed
            [20.0, 20.0, 30.0, 30.0], // disjoint — kept
        ]);
        let s = Tensor::from_vec(vec![0.9, 0.8, 0.7], &[3]).unwrap();
        let keep = nms(&b, &s, 0.5).unwrap();
        assert_eq!(keep.to_vec_i64().unwrap(), vec![0, 2]);
    }

    #[test]
    fn nms_keeps_all_below_threshold() {
        let b = boxes(&[
            [0.0, 0.0, 1.0, 1.0],
            [5.0, 5.0, 6.0, 6.0],
            [9.0, 9.0, 10.0, 10.0],
        ]);
        let s = Tensor::from_vec(vec![0.1, 0.9, 0.5], &[3]).unwrap();
        let keep = nms(&b, &s, 0.5).unwrap();
        // all disjoint: kept in descending score order
        assert_eq!(keep.to_vec_i64().unwrap(), vec![1, 2, 0]);
    }

    #[test]
    fn nms_kept_set_is_an_antichain() {
        let mut rng = TensorRng::seed(9);
        let xy = rng.uniform(&[50, 2], 0.0, 50.0);
        let wh = rng.uniform(&[50, 2], 5.0, 20.0);
        let mut v = Vec::with_capacity(200);
        for i in 0..50 {
            let (x, y) = (xy.at(&[i, 0]).unwrap(), xy.at(&[i, 1]).unwrap());
            let (w, h) = (wh.at(&[i, 0]).unwrap(), wh.at(&[i, 1]).unwrap());
            v.extend_from_slice(&[x, y, x + w, y + h]);
        }
        let b = Tensor::from_vec(v, &[50, 4]).unwrap();
        let s = rng.uniform(&[50], 0.0, 1.0);
        let keep = nms(&b, &s, 0.4).unwrap().to_vec_i64().unwrap();
        // no two kept boxes may exceed the IoU threshold
        let iou = box_iou(&b, &b).unwrap();
        for (ai, &i) in keep.iter().enumerate() {
            for &j in &keep[ai + 1..] {
                assert!(
                    iou.at(&[i as usize, j as usize]).unwrap() <= 0.4 + 1e-6,
                    "kept boxes {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn nms_visits_nan_scores_last_without_panicking() {
        // 64 disjoint boxes, NaN scores scattered through them: the old
        // comparator tripped sort_by's total-order check
        let v: Vec<f32> = (0..64)
            .flat_map(|i| {
                let x = 2.0 * i as f32;
                [x, 0.0, x + 1.0, 1.0]
            })
            .collect();
        let b = Tensor::from_vec(v, &[64, 4]).unwrap();
        let mut scores: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32).collect();
        for i in [0, 5, 9, 33, 63] {
            scores[i] = f32::NAN;
        }
        let keep = nms(&b, &Tensor::from_vec(scores.clone(), &[64]).unwrap(), 0.5)
            .unwrap()
            .to_vec_i64()
            .unwrap();
        assert_eq!(keep.len(), 64, "disjoint boxes all survive");
        let kept: Vec<f32> = keep.iter().map(|&i| scores[i as usize]).collect();
        assert!(kept[..59].windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(&keep[59..], &[0, 5, 9, 33, 63]);
    }

    #[test]
    fn nms_cost_is_dynamic() {
        assert!(nms_cost(4663).dynamic);
        assert!(nms_cost(100).flops < nms_cost(1000).flops);
    }

    #[test]
    fn roi_align_constant_field() {
        // constant feature map -> every aligned value equals the constant
        let f = Tensor::full(&[2, 8, 8], 3.5);
        let r = boxes(&[[0.0, 0.0, 4.0, 4.0], [2.0, 2.0, 7.0, 7.0]]);
        let y = roi_align(&f, &r, 3, 1.0).unwrap();
        assert_eq!(y.shape(), &[2, 2, 3, 3]);
        assert!(y
            .to_vec_f32()
            .unwrap()
            .iter()
            .all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn roi_align_interpolates_gradient() {
        // linear ramp in x: sampled value ~ x coordinate
        let mut f = Tensor::zeros(&[1, 4, 8]);
        for y in 0..4 {
            for x in 0..8 {
                f.set(&[0, y, x], x as f32).unwrap();
            }
        }
        let r = boxes(&[[0.0, 0.0, 8.0, 4.0]]);
        let y = roi_align(&f, &r, 4, 1.0).unwrap();
        // bin centers at x = 1, 3, 5, 7
        let row = y
            .select(0, 0)
            .unwrap()
            .select(0, 0)
            .unwrap()
            .select(0, 0)
            .unwrap();
        let vals = row.to_vec_f32().unwrap();
        assert!((vals[0] - 1.0).abs() < 0.1, "{vals:?}");
        assert!((vals[3] - 7.0).abs() < 0.3, "{vals:?}");
    }

    #[test]
    fn box_convert_roundtrip_center() {
        let cx = boxes(&[[5.0, 5.0, 4.0, 2.0]]);
        let xy = box_cxcywh_to_xyxy(&cx).unwrap();
        assert_eq!(xy.to_vec_f32().unwrap(), vec![3.0, 4.0, 7.0, 6.0]);
    }

    #[test]
    fn validation() {
        let b = Tensor::zeros(&[3, 3]);
        assert!(box_iou(&b, &b).is_err());
        assert!(nms(&b, &Tensor::zeros(&[3]), 0.5).is_err());
        assert!(roi_align(&Tensor::zeros(&[1, 2, 2]), &b, 2, 1.0).is_err());
        assert!(box_cxcywh_to_xyxy(&b).is_err());
    }
}
