//! Index-producing reductions: argmax, top-k, and whole-tensor max/sum —
//! the output heads of classifiers and the proposal filters of detectors.

use std::cmp::Ordering;

use ngb_tensor::{Tensor, TensorError};

use crate::{parallel, OpCost, Result, F32_BYTES};

/// Argmax along `dim` (indices as i64, dim removed). Ties go to the lowest
/// index, a lane with no value above `-inf` answers 0, and NaN never wins.
///
/// A dense input is split over its output positions ([`argmax_lanes`]).
/// A chunk keeps a running best value and index per position and sweeps
/// the lanes' values one contiguous row (fixed `t`, consecutive
/// positions) at a time, `t` ascending, with the strict `v > best` test of
/// the per-lane fold — so every position sees its values in the same order
/// and answers the same index. A strided input folds each lane through
/// [`Tensor::fold_dim`].
///
/// # Errors
///
/// Fails when `dim` is out of range or input is not f32.
pub fn argmax(x: &Tensor, dim: usize) -> Result<Tensor> {
    let (outer, d, inner) = x.lane_dims(dim)?;
    let mut out_shape: Vec<usize> = x.shape().to_vec();
    out_shape.remove(dim);
    let Some(xs) = x.as_slice_f32() else {
        // (best value, its index, values seen so far = the next value's index)
        let lanes = x.fold_dim(dim, (f32::NEG_INFINITY, 0, 0), |(best, at, t), v| {
            if v > best {
                (v, t, t + 1)
            } else {
                (best, at, t + 1)
            }
        })?;
        return Tensor::from_i64(lanes.into_iter().map(|(_, at, _)| at).collect(), &out_shape);
    };
    let mut out = vec![0i64; outer * inner];
    let (_, unit) = argmax_lanes(x.shape(), dim);
    parallel::par_units_out(&mut out, unit, |first, win| {
        if inner == 1 {
            // each lane is one contiguous run: scan it in place
            for (p, at) in win.iter_mut().enumerate() {
                let mut best = f32::NEG_INFINITY;
                for (t, &v) in xs[(first + p) * d..(first + p + 1) * d].iter().enumerate() {
                    if v > best {
                        best = v;
                        *at = t as i64;
                    }
                }
            }
            return;
        }
        let mut best = Vec::new();
        let mut done = 0;
        while done < win.len() {
            // positions `l0..l0 + len` of outer index `o`
            let (o, l0) = ((first + done) / inner, (first + done) % inner);
            let len = (inner - l0).min(win.len() - done);
            let at = &mut win[done..done + len];
            best.clear();
            best.resize(len, f32::NEG_INFINITY);
            for t in 0..d {
                let row = &xs[(o * d + t) * inner + l0..][..len];
                for ((b, a), &v) in best.iter_mut().zip(at.iter_mut()).zip(row) {
                    if v > *b {
                        *b = v;
                        *a = t as i64;
                    }
                }
            }
            done += len;
        }
    });
    Tensor::from_i64(out, &out_shape)
}

/// Grains of input one dense [`argmax`] chunk sweeps: its output is one
/// index per lane, so a one-grain chunk would stream rows only
/// `GRAIN_ELEMS / d` positions long.
const ARGMAX_GRAINS: usize = 16;

/// `(positions, unit)` of the split [`argmax`] dispatches on a dense input
/// of `shape` along `dim`: one output position per lane, the positions
/// split as [`parallel::par_rows`] splits rows of `unit` elements. A lane
/// of `d` values weighs `d / 16`, so a chunk sweeps rows of `16 ·
/// GRAIN_ELEMS / d` consecutive positions.
pub fn argmax_lanes(shape: &[usize], dim: usize) -> (usize, usize) {
    let positions = shape
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != dim)
        .map(|(_, &n)| n)
        .product();
    let d = shape.get(dim).copied().unwrap_or(0);
    (positions, d.div_ceil(ARGMAX_GRAINS))
}

/// Descending score order with NaN after every number: a total order, so
/// `sort_by` never sees an inconsistent comparison, and on NaN-free input
/// exactly `partial_cmp` reversed (±0 tie, a stable sort keeps index order).
pub(crate) fn descending_nan_last(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.partial_cmp(&a).expect("neither is NaN"),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Top-k along the **last** dimension, descending with NaN last and ties
/// in index order; returns `(values, indices)` each shaped `[..., k]`.
///
/// # Errors
///
/// Fails when `k` is zero or exceeds the last dim, or input is not f32.
pub fn topk(x: &Tensor, k: usize) -> Result<(Tensor, Tensor)> {
    let d = *x.shape().last().ok_or_else(|| {
        TensorError::InvalidArgument("topk input must have at least one dim".into())
    })?;
    if k == 0 || k > d {
        return Err(TensorError::InvalidArgument(format!(
            "topk k={k} invalid for last dim of {d}"
        )));
    }
    let rows = x.numel() / d;
    let v = x.to_vec_f32()?;
    let mut vals = Vec::with_capacity(rows * k);
    let mut ids = Vec::with_capacity(rows * k);
    for r in 0..rows {
        let row = &v[r * d..(r + 1) * d];
        let mut order: Vec<usize> = (0..d).collect();
        order.sort_by(|&a, &b| descending_nan_last(row[a], row[b]));
        for &i in order.iter().take(k) {
            vals.push(row[i]);
            ids.push(i as i64);
        }
    }
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("nonempty") = k;
    Ok((
        Tensor::from_vec(vals, &shape)?,
        Tensor::from_i64(ids, &shape)?,
    ))
}

/// Maximum element of the whole tensor.
///
/// # Errors
///
/// Fails on an empty or non-f32 tensor.
pub fn max_all(x: &Tensor) -> Result<f32> {
    let v = x.to_vec_f32()?;
    v.into_iter()
        .reduce(f32::max)
        .ok_or_else(|| TensorError::InvalidArgument("max of empty tensor".into()))
}

/// Sum of the whole tensor.
///
/// # Errors
///
/// Fails on a non-f32 tensor.
pub fn sum_all(x: &Tensor) -> Result<f32> {
    Ok(x.to_vec_f32()?.iter().sum())
}

/// Cost of [`argmax`] on `shape` along `dim`.
pub fn argmax_cost(shape: &[usize], dim: usize) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    let m = n / shape.get(dim).copied().unwrap_or(1).max(1);
    OpCost::reduction(n, m, 1.0)
}

/// Cost of [`topk`] on `shape` with parameter `k` (sort-based).
pub fn topk_cost(shape: &[usize], k: usize) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    let d = shape.last().copied().unwrap_or(1).max(1);
    let rows = n / d;
    OpCost {
        flops: rows as f64 * d as f64 * (d as f64).log2().max(1.0),
        bytes_read: n as f64 * F32_BYTES,
        bytes_written: (rows * k) as f64 * (F32_BYTES + 8.0),
        kernels: 2, // sort + gather
        dynamic: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::test_runner::with_test_runner;
    use crate::parallel::GRAIN_ELEMS;
    use ngb_tensor::random::TensorRng;

    /// The per-lane fold argmax ran on every input before the lane-parallel
    /// sweep: the oracle the new kernel is held to.
    fn argmax_fold(x: &Tensor, dim: usize) -> Vec<i64> {
        let lanes = x
            .fold_dim(dim, (f32::NEG_INFINITY, 0, 0), |(best, at, t), v| {
                if v > best {
                    (v, t, t + 1)
                } else {
                    (best, at, t + 1)
                }
            })
            .unwrap();
        lanes.into_iter().map(|(_, at, _)| at as i64).collect()
    }

    /// `[20, 40, 700]` (several chunks along every dim) of half-integers, so
    /// ties are common, with scattered NaN and `-inf`, whole NaN and
    /// `-inf` lanes along every dim.
    fn tricky(rng: &mut TensorRng) -> Tensor {
        let (a, b, c) = (20, 40, 700);
        let mut v: Vec<f32> = rng
            .normal(&[a, b, c])
            .to_vec_f32()
            .unwrap()
            .iter()
            .map(|x| (x * 2.0).round() / 2.0)
            .collect();
        for (i, x) in v.iter_mut().enumerate() {
            let (row, k) = (i / c, i % c);
            if row == 5 || (row != 3 && (k == 11 || i % 97 == 0)) {
                *x = f32::NAN;
            } else if row == 3 || k == 7 || i % 89 == 0 {
                *x = f32::NEG_INFINITY;
            }
        }
        // last-dim lanes 5 and 3 are all NaN and all `-inf`; the lanes
        // through last index 11 and 7 are NaN and `-inf` along dims 0 and 1
        assert!(v[5 * c..6 * c].iter().all(|x| x.is_nan()));
        assert!(v[3 * c..4 * c].iter().all(|&x| x == f32::NEG_INFINITY));
        Tensor::from_vec(v, &[a, b, c]).unwrap()
    }

    #[test]
    fn argmax_matches_the_lane_fold_across_chunks() {
        let x = tricky(&mut TensorRng::seed(17));
        // the same values dense in another order, and strided
        let inputs = [
            x.clone(),
            x.permute(&[2, 0, 1]).unwrap().contiguous(),
            x.permute(&[1, 2, 0]).unwrap(),
        ];
        for x in &inputs {
            for dim in 0..3 {
                let (positions, unit) = argmax_lanes(x.shape(), dim);
                assert_eq!(positions * x.shape()[dim], x.numel());
                assert!(crate::parallel::row_chunks(positions, unit) > 1);
                let want = argmax_fold(x, dim);
                let run = || argmax(x, dim).unwrap().to_vec_i64().unwrap();
                assert_eq!(run(), want, "serial, dim {dim}, strides {:?}", x.strides());
                for threads in [1, 2, 8] {
                    let got = with_test_runner(threads, run);
                    assert_eq!(got, want, "{threads} threads, dim {dim}");
                }
            }
        }
        assert!(inputs[0].numel() > 2 * GRAIN_ELEMS);
    }

    #[test]
    fn argmax_rows() {
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 9.0, 2.0, 4.0], &[2, 3]).unwrap();
        let a = argmax(&x, 1).unwrap();
        assert_eq!(a.to_vec_i64().unwrap(), vec![1, 0]);
        let a0 = argmax(&x, 0).unwrap();
        assert_eq!(a0.to_vec_i64().unwrap(), vec![1, 0, 1]);
        assert!(argmax(&x, 2).is_err());
    }

    /// `lanes` stored row by row, viewed transposed, so argmax over dim 0
    /// walks each stored row through a strided view.
    fn transposed(lanes: &[[f32; 4]]) -> Tensor {
        let data = lanes.iter().flatten().copied().collect();
        let x = Tensor::from_vec(data, &[lanes.len(), 4]).unwrap();
        let x = x.permute(&[1, 0]).unwrap();
        assert!(!x.is_contiguous());
        x
    }

    #[test]
    fn argmax_ties_go_to_the_lowest_index() {
        let x = transposed(&[[2.0, 5.0, 5.0, 1.0], [4.0, 4.0, 4.0, 4.0]]);
        assert_eq!(argmax(&x, 0).unwrap().to_vec_i64().unwrap(), vec![1, 0]);
    }

    #[test]
    fn argmax_of_an_all_neg_inf_lane_is_zero() {
        let inf = f32::NEG_INFINITY;
        let x = transposed(&[[inf; 4], [inf, inf, inf, 0.0]]);
        assert_eq!(argmax(&x, 0).unwrap().to_vec_i64().unwrap(), vec![0, 3]);
    }

    #[test]
    fn argmax_never_picks_nan() {
        let nan = f32::NAN;
        let x = transposed(&[[nan, 3.0, nan, 7.0], [1.0, nan, nan, nan], [nan; 4]]);
        assert_eq!(argmax(&x, 0).unwrap().to_vec_i64().unwrap(), vec![3, 0, 0]);
    }

    #[test]
    fn nan_scores_sort_last_without_panicking() {
        let nan = f32::NAN;
        // a row with NaNs scattered through it used to trip sort_by's
        // total-order check
        let mut row: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32).collect();
        for i in [0, 5, 9, 33, 63] {
            row[i] = nan;
        }
        let x = Tensor::from_vec(row.clone(), &[1, 64]).unwrap();
        let (v, i) = topk(&x, 64).unwrap();
        let (v, i) = (v.to_vec_f32().unwrap(), i.to_vec_i64().unwrap());
        assert!(v[..59].windows(2).all(|w| w[0] >= w[1]));
        assert!(v[59..].iter().all(|x| x.is_nan()));
        // NaNs keep index order, like every tie
        assert_eq!(&i[59..], &[0, 5, 9, 33, 63]);
        // ±0 tie too, in index order
        let z = Tensor::from_vec(vec![0.0, -0.0, 1.0, nan, 0.0], &[5]).unwrap();
        let (_, zi) = topk(&z, 5).unwrap();
        assert_eq!(zi.to_vec_i64().unwrap(), vec![2, 0, 1, 4, 3]);
        assert_eq!(descending_nan_last(nan, nan), std::cmp::Ordering::Equal);
    }

    #[test]
    fn topk_descending() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.7], &[1, 4]).unwrap();
        let (v, i) = topk(&x, 2).unwrap();
        assert_eq!(v.to_vec_f32().unwrap(), vec![0.9, 0.7]);
        assert_eq!(i.to_vec_i64().unwrap(), vec![1, 3]);
        assert!(topk(&x, 0).is_err());
        assert!(topk(&x, 5).is_err());
    }

    #[test]
    fn topk_batched() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0, 5.0, 4.0], &[2, 3]).unwrap();
        let (v, _) = topk(&x, 1).unwrap();
        assert_eq!(v.shape(), &[2, 1]);
        assert_eq!(v.to_vec_f32().unwrap(), vec![3.0, 6.0]);
    }

    #[test]
    fn global_reductions() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.5], &[3]).unwrap();
        assert_eq!(max_all(&x).unwrap(), 3.5);
        assert_eq!(sum_all(&x).unwrap(), 2.5);
    }

    #[test]
    fn costs() {
        let c = argmax_cost(&[8, 1000], 1);
        assert_eq!(c.bytes_written, 8.0 * 4.0);
        let t = topk_cost(&[8, 1000], 5);
        assert_eq!(t.kernels, 2);
    }
}
