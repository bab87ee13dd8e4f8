//! Index-producing reductions: argmax, top-k, and whole-tensor max/sum —
//! the output heads of classifiers and the proposal filters of detectors.

use ngb_tensor::{Tensor, TensorError};

use crate::{OpCost, Result, F32_BYTES};

/// Argmax along `dim` (indices as i64, dim removed). Ties go to the lowest
/// index, a lane with no value above `-inf` answers 0, and NaN never wins.
///
/// # Errors
///
/// Fails when `dim` is out of range or input is not f32.
pub fn argmax(x: &Tensor, dim: usize) -> Result<Tensor> {
    // (best value, its index, values seen so far = the next value's index)
    let lanes = x.fold_dim(dim, (f32::NEG_INFINITY, 0, 0), |(best, at, t), v| {
        if v > best {
            (v, t, t + 1)
        } else {
            (best, at, t + 1)
        }
    })?;
    let mut out_shape: Vec<usize> = x.shape().to_vec();
    out_shape.remove(dim);
    Tensor::from_i64(lanes.into_iter().map(|(_, at, _)| at).collect(), &out_shape)
}

/// Top-k along the **last** dimension, descending; returns
/// `(values, indices)` each shaped `[..., k]`.
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
        order.sort_by(|&a, &b| {
            row[b]
                .partial_cmp(&row[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
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
