//! Logit-computation operators (Table 2 "Logit Computation" group):
//! numerically-stable softmax and log-softmax over an arbitrary dimension.
//!
//! Both kernels are fused over reduction lanes (one max pass, one
//! exp-and-sum pass, one normalize pass per lane) and lane-parallel
//! across intra-op chunks. Every lane reduction folds in ascending
//! dim-index order — the same order [`Tensor::reduce_dim`] uses — so the
//! fused kernels are bit-identical to the decomposed
//! reduce/zip_map/map chain they replaced.

use ngb_tensor::{LaneReader, Tensor};

use crate::parallel::{self, Split};
use crate::{OpCost, Result, F32_BYTES};

/// Numerically stable softmax over dimension `dim`.
///
/// # Errors
///
/// Fails when `dim` is out of range or input is not f32.
///
/// # Examples
///
/// ```
/// use ngb_tensor::Tensor;
/// # fn main() -> Result<(), ngb_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3])?;
/// let p = ngb_ops::logit::softmax(&x, 1)?;
/// let s: f32 = p.to_vec_f32()?.iter().sum();
/// assert!((s - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn softmax(x: &Tensor, dim: usize) -> Result<Tensor> {
    fused_softmax(x, dim, false, "softmax")
}

/// The fused body of [`softmax`] (`log == false`) and [`log_softmax`]:
/// each `(outer, inner)` lane gets one max pass, one exp-and-sum pass and
/// one normalize pass, serially; chunk-parallel across the `outer` blocks
/// of [`softmax_blocks`], so chunk counts do not depend on the layout. A
/// chunk reads its lanes with one [`LaneReader`] call: borrowed when they
/// are a dense view's rows, gathered otherwise.
fn fused_softmax(x: &Tensor, dim: usize, log: bool, op: &'static str) -> Result<Tensor> {
    let (_, d, inner) = x.lane_dims(dim)?;
    let lanes = LaneReader::new(x, dim, op)?;
    let mut out = vec![0.0f32; x.numel()];
    let blk = d * inner;
    parallel::dispatch_out(softmax_blocks(x.shape(), dim), &mut out, blk, |r, win| {
        let mut scratch = Vec::new();
        let window = win.len() / blk.max(1) * inner;
        let src = lanes.lanes(r.start * inner, window, &mut scratch);
        for (o, oblk) in win.chunks_exact_mut(blk.max(1)).enumerate() {
            for l in 0..inner {
                let lane = &src[(o * inner + l) * d..][..d];
                let mut mx = f32::NEG_INFINITY;
                for &v in lane {
                    mx = mx.max(v);
                }
                let mut sum = 0.0f32;
                if log {
                    for (t, &v) in lane.iter().enumerate() {
                        let shifted = v - mx;
                        oblk[t * inner + l] = shifted;
                        sum += shifted.exp();
                    }
                    let log_sum = sum.ln();
                    for t in 0..d {
                        oblk[t * inner + l] -= log_sum;
                    }
                } else {
                    for (t, &v) in lane.iter().enumerate() {
                        let e = (v - mx).exp();
                        oblk[t * inner + l] = e;
                        sum += e;
                    }
                    for t in 0..d {
                        oblk[t * inner + l] /= sum;
                    }
                }
            }
        }
    });
    Tensor::from_vec(out, x.shape())
}

/// The split [`softmax`] and [`log_softmax`] dispatch on `shape` along
/// `dim`: one block per outer index, holding all `d · inner` elements of
/// its lanes.
pub fn softmax_blocks(shape: &[usize], dim: usize) -> Split {
    let (outer, lanes) = shape.split_at(dim.min(shape.len()));
    let [outer, lanes] = [outer, lanes].map(|dims| dims.iter().product());
    Split::rows("softmax-block", outer, lanes)
}

/// Numerically stable log-softmax over dimension `dim`.
///
/// # Errors
///
/// Fails when `dim` is out of range or input is not f32.
pub fn log_softmax(x: &Tensor, dim: usize) -> Result<Tensor> {
    fused_softmax(x, dim, true, "log_softmax")
}

/// Cost of a fused [`softmax`] kernel on `shape` (max pass, exp pass,
/// normalize pass).
pub fn softmax_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    OpCost {
        flops: 5.0 * n as f64,
        bytes_read: 3.0 * n as f64 * F32_BYTES,
        bytes_written: n as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

/// Cost of [`log_softmax`] on `shape`.
pub fn log_softmax_cost(shape: &[usize]) -> OpCost {
    let mut c = softmax_cost(shape);
    c.flops += ngb_tensor::num_elements(shape) as f64;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_tensor::random::TensorRng;

    /// The decomposed reduce/zip_map chain the fused [`softmax`] replaced:
    /// its oracle.
    fn softmax_chain(x: &Tensor, dim: usize) -> Result<Tensor> {
        let max = x.reduce_dim(dim, true, f32::NEG_INFINITY, f32::max)?;
        let shifted = x.zip_map(&max, |a, m| a - m)?;
        let exp = shifted.map(f32::exp)?;
        let sum = exp.reduce_dim(dim, true, 0.0, |a, v| a + v)?;
        exp.zip_map(&sum, |e, s| e / s)
    }

    /// The decomposed chain of [`log_softmax`]: its oracle.
    fn log_softmax_chain(x: &Tensor, dim: usize) -> Result<Tensor> {
        let max = x.reduce_dim(dim, true, f32::NEG_INFINITY, f32::max)?;
        let shifted = x.zip_map(&max, |a, m| a - m)?;
        let exp = shifted.map(f32::exp)?;
        let sum = exp.reduce_dim(dim, true, 0.0, |a, v| a + v)?;
        let log_sum = sum.map(f32::ln)?;
        shifted.zip_map(&log_sum, |a, l| a - l)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = TensorRng::seed(1).normal(&[4, 7]);
        let p = softmax(&x, 1).unwrap();
        for r in 0..4 {
            let row: f32 = p.select(0, r).unwrap().to_vec_f32().unwrap().iter().sum();
            assert!((row - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]).unwrap();
        let p = softmax(&x, 1).unwrap().to_vec_f32().unwrap();
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_over_middle_dim() {
        let x = TensorRng::seed(2).normal(&[2, 5, 3]);
        let p = softmax(&x, 1).unwrap();
        assert_eq!(p.shape(), x.shape());
        // sum over dim 1 must be 1 at every (b, k)
        let s = p.reduce_dim(1, false, 0.0, |a, v| a + v).unwrap();
        for v in s.to_vec_f32().unwrap() {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = TensorRng::seed(3).normal(&[3, 6]);
        let ls = log_softmax(&x, 1).unwrap().to_vec_f32().unwrap();
        let p = softmax(&x, 1).unwrap().to_vec_f32().unwrap();
        for (l, q) in ls.iter().zip(&p) {
            assert!((l.exp() - q).abs() < 1e-5);
        }
    }

    #[test]
    fn non_f32_input_is_a_dtype_error_naming_the_kernel() {
        let x = Tensor::from_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        for (got, name) in [
            (softmax(&x, 1), "softmax"),
            (log_softmax(&x, 1), "log_softmax"),
        ] {
            assert!(
                matches!(&got, Err(ngb_tensor::TensorError::DTypeMismatch { op, .. }) if *op == name),
                "{got:?}"
            );
        }
    }

    #[test]
    fn invalid_dim_rejected() {
        let x = Tensor::zeros(&[2, 2]);
        assert!(softmax(&x, 2).is_err());
    }

    #[test]
    fn fused_lane_kernel_matches_decomposed_chain_bitwise() {
        // inner == 1 (last dim) and inner > 1 (middle dim), both dims
        for (shape, dim) in [(vec![6, 33], 1), (vec![2, 7, 5], 1), (vec![3, 4, 9], 0)] {
            let x = TensorRng::seed(11).normal(&shape);
            let fused = softmax(&x, dim).unwrap().to_vec_f32().unwrap();
            let chain = softmax_chain(&x, dim).unwrap().to_vec_f32().unwrap();
            assert!(
                fused
                    .iter()
                    .zip(&chain)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "softmax {shape:?} dim {dim} diverged from the chain"
            );
            let fused = log_softmax(&x, dim).unwrap().to_vec_f32().unwrap();
            let chain = log_softmax_chain(&x, dim).unwrap().to_vec_f32().unwrap();
            assert!(
                fused
                    .iter()
                    .zip(&chain)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "log_softmax {shape:?} dim {dim} diverged from the chain"
            );
        }
    }

    #[test]
    fn cost_reports_single_fused_kernel() {
        let c = softmax_cost(&[1, 25, 8, 8]);
        assert_eq!(c.kernels, 1);
        assert!(log_softmax_cost(&[4]).flops > softmax_cost(&[4]).flops);
    }
}
