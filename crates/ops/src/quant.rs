//! Int8 weight-only quantization for the GEMM-family layers.
//!
//! The deployment flow quantizes Linear / GPT-2 Conv1D weights to int8
//! with **per-output-channel absmax scales**: for output channel `j`,
//! `scale_j = absmax(w[j, :]) / 127` and `q_ij = round(w_ij / scale_j)`
//! clamped to `[-127, 127]`. Activations stay f32. The quantized values
//! are stored as f32 (every integer in `[-127, 127]` is exactly
//! representable), so the product rides the existing 4×8 packed
//! micro-kernel unchanged — `y_q = x @ Q^T` — followed by a dequant
//! epilogue `y[r, j] = y_q[r, j] * scale_j + bias_j`.
//!
//! # Error bound
//!
//! Per-element quantization error is at most `scale_j / 2`, so each
//! output element obeys `|y_int8 - y_f32| <= (scale_j / 2) * Σ_i |x_i|`
//! up to f32 rounding — tight enough that tiny-model logits match to a
//! few percent, loose enough that greedy argmax can legitimately differ.
//! Tests and the decode CI gate compare against this analytic bound
//! rather than an arbitrary epsilon.

use ngb_tensor::{Tensor, TensorError};

use crate::gemm::linear_impl;
use crate::Result;

/// Weight-quantization mode for a deployment flow. `None` is the f32
/// reference path; `Int8` quantizes Linear/Conv1D weights per output
/// channel at execution time. Selected via `--quantize int8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quant {
    /// Full-precision f32 weights (the default).
    #[default]
    None,
    /// Int8 weight-only quantization with per-output-channel absmax
    /// scales and an f32 dequant epilogue.
    Int8,
}

impl Quant {
    /// Parses a CLI spelling. Accepts `none`/`off`/`fp32`/`f32` and
    /// `int8`/`i8`; anything else is `None` (the Option, i.e. invalid).
    pub fn parse(s: &str) -> Option<Quant> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" | "off" | "fp32" | "f32" | "" => Some(Quant::None),
            "int8" | "i8" => Some(Quant::Int8),
            _ => None,
        }
    }

    /// Stable label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Quant::None => "none",
            Quant::Int8 => "int8",
        }
    }
}

/// Quantizes a rank-2 weight tensor to the int8 grid, returning the
/// quantized values (as f32, same shape and logical layout as `w`) and
/// the per-output-channel scales. `w_in_out == false` means `w` is
/// `[out, in]` (Linear); `true` means `[in, out]` (GPT-2 Conv1D) — the
/// output channel is the row in the first case and the column in the
/// second.
///
/// An all-zero channel gets `scale = 0.0` and all-zero codes, which the
/// epilogue maps back to exact zeros.
///
/// # Errors
///
/// Fails when `w` is not rank-2 f32.
pub fn quantize_weights_absmax(w: &Tensor, w_in_out: bool) -> Result<(Tensor, Vec<f32>)> {
    if w.rank() != 2 {
        return Err(TensorError::InvalidArgument(
            "quantize_weights_absmax expects a rank-2 weight".into(),
        ));
    }
    let (rows, cols) = (w.shape()[0], w.shape()[1]);
    let dense = w.to_vec_f32()?;
    let out_f = if w_in_out { cols } else { rows };
    let mut scales = vec![0.0f32; out_f];
    for (idx, &v) in dense.iter().enumerate() {
        let j = if w_in_out { idx % cols } else { idx / cols };
        scales[j] = scales[j].max(v.abs());
    }
    for s in &mut scales {
        *s /= 127.0;
    }
    let mut q = vec![0.0f32; dense.len()];
    for (idx, (&v, dst)) in dense.iter().zip(&mut q).enumerate() {
        let j = if w_in_out { idx % cols } else { idx / cols };
        let s = scales[j];
        *dst = if s == 0.0 {
            0.0
        } else {
            (v / s).round().clamp(-127.0, 127.0)
        };
    }
    Ok((Tensor::from_vec(q, &[rows, cols])?, scales))
}

/// Shared int8 Linear/Conv1D body: quantize, GEMM on the integer grid,
/// dequant epilogue.
fn linear_q8(x: &Tensor, w: &Tensor, bias: Option<&Tensor>, w_in_out: bool) -> Result<Tensor> {
    let (wq, scales) = quantize_weights_absmax(w, w_in_out)?;
    let out_f = scales.len();
    if let Some(b) = bias {
        if b.shape() != [out_f] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![out_f],
                actual: b.shape().to_vec(),
                op: "linear_int8",
            });
        }
    }
    let yq = linear_impl(x, &wq, None, w_in_out)?;
    let mut out = yq.to_vec_f32()?;
    let bc = bias.map(crate::param_f32);
    for row in out.chunks_exact_mut(out_f) {
        match &bc {
            Some(bs) => {
                for ((d, &s), &b) in row.iter_mut().zip(&scales).zip(bs.iter()) {
                    *d = *d * s + b;
                }
            }
            None => {
                for (d, &s) in row.iter_mut().zip(&scales) {
                    *d *= s;
                }
            }
        }
    }
    Tensor::from_vec(out, yq.shape())
}

/// Int8 weight-quantized [`crate::gemm::linear`]: `y = x @ dequant(Q)^T + bias`
/// with `w: [out, in]`.
///
/// # Errors
///
/// Same conditions as [`crate::gemm::linear`].
pub fn linear_int8(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    linear_q8(x, w, bias, false)
}

/// Int8 weight-quantized [`crate::gemm::conv1d_gpt2`] (GPT-2's `[in, out]`
/// weight layout).
///
/// # Errors
///
/// Same conditions as [`crate::gemm::conv1d_gpt2`].
pub fn conv1d_gpt2_int8(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    linear_q8(x, w, bias, true)
}

/// Analytic per-element error bound for [`linear_int8`] given the inputs
/// it actually saw: `max_j scale_j / 2 * max_rows Σ_i |x_i|`. Used by the
/// tests and the decode gate to assert the int8 path is within tolerance
/// without hardcoding an epsilon.
///
/// # Errors
///
/// Fails when the operands are not f32 or `w` is not rank-2.
pub fn int8_error_bound(x: &Tensor, w: &Tensor, w_in_out: bool) -> Result<f32> {
    let (_, scales) = quantize_weights_absmax(w, w_in_out)?;
    let max_scale = scales.iter().fold(0.0f32, |a, &s| a.max(s));
    let in_f = *x.shape().last().unwrap_or(&0);
    let xs = x.to_vec_f32()?;
    let max_l1 = xs
        .chunks_exact(in_f.max(1))
        .map(|row| row.iter().map(|v| v.abs()).sum::<f32>())
        .fold(0.0f32, f32::max);
    Ok(0.5 * max_scale * max_l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{conv1d_gpt2, linear};
    use ngb_tensor::random::TensorRng;

    #[test]
    fn parse_roundtrips_spellings() {
        assert_eq!(Quant::parse("int8"), Some(Quant::Int8));
        assert_eq!(Quant::parse("I8"), Some(Quant::Int8));
        assert_eq!(Quant::parse("none"), Some(Quant::None));
        assert_eq!(Quant::parse("fp32"), Some(Quant::None));
        assert_eq!(Quant::parse("int4"), None);
        assert_eq!(Quant::default().label(), "none");
    }

    #[test]
    fn grid_aligned_weights_quantize_exactly() {
        // weights already on the int8 grid with absmax 127 => scale 1.0,
        // so the quantized GEMM is bit-identical to the f32 one
        let w = Tensor::from_vec(vec![127.0, -3.0, 5.0, 0.0, 64.0, -127.0], &[2, 3]).unwrap();
        let x = TensorRng::seed(7).normal(&[4, 3]);
        let b = TensorRng::seed(8).normal(&[2]);
        let exact = linear(&x, &w, Some(&b)).unwrap().to_vec_f32().unwrap();
        let q = linear_int8(&x, &w, Some(&b)).unwrap().to_vec_f32().unwrap();
        assert!(exact
            .iter()
            .zip(&q)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn linear_int8_within_analytic_bound() {
        let x = TensorRng::seed(21).normal(&[5, 16]);
        let w = TensorRng::seed(22).normal(&[9, 16]);
        let b = TensorRng::seed(23).normal(&[9]);
        let exact = linear(&x, &w, Some(&b)).unwrap().to_vec_f32().unwrap();
        let q = linear_int8(&x, &w, Some(&b)).unwrap().to_vec_f32().unwrap();
        let bound = int8_error_bound(&x, &w, false).unwrap() + 1e-5;
        for (a, b) in exact.iter().zip(&q) {
            assert!((a - b).abs() <= bound, "|{a} - {b}| > {bound}");
        }
    }

    #[test]
    fn conv1d_int8_within_analytic_bound() {
        let x = TensorRng::seed(31).normal(&[2, 4, 8]);
        let w = TensorRng::seed(32).normal(&[8, 6]); // [in, out]
        let b = TensorRng::seed(33).normal(&[6]);
        let exact = conv1d_gpt2(&x, &w, Some(&b)).unwrap().to_vec_f32().unwrap();
        let q = conv1d_gpt2_int8(&x, &w, Some(&b))
            .unwrap()
            .to_vec_f32()
            .unwrap();
        let bound = int8_error_bound(&x, &w, true).unwrap() + 1e-5;
        for (a, b) in exact.iter().zip(&q) {
            assert!((a - b).abs() <= bound, "|{a} - {b}| > {bound}");
        }
    }

    #[test]
    fn zero_channel_dequantizes_to_exact_zero() {
        let w = Tensor::from_vec(vec![0.0, 0.0, 1.0, -2.0], &[2, 2]).unwrap();
        let x = TensorRng::seed(41).normal(&[3, 2]);
        let q = linear_int8(&x, &w, None).unwrap().to_vec_f32().unwrap();
        for r in 0..3 {
            assert_eq!(q[r * 2].to_bits(), 0.0f32.to_bits());
        }
    }
}
