//! Activation operators (paper §2.1.2, Table 2 "Activation" group).
//!
//! Includes both library-fused kernels and Hugging Face's hand-written
//! `NewGELU`, which in PyTorch eager mode decomposes into a chain of
//! element-wise kernels — the exact overhead §4.1.4 blames for GPT-2's
//! activation-dominated GPU profile. The decomposed variant computes the
//! same function but reports a multi-kernel [`OpCost`].

use ngb_tensor::Tensor;

use crate::parallel;
use crate::{OpCost, Result};

/// `sqrt(2/pi)`, the tanh-GELU scale.
pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// Rectified Linear Unit: `max(0, x)` element-wise.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn relu(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, relu_elem)
}

/// [`relu`] of one element.
#[inline]
pub(crate) fn relu_elem(v: f32) -> f32 {
    v.max(0.0)
}

/// Cost of [`relu`] on `shape`.
pub fn relu_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 1.0)
}

/// Exact GELU: `x * Phi(x)` with the Gaussian CDF evaluated through `erf`.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn gelu(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, gelu_elem)
}

/// [`gelu`] of one element.
#[inline]
pub(crate) fn gelu_elem(v: f32) -> f32 {
    0.5 * v * (1.0 + erf(v / std::f32::consts::SQRT_2))
}

/// Cost of the fused [`gelu`] kernel on `shape`.
pub fn gelu_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 8.0)
}

/// Tanh-approximated GELU (`torch.nn.GELU(approximate="tanh")`).
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn gelu_tanh(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, gelu_tanh_elem)
}

/// [`gelu_tanh`] of one element.
#[inline]
pub(crate) fn gelu_tanh_elem(v: f32) -> f32 {
    0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)).tanh())
}

/// Cost of the fused [`gelu_tanh`] kernel on `shape`.
pub fn gelu_tanh_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 10.0)
}

/// Hugging Face `NewGELU`: numerically identical to [`gelu_tanh`] but
/// written as primitive tensor ops, the way
/// `transformers.activations.NewGELUActivation` executes in eager mode.
///
/// The chain is: `pow` → `mul` → `add` → `mul` → `tanh` → `add` → `mul` →
/// `mul`, i.e. **eight** kernel launches and seven intermediate tensors.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn new_gelu(x: &Tensor) -> Result<Tensor> {
    let x3 = x.map(|v| v * v * v)?; // pow(x, 3)
    let x3s = x3.map(|v| 0.044_715 * v)?; // mul by const
    let inner = x.zip_map(&x3s, |a, b| a + b)?; // add
    let scaled = inner.map(|v| SQRT_2_OVER_PI * v)?; // mul by const
    let th = scaled.map(f32::tanh)?; // tanh
    let one_p = th.map(|v| 1.0 + v)?; // add const
    let half_x = x.map(|v| 0.5 * v)?; // mul by const
    half_x.zip_map(&one_p, |a, b| a * b) // mul
}

/// Cost of the decomposed [`new_gelu`] chain on `shape`: eight element-wise
/// kernels, each re-reading and re-writing the activation.
pub fn new_gelu_cost(shape: &[usize]) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    // 6 unary kernels + 2 binary kernels
    let unary: OpCost = (0..6).map(|_| OpCost::elementwise(n, 1.5)).sum();
    let binary: OpCost = (0..2).map(|_| OpCost::elementwise_binary(n, 1.0)).sum();
    unary + binary
}

/// SiLU / swish: `x * sigmoid(x)` — Llama-2's activation.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn silu(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, silu_elem)
}

/// [`silu`] of one element.
#[inline]
pub(crate) fn silu_elem(v: f32) -> f32 {
    v / (1.0 + (-v).exp())
}

/// Cost of the fused [`silu`] kernel on `shape`.
pub fn silu_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 5.0)
}

/// Logistic sigmoid.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn sigmoid(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, sigmoid_elem)
}

/// [`sigmoid`] of one element.
#[inline]
pub(crate) fn sigmoid_elem(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Cost of [`sigmoid`] on `shape`.
pub fn sigmoid_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 4.0)
}

/// Hard-swish (MobileNet family): `x * relu6(x + 3) / 6`.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn hardswish(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, hardswish_elem)
}

/// [`hardswish`] of one element.
#[inline]
pub(crate) fn hardswish_elem(v: f32) -> f32 {
    v * ((v + 3.0).clamp(0.0, 6.0)) / 6.0
}

/// Cost of [`hardswish`] on `shape`.
pub fn hardswish_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 4.0)
}

/// ReLU6: `min(max(x, 0), 6)` (MobileNetV2's activation).
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn relu6(x: &Tensor) -> Result<Tensor> {
    parallel::unary(x, relu6_elem)
}

/// [`relu6`] of one element.
#[inline]
pub(crate) fn relu6_elem(v: f32) -> f32 {
    v.clamp(0.0, 6.0)
}

/// Abramowitz–Stegun rational approximation of `erf`, accurate to ~1.5e-7 —
/// ample for f32 activation math.
fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_) * t) + 1.421_413_7) * t - 0.284_496_74) * t
            + 0.254_829_6)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_tensor::random::TensorRng;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 3.0], &[4]).unwrap();
        assert_eq!(
            relu(&x).unwrap().to_vec_f32().unwrap(),
            vec![0.0, 0.0, 0.0, 3.0]
        );
    }

    #[test]
    fn gelu_reference_points() {
        // Reference values from torch.nn.functional.gelu
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0, 2.0], &[4]).unwrap();
        let y = gelu(&x).unwrap().to_vec_f32().unwrap();
        let expect = [-0.158_655_25, 0.0, 0.841_344_8, 1.954_499_7];
        for (a, b) in y.iter().zip(expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn new_gelu_matches_fused_tanh_gelu() {
        let x = TensorRng::seed(1).normal(&[256]);
        let fused = gelu_tanh(&x).unwrap().to_vec_f32().unwrap();
        let decomposed = new_gelu(&x).unwrap().to_vec_f32().unwrap();
        for (a, b) in fused.iter().zip(&decomposed) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn new_gelu_costs_many_kernels() {
        let fused = gelu_tanh_cost(&[1, 8, 6400]);
        let dec = new_gelu_cost(&[1, 8, 6400]);
        assert_eq!(fused.kernels, 1);
        assert_eq!(dec.kernels, 8);
        assert!(dec.memory_bytes() > 5.0 * fused.memory_bytes());
    }

    #[test]
    fn silu_matches_definition() {
        let x = Tensor::from_vec(vec![0.0, 1.0, -1.0], &[3]).unwrap();
        let y = silu(&x).unwrap().to_vec_f32().unwrap();
        assert!((y[0]).abs() < 1e-7);
        assert!((y[1] - 0.731_058_6).abs() < 1e-5);
        assert!((y[2] + 0.268_941_42).abs() < 1e-5);
    }

    #[test]
    fn sigmoid_bounds() {
        let x = TensorRng::seed(2).uniform(&[100], -10.0, 10.0);
        let y = sigmoid(&x).unwrap().to_vec_f32().unwrap();
        assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn relu6_and_hardswish() {
        let x = Tensor::from_vec(vec![-5.0, 3.0, 10.0], &[3]).unwrap();
        assert_eq!(
            relu6(&x).unwrap().to_vec_f32().unwrap(),
            vec![0.0, 3.0, 6.0]
        );
        let h = hardswish(&x).unwrap().to_vec_f32().unwrap();
        assert_eq!(h[0], 0.0); // relu6(-2) = 0
        assert_eq!(h[2], 10.0); // saturated: x * 6/6
    }

    #[test]
    fn erf_extremes() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(3.0) - 1.0).abs() < 1e-4);
        assert!((erf(-3.0) + 1.0).abs() < 1e-4);
    }

    #[test]
    fn activation_preserves_shape() {
        let x = TensorRng::seed(3).normal(&[2, 3, 4]);
        for f in [
            relu, gelu, gelu_tanh, new_gelu, silu, sigmoid, hardswish, relu6,
        ] {
            assert_eq!(f(&x).unwrap().shape(), x.shape());
        }
    }
}
