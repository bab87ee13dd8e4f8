//! Building blocks for fused kernels produced by the `ngb-opt` graph
//! rewriter.
//!
//! Fusion here means *loop fusion*: a chain of unary element-wise stages is
//! collapsed into one pass over the data, applying every stage to a value
//! while it is still in a register. Each [`Pointwise`] variant reproduces
//! its standalone kernel's per-element arithmetic **exactly** (same
//! operations, same order), so a fused chain is bit-identical to running
//! the unfused kernels back-to-back — only the interior loads/stores
//! disappear. The one equivalence exception in the optimizer is
//! [`fold_bn`], which algebraically folds an inference batch-norm into the
//! preceding convolution's weights and therefore reorders floating-point
//! arithmetic (checked against a tolerance, not for bit equality).

use ngb_tensor::Tensor;

use crate::activation::{self as act, SQRT_2_OVER_PI};
use crate::arithmetic as arith;
use crate::Result;

/// A unary element-wise stage that can ride in a fused loop.
///
/// Every variant mirrors one executable kernel in [`crate::activation`] or
/// [`crate::arithmetic`]; [`Pointwise::apply`] calls the per-element
/// function that kernel maps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pointwise {
    /// `max(0, x)`.
    Relu,
    /// `clamp(x, 0, 6)`.
    Relu6,
    /// Exact (erf) GELU.
    Gelu,
    /// Tanh-approximated GELU.
    GeluTanh,
    /// Hugging Face `NewGELU` (decomposed chain, composed per element).
    NewGelu,
    /// `x * sigmoid(x)`.
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// `x * relu6(x + 3) / 6`.
    Hardswish,
    /// `-x`.
    Neg,
    /// `x + s`.
    AddScalar(f32),
    /// `x * s`.
    MulScalar(f32),
    /// `x / s`.
    DivScalar(f32),
    /// `x.powf(e)`.
    PowScalar(f32),
    /// `sqrt(x)`.
    Sqrt,
}

impl Pointwise {
    /// The per-element function of the corresponding standalone kernel.
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Pointwise::Relu => act::relu_elem(v),
            Pointwise::Relu6 => act::relu6_elem(v),
            Pointwise::Gelu => act::gelu_elem(v),
            Pointwise::GeluTanh => act::gelu_tanh_elem(v),
            Pointwise::NewGelu => {
                // The decomposed eager chain, stage by stage, so the fused
                // value tracks the unfused kernel sequence bit-for-bit.
                let v3 = v * v * v;
                let v3s = 0.044_715 * v3;
                let inner = v + v3s;
                let scaled = SQRT_2_OVER_PI * inner;
                let th = scaled.tanh();
                let one_p = 1.0 + th;
                let half = 0.5 * v;
                half * one_p
            }
            Pointwise::Silu => act::silu_elem(v),
            Pointwise::Sigmoid => act::sigmoid_elem(v),
            Pointwise::Hardswish => act::hardswish_elem(v),
            Pointwise::Neg => arith::neg_elem(v),
            Pointwise::AddScalar(s) => arith::add_scalar_elem(v, s),
            Pointwise::MulScalar(s) => arith::mul_scalar_elem(v, s),
            Pointwise::DivScalar(s) => arith::div_scalar_elem(v, s),
            Pointwise::PowScalar(e) => arith::pow_scalar_elem(v, e),
            Pointwise::Sqrt => f32::sqrt(v),
        }
    }
}

/// Applies every stage of `chain` to one value, in order.
pub fn apply_chain(chain: &[Pointwise], v: f32) -> f32 {
    chain.iter().fold(v, |acc, p| p.apply(acc))
}

/// Runs a pointwise chain over a whole tensor in a single pass, reusing the
/// input's buffer when it is uniquely owned (the fused node just consumed
/// its last reference).
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn map_chain(x: Tensor, chain: &[Pointwise]) -> Result<Tensor> {
    x.map_into(|v| apply_chain(chain, v))
}

/// Folds an inference batch-norm (`gamma`, `beta`, running `mean`/`var`,
/// `eps`) into the preceding convolution's parameters, in place.
///
/// `weight` is the conv's `[out_c, in_c/groups, k, k]` buffer (any layout
/// with a contiguous block per output channel), `bias` its per-channel
/// bias (zeros when the conv had none). Per output channel `c`:
///
/// ```text
/// scale_c = gamma_c / sqrt(var_c + eps)
/// w'      = w * scale_c
/// b'      = (b - mean_c) * scale_c + beta_c
/// ```
///
/// # Panics
///
/// Panics when the parameter lengths disagree or `weight` is not divisible
/// into `out_c` equal blocks.
pub fn fold_bn(
    weight: &mut [f32],
    bias: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
) {
    let out_c = bias.len();
    assert!(out_c > 0, "fold_bn requires at least one channel");
    assert_eq!(gamma.len(), out_c);
    assert_eq!(beta.len(), out_c);
    assert_eq!(mean.len(), out_c);
    assert_eq!(var.len(), out_c);
    assert_eq!(weight.len() % out_c, 0);
    let block = weight.len() / out_c;
    for c in 0..out_c {
        let scale = gamma[c] / (var[c] + eps).sqrt();
        for w in &mut weight[c * block..(c + 1) * block] {
            *w *= scale;
        }
        bias[c] = (bias[c] - mean[c]) * scale + beta[c];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{activation, arithmetic};
    use ngb_tensor::random::TensorRng;

    #[test]
    fn pointwise_matches_standalone_kernels_bitwise() {
        let x = TensorRng::seed(7).normal(&[257]);
        let cases: Vec<(Pointwise, Tensor)> = vec![
            (Pointwise::Relu, activation::relu(&x).unwrap()),
            (Pointwise::Relu6, activation::relu6(&x).unwrap()),
            (Pointwise::Gelu, activation::gelu(&x).unwrap()),
            (Pointwise::GeluTanh, activation::gelu_tanh(&x).unwrap()),
            (Pointwise::NewGelu, activation::new_gelu(&x).unwrap()),
            (Pointwise::Silu, activation::silu(&x).unwrap()),
            (Pointwise::Sigmoid, activation::sigmoid(&x).unwrap()),
            (Pointwise::Hardswish, activation::hardswish(&x).unwrap()),
            (Pointwise::Neg, arithmetic::neg(&x).unwrap()),
            (
                Pointwise::AddScalar(0.25),
                arithmetic::add_scalar(&x, 0.25).unwrap(),
            ),
            (
                Pointwise::MulScalar(1.5),
                arithmetic::mul_scalar(&x, 1.5).unwrap(),
            ),
            (
                Pointwise::DivScalar(3.0),
                arithmetic::div_scalar(&x, 3.0).unwrap(),
            ),
            (
                Pointwise::PowScalar(2.0),
                arithmetic::pow_scalar(&x, 2.0).unwrap(),
            ),
        ];
        let xs = x.to_vec_f32().unwrap();
        for (p, want) in cases {
            let want = want.to_vec_f32().unwrap();
            for (v, w) in xs.iter().zip(&want) {
                assert_eq!(
                    p.apply(*v).to_bits(),
                    w.to_bits(),
                    "{p:?} diverges from its kernel at input {v}"
                );
            }
        }
        // Sqrt on non-negative values
        let pos = TensorRng::seed(8).uniform(&[64], 0.0, 5.0);
        let want = arithmetic::sqrt(&pos).unwrap().to_vec_f32().unwrap();
        for (v, w) in pos.to_vec_f32().unwrap().iter().zip(&want) {
            assert_eq!(Pointwise::Sqrt.apply(*v).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn chain_composes_in_order() {
        let chain = [Pointwise::AddScalar(1.0), Pointwise::MulScalar(2.0)];
        assert_eq!(apply_chain(&chain, 3.0), 8.0); // (3+1)*2, not 3*2+1
    }

    #[test]
    fn map_chain_equals_sequential_maps() {
        let x = TensorRng::seed(9).normal(&[4, 33]);
        let chain = [Pointwise::Gelu, Pointwise::MulScalar(0.5), Pointwise::Silu];
        let mut want = x.clone();
        for p in chain {
            want = want.map(|v| p.apply(v)).unwrap();
        }
        let got = map_chain(x, &chain).unwrap();
        let (a, b) = (got.to_vec_f32().unwrap(), want.to_vec_f32().unwrap());
        assert_eq!(got.shape(), want.shape());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fold_bn_matches_bn_of_conv() {
        // y = bn(conv(x)) must equal conv'(x) with folded params, for a
        // 1x1 "conv" that is just a per-channel dot product.
        let mut rng = TensorRng::seed(11);
        let mut w = rng.normal(&[6]).to_vec_f32().unwrap(); // 2 out-ch, block 3
        let mut b = vec![0.1, -0.2];
        let gamma = [1.1, 0.9];
        let beta = [0.3, -0.4];
        let mean = [0.05, -0.02];
        let var = [0.9, 1.2];
        let eps = 1e-5f32;
        let x = [0.7, -1.3, 0.2];
        let unfused: Vec<f32> = (0..2)
            .map(|c| {
                let y: f32 = w[c * 3..(c + 1) * 3]
                    .iter()
                    .zip(&x)
                    .map(|(wi, xi)| wi * xi)
                    .sum::<f32>()
                    + b[c];
                (y - mean[c]) / (var[c] + eps).sqrt() * gamma[c] + beta[c]
            })
            .collect();
        fold_bn(&mut w, &mut b, &gamma, &beta, &mean, &var, eps);
        for c in 0..2 {
            let y: f32 = w[c * 3..(c + 1) * 3]
                .iter()
                .zip(&x)
                .map(|(wi, xi)| wi * xi)
                .sum::<f32>()
                + b[c];
            assert!(
                (y - unfused[c]).abs() < 1e-5,
                "channel {c}: folded {y} vs unfused {}",
                unfused[c]
            );
        }
    }
}
