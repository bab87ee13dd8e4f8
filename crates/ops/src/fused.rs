//! Building blocks for fused kernels produced by the `ngb-opt` graph
//! rewriter.
//!
//! Fusion here means *loop fusion*: a chain of unary element-wise stages is
//! collapsed into one dispatch over the data, applying every stage to a
//! chunk while it is still in cache. That dispatch is the one element-wise
//! kernel, [`crate::parallel::unary`]'s, running [`map_run`]: a fused run
//! and a standalone pointwise op dispatch the same chunks. Each
//! [`Pointwise`] variant reproduces its standalone kernel's per-element
//! arithmetic **exactly** (same operations, same order), so a fused chain
//! is bit-identical to running the unfused kernels back-to-back — only the
//! intermediate tensors disappear. The one equivalence exception in the
//! optimizer is [`fold_bn`], which algebraically folds an inference
//! batch-norm into the preceding convolution's weights and therefore
//! reorders floating-point arithmetic (checked against a tolerance, not for
//! bit equality).

use std::borrow::Cow;

use ngb_tensor::{Tensor, TensorError};

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

/// A computation over a per-element function, which
/// [`Pointwise::with_fn`] compiles once per stage: a loop it runs calls
/// that stage's function with no branch per element.
trait OverFn {
    type Output;
    fn over(self, f: impl Fn(f32) -> f32 + Sync) -> Self::Output;
}

impl Pointwise {
    /// Runs `k` over the per-element function of the corresponding
    /// standalone kernel.
    #[inline]
    fn with_fn<K: OverFn>(self, k: K) -> K::Output {
        match self {
            Pointwise::Relu => k.over(act::relu_elem),
            Pointwise::Relu6 => k.over(act::relu6_elem),
            Pointwise::Gelu => k.over(act::gelu_elem),
            Pointwise::GeluTanh => k.over(act::gelu_tanh_elem),
            Pointwise::NewGelu => k.over(new_gelu_elem),
            Pointwise::Silu => k.over(act::silu_elem),
            Pointwise::Sigmoid => k.over(act::sigmoid_elem),
            Pointwise::Hardswish => k.over(act::hardswish_elem),
            Pointwise::Neg => k.over(arith::neg_elem),
            Pointwise::AddScalar(s) => k.over(move |v| arith::add_scalar_elem(v, s)),
            Pointwise::MulScalar(s) => k.over(move |v| arith::mul_scalar_elem(v, s)),
            Pointwise::DivScalar(s) => k.over(move |v| arith::div_scalar_elem(v, s)),
            Pointwise::PowScalar(e) => k.over(move |v| arith::pow_scalar_elem(v, e)),
            Pointwise::Sqrt => k.over(f32::sqrt),
        }
    }

    /// The per-element function of the corresponding standalone kernel.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        struct At(f32);
        impl OverFn for At {
            type Output = f32;
            #[inline]
            fn over(self, f: impl Fn(f32) -> f32 + Sync) -> f32 {
                f(self.0)
            }
        }
        self.with_fn(At(v))
    }

    /// Fails on the argument its standalone kernel rejects, a division by
    /// zero, so every path that runs the stage fails the same way.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for `DivScalar(0.0)`.
    pub fn check(self) -> Result<()> {
        match self {
            Pointwise::DivScalar(0.0) => {
                Err(TensorError::InvalidArgument("div_scalar by zero".into()))
            }
            _ => Ok(()),
        }
    }
}

/// Hugging Face `NewGELU` of one element: the decomposed eager chain,
/// stage by stage, so the fused value tracks the unfused kernel sequence
/// bit-for-bit.
#[inline]
fn new_gelu_elem(v: f32) -> f32 {
    let v3 = v * v * v;
    let v3s = 0.044_715 * v3;
    let inner = v + v3s;
    let scaled = SQRT_2_OVER_PI * inner;
    let th = scaled.tanh();
    let one_p = 1.0 + th;
    let half = 0.5 * v;
    half * one_p
}

/// `run` mapped over `x` by the one element-wise kernel,
/// [`crate::parallel::unary`]'s: each chunk runs every stage's own
/// compiled loop in turn, the first from `x` and the rest in place, so
/// each element meets the stages in order and the result is bit-identical
/// to the standalone kernels run one after another. The kernel reuses the
/// buffer of an owned, uniquely held `x`.
///
/// # Errors
///
/// Fails when a stage's argument is rejected (a division by zero) or `x`
/// is not f32.
pub fn map_run<'a>(run: &[Pointwise], x: impl Into<Cow<'a, Tensor>>) -> Result<Tensor> {
    struct Chunk<'s, 'o>(Option<&'s [f32]>, &'o mut [f32]);
    impl OverFn for Chunk<'_, '_> {
        type Output = ();
        fn over(self, f: impl Fn(f32) -> f32 + Sync) {
            crate::parallel::map_chunk(f, self.0, self.1);
        }
    }
    for p in run {
        p.check()?;
    }
    let Some((first, rest)) = run.split_first() else {
        return Ok(x.into().into_owned());
    };
    crate::parallel::map_chunks(x, |src, out| {
        first.with_fn(Chunk(src, out));
        for p in rest {
            p.with_fn(Chunk(None, out));
        }
    })
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
    use crate::parallel::test_runner::with_test_runner;
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
        let x = Tensor::from_vec(vec![3.0], &[1]).unwrap();
        // (3+1)*2, not 3*2+1
        assert_eq!(map_run(&chain, x).unwrap().to_vec_f32().unwrap(), [8.0]);
    }

    #[test]
    fn map_chain_equals_sequential_maps() {
        // several chunks, dense and strided, borrowed and owned, on 1..8 threads
        let n = 3 * crate::parallel::GRAIN_ELEMS + 7;
        let x = TensorRng::seed(9).normal(&[n / 7, 7]);
        let strided = x.permute(&[1, 0]).unwrap();
        let chain = [Pointwise::Gelu, Pointwise::MulScalar(0.5), Pointwise::Silu];
        for t in [&x, &strided] {
            let mut want = t.clone();
            for p in chain {
                want = want.map(|v| p.apply(v)).unwrap();
            }
            let want = want.to_vec_f32().unwrap();
            for threads in [1, 2, 8] {
                let (borrowed, owned) = with_test_runner(threads, || {
                    let owned = Tensor::from_vec(t.to_vec_f32().unwrap(), t.shape()).unwrap();
                    (map_run(&chain, t).unwrap(), map_run(&chain, owned).unwrap())
                });
                for got in [borrowed, owned] {
                    assert_eq!(got.shape(), t.shape());
                    let got = got.to_vec_f32().unwrap();
                    assert!(got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()));
                }
            }
        }
        // an empty run is the identity
        assert_eq!(map_run(&[], &x).unwrap(), x);
    }

    #[test]
    fn map_runs_each_stage_like_apply() {
        let x = TensorRng::seed(10).uniform(&[3, 50], 0.1, 4.0);
        let strided = x.permute(&[1, 0]).unwrap();
        let stages = [
            Pointwise::Relu,
            Pointwise::Relu6,
            Pointwise::Gelu,
            Pointwise::GeluTanh,
            Pointwise::NewGelu,
            Pointwise::Silu,
            Pointwise::Sigmoid,
            Pointwise::Hardswish,
            Pointwise::Neg,
            Pointwise::AddScalar(0.25),
            Pointwise::MulScalar(1.5),
            Pointwise::DivScalar(3.0),
            Pointwise::PowScalar(2.0),
            Pointwise::Sqrt,
        ];
        for p in stages {
            for t in [&x, &strided] {
                let want = t.map(|v| p.apply(v)).unwrap();
                let got = map_run(&[p], t).unwrap();
                assert_eq!(got.shape(), want.shape());
                let (a, b) = (got.to_vec_f32().unwrap(), want.to_vec_f32().unwrap());
                assert!(
                    a.iter().zip(&b).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{p:?}"
                );
            }
        }
        assert!(Pointwise::DivScalar(0.0).check().is_err());
        assert!(map_run(&[Pointwise::Relu, Pointwise::DivScalar(0.0)], &x).is_err());
        assert!(Pointwise::DivScalar(-0.0).check().is_err());
        assert!(stages.iter().all(|p| p.check().is_ok()));
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
