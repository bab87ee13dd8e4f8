//! Numeric tensor comparison: error metrics and tolerance policies.
//!
//! The graph-rewrite optimizer's equivalence harness needs two regimes:
//! **bit-exact** for rewrites that preserve floating-point evaluation order
//! (loop fusion of pointwise chains) and **tolerance-based** for rewrites
//! that reorder arithmetic (batch-norm folding). This module provides the
//! shared vocabulary for both.

use crate::storage::DType;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Maximum absolute element-wise error between two same-shape f32 tensors.
///
/// Returns `f32::INFINITY` when any compared pair contains a NaN (NaN is
/// never close to anything).
///
/// # Errors
///
/// Fails when shapes differ or either tensor is not f32.
pub fn max_abs_err(a: &Tensor, b: &Tensor) -> Result<f32> {
    fold_err(a, b, |x, y| (x - y).abs())
}

/// Maximum relative element-wise error `|a-b| / max(|a|, |b|, 1e-12)`.
///
/// The denominator floor keeps near-zero pairs from reporting huge relative
/// error for absolutely-negligible differences; combine with
/// [`max_abs_err`] (as [`Tolerance`] does) rather than using alone.
///
/// # Errors
///
/// Fails when shapes differ or either tensor is not f32.
pub fn max_rel_err(a: &Tensor, b: &Tensor) -> Result<f32> {
    fold_err(a, b, |x, y| (x - y).abs() / x.abs().max(y.abs()).max(1e-12))
}

fn fold_err(a: &Tensor, b: &Tensor, err: impl Fn(f32, f32) -> f32) -> Result<f32> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            expected: a.shape().to_vec(),
            actual: b.shape().to_vec(),
            op: "compare",
        });
    }
    let (av, bv) = (a.to_vec_f32()?, b.to_vec_f32()?);
    let mut worst = 0.0f32;
    for (&x, &y) in av.iter().zip(&bv) {
        if x.is_nan() || y.is_nan() {
            return Ok(f32::INFINITY);
        }
        worst = worst.max(err(x, y));
    }
    Ok(worst)
}

/// Whether two tensors are equal bit-for-bit (same shape and dtype, every
/// element the same bit pattern — `-0.0` differs from `0.0`, `NaN`
/// payloads count). Integer and boolean tensors compare by value, which
/// is the same thing for those dtypes.
pub fn bit_equal(a: &Tensor, b: &Tensor) -> Result<bool> {
    if a.shape() != b.shape() || a.dtype() != b.dtype() {
        return Ok(false);
    }
    if a.dtype() != DType::F32 {
        return Ok(a == b);
    }
    let (av, bv) = (a.to_vec_f32()?, b.to_vec_f32()?);
    Ok(av.iter().zip(&bv).all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// An equivalence policy: a pair of error bounds a comparison must satisfy.
///
/// # Examples
///
/// ```
/// use ngb_tensor::{Tensor, Tolerance};
/// let a = Tensor::from_vec(vec![1.0, 2.0], &[2])?;
/// let b = Tensor::from_vec(vec![1.0 + 1e-6, 2.0], &[2])?;
/// assert!(Tolerance::bn_folding().check(&a, &b).is_ok());
/// assert!(Tolerance::exact().check(&a, &b).is_err());
/// # Ok::<(), ngb_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Largest allowed absolute element-wise error.
    pub max_abs: f32,
    /// Largest allowed relative element-wise error.
    pub max_rel: f32,
}

impl Tolerance {
    /// Zero tolerance: every element must match exactly (still value
    /// equality, not bit equality — use [`bit_equal`] to distinguish
    /// signed zeros).
    pub fn exact() -> Tolerance {
        Tolerance {
            max_abs: 0.0,
            max_rel: 0.0,
        }
    }

    /// The documented policy for batch-norm folding, which reorders f32
    /// arithmetic: per-element scale/shift against rsqrt-normalized values
    /// accumulates a few ULP across the conv reduction.
    pub fn bn_folding() -> Tolerance {
        Tolerance {
            max_abs: 1e-4,
            max_rel: 1e-3,
        }
    }

    /// Checks `a` against `b`, passing when **either** bound holds for
    /// every element pair (the usual `allclose` semantics: small values
    /// judged absolutely, large values relatively).
    ///
    /// # Errors
    ///
    /// Fails with a descriptive [`TensorError::InvalidArgument`] when both
    /// bounds are exceeded, and propagates shape/dtype mismatches.
    pub fn check(&self, a: &Tensor, b: &Tensor) -> Result<()> {
        // Tolerances only make sense for floats; indices, token ids, and
        // masks must survive any rewrite exactly.
        if a.dtype() != DType::F32 || b.dtype() != DType::F32 {
            if a == b {
                return Ok(());
            }
            return Err(TensorError::InvalidArgument(format!(
                "non-float tensors ({:?} vs {:?}) must match exactly",
                a.dtype(),
                b.dtype()
            )));
        }
        let abs = max_abs_err(a, b)?;
        if abs <= self.max_abs {
            return Ok(());
        }
        let rel = max_rel_err(a, b)?;
        if rel <= self.max_rel {
            return Ok(());
        }
        Err(TensorError::InvalidArgument(format!(
            "tensors differ: max_abs_err {abs:e} > {:e} and max_rel_err {rel:e} > {:e}",
            self.max_abs, self.max_rel
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_and_rel_errors() {
        let a = Tensor::from_vec(vec![1.0, 100.0, 0.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![1.1, 100.0, 0.0], &[3]).unwrap();
        let abs = max_abs_err(&a, &b).unwrap();
        assert!((abs - 0.1).abs() < 1e-6);
        let rel = max_rel_err(&a, &b).unwrap();
        assert!((rel - 0.1 / 1.1).abs() < 1e-6);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(max_abs_err(&a, &b).is_err());
        assert!(!bit_equal(&a, &b).unwrap());
    }

    #[test]
    fn nan_is_never_close() {
        let a = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        let b = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        assert_eq!(max_abs_err(&a, &b).unwrap(), f32::INFINITY);
        assert!(Tolerance::bn_folding().check(&a, &b).is_err());
    }

    #[test]
    fn bit_equality_is_strict() {
        let a = Tensor::from_vec(vec![0.0], &[1]).unwrap();
        let b = Tensor::from_vec(vec![-0.0], &[1]).unwrap();
        assert!(!bit_equal(&a, &b).unwrap());
        assert!(bit_equal(&a, &a).unwrap());
        // value-exact tolerance accepts signed-zero differences
        assert!(Tolerance::exact().check(&a, &b).is_ok());
    }

    #[test]
    fn tolerance_either_bound_passes() {
        // big values: abs error large, rel error small
        let a = Tensor::from_vec(vec![1e6], &[1]).unwrap();
        let b = Tensor::from_vec(vec![1e6 + 100.0], &[1]).unwrap();
        assert!(Tolerance {
            max_abs: 1e-4,
            max_rel: 1e-3
        }
        .check(&a, &b)
        .is_ok());
        // tiny values: rel error large, abs error small
        let c = Tensor::from_vec(vec![1e-8], &[1]).unwrap();
        let d = Tensor::from_vec(vec![2e-8], &[1]).unwrap();
        assert!(Tolerance {
            max_abs: 1e-4,
            max_rel: 1e-3
        }
        .check(&c, &d)
        .is_ok());
        // both exceeded
        let e = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let f = Tensor::from_vec(vec![1.5], &[1]).unwrap();
        assert!(Tolerance {
            max_abs: 1e-4,
            max_rel: 1e-3
        }
        .check(&e, &f)
        .is_err());
    }

    #[test]
    fn integer_tensors_compare_exactly() {
        let a = Tensor::from_i64(vec![3, 1, 4], &[3]).unwrap();
        let b = Tensor::from_i64(vec![3, 1, 4], &[3]).unwrap();
        let c = Tensor::from_i64(vec![3, 1, 5], &[3]).unwrap();
        assert!(bit_equal(&a, &b).unwrap());
        assert!(!bit_equal(&a, &c).unwrap());
        assert!(Tolerance::bn_folding().check(&a, &b).is_ok());
        assert!(Tolerance::bn_folding().check(&a, &c).is_err());
        // dtype mismatch is never equal
        let f = Tensor::from_vec(vec![3.0, 1.0, 4.0], &[3]).unwrap();
        assert!(!bit_equal(&a, &f).unwrap());
        assert!(Tolerance::bn_folding().check(&a, &f).is_err());
    }
}
