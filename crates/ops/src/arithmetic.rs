//! Element-wise and scalar arithmetic operators (Table 2 "Arithmetic").
//!
//! These are the `add`/`mul`/`div`/`neg` tensor ops that dominate language
//! models' non-GEMM time in eager mode (§4.1.4): individually trivial, but
//! memory-bound and frequent.

use ngb_tensor::Tensor;

use crate::parallel;
use crate::{OpCost, Result};

/// Broadcasting element-wise addition.
///
/// # Errors
///
/// Fails when shapes cannot broadcast or inputs are not f32.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    parallel::binary(a, b, |x, y| x + y)
}

/// Broadcasting element-wise subtraction.
///
/// # Errors
///
/// Fails when shapes cannot broadcast or inputs are not f32.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    parallel::binary(a, b, |x, y| x - y)
}

/// Broadcasting element-wise multiplication.
///
/// # Errors
///
/// Fails when shapes cannot broadcast or inputs are not f32.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    parallel::binary(a, b, |x, y| x * y)
}

/// Broadcasting element-wise ("true") division.
///
/// # Errors
///
/// Fails when shapes cannot broadcast or inputs are not f32.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    parallel::binary(a, b, |x, y| x / y)
}

/// Element-wise negation.
///
/// # Errors
///
/// Fails when input is not f32.
pub fn neg(a: &Tensor) -> Result<Tensor> {
    parallel::unary(a, neg_elem)
}

/// [`neg`] of one element.
#[inline]
pub(crate) fn neg_elem(x: f32) -> f32 {
    -x
}

/// Adds a scalar to every element.
///
/// # Errors
///
/// Fails when input is not f32.
pub fn add_scalar(a: &Tensor, s: f32) -> Result<Tensor> {
    parallel::unary(a, |x| add_scalar_elem(x, s))
}

/// [`add_scalar`] of one element.
#[inline]
pub(crate) fn add_scalar_elem(x: f32, s: f32) -> f32 {
    x + s
}

/// Multiplies every element by a scalar (attention's `1/sqrt(d)` scale).
///
/// # Errors
///
/// Fails when input is not f32.
pub fn mul_scalar(a: &Tensor, s: f32) -> Result<Tensor> {
    parallel::unary(a, |x| mul_scalar_elem(x, s))
}

/// [`mul_scalar`] of one element.
#[inline]
pub(crate) fn mul_scalar_elem(x: f32, s: f32) -> f32 {
    x * s
}

/// Divides every element by a scalar.
///
/// # Errors
///
/// Fails when input is not f32 or `s` is zero.
pub fn div_scalar(a: &Tensor, s: f32) -> Result<Tensor> {
    crate::fused::Pointwise::DivScalar(s).check()?;
    parallel::unary(a, |x| div_scalar_elem(x, s))
}

/// [`div_scalar`] of one element.
#[inline]
pub(crate) fn div_scalar_elem(x: f32, s: f32) -> f32 {
    x / s
}

/// Element-wise power with scalar exponent.
///
/// # Errors
///
/// Fails when input is not f32.
pub fn pow_scalar(a: &Tensor, e: f32) -> Result<Tensor> {
    parallel::unary(a, |x| pow_scalar_elem(x, e))
}

/// [`pow_scalar`] of one element.
#[inline]
pub(crate) fn pow_scalar_elem(x: f32, e: f32) -> f32 {
    x.powf(e)
}

/// Element-wise square root.
///
/// # Errors
///
/// Fails when input is not f32.
pub fn sqrt(a: &Tensor) -> Result<Tensor> {
    parallel::unary(a, f32::sqrt)
}

/// Mean over dimension `dim` (keepdim optional).
///
/// # Errors
///
/// Fails when `dim` is out of range or input is not f32.
pub fn mean_dim(a: &Tensor, dim: usize, keepdim: bool) -> Result<Tensor> {
    let n = a
        .shape()
        .get(dim)
        .copied()
        .ok_or(ngb_tensor::TensorError::InvalidDim {
            dim,
            rank: a.rank(),
        })? as f32;
    a.reduce_dim(dim, keepdim, 0.0, |acc, v| acc + v)?
        .map(|v| v / n)
}

/// Cost of a unary element-wise arithmetic kernel on `shape`.
pub fn unary_cost(shape: &[usize]) -> OpCost {
    OpCost::elementwise(ngb_tensor::num_elements(shape), 1.0)
}

/// Cost of a binary element-wise arithmetic kernel producing `out_shape`.
pub fn binary_cost(out_shape: &[usize]) -> OpCost {
    OpCost::elementwise_binary(ngb_tensor::num_elements(out_shape), 1.0)
}

/// Cost of a reduction (`mean`/`sum`) from `shape` along `dim`.
pub fn reduce_cost(shape: &[usize], dim: usize) -> OpCost {
    let n = ngb_tensor::num_elements(shape);
    let m = n / shape.get(dim).copied().unwrap_or(1).max(1);
    OpCost::reduction(n, m, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap()
    }

    #[test]
    fn binary_ops() {
        let a = v(&[1.0, 2.0, 3.0]);
        let b = v(&[4.0, 5.0, 6.0]);
        assert_eq!(
            add(&a, &b).unwrap().to_vec_f32().unwrap(),
            vec![5.0, 7.0, 9.0]
        );
        assert_eq!(
            sub(&b, &a).unwrap().to_vec_f32().unwrap(),
            vec![3.0, 3.0, 3.0]
        );
        assert_eq!(
            mul(&a, &b).unwrap().to_vec_f32().unwrap(),
            vec![4.0, 10.0, 18.0]
        );
        assert_eq!(
            div(&b, &a).unwrap().to_vec_f32().unwrap(),
            vec![4.0, 2.5, 2.0]
        );
    }

    #[test]
    fn broadcast_add_bias() {
        let x = Tensor::zeros(&[2, 3]);
        let bias = v(&[1.0, 2.0, 3.0]);
        let y = add(&x, &bias).unwrap();
        assert_eq!(y.to_vec_f32().unwrap(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_ops() {
        let a = v(&[4.0, 9.0]);
        assert_eq!(neg(&a).unwrap().to_vec_f32().unwrap(), vec![-4.0, -9.0]);
        assert_eq!(
            add_scalar(&a, 1.0).unwrap().to_vec_f32().unwrap(),
            vec![5.0, 10.0]
        );
        assert_eq!(
            mul_scalar(&a, 0.5).unwrap().to_vec_f32().unwrap(),
            vec![2.0, 4.5]
        );
        assert_eq!(
            div_scalar(&a, 2.0).unwrap().to_vec_f32().unwrap(),
            vec![2.0, 4.5]
        );
        assert!(div_scalar(&a, 0.0).is_err());
        assert_eq!(sqrt(&a).unwrap().to_vec_f32().unwrap(), vec![2.0, 3.0]);
        assert_eq!(
            pow_scalar(&a, 2.0).unwrap().to_vec_f32().unwrap(),
            vec![16.0, 81.0]
        );
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(
            mean_dim(&a, 1, false).unwrap().to_vec_f32().unwrap(),
            vec![1.5, 3.5]
        );
        assert!(mean_dim(&a, 2, false).is_err());
    }

    #[test]
    fn cost_helpers() {
        assert_eq!(unary_cost(&[10]).flops, 10.0);
        assert_eq!(binary_cost(&[10]).bytes_read, 80.0);
        let rc = reduce_cost(&[4, 8], 1);
        assert_eq!(rc.bytes_written, 4.0 * 4.0);
    }
}
