//! Layout ("memory") operators: views, copies, concatenation and splitting.
//!
//! These are the tensor-level primitives behind the paper's **Memory**
//! operator group (Table 2): `view`, `reshape`, `permute`, `expand`,
//! `squeeze`, `contiguous`, `split`, `cat`. Zero-copy operators return a new
//! `Tensor` header over shared storage; copying operators allocate.

use crate::index::{offset_of, IndexIter};
use crate::shape::{
    contiguous_strides, expand_strides, normalize_dim, num_elements, reshape_strides,
    resolve_reshape,
};
use crate::storage::{DType, Storage};
use crate::tensor::Tensor;
use crate::{Result, TensorError};

impl Tensor {
    /// Returns a dense row-major copy of this tensor; returns a cheap clone
    /// when the view is already contiguous (like `torch.Tensor.contiguous`).
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() && self.offset == 0 && self.storage.len() == self.numel() {
            return self.clone();
        }
        crate::telemetry::note_materialized(self.numel() * self.dtype().size_bytes());
        let storage: Storage = match self.dtype() {
            DType::F32 => self.to_vec_f32().expect("dtype checked").into(),
            DType::I64 => self.to_vec_i64().expect("dtype checked").into(),
            DType::Bool => self.to_vec_bool().expect("dtype checked").into(),
        };
        Tensor {
            storage,
            strides: contiguous_strides(&self.shape),
            shape: self.shape.clone(),
            offset: 0,
        }
    }

    /// Zero-copy reshape of a **contiguous** tensor, mirroring
    /// `torch.Tensor.view`. Use [`Tensor::reshape`] when the tensor may not
    /// be contiguous.
    ///
    /// Pass `usize::MAX` for at most one dimension to infer it (`-1` in
    /// PyTorch).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::NonContiguousView`] on a non-contiguous input
    /// and [`TensorError::ShapeMismatch`] when element counts differ.
    pub fn view(&self, shape: &[usize]) -> Result<Tensor> {
        let resolved = resolve_reshape(self.numel(), shape)?;
        if !self.is_contiguous() {
            return Err(TensorError::NonContiguousView {
                requested: resolved,
            });
        }
        Ok(Tensor {
            storage: self.storage.clone(),
            strides: contiguous_strides(&resolved),
            shape: resolved,
            offset: self.offset,
        })
    }

    /// Reshape that views when possible and copies otherwise, mirroring
    /// `torch.reshape`.
    ///
    /// Unlike [`Tensor::view`], non-contiguous inputs stay zero-copy whenever
    /// the target shape only merges/splits dims whose strides are compatible
    /// (PyTorch's `computeStride` check, see
    /// [`reshape_strides`](crate::reshape_strides)); only stride-incompatible
    /// reshapes materialize a dense copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let resolved = resolve_reshape(self.numel(), shape)?;
        if self.is_contiguous() {
            return Ok(Tensor {
                storage: self.storage.clone(),
                strides: contiguous_strides(&resolved),
                shape: resolved,
                offset: self.offset,
            });
        }
        if let Some(strides) = reshape_strides(&self.shape, &self.strides, &resolved) {
            return Ok(Tensor {
                storage: self.storage.clone(),
                strides,
                shape: resolved,
                offset: self.offset,
            });
        }
        self.contiguous().view(&resolved)
    }

    /// Flattens dims `start..=end` into one (like `torch.flatten`).
    ///
    /// # Errors
    ///
    /// Fails when `start > end` or `end` is out of range.
    pub fn flatten(&self, start: usize, end: usize) -> Result<Tensor> {
        if start > end || end >= self.rank() {
            return Err(TensorError::InvalidDim {
                dim: end,
                rank: self.rank(),
            });
        }
        let mut shape: Vec<usize> = self.shape[..start].to_vec();
        shape.push(self.shape[start..=end].iter().product());
        shape.extend_from_slice(&self.shape[end + 1..]);
        self.reshape(&shape)
    }

    /// Zero-copy axis permutation (like `torch.permute`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] when `perm` is not a
    /// permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let rank = self.rank();
        let mut seen = vec![false; rank];
        if perm.len() != rank
            || perm
                .iter()
                .any(|&p| p >= rank || std::mem::replace(&mut seen[p], true))
        {
            return Err(TensorError::InvalidPermutation {
                perm: perm.to_vec(),
            });
        }
        Ok(Tensor {
            storage: self.storage.clone(),
            shape: perm.iter().map(|&p| self.shape[p]).collect(),
            strides: perm.iter().map(|&p| self.strides[p]).collect(),
            offset: self.offset,
        })
    }

    /// Zero-copy swap of two dimensions (like `torch.transpose`). Negative
    /// dims count from the end.
    ///
    /// # Errors
    ///
    /// Fails when either dim is out of range.
    pub fn transpose(&self, dim0: isize, dim1: isize) -> Result<Tensor> {
        let d0 = normalize_dim(dim0, self.rank())?;
        let d1 = normalize_dim(dim1, self.rank())?;
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(d0, d1);
        self.permute(&perm)
    }

    /// Zero-copy broadcast of size-1 dims to `shape` (like `torch.expand`);
    /// expanded dims get stride 0.
    ///
    /// # Errors
    ///
    /// Fails when a non-1 dim differs from the target or ranks mismatch
    /// (after implicit left-padding).
    pub fn expand(&self, shape: &[usize]) -> Result<Tensor> {
        let strides = expand_strides(&self.shape, &self.strides, shape).ok_or_else(|| {
            TensorError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: shape.to_vec(),
                op: "expand",
            }
        })?;
        Ok(Tensor {
            storage: self.storage.clone(),
            shape: shape.to_vec(),
            strides,
            offset: self.offset,
        })
    }

    /// Removes dimension `dim` if it has size 1; errors otherwise
    /// (like `torch.squeeze(dim)`).
    ///
    /// # Errors
    ///
    /// Fails when `dim` is out of range or not size 1.
    pub fn squeeze(&self, dim: isize) -> Result<Tensor> {
        let d = normalize_dim(dim, self.rank())?;
        if self.shape[d] != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "cannot squeeze dim {d} of size {}",
                self.shape[d]
            )));
        }
        let shape: Vec<usize> = self
            .shape
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != d)
            .map(|(_, &s)| s)
            .collect();
        let strides: Vec<isize> = self
            .strides
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != d)
            .map(|(_, &s)| s)
            .collect();
        Ok(Tensor {
            storage: self.storage.clone(),
            shape,
            strides,
            offset: self.offset,
        })
    }

    /// Inserts a size-1 dimension at `dim` (like `torch.unsqueeze`).
    /// `dim` may equal `rank` to append.
    ///
    /// # Errors
    ///
    /// Fails when `dim > rank`.
    pub fn unsqueeze(&self, dim: usize) -> Result<Tensor> {
        if dim > self.rank() {
            return Err(TensorError::InvalidDim {
                dim,
                rank: self.rank(),
            });
        }
        let mut shape = self.shape.clone();
        let mut strides = self.strides.clone();
        shape.insert(dim, 1);
        strides.insert(dim, 0);
        Ok(Tensor {
            storage: self.storage.clone(),
            shape,
            strides,
            offset: self.offset,
        })
    }

    /// Zero-copy slice of `len` elements starting at `start` along `dim`
    /// (like `torch.narrow`).
    ///
    /// # Errors
    ///
    /// Fails when the range exceeds the dimension.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Result<Tensor> {
        if dim >= self.rank() {
            return Err(TensorError::InvalidDim {
                dim,
                rank: self.rank(),
            });
        }
        if start + len > self.shape[dim] {
            return Err(TensorError::InvalidArgument(format!(
                "narrow range {start}..{} exceeds dim {dim} of size {}",
                start + len,
                self.shape[dim]
            )));
        }
        let mut shape = self.shape.clone();
        shape[dim] = len;
        let offset = (self.offset as isize + start as isize * self.strides[dim]) as usize;
        Ok(Tensor {
            storage: self.storage.clone(),
            shape,
            strides: self.strides.clone(),
            offset,
        })
    }

    /// Selects index `i` along `dim`, dropping that dim (like
    /// `torch.select` / integer indexing).
    ///
    /// # Errors
    ///
    /// Fails when `dim` or `i` is out of range.
    pub fn select(&self, dim: usize, i: usize) -> Result<Tensor> {
        self.narrow(dim, i, 1)?.squeeze(dim as isize)
    }

    /// Splits into chunks of size `size` along `dim` (last chunk may be
    /// smaller), zero-copy (like `torch.split`).
    ///
    /// # Errors
    ///
    /// Fails when `size == 0` or `dim` is out of range.
    pub fn split(&self, size: usize, dim: usize) -> Result<Vec<Tensor>> {
        if size == 0 {
            return Err(TensorError::InvalidArgument(
                "split size must be nonzero".into(),
            ));
        }
        if dim >= self.rank() {
            return Err(TensorError::InvalidDim {
                dim,
                rank: self.rank(),
            });
        }
        let total = self.shape[dim];
        let mut out = Vec::with_capacity(total.div_ceil(size));
        let mut start = 0;
        while start < total {
            let len = size.min(total - start);
            out.push(self.narrow(dim, start, len)?);
            start += len;
        }
        Ok(out)
    }

    /// Splits into `n` equal chunks along `dim`.
    ///
    /// # Errors
    ///
    /// Fails when the dim is not divisible by `n`.
    pub fn chunk(&self, n: usize, dim: usize) -> Result<Vec<Tensor>> {
        if n == 0 || dim >= self.rank() || !self.shape[dim].is_multiple_of(n) {
            return Err(TensorError::InvalidArgument(format!(
                "cannot chunk dim {dim} of size {} into {n} equal parts",
                self.shape.get(dim).copied().unwrap_or(0)
            )));
        }
        self.split(self.shape[dim] / n, dim)
    }

    /// Concatenates tensors along `dim`, allocating new storage
    /// (like `torch.cat`). All inputs must share one dtype (f32, i64, or
    /// bool) and agree on every other dimension.
    ///
    /// # Errors
    ///
    /// Fails on an empty input list, rank/shape disagreement, or mixed
    /// dtypes.
    pub fn cat(tensors: &[Tensor], dim: usize) -> Result<Tensor> {
        let first = tensors.first().ok_or_else(|| {
            TensorError::InvalidArgument("cat requires at least one tensor".into())
        })?;
        let rank = first.rank();
        if dim >= rank {
            return Err(TensorError::InvalidDim { dim, rank });
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[dim] = 0;
        for t in tensors {
            if t.rank() != rank
                || t.shape()
                    .iter()
                    .enumerate()
                    .any(|(i, &d)| i != dim && d != out_shape[i] && out_shape[i] != 0)
            {
                return Err(TensorError::ShapeMismatch {
                    expected: first.shape().to_vec(),
                    actual: t.shape().to_vec(),
                    op: "cat",
                });
            }
            if t.dtype() != first.dtype() {
                return Err(TensorError::DTypeMismatch {
                    expected: first.dtype().name(),
                    actual: t.dtype().name(),
                    op: "cat",
                });
            }
            out_shape[dim] += t.shape()[dim];
        }
        match first.dtype() {
            DType::F32 => {
                let data = cat_copy(tensors, dim, &out_shape, 0.0f32, |t| {
                    t.storage.as_f32().expect("dtype checked")
                });
                Tensor::from_vec(data, &out_shape)
            }
            DType::I64 => {
                let data = cat_copy(tensors, dim, &out_shape, 0i64, |t| {
                    t.storage.as_i64().expect("dtype checked")
                });
                Tensor::from_i64(data, &out_shape)
            }
            DType::Bool => {
                let data = cat_copy(tensors, dim, &out_shape, false, |t| {
                    t.storage.as_bool().expect("dtype checked")
                });
                Tensor::from_bool(data, &out_shape)
            }
        }
    }

    /// Stacks tensors along a new leading `dim` (like `torch.stack`).
    ///
    /// # Errors
    ///
    /// Fails when shapes disagree or the list is empty.
    pub fn stack(tensors: &[Tensor], dim: usize) -> Result<Tensor> {
        let unsqueezed: Result<Vec<Tensor>> = tensors.iter().map(|t| t.unsqueeze(dim)).collect();
        Tensor::cat(&unsqueezed?, dim)
    }
}

/// Dtype-generic copy loop behind [`Tensor::cat`]: gathers every input's
/// elements into a dense row-major buffer shaped `out_shape`, offsetting
/// indices along `dim`. Callers guarantee all inputs share one dtype.
fn cat_copy<T: Copy>(
    tensors: &[Tensor],
    dim: usize,
    out_shape: &[usize],
    fill: T,
    slice_of: impl Fn(&Tensor) -> &[T],
) -> Vec<T> {
    let mut data = vec![fill; num_elements(out_shape)];
    let out_strides = contiguous_strides(out_shape);
    let mut base = 0usize;
    for t in tensors {
        let src = slice_of(t);
        for ix in IndexIter::new(t.shape()) {
            let mut oix = ix.clone();
            oix[dim] += base;
            data[offset_of(&oix, &out_strides, 0)] = src[offset_of(&ix, t.strides(), t.offset)];
        }
        base += t.shape()[dim];
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2x3() -> Tensor {
        Tensor::arange(0.0, 6.0, 1.0).reshape(&[2, 3]).unwrap()
    }

    #[test]
    fn view_is_zero_copy_and_checks_contiguity() {
        let a = t2x3();
        let v = a.view(&[3, 2]).unwrap();
        assert!(v.shares_storage(&a));
        let p = a.permute(&[1, 0]).unwrap();
        assert!(matches!(
            p.view(&[6]),
            Err(TensorError::NonContiguousView { .. })
        ));
    }

    #[test]
    fn view_infers_wildcard() {
        let a = t2x3();
        let v = a.view(&[usize::MAX, 2]).unwrap();
        assert_eq!(v.shape(), &[3, 2]);
    }

    #[test]
    fn reshape_copies_when_needed() {
        let a = t2x3().permute(&[1, 0]).unwrap();
        let r = a.reshape(&[6]).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert!(!r.shares_storage(&a));
    }

    #[test]
    fn reshape_stays_zero_copy_on_compatible_strides() {
        // splitting the last dim of a transposed view never copies
        let a = Tensor::arange(0.0, 24.0, 1.0)
            .reshape(&[2, 3, 4])
            .unwrap()
            .transpose(0, 1)
            .unwrap(); // [3, 2, 4], strides [4, 12, 1]
        let r = a.reshape(&[3, 2, 2, 2]).unwrap();
        assert!(r.shares_storage(&a));
        assert_eq!(
            r.to_vec_f32().unwrap(),
            a.contiguous().to_vec_f32().unwrap()
        );

        // the attention-prologue merge: [1, H, T, hd] permuted view flattens
        // its size-1 batch into the heads dim without materializing
        let q = Tensor::arange(0.0, 24.0, 1.0)
            .reshape(&[1, 3, 2, 4])
            .unwrap()
            .permute(&[0, 2, 1, 3])
            .unwrap(); // [1, 2, 3, 4]
        let heads = q.reshape(&[2, 3, 4]).unwrap();
        assert!(heads.shares_storage(&q));
        assert_eq!(
            heads.to_vec_f32().unwrap(),
            q.contiguous().to_vec_f32().unwrap()
        );
    }

    #[test]
    fn reshape_of_narrowed_view_keeps_offset() {
        let a = t2x3().narrow(0, 1, 1).unwrap(); // [1,3] at offset 3, contiguous
        let r = a.reshape(&[3]).unwrap();
        assert!(r.shares_storage(&a));
        assert_eq!(r.to_vec_f32().unwrap(), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn permute_reads_transposed() {
        let a = t2x3();
        let p = a.permute(&[1, 0]).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        assert_eq!(p.at(&[2, 1]).unwrap(), 5.0);
        assert!(!p.is_contiguous());
        assert_eq!(
            p.contiguous().to_vec_f32().unwrap(),
            vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]
        );
    }

    #[test]
    fn transpose_negative_dims() {
        let a = Tensor::zeros(&[2, 3, 4]);
        let t = a.transpose(-1, -2).unwrap();
        assert_eq!(t.shape(), &[2, 4, 3]);
    }

    #[test]
    fn invalid_permutation_rejected() {
        let a = t2x3();
        assert!(a.permute(&[0, 0]).is_err());
        assert!(a.permute(&[0]).is_err());
        assert!(a.permute(&[0, 2]).is_err());
    }

    #[test]
    fn expand_zero_stride() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let e = a.expand(&[2, 3]).unwrap();
        assert!(e.shares_storage(&a));
        assert_eq!(e.to_vec_f32().unwrap(), vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // expand can also left-pad rank
        let b = Tensor::from_vec(vec![5.0], &[1]).unwrap();
        let e2 = b.expand(&[2, 2, 1]).unwrap();
        assert_eq!(e2.numel(), 4);
        assert!(a.expand(&[3, 3]).is_err());
    }

    #[test]
    fn squeeze_unsqueeze_roundtrip() {
        let a = Tensor::zeros(&[2, 1, 3]);
        let s = a.squeeze(1).unwrap();
        assert_eq!(s.shape(), &[2, 3]);
        assert!(a.squeeze(0).is_err());
        let u = s.unsqueeze(1).unwrap();
        assert_eq!(u.shape(), &[2, 1, 3]);
        assert!(u.shares_storage(&a));
    }

    #[test]
    fn narrow_and_select() {
        let a = t2x3();
        let n = a.narrow(1, 1, 2).unwrap();
        assert_eq!(n.shape(), &[2, 2]);
        assert_eq!(n.to_vec_f32().unwrap(), vec![1.0, 2.0, 4.0, 5.0]);
        let row = a.select(0, 1).unwrap();
        assert_eq!(row.to_vec_f32().unwrap(), vec![3.0, 4.0, 5.0]);
        assert!(a.narrow(1, 2, 2).is_err());
    }

    #[test]
    fn split_sizes() {
        let a = Tensor::arange(0.0, 10.0, 1.0);
        let parts = a.split(4, 0).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].shape(), &[2]);
        assert!(parts.iter().all(|p| p.shares_storage(&a)));
        assert!(a.split(0, 0).is_err());
    }

    #[test]
    fn chunk_requires_divisibility() {
        let a = Tensor::arange(0.0, 9.0, 1.0);
        assert_eq!(a.chunk(3, 0).unwrap().len(), 3);
        assert!(a.chunk(2, 0).is_err());
    }

    #[test]
    fn cat_allocates_and_concatenates() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let c = Tensor::cat(&[a.clone(), b], 0).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert!(!c.shares_storage(&a));
        assert_eq!(c.to_vec_f32().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        let d = Tensor::cat(&[c.clone(), c.clone()], 1).unwrap();
        assert_eq!(d.shape(), &[2, 4]);
    }

    #[test]
    fn cat_validates() {
        assert!(Tensor::cat(&[], 0).is_err());
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(Tensor::cat(&[a.clone(), b], 0).is_err());
        assert!(Tensor::cat(&[a], 5).is_err());
    }

    #[test]
    fn cat_i64_and_bool() {
        let a = Tensor::from_i64(vec![1, 2, 3], &[1, 3]).unwrap();
        let b = Tensor::from_i64(vec![4, 5, 6], &[1, 3]).unwrap();
        let c = Tensor::cat(&[a, b], 0).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.to_vec_i64().unwrap(), vec![1, 2, 3, 4, 5, 6]);

        let t = Tensor::from_bool(vec![true, false], &[2, 1]).unwrap();
        let u = Tensor::from_bool(vec![false, true], &[2, 1]).unwrap();
        let v = Tensor::cat(&[t, u], 1).unwrap();
        assert_eq!(v.shape(), &[2, 2]);
        assert_eq!(v.to_vec_bool().unwrap(), vec![true, false, false, true]);
    }

    #[test]
    fn cat_rejects_mixed_dtypes() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::from_i64(vec![1, 2], &[2]).unwrap();
        assert!(matches!(
            Tensor::cat(&[a, b], 0),
            Err(TensorError::DTypeMismatch { op: "cat", .. })
        ));
    }

    #[test]
    fn stack_adds_dim() {
        let a = Tensor::ones(&[2, 3]);
        let s = Tensor::stack(&[a.clone(), a.clone(), a], 0).unwrap();
        assert_eq!(s.shape(), &[3, 2, 3]);
    }

    #[test]
    fn narrow_then_contiguous_compacts() {
        let a = t2x3();
        let n = a.narrow(1, 1, 1).unwrap();
        let c = n.contiguous();
        assert!(!c.shares_storage(&a));
        assert_eq!(c.to_vec_f32().unwrap(), vec![1.0, 4.0]);
    }
}
