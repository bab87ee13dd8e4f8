//! The [`Tensor`] type: shared storage + shape + strides + offset.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::index::{dense_copy, for_each_run, offset_of, transposed_copy};
use crate::shape::{
    broadcast_shapes, broadcast_strides, contiguous_strides, is_contiguous, num_elements,
};
use crate::storage::{DType, Storage};
use crate::{Result, TensorError};

/// A dense n-dimensional array with PyTorch-style view semantics.
///
/// A `Tensor` is a *view* over reference-counted [`Storage`]: cloning is
/// cheap, layout operators (`permute`, `expand`, …) re-stride without
/// copying, and [`Tensor::contiguous`] materializes a view into fresh
/// row-major storage — the distinction the paper's *memory operator*
/// analysis relies on.
///
/// # Examples
///
/// ```
/// use ngb_tensor::Tensor;
/// let a = Tensor::zeros(&[2, 3]);
/// assert_eq!(a.numel(), 6);
/// assert!(a.is_contiguous());
/// ```
#[derive(Debug, Clone)]
pub struct Tensor {
    pub(crate) storage: Storage,
    pub(crate) shape: Vec<usize>,
    pub(crate) strides: Vec<isize>,
    pub(crate) offset: usize,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates an f32 tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// Creates an f32 tensor of ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// Creates an f32 tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let data = vec![value; num_elements(shape)];
        Tensor::from_vec(data, shape).expect("full: length matches by construction")
    }

    /// Creates a rank-0 (scalar) f32 tensor.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::from_vec(vec![value], &[]).expect("scalar storage length is 1")
    }

    /// Creates an f32 tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `data.len()` does not equal
    /// the element count of `shape`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use ngb_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// assert_eq!(t.at(&[1, 0])?, 3.0);
    /// # Ok::<(), ngb_tensor::TensorError>(())
    /// ```
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
        Self::from_storage(Storage::from(data), shape)
    }

    /// Creates an i64 tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a length/shape disagreement.
    pub fn from_i64(data: Vec<i64>, shape: &[usize]) -> Result<Tensor> {
        Self::from_storage(Storage::from(data), shape)
    }

    /// Creates a bool tensor from `data` in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a length/shape disagreement.
    pub fn from_bool(data: Vec<bool>, shape: &[usize]) -> Result<Tensor> {
        Self::from_storage(Storage::from(data), shape)
    }

    fn from_storage(storage: Storage, shape: &[usize]) -> Result<Tensor> {
        if storage.len() != num_elements(shape) {
            return Err(TensorError::ShapeMismatch {
                expected: vec![num_elements(shape)],
                actual: vec![storage.len()],
                op: "from_vec",
            });
        }
        Ok(Tensor {
            storage,
            strides: contiguous_strides(shape),
            shape: shape.to_vec(),
            offset: 0,
        })
    }

    /// Creates a 1-D f32 tensor with values `start, start+step, …` up to but
    /// excluding `end`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or does not move from `start` toward `end`.
    pub fn arange(start: f32, end: f32, step: f32) -> Tensor {
        assert!(step != 0.0, "arange step must be nonzero");
        assert!(
            (end - start) * step >= 0.0,
            "arange step must move from start toward end"
        );
        let n = ((end - start) / step).ceil().max(0.0) as usize;
        let data: Vec<f32> = (0..n).map(|i| start + i as f32 * step).collect();
        Tensor::from_vec(data, &[n]).expect("arange length matches")
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// The logical shape of this view.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Per-dimension strides in elements (may be 0 for expanded dims).
    pub fn strides(&self) -> &[isize] {
        &self.strides
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of logical elements.
    pub fn numel(&self) -> usize {
        num_elements(&self.shape)
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.storage.dtype()
    }

    /// Logical size in bytes (elements × element size), as used by the
    /// analytic memory-traffic model.
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype().size_bytes()
    }

    /// Whether this view is dense row-major over its storage region.
    ///
    /// Size-0 and size-1 tensors are trivially contiguous.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        is_contiguous(&self.shape, &self.strides)
    }

    /// Attempts to reclaim this tensor's f32 heap buffer for reuse.
    ///
    /// Succeeds only when the tensor is a contiguous, zero-offset, full view
    /// of uniquely owned f32 storage — i.e. dropping it would free the
    /// buffer anyway — so a caller can recycle a dead tensor's storage
    /// instead of round-tripping it through the global allocator.
    ///
    /// Hands the tensor back unchanged when the storage is shared, non-f32,
    /// or viewed through a nontrivial layout.
    pub fn try_reclaim_f32(self) -> std::result::Result<Vec<f32>, Tensor> {
        let whole = self.offset == 0
            && self.is_contiguous()
            && matches!(&self.storage, Storage::F32(arc) if arc.len() == self.numel());
        match self.storage {
            Storage::F32(arc) if whole => Arc::try_unwrap(arc).map_err(|arc| Tensor {
                storage: Storage::F32(arc),
                ..self
            }),
            storage => Err(Tensor { storage, ..self }),
        }
    }

    /// Whether this view aliases the same storage as `other`.
    ///
    /// Used in tests to verify which memory operators copy and which do not.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        match (&self.storage, &other.storage) {
            (Storage::F32(a), Storage::F32(b)) => Arc::ptr_eq(a, b),
            (Storage::I64(a), Storage::I64(b)) => Arc::ptr_eq(a, b),
            (Storage::Bool(a), Storage::Bool(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Element access
    // ------------------------------------------------------------------

    fn check_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.rank() || index.iter().zip(&self.shape).any(|(&i, &d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.shape.clone(),
            });
        }
        Ok(offset_of(index, &self.strides, self.offset))
    }

    /// Reads the f32 element at `index`.
    ///
    /// # Errors
    ///
    /// Fails when the index is out of bounds or the tensor is not f32.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        let off = self.check_index(index)?;
        self.storage
            .as_f32()
            .map(|s| s[off])
            .ok_or(TensorError::DTypeMismatch {
                expected: "f32",
                actual: self.dtype().name(),
                op: "at",
            })
    }

    /// Reads the i64 element at `index`.
    ///
    /// # Errors
    ///
    /// Fails when the index is out of bounds or the tensor is not i64.
    pub fn at_i64(&self, index: &[usize]) -> Result<i64> {
        let off = self.check_index(index)?;
        self.storage
            .as_i64()
            .map(|s| s[off])
            .ok_or(TensorError::DTypeMismatch {
                expected: "i64",
                actual: self.dtype().name(),
                op: "at_i64",
            })
    }

    /// Reads the bool element at `index`.
    ///
    /// # Errors
    ///
    /// Fails when the index is out of bounds or the tensor is not bool.
    pub fn at_bool(&self, index: &[usize]) -> Result<bool> {
        let off = self.check_index(index)?;
        self.storage
            .as_bool()
            .map(|s| s[off])
            .ok_or(TensorError::DTypeMismatch {
                expected: "bool",
                actual: self.dtype().name(),
                op: "at_bool",
            })
    }

    /// Writes `value` at `index`, copying the storage first if it is shared
    /// (copy-on-write).
    ///
    /// # Errors
    ///
    /// Fails when the index is out of bounds or the tensor is not f32.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.check_index(index)?;
        match &mut self.storage {
            Storage::F32(v) => {
                Arc::make_mut(v)[off] = value;
                Ok(())
            }
            _ => Err(TensorError::DTypeMismatch {
                expected: "f32",
                actual: self.dtype().name(),
                op: "set",
            }),
        }
    }

    /// The single value of a rank-0 or single-element f32 tensor.
    ///
    /// # Errors
    ///
    /// Fails when the tensor has more than one element or is not f32.
    pub fn item(&self) -> Result<f32> {
        if self.numel() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "item() requires exactly one element, tensor has {}",
                self.numel()
            )));
        }
        let ix = vec![0; self.rank()];
        self.at(&ix)
    }

    /// Borrows the raw f32 buffer if this view is contiguous f32 starting at
    /// offset 0 of storage that exactly covers it — the fast path used by
    /// hot kernels.
    pub fn as_slice_f32(&self) -> Option<&[f32]> {
        if self.dtype() == DType::F32 && self.is_contiguous() {
            self.storage
                .as_f32()
                .map(|s| &s[self.offset..self.offset + self.numel()])
        } else {
            None
        }
    }

    /// Borrows the **entire** backing f32 storage, regardless of layout.
    ///
    /// Unlike [`Tensor::as_slice_f32`] this does not require contiguity: it
    /// is the raw buffer strided kernels index into via
    /// [`Tensor::storage_offset`] and [`Tensor::strides`] (or a
    /// [`LaneMap`](crate::LaneMap)). Returns `None` for non-f32 storage.
    pub fn storage_f32(&self) -> Option<&[f32]> {
        self.storage.as_f32()
    }

    /// This view's base offset into its backing storage, in elements.
    pub fn storage_offset(&self) -> usize {
        self.offset
    }

    /// This view's elements of `src` (its storage) in row-major order. A
    /// dense view is one slice copy: setting up the strided walk would
    /// double the cost of the small dense copies a decode step makes.
    fn copy_out<T: Copy + Default>(&self, src: &[T]) -> Vec<T> {
        if self.is_contiguous() {
            return src[self.offset..self.offset + self.numel()].to_vec();
        }
        dense_copy(src, &self.shape, &self.strides, self.offset)
    }

    /// Writes rows `rows` (of [`transposed_rows`](crate::transposed_rows))
    /// of this f32
    /// view's dense row-major copy into `out`, which holds exactly those
    /// rows. The copy reads [`TILE_ROWS`](crate::TILE_ROWS) source-adjacent
    /// rows per tile, so each output column costs one cache line instead of
    /// one per row; disjoint row ranges can be filled independently.
    ///
    /// # Errors
    ///
    /// Fails when the tensor is not f32, the view is not transpose-shaped,
    /// or `rows`/`out` do not fit it.
    pub fn copy_transposed_rows(&self, rows: Range<usize>, out: &mut [f32]) -> Result<()> {
        let src = self.storage.as_f32().ok_or(TensorError::DTypeMismatch {
            expected: "f32",
            actual: self.dtype().name(),
            op: "copy_transposed_rows",
        })?;
        transposed_copy(src, &self.shape, &self.strides, self.offset, rows, out).ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "copy_transposed_rows: {} output elements do not fit the transposed view {:?} (strides {:?})",
                out.len(),
                self.shape,
                self.strides
            ))
        })
    }

    /// Copies the logical contents (row-major) into a `Vec<f32>`.
    ///
    /// # Errors
    ///
    /// Fails when the tensor is not f32.
    pub fn to_vec_f32(&self) -> Result<Vec<f32>> {
        let src = self.storage.as_f32().ok_or(TensorError::DTypeMismatch {
            expected: "f32",
            actual: self.dtype().name(),
            op: "to_vec_f32",
        })?;
        Ok(self.copy_out(src))
    }

    /// Copies the logical contents (row-major) into a `Vec<i64>`.
    ///
    /// # Errors
    ///
    /// Fails when the tensor is not i64.
    pub fn to_vec_i64(&self) -> Result<Vec<i64>> {
        let src = self.storage.as_i64().ok_or(TensorError::DTypeMismatch {
            expected: "i64",
            actual: self.dtype().name(),
            op: "to_vec_i64",
        })?;
        Ok(self.copy_out(src))
    }

    /// Copies the logical contents (row-major) into a `Vec<bool>`.
    ///
    /// # Errors
    ///
    /// Fails when the tensor is not bool.
    pub fn to_vec_bool(&self) -> Result<Vec<bool>> {
        let src = self.storage.as_bool().ok_or(TensorError::DTypeMismatch {
            expected: "bool",
            actual: self.dtype().name(),
            op: "to_vec_bool",
        })?;
        Ok(self.copy_out(src))
    }

    // ------------------------------------------------------------------
    // Functional combinators used by the op kernels
    // ------------------------------------------------------------------

    /// Applies `f` element-wise, returning a new contiguous f32 tensor.
    ///
    /// # Errors
    ///
    /// Fails when the tensor is not f32.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Result<Tensor> {
        let data = self.to_vec_f32()?;
        Tensor::from_vec(data.into_iter().map(f).collect(), &self.shape)
    }

    /// Applies `f` pairwise with NumPy-style broadcasting, returning a new
    /// contiguous f32 tensor of the broadcast shape.
    ///
    /// # Errors
    ///
    /// Fails when shapes cannot broadcast or either tensor is not f32.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        let out_shape = broadcast_shapes(&self.shape, &other.shape)?;
        let ls = self.storage.as_f32().ok_or(TensorError::DTypeMismatch {
            expected: "f32",
            actual: self.dtype().name(),
            op: "zip_map",
        })?;
        let rs = other.storage.as_f32().ok_or(TensorError::DTypeMismatch {
            expected: "f32",
            actual: other.dtype().name(),
            op: "zip_map",
        })?;
        // Fast path: identical contiguous shapes.
        if self.shape == other.shape {
            if let (Some(a), Some(b)) = (self.as_slice_f32(), other.as_slice_f32()) {
                let data: Vec<f32> = a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect();
                return Tensor::from_vec(data, &out_shape);
            }
        }
        // Fast path: contiguous lhs with rhs broadcast over a trailing
        // suffix (bias adds, per-channel affine transforms) — the pattern
        // every normalization and residual in the model suite hits.
        if out_shape == self.shape && other.numel() > 0 {
            if let (Some(a), Some(b)) = (self.as_slice_f32(), other.as_slice_f32()) {
                let suffix = other.numel();
                if self.numel().is_multiple_of(suffix) {
                    let pad = out_shape.len() - other.shape.len();
                    let trailing_match = other
                        .shape
                        .iter()
                        .zip(&out_shape[pad..])
                        .all(|(&o, &s)| o == s);
                    if trailing_match {
                        let mut data = Vec::with_capacity(self.numel());
                        for chunk in a.chunks_exact(suffix) {
                            data.extend(chunk.iter().zip(b).map(|(&x, &y)| f(x, y)));
                        }
                        return Tensor::from_vec(data, &out_shape);
                    }
                }
            }
        }
        // Fast path: contiguous lhs with rhs broadcast from a single axis
        // (`[1, C, 1, 1]`-style per-channel parameters in batch norms).
        if out_shape == self.shape {
            if let (Some(a), Some(b)) = (self.as_slice_f32(), other.as_slice_f32()) {
                let pad = out_shape.len() - other.shape.len();
                let non_unit: Vec<usize> = other
                    .shape
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != 1)
                    .map(|(i, _)| i)
                    .collect();
                if non_unit.len() == 1 {
                    let axis = pad + non_unit[0];
                    let c = other.shape[non_unit[0]];
                    if out_shape[axis] == c {
                        let plane: usize = out_shape[axis + 1..].iter().product();
                        let mut data = Vec::with_capacity(self.numel());
                        for (i, &x) in a.iter().enumerate() {
                            data.push(f(x, b[(i / plane) % c]));
                        }
                        return Tensor::from_vec(data, &out_shape);
                    }
                }
            }
        }
        let lstr = broadcast_strides(&self.shape, &self.strides, &out_shape);
        let rstr = broadcast_strides(&other.shape, &other.strides, &out_shape);
        let mut data = Vec::with_capacity(num_elements(&out_shape));
        for_each_run(
            &out_shape,
            [&lstr, &rstr],
            [self.offset, other.offset],
            |[a, b], len, [sa, sb]| {
                data.extend((0..len as isize).map(|i| {
                    f(
                        ls[(a as isize + i * sa) as usize],
                        rs[(b as isize + i * sb) as usize],
                    )
                }));
            },
        );
        Tensor::from_vec(data, &out_shape)
    }

    /// Splits the shape around `dim` into `(outer, d, inner)`: the product
    /// of the dims before `dim`, the size of `dim` itself, and the product
    /// of the dims after it. In a contiguous row-major buffer, reduction
    /// lane `(o, l)` then occupies elements `o * d * inner + t * inner + l`
    /// for `t in 0..d` — the decomposition fused lane kernels (softmax and
    /// friends) iterate over.
    ///
    /// # Errors
    ///
    /// Fails when `dim` is out of range.
    pub fn lane_dims(&self, dim: usize) -> Result<(usize, usize, usize)> {
        if dim >= self.rank() {
            return Err(TensorError::InvalidDim {
                dim,
                rank: self.rank(),
            });
        }
        let outer: usize = self.shape[..dim].iter().product();
        let inner: usize = self.shape[dim + 1..].iter().product();
        Ok((outer, self.shape[dim], inner))
    }

    /// Reduces dimension `dim` with `fold`, starting from `init` for every
    /// output lane. When `keepdim` is true the reduced dim is kept as size 1.
    ///
    /// # Errors
    ///
    /// Fails when `dim` is out of range or the tensor is not f32.
    pub fn reduce_dim(
        &self,
        dim: usize,
        keepdim: bool,
        init: f32,
        fold: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        let out = self.fold_dim(dim, init, fold)?;
        let mut out_shape = self.shape.clone();
        if keepdim {
            out_shape[dim] = 1;
        } else {
            out_shape.remove(dim);
        }
        Tensor::from_vec(out, &out_shape)
    }

    /// Folds every lane along `dim` into one accumulator of any type: each
    /// lane starts from `init` and takes its values in increasing index
    /// order. Returns the accumulators row-major over the shape with `dim`
    /// removed — [`Tensor::reduce_dim`] is the `f32` case, and an
    /// accumulator that counts its own steps knows each value's index
    /// (argmax).
    ///
    /// # Errors
    ///
    /// Fails when `dim` is out of range or the tensor is not f32.
    pub fn fold_dim<A: Copy>(
        &self,
        dim: usize,
        init: A,
        fold: impl Fn(A, f32) -> A,
    ) -> Result<Vec<A>> {
        if dim >= self.rank() {
            return Err(TensorError::InvalidDim {
                dim,
                rank: self.rank(),
            });
        }
        let src = self.storage.as_f32().ok_or(TensorError::DTypeMismatch {
            expected: "f32",
            actual: self.dtype().name(),
            op: "fold_dim",
        })?;
        let mut lanes = self.shape.clone();
        lanes[dim] = 1;
        let mut acc_strides = contiguous_strides(&lanes);
        acc_strides[dim] = 0;
        let mut acc = vec![init; num_elements(&lanes)];
        // row-major over the input, so each lane sees its values in order
        for_each_run(
            &self.shape,
            [&self.strides, &acc_strides],
            [self.offset, 0],
            |[s, a], len, [ss, sa]| {
                for i in 0..len as isize {
                    let slot = &mut acc[(a as isize + i * sa) as usize];
                    *slot = fold(*slot, src[(s as isize + i * ss) as usize]);
                }
            },
        );
        Ok(acc)
    }
}

/// A kernel that takes `impl Into<Cow<Tensor>>` reads a borrowed tensor
/// and may reuse the buffer of an owned one.
impl<'a> From<&'a Tensor> for Cow<'a, Tensor> {
    fn from(t: &'a Tensor) -> Self {
        Cow::Borrowed(t)
    }
}

impl From<Tensor> for Cow<'_, Tensor> {
    fn from(t: Tensor) -> Self {
        Cow::Owned(t)
    }
}

impl PartialEq for Tensor {
    /// Logical equality: same dtype, shape, and element values (views with
    /// different strides over the same values compare equal).
    fn eq(&self, other: &Self) -> bool {
        if self.dtype() != other.dtype() || self.shape != other.shape {
            return false;
        }
        match self.dtype() {
            DType::F32 => self.to_vec_f32().unwrap() == other.to_vec_f32().unwrap(),
            DType::I64 => self.to_vec_i64().unwrap() == other.to_vec_i64().unwrap(),
            DType::Bool => self.to_vec_bool().unwrap() == other.to_vec_bool().unwrap(),
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor<{}>{:?}", self.dtype(), self.shape)?;
        if self.numel() <= 16 {
            match self.dtype() {
                DType::F32 => write!(f, " {:?}", self.to_vec_f32().map_err(|_| std::fmt::Error)?),
                DType::I64 => write!(f, " {:?}", self.to_vec_i64().map_err(|_| std::fmt::Error)?),
                DType::Bool => write!(f, " {:?}", self.to_vec_bool().map_err(|_| std::fmt::Error)?),
            }
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).to_vec_f32().unwrap(), vec![0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).to_vec_f32().unwrap(), vec![1.0; 3]);
        assert_eq!(Tensor::scalar(7.0).item().unwrap(), 7.0);
        let a = Tensor::arange(0.0, 5.0, 2.0);
        assert_eq!(a.to_vec_f32().unwrap(), vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn indexing_and_set_cow() {
        let mut a = Tensor::zeros(&[2, 2]);
        let b = a.clone();
        a.set(&[0, 1], 9.0).unwrap();
        assert_eq!(a.at(&[0, 1]).unwrap(), 9.0);
        // b must be unaffected: set() copied on write.
        assert_eq!(b.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn index_out_of_bounds() {
        let a = Tensor::zeros(&[2, 2]);
        assert!(a.at(&[2, 0]).is_err());
        assert!(a.at(&[0]).is_err());
    }

    #[test]
    fn dtype_mismatch_reported() {
        let a = Tensor::from_i64(vec![1, 2], &[2]).unwrap();
        assert!(matches!(a.at(&[0]), Err(TensorError::DTypeMismatch { .. })));
        assert_eq!(a.at_i64(&[1]).unwrap(), 2);
    }

    #[test]
    fn zip_map_broadcasts() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let c = a.zip_map(&b, |x, y| x + y).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(
            c.to_vec_f32().unwrap(),
            vec![11.0, 21.0, 12.0, 22.0, 13.0, 23.0]
        );
    }

    #[test]
    fn reduce_dim_sums() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let s = a.reduce_dim(1, false, 0.0, |acc, v| acc + v).unwrap();
        assert_eq!(s.shape(), &[2]);
        assert_eq!(s.to_vec_f32().unwrap(), vec![6.0, 15.0]);
        let k = a.reduce_dim(0, true, f32::NEG_INFINITY, f32::max).unwrap();
        assert_eq!(k.shape(), &[1, 3]);
        assert_eq!(k.to_vec_f32().unwrap(), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn logical_equality_ignores_strides() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = a.permute(&[1, 0]).unwrap().permute(&[1, 0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn size_bytes_counts_logical_elements() {
        let a = Tensor::zeros(&[2, 3]);
        assert_eq!(a.size_bytes(), 24);
    }

    #[test]
    fn display_nonempty() {
        let t = Tensor::scalar(1.0);
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big}").contains("[100]"));
    }

    #[test]
    fn lane_dims_decomposes_around_the_dim() {
        let t = Tensor::zeros(&[2, 5, 3]);
        assert_eq!(t.lane_dims(0).unwrap(), (1, 2, 15));
        assert_eq!(t.lane_dims(1).unwrap(), (2, 5, 3));
        assert_eq!(t.lane_dims(2).unwrap(), (10, 3, 1));
        assert!(t.lane_dims(3).is_err());
        assert!(Tensor::scalar(1.0).lane_dims(0).is_err());
    }

    #[test]
    fn reclaim_succeeds_only_on_unique_full_views() {
        // uniquely owned contiguous tensor: buffer comes back
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let v = t.try_reclaim_f32().expect("unique owner reclaims");
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);

        // shared storage: reclaim refuses while a clone is alive
        let t = Tensor::zeros(&[4]);
        let alias = t.clone();
        let t = t.try_reclaim_f32().expect_err("a shared buffer stays put");
        assert!(t.shares_storage(&alias)); // handed back unchanged
        drop(t);
        assert!(alias.try_reclaim_f32().is_ok()); // last owner wins

        // nontrivial view: transposed 2x3 is not reclaimable
        let t = Tensor::from_vec(vec![0.0; 6], &[2, 3])
            .unwrap()
            .permute(&[1, 0])
            .unwrap();
        assert!(t.try_reclaim_f32().is_err());

        // i64 storage is not an f32 buffer
        let ids = Tensor::from_i64(vec![1, 2], &[2]).unwrap();
        assert!(ids.try_reclaim_f32().is_err());
    }
}
