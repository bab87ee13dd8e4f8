//! Shape and stride arithmetic shared by the whole crate.

use crate::TensorError;

/// Returns the number of elements implied by `shape`.
///
/// An empty shape denotes a scalar and has one element.
///
/// # Examples
///
/// ```
/// assert_eq!(ngb_tensor::num_elements(&[2, 3, 4]), 24);
/// assert_eq!(ngb_tensor::num_elements(&[]), 1);
/// ```
pub fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Computes row-major ("C order") strides for `shape`, in **elements**.
///
/// # Examples
///
/// ```
/// assert_eq!(ngb_tensor::contiguous_strides(&[2, 3, 4]), vec![12, 4, 1]);
/// ```
pub fn contiguous_strides(shape: &[usize]) -> Vec<isize> {
    let mut strides = vec![1isize; shape.len()];
    let mut acc = 1isize;
    for (i, &dim) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc *= dim as isize;
    }
    strides
}

/// Broadcasts two shapes following the NumPy/PyTorch rules: trailing
/// dimensions must be equal or one of them must be `1`.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastError`] when a trailing dimension pair is
/// incompatible.
///
/// # Examples
///
/// ```
/// let s = ngb_tensor::broadcast_shapes(&[8, 1, 6], &[7, 1]).unwrap();
/// assert_eq!(s, vec![8, 7, 6]);
/// ```
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>, TensorError> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let l = if i < rank - lhs.len() {
            1
        } else {
            lhs[i - (rank - lhs.len())]
        };
        let r = if i < rank - rhs.len() {
            1
        } else {
            rhs[i - (rank - rhs.len())]
        };
        out[i] = if l == r || r == 1 {
            l
        } else if l == 1 {
            r
        } else {
            return Err(TensorError::BroadcastError {
                lhs: lhs.to_vec(),
                rhs: rhs.to_vec(),
            });
        };
    }
    Ok(out)
}

/// Strides to iterate a tensor of `shape`/`strides` as if it had been
/// broadcast to `target` (size-1 dims get stride 0).
///
/// Callers must have validated broadcastability via [`broadcast_shapes`].
pub(crate) fn broadcast_strides(
    shape: &[usize],
    strides: &[isize],
    target: &[usize],
) -> Vec<isize> {
    let pad = target.len() - shape.len();
    let mut out = vec![0isize; target.len()];
    for i in 0..shape.len() {
        out[pad + i] = if shape[i] == 1 && target[pad + i] != 1 {
            0
        } else {
            strides[i]
        };
    }
    out
}

/// Resolves one `-1`-style wildcard in a reshape target.
///
/// `target` entries are `usize::MAX` for the inferred dimension. Returns the
/// fully resolved shape. [`Tensor::reshape`](crate::Tensor::reshape),
/// [`Tensor::view`](crate::Tensor::view) and graph shape inference all
/// resolve targets here.
///
/// # Errors
///
/// Fails if more than one wildcard is present or element counts do not match.
///
/// # Examples
///
/// ```
/// use ngb_tensor::resolve_reshape;
/// assert_eq!(resolve_reshape(12, &[3, usize::MAX]).unwrap(), vec![3, 4]);
/// assert!(resolve_reshape(12, &[5, usize::MAX]).is_err());
/// ```
pub fn resolve_reshape(numel: usize, target: &[usize]) -> Result<Vec<usize>, TensorError> {
    let wildcards = target.iter().filter(|&&d| d == usize::MAX).count();
    if wildcards > 1 {
        return Err(TensorError::InvalidArgument(
            "reshape target may contain at most one inferred dimension".into(),
        ));
    }
    let mut out = target.to_vec();
    if wildcards == 1 {
        let known: usize = target.iter().filter(|&&d| d != usize::MAX).product();
        if known == 0 || !numel.is_multiple_of(known) {
            return Err(TensorError::ShapeMismatch {
                expected: vec![numel],
                actual: target
                    .iter()
                    .map(|&d| if d == usize::MAX { 0 } else { d })
                    .collect(),
                op: "reshape",
            });
        }
        for d in out.iter_mut() {
            if *d == usize::MAX {
                *d = numel / known;
            }
        }
    }
    if num_elements(&out) != numel {
        return Err(TensorError::ShapeMismatch {
            expected: vec![numel],
            actual: out,
            op: "reshape",
        });
    }
    Ok(out)
}

/// Whether `strides` lay `shape` out densely in row-major order. A size-1
/// dim's stride is irrelevant, so it never breaks density.
///
/// # Examples
///
/// ```
/// use ngb_tensor::is_contiguous;
/// assert!(is_contiguous(&[2, 1, 3], &[3, 99, 1]));
/// assert!(!is_contiguous(&[2, 3], &[1, 2]));
/// ```
#[inline]
pub fn is_contiguous(shape: &[usize], strides: &[isize]) -> bool {
    let mut acc = 1isize;
    for (&dim, &stride) in shape.iter().zip(strides).rev() {
        if dim == 1 {
            continue;
        }
        if stride != acc {
            return false;
        }
        acc *= dim as isize;
    }
    true
}

/// Strides that view a tensor of `shape`/`strides` expanded to `target`
/// without copying (`torch.expand`): leading new dims and size-1 dims that
/// grow get stride 0, equal dims keep theirs. `None` when `target` has
/// fewer dims than `shape` or a dim of `shape` is neither 1 nor equal to
/// its target dim.
///
/// # Examples
///
/// ```
/// use ngb_tensor::expand_strides;
/// assert_eq!(expand_strides(&[3, 1], &[1, 1], &[2, 3, 4]), Some(vec![0, 1, 0]));
/// assert_eq!(expand_strides(&[3], &[1], &[4]), None);
/// ```
#[inline]
pub fn expand_strides(shape: &[usize], strides: &[isize], target: &[usize]) -> Option<Vec<isize>> {
    let pad = target.len().checked_sub(shape.len())?;
    let mut out = vec![0isize; target.len()];
    for i in 0..shape.len() {
        if shape[i] == target[pad + i] {
            out[pad + i] = strides[i];
        } else if shape[i] != 1 {
            return None;
        }
    }
    Some(out)
}

/// Computes strides that let a view of `target` alias the same storage as a
/// tensor of `shape`/`strides`, or `None` when no such aliasing exists and a
/// reshape must copy.
///
/// This is PyTorch's `computeStride` check: the input is scanned back-to-front
/// in maximal chunks of dimensions that are laid out contiguously relative to
/// each other; each chunk may be merged/split freely into target dims, but a
/// target dim can never span two chunks.
///
/// `shape` and `target` must describe the same element count.
///
/// # Examples
///
/// ```
/// use ngb_tensor::reshape_strides;
/// // contiguous [2,3,4] -> [6,4] merges cleanly
/// assert_eq!(reshape_strides(&[2, 3, 4], &[12, 4, 1], &[6, 4]), Some(vec![4, 1]));
/// // a full transpose cannot be viewed
/// assert_eq!(reshape_strides(&[2, 3], &[1, 2], &[6]), None);
/// ```
pub fn reshape_strides(shape: &[usize], strides: &[isize], target: &[usize]) -> Option<Vec<isize>> {
    debug_assert_eq!(num_elements(shape), num_elements(target));
    if shape.is_empty() || num_elements(shape) == 0 {
        // Scalars and empty tensors view freely; strides are arbitrary.
        return Some(contiguous_strides(target));
    }
    let mut out = vec![0isize; target.len()];
    let mut view_d = target.len() as isize - 1;
    let mut chunk_base_stride = *strides.last().expect("non-empty shape");
    let mut tensor_numel: usize = 1;
    let mut view_numel: usize = 1;
    for d in (0..shape.len()).rev() {
        tensor_numel *= shape[d];
        // A chunk ends where the next-outer dim is not contiguous with it
        // (size-1 dims never break a chunk: their stride is irrelevant).
        let chunk_end = d == 0
            || (shape[d - 1] != 1 && strides[d - 1] != tensor_numel as isize * chunk_base_stride);
        if chunk_end {
            while view_d >= 0 && (view_numel < tensor_numel || target[view_d as usize] == 1) {
                out[view_d as usize] = view_numel as isize * chunk_base_stride;
                view_numel *= target[view_d as usize];
                view_d -= 1;
            }
            if view_numel != tensor_numel {
                return None;
            }
            if d > 0 {
                chunk_base_stride = strides[d - 1];
                tensor_numel = 1;
                view_numel = 1;
            }
        }
    }
    if view_d != -1 {
        return None;
    }
    Some(out)
}

/// Normalizes a possibly-negative dimension index (`-1` = last) into `0..rank`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDim`] when out of range.
pub fn normalize_dim(dim: isize, rank: usize) -> Result<usize, TensorError> {
    let d = if dim < 0 { dim + rank as isize } else { dim };
    if d < 0 || d as usize >= rank {
        Err(TensorError::InvalidDim {
            dim: dim.unsigned_abs(),
            rank,
        })
    } else {
        Ok(d as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_of_scalar_are_empty() {
        assert!(contiguous_strides(&[]).is_empty());
        assert_eq!(num_elements(&[]), 1);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(contiguous_strides(&[4]), vec![1]);
        assert_eq!(contiguous_strides(&[2, 3]), vec![3, 1]);
        assert_eq!(contiguous_strides(&[5, 1, 2]), vec![2, 2, 1]);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[3, 1], &[1, 4]).unwrap(), vec![3, 4]);
        assert_eq!(broadcast_shapes(&[1], &[2, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[2]).unwrap(), vec![2]);
    }

    #[test]
    fn broadcast_incompatible() {
        assert!(broadcast_shapes(&[2, 3], &[4, 3]).is_err());
    }

    #[test]
    fn broadcast_strides_zero_out_expanded_dims() {
        let s = broadcast_strides(&[3, 1], &[1, 1], &[3, 4]);
        assert_eq!(s, vec![1, 0]);
        let s = broadcast_strides(&[4], &[1], &[2, 3, 4]);
        assert_eq!(s, vec![0, 0, 1]);
    }

    #[test]
    fn reshape_wildcard() {
        assert_eq!(resolve_reshape(12, &[3, usize::MAX]).unwrap(), vec![3, 4]);
        assert_eq!(resolve_reshape(12, &[12]).unwrap(), vec![12]);
        assert!(resolve_reshape(12, &[5, usize::MAX]).is_err());
        assert!(resolve_reshape(12, &[usize::MAX, usize::MAX]).is_err());
        assert!(resolve_reshape(12, &[3, 5]).is_err());
    }

    #[test]
    fn reshape_strides_contiguous_merge_split() {
        // merge middle dims of a contiguous tensor
        assert_eq!(
            reshape_strides(&[2, 3, 4], &[12, 4, 1], &[2, 12]),
            Some(vec![12, 1])
        );
        // split a dim of a contiguous tensor
        assert_eq!(
            reshape_strides(&[6, 4], &[4, 1], &[2, 3, 4]),
            Some(vec![12, 4, 1])
        );
    }

    #[test]
    fn reshape_strides_permuted_batch_merge() {
        // [1, H, T, hd] permuted view with strides of [1, T, H, hd] source:
        // merging the size-1 batch into H stays a view.
        let (h, t, hd) = (2usize, 3usize, 4usize);
        let strides = [
            (t * h * hd) as isize, // batch (size 1)
            hd as isize,           // H after permute
            (h * hd) as isize,     // T after permute
            1,
        ];
        assert_eq!(
            reshape_strides(&[1, h, t, hd], &strides, &[h, t, hd]),
            Some(vec![hd as isize, (h * hd) as isize, 1])
        );
    }

    #[test]
    fn reshape_strides_rejects_chunk_spanning_merge() {
        // transpose of [2,3]: merging both dims would span two chunks
        assert_eq!(reshape_strides(&[2, 3], &[1, 2], &[6]), None);
        // merging H and T of a permuted [H, T, hd] view is incompatible
        assert_eq!(reshape_strides(&[2, 3, 4], &[4, 8, 1], &[6, 4]), None);
    }

    #[test]
    fn reshape_strides_size_one_dims_are_free() {
        // inserting/removing size-1 dims never copies
        assert_eq!(
            reshape_strides(&[2, 3], &[3, 1], &[2, 1, 3, 1]),
            Some(vec![3, 3, 1, 1])
        );
        assert_eq!(
            reshape_strides(&[2, 1, 3], &[3, 99, 1], &[2, 3]),
            Some(vec![3, 1])
        );
    }

    #[test]
    fn reshape_strides_scalar_and_empty() {
        assert_eq!(reshape_strides(&[], &[], &[1, 1]), Some(vec![1, 1]));
        assert_eq!(reshape_strides(&[2, 0], &[0, 1], &[0, 2]), Some(vec![2, 1]));
    }

    #[test]
    fn normalize_dim_handles_negative() {
        assert_eq!(normalize_dim(-1, 3).unwrap(), 2);
        assert_eq!(normalize_dim(0, 3).unwrap(), 0);
        assert!(normalize_dim(3, 3).is_err());
        assert!(normalize_dim(-4, 3).is_err());
    }
}
