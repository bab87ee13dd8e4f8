//! Memory (layout) operators and their costs (Table 2 "Memory" group).
//!
//! The executable semantics live on [`ngb_tensor::Tensor`]; this module adds
//! the cost view that distinguishes *metadata-only* operators (`view`,
//! `permute`, `expand`, `squeeze`, `split` — zero traffic, zero kernels)
//! from *copying* operators (`contiguous`, `cat` — full traffic). That
//! distinction is exactly what changes between deployment flows: ORT's CPU
//! fallback turns cheap layout ops into device transfers (§4.2).

use ngb_tensor::telemetry::note_materialized;
use ngb_tensor::{
    contiguous_strides, num_elements, transposed_rows, DType, LaneMap, Tensor, TILE_ROWS,
};

use crate::{parallel, OpCost, Result};

/// Reshape that preserves PyTorch semantics: views when contiguous, copies
/// otherwise (re-exported here so callers see the whole memory-op family in
/// one place).
///
/// # Errors
///
/// Fails when element counts differ.
pub fn reshape(x: &Tensor, shape: &[usize]) -> Result<Tensor> {
    x.reshape(shape)
}

/// Zero-copy `view`; fails on non-contiguous inputs like PyTorch.
///
/// # Errors
///
/// Fails on non-contiguous input or element-count mismatch.
pub fn view(x: &Tensor, shape: &[usize]) -> Result<Tensor> {
    x.view(shape)
}

/// Zero-copy axis permutation.
///
/// # Errors
///
/// Fails when `perm` is not a permutation of the rank.
pub fn permute(x: &Tensor, perm: &[usize]) -> Result<Tensor> {
    x.permute(perm)
}

/// Zero-copy transpose of two dims.
///
/// # Errors
///
/// Fails when a dim is out of range.
pub fn transpose(x: &Tensor, d0: isize, d1: isize) -> Result<Tensor> {
    x.transpose(d0, d1)
}

/// Materializes a dense row-major copy.
///
/// A transpose-shaped f32 view (its unit-stride dim is not the innermost)
/// of at least one [`parallel::GRAIN_ELEMS`] is copied in transpose tiles,
/// its output rows split into [`contiguous_blocks`] blocks of
/// [`TILE_ROWS`] rows through [`parallel::par_blocks_out`]. Every other
/// view, and every smaller copy, is [`Tensor::contiguous`]. Either way the
/// materialized bytes are counted once, on the calling thread.
pub fn contiguous(x: &Tensor) -> Tensor {
    let (Some((rows, cols)), DType::F32) = (contiguous_blocks(x.shape(), x.strides()), x.dtype())
    else {
        return x.contiguous();
    };
    note_materialized(x.size_bytes());
    let mut out = vec![0.0f32; rows * cols];
    parallel::par_blocks_out(&mut out, rows, cols, TILE_ROWS, |r, win| {
        x.copy_transposed_rows(r, win)
            .expect("rows of the view's own transposed layout");
    });
    Tensor::from_vec(out, x.shape()).expect("numel preserved")
}

/// `(rows, cols)` of the tiled split [`contiguous`] dispatches for a view
/// of `shape`/`strides`: the coalesced transpose's rows, in blocks of
/// [`TILE_ROWS`]. `None` below one grain or when the view is not
/// transpose-shaped (the copy then runs serially).
pub fn contiguous_blocks(shape: &[usize], strides: &[isize]) -> Option<(usize, usize)> {
    if num_elements(shape) < parallel::GRAIN_ELEMS {
        return None;
    }
    transposed_rows(shape, strides)
}

/// Zero-copy broadcast expansion.
///
/// # Errors
///
/// Fails when a non-1 dim differs from the target.
pub fn expand(x: &Tensor, shape: &[usize]) -> Result<Tensor> {
    x.expand(shape)
}

/// Removes a size-1 dim.
///
/// # Errors
///
/// Fails when the dim is not size 1.
pub fn squeeze(x: &Tensor, dim: isize) -> Result<Tensor> {
    x.squeeze(dim)
}

/// Inserts a size-1 dim.
///
/// # Errors
///
/// Fails when `dim > rank`.
pub fn unsqueeze(x: &Tensor, dim: usize) -> Result<Tensor> {
    x.unsqueeze(dim)
}

/// Zero-copy split into chunks along `dim`.
///
/// # Errors
///
/// Fails when `size` is zero or `dim` out of range.
pub fn split(x: &Tensor, size: usize, dim: usize) -> Result<Vec<Tensor>> {
    x.split(size, dim)
}

/// Copying concatenation along `dim`.
///
/// # Errors
///
/// Fails when shapes disagree off-dim.
pub fn cat(xs: &[Tensor], dim: usize) -> Result<Tensor> {
    Tensor::cat(xs, dim)
}

/// Cyclically rolls the tensor by `shift` positions along `dim`
/// (`torch.roll`) — the memory operator behind Swin's shifted windows.
///
/// The result is dense. With `inner` the product of the dims after `dim`,
/// output row `(o, i)` of `inner` elements is input row
/// `(o, (i + d - s) mod d)`: one slice copy when the input is dense, a
/// strided read in place otherwise. f32 rows fan out through
/// [`parallel::par_rows_out`]; i64 and bool inputs are read out in logical
/// order and rolled by the same row body serially.
///
/// # Errors
///
/// Fails when `dim` is out of range.
pub fn roll(x: &Tensor, shift: isize, dim: usize) -> Result<Tensor> {
    if dim >= x.rank() {
        return Err(ngb_tensor::TensorError::InvalidDim {
            dim,
            rank: x.rank(),
        });
    }
    let shape = x.shape();
    match x.dtype() {
        DType::F32 => {
            let src = x.storage_f32().expect("f32 storage");
            let (strides, offset) = (x.strides(), x.storage_offset());
            let rows = RollRows::new(shape, strides, offset, x.is_contiguous(), dim, shift);
            let mut out = vec![0.0f32; x.numel()];
            parallel::par_rows_out(&mut out, rows.count, rows.inner, |first, win| {
                rows.copy(src, first, win)
            });
            Tensor::from_vec(out, shape)
        }
        DType::I64 => Tensor::from_i64(roll_dense(&x.to_vec_i64()?, shape, dim, shift), shape),
        DType::Bool => Tensor::from_bool(roll_dense(&x.to_vec_bool()?, shape, dim, shift), shape),
    }
}

/// Serial [`roll`] of a dense row-major buffer of any element type.
fn roll_dense<T: Copy>(src: &[T], shape: &[usize], dim: usize, shift: isize) -> Vec<T> {
    let mut out = src.to_vec();
    RollRows::new(shape, &contiguous_strides(shape), 0, true, dim, shift).copy(src, 0, &mut out);
    out
}

/// Row geometry of a [`roll`] along `dim` of size `d` by `s`: output row
/// `r = o * d + i` (`inner` elements) reads input row
/// `(o, (i + d - s) mod d)`.
struct RollRows {
    count: usize,
    d: usize,
    s: usize,
    inner: usize,
    /// Storage offset of the first element when the input is dense.
    dense_base: Option<usize>,
    /// Lanes along `dim`, to read a strided input in place.
    map: LaneMap,
    /// Size and storage stride of the innermost dim after `dim` (1 and 0
    /// when `dim` is innermost): a strided row is read in runs of `tail`.
    tail: usize,
    tail_stride: isize,
}

impl RollRows {
    fn new(
        shape: &[usize],
        strides: &[isize],
        offset: usize,
        dense: bool,
        dim: usize,
        shift: isize,
    ) -> Self {
        let d = shape[dim];
        let inner: usize = shape[dim + 1..].iter().product();
        let last = shape.len() - 1;
        let (tail, tail_stride) = if dim < last {
            (shape[last], strides[last])
        } else {
            (1, 0)
        };
        RollRows {
            count: num_elements(shape) / inner.max(1),
            d,
            s: shift.rem_euclid(d.max(1) as isize) as usize,
            inner,
            dense_base: dense.then_some(offset),
            map: LaneMap::new(shape, strides, offset, dim),
            tail,
            tail_stride,
        }
    }

    /// Writes output rows `first_row..` into `out`, a whole number of rows.
    fn copy<T: Copy>(&self, src: &[T], first_row: usize, out: &mut [T]) {
        let (d, inner) = (self.d, self.inner);
        for (r, orow) in out.chunks_exact_mut(inner.max(1)).enumerate() {
            let (o, i) = ((first_row + r) / d, (first_row + r) % d);
            let si = (i + d - self.s) % d;
            if let Some(base) = self.dense_base {
                let start = base + (o * d + si) * inner;
                orow.copy_from_slice(&src[start..start + inner]);
                continue;
            }
            let step = si as isize * self.map.step();
            for (k, run) in orow.chunks_exact_mut(self.tail).enumerate() {
                let base = self.map.lane_base(o, k * self.tail) as isize + step;
                for (t, v) in run.iter_mut().enumerate() {
                    *v = src[(base + t as isize * self.tail_stride) as usize];
                }
            }
        }
    }
}

/// Cost of [`roll`] on `shape`: a full copy (one kernel).
pub fn roll_cost(shape: &[usize]) -> OpCost {
    OpCost::copy(ngb_tensor::num_elements(shape))
}

/// Cost of any metadata-only layout op (`view`, `permute`, `transpose`,
/// `expand`, `squeeze`, `unsqueeze`, `split`): a header rewrite, no
/// traffic, no kernel. Eager frameworks still pay dispatch overhead, which
/// the platform model adds per *node*, not per kernel.
pub fn metadata_cost() -> OpCost {
    OpCost::metadata()
}

/// Cost of `contiguous` on `shape`: a full copy when the input is assumed
/// non-contiguous (the conservative, paper-relevant case).
pub fn contiguous_cost(shape: &[usize]) -> OpCost {
    OpCost::copy(ngb_tensor::num_elements(shape))
}

/// Cost of `reshape` given whether the input is contiguous.
pub fn reshape_cost(shape: &[usize], input_contiguous: bool) -> OpCost {
    if input_contiguous {
        OpCost::metadata()
    } else {
        contiguous_cost(shape)
    }
}

/// Cost of `cat` producing `out_elems` total elements.
pub fn cat_cost(out_elems: usize) -> OpCost {
    OpCost::copy(out_elems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::test_runner::with_test_runner;
    use crate::parallel::GRAIN_ELEMS;
    use ngb_tensor::random::TensorRng;

    /// The pre-kernel formulation: `cat(tail, head)` along `dim`, and a
    /// dense copy for a whole-period shift.
    fn cat_roll(x: &Tensor, shift: isize, dim: usize) -> Tensor {
        let d = x.shape()[dim];
        let s = shift.rem_euclid(d as isize) as usize;
        if s == 0 {
            return x.contiguous();
        }
        let head = x.narrow(dim, 0, d - s).unwrap();
        let tail = x.narrow(dim, d - s, s).unwrap();
        Tensor::cat(&[tail, head], dim).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn roll_matches_cat_formulation_bitwise() {
        let mut rng = TensorRng::seed(7);
        // [3, 4, 48, 60] is past one grain, so every dim's rows split
        // into several chunks
        let large = [3, 4, 48, 60];
        assert!(large.iter().product::<usize>() > GRAIN_ELEMS);
        let inputs = [
            rng.normal(&[2, 3, 4, 5]),
            rng.normal(&[5, 2, 4, 3]).permute(&[1, 3, 2, 0]).unwrap(),
            rng.normal(&[3, 6, 5, 7])
                .narrow(1, 2, 3)
                .unwrap()
                .narrow(3, 1, 5)
                .unwrap(),
            rng.normal(&large),
            rng.normal(&[60, 4, 3, 48]).permute(&[2, 1, 3, 0]).unwrap(),
            rng.normal(&[3, 6, 50, 60])
                .narrow(1, 1, 4)
                .unwrap()
                .narrow(2, 2, 48)
                .unwrap(),
        ];
        for x in &inputs {
            for dim in 0..4 {
                let d = x.shape()[dim] as isize;
                for shift in [-d - 1, -1, 0, 1, d, d + 1] {
                    let want = bits(&cat_roll(x, shift, dim));
                    for threads in [1, 2, 8] {
                        let got = with_test_runner(threads, || roll(x, shift, dim).unwrap());
                        assert_eq!(got.shape(), x.shape());
                        assert!(
                            bits(&got) == want,
                            "shape {:?} strides {:?} dim {dim} shift {shift} threads {threads}",
                            x.shape(),
                            x.strides()
                        );
                    }
                }
            }
        }
    }

    /// The per-element copy: every logical index odometer-walked and read
    /// through the view's strides.
    fn gather_per_element(x: &Tensor) -> Vec<u32> {
        let src = x.storage_f32().unwrap();
        let shape = x.shape();
        let mut ix = vec![0usize; shape.len()];
        let mut out = Vec::with_capacity(x.numel());
        for _ in 0..x.numel() {
            out.push(src[ngb_tensor::offset_of(&ix, x.strides(), x.storage_offset())].to_bits());
            for d in (0..shape.len()).rev() {
                ix[d] += 1;
                if ix[d] < shape[d] {
                    break;
                }
                ix[d] = 0;
            }
        }
        out
    }

    #[test]
    fn tiled_contiguous_matches_the_per_element_copy() {
        let mut rng = TensorRng::seed(41);
        let inputs = [
            // segformer's token-to-map transpose
            rng.normal(&[1, 16384, 256]).permute(&[0, 2, 1]).unwrap(),
            // NHWC -> NCHW with rows (C = 19) that leave a short tile
            rng.normal(&[2, 37, 41, 19]).permute(&[0, 3, 1, 2]).unwrap(),
            // a sliced transpose: narrowed rows and columns, storage offset
            rng.normal(&[300, 257])
                .narrow(0, 5, 290)
                .unwrap()
                .narrow(1, 3, 250)
                .unwrap()
                .permute(&[1, 0])
                .unwrap(),
            // dense and a non-transposed slice keep the serial copy
            rng.normal(&[3, 200, 100]),
            rng.normal(&[3, 200, 100]).narrow(2, 10, 80).unwrap(),
        ];
        for (i, x) in inputs.iter().enumerate() {
            let blocks = contiguous_blocks(x.shape(), x.strides());
            assert_eq!(blocks.is_some(), i < 3, "input {i}");
            if let Some((rows, cols)) = blocks {
                assert_eq!(rows * cols, x.numel());
                assert!(parallel::block_partition(rows, cols, TILE_ROWS).len() > 1);
            }
            let want = gather_per_element(x);
            let run = || contiguous(x);
            for got in [run()]
                .into_iter()
                .chain([1, 2, 8].map(|t| with_test_runner(t, run)))
            {
                assert!(got.is_contiguous() && got.shape() == x.shape());
                assert!(bits(&got) == want, "input {i}: strides {:?}", x.strides());
            }
        }
    }

    #[test]
    fn tiled_contiguous_counts_the_bytes_it_copies() {
        let x = TensorRng::seed(3)
            .normal(&[1, 4096, 64])
            .permute(&[0, 2, 1])
            .unwrap();
        assert!(contiguous_blocks(x.shape(), x.strides()).is_some());
        ngb_tensor::telemetry::reset_bytes_materialized();
        with_test_runner(2, || contiguous(&x));
        assert_eq!(
            ngb_tensor::telemetry::take_bytes_materialized(),
            x.size_bytes() as u64
        );
        // the tensor-level tiles take over at the same size as the split
        assert_eq!(ngb_tensor::TILED_COPY_MIN_ELEMS, GRAIN_ELEMS);
    }

    #[test]
    fn roll_keeps_i64_and_bool() {
        let ids = Tensor::from_i64((0..12).collect(), &[3, 4]).unwrap();
        let r = roll(&ids.permute(&[1, 0]).unwrap(), 1, 1).unwrap();
        assert_eq!(r.dtype(), DType::I64);
        assert_eq!(
            r.to_vec_i64().unwrap(),
            vec![8, 0, 4, 9, 1, 5, 10, 2, 6, 11, 3, 7]
        );
        let mask = Tensor::from_bool(vec![true, false, false, true, true, false], &[2, 3]).unwrap();
        let r = roll(&mask, -1, 0).unwrap();
        assert_eq!(r.dtype(), DType::Bool);
        assert_eq!(
            r.to_vec_bool().unwrap(),
            vec![true, true, false, true, false, false]
        );
        assert_eq!(roll(&mask, 2, 1).unwrap(), cat_roll(&mask, 2, 1));
    }

    #[test]
    fn wrappers_delegate() {
        let x = Tensor::arange(0.0, 6.0, 1.0);
        let r = reshape(&x, &[2, 3]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        let p = permute(&r, &[1, 0]).unwrap();
        assert_eq!(p.shape(), &[3, 2]);
        let t = transpose(&r, 0, 1).unwrap();
        assert_eq!(t.shape(), p.shape());
        let c = contiguous(&p);
        assert!(c.is_contiguous());
        let e = expand(&Tensor::ones(&[1, 3]), &[4, 3]).unwrap();
        assert_eq!(e.shape(), &[4, 3]);
        let u = unsqueeze(&x, 0).unwrap();
        assert_eq!(squeeze(&u, 0).unwrap().shape(), x.shape());
        assert_eq!(split(&x, 2, 0).unwrap().len(), 3);
        assert_eq!(cat(&[x.clone(), x], 0).unwrap().shape(), &[12]);
        assert_eq!(view(&r, &[6]).unwrap().shape(), &[6]);
    }

    #[test]
    fn roll_is_cyclic() {
        let x = Tensor::arange(0.0, 6.0, 1.0).reshape(&[2, 3]).unwrap();
        let r = roll(&x, 1, 1).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![2.0, 0.0, 1.0, 5.0, 3.0, 4.0]);
        let neg = roll(&x, -1, 1).unwrap();
        assert_eq!(
            neg.to_vec_f32().unwrap(),
            vec![1.0, 2.0, 0.0, 4.0, 5.0, 3.0]
        );
        // full-period roll is the identity
        let full = roll(&x, 3, 1).unwrap();
        assert_eq!(full.to_vec_f32().unwrap(), x.to_vec_f32().unwrap());
        // inverse shifts round-trip
        let rt = roll(&roll(&x, 2, 0).unwrap(), -2, 0).unwrap();
        assert_eq!(rt.to_vec_f32().unwrap(), x.to_vec_f32().unwrap());
        assert!(roll(&x, 1, 5).is_err());
        assert_eq!(roll_cost(&[2, 3]).kernels, 1);
    }

    #[test]
    fn metadata_ops_are_free_copies_are_not() {
        assert_eq!(metadata_cost().memory_bytes(), 0.0);
        assert_eq!(metadata_cost().kernels, 0);
        let c = contiguous_cost(&[2, 850, 256]);
        assert!(c.memory_bytes() > 0.0);
        assert_eq!(c.kernels, 1);
        assert_eq!(reshape_cost(&[4, 4], true).kernels, 0);
        assert_eq!(reshape_cost(&[4, 4], false).kernels, 1);
        assert_eq!(cat_cost(100).bytes_written, 400.0);
    }
}
