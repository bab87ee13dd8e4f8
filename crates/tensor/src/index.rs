//! Multi-dimensional index iteration and the strided walker every copy,
//! broadcast and reduction in this crate runs on.

use std::ops::Range;

/// Dims a [`Coalesced`] layout holds inline; a view with more left after
/// coalescing is walked one outermost index at a time until the rest fit.
const INLINE_DIMS: usize = 8;

/// `N` operands' shared shape after coalescing: size-1 dims dropped and
/// adjacent dims merged wherever every operand's strides compose
/// (`stride[d] == shape[d + 1] * stride[d + 1]`). Row-major order over
/// `len[..rank]` is row-major order over the original shape.
struct Coalesced<const N: usize> {
    len: [usize; INLINE_DIMS],
    step: [[isize; N]; INLINE_DIMS],
    rank: usize,
}

impl<const N: usize> Coalesced<N> {
    /// `None` when more than [`INLINE_DIMS`] dims remain.
    fn new(shape: &[usize], strides: [&[isize]; N]) -> Option<Self> {
        let mut c = Coalesced {
            len: [1; INLINE_DIMS],
            step: [[0; N]; INLINE_DIMS],
            rank: 0,
        };
        for (d, &n) in shape.iter().enumerate() {
            if n == 1 {
                continue;
            }
            let s: [isize; N] = std::array::from_fn(|k| strides[k][d]);
            if c.rank > 0 && (0..N).all(|k| c.step[c.rank - 1][k] == n as isize * s[k]) {
                c.len[c.rank - 1] *= n;
            } else if c.rank == INLINE_DIMS {
                return None;
            } else {
                c.len[c.rank] = n;
                c.rank += 1;
            }
            c.step[c.rank - 1] = s;
        }
        Some(c)
    }
}

/// Walks `N` operands that share one logical `shape` — each with its own
/// strides and storage offset — in row-major order, calling
/// `run(offsets, len, steps)` once per innermost run: element `i < len` of
/// the run sits at `offsets[k] + i * steps[k]` in operand `k`'s storage.
///
/// The walk is over the [`Coalesced`] layout, so a dense view is a single
/// run and a permuted one is as few runs as its layout allows. Coalescing
/// reorders nothing: runs arrive in exactly the row-major order of `shape`,
/// which is why a copy or fold built on this is bit-identical to a
/// per-index walk. The outer dims advance as an odometer over stack arrays;
/// nothing is allocated.
pub(crate) fn for_each_run<const N: usize>(
    shape: &[usize],
    strides: [&[isize]; N],
    offsets: [usize; N],
    mut run: impl FnMut([usize; N], usize, [isize; N]),
) {
    walk(shape, strides, offsets.map(|o| o as isize), &mut run);
}

fn walk<const N: usize, F: FnMut([usize; N], usize, [isize; N])>(
    shape: &[usize],
    strides: [&[isize]; N],
    base: [isize; N],
    run: &mut F,
) {
    if shape.contains(&0) {
        return;
    }
    let Some(Coalesced { len, step, rank }) = Coalesced::new(shape, strides) else {
        for i in 0..shape[0] as isize {
            let base = std::array::from_fn(|k| base[k] + i * strides[k][0]);
            walk(&shape[1..], strides.map(|s| &s[1..]), base, run);
        }
        return;
    };
    // a scalar or all-ones shape is one run of one element
    let inner = rank.max(1) - 1;
    let mut ix = [0usize; INLINE_DIMS];
    let mut off = base;
    loop {
        run(off.map(|o| o as usize), len[inner], step[inner]);
        let mut d = inner;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            ix[d] += 1;
            if ix[d] < len[d] {
                for k in 0..N {
                    off[k] += step[d][k];
                }
                break;
            }
            ix[d] = 0;
            for k in 0..N {
                off[k] -= (len[d] - 1) as isize * step[d][k];
            }
        }
    }
}

/// Rows of one transpose tile: 16 source-adjacent rows of f32 are one
/// 64-byte cache line per output column.
pub const TILE_ROWS: usize = 16;

/// Elements below which [`dense_copy`] keeps the per-run walk even for a
/// transpose-shaped view; equal to one `ngb-ops` intra-op grain, so a copy
/// too small to split is also too small to tile.
pub const TILED_COPY_MIN_ELEMS: usize = 32 * 1024;

/// A view whose unit-stride dim is not the innermost, after coalescing: a
/// batch of `[rows, cols]` transposes, where row `i` of a batch starts `i`
/// elements after the batch's base and column `j` sits `j * col_step`
/// further on. Its dense copy is `batch * rows` rows of `cols`.
struct Transposed {
    /// The coalesced dims before the last two (len, stride), outermost first.
    batch_len: [usize; INLINE_DIMS],
    batch_step: [isize; INLINE_DIMS],
    batch_rank: usize,
    rows: usize,
    cols: usize,
    col_step: isize,
}

impl Transposed {
    /// `None` unless the coalesced layout ends in a unit-stride dim followed
    /// by a non-unit one (and holds no empty dim).
    fn new(shape: &[usize], strides: &[isize]) -> Option<Transposed> {
        if shape.contains(&0) {
            return None;
        }
        let c = Coalesced::new(shape, [strides])?;
        if c.rank < 2 || c.step[c.rank - 2][0] != 1 || c.step[c.rank - 1][0] == 1 {
            return None;
        }
        let batch_rank = c.rank - 2;
        Some(Transposed {
            batch_len: c.len,
            batch_step: c.step.map(|[s]| s),
            batch_rank,
            rows: c.len[batch_rank],
            cols: c.len[batch_rank + 1],
            col_step: c.step[batch_rank + 1][0],
        })
    }

    fn total_rows(&self) -> usize {
        self.batch_len[..self.batch_rank].iter().product::<usize>() * self.rows
    }

    /// Storage offset of row 0 of batch `b`, relative to the view's offset.
    fn batch_base(&self, b: usize) -> isize {
        unravel_offset(
            b,
            &self.batch_len[..self.batch_rank],
            &self.batch_step[..self.batch_rank],
        )
    }

    /// Writes rows `rows` of the dense copy into `out`, `TILE_ROWS` rows
    /// at a time: for each group of source-adjacent rows (one batch) the
    /// columns are read as `TILE_ROWS`-wide lines into a square tile and
    /// written back as `TILE_ROWS`-long runs of each output row.
    fn copy_rows<T: Copy + Default>(
        &self,
        src: &[T],
        offset: usize,
        rows: Range<usize>,
        out: &mut [T],
    ) {
        let cols = self.cols;
        debug_assert_eq!(out.len(), rows.len() * cols);
        let mut tile = [[T::default(); TILE_ROWS]; TILE_ROWS];
        let mut r = rows.start;
        while r < rows.end {
            // up to TILE_ROWS source-adjacent rows of one batch
            let (b, i) = (r / self.rows, r % self.rows);
            let g = TILE_ROWS.min(self.rows - i).min(rows.end - r);
            let base = offset as isize + self.batch_base(b) + i as isize;
            let first = (r - rows.start) * cols;
            let dst = &mut out[first..first + g * cols];
            for j0 in (0..cols).step_by(TILE_ROWS) {
                let w = TILE_ROWS.min(cols - j0);
                for (jj, line) in tile[..w].iter_mut().enumerate() {
                    let o = (base + (j0 + jj) as isize * self.col_step) as usize;
                    line[..g].copy_from_slice(&src[o..o + g]);
                }
                for (k, row) in dst.chunks_exact_mut(cols).enumerate() {
                    for (v, line) in row[j0..j0 + w].iter_mut().zip(&tile) {
                        *v = line[k];
                    }
                }
            }
            r += g;
        }
    }
}

/// `(rows, cols)` of the tiled copy of a view whose unit-stride dim is not
/// the innermost after coalescing (see
/// [`Tensor::copy_transposed_rows`](crate::Tensor::copy_transposed_rows));
/// `None` for every other layout. A pure function of shape and strides.
pub fn transposed_rows(shape: &[usize], strides: &[isize]) -> Option<(usize, usize)> {
    Transposed::new(shape, strides).map(|t| (t.total_rows(), t.cols))
}

/// Writes rows `rows` of the dense copy of a transpose-shaped view of `src`
/// into `out`; `None` when the view is not transpose-shaped or `rows`/`out`
/// do not fit it.
pub(crate) fn transposed_copy<T: Copy + Default>(
    src: &[T],
    shape: &[usize],
    strides: &[isize],
    offset: usize,
    rows: Range<usize>,
    out: &mut [T],
) -> Option<()> {
    let t = Transposed::new(shape, strides)?;
    if rows.end > t.total_rows() || out.len() != rows.len() * t.cols {
        return None;
    }
    t.copy_rows(src, offset, rows, out);
    Some(())
}

/// Copies the view `shape`/`strides`/`offset` of `src` into a new dense
/// row-major buffer: transpose tiles for a transpose-shaped view of at
/// least [`TILED_COPY_MIN_ELEMS`], else one `extend_from_slice` per
/// unit-stride run and a stride loop otherwise.
pub(crate) fn dense_copy<T: Copy + Default>(
    src: &[T],
    shape: &[usize],
    strides: &[isize],
    offset: usize,
) -> Vec<T> {
    let n = crate::num_elements(shape);
    if n >= TILED_COPY_MIN_ELEMS {
        if let Some(t) = Transposed::new(shape, strides) {
            let mut out = vec![T::default(); n];
            t.copy_rows(src, offset, 0..t.total_rows(), &mut out);
            return out;
        }
    }
    let mut out = Vec::with_capacity(n);
    for_each_run(shape, [strides], [offset], |[o], len, [s]| {
        if s == 1 {
            out.extend_from_slice(&src[o..o + len]);
        } else {
            out.extend((0..len as isize).map(|i| src[(o as isize + i * s) as usize]));
        }
    });
    out
}

/// Iterator over every multi-dimensional index of a shape, in row-major
/// order.
///
/// It allocates one index per element; only `Tensor::cat`'s copy loop still
/// walks it (see DESIGN §17 for why), everything else runs on
/// [`for_each_run`].
#[derive(Debug, Clone)]
pub(crate) struct IndexIter {
    shape: Vec<usize>,
    current: Vec<usize>,
    remaining: usize,
}

impl IndexIter {
    /// Creates an iterator over all indices of `shape`.
    ///
    /// A scalar shape (`[]`) yields exactly one empty index.
    pub(crate) fn new(shape: &[usize]) -> Self {
        let remaining = crate::num_elements(shape);
        IndexIter {
            shape: shape.to_vec(),
            current: vec![0; shape.len()],
            remaining,
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.remaining == 0 {
            return None;
        }
        let out = self.current.clone();
        self.remaining -= 1;
        // Advance odometer-style from the last axis.
        for ax in (0..self.shape.len()).rev() {
            self.current[ax] += 1;
            if self.current[ax] < self.shape[ax] {
                break;
            }
            self.current[ax] = 0;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for IndexIter {}

/// Maps the `(outer, lane)` coordinates of a lane decomposition onto storage
/// offsets of an arbitrarily-strided view.
///
/// A lane decomposition splits a tensor around one dimension `dim` into
/// `(outer, d, inner)` — see `Tensor::lane_dims` — so every reduction/softmax
/// lane is `d` elements at a fixed `(outer, inner)` coordinate. For a
/// contiguous tensor the lane at `(o, l)` starts at `o * d * inner + l` and
/// steps by `inner`; this type generalizes that walk to any strides, letting
/// kernels consume permuted/narrowed/expanded views without materializing
/// them first.
///
/// Kernels should keep their contiguous fast path and use `LaneMap` only on
/// the strided branch: `lane_base` costs one multiply-add per dimension.
#[derive(Debug, Clone)]
pub struct LaneMap {
    base: usize,
    outer_shape: Vec<usize>,
    outer_strides: Vec<isize>,
    inner_shape: Vec<usize>,
    inner_strides: Vec<isize>,
    step: isize,
}

impl LaneMap {
    /// Builds the map for a view described by `shape`/`strides`/`offset`,
    /// with lanes running along `dim`.
    pub fn new(shape: &[usize], strides: &[isize], offset: usize, dim: usize) -> LaneMap {
        assert!(dim < shape.len(), "lane dim out of range");
        LaneMap {
            base: offset,
            outer_shape: shape[..dim].to_vec(),
            outer_strides: strides[..dim].to_vec(),
            inner_shape: shape[dim + 1..].to_vec(),
            inner_strides: strides[dim + 1..].to_vec(),
            step: strides[dim],
        }
    }

    /// Storage stride between consecutive elements of a lane.
    #[inline]
    pub fn step(&self) -> isize {
        self.step
    }

    /// Storage offset of element 0 of the lane at `(outer, lane)`, where
    /// `outer` enumerates the dims before `dim` and `lane` the dims after it,
    /// both row-major.
    #[inline]
    pub fn lane_base(&self, outer: usize, lane: usize) -> usize {
        let off = self.base as isize
            + unravel_offset(outer, &self.outer_shape, &self.outer_strides)
            + unravel_offset(lane, &self.inner_shape, &self.inner_strides);
        debug_assert!(off >= 0, "negative storage offset");
        off as usize
    }
}

/// Storage offset of row-major linear index `i` within `shape`/`strides`.
#[inline]
fn unravel_offset(mut i: usize, shape: &[usize], strides: &[isize]) -> isize {
    let mut off = 0isize;
    for d in (0..shape.len()).rev() {
        let s = shape[d];
        off += (i % s) as isize * strides[d];
        i /= s;
    }
    off
}

/// Converts a multi-index into a linear storage offset given strides and a
/// base offset.
#[inline]
pub fn offset_of(index: &[usize], strides: &[isize], base: usize) -> usize {
    let mut off = base as isize;
    for (&i, &s) in index.iter().zip(strides) {
        off += i as isize * s;
    }
    debug_assert!(off >= 0, "negative storage offset");
    off as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_iter_yields_row_major_indices() {
        let ix: Vec<Vec<usize>> = IndexIter::new(&[2, 2]).collect();
        assert_eq!(ix, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    type Run<const N: usize> = ([usize; N], usize, [isize; N]);

    fn runs<const N: usize>(
        shape: &[usize],
        strides: [&[isize]; N],
        offsets: [usize; N],
    ) -> Vec<Run<N>> {
        let mut out = Vec::new();
        for_each_run(shape, strides, offsets, |o, len, s| out.push((o, len, s)));
        out
    }

    #[test]
    fn walker_coalesces_dense_views_and_drops_unit_dims() {
        // dense [2,1,3,4] at offset 5: one run, the size-1 dim's stride ignored
        assert_eq!(
            runs(&[2, 1, 3, 4], [&[12, 99, 4, 1]], [5]),
            [([5], 24, [1])]
        );
        // transpose of a dense [2,3]: nothing composes, one run per row
        assert_eq!(
            runs(&[3, 2], [&[1, 3]], [0]),
            [([0], 2, [3]), ([1], 2, [3]), ([2], 2, [3])]
        );
        // scalar: one run of one element; a 0-sized dim: none
        assert_eq!(runs(&[], [&[]], [7]), [([7], 1, [0])]);
        assert!(runs(&[2, 0], [&[0, 1]], [0]).is_empty());
    }

    #[test]
    fn walker_merges_only_where_every_operand_composes() {
        // a dense lhs composes; a row broadcast rhs (stride 0) does not
        assert_eq!(
            runs(&[2, 3], [&[3, 1], &[0, 1]], [0, 4]),
            [([0, 4], 3, [1, 1]), ([3, 4], 3, [1, 1])]
        );
        assert_eq!(
            runs(&[2, 3], [&[3, 1], &[3, 1]], [0, 4]),
            [([0, 4], 6, [1, 1])]
        );
    }

    #[test]
    fn walker_peels_ranks_beyond_the_inline_arrays() {
        // rank 10 with reversed strides: row-major element i sits at the
        // 10-bit reversal of i
        let strides: Vec<isize> = (0..10).map(|d| 1 << d).collect();
        let mut seen = Vec::new();
        for_each_run(&[2; 10], [&strides], [0], |[o], len, [s]| {
            seen.extend((0..len as isize).map(|i| o as isize + i * s));
        });
        let want: Vec<isize> = (0..1024usize)
            .map(|i| (i.reverse_bits() >> (usize::BITS - 10)) as isize)
            .collect();
        assert_eq!(seen, want);
    }

    /// The per-run copy `dense_copy` makes below the tile threshold.
    fn walk_copy(src: &[i64], shape: &[usize], strides: &[isize], offset: usize) -> Vec<i64> {
        let mut out = Vec::new();
        for_each_run(shape, [strides], [offset], |[o], len, [s]| {
            out.extend((0..len as isize).map(|i| src[(o as isize + i * s) as usize]));
        });
        out
    }

    #[test]
    fn transpose_tiles_match_the_run_walk_in_any_row_pieces() {
        let src: Vec<i64> = (0..40_000).collect();
        // (shape, strides, offset): a plain transpose, a batched NHWC ->
        // NCHW permute whose 19 rows leave a short tile, a sliced
        // transpose, and an expanded (stride-0) column
        let views: [(&[usize], &[isize], usize); 4] = [
            (&[33, 70], &[1, 33], 0),
            (&[2, 19, 5, 7], &[665, 1, 133, 19], 3),
            (&[40, 50], &[1, 301], 17),
            (&[37, 64], &[1, 0], 5),
        ];
        for (shape, strides, offset) in views {
            let (rows, cols) = transposed_rows(shape, strides).expect("transpose-shaped");
            assert_eq!(rows * cols, crate::num_elements(shape));
            let want = walk_copy(&src, shape, strides, offset);
            // every row split, including pieces that cut a tile or a batch
            for piece in [1, 5, 16, 17, rows] {
                let mut got = vec![0i64; rows * cols];
                for (k, out) in got.chunks_mut(piece * cols).enumerate() {
                    let r = k * piece..(k * piece + piece).min(rows);
                    transposed_copy(&src, shape, strides, offset, r, out).unwrap();
                }
                assert_eq!(got, want, "{shape:?} {strides:?} in pieces of {piece}");
            }
        }
        // a row range or window that does not fit is refused, not clipped
        let mut out = vec![0i64; 70];
        assert!(transposed_copy(&src, &[33, 70], &[1, 33], 0, 33..34, &mut out).is_none());
        assert!(transposed_copy(&src, &[33, 70], &[1, 33], 0, 0..2, &mut out).is_none());
    }

    #[test]
    fn only_a_non_innermost_unit_stride_is_transpose_shaped() {
        // dense, a row slice, unit stride innermost, empty, no unit stride
        assert_eq!(transposed_rows(&[4, 5], &[5, 1]), None);
        assert_eq!(transposed_rows(&[4, 5], &[9, 1]), None);
        assert_eq!(transposed_rows(&[5, 4, 6], &[6, 30, 1]), None);
        assert_eq!(transposed_rows(&[0, 5], &[1, 0]), None);
        assert_eq!(transposed_rows(&[4, 5], &[2, 10]), None);
        // size-1 dims vanish and composable dims merge first
        assert_eq!(
            transposed_rows(&[1, 6, 4, 5], &[99, 1, 30, 6]),
            Some((6, 20))
        );
    }

    #[test]
    fn dense_copy_tiles_large_transposes_bit_for_bit() {
        let (r, c) = (160, 300);
        assert!(r * c >= TILED_COPY_MIN_ELEMS);
        let src: Vec<i64> = (0..(r * c) as i64).collect();
        let (shape, strides) = ([c, r], [1isize, c as isize]);
        assert_eq!(
            dense_copy(&src, &shape, &strides, 0),
            walk_copy(&src, &shape, &strides, 0)
        );
    }

    #[test]
    fn scalar_yields_one_empty_index() {
        let all: Vec<_> = IndexIter::new(&[]).collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn zero_sized_dim_yields_nothing() {
        assert_eq!(IndexIter::new(&[2, 0, 3]).count(), 0);
    }

    #[test]
    fn count_matches_numel() {
        assert_eq!(IndexIter::new(&[3, 4, 5]).count(), 60);
        let it = IndexIter::new(&[3, 4]);
        assert_eq!(it.len(), 12);
    }

    #[test]
    fn offsets_follow_strides() {
        // shape [2,3], transposed strides [1,2], base 5
        assert_eq!(offset_of(&[1, 2], &[1, 2], 5), 5 + 1 + 4);
    }

    #[test]
    fn lane_map_matches_contiguous_walk() {
        // contiguous [2,3,4], lanes along dim 1: base = o*12 + l, step 4
        let shape = [2usize, 3, 4];
        let strides = [12isize, 4, 1];
        let m = LaneMap::new(&shape, &strides, 0, 1);
        assert_eq!(m.step(), 4);
        for o in 0..2 {
            for l in 0..4 {
                assert_eq!(m.lane_base(o, l), o * 12 + l);
            }
        }
    }

    #[test]
    fn lane_map_strided_view() {
        // transposed [3,2] view of contiguous [2,3] (strides [1,3]), lanes
        // along dim 0: lane l starts at column l's base, steps by 1.
        let m = LaneMap::new(&[3, 2], &[1, 3], 5, 0);
        assert_eq!(m.step(), 1);
        assert_eq!(m.lane_base(0, 0), 5);
        assert_eq!(m.lane_base(0, 1), 8);
        // multi-dim outer: shape [2,2,3], strides [1,6,2], dim 2
        let m = LaneMap::new(&[2, 2, 3], &[1, 6, 2], 0, 2);
        assert_eq!(m.lane_base(3, 0), 1 + 6); // outer index 3 = (1,1)
        assert_eq!(m.step(), 2);
    }
}
