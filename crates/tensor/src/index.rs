//! Multi-dimensional index iteration and the strided walker every copy,
//! broadcast and reduction in this crate runs on.

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

/// Copies the view `shape`/`strides`/`offset` of `src` into a new dense
/// row-major buffer: one `extend_from_slice` per unit-stride run, a stride
/// loop otherwise.
pub(crate) fn dense_copy<T: Copy>(
    src: &[T],
    shape: &[usize],
    strides: &[isize],
    offset: usize,
) -> Vec<T> {
    let mut out = Vec::with_capacity(crate::num_elements(shape));
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
