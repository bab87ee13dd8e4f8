//! Deterministic intra-op data parallelism: fixed-grain chunk
//! partitioning plus a pluggable scoped runner.
//!
//! The contract (DESIGN.md §14): partitioning is a **pure function of the
//! work shape** — never of the thread count, the runner, or any runtime
//! state — and every chunk owns a disjoint slice of the output. All
//! reductions stay serial within their unit (row, lane, segment), so a
//! kernel produces bit-identical results whether it runs serially,
//! chunked on one thread, or chunked across N pool workers.
//!
//! Kernels call [`par_for`] / [`par_rows`] (or the slice-splitting
//! [`par_for_out`] / [`par_rows_out`]); execution engines install an
//! [`IntraOpRunner`] around kernel dispatch via [`with_runner`]. Without
//! a runner the same chunks run serially on the calling thread, which is
//! also the work-budget fallback for small tensors.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;

use ngb_tensor::Tensor;

use crate::Result;

/// Elements per chunk: 32 Ki f32 elements (128 KiB) keeps a chunk's
/// working set cache-resident while amortizing dispatch overhead. It is
/// also the work-budget floor: tensors smaller than one grain stay serial
/// (one chunk).
pub const GRAIN_ELEMS: usize = 32 * 1024;

// ----------------------------------------------------------------------
// Partitioning: pure functions of (total, row_len) only
// ----------------------------------------------------------------------

/// Number of element chunks for `total` elements: 1 below one grain,
/// else `ceil(total / GRAIN_ELEMS)`.
pub fn element_chunks(total: usize) -> usize {
    if total < GRAIN_ELEMS {
        1
    } else {
        total.div_ceil(GRAIN_ELEMS).max(1)
    }
}

/// Element range of chunk `chunk` out of [`element_chunks`] many.
pub fn element_range(total: usize, chunks: usize, chunk: usize) -> Range<usize> {
    if chunks <= 1 {
        return 0..total;
    }
    let start = chunk * GRAIN_ELEMS;
    start..(start + GRAIN_ELEMS).min(total)
}

/// Rows (generic work units of `row_len` elements) grouped per chunk so a
/// chunk carries roughly [`GRAIN_ELEMS`] elements.
pub fn rows_per_chunk(row_len: usize) -> usize {
    (GRAIN_ELEMS / row_len.max(1)).max(1)
}

/// Number of row chunks for `rows` rows of `row_len` elements.
pub fn row_chunks(rows: usize, row_len: usize) -> usize {
    if rows.saturating_mul(row_len) < GRAIN_ELEMS {
        1
    } else {
        rows.div_ceil(rows_per_chunk(row_len)).max(1)
    }
}

/// Row range of chunk `chunk` out of [`row_chunks`] many.
pub fn row_range(rows: usize, row_len: usize, chunks: usize, chunk: usize) -> Range<usize> {
    if chunks <= 1 {
        return 0..rows;
    }
    let per = rows_per_chunk(row_len);
    let start = chunk * per;
    start..(start + per).min(rows)
}

/// The complete element decomposition `par_elems` dispatches for `total`
/// elements: every chunk's range, in chunk order. This is the metadata the
/// `ngb-sanitize` disjointness check certifies — it must stay an exact,
/// pairwise-disjoint cover of `0..total` and a pure function of shape.
pub fn element_partition(total: usize) -> Vec<Range<usize>> {
    let chunks = element_chunks(total);
    (0..chunks)
        .map(|c| element_range(total, chunks, c))
        .collect()
}

/// The complete row decomposition `par_rows` dispatches for `rows` rows of
/// `row_len` elements; same exact-cover contract as [`element_partition`]
/// over `0..rows`.
pub fn row_partition(rows: usize, row_len: usize) -> Vec<Range<usize>> {
    let chunks = row_chunks(rows, row_len);
    (0..chunks)
        .map(|c| row_range(rows, row_len, chunks, c))
        .collect()
}

/// The row ranges [`par_blocks_out`] dispatches for `rows` rows of
/// `row_len` elements grouped in blocks of `block_rows` rows: the
/// [`row_partition`] of the blocks (a block of `block_rows * row_len`
/// elements being the work unit), each clipped to `0..rows`. Same
/// exact-cover contract as [`element_partition`] over `0..rows`.
pub fn block_partition(rows: usize, row_len: usize, block_rows: usize) -> Vec<Range<usize>> {
    let block_rows = block_rows.max(1);
    row_partition(rows.div_ceil(block_rows), block_rows * row_len)
        .into_iter()
        .map(|b| b.start * block_rows..(b.end * block_rows).min(rows))
        .collect()
}

// ----------------------------------------------------------------------
// Runner plumbing
// ----------------------------------------------------------------------

/// Executes `job(chunk)` for every chunk in `0..chunks`, possibly on
/// helper threads, returning once all chunks are done. Implementations
/// must guarantee completion before returning (scoped join) and report
/// how many threads participated (≥ 1, the caller included).
pub trait IntraOpRunner: Send + Sync {
    /// Runs all `chunks` chunks to completion and returns the number of
    /// threads that executed at least one chunk.
    fn run(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) -> usize;
}

/// Per-dispatch intra-op statistics, accumulated per thread between
/// [`reset_stats`] and [`take_stats`] (engines sample them around each
/// node's kernel call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntraOpStats {
    /// Total chunks dispatched (1 per serial kernel call).
    pub chunks: usize,
    /// Maximum number of threads that cooperated on one dispatch.
    pub max_participants: usize,
}

thread_local! {
    static RUNNER: RefCell<Option<Arc<dyn IntraOpRunner>>> = const { RefCell::new(None) };
    static STATS: Cell<IntraOpStats> = const { Cell::new(IntraOpStats { chunks: 0, max_participants: 0 }) };
}

/// Installs `runner` for intra-op dispatch while `f` runs on this thread,
/// restoring the previous runner afterwards (panic-safe).
pub fn with_runner<R>(runner: Arc<dyn IntraOpRunner>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<dyn IntraOpRunner>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            RUNNER.with(|r| *r.borrow_mut() = prev);
        }
    }
    let prev = RUNNER.with(|r| r.borrow_mut().replace(runner));
    let _restore = Restore(prev);
    f()
}

/// Clears this thread's intra-op counters.
pub fn reset_stats() {
    STATS.with(|s| s.set(IntraOpStats::default()));
}

/// Returns and clears this thread's intra-op counters.
pub fn take_stats() -> IntraOpStats {
    STATS.with(|s| s.replace(IntraOpStats::default()))
}

fn record(chunks: usize, participants: usize) {
    STATS.with(|s| {
        let mut v = s.get();
        v.chunks += chunks;
        v.max_participants = v.max_participants.max(participants);
        s.set(v);
    });
}

/// Dispatches `chunks` chunks through the installed runner, or serially
/// on this thread when none is installed (or only one chunk exists).
/// Returns the participant count.
fn run_chunks(chunks: usize, job: &(dyn Fn(usize) + Sync)) -> usize {
    if chunks > 1 {
        if let Some(runner) = RUNNER.with(|r| r.borrow().clone()) {
            return runner.run(chunks, job);
        }
    }
    for c in 0..chunks {
        job(c);
    }
    1
}

// ----------------------------------------------------------------------
// par_for / par_rows
// ----------------------------------------------------------------------

/// Runs `job` over disjoint element ranges that exactly partition
/// `0..total`. The split depends only on `total`, never on thread count.
pub fn par_for(total: usize, job: impl Fn(Range<usize>) + Sync) {
    let chunks = element_chunks(total);
    let participants = run_chunks(chunks, &|c| job(element_range(total, chunks, c)));
    record(chunks, participants);
}

/// Runs `job` over disjoint row ranges that exactly partition `0..rows`,
/// where each row is a work unit of `row_len` elements. The split depends
/// only on `(rows, row_len)`.
pub fn par_rows(rows: usize, row_len: usize, job: impl Fn(Range<usize>) + Sync) {
    let chunks = row_chunks(rows, row_len);
    let participants = run_chunks(chunks, &|c| job(row_range(rows, row_len, chunks, c)));
    record(chunks, participants);
}

// ----------------------------------------------------------------------
// Disjoint output-slice dispatch
// ----------------------------------------------------------------------

/// Raw pointer wrapper for handing an output buffer to chunk jobs that
/// write disjoint regions. Confined to this crate; the scoped-join
/// guarantee of [`IntraOpRunner::run`] keeps the borrow alive for every
/// dereference.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Mutable sub-slice `range` of the wrapped buffer.
    ///
    /// # Safety
    ///
    /// `range` must be in bounds and disjoint from every other range
    /// sliced out while the buffer is shared across chunk jobs.
    pub(crate) unsafe fn slice<'a>(self, range: Range<usize>) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(range.start), range.len())
    }
}

/// Element-chunked variant of [`par_for`] that splits `out` into disjoint
/// slices: `job(start, slice)` receives the chunk's first element index
/// and its mutable window of `out`.
pub fn par_for_out<T: Send>(out: &mut [T], job: impl Fn(usize, &mut [T]) + Sync) {
    let total = out.len();
    let ptr = SendPtr(out.as_mut_ptr());
    par_for(total, |r| {
        let start = r.start;
        // SAFETY: ranges from `par_for` partition 0..total disjointly and
        // the scoped join keeps `out` borrowed until every job returns.
        job(start, unsafe { ptr.slice(r) });
    });
}

/// Row-chunked variant of [`par_rows`] that splits `out` (of length
/// `rows * row_len`) into disjoint row windows: `job(first_row, slice)`.
pub fn par_rows_out<T: Send>(
    out: &mut [T],
    rows: usize,
    row_len: usize,
    job: impl Fn(usize, &mut [T]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * row_len);
    let ptr = SendPtr(out.as_mut_ptr());
    par_rows(rows, row_len, |r| {
        let elems = r.start * row_len..r.end * row_len;
        // SAFETY: row ranges partition 0..rows disjointly, so element
        // windows are disjoint; the scoped join outlives every job.
        job(r.start, unsafe { ptr.slice(elems) });
    });
}

/// Dispatch for kernels that write one output element per work unit of
/// `unit_len` input elements (a reduction lane): the units are split as
/// [`par_rows`] splits `out.len()` rows of `unit_len`, and
/// `job(first_unit, slice)` receives the chunk's first unit and its window
/// of `out`.
pub fn par_units_out<T: Send>(
    out: &mut [T],
    unit_len: usize,
    job: impl Fn(usize, &mut [T]) + Sync,
) {
    let ptr = SendPtr(out.as_mut_ptr());
    par_rows(out.len(), unit_len, |r| {
        let first = r.start;
        // SAFETY: row ranges partition 0..out.len() disjointly; the scoped
        // join outlives every job.
        job(first, unsafe { ptr.slice(r) });
    });
}

/// Row-chunked dispatch over `out` (of length `rows * row_len`) whose
/// chunks hold whole blocks of `block_rows` rows, the last block possibly
/// short: `job(rows, slice)` receives the chunk's row range (one of
/// [`block_partition`]'s) and its window of `out`.
pub fn par_blocks_out<T: Send>(
    out: &mut [T],
    rows: usize,
    row_len: usize,
    block_rows: usize,
    job: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    debug_assert_eq!(out.len(), rows * row_len);
    let block_rows = block_rows.max(1);
    let ptr = SendPtr(out.as_mut_ptr());
    par_rows(rows.div_ceil(block_rows), block_rows * row_len, |b| {
        let r = b.start * block_rows..(b.end * block_rows).min(rows);
        let elems = r.start * row_len..r.end * row_len;
        // SAFETY: block ranges partition the blocks disjointly and the
        // clip to `rows` keeps the last window in bounds; the scoped join
        // outlives every job.
        job(r, unsafe { ptr.slice(elems) });
    });
}

// ----------------------------------------------------------------------
// Element-wise kernel helpers
// ----------------------------------------------------------------------

/// Allocates an uninitialized f32 vec and fills it chunk-parallel via
/// `fill(start, out_window)`; every element must be written (guaranteed
/// because chunks partition the full range).
fn alloc_filled(n: usize, fill: impl Fn(usize, &mut [f32]) + Sync) -> Vec<f32> {
    let mut out: Vec<f32> = Vec::with_capacity(n);
    let ptr = SendPtr(out.as_mut_ptr());
    par_for(n, |r| {
        let start = r.start;
        // SAFETY: disjoint windows of the reserved capacity; set_len runs
        // only after the scoped join wrote all n elements.
        fill(start, unsafe { ptr.slice(r) });
    });
    // SAFETY: par_for's chunks partition 0..n, so all n elements are
    // initialized once it returns.
    unsafe { out.set_len(n) };
    out
}

/// Chunk-parallel element-wise unary kernel: identical per-element math
/// to [`Tensor::map`] (bit-for-bit), with the contiguous fast path split
/// across chunks. Falls back to `map` for strided views.
pub fn unary(x: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Result<Tensor> {
    let Some(src) = x.as_slice_f32() else {
        return x.map(f);
    };
    let data = alloc_filled(src.len(), |start, out| {
        let xs = &src[start..start + out.len()];
        for (o, &v) in out.iter_mut().zip(xs) {
            *o = f(v);
        }
    });
    Tensor::from_vec(data, x.shape())
}

/// Chunk-parallel element-wise binary kernel for same-shape contiguous
/// operands: identical per-element math to [`Tensor::zip_map`]
/// (bit-for-bit). Broadcasting falls back to `zip_map`.
pub fn binary(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Result<Tensor> {
    if a.shape() == b.shape() {
        if let (Some(av), Some(bv)) = (a.as_slice_f32(), b.as_slice_f32()) {
            let data = alloc_filled(av.len(), |start, out| {
                let (xs, ys) = (&av[start..start + out.len()], &bv[start..start + out.len()]);
                for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
                    *o = f(x, y);
                }
            });
            return Tensor::from_vec(data, a.shape());
        }
    }
    a.zip_map(b, f)
}

/// Test-only scoped runner on raw `std::thread::scope` threads, so the
/// ops crate's kernel tests exercise multi-thread dispatch without
/// depending on `ngb-exec`.
#[cfg(test)]
pub(crate) mod test_runner {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::{with_runner, IntraOpRunner};

    struct ScopedTestRunner {
        threads: usize,
    }

    impl IntraOpRunner for ScopedTestRunner {
        fn run(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) -> usize {
            let next = AtomicUsize::new(0);
            let participants = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..self.threads.max(1).min(chunks) {
                    s.spawn(|| {
                        let mut claimed = false;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= chunks {
                                break;
                            }
                            claimed = true;
                            job(i);
                        }
                        if claimed {
                            participants.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            participants.load(Ordering::Relaxed).max(1)
        }
    }

    /// Runs `f` with a `threads`-thread scoped runner installed.
    pub(crate) fn with_test_runner<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        with_runner(Arc::new(ScopedTestRunner { threads }), f)
    }
}

#[cfg(test)]
mod tests {
    use super::test_runner::with_test_runner;
    use super::*;

    #[test]
    fn element_partition_is_exact_and_disjoint() {
        for total in [
            0usize,
            1,
            7,
            GRAIN_ELEMS - 1,
            GRAIN_ELEMS,
            GRAIN_ELEMS + 1,
            5 * GRAIN_ELEMS + 13,
        ] {
            let chunks = element_chunks(total);
            let mut next = 0usize;
            for c in 0..chunks {
                let r = element_range(total, chunks, c);
                assert_eq!(r.start, next, "total={total} chunk={c}");
                next = r.end;
            }
            assert_eq!(next, total, "ranges must cover 0..{total}");
        }
    }

    #[test]
    fn row_partition_is_exact_and_disjoint() {
        for (rows, row_len) in [
            (0usize, 5usize),
            (1, 1),
            (3, 100),
            (1000, 777),
            (4, GRAIN_ELEMS * 2),
        ] {
            let chunks = row_chunks(rows, row_len);
            let mut next = 0usize;
            for c in 0..chunks {
                let r = row_range(rows, row_len, chunks, c);
                assert_eq!(r.start, next, "rows={rows} len={row_len} chunk={c}");
                next = r.end;
            }
            assert_eq!(next, rows);
        }
    }

    #[test]
    fn partitioning_is_a_pure_function_of_shape() {
        // same shape => same chunk layout, with or without a runner, on
        // repeated calls, and independent of the runner's thread count
        let total = 3 * GRAIN_ELEMS + 17;
        let layout = |label: &str| {
            let chunks = element_chunks(total);
            let ranges: Vec<_> = (0..chunks)
                .map(|c| element_range(total, chunks, c))
                .collect();
            (label.to_string(), chunks, ranges)
        };
        let base = layout("serial");
        for threads in [1usize, 2, 8] {
            let under = with_test_runner(threads, || layout("runner"));
            assert_eq!(base.1, under.1, "chunk count moved with thread count");
            assert_eq!(base.2, under.2, "chunk ranges moved with thread count");
        }
    }

    #[test]
    fn threshold_only_collapses_to_one_chunk() {
        assert_eq!(element_chunks(100), 1);
        assert_eq!(element_chunks(GRAIN_ELEMS - 1), 1);
        assert_eq!(element_chunks(GRAIN_ELEMS * 3), 3);
        assert_eq!(row_chunks(10, 100), 1);
        assert_eq!(row_chunks(10, GRAIN_ELEMS), 10);
    }

    #[test]
    fn par_for_out_writes_every_element_bit_identically() {
        let n = 2 * GRAIN_ELEMS + 3;
        let f = |i: usize| (i as f32).sin();
        let mut serial = vec![0.0f32; n];
        for (i, v) in serial.iter_mut().enumerate() {
            *v = f(i);
        }
        for threads in [1usize, 2, 8] {
            let mut out = vec![0.0f32; n];
            with_test_runner(threads, || {
                par_for_out(&mut out, |start, win| {
                    for (j, v) in win.iter_mut().enumerate() {
                        *v = f(start + j);
                    }
                });
            });
            assert!(
                serial
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn unary_and_binary_match_tensor_combinators_bitwise() {
        let n = GRAIN_ELEMS + 100;
        let a = Tensor::from_vec((0..n).map(|i| (i as f32) * 0.37 - 50.0).collect(), &[n]).unwrap();
        let b = Tensor::from_vec((0..n).map(|i| (i as f32).cos()).collect(), &[n]).unwrap();
        let f = |x: f32| (x * 1.5).tanh();
        let g = |x: f32, y: f32| x * y + 0.25;
        let want_u = a.map(f).unwrap().to_vec_f32().unwrap();
        let want_b = a.zip_map(&b, g).unwrap().to_vec_f32().unwrap();
        for threads in [1usize, 4] {
            let (got_u, got_b) = with_test_runner(threads, || {
                (
                    unary(&a, f).unwrap().to_vec_f32().unwrap(),
                    binary(&a, &b, g).unwrap().to_vec_f32().unwrap(),
                )
            });
            assert!(want_u
                .iter()
                .zip(&got_u)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
            assert!(want_b
                .iter()
                .zip(&got_b)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn strided_views_fall_back_to_map_semantics() {
        let a = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 6]).unwrap();
        let t = a.permute(&[1, 0]).unwrap(); // non-contiguous view
        let got = unary(&t, |x| x + 1.0).unwrap();
        assert_eq!(got, t.map(|x| x + 1.0).unwrap());
    }

    #[test]
    fn stats_track_chunks_and_participants() {
        reset_stats();
        par_for(10, |_r| {});
        let s = take_stats();
        assert_eq!(s.chunks, 1, "small op stays one chunk");
        assert_eq!(s.max_participants, 1);

        with_test_runner(4, || {
            reset_stats();
            par_for(4 * GRAIN_ELEMS, |_r| {
                std::thread::yield_now();
            });
            let s = take_stats();
            assert_eq!(s.chunks, 4);
            assert!(s.max_participants >= 1);
        });
    }

    #[test]
    fn runner_scope_restores_on_exit() {
        assert!(RUNNER.with(|r| r.borrow().is_none()));
        with_test_runner(2, || {
            assert!(RUNNER.with(|r| r.borrow().is_some()));
        });
        assert!(RUNNER.with(|r| r.borrow().is_none()));
    }
}
