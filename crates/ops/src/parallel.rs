//! Deterministic intra-op data parallelism: one declared split per
//! kernel dispatch plus a pluggable scoped runner.
//!
//! The contract (DESIGN.md §14): partitioning is a **pure function of the
//! work shape** — never of the thread count, the runner, or any runtime
//! state — and every chunk owns a disjoint slice of the output. All
//! reductions stay serial within their unit (row, lane, segment), so a
//! kernel produces bit-identical results whether it runs serially,
//! chunked on one thread, or chunked across N pool workers.
//!
//! A kernel's split is a [`Split`] value — rows, the work per row, and the
//! rows per block — returned by one pub fn in the kernel's own module,
//! and the kernel body runs exactly that value through [`dispatch`] (or
//! [`dispatch_out`], which also hands each chunk its window of the
//! output). `ngb-exec` declares per node which of those values its kernels
//! dispatch, `ngb-sanitize` certifies each declared [`Split::partition`],
//! and a thread that armed the split log through [`reset_stats`] records
//! every split it dispatches, so the execution sanitizer can hold each
//! dispatch to the node's declaration. Execution engines install an
//! [`IntraOpRunner`] around kernel dispatch via [`with_runner`]. Without a
//! runner the same chunks run serially on the calling thread, which is
//! also the work-budget fallback for small tensors.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;

use ngb_tensor::Tensor;

use crate::Result;

/// Elements per chunk: 32 Ki f32 elements (128 KiB) keeps a chunk's
/// working set cache-resident while amortizing dispatch overhead. It is
/// also the work-budget floor: work smaller than one grain stays serial
/// (one chunk).
pub const GRAIN_ELEMS: usize = 32 * 1024;

/// One intra-op split: `rows` work units of `row_len` elements each,
/// chunked in whole blocks of `block` rows (the last block possibly
/// short; a `block` of 0 counts as 1). A chunk holds as many blocks as
/// fit one [`GRAIN_ELEMS`], and all of them when the whole split is below
/// one grain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// What the kernel splits (`"element"`, `"gemm-pack"`, ...).
    pub label: &'static str,
    /// Work units, the range every chunk is a piece of.
    pub rows: usize,
    /// Elements of work per unit: the weight chunks are sized by.
    pub row_len: usize,
    /// Units per block, the grain no chunk boundary falls inside of.
    pub block: usize,
}

impl Split {
    /// `rows` units of `row_len` elements, in blocks of one unit; a flat
    /// element split is `Split::rows(label, total, 1)`.
    pub const fn rows(label: &'static str, rows: usize, row_len: usize) -> Split {
        Split {
            label,
            rows,
            row_len,
            block: 1,
        }
    }

    /// `(chunks, blocks per chunk)`.
    fn layout(&self) -> (usize, usize) {
        // blocks of one row, the common split, need no division
        let (block, blocks) = match self.block {
            0 | 1 => (1, self.rows),
            b => (b, self.rows.div_ceil(b)),
        };
        let weight = block.saturating_mul(self.row_len);
        if blocks.saturating_mul(weight) < GRAIN_ELEMS {
            return (1, blocks);
        }
        let per = (GRAIN_ELEMS / weight).max(1);
        (blocks.div_ceil(per), per)
    }

    /// Rows of chunk `c` of a [`Split::layout`] of `per` blocks a chunk.
    fn chunk(&self, per: usize, c: usize) -> Range<usize> {
        let span = per * self.block.max(1);
        c * span..((c + 1) * span).min(self.rows)
    }

    /// Every chunk's row range, in chunk order: what [`dispatch`] runs
    /// and `ngb-sanitize` certifies as a pairwise-disjoint exact cover of
    /// `0..rows`.
    pub fn partition(&self) -> Vec<Range<usize>> {
        let (chunks, per) = self.layout();
        (0..chunks).map(|c| self.chunk(per, c)).collect()
    }
}

/// The split [`unary`] and [`binary`] dispatch over `total` output
/// elements.
pub fn elements(total: usize) -> Split {
    Split::rows("element", total, 1)
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

/// A thread's dispatch record: the counters, and whether the splits it
/// dispatches go to its [`SPLIT_LOG`].
struct Tally {
    stats: Cell<IntraOpStats>,
    armed: Cell<bool>,
}

thread_local! {
    static RUNNER: RefCell<Option<Arc<dyn IntraOpRunner>>> = const { RefCell::new(None) };
    static TALLY: Tally = const {
        Tally {
            stats: Cell::new(IntraOpStats { chunks: 0, max_participants: 0 }),
            armed: Cell::new(false),
        }
    };
    /// The splits dispatched while armed: touched, and allocated, only then.
    static SPLIT_LOG: RefCell<Vec<Split>> = const { RefCell::new(Vec::new()) };
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

/// Clears this thread's intra-op counters, and arms its split log when
/// `log` is set (disarming and dropping any earlier one otherwise).
pub fn reset_stats(log: bool) {
    TALLY.with(|t| {
        t.stats.set(IntraOpStats::default());
        t.armed.set(log);
    });
    if log {
        SPLIT_LOG.with(|l| l.borrow_mut().clear());
    }
}

/// Returns and clears this thread's intra-op counters.
pub fn take_stats() -> IntraOpStats {
    TALLY.with(|t| t.stats.replace(IntraOpStats::default()))
}

/// Disarms this thread's split log, returning every split dispatched on
/// it since [`reset_stats`] armed it (empty when it was not armed).
pub fn take_split_log() -> Vec<Split> {
    match TALLY.with(|t| t.armed.replace(false)) {
        true => SPLIT_LOG.with(|l| std::mem::take(&mut *l.borrow_mut())),
        false => Vec::new(),
    }
}

fn record(split: Split, chunks: usize, participants: usize) {
    TALLY.with(|t| {
        let mut v = t.stats.get();
        v.chunks += chunks;
        v.max_participants = v.max_participants.max(participants);
        t.stats.set(v);
        if t.armed.get() {
            SPLIT_LOG.with(|l| l.borrow_mut().push(split));
        }
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
// Dispatch
// ----------------------------------------------------------------------

/// Runs `job` over the chunks of `split`: disjoint row ranges that
/// exactly partition `0..split.rows`, a pure function of the split.
pub fn dispatch(split: Split, job: impl Fn(Range<usize>) + Sync) {
    let (chunks, per) = split.layout();
    let participants = run_chunks(chunks, &|c| job(split.chunk(per, c)));
    record(split, chunks, participants);
}

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

/// The panic of [`dispatch_out`], kept out of line: an inline
/// `assert_eq!` made every dispatch about 6 ns slower (2-vCPU AVX-512
/// Xeon).
#[cold]
#[inline(never)]
fn window_mismatch(split: Split, len: usize, width: usize) -> ! {
    panic!("output of {len} elements for {split:?} of width {width}")
}

/// [`dispatch`] over `out`, which holds `width` elements per row of
/// `split`: `job(rows, window)` receives the chunk's row range and its
/// disjoint window of `out`.
///
/// # Panics
///
/// When `out.len() != split.rows * width`, in every build: the windows
/// are sliced through a raw pointer.
pub fn dispatch_out<T: Send>(
    split: Split,
    out: &mut [T],
    width: usize,
    job: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    if Some(out.len()) != split.rows.checked_mul(width) {
        window_mismatch(split, out.len(), width);
    }
    let ptr = SendPtr(out.as_mut_ptr());
    dispatch(split, |r| {
        let elems = r.start * width..r.end * width;
        // SAFETY: the chunks partition 0..rows disjointly and the length
        // check above keeps every window in bounds; the scoped join
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
    dispatch(elements(n), |r| {
        let start = r.start;
        // SAFETY: disjoint windows of the reserved capacity; set_len runs
        // only after the scoped join wrote all n elements.
        fill(start, unsafe { ptr.slice(r) });
    });
    // SAFETY: the element chunks partition 0..n, so all n elements are
    // initialized once the dispatch returns.
    unsafe { out.set_len(n) };
    out
}

/// `f` mapped over `x` once per element, in the order of [`Tensor::map`]
/// (bit-for-bit), by the one chunk-parallel element-wise kernel,
/// `map_chunks`.
///
/// # Errors
///
/// Fails when `x` is not f32.
pub fn unary<'a>(x: impl Into<Cow<'a, Tensor>>, f: impl Fn(f32) -> f32 + Sync) -> Result<Tensor> {
    map_chunks(x, |src, out| map_chunk(&f, src, out))
}

/// The element-wise unary kernel every f32 map runs through, [`unary`]'s
/// and [`crate::fused::map_run`]'s: the standalone pointwise ops, the
/// pointwise runs of fused nodes and the Conv+BN activation epilogue all
/// dispatch [`elements`]`(numel)` here. `job` maps one chunk, from `src` into `out`
/// or, with no source, `out` in place, and must write every element of
/// `out`:
///
/// * a dense input it borrows, or shares, is read in one pass into a
///   fresh buffer;
/// * a dense input it owns uniquely is mapped in its own allocation;
/// * a strided input is copied once through the walker, then mapped in
///   place.
pub(crate) fn map_chunks<'a>(
    x: impl Into<Cow<'a, Tensor>>,
    job: impl Fn(Option<&[f32]>, &mut [f32]) + Sync,
) -> Result<Tensor> {
    let map_in_place = |mut data: Vec<f32>, shape: &[usize]| {
        dispatch_out(elements(data.len()), &mut data, 1, |_, win| job(None, win));
        Tensor::from_vec(data, shape)
    };
    let x = match x.into() {
        Cow::Owned(t) => {
            let shape = t.shape().to_vec();
            match t.try_reclaim_f32() {
                Ok(data) => return map_in_place(data, &shape),
                Err(t) => Cow::Owned(t),
            }
        }
        x => x,
    };
    match x.as_slice_f32() {
        Some(src) => {
            let data = alloc_filled(src.len(), |start, out| {
                job(Some(&src[start..start + out.len()]), out);
            });
            Tensor::from_vec(data, x.shape())
        }
        None => map_in_place(x.to_vec_f32()?, x.shape()),
    }
}

/// `f` applied to one chunk of [`map_chunks`]: from `src` into `out` or,
/// with no source, `out` in place.
#[inline]
pub(crate) fn map_chunk(f: impl Fn(f32) -> f32, src: Option<&[f32]>, out: &mut [f32]) {
    match src {
        Some(src) => {
            for (o, &v) in out.iter_mut().zip(src) {
                *o = f(v);
            }
        }
        None => {
            for v in out {
                *v = f(*v);
            }
        }
    }
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

    /// The three decompositions one [`Split::partition`] replaced, as
    /// they were written: flat element chunks, row chunks, and row chunks
    /// of whole blocks.
    mod replaced {
        use super::GRAIN_ELEMS;
        use std::ops::Range;

        pub fn element_partition(total: usize) -> Vec<Range<usize>> {
            let chunks = if total < GRAIN_ELEMS {
                1
            } else {
                total.div_ceil(GRAIN_ELEMS).max(1)
            };
            (0..chunks)
                .map(|c| match chunks {
                    1 => 0..total,
                    _ => c * GRAIN_ELEMS..(c * GRAIN_ELEMS + GRAIN_ELEMS).min(total),
                })
                .collect()
        }

        pub fn row_partition(rows: usize, row_len: usize) -> Vec<Range<usize>> {
            let per = (GRAIN_ELEMS / row_len.max(1)).max(1);
            let chunks = if rows.saturating_mul(row_len) < GRAIN_ELEMS {
                1
            } else {
                rows.div_ceil(per).max(1)
            };
            (0..chunks)
                .map(|c| match chunks {
                    1 => 0..rows,
                    _ => c * per..(c * per + per).min(rows),
                })
                .collect()
        }

        pub fn block_partition(rows: usize, row_len: usize, block: usize) -> Vec<Range<usize>> {
            let block = block.max(1);
            row_partition(rows.div_ceil(block), block * row_len)
                .into_iter()
                .map(|b| b.start * block..(b.end * block).min(rows))
                .collect()
        }
    }

    #[test]
    fn partition_matches_the_three_shapes_it_replaces() {
        // element(t) = rows(t, 1) and rows(r, l) = blocks(r, l, 1): one
        // partition serves all three, chunk for chunk
        let sizes = [
            0usize,
            1,
            7,
            100,
            GRAIN_ELEMS - 1,
            GRAIN_ELEMS,
            GRAIN_ELEMS + 1,
        ];
        for total in sizes.into_iter().chain([5 * GRAIN_ELEMS + 13, 1 << 20]) {
            assert_eq!(
                elements(total).partition(),
                replaced::element_partition(total),
                "total={total}"
            );
            assert_eq!(
                replaced::element_partition(total),
                replaced::row_partition(total, 1)
            );
        }
        for rows in sizes.into_iter().chain([1000, 16384]) {
            for row_len in [0usize, 1, 3, 150, 777, 16384, 2 * GRAIN_ELEMS] {
                let want = replaced::row_partition(rows, row_len);
                assert_eq!(replaced::block_partition(rows, row_len, 1), want);
                assert_eq!(Split::rows("t", rows, row_len).partition(), want);
                for block in [0usize, 2, 32, 5000] {
                    assert_eq!(
                        Split {
                            block,
                            ..Split::rows("t", rows, row_len)
                        }
                        .partition(),
                        replaced::block_partition(rows, row_len, block),
                        "rows={rows} len={row_len} block={block}"
                    );
                }
            }
        }
    }

    /// Each chunk starts where the previous one ended and the last ends
    /// at `rows`.
    fn assert_cover(split: Split) {
        let mut next = 0usize;
        for (c, r) in split.partition().into_iter().enumerate() {
            assert_eq!(r.start, next, "{split:?} chunk={c}");
            next = r.end;
        }
        assert_eq!(next, split.rows, "{split:?} must cover 0..rows");
    }

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
            assert_cover(elements(total));
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
            assert_cover(Split::rows("row", rows, row_len));
        }
    }

    #[test]
    fn partitioning_is_a_pure_function_of_shape() {
        // same shape => same chunk layout, with or without a runner, on
        // repeated calls, and independent of the runner's thread count
        let split = elements(3 * GRAIN_ELEMS + 17);
        let base = split.partition();
        for threads in [1usize, 2, 8] {
            let under = with_test_runner(threads, || split.partition());
            assert_eq!(base, under, "chunk ranges moved with thread count");
        }
    }

    #[test]
    fn threshold_only_collapses_to_one_chunk() {
        let chunks = |s: Split| s.partition().len();
        assert_eq!(chunks(elements(100)), 1);
        assert_eq!(chunks(elements(GRAIN_ELEMS - 1)), 1);
        assert_eq!(chunks(elements(GRAIN_ELEMS * 3)), 3);
        assert_eq!(chunks(Split::rows("row", 10, 100)), 1);
        assert_eq!(chunks(Split::rows("row", 10, GRAIN_ELEMS)), 10);
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
                dispatch_out(elements(n), &mut out, 1, |r, win| {
                    for (j, v) in win.iter_mut().enumerate() {
                        *v = f(r.start + j);
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
    #[should_panic(expected = "output of 11 elements for Split")]
    fn a_window_past_the_output_panics_in_every_build() {
        // 3 rows of 4 need 12 elements: 11 would slice past the buffer
        dispatch_out(Split::rows("row", 3, 4), &mut [0u8; 11], 4, |_, _| {});
    }
    #[test]
    fn unary_and_binary_match_tensor_combinators_bitwise() {
        let n = GRAIN_ELEMS + 100;
        let a = Tensor::from_vec((0..n).map(|i| (i as f32) * 0.37 - 50.0).collect(), &[n]).unwrap();
        let b = Tensor::from_vec((0..n).map(|i| (i as f32).cos()).collect(), &[n]).unwrap();
        // transposed and narrowed: a strided view of several chunks
        let (rows, cols) = (300, 400);
        let base = Tensor::from_vec(
            (0..rows * cols)
                .map(|i| (i as f32) * 0.01 - 600.0)
                .collect(),
            &[rows, cols],
        )
        .unwrap();
        let strided = base.permute(&[1, 0]).unwrap().narrow(1, 10, 250).unwrap();
        assert!(!strided.is_contiguous() && strided.numel() > 3 * GRAIN_ELEMS);
        let f = |x: f32| (x * 1.5).tanh();
        let g = |x: f32, y: f32| x * y + 0.25;
        let want_u = a.map(f).unwrap().to_vec_f32().unwrap();
        let want_b = a.zip_map(&b, g).unwrap().to_vec_f32().unwrap();
        let want_s = strided.map(f).unwrap().to_vec_f32().unwrap();
        for threads in [1usize, 2, 4, 8] {
            let (got_u, got_b, got_s) = with_test_runner(threads, || {
                (
                    unary(&a, f).unwrap().to_vec_f32().unwrap(),
                    binary(&a, &b, g).unwrap().to_vec_f32().unwrap(),
                    unary(&strided, f).unwrap().to_vec_f32().unwrap(),
                )
            });
            for (want, got) in [(&want_u, &got_u), (&want_b, &got_b), (&want_s, &got_s)] {
                assert_eq!(want.len(), got.len());
                assert!(
                    want.iter()
                        .zip(got)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "threads={threads}"
                );
            }
        }
        // the strided input is copied once and mapped chunk-parallel
        reset_stats(false);
        unary(&strided, f).unwrap();
        assert_eq!(
            take_stats().chunks,
            elements(strided.numel()).partition().len()
        );
    }

    #[test]
    fn unary_reuses_unique_storage() {
        // a uniquely owned dense input is mapped in its own allocation
        let t = Tensor::from_vec(vec![1.0, 4.0, 9.0], &[3]).unwrap();
        let buffer = t.as_slice_f32().unwrap().as_ptr();
        let r = unary(t, f32::sqrt).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.as_slice_f32().unwrap().as_ptr(), buffer);
        // a shared one is read into a fresh buffer, leaving the clone alone
        let t = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        let keep = t.clone();
        let r = unary(t, |v| v * 10.0).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![20.0]);
        assert_eq!(keep.to_vec_f32().unwrap(), vec![2.0]);
        // and so is a borrowed one, however it is owned
        let r = unary(&keep, |v| v * 10.0).unwrap();
        assert_eq!(r.to_vec_f32().unwrap(), vec![20.0]);
        assert_eq!(keep.to_vec_f32().unwrap(), vec![2.0]);
        assert!(!r.shares_storage(&keep));
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
        reset_stats(false);
        dispatch(elements(10), |_r| {});
        let s = take_stats();
        assert_eq!(s.chunks, 1, "small op stays one chunk");
        assert_eq!(s.max_participants, 1);

        with_test_runner(4, || {
            reset_stats(false);
            dispatch(elements(4 * GRAIN_ELEMS), |_r| {
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

    #[test]
    fn the_split_log_records_only_while_armed() {
        let split = Split::rows("row", 3, 4);
        reset_stats(false);
        dispatch(split, |_r| {});
        assert_eq!(take_split_log(), vec![]);
        reset_stats(true);
        dispatch(split, |_r| {});
        dispatch(elements(5), |_r| {});
        assert_eq!(take_split_log(), vec![split, elements(5)]);
        // taking disarms it
        dispatch(split, |_r| {});
        assert_eq!(take_split_log(), vec![]);
        assert_eq!(take_stats().chunks, 3);
    }
}
