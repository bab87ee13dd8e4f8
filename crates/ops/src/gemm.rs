//! GEMM-based operators: Linear, matmul, batched matmul, Conv2d, Conv1D.
//!
//! These are the operators the paper classifies as *GEMM operators*
//! (§2.1.1): each reduces to a perfectly nested multiply–accumulate loop
//! and is the target of GPU tensor-core acceleration. `conv2d` is lowered
//! through `im2col` exactly as the cuDNN lineage does, except depthwise
//! convolutions, which run a direct row kernel; the sliding-window
//! [`conv2d_direct`] is kept as a cross-check oracle.
//!
//! Blocking, from the inside out:
//!
//! * **Tile.** B is packed into `[panel][k][NR]` lanes (tails zero-padded)
//!   and an `MR x NR = 8 x 32` tile computes eight output rows against one
//!   panel. That layout is the same on every host; only the body that
//!   computes a tile is chosen at run time ([`tile_kind`]): on AVX-512F
//!   hosts sixteen ZMM accumulators, two B loads and eight A broadcasts per
//!   `k`; on AVX2+FMA hosts four `4 x 16` sub-tiles of eight YMM
//!   accumulators each; elsewhere a portable per-element loop.
//! * **Panel groups.** The output is walked in units of *(panel group x
//!   row block)*. A panel group is as many panels as fit in
//!   [`PANEL_GROUP_BYTES`]; units are ordered group-major, so consecutive
//!   units of one group read panels that are already in L2 instead of
//!   streaming all of B once per row block.
//! * **Convolution.** One image at a time, im2col writes straight into the
//!   panel layout and the GEMM writes straight into the output; the bias
//!   is one in-place row pass.
//!
//! Every output element is one accumulator summed over ascending `k` by
//! fused multiply-add: AVX-512F or AVX2+FMA lanes, or `f32::mul_add` in
//! the portable body. A fused multiply-add computes the same chain at any
//! vector width, so every body gives the same bits. Which body runs
//! depends only on the host CPU, and the partition only on the shape, so
//! results are bit-identical across thread counts, intra-op modes,
//! engines, batch sizes, operand layouts and hosts.

use std::ops::Range;

use ngb_tensor::{num_elements, Tensor, TensorError};

use crate::parallel::{self, SendPtr, Split};
use crate::{OpCost, Result, F32_BYTES};

/// Register-block height: rows of C computed together by one tile.
const MR: usize = 8;
/// Register-block width: one packed B panel is `NR` output columns.
const NR: usize = 32;
/// A quarter of the tile, `SUB_MR x SUB_NR`: the AVX2 body's sub-tile,
/// and the grain at which both fused bodies skip the rows and columns a
/// partial tile does not read back.
const SUB_MR: usize = 4;
const SUB_NR: usize = 16;
/// Packed-B bytes one panel group may hold: small enough to stay in a
/// core's L2 beside the A rows of a block, large enough that a group
/// amortizes re-reading A.
const PANEL_GROUP_BYTES: usize = 256 * 1024;

/// The packed-panel split of a `[k, n]` B operand: `n / NR` panels
/// (rounded up) of `k * NR` elements. Packing — and im2col, which packs
/// as it gathers — fills the panels chunk-parallel over it.
pub fn packed_panels(k: usize, n: usize) -> Split {
    Split::rows("gemm-pack", n.div_ceil(NR), k * NR)
}

/// Length of the packed-panel buffer for a `[k, n]` B operand.
fn packed_len(k: usize, n: usize) -> usize {
    let panels = packed_panels(k, n);
    panels.rows * panels.row_len
}

/// Fills the packed panels of a `[k, n]` B operand chunk-parallel:
/// `fill(j0, panel)` writes the `[k][NR]` panel of columns `j0..j0 + NR`.
fn fill_panels(k: usize, n: usize, packed: &mut [f32], fill: impl Fn(usize, &mut [f32]) + Sync) {
    let panels = packed_panels(k, n);
    let panel_len = panels.row_len;
    if panel_len == 0 {
        return;
    }
    parallel::dispatch_out(panels, packed, panel_len, |r, win| {
        for (p, panel) in win.chunks_exact_mut(panel_len).enumerate() {
            fill((r.start + p) * NR, panel);
        }
    });
}

/// The f32 storage of a GEMM operand, or a typed error naming `op`.
fn f32_storage<'a>(t: &'a Tensor, op: &'static str) -> Result<&'a [f32]> {
    t.storage_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: t.dtype().name(),
        op,
    })
}

/// Rejects a non-f32 tensor with a typed error naming `op`.
fn require_f32(t: &Tensor, op: &'static str) -> Result<()> {
    f32_storage(t, op).map(|_| ())
}

/// A rank-2 operand as (full storage, base offset, row stride, col stride):
/// the packing and micro-kernel layer consumes views in this form directly,
/// so transposed/permuted/narrowed operands never materialize — the stride
/// walk is folded into the pack loop that copies anyway.
#[derive(Clone, Copy)]
struct Mat<'a> {
    data: &'a [f32],
    base: usize,
    rs: isize,
    cs: isize,
}

impl<'a> Mat<'a> {
    /// Views a rank-2 f32 tensor.
    fn of(t: &'a Tensor, op: &'static str) -> Result<Mat<'a>> {
        debug_assert_eq!(t.rank(), 2);
        Ok(Mat {
            data: f32_storage(t, op)?,
            base: t.storage_offset(),
            rs: t.strides()[0],
            cs: t.strides()[1],
        })
    }

    /// Storage offset of element `(i, j)`.
    #[inline]
    fn at(&self, i: usize, j: usize) -> usize {
        (self.base as isize + i as isize * self.rs + j as isize * self.cs) as usize
    }
}

/// Packs `B[k, n]` (any strides) into `[panel][k][NR]` panels so the
/// micro-kernel's inner loop reads B with unit stride. Tail-panel lanes
/// beyond `n` are written as zeros (the buffer is reusable across calls).
///
/// Row-contiguous operands (`cs == 1`, which includes dense row-major B)
/// take a memcpy lane path; anything else — a transposed Linear weight, a
/// permuted bmm operand — is gathered element-wise in a cache-friendly
/// order without ever materializing the view.
fn pack_b_mat(b: Mat<'_>, k: usize, n: usize, packed: &mut [f32]) {
    fill_panels(k, n, packed, |j0, dst| {
        let w = NR.min(n - j0);
        if w < NR {
            dst.fill(0.0);
        }
        if b.cs == 1 && b.rs >= 0 {
            for (kk, lane) in dst.chunks_exact_mut(NR).enumerate() {
                let row = b.at(kk, j0);
                lane[..w].copy_from_slice(&b.data[row..row + w]);
            }
        } else {
            // k-outer order: the panel is written sequentially while each
            // of its NR columns is read as its own forward stream — for
            // B = w^T, one weight row per column
            for (kk, lane) in dst.chunks_exact_mut(NR).enumerate() {
                for (jj, d) in lane[..w].iter_mut().enumerate() {
                    *d = b.data[b.at(kk, j0 + jj)];
                }
            }
        }
    });
}

/// The body that computes an `MR x NR` tile. All three share the packed
/// layout, the tiling and every output bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tile {
    /// Sixteen ZMM accumulators: AVX-512F (with AVX2 and FMA).
    Avx512,
    /// Four `SUB_MR x SUB_NR` sub-tiles of eight YMM accumulators: AVX2
    /// and FMA.
    Avx2Fma,
    /// A per-element `f32::mul_add`, on any host.
    Portable,
}

impl Tile {
    /// Whether this host can run the body. Detection is a cached CPUID
    /// probe — a pure function of the hardware, never of thread count or
    /// intra-op mode, so kernel selection cannot break the bit-identity
    /// guarantee on a given machine.
    fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                Tile::Avx512 => has!("avx512f") && has!("avx2") && has!("fma"),
                Tile::Avx2Fma => has!("avx2") && has!("fma"),
                Tile::Portable => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Tile::Portable
        }
    }

    /// The widest body this host runs.
    fn host() -> Tile {
        [Tile::Avx512, Tile::Avx2Fma]
            .into_iter()
            .find(|t| t.runs_here())
            .unwrap_or(Tile::Portable)
    }
}

/// Which tile body this host's GEMMs and depthwise convolutions run:
/// `"avx512"`, `"avx2-fma"` or `"portable"`. All three give identical
/// bits; the portable one is the slowest.
pub fn tile_kind() -> &'static str {
    match Tile::host() {
        Tile::Avx512 => "avx512",
        Tile::Avx2Fma => "avx2-fma",
        Tile::Portable => "portable",
    }
}

/// Where a fused tile's accumulators land: rows of up to `NR` elements
/// starting at `c`, `ldc` elements apart, each plus the matching prefix of
/// `bias` when given. A full tile writes straight into C; a partial one into a
/// scratch tile.
#[cfg(target_arch = "x86_64")]
struct TileOut<'a> {
    c: *mut f32,
    ldc: usize,
    bias: Option<&'a [f32]>,
}

/// Runs the fused body `tile` on one `MR x NR` tile against one packed
/// panel: each output element accumulates in one vector lane via fused
/// multiply-add over ascending `kk`, and a bias is added to the finished
/// accumulator, as the scalar write-back does. The portable loop runs the
/// same `mul_add` chain per element, so all bodies' bits agree, and results
/// stay bit-stable across runs, thread counts and intra-op modes.
///
/// Only the first `live = (rows, cols)` of the tile are read back, so both
/// bodies compute just the `SUB_MR x SUB_NR` quarters that meet them: the
/// AVX2 body runs those sub-tiles, the AVX-512 body a 4- or 8-row, 16- or
/// 32-wide variant. A decode step's one row then costs a quarter tile, not
/// a whole one.
///
/// # Safety
///
/// `tile` must be a vector body and [`Tile::runs_here`]; `arows` must hold the
/// `rows = live.0.next_multiple_of(SUB_MR)` full k-contiguous rows spaced
/// `stride` elements apart starting at `arows[0]` (i.e. `arows.len() >=
/// (rows - 1) * stride + k`), `panel` must be `k * NR` long, and `out`
/// must be `rows` rows of `cols = live.1.next_multiple_of(SUB_NR)`
/// writable elements no other thread touches, with `bias` at least `cols`
/// long.
#[cfg(target_arch = "x86_64")]
unsafe fn tile_fused(
    tile: Tile,
    arows: &[f32],
    stride: usize,
    k: usize,
    panel: &[f32],
    out: TileOut<'_>,
    live: (usize, usize),
) {
    let rows = live.0.next_multiple_of(SUB_MR);
    debug_assert!(rows <= MR && live.1 <= NR);
    debug_assert!(arows.len() >= (rows - 1) * stride + k && panel.len() == k * NR);
    let (a, b) = (arows.as_ptr(), panel.as_ptr());
    match (tile, rows > SUB_MR, live.1 > SUB_NR) {
        (Tile::Avx512, true, true) => tile_avx512::<MR, 2>(a, stride, k, b, out),
        (Tile::Avx512, true, false) => tile_avx512::<MR, 1>(a, stride, k, b, out),
        (Tile::Avx512, false, true) => tile_avx512::<SUB_MR, 2>(a, stride, k, b, out),
        (Tile::Avx512, false, false) => tile_avx512::<SUB_MR, 1>(a, stride, k, b, out),
        (Tile::Avx2Fma, ..) => {
            for r0 in (0..rows).step_by(SUB_MR) {
                for c0 in (0..live.1).step_by(SUB_NR) {
                    let sub = TileOut {
                        c: out.c.add(r0 * out.ldc + c0),
                        ldc: out.ldc,
                        bias: out.bias.map(|bs| &bs[c0..c0 + SUB_NR]),
                    };
                    subtile_avx2(a.add(r0 * stride), stride, k, b.add(c0), sub);
                }
            }
        }
        (Tile::Portable, ..) => unreachable!("the portable tile is not a vector body"),
    }
}

/// AVX-512F body of [`tile_fused`]: the first `R` rows and `16 * H`
/// columns of the tile in `R * H` ZMM accumulators, `H` B loads and `R` A
/// broadcasts per `kk` — at full size sixteen accumulators, two loads and
/// eight broadcasts.
///
/// # Safety
///
/// As [`tile_fused`] for `R` rows, with `a` and `panel` the starts of
/// `arows` and the panel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn tile_avx512<const R: usize, const H: usize>(
    a: *const f32,
    stride: usize,
    k: usize,
    panel: *const f32,
    out: TileOut<'_>,
) {
    use std::arch::x86_64::*;
    let rows: [*const f32; R] = std::array::from_fn(|i| a.wrapping_add(i * stride));
    let mut acc = [[_mm512_setzero_ps(); H]; R];
    let mut bp = panel;
    for kk in 0..k {
        let b: [__m512; H] = std::array::from_fn(|h| _mm512_loadu_ps(bp.add(16 * h)));
        for (c, row) in acc.iter_mut().zip(rows) {
            let x = _mm512_set1_ps(*row.add(kk));
            for (c, &b) in c.iter_mut().zip(&b) {
                *c = _mm512_fmadd_ps(x, b, *c);
            }
        }
        bp = bp.add(NR);
    }
    for (ii, row) in acc.into_iter().enumerate() {
        let dst = out.c.add(ii * out.ldc);
        for (h, mut c) in row.into_iter().enumerate() {
            if let Some(bs) = out.bias {
                c = _mm512_add_ps(c, _mm512_loadu_ps(bs.as_ptr().add(16 * h)));
            }
            _mm512_storeu_ps(dst.add(16 * h), c);
        }
    }
}

/// AVX2+FMA sub-tile of [`tile_fused`]: `SUB_MR x SUB_NR` outputs in eight
/// YMM accumulators, two B loads and four A broadcasts per `kk`, reading
/// `SUB_NR` lanes of each `NR`-wide panel row from `panel` on.
///
/// # Safety
///
/// As [`tile_fused`], for the `SUB_MR` rows at `a` and the `SUB_NR` lanes
/// at `panel`, with `out.bias` at least `SUB_NR` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn subtile_avx2(
    a: *const f32,
    stride: usize,
    k: usize,
    panel: *const f32,
    out: TileOut<'_>,
) {
    use std::arch::x86_64::*;
    let (a0, a1, a2, a3) = (a, a.add(stride), a.add(2 * stride), a.add(3 * stride));
    let mut bp = panel;
    let mut c00 = _mm256_setzero_ps();
    let mut c01 = _mm256_setzero_ps();
    let mut c10 = _mm256_setzero_ps();
    let mut c11 = _mm256_setzero_ps();
    let mut c20 = _mm256_setzero_ps();
    let mut c21 = _mm256_setzero_ps();
    let mut c30 = _mm256_setzero_ps();
    let mut c31 = _mm256_setzero_ps();
    for kk in 0..k {
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        let x = _mm256_set1_ps(*a0.add(kk));
        c00 = _mm256_fmadd_ps(x, b0, c00);
        c01 = _mm256_fmadd_ps(x, b1, c01);
        let x = _mm256_set1_ps(*a1.add(kk));
        c10 = _mm256_fmadd_ps(x, b0, c10);
        c11 = _mm256_fmadd_ps(x, b1, c11);
        let x = _mm256_set1_ps(*a2.add(kk));
        c20 = _mm256_fmadd_ps(x, b0, c20);
        c21 = _mm256_fmadd_ps(x, b1, c21);
        let x = _mm256_set1_ps(*a3.add(kk));
        c30 = _mm256_fmadd_ps(x, b0, c30);
        c31 = _mm256_fmadd_ps(x, b1, c31);
        bp = bp.add(NR);
    }
    let rows = [(c00, c01), (c10, c11), (c20, c21), (c30, c31)];
    for (ii, (mut lo, mut hi)) in rows.into_iter().enumerate() {
        if let Some(bs) = out.bias {
            lo = _mm256_add_ps(lo, _mm256_loadu_ps(bs.as_ptr()));
            hi = _mm256_add_ps(hi, _mm256_loadu_ps(bs.as_ptr().add(8)));
        }
        let row = out.c.add(ii * out.ldc);
        _mm256_storeu_ps(row, lo);
        _mm256_storeu_ps(row.add(8), hi);
    }
}

/// Portable tile: per-element private accumulators summed over ascending
/// `kk` by `f32::mul_add`, the vector bodies' chain; handles partial row
/// blocks (`mr < MR`). Rows start at `av[abase]` and are k-contiguous,
/// spaced `stride` apart.
fn tile_portable(
    av: &[f32],
    abase: usize,
    stride: usize,
    mr: usize,
    k: usize,
    panel: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for kk in 0..k {
        let bp = &panel[kk * NR..(kk + 1) * NR];
        for (ii, accr) in acc.iter_mut().enumerate().take(mr) {
            let aik = av[abase + ii * stride + kk];
            for (a, &b) in accr.iter_mut().zip(bp) {
                *a = aik.mul_add(b, *a);
            }
        }
    }
}

/// How `gemm_into` walks an `[m, n]` output with reduction length `k`:
/// units of *(panel group x row block)*, group-major, so consecutive
/// units of one group reuse the group's panels from L2. A pure function
/// of `(m, k, n)`, never of threads or layout.
#[derive(Clone, Copy)]
struct Tiling {
    m: usize,
    n: usize,
    blocks: usize,
    group_cols: usize,
}

impl Tiling {
    fn new(m: usize, k: usize, n: usize) -> Tiling {
        let panel_bytes = k.max(1) * NR * std::mem::size_of::<f32>();
        let group_panels = (PANEL_GROUP_BYTES / panel_bytes).max(1);
        Tiling {
            m,
            n,
            blocks: m.div_ceil(MR),
            group_cols: group_panels * NR,
        }
    }

    fn units(&self) -> usize {
        self.blocks * self.n.div_ceil(self.group_cols)
    }

    /// Output rows and columns of unit `u`.
    fn unit(&self, u: usize) -> TileUnit {
        let (g, ib) = (u / self.blocks, u % self.blocks);
        let (i0, j0) = (ib * MR, g * self.group_cols);
        (
            i0..(i0 + MR).min(self.m),
            j0..(j0 + self.group_cols).min(self.n),
        )
    }
}

/// One GEMM work unit: the `(rows, cols)` rectangle of the output it
/// writes.
pub type TileUnit = (Range<usize>, Range<usize>);

/// The split `gemm_into` dispatches for `[m, k] @ [k, n]`: its work
/// units, each weighing the output elements of a full unit, grouped
/// consecutively into chunks.
pub fn tile_units(m: usize, k: usize, n: usize) -> Split {
    let t = Tiling::new(m, k, n);
    Split::rows("gemm-chunk", t.units(), MR * t.group_cols)
}

/// Each work unit's `(rows, cols)` rectangle of the `[m, n]` output, in
/// unit order: `ngb-sanitize` checks that they tile the output exactly.
pub fn unit_rects(m: usize, k: usize, n: usize) -> Vec<TileUnit> {
    let t = Tiling::new(m, k, n);
    (0..t.units()).map(|u| t.unit(u)).collect()
}

/// `C[m, n] = A[m, k] @ packed_B (+ bias)` with `MR x NR` register
/// blocking over [`Tiling`]'s units, on this host's tile body; chunks of
/// units fan out across intra-op threads.
///
/// Every output element is one private accumulator summed over `kk` in
/// ascending order, so results are bit-identical regardless of how units
/// are chunked across threads (kernel selection depends only on host CPU
/// features, never on the chunking).
///
/// The previous i-k-j loop skipped `aik == 0.0` terms. That branch only
/// pays off on sparse inputs; every workload in this suite is dense,
/// where it costs a compare+branch per multiply-add and blocks
/// vectorization of the inner loop, so the micro-kernel is branch-free.
fn gemm_into(
    a: Mat<'_>,
    m: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    gemm_tiled(Tile::host(), a, m, k, n, packed, bias, out);
}

/// [`gemm_into`] on the tile body `tile`, which must run on this host.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled(
    tile: Tile,
    a: Mat<'_>,
    m: usize,
    k: usize,
    n: usize,
    packed: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    assert!(tile.runs_here(), "{tile:?} tile on a host without it");
    debug_assert_eq!(out.len(), m * n);
    if k == 0 {
        // empty reduction: zeros (+ bias), as the naive loop produced
        for row in out.chunks_exact_mut(n.max(1)) {
            match bias {
                Some(bs) => row.copy_from_slice(&bs[..row.len()]),
                None => row.fill(0.0),
            }
        }
        return;
    }
    // Rows already k-contiguous (dense, or a row-major view with padded
    // row stride) feed the tiles in place; otherwise the block's rows are
    // gathered into a small buffer — either way the tile sees identical
    // values in identical order, so results stay bit-identical across
    // layouts.
    let a_direct = a.cs == 1 && a.rs >= 0;
    let t = Tiling::new(m, k, n);
    let ptr = SendPtr(out.as_mut_ptr());
    parallel::dispatch(tile_units(m, k, n), |units| {
        let mut abuf: Vec<f32> = Vec::new();
        let mut acc = [[0.0f32; NR]; MR];
        for u in units {
            let (rows, cols) = t.unit(u);
            let (i0, mr) = (rows.start, rows.len());
            // Partial tail blocks are zero-padded up to whole SUB_MR-row
            // quarters so the vector bodies handle them too; the padded
            // rows' accumulators are discarded by the `take(mr)`
            // write-back below. Every body runs the same chain per row, so
            // a row's bits do not depend on the block it lands in, i.e. on
            // the batch or sequence length.
            let arows = mr.next_multiple_of(SUB_MR);
            let (av, abase, astride) = if a_direct && arows == mr {
                (a.data, a.at(i0, 0), a.rs as usize)
            } else {
                abuf.clear();
                abuf.resize(arows * k, 0.0);
                for (ii, dst) in abuf.chunks_exact_mut(k).take(mr).enumerate() {
                    if a_direct {
                        let src = a.at(i0 + ii, 0);
                        dst.copy_from_slice(&a.data[src..src + k]);
                    } else {
                        for (kk, d) in dst.iter_mut().enumerate() {
                            *d = a.data[a.at(i0 + ii, kk)];
                        }
                    }
                }
                (abuf.as_slice(), 0, k)
            };
            for p in cols.start / NR..cols.end.div_ceil(NR) {
                let panel = &packed[p * k * NR..(p + 1) * k * NR];
                let j0 = p * NR;
                let w = NR.min(n - j0);
                match tile {
                    // SAFETY: gemm_tiled's assert checked that the body
                    // runs here; the block (zero-padded when partial) has
                    // `arows` complete k-contiguous A rows spaced astride
                    // apart starting at av[abase]. When the quarters the
                    // tile computes are exactly its live rows and columns,
                    // that window of `out` lies inside this unit, which no
                    // other chunk writes, and the scoped join keeps `out`
                    // borrowed until every chunk returns; otherwise the
                    // tile lands in `acc`.
                    #[cfg(target_arch = "x86_64")]
                    Tile::Avx512 | Tile::Avx2Fma => unsafe {
                        let full = arows == mr && w.is_multiple_of(SUB_NR);
                        let out = if full {
                            TileOut {
                                c: ptr.0.add(i0 * n + j0),
                                ldc: n,
                                bias: bias.map(|bs| &bs[j0..j0 + w]),
                            }
                        } else {
                            TileOut {
                                c: acc.as_mut_ptr().cast(),
                                ldc: NR,
                                bias: None,
                            }
                        };
                        tile_fused(tile, &av[abase..], astride, k, panel, out, (mr, w));
                        if full {
                            continue;
                        }
                    },
                    _ => {
                        acc = [[0.0; NR]; MR];
                        tile_portable(av, abase, astride, mr, k, panel, &mut acc);
                    }
                }
                for (ii, accr) in acc.iter().enumerate().take(mr) {
                    // SAFETY: units are disjoint rectangles of the
                    // output; the scoped join keeps `out` borrowed until
                    // every chunk returns.
                    let dst = unsafe { ptr.slice((i0 + ii) * n + j0..(i0 + ii) * n + j0 + w) };
                    match bias {
                        Some(bs) => {
                            for (d, (&a, &b)) in
                                dst.iter_mut().zip(accr.iter().zip(&bs[j0..j0 + w]))
                            {
                                *d = a + b;
                            }
                        }
                        None => dst.copy_from_slice(&accr[..w]),
                    }
                }
            }
        }
    });
}

/// `C[M,N] = A[M,K] @ B[K,N]` on contiguous row-major buffers.
///
/// # Errors
///
/// Fails when either input is not rank-2 f32 or inner dims disagree.
///
/// # Examples
///
/// ```
/// use ngb_tensor::Tensor;
/// # fn main() -> Result<(), ngb_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(ngb_ops::gemm::matmul(&a, &i)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::InvalidArgument(format!(
            "matmul requires rank-2 inputs, got ranks {} and {}",
            a.rank(),
            b.rank()
        )));
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![m, k],
            actual: vec![k2, n],
            op: "matmul",
        });
    }
    let (am, bm) = (Mat::of(a, "matmul")?, Mat::of(b, "matmul")?);
    let mut packed = vec![0.0f32; packed_len(k, n)];
    pack_b_mat(bm, k, n, &mut packed);
    let mut out = vec![0.0f32; m * n];
    gemm_into(am, m, k, n, &packed, None, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Analytic cost of `[m,k] @ [k,n]`.
pub fn matmul_cost(m: usize, k: usize, n: usize) -> OpCost {
    OpCost {
        flops: 2.0 * m as f64 * k as f64 * n as f64,
        bytes_read: ((m * k) + (k * n)) as f64 * F32_BYTES,
        bytes_written: (m * n) as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

/// Batched matmul: `[B,M,K] @ [B,K,N] -> [B,M,N]` (like `torch.bmm`).
///
/// # Errors
///
/// Fails on non-rank-3 inputs or mismatched batch/inner dims.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.rank() != 3 || b.rank() != 3 || a.shape()[0] != b.shape()[0] {
        return Err(TensorError::ShapeMismatch {
            expected: a.shape().to_vec(),
            actual: b.shape().to_vec(),
            op: "bmm",
        });
    }
    let (batch, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (k2, n) = (b.shape()[1], b.shape()[2]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            expected: vec![m, k],
            actual: vec![k2, n],
            op: "matmul",
        });
    }
    let av = f32_storage(a, "bmm")?;
    let bv = f32_storage(b, "bmm")?;
    // one packed-panel buffer reused across the batch, one flat output:
    // no per-batch select/unsqueeze/cat traffic. Batch slices are plain
    // stride walks, so attention's `bmm(q, k^T)` on permuted views packs
    // straight from the views without materializing either operand.
    let mut packed = vec![0.0f32; packed_len(k, n)];
    let mut out = vec![0.0f32; batch * m * n];
    for i in 0..batch {
        let bi = Mat {
            data: bv,
            base: (b.storage_offset() as isize + i as isize * b.strides()[0]) as usize,
            rs: b.strides()[1],
            cs: b.strides()[2],
        };
        let ai = Mat {
            data: av,
            base: (a.storage_offset() as isize + i as isize * a.strides()[0]) as usize,
            rs: a.strides()[1],
            cs: a.strides()[2],
        };
        pack_b_mat(bi, k, n, &mut packed);
        gemm_into(
            ai,
            m,
            k,
            n,
            &packed,
            None,
            &mut out[i * m * n..(i + 1) * m * n],
        );
    }
    Tensor::from_vec(out, &[batch, m, n])
}

/// Analytic cost of `[b,m,k] @ [b,k,n]`.
pub fn bmm_cost(b: usize, m: usize, k: usize, n: usize) -> OpCost {
    let per = matmul_cost(m, k, n);
    OpCost {
        flops: per.flops * b as f64,
        bytes_read: per.bytes_read * b as f64,
        bytes_written: per.bytes_written * b as f64,
        kernels: 1,
        dynamic: false,
    }
}

/// Fully-connected layer: `y = x @ w^T + bias` with `x: [..., in]`,
/// `w: [out, in]`, `bias: [out]` (like `torch.nn.Linear`).
///
/// # Errors
///
/// Fails when the trailing dim of `x` differs from `w`'s `in` dim or the
/// bias length differs from `out`.
pub fn linear(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    linear_impl(x, w, bias, false)
}

/// Shared Linear/Conv1D body. `w_in_out` selects the weight layout:
/// `false` packs `B = w^T` from `[out, in]`, `true` packs `w` directly
/// from GPT-2's `[in, out]` layout — either way without materializing a
/// transposed copy. Crate-visible so the int8 path in [`crate::quant`]
/// can ride the same packed micro-kernel with a quantized weight tensor.
pub(crate) fn linear_impl(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    w_in_out: bool,
) -> Result<Tensor> {
    if w.rank() != 2 {
        return Err(TensorError::InvalidArgument(
            "linear weight must be rank 2".into(),
        ));
    }
    let (out_f, in_f) = if w_in_out {
        (w.shape()[1], w.shape()[0])
    } else {
        (w.shape()[0], w.shape()[1])
    };
    let x_in = *x.shape().last().ok_or_else(|| {
        TensorError::InvalidArgument("linear input must have at least one dim".into())
    })?;
    if x_in != in_f {
        return Err(TensorError::ShapeMismatch {
            expected: vec![in_f],
            actual: vec![x_in],
            op: "linear",
        });
    }
    if let Some(b) = bias {
        if b.shape() != [out_f] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![out_f],
                actual: b.shape().to_vec(),
                op: "linear",
            });
        }
        require_f32(b, "linear")?;
    }
    require_f32(x, "linear")?;
    let rows: usize = x.shape()[..x.rank() - 1].iter().product();
    // Flatten leading dims into a rank-2 view: stride-compatible layouts
    // (including the contiguous case and attention's permuted prologues at
    // batch 1) stay zero-copy; only genuinely incompatible layouts fall
    // back to one counted materialization inside `reshape`.
    let x2 = x.reshape(&[rows, x_in])?;
    // B is `w` (GPT-2's [in, out]) or `w^T` ([out, in]); either is just a
    // stride assignment over the same storage — no transpose copy, and a
    // permuted weight view packs directly too.
    let wv = f32_storage(w, "linear")?;
    let (brs, bcs) = if w_in_out {
        (w.strides()[0], w.strides()[1])
    } else {
        (w.strides()[1], w.strides()[0])
    };
    let wb = Mat {
        data: wv,
        base: w.storage_offset(),
        rs: brs,
        cs: bcs,
    };
    let mut packed = vec![0.0f32; packed_len(in_f, out_f)];
    pack_b_mat(wb, in_f, out_f, &mut packed);
    let bc;
    let bs = match bias {
        Some(b) => {
            bc = crate::param_f32(b);
            Some(&*bc)
        }
        None => None,
    };
    let mut out = vec![0.0f32; rows * out_f];
    gemm_into(
        Mat::of(&x2, "linear")?,
        rows,
        in_f,
        out_f,
        &packed,
        bs,
        &mut out,
    );
    let mut out_shape = x.shape().to_vec();
    *out_shape.last_mut().expect("nonempty") = out_f;
    Tensor::from_vec(out, &out_shape)
}

/// Analytic cost of a linear layer over `rows` rows.
pub fn linear_cost(rows: usize, in_f: usize, out_f: usize, bias: bool) -> OpCost {
    let mut c = matmul_cost(rows, in_f, out_f);
    if bias {
        c.flops += (rows * out_f) as f64;
        c.bytes_read += out_f as f64 * F32_BYTES;
    }
    c
}

/// GPT-2's `Conv1D` (a Linear with transposed weight layout `w: [in, out]`),
/// kept as its own entry point because Hugging Face traces report it as a
/// distinct operator.
///
/// # Errors
///
/// Same conditions as [`linear`].
pub fn conv1d_gpt2(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    linear_impl(x, w, bias, true)
}

/// Validates a conv2d's operand shapes and returns its output `(oh, ow)`.
fn conv2d_out_hw(
    x: &Tensor,
    w: &Tensor,
    stride: usize,
    padding: usize,
    groups: usize,
) -> Result<(usize, usize)> {
    if x.rank() != 4 || w.rank() != 4 {
        return Err(TensorError::InvalidArgument(
            "conv2d requires NCHW x and FCHW w".into(),
        ));
    }
    if stride == 0 || groups == 0 {
        return Err(TensorError::InvalidArgument(
            "conv2d stride/groups must be nonzero".into(),
        ));
    }
    let (c, h, wd) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let (f, cg, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    if c % groups != 0 || f % groups != 0 || cg != c / groups {
        return Err(TensorError::ShapeMismatch {
            expected: vec![f, c / groups, kh, kw],
            actual: w.shape().to_vec(),
            op: "conv2d",
        });
    }
    let out_dim = |input: usize, kernel: usize| {
        (input + 2 * padding)
            .checked_sub(kernel)
            .map(|v| v / stride + 1)
            .ok_or_else(|| {
                TensorError::InvalidArgument("conv2d kernel larger than padded input".into())
            })
    };
    Ok((out_dim(h, kh)?, out_dim(wd, kw)?))
}

/// How [`conv2d`] lowers a convolution, a pure function of its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvLowering {
    /// One input and one output channel per group: the direct row kernel
    /// over the output rows of [`conv2d_rows`].
    Depthwise,
    /// Per image and group: im2col into the packed panels of a `[k, n]` B
    /// operand ([`packed_panels`]), then a `[m, k] @ [k, n]` GEMM writing
    /// that image's output channels of the group.
    Im2col {
        /// Output channels per group.
        m: usize,
        /// Reduction length: input channels per group × kernel taps.
        k: usize,
        /// Output columns: `oh·ow`.
        n: usize,
    },
}

/// The lowering [`conv2d`] dispatches for output `[N, F, oh, ow]`, weight
/// `[F, C/groups, KH, KW]` and `groups`: which splits it dispatches,
/// [`conv2d_rows`] or a GEMM's.
pub fn conv2d_lowering(out: [usize; 4], w: [usize; 4], groups: usize) -> ConvLowering {
    let [_, f, oh, ow] = out;
    let [_, cg, kh, kw] = w;
    if cg == 1 && f == groups {
        ConvLowering::Depthwise
    } else {
        ConvLowering::Im2col {
            m: f / groups.max(1),
            k: cg * kh * kw,
            n: oh * ow,
        }
    }
}

/// The split the depthwise kernel and the bias pass fan out over for a
/// conv2d output `[N, F, oh, ow]`: `N·F·oh` rows of `ow`.
pub fn conv2d_rows(out: &[usize]) -> Split {
    let ow = out.last().copied().unwrap_or(0);
    Split::rows("conv-row", num_elements(out) / ow.max(1), ow)
}

/// An NCHW f32 input view and the convolution window slid over it.
struct ConvInput<'a> {
    xs: &'a [f32],
    base: isize,
    strides: [isize; 4],
    c: usize,
    h: usize,
    w: usize,
    stride: usize,
    pad: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
}

impl ConvInput<'_> {
    /// Storage offset of input row `iy` of channel `ch` in image `b`.
    fn row(&self, b: usize, ch: usize, iy: usize) -> isize {
        let [s0, s1, s2, _] = self.strides;
        self.base + b as isize * s0 + ch as isize * s1 + iy as isize * s2
    }

    /// Writes `dst.len()` input elements of one row, starting at input
    /// column `ix0` and stepping `step` columns, as a copy when both the
    /// step and the row are unit-stride.
    fn copy_row(&self, row: isize, ix0: usize, step: usize, dst: &mut [f32]) {
        let s3 = self.strides[3];
        if step == 1 && s3 == 1 {
            let start = (row + ix0 as isize) as usize;
            dst.copy_from_slice(&self.xs[start..start + dst.len()]);
        } else {
            for (t, d) in dst.iter_mut().enumerate() {
                *d = self.xs[(row + (ix0 + t * step) as isize * s3) as usize];
            }
        }
    }

    /// Fills one packed panel — output columns `j0..j0 + NR` of the
    /// `[cg·kh·kw, oh·ow]` im2col matrix of channels `ch0..ch0 + cg` in
    /// image `b` — in `[k][NR]` order. The panel's columns split into runs
    /// that lie in one output row; each tap copies whole runs, with zeros
    /// where the window hangs over the padding and in lanes past the last
    /// column.
    fn fill_panel(&self, b: usize, ch0: usize, j0: usize, dst: &mut [f32]) {
        let (s, pad, ow) = (self.stride, self.pad, self.ow);
        let w = NR.min(self.oh * ow - j0);
        // (first lane, output row, first output column, length)
        let mut runs = [(0usize, 0usize, 0usize, 0usize); NR];
        let mut nruns = 0;
        let mut j = j0;
        while j < j0 + w {
            let (oy, ox) = (j / ow, j % ow);
            let len = (ow - ox).min(j0 + w - j);
            runs[nruns] = (j - j0, oy, ox, len);
            nruns += 1;
            j += len;
        }
        let channels = dst.len() / (NR * self.kh * self.kw);
        let mut lanes = dst.chunks_exact_mut(NR);
        for ch in ch0..ch0 + channels {
            for ky in 0..self.kh {
                for kx in 0..self.kw {
                    let Some(lane) = lanes.next() else { return };
                    // output columns whose tap lands inside the input row
                    let ox_lo = pad.saturating_sub(kx).div_ceil(s);
                    let ox_hi = (self.w + pad)
                        .checked_sub(kx + 1)
                        .map_or(0, |v| v / s + 1)
                        .min(ow);
                    for &(l, oy, ox, len) in &runs[..nruns] {
                        let seg = &mut lane[l..l + len];
                        let iy = oy * s + ky;
                        if iy < pad || iy >= self.h + pad {
                            seg.fill(0.0);
                            continue;
                        }
                        let lo = ox_lo.clamp(ox, ox + len);
                        let hi = ox_hi.clamp(lo, ox + len);
                        let (head, rest) = seg.split_at_mut(lo - ox);
                        let (mid, tail) = rest.split_at_mut(hi - lo);
                        head.fill(0.0);
                        tail.fill(0.0);
                        if !mid.is_empty() {
                            self.copy_row(self.row(b, ch, iy - pad), lo * s + kx - pad, s, mid);
                        }
                    }
                    lane[w..].fill(0.0);
                }
            }
        }
    }

    /// Writes `nrows` zero-padded input rows of channel `ch` in image `b`,
    /// starting at padded row `pr0`, into `buf`. Each padded row is stored
    /// as `stride` phases of `phase_len` elements (phase `q` holds padded
    /// columns `q, q + stride, …`), so every tap of a strided window reads
    /// a unit-stride run.
    fn fill_window(
        &self,
        b: usize,
        ch: usize,
        pr0: usize,
        nrows: usize,
        phase_len: usize,
        buf: &mut Vec<f32>,
    ) {
        let (s, pad) = (self.stride, self.pad);
        let row_len = s * phase_len;
        buf.resize(nrows * row_len, 0.0);
        for (r, dst) in buf.chunks_exact_mut(row_len).enumerate() {
            let pr = pr0 + r;
            if pr < pad || pr >= self.h + pad {
                dst.fill(0.0);
                continue;
            }
            let row = self.row(b, ch, pr - pad);
            for (q, phase) in dst.chunks_exact_mut(phase_len).enumerate() {
                // padded columns q + t*s: zeros left of the input, the
                // input row, zeros right of it
                let lo = pad.saturating_sub(q).div_ceil(s).min(phase_len);
                let hi = (self.w + pad)
                    .checked_sub(q + 1)
                    .map_or(0, |v| v / s + 1)
                    .clamp(lo, phase_len);
                phase[..lo].fill(0.0);
                phase[hi..].fill(0.0);
                if hi > lo {
                    self.copy_row(row, lo * s + q - pad, s, &mut phase[lo..hi]);
                }
            }
        }
    }
}

/// One depthwise output row on the body of `tile`: `out[ox]` accumulates
/// `w[t] * x_t[ox]` over ascending taps `t`, where `x_t` starts at
/// `base[offs[t]]` — the same single accumulator, in the same order and
/// with the same zero-padding terms, as the im2col GEMM it replaces. Each
/// lane of either vector body and each element of the portable loop runs
/// the same `mul_add` chain, so all three agree bit for bit.
fn depthwise_row(tile: Tile, base: &[f32], offs: &[usize], wt: &[f32], out: &mut [f32]) {
    assert!(tile.runs_here() && offs.iter().all(|&o| o + out.len() <= base.len()));
    match tile {
        // SAFETY (both bodies): the body runs here and every tap's run is
        // in bounds (asserted above).
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512 => unsafe { depthwise_row_avx512(base, offs, wt, out) },
        #[cfg(target_arch = "x86_64")]
        Tile::Avx2Fma => unsafe { depthwise_row_avx2(base, offs, wt, out) },
        _ => {
            out.fill(0.0);
            let ow = out.len();
            for (&o, &wk) in offs.iter().zip(wt) {
                for (d, &v) in out.iter_mut().zip(&base[o..o + ow]) {
                    *d = wk.mul_add(v, *d);
                }
            }
        }
    }
}

/// AVX-512F body of [`depthwise_row`]: 64 lanes in four ZMM accumulators,
/// then 16 lanes, then [`depthwise_tail`].
///
/// # Safety
///
/// Caller must check [`Tile::Avx512`] runs here and that
/// `offs[t] + out.len() <= base.len()` for every tap `t`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn depthwise_row_avx512(base: &[f32], offs: &[usize], wt: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let (bp, op, ow) = (base.as_ptr(), out.as_mut_ptr(), out.len());
    let mut ox = 0;
    while ox + 64 <= ow {
        let mut c0 = _mm512_setzero_ps();
        let mut c1 = _mm512_setzero_ps();
        let mut c2 = _mm512_setzero_ps();
        let mut c3 = _mm512_setzero_ps();
        for (&o, &wk) in offs.iter().zip(wt) {
            let (wv, p) = (_mm512_set1_ps(wk), bp.add(o + ox));
            c0 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(p), c0);
            c1 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(p.add(16)), c1);
            c2 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(p.add(32)), c2);
            c3 = _mm512_fmadd_ps(wv, _mm512_loadu_ps(p.add(48)), c3);
        }
        _mm512_storeu_ps(op.add(ox), c0);
        _mm512_storeu_ps(op.add(ox + 16), c1);
        _mm512_storeu_ps(op.add(ox + 32), c2);
        _mm512_storeu_ps(op.add(ox + 48), c3);
        ox += 64;
    }
    while ox + 16 <= ow {
        let mut c0 = _mm512_setzero_ps();
        for (&o, &wk) in offs.iter().zip(wt) {
            c0 = _mm512_fmadd_ps(_mm512_set1_ps(wk), _mm512_loadu_ps(bp.add(o + ox)), c0);
        }
        _mm512_storeu_ps(op.add(ox), c0);
        ox += 16;
    }
    depthwise_tail(bp, offs, wt, out, ox);
}

/// AVX2+FMA body of [`depthwise_row`]: 32 lanes in four YMM accumulators,
/// then 8 lanes, then [`depthwise_tail`].
///
/// # Safety
///
/// Caller must check [`Tile::Avx2Fma`] runs here and that
/// `offs[t] + out.len() <= base.len()` for every tap `t`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn depthwise_row_avx2(base: &[f32], offs: &[usize], wt: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let (bp, op, ow) = (base.as_ptr(), out.as_mut_ptr(), out.len());
    let mut ox = 0;
    while ox + 32 <= ow {
        let mut c0 = _mm256_setzero_ps();
        let mut c1 = _mm256_setzero_ps();
        let mut c2 = _mm256_setzero_ps();
        let mut c3 = _mm256_setzero_ps();
        for (&o, &wk) in offs.iter().zip(wt) {
            let (wv, p) = (_mm256_set1_ps(wk), bp.add(o + ox));
            c0 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(p), c0);
            c1 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(p.add(8)), c1);
            c2 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(p.add(16)), c2);
            c3 = _mm256_fmadd_ps(wv, _mm256_loadu_ps(p.add(24)), c3);
        }
        _mm256_storeu_ps(op.add(ox), c0);
        _mm256_storeu_ps(op.add(ox + 8), c1);
        _mm256_storeu_ps(op.add(ox + 16), c2);
        _mm256_storeu_ps(op.add(ox + 24), c3);
        ox += 32;
    }
    while ox + 8 <= ow {
        let mut c0 = _mm256_setzero_ps();
        for (&o, &wk) in offs.iter().zip(wt) {
            c0 = _mm256_fmadd_ps(_mm256_set1_ps(wk), _mm256_loadu_ps(bp.add(o + ox)), c0);
        }
        _mm256_storeu_ps(op.add(ox), c0);
        ox += 8;
    }
    depthwise_tail(bp, offs, wt, out, ox);
}

/// The scalar fused multiply-add tail of both fused [`depthwise_row`]
/// bodies: lanes `from..out.len()`, one `mul_add` chain each.
///
/// # Safety
///
/// Caller must check FMA runs here and that `bp` is the start of a `base`
/// with `offs[t] + out.len() <= base.len()` for every tap `t`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[inline]
unsafe fn depthwise_tail(bp: *const f32, offs: &[usize], wt: &[f32], out: &mut [f32], from: usize) {
    for (ox, d) in out.iter_mut().enumerate().skip(from) {
        let mut acc = 0.0f32;
        for (&o, &wk) in offs.iter().zip(wt) {
            acc = wk.mul_add(*bp.add(o + ox), acc);
        }
        *d = acc;
    }
}

/// Depthwise convolution (one input and one output channel per group):
/// output rows fan out across chunks; each chunk copies the zero-padded
/// input window of a plane once and runs [`depthwise_row`] per output row.
fn conv2d_depthwise(x: &ConvInput<'_>, n: usize, wv: &[f32], out: &mut [f32]) {
    let (s, kh, kw, oh, ow) = (x.stride, x.kh, x.kw, x.oh, x.ow);
    let (taps, tile) = (kh * kw, Tile::host());
    let phase_len = (x.w + 2 * x.pad).div_ceil(s);
    // tap (ky, kx) reads phase kx % s of padded row oy*s + ky, from
    // element ox + kx / s on
    let offs: Vec<usize> = (0..taps)
        .map(|t| {
            let (ky, kx) = (t / kw, t % kw);
            (ky * s + kx % s) * phase_len + kx / s
        })
        .collect();
    parallel::dispatch_out(conv2d_rows(&[n, x.c, oh, ow]), out, ow, |r, win| {
        let (r0, rows) = (r.start, r.len());
        let mut buf = Vec::new();
        let mut done = 0;
        while done < rows {
            let (plane, oy0) = ((r0 + done) / oh, (r0 + done) % oh);
            let cnt = (oh - oy0).min(rows - done);
            let ch = plane % x.c;
            x.fill_window(
                plane / x.c,
                ch,
                oy0 * s,
                (cnt - 1) * s + kh,
                phase_len,
                &mut buf,
            );
            let wt = &wv[ch * taps..(ch + 1) * taps];
            let orows = win[done * ow..(done + cnt) * ow].chunks_exact_mut(ow);
            for (i, orow) in orows.enumerate() {
                depthwise_row(tile, &buf[i * s * s * phase_len..], &offs, wt, orow);
            }
            done += cnt;
        }
    });
}

/// 2-D convolution on NCHW input via im2col + GEMM, or a direct row
/// kernel for depthwise convolutions ([`conv2d_lowering`]).
///
/// `x: [N, C, H, W]`, `w: [F, C/groups, KH, KW]`, optional `bias: [F]`.
/// Supports stride, zero padding, and grouped convolution (depthwise when
/// `groups == C == F`). Every output element is one accumulator over
/// ascending `(channel, ky, kx)`, so both lowerings are bit-identical to
/// `matmul(w_g, im2col(x))`.
///
/// # Errors
///
/// Fails on rank or channel mismatches, zero stride, a kernel larger than
/// the padded input, a bias that is not `[F]`, non-f32 operands, or when
/// `groups` does not divide both `C` and `F`.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
    groups: usize,
) -> Result<Tensor> {
    let (oh, ow) = conv2d_out_hw(x, w, stride, padding, groups)?;
    let (n, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (f, cg, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    if let Some(bt) = bias {
        if bt.shape() != [f] {
            return Err(TensorError::ShapeMismatch {
                expected: vec![f],
                actual: bt.shape().to_vec(),
                op: "conv2d",
            });
        }
        require_f32(bt, "conv2d")?;
    }
    require_f32(w, "conv2d")?;
    // The input is read through its strides, so a sliced/permuted NCHW
    // view never materializes. (Weights keep a declared contiguous()
    // fallback: they are dense in every flow, making it a free clone.)
    let st = x.strides();
    let input = ConvInput {
        xs: f32_storage(x, "conv2d")?,
        base: x.storage_offset() as isize,
        strides: [st[0], st[1], st[2], st[3]],
        c,
        h,
        w: wd,
        stride,
        pad: padding,
        kh,
        kw,
        oh,
        ow,
    };
    let wc = w.contiguous();
    let wv = &f32_storage(&wc, "conv2d")?[wc.storage_offset()..];
    let mut out = vec![0.0f32; n * f * oh * ow];

    match conv2d_lowering([n, f, oh, ow], [f, cg, kh, kw], groups) {
        ConvLowering::Depthwise => conv2d_depthwise(&input, n, wv, &mut out),
        ConvLowering::Im2col { m: fg, k, n: cols } => {
            // The packed panels are allocated once and reused; im2col
            // writes every lane, padding and tails included. Output
            // channels g·fg.. of image b are the [fg, oh·ow] rows its
            // GEMM computes, contiguous in `out`.
            let mut packed = vec![0.0f32; packed_len(k, cols)];
            for b in 0..n {
                for g in 0..groups {
                    fill_panels(k, cols, &mut packed, |j0, dst| {
                        input.fill_panel(b, g * cg, j0, dst)
                    });
                    // weights for this group are a contiguous [fg, k] slice
                    let wg = Mat {
                        data: wv,
                        base: g * fg * k,
                        rs: k as isize,
                        cs: 1,
                    };
                    let c0 = (b * f + g * fg) * cols;
                    let gout = &mut out[c0..c0 + fg * cols];
                    gemm_into(wg, fg, k, cols, &packed, None, gout);
                }
            }
        }
    }
    if let Some(bt) = bias {
        let bs = crate::param_f32(bt);
        parallel::dispatch_out(conv2d_rows(&[n, f, oh, ow]), &mut out, ow, |r, win| {
            for (i, row) in win.chunks_exact_mut(ow).enumerate() {
                let b = bs[(r.start + i) / oh % f];
                for v in row {
                    *v += b;
                }
            }
        });
    }
    Tensor::from_vec(out, &[n, f, oh, ow])
}

/// Direct (sliding-window) conv2d used as a numerical oracle for the
/// im2col path in tests.
///
/// # Errors
///
/// Same conditions as [`conv2d`].
pub fn conv2d_direct(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
    groups: usize,
) -> Result<Tensor> {
    let (oh, ow) = conv2d_out_hw(x, w, stride, padding, groups)?;
    let (n, h, wd) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (f, cg, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    let fg = f / groups;
    let mut out = Tensor::zeros(&[n, f, oh, ow]);
    for b in 0..n {
        for ff in 0..f {
            let g = ff / fg;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map(|bt| bt.at(&[ff]).unwrap_or(0.0)).unwrap_or(0.0);
                    for cc in 0..cg {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = oy * stride + ky;
                                let ix = ox * stride + kx;
                                if iy < padding || ix < padding {
                                    continue;
                                }
                                let (iy, ix) = (iy - padding, ix - padding);
                                if iy >= h || ix >= wd {
                                    continue;
                                }
                                acc +=
                                    x.at(&[b, g * cg + cc, iy, ix])? * w.at(&[ff, cc, ky, kx])?;
                            }
                        }
                    }
                    out.set(&[b, ff, oy, ox], acc)?;
                }
            }
        }
    }
    Ok(out)
}

/// Analytic cost of a conv2d with output `[n, f, oh, ow]` and kernel
/// `[f, c/groups, kh, kw]`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_cost(
    n: usize,
    c: usize,
    f: usize,
    oh: usize,
    ow: usize,
    kh: usize,
    kw: usize,
    groups: usize,
) -> OpCost {
    let cg = c / groups.max(1);
    let macs = (n * f * oh * ow) as f64 * (cg * kh * kw) as f64;
    OpCost {
        flops: 2.0 * macs,
        // input is read ~kh*kw/stride^2 times logically; count logical
        // im2col traffic once plus weights once.
        bytes_read: ((n * f * oh * ow * cg * kh * kw) as f64 / f as f64
            + (f * cg * kh * kw) as f64)
            * F32_BYTES,
        bytes_written: (n * f * oh * ow) as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

/// Output spatial size of a conv/pool window.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (input + 2 * padding - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_tensor::random::TensorRng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        let av = a.to_vec_f32().unwrap();
        let bv = b.to_vec_f32().unwrap();
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in av.iter().zip(&bv).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "elem {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.to_vec_f32().unwrap(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &Tensor::zeros(&[2, 3])).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn matmul_handles_transposed_views() {
        let mut rng = TensorRng::seed(1);
        let a = rng.normal(&[4, 5]);
        let b = rng.normal(&[6, 5]);
        let c = matmul(&a, &b.transpose(0, 1).unwrap()).unwrap();
        assert_eq!(c.shape(), &[4, 6]);
        // oracle: element [1,2] = dot(a[1,:], b[2,:])
        let mut dot = 0.0;
        for k in 0..5 {
            dot += a.at(&[1, k]).unwrap() * b.at(&[2, k]).unwrap();
        }
        assert!((c.at(&[1, 2]).unwrap() - dot).abs() < 1e-4);
    }

    #[test]
    fn bmm_batches_independently() {
        let mut rng = TensorRng::seed(2);
        let a = rng.normal(&[3, 2, 4]);
        let b = rng.normal(&[3, 4, 5]);
        let c = bmm(&a, &b).unwrap();
        assert_eq!(c.shape(), &[3, 2, 5]);
        let c1 = matmul(&a.select(0, 1).unwrap(), &b.select(0, 1).unwrap()).unwrap();
        assert_close(&c.select(0, 1).unwrap(), &c1, 1e-5);
    }

    #[test]
    fn linear_matches_manual() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_vec(vec![0.5, 0.5, 0.5], &[3]).unwrap();
        let y = linear(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.to_vec_f32().unwrap(), vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn linear_keeps_leading_dims() {
        let mut rng = TensorRng::seed(3);
        let x = rng.normal(&[2, 5, 8]);
        let w = rng.normal(&[16, 8]);
        let y = linear(&x, &w, None).unwrap();
        assert_eq!(y.shape(), &[2, 5, 16]);
    }

    #[test]
    fn conv1d_gpt2_equals_linear_with_transpose() {
        let mut rng = TensorRng::seed(4);
        let x = rng.normal(&[1, 3, 8]);
        let w = rng.normal(&[8, 12]); // [in, out] layout
        let y = conv1d_gpt2(&x, &w, None).unwrap();
        let y2 = linear(&x, &w.transpose(0, 1).unwrap().contiguous(), None).unwrap();
        assert_close(&y, &y2, 1e-6);
    }

    #[test]
    fn conv2d_im2col_matches_direct() {
        let mut rng = TensorRng::seed(5);
        for (stride, padding, groups) in [(1, 0, 1), (2, 1, 1), (1, 1, 2)] {
            let x = rng.normal(&[2, 4, 7, 7]);
            let w = rng.normal(&[6, 4 / groups, 3, 3]);
            let b = rng.normal(&[6]);
            let fast = conv2d(&x, &w, Some(&b), stride, padding, groups).unwrap();
            let slow = conv2d_direct(&x, &w, Some(&b), stride, padding, groups).unwrap();
            assert_close(&fast, &slow, 1e-4);
        }
    }

    #[test]
    fn depthwise_conv() {
        let mut rng = TensorRng::seed(6);
        let x = rng.normal(&[1, 4, 5, 5]);
        let w = rng.normal(&[4, 1, 3, 3]);
        let y = conv2d(&x, &w, None, 1, 1, 4).unwrap();
        assert_eq!(y.shape(), &[1, 4, 5, 5]);
        let slow = conv2d_direct(&x, &w, None, 1, 1, 4).unwrap();
        assert_close(&y, &slow, 1e-4);
    }

    #[test]
    fn conv2d_validates() {
        let x = Tensor::zeros(&[1, 3, 5, 5]);
        let w = Tensor::zeros(&[4, 3, 3, 3]);
        assert!(conv2d(&x, &w, None, 0, 0, 1).is_err());
        assert!(conv2d(&x, &Tensor::zeros(&[4, 2, 3, 3]), None, 1, 0, 1).is_err());
        assert!(conv2d(&x, &w, Some(&Tensor::zeros(&[5])), 1, 0, 1).is_err());
    }

    /// The bits of `c = a @ b` under the accumulation contract: one
    /// accumulator per element over ascending `k`, by fused multiply-add.
    fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<u32> {
        let mut c = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let (x, y) = (a[i * k + kk], b[kk * n + j]);
                    acc = x.mul_add(y, acc);
                }
                c.push(acc.to_bits());
            }
        }
        c
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// `conv2d` through `matmul(w_g, im2col_g(x))` per group, with a
    /// test-local im2col, then `+ bias` as its own pass.
    fn conv2d_via_matmul(
        x: &Tensor,
        w: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Vec<u32> {
        let [n, c, h, wd] = x.shape()[..] else {
            panic!("NCHW")
        };
        let [f, cg, kh, kw] = w.shape()[..] else {
            panic!("FCHW")
        };
        let (oh, ow) = (
            conv_out_dim(h, kh, stride, padding),
            conv_out_dim(wd, kw, stride, padding),
        );
        let (fg, k, cols) = (f / groups, cg * kh * kw, n * oh * ow);
        assert_eq!(c, cg * groups);
        let mut out = vec![0.0f32; n * f * oh * ow];
        for g in 0..groups {
            let mut col = vec![0.0f32; k * cols];
            for cc in 0..cg {
                for ky in 0..kh {
                    for kx in 0..kw {
                        let row = (cc * kh + ky) * kw + kx;
                        for b in 0..n {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                                    if iy < padding || ix < padding {
                                        continue;
                                    }
                                    let (iy, ix) = (iy - padding, ix - padding);
                                    if iy < h && ix < wd {
                                        col[row * cols + (b * oh + oy) * ow + ox] =
                                            x.at(&[b, g * cg + cc, iy, ix]).unwrap();
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let wg = w
                .narrow(0, g * fg, fg)
                .unwrap()
                .contiguous()
                .reshape(&[fg, k])
                .unwrap();
            let y = matmul(&wg, &Tensor::from_vec(col, &[k, cols]).unwrap()).unwrap();
            let yv = y.to_vec_f32().unwrap();
            for ff in 0..fg {
                for b in 0..n {
                    let bv = bias.map_or(0.0, |bt| bt.at(&[g * fg + ff]).unwrap());
                    for p in 0..oh * ow {
                        let v = yv[ff * cols + b * oh * ow + p];
                        out[(b * f + g * fg + ff) * oh * ow + p] =
                            if bias.is_some() { v + bv } else { v };
                    }
                }
            }
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn conv2d_is_bit_identical_to_im2col_matmul() {
        let mut rng = TensorRng::seed(11);
        // (x shape, w shape, stride, padding, groups, bias, permuted x)
        type Case = ([usize; 4], [usize; 4], usize, usize, usize, bool, bool);
        let cases: &[Case] = &[
            ([1, 8, 5, 6], [12, 8, 1, 1], 1, 0, 1, true, false), // 1x1, ow < NR
            ([1, 6, 9, 37], [8, 6, 3, 3], 1, 1, 1, true, false), // 3x3 s1 p1, ow > NR
            ([1, 5, 11, 9], [7, 5, 3, 3], 2, 0, 1, false, false), // 3x3 s2
            ([1, 5, 12, 40], [6, 5, 3, 3], 2, 1, 1, true, false), // 3x3 s2 p1
            ([1, 3, 20, 21], [8, 3, 7, 7], 2, 3, 1, true, false), // 7x7 s2 p3
            ([1, 6, 9, 45], [6, 1, 3, 3], 1, 1, 6, false, false), // depthwise
            ([1, 6, 9, 45], [6, 1, 3, 3], 1, 1, 6, true, false), // depthwise + bias
            ([1, 4, 13, 70], [4, 1, 3, 3], 2, 1, 4, true, false), // depthwise s2
            ([1, 8, 7, 7], [6, 4, 3, 3], 1, 1, 2, true, false),  // groups = 2
            ([2, 4, 7, 7], [6, 4, 3, 3], 1, 1, 1, true, false),  // batch 2
            ([2, 4, 7, 19], [4, 1, 3, 3], 1, 1, 4, true, false), // batch 2 depthwise
            ([1, 6, 9, 10], [8, 6, 3, 3], 1, 1, 1, true, true),  // permuted x
            ([1, 6, 9, 40], [6, 1, 3, 3], 2, 1, 6, false, true), // permuted x, depthwise
            ([1, 16, 64, 64], [16, 16, 3, 3], 1, 1, 1, true, false), // many chunks
            ([1, 16, 64, 64], [16, 1, 3, 3], 1, 1, 16, true, false), // many chunks
        ];
        for &(xs, ws, stride, padding, groups, with_bias, permuted) in cases {
            let x = if permuted {
                // a [N, H, C, W] tensor viewed as NCHW, with W as the
                // innermost dim of neither the storage nor the view
                rng.normal(&[xs[0], xs[3], xs[1], xs[2]])
                    .permute(&[0, 2, 3, 1])
                    .unwrap()
            } else {
                rng.normal(&xs)
            };
            assert_eq!(x.shape(), xs);
            let w = rng.normal(&ws);
            let b = rng.normal(&[ws[0]]);
            let bias = with_bias.then_some(&b);
            let want = conv2d_via_matmul(&x, &w, bias, stride, padding, groups);
            let serial = conv2d(&x, &w, bias, stride, padding, groups).unwrap();
            let chunked = parallel::test_runner::with_test_runner(2, || {
                conv2d(&x, &w, bias, stride, padding, groups).unwrap()
            });
            let case = format!("x {xs:?} w {ws:?} s{stride} p{padding} g{groups}");
            assert!(bits(&serial) == want, "serial conv2d differs: {case}");
            assert!(bits(&chunked) == want, "chunked conv2d differs: {case}");
        }
    }

    #[test]
    fn matmul_ragged_tiles_are_bit_identical_to_the_reference() {
        let mut rng = TensorRng::seed(12);
        // m % 4 != 0 and n % 16 != 0; then several chunks of one panel
        // group, and several chunks over five panel groups
        for (m, k, n) in [(7, 33, 45), (1, 5, 3), (1_001, 33, 45), (258, 1_500, 150)] {
            let a = rng.normal(&[m, k]);
            let b = rng.normal(&[k, n]);
            let want =
                reference_matmul(&a.to_vec_f32().unwrap(), &b.to_vec_f32().unwrap(), m, k, n);
            let serial = matmul(&a, &b).unwrap();
            let chunked = parallel::test_runner::with_test_runner(2, || matmul(&a, &b).unwrap());
            assert!(bits(&serial) == want, "serial {m}x{k}x{n}");
            assert!(bits(&chunked) == want, "chunked {m}x{k}x{n}");
            // a Linear adds its bias to the finished accumulator, in full
            // tiles and partial ones alike
            let w = b.transpose(0, 1).unwrap().contiguous();
            let bias = rng.normal(&[n]);
            let bv = bias.to_vec_f32().unwrap();
            let want: Vec<u32> = want
                .iter()
                .enumerate()
                .map(|(i, &c)| (f32::from_bits(c) + bv[i % n]).to_bits())
                .collect();
            let y = linear(&a, &w, Some(&bias)).unwrap();
            assert!(bits(&y) == want, "linear {m}x{k}x{n}");
        }
    }

    /// Every tile body this host runs, the portable one always. A body
    /// it cannot run is named on stderr — past the test harness's capture —
    /// as skipped by `test`, so a host without AVX-512F never passes the
    /// comparison for it silently.
    fn tile_bodies(test: &str) -> Vec<Tile> {
        let (here, missing): (Vec<Tile>, Vec<Tile>) = [Tile::Avx512, Tile::Avx2Fma, Tile::Portable]
            .into_iter()
            .partition(|t| t.runs_here());
        if !missing.is_empty() {
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "{test}: SKIPPED {missing:?}, which this CPU cannot run (host tile: {})",
                tile_kind()
            );
        }
        here
    }

    #[test]
    fn fused_tile_bodies_agree_bit_for_bit() {
        let bodies = tile_bodies("fused_tile_bodies_agree_bit_for_bit");
        let mut rng = TensorRng::seed(13);
        for k in [0, 1, 7, 300] {
            for n in [1, 15, 16, 17, 31, 32, 33, 69] {
                let b = rng.normal(&[k, n]);
                let mut packed = vec![0.0f32; packed_len(k, n)];
                pack_b_mat(Mat::of(&b, "test").unwrap(), k, n, &mut packed);
                let bias = rng.normal(&[n]).to_vec_f32().unwrap();
                for m in 1..=17 {
                    let a = rng.normal(&[m, k]);
                    let plain = reference_matmul(
                        &a.to_vec_f32().unwrap(),
                        &b.to_vec_f32().unwrap(),
                        m,
                        k,
                        n,
                    );
                    let biased: Vec<u32> = plain
                        .iter()
                        .enumerate()
                        .map(|(i, &c)| (f32::from_bits(c) + bias[i % n]).to_bits())
                        .collect();
                    // the same values dense, through a padded row stride
                    // (read in place) and through a transpose (gathered)
                    let padded = Tensor::cat(&[a.clone(), Tensor::zeros(&[m, 3])], 1)
                        .unwrap()
                        .narrow(1, 0, k)
                        .unwrap();
                    let transposed = a
                        .transpose(0, 1)
                        .unwrap()
                        .contiguous()
                        .transpose(0, 1)
                        .unwrap();
                    for (layout, view) in [
                        ("dense", &a),
                        ("padded", &padded),
                        ("transposed", &transposed),
                    ] {
                        for (bs, want) in [(None, &plain), (Some(&bias[..]), &biased)] {
                            for &tile in &bodies {
                                let mut out = vec![f32::NAN; m * n];
                                let av = Mat::of(view, "test").unwrap();
                                gemm_tiled(tile, av, m, k, n, &packed, bs, &mut out);
                                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                                assert!(
                                    &got == want,
                                    "{tile:?} {m}x{k}x{n}, {layout} A, bias {}",
                                    bs.is_some()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_depthwise_bodies_agree_bit_for_bit() {
        let bodies = tile_bodies("fused_depthwise_bodies_agree_bit_for_bit");
        let mut rng = TensorRng::seed(14);
        // a 3x3 window over rows of 75 elements
        let offs = [0, 1, 2, 75, 76, 77, 150, 151, 152];
        let wt = rng.normal(&[9]).to_vec_f32().unwrap();
        let base = rng.normal(&[152 + 70]).to_vec_f32().unwrap();
        for ow in 1..=70 {
            let want: Vec<u32> = (0..ow)
                .map(|ox| {
                    let taps = offs.iter().zip(&wt);
                    taps.fold(0.0f32, |acc, (&o, &w)| w.mul_add(base[o + ox], acc))
                        .to_bits()
                })
                .collect();
            for &tile in &bodies {
                let mut out = vec![f32::NAN; ow];
                depthwise_row(tile, &base, &offs, &wt, &mut out);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert!(got == want, "{tile:?} ow {ow}");
            }
        }
    }

    #[test]
    fn gemm_entry_points_reject_non_f32_operands() {
        let f = Tensor::zeros(&[2, 2]);
        let i = Tensor::from_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        let dtype = |r: Result<Tensor>| matches!(r, Err(TensorError::DTypeMismatch { .. }));
        assert!(dtype(matmul(&i, &f)));
        assert!(dtype(matmul(&f, &i)));
        let (f3, i3) = (
            f.reshape(&[1, 2, 2]).unwrap(),
            i.reshape(&[1, 2, 2]).unwrap(),
        );
        assert!(dtype(bmm(&i3, &f3)));
        assert!(dtype(bmm(&f3, &i3)));
        assert!(dtype(linear(&i, &f, None)));
        assert!(dtype(linear(&f, &i, None)));
        let ib = Tensor::from_i64(vec![1, 2], &[2]).unwrap();
        assert!(dtype(linear(&f, &f, Some(&ib))));
        assert!(dtype(conv1d_gpt2(&i, &f, None)));
        let (x, w) = (Tensor::zeros(&[1, 2, 3, 3]), Tensor::zeros(&[2, 2, 1, 1]));
        let ix = Tensor::from_i64(vec![0; 18], &[1, 2, 3, 3]).unwrap();
        let iw = Tensor::from_i64(vec![0; 4], &[2, 2, 1, 1]).unwrap();
        assert!(dtype(conv2d(&ix, &w, None, 1, 0, 1)));
        assert!(dtype(conv2d(&x, &iw, None, 1, 0, 1)));
        assert!(dtype(conv2d(&x, &w, Some(&ib), 1, 0, 1)));
    }

    #[test]
    fn conv2d_rejects_a_bad_bias_before_convolving() {
        // the input is not even f32: only a check made before the
        // convolution reads it can report the bias
        let ix = Tensor::from_i64(vec![0; 18], &[1, 2, 3, 3]).unwrap();
        let w = Tensor::zeros(&[4, 2, 3, 3]);
        let err = conv2d(&ix, &w, Some(&Tensor::zeros(&[5])), 1, 1, 1).unwrap_err();
        assert!(
            matches!(&err, TensorError::ShapeMismatch { expected, actual, op: "conv2d" }
                if expected == &[4] && actual == &[5]),
            "{err:?}"
        );
    }

    #[test]
    fn conv2d_direct_rejects_kernel_larger_than_padded_input() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[1, 1, 5, 5]);
        for r in [
            conv2d_direct(&x, &w, None, 1, 0, 1),
            conv2d(&x, &w, None, 1, 0, 1),
        ] {
            assert!(
                matches!(&r, Err(TensorError::InvalidArgument(msg)) if msg == "conv2d kernel larger than padded input"),
                "{r:?}"
            );
        }
        // one pixel of padding on each side still leaves 4 < 5
        assert!(conv2d_direct(&x, &w, None, 1, 1, 1).is_err());
        assert!(conv2d_direct(&x, &w, None, 1, 2, 1).is_ok());
    }

    #[test]
    fn costs_scale_as_expected() {
        let c1 = matmul_cost(64, 64, 64);
        let c2 = matmul_cost(128, 64, 64);
        assert_eq!(c2.flops, 2.0 * c1.flops);
        assert_eq!(c1.flops, 2.0 * 64.0 * 64.0 * 64.0);
        let lc = linear_cost(10, 4, 8, true);
        assert!(lc.flops > matmul_cost(10, 4, 8).flops);
        let bc = bmm_cost(4, 2, 3, 5);
        assert_eq!(bc.flops, 4.0 * matmul_cost(2, 3, 5).flops);
        assert!(conv2d_cost(1, 3, 8, 16, 16, 3, 3, 1).flops > 0.0);
    }

    #[test]
    fn conv_out_dim_formula() {
        assert_eq!(conv_out_dim(224, 7, 2, 3), 112);
        assert_eq!(conv_out_dim(5, 3, 1, 1), 5);
    }
}
