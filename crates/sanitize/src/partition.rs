//! Partition disjointness.
//!
//! Intra-op kernels hand disjoint output slices to concurrent chunk jobs
//! through raw pointers (`ngb_ops::parallel`), so the memory-safety
//! argument rests entirely on every chunk decomposition being a pairwise-
//! disjoint, exact cover of its work. Each node declares the splits its
//! kernels dispatch once, in `ngb_exec::node_splits`, from the kernels'
//! own split functions. This module checks the partition of every
//! declared split, per node, for the shapes and statically propagated
//! strides actually present in the graph, and that the work units of
//! every declared GEMM tile its output. It holds no per-operator
//! knowledge of its own; the execution sanitizer holds every kernel
//! dispatch to the same declaration.

use std::ops::Range;

use ngb_graph::{static_strides, Graph, NodeId};

use crate::hazard::{HazardKind, SanitizeReport};

/// Checks that `ranges` is a sorted, pairwise-disjoint, exact cover of
/// `0..total`; violations are appended to `report` attributed to `node`.
/// Returns true when the cover is exact.
pub fn verify_ranges(
    label: &str,
    ranges: &[Range<usize>],
    total: usize,
    node: NodeId,
    report: &mut SanitizeReport,
) -> bool {
    report.stats.partitions_checked += 1;
    report.stats.chunks_checked += ranges.len();
    let mut clean = true;
    let mut next = 0usize;
    for (c, r) in ranges.iter().enumerate() {
        if r.end > total {
            report.push(
                HazardKind::PartitionOutOfBounds,
                vec![node],
                format!(
                    "node %{node}: {label} chunk {c} ({r:?}) extends past the \
                     output ({total})",
                    node = node.0
                ),
            );
            clean = false;
        }
        if r.start < next {
            report.push(
                HazardKind::PartitionOverlap,
                vec![node],
                format!(
                    "node %{node}: {label} chunks {prev} and {c} overlap on \
                     {overlap_start}..{overlap_end} — concurrent jobs would \
                     write the same elements",
                    node = node.0,
                    prev = c.saturating_sub(1),
                    overlap_start = r.start,
                    overlap_end = next.min(r.end),
                ),
            );
            clean = false;
        } else if r.start > next {
            report.push(
                HazardKind::PartitionGap,
                vec![node],
                format!(
                    "node %{node}: {label} chunk {c} starts at {start} leaving \
                     {next}..{start} uncovered",
                    node = node.0,
                    start = r.start,
                ),
            );
            clean = false;
        }
        next = next.max(r.end);
    }
    if next != total {
        report.push(
            HazardKind::PartitionGap,
            vec![node],
            format!(
                "node %{node}: {label} decomposition covers 0..{next} of \
                 0..{total}",
                node = node.0
            ),
        );
        clean = false;
    }
    clean
}

/// Checks the partition of every split each node declares for its static
/// shapes, and the work units of every GEMM it declares.
pub fn verify_partitions(graph: &Graph, report: &mut SanitizeReport) {
    let strides = static_strides(graph);
    let nodes = graph.iter().as_slice();
    for node in graph.iter() {
        // a dangling input id is the structural pass's finding, skipped here
        let inputs: Vec<(&[usize], &[isize])> = node
            .inputs
            .iter()
            .filter_map(|id| Some((&nodes.get(id.0)?.out_shape[..], &strides[id.0][..])))
            .collect();
        let declared = ngb_exec::node_splits(&node.op, &inputs, &node.out_shape);
        for split in &declared.splits {
            verify_ranges(split.label, &split.partition(), split.rows, node.id, report);
        }
        for &[m, k, n] in &declared.gemms {
            verify_gemm_tiles(m, k, n, node.id, report);
        }
    }
}

/// Checks that the work units of a `[m, k] @ [k, n]` GEMM — rectangles
/// of the `[m, n]` output — tile it exactly: their column ranges form an
/// exact cover of `0..n`, and within each column band the row ranges form
/// an exact cover of `0..m`.
fn verify_gemm_tiles(m: usize, k: usize, n: usize, node: NodeId, report: &mut SanitizeReport) {
    if m == 0 || n == 0 {
        return;
    }
    let mut units = ngb_ops::gemm::unit_rects(m, k, n);
    units.sort_by_key(|(rows, cols)| (cols.start, cols.end, rows.start));
    let mut bands: Vec<Range<usize>> = Vec::new();
    for band in units.chunk_by(|a, b| a.1 == b.1) {
        let rows: Vec<Range<usize>> = band.iter().map(|(rows, _)| rows.clone()).collect();
        if !verify_ranges("gemm-tile-rows", &rows, m, node, report) {
            return;
        }
        bands.push(band[0].1.clone());
    }
    verify_ranges("gemm-tile-cols", &bands, n, node, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{FusedKind, GraphBuilder, OpKind};
    use ngb_ops::gemm;
    use ngb_ops::parallel::Split;

    #[test]
    fn overlap_gap_and_bounds_are_distinguished() {
        let node = NodeId(0);
        let mut r = SanitizeReport::new("t");
        assert!(verify_ranges("t", &[0..4, 4..9], 9, node, &mut r));
        assert!(r.is_clean());

        let mut r = SanitizeReport::new("t");
        assert!(!verify_ranges("t", &[0..5, 4..9], 9, node, &mut r));
        assert_eq!(r.count(HazardKind::PartitionOverlap), 1);

        let mut r = SanitizeReport::new("t");
        assert!(!verify_ranges("t", &[0..3, 4..9], 9, node, &mut r));
        assert_eq!(r.count(HazardKind::PartitionGap), 1);

        let mut r = SanitizeReport::new("t");
        assert!(!verify_ranges("t", &[0..4, 4..10], 9, node, &mut r));
        assert_eq!(r.count(HazardKind::PartitionOutOfBounds), 1);

        let mut r = SanitizeReport::new("t");
        assert!(!verify_ranges(
            "t",
            std::slice::from_ref(&(0..4)),
            9,
            node,
            &mut r
        ));
        assert_eq!(r.count(HazardKind::PartitionGap), 1);
    }

    /// `(partitions, chunks)` the partition check certifies on `g`.
    fn certified(g: &Graph) -> (usize, usize) {
        let mut report = SanitizeReport::new(&g.name);
        verify_partitions(g, &mut report);
        assert!(report.is_clean(), "{}", report.to_text());
        (report.stats.partitions_checked, report.stats.chunks_checked)
    }

    fn chunks(split: Split) -> usize {
        split.partition().len()
    }

    #[test]
    fn real_graph_partitions_verify_clean() {
        let mut b = GraphBuilder::new("mlp");
        let x = b.input(&[3, 70_000]);
        let h = b
            .push(
                OpKind::Linear {
                    in_f: 70_000,
                    out_f: 96,
                    bias: true,
                },
                &[x],
                "fc",
            )
            .unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let (partitions, chunks) = certified(&b.finish());
        // the GEMM's packing, units, tile bands and columns, and the
        // activation's elements
        assert!(partitions >= 5);
        assert!(chunks > partitions);
    }

    #[test]
    fn conv_partitions_follow_the_lowering() {
        // a copy of the conv's output shape, and the conv itself
        let stats = |op: OpKind| {
            let mut b = GraphBuilder::new("conv");
            let x = b.input(&[2, 64, 56, 56]);
            b.push(op, &[x], "conv").unwrap();
            certified(&b.finish())
        };
        let conv = |groups, bias| OpKind::Conv2d {
            in_c: 64,
            out_c: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups,
            bias,
        };
        let copy = stats(OpKind::Contiguous);
        // the N·C·oh output rows of ow that the depthwise kernel and the
        // bias pass split: checked once whether or not both run
        let rows = chunks(Split::rows("t", 2 * 64 * 56, 56));
        assert!(rows > 1);
        for bias in [false, true] {
            assert_eq!(stats(conv(64, bias)), (copy.0 + 1, copy.1 + rows));
        }
        // dense, one image at a time: the im2col-filled panels, the GEMM's
        // chunks, each column band's row blocks and the bands themselves,
        // and the output rows when a bias pass runs
        let units = gemm::unit_rects(64, 64 * 9, 56 * 56);
        let bands = units.iter().filter(|(rows, _)| rows.start == 0).count();
        assert!(chunks(gemm::tile_units(64, 64 * 9, 56 * 56)) > 1 && bands > 1);
        let gemm_partitions = 3 + bands;
        assert_eq!(stats(conv(1, false)).0, copy.0 + gemm_partitions);
        assert_eq!(stats(conv(1, true)).0, copy.0 + gemm_partitions + 1);
    }

    #[test]
    fn lane_and_tile_splits_are_certified() {
        // what a graph ending in `op` on a `[1, 150, 128, 128]` input,
        // dense or viewed NHWC through a permute, certifies: neither the
        // input nor the permute declares a split, so this is `op`'s own
        let split = |op: OpKind, nhwc: bool| {
            let mut b = GraphBuilder::new("lanes");
            let mut x = b.input(&[1, 150, 128, 128]);
            if nhwc {
                let perm = vec![0, 2, 3, 1];
                x = b.push(OpKind::Permute { perm }, &[x], "nhwc").unwrap();
            }
            b.push(op, &[x], "op").unwrap();
            certified(&b.finish())
        };
        let cases = [
            (
                OpKind::BatchNorm2d { c: 150 },
                false,
                Split::rows("t", 150, 16384),
            ),
            (
                OpKind::GroupNorm { groups: 10, c: 150 },
                false,
                Split::rows("t", 10, 15 * 16384),
            ),
            (
                OpKind::Softmax { dim: 2 },
                false,
                Split::rows("t", 150, 16384),
            ),
            // one position per lane, a lane of 150 weighing 150 / 16
            (
                OpKind::Argmax { dim: 1 },
                false,
                Split::rows("t", 16384, 10),
            ),
            // the NHWC view coalesces to 16384 unit-stride rows of 150
            (
                OpKind::Contiguous,
                true,
                Split {
                    block: ngb_tensor::TILE_ROWS,
                    ..Split::rows("t", 16384, 150)
                },
            ),
            // an element-wise kernel on the view declares its elements
            (OpKind::Relu, true, Split::rows("t", 150 * 16384, 1)),
        ];
        for (op, nhwc, want) in cases {
            assert!(chunks(want) > 1, "{op:?}: the split must really split");
            assert_eq!(split(op.clone(), nhwc), (1, chunks(want)), "{op:?}");
        }
        // a dense copy runs serially: no split of its own
        assert_eq!(split(OpKind::Contiguous, false), (0, 0));
    }

    #[test]
    fn roll_rows_split_at_the_rolled_dim_are_certified() {
        // a copy of the same shape, with and without roll's own split
        let stats = |op: OpKind| {
            let mut b = GraphBuilder::new("shift");
            let x = b.input(&[1, 56, 56, 96]);
            b.push(op, &[x], "copy").unwrap();
            certified(&b.finish())
        };
        let copy = stats(OpKind::Contiguous);
        // a dim-1 roll dispatches 56 rows of 56 * 96 elements
        let rows = chunks(Split::rows("t", 56, 56 * 96));
        assert!(rows > 1);
        assert_eq!(
            stats(OpKind::Roll { shift: -3, dim: 1 }),
            (copy.0 + 1, copy.1 + rows)
        );
    }

    /// The one node `optimize(O2)` fuses `g` into, and its declaration.
    fn fused(g: &Graph, kind: FusedKind) -> (Graph, ngb_exec::NodeSplits) {
        let (o2, _) = ngb_opt::optimize(g, ngb_opt::OptLevel::O2);
        let node = o2
            .iter()
            .find(|n| matches!(&n.op, OpKind::Fused(f) if f.kind == kind))
            .unwrap_or_else(|| panic!("no {kind:?} node"))
            .clone();
        let strides = static_strides(&o2);
        let inputs: Vec<(&[usize], &[isize])> = node
            .inputs
            .iter()
            .map(|id| (&o2.node(*id).out_shape[..], &strides[id.0][..]))
            .collect();
        let declared = ngb_exec::node_splits(&node.op, &inputs, &node.out_shape);
        (o2.clone(), declared)
    }

    #[test]
    fn fused_gemm_heads_are_certified() {
        // Linear(3072 -> 768) -> GELU: at O2 one GEMM-epilogue node, which
        // runs the Linear's kernel and maps the GELU through the one
        // element-wise kernel, exactly as the O0 GELU node does
        let mut b = GraphBuilder::new("mlp");
        let x = b.input(&[64, 3072]);
        let linear = OpKind::Linear {
            in_f: 3072,
            out_f: 768,
            bias: true,
        };
        let h = b.push(linear.clone(), &[x], "fc").unwrap();
        b.push(OpKind::Gelu, &[h], "act").unwrap();
        let o0 = b.finish();
        let (o2, declared) = fused(&o0, FusedKind::GemmEpilogue);
        let plain = ngb_exec::node_splits(&linear, &[(&[64, 3072], &[3072, 1])], &[64, 768]);
        assert_eq!(plain.gemms, vec![[64, 3072, 768]]);
        assert!(plain.splits.iter().all(|&s| chunks(s) > 1));
        // the plain Linear's pack, chunk and tile partitions, then the
        // GELU's elements
        let gelu = ngb_ops::parallel::elements(64 * 768);
        assert!(chunks(gelu) > 1);
        let mut want = plain.clone();
        want.splits.push(gelu);
        assert_eq!(declared, want);
        assert_eq!(certified(&o2), certified(&o0));

        // bmm -> scale -> mask add -> softmax: at O2 one attention
        // prologue, which runs the bmm, maps the scale, then runs the add
        // and the softmax kernels
        let mut b = GraphBuilder::new("attn");
        let q = b.input(&[8, 256, 64]);
        let k = b.input(&[8, 64, 256]);
        let m = b.input(&[8, 256, 256]);
        let s = b.push(OpKind::Bmm, &[q, k], "scores").unwrap();
        let d = b.push(OpKind::DivScalar(8.0), &[s], "scale").unwrap();
        let a = b.push(OpKind::Add, &[d, m], "mask").unwrap();
        b.push(OpKind::Softmax { dim: 2 }, &[a], "probs").unwrap();
        let o0 = b.finish();
        let (o2, declared) = fused(&o0, FusedKind::AttentionPrologue);
        assert_eq!(declared.gemms, vec![[256, 64, 256]]);
        let tiles = gemm::tile_units(256, 64, 256);
        let blocks = Split::rows("softmax-block", 8 * 256, 256);
        // the scale and the mask add each dispatch these same elements,
        // declared once
        let scores = ngb_ops::parallel::elements(8 * 256 * 256);
        assert!(chunks(tiles) > 1 && chunks(blocks) > 1 && chunks(scores) > 1);
        for split in [tiles, blocks, scores] {
            let declarations = declared.splits.iter().filter(|&&s| s == split).count();
            assert_eq!(declarations, 1, "{split:?}");
        }
        // so O2 certifies everything O0 does, the scale's and the add's
        // shared partition once where O0 certifies it at each node
        let (p0, c0) = certified(&o0);
        assert_eq!(certified(&o2), (p0 - 1, c0 - chunks(scores)));
    }
}
