//! Partition disjointness.
//!
//! Intra-op kernels hand disjoint output slices to concurrent chunk jobs
//! through raw pointers (`ngb_ops::parallel`), so the memory-safety
//! argument rests entirely on the chunk decomposition being a pairwise-
//! disjoint, exact cover of the output. This module re-derives every
//! decomposition an operator can dispatch for its static output shape —
//! flat element chunks, row chunks, `roll`'s rows split at the rolled dim,
//! softmax's outer blocks, batch norm's planes, group norm's segments,
//! argmax's lane positions, a transposing `contiguous`'s tile-row blocks
//! (from the input's statically propagated strides), the GEMM's (panel
//! group x row block) units, and a convolution's output rows (depthwise
//! kernel, bias pass) and per-image im2col panels and GEMM units — and
//! symbolically checks the cover, per node, for the shapes actually
//! present in the graph.

use std::ops::Range;

use ngb_graph::{static_strides, FusedKind, Graph, Node, NodeId, OpKind};
use ngb_ops::{gemm, memory, normalization, parallel, reduction};

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

/// Symbolically checks every decomposition each node's kernels can
/// dispatch for the node's static output shape.
pub fn verify_partitions(graph: &Graph, report: &mut SanitizeReport) {
    let strides = static_strides(graph);
    for node in graph.iter() {
        let numel = ngb_tensor::num_elements(&node.out_shape);
        verify_ranges(
            "element",
            &parallel::element_partition(numel),
            numel,
            node.id,
            report,
        );
        if let Some(&row_len) = node.out_shape.last() {
            if node.out_shape.len() >= 2 && row_len > 0 {
                let rows = numel / row_len;
                verify_ranges(
                    "row",
                    &parallel::row_partition(rows, row_len),
                    rows,
                    node.id,
                    report,
                );
            }
        }
        // `roll` splits its rows at the rolled dim: `inner` elements per
        // row, the product of the dims after it
        if let OpKind::Roll { dim, .. } = node.op {
            let inner: usize = node
                .out_shape
                .get(dim + 1..)
                .unwrap_or(&[])
                .iter()
                .product();
            if let Some(rows) = numel.checked_div(inner) {
                verify_ranges(
                    "roll-row",
                    &parallel::row_partition(rows, inner),
                    rows,
                    node.id,
                    report,
                );
            }
        }
        verify_lane_splits(graph, node, &strides, report);
        // a Conv+BN fusion runs its convolution through the same kernel,
        // with the folded bias
        let conv = match &node.op {
            OpKind::Fused(f) if f.kind == FusedKind::ConvBnAct => {
                f.stages.first().map(|s| (&s.op, true))
            }
            op => Some((op, matches!(op, OpKind::Conv2d { bias: true, .. }))),
        };
        if let Some((
            &OpKind::Conv2d {
                in_c,
                out_c,
                kernel,
                groups,
                ..
            },
            bias,
        )) = conv
        {
            if let [n, f, oh, ow] = node.out_shape[..] {
                let w = [out_c, in_c / groups.max(1), kernel, kernel];
                verify_conv([n, f, oh, ow], w, groups, bias, node.id, report);
            }
        }
        if let Some((m, k, n)) = gemm_dims(graph, node) {
            verify_gemm_tiles(m, k, n, node.id, report);
        }
    }
}

/// Checks the splits of the kernels whose work unit is not a row of the
/// output's last dim: softmax's outer blocks (an attention prologue ends in
/// the same kernel), batch norm's `H·W` planes, group norm's segments,
/// argmax's lane positions and a transpose-shaped `contiguous`'s tile-row
/// blocks, the last two sized by the input's shape and static strides.
fn verify_lane_splits(
    graph: &Graph,
    node: &Node,
    strides: &[Vec<isize>],
    report: &mut SanitizeReport,
) {
    let shape = &node.out_shape[..];
    let input = node
        .inputs
        .first()
        .map(|id| id.0)
        .filter(|&i| i < graph.len());
    let in_shape = |i: usize| &graph.iter().as_slice()[i].out_shape[..];
    let softmax_dim = |op: &OpKind| match *op {
        OpKind::Softmax { dim } | OpKind::LogSoftmax { dim } => Some(dim),
        _ => None,
    };
    let softmax = match &node.op {
        OpKind::Fused(f) if f.kind == FusedKind::AttentionPrologue => {
            f.stages.iter().find_map(|s| softmax_dim(&s.op))
        }
        op => softmax_dim(op),
    };
    // (label, (rows, row_len), rows per block): a plain row split is
    // blocks of one row
    let split = if let Some(dim) = softmax.filter(|&d| d < shape.len()) {
        // one block per outer index, holding all of its lanes
        let (outer, lanes) = shape.split_at(dim);
        let blocks = (outer.iter().product(), lanes.iter().product());
        Some(("softmax-block", blocks, 1))
    } else {
        match (&node.op, input) {
            (OpKind::BatchNorm2d { .. } | OpKind::FrozenBatchNorm2d { .. }, _) => {
                Some(("bn-plane", normalization::batch_norm_planes(shape), 1))
            }
            (&OpKind::GroupNorm { groups, .. }, _) => {
                let segments = normalization::group_norm_segments(shape, groups);
                Some(("gn-segment", segments, 1))
            }
            (&OpKind::Argmax { dim }, Some(i)) if dim < in_shape(i).len() => {
                Some(("argmax-lane", reduction::argmax_lanes(in_shape(i), dim), 1))
            }
            (OpKind::Contiguous, Some(i)) => memory::contiguous_blocks(in_shape(i), &strides[i])
                .map(|blocks| ("transpose-block", blocks, ngb_tensor::TILE_ROWS)),
            _ => None,
        }
    };
    if let Some((label, (rows, row_len), block)) = split {
        verify_ranges(
            label,
            &parallel::block_partition(rows, row_len, block),
            rows,
            node.id,
            report,
        );
    }
}

/// The `(m, k, n)` of the `gemm_into` call(s) a matmul, bmm, linear or
/// Conv1D node dispatches, from the static shapes; `None` for every
/// other operator (convolutions go through [`verify_conv`]).
fn gemm_dims(graph: &Graph, node: &Node) -> Option<(usize, usize, usize)> {
    let numel = ngb_tensor::num_elements(&node.out_shape);
    // a dangling input id is the structural pass's finding, not a panic here
    let lhs = node
        .inputs
        .first()
        .and_then(|id| graph.iter().as_slice().get(id.0))
        .map(|n| &n.out_shape[..]);
    match (&node.op, &node.out_shape[..], lhs) {
        (OpKind::Matmul, &[m, n], Some(&[_, k])) => Some((m, k, n)),
        // bmm runs one gemm per batch, all with the same (m, k, n)
        (OpKind::Bmm, &[_, m, n], Some(&[_, _, k])) => Some((m, k, n)),
        (&OpKind::Linear { in_f, out_f, .. } | &OpKind::Conv1dGpt2 { in_f, out_f, .. }, _, _)
            if out_f > 0 =>
        {
            Some((numel / out_f, in_f, out_f))
        }
        _ => None,
    }
}

/// Checks the partitions a convolution with output `out` and weight `w`
/// dispatches: the output rows the depthwise kernel and the bias pass
/// split, and for an im2col lowering the per-image GEMM's (im2col fills
/// its packed panels).
fn verify_conv(
    out: [usize; 4],
    w: [usize; 4],
    groups: usize,
    bias: bool,
    node: NodeId,
    report: &mut SanitizeReport,
) {
    let lowering = gemm::conv2d_lowering(out, w, groups);
    if bias || lowering == gemm::ConvLowering::Depthwise {
        let (rows, row_len) = gemm::conv2d_rows(out);
        verify_ranges(
            "conv-row",
            &parallel::row_partition(rows, row_len),
            rows,
            node,
            report,
        );
    }
    if let gemm::ConvLowering::Im2col { m, k, n } = lowering {
        verify_gemm_tiles(m, k, n, node, report);
    }
}

/// Checks the partitions of a `[m, k] @ [k, n]` GEMM: the chunks that
/// fill B's packed panels must cover the panels, the chunks of work units
/// must cover the units, and the units — rectangles of the `[m, n]`
/// output — must tile it exactly: their column ranges form an exact cover
/// of `0..n`, and within each column band the row ranges form an exact
/// cover of `0..m`.
fn verify_gemm_tiles(m: usize, k: usize, n: usize, node: NodeId, report: &mut SanitizeReport) {
    let (panels, panel_len) = gemm::packed_panels(k, n);
    if panel_len > 0 {
        verify_ranges(
            "gemm-pack",
            &parallel::row_partition(panels, panel_len),
            panels,
            node,
            report,
        );
    }
    if m == 0 || n == 0 {
        return;
    }
    let (mut units, unit_len) = gemm::tile_units(m, k, n);
    if !verify_ranges(
        "gemm-chunk",
        &parallel::row_partition(units.len(), unit_len),
        units.len(),
        node,
        report,
    ) {
        return;
    }
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
    use ngb_graph::GraphBuilder;

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
        let g = b.finish();
        let mut report = SanitizeReport::new(&g.name);
        verify_partitions(&g, &mut report);
        assert!(report.is_clean(), "{}", report.to_text());
        assert!(report.stats.partitions_checked >= 6);
        assert!(report.stats.chunks_checked > report.stats.partitions_checked);
    }

    #[test]
    fn conv_partitions_follow_the_lowering() {
        // a copy of the conv's output shape, and the conv itself
        let stats = |op: OpKind| {
            let mut b = GraphBuilder::new("conv");
            let x = b.input(&[2, 64, 56, 56]);
            b.push(op, &[x], "conv").unwrap();
            let g = b.finish();
            let mut report = SanitizeReport::new(&g.name);
            verify_partitions(&g, &mut report);
            assert!(report.is_clean(), "{}", report.to_text());
            report.stats
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
        let rows = parallel::row_partition(2 * 64 * 56, 56).len();
        assert!(rows > 1);
        for bias in [false, true] {
            let depthwise = stats(conv(64, bias));
            assert_eq!(depthwise.partitions_checked, copy.partitions_checked + 1);
            assert_eq!(depthwise.chunks_checked, copy.chunks_checked + rows);
        }
        // dense, one image at a time: the im2col-filled panels, the GEMM's
        // chunks, each column band's row blocks and the bands themselves,
        // and the output rows when a bias pass runs
        let (units, unit_len) = gemm::tile_units(64, 64 * 9, 56 * 56);
        let bands = units.iter().filter(|(rows, _)| rows.start == 0).count();
        assert!(parallel::row_partition(units.len(), unit_len).len() > 1 && bands > 1);
        let gemm_partitions = 3 + bands;
        assert_eq!(
            stats(conv(1, false)).partitions_checked,
            copy.partitions_checked + gemm_partitions
        );
        assert_eq!(
            stats(conv(1, true)).partitions_checked,
            copy.partitions_checked + gemm_partitions + 1
        );
    }

    #[test]
    fn lane_and_tile_splits_are_certified() {
        // the one split `op` adds on a `[1, 150, 128, 128]` input, dense or
        // viewed NHWC through a permute: (partitions, chunks) checked
        let split = |op: OpKind, nhwc: bool| {
            let mut b = GraphBuilder::new("lanes");
            let mut x = b.input(&[1, 150, 128, 128]);
            if nhwc {
                let perm = vec![0, 2, 3, 1];
                x = b.push(OpKind::Permute { perm }, &[x], "nhwc").unwrap();
            }
            let y = b.push(op, &[x], "op").unwrap();
            let g = b.finish();
            let mut report = SanitizeReport::new(&g.name);
            verify_lane_splits(&g, &g.nodes[y.0], &static_strides(&g), &mut report);
            assert!(report.is_clean(), "{}", report.to_text());
            (report.stats.partitions_checked, report.stats.chunks_checked)
        };
        let (positions, unit) = reduction::argmax_lanes(&[1, 150, 128, 128], 1);
        let cases = [
            (
                OpKind::BatchNorm2d { c: 150 },
                false,
                parallel::row_partition(150, 16384),
            ),
            (
                OpKind::GroupNorm { groups: 10, c: 150 },
                false,
                parallel::row_partition(10, 15 * 16384),
            ),
            (
                OpKind::Softmax { dim: 2 },
                false,
                parallel::row_partition(150, 16384),
            ),
            (
                OpKind::Argmax { dim: 1 },
                false,
                parallel::row_partition(positions, unit),
            ),
            // the NHWC view coalesces to 16384 unit-stride rows of 150
            (
                OpKind::Contiguous,
                true,
                parallel::block_partition(16384, 150, ngb_tensor::TILE_ROWS),
            ),
        ];
        for (op, nhwc, want) in cases {
            assert!(want.len() > 1, "{op:?}: the split must really split");
            assert_eq!(split(op.clone(), nhwc), (1, want.len()), "{op:?}");
        }
        // a dense copy runs serially: no split of its own
        assert_eq!(split(OpKind::Contiguous, false), (0, 0));
        assert_eq!(split(OpKind::Relu, true), (0, 0));
    }

    #[test]
    fn roll_rows_split_at_the_rolled_dim_are_certified() {
        // a copy of the same shape, with and without roll's own split
        let stats = |op: OpKind| {
            let mut b = GraphBuilder::new("shift");
            let x = b.input(&[1, 56, 56, 96]);
            b.push(op, &[x], "copy").unwrap();
            let g = b.finish();
            let mut report = SanitizeReport::new(&g.name);
            verify_partitions(&g, &mut report);
            assert!(report.is_clean(), "{}", report.to_text());
            report.stats
        };
        let copy = stats(OpKind::Contiguous);
        let roll = stats(OpKind::Roll { shift: -3, dim: 1 });
        // a dim-1 roll dispatches 56 rows of 56 * 96 elements, not the
        // (numel / last, last) rows every node is certified for
        let rows = parallel::row_partition(56, 56 * 96).len();
        assert!(rows > 1);
        assert_eq!(roll.partitions_checked, copy.partitions_checked + 1);
        assert_eq!(roll.chunks_checked, copy.chunks_checked + rows);
    }
}
