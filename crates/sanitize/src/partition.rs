//! Partition disjointness.
//!
//! Intra-op kernels hand disjoint output slices to concurrent chunk jobs
//! through raw pointers (`ngb_ops::parallel`), so the memory-safety
//! argument rests entirely on the chunk decomposition being a pairwise-
//! disjoint, exact cover of the output. This module re-derives every
//! decomposition an operator can dispatch for its static output shape —
//! flat element chunks, row chunks, `roll`'s rows split at the rolled dim,
//! and the GEMM register-tile row blocks — and symbolically checks the
//! cover, per node, for the shapes actually present in the graph.

use std::ops::Range;

use ngb_graph::{Graph, NodeId, OpKind};
use ngb_ops::{gemm, parallel};

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
        if let Some((m, n)) = gemm_dims(node.op.clone(), &node.out_shape) {
            verify_gemm_tiles(m, n, node.id, report);
        }
    }
}

/// The `(m, n)` of the `gemm_into` call(s) a node dispatches, from its
/// static output shape; `None` for non-GEMM operators.
fn gemm_dims(op: OpKind, out_shape: &[usize]) -> Option<(usize, usize)> {
    let numel = ngb_tensor::num_elements(out_shape);
    match op {
        OpKind::Matmul if out_shape.len() == 2 => Some((out_shape[0], out_shape[1])),
        // bmm runs one gemm per batch, all with the same (m, n)
        OpKind::Bmm if out_shape.len() == 3 => Some((out_shape[1], out_shape[2])),
        OpKind::Linear { out_f, .. } | OpKind::Conv1dGpt2 { out_f, .. } if out_f > 0 => {
            Some((numel / out_f, out_f))
        }
        _ => None,
    }
}

/// Checks the GEMM register-tile decomposition for an `[m, n]` output:
/// row blocks must exactly cover `0..m`, and the chunk-level grain must
/// compose with the blocks to re-cover every row.
fn verify_gemm_tiles(m: usize, n: usize, node: NodeId, report: &mut SanitizeReport) {
    if m == 0 || n == 0 {
        return;
    }
    let blocks = gemm::tile_row_blocks(m);
    if !verify_ranges("gemm-tile", &blocks, m, node, report) {
        return;
    }
    let (units, unit_len) = gemm::tile_chunk_grain(m, n);
    if units != blocks.len() {
        report.push(
            HazardKind::PartitionGap,
            vec![node],
            format!(
                "node %{}: gemm dispatches {units} tile units but has {} row \
                 blocks",
                node.0,
                blocks.len()
            ),
        );
        return;
    }
    // expanding each chunk's blocks must re-cover 0..m in order
    report.stats.partitions_checked += 1;
    let mut covered = 0usize;
    for chunk in parallel::row_partition(units, unit_len) {
        report.stats.chunks_checked += 1;
        for ib in chunk {
            if blocks[ib].start != covered {
                report.push(
                    HazardKind::PartitionGap,
                    vec![node],
                    format!(
                        "node %{}: gemm chunk composition breaks at row block \
                         {ib} (rows {:?}, expected start {covered})",
                        node.0, blocks[ib]
                    ),
                );
                return;
            }
            covered = blocks[ib].end;
        }
    }
    if covered != m {
        report.push(
            HazardKind::PartitionGap,
            vec![node],
            format!(
                "node %{}: gemm chunk composition covers 0..{covered} of 0..{m}",
                node.0
            ),
        );
    }
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
