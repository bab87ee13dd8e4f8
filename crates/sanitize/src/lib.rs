//! # ngb-sanitize
//!
//! Static schedule/memory hazard verifier for NonGEMM Bench, proving
//! three safety properties per graph before the parallel executor (and,
//! later, aliasing storage) is trusted with it:
//!
//! 1. **Happens-before coverage** ([`HappensBefore`]) — the ordering
//!    relation reconstructed from [`Schedule`] successors/wavefronts
//!    covers and orders every data edge; unordered pairs are statically
//!    detected races.
//! 2. **Storage-interference soundness** — [`BufferPlan`]'s
//!    drop-at-last-use lifetimes, checked against graph-derived truth
//!    and colored into storage slots such that no two simultaneously
//!    live values ever share one without a happens-before edge.
//! 3. **Partition disjointness** — every intra-op chunk decomposition an
//!    operator can dispatch for its static shape (element chunks, row
//!    chunks, GEMM work units, convolution rows and panels) is a
//!    pairwise-disjoint exact cover of its output.
//!
//! The dynamic counterpart is the shadow-memory sanitizer in `ngb-exec`
//! ([`ngb_exec::ShadowMemory`], `--sanitize`); the [`faults`] module
//! provides the seeded mutators that prove both halves actually detect
//! each hazard class.
//!
//! # Examples
//!
//! ```
//! use ngb_graph::{GraphBuilder, OpKind};
//!
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input(&[1, 8]);
//! b.push(OpKind::Gelu, &[x], "act").unwrap();
//! let report = ngb_sanitize::verify_graph(&b.finish());
//! assert!(report.is_clean(), "{}", report.to_text());
//! ```

#![forbid(unsafe_code)]

pub mod faults;
mod hazard;
mod hb;
mod interference;
mod partition;

pub use hazard::{Hazard, HazardKind, SanitizeReport, VerifyStats};
pub use hb::HappensBefore;
pub use partition::verify_ranges;

use ngb_exec::{BufferPlan, Schedule};
use ngb_graph::Graph;

/// Verifies all three safety properties of `graph` under its canonical
/// [`Schedule`] and [`BufferPlan`].
pub fn verify_graph(graph: &Graph) -> SanitizeReport {
    let sched = Schedule::new(graph);
    let plan = BufferPlan::new(graph);
    verify_parts(graph, &sched, &plan)
}

/// Verifies `graph` under caller-supplied parts — the entry point the
/// seeded-fault tests use to check that a corrupted [`Schedule`] or
/// [`BufferPlan`] is caught.
pub fn verify_parts(graph: &Graph, sched: &Schedule, plan: &BufferPlan) -> SanitizeReport {
    let mut report = SanitizeReport::new(&graph.name);
    report.stats.nodes = graph.len();
    hb::verify_happens_before(graph, sched, &mut report);
    // interference proofs need a valid ordering relation; a cyclic or
    // corrupt schedule is already fatal and would only cascade here
    if sched.is_complete() && sched.dropped_edges == 0 {
        let hb = HappensBefore::new(sched);
        interference::verify_interference(graph, plan, &hb, &mut report);
    }
    partition::verify_partitions(graph, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{GraphBuilder, OpKind};

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("diamond");
        let x = b.input(&[4, 4]);
        let l = b.push(OpKind::Gelu, &[x], "l").unwrap();
        let r = b.push(OpKind::Relu, &[x], "r").unwrap();
        b.push(OpKind::Add, &[l, r], "j").unwrap();
        b.finish()
    }

    #[test]
    fn clean_graph_verifies_clean_with_coverage() {
        let report = verify_graph(&diamond());
        assert!(report.is_clean(), "{}", report.to_text());
        assert_eq!(report.stats.nodes, 4);
        assert_eq!(report.stats.edges_checked, 4);
        assert_eq!(report.stats.ordered_pairs_proved, 4);
        assert!(report.stats.partitions_checked >= 4);
    }

    #[test]
    fn every_fault_class_is_caught_statically() {
        let g = diamond();

        // dropped edge -> missing-edge (+ indegree)
        let mut sched = Schedule::new(&g);
        let (u, v) = faults::drop_edge(&mut sched, &g, 7).unwrap();
        let report = verify_parts(&g, &sched, &BufferPlan::new(&g));
        assert!(
            report
                .hazards
                .iter()
                .any(|h| h.kind == HazardKind::MissingEdge
                    && h.nodes == vec![ngb_graph::NodeId(u), ngb_graph::NodeId(v)]),
            "{}",
            report.to_text()
        );

        // truncated consumer count -> uses-mismatch
        let mut plan = BufferPlan::new(&g);
        let t = faults::truncate_lifetime(&mut plan, 7).unwrap();
        let report = verify_parts(&g, &Schedule::new(&g), &plan);
        assert!(
            report
                .hazards
                .iter()
                .any(|h| h.kind == HazardKind::UsesMismatch
                    && h.nodes.contains(&ngb_graph::NodeId(t))),
            "{}",
            report.to_text()
        );

        // premature free -> lifetime-truncated
        let mut plan = BufferPlan::new(&g);
        let p = faults::premature_free(&mut plan, 7).unwrap();
        let report = verify_parts(&g, &Schedule::new(&g), &plan);
        assert!(
            report
                .hazards
                .iter()
                .any(|h| h.kind == HazardKind::LifetimeTruncated
                    && h.nodes.contains(&ngb_graph::NodeId(p))),
            "{}",
            report.to_text()
        );

        // overlapping chunks -> partition-overlap (or out-of-bounds)
        let mut ranges = ngb_ops::parallel::element_partition(100_000);
        faults::overlap_chunks(&mut ranges, 7).unwrap();
        let mut report = SanitizeReport::new("chunks");
        assert!(!verify_ranges(
            "element",
            &ranges,
            100_000,
            ngb_graph::NodeId(0),
            &mut report
        ));
    }
}
