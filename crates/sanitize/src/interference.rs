//! Storage-interference soundness.
//!
//! [`BufferPlan`]'s drop-at-last-use lifetimes define a value interval
//! per node; treating those intervals as an interference graph, two
//! values may share a storage slot only if their lifetimes are disjoint
//! *and* the reuse is ordered by happens-before (the first value's last
//! read must complete before the second's definition can write). This
//! module:
//!
//! 1. recomputes consumer counts, last uses, and the simulated peak from
//!    the graph and diffs them against the plan (a truncated lifetime is
//!    a future use-after-free; an extended one corrupts the peak
//!    accounting);
//! 2. greedily colors the plan's lifetimes into slots, reusing a slot
//!    only across a happens-before edge — the only order in which an
//!    executor could hand one value's storage to another;
//! 3. re-checks the resulting assignment against the *graph-derived*
//!    truth: any same-slot pair whose true lifetimes overlap or whose
//!    reuse is unordered is reported.
//!
//! Today's executors index values by node id and free each at its last
//! use (no static aliasing, no storage recycling), so step 3 certifies
//! the plan contract that zero-copy views and copy-on-write storage
//! (ROADMAP items 2 and 4) will rely on.

use ngb_exec::BufferPlan;
use ngb_graph::{Graph, NodeId};

use crate::hazard::{HazardKind, SanitizeReport};
use crate::hb::HappensBefore;

/// Per-value ground truth recomputed from the graph.
struct Truth {
    uses: Vec<usize>,
    last_use: Vec<Option<usize>>,
    peak: usize,
}

fn recompute(graph: &Graph) -> Truth {
    let len = graph.len();
    let mut uses = vec![0usize; len];
    let mut last_use: Vec<Option<usize>> = vec![None; len];
    for (pos, node) in graph.iter().enumerate() {
        for &i in &node.inputs {
            if i.0 < len {
                uses[i.0] += 1;
                last_use[i.0] = Some(pos);
            }
        }
    }
    let bytes: Vec<usize> = graph
        .iter()
        .map(|n| ngb_tensor::num_elements(&n.out_shape) * 4)
        .collect();
    let mut remaining = uses.clone();
    let mut live = 0usize;
    let mut peak = 0usize;
    for (pos, node) in graph.iter().enumerate() {
        live += bytes[pos];
        peak = peak.max(live);
        for &i in &node.inputs {
            if i.0 < len && i.0 != pos {
                remaining[i.0] -= 1;
                if remaining[i.0] == 0 {
                    live -= bytes[i.0];
                }
            }
        }
    }
    Truth {
        uses,
        last_use,
        peak,
    }
}

/// Proves the plan's lifetimes sound against the graph and the schedule's
/// happens-before relation; hazards are appended to `report`.
pub fn verify_interference(
    graph: &Graph,
    plan: &BufferPlan,
    hb: &HappensBefore,
    report: &mut SanitizeReport,
) {
    let len = graph.len();
    if plan.dropped_edges > 0 {
        report.push(
            HazardKind::DroppedEdge,
            Vec::new(),
            format!(
                "buffer plan dropped {} out-of-range input reference(s); \
                 its lifetimes cover only the in-range structure",
                plan.dropped_edges
            ),
        );
        return;
    }
    let truth = recompute(graph);
    for pos in 0..len {
        if plan.uses[pos] != truth.uses[pos] {
            report.push(
                HazardKind::UsesMismatch,
                vec![NodeId(pos)],
                format!(
                    "value %{pos} is freed after {} read(s) but the graph has \
                     {} consumption(s)",
                    plan.uses[pos], truth.uses[pos]
                ),
            );
        }
        match (plan.last_use[pos], truth.last_use[pos]) {
            (a, b) if a == b => {}
            (Some(p), Some(t)) if p < t => report.push(
                HazardKind::LifetimeTruncated,
                vec![NodeId(pos), NodeId(t)],
                format!(
                    "value %{pos}'s planned lifetime ends at node %{p} but node \
                     %{t} still reads it — a use-after-free once executed"
                ),
            ),
            (Some(p), None) => report.push(
                HazardKind::LifetimeTruncated,
                vec![NodeId(pos), NodeId(p)],
                format!(
                    "value %{pos} is a graph output but the plan frees it after \
                     node %{p} — output collection reads freed storage"
                ),
            ),
            (planned, _) => report.push(
                HazardKind::LifetimeExtended,
                vec![NodeId(pos)],
                format!(
                    "value %{pos}'s planned lifetime ({planned:?}) extends past \
                     its true last consumer ({:?}) — peak accounting is wrong",
                    truth.last_use[pos]
                ),
            ),
        }
    }
    if plan.planned_peak_bytes != truth.peak {
        report.push(
            HazardKind::PeakMismatch,
            Vec::new(),
            format!(
                "planned peak {} bytes != {} bytes recomputed from the graph",
                plan.planned_peak_bytes, truth.peak
            ),
        );
    }

    check_slot_assignment(plan, &truth, hb, report, len);
}

/// Greedy HB-ordered slot coloring of the plan's lifetimes, validated
/// against the graph-derived truth.
fn check_slot_assignment(
    plan: &BufferPlan,
    truth: &Truth,
    hb: &HappensBefore,
    report: &mut SanitizeReport,
    len: usize,
) {
    // slot -> history of (value, freed_at-per-plan) in assignment order
    let mut slots: Vec<Vec<(usize, Option<usize>)>> = Vec::new();
    // free list: (slot, position whose completion freed it)
    let mut free: Vec<(usize, usize)> = Vec::new();
    let mut remaining = plan.uses.clone();
    for pos in 0..len {
        // allocate pos's output: reuse a slot only across a HB edge
        let reusable = free
            .iter()
            .position(|&(_, freed_at)| hb.ordered(freed_at, pos));
        let slot = match reusable {
            Some(i) => free.swap_remove(i).0,
            None => {
                slots.push(Vec::new());
                slots.len() - 1
            }
        };
        slots[slot].push((pos, plan.last_use[pos]));
        // return the slots of values whose planned lifetime ends here
        free_dead_inputs(plan, &mut remaining, &slots, &mut free, pos);
    }
    report.stats.slots_assigned = slots.len();

    // validate every same-slot pair against the truth
    for history in &slots {
        for pair in history.windows(2) {
            let ((a, planned_last_a), (b, _)) = (pair[0], pair[1]);
            match truth.last_use[a] {
                None => report.push(
                    HazardKind::SlotConflict,
                    vec![NodeId(a), NodeId(b)],
                    format!(
                        "value %{a} is a graph output (live forever) but its \
                         slot is reused for value %{b}"
                    ),
                ),
                Some(t) => {
                    // sound iff a's true last read is ordered before b's
                    // definition (or coincides with the freeing position
                    // the reuse was already ordered against)
                    let ok = planned_last_a == Some(t) || hb.ordered(t, b);
                    if ok {
                        report.stats.reuse_pairs_proved += 1;
                    } else if hb.ordered(b, t) {
                        report.push(
                            HazardKind::SlotConflict,
                            vec![NodeId(a), NodeId(b)],
                            format!(
                                "values %{a} and %{b} share a slot but %{b} is \
                                 defined before %{a}'s true last read (node %{t}): \
                                 simultaneously live"
                            ),
                        );
                    } else {
                        report.push(
                            HazardKind::UnorderedReuse,
                            vec![NodeId(a), NodeId(b)],
                            format!(
                                "values %{a} and %{b} share a slot without a \
                                 happens-before edge from %{a}'s true last read \
                                 (node %{t}) to %{b}'s definition"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// After `pos` completes, returns to the free list the slot of every
/// value whose planned consumer count drains at `pos`.
fn free_dead_inputs(
    plan: &BufferPlan,
    remaining: &mut [usize],
    slots: &[Vec<(usize, Option<usize>)>],
    free: &mut Vec<(usize, usize)>,
    pos: usize,
) {
    for (value, rem) in remaining.iter_mut().enumerate() {
        if plan.last_use[value] == Some(pos) && *rem > 0 {
            *rem = 0;
            if let Some(slot) = slots
                .iter()
                .position(|h| h.last().is_some_and(|&(v, _)| v == value))
            {
                free.push((slot, pos));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_exec::Schedule;
    use ngb_graph::{GraphBuilder, OpKind};

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut cur = b.input(&[8, 8]);
        for i in 0..n {
            cur = b.push(OpKind::Gelu, &[cur], &format!("g{i}")).unwrap();
        }
        b.finish()
    }

    fn verify(graph: &Graph, plan: &BufferPlan) -> SanitizeReport {
        let sched = Schedule::new(graph);
        let hb = HappensBefore::new(&sched);
        let mut report = SanitizeReport::new(&graph.name);
        verify_interference(graph, plan, &hb, &mut report);
        report
    }

    #[test]
    fn clean_chain_reuses_slots_with_proof() {
        let g = chain(6);
        let report = verify(&g, &BufferPlan::new(&g));
        assert!(report.is_clean(), "{}", report.to_text());
        // a chain alternates between two slots (live set of two)
        assert_eq!(report.stats.slots_assigned, 2);
        assert!(report.stats.reuse_pairs_proved >= 4);
    }

    #[test]
    fn diamond_branches_get_distinct_slots() {
        let mut b = GraphBuilder::new("diamond");
        let x = b.input(&[4, 4]);
        let l = b.push(OpKind::Gelu, &[x], "l").unwrap();
        let r = b.push(OpKind::Relu, &[x], "r").unwrap();
        b.push(OpKind::Add, &[l, r], "j").unwrap();
        let g = b.finish();
        let report = verify(&g, &BufferPlan::new(&g));
        assert!(report.is_clean(), "{}", report.to_text());
        // x, l, r are simultaneously live around the join: three slots
        // (the join's output can only reuse across a HB edge)
        assert!(report.stats.slots_assigned >= 3);
    }

    #[test]
    fn truncated_lifetime_is_flagged() {
        let g = chain(4);
        let mut plan = BufferPlan::new(&g);
        // pretend value 1 dies at its own definition site's successor
        plan.uses[1] = 0;
        plan.last_use[1] = None;
        let report = verify(&g, &plan);
        assert!(
            report.count(HazardKind::UsesMismatch) >= 1,
            "{}",
            report.to_text()
        );
        assert!(
            report.count(HazardKind::LifetimeExtended) >= 1,
            "{}",
            report.to_text()
        );
    }

    #[test]
    fn shrunk_last_use_is_a_truncation() {
        let g = chain(4);
        let mut plan = BufferPlan::new(&g);
        let v = 1usize; // consumed by node 2
        plan.last_use[v] = Some(v); // claim it dies immediately
        let report = verify(&g, &plan);
        assert!(
            report.count(HazardKind::LifetimeTruncated) >= 1,
            "{}",
            report.to_text()
        );
    }

    #[test]
    fn wrong_peak_is_flagged() {
        let g = chain(4);
        let mut plan = BufferPlan::new(&g);
        plan.planned_peak_bytes += 1;
        let report = verify(&g, &plan);
        assert_eq!(report.count(HazardKind::PeakMismatch), 1);
    }
}
