//! Seeded fault injection for the verifier's own detection-power tests.
//!
//! Each mutator corrupts a schedule, plan, or chunk decomposition the way
//! a real scheduling/liveness bug would, deterministically from a seed,
//! and returns what it broke so a test can assert the exact hazard is
//! caught — by the static verifier (`verify_parts`) or by the runtime
//! shadow-memory sanitizer when the corrupted parts are executed through
//! `Interpreter::run_with_parts`.

use std::ops::Range;

use ngb_exec::{BufferPlan, Schedule};
use ngb_graph::Graph;

/// Deterministic index in `0..len` derived from `seed` (xorshift mix; no
/// global RNG state, so fault placement is reproducible).
fn pick(seed: u64, len: usize) -> usize {
    debug_assert!(len > 0);
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    (s % len as u64) as usize
}

/// Removes one data edge `(u, v)` from the schedule — the consumer no
/// longer waits for the producer — and boosts the consumer's priority so
/// the corrupted order manifests deterministically when executed.
/// Returns the dropped edge, or `None` if the graph has no edges.
pub fn drop_edge(sched: &mut Schedule, graph: &Graph, seed: u64) -> Option<(usize, usize)> {
    let len = graph.len();
    let edges: Vec<(usize, usize)> = graph
        .iter()
        .enumerate()
        .flat_map(|(pos, node)| {
            node.inputs
                .iter()
                .filter(move |i| i.0 < len && i.0 != pos)
                .map(move |i| (i.0, pos))
        })
        .collect();
    if edges.is_empty() {
        return None;
    }
    let (u, v) = edges[pick(seed, edges.len())];
    sched.successors[u].retain(|&s| s != v);
    sched.indegree[v] = sched.indegree[v].saturating_sub(1);
    // a real scheduler bug that loses an edge also mis-ranks the consumer;
    // ranking it first makes the race deterministic instead of timing-luck
    let top = sched.priority.iter().copied().fold(0.0f64, f64::max);
    sched.priority[v] = top + 1.0;
    Some((u, v))
}

/// Shrinks one value's planned consumer count by one, so the executor
/// frees it while a consumer still has a read outstanding (dynamic
/// use-after-free). Returns the value, or `None` if nothing has two or
/// more planned reads.
pub fn truncate_lifetime(plan: &mut BufferPlan, seed: u64) -> Option<usize> {
    let candidates: Vec<usize> = (0..plan.uses.len())
        .filter(|&v| plan.uses[v] >= 2)
        .collect();
    let v = *candidates.get(pick(seed, candidates.len().max(1)) % candidates.len().max(1))?;
    plan.uses[v] -= 1;
    Some(v)
}

/// Moves one value's planned last use back to its own definition site —
/// the static signature of a premature free. Returns the value, or
/// `None` if nothing is consumed after its definition.
pub fn premature_free(plan: &mut BufferPlan, seed: u64) -> Option<usize> {
    let candidates: Vec<usize> = (0..plan.uses.len())
        .filter(|&v| plan.last_use[v].is_some_and(|lu| lu > v))
        .collect();
    let v = *candidates.get(pick(seed, candidates.len().max(1)) % candidates.len().max(1))?;
    plan.last_use[v] = Some(v);
    Some(v)
}

/// Extends one chunk of a decomposition into its neighbor (or past the
/// end, for a single chunk), producing an overlap/out-of-bounds hazard.
/// Returns the mutated chunk index, or `None` for an empty decomposition.
pub fn overlap_chunks(ranges: &mut [Range<usize>], seed: u64) -> Option<usize> {
    if ranges.is_empty() {
        return None;
    }
    let c = pick(seed, ranges.len());
    ranges[c].end += 1;
    Some(c)
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
    fn mutators_are_deterministic_per_seed() {
        let g = diamond();
        for seed in 0..16u64 {
            let mut s1 = Schedule::new(&g);
            let mut s2 = Schedule::new(&g);
            assert_eq!(drop_edge(&mut s1, &g, seed), drop_edge(&mut s2, &g, seed));
            assert_eq!(s1.successors, s2.successors);

            let mut p1 = BufferPlan::new(&g);
            let mut p2 = BufferPlan::new(&g);
            assert_eq!(
                truncate_lifetime(&mut p1, seed),
                truncate_lifetime(&mut p2, seed)
            );
            assert_eq!(premature_free(&mut p1, seed), premature_free(&mut p2, seed));
            assert_eq!(p1.uses, p2.uses);
            assert_eq!(p1.last_use, p2.last_use);
        }
    }

    #[test]
    fn drop_edge_removes_exactly_one_dependency() {
        let g = diamond();
        let clean = Schedule::new(&g);
        let mut sched = Schedule::new(&g);
        let (u, v) = drop_edge(&mut sched, &g, 3).unwrap();
        assert!(!sched.successors[u].contains(&v));
        assert_eq!(sched.indegree[v] + 1, clean.indegree[v]);
        assert!(sched.priority[v] > clean.priority.iter().copied().fold(0.0, f64::max));
    }

    #[test]
    fn lifetime_faults_target_real_values() {
        let g = diamond();
        let mut plan = BufferPlan::new(&g);
        // only the input (consumed twice) qualifies for truncation
        assert_eq!(truncate_lifetime(&mut plan, 9), Some(0));
        assert_eq!(plan.uses[0], 1);

        let mut plan = BufferPlan::new(&g);
        let v = premature_free(&mut plan, 9).unwrap();
        assert_eq!(plan.last_use[v], Some(v));
    }

    #[test]
    fn overlap_chunks_extends_one_range() {
        let mut ranges = vec![0..4, 4..8];
        let c = overlap_chunks(&mut ranges, 1).unwrap();
        assert_eq!(ranges[c].end, [0..4, 4..8][c].end + 1);
        assert!(overlap_chunks(&mut [], 1).is_none());
    }
}
