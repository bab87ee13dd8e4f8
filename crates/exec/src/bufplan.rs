//! Liveness-based buffer planning.
//!
//! [`BufferPlan`] is a liveness pass over a [`Graph`] computing consumer
//! counts, last uses, and the planned peak of a drop-at-last-use
//! execution.

use ngb_graph::Graph;

/// Static liveness analysis of one graph.
#[derive(Debug, Clone)]
pub struct BufferPlan {
    /// Consumer count per node (one per consumption, so a node used twice
    /// by the same consumer counts twice). Zero means graph output.
    pub uses: Vec<usize>,
    /// Position of each node's last consumer (`None` for outputs).
    pub last_use: Vec<Option<usize>>,
    /// Peak live activation bytes of a sequential drop-at-last-use run
    /// (f32-equivalent metric: elements × 4).
    pub planned_peak_bytes: usize,
    /// Sum of all activation bytes — what a run that never frees holds.
    pub naive_bytes: usize,
    /// Input references pointing outside the graph that the liveness pass
    /// had to skip. Nonzero means the graph is corrupt and this plan's
    /// counts/lifetimes describe only the in-range structure — check
    /// [`BufferPlan::is_complete`] before trusting the plan.
    pub dropped_edges: usize,
}

impl BufferPlan {
    /// Runs the liveness pass. Out-of-range input ids are ignored (corrupt
    /// graphs are the executors' concern; the plan stays total).
    pub fn new(graph: &Graph) -> BufferPlan {
        let len = graph.len();
        let mut uses = vec![0usize; len];
        let mut last_use: Vec<Option<usize>> = vec![None; len];
        let mut dropped_edges = 0usize;
        for (pos, node) in graph.iter().enumerate() {
            for &i in &node.inputs {
                if i.0 < len {
                    uses[i.0] += 1;
                    last_use[i.0] = Some(pos);
                } else {
                    dropped_edges += 1;
                }
            }
        }

        let bytes: Vec<usize> = graph
            .iter()
            .map(|n| ngb_tensor::num_elements(&n.out_shape) * 4)
            .collect();
        let naive_bytes = bytes.iter().sum();

        // simulate the sequential engine: allocate at definition, free
        // after the last consumer executes
        let mut remaining = uses.clone();
        let mut live = 0usize;
        let mut planned_peak_bytes = 0usize;
        for (pos, node) in graph.iter().enumerate() {
            live += bytes[pos];
            planned_peak_bytes = planned_peak_bytes.max(live);
            for &i in &node.inputs {
                if i.0 < len && i.0 != pos {
                    remaining[i.0] -= 1;
                    if remaining[i.0] == 0 {
                        live -= bytes[i.0];
                    }
                }
            }
        }

        BufferPlan {
            uses,
            last_use,
            planned_peak_bytes,
            naive_bytes,
            dropped_edges,
        }
    }

    /// Whether the liveness pass covered every input edge (false means the
    /// graph referenced nodes outside itself and the plan is partial).
    pub fn is_complete(&self) -> bool {
        self.dropped_edges == 0
    }

    /// Whether node `i` is a graph output (no consumers).
    pub fn is_output(&self, i: usize) -> bool {
        self.uses[i] == 0
    }

    /// How much smaller the planned peak is than never freeing
    /// (1.0 = no savings; higher is better).
    pub fn reuse_factor(&self) -> f64 {
        if self.planned_peak_bytes == 0 {
            1.0
        } else {
            self.naive_bytes as f64 / self.planned_peak_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_graph::{GraphBuilder, OpKind};

    #[test]
    fn plan_matches_graph_planner_on_a_chain() {
        let mut b = GraphBuilder::new("chain");
        let mut cur = b.input(&[8, 8]);
        for i in 0..4 {
            cur = b.push(OpKind::Gelu, &[cur], &format!("g{i}")).unwrap();
        }
        let g = b.finish();
        let plan = BufferPlan::new(&g);
        assert_eq!(plan.planned_peak_bytes, g.peak_activation_bytes());
        assert_eq!(plan.naive_bytes, 5 * 8 * 8 * 4);
        assert!(plan.reuse_factor() > 2.0);
        assert_eq!(plan.uses, vec![1, 1, 1, 1, 0]);
        assert_eq!(
            plan.last_use,
            vec![Some(1), Some(2), Some(3), Some(4), None]
        );
        assert!(plan.is_output(4));
        assert!(!plan.is_output(0));
    }

    #[test]
    fn out_of_range_edges_are_counted_not_silently_dropped() {
        let mut b = GraphBuilder::new("chain");
        let x = b.input(&[4]);
        b.push(OpKind::Gelu, &[x], "g").unwrap();
        let mut g = b.finish();
        assert!(BufferPlan::new(&g).is_complete());

        g.nodes[1].inputs = vec![ngb_graph::NodeId(0), ngb_graph::NodeId(9)];
        let plan = BufferPlan::new(&g);
        assert!(!plan.is_complete());
        assert_eq!(plan.dropped_edges, 1);
        // the in-range edge still counts
        assert_eq!(plan.uses[0], 1);
    }
}
