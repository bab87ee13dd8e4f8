//! The three NonGEMM Bench output reports (paper §3.2.4):
//! performance/cost, workload, and non-GEMM-specific.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ngb_graph::{Graph, NonGemmGroup, OpClass};
use serde::Serialize;

use crate::profile::ModelProfile;

/// Performance/cost report: end-to-end latency with operator-level
/// breakdown, energy, and peak memory.
#[derive(Debug, Clone, Serialize)]
pub struct PerformanceReport {
    /// Model name.
    pub model: String,
    /// Platform label.
    pub platform: String,
    /// Flow label.
    pub flow: String,
    /// Batch size.
    pub batch: usize,
    /// End-to-end latency, milliseconds.
    pub latency_ms: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Peak activation memory, megabytes.
    pub peak_memory_mb: f64,
    /// GEMM share of latency (0–1).
    pub gemm_frac: f64,
    /// Non-GEMM share per group (0–1).
    pub group_fracs: BTreeMap<String, f64>,
    /// One-time parameter synthesis of a measured profile, milliseconds;
    /// not part of `latency_ms` or any share. 0 for analytic profiles.
    pub param_synthesis_ms: f64,
}

impl PerformanceReport {
    /// Builds the report from a profile.
    pub fn from_profile(p: &ModelProfile) -> PerformanceReport {
        let b = p.breakdown();
        PerformanceReport {
            model: p.model.clone(),
            platform: p.platform.clone(),
            flow: p.flow.clone(),
            batch: p.batch,
            latency_ms: p.total_latency_s() * 1e3,
            energy_j: p.total_energy_j(),
            peak_memory_mb: p.peak_memory_bytes as f64 / 1e6,
            gemm_frac: b.gemm_frac(),
            group_fracs: NonGemmGroup::all()
                .iter()
                .filter_map(|&g| {
                    let f = b.group_frac(g);
                    (f > 0.0).then(|| (g.label().to_string(), f))
                })
                .collect(),
            param_synthesis_ms: p.param_synthesis_s * 1e3,
        }
    }

    /// Renders a human-readable block.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} | {} | {} | batch {}",
            self.model, self.platform, self.flow, self.batch
        );
        let _ = writeln!(
            s,
            "  latency {:.3} ms   energy {:.3} J   peak mem {:.1} MB",
            self.latency_ms, self.energy_j, self.peak_memory_mb
        );
        if self.param_synthesis_ms > 0.0 {
            let _ = writeln!(
                s,
                "  parameter synthesis {:.3} ms (once, outside latency)",
                self.param_synthesis_ms
            );
        }
        let _ = writeln!(s, "  GEMM {:5.1}%", self.gemm_frac * 100.0);
        for (g, f) in &self.group_fracs {
            let _ = writeln!(s, "  {g:<14} {:5.1}%", f * 100.0);
        }
        s
    }

    /// One CSV row (see [`csv_header`] for the column order).
    pub fn to_csv_row(&self) -> String {
        let mut row = format!(
            "{},{},{},{},{:.6},{:.6},{:.3},{:.4}",
            self.model,
            self.platform.replace(',', ";"),
            self.flow.replace(',', ";"),
            self.batch,
            self.latency_ms,
            self.energy_j,
            self.peak_memory_mb,
            self.gemm_frac
        );
        for g in NonGemmGroup::all() {
            let f = self.group_fracs.get(g.label()).copied().unwrap_or(0.0);
            let _ = write!(row, ",{f:.4}");
        }
        row
    }
}

/// CSV header matching [`PerformanceReport::to_csv_row`].
pub fn csv_header() -> String {
    let mut h = "model,platform,flow,batch,latency_ms,energy_j,peak_mem_mb,gemm_frac".to_string();
    for g in NonGemmGroup::all() {
        let _ = write!(h, ",{}_frac", g.label().to_lowercase());
    }
    h
}

/// Workload report: operator histogram and the tensor shapes captured
/// during inference (paper: "the shape of the tensors captured during
/// inference on realistic data").
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadReport {
    /// Model name.
    pub model: String,
    /// Total operator count.
    pub total_ops: usize,
    /// Parameter count.
    pub params: usize,
    /// Operator name → occurrences.
    pub op_histogram: BTreeMap<String, usize>,
    /// Operator name → example output shapes (up to 3 distinct).
    pub example_shapes: BTreeMap<String, Vec<Vec<usize>>>,
}

impl WorkloadReport {
    /// Builds the report from a graph.
    pub fn from_graph(g: &Graph) -> WorkloadReport {
        let mut shapes: BTreeMap<String, Vec<Vec<usize>>> = BTreeMap::new();
        for n in g.iter() {
            let e = shapes.entry(n.op.name().to_string()).or_default();
            if e.len() < 3 && !e.contains(&n.out_shape) {
                e.push(n.out_shape.clone());
            }
        }
        WorkloadReport {
            model: g.name.clone(),
            total_ops: g.len(),
            params: g.param_count(),
            op_histogram: g
                .op_histogram()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            example_shapes: shapes,
        }
    }
}

/// Compute and traffic totals of one operator group (drives the
/// arithmetic-intensity analysis of why non-GEMM ops resist acceleration).
#[derive(Debug, Clone, Default, Serialize)]
pub struct GroupCost {
    /// Total floating-point operations.
    pub flops: f64,
    /// Total memory traffic in bytes.
    pub bytes: f64,
    /// Total unfused (eager) kernel launches.
    pub kernels: u64,
}

impl GroupCost {
    /// FLOPs per byte of traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes > 0.0 {
            self.flops / self.bytes
        } else {
            0.0
        }
    }
}

/// Non-GEMM-specific report: group counts, operator variants, and
/// dynamicity (paper: "number of operator variants of the same class",
/// "non-GEMM operator trace on different domains").
#[derive(Debug, Clone, Serialize)]
pub struct NonGemmReport {
    /// Model name.
    pub model: String,
    /// Non-GEMM node count.
    pub non_gemm_ops: usize,
    /// GEMM node count.
    pub gemm_ops: usize,
    /// Group label → node count.
    pub group_counts: BTreeMap<String, usize>,
    /// Group label → distinct operator names within the group
    /// (e.g. Normalization: layer_norm, frozen_batch_norm2d, …).
    pub group_variants: BTreeMap<String, Vec<String>>,
    /// Number of data-dependent (dynamic) operators.
    pub dynamic_ops: usize,
    /// Per-group compute/traffic totals ("GEMM" plus the non-GEMM groups).
    pub group_costs: BTreeMap<String, GroupCost>,
}

impl NonGemmReport {
    /// Builds the report from a graph.
    pub fn from_graph(g: &Graph) -> NonGemmReport {
        let mut group_counts: BTreeMap<String, usize> = BTreeMap::new();
        let mut group_variants: BTreeMap<String, std::collections::BTreeSet<String>> =
            BTreeMap::new();
        let mut dynamic = 0usize;
        let mut non_gemm = 0usize;
        let mut gemm = 0usize;
        let mut group_costs: BTreeMap<String, GroupCost> = BTreeMap::new();
        for n in g.iter() {
            let cost = g.node_cost(n.id);
            let key = match n.class() {
                OpClass::Gemm => {
                    gemm += 1;
                    "GEMM".to_string()
                }
                OpClass::NonGemm(grp) => {
                    non_gemm += 1;
                    *group_counts.entry(grp.label().to_string()).or_insert(0) += 1;
                    group_variants
                        .entry(grp.label().to_string())
                        .or_default()
                        .insert(n.op.name().to_string());
                    grp.label().to_string()
                }
            };
            let gc = group_costs.entry(key).or_default();
            gc.flops += cost.flops;
            gc.bytes += cost.memory_bytes();
            gc.kernels += cost.kernels as u64;
            if n.op.is_dynamic() {
                dynamic += 1;
            }
        }
        NonGemmReport {
            model: g.name.clone(),
            non_gemm_ops: non_gemm,
            gemm_ops: gemm,
            group_counts,
            group_variants: group_variants
                .into_iter()
                .map(|(k, v)| (k, v.into_iter().collect()))
                .collect(),
            dynamic_ops: dynamic,
            group_costs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_analytic;
    use ngb_graph::{GraphBuilder, OpKind};
    use ngb_platform::Platform;
    use ngb_runtime::Flow;

    fn toy() -> Graph {
        let mut b = GraphBuilder::new("toy");
        let x = b.input(&[1, 16]);
        let l = b
            .push(
                OpKind::Linear {
                    in_f: 16,
                    out_f: 16,
                    bias: true,
                },
                &[x],
                "fc",
            )
            .unwrap();
        let a = b.push(OpKind::Gelu, &[l], "act").unwrap();
        let boxes = b.input(&[8, 4]);
        let scores = b.input(&[8]);
        b.push(
            OpKind::Nms {
                iou_threshold: 0.5,
                nominal_keep: 4,
            },
            &[boxes, scores],
            "nms",
        )
        .unwrap();
        b.push(OpKind::Softmax { dim: 1 }, &[a], "sm").unwrap();
        b.finish()
    }

    #[test]
    fn performance_report_roundtrip() {
        let g = toy();
        let p = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 1);
        let r = PerformanceReport::from_profile(&p);
        assert!(r.latency_ms > 0.0);
        let txt = r.to_text();
        assert!(txt.contains("GEMM"));
        let csv = r.to_csv_row();
        assert_eq!(csv.matches(',').count(), csv_header().matches(',').count());
        let js = serde_json::to_string(&r).unwrap();
        assert!(js.contains("latency_ms"));
    }

    #[test]
    fn workload_report_counts_and_shapes() {
        let g = toy();
        let w = WorkloadReport::from_graph(&g);
        assert_eq!(w.total_ops, g.len());
        assert_eq!(w.op_histogram["linear"], 1);
        assert_eq!(w.example_shapes["linear"], vec![vec![1, 16]]);
        assert!(w.params > 0);
    }

    #[test]
    fn non_gemm_report_tracks_variants_and_dynamicity() {
        let g = toy();
        let r = NonGemmReport::from_graph(&g);
        assert_eq!(r.gemm_ops, 1);
        assert!(r.non_gemm_ops >= 3);
        assert_eq!(r.dynamic_ops, 1);
        assert!(r.group_counts["RoI"] == 1);
        assert!(r.group_variants["Activation"].contains(&"gelu".to_string()));
        assert!(r.group_costs["GEMM"].flops > 0.0);
        assert!(r.group_costs["GEMM"].kernels >= 1);
        assert!(r.group_costs["Activation"].bytes > 0.0);
        assert!(r.group_costs["Activation"].arithmetic_intensity() > 0.0);
    }
}
