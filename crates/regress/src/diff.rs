//! Baseline comparison: the per-metric diff engine behind
//! `nongemm-cli ci --check`.

use std::collections::BTreeSet;

use serde::Serialize;

use crate::snapshot::{ModelBaseline, Snapshot};

/// Relative tolerance for floats (cost totals, mean widths); counts are
/// always exact. The analytic cost model is pure f64 arithmetic and the
/// JSON encoding round-trips exactly, so this only needs to absorb benign
/// refactors of summation order.
const REL_TOL: f64 = 1e-9;

fn floats_equal(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// One divergence between a baseline and the current tree.
#[derive(Debug, Clone, Serialize)]
pub struct MetricDiff {
    /// Model alias.
    pub model: String,
    /// Snapshot cell (`"tiny/O1"`), or `"baseline"` for file-level
    /// problems.
    pub context: String,
    /// Dotted metric path (`"cost.gemm_us"`, `"graph.nodes"`, ...).
    pub metric: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
}

impl std::fmt::Display for MetricDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} {}: baseline {} -> current {}",
            self.model, self.context, self.metric, self.baseline, self.current
        )
    }
}

/// Accumulates diffs for one (model, context) cell.
struct DiffSink<'a> {
    model: &'a str,
    context: String,
    out: &'a mut Vec<MetricDiff>,
}

impl DiffSink<'_> {
    fn push(&mut self, metric: &str, baseline: impl ToString, current: impl ToString) {
        self.out.push(MetricDiff {
            model: self.model.to_string(),
            context: self.context.clone(),
            metric: metric.to_string(),
            baseline: baseline.to_string(),
            current: current.to_string(),
        });
    }

    fn count(&mut self, metric: &str, baseline: usize, current: usize) {
        if baseline != current {
            self.push(metric, baseline, current);
        }
    }

    fn flag(&mut self, metric: &str, baseline: bool, current: bool) {
        if baseline != current {
            self.push(metric, baseline, current);
        }
    }

    fn float(&mut self, metric: &str, baseline: f64, current: f64) {
        if !floats_equal(baseline, current) {
            self.push(metric, baseline, current);
        }
    }

    /// Compares keyed maps over the union of keys, reporting absent
    /// entries as `"absent"`.
    fn count_map(
        &mut self,
        prefix: &str,
        baseline: &std::collections::BTreeMap<String, usize>,
        current: &std::collections::BTreeMap<String, usize>,
    ) {
        let keys: BTreeSet<&String> = baseline.keys().chain(current.keys()).collect();
        for key in keys {
            let metric = format!("{prefix}.{key}");
            match (baseline.get(key), current.get(key)) {
                (Some(&b), Some(&c)) => self.count(&metric, b, c),
                (Some(&b), None) => self.push(&metric, b, "absent"),
                (None, Some(&c)) => self.push(&metric, "absent", c),
                (None, None) => unreachable!("key came from one of the maps"),
            }
        }
    }

    fn float_map(
        &mut self,
        prefix: &str,
        baseline: &std::collections::BTreeMap<String, f64>,
        current: &std::collections::BTreeMap<String, f64>,
    ) {
        let keys: BTreeSet<&String> = baseline.keys().chain(current.keys()).collect();
        for key in keys {
            let metric = format!("{prefix}.{key}");
            match (baseline.get(key), current.get(key)) {
                (Some(&b), Some(&c)) => self.float(&metric, b, c),
                (Some(&b), None) => self.push(&metric, b, "absent"),
                (None, Some(&c)) => self.push(&metric, "absent", c),
                (None, None) => unreachable!("key came from one of the maps"),
            }
        }
    }
}

fn compare_snapshot(
    model: &str,
    baseline: &Snapshot,
    current: &Snapshot,
    out: &mut Vec<MetricDiff>,
) {
    let mut sink = DiffSink {
        model,
        context: baseline.key(),
        out,
    };
    let (b, c) = (&baseline.graph, &current.graph);
    sink.count("graph.nodes", b.nodes, c.nodes);
    sink.count("graph.gemm", b.gemm, c.gemm);
    sink.count("graph.non_gemm", b.non_gemm, c.non_gemm);
    sink.count("graph.dynamic", b.dynamic, c.dynamic);
    sink.count("graph.params", b.params, c.params);
    sink.count(
        "graph.peak_activation_bytes",
        b.peak_activation_bytes,
        c.peak_activation_bytes,
    );
    sink.count(
        "graph.bytes_materialized",
        b.bytes_materialized,
        c.bytes_materialized,
    );
    sink.count_map("graph.groups", &b.groups, &c.groups);

    let (b, c) = (&baseline.cost, &current.cost);
    sink.float("cost.total_us", b.total_us, c.total_us);
    sink.float("cost.gemm_us", b.gemm_us, c.gemm_us);
    sink.float("cost.non_gemm_us", b.non_gemm_us, c.non_gemm_us);
    sink.float("cost.non_gemm_frac", b.non_gemm_frac, c.non_gemm_frac);
    sink.float("cost.energy_mj", b.energy_mj, c.energy_mj);
    sink.float_map("cost.groups_us", &b.groups_us, &c.groups_us);

    let (b, c) = (&baseline.schedule, &current.schedule);
    sink.count("schedule.wavefronts", b.wavefronts, c.wavefronts);
    sink.count("schedule.max_width", b.max_width, c.max_width);
    sink.float("schedule.mean_width", b.mean_width, c.mean_width);
    sink.flag("schedule.complete", b.complete, c.complete);

    let (b, c) = (&baseline.lints, &current.lints);
    sink.count("lints.deny", b.deny, c.deny);
    sink.count("lints.warn", b.warn, c.warn);
    sink.count("lints.allow", b.allow, c.allow);

    let (b, c) = (&baseline.opt, &current.opt);
    sink.count("opt.nodes_before", b.nodes_before, c.nodes_before);
    sink.count("opt.nodes_after", b.nodes_after, c.nodes_after);
    sink.count(
        "opt.intermediate_bytes_saved",
        b.intermediate_bytes_saved,
        c.intermediate_bytes_saved,
    );
    sink.count_map("opt.rewrites", &b.rewrites, &c.rewrites);

    match (&baseline.decode, &current.decode) {
        (Some(b), Some(c)) => {
            sink.count("decode.nodes", b.nodes, c.nodes);
            sink.count("decode.gemm", b.gemm, c.gemm);
            sink.count("decode.non_gemm", b.non_gemm, c.non_gemm);
            sink.float(
                "decode.decode_total_us",
                b.decode_total_us,
                c.decode_total_us,
            );
            sink.float(
                "decode.prefill_non_gemm_frac",
                b.prefill_non_gemm_frac,
                c.prefill_non_gemm_frac,
            );
            sink.float(
                "decode.decode_non_gemm_frac",
                b.decode_non_gemm_frac,
                c.decode_non_gemm_frac,
            );
        }
        (Some(_), None) => sink.push("decode", "present", "absent"),
        (None, Some(_)) => sink.push("decode", "absent", "present"),
        (None, None) => {}
    }
}

/// Diffs `current` against `baseline` for one model. Snapshot cells are
/// matched by `(scale, opt_level)`; cells present on only one side are
/// themselves diffs.
pub fn compare_model(baseline: &ModelBaseline, current: &ModelBaseline) -> Vec<MetricDiff> {
    let mut out = Vec::new();
    for b in &baseline.snapshots {
        match current.snapshot(&b.scale, b.opt_level) {
            Some(c) => compare_snapshot(&baseline.model, b, c, &mut out),
            None => out.push(MetricDiff {
                model: baseline.model.clone(),
                context: b.key(),
                metric: "snapshot".to_string(),
                baseline: "present".to_string(),
                current: "missing".to_string(),
            }),
        }
    }
    for c in &current.snapshots {
        if baseline.snapshot(&c.scale, c.opt_level).is_none() {
            out.push(MetricDiff {
                model: baseline.model.clone(),
                context: c.key(),
                metric: "snapshot".to_string(),
                baseline: "missing".to_string(),
                current: "present".to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::model_baseline;
    use ngb_models::ModelId;

    fn gpt2_baseline() -> ModelBaseline {
        model_baseline(ModelId::Gpt2).unwrap()
    }

    #[test]
    fn identical_baselines_compare_clean() {
        let b = gpt2_baseline();
        assert!(compare_model(&b, &b.clone()).is_empty());
    }

    #[test]
    fn perturbed_cost_names_the_exact_model_and_metric() {
        let base = gpt2_baseline();
        let mut cur = base.clone();
        cur.snapshots[0].cost.gemm_us *= 1.01;
        let diffs = compare_model(&base, &cur);
        assert_eq!(diffs.len(), 1, "only the perturbed metric fires: {diffs:?}");
        assert_eq!(diffs[0].model, "gpt2");
        assert_eq!(diffs[0].context, base.snapshots[0].key());
        assert_eq!(diffs[0].metric, "cost.gemm_us");
    }

    #[test]
    fn perturbed_counts_and_maps_fire_exactly() {
        let base = gpt2_baseline();
        let mut cur = base.clone();
        cur.snapshots[1].graph.nodes += 1;
        cur.snapshots[1].opt.rewrites.insert("layout".into(), 999);
        let diffs = compare_model(&base, &cur);
        let metrics: Vec<&str> = diffs.iter().map(|d| d.metric.as_str()).collect();
        assert!(metrics.contains(&"graph.nodes"), "{metrics:?}");
        assert!(metrics.contains(&"opt.rewrites.layout"), "{metrics:?}");
        assert_eq!(diffs.len(), 2);
    }

    #[test]
    fn missing_snapshot_cell_is_a_diff() {
        let base = gpt2_baseline();
        let mut cur = base.clone();
        cur.snapshots.remove(0);
        let diffs = compare_model(&base, &cur);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].metric, "snapshot");
        assert_eq!(diffs[0].current, "missing");
    }

    #[test]
    fn float_tolerance_is_tight() {
        assert!(floats_equal(1.0, 1.0 + 1e-12));
        assert!(!floats_equal(1.0, 1.0 + 1e-6));
    }
}
