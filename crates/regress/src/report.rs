//! Human-readable and JSON renderings of a regression-gate run.

use serde::Serialize;

use crate::diff::MetricDiff;

/// Result of `nongemm-cli ci --check`: one status line per model plus
/// every metric divergence found.
#[derive(Debug, Clone, Serialize)]
pub struct CheckOutcome {
    /// Models checked, in selection order.
    pub models: Vec<String>,
    /// Every divergence, grouped by model in selection order.
    pub diffs: Vec<MetricDiff>,
}

impl CheckOutcome {
    /// A check passes when nothing diverged.
    pub fn is_clean(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Models with at least one divergence, in selection order.
    pub fn failed_models(&self) -> Vec<&str> {
        self.models
            .iter()
            .filter(|m| self.diffs.iter().any(|d| &d.model == *m))
            .map(String::as_str)
            .collect()
    }

    /// The per-model / per-metric text report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "regression check: {} model(s)", self.models.len());
        for model in &self.models {
            let diffs: Vec<&MetricDiff> = self.diffs.iter().filter(|d| &d.model == model).collect();
            if diffs.is_empty() {
                let _ = writeln!(out, "  ok   {model}");
            } else {
                let _ = writeln!(out, "  FAIL {model} ({} metric(s))", diffs.len());
                for d in diffs {
                    let _ = writeln!(
                        out,
                        "         {} {}: baseline {} -> current {}",
                        d.context, d.metric, d.baseline, d.current
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "result: {}",
            if self.is_clean() {
                "PASS".to_string()
            } else {
                format!(
                    "FAIL ({} diff(s) across {} model(s); if intended, \
                     regenerate with `nongemm-cli ci --update`)",
                    self.diffs.len(),
                    self.failed_models().len()
                )
            }
        );
        out
    }

    /// The machine-readable report (what `--format json` prints).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&JsonReport {
            clean: self.is_clean(),
            models_checked: self.models.len(),
            models_failed: self.failed_models().iter().map(|s| s.to_string()).collect(),
            diffs: self.diffs.clone(),
        })
        .expect("reports serialize")
    }
}

/// Serialization shape of [`CheckOutcome::to_json`].
#[derive(Serialize)]
struct JsonReport {
    clean: bool,
    models_checked: usize,
    models_failed: Vec<String>,
    diffs: Vec<MetricDiff>,
}

/// Result of `nongemm-cli ci --update`: what moved per rewritten model.
#[derive(Debug, Clone, Serialize)]
pub struct UpdateOutcome {
    /// Per-model update summaries, in selection order.
    pub written: Vec<ModelUpdate>,
}

/// One rewritten baseline file.
#[derive(Debug, Clone, Serialize)]
pub struct ModelUpdate {
    /// Model alias.
    pub model: String,
    /// True when no (readable, current-schema) baseline existed before.
    pub created: bool,
    /// Metrics that moved relative to the previous file (empty for
    /// `created` files or no-op refreshes).
    pub moved: Vec<MetricDiff>,
}

impl UpdateOutcome {
    /// The what-moved text summary printed after `--update`.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "baselines updated: {} model(s)", self.written.len());
        for w in &self.written {
            if w.created {
                let _ = writeln!(out, "  new  {}", w.model);
            } else if w.moved.is_empty() {
                let _ = writeln!(out, "  same {}", w.model);
            } else {
                let _ = writeln!(out, "  moved {} ({} metric(s))", w.model, w.moved.len());
                for d in &w.moved {
                    let _ = writeln!(
                        out,
                        "         {} {}: {} -> {}",
                        d.context, d.metric, d.baseline, d.current
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(diffs: Vec<MetricDiff>) -> CheckOutcome {
        CheckOutcome {
            models: vec!["gpt2".into(), "bert".into()],
            diffs,
        }
    }

    fn one_diff() -> MetricDiff {
        MetricDiff {
            model: "gpt2".into(),
            context: "tiny/O1".into(),
            metric: "cost.gemm_us".into(),
            baseline: "10".into(),
            current: "20".into(),
        }
    }

    #[test]
    fn clean_check_renders_pass() {
        let o = outcome(Vec::new());
        assert!(o.is_clean());
        let text = o.to_text();
        assert!(text.contains("ok   gpt2"));
        assert!(text.contains("result: PASS"));
        let v: serde_json::Value = serde_json::from_str(&o.to_json()).unwrap();
        assert_eq!(v["clean"], true);
        assert_eq!(v["models_checked"], 2.0);
    }

    #[test]
    fn failing_check_names_model_and_metric() {
        let o = outcome(vec![one_diff()]);
        assert!(!o.is_clean());
        assert_eq!(o.failed_models(), vec!["gpt2"]);
        let text = o.to_text();
        assert!(text.contains("FAIL gpt2"));
        assert!(text.contains("tiny/O1 cost.gemm_us"));
        assert!(text.contains("--update"), "fail text names the remedy");
        let v: serde_json::Value = serde_json::from_str(&o.to_json()).unwrap();
        assert_eq!(v["clean"], false);
        assert_eq!(v["diffs"][0]["metric"], "cost.gemm_us");
        assert_eq!(v["models_failed"][0], "gpt2");
    }

    #[test]
    fn update_summary_lists_created_and_moved() {
        let u = UpdateOutcome {
            written: vec![
                ModelUpdate {
                    model: "gpt2".into(),
                    created: true,
                    moved: Vec::new(),
                },
                ModelUpdate {
                    model: "bert".into(),
                    created: false,
                    moved: vec![one_diff()],
                },
            ],
        };
        let text = u.to_text();
        assert!(text.contains("new  gpt2"));
        assert!(text.contains("moved bert"));
        assert!(text.contains("cost.gemm_us"));
    }
}
