//! The gate runners behind `nongemm-cli ci`: `check` diffs the current
//! tree against the committed baselines, `update` regenerates them.

use std::path::PathBuf;

use ngb_models::ModelId;

use crate::baseline::{baseline_path, load_baseline, write_baseline, RegressError};
use crate::diff::{compare_model, MetricDiff};
use crate::report::{CheckOutcome, ModelUpdate, UpdateOutcome};
use crate::snapshot::{model_baseline, ModelBaseline};

/// Configuration of one gate run.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Baseline directory (normally `baselines/` at the repo root).
    pub dir: PathBuf,
    /// Models to gate.
    pub models: Vec<ModelId>,
}

fn build_current(id: ModelId) -> Result<ModelBaseline, RegressError> {
    model_baseline(id).map_err(|e| RegressError::Build {
        model: id.spec().alias.to_string(),
        msg: e.to_string(),
    })
}

/// Runs the check gate: snapshots every configured model and diffs it
/// against its committed baseline. A missing or schema-mismatched
/// baseline file is reported as a diff (context `"baseline"`) rather
/// than an error, so one stale file fails the gate with an actionable
/// message instead of aborting it. No graph is executed.
///
/// # Errors
///
/// [`RegressError::Build`] when a current snapshot cannot be built
/// (graph construction itself is broken — that is a hard failure, not a
/// diff).
pub fn check(cfg: &GateConfig) -> Result<CheckOutcome, RegressError> {
    let mut diffs: Vec<MetricDiff> = Vec::new();
    let mut models = Vec::with_capacity(cfg.models.len());
    for &id in &cfg.models {
        let alias = id.spec().alias.to_string();
        models.push(alias.clone());
        let path = baseline_path(&cfg.dir, &alias);
        let baseline = match load_baseline(&path) {
            Ok(b) => b,
            Err(e) => {
                diffs.push(MetricDiff {
                    model: alias,
                    context: "baseline".to_string(),
                    metric: "file".to_string(),
                    baseline: e.to_string(),
                    current: "run `nongemm-cli ci --update`".to_string(),
                });
                continue;
            }
        };
        diffs.extend(compare_model(&baseline, &build_current(id)?));
    }
    Ok(CheckOutcome { models, diffs })
}

/// Runs the update gate: regenerates every configured model's baseline
/// file, reporting what moved relative to the previous files. Old files
/// that are missing, malformed, or schema-mismatched are silently
/// replaced (that is the point of `--update`).
///
/// # Errors
///
/// [`RegressError::Build`] when a snapshot cannot be built,
/// [`RegressError::Io`] when a file cannot be written.
pub fn update(cfg: &GateConfig) -> Result<UpdateOutcome, RegressError> {
    let mut written = Vec::with_capacity(cfg.models.len());
    for &id in &cfg.models {
        let current = build_current(id)?;
        let path = baseline_path(&cfg.dir, &current.model);
        let previous = load_baseline(&path).ok();
        let moved = previous
            .as_ref()
            .map(|prev| compare_model(prev, &current))
            .unwrap_or_default();
        write_baseline(&path, &current)?;
        written.push(ModelUpdate {
            model: current.model.clone(),
            created: previous.is_none(),
            moved,
        });
    }
    Ok(UpdateOutcome { written })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .subsec_nanos();
        let dir =
            std::env::temp_dir().join(format!("ngb-gate-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn small_cfg(dir: PathBuf) -> GateConfig {
        GateConfig {
            dir,
            models: vec![ModelId::Gpt2],
        }
    }

    #[test]
    fn update_then_check_is_clean() {
        let dir = tmpdir("clean");
        let cfg = small_cfg(dir.clone());
        let up = update(&cfg).unwrap();
        assert_eq!(up.written.len(), 1);
        assert!(up.written[0].created);
        let out = check(&cfg).unwrap();
        assert!(out.is_clean(), "{}", out.to_text());
        // an unchanged re-update reports nothing moved
        let up2 = update(&cfg).unwrap();
        assert!(!up2.written[0].created);
        assert!(up2.written[0].moved.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_baseline_fails_with_actionable_diff() {
        let dir = tmpdir("missing");
        let cfg = small_cfg(dir.clone());
        let out = check(&cfg).unwrap();
        assert!(!out.is_clean());
        assert_eq!(out.diffs[0].model, "gpt2");
        assert_eq!(out.diffs[0].context, "baseline");
        assert!(out.diffs[0].current.contains("--update"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_schema_fails_the_gate_without_aborting_it() {
        let dir = tmpdir("stale");
        let cfg = small_cfg(dir.clone());
        std::fs::write(
            baseline_path(&cfg.dir, "gpt2"),
            "{\"schema\": 0, \"model\": \"gpt2\"}",
        )
        .unwrap();
        let out = check(&cfg).unwrap();
        assert!(!out.is_clean());
        assert!(out.diffs[0].baseline.contains("schema v0"));
        assert!(out.diffs[0].baseline.contains("--update"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
