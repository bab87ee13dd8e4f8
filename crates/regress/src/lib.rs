//! # ngb-regress
//!
//! The perf-regression gate behind `nongemm-cli ci`: committed golden
//! baselines that pin down every number the reproduction exists to
//! produce, so a rewrite pass or scheduler change can never silently
//! skew a figure again.
//!
//! For each of the 18 Table 1 models the gate snapshots the full
//! **scale × opt-level matrix** (tiny + full, O0/O1/O2) of
//! *deterministic* invariants:
//!
//! * **graph** — node counts, GEMM/non-GEMM taxonomy census, dynamic-op
//!   count, parameter count, peak activation bytes, and the static bytes
//!   still materialized by `Contiguous` nodes after elision;
//! * **cost** — analytic GEMM / non-GEMM / per-group latency totals and
//!   the non-GEMM share on the reference platform (data-center, eager,
//!   GPU, batch 1) — pure f64 arithmetic, bit-stable across runs;
//! * **schedule** — Kahn wavefront depth and widths;
//! * **lints** — deny/warn/allow counts from the `ngb-analyze` passes;
//! * **opt** — the rewriter's node-reduction delta and per-rewrite
//!   counters.
//!
//! Nothing here is measured: a baseline is a pure function of the code,
//! and `check` never executes a graph. Wall-clock time is the
//! `benchmark/` harness's job.
//!
//! Baselines live as one versioned JSON file per model under
//! `baselines/` ([`SCHEMA_VERSION`]); a version mismatch is a clear
//! "regenerate with `nongemm-cli ci --update`" failure, never a parse
//! panic. [`check`] produces a [`CheckOutcome`] whose text and JSON
//! renderings name the exact model and metric that moved; [`update`]
//! rewrites the files and summarizes what changed, turning every
//! perf/optimizer PR into a reviewable baseline diff.
//!
//! # Examples
//!
//! ```
//! use ngb_regress::{snapshot, SCHEMA_VERSION};
//! use ngb_models::{ModelId, Scale};
//! use ngb_opt::OptLevel;
//!
//! let a = snapshot(ModelId::Gpt2, Scale::Tiny, OptLevel::O1).unwrap();
//! let b = snapshot(ModelId::Gpt2, Scale::Tiny, OptLevel::O1).unwrap();
//! assert_eq!(a, b); // snapshots are deterministic
//! assert!(a.cost.total_us > 0.0);
//! assert_eq!(SCHEMA_VERSION, 5);
//! ```

#![forbid(unsafe_code)]

mod baseline;
mod diff;
mod gate;
mod report;
mod snapshot;

pub use baseline::{baseline_path, load_baseline, write_baseline, RegressError};
pub use diff::{compare_model, MetricDiff};
pub use gate::{check, update, GateConfig};
pub use report::{CheckOutcome, ModelUpdate, UpdateOutcome};
pub use snapshot::{
    model_baseline, snapshot, CostMetrics, GraphMetrics, LintMetrics, ModelBaseline, OptMetrics,
    ScheduleMetrics, Snapshot, OPT_LEVELS, SCALES, SCHEMA_VERSION,
};
