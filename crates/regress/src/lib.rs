//! # ngb-regress
//!
//! The renderer of `baselines/`: one JSON file per Table 1 model that pins
//! down every number the reproduction exists to produce, so a rewrite pass
//! or scheduler change can never silently skew a figure again.
//!
//! For each of the 18 models a [`ModelBaseline`] snapshots the full
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
//! Nothing here is measured or executed: a baseline is a pure function of
//! the code, and [`ModelBaseline::to_json`] is its committed file byte for
//! byte. The files are rows of `ngb-bench`'s committed-file table beside
//! `artifacts/`, so the same drift guard checks them and the same
//! `artifacts` binary regenerates them. Wall-clock time is the
//! `benchmark/` harness's job.
//!
//! # Examples
//!
//! ```
//! use ngb_regress::snapshot;
//! use ngb_models::{ModelId, Scale};
//! use ngb_opt::OptLevel;
//!
//! let a = snapshot(ModelId::Gpt2, Scale::Tiny, OptLevel::O1).unwrap();
//! let b = snapshot(ModelId::Gpt2, Scale::Tiny, OptLevel::O1).unwrap();
//! assert_eq!(a, b); // snapshots are deterministic
//! assert!(a.cost.total_us > 0.0);
//! ```

#![forbid(unsafe_code)]

mod snapshot;

pub use snapshot::{
    model_baseline, snapshot, CostMetrics, GraphMetrics, LintMetrics, ModelBaseline, OptMetrics,
    ScheduleMetrics, Snapshot, OPT_LEVELS, SCALES,
};
