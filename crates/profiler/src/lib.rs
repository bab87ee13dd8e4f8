//! # ngb-profiler
//!
//! The end-to-end profiling flow of NonGEMM Bench (paper §3.2.2): given a
//! model graph, a [`ngb_platform::Platform`], and a
//! [`ngb_runtime::Flow`], it produces a per-operator latency/energy
//! profile and aggregates it into the paper's breakdowns — GEMM vs
//! non-GEMM and per non-GEMM operator group.
//!
//! Two profiling backends:
//!
//! * [`profile_analytic`] — evaluates the flow's execution plan on the
//!   analytic device models (the substitution for the paper's physical
//!   GPUs; see DESIGN.md), and
//! * [`profile_measured`] — actually executes the graph on the host CPU
//!   through the caller's [`ngb_exec::Interpreter`] and uses wall-clock
//!   timings; under the parallel engine each node is attributed to its
//!   worker thread.
//!
//! The three report types of §3.2.4 (performance/cost, workload,
//! non-GEMM) live in [`report`].

#![forbid(unsafe_code)]

mod profile;
pub mod report;
pub mod trace;

pub use profile::{
    breakdown_from_trace, profile_analytic, profile_analytic_with_options, profile_measured,
    Breakdown, ModelProfile, NodeProfile, StagePhase,
};
