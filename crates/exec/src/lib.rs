//! # ngb-exec
//!
//! Graph execution engines for NonGEMM Bench. The crate owns everything
//! between an [`ngb_graph::Graph`] and an [`ExecutionTrace`]:
//!
//! * [`Interpreter`] — the sequential reference engine: runs nodes in
//!   topological order with reproducible synthetic weights and drops
//!   each activation at its last use.
//! * [`ParamStore`] — resident parameters: each engine owner draws a
//!   layer's weights once and times kernels on them afterwards.
//! * [`ParallelExecutor`] — the parallel engine: a [`Schedule`] (Kahn
//!   wavefronts + critical-path priorities) feeds a dependency-counted
//!   ready queue drained by a std-only [`ThreadPool`]. Outputs are
//!   **bit-identical** to the sequential engine because weights and inputs
//!   derive from per-node RNG seeds, never from execution order.
//! * [`BufferPlan`] — the static liveness pass both engines share.
//! * [`PoolRunner`] — scoped intra-op dispatch: kernels partition work
//!   into shape-pure chunks (`ngb_ops::parallel`) that fan out across
//!   idle pool workers, sharing one pool with node-level scheduling.
//!
//! The thread count comes from the `NGB_THREADS` environment variable (see
//! [`env_threads`]) or explicit [`Engine::Parallel`] selection; the
//! intra-op switch from `NGB_INTRAOP` (see [`env_intraop`], default on).
//!
//! # Examples
//!
//! ```
//! use ngb_exec::{Engine, Interpreter};
//! use ngb_graph::{GraphBuilder, OpKind};
//!
//! # fn main() -> Result<(), ngb_tensor::TensorError> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input(&[1, 4]);
//! let h = b.push(OpKind::Linear { in_f: 4, out_f: 4, bias: true }, &[x], "fc")?;
//! b.push(OpKind::Relu, &[h], "act")?;
//! let graph = b.finish();
//!
//! let seq = Interpreter::default().run(&graph)?;
//! let par = Interpreter::default().engine(Engine::Parallel(2)).run(&graph)?;
//! assert_eq!(seq.outputs[0].1, par.outputs[0].1); // bit-identical
//! # Ok(())
//! # }
//! ```

mod bufplan;
mod fused;
mod interp;
mod intraop;
mod parallel;
mod params;
mod pool;
mod sanitizer;
mod schedule;

pub use bufplan::BufferPlan;
pub use interp::{
    preflight_check, run_node, synth_input, Engine, ExecutionTrace, Interpreter, NodeTiming,
};
pub use intraop::PoolRunner;
pub use ngb_ops::Quant;
pub use parallel::ParallelExecutor;
pub use params::{ArenaStats, ParamStore, MAX_RESIDENT_BYTES};
pub use pool::ThreadPool;
pub use sanitizer::ShadowMemory;
pub use schedule::{Schedule, ScheduleStats};

/// Reads the worker-thread count from `NGB_THREADS`, falling back to
/// `fallback` when the variable is unset, unparsable, or zero.
pub fn env_threads(fallback: usize) -> usize {
    std::env::var("NGB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(fallback)
}

/// Reads the intra-op parallelism switch from `NGB_INTRAOP`: `0`, `off`,
/// or `false` disable it, anything else enables it, and `fallback` applies
/// when the variable is unset.
pub fn env_intraop(fallback: bool) -> bool {
    match std::env::var("NGB_INTRAOP") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false"),
        Err(_) => fallback,
    }
}

/// Reads the execution-sanitizer switch from `NGB_SANITIZE`: `0`, `off`,
/// or `false` disable it, anything else enables it, and `fallback` applies
/// when the variable is unset (the sanitizer defaults to off).
pub fn env_sanitize(fallback: bool) -> bool {
    match std::env::var("NGB_SANITIZE") {
        Ok(v) => !matches!(v.trim(), "0" | "off" | "false"),
        Err(_) => fallback,
    }
}

/// Reads the weight-quantization mode from `NGB_QUANT` (`int8`/`i8`
/// select int8; `none`/`off`/`fp32` select full precision); `fallback`
/// applies when the variable is unset or unparsable.
pub fn env_quant(fallback: Quant) -> Quant {
    std::env::var("NGB_QUANT")
        .ok()
        .and_then(|v| Quant::parse(&v))
        .unwrap_or(fallback)
}

/// Default worker count: `NGB_THREADS` if set, else the host's available
/// parallelism (1 when that cannot be determined).
pub fn default_threads() -> usize {
    env_threads(
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_threads_is_positive() {
        assert!(super::default_threads() >= 1);
        assert!(super::env_threads(3) >= 1);
    }
}
