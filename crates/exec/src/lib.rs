//! # ngb-exec
//!
//! Graph execution for NonGEMM Bench. The crate owns everything between an
//! [`ngb_graph::Graph`] and an [`ExecutionTrace`]: one run core, three
//! drivers, one engine value.
//!
//! * [`RunCore`] + [`ExecCtx`] — the run core: the value table with its
//!   drop-at-last-use, live-bytes, timing, parameter-fetch and
//!   shadow-memory bookkeeping, and the timed, panic-safe kernel call.
//!   Gather → execute → finish exists once, here.
//! * [`Interpreter`] — the engine value: seed, [`Engine`], intra-op,
//!   sanitizer, quantization and preflight settings, the [`ParamStore`]
//!   (each layer's weights drawn once, kernels timed on resident copies)
//!   and, for [`Engine::Parallel`], the resident [`ThreadPool`].
//! * The drivers: [`Engine::Sequential`] walks positions on the calling
//!   thread; [`Engine::Parallel`] feeds a [`Schedule`] (Kahn wavefronts +
//!   critical-path priorities) into a dependency-counted ready queue
//!   drained by pool tickets; `ngb-shard` walks one node list per device
//!   thread. Outputs are **bit-identical** across all three because
//!   weights and inputs derive from per-node RNG seeds, never from
//!   execution order.
//! * [`BufferPlan`] — the static liveness pass whose consumer counts the
//!   core follows and `ngb-sanitize` certifies.
//! * `PoolRunner` (crate-internal) — scoped intra-op dispatch: kernels
//!   partition work into shape-pure chunks (`ngb_ops::parallel`) that fan
//!   out across idle pool workers, sharing one pool with node-level
//!   scheduling.
//! * [`node_splits`] — the one declaration of the intra-op splits each
//!   node's kernels dispatch, which `ngb-sanitize` certifies and a
//!   sanitized run holds every dispatch to.
//!
//! No setting comes from the environment: [`Interpreter::new`] starts
//! sequential with intra-op on, the sanitizer off and weights
//! unquantized, and [`Interpreter::engine`], [`Interpreter::intra_op`],
//! [`Interpreter::sanitize`] and [`Interpreter::quantize`] change them.
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
mod runcore;
mod sanitizer;
mod schedule;

pub use bufplan::BufferPlan;
pub use interp::{
    node_splits, preflight_check, synth_input, Engine, ExecutionTrace, Interpreter, NodeSplits,
    NodeTiming,
};
pub use ngb_ops::Quant;
pub use params::{ArenaStats, ParamStore, MAX_RESIDENT_BYTES};
pub use pool::ThreadPool;
pub use runcore::{validate, ExecCtx, Executed, RunCore};
pub use sanitizer::ShadowMemory;
pub use schedule::{Schedule, ScheduleStats};

#[cfg(test)]
mod tests {
    use super::{Engine, Interpreter};

    /// The default engine runs one thread, and a parallel engine asked for
    /// zero workers still runs one (`ServeConfig::threads` 0 relies on it).
    #[test]
    fn default_threads_is_positive() {
        assert_eq!(Interpreter::default().engine_kind(), Engine::Sequential);
        assert_eq!(Interpreter::default().engine_kind().threads(), 1);
        assert_eq!(Engine::Parallel(0).threads(), 1);
        assert_eq!(
            Interpreter::default()
                .engine(Engine::Parallel(0))
                .pool()
                .threads(),
            1
        );
    }
}
