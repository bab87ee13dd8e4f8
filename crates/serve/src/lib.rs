//! # ngb-serve
//!
//! A long-running inference service over the benchmark's executable
//! graphs — the serving layer that turns the paper's per-model profiles
//! into *observable* latency under queueing, batching, and concurrency.
//!
//! Requests travel as line-delimited JSON over plain TCP (std only, no
//! async runtime): each line in is one request object, each line out one
//! response object (see [`protocol`]). The server keeps one bounded FIFO
//! per model, forms dynamic batches up to `max_batch`, schedules models
//! fair round-robin, and executes batches on one shared [`ngb_exec`]
//! worker pool. Built-and-optimized graphs are memoized per (model, scale,
//! opt-level, batch) in an [`ngb_runtime::GraphCache`], so steady state
//! pays no graph construction.
//!
//! A request is only ever delayed by work. **Due rule:** a queue is
//! dispatched when it holds a full batch, when its oldest request has
//! waited `batch_wait`, when the server drains — or when the model's
//! smoothed inter-arrival gap, measured at admission, is at least
//! `batch_wait`, because then no companion is expected before the deadline
//! and holding the request would buy nothing. **Wire rule:** a response and
//! its newline are one buffer and one `write_all` on a `TCP_NODELAY`
//! socket, and the rows of a batch that answer the same connection share
//! one write; a line sent as two segments waits for the peer's delayed ACK
//! between them. Measured on the benchmark's `serve_mix` workload (150
//! req/s, mixed models, one pipelined connection), the two rules took the
//! median request from 7.1 ms to 0.75 ms with execution flat at 0.28 ms;
//! DESIGN.md §16 and EXPERIMENTS.md hold the runs.
//!
//! Admission control is explicit: a full queue *rejects* with a
//! 429-style error carrying `retry_after_ms` (never silently drops), and
//! a draining server rejects with 503 while every already-admitted
//! request still completes. Each successful response carries a
//! per-request profile record — queue wait, batch size, execution time,
//! and the paper's taxonomy breakdown — so batching efficacy is
//! observable per request, not just in aggregate.
//!
//! Determinism: inputs are synthesized from the request's `seed` through
//! the interpreter's own per-node RNG ([`ngb_exec::synth_input`]), and
//! for batch-transparent models (see [`batching`]) a batched row is
//! bit-identical to a solo batch-1 run of the same seed. The wire digest
//! of every output tensor makes that checkable end to end.

#![forbid(unsafe_code)]

pub mod batching;
pub mod client;
pub mod protocol;
mod server;

pub use client::Client;
pub use server::{ServeStats, Server, ServerHandle};

use std::time::Duration;

use ngb_models::Scale;
use ngb_opt::OptLevel;

/// Default TCP listen address (port 0 = ephemeral, printed at startup).
pub const DEFAULT_ADDR: &str = "127.0.0.1:0";
/// Default cap on dynamically formed batches.
pub const DEFAULT_MAX_BATCH: usize = 8;
/// Default batching ceiling: how long the oldest queued request may be held
/// for companions, while arrivals are denser than this, before its batch is
/// dispatched anyway.
pub const DEFAULT_BATCH_WAIT_US: u64 = 2_000;
/// Default per-model queue capacity (admission control bound).
pub const DEFAULT_QUEUE_CAP: usize = 64;

/// Server configuration. `Default` is the crate's `DEFAULT_*` constants
/// at rewrite level `O0`, one worker thread and intra-op on.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address, e.g. `"127.0.0.1:7077"`.
    pub addr: String,
    /// Model scale served by this process.
    pub scale: Scale,
    /// Graph-rewrite level applied at build time.
    pub opt_level: OptLevel,
    /// Maximum dynamic batch size (≥ 1).
    pub max_batch: usize,
    /// Ceiling on holding a request for companions, applied only while
    /// arrivals are denser than it: a batch that is not full waits until
    /// its oldest request is this old if the model's smoothed inter-arrival
    /// gap is shorter than this, and is dispatched as soon as the scheduler
    /// is free otherwise.
    pub batch_wait: Duration,
    /// Per-model queue capacity; 0 rejects every request (useful as an
    /// admission-control drill).
    pub queue_cap: usize,
    /// Worker threads of the shared execution pool (0 runs one).
    pub threads: usize,
    /// Intra-op parallelism (`None` = on).
    pub intra_op: Option<bool>,
    /// Weight seed of the served graphs (requests carry their own input
    /// seeds; this one fixes the model parameters).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            scale: Scale::Full,
            opt_level: OptLevel::O0,
            max_batch: DEFAULT_MAX_BATCH,
            batch_wait: Duration::from_micros(DEFAULT_BATCH_WAIT_US),
            queue_cap: DEFAULT_QUEUE_CAP,
            threads: 1,
            intra_op: None,
            seed: 0x5eed,
        }
    }
}
