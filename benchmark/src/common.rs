//! What every workload shares: the metric tables `BENCHMARK.json` mirrors,
//! the pinned engine settings, the host fingerprint, and failure counting.

use std::collections::BTreeMap;
use std::time::Instant;

use nongemm::exec::{Engine, Interpreter, Quant};
use nongemm::serve::protocol::obj;
use serde_json::Value;

use crate::affinity::CpuSet;
use crate::trace::Tracer;

/// End-to-end metrics, printed by an untraced run of every workload. Each
/// workload's reading of the generic names is in the README's table.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_ms", "ms"),
    ("secondary_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by a traced run. The prefix is the crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("opt.nodes_removed_share", "share"),
    ("opt.fusions", "count"),
    ("opt.o2_over_o0", "ratio"),
    ("exec.dispatch_share", "share"),
    ("exec.us_per_node", "us"),
    ("exec.nodes_per_inference", "count"),
    ("exec.arena_hit_rate", "share"),
    ("exec.peak_live_mb", "MB"),
    ("exec.bytes_materialized", "bytes"),
    ("exec.intra_chunks", "count"),
    ("exec.pool_efficiency", "share"),
    ("exec.run_ms_tail", "ms"),
    ("ops.kernel_ms_geomean", "ms"),
    ("ops.gemm_share", "share"),
    ("ops.nongemm_share", "share"),
    ("ops.normalization_share", "share"),
    ("ops.activation_share", "share"),
    ("ops.memory_share", "share"),
    ("ops.arithmetic_share", "share"),
    ("ops.logit_share", "share"),
    ("ops.roi_share", "share"),
    ("ops.interpolation_share", "share"),
    ("ops.pooling_share", "share"),
    ("ops.embedding_share", "share"),
    ("ops.collective_share", "share"),
    ("ops.other_share", "share"),
    ("tensor.view_op_ns", "ns"),
    ("tensor.contiguous_mb_per_s", "MB/s"),
    ("runtime.session_new_ms", "ms"),
    ("runtime.step_ms_p50_prefill", "ms"),
    ("runtime.step_ms_p50_decode", "ms"),
    ("runtime.step_ms_pos_ge96", "ms"),
    ("runtime.step_ms_p999", "ms"),
    ("runtime.itl_ms_tail", "ms"),
    ("runtime.ttft_ms_tail", "ms"),
    ("runtime.kv_hit_rate", "share"),
    ("runtime.kv_append_us", "us"),
    ("runtime.kv_read_us", "us"),
    ("runtime.graph_cache_hit_rate", "share"),
    ("serve.queue_ms_p50_r150", "ms"),
    ("serve.exec_ms_p50_r150", "ms"),
    ("serve.unattributed_ms_p50_r150", "ms"),
    ("serve.mean_batch_r150", "count"),
    ("serve.queue_ms_p50_r400", "ms"),
    ("serve.exec_ms_p50_r400", "ms"),
    ("serve.unattributed_ms_p50_r400", "ms"),
    ("serve.mean_batch_r400", "count"),
    ("serve.tail_ms_r150", "ms"),
    ("serve.tail_ms_r400", "ms"),
    ("serve.batched_p50_ms_r400", "ms"),
    ("serve.solo_p50_ms_r400", "ms"),
    ("serve.mean_batch_overload", "count"),
    ("serve.rejected_share_overload", "share"),
    ("serve.max_rate_in_slo_rps", "1/s"),
    ("serve.gen_late_ms_max", "ms"),
    ("serve.parse_us", "us"),
    ("serve.batch_assemble_us", "us"),
    ("serve.split_us", "us"),
    ("serve.digest_us", "us"),
    ("profiler.breakdown_us", "us"),
    ("shard.partition_ms", "ms"),
    ("shard.pipeline_ms_geomean", "ms"),
    ("shard.tensor_ms_geomean", "ms"),
    ("shard.pipeline_ms_tail", "ms"),
    ("shard.tensor_ms_tail", "ms"),
    ("shard.bubble_share_pipeline", "share"),
    ("shard.bubble_share_tensor", "share"),
    ("shard.busy_ms_max_device", "ms"),
    ("shard.transfer_bytes", "bytes"),
    ("shard.speedup_vs_single", "ratio"),
    ("bench.trace_overhead_share", "share"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// The five workloads, in the order a run of all of them takes.
pub const WORKLOADS: [&str; 5] = [
    "graph_full",
    "graph_tiny",
    "serve_mix",
    "decode_lm",
    "shard_2dev",
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Measurement budget. A workload starts no new round of its fixed
    /// operation list after this much time.
    pub seconds: f64,
    pub traced: bool,
    /// Smallest sizes that still produce every metric (schema tests, and
    /// the companion passes of a traced run).
    pub quick: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub check: Check,
    pub metrics: Metrics,
    pub tracer: Tracer,
}

/// Operations attempted and failed, with the reason for each failure. An
/// incorrect output is a failure like a refused or errored operation.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Check {
    /// Counts one attempted operation; `Err` counts it failed.
    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
    }

    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(format!("{what}: {why}"));
            }
        }
    }
}

/// Weight seed of every graph. `--seed` varies inputs, prompts, request
/// seeds and arrival times; parameters stay fixed so outputs can be held
/// against the committed golden files.
pub const WEIGHT_SEED: u64 = 0x5eed;
/// Contiguous elision at O1+, pinned instead of read from `NGB_ELIDE`.
pub const ELIDE: bool = true;
pub const FULL_THREADS: usize = 2;

/// Every `Interpreter` field set explicitly, so no `NGB_*` default applies.
fn interpreter(seed: u64, engine: Engine, intra_op: bool) -> Interpreter {
    Interpreter::new(seed)
        .engine(engine)
        .intra_op(intra_op)
        .sanitize(false)
        .quantize(Quant::None)
        .preflight(false)
}

pub fn sequential() -> Interpreter {
    sequential_seeded(WEIGHT_SEED)
}

/// For `ngb_shard::execute`, whose one seed covers weights and inputs.
pub fn sequential_seeded(seed: u64) -> Interpreter {
    interpreter(seed, Engine::Sequential, false)
}

pub fn parallel() -> Interpreter {
    interpreter(WEIGHT_SEED, Engine::Parallel(FULL_THREADS), true)
}

/// CPUs the process was given, however the calling thread is pinned now.
pub fn nproc() -> usize {
    crate::affinity::original().len()
}

fn cpu_features() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("fma"),
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

/// Commit of the checkout the binary was built in, read from `.git`
/// without running git; a bare export has none.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.to_string(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host and configuration record written into every output file.
pub fn fingerprint(cfg: &Cfg) -> Value {
    let (avx2, fma) = cpu_features();
    let text = |s: &str| Value::String(s.to_string());
    let num = |n: usize| Value::Number(n as f64);
    let cpus = |set: CpuSet| Value::Array(set.cpus().into_iter().map(num).collect());
    let (server_cpus, generator_cpus) = crate::affinity::split(&crate::affinity::original());
    obj(vec![
        ("nproc", num(nproc())),
        ("avx2", Value::Bool(avx2)),
        ("fma", Value::Bool(fma)),
        ("git_rev", Value::String(git_rev())),
        ("rustc", Value::String(rustc_version())),
        ("seed", Value::Number(cfg.seed as f64)),
        ("seconds", Value::Number(cfg.seconds)),
        ("traced", Value::Bool(cfg.traced)),
        ("quick", Value::Bool(cfg.quick)),
        (
            "settings",
            obj(vec![
                ("weight_seed", Value::Number(WEIGHT_SEED as f64)),
                ("quant", text("none")),
                ("sanitize", Value::Bool(false)),
                ("preflight", Value::Bool(false)),
                ("elide", Value::Bool(ELIDE)),
                ("graph_tiny", text("sequential, intra_op off, O0 and O2")),
                ("graph_full", text("parallel(2), intra_op on, O0")),
                (
                    "serve_mix",
                    text(
                        "tiny, O0, max_batch 8, batch_wait 2 ms, queue_cap 256, \
                         1 executor thread, intra_op off, 1 connection, 2 generator threads",
                    ),
                ),
                ("serve_mix_server_cpus", cpus(server_cpus)),
                ("serve_mix_generator_cpus", cpus(generator_cpus)),
                ("decode_lm", text("sequential, batch 1, prompt 32 + 96 new")),
                ("shard_2dev", text("2xgpu roster, 4 microbatches")),
            ]),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn millis(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Median per-call time, in nanoseconds, of `call` over 15 batches sized to
/// about a millisecond each: a direct timed call at a fixed shape.
pub fn probe_ns(mut call: impl FnMut()) -> f64 {
    let once = Instant::now();
    call();
    let per_batch = (1e-3 / once.elapsed().as_secs_f64().max(1e-9)).clamp(1.0, 10_000.0) as usize;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            t.elapsed().as_secs_f64() * 1e9 / per_batch as f64
        })
        .collect();
    crate::stats::median(&batches)
}

/// Runs `setup` and returns what it made with the seconds it took.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let made = setup();
    (made, t.elapsed().as_secs_f64())
}
