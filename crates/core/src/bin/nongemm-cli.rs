//! `nongemm-cli` — command-line front end of the benchmark harness.
//!
//! Seven subcommands (run `nongemm-cli --help` for the full flag list):
//!
//! * `run` (default) — profile the selected models end-to-end, measured,
//!   or through the microbench flow;
//! * `generate` — greedy autoregressive decode with the KV cache:
//!   prefill a synthetic prompt, then generate `--max-new-tokens`
//!   tokens one step at a time, optionally with `--quantize int8`
//!   weight-quantized GEMMs; prints tokens/sec and cache hit rate;
//! * `verify` — run the `ngb-analyze` static analyzer; exits 0 when
//!   every report is clean, 1 when any deny-level diagnostic fires;
//! * `sanitize` — run the `ngb-sanitize` schedule/memory hazard verifier
//!   and (unless `--static-only`) execute each clean graph under the
//!   shadow-memory sanitizer; exits 0 when every report is hazard-free;
//! * `serve` — run the `ngb-serve` inference service: line-delimited
//!   JSON over TCP, dynamic batching with admission control; blocks
//!   until a client sends the `shutdown` wire op, then drains and
//!   prints the final counters (pair with the `loadgen` binary);
//! * `shard` — partition each model across a simulated multi-device
//!   roster (`--devices 2xgpu`, `gpu+cpu`, …) with the pipeline- or
//!   tensor-parallel strategy, execute the plan on per-device threads
//!   with real collective/transfer kernels, verify bit-identity against
//!   single-device execution, and report modeled vs executed speedup,
//!   bubble fraction, and transfer bytes;
//! * `ci` — the perf-regression gate: `--check` diffs the current tree
//!   against the committed golden baselines under `baselines/` and exits
//!   non-zero on any divergence, `--update` regenerates them and
//!   summarizes what moved.
//!
//! Shared conventions: `--opt-level` selects the `ngb-opt` graph-rewrite
//! level (default 0), `--threads` the execution parallelism (default 1);
//! every setting is a flag, none is read from the environment; usage
//! errors exit 2 with a one-line usage string on stderr; `--help` prints
//! the full help on stdout and exits 0.

use std::process::ExitCode;

use nongemm::profiler::report::{csv_header, PerformanceReport};
use nongemm::profiler::trace::to_chrome_trace;
use nongemm::regress;
use nongemm::{BenchConfig, Flow, ModelId, NonGemmBench, OptLevel, Platform, Scale};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
    Json,
}

/// The flags subcommands share. Each `parse_*_args` names the subset its
/// subcommand accepts and offers every argument to [`Common::take`] first.
#[derive(Debug)]
struct Common {
    /// Subcommand name for `--format` diagnostics (`""` for `run`, the
    /// only one that also accepts `csv`).
    cmd: &'static str,
    accepts: &'static [&'static str],
    models: Vec<String>,
    batch: usize,
    tiny: bool,
    threads: usize,
    opt_level: OptLevel,
    intra_op: bool,
    format: Format,
}

impl Common {
    fn new(cmd: &'static str, accepts: &'static [&'static str]) -> Common {
        Common {
            cmd,
            accepts,
            models: Vec::new(),
            batch: 1,
            tiny: false,
            threads: 1,
            opt_level: OptLevel::O0,
            intra_op: true,
            format: Format::Text,
        }
    }

    /// Consumes `arg` (and its value) when it is `--help` or a shared flag
    /// this subcommand accepts; `false` leaves it to the caller.
    fn take(&mut self, arg: &str, it: &mut std::slice::Iter<'_, String>) -> bool {
        if matches!(arg, "--help" | "-h") {
            print!("{HELP}");
            std::process::exit(0);
        }
        if !self.accepts.contains(&arg) {
            return false;
        }
        match arg {
            "--model" => self.models.push(take_value(it, "--model")),
            "--batch" => self.batch = parse_positive(&take_value(it, "--batch"), "--batch"),
            "--tiny" => self.tiny = true,
            "--threads" => self.threads = parse_positive(&take_value(it, "--threads"), "--threads"),
            "--opt-level" => self.opt_level = parse_opt_level(&take_value(it, "--opt-level")),
            "--intra-op" => self.intra_op = parse_intra_op(&take_value(it, "--intra-op")),
            "--format" => {
                self.format = match (take_value(it, "--format").as_str(), self.cmd) {
                    ("text", _) => Format::Text,
                    ("json", _) => Format::Json,
                    ("csv", "") => Format::Csv,
                    (other, "") => {
                        eprintln!("unknown format '{other}'");
                        usage()
                    }
                    (other, cmd) => {
                        eprintln!("{cmd} supports --format text|json, not '{other}'");
                        usage()
                    }
                }
            }
            _ => return false,
        }
        true
    }

    /// The harness inputs these flags select; callers add what only their
    /// subcommand knows. `NonGemmBench::interpreter` turns the engine
    /// settings into the `Interpreter`.
    fn bench_config(&self) -> BenchConfig {
        BenchConfig {
            models: self.models.clone(),
            batch: self.batch,
            scale: if self.tiny { Scale::Tiny } else { Scale::Full },
            threads: self.threads,
            opt_level: self.opt_level,
            intra_op: self.intra_op,
            ..BenchConfig::default()
        }
    }
}

#[derive(Debug)]
struct Args {
    common: Common,
    platform: Platform,
    flow: Flow,
    cpu_only: bool,
    measured: bool,
    microbench: bool,
    sanitize: bool,
    trace: Option<String>,
}

#[derive(Debug)]
struct VerifyArgs {
    common: Common,
    all: bool,
}

#[derive(Debug)]
struct SanitizeArgs {
    common: Common,
    static_only: bool,
}

#[derive(Debug)]
struct GenerateArgs {
    common: Common,
    prompt_len: usize,
    max_new: usize,
    quantize: Option<nongemm::ops::Quant>,
}

#[derive(Debug)]
struct ShardArgs {
    common: Common,
    devices: String,
    strategy: nongemm::shard::Strategy,
    microbatches: usize,
}

#[derive(Debug)]
struct CiArgs {
    common: Common,
    dir: String,
    update: bool,
}

const HELP: &str = "\
nongemm-cli — NonGEMM Bench profiling harness

USAGE:
  nongemm-cli [run] [OPTIONS]     profile models (default subcommand)
  nongemm-cli generate [OPTIONS]  greedy autoregressive decode (KV cache)
  nongemm-cli verify [OPTIONS]    static graph analysis + lints
  nongemm-cli sanitize [OPTIONS]  schedule/memory hazard verifier + sanitizer
  nongemm-cli serve [OPTIONS]     inference service with dynamic batching
  nongemm-cli shard [OPTIONS]     multi-device sharding: partition, place, execute
  nongemm-cli ci [OPTIONS]        perf-regression gate over golden baselines
  nongemm-cli help | --help | -h  print this help

RUN OPTIONS:
  --model <alias>       model alias (repeatable; default: all 18)
  --platform <p>        mobile | workstation | datacenter (default: datacenter)
  --flow <f>            eager | torchscript | dynamo | ort (default: eager)
  --batch <n>           batch size (default: 1)
  --cpu-only            drop the GPU from the platform
  --tiny                use the executable tiny presets
  --measured            execute on the host instead of the analytic models
  --microbench          run the microbench flow instead of end-to-end
  --threads <n>         worker threads for --measured (default: 1)
  --opt-level <0|1|2>   graph-rewrite level (default: 0)
  --intra-op <on|off>   intra-op data parallelism for --measured (default: on)
  --sanitize            run --measured under the shadow-memory sanitizer
  --format <fmt>        text | csv | json (default: text)
  --trace <path>        also write a Chrome trace JSON per model

GENERATE OPTIONS:
  --model <alias>       autoregressive LM alias (repeatable; default:
                        gpt2 and llama2 — other aliases are rejected)
  --tiny                use the executable tiny presets
  --prompt-len <n>      synthetic prompt length (default: 4)
  --max-new-tokens <n>  tokens to generate greedily (default: 16)
  --quantize <q>        none | int8 weight-quantized GEMMs (default: none)
  --threads <n>         worker threads (default: 1)

VERIFY OPTIONS:
  --model <alias>       model alias (repeatable; default: all 18)
  --batch <n>           batch size (default: 1)
  --tiny                use the executable tiny presets
  --threads <n>         analyze models concurrently (default: 1)
  --opt-level <0|1|2>   analyze the rewritten graphs (default: 0)
  --format <fmt>        text | json (default: text)
  --all                 include allow-level findings in text output

SANITIZE OPTIONS:
  --model <alias>       model alias (repeatable; default: all 18)
  --batch <n>           batch size (default: 1)
  --tiny                use the executable tiny presets
  --threads <n>         engine for the sanitized execution pass (default: 1)
  --opt-level <0|1|2>   sanitize the rewritten graphs (default: 0)
  --intra-op <on|off>   intra-op parallelism for the execution pass
                        (default: on)
  --static-only         skip the shadow-memory execution pass
  --format <fmt>        text | json (default: text)

SERVE OPTIONS:
  --addr <host:port>    listen address (default: 127.0.0.1:0 — port 0
                        picks an ephemeral port, printed on startup)
  --max-batch <n>       largest dynamic batch (default: 8; batch-opaque
                        models always execute at 1)
  --batch-wait-us <n>   ceiling on holding a request for companions,
                        applied only while arrivals are denser than it
                        (default: 2000)
  --queue-cap <n>       per-model admission queue bound; 0 rejects all
                        (default: 64)
  --threads <n>         executor worker threads (default: 1)
  --opt-level <0|1|2>   graph-rewrite level for served graphs (default: 0)
  --intra-op <on|off>   intra-op data parallelism (default: on)
  --tiny                serve the executable tiny presets

SHARD OPTIONS:
  --model <alias>       model alias (repeatable; default: all 18)
  --devices <spec>      device roster: kind names cpu|gpu|npu joined by '+',
                        with optional <n>x repeat — 2xgpu, gpu+cpu, 4xgpu,
                        2xgpu+npu (default: 2xgpu)
  --strategy <s>        pipeline | tensor (default: pipeline)
  --microbatches <n>    pipeline microbatches / replays (default: 4)
  --batch <n>           batch size (default: 1)
  --tiny                use the executable tiny presets (execution always
                        runs the real kernels; full scale is slow)
  --opt-level <0|1|2>   rewrite level before partitioning (default: 0;
                        tensor splits apply to primitive Linear nodes)
  --format <fmt>        text | json (default: text)

CI OPTIONS:
  --check               diff current state against baselines (default)
  --update              regenerate the baselines
  --model <alias>       gate only these models (repeatable; default: all 18)
  --dir <path>          baseline directory (default: baselines)
  --format <fmt>        text | json (default: text)

EXIT CODES:
  0  success / clean    1  failure or regression    2  usage error
";

fn print_help() -> ExitCode {
    print!("{HELP}");
    ExitCode::SUCCESS
}

fn usage() -> ! {
    eprintln!(
        "usage: nongemm-cli [run|generate|verify|sanitize|serve|shard|ci] [OPTIONS]\n\
         \x20      (see `nongemm-cli --help` for the full option list)"
    );
    std::process::exit(2);
}

/// Pops the next value for a `--flag <value>` option or dies with usage.
fn take_value(it: &mut std::slice::Iter<'_, String>, name: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("{name} requires a value");
        usage()
    })
}

fn parse_positive(v: &str, name: &str) -> usize {
    match v.parse() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("{name} requires a positive integer");
            usage()
        }
    }
}

fn parse_opt_level(v: &str) -> OptLevel {
    OptLevel::parse(v).unwrap_or_else(|| {
        eprintln!("--opt-level requires 0, 1, or 2");
        usage()
    })
}

fn parse_intra_op(v: &str) -> bool {
    match v {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("--intra-op requires on or off, not '{other}'");
            usage()
        }
    }
}

/// The shared flags of the subcommands that build and may execute graphs.
const ENGINE_FLAGS: &[&str] = &[
    "--model",
    "--batch",
    "--tiny",
    "--threads",
    "--opt-level",
    "--intra-op",
    "--format",
];

/// `verify` analyzes statically, so it has no `--intra-op`.
const VERIFY_FLAGS: &[&str] = &[
    "--model",
    "--batch",
    "--tiny",
    "--threads",
    "--opt-level",
    "--format",
];

fn unknown_argument(arg: &str) -> ! {
    eprintln!("unknown argument '{arg}'");
    usage()
}

fn parse_run_args(argv: &[String]) -> Args {
    let mut args = Args {
        common: Common::new("", ENGINE_FLAGS),
        platform: Platform::data_center(),
        flow: Flow::Eager,
        cpu_only: false,
        measured: false,
        microbench: false,
        sanitize: false,
        trace: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--platform" => {
                args.platform = match take_value(&mut it, "--platform").as_str() {
                    "mobile" => Platform::mobile(),
                    "workstation" => Platform::workstation(),
                    "datacenter" | "data-center" => Platform::data_center(),
                    other => {
                        eprintln!("unknown platform '{other}'");
                        usage()
                    }
                }
            }
            "--flow" => {
                args.flow = match take_value(&mut it, "--flow").as_str() {
                    "eager" => Flow::Eager,
                    "torchscript" => Flow::TorchScript,
                    "dynamo" => Flow::Dynamo,
                    "ort" => Flow::Ort,
                    other => {
                        eprintln!("unknown flow '{other}'");
                        usage()
                    }
                }
            }
            "--cpu-only" => args.cpu_only = true,
            "--measured" => args.measured = true,
            "--microbench" => args.microbench = true,
            "--sanitize" => args.sanitize = true,
            "--trace" => args.trace = Some(take_value(&mut it, "--trace")),
            other => unknown_argument(other),
        }
    }
    args
}

fn parse_verify_args(argv: &[String]) -> VerifyArgs {
    let mut args = VerifyArgs {
        common: Common::new("verify", VERIFY_FLAGS),
        all: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--all" => args.all = true,
            other => unknown_argument(other),
        }
    }
    args
}

fn parse_sanitize_args(argv: &[String]) -> SanitizeArgs {
    let mut args = SanitizeArgs {
        common: Common::new("sanitize", ENGINE_FLAGS),
        static_only: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--static-only" => args.static_only = true,
            other => unknown_argument(other),
        }
    }
    args
}

/// Builds a [`nongemm::serve::ServeConfig`] from the command line on top
/// of its defaults.
fn parse_serve_args(argv: &[String]) -> nongemm::serve::ServeConfig {
    let mut config = nongemm::serve::ServeConfig::default();
    let mut common = Common::new(
        "serve",
        &["--tiny", "--threads", "--opt-level", "--intra-op"],
    );
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--addr" => config.addr = take_value(&mut it, "--addr"),
            "--max-batch" => {
                config.max_batch =
                    parse_positive(&take_value(&mut it, "--max-batch"), "--max-batch")
            }
            "--batch-wait-us" => {
                let v = take_value(&mut it, "--batch-wait-us");
                config.batch_wait = match v.parse::<u64>() {
                    Ok(us) => std::time::Duration::from_micros(us),
                    Err(_) => {
                        eprintln!("--batch-wait-us requires a non-negative integer");
                        usage()
                    }
                }
            }
            // 0 is a legal cap (reject everything) — unlike the other
            // numeric flags this one is a bound, not a count
            "--queue-cap" => {
                let v = take_value(&mut it, "--queue-cap");
                config.queue_cap = match v.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--queue-cap requires a non-negative integer");
                        usage()
                    }
                }
            }
            other => unknown_argument(other),
        }
    }
    if common.tiny {
        config.scale = Scale::Tiny;
    }
    config.threads = common.threads;
    config.opt_level = common.opt_level;
    config.intra_op = Some(common.intra_op);
    config
}

fn parse_ci_args(argv: &[String]) -> CiArgs {
    let mut args = CiArgs {
        common: Common::new("ci", &["--model", "--format"]),
        dir: "baselines".to_string(),
        update: false,
    };
    let mut explicit_check = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--dir" => args.dir = take_value(&mut it, "--dir"),
            "--check" => explicit_check = true,
            "--update" => args.update = true,
            other => unknown_argument(other),
        }
    }
    if args.update && explicit_check {
        eprintln!("--check and --update are mutually exclusive");
        usage()
    }
    args
}

fn parse_shard_args(argv: &[String]) -> ShardArgs {
    let mut args = ShardArgs {
        common: Common::new(
            "shard",
            &["--model", "--batch", "--tiny", "--opt-level", "--format"],
        ),
        devices: "2xgpu".to_string(),
        strategy: nongemm::shard::Strategy::Pipeline,
        microbatches: nongemm::shard::DEFAULT_MICROBATCHES,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--devices" => args.devices = take_value(&mut it, "--devices"),
            "--strategy" => {
                let v = take_value(&mut it, "--strategy");
                args.strategy = nongemm::shard::Strategy::parse(&v).unwrap_or_else(|| {
                    eprintln!("--strategy requires pipeline or tensor, not '{v}'");
                    usage()
                })
            }
            "--microbatches" => {
                args.microbatches =
                    parse_positive(&take_value(&mut it, "--microbatches"), "--microbatches")
            }
            other => unknown_argument(other),
        }
    }
    args
}

fn run_shard(argv: &[String]) -> ExitCode {
    use nongemm::shard::{self, DeviceSpec, ShardOptions};
    let args = parse_shard_args(argv);
    let spec = DeviceSpec::parse(&args.devices).unwrap_or_else(|| {
        eprintln!(
            "--devices '{}' is not a valid roster (try 2xgpu or gpu+cpu)",
            args.devices
        );
        usage()
    });
    let devices = spec.roster();
    let bench = NonGemmBench::new(args.common.bench_config());
    let graphs = match bench.build_graphs() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("shard failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if graphs.is_empty() {
        eprintln!("no models matched the selection");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for g in &graphs {
        let outcome = (|| -> Result<String, String> {
            let plan = shard::partition(g, &devices, args.strategy, &ShardOptions::default())
                .map_err(|e| e.to_string())?;
            let est = plan.modeled(args.microbatches);
            let run =
                shard::execute(&plan, 0x5eed, args.microbatches).map_err(|e| e.to_string())?;
            let reference = nongemm::Interpreter::default()
                .run(g)
                .map_err(|e| e.to_string())?;
            let identical = run.outputs.len() == reference.outputs.len()
                && run
                    .outputs
                    .iter()
                    .zip(&reference.outputs)
                    .all(|((si, sv), (ri, rv))| {
                        si == ri && nongemm::tensor::bit_equal(sv, rv).unwrap_or(false)
                    });
            if !identical {
                return Err("sharded outputs diverge from single-device execution".into());
            }
            Ok(match args.common.format {
                Format::Json => format!(
                    "{{\"model\":\"{}\",\"devices\":\"{}\",\"strategy\":\"{}\",\
                     \"microbatches\":{},\"splits\":{},\"bit_identical\":true,\
                     \"modeled_speedup\":{:.3},\"modeled_bubble\":{:.4},\
                     \"executed_wall_s\":{:.6},\"executed_bubble\":{:.4},\
                     \"transfer_bytes\":{}}}",
                    g.name,
                    spec.label(),
                    args.strategy,
                    run.microbatches,
                    plan.splits,
                    est.speedup,
                    est.bubble_fraction,
                    run.wall_s,
                    run.bubble_fraction,
                    run.transfer_bytes,
                ),
                _ => format!(
                    "{:<14} {}  {}  mb={}  splits={}  bit-identical  \
                     modeled speedup {:.2}x (bubble {:.0}%)  executed wall {:.1} ms \
                     (bubble {:.0}%)  moved {} B",
                    g.name,
                    spec.label(),
                    args.strategy,
                    run.microbatches,
                    plan.splits,
                    est.speedup,
                    est.bubble_fraction * 100.0,
                    run.wall_s * 1e3,
                    run.bubble_fraction * 100.0,
                    run.transfer_bytes,
                ),
            })
        })();
        match outcome {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{}: {e}", g.name);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("shard: {failures} model(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_generate_args(argv: &[String]) -> GenerateArgs {
    let mut args = GenerateArgs {
        common: Common::new("generate", &["--model", "--tiny", "--threads"]),
        prompt_len: 4,
        max_new: 16,
        quantize: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if args.common.take(arg, &mut it) {
            continue;
        }
        match arg.as_str() {
            "--prompt-len" => {
                args.prompt_len =
                    parse_positive(&take_value(&mut it, "--prompt-len"), "--prompt-len")
            }
            "--max-new-tokens" => {
                args.max_new =
                    parse_positive(&take_value(&mut it, "--max-new-tokens"), "--max-new-tokens")
            }
            "--quantize" => {
                let v = take_value(&mut it, "--quantize");
                args.quantize = match nongemm::ops::Quant::parse(&v) {
                    Some(q) => Some(q),
                    None => {
                        eprintln!("--quantize requires none or int8, not '{v}'");
                        usage()
                    }
                }
            }
            other => unknown_argument(other),
        }
    }
    if args.common.models.is_empty() {
        args.common.models = vec!["gpt2".to_string(), "llama2".to_string()];
    }
    args
}

fn run_generate(argv: &[String]) -> ExitCode {
    use nongemm::runtime::{greedy_decode, synth_prompt, DecodeSession};

    let args = parse_generate_args(argv);
    let scale = if args.common.tiny {
        Scale::Tiny
    } else {
        Scale::Full
    };
    let mut interp = NonGemmBench::new(args.common.bench_config()).interpreter();
    if let Some(q) = args.quantize {
        interp = interp.quantize(q);
    }
    let total = args.prompt_len + args.max_new;

    for alias in &args.common.models {
        let Some(id) = ModelId::all()
            .iter()
            .copied()
            .find(|m| m.spec().alias == *alias)
        else {
            eprintln!("unknown model '{alias}'");
            return ExitCode::FAILURE;
        };
        let Some(bundle) = nongemm::models::decode_bundle(id, scale, 1, total) else {
            eprintln!("{alias} is not an autoregressive LM; generate supports the GPT-2 family and llama2");
            return ExitCode::FAILURE;
        };
        let result = bundle.map_err(|e| e.to_string()).and_then(|bundle| {
            let prompt = synth_prompt(interp.seed(), &bundle.reference, args.prompt_len)
                .map_err(|e| e.to_string())?;
            let mut session = DecodeSession::new(bundle.decode, &bundle.reference, interp.clone())
                .map_err(|e| e.to_string())?;
            let start = std::time::Instant::now();
            let report =
                greedy_decode(&mut session, &prompt, args.max_new).map_err(|e| e.to_string())?;
            Ok((report, start.elapsed().as_secs_f64(), prompt))
        });
        match result {
            Ok((report, wall_s, prompt)) => {
                let tok_s = if wall_s > 0.0 {
                    args.max_new as f64 / wall_s
                } else {
                    0.0
                };
                println!(
                    "{alias} ({}, quant {}): prompt {:?} -> {:?}",
                    scale.name(),
                    interp.quant().label(),
                    prompt[0],
                    report.tokens[0]
                );
                println!(
                    "  {} tokens in {:.3}s ({:.0} tok/s), cache hit rate {:.1}%",
                    args.max_new,
                    wall_s,
                    tok_s,
                    report.cache.hit_rate() * 100.0
                );
            }
            Err(e) => {
                eprintln!("generate failed for {alias}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("generate") => run_generate(&argv[1..]),
        Some("verify") => run_verify(&argv[1..]),
        Some("sanitize") => run_sanitize(&argv[1..]),
        Some("serve") => run_serve(&argv[1..]),
        Some("shard") => run_shard(&argv[1..]),
        Some("run") => run_bench(&argv[1..]),
        Some("ci") => run_ci(&argv[1..]),
        Some("help") => print_help(),
        Some(cmd) if !cmd.starts_with('-') => {
            eprintln!("unknown subcommand '{cmd}'");
            usage()
        }
        _ => run_bench(&argv),
    }
}

fn run_verify(argv: &[String]) -> ExitCode {
    let args = parse_verify_args(argv);
    let bench = NonGemmBench::new(args.common.bench_config());
    let reports = match bench.verify() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reports.is_empty() {
        eprintln!("no models matched the selection");
        return ExitCode::FAILURE;
    }
    let mut denied = 0usize;
    for report in &reports {
        denied += report.deny_count();
        match args.common.format {
            Format::Json => println!("{}", report.to_json()),
            _ => println!("{}", report.to_text(args.all)),
        }
    }
    if denied > 0 {
        eprintln!(
            "verify: {denied} deny-level finding(s) across {} model(s)",
            reports.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_sanitize(argv: &[String]) -> ExitCode {
    let args = parse_sanitize_args(argv);
    let bench = NonGemmBench::new(args.common.bench_config());
    let reports = match bench.sanitize(!args.static_only) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sanitize failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reports.is_empty() {
        eprintln!("no models matched the selection");
        return ExitCode::FAILURE;
    }
    let mut hazards = 0usize;
    for report in &reports {
        hazards += report.hazards.len();
        match args.common.format {
            Format::Json => println!("{}", report.to_json()),
            _ => println!("{}", report.to_text()),
        }
    }
    if hazards > 0 {
        eprintln!(
            "sanitize: {hazards} hazard(s) across {} model(s)",
            reports.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Resolves `--model` selections against the registry, exiting like the
/// other subcommands when nothing matches.
fn select_models(names: &[String]) -> Vec<ModelId> {
    let selected: Vec<ModelId> = if names.is_empty() {
        ModelId::all().to_vec()
    } else {
        ModelId::all()
            .iter()
            .copied()
            .filter(|m| names.iter().any(|n| n == m.spec().alias))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no models matched the selection");
        std::process::exit(1);
    }
    selected
}

fn run_ci(argv: &[String]) -> ExitCode {
    let args = parse_ci_args(argv);
    let cfg = regress::GateConfig {
        dir: std::path::PathBuf::from(&args.dir),
        models: select_models(&args.common.models),
    };

    if args.update {
        let outcome = match regress::update(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ci --update failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match args.common.format {
            Format::Text => print!("{}", outcome.to_text()),
            _ => println!(
                "{}",
                serde_json::to_string_pretty(&outcome).expect("outcomes serialize")
            ),
        }
        return ExitCode::SUCCESS;
    }

    let outcome = match regress::check(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ci --check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match args.common.format {
        Format::Text => print!("{}", outcome.to_text()),
        _ => println!("{}", outcome.to_json()),
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_serve(argv: &[String]) -> ExitCode {
    let config = parse_serve_args(argv);
    let handle = match nongemm::serve::Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // stdout so scripts can scrape the ephemeral port; flushed eagerly
    // because the interesting consumers are pipes
    println!("ngb-serve listening on {}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let stats = handle.join();
    println!(
        "ngb-serve drained: accepted {} completed {} rejected {} errors {} \
         batches {} max-batch {}",
        stats.accepted,
        stats.completed,
        stats.rejected,
        stats.errors,
        stats.batches,
        stats.max_batch
    );
    if stats.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_bench(argv: &[String]) -> ExitCode {
    let args = parse_run_args(argv);
    let platform = if args.cpu_only {
        args.platform.clone().cpu_only()
    } else {
        args.platform.clone()
    };
    let format = args.common.format;
    let bench = NonGemmBench::new(BenchConfig {
        platform,
        use_gpu: !args.cpu_only,
        flow: args.flow,
        iterations: 3,
        sanitize: args.sanitize,
        ..args.common.bench_config()
    });

    if args.microbench {
        return run_microbench(&bench, format);
    }

    let profiles = if args.measured {
        bench.run_measured()
    } else {
        bench.run_end_to_end()
    };
    let profiles = match profiles {
        Ok(p) => p,
        Err(e) => {
            eprintln!("profiling failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if format == Format::Csv {
        println!("{}", csv_header());
    }
    for profile in &profiles {
        let report = PerformanceReport::from_profile(profile);
        match format {
            Format::Text => println!("{}", report.to_text()),
            Format::Csv => println!("{}", report.to_csv_row()),
            Format::Json => println!(
                "{}",
                serde_json::to_string(&report).expect("reports serialize")
            ),
        }
        if let Some(dir) = &args.trace {
            let path = format!("{dir}/{}.trace.json", profile.model);
            if let Err(e) = std::fs::write(&path, to_chrome_trace(profile)) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
    }
    ExitCode::SUCCESS
}

fn run_microbench(bench: &NonGemmBench, format: Format) -> ExitCode {
    let (registry, results) = match bench.run_microbench() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("microbench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match format {
        Format::Json => {
            println!(
                "{}",
                serde_json::to_string(&results).expect("results serialize")
            );
        }
        Format::Csv => {
            println!("op,model,analytic_us,analytic_mj");
            for r in &results {
                println!(
                    "{},{},{:.3},{:.3}",
                    r.op,
                    r.model,
                    r.analytic_s * 1e6,
                    r.analytic_j * 1e3
                );
            }
        }
        Format::Text => {
            println!("{} unique non-GEMM operator instances", registry.len());
            for (group, count) in registry.group_stats() {
                println!("  {group:<16}{count:>6}");
            }
        }
    }
    ExitCode::SUCCESS
}
