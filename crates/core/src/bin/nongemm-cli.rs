//! `nongemm-cli` — command-line front end of the benchmark harness.
//!
//! Six subcommands:
//!
//! * `run` (default) — profile the selected models end-to-end, analytically
//!   or measured on the host, or through the microbench flow;
//! * `generate` — greedy autoregressive decode with the KV cache:
//!   prefill a synthetic prompt, then generate one token per step,
//!   optionally with int8 weight-quantized GEMMs; prints tokens/sec and
//!   cache hit rate;
//! * `verify` — run the `ngb-analyze` static analyzer; exits 0 when
//!   every report is clean, 1 when any deny-level diagnostic fires;
//! * `sanitize` — run the `ngb-sanitize` schedule/memory hazard verifier
//!   and execute each clean graph under the shadow-memory sanitizer;
//!   exits 0 when every report is hazard-free;
//! * `serve` — run the `ngb-serve` inference service: line-delimited
//!   JSON over TCP, dynamic batching with admission control; blocks
//!   until a client sends the `shutdown` wire op, then drains and
//!   prints the final counters (pair with the `loadgen` binary);
//! * `shard` — partition each model across a simulated multi-device
//!   roster with the pipeline- or tensor-parallel strategy, execute the
//!   plan on per-device threads with real collective/transfer kernels,
//!   verify bit-identity against single-device execution, and report
//!   modeled vs executed speedup, bubble fraction, and transfer bytes.
//!
//! Every flag is one row of [`FLAGS`], which both parses the command line
//! and renders `nongemm-cli --help`; no setting is read from the
//! environment. Usage errors exit 2 with a one-line reason and the usage
//! string on stderr.

use std::process::ExitCode;
use std::time::Duration;

use nongemm::ops::Quant;
use nongemm::profiler::report::{csv_header, PerformanceReport};
use nongemm::profiler::trace::to_chrome_trace;
use nongemm::serve::ServeConfig;
use nongemm::shard::{DeviceSpec, Strategy};
use nongemm::{BenchConfig, Flow, ModelId, NonGemmBench, OptLevel, Platform, Scale};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Text,
    Csv,
    Json,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Cmd {
    Run,
    Generate,
    Verify,
    Sanitize,
    Serve,
    Shard,
}
use Cmd::*;

/// Each subcommand's name and HELP summary, in HELP order.
#[rustfmt::skip]
const CMDS: [(Cmd, &str, &str); 6] = [
    (Run, "run", "profile models (default subcommand)"),
    (Generate, "generate", "greedy autoregressive decode (KV cache)"),
    (Verify, "verify", "static graph analysis + lints"),
    (Sanitize, "sanitize", "schedule/memory hazard verifier + sanitizer"),
    (Serve, "serve", "inference service with dynamic batching"),
    (Shard, "shard", "multi-device sharding: partition, place, execute"),
];

/// A parsed command line. Model selection and engine settings go straight
/// into the [`BenchConfig`] the harness consumes and the serve knobs into
/// the [`ServeConfig`]; every other field belongs to one subcommand.
struct Opts {
    cmd: Cmd,
    /// `--help` came before any error: print HELP and run nothing.
    help: bool,
    bench: BenchConfig,
    serve: ServeConfig,
    format: Format,
    measured: bool,
    microbench: bool,
    trace: Option<String>,
    prompt_len: usize,
    max_new_tokens: usize,
    quantize: Quant,
    all: bool,
    static_only: bool,
    devices: DeviceSpec,
    strategy: Strategy,
    microbatches: usize,
}

impl Opts {
    fn new(cmd: Cmd) -> Opts {
        Opts {
            cmd,
            help: false,
            bench: BenchConfig::default(),
            serve: ServeConfig::default(),
            format: Format::Text,
            measured: false,
            microbench: false,
            trace: None,
            prompt_len: 4,
            max_new_tokens: 16,
            quantize: Quant::None,
            all: false,
            static_only: false,
            devices: DeviceSpec::parse("2xgpu").expect("the default roster parses"),
            strategy: Strategy::Pipeline,
            microbatches: nongemm::shard::DEFAULT_MICROBATCHES,
        }
    }
}

/// One flag: the only place it is named, parsed and documented.
struct Flag {
    name: &'static str,
    /// The value's placeholder in HELP; empty for a switch, which takes none.
    metavar: &'static str,
    /// One HELP line, ending with the default when there is one.
    help: &'static str,
    /// The subcommands that accept the flag.
    cmds: &'static [Cmd],
    /// Stores the value (`""` for a switch), or says why it is invalid.
    set: fn(&mut Opts, &str) -> Result<(), String>,
}

/// `parsed`, or the error saying `v` is not `what` the flag expects.
fn valid<T>(parsed: Option<T>, what: &str, v: &str) -> Result<T, String> {
    parsed.ok_or_else(|| format!("expected {what}, got '{v}'"))
}

fn positive(v: &str) -> Result<usize, String> {
    valid(v.parse().ok().filter(|&n| n >= 1), "a positive integer", v)
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--model", metavar: "<alias>", cmds: &[Run, Generate, Verify, Sanitize, Shard],
        help: "model alias, repeatable (default: all 18; generate: gpt2 and llama2)",
        set: |o, v| match ModelId::parse(v) {
            Some(_) => { o.bench.models.push(v.to_string()); Ok(()) }
            None => Err(format!("unknown model '{v}'")),
        } },
    Flag { name: "--batch", metavar: "<n>", cmds: &[Run, Verify, Sanitize, Shard],
        help: "batch size (default: 1)",
        set: |o, v| positive(v).map(|n| o.bench.batch = n) },
    Flag { name: "--tiny", metavar: "", cmds: &[Run, Generate, Verify, Sanitize, Serve, Shard],
        help: "use the executable tiny presets",
        set: |o, _| { o.bench.scale = Scale::Tiny; Ok(()) } },
    Flag { name: "--threads", metavar: "<n>", cmds: &[Run, Generate, Verify, Sanitize, Serve],
        help: "worker threads; verify analyzes models concurrently (default: 1)",
        set: |o, v| positive(v).map(|n| o.bench.threads = n) },
    Flag { name: "--opt-level", metavar: "<0|1|2>", cmds: &[Run, Verify, Sanitize, Serve, Shard],
        help: "graph-rewrite level of every built graph (default: 0)",
        set: |o, v| valid(OptLevel::parse(v), "0, 1 or 2", v).map(|l| o.bench.opt_level = l) },
    Flag { name: "--intra-op", metavar: "<on|off>", cmds: &[Run, Sanitize, Serve],
        help: "intra-op data parallelism of executed kernels (default: on)",
        set: |o, v| {
            let on = match v { "on" => Some(true), "off" => Some(false), _ => None };
            valid(on, "on or off", v).map(|on| o.bench.intra_op = on)
        } },
    Flag { name: "--format", metavar: "<fmt>", cmds: &[Run, Verify, Sanitize, Shard],
        help: "text | json, or csv for run (default: text)",
        set: |o, v| {
            let format = match (v, o.cmd) {
                ("text", _) => Some(Format::Text),
                ("json", _) => Some(Format::Json),
                ("csv", Run) => Some(Format::Csv),
                _ => None,
            };
            let what = if o.cmd == Run { "text, csv or json" } else { "text or json" };
            valid(format, what, v).map(|f| o.format = f)
        } },
    Flag { name: "--platform", metavar: "<p>", cmds: &[Run],
        help: "mobile | workstation | datacenter (default: datacenter)",
        set: |o, v| {
            let platform = match v {
                "mobile" => Some(Platform::mobile()),
                "workstation" => Some(Platform::workstation()),
                "datacenter" | "data-center" => Some(Platform::data_center()),
                _ => None,
            };
            valid(platform, "mobile, workstation or datacenter", v).map(|p| o.bench.platform = p)
        } },
    Flag { name: "--flow", metavar: "<f>", cmds: &[Run],
        help: "eager | torchscript | dynamo | ort (default: eager)",
        set: |o, v| {
            let flow = match v {
                "eager" => Some(Flow::Eager),
                "torchscript" => Some(Flow::TorchScript),
                "dynamo" => Some(Flow::Dynamo),
                "ort" => Some(Flow::Ort),
                _ => None,
            };
            valid(flow, "eager, torchscript, dynamo or ort", v).map(|f| o.bench.flow = f)
        } },
    Flag { name: "--cpu-only", metavar: "", cmds: &[Run],
        help: "drop the GPU from the platform",
        set: |o, _| { o.bench.use_gpu = false; Ok(()) } },
    Flag { name: "--measured", metavar: "", cmds: &[Run],
        help: "execute on the host instead of the analytic models",
        set: |o, _| { o.measured = true; Ok(()) } },
    Flag { name: "--microbench", metavar: "", cmds: &[Run],
        help: "run the microbench flow instead of end-to-end",
        set: |o, _| { o.microbench = true; Ok(()) } },
    Flag { name: "--sanitize", metavar: "", cmds: &[Run],
        help: "run --measured under the shadow-memory sanitizer",
        set: |o, _| { o.bench.sanitize = true; Ok(()) } },
    Flag { name: "--trace", metavar: "<dir>", cmds: &[Run],
        help: "also write <dir>/<model>.trace.json (Chrome trace) per model",
        set: |o, v| { o.trace = Some(v.to_string()); Ok(()) } },
    Flag { name: "--prompt-len", metavar: "<n>", cmds: &[Generate],
        help: "synthetic prompt length (default: 4)",
        set: |o, v| positive(v).map(|n| o.prompt_len = n) },
    Flag { name: "--max-new-tokens", metavar: "<n>", cmds: &[Generate],
        help: "tokens to generate greedily (default: 16)",
        set: |o, v| positive(v).map(|n| o.max_new_tokens = n) },
    Flag { name: "--quantize", metavar: "<q>", cmds: &[Generate],
        help: "none | int8 weight-quantized GEMMs (default: none)",
        set: |o, v| valid(Quant::parse(v), "none or int8", v).map(|q| o.quantize = q) },
    Flag { name: "--all", metavar: "", cmds: &[Verify],
        help: "include allow-level findings in text output",
        set: |o, _| { o.all = true; Ok(()) } },
    Flag { name: "--static-only", metavar: "", cmds: &[Sanitize],
        help: "skip the shadow-memory execution pass",
        set: |o, _| { o.static_only = true; Ok(()) } },
    Flag { name: "--addr", metavar: "<host:port>", cmds: &[Serve],
        help: "listen address; port 0 picks one, printed on startup (default: 127.0.0.1:0)",
        set: |o, v| { o.serve.addr = v.to_string(); Ok(()) } },
    Flag { name: "--max-batch", metavar: "<n>", cmds: &[Serve],
        help: "largest dynamic batch; batch-opaque models run at 1 (default: 8)",
        set: |o, v| positive(v).map(|n| o.serve.max_batch = n) },
    Flag { name: "--batch-wait-us", metavar: "<n>", cmds: &[Serve],
        help: "longest hold for companions, while arrivals are denser (default: 2000)",
        set: |o, v| valid(v.parse().ok(), "a non-negative integer", v)
            .map(|us| o.serve.batch_wait = Duration::from_micros(us)) },
    // 0 is a legal cap (reject everything): a bound, not a count
    Flag { name: "--queue-cap", metavar: "<n>", cmds: &[Serve],
        help: "per-model admission queue bound; 0 rejects all (default: 64)",
        set: |o, v| valid(v.parse().ok(), "a non-negative integer", v).map(|n| o.serve.queue_cap = n) },
    Flag { name: "--devices", metavar: "<spec>", cmds: &[Shard],
        help: "cpu|gpu|npu joined by '+', <n>x repeats: 2xgpu, gpu+cpu (default: 2xgpu)",
        set: |o, v| valid(DeviceSpec::parse(v), "a roster such as 2xgpu or gpu+cpu", v)
            .map(|d| o.devices = d) },
    Flag { name: "--strategy", metavar: "<s>", cmds: &[Shard],
        help: "pipeline | tensor (default: pipeline)",
        set: |o, v| valid(Strategy::parse(v), "pipeline or tensor", v).map(|s| o.strategy = s) },
    Flag { name: "--microbatches", metavar: "<n>", cmds: &[Shard],
        help: "pipeline microbatches / replays (default: 4)",
        set: |o, v| positive(v).map(|n| o.microbatches = n) },
];

/// Parses the arguments after the subcommand against [`FLAGS`], stopping
/// at `--help`/`-h`.
fn parse(cmd: Cmd, argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts::new(cmd);
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        if matches!(arg.as_str(), "--help" | "-h") {
            o.help = true;
            return Ok(o);
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg && f.cmds.contains(&cmd))
            .ok_or_else(|| format!("unknown argument '{arg}'"))?;
        let value = match flag.metavar {
            "" => "",
            _ => args
                .next()
                .ok_or_else(|| format!("{} requires a value", flag.name))?,
        };
        (flag.set)(&mut o, value).map_err(|e| format!("{}: {e}", flag.name))?;
    }
    // combinations in which one flag would be silently ignored
    let refused = match cmd {
        Run if o.microbench && o.measured => "--microbench executes nothing for --measured to time",
        Run if o.microbench && o.trace.is_some() => "--microbench profiles no graph for --trace",
        Run if o.bench.sanitize && !o.measured => "--sanitize arms host execution: add --measured",
        _ => return Ok(o),
    };
    Err(refused.to_string())
}

/// The `--help` text, rendered from [`CMDS`] and [`FLAGS`].
fn help() -> String {
    let mut out = String::from("nongemm-cli — NonGEMM Bench profiling harness\n\nUSAGE:\n");
    for (cmd, name, about) in CMDS {
        let name = if cmd == Run { "[run]" } else { name };
        out += &format!("  {:<32}{about}\n", format!("nongemm-cli {name} [OPTIONS]"));
    }
    out += &format!(
        "  {:<32}print this help\n",
        "nongemm-cli help | --help | -h"
    );
    for (cmd, name, _) in CMDS {
        out += &format!("\n{} OPTIONS:\n", name.to_uppercase());
        for f in FLAGS.iter().filter(|f| f.cmds.contains(&cmd)) {
            let usage = format!("{} {}", f.name, f.metavar);
            out += &format!("  {:<22}{}\n", usage.trim_end(), f.help);
        }
    }
    out + "\nEXIT CODES:\n  0  success / clean    1  failure    2  usage error\n"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match argv.first().map(String::as_str) {
        Some(name) if !name.starts_with('-') => match CMDS.iter().find(|c| c.1 == name) {
            Some(&(cmd, ..)) => parse(cmd, &argv[1..]),
            None if name == "help" => Ok(Opts {
                help: true,
                ..Opts::new(Run)
            }),
            None => Err(format!("unknown subcommand '{name}'")),
        },
        _ => parse(Run, &argv),
    };
    let opts = match parsed {
        Ok(opts) if opts.help => {
            print!("{}", help());
            return ExitCode::SUCCESS;
        }
        Ok(opts) => opts,
        Err(reason) => {
            eprintln!(
                "{reason}\nusage: nongemm-cli [{}] [OPTIONS]\n\
                 \x20      (see `nongemm-cli --help` for the full option list)",
                CMDS.map(|c| c.1).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match opts.cmd {
        Run => run_bench(opts),
        Generate => run_generate(opts),
        Verify => run_verify(opts),
        Sanitize => run_sanitize(opts),
        Serve => run_serve(opts),
        Shard => run_shard(opts),
    }
}

fn run_shard(o: Opts) -> ExitCode {
    use nongemm::shard::{self, ShardOptions};
    let devices = o.devices.roster();
    let graphs = match NonGemmBench::new(o.bench).build_graphs() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("shard failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = 0usize;
    for g in &graphs {
        let outcome = (|| -> Result<String, String> {
            let plan = shard::partition(g, &devices, o.strategy, &ShardOptions::default())
                .map_err(|e| e.to_string())?;
            let est = plan.modeled(o.microbatches);
            let run = shard::execute(&plan, 0x5eed, o.microbatches).map_err(|e| e.to_string())?;
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
            Ok(match o.format {
                Format::Json => format!(
                    "{{\"model\":\"{}\",\"devices\":\"{}\",\"strategy\":\"{}\",\
                     \"microbatches\":{},\"splits\":{},\"bit_identical\":true,\
                     \"modeled_speedup\":{:.3},\"modeled_bubble\":{:.4},\
                     \"executed_wall_s\":{:.6},\"executed_bubble\":{:.4},\
                     \"transfer_bytes\":{}}}",
                    g.name,
                    o.devices.label(),
                    o.strategy,
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
                    o.devices.label(),
                    o.strategy,
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

fn run_generate(o: Opts) -> ExitCode {
    use nongemm::runtime::{greedy_decode, synth_prompt, DecodeSession};

    let models: Vec<ModelId> = if o.bench.models.is_empty() {
        vec![ModelId::Gpt2, ModelId::Llama2_7b]
    } else {
        o.bench
            .models
            .iter()
            .map(|alias| ModelId::parse(alias).expect("--model admits registry aliases only"))
            .collect()
    };
    let scale = o.bench.scale;
    let interp = NonGemmBench::new(o.bench)
        .interpreter()
        .quantize(o.quantize);
    let total = o.prompt_len + o.max_new_tokens;

    for id in models {
        let Some(bundle) = nongemm::models::decode_bundle(id, scale, 1, total) else {
            eprintln!(
                "{id} is not an autoregressive LM; generate supports the GPT-2 family and llama2"
            );
            return ExitCode::FAILURE;
        };
        let result = bundle.map_err(|e| e.to_string()).and_then(|bundle| {
            let prompt = synth_prompt(interp.seed(), &bundle.reference, o.prompt_len)
                .map_err(|e| e.to_string())?;
            let mut session = DecodeSession::new(bundle.decode, &bundle.reference, interp.clone())
                .map_err(|e| e.to_string())?;
            let start = std::time::Instant::now();
            let report = greedy_decode(&mut session, &prompt, o.max_new_tokens)
                .map_err(|e| e.to_string())?;
            Ok((report, start.elapsed().as_secs_f64(), prompt))
        });
        match result {
            Ok((report, wall_s, prompt)) => {
                let tok_s = if wall_s > 0.0 {
                    o.max_new_tokens as f64 / wall_s
                } else {
                    0.0
                };
                println!(
                    "{id} ({}, quant {}): prompt {:?} -> {:?}",
                    scale.name(),
                    interp.quant().label(),
                    prompt[0],
                    report.tokens[0]
                );
                println!(
                    "  {} tokens in {:.3}s ({:.0} tok/s), cache hit rate {:.1}%",
                    o.max_new_tokens,
                    wall_s,
                    tok_s,
                    report.cache.hit_rate() * 100.0
                );
            }
            Err(e) => {
                eprintln!("generate failed for {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_verify(o: Opts) -> ExitCode {
    let reports = match NonGemmBench::new(o.bench).verify() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verify failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut denied = 0usize;
    for report in &reports {
        denied += report.deny_count();
        match o.format {
            Format::Json => println!("{}", report.to_json()),
            _ => println!("{}", report.to_text(o.all)),
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

fn run_sanitize(o: Opts) -> ExitCode {
    let reports = match NonGemmBench::new(o.bench).sanitize(!o.static_only) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sanitize failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut hazards = 0usize;
    for report in &reports {
        hazards += report.hazards.len();
        match o.format {
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

fn run_serve(o: Opts) -> ExitCode {
    let config = ServeConfig {
        scale: o.bench.scale,
        threads: o.bench.threads,
        opt_level: o.bench.opt_level,
        intra_op: Some(o.bench.intra_op),
        ..o.serve
    };
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

fn run_bench(mut o: Opts) -> ExitCode {
    if !o.bench.use_gpu {
        o.bench.platform = o.bench.platform.cpu_only();
    }
    let bench = NonGemmBench::new(o.bench);

    if o.microbench {
        return run_microbench(&bench, o.format);
    }

    let profiles = if o.measured {
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

    // measured numbers depend on which GEMM tile body the host ran, so
    // the text and JSON reports name it; the CSV schema stays fixed
    let tile = o.measured.then(nongemm::ops::gemm::tile_kind);
    match (o.format, tile) {
        (Format::Csv, _) => println!("{}", csv_header()),
        (Format::Text, Some(tile)) => println!("gemm tile: {tile}\n"),
        _ => {}
    }
    for profile in &profiles {
        let report = PerformanceReport::from_profile(profile);
        match o.format {
            Format::Text => println!("{}", report.to_text()),
            Format::Csv => println!("{}", report.to_csv_row()),
            Format::Json => println!(
                "{}",
                serde_json::to_string(&JsonReport {
                    report: &report,
                    gemm_tile: tile
                })
                .expect("reports serialize")
            ),
        }
        if let Some(dir) = &o.trace {
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

/// One `run --format json` line: the report's object, plus a last
/// `gemm_tile` key naming the GEMM tile body behind a measured one.
struct JsonReport<'a> {
    report: &'a PerformanceReport,
    gemm_tile: Option<&'static str>,
}

impl serde::Serialize for JsonReport<'_> {
    fn to_content(&self) -> serde::Content {
        let mut object = self.report.to_content();
        if let (serde::Content::Map(entries), Some(tile)) = (&mut object, self.gemm_tile) {
            let key = serde::Content::Str("gemm_tile".into());
            entries.push((key, serde::Content::Str(tile.into())));
        }
        object
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A value the flag's setter accepts, by its metavar.
    fn sample(flag: &Flag) -> Vec<String> {
        let value = match flag.metavar {
            "" => return vec![flag.name.to_string()],
            "<alias>" => "gpt2",
            "<n>" => "3",
            "<0|1|2>" => "2",
            "<on|off>" => "off",
            "<fmt>" => "json",
            "<p>" => "mobile",
            "<f>" => "ort",
            "<q>" => "int8",
            "<host:port>" => "127.0.0.1:0",
            "<spec>" => "gpu+cpu",
            "<s>" => "tensor",
            "<dir>" => "out",
            other => panic!("{}: no sample value for {other}", flag.name),
        };
        vec![flag.name.to_string(), value.to_string()]
    }

    #[test]
    fn every_row_parses_under_its_subcommands_and_only_there() {
        for flag in FLAGS {
            let mut args = sample(flag);
            // refused alone, as a flag that would be ignored
            if flag.name == "--sanitize" {
                args.push("--measured".to_string());
            }
            for (cmd, name, _) in CMDS {
                let parsed = parse(cmd, &args);
                if flag.cmds.contains(&cmd) {
                    assert!(parsed.is_ok(), "{name} {args:?}: {:?}", parsed.err());
                } else {
                    let err = parsed.err().unwrap_or_default();
                    let unknown = format!("unknown argument '{}'", flag.name);
                    assert_eq!(err, unknown, "{name} {args:?}");
                }
            }
        }
    }

    #[test]
    fn help_sections_name_exactly_the_accepted_rows() {
        let text = help();
        for (cmd, name, _) in CMDS {
            let header = format!("{} OPTIONS:\n", name.to_uppercase());
            let start = text.find(&header).expect("section present") + header.len();
            let section = text[start..].split("\n\n").next().unwrap();
            let listed: Vec<&str> = section
                .lines()
                .map(|l| l.split_whitespace().next().unwrap())
                .collect();
            let accepted: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.cmds.contains(&cmd))
                .map(|f| f.name)
                .collect();
            assert_eq!(listed, accepted, "{name}");
        }
    }
}
