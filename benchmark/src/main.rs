//! The repository's benchmark: five workloads over the whole stack, driven
//! only through the crates' public functions, with every engine setting
//! pinned here. See `README.md` for the workloads, metrics and bounds.
//!
//! ```text
//! ngb-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1> [--own-layers]
//! ngb-benchmark [--seed <n>] [--seconds <n>] [--quick]   # all five, both passes
//! ngb-benchmark --write-golden
//! ```
//!
//! Exit codes: 0 measured and correct, 1 an operation failed or an output
//! was incorrect, 2 usage error or an `NGB_*` variable in the environment.

mod affinity;
mod common;
mod decode;
mod golden;
mod graph;
mod serve;
mod shard;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

use common::{Cfg, Check, Metrics, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use nongemm::serve::protocol::obj;

const USAGE: &str = "usage: ngb-benchmark [--workload <name>] [--seed <n>] [--seconds <n>] \
                     [--trace <0|1>] [--own-layers] [--quick] [--write-golden]";
/// Measurement budget of `--quick` and of a traced pass's companion passes.
const QUICK_SECONDS: f64 = 1.0;
/// Set-ups timed per full-length untraced pass; `setup_s` is their median.
/// One of `graph_full` runs every model once and so costs a round, about 7 s.
fn setups(name: &str) -> usize {
    if name == "graph_full" {
        3
    } else {
        5
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// A traced pass prints only the layer metrics its own workload
    /// measures and starts no companion passes.
    own_layers: bool,
    quick: bool,
    write_golden: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        traced: false,
        own_layers: false,
        quick: false,
        write_golden: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}', one of {WORKLOADS:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--own-layers" => args.own_layers = true,
            "--quick" => args.quick = true,
            "--write-golden" => args.write_golden = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(file: &str, doc: &Value) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    let text = serde_json::to_string_pretty(doc).expect("values render") + "\n";
    std::fs::write(out_dir().join(file), text)
}

fn set_up_again(name: &str, cfg: &Cfg) -> Check {
    match name {
        "graph_tiny" => graph::set_up_again(&graph::tiny(cfg.quick), cfg),
        "graph_full" => graph::set_up_again(&graph::full(cfg.quick), cfg),
        "serve_mix" => serve::set_up_again(),
        "decode_lm" => decode::set_up_again(cfg),
        "shard_2dev" => shard::set_up_again(cfg),
        other => unreachable!("parse_args admits only WORKLOADS, got {other}"),
    }
}

fn run_workload(name: &str, cfg: &Cfg) -> Outcome {
    match name {
        "graph_tiny" => graph::run(&graph::tiny(cfg.quick), cfg),
        "graph_full" => graph::run(&graph::full(cfg.quick), cfg),
        "serve_mix" => serve::run(cfg),
        "decode_lm" => decode::run(cfg),
        "shard_2dev" => shard::run(cfg),
        other => unreachable!("parse_args admits only WORKLOADS, got {other}"),
    }
}

/// One pass of this binary in a process of its own: its metric lines, the
/// result object it printed last, and whether it exited with 0.
struct ChildPass {
    lines: Vec<String>,
    result: Value,
    ok: bool,
}

fn child_pass(args: &[&str]) -> ChildPass {
    let exe = std::env::current_exe().expect("own path");
    // `output` waits for the child: none outlives this process
    let out = std::process::Command::new(exe).args(args).output();
    let out = out.expect("child process starts");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.pop().unwrap_or_default();
    ChildPass {
        lines,
        result: serde_json::from_str(&last).unwrap_or(Value::Null),
        ok: out.status.success(),
    }
}

/// Layer metric → the workload whose one-second companion pass measured it.
type Companions = BTreeMap<&'static str, &'static str>;

/// The layer metrics `name`'s own traced pass does not reach, from a
/// `--quick --own-layers` pass of other workloads, each in a process of its
/// own so that nothing of theirs (heap, thread pools, CPU placement) is left
/// behind in this one. The driver wants every layer metric from every traced
/// pass; these keep each of them a measurement. `--seconds` does not apply
/// to them, and what they fill in is marked wherever it is printed.
///
/// Last workload first, and only while a metric is missing: `shard_2dev`
/// reads `ops.collective_share` on graphs that have collectives, and
/// `graph_full` measures nothing `graph_tiny` does not, so it never runs
/// as a companion.
fn companions(name: &str, cfg: &Cfg, metrics: &mut Metrics, check: &mut Check) -> Companions {
    let mut sources = Companions::new();
    let seed = cfg.seed.to_string();
    for other in WORKLOADS.iter().rev().filter(|w| **w != name) {
        if PER_LAYER.iter().all(|(m, _)| metrics.contains_key(m)) {
            break;
        }
        let pass = child_pass(&[
            "--workload",
            other,
            "--trace",
            "1",
            "--own-layers",
            "--quick",
            "--seed",
            &seed,
        ]);
        let correct = pass.ok && pass.result["correct"] == true;
        let verdict = correct.then_some(()).ok_or("pass failed".to_string());
        check.record(&format!("companion {other}"), verdict);
        for &(metric, _) in PER_LAYER {
            let measured = pass.result["metrics"][metric]["value"].as_f64();
            if let (Some(v), false) = (measured, metrics.contains_key(metric)) {
                metrics.insert(metric, v);
                sources.insert(metric, other);
            }
        }
    }
    sources
}

/// One measured pass of `name`: its metrics and what was attempted. An
/// untraced pass measures the end-to-end metrics, a traced one the
/// workload's layer metrics.
fn measure(name: &str, cfg: &Cfg, fingerprint: &Value) -> (Metrics, Check) {
    let o = run_workload(name, cfg);
    let (mut metrics, mut check) = (o.metrics, o.check);
    if cfg.traced {
        let doc = o.tracer.to_chrome(name, fingerprint.clone());
        let file = format!("trace-{name}{}", file_ending(cfg));
        if let Err(e) = write_json(&file, &doc) {
            check.record("trace file", Err(e.to_string()));
        }
        let (us, of_whole) = o.tracer.unattributed();
        println!("unattributed {us} us ({of_whole} of the split spans)");
    } else {
        // the workload ran on its first set-up, as a user's process does:
        // memory is read before the further set-ups that only time
        // themselves, and nothing they leave behind is measured on
        metrics.insert("peak_rss_mb", common::peak_rss_mb());
        if let (Some(&first), false) = (metrics.get("setup_s"), cfg.quick) {
            let mut setup_s = vec![first];
            for _ in 1..setups(name) {
                let (again, s) = common::timed(|| set_up_again(name, cfg));
                check.merge(again);
                setup_s.push(s);
            }
            metrics.insert("setup_s", stats::median(&setup_s));
        }
    }
    (metrics, check)
}

/// Ending of a pass's files in `out/`: a quick pass never overwrites a
/// full-length one's.
fn file_ending(cfg: &Cfg) -> &'static str {
    if cfg.quick {
        "-quick.json"
    } else {
        ".json"
    }
}

/// Prints `name value unit` for every metric of the pass, then the result
/// object as the last line; writes the same with the fingerprint to `out/`.
/// A layer metric a companion pass measured has `companion=<workload>` as a
/// fourth field. With `own_layers` the layer metrics not measured are left
/// out instead of counted as failures.
fn report(
    name: &str,
    cfg: &Cfg,
    own_layers: bool,
    fingerprint: Value,
    metrics: &Metrics,
    sources: &Companions,
    mut check: Check,
) -> ExitCode {
    let table = if cfg.traced { PER_LAYER } else { END_TO_END };
    let mut reported = Vec::new();
    for &(metric, unit) in table {
        let value = match metrics.get(metric) {
            Some(v) if v.is_finite() => *v,
            None if own_layers && cfg.traced => continue,
            found => {
                check.record(metric, Err(format!("not measured: {found:?}")));
                0.0
            }
        };
        match sources.get(metric) {
            Some(companion) => println!("{metric} {value} {unit} companion={companion}"),
            None => println!("{metric} {value} {unit}"),
        }
        let entry = vec![
            ("value", Value::Number(value)),
            ("unit", Value::String(unit.to_string())),
        ];
        reported.push((metric.to_string(), obj(entry)));
    }
    for reason in &check.reasons {
        eprintln!("FAILED {reason}");
    }
    let correct = check.failed == 0;
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Number(check.attempted.max(1) as f64)),
        ("failed", Value::Number(check.failed as f64)),
        ("metrics", Value::Object(reported)),
    ]);
    let from_companions = sources
        .iter()
        .map(|(metric, w)| (metric.to_string(), Value::String(format!("{w} --quick"))));
    let doc = obj(vec![
        ("workload", Value::String(name.to_string())),
        ("fingerprint", fingerprint),
        ("result", result.clone()),
        ("from_companions", Value::Object(from_companions.collect())),
    ]);
    let traced = u8::from(cfg.traced);
    let file = format!("result-{name}-trace{traced}{}", file_ending(cfg));
    if let Err(e) = write_json(&file, &doc) {
        eprintln!("cannot write {file}: {e}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a process of its own, untraced then traced, and
/// relays each pass's metric lines under the workload's name. Between them
/// the five traced passes measure every layer metric, so none needs
/// companions.
fn run_all(args: &Args) -> ExitCode {
    let mut all_correct = true;
    let (seed, seconds) = (args.seed.to_string(), args.seconds.to_string());
    for name in WORKLOADS {
        for trace in ["0", "1"] {
            let mut argv = vec!["--workload", name, "--trace", trace, "--own-layers"];
            argv.extend(["--seed", &seed, "--seconds", &seconds]);
            if args.quick {
                argv.push("--quick");
            }
            let pass = child_pass(&argv);
            for line in &pass.lines {
                println!("{name} {line}");
            }
            let r = &pass.result;
            println!(
                "{name} trace={trace} correct={} attempted={} failed={}",
                r["correct"], r["attempted"], r["failed"]
            );
            all_correct &= pass.ok && r["correct"] == true;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_golden() -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    std::fs::create_dir_all(&dir)?;
    for spec in [graph::tiny(false), graph::full(false)] {
        let text = golden::Golden::render(&graph::golden_summaries(&spec));
        std::fs::write(dir.join(format!("{}.json", spec.name)), text)?;
        println!("wrote golden/{}.json", spec.name);
    }
    Ok(())
}

fn main() -> ExitCode {
    // the engine reads eleven NGB_* variables; a stray one would change what
    // is measured without changing a line of the record
    if let Some((key, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("NGB_"))
    {
        eprintln!(
            "refusing to run with {} set: every setting is pinned",
            key.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if common::nproc() < 2 {
        eprintln!("one core: serve_mix's two generator threads share it with the server");
    }
    if args.write_golden {
        return match write_golden() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("cannot write golden files: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    let cfg = Cfg {
        seed: args.seed,
        seconds: if args.quick {
            QUICK_SECONDS
        } else {
            args.seconds
        },
        traced: args.traced,
        quick: args.quick,
    };
    // once: it asks rustc for its version
    let fingerprint = common::fingerprint(&cfg);
    let (mut metrics, mut check) = measure(name, &cfg, &fingerprint);
    let sources = if cfg.traced && !args.own_layers {
        companions(name, &cfg, &mut metrics, &mut check)
    } else {
        Companions::new()
    };
    report(
        name,
        &cfg,
        args.own_layers,
        fingerprint,
        &metrics,
        &sources,
        check,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(traced: bool) -> Cfg {
        Cfg {
            seed: 3,
            seconds: QUICK_SECONDS,
            traced,
            quick: true,
        }
    }

    /// `BENCHMARK.json` and the tables here must name the same metrics with
    /// the same units, or the driver refuses the output.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let text = |k: &str| m[k].as_str().expect("string field").to_string();
                    (text("name"), text("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let listed: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        let mut ours = WORKLOADS.to_vec();
        ours.sort_unstable();
        let mut theirs = listed.clone();
        theirs.sort_unstable();
        assert_eq!(theirs, ours);
    }

    /// Quick untraced passes produce every end-to-end metric but the RSS
    /// `measure` adds, non-zero, with nothing failed.
    #[test]
    fn quick_untraced_passes_fill_the_end_to_end_table() {
        for name in WORKLOADS {
            let o = run_workload(name, &quick(false));
            assert_eq!(o.check.failed, 0, "{name}: {:?}", o.check.reasons);
            assert!(o.check.attempted > 0, "{name}");
            for (metric, _) in END_TO_END.iter().filter(|(m, _)| *m != "peak_rss_mb") {
                let v = o.metrics.get(metric).copied();
                assert!(
                    v.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{name} {metric} {v:?}"
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
            parse_args(&argv)
        };
        let a = parse("--workload serve_mix --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_mix"));
        assert_eq!((a.seed, a.seconds, a.traced), (9, 12.0, true));
        assert!(!a.own_layers && parse("--own-layers").unwrap().own_layers);
        assert!(parse("--workload nonesuch").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
