//! Layout sweep: what contiguous elision and strided kernel consumption
//! buy per model. Every registry model at tiny scale is executed twice —
//! the unoptimized graph (O0) and the rewritten one (O2, elision on) —
//! and the sweep reports measured bytes materialized (dense copies made
//! by kernels at run time), the static `Contiguous` copy bound, and the
//! Memory-group share of measured latency for both.
//!
//! ```text
//! layout_sweep [--model <alias>]... [--iters N] [--out PATH]
//! ```
//!
//! Writes the table to `--out` (default `BENCH_LAYOUT.json`) and prints
//! it. Latencies are minima over `--iters` measured runs; run in release
//! mode — debug-build kernels are too slow to be meaningful.

use nongemm::graph::NonGemmGroup;
use nongemm::{optimize_with, ModelId, OptLevel, Scale};
use serde::Serialize;

struct Args {
    models: Vec<String>,
    iters: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        models: Vec::new(),
        iters: 3,
        out: "BENCH_LAYOUT.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{arg} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--model" => {
                let v = value();
                args.models.push(v);
            }
            "--iters" => {
                args.iters = value().parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    eprintln!("--iters requires a positive integer");
                    std::process::exit(2);
                })
            }
            "--out" => args.out = value(),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: layout_sweep [--model <alias>]... [--iters N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One optimization level's measurements for one model.
#[derive(Serialize)]
struct LevelRow {
    nodes: usize,
    static_contiguous_bytes: u64,
    measured_bytes_materialized: u64,
    total_us: f64,
    memory_us: f64,
}

/// One model's O0-vs-O2 comparison.
#[derive(Serialize)]
struct ModelRow {
    model: &'static str,
    contiguous_elided: usize,
    elision_bytes_saved: usize,
    o0: LevelRow,
    o2: LevelRow,
}

/// The whole artifact (`BENCH_LAYOUT.json`).
#[derive(Serialize)]
struct LayoutDoc {
    scale: &'static str,
    iters: usize,
    models: Vec<ModelRow>,
}

fn measure(graph: &nongemm::Graph, iters: usize) -> LevelRow {
    let profile =
        nongemm::profiler::profile_measured(graph, iters, &nongemm::Interpreter::default())
            .expect("registry models execute on the host");
    let b = profile.breakdown();
    LevelRow {
        nodes: graph.len(),
        static_contiguous_bytes: graph.contiguous_copy_bytes(),
        measured_bytes_materialized: profile.total_bytes_materialized(),
        total_us: b.total_s * 1e6,
        memory_us: b.groups.get(&NonGemmGroup::Memory).copied().unwrap_or(0.0) * 1e6,
    }
}

fn main() {
    let args = parse_args();
    let models: Vec<ModelId> = if args.models.is_empty() {
        ModelId::all().to_vec()
    } else {
        ModelId::all()
            .iter()
            .copied()
            .filter(|m| args.models.iter().any(|a| a == m.spec().alias))
            .collect()
    };
    if models.is_empty() {
        eprintln!("no models matched");
        std::process::exit(2);
    }

    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "model", "bytes O0", "bytes O2", "elided", "mem% O0", "mem% O2", "us O0", "us O2"
    );
    let mut rows = Vec::new();
    for model in models {
        let base = model
            .build(1, Scale::Tiny)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let (g0, _) = optimize_with(&base, OptLevel::O0, true);
        let (g2, report) = optimize_with(&base, OptLevel::O2, true);
        let o0 = measure(&g0, args.iters);
        let o2 = measure(&g2, args.iters);
        println!(
            "{:<14} {:>12} {:>12} {:>8} {:>8.1}% {:>8.1}% {:>8.0} {:>8.0}",
            model.spec().alias,
            o0.measured_bytes_materialized,
            o2.measured_bytes_materialized,
            report.contiguous_elided,
            100.0 * o0.memory_us / o0.total_us.max(f64::MIN_POSITIVE),
            100.0 * o2.memory_us / o2.total_us.max(f64::MIN_POSITIVE),
            o0.total_us,
            o2.total_us,
        );
        rows.push(ModelRow {
            model: model.spec().alias,
            contiguous_elided: report.contiguous_elided,
            elision_bytes_saved: report.elision_bytes_saved,
            o0,
            o2,
        });
    }
    let doc = LayoutDoc {
        scale: "tiny",
        iters: args.iters,
        models: rows,
    };
    std::fs::write(
        &args.out,
        serde_json::to_string_pretty(&doc).expect("serializable") + "\n",
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", args.out));
    println!("wrote {}", args.out);
}
