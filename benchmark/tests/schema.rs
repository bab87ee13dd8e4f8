//! The binary as the driver runs it, in `--quick` mode: a traced pass with
//! its companion passes prints every per-layer metric `BENCHMARK.json`
//! lists, and writes a trace file that states `unattributed`.

use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

#[test]
fn quick_traced_pass_prints_every_per_layer_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_ngb-benchmark"))
        .args(["--workload", "decode_lm", "--trace", "1", "--quick"])
        .args(["--seed", "3"])
        .output()
        .expect("the benchmark starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(result["correct"], true, "{stderr}");
    assert_eq!(result["failed"], 0.0);
    let listed = benchmark_json();
    let listed = listed["per_layer"].as_array().expect("metric list");
    let printed = result["metrics"].as_object().expect("metrics");
    assert_eq!(printed.len(), listed.len());
    for metric in listed {
        let name = metric["name"].as_str().expect("name");
        let got = &result["metrics"][name];
        assert!(got["value"].as_f64().is_some_and(f64::is_finite), "{name}");
        assert_eq!(got["unit"], metric["unit"], "{name}");
    }
    // decode_lm's own metrics are unmarked, the other workloads' marked
    let line = |metric: &str| {
        let mut lines = stdout.lines();
        lines
            .find(|l| l.starts_with(metric))
            .expect("a metric line")
    };
    assert!(!line("runtime.kv_hit_rate ").contains("companion="));
    assert!(line("serve.parse_us ").ends_with("companion=serve_mix"));

    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/out/trace-decode_lm-quick.json"
    );
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(file).expect("trace file")).expect("JSON");
    assert!(doc["unattributed"]["share"].as_f64().is_some());
    assert!(!doc["traceEvents"].as_array().expect("events").is_empty());
    assert_eq!(doc["fingerprint"]["seed"], 3.0);
}
