//! Report-format stability tests: the CSV schema, text layout, and JSON
//! field set are public interfaces that downstream tooling parses.

use ngb_exec::Interpreter;
use ngb_graph::{GraphBuilder, OpKind};
use ngb_platform::Platform;
use ngb_profiler::report::{csv_header, NonGemmReport, PerformanceReport, WorkloadReport};
use ngb_profiler::{profile_analytic, profile_measured};
use ngb_runtime::Flow;

fn sample_graph() -> ngb_graph::Graph {
    let mut b = GraphBuilder::new("report_sample");
    let x = b.input(&[2, 3, 8, 8]);
    let c = b
        .push(
            OpKind::Conv2d {
                in_c: 3,
                out_c: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
                bias: true,
            },
            &[x],
            "conv",
        )
        .unwrap();
    let n = b.push(OpKind::BatchNorm2d { c: 4 }, &[c], "bn").unwrap();
    let a = b.push(OpKind::Relu, &[n], "act").unwrap();
    let p = b
        .push(OpKind::AdaptiveAvgPool2d { oh: 1, ow: 1 }, &[a], "pool")
        .unwrap();
    let f = b
        .push(OpKind::Reshape { shape: vec![2, 4] }, &[p], "flat")
        .unwrap();
    b.push(OpKind::Softmax { dim: 1 }, &[f], "sm").unwrap();
    b.finish()
}

#[test]
fn csv_schema_is_stable() {
    let header = csv_header();
    let expected = [
        "model",
        "platform",
        "flow",
        "batch",
        "latency_ms",
        "energy_j",
        "peak_mem_mb",
        "gemm_frac",
        "normalization_frac",
        "activation_frac",
        "memory_frac",
        "arithmetic_frac",
        "logit_frac",
        "roi_frac",
        "interpolation_frac",
        "pooling_frac",
        "embedding_frac",
        "collective_frac",
        "other_frac",
    ];
    assert_eq!(header.split(',').collect::<Vec<_>>(), expected);
    // every row has exactly the header's column count, regardless of which
    // groups the model actually exercises
    let g = sample_graph();
    for flow in [Flow::Eager, Flow::Ort] {
        let p = profile_analytic(&g, &Platform::workstation(), flow, true, 2);
        let row = PerformanceReport::from_profile(&p).to_csv_row();
        assert_eq!(row.split(',').count(), expected.len(), "{flow}: {row}");
    }
}

#[test]
fn csv_fractions_parse_and_sum_to_one() {
    let g = sample_graph();
    let p = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 2);
    let row = PerformanceReport::from_profile(&p).to_csv_row();
    let fields: Vec<&str> = row.split(',').collect();
    let fracs: f64 = fields[7..]
        .iter()
        .map(|f| f.parse::<f64>().expect("numeric"))
        .sum();
    assert!((fracs - 1.0).abs() < 0.01, "fractions sum to {fracs}");
}

#[test]
fn text_report_mentions_every_active_group() {
    let g = sample_graph();
    let p = profile_analytic(&g, &Platform::mobile(), Flow::Eager, true, 2);
    let txt = PerformanceReport::from_profile(&p).to_text();
    for label in ["GEMM", "Normalization", "Activation", "Pooling", "Logit"] {
        assert!(txt.contains(label), "missing {label} in:\n{txt}");
    }
    assert!(txt.contains("batch 2"));
}

#[test]
fn json_fields_are_complete() {
    let g = sample_graph();
    let p = profile_analytic(&g, &Platform::data_center(), Flow::Ort, true, 2);
    let perf: serde_json::Value =
        serde_json::to_value(PerformanceReport::from_profile(&p)).expect("serializes");
    for field in [
        "model",
        "platform",
        "flow",
        "batch",
        "latency_ms",
        "energy_j",
        "peak_memory_mb",
        "gemm_frac",
        "group_fracs",
    ] {
        assert!(perf.get(field).is_some(), "missing {field}");
    }
    let wl: serde_json::Value =
        serde_json::to_value(WorkloadReport::from_graph(&g)).expect("serializes");
    assert_eq!(wl["total_ops"], 7);
    let ng: serde_json::Value =
        serde_json::to_value(NonGemmReport::from_graph(&g)).expect("serializes");
    assert_eq!(ng["gemm_ops"], 1);
}

#[test]
fn measured_and_analytic_reports_share_schema() {
    let g = sample_graph();
    let analytic = profile_analytic(&g, &Platform::data_center(), Flow::Eager, true, 2);
    let measured = profile_measured(&g, 1, &Interpreter::new(3)).expect("executes");
    let ra = PerformanceReport::from_profile(&analytic).to_csv_row();
    let rm = PerformanceReport::from_profile(&measured).to_csv_row();
    assert_eq!(ra.split(',').count(), rm.split(',').count());
}

#[test]
fn trace_export_composes_with_reports() {
    let g = sample_graph();
    let p = profile_analytic(&g, &Platform::data_center(), Flow::Ort, true, 2);
    let trace = ngb_profiler::trace::to_chrome_trace(&p);
    let v: serde_json::Value = serde_json::from_str(&trace).expect("valid json");
    assert!(!v["traceEvents"].as_array().expect("array").is_empty());
}

#[test]
fn gemm_intensity_dominates_at_model_scale() {
    // at transformer-realistic sizes, GEMM arithmetic intensity towers over
    // the element-wise groups — the paper's reason non-GEMM ops can't ride
    // the tensor cores
    let mut b = GraphBuilder::new("scale");
    let x = b.input(&[1, 128, 768]);
    let l = b
        .push(
            OpKind::Linear {
                in_f: 768,
                out_f: 3072,
                bias: true,
            },
            &[x],
            "up",
        )
        .unwrap();
    b.push(OpKind::Gelu, &[l], "act").unwrap();
    let g = b.finish();
    let r = NonGemmReport::from_graph(&g);
    let gemm_ai = r.group_costs["GEMM"].arithmetic_intensity();
    let act_ai = r.group_costs["Activation"].arithmetic_intensity();
    assert!(
        gemm_ai > 10.0 * act_ai,
        "GEMM {gemm_ai:.1} vs Act {act_ai:.1}"
    );
}
