//! The paper's own artifacts: Figures 1 and 5–8, Tables 2, 4 and 5, the
//! §4.3 averages and the §3.2.3 microbench flow.

use std::collections::BTreeSet;
use std::fmt::Write;

use nongemm::{
    comparison_table, Breakdown, DeviceModel, Flow, ModelId, NonGemmGroup, OpClass,
    OperatorRegistry, Platform, Scale, Task,
};

use crate::{profile, Artifact};

/// The group columns of the breakdown figures: the paper's legend, i.e.
/// every group but the sharding-only Collective.
fn figure_groups() -> impl Iterator<Item = NonGemmGroup> {
    let groups = NonGemmGroup::all().iter().copied();
    groups.filter(|&g| g != NonGemmGroup::Collective)
}

/// A breakdown as a fixed-width percentage row over [`figure_groups`].
fn percent_row(b: &Breakdown) -> String {
    let mut s = format!("{:>6.1}%", b.gemm_frac() * 100.0);
    for g in figure_groups() {
        let _ = write!(s, " {:>7.1}%", b.group_frac(g) * 100.0);
    }
    s
}

/// Header matching [`percent_row`] (labels truncated to the column width).
fn percent_header() -> String {
    let mut s = format!("{:>7}", "GEMM");
    for g in figure_groups() {
        let label = &g.label()[..g.label().len().min(8)];
        let _ = write!(s, " {label:>8}");
    }
    s
}

/// A platform's CPU-only and CPU+GPU configurations, labelled.
pub(crate) fn cpu_vs_gpu(platform: Platform) -> [(&'static str, Platform, bool); 2] {
    [
        ("CPU only", platform.clone().cpu_only(), false),
        ("CPU + GPU", platform, true),
    ]
}

/// Figure 1: latency breakdown into GEMM and non-GEMM operators for
/// (a) GPT2-XL and (b) ViT-L/16 at batch 1 on the data-center platform
/// (AMD EPYC 7763 vs + NVIDIA A100).
pub(crate) fn fig1() -> Artifact {
    let mut s =
        String::from("Figure 1: GEMM vs non-GEMM latency, EPYC 7763 vs +A100 (batch 1, eager)\n\n");
    let _ = writeln!(
        s,
        "{:<10}{:<14}{:>12}{:>10}{:>12}",
        "model", "config", "latency", "GEMM", "non-GEMM"
    );
    for model in [ModelId::Gpt2Xl, ModelId::VitLarge16] {
        for (label, platform, gpu) in cpu_vs_gpu(Platform::data_center()) {
            let p = profile(model, 1, &platform, gpu, Flow::Eager);
            let b = p.breakdown();
            let _ = writeln!(
                s,
                "{:<10}{:<14}{:>10.2}ms{:>9.1}%{:>11.1}%",
                model.spec().alias,
                label,
                p.total_latency_s() * 1e3,
                b.gemm_frac() * 100.0,
                b.non_gemm_frac() * 100.0
            );
        }
        let _ = writeln!(s);
    }
    s.push_str(
        "Paper shape: GEMM dominates on the CPU; after GPU acceleration the\n\
         absolute latency collapses and the non-GEMM share roughly triples.\n",
    );
    s.into()
}

/// Figures 5, 6 and 8: the execution-time breakdown across operator groups
/// of every model under two platform configurations, as text and CSV.
/// With `ic_batch8` the rows carry a batch column and the image
/// classifiers get a second row at batch 8, as in the paper's Figure 5.
pub(crate) fn group_figure(
    title: &str,
    configs: [(&str, Platform, bool); 2],
    flow: Flow,
    ic_batch8: bool,
) -> Artifact {
    let batch_column = |batch: &dyn std::fmt::Display| {
        if ic_batch8 {
            format!("{batch:>5} ")
        } else {
            String::new()
        }
    };
    let mut s = format!("{title}\n\n");
    let mut csv = "config,model,batch,gemm".to_string();
    for g in figure_groups() {
        let _ = write!(csv, ",{}", g.label().to_lowercase());
    }
    let header = percent_header();
    for (label, platform, gpu) in configs {
        let _ = writeln!(s, "== {label} ==");
        let _ = writeln!(s, "{:<16}{}{header}", "model", batch_column(&"batch"));
        for &model in ModelId::all() {
            let alias = model.spec().alias;
            let ic = model.spec().task == Task::ImageClassification;
            let batches: &[usize] = if ic_batch8 && ic { &[1, 8] } else { &[1] };
            for &batch in batches {
                let b = profile(model, batch, &platform, gpu, flow).breakdown();
                let _ = writeln!(s, "{alias:<16}{}{}", batch_column(&batch), percent_row(&b));
                let _ = write!(csv, "\n{label},{alias},{batch},{:.4}", b.gemm_frac());
                for g in figure_groups() {
                    let _ = write!(csv, ",{:.4}", b.group_frac(g));
                }
            }
        }
        let _ = writeln!(s);
    }
    Artifact {
        text: s,
        csv: Some(csv),
    }
}

/// Figure 7: the impact of the deployment toolchain on the latency
/// breakdown — GPT2-XL and Llama-2-7B under (a) PyTorch eager and
/// (b) ONNX Runtime, both on the data-center A100.
pub(crate) fn fig7() -> Artifact {
    let mut s = String::from("Figure 7: deployment flow impact on A100 (batch 1)\n\n");
    let _ = writeln!(s, "{:<12}{:<18}{}", "model", "flow", percent_header());
    for model in [ModelId::Gpt2Xl, ModelId::Llama2_7b] {
        let [eager, ort] = [Flow::Eager, Flow::Ort].map(|flow| {
            let b = profile(model, 1, &Platform::data_center(), true, flow).breakdown();
            let _ = writeln!(
                s,
                "{:<12}{:<18}{}",
                model.spec().alias,
                flow.label(),
                percent_row(&b)
            );
            b.group_frac(NonGemmGroup::Memory)
        });
        assert!(
            ort > eager,
            "{model}: ORT must grow the Memory share (CPU fallback + transfers)"
        );
        let _ = writeln!(s);
    }
    s.push_str(
        "Paper shape: moving from eager to ORT shifts the bottleneck to the\n\
         Memory group — unsupported layout ops fall back to the CPU and pay\n\
         PCIe transfers.\n",
    );
    s.into()
}

/// `"x"` for a set property column, blank otherwise.
fn check(b: bool) -> &'static str {
    if b {
        "x"
    } else {
        ""
    }
}

/// Table 2: characterization of non-GEMM operators harvested from the
/// eight model variants the paper samples (DETR, ViT, GPT2-XL, Llama-2,
/// Segformer, MaskRCNN), with the paper's property columns and example
/// input shapes.
pub(crate) fn table2() -> Artifact {
    let mut s = String::from("Table 2: non-GEMM operators in popular model variants\n\n");
    use ModelId::*;
    let mut registry = OperatorRegistry::new();
    for m in [
        Detr, VitLarge16, VitBase16, Gpt2Xl, Llama2_7b, Segformer, MaskRcnn, Bert,
    ] {
        // Segformer is profiled at batch 2 in the paper's Table 2 shapes
        let batch = if m == Segformer { 2 } else { 1 };
        let g = m.build(batch, Scale::Full).expect("suite models build");
        registry.harvest(&g);
    }

    let _ = writeln!(
        s,
        "{:<15}{:<22}{:<12}{:>7}{:>7}{:>7}{:>5}{:>5}  Example input shape",
        "Group", "Operator", "Model", "1-op", "1-arg", "NonLin", "Dyn", "Red"
    );
    // one representative row per (group, op, model)
    let mut seen = BTreeSet::new();
    let mut rows = 0;
    for rec in registry.iter() {
        let group = match rec.op.class() {
            OpClass::NonGemm(g) => g,
            OpClass::Gemm => continue,
        };
        if !seen.insert((group, rec.op.name(), rec.model.clone())) {
            continue;
        }
        let _ = writeln!(
            s,
            "{:<15}{:<22}{:<12}{:>7}{:>7}{:>7}{:>5}{:>5}  {:?}",
            group.label(),
            rec.op.name(),
            rec.model,
            check(rec.op.is_single_operation()),
            check(rec.op.is_single_operand()),
            check(rec.op.is_nonlinear()),
            check(rec.op.is_dynamic()),
            check(rec.op.is_reduction()),
            rec.input_shapes.first().map(Vec::as_slice).unwrap_or(&[])
        );
        rows += 1;
    }
    let _ = writeln!(
        s,
        "\n{} distinct (group, operator, model) rows; {} registry records",
        rows,
        registry.len()
    );
    assert!(rows >= 28, "Table 2 has at least 28 rows in the paper");
    s.into()
}

/// Table 4: the most expensive non-GEMM operator group for selected models
/// and batch sizes on the data-center GPU (A100, eager).
pub(crate) fn table4() -> Artifact {
    use ModelId::*;
    let mut s = String::from(
        "Table 4: most expensive non-GEMM group per model/batch on the A100 (eager)\n\n",
    );
    let _ = writeln!(
        s,
        "{:<14}{:>6}  {:<16}{:>12}",
        "model", "batch", "top group", "% of time"
    );
    // the models and batch sizes of the paper's Table 4
    let rows: [(ModelId, &[usize]); 12] = [
        (VitBase16, &[1, 8]),
        (VitLarge16, &[1, 8]),
        (SwinTiny, &[1, 8]),
        (SwinSmall, &[1, 8]),
        (SwinBase, &[1, 8]),
        (FasterRcnn, &[1, 2, 8]),
        (MaskRcnn, &[1, 2, 8]),
        (Detr, &[2]),
        (Gpt2, &[1, 64]),
        (Gpt2Xl, &[1, 64]),
        (Llama2_7b, &[1]),
        (Bert, &[1, 64]),
    ];
    for (model, batches) in rows {
        for &batch in batches {
            let p = profile(model, batch, &Platform::data_center(), true, Flow::Eager);
            let (group, frac) = p.breakdown().dominant_group().expect("non-GEMM ops exist");
            let _ = writeln!(
                s,
                "{:<14}{:>6}  {:<16}{:>11.1}%",
                model.spec().alias,
                batch,
                group.label(),
                frac * 100.0
            );
        }
    }
    s.into()
}

/// Table 5: feature comparison of NonGEMM Bench against MLPerf, LongTail
/// Bench, and TorchBench.
pub(crate) fn table5() -> Artifact {
    let mut s = String::from("Table 5: benchmark feature comparison\n\n");
    let _ = writeln!(
        s,
        "{:<28}{:>12}{:>12}{:>14}{:>16}",
        "Benchmark", "Real Usage", "NonGEMM", "Real Dataset", "Plug & Profile"
    );
    for b in comparison_table() {
        let _ = writeln!(
            s,
            "{:<28}{:>12}{:>12}{:>14}{:>16}",
            b.name,
            check(b.real_usage_driven),
            check(b.non_gemm_focused),
            check(b.real_dataset_driven),
            check(b.plug_model_and_profile)
        );
    }
    s.into()
}

/// The mean of `v`, in percent.
fn mean_pct(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64 * 100.0
}

/// §4.3 headline numbers: the cross-suite averages the paper's "Key
/// Observations and Insights" section reports, recomputed over this
/// reproduction.
pub(crate) fn summary() -> Artifact {
    let breakdown =
        |m, platform: &Platform, gpu, flow| profile(m, 1, platform, gpu, flow).breakdown();
    let mut s =
        String::from("NonGEMM Bench §4.3 headline averages (this reproduction vs paper)\n\n");

    // 1. CPU-only vs CPU+GPU non-GEMM share, averaged over models × platforms
    let mut cpu = Vec::new();
    let mut gpu = Vec::new();
    for platform in Platform::all_gpu() {
        for &m in ModelId::all() {
            let cpu_only = platform.clone().cpu_only();
            cpu.push(breakdown(m, &cpu_only, false, Flow::Eager).non_gemm_frac());
            gpu.push(breakdown(m, &platform, true, Flow::Eager).non_gemm_frac());
        }
    }
    let (cpu_avg, gpu_avg) = (mean_pct(&cpu), mean_pct(&gpu));
    let _ = writeln!(
        s,
        "non-GEMM share of execution time, all models x 3 platforms:\n  \
         CPU-only {cpu_avg:.1}%  ->  CPU+GPU {gpu_avg:.1}%   (paper: 27% -> 55%)"
    );
    assert!(
        gpu_avg > cpu_avg + 15.0,
        "GPU must shift the balance to non-GEMM"
    );

    // 2. dominant groups per task and 3. the eager -> ORT shift, on the
    // data-center GPU
    let dc = Platform::data_center();
    let (mut ic_norm, mut lm_act, mut lm_arith) = (Vec::new(), Vec::new(), Vec::new());
    let (mut eager_ng, mut ort_ng, mut ort_mem) = (Vec::new(), Vec::new(), Vec::new());
    for &m in ModelId::all() {
        let e = breakdown(m, &dc, true, Flow::Eager);
        let o = breakdown(m, &dc, true, Flow::Ort);
        match m.spec().task {
            Task::ImageClassification => ic_norm.push(e.group_frac(NonGemmGroup::Normalization)),
            Task::LanguageModel => {
                lm_act.push(e.group_frac(NonGemmGroup::Activation));
                lm_arith.push(e.group_frac(NonGemmGroup::Arithmetic));
            }
            _ => {}
        }
        eager_ng.push(e.non_gemm_frac());
        ort_ng.push(o.non_gemm_frac());
        ort_mem.push(o.group_frac(NonGemmGroup::Memory));
    }
    let _ = writeln!(
        s,
        "\nimage classification, avg Normalization share: {:.1}%  (paper: 18.4%)\n\
         language models, avg Activation share: {:.1}%  (paper: 17.75%)\n\
         language models, avg Arithmetic share: {:.1}%  (paper: 17.6%)",
        mean_pct(&ic_norm),
        mean_pct(&lm_act),
        mean_pct(&lm_arith)
    );
    let (eager, ort) = (mean_pct(&eager_ng), mean_pct(&ort_ng));
    let _ = writeln!(
        s,
        "\nONNX Runtime on A100: avg Memory-group share {:.1}%  (paper: 56%)\n\
         non-GEMM share, eager {eager:.1}% -> ORT {ort:.1}%  (paper: 52% -> 73%)",
        mean_pct(&ort_mem)
    );
    assert!(ort > eager, "ORT must increase the non-GEMM share");
    s.into()
}

/// MicroBench flow (§3.2.3): harvests every non-GEMM operator instance of
/// the 18-model suite into the operator registry (the paper ships 1460
/// instances), prints registry statistics, and replays representative
/// operators both measured (host) and analytically (A100 / EPYC). The
/// replay column is host wall-clock, so this artifact differs from run to
/// run.
pub(crate) fn microbench() -> Artifact {
    let mut s = String::from("NonGEMM Bench microbenchmark flow\n\n");
    let mut registry = OperatorRegistry::new();
    for &m in ModelId::all() {
        let g = m.build(1, Scale::Full).expect("suite models build");
        let added = registry.harvest(&g);
        let _ = writeln!(
            s,
            "{:<14} +{added:>5} unique non-GEMM operator instances",
            m.spec().alias
        );
    }
    let _ = writeln!(
        s,
        "\nregistry: {} unique non-GEMM operator instances (paper: 1460)",
        registry.len()
    );
    for (title, stats) in [
        ("per-group instance counts", registry.group_stats()),
        ("operator variants per group", registry.variant_stats()),
    ] {
        let _ = writeln!(s, "\n{title}:");
        for (group, count) in stats {
            let _ = writeln!(s, "  {group:<16}{count:>6}");
        }
    }

    // aggregate analytic latency per group on the data-center GPU — the
    // microbench view of the end-to-end group breakdowns
    s.push_str("\naggregate standalone latency per group (A100 analytic):\n");
    let by_group = registry.group_latency(&DeviceModel::a100());
    let total: f64 = by_group.values().sum();
    for (group, secs) in &by_group {
        let _ = writeln!(
            s,
            "  {group:<16}{:>9.3} ms ({:>5.1}%)",
            secs * 1e3,
            secs / total * 100.0
        );
    }

    // replay a representative slice standalone (measured on the host +
    // analytic on the paper's devices)
    s.push_str("\nstandalone replay (one instance per operator kind):\n");
    let _ = writeln!(
        s,
        "{:<22}{:<12}{:>14}{:>12}{:>12}  shapes",
        "op", "model", "host (meas)", "A100", "EPYC 7763"
    );
    let a100 = DeviceModel::a100();
    let epyc = DeviceModel::epyc7763();
    let mut seen = BTreeSet::new();
    let mut replayed = 0;
    for rec in registry.iter() {
        if !seen.insert(rec.op.name()) {
            continue;
        }
        // replay only instances small enough to execute quickly on the host
        let elems: usize = rec
            .input_shapes
            .iter()
            .map(|shape| shape.iter().product::<usize>())
            .sum();
        if elems > 2_000_000 {
            continue;
        }
        match registry.replay(rec, 3, &a100) {
            Ok(res) => {
                let cpu = registry.evaluate(rec, &epyc);
                let _ = writeln!(
                    s,
                    "{:<22}{:<12}{:>12.1}us{:>10.1}us{:>10.1}us  {:?}",
                    res.op,
                    res.model,
                    res.measured_s.unwrap_or(0.0) * 1e6,
                    res.analytic_s * 1e6,
                    cpu.analytic_s * 1e6,
                    rec.input_shapes
                );
                replayed += 1;
            }
            Err(e) => {
                let _ = writeln!(
                    s,
                    "{:<22}{:<12}replay failed: {e}",
                    rec.op.name(),
                    rec.model
                );
            }
        }
    }
    assert!(
        replayed > 15,
        "expected a broad operator replay, got {replayed}"
    );
    assert!(
        registry.len() > 400,
        "registry suspiciously small: {}",
        registry.len()
    );
    s.into()
}
