//! Reproduction checks for the paper's qualitative claims (§4, Tables 4–5,
//! Figures 1 and 5–8). These are the *shape* assertions EXPERIMENTS.md is
//! built from: who dominates, in which direction ratios move — not
//! absolute latencies.

use nongemm::{
    BenchConfig, Breakdown, Flow, ModelId, NonGemmBench, NonGemmGroup, OptLevel, Platform, Scale,
    Task,
};

// The paper profiles the *unoptimized* eager graphs, so these checks pin
// `-O0` explicitly: Conv+BN folding at `-O2` really does erase the
// Normalization time §4.1.2 measures — that's the optimizer working, not
// the claim breaking.
fn breakdown(alias: &str, platform: Platform, gpu: bool, flow: Flow, batch: usize) -> Breakdown {
    let bench = NonGemmBench::new(BenchConfig {
        models: vec![alias.into()],
        platform,
        use_gpu: gpu,
        flow,
        batch,
        scale: Scale::Full,
        opt_level: OptLevel::O0,
        ..BenchConfig::default()
    });
    bench.run_end_to_end().expect("suite models profile")[0].breakdown()
}

fn latency(alias: &str, platform: Platform, gpu: bool) -> f64 {
    let bench = NonGemmBench::new(BenchConfig {
        models: vec![alias.into()],
        platform,
        use_gpu: gpu,
        opt_level: OptLevel::O0,
        ..BenchConfig::default()
    });
    bench.run_end_to_end().expect("suite models profile")[0].total_latency_s()
}

/// Figure 1 + §1: GEMMs dominate on CPUs (49–94% of time) and GPU
/// acceleration collapses end-to-end latency.
#[test]
fn fig1_gemm_dominates_cpu_and_gpu_accelerates() {
    for alias in ["gpt2-xl", "vit-l"] {
        let cpu = breakdown(
            alias,
            Platform::data_center().cpu_only(),
            false,
            Flow::Eager,
            1,
        );
        assert!(
            cpu.gemm_frac() > 0.49,
            "{alias}: CPU GEMM share {:.2} below the paper's 49% floor",
            cpu.gemm_frac()
        );
        let t_cpu = latency(alias, Platform::data_center().cpu_only(), false);
        let t_gpu = latency(alias, Platform::data_center(), true);
        assert!(
            t_gpu < t_cpu / 1.5,
            "{alias}: GPU must clearly beat the CPU"
        );
    }
}

/// §4.3 bullet 1: averaged over the suite, the non-GEMM share grows from
/// ~27% (CPU-only) into the ~55%+ band with a GPU.
#[test]
fn headline_non_gemm_share_shift() {
    let mut cpu = Vec::new();
    let mut gpu = Vec::new();
    for &m in ModelId::all() {
        let alias = m.spec().alias;
        cpu.push(
            breakdown(
                alias,
                Platform::data_center().cpu_only(),
                false,
                Flow::Eager,
                1,
            )
            .non_gemm_frac(),
        );
        gpu.push(breakdown(alias, Platform::data_center(), true, Flow::Eager, 1).non_gemm_frac());
    }
    let cpu_avg = cpu.iter().sum::<f64>() / cpu.len() as f64;
    let gpu_avg = gpu.iter().sum::<f64>() / gpu.len() as f64;
    assert!(
        (0.15..0.45).contains(&cpu_avg),
        "CPU avg {cpu_avg:.2} (paper 0.27)"
    );
    assert!(
        (0.45..0.75).contains(&gpu_avg),
        "GPU avg {gpu_avg:.2} (paper 0.55)"
    );
    assert!(gpu_avg > cpu_avg + 0.15);
}

/// Figure 5 / §4.1.1: per-model non-GEMM growth after acceleration for the
/// vision transformers the paper quotes.
#[test]
fn fig5_vision_transformers_shift_to_non_gemm() {
    for (alias, paper_gpu_share) in [("vit-b", 0.60), ("vit-l", 0.55), ("sw-s", 0.55)] {
        let cpu = breakdown(
            alias,
            Platform::data_center().cpu_only(),
            false,
            Flow::Eager,
            1,
        );
        let gpu = breakdown(alias, Platform::data_center(), true, Flow::Eager, 1);
        assert!(
            gpu.non_gemm_frac() > cpu.non_gemm_frac(),
            "{alias}: acceleration must raise the non-GEMM share"
        );
        // within ±15 points of the paper's reported share
        assert!(
            (gpu.non_gemm_frac() - paper_gpu_share).abs() < 0.15,
            "{alias}: GPU non-GEMM {:.2} vs paper {paper_gpu_share:.2}",
            gpu.non_gemm_frac()
        );
    }
}

/// §4.1.1: the batch-size effect — ViT-Huge keeps a larger GEMM share
/// than ViT-Base at the same batch (bigger GEMMs amortize overheads).
#[test]
fn bigger_models_stay_gemm_heavier() {
    let huge = breakdown("vit-h", Platform::data_center(), true, Flow::Eager, 8);
    let base = breakdown("vit-b", Platform::data_center(), true, Flow::Eager, 8);
    assert!(huge.gemm_frac() > base.gemm_frac());
}

/// §4.1.1: increasing the batch size raises the GEMM share (overheads
/// amortize over more useful work).
#[test]
fn batch_size_amortizes_non_gemm() {
    // vision at batch 8; language models at the paper's batch 64 (at small
    // batches LLM GEMMs are weight-streaming-bound, so only large batches
    // move the needle — the same effect Table 4's batch-64 rows show)
    for (alias, big) in [("vit-l", 8), ("gpt2", 64), ("bert", 64)] {
        let b1 = breakdown(alias, Platform::data_center(), true, Flow::Eager, 1);
        let bn = breakdown(alias, Platform::data_center(), true, Flow::Eager, big);
        assert!(
            bn.gemm_frac() > b1.gemm_frac(),
            "{alias}: batch {big} GEMM {:.2} should exceed batch 1 {:.2}",
            bn.gemm_frac(),
            b1.gemm_frac()
        );
    }
}

/// §4.1.2: detection models become non-GEMM-dominated on the GPU, and the
/// dominant group is Normalization (the custom FrozenBatchNorm2d).
#[test]
fn detection_dominated_by_normalization() {
    for alias in ["frcnn", "mrcnn", "detr"] {
        let b = breakdown(alias, Platform::data_center(), true, Flow::Eager, 1);
        assert!(
            b.non_gemm_frac() > 0.55,
            "{alias}: non-GEMM {:.2}",
            b.non_gemm_frac()
        );
        let (group, frac) = b.dominant_group().expect("has non-GEMM ops");
        assert_eq!(
            group,
            NonGemmGroup::Normalization,
            "{alias} dominated by {group}"
        );
        assert!(frac > 0.25, "{alias}: Norm share {frac:.2} (paper 40–60%)");
    }
}

/// §4.1.4 / Table 4: GPT-2's top non-GEMM group on the GPU is Activation
/// (the decomposed NewGELU), Llama-2's is element-wise Arithmetic.
#[test]
fn language_model_dominant_groups() {
    for alias in ["gpt2", "gpt2-xl"] {
        let b = breakdown(alias, Platform::data_center(), true, Flow::Eager, 1);
        let (group, frac) = b.dominant_group().expect("has non-GEMM ops");
        assert_eq!(
            group,
            NonGemmGroup::Activation,
            "{alias} dominated by {group}"
        );
        assert!(frac > 0.15, "{alias}: Act share {frac:.2} (paper ~23%)");
    }
    let llama = breakdown("llama2", Platform::data_center(), true, Flow::Eager, 1);
    let (group, _) = llama.dominant_group().expect("has non-GEMM ops");
    assert_eq!(
        group,
        NonGemmGroup::Arithmetic,
        "llama2 dominated by {group}"
    );
}

/// §4.2 / Figures 7–8: under ONNX Runtime on a GPU, the Memory group
/// dominates the non-GEMM time for the transformer models, and the overall
/// non-GEMM share grows over eager.
#[test]
fn ort_memory_dominance() {
    let mut eager_avg = 0.0;
    let mut ort_avg = 0.0;
    for &m in ModelId::all() {
        let alias = m.spec().alias;
        let eager = breakdown(alias, Platform::data_center(), true, Flow::Eager, 1);
        let ort = breakdown(alias, Platform::data_center(), true, Flow::Ort, 1);
        eager_avg += eager.non_gemm_frac();
        ort_avg += ort.non_gemm_frac();
        if m.spec().task == Task::LanguageModel {
            let (group, _) = ort.dominant_group().expect("non-GEMM ops");
            assert_eq!(
                group,
                NonGemmGroup::Memory,
                "{alias} under ORT dominated by {group}"
            );
        }
    }
    assert!(
        ort_avg > eager_avg,
        "ORT must raise the average non-GEMM share"
    );
}

/// §4.2: the deployment flow changes *which* group dominates — eager GPT-2
/// is Activation-bound, ORT GPT-2 is Memory-bound.
#[test]
fn deployment_flow_changes_dominant_group() {
    let eager = breakdown("gpt2-xl", Platform::data_center(), true, Flow::Eager, 1);
    let ort = breakdown("gpt2-xl", Platform::data_center(), true, Flow::Ort, 1);
    assert_eq!(
        eager.dominant_group().expect("ops").0,
        NonGemmGroup::Activation
    );
    assert_eq!(ort.dominant_group().expect("ops").0, NonGemmGroup::Memory);
    assert!(
        ort.group_frac(NonGemmGroup::Memory) > 2.0 * eager.group_frac(NonGemmGroup::Memory),
        "ORT must at least double GPT2-XL's Memory share"
    );
}

/// §4.1: the non-GEMM dominance appears on *all three* GPU platforms.
#[test]
fn all_platforms_show_the_shift() {
    for platform in Platform::all_gpu() {
        let b = breakdown("gpt2", platform.clone(), true, Flow::Eager, 1);
        assert!(
            b.non_gemm_frac() > 0.5,
            "{}: gpt2 non-GEMM {:.2}",
            platform.label(),
            b.non_gemm_frac()
        );
    }
}

/// §4.1.4: memory ops are the most *frequent* operator class in the large
/// language models (80% / 62% of operator counts in the paper).
#[test]
fn memory_ops_are_most_frequent_in_llms() {
    for (m, floor) in [(ModelId::Gpt2Xl, 0.30), (ModelId::Llama2_7b, 0.25)] {
        let g = m.build(1, Scale::Full).expect("builds");
        let mem = g.group_count(NonGemmGroup::Memory) as f64 / g.len() as f64;
        assert!(mem > floor, "{m}: memory op fraction {mem:.2}");
        // memory is the largest non-GEMM group by count
        for &other in NonGemmGroup::all() {
            if other != NonGemmGroup::Memory {
                assert!(g.group_count(NonGemmGroup::Memory) >= g.group_count(other));
            }
        }
    }
}

/// Energy ordering: data-center hardware burns more joules per inference
/// at full tilt than mobile for the same workload, but finishes faster.
#[test]
fn energy_and_latency_orderings() {
    let dc = NonGemmBench::new(BenchConfig {
        models: vec!["vit-b".into()],
        platform: Platform::data_center(),
        ..BenchConfig::default()
    });
    let mb = NonGemmBench::new(BenchConfig {
        models: vec!["vit-b".into()],
        platform: Platform::mobile(),
        ..BenchConfig::default()
    });
    let p_dc = &dc.run_end_to_end().expect("profiles")[0];
    let p_mb = &mb.run_end_to_end().expect("profiles")[0];
    assert!(p_dc.total_latency_s() < p_mb.total_latency_s());
    assert!(p_dc.total_energy_j() > 0.0 && p_mb.total_energy_j() > 0.0);
}
