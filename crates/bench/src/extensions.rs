//! Extension experiments beyond the paper's artifacts: mechanism
//! ablation, batch and hardware sweeps, energy, fused attention and
//! autoregressive decode.

use std::fmt::Write;

use nongemm::models::gpt2::Gpt2Config;
use nongemm::profiler::{profile_analytic, profile_analytic_with_options};
use nongemm::runtime::RuntimeOptions;
use nongemm::{DeviceModel, Flow, ModelId, ModelProfile, NonGemmGroup, OpClass, Platform, Scale};

use crate::{profile, Artifact};

/// The data-center platform with its A100 retuned by `tune`.
fn tuned_a100(tune: impl FnOnce(&mut DeviceModel)) -> Platform {
    let mut p = Platform::data_center();
    tune(p.gpu.as_mut().expect("the data-center platform has a GPU"));
    p
}

/// Ablation study over the design choices DESIGN.md calls out: which
/// mechanism is responsible for how much of the non-GEMM dominance? For
/// each probed model on the A100 one mechanism at a time is removed:
///
/// * **fused customs** — the decomposed NewGELU / LlamaRMSNorm /
///   FrozenBatchNorm2d chains become fused library kernels (§4.1.4);
/// * **zero launch** — a hypothetical GPU with free kernel launches;
/// * **zero dispatch** — a framework with near-free per-op dispatch;
/// * **free PCIe** (ORT only) — an infinite host link, isolating the CPU
///   fallback transfer cost of §4.2.
pub(crate) fn ablation() -> Artifact {
    let mut s =
        String::from("Ablation: contribution of each overhead mechanism (A100, batch 1)\n\n");
    let _ = writeln!(
        s,
        "{:<10}{:>16}{:>16}{:>16}{:>16}{:>16}",
        "model", "eager", "fused customs", "zero launch", "zero dispatch", "ORT free PCIe"
    );
    let units = format!("{:>16}", "ng% / ms").repeat(5);
    let _ = writeln!(s, "{:<10}{units}", "");

    let dc = Platform::data_center();
    let free_launch = tuned_a100(|gpu| gpu.kernel_launch_us = 0.0);
    let free_pcie = tuned_a100(|gpu| {
        gpu.pcie_gbs = 1e9;
        gpu.transfer_fixed_us = 0.0;
    });
    use ModelId::*;
    for model in [Gpt2Xl, Llama2_7b, FasterRcnn, VitLarge16] {
        // (non-GEMM %, latency ms) per column. Dynamo's fused kernels are
        // the fused-customs proxy; TorchScript's 2.5 us dispatcher (eager:
        // 14 us) is the low-dispatch point
        let columns = [
            (&dc, Flow::Eager),
            (&dc, Flow::Dynamo),
            (&free_launch, Flow::Eager),
            (&dc, Flow::TorchScript),
            (&free_pcie, Flow::Ort),
        ]
        .map(|(platform, flow)| {
            let p = profile(model, 1, platform, true, flow);
            (
                p.breakdown().non_gemm_frac() * 100.0,
                p.total_latency_s() * 1e3,
            )
        });
        let _ = write!(s, "{:<10}", model.spec().alias);
        for (ng, ms) in columns {
            let _ = write!(s, "{ng:>9.1}/{ms:>6.2}");
        }
        let _ = writeln!(s);
        // each removed mechanism must reduce end-to-end latency
        let [base, fused, zero_launch, zero_dispatch, _] = columns.map(|(_, ms)| ms);
        assert!(fused < base, "{model}: fusing must help");
        assert!(zero_launch < base, "{model}: free launches must help");
        assert!(zero_dispatch < base, "{model}: cheaper dispatch must help");
    }
    s.push_str(
        "\nReading: the gap between 'eager' and each column is that mechanism's\n\
         contribution. Decomposed custom ops and per-op dispatch dominate the\n\
         LLM overheads; launch overhead matters most for the small-kernel\n\
         detection models.\n",
    );
    s.into()
}

/// Batch-size sweep (§4.1.1's batch discussion, extended): the non-GEMM
/// share as a function of batch size on the A100, per representative model.
/// Larger batches amortize dispatch/launch overheads and grow GEMM work,
/// shifting time back toward GEMM — except where GEMMs are weight-streaming
/// bound (small-sequence LLMs), where the crossover needs larger batches.
pub(crate) fn batch_sweep() -> Artifact {
    let mut s = String::from("Batch sweep: non-GEMM share (%) on the A100, eager\n\n");
    let batches = [1usize, 2, 4, 8, 16, 32, 64];
    let _ = write!(s, "{:<14}", "model");
    for b in batches {
        let _ = write!(s, "{b:>8}");
    }
    let _ = writeln!(s);
    use ModelId::*;
    for model in [
        ResNet50, VitBase16, VitHuge14, SwinSmall, Gpt2, Gpt2Xl, Bert,
    ] {
        let _ = write!(s, "{:<14}", model.spec().alias);
        let shares = batches.map(|batch| {
            let p = profile(model, batch, &Platform::data_center(), true, Flow::Eager);
            let ng = p.breakdown().non_gemm_frac() * 100.0;
            let _ = write!(s, "{ng:>7.1}%");
            ng
        });
        let _ = writeln!(s);
        // overall trend: batch 64 must be more GEMM-heavy than batch 1
        let [first, .., last] = shares;
        assert!(
            last < first,
            "{model}: non-GEMM share should fall with batch size"
        );
    }
    s.push_str("\n(The paper reports the same trend for its batch 1 -> 8 / 64 pairs.)\n");
    s.into()
}

/// Energy report (§3.2.2 profiles energy via nvidia-smi / uProf; this
/// reproduction integrates the TDP-based power model): per-model energy per
/// inference and its GEMM / non-GEMM split on the three platforms.
pub(crate) fn energy() -> Artifact {
    let mut s = String::from("Energy per inference (eager, batch 1)\n\n");
    let _ = writeln!(
        s,
        "{:<14}{:>22}{:>22}{:>22}",
        "model", "Mobile (J, ng%)", "Workstation (J, ng%)", "Data Center (J, ng%)"
    );
    for &model in ModelId::all() {
        let _ = write!(s, "{:<14}", model.spec().alias);
        for platform in Platform::all_gpu() {
            let p = profile(model, 1, &platform, true, Flow::Eager);
            let total = p.total_energy_j();
            let non_gemm: f64 = p
                .nodes
                .iter()
                .filter(|n| !matches!(n.class, OpClass::Gemm))
                .map(|n| n.energy_j)
                .sum();
            assert!(total > 0.0);
            let _ = write!(s, "{:>15.3} {:>5.1}%", total, non_gemm / total * 100.0);
        }
        let _ = writeln!(s);
    }
    s.push_str(
        "\nEnergy follows the latency breakdowns: after GPU acceleration the\n\
         non-GEMM operators consume the majority of the per-inference energy\n\
         as well, since they hold the (high-idle-power) devices longest.\n",
    );
    s.into()
}

/// One sensitivity sweep: a header over `values`, then one row of
/// non-GEMM shares (%) per model as `tune` sets one A100 knob to each
/// value. Returns the rows.
fn sweep(
    s: &mut String,
    title: &str,
    unit: &str,
    values: [f64; 6],
    tune: fn(&mut DeviceModel, f64),
) -> [(ModelId, [f64; 6]); 3] {
    let _ = write!(s, "{title}\n\n{:<12}", "model");
    for v in values {
        let _ = write!(s, "{v:>w$}{unit}", w = 9 - unit.len());
    }
    let _ = writeln!(s);
    [ModelId::VitLarge16, ModelId::Gpt2Xl, ModelId::FasterRcnn].map(|m| {
        let _ = write!(s, "{:<12}", m.spec().alias);
        let shares = values.map(|v| {
            let p = profile(m, 1, &tuned_a100(|gpu| tune(gpu, v)), true, Flow::Eager);
            let ng = p.breakdown().non_gemm_frac() * 100.0;
            let _ = write!(s, "{ng:>8.1}%");
            ng
        });
        let _ = writeln!(s);
        (m, shares)
    })
}

/// Sensitivity study: the Amdahl's-law argument of §1, made quantitative.
/// Sweeps (a) GEMM-engine throughput and (b) kernel-launch overhead of the
/// data-center GPU, showing that the faster the GEMM engine, the more the
/// non-GEMM operators dominate — and that launch overhead drives the
/// small-kernel models.
pub(crate) fn sensitivity() -> Artifact {
    let mut s = String::new();
    let gemm_speed = sweep(
        &mut s,
        "Sweep A: non-GEMM share (%) vs GEMM-engine speed (A100 = 1x)",
        "x",
        [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        |gpu, f| gpu.gemm_tflops *= f,
    );
    let launch_cost = sweep(
        &mut s,
        "\nSweep B: non-GEMM share (%) vs kernel-launch overhead (A100 = 4 us)",
        "us",
        [0.0, 1.0, 2.0, 4.0, 8.0, 16.0],
        |gpu, l| gpu.kernel_launch_us = l,
    );
    for (m, shares) in gemm_speed {
        assert!(
            shares.windows(2).all(|w| w[1] + 1e-9 >= w[0]),
            "{m}: faster GEMM engine must not lower the non-GEMM share"
        );
    }
    for (m, shares) in launch_cost {
        // GEMM nodes launch kernels too; the share is near-flat for fused
        // transformer stacks (ViT) and rises for models with decomposed
        // multi-kernel ops (GPT-2's NewGELU, detection's FrozenBatchNorm)
        let [first, .., last] = shares;
        assert!(last >= first - 1.0, "{m}: {first:.1} -> {last:.1}");
    }
    s.push_str(
        "\nSweep A is the Amdahl's-law story: every generation of GEMM\n\
         acceleration makes the non-GEMM side more dominant, saturating once\n\
         GEMMs are effectively free. Sweep B shows launch overhead taxes the\n\
         decomposed multi-kernel ops (GPT-2, FasterRCNN) hardest.\n",
    );
    s.into()
}

/// What happens to the paper's non-GEMM bottleneck if attention is fused
/// FlashAttention-style? The registry exists to guide exactly this kind
/// of "non-GEMM-operator-oriented optimization"; this quantifies the
/// payoff on the transformer suite.
pub(crate) fn attention_fusion() -> Artifact {
    let mut s =
        String::from("FlashAttention-style fusion on the A100 (eager dispatch, batch 1)\n\n");
    let _ = writeln!(
        s,
        "{:<12}{:>12}{:>12}{:>10}{:>14}{:>14}",
        "model", "baseline", "fused", "speedup", "logit% before", "logit% after"
    );
    let dc = Platform::data_center();
    let fuse = RuntimeOptions {
        fuse_attention: true,
    };
    let logit_pct =
        |p: &ModelProfile| p.breakdown().group_frac(NonGemmGroup::LogitComputation) * 100.0;
    use ModelId::*;
    for model in [VitBase16, VitLarge16, SwinSmall, Gpt2, Gpt2Xl, Bert, Detr] {
        let g = model.build(1, Scale::Full).expect("suite models build");
        let base = profile(model, 1, &dc, true, Flow::Eager);
        let fused = profile_analytic_with_options(&g, &dc, Flow::Eager, true, 1, fuse);
        let (tb, tf) = (base.total_latency_s(), fused.total_latency_s());
        assert!(tf < tb, "{model}: fusion must help");
        let _ = writeln!(
            s,
            "{:<12}{:>10.2}ms{:>10.2}ms{:>9.2}x{:>13.1}%{:>13.1}%",
            model.spec().alias,
            tb * 1e3,
            tf * 1e3,
            tb / tf,
            logit_pct(&base),
            logit_pct(&fused),
        );
    }
    s.push_str(
        "\nFusing the bmm-scale-mask-softmax-bmm chain removes the softmax and\n\
         scale kernels (the Logit/Arithmetic share) and the [B, T, T] score\n\
         materialization — directly attacking the non-GEMM bottleneck the\n\
         paper identifies.\n",
    );
    s.into()
}

/// Autoregressive **decode** (generation) profiles. The paper profiles
/// prefill-style forward passes; single-token decode steps with a KV cache
/// push even deeper into the non-GEMM regime — every GEMM degenerates to a
/// matrix–vector product while the operator count stays constant.
pub(crate) fn decode() -> Artifact {
    let mut s = String::from("GPT-2 prefill vs decode on the A100 (eager, batch 1)\n\n");
    let _ = writeln!(
        s,
        "{:<12}{:<16}{:>12}{:>10}{:>10}{:>10}{:>10}",
        "model", "mode", "latency", "GEMM", "Act", "Memory", "non-GEMM"
    );
    let dc = Platform::data_center();
    for (model, cfg) in [
        (ModelId::Gpt2, Gpt2Config::base()),
        (ModelId::Gpt2Large, Gpt2Config::large()),
        (ModelId::Gpt2Xl, Gpt2Config::xl()),
    ] {
        let mut rows = vec![(
            "prefill (seq 8)".to_string(),
            profile(model, 1, &dc, true, Flow::Eager),
        )];
        for past in [64usize, 512] {
            let decode = cfg.build_decode(1, past).expect("suite models build");
            let d = profile_analytic(&decode, &dc, Flow::Eager, true, 1);
            rows.push((format!("decode (past {past})"), d));
        }
        for (mode, p) in &rows {
            let b = p.breakdown();
            let _ = writeln!(
                s,
                "{:<12}{:<16}{:>10.2}ms{:>9.1}%{:>9.1}%{:>9.1}%{:>9.1}%",
                model.spec().alias,
                mode,
                p.total_latency_s() * 1e3,
                b.gemm_frac() * 100.0,
                b.group_frac(NonGemmGroup::Activation) * 100.0,
                b.group_frac(NonGemmGroup::Memory) * 100.0,
                b.non_gemm_frac() * 100.0
            );
        }
        let prefill_ng = rows[0].1.breakdown().non_gemm_frac();
        let decode_ng = rows[1].1.breakdown().non_gemm_frac();
        assert!(
            decode_ng >= prefill_ng - 0.05,
            "{model}: decode should be at least as non-GEMM-bound as prefill"
        );
        let _ = writeln!(s);
    }
    s.push_str(
        "Generation is the worst case for the paper's thesis: one token of\n\
         GEMM work carries a full graph of non-GEMM overhead every step.\n",
    );
    s.into()
}
