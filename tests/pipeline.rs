//! Deployment-flow pipeline invariants across crates: fusion reduces
//! kernels, ORT fallback adds transfers, and the measured interpreter path
//! agrees with graph structure.

use nongemm::runtime::{plan, Placement};
use nongemm::{Flow, ModelId, Scale};

#[test]
fn dynamo_fuses_fewer_kernels_than_eager() {
    for &m in [ModelId::Gpt2, ModelId::Llama2_7b, ModelId::ResNet50].iter() {
        let g = m.build(1, Scale::Full).expect("builds");
        let eager = plan(&g, Flow::Eager, true);
        let dynamo = plan(&g, Flow::Dynamo, true);
        assert!(
            dynamo.total_kernels() < eager.total_kernels(),
            "{m}: dynamo {} vs eager {}",
            dynamo.total_kernels(),
            eager.total_kernels()
        );
        assert!(
            dynamo.nodes.iter().any(|n| n.fused_into_prev),
            "{m}: no fusion happened"
        );
    }
}

#[test]
fn ort_fallback_only_on_gpu_platforms() {
    let g = ModelId::Gpt2Xl.build(1, Scale::Full).expect("builds");
    let gpu_plan = plan(&g, Flow::Ort, true);
    let cpu_plan = plan(&g, Flow::Ort, false);
    assert!(
        gpu_plan.cpu_fallback_count() > 50,
        "GPT2-XL has many layout ops that fall back"
    );
    assert_eq!(cpu_plan.cpu_fallback_count(), 0);
    assert!(cpu_plan.nodes.iter().all(|n| n.transfer_bytes == 0.0));
    // fallen-back nodes pay transfers proportional to their tensors
    let total_transfer: f64 = gpu_plan.nodes.iter().map(|n| n.transfer_bytes).sum();
    assert!(total_transfer > 1e6, "transfers {total_transfer}");
}

#[test]
fn eager_decomposed_ops_pay_per_kernel_dispatch() {
    let g = ModelId::Llama2_7b.build(1, Scale::Full).expect("builds");
    let p = plan(&g, Flow::Eager, true);
    let norm_node = g
        .iter()
        .find(|n| matches!(n.op, nongemm::OpKind::LlamaRmsNorm { .. }))
        .expect("llama has rms norms");
    let planned = &p.nodes[norm_node.id.0];
    assert_eq!(planned.cost.kernels, 6);
    assert!(
        planned.dispatch_s >= 6.0 * 10.0e-6,
        "decomposed norm should pay 6 dispatches, got {}",
        planned.dispatch_s
    );
    // the same node under ORT is a single fused kernel
    let ort = plan(&g, Flow::Ort, true);
    assert_eq!(ort.nodes[norm_node.id.0].cost.kernels, 1);
}

#[test]
fn flows_keep_gemm_on_gpu() {
    let g = ModelId::VitBase16.build(1, Scale::Full).expect("builds");
    for &flow in Flow::all() {
        let p = plan(&g, flow, true);
        for (node, planned) in g.iter().zip(&p.nodes) {
            if node.class().is_gemm() {
                assert_eq!(
                    planned.placement,
                    Placement::Gpu,
                    "{flow}: GEMM node {} must stay on the GPU",
                    node.name
                );
            }
        }
    }
}

#[test]
fn measured_and_analytic_agree_on_hotspot_class() {
    // On the tiny GPT-2, both the host-measured profile and the analytic
    // CPU profile must attribute the largest share to GEMM operators
    // (CPU-only; this is Figure 1's CPU panel).
    let g = ModelId::Gpt2.build(1, Scale::Tiny).expect("builds");
    let measured = nongemm::profiler::profile_measured(&g, 3, &nongemm::Interpreter::new(7))
        .expect("executes");
    let analytic = nongemm::profiler::profile_analytic(
        &g,
        &nongemm::Platform::data_center().cpu_only(),
        Flow::Eager,
        false,
        1,
    );
    let m = measured.breakdown();
    let a = analytic.breakdown();
    assert!(m.gemm_frac() > 0.3, "measured GEMM {:.2}", m.gemm_frac());
    // the analytic CPU model charges per-op framework dispatch that the
    // bare interpreter does not, so its GEMM share on a toy model is lower
    assert!(a.gemm_frac() > 0.1, "analytic GEMM {:.2}", a.gemm_frac());
    let (mg, _) = m.dominant_group().expect("ops");
    let (ag, _) = a.dominant_group().expect("ops");
    assert!(m.groups.contains_key(&ag) && a.groups.contains_key(&mg));
}
