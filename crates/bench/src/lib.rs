//! # ngb-bench
//!
//! The renderers of `artifacts/` for the NonGEMM Bench reproduction, plus
//! the two Criterion kernel benches (`gemm_kernels`, `nongemm_kernels`).
//! [`ARTIFACTS`] names every paper figure and table and every extension
//! study (DESIGN.md §4 and §8 index them); the `artifacts` binary writes
//! them and `tests/artifacts.rs` fails when a committed file differs from
//! its renderer. Every profile is analytic over the paper's unoptimized
//! (-O0) full-scale graphs, so no artifact depends on an opt level.
//!
//! Wall-clock measurement of the stack itself (graph execution, serving,
//! decode, sharding) is not here: it lives in the standalone `benchmark/`
//! crate declared by `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use nongemm::profiler::profile_analytic;
use nongemm::{Flow, ModelId, ModelProfile, Platform, Scale};

mod extensions;
mod paper;

/// One rendered artifact: the content of `artifacts/<name>.txt` and, for
/// the group-breakdown figures, of `artifacts/<name>.csv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The text file.
    pub text: String,
    /// The CSV file, where the artifact has one.
    pub csv: Option<String>,
}

impl From<String> for Artifact {
    fn from(text: String) -> Artifact {
        Artifact { text, csv: None }
    }
}

/// Renders one artifact.
pub type Render = fn() -> Artifact;

/// Every artifact by file name, in the order the README lists them.
pub const ARTIFACTS: &[(&str, Render)] = &[
    ("fig1", paper::fig1),
    ("fig5", || {
        paper::group_figure(
            "Figure 5: Data Center breakdown across operator groups (eager)",
            paper::cpu_vs_gpu(Platform::data_center()),
            Flow::Eager,
            true,
        )
    }),
    ("fig6", || {
        paper::group_figure(
            "Figure 6: Workstation breakdown across operator groups (eager, batch 1)",
            paper::cpu_vs_gpu(Platform::workstation()),
            Flow::Eager,
            false,
        )
    }),
    ("fig7", paper::fig7),
    ("fig8", || {
        paper::group_figure(
            "Figure 8: ONNX Runtime breakdown, Mobile vs Data Center GPUs (batch 1)",
            [
                ("Mobile (RTX 4060m)", Platform::mobile(), true),
                ("Data Center (A100)", Platform::data_center(), true),
            ],
            Flow::Ort,
            false,
        )
    }),
    ("table2", paper::table2),
    ("table4", paper::table4),
    ("table5", paper::table5),
    ("summary", paper::summary),
    ("microbench", paper::microbench),
    ("ablation", extensions::ablation),
    ("batch_sweep", extensions::batch_sweep),
    ("energy", extensions::energy),
    ("sensitivity", extensions::sensitivity),
    ("attention_fusion", extensions::attention_fusion),
    ("decode", extensions::decode),
];

/// The repository's `artifacts/` directory.
pub fn artifacts_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
        .join("artifacts")
}

/// Analytic profile of `model`'s full-scale graph at `batch`: the paper's
/// unoptimized graph.
///
/// # Panics
///
/// Panics when the graph does not build or its GEMM + non-GEMM fractions
/// do not sum to 1.
fn profile(
    model: ModelId,
    batch: usize,
    platform: &Platform,
    gpu: bool,
    flow: Flow,
) -> ModelProfile {
    let graph = model.build(batch, Scale::Full).expect("suite models build");
    let p = profile_analytic(&graph, platform, flow, gpu, batch);
    let b = p.breakdown();
    let sum = b.gemm_frac() + b.non_gemm_frac();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "{model}: fractions sum to {sum}, not 1"
    );
    p
}
