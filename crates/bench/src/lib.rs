//! # ngb-bench
//!
//! The binaries that regenerate `artifacts/` for the NonGEMM Bench
//! reproduction, plus the two Criterion kernel benches (`gemm_kernels`,
//! `nongemm_kernels`). Each binary prints the rows/series of one paper
//! artifact or extension experiment (see DESIGN.md §4 for the index):
//!
//! * `fig1` — GPT2-XL & ViT-L/16 GEMM vs non-GEMM, CPU vs +A100
//! * `fig5` / `fig6` — data-center / workstation group breakdowns
//! * `fig7` — eager vs ORT on A100 for GPT2-XL & Llama-2
//! * `fig8` — ORT breakdowns on mobile vs data center
//! * `table2` — harvested non-GEMM operator characterization
//! * `table4` — most expensive non-GEMM group per model/batch
//! * `table5` — benchmark feature comparison
//! * `summary` — the §4.3 headline averages
//! * `microbench` — the standalone operator registry replay
//! * `ablation`, `sensitivity`, `batch_sweep`, `energy`,
//!   `attention_fusion`, `decode` — the extension experiments
//!
//! Wall-clock measurement of the stack itself (graph execution, serving,
//! decode, sharding) is not here: it lives in the standalone `benchmark/`
//! crate declared by `BENCHMARK.json`.

#![forbid(unsafe_code)]

use nongemm::{Breakdown, ModelProfile, NonGemmGroup};

/// Formats a breakdown as a fixed-width percentage row over the given
/// groups.
pub fn percent_row(b: &Breakdown, groups: &[NonGemmGroup]) -> String {
    let mut s = format!("{:>6.1}%", b.gemm_frac() * 100.0);
    for &g in groups {
        s.push_str(&format!(" {:>7.1}%", b.group_frac(g) * 100.0));
    }
    s
}

/// The group columns used by the figure outputs (the paper's legend).
pub fn figure_groups() -> Vec<NonGemmGroup> {
    vec![
        NonGemmGroup::Normalization,
        NonGemmGroup::Activation,
        NonGemmGroup::Memory,
        NonGemmGroup::Arithmetic,
        NonGemmGroup::LogitComputation,
        NonGemmGroup::RoiSelection,
        NonGemmGroup::Interpolation,
        NonGemmGroup::Pooling,
        NonGemmGroup::Embedding,
        NonGemmGroup::Other,
    ]
}

/// Header matching [`percent_row`] (labels truncated to the column width).
pub fn percent_header(groups: &[NonGemmGroup]) -> String {
    let mut s = format!("{:>7}", "GEMM");
    for &g in groups {
        let label = &g.label()[..g.label().len().min(8)];
        s.push_str(&format!(" {label:>8}"));
    }
    s
}

/// Sanity check used by every figure binary: the printed fractions must
/// partition the total.
///
/// # Panics
///
/// Panics when GEMM + non-GEMM fractions do not sum to 1.
pub fn assert_partition(profile: &ModelProfile) {
    let b = profile.breakdown();
    let sum = b.gemm_frac() + b.non_gemm_frac();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "{}: fractions sum to {sum}, not 1",
        profile.model
    );
}

/// Writes `content` to `$NGB_OUT_DIR/<name>.csv` when the `NGB_OUT_DIR`
/// environment variable is set, so figure data can be collected by scripts;
/// silently does nothing otherwise. Returns whether a file was written.
pub fn maybe_write_csv(name: &str, content: &str) -> bool {
    let Ok(dir) = std::env::var("NGB_OUT_DIR") else {
        return false;
    };
    let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
    match std::fs::write(&path, content) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            false
        }
    }
}

/// CSV row of a breakdown: `label,gemm,<groups...>` fractions.
pub fn csv_breakdown_row(label: &str, b: &Breakdown, groups: &[NonGemmGroup]) -> String {
    let mut s = format!("{label},{:.4}", b.gemm_frac());
    for &g in groups {
        s.push_str(&format!(",{:.4}", b.group_frac(g)));
    }
    s
}

#[cfg(test)]
mod tests {
    use nongemm::{BenchConfig, NonGemmBench, Scale};

    #[test]
    fn helpers_render() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["gpt2".into()],
            scale: Scale::Tiny,
            ..BenchConfig::default()
        });
        let p = &b.run_end_to_end().unwrap()[0];
        super::assert_partition(p);
        let groups = super::figure_groups();
        let row = super::percent_row(&p.breakdown(), &groups);
        assert!(row.contains('%'));
        assert_eq!(
            super::percent_header(&groups).split_whitespace().count(),
            groups.len() + 1
        );
    }
}
