//! Deterministic metric snapshots: everything `ngb-regress` pins down
//! about one (model × scale × opt-level) configuration.

use std::collections::BTreeMap;

use ngb_analyze::Analyzer;
use ngb_exec::Schedule;
use ngb_models::{ModelId, Scale};
use ngb_opt::{optimize_with, OptLevel, OptReport};
use ngb_platform::Platform;
use ngb_profiler::profile_analytic;
use ngb_runtime::Flow;
use ngb_tensor::TensorError;
use serde::Serialize;

/// Total positions (prompt + generated) the decode-channel graphs are
/// built for, per scale. Fixed so the census is deterministic.
fn decode_total_len(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 8,
        Scale::Full => 128,
    }
}

/// The snapshot matrix: every committed baseline covers both scales at
/// all three optimization levels.
pub const SCALES: [Scale; 2] = [Scale::Tiny, Scale::Full];

/// Optimization levels covered by each baseline (see [`SCALES`]).
pub const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Graph-structure invariants (the taxonomy census of the paper's §2.1).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphMetrics {
    /// Total node count, including inputs.
    pub nodes: usize,
    /// GEMM-classified nodes.
    pub gemm: usize,
    /// Non-GEMM nodes.
    pub non_gemm: usize,
    /// Nodes with data-dependent output shapes.
    pub dynamic: usize,
    /// Synthetic parameter count.
    pub params: usize,
    /// Peak activation memory under sequential execution, bytes.
    pub peak_activation_bytes: usize,
    /// Static upper bound on bytes the optimized graph's remaining
    /// `Contiguous` nodes copy ([`Graph::contiguous_copy_bytes`]
    /// (ngb_graph::Graph::contiguous_copy_bytes)). Contiguous elision
    /// drives this to zero for transpose→matmul / attention-prologue
    /// chains; a silent rise here means a kernel regained an eager copy.
    pub bytes_materialized: usize,
    /// Non-GEMM census per taxonomy group (zero-count groups omitted).
    pub groups: BTreeMap<String, usize>,
}

/// Analytic cost-model invariants on the reference configuration
/// (data-center platform, eager flow, GPU on, batch 1). These are pure
/// f64 arithmetic — bit-stable across runs, hosts, and thread counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostMetrics {
    /// End-to-end latency, microseconds.
    pub total_us: f64,
    /// Latency in GEMM-classified operators, microseconds.
    pub gemm_us: f64,
    /// Latency in non-GEMM operators, microseconds.
    pub non_gemm_us: f64,
    /// Non-GEMM share of end-to-end latency, in `[0, 1]` (the paper's
    /// headline metric).
    pub non_gemm_frac: f64,
    /// End-to-end energy, millijoules.
    pub energy_mj: f64,
    /// Latency per non-GEMM taxonomy group, microseconds.
    pub groups_us: BTreeMap<String, f64>,
}

/// Wavefront-schedule invariants (what the parallel executor sees).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScheduleMetrics {
    /// Number of Kahn wavefronts (DAG depth).
    pub wavefronts: usize,
    /// Widest wavefront.
    pub max_width: usize,
    /// Mean wavefront width.
    pub mean_width: f64,
    /// Whether every node scheduled (always true for preset models).
    pub complete: bool,
}

/// Lint census from the `ngb-analyze` passes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LintMetrics {
    /// Deny-level findings (0 for every committed preset).
    pub deny: usize,
    /// Warn-level findings.
    pub warn: usize,
    /// Allow-level findings (fusion opportunities etc.).
    pub allow: usize,
}

/// What the graph rewriter did at this snapshot's level.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OptMetrics {
    /// Node count before rewriting.
    pub nodes_before: usize,
    /// Node count after rewriting.
    pub nodes_after: usize,
    /// Intermediate bytes no longer materialized.
    pub intermediate_bytes_saved: usize,
    /// Per-rewrite counters keyed by [`OptReport::counters`] labels.
    pub rewrites: BTreeMap<String, usize>,
}

impl From<&OptReport> for OptMetrics {
    fn from(r: &OptReport) -> OptMetrics {
        OptMetrics {
            nodes_before: r.nodes_before,
            nodes_after: r.nodes_after,
            intermediate_bytes_saved: r.intermediate_bytes_saved,
            rewrites: r
                .counters()
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Decode-channel invariants for autoregressive LMs: the census of the
/// single-token decode-step graph (KV-cache attention) and the analytic
/// prefill-vs-decode stage split. `None` for models without a decode
/// path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecodeMetrics {
    /// Node count of the decode-step graph (after this cell's opt level).
    pub nodes: usize,
    /// GEMM-classified nodes in the decode-step graph.
    pub gemm: usize,
    /// Non-GEMM nodes in the decode-step graph.
    pub non_gemm: usize,
    /// Analytic end-to-end latency of one decode step, microseconds.
    pub decode_total_us: f64,
    /// Non-GEMM share of the prefill (full-sequence) stage, `[0, 1]`.
    pub prefill_non_gemm_frac: f64,
    /// Non-GEMM share of one decode step, `[0, 1]` — the paper's
    /// generation-phase headline: at sequence length 1 every GEMM is a
    /// matrix-vector product, so this sits at or above the prefill
    /// fraction.
    pub decode_non_gemm_frac: f64,
}

/// One cell of the snapshot matrix: all deterministic invariants of a
/// (model × scale × opt-level) configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    /// Model scale ([`Scale::name`]).
    pub scale: String,
    /// Graph-rewrite level.
    pub opt_level: OptLevel,
    /// Graph-structure census.
    pub graph: GraphMetrics,
    /// Analytic cost-model totals.
    pub cost: CostMetrics,
    /// Wavefront schedule shape.
    pub schedule: ScheduleMetrics,
    /// Lint counts.
    pub lints: LintMetrics,
    /// Optimizer deltas.
    pub opt: OptMetrics,
    /// Decode-step channel (autoregressive LMs only). Serialized as
    /// `"decode": null` for every other model.
    pub decode: Option<DecodeMetrics>,
}

/// Everything `ngb-regress` pins down about one model: the full
/// scale × opt-level snapshot matrix. This is the unit of storage — one
/// JSON file per model under `baselines/`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelBaseline {
    /// Model alias (Table 4 naming, also the file stem).
    pub model: String,
    /// The snapshot matrix, in [`SCALES`] × [`OPT_LEVELS`] order.
    pub snapshots: Vec<Snapshot>,
}

impl ModelBaseline {
    /// The committed file `baselines/<model>.json`: pretty-printed JSON
    /// with a trailing newline.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baselines serialize") + "\n"
    }
}

/// Takes the deterministic snapshot of one (model × scale × opt-level)
/// cell on the reference platform.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn snapshot(id: ModelId, scale: Scale, level: OptLevel) -> Result<Snapshot, TensorError> {
    let built = id.build(1, scale)?;
    // Elision pinned on: the committed baselines record elided graphs.
    let (graph, opt_report) = optimize_with(&built, level, true);
    let analysis = Analyzer::new().analyze(&graph);
    let (deny, warn, allow) = analysis.severity_counts();
    let profile = profile_analytic(&graph, &Platform::data_center(), Flow::Eager, true, 1);
    let breakdown = profile.breakdown();
    let sched = Schedule::new(&graph).stats();

    let census = &analysis.census;
    Ok(Snapshot {
        scale: scale.name().to_string(),
        opt_level: level,
        graph: GraphMetrics {
            nodes: census.nodes,
            gemm: census.gemm,
            non_gemm: census.non_gemm(),
            dynamic: census.dynamic,
            params: graph.param_count(),
            peak_activation_bytes: graph.peak_activation_bytes(),
            bytes_materialized: graph.contiguous_copy_bytes() as usize,
            groups: census
                .groups
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(label, n)| (label.to_string(), n))
                .collect(),
        },
        cost: CostMetrics {
            total_us: breakdown.total_s * 1e6,
            gemm_us: breakdown.gemm_s * 1e6,
            non_gemm_us: breakdown.non_gemm_s() * 1e6,
            non_gemm_frac: breakdown.non_gemm_frac(),
            energy_mj: profile.total_energy_j() * 1e3,
            groups_us: breakdown
                .group_pairs()
                .into_iter()
                .map(|(label, s)| (label.to_string(), s * 1e6))
                .collect(),
        },
        schedule: ScheduleMetrics {
            wavefronts: sched.depth,
            max_width: sched.max_width,
            mean_width: sched.mean_width,
            complete: sched.complete,
        },
        lints: LintMetrics { deny, warn, allow },
        opt: OptMetrics::from(&opt_report),
        decode: decode_metrics(id, scale, level, &breakdown)?,
    })
}

/// Builds the decode channel for one snapshot cell: optimizes and
/// profiles the decode-step graph at this cell's level and splits cost
/// by [`ngb_profiler::StagePhase`]. Returns `None` for models without a
/// decode path.
fn decode_metrics(
    id: ModelId,
    scale: Scale,
    level: OptLevel,
    prefill: &ngb_profiler::Breakdown,
) -> Result<Option<DecodeMetrics>, TensorError> {
    use ngb_profiler::StagePhase;
    let Some(bundle) = ngb_models::decode_bundle(id, scale, 1, decode_total_len(scale)) else {
        return Ok(None);
    };
    let bundle = bundle?;
    let (graph, _) = optimize_with(&bundle.decode, level, true);
    let census = Analyzer::new().analyze(&graph).census;
    let profile = profile_analytic(&graph, &Platform::data_center(), Flow::Eager, true, 1)
        .with_stage(StagePhase::Decode);
    let decode = profile.stage_breakdown(StagePhase::Decode);
    Ok(Some(DecodeMetrics {
        nodes: census.nodes,
        gemm: census.gemm,
        non_gemm: census.non_gemm(),
        decode_total_us: decode.total_s * 1e6,
        prefill_non_gemm_frac: prefill.non_gemm_frac(),
        decode_non_gemm_frac: decode.non_gemm_frac(),
    }))
}

/// Builds the full baseline for one model: the [`SCALES`] × [`OPT_LEVELS`]
/// snapshot matrix.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn model_baseline(id: ModelId) -> Result<ModelBaseline, TensorError> {
    let mut snapshots = Vec::with_capacity(SCALES.len() * OPT_LEVELS.len());
    for scale in SCALES {
        for level in OPT_LEVELS {
            snapshots.push(snapshot(id, scale, level)?);
        }
    }
    Ok(ModelBaseline {
        model: id.spec().alias.to_string(),
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_deterministic() {
        let a = snapshot(ModelId::Gpt2, Scale::Tiny, OptLevel::O1).unwrap();
        let b = snapshot(ModelId::Gpt2, Scale::Tiny, OptLevel::O1).unwrap();
        assert_eq!(a, b, "two snapshots of the same cell must be identical");
        assert!(a.graph.nodes > 0);
        assert!(a.cost.total_us > 0.0);
        assert!(a.schedule.complete);
        assert_eq!(a.lints.deny, 0, "presets are deny-clean");
        assert_eq!((a.scale.as_str(), a.opt_level), ("tiny", OptLevel::O1));
    }

    #[test]
    fn opt_levels_shrink_the_graph_in_snapshots() {
        let o0 = snapshot(ModelId::ResNet50, Scale::Tiny, OptLevel::O0).unwrap();
        let o2 = snapshot(ModelId::ResNet50, Scale::Tiny, OptLevel::O2).unwrap();
        assert_eq!(o0.opt.nodes_before, o0.opt.nodes_after);
        assert!(o2.opt.nodes_after < o2.opt.nodes_before);
        assert!(o2.graph.nodes < o0.graph.nodes);
        assert!(o2.opt.rewrites.values().sum::<usize>() > 0);
    }

    #[test]
    fn model_baseline_covers_the_matrix() {
        let b = model_baseline(ModelId::Bert).unwrap();
        assert_eq!(b.model, "bert");
        let cells: Vec<(&str, OptLevel)> = b
            .snapshots
            .iter()
            .map(|s| (s.scale.as_str(), s.opt_level))
            .collect();
        let tiny = OPT_LEVELS.map(|l| ("tiny", l));
        let full = OPT_LEVELS.map(|l| ("full", l));
        assert_eq!(cells, [tiny, full].concat());
    }
}
