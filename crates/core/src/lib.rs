//! # nongemm — NonGEMM Bench in Rust
//!
//! A from-scratch Rust reproduction of *NonGEMM Bench: Understanding the
//! Performance Horizon of the Latest ML Workloads with NonGEMM Workloads*
//! (ISPASS 2025): a benchmark and profiling harness that breaks ML
//! inference down into **GEMM** and **non-GEMM** operators and shows how
//! GPU acceleration shifts the Amdahl's-law balance toward the non-GEMM
//! side.
//!
//! This crate is the facade: it re-exports every subsystem and provides
//! the [`NonGemmBench`] harness that mirrors the paper's Figure 4 — model
//! registry in, end-to-end and microbench flows out.
//!
//! ## Subsystems
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `ngb-tensor` | strided tensors with view semantics |
//! | [`ops`] | `ngb-ops` | executable kernels + analytic costs |
//! | [`graph`] | `ngb-graph` | operator-graph IR and classification |
//! | [`exec`] | `ngb-exec` | sequential + parallel graph execution engine |
//! | [`analyze`] | `ngb-analyze` | static graph analysis + lint diagnostics |
//! | [`sanitize`] | `ngb-sanitize` | schedule/memory hazard verifier + fault injection |
//! | [`models`] | `ngb-models` | the 18 Table 1 model builders |
//! | [`platform`] | `ngb-platform` | Table 3 device roofline models |
//! | [`runtime`] | `ngb-runtime` | deployment flows (eager/TS/Dynamo/ORT) |
//! | [`profiler`] | `ngb-profiler` | end-to-end profiling + reports |
//! | [`regress`] | `ngb-regress` | renderer of the committed `baselines/` |
//! | [`shard`] | `ngb-shard` | multi-device partitioner + executed collectives |
//! | [`microbench`] | `ngb-microbench` | harvested non-GEMM op registry |
//! | [`data`] | `ngb-data` | synthetic ImageNet/COCO/wikitext |
//!
//! ## Quickstart
//!
//! ```
//! use nongemm::{BenchConfig, NonGemmBench};
//!
//! # fn main() -> Result<(), ngb_tensor::TensorError> {
//! let bench = NonGemmBench::new(BenchConfig {
//!     models: vec!["gpt2".into()],
//!     scale: nongemm::Scale::Full,
//!     ..BenchConfig::default()
//! });
//! let profiles = bench.run_end_to_end()?;
//! let breakdown = profiles[0].breakdown();
//! println!("non-GEMM share: {:.0}%", breakdown.non_gemm_frac() * 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use ngb_analyze as analyze;
pub use ngb_data as data;
pub use ngb_exec as exec;
pub use ngb_graph as graph;
pub use ngb_microbench as microbench;
pub use ngb_models as models;
pub use ngb_ops as ops;
pub use ngb_opt as opt;
pub use ngb_platform as platform;
pub use ngb_profiler as profiler;
pub use ngb_regress as regress;
pub use ngb_runtime as runtime;
pub use ngb_sanitize as sanitize;
pub use ngb_serve as serve;
pub use ngb_shard as shard;
pub use ngb_tensor as tensor;

pub use ngb_analyze::{AnalysisReport, Analyzer, Lint, LintConfig, Severity};
pub use ngb_exec::{Engine, ExecutionTrace, Interpreter, Schedule, ThreadPool};
pub use ngb_graph::{Graph, NonGemmGroup, OpClass, OpKind};
pub use ngb_microbench::{MicroResult, OperatorRegistry};
pub use ngb_models::{ModelId, ModelRegistry, Scale, Task};
pub use ngb_opt::{optimize, optimize_with, OptLevel, OptReport};
pub use ngb_platform::{DeviceModel, HardwareClass, Platform};
pub use ngb_profiler::report::{NonGemmReport, PerformanceReport, WorkloadReport};
pub use ngb_profiler::{Breakdown, ModelProfile};
pub use ngb_runtime::Flow;
pub use ngb_sanitize::{Hazard, HazardKind, SanitizeReport};

mod compare;
pub use compare::{comparison_table, BenchmarkFeatures};

use ngb_tensor::TensorError;

/// Inputs of a benchmark run (the paper's Figure 4 input block: models,
/// deployment flow, datasets are implied by the models, misc
/// configuration).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Model aliases to run; empty means the full 18-model registry.
    pub models: Vec<String>,
    /// Deployment software flow.
    pub flow: Flow,
    /// Hardware platform.
    pub platform: Platform,
    /// Run on the platform's GPU when present.
    pub use_gpu: bool,
    /// Batch size.
    pub batch: usize,
    /// Model scale (full = paper configs, tiny = executable toys).
    pub scale: Scale,
    /// Iterations for measured (host-executed) profiling.
    pub iterations: usize,
    /// Worker threads for measured execution and verification; more than
    /// one selects the parallel engine.
    pub threads: usize,
    /// Graph-rewrite optimization level applied to every built graph.
    pub opt_level: OptLevel,
    /// Intra-op data parallelism for measured execution.
    pub intra_op: bool,
    /// Shadow-memory execution sanitizer for measured execution.
    pub sanitize: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            models: Vec::new(),
            flow: Flow::Eager,
            platform: Platform::data_center(),
            use_gpu: true,
            batch: 1,
            scale: Scale::Full,
            iterations: 3,
            threads: 1,
            opt_level: OptLevel::O0,
            intra_op: true,
            sanitize: false,
        }
    }
}

/// The top-level harness: builds the selected models and runs the
/// end-to-end and microbench flows.
#[derive(Debug)]
pub struct NonGemmBench {
    config: BenchConfig,
}

impl NonGemmBench {
    /// Creates a harness from `config`.
    pub fn new(config: BenchConfig) -> NonGemmBench {
        NonGemmBench { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// Models selected by the configuration, in registry order; an alias
    /// that names no model selects nothing.
    pub fn selected_models(&self) -> Vec<ModelId> {
        let models = &self.config.models;
        ModelId::all()
            .iter()
            .copied()
            .filter(|&m| models.is_empty() || models.iter().any(|a| ModelId::parse(a) == Some(m)))
            .collect()
    }

    /// Builds the operator graphs for the selected models, rewritten at
    /// the configured `opt_level`. Every flow — end-to-end,
    /// measured, microbench, verify — therefore sees the optimized graphs.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build_graphs(&self) -> Result<Vec<Graph>, TensorError> {
        Ok(self
            .build_graphs_with_reports()?
            .into_iter()
            .map(|(g, _)| g)
            .collect())
    }

    /// Like [`NonGemmBench::build_graphs`], but also returns what the
    /// optimizer did to each graph.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn build_graphs_with_reports(&self) -> Result<Vec<(Graph, OptReport)>, TensorError> {
        self.selected_models()
            .into_iter()
            .map(|m| {
                let g = m.build(self.config.batch, self.config.scale)?;
                Ok(ngb_opt::optimize(&g, self.config.opt_level))
            })
            .collect()
    }

    /// Runs the end-to-end flow analytically on the configured platform,
    /// returning one profile per selected model.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn run_end_to_end(&self) -> Result<Vec<ModelProfile>, TensorError> {
        Ok(self
            .build_graphs()?
            .iter()
            .map(|g| {
                ngb_profiler::profile_analytic(
                    g,
                    &self.config.platform,
                    self.config.flow,
                    self.config.use_gpu,
                    self.config.batch,
                )
            })
            .collect())
    }

    /// The engine value measured runs use: seed `0x5eed`, the parallel
    /// engine when the `threads` setting asks for more than one worker,
    /// and the `intra_op` and `sanitize` settings.
    pub fn interpreter(&self) -> Interpreter {
        let mut interp = Interpreter::new(0x5eed);
        if self.config.threads > 1 {
            interp = interp.engine(Engine::Parallel(self.config.threads));
        }
        interp
            .intra_op(self.config.intra_op)
            .sanitize(self.config.sanitize)
    }

    /// Runs the end-to-end flow by real host execution (sensible with
    /// [`Scale::Tiny`]) through [`NonGemmBench::interpreter`], one per
    /// model so each model's parameters are released with its profile.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction or kernel errors.
    pub fn run_measured(&self) -> Result<Vec<ModelProfile>, TensorError> {
        self.build_graphs()?
            .iter()
            .map(|g| ngb_profiler::profile_measured(g, self.config.iterations, &self.interpreter()))
            .collect()
    }

    /// Runs the `ngb-sanitize` static hazard verifier over every selected
    /// model's graph — happens-before coverage, storage-interference
    /// soundness, partition disjointness — one report per model. With
    /// `execute` set, each statically clean graph is additionally executed
    /// under the shadow-memory sanitizer on the configured engine; a
    /// runtime violation is appended to that model's report as a
    /// [`HazardKind::Runtime`] hazard instead of failing the sweep.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors (sanitizer findings are
    /// reported, not raised).
    pub fn sanitize(&self, execute: bool) -> Result<Vec<SanitizeReport>, TensorError> {
        self.build_graphs()?
            .iter()
            .map(|g| {
                let mut report = ngb_sanitize::verify_graph(g);
                if execute && report.is_clean() {
                    if let Err(e) = self.interpreter().sanitize(true).run(g) {
                        report.push(
                            HazardKind::Runtime,
                            Vec::new(),
                            format!("sanitized execution failed: {e}"),
                        );
                    }
                }
                Ok(report)
            })
            .collect()
    }

    /// Runs the microbench flow: harvests every non-GEMM operator instance
    /// of the selected models into a registry and evaluates each on the
    /// configured device.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn run_microbench(&self) -> Result<(OperatorRegistry, Vec<MicroResult>), TensorError> {
        let graphs = self.build_graphs()?;
        let mut registry = OperatorRegistry::new();
        registry.harvest_suite(graphs.iter());
        let device = if self.config.use_gpu && self.config.platform.has_gpu() {
            self.config.platform.gpu.clone().expect("checked")
        } else {
            self.config.platform.cpu.clone()
        };
        let results = registry
            .iter()
            .map(|r| registry.evaluate(r, &device))
            .collect();
        Ok((registry, results))
    }

    /// Runs the `ngb-analyze` static analyzer over every selected model's
    /// graph (the `nongemm-cli verify` flow), one report per model, in the
    /// original selection order. With more than one thread the models are
    /// analyzed concurrently on a [`ThreadPool`].
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn verify(&self) -> Result<Vec<AnalysisReport>, TensorError> {
        let graphs = self.build_graphs()?;
        let threads = self.config.threads.min(graphs.len().max(1));
        if threads <= 1 {
            let analyzer = Analyzer::new();
            return Ok(graphs.iter().map(|g| analyzer.analyze(g)).collect());
        }
        let pool = ThreadPool::new(threads);
        let (tx, rx) = std::sync::mpsc::channel();
        let n = graphs.len();
        for (i, g) in graphs.into_iter().enumerate() {
            let tx = tx.clone();
            pool.spawn(move |_worker| {
                let _ = tx.send((i, Analyzer::new().analyze(&g)));
            });
        }
        drop(tx);
        let mut reports: Vec<Option<AnalysisReport>> = (0..n).map(|_| None).collect();
        for (i, report) in rx {
            reports[i] = Some(report);
        }
        Ok(reports
            .into_iter()
            .map(|r| r.expect("every verify job reports"))
            .collect())
    }

    /// Emits the three §3.2.4 reports for every selected model.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors.
    pub fn reports(
        &self,
    ) -> Result<Vec<(PerformanceReport, WorkloadReport, NonGemmReport)>, TensorError> {
        let graphs = self.build_graphs()?;
        let profiles = self.run_end_to_end()?;
        Ok(graphs
            .iter()
            .zip(&profiles)
            .map(|(g, p)| {
                (
                    PerformanceReport::from_profile(p),
                    WorkloadReport::from_graph(g),
                    NonGemmReport::from_graph(g),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_selects_all_models() {
        let b = NonGemmBench::new(BenchConfig::default());
        assert_eq!(b.selected_models().len(), 18);
    }

    #[test]
    fn named_selection() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["gpt2".into(), "vit-l".into()],
            ..BenchConfig::default()
        });
        let sel = b.selected_models();
        assert_eq!(sel.len(), 2);
        assert!(sel.contains(&ModelId::Gpt2));
        assert!(sel.contains(&ModelId::VitLarge16));
    }

    #[test]
    fn end_to_end_and_reports() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["gpt2".into()],
            scale: Scale::Tiny,
            ..BenchConfig::default()
        });
        let profiles = b.run_end_to_end().unwrap();
        assert_eq!(profiles.len(), 1);
        assert!(profiles[0].total_latency_s() > 0.0);
        let reports = b.reports().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].0.latency_ms > 0.0);
    }

    #[test]
    fn measured_flow_runs_tiny_models() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["bert".into()],
            scale: Scale::Tiny,
            iterations: 1,
            ..BenchConfig::default()
        });
        let p = b.run_measured().unwrap();
        assert_eq!(p.len(), 1);
        assert!(p[0].total_latency_s() > 0.0);
    }

    #[test]
    fn verify_flow_is_clean_for_presets() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["gpt2".into(), "resnet50".into()],
            scale: Scale::Tiny,
            ..BenchConfig::default()
        });
        let reports = b.verify().unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.is_clean(), "{}: {:?}", r.graph_name, r.deny_count());
            assert!(r.census.nodes > 0);
        }
    }

    #[test]
    fn parallel_verify_preserves_model_order() {
        let models = vec!["gpt2".into(), "resnet50".into(), "bert".into()];
        let seq = NonGemmBench::new(BenchConfig {
            models: models.clone(),
            scale: Scale::Tiny,
            threads: 1,
            ..BenchConfig::default()
        });
        let par = NonGemmBench::new(BenchConfig {
            models,
            scale: Scale::Tiny,
            threads: 4,
            ..BenchConfig::default()
        });
        let a = seq.verify().unwrap();
        let b = par.verify().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph_name, y.graph_name);
            assert_eq!(x.diagnostics.len(), y.diagnostics.len());
            assert_eq!(x.parallelism, y.parallelism);
        }
    }

    #[test]
    fn sanitize_flow_is_hazard_free_for_presets() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["gpt2".into(), "mrcnn".into()],
            scale: Scale::Tiny,
            threads: 2,
            sanitize: true,
            ..BenchConfig::default()
        });
        assert!(b.interpreter().sanitize_enabled());
        let reports = b.sanitize(true).unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert!(r.is_clean(), "{}", r.to_text());
            assert!(r.stats.ordered_pairs_proved > 0, "{}", r.graph_name);
        }
    }

    #[test]
    fn threads_setting_picks_the_engine() {
        let mk = |threads| {
            NonGemmBench::new(BenchConfig {
                threads,
                ..BenchConfig::default()
            })
        };
        let default = NonGemmBench::new(BenchConfig::default()).interpreter();
        assert_eq!(default.engine_kind(), Engine::Sequential);
        assert_eq!(mk(0).interpreter().engine_kind(), Engine::Sequential);
        assert_eq!(mk(1).interpreter().engine_kind(), Engine::Sequential);
        assert_eq!(mk(4).interpreter().engine_kind(), Engine::Parallel(4));
        assert_eq!(mk(4).interpreter().engine_kind().threads(), 4);
    }

    #[test]
    fn intra_op_setting_resolves() {
        let mk = |intra_op| {
            NonGemmBench::new(BenchConfig {
                intra_op,
                ..BenchConfig::default()
            })
        };
        assert!(mk(true).interpreter().intra_op_enabled());
        assert!(!mk(false).interpreter().intra_op_enabled());
        assert!(NonGemmBench::new(BenchConfig::default())
            .interpreter()
            .intra_op_enabled());
    }

    #[test]
    fn measured_flow_is_identical_with_intra_op_on_and_off() {
        let mk = |intra_op| {
            NonGemmBench::new(BenchConfig {
                models: vec!["gpt2".into()],
                scale: Scale::Tiny,
                iterations: 1,
                threads: 2,
                intra_op,
                ..BenchConfig::default()
            })
        };
        let on = mk(true).run_measured().unwrap();
        let off = mk(false).run_measured().unwrap();
        assert_eq!(on[0].nodes.len(), off[0].nodes.len());
        for (a, b) in on[0].nodes.iter().zip(&off[0].nodes) {
            // chunk partitioning is shape-pure: same count either way
            assert_eq!(a.intra_chunks, b.intra_chunks, "node {}", a.name);
        }
    }

    #[test]
    fn measured_flow_respects_the_parallel_engine() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["vit-b".into()],
            scale: Scale::Tiny,
            iterations: 1,
            threads: 2,
            ..BenchConfig::default()
        });
        let p = b.run_measured().unwrap();
        assert_eq!(p.len(), 1);
        assert!(p[0].total_latency_s() > 0.0);
    }

    #[test]
    fn opt_level_rewrites_built_graphs() {
        let mk = |opt_level| {
            NonGemmBench::new(BenchConfig {
                models: vec!["resnet50".into()],
                scale: Scale::Tiny,
                opt_level,
                ..BenchConfig::default()
            })
        };
        let unopt = mk(OptLevel::O0).build_graphs().unwrap();
        let built = mk(OptLevel::O2).build_graphs_with_reports().unwrap();
        let (g2, report) = &built[0];
        assert!(report.fusions() > 0, "resnet50 has conv+bn+relu chains");
        assert!(g2.len() < unopt[0].len());
        // O0, the default, runs the graph exactly as built
        assert_eq!(BenchConfig::default().opt_level, OptLevel::O0);
        let raw = ModelId::ResNet50.build(1, Scale::Tiny).unwrap();
        assert_eq!(unopt[0].len(), raw.len());
    }

    #[test]
    fn microbench_flow_builds_registry() {
        let b = NonGemmBench::new(BenchConfig {
            models: vec!["gpt2".into(), "bert".into()],
            scale: Scale::Tiny,
            ..BenchConfig::default()
        });
        let (reg, results) = b.run_microbench().unwrap();
        assert!(!reg.is_empty());
        assert_eq!(reg.len(), results.len());
    }
}
