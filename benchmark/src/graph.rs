//! `graph_tiny` and `graph_full`: closed loop, one caller, sequential calls
//! of `Interpreter::run_with_inputs` at batch 1.
//!
//! `graph_tiny` runs all 18 tiny models at O0 and O2. Most finish in under
//! a millisecond, so per-node fixed cost, allocation and the optimizer's
//! rewrites decide the result. `graph_full` runs four full-scale models on
//! the two-thread engine with intra-op chunks: over 99 % of its wall is
//! inside kernels, so kernel and pool changes show there and dispatch
//! changes must not.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use nongemm::exec::{synth_input, ExecutionTrace, Interpreter};
use nongemm::graph::{Graph, NodeId, NonGemmGroup, OpClass, OpKind};
use nongemm::models::{ModelId, Scale};
use nongemm::opt::{optimize_with, OptLevel, OptReport};
use nongemm::profiler::breakdown_from_trace;
use nongemm::tensor::{bit_equal, Tensor, Tolerance};

use crate::common::{self, Cfg, Check, Metrics, Outcome};
use crate::golden::{self, Golden, Summary};
use crate::stats::{geomean, mean, median, median_and_tail, share};
use crate::trace::{Child, Tracer};

pub struct Spec {
    pub name: &'static str,
    scale: Scale,
    interp: Interpreter,
    threads: usize,
    /// Model and timed runs per round. Fixed, so that every commit measures
    /// the same mix; the detection models run a tenth as often because one
    /// run of theirs costs as much as a round of everything else.
    models: Vec<(ModelId, usize)>,
    /// Models of the secondary latency at full scale; at tiny scale the
    /// secondary is every model at O2.
    secondary: &'static [ModelId],
    golden: &'static str,
}

impl Spec {
    /// A run costs milliseconds, so one round fits many times in the
    /// budget. Then every model also runs at O2, a traced pass leaves every
    /// other round untraced to measure its own overhead, and the
    /// `ngb-tensor` probes are reported here.
    fn cheap(&self) -> bool {
        self.scale == Scale::Tiny
    }
}

pub fn tiny(quick: bool) -> Spec {
    let reps = if quick { 2 } else { 10 };
    let heavy = [ModelId::FasterRcnn, ModelId::MaskRcnn];
    Spec {
        name: "graph_tiny",
        scale: Scale::Tiny,
        interp: common::sequential(),
        threads: 1,
        models: ModelId::all()
            .iter()
            .map(|&m| {
                (
                    m,
                    if heavy.contains(&m) {
                        (reps / 10).max(1)
                    } else {
                        reps
                    },
                )
            })
            .collect(),
        secondary: &[],
        golden: include_str!("../golden/graph_tiny.json"),
    }
}

pub fn full(quick: bool) -> Spec {
    // quick keeps the cheapest model of each kind
    let models = if quick {
        vec![(ModelId::MobileNetV2, 1), (ModelId::SwinTiny, 1)]
    } else {
        vec![
            (ModelId::MobileNetV2, 2),
            (ModelId::ResNet50, 1),
            (ModelId::SwinTiny, 1),
            (ModelId::Segformer, 1),
        ]
    };
    Spec {
        name: "graph_full",
        scale: Scale::Full,
        interp: common::parallel(),
        threads: common::FULL_THREADS,
        models,
        // the two whose time is mostly outside GEMM kernels
        secondary: &[ModelId::SwinTiny, ModelId::Segformer],
        golden: include_str!("../golden/graph_full.json"),
    }
}

type Inputs = HashMap<NodeId, Tensor>;

struct Case {
    alias: &'static str,
    level: OptLevel,
    graph: Graph,
    /// Made from `--seed`.
    inputs: Inputs,
    reps: usize,
    secondary: bool,
    report: OptReport,
}

struct Prepared {
    cases: Vec<Case>,
    build_ms: f64,
    optimize_ms: f64,
}

fn inputs_for(graph: &Graph, seed: u64) -> Inputs {
    graph
        .iter()
        .filter(|n| matches!(n.op, OpKind::Input | OpKind::InputIds { .. }))
        .map(|n| (n.id, synth_input(seed, n)))
        .collect()
}

fn close_enough(folded: bool, a: &ExecutionTrace, b: &ExecutionTrace) -> Result<(), String> {
    if a.outputs.len() != b.outputs.len() {
        return Err("output count differs".into());
    }
    for ((_, x), (_, y)) in a.outputs.iter().zip(&b.outputs) {
        if folded {
            // Conv+BN folding reorders f32 arithmetic: the documented policy
            Tolerance::bn_folding()
                .check(x, y)
                .map_err(|e| e.to_string())?;
        } else if !bit_equal(x, y).map_err(|e| e.to_string())? {
            return Err("outputs not bit-identical".into());
        }
    }
    Ok(())
}

/// Builds, optimizes, synthesizes inputs, and runs every graph once on the
/// golden inputs, holding the outputs against the golden file (O0) and
/// against the O0 outputs (O2). Every timed run is therefore a warm one, and
/// the cold first runs are charged to `setup_s`.
fn setup(
    spec: &Spec,
    cfg: &Cfg,
    golden: &Golden,
    check: &mut Check,
    tracer: &mut Tracer,
) -> Prepared {
    let mut p = Prepared {
        cases: Vec::new(),
        build_ms: 0.0,
        optimize_ms: 0.0,
    };
    let levels: &[OptLevel] = if spec.cheap() {
        &[OptLevel::O0, OptLevel::O2]
    } else {
        &[OptLevel::O0]
    };
    for &(model, reps) in &spec.models {
        let alias = model.spec().alias;
        let t0 = Instant::now();
        let built = model.build(1, spec.scale);
        let t1 = Instant::now();
        p.build_ms += common::millis(t0, t1);
        tracer.operation("models.build", t0, t1, 0, &[], cfg.traced);
        let built = match built {
            Ok(g) => g,
            Err(e) => {
                check.record(alias, Err(format!("build: {e}")));
                continue;
            }
        };
        let mut o0_warm: Option<ExecutionTrace> = None;
        for &level in levels {
            let t0 = Instant::now();
            let (graph, report) = optimize_with(&built, level, common::ELIDE);
            let t1 = Instant::now();
            p.optimize_ms += common::millis(t0, t1);
            tracer.operation("opt.optimize", t0, t1, 0, &[], cfg.traced);
            // what `Interpreter::run` would synthesize: the golden file's inputs
            let golden_inputs = inputs_for(&graph, common::WEIGHT_SEED);
            let case = Case {
                alias,
                level,
                inputs: inputs_for(&graph, cfg.seed),
                graph,
                reps,
                secondary: level == OptLevel::O2 || spec.secondary.contains(&model),
                report,
            };
            let warm = spec.interp.run_with_inputs(&case.graph, &golden_inputs);
            let verdict = match (&warm, &o0_warm) {
                (Err(e), _) => Err(e.to_string()),
                (Ok(w), None) => against_golden(golden, alias, w),
                (Ok(w), Some(base)) => close_enough(report.conv_bn_act > 0, base, w),
            };
            check.record(alias, verdict.map_err(|e| format!("warm-up {level}: {e}")));
            if level == OptLevel::O0 {
                o0_warm = warm.ok();
            }
            p.cases.push(case);
        }
    }
    p
}

fn against_golden(golden: &Golden, alias: &str, trace: &ExecutionTrace) -> Result<(), String> {
    let want = golden.get(alias).ok_or("no golden entry")?;
    golden::compare(&golden::summarize(&trace.outputs), want)
}

/// O0 output summaries of every model on the golden inputs.
pub fn golden_summaries(spec: &Spec) -> Vec<(String, Vec<Summary>)> {
    spec.models
        .iter()
        .map(|&(model, _)| {
            let graph = model.build(1, spec.scale).expect("registry models build");
            let trace = spec.interp.run(&graph).expect("registry models run");
            (
                model.spec().alias.to_string(),
                golden::summarize(&trace.outputs),
            )
        })
        .collect()
}

/// Per-case sums over traced runs.
#[derive(Default)]
struct Attribution {
    wall_us: f64,
    self_us: f64,
    /// Summed kernel time of each traced run.
    kernel_ms: Vec<f64>,
    nodes: u64,
    arena_hits: u64,
    arena_misses: u64,
    peak_live_bytes: usize,
    /// Exact per-inference counts, read from the first traced run.
    bytes_materialized: u64,
    intra_chunks: u64,
    gemm_s: f64,
    groups: BTreeMap<NonGemmGroup, f64>,
    breakdown_s: f64,
}

fn span_name(class: OpClass) -> &'static str {
    match class {
        OpClass::Gemm => "ops.gemm",
        OpClass::NonGemm(g) => match g {
            NonGemmGroup::Activation => "ops.activation",
            NonGemmGroup::Normalization => "ops.normalization",
            NonGemmGroup::Memory => "ops.memory",
            NonGemmGroup::Arithmetic => "ops.arithmetic",
            NonGemmGroup::LogitComputation => "ops.logit",
            NonGemmGroup::RoiSelection => "ops.roi",
            NonGemmGroup::Interpolation => "ops.interpolation",
            NonGemmGroup::Pooling => "ops.pooling",
            NonGemmGroup::Embedding => "ops.embedding",
            NonGemmGroup::Collective => "ops.collective",
            NonGemmGroup::Other => "ops.other",
        },
    }
}

const GROUP_METRICS: [(NonGemmGroup, &str); 11] = [
    (NonGemmGroup::Normalization, "ops.normalization_share"),
    (NonGemmGroup::Activation, "ops.activation_share"),
    (NonGemmGroup::Memory, "ops.memory_share"),
    (NonGemmGroup::Arithmetic, "ops.arithmetic_share"),
    (NonGemmGroup::LogitComputation, "ops.logit_share"),
    (NonGemmGroup::RoiSelection, "ops.roi_share"),
    (NonGemmGroup::Interpolation, "ops.interpolation_share"),
    (NonGemmGroup::Pooling, "ops.pooling_share"),
    (NonGemmGroup::Embedding, "ops.embedding_share"),
    (NonGemmGroup::Collective, "ops.collective_share"),
    (NonGemmGroup::Other, "ops.other_share"),
];

impl Attribution {
    /// Turns the data one run returned into an `exec.run` span with a child
    /// per kernel, named by taxonomy group, and adds it to the sums.
    fn add(
        &mut self,
        tracer: &mut Tracer,
        graph: &Graph,
        trace: &ExecutionTrace,
        (t0, t1): (Instant, Instant),
        request: u64,
    ) {
        let base = tracer.at(t0);
        let children: Vec<Child> = trace
            .timings
            .iter()
            .map(|t| {
                let start_us = base + t.start.as_secs_f64() * 1e6;
                Child {
                    name: span_name(graph.node(t.id).class()),
                    start_us,
                    end_us: start_us + t.elapsed.as_secs_f64() * 1e6,
                    lane: t.worker,
                }
            })
            .collect();
        // one stored inference per graph keeps the trace file readable
        let first = self.kernel_ms.is_empty();
        let own_us = tracer.operation("exec.run", t0, t1, request, &children, first);
        if first {
            self.bytes_materialized = trace.bytes_materialized();
            self.intra_chunks = trace.timings.iter().map(|t| t.intra_chunks as u64).sum();
        }
        let kernel_s = trace.total_time().as_secs_f64();
        self.wall_us += (t1 - t0).as_secs_f64() * 1e6;
        self.self_us += own_us;
        self.kernel_ms.push(kernel_s * 1e3);
        self.nodes += trace.timings.len() as u64;
        self.arena_hits += trace.arena.hits;
        self.arena_misses += trace.arena.misses;
        self.peak_live_bytes = self.peak_live_bytes.max(trace.peak_live_bytes);
        let b = breakdown_from_trace(graph, &trace.timings);
        self.breakdown_s += b.total_s;
        self.gemm_s += b.gemm_s;
        for (g, s) in b.groups {
            *self.groups.entry(g).or_insert(0.0) += s;
        }
    }
}

/// One more set-up, for `setup_s`; what it made is dropped.
pub fn set_up_again(spec: &Spec, cfg: &Cfg) -> Check {
    let mut check = Check::default();
    let golden = Golden::parse(spec.golden);
    setup(spec, cfg, &golden, &mut check, &mut Tracer::new());
    check
}

pub fn run(spec: &Spec, cfg: &Cfg) -> Outcome {
    let mut check = Check::default();
    let mut tracer = Tracer::new();
    let golden = Golden::parse(spec.golden);
    let (prepared, setup_s) = common::timed(|| setup(spec, cfg, &golden, &mut check, &mut tracer));
    let cases = &prepared.cases;

    let mut plain_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut traced_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut attribution: Vec<Attribution> = cases.iter().map(|_| Attribution::default()).collect();
    let min_rounds = if cfg.traced && spec.cheap() { 2 } else { 1 };
    let started = Instant::now();
    let mut round = 0;
    let mut request = 0u64;
    while round < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
        let traced_round = cfg.traced && (!spec.cheap() || round % 2 == 0);
        for (i, case) in cases.iter().enumerate() {
            for rep in 0..case.reps {
                request += 1;
                let t0 = Instant::now();
                let result = spec.interp.run_with_inputs(&case.graph, &case.inputs);
                let t1 = Instant::now();
                let wall_ms = common::millis(t0, t1);
                let trace = match result {
                    Ok(trace) => trace,
                    Err(e) => {
                        check.record(case.alias, Err(e.to_string()));
                        continue;
                    }
                };
                // set-up held the golden inputs' outputs against the golden
                // file; the first run on the seed's inputs must be finite
                let first = round == 0 && rep == 0;
                let verdict = if first
                    && !golden::summarize(&trace.outputs)
                        .iter()
                        .all(Summary::finite)
                {
                    Err("non-finite output".to_string())
                } else {
                    Ok(())
                };
                check.record(case.alias, verdict);
                if traced_round {
                    traced_ms[i].push(wall_ms);
                    attribution[i].add(&mut tracer, &case.graph, &trace, (t0, t1), request);
                } else {
                    plain_ms[i].push(wall_ms);
                }
            }
        }
        round += 1;
    }

    let mut metrics = Metrics::new();
    if cfg.traced {
        layer_metrics(
            spec,
            &prepared,
            &plain_ms,
            &traced_ms,
            &attribution,
            &mut metrics,
        );
    } else {
        let medians: Vec<f64> = plain_ms.iter().map(|ms| median(ms)).collect();
        let pick = |want: &dyn Fn(&Case) -> bool| -> f64 {
            let picked = cases.iter().zip(&medians).filter(|(c, _)| want(c));
            geomean(&picked.map(|(_, m)| *m).collect::<Vec<_>>())
        };
        let timed: f64 = plain_ms.iter().flatten().sum();
        let runs: usize = plain_ms.iter().map(Vec::len).sum();
        metrics.insert("setup_s", setup_s);
        metrics.insert("primary_ms", pick(&|c| c.level == OptLevel::O0));
        metrics.insert("secondary_ms", pick(&|c| c.secondary));
        metrics.insert("throughput_per_s", share(runs as f64, timed / 1e3));
    }
    Outcome {
        check,
        metrics,
        tracer,
    }
}

fn layer_metrics(
    spec: &Spec,
    prepared: &Prepared,
    plain_ms: &[Vec<f64>],
    traced_ms: &[Vec<f64>],
    attribution: &[Attribution],
    m: &mut Metrics,
) {
    let cases = &prepared.cases;
    let sum = |f: &dyn Fn(&Attribution) -> f64| attribution.iter().map(f).sum::<f64>();
    let wall_us = sum(&|a| a.wall_us);
    m.insert("models.build_ms", prepared.build_ms);
    m.insert("opt.optimize_ms", prepared.optimize_ms);
    m.insert("exec.dispatch_share", share(sum(&|a| a.self_us), wall_us));
    m.insert(
        "exec.us_per_node",
        share(sum(&|a| a.self_us), sum(&|a| a.nodes as f64)),
    );
    m.insert(
        "exec.nodes_per_inference",
        mean(
            &cases
                .iter()
                .map(|c| c.graph.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.insert(
        "exec.arena_hit_rate",
        share(
            sum(&|a| a.arena_hits as f64),
            sum(&|a| (a.arena_hits + a.arena_misses) as f64),
        ),
    );
    let peak = attribution.iter().map(|a| a.peak_live_bytes).max();
    m.insert("exec.peak_live_mb", peak.unwrap_or(0) as f64 / 1e6);
    m.insert(
        "exec.bytes_materialized",
        sum(&|a| a.bytes_materialized as f64),
    );
    m.insert("exec.intra_chunks", sum(&|a| a.intra_chunks as f64));
    m.insert(
        "exec.pool_efficiency",
        share(
            sum(&|a| a.kernel_ms.iter().sum::<f64>() * 1e3),
            spec.threads as f64 * wall_us,
        ),
    );
    let o0 = cases
        .iter()
        .zip(traced_ms)
        .filter(|(c, _)| c.level == OptLevel::O0);
    m.insert(
        "exec.run_ms_tail",
        geomean(&o0.map(|(_, ms)| median_and_tail(ms).1).collect::<Vec<_>>()),
    );
    m.insert(
        "ops.kernel_ms_geomean",
        geomean(
            &attribution
                .iter()
                .map(|a| median(&a.kernel_ms))
                .collect::<Vec<_>>(),
        ),
    );
    // every graph weighs the same, as in the latency geomean
    let per_case = |f: &dyn Fn(&Attribution) -> f64| -> f64 {
        mean(
            &attribution
                .iter()
                .map(|a| share(f(a), a.breakdown_s))
                .collect::<Vec<_>>(),
        )
    };
    m.insert("ops.gemm_share", per_case(&|a| a.gemm_s));
    m.insert("ops.nongemm_share", per_case(&|a| a.breakdown_s - a.gemm_s));
    for (group, name) in GROUP_METRICS {
        m.insert(
            name,
            per_case(&|a| a.groups.get(&group).copied().unwrap_or(0.0)),
        );
    }
    if spec.cheap() {
        let (before, after, fusions) =
            cases
                .iter()
                .filter(|c| c.level == OptLevel::O2)
                .fold((0, 0, 0), |(b, a, f), c| {
                    (
                        b + c.report.nodes_before,
                        a + c.report.nodes_after,
                        f + c.report.fusions(),
                    )
                });
        m.insert(
            "opt.nodes_removed_share",
            share((before - after) as f64, before as f64),
        );
        m.insert("opt.fusions", fusions as f64);
        let level_geomean = |level: OptLevel| {
            let of_level = cases
                .iter()
                .zip(traced_ms)
                .filter(|(c, _)| c.level == level);
            geomean(&of_level.map(|(_, ms)| median(ms)).collect::<Vec<_>>())
        };
        m.insert(
            "opt.o2_over_o0",
            share(level_geomean(OptLevel::O2), level_geomean(OptLevel::O0)),
        );
        let medians =
            |sets: &[Vec<f64>]| geomean(&sets.iter().map(|s| median(s)).collect::<Vec<_>>());
        m.insert(
            "bench.trace_overhead_share",
            share(medians(traced_ms), medians(plain_ms)) - 1.0,
        );
        tensor_probes(m);
    }
}

/// Direct timed calls into `ngb-tensor` at fixed shapes: the view
/// bookkeeping every layout node pays, and the dense copy a strided view
/// costs when a kernel cannot consume it in place.
fn tensor_probes(m: &mut Metrics) {
    let t = Tensor::zeros(&[8, 64, 64]);
    m.insert(
        "tensor.view_op_ns",
        common::probe_ns(|| {
            let v = t.narrow(1, 8, 32).and_then(|v| v.permute(&[0, 2, 1]));
            let v = v.and_then(|v| v.reshape(&[8, 64, 4, 8]));
            std::hint::black_box(v.expect("fixed shapes are valid"));
        }),
    );
    let big = Tensor::zeros(&[64, 256, 64]);
    let strided = big.permute(&[2, 0, 1]).expect("rank-3 permutation");
    let mb = strided.size_bytes() as f64 / 1e6;
    let ns = common::probe_ns(|| {
        std::hint::black_box(strided.contiguous());
    });
    m.insert("tensor.contiguous_mb_per_s", mb / (ns / 1e9));
}
