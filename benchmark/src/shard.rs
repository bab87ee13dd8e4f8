//! `shard_2dev`: closed loop, one caller, `partition` + `execute` on a
//! `2xgpu` roster with 4 microbatches, `Strategy::Pipeline` and
//! `Strategy::Tensor`, for tiny `resnet50`, `bert`, `gpt2` and `sw-t`.
//!
//! The third executor loop of the stack (one thread and arena per device,
//! mpsc transfers): it shows channel and bubble cost, and guards a future
//! unification of the executors.

use std::time::Instant;

use nongemm::exec::ExecutionTrace;
use nongemm::graph::NonGemmGroup;
use nongemm::models::{ModelId, Scale};
use nongemm::profiler::breakdown_from_trace;
use nongemm::shard::{execute, partition, DeviceSpec, ShardOptions, ShardPlan, ShardRun, Strategy};
use nongemm::tensor::bit_equal;

use crate::common::{self, Cfg, Check, Metrics, Outcome};
use crate::stats::{geomean, mean, median, median_and_tail, share};
use crate::trace::{Child, Tracer};

const ROSTER: &str = "2xgpu";
const MICROBATCHES: usize = 4;
/// Model and executes per round per strategy; `resnet50` costs ten times
/// the others.
const MODELS: [(ModelId, usize); 4] = [
    (ModelId::ResNet50, 1),
    (ModelId::Bert, 4),
    (ModelId::Gpt2, 4),
    (ModelId::SwinTiny, 4),
];

struct Case {
    alias: &'static str,
    strategy: Strategy,
    plan: ShardPlan,
    reps: usize,
    /// Single-device run of the unsharded graph with the same seed: the
    /// outputs a sharded run must reproduce bit for bit.
    single: std::rc::Rc<ExecutionTrace>,
    single_ms: f64,
}

struct Prepared {
    cases: Vec<Case>,
    partition_ms: f64,
}

fn same_outputs(run: &ShardRun, single: &ExecutionTrace) -> Result<(), String> {
    if run.outputs.len() != single.outputs.len() {
        return Err("output count differs from single-device".into());
    }
    for ((a_id, a), (b_id, b)) in run.outputs.iter().zip(&single.outputs) {
        if a_id != b_id || !bit_equal(a, b).map_err(|e| e.to_string())? {
            return Err(format!("output {a_id} not bit-equal to single-device"));
        }
    }
    Ok(())
}

fn setup(cfg: &Cfg, check: &mut Check, tracer: &mut Tracer) -> Prepared {
    let devices = DeviceSpec::parse(ROSTER).expect("roster parses").roster();
    let options = ShardOptions {
        identity_placement: false,
    };
    let single_device = common::sequential_seeded(cfg.seed);
    let mut p = Prepared {
        cases: Vec::new(),
        partition_ms: 0.0,
    };
    let models = if cfg.quick {
        &MODELS[1..3]
    } else {
        &MODELS[..]
    };
    for &(model, reps) in models {
        let alias = model.spec().alias;
        let t0 = Instant::now();
        let graph = model.build(1, Scale::Tiny).expect("registry models build");
        tracer.operation("models.build", t0, Instant::now(), 0, &[], cfg.traced);
        let mut single_ms = Vec::new();
        let mut single = None;
        for _ in 0..3 {
            let t = Instant::now();
            single = single_device.run(&graph).ok();
            single_ms.push(common::millis(t, Instant::now()));
        }
        let Some(single) = single.map(std::rc::Rc::new) else {
            check.record(alias, Err("single-device run failed".into()));
            continue;
        };
        for strategy in [Strategy::Pipeline, Strategy::Tensor] {
            let t0 = Instant::now();
            let plan = partition(&graph, &devices, strategy, &options);
            let t1 = Instant::now();
            p.partition_ms += common::millis(t0, t1);
            tracer.operation("shard.partition", t0, t1, 0, &[], cfg.traced);
            let warm = plan.map_err(|e| e.to_string()).and_then(|plan| {
                let run = execute(&plan, cfg.seed, MICROBATCHES).map_err(|e| e.to_string())?;
                same_outputs(&run, &single).map(|()| plan)
            });
            match warm {
                Ok(plan) => {
                    check.record(alias, Ok(()));
                    p.cases.push(Case {
                        alias,
                        strategy,
                        plan,
                        reps: if cfg.quick { 1 } else { reps },
                        single: single.clone(),
                        single_ms: median(&single_ms),
                    });
                }
                Err(e) => check.record(alias, Err(format!("{strategy} warm-up: {e}"))),
            }
        }
    }
    p
}

/// Per-case sums over traced executes.
#[derive(Default)]
struct Attribution {
    wall_ms: Vec<f64>,
    bubble: Vec<f64>,
    busy_max_ms: Vec<f64>,
    transfer_bytes: u64,
}

/// One more set-up, for `setup_s`; what it made is dropped.
pub fn set_up_again(cfg: &Cfg) -> Check {
    let mut check = Check::default();
    setup(cfg, &mut check, &mut Tracer::new());
    check
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut check = Check::default();
    let mut tracer = Tracer::new();
    let (prepared, setup_s) = common::timed(|| setup(cfg, &mut check, &mut tracer));
    let cases = &prepared.cases;

    let mut plain_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut attribution: Vec<Attribution> = cases.iter().map(|_| Attribution::default()).collect();
    // summed pipeline `execute` wall of each untraced round
    let mut round_ms: Vec<f64> = Vec::new();
    let min_rounds = if cfg.traced { 2 } else { 1 };
    let started = Instant::now();
    let mut round = 0;
    let mut request = 0u64;
    while round < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
        // a traced run leaves every other round untraced: the overhead
        let traced_round = cfg.traced && round % 2 == 0;
        let mut pipeline_ms = 0.0;
        for (i, case) in cases.iter().enumerate() {
            for rep in 0..case.reps {
                request += 1;
                let t0 = Instant::now();
                let result = execute(&case.plan, cfg.seed, MICROBATCHES);
                let t1 = Instant::now();
                let wall_ms = common::millis(t0, t1);
                let run = match result {
                    Ok(run) => run,
                    Err(e) => {
                        check.record(case.alias, Err(e.to_string()));
                        continue;
                    }
                };
                let verdict = if round == 0 && rep == 0 {
                    same_outputs(&run, &case.single)
                } else {
                    Ok(())
                };
                check.record(case.alias, verdict);
                if !traced_round {
                    plain_ms[i].push(wall_ms);
                    if case.strategy == Strategy::Pipeline {
                        pipeline_ms += wall_ms;
                    }
                    continue;
                }
                // where in the execute a device was busy is not returned, so
                // each device's busy time is drawn from the start of the span
                let start_us = tracer.at(t0);
                let children: Vec<Child> = run
                    .busy_s
                    .iter()
                    .enumerate()
                    .map(|(device, busy)| Child {
                        name: "shard.device_busy",
                        start_us,
                        end_us: start_us + busy * 1e6,
                        lane: device,
                    })
                    .collect();
                tracer.operation("shard.execute", t0, t1, request, &children, round == 0);
                let a = &mut attribution[i];
                a.wall_ms.push(wall_ms);
                a.bubble.push(run.bubble_fraction);
                a.busy_max_ms
                    .push(run.busy_s.iter().fold(0.0f64, |m, &b| m.max(b)) * 1e3);
                a.transfer_bytes = run.transfer_bytes;
            }
        }
        if !traced_round {
            round_ms.push(pipeline_ms);
        }
        round += 1;
    }

    let of = |strategy: Strategy| {
        cases
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.strategy == strategy)
    };
    let mut m = Metrics::new();
    if cfg.traced {
        let per_case = |strategy: Strategy, f: &dyn Fn(&Attribution) -> f64| -> Vec<f64> {
            of(strategy).map(|(i, _)| f(&attribution[i])).collect()
        };
        let pipeline_ms = per_case(Strategy::Pipeline, &|a| median(&a.wall_ms));
        let tensor_ms = per_case(Strategy::Tensor, &|a| median(&a.wall_ms));
        m.insert("shard.partition_ms", prepared.partition_ms);
        m.insert("shard.pipeline_ms_geomean", geomean(&pipeline_ms));
        m.insert("shard.tensor_ms_geomean", geomean(&tensor_ms));
        for (strategy, name) in [
            (Strategy::Pipeline, "shard.pipeline_ms_tail"),
            (Strategy::Tensor, "shard.tensor_ms_tail"),
        ] {
            let tails = per_case(strategy, &|a| median_and_tail(&a.wall_ms).1);
            m.insert(name, geomean(&tails));
        }
        m.insert(
            "shard.bubble_share_pipeline",
            mean(&per_case(Strategy::Pipeline, &|a| mean(&a.bubble))),
        );
        m.insert(
            "shard.bubble_share_tensor",
            mean(&per_case(Strategy::Tensor, &|a| mean(&a.bubble))),
        );
        let busy: Vec<f64> = attribution.iter().map(|a| median(&a.busy_max_ms)).collect();
        m.insert("shard.busy_ms_max_device", geomean(&busy));
        m.insert(
            "shard.transfer_bytes",
            attribution.iter().map(|a| a.transfer_bytes as f64).sum(),
        );
        // the same microbatches replayed one after another on one device
        let speedups: Vec<f64> = of(Strategy::Pipeline)
            .zip(&pipeline_ms)
            .map(|((_, c), ms)| share(MICROBATCHES as f64 * c.single_ms, *ms))
            .collect();
        m.insert("shard.speedup_vs_single", geomean(&speedups));
        m.insert("ops.collective_share", collective_share(cases, &mut check));
        let all = |sets: &[Vec<f64>]| geomean(&sets.iter().map(|s| median(s)).collect::<Vec<_>>());
        let traced_ms: Vec<Vec<f64>> = attribution.iter().map(|a| a.wall_ms.clone()).collect();
        m.insert(
            "bench.trace_overhead_share",
            share(all(&traced_ms), all(&plain_ms)) - 1.0,
        );
    } else {
        // All three read the pipeline strategy. The tensor strategy hands a
        // value between the device threads dozens of times per execute, so
        // its wall follows how fast the host wakes a thread and settles at
        // one of two speeds per process: it runs and is checked here, and a
        // traced pass reports its wall as `shard.tensor_ms_geomean`.
        let per_microbatch: Vec<f64> = of(Strategy::Pipeline)
            .map(|(i, _)| median(&plain_ms[i]) / MICROBATCHES as f64)
            .collect();
        let round_executes: usize = of(Strategy::Pipeline).map(|(_, c)| c.reps).sum();
        m.insert("setup_s", setup_s);
        m.insert("primary_ms", geomean(&per_microbatch));
        m.insert(
            "secondary_ms",
            per_microbatch.iter().fold(0.0f64, |a, &b| a.max(b)),
        );
        m.insert(
            "throughput_per_s",
            share(
                (round_executes * MICROBATCHES) as f64,
                median(&round_ms) / 1e3,
            ),
        );
    }
    Outcome {
        check,
        metrics: m,
        tracer,
    }
}

/// Share of kernel time inside the collectives and transfers a partition
/// inserts, from one single-device run of each partitioned graph (the
/// sharded executor returns no per-node times).
fn collective_share(cases: &[Case], check: &mut Check) -> f64 {
    let interp = common::sequential();
    let shares: Vec<f64> = cases
        .iter()
        .filter_map(|c| match interp.run(&c.plan.graph) {
            Ok(trace) => {
                check.record(c.alias, Ok(()));
                let b = breakdown_from_trace(&c.plan.graph, &trace.timings);
                Some(b.group_frac(NonGemmGroup::Collective))
            }
            Err(e) => {
                check.record(c.alias, Err(format!("partitioned graph: {e}")));
                None
            }
        })
        .collect();
    mean(&shares)
}
