//! Multi-device sharding integration tests: pipeline cuts of random DAGs
//! must round-trip **bit-identical** to single-device execution, tensor-
//! parallel splits must reconstruct the unsplit GEMM (bitwise for the
//! column split, within 1e-9 for the row split + `AllReduce`), benchmark
//! models must survive both strategies on real device rosters, and the
//! analyzer's shard pass must see the plan graphs.

use nongemm::graph::{GraphBuilder, NodeId, OpKind};
use nongemm::shard::{execute, partition, DeviceSpec, ShardOptions, Strategy};
use nongemm::tensor::{bit_equal, max_abs_err};
use nongemm::{Analyzer, Interpreter, ModelId, NonGemmGroup, Scale};
use proptest::prelude::*;

const SEED: u64 = 0x5eed;

/// Runs `graph` sharded over `spec` and asserts every output is
/// bit-identical to the single-device interpreter.
fn assert_shard_bit_identical(
    graph: &nongemm::Graph,
    spec: &str,
    strategy: Strategy,
    microbatches: usize,
) {
    let devices = DeviceSpec::parse(spec).expect("device spec").roster();
    let plan = partition(graph, &devices, strategy, &ShardOptions::default())
        .unwrap_or_else(|e| panic!("{}: partition ({spec} {strategy}): {e}", graph.name));
    let run = execute(&plan, SEED, microbatches)
        .unwrap_or_else(|e| panic!("{}: execute ({spec} {strategy}): {e}", graph.name));
    let reference = Interpreter::new(SEED).run(graph).expect("reference run");
    assert_eq!(
        run.outputs.len(),
        reference.outputs.len(),
        "{}: output arity diverged under {spec} {strategy}",
        graph.name
    );
    for ((si, sv), (ri, rv)) in run.outputs.iter().zip(&reference.outputs) {
        assert_eq!(si, ri, "{}: output ids diverged", graph.name);
        assert!(
            bit_equal(sv, rv).expect("comparable outputs"),
            "{}: output {si} not bit-identical under {spec} {strategy} mb={microbatches}",
            graph.name
        );
    }
}

/// Builds a random shape-preserving DAG over `[2, 8]` activations from
/// proptest-drawn seeds; every op reads arbitrary earlier nodes, so
/// pipeline cuts land on multi-use activation edges, skip connections,
/// and fan-out — not just chains. Each seed packs the op kind (low byte)
/// and two producer picks (middle/high bits).
fn random_dag(ops: &[u64]) -> nongemm::Graph {
    let mut b = GraphBuilder::new("proptest_dag");
    let x = b.input(&[2, 8]);
    let mut ids = vec![x];
    for (i, seed) in ops.iter().enumerate() {
        let kind = seed & 0xff;
        let lhs = ids[((seed >> 8) as usize) % ids.len()];
        let rhs = ids[((seed >> 32) as usize) % ids.len()];
        let id = match kind % 6 {
            0 => b.push(
                OpKind::Linear {
                    in_f: 8,
                    out_f: 8,
                    bias: true,
                },
                &[lhs],
                &format!("fc{i}"),
            ),
            1 => b.push(OpKind::Gelu, &[lhs], &format!("gelu{i}")),
            2 => b.push(OpKind::Relu, &[lhs], &format!("relu{i}")),
            3 => b.push(OpKind::LayerNorm { dim: 8 }, &[lhs], &format!("ln{i}")),
            4 => b.push(OpKind::Add, &[lhs, rhs], &format!("add{i}")),
            _ => b.push(OpKind::Softmax { dim: 1 }, &[lhs], &format!("sm{i}")),
        }
        .expect("shape-preserving op");
        ids.push(id);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: an arbitrary pipeline cut of an arbitrary DAG
    /// never changes the math — every output bit survives the stage
    /// boundaries, transfers, and microbatched replay.
    #[test]
    fn random_pipeline_cut_round_trips_bit_identical(
        ops in prop::collection::vec(0u64..u64::MAX, 3..12),
        n_devices in 2usize..=4,
        microbatches in 1usize..=4,
    ) {
        let graph = random_dag(&ops);
        let spec = format!("{n_devices}xgpu");
        assert_shard_bit_identical(&graph, &spec, Strategy::Pipeline, microbatches);
    }

    /// Column-parallel tensor splits gather to the unsplit GEMM exactly:
    /// shard weights are bitwise row slices and every output element is
    /// computed once, so the reconstruction is bit-identical (which in
    /// particular puts it within the 1e-9 budget).
    #[test]
    fn tensor_split_reconstructs_unsplit_gemm(
        in_f in 4usize..24,
        out_f in 4usize..24,
        parts in 2usize..=4,
        bias in prop::bool::ANY,
    ) {
        let mut b = GraphBuilder::new("tp_linear");
        let x = b.input(&[2, in_f]);
        let h = b.push(OpKind::Linear { in_f, out_f, bias }, &[x], "fc")
            .expect("linear");
        b.push(OpKind::Gelu, &[h], "act").expect("gelu");
        let graph = b.finish();
        let spec = format!("{parts}xgpu");
        assert_shard_bit_identical(&graph, &spec, Strategy::Tensor, 2);
    }
}

/// Row-parallel splits slice the *input* features: each shard multiplies
/// a pre-sliced operand against a bitwise column slice of the full
/// weight, and the `AllReduce` sums the partial products in rank order.
/// Float re-association makes this path approximate, so the contract is
/// the standard forward-error bound for a reassociated `in_f`-term f32
/// accumulation — `in_f · ε · ‖y‖∞` (ε ≈ 1.2e-7; an absolute 1e-9 is
/// below one ulp of these outputs, i.e. unattainable in f32) — not bit
/// equality.
#[test]
fn row_split_shards_and_allreduce_reconstruct_unsplit_linear() {
    const IN_F: usize = 16;
    const OUT_F: usize = 12;

    let mut rb = GraphBuilder::new("row_ref");
    let x = rb.input(&[2, IN_F]);
    let full = rb
        .push(
            OpKind::Linear {
                in_f: IN_F,
                out_f: OUT_F,
                bias: true,
            },
            &[x],
            "fc",
        )
        .expect("linear");
    let reference_graph = rb.finish();

    for parts in [2usize, 4] {
        let mut b = GraphBuilder::new("row_split");
        let x = b.input(&[2, IN_F]);
        let mut shards = Vec::new();
        let chunk = IN_F / parts;
        for part in 0..parts {
            let slice = b
                .push(
                    OpKind::Slice {
                        dim: 1,
                        start: part * chunk,
                        len: chunk,
                    },
                    &[x],
                    &format!("slice{part}"),
                )
                .expect("slice");
            let sh = b
                .push(
                    OpKind::LinearShard {
                        in_f: IN_F,
                        out_f: OUT_F,
                        bias: true,
                        part,
                        parts,
                        row_split: true,
                    },
                    &[slice],
                    &format!("shard{part}"),
                )
                .expect("linear shard");
            shards.push(sh);
        }
        b.push(OpKind::AllReduce, &shards, "reduce")
            .expect("all reduce");
        let mut graph = b.finish();
        // Key every shard's parameter stream to the reference layer so
        // the sliced weights come from the same RNG replay.
        for node in &mut graph.nodes {
            if matches!(node.op, OpKind::LinearShard { .. }) {
                node.seed_hint = Some(full);
            }
        }

        let reference = Interpreter::new(SEED)
            .run(&reference_graph)
            .expect("reference run");
        let split = Interpreter::new(SEED).run(&graph).expect("split run");
        assert_eq!(split.outputs.len(), 1);
        assert_eq!(reference.outputs.len(), 1);
        let err =
            max_abs_err(&split.outputs[0].1, &reference.outputs[0].1).expect("comparable outputs");
        let scale = reference.outputs[0]
            .1
            .to_vec_f32()
            .expect("f32 output")
            .iter()
            .fold(1.0f32, |m, v| m.max(v.abs()));
        let bound = IN_F as f32 * f32::EPSILON * scale;
        assert!(
            err <= bound,
            "row-split x{parts} + all_reduce diverged from the unsplit linear: \
             max abs err {err:e} > bound {bound:e}"
        );
    }
}

/// All 18 benchmark models survive both strategies on 2- and 4-device
/// rosters bit-identically.
#[test]
fn benchmark_models_shard_bit_identically() {
    for &id in ModelId::all() {
        let graph = id.build(1, Scale::Tiny).expect("tiny model");
        for (spec, microbatches) in [("2xgpu", 2), ("4xgpu", 4)] {
            for strategy in [Strategy::Pipeline, Strategy::Tensor] {
                assert_shard_bit_identical(&graph, spec, strategy, microbatches);
            }
        }
    }
}

/// Heterogeneous rosters (accelerator + host CPU) keep bit identity:
/// placement and transfer insertion never touch kernel math.
#[test]
fn heterogeneous_roster_keeps_bit_identity() {
    let graph = ModelId::Bert.build(1, Scale::Tiny).expect("tiny model");
    assert_shard_bit_identical(&graph, "gpu+cpu", Strategy::Pipeline, 3);
    assert_shard_bit_identical(&graph, "gpu+npu", Strategy::Pipeline, 2);
}

/// Plan graphs are first-class graphs: they validate, the census counts
/// the inserted collectives in their own taxonomy group, and the shard
/// analysis pass runs without deny-level findings.
#[test]
fn plan_graphs_pass_the_analyzer_with_collectives_censused() {
    let graph = ModelId::Gpt2.build(1, Scale::Tiny).expect("tiny model");
    let devices = DeviceSpec::parse("2xgpu").expect("spec").roster();
    for strategy in [Strategy::Pipeline, Strategy::Tensor] {
        let plan =
            partition(&graph, &devices, strategy, &ShardOptions::default()).expect("partition");
        plan.graph.validate().expect("plan graph validates");
        let report = Analyzer::new().analyze(&plan.graph);
        assert!(
            report.is_clean(),
            "{strategy} plan graph has deny-level findings"
        );
        let collectives = report
            .census
            .groups
            .iter()
            .find(|(label, _)| *label == NonGemmGroup::Collective.label())
            .map(|&(_, n)| n)
            .unwrap_or(0);
        assert!(
            collectives > 0,
            "{strategy} plan graph censused no collective/transfer nodes"
        );
    }
}

/// The partitioner rejects degenerate requests instead of producing
/// unrunnable plans.
#[test]
fn partitioner_rejects_degenerate_requests() {
    let graph = ModelId::Gpt2.build(1, Scale::Tiny).expect("tiny model");
    assert!(partition(&graph, &[], Strategy::Pipeline, &ShardOptions::default()).is_err());
    let empty = GraphBuilder::new("empty").finish();
    let devices = DeviceSpec::parse("2xgpu").expect("spec").roster();
    assert!(partition(
        &empty,
        &devices,
        Strategy::Pipeline,
        &ShardOptions::default()
    )
    .is_err());
}

/// `NodeId`s in a plan stay positional after transfer insertion — the
/// executor and profiler index by them.
#[test]
fn plan_node_ids_stay_positional() {
    let graph = ModelId::Segformer
        .build(1, Scale::Tiny)
        .expect("tiny model");
    let devices = DeviceSpec::parse("2xgpu").expect("spec").roster();
    let plan = partition(
        &graph,
        &devices,
        Strategy::Pipeline,
        &ShardOptions::default(),
    )
    .expect("partition");
    for (pos, node) in plan.graph.iter().enumerate() {
        assert_eq!(node.id, NodeId(pos));
    }
    assert_eq!(plan.device_of.len(), plan.graph.len());
    assert_eq!(plan.origin.len(), plan.graph.len());
}
