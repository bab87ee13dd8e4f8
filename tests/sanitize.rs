//! End-to-end contract of the hazard verifier + execution sanitizer:
//! every registry model is hazard-free — statically (happens-before
//! coverage, storage interference, partition disjointness) and under
//! sanitized execution across engines — while every seeded fault class
//! (dropped edge, truncated lifetime, premature free, overlapping
//! chunks) is caught by the static verifier or the shadow-memory
//! sanitizer. Sanitizer-off runs stay byte-identical to sanitized runs.

use nongemm::exec::{BufferPlan, Engine, Interpreter, Schedule};
use nongemm::graph::{Graph, GraphBuilder, OpKind};
use nongemm::sanitize::{faults, verify_graph, verify_parts, HazardKind, SanitizeReport};
use nongemm::{optimize, ModelId, OptLevel, Scale};

/// Output bit patterns: NaN-safe equality (`NaN != NaN` under `f32` eq).
fn bits(trace: &nongemm::exec::ExecutionTrace) -> Vec<(usize, Vec<usize>, Vec<u64>)> {
    trace
        .outputs
        .iter()
        .map(|(id, t)| {
            let b = if let Ok(v) = t.to_vec_f32() {
                v.iter().map(|x| u64::from(x.to_bits())).collect()
            } else if let Ok(v) = t.to_vec_i64() {
                v.iter().map(|&x| x as u64).collect()
            } else {
                t.to_vec_bool()
                    .expect("f32, i64, or bool outputs")
                    .iter()
                    .map(|&x| u64::from(x))
                    .collect()
            };
            (id.0, t.shape().to_vec(), b)
        })
        .collect()
}

#[test]
fn every_model_is_statically_hazard_free_at_both_scales() {
    for &model in ModelId::all() {
        for scale in [Scale::Tiny, Scale::Full] {
            let base = model
                .build(1, scale)
                .unwrap_or_else(|e| panic!("{model}: {e}"));
            for level in [OptLevel::O0, OptLevel::O2] {
                let (g, _) = optimize(&base, level);
                let report = verify_graph(&g);
                assert!(
                    report.is_clean(),
                    "{model} {scale:?} {level:?}:\n{}",
                    report.to_text()
                );
                // the proof actually covered the graph, not vacuously
                assert_eq!(report.stats.nodes, g.len());
                assert_eq!(
                    report.stats.ordered_pairs_proved, report.stats.edges_checked,
                    "{model} {scale:?} {level:?}: unproved edges"
                );
                assert!(report.stats.partitions_checked >= g.len());
            }
        }
    }
}

#[test]
fn sanitized_execution_sweep_is_clean_and_bit_identical() {
    for &model in ModelId::all() {
        let base = model
            .build(1, Scale::Tiny)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        for level in [OptLevel::O0, OptLevel::O2] {
            let (g, _) = optimize(&base, level);
            let want = bits(
                &Interpreter::default()
                    .sanitize(false)
                    .run(&g)
                    .unwrap_or_else(|e| panic!("{model} {level:?} (baseline): {e}")),
            );
            for intra_op in [false, true] {
                for threads in [1usize, 2, 8] {
                    let trace = Interpreter::default()
                        .engine(Engine::Parallel(threads))
                        .intra_op(intra_op)
                        .sanitize(true)
                        .run(&g)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{model} {level:?} (sanitized, intra {intra_op}, {threads}t): {e}"
                            )
                        });
                    assert_eq!(
                        want,
                        bits(&trace),
                        "{model} {level:?}: sanitizer perturbed outputs \
                         (intra {intra_op}, {threads} threads)"
                    );
                }
            }
            // the sequential engine takes the shadow-memory path too
            let trace = Interpreter::default()
                .sanitize(true)
                .run(&g)
                .unwrap_or_else(|e| panic!("{model} {level:?} (sanitized sequential): {e}"));
            assert_eq!(
                want,
                bits(&trace),
                "{model} {level:?}: sequential sanitizer"
            );
        }
    }
}

fn residual_block() -> Graph {
    // input consumed twice (residual add), so lifetimes have real width
    let mut b = GraphBuilder::new("residual");
    let x = b.input(&[4, 32]);
    let h = b.push(OpKind::Gelu, &[x], "act").unwrap();
    let s = b.push(OpKind::Add, &[h, x], "res").unwrap();
    b.push(OpKind::Relu, &[s], "out").unwrap();
    b.finish()
}

#[test]
fn static_verifier_catches_every_seeded_fault_class() {
    let g = ModelId::Gpt2.build(1, Scale::Tiny).unwrap();
    for seed in 0..8u64 {
        // dropped schedule edge -> missing-edge
        let mut sched = Schedule::new(&g);
        faults::drop_edge(&mut sched, &g, seed).expect("gpt2 has edges");
        let report = verify_parts(&g, &sched, &BufferPlan::new(&g));
        assert!(
            report.count(HazardKind::MissingEdge) >= 1,
            "seed {seed}:\n{}",
            report.to_text()
        );

        // truncated consumer count -> uses-mismatch
        let mut plan = BufferPlan::new(&g);
        faults::truncate_lifetime(&mut plan, seed).expect("gpt2 has multi-use values");
        let report = verify_parts(&g, &Schedule::new(&g), &plan);
        assert!(
            report.count(HazardKind::UsesMismatch) >= 1,
            "seed {seed}:\n{}",
            report.to_text()
        );

        // premature free -> lifetime-truncated
        let mut plan = BufferPlan::new(&g);
        faults::premature_free(&mut plan, seed).expect("gpt2 has consumed values");
        let report = verify_parts(&g, &Schedule::new(&g), &plan);
        assert!(
            report.count(HazardKind::LifetimeTruncated) >= 1,
            "seed {seed}:\n{}",
            report.to_text()
        );

        // overlapping chunk decomposition -> partition hazard
        let mut ranges = nongemm::ops::parallel::element_partition(1 << 20);
        faults::overlap_chunks(&mut ranges, seed).expect("non-empty decomposition");
        let mut report = SanitizeReport::new("chunks");
        assert!(!nongemm::sanitize::verify_ranges(
            "element",
            &ranges,
            1 << 20,
            nongemm::graph::NodeId(0),
            &mut report
        ));
        assert!(
            report.count(HazardKind::PartitionOverlap)
                + report.count(HazardKind::PartitionOutOfBounds)
                >= 1
        );
    }
}

#[test]
fn shadow_memory_catches_a_dropped_edge_at_runtime() {
    // a chain makes the race deterministic: dropping any edge leaves the
    // consumer immediately ready, and the fault's priority boost pops it
    // before its producer on the single-worker engine
    let mut b = GraphBuilder::new("chain");
    let mut cur = b.input(&[8, 8]);
    for i in 0..4 {
        cur = b.push(OpKind::Gelu, &[cur], &format!("g{i}")).unwrap();
    }
    let g = b.finish();
    for seed in 0..8u64 {
        let mut sched = Schedule::new(&g);
        let (u, v) = faults::drop_edge(&mut sched, &g, seed).unwrap();
        let err = Interpreter::new(0x5eed)
            .engine(Engine::Parallel(1))
            .sanitize(true)
            .run_with_parts(&g, sched, BufferPlan::new(&g))
            .expect_err("the sanitizer must catch the %{u}->%{v} race");
        let msg = err.to_string();
        assert!(
            msg.contains("sanitizer") && msg.contains("trace"),
            "seed {seed} (dropped %{u}->%{v}): {msg}"
        );
    }
}

#[test]
fn shadow_memory_catches_a_truncated_lifetime_at_runtime() {
    // uses[input] drops 2 -> 1: the executor frees the input after the
    // first consumer, and the residual add's read hits freed storage
    let g = residual_block();
    let mut plan = BufferPlan::new(&g);
    let v = faults::truncate_lifetime(&mut plan, 0).unwrap();
    let err = Interpreter::new(0x5eed)
        .engine(Engine::Parallel(1))
        .sanitize(true)
        .run_with_parts(&g, Schedule::new(&g), plan)
        .expect_err("the sanitizer must catch the use-after-free");
    let msg = err.to_string();
    assert!(
        msg.contains("sanitizer") && msg.contains(&format!("%{v}")),
        "{msg}"
    );
    // the same corrupted plan is also caught statically
    let mut plan = BufferPlan::new(&g);
    faults::truncate_lifetime(&mut plan, 0).unwrap();
    let report = verify_parts(&g, &Schedule::new(&g), &plan);
    assert!(report.count(HazardKind::UsesMismatch) >= 1);
}

#[test]
fn unmutated_parts_run_clean_through_the_fault_entry_point() {
    let g = residual_block();
    let trace = Interpreter::new(0x5eed)
        .engine(Engine::Parallel(2))
        .sanitize(true)
        .run_with_parts(&g, Schedule::new(&g), BufferPlan::new(&g))
        .unwrap();
    assert_eq!(trace.outputs.len(), 1);
}

#[test]
fn sanitizer_overhead_is_bounded_and_off_mode_is_free() {
    // measured, not asserted tightly: the shadow state machine costs one
    // mutex round-trip per read/write/free, so tiny graphs should stay
    // within a small constant factor; off-mode shares the exact code path
    // the regress baselines were recorded on.
    let g = ModelId::Gpt2.build(1, Scale::Tiny).unwrap();
    let run = |sanitize: bool| {
        let start = std::time::Instant::now();
        let trace = Interpreter::default()
            .engine(Engine::Parallel(2))
            .sanitize(sanitize)
            .run(&g)
            .unwrap();
        (start.elapsed(), bits(&trace))
    };
    let (_, want) = run(false); // warm caches
    let (off, base) = run(false);
    let (on, checked) = run(true);
    assert_eq!(want, base);
    assert_eq!(base, checked, "sanitizer must not perturb outputs");
    eprintln!(
        "sanitizer overhead: off {:?}, on {:?} ({:.2}x)",
        off,
        on,
        on.as_secs_f64() / off.as_secs_f64().max(f64::EPSILON)
    );
}
