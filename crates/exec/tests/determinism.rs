//! Determinism contract of the parallel engine: for every registry model,
//! any thread count, and any run, outputs are bit-identical to the
//! sequential interpreter. The engine earns this with per-node RNG seeding
//! and pure kernels — scheduling order never touches the math.

use ngb_exec::{BufferPlan, Engine, Interpreter};
use ngb_models::{ModelId, Scale};

/// Output bit patterns: NaN-safe equality (`NaN != NaN` under `f32` eq).
/// Integer/bool outputs (token ids, NMS keeps) widen into the same space.
fn bits(trace: &ngb_exec::ExecutionTrace) -> Vec<(usize, Vec<usize>, Vec<u64>)> {
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
fn every_model_is_bit_identical_across_thread_counts() {
    for &model in ModelId::all() {
        let g = model
            .build(1, Scale::Tiny)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let seq = Interpreter::default()
            .run(&g)
            .unwrap_or_else(|e| panic!("{model} (sequential): {e}"));
        let want = bits(&seq);
        assert!(!want.is_empty(), "{model}: no outputs");
        for threads in [1usize, 2, 8] {
            let par = Interpreter::default()
                .engine(Engine::Parallel(threads))
                .run(&g)
                .unwrap_or_else(|e| panic!("{model} ({threads} threads): {e}"));
            assert_eq!(want, bits(&par), "{model}: {threads} threads diverged");
        }
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // scheduling races may reorder execution, never change results
    for &model in &[ModelId::VitBase16, ModelId::FasterRcnn, ModelId::Gpt2] {
        let g = model.build(1, Scale::Tiny).unwrap();
        let interp = Interpreter::default().engine(Engine::Parallel(4));
        let first = bits(&interp.run(&g).unwrap());
        for _ in 0..3 {
            assert_eq!(first, bits(&interp.run(&g).unwrap()), "{model}");
        }
    }
}

#[test]
fn parallel_timings_cover_every_node_once() {
    let g = ModelId::SwinTiny.build(1, Scale::Tiny).unwrap();
    let threads = 4usize;
    let trace = Interpreter::default()
        .engine(Engine::Parallel(threads))
        .run(&g)
        .unwrap();
    assert_eq!(trace.timings.len(), g.len());
    let mut seen = vec![false; g.len()];
    for t in &trace.timings {
        assert!(!seen[t.id.0], "node {} timed twice", t.id);
        seen[t.id.0] = true;
        assert!(t.worker < threads, "worker {} out of range", t.worker);
    }
    // liveness accounting ran: some bytes were live at the peak
    assert!(trace.peak_live_bytes > 0);
}

#[test]
fn every_driver_keeps_one_accounting() {
    // the sequential loop and the ticket scheduler drive the same run
    // core, so per-node counts cannot depend on which one ran the node
    for &model in ModelId::all() {
        let g = model.build(1, Scale::Tiny).unwrap();
        let seq = Interpreter::default().run(&g).unwrap();
        let par = Interpreter::default()
            .engine(Engine::Parallel(1))
            .run(&g)
            .unwrap();
        assert_eq!(bits(&seq), bits(&par), "{model}");
        assert_eq!(seq.timings.len(), par.timings.len(), "{model}");
        for (s, p) in seq.timings.iter().zip(&par.timings) {
            assert_eq!(s.id, p.id, "{model}");
            assert_eq!(s.out_shape, p.out_shape, "{model} node {}", s.id);
            assert_eq!(s.intra_chunks, p.intra_chunks, "{model} node {}", s.id);
            assert_eq!(
                s.bytes_materialized, p.bytes_materialized,
                "{model} node {}",
                s.id
            );
        }
        // the detection models' NMS keeps fewer boxes than the static
        // shapes plan for; everywhere else the sequential run is exactly
        // the drop-at-last-use schedule the plan simulates
        if !matches!(model, ModelId::FasterRcnn | ModelId::MaskRcnn) {
            assert_eq!(
                seq.peak_live_bytes,
                BufferPlan::new(&g).planned_peak_bytes,
                "{model}"
            );
        }
    }
}
