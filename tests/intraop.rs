//! Determinism contract of intra-op data parallelism: chunk partitioning
//! is a pure function of shape (never of thread count), and disabling the
//! runner only serializes the same chunks. Consequently every registry
//! model must produce bit-identical outputs across {intra-op off, on} ×
//! {1, 2, 8} worker threads × {O0, O2} rewrite levels.

use nongemm::exec::{Engine, Interpreter};
use nongemm::{optimize, ModelId, OptLevel, Scale};

/// Output bit patterns: NaN-safe equality (`NaN != NaN` under `f32` eq).
/// Integer/bool outputs (token ids, NMS keeps) widen into the same space.
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
fn every_model_is_bit_identical_across_intra_op_modes() {
    for &model in ModelId::all() {
        let base = model
            .build(1, Scale::Tiny)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        for level in [OptLevel::O0, OptLevel::O2] {
            let (g, _) = optimize(&base, level);
            let want = bits(
                &Interpreter::default()
                    .intra_op(false)
                    .run(&g)
                    .unwrap_or_else(|e| panic!("{model} {level:?} (sequential): {e}")),
            );
            assert!(!want.is_empty(), "{model} {level:?}: no outputs");
            for intra_op in [false, true] {
                for threads in [1usize, 2, 8] {
                    let trace = Interpreter::default()
                        .engine(Engine::Parallel(threads))
                        .intra_op(intra_op)
                        .run(&g)
                        .unwrap_or_else(|e| {
                            panic!("{model} {level:?} (intra {intra_op}, {threads}t): {e}")
                        });
                    assert_eq!(
                        want,
                        bits(&trace),
                        "{model} {level:?}: intra-op {intra_op} on {threads} threads diverged"
                    );
                }
            }
        }
    }
}

/// FNV-1a over [`bits`]: each output's node id, shape and value bits.
fn digest(bits: &[(usize, Vec<usize>, Vec<u64>)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = bits.iter().flat_map(|(id, shape, values)| {
        std::iter::once(*id as u64)
            .chain(shape.iter().map(|&d| d as u64))
            .chain(values.iter().copied())
    });
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Output digests of every registry model at tiny scale, batch 1, on the
/// sequential engine with default weights: (model, O0, O2). A kernel
/// rewrite that changes any output bit — even one every engine shares —
/// fails here; a deliberate numeric change re-pins the table and says so.
/// The GEMM picks its AVX2+FMA tile per CPU and these are that tile's
/// digests, so on a CPU without it only the runs themselves are checked.
const PINNED: [(&str, u64, u64); 18] = [
    ("resnet50", 0xf254c3c5a8abcd79, 0xca087d659d1da75a),
    ("mobilenet_v2", 0x1da1647c36d28ecb, 0x06e721c7b2a71e19),
    ("vit-l", 0x59e94b42a7ad792b, 0x450093337611d8a2),
    ("vit-h", 0x59e94b42a7ad792b, 0x450093337611d8a2),
    ("sw-t", 0xc614815b2f55319a, 0xefa9c6ad9558cf1b),
    ("sw-s", 0xc614815b2f55319a, 0xefa9c6ad9558cf1b),
    ("sw-b", 0xc614815b2f55319a, 0xefa9c6ad9558cf1b),
    ("vit-b", 0x59e94b42a7ad792b, 0x450093337611d8a2),
    ("frcnn", 0xfdea88ea7b00c72d, 0xfb6d890f7d90248c),
    ("mrcnn", 0xfb05dbef4dca3f0a, 0x809272853cbb5f1d),
    ("detr", 0xc6973d9cb188f81c, 0x555e2a256dc61d6e),
    ("maskformer", 0xb4efbbfb33d1aa15, 0x8d6cc9130ca69fc8),
    ("segformer", 0x46f3b939ccccf4b6, 0x29d2946f0727f86a),
    ("gpt2", 0x65140ae7fb40913d, 0xb281065c8d68fe35),
    ("gpt2-l", 0x65140ae7fb40913d, 0xb281065c8d68fe35),
    ("gpt2-xl", 0x65140ae7fb40913d, 0xb281065c8d68fe35),
    ("llama2", 0x544a07f4a39e6cd3, 0x87fbab5b9f21a8cb),
    ("bert", 0x464ecbcc3be27f1c, 0x0b9adac19b5c64d0),
];

/// Whether this CPU runs the GEMM's AVX2+FMA tile.
fn fma_tile_host() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[test]
fn every_model_matches_its_pinned_digest() {
    let mut got = Vec::new();
    for &model in ModelId::all() {
        let base = model
            .build(1, Scale::Tiny)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let [o0, o2] = [OptLevel::O0, OptLevel::O2].map(|level| {
            let (g, _) = optimize(&base, level);
            let trace = Interpreter::default()
                .intra_op(false)
                .run(&g)
                .unwrap_or_else(|e| panic!("{model} {level:?}: {e}"));
            digest(&bits(&trace))
        });
        got.push((model.to_string(), o0, o2));
    }
    if !fma_tile_host() {
        return;
    }
    let want: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(m, o0, o2)| (m.to_string(), o0, o2))
        .collect();
    let table: String = got
        .iter()
        .map(|(m, o0, o2)| format!("    (\"{m}\", 0x{o0:016x}, 0x{o2:016x}),\n"))
        .collect();
    assert!(got == want, "digests moved; this build reads:\n{table}");
}

#[test]
fn sequential_interpreter_ignores_intra_op_runner_absence() {
    // intra-op on the sequential engine still partitions (chunk counts are
    // shape-pure) but runs chunks in place; outputs cannot move.
    let g = ModelId::Gpt2.build(1, Scale::Tiny).unwrap();
    let off = bits(&Interpreter::default().intra_op(false).run(&g).unwrap());
    let on = bits(&Interpreter::default().intra_op(true).run(&g).unwrap());
    assert_eq!(off, on);
}
