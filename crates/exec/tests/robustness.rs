//! Failure behavior of the engines: a mid-graph kernel error or a
//! panicking kernel must abort the run cleanly — an `Err` comes back, no
//! worker deadlocks or leaks, and the same interpreter keeps working on
//! the next (valid) graph.

use ngb_exec::{Engine, Interpreter};
use ngb_graph::{Graph, GraphBuilder, OpKind};

/// A graph with parallel branches plus a matmul; `break_matmul` corrupts
/// one matmul operand's stored shape so the kernel fails mid-run while
/// other branches are still in flight.
fn branchy_matmul_graph() -> Graph {
    let mut b = GraphBuilder::new("robust");
    let x = b.input(&[4, 8]);
    let y = b.input(&[8, 4]);
    let m = b.push(OpKind::Matmul, &[x, y], "mm").unwrap();
    let mut joins = Vec::new();
    for i in 0..4 {
        let h = b.push(OpKind::Gelu, &[x], &format!("branch{i}")).unwrap();
        joins.push(b.push(OpKind::Relu, &[h], &format!("act{i}")).unwrap());
    }
    b.push(OpKind::Softmax { dim: 1 }, &[m], "sm").unwrap();
    let s = b.push(OpKind::Add, &[joins[0], joins[1]], "j01").unwrap();
    b.push(OpKind::Add, &[s, joins[2]], "j012").unwrap();
    b.finish()
}

fn break_matmul(g: &mut Graph) {
    // input %1 now produces [7, 4]: matmul([4,8], [7,4]) has mismatched
    // inner dimensions and must fail with a TensorError, not a panic
    g.nodes[1].out_shape = vec![7, 4];
}

#[test]
fn kernel_error_aborts_the_parallel_run_cleanly() {
    let mut g = branchy_matmul_graph();
    break_matmul(&mut g);
    for threads in [1usize, 2, 8] {
        let err = Interpreter::default()
            .engine(Engine::Parallel(threads))
            .run(&g)
            .expect_err("corrupted matmul must fail");
        // both engines agree the graph is broken
        let seq_err = Interpreter::default().run(&g).expect_err("fails");
        let _ = (err, seq_err);
    }
}

#[test]
fn executor_survives_a_failed_run_and_stays_usable() {
    let exec = Interpreter::new(0x5eed).engine(Engine::Parallel(4));
    let mut bad = branchy_matmul_graph();
    break_matmul(&mut bad);
    let good = branchy_matmul_graph();
    let want = Interpreter::default().run(&good).unwrap();
    // alternate failures and successes on the same pool
    for _ in 0..3 {
        assert!(exec.run(&bad).is_err());
        let trace = exec.run(&good).expect("pool still works after failure");
        assert_eq!(trace.outputs.len(), want.outputs.len());
        for (a, b) in want.outputs.iter().zip(&trace.outputs) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn panicking_kernel_is_reported_as_an_error_not_a_crash() {
    let mut g = branchy_matmul_graph();
    // Linear with in_f = 0 hits the weight initializer's nonzero-fan-in
    // assert: a genuine kernel panic, on the caller's thread or a worker
    g.nodes[2] = ngb_graph::Node {
        id: g.nodes[2].id,
        op: OpKind::Linear {
            in_f: 0,
            out_f: 4,
            bias: false,
        },
        inputs: vec![g.nodes[0].id],
        out_shape: vec![4, 4],
        name: "poison".into(),
        seed_hint: None,
    };
    for engine in [Engine::Sequential, Engine::Parallel(2)] {
        let exec = Interpreter::new(0x5eed).engine(engine);
        let err = exec.run(&g).expect_err("panicking kernel must surface");
        let msg = err.to_string();
        assert!(msg.contains("panicked"), "unexpected error: {msg}");
        assert!(
            msg.contains("poison"),
            "{engine:?} must name the node: {msg}"
        );
        // the pool's workers survived the panic
        let good = branchy_matmul_graph();
        assert!(exec.run(&good).is_ok(), "{engine:?}");
    }
}
