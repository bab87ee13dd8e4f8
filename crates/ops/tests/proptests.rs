//! Property-based tests for kernel invariants.

use ngb_ops::{activation, arithmetic, gemm, logit, normalization, parallel, roi};
use ngb_tensor::Tensor;
use proptest::prelude::*;

fn tensor_1d(max: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-50.0f32..50.0, 1..=max).prop_map(|v| {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    })
}

proptest! {
    /// softmax output is a probability distribution for any input row.
    #[test]
    fn softmax_is_distribution(v in prop::collection::vec(-30.0f32..30.0, 1..40)) {
        let n = v.len();
        let x = Tensor::from_vec(v, &[1, n]).unwrap();
        let p = logit::softmax(&x, 1).unwrap().to_vec_f32().unwrap();
        prop_assert!(p.iter().all(|&q| (0.0..=1.0 + 1e-6).contains(&q)));
        let s: f32 = p.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-4, "sum {s}");
    }

    /// softmax is invariant to adding a constant to all logits.
    #[test]
    fn softmax_shift_invariant(v in prop::collection::vec(-10.0f32..10.0, 2..20), c in -5.0f32..5.0) {
        let n = v.len();
        let x = Tensor::from_vec(v.clone(), &[1, n]).unwrap();
        let xs = Tensor::from_vec(v.iter().map(|a| a + c).collect(), &[1, n]).unwrap();
        let p = logit::softmax(&x, 1).unwrap().to_vec_f32().unwrap();
        let ps = logit::softmax(&xs, 1).unwrap().to_vec_f32().unwrap();
        for (a, b) in p.iter().zip(&ps) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// relu is idempotent and monotone.
    #[test]
    fn relu_idempotent(x in tensor_1d(64)) {
        let once = activation::relu(&x).unwrap();
        let twice = activation::relu(&once).unwrap();
        prop_assert_eq!(once.to_vec_f32().unwrap(), twice.to_vec_f32().unwrap());
    }

    /// layer_norm output has ~zero mean and ~unit variance per row.
    #[test]
    fn layer_norm_standardizes(v in prop::collection::vec(-20.0f32..20.0, 8..64)) {
        let n = v.len();
        // skip degenerate constant rows (variance ~0 amplifies eps effects)
        let mean0 = v.iter().sum::<f32>() / n as f32;
        let var0 = v.iter().map(|a| (a - mean0).powi(2)).sum::<f32>() / n as f32;
        prop_assume!(var0 > 1e-3);
        let x = Tensor::from_vec(v, &[1, n]).unwrap();
        let y = normalization::layer_norm(&x, &Tensor::ones(&[n]), &Tensor::zeros(&[n]), 1e-5)
            .unwrap()
            .to_vec_f32()
            .unwrap();
        let mean = y.iter().sum::<f32>() / n as f32;
        let var = y.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / n as f32;
        prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        prop_assert!((var - 1.0).abs() < 1e-2, "var {var}");
    }

    /// matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributive(seed in 0u64..1000) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let a = rng.uniform(&[3, 4], -2.0, 2.0);
        let b = rng.uniform(&[4, 5], -2.0, 2.0);
        let c = rng.uniform(&[4, 5], -2.0, 2.0);
        let lhs = gemm::matmul(&a, &arithmetic::add(&b, &c).unwrap()).unwrap();
        let rhs = arithmetic::add(
            &gemm::matmul(&a, &b).unwrap(),
            &gemm::matmul(&a, &c).unwrap(),
        ).unwrap();
        for (x, y) in lhs.to_vec_f32().unwrap().iter().zip(rhs.to_vec_f32().unwrap()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// linear with identity weight is the identity map.
    #[test]
    fn linear_identity(v in prop::collection::vec(-10.0f32..10.0, 4..=4)) {
        let x = Tensor::from_vec(v.clone(), &[1, 4]).unwrap();
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 { eye.set(&[i, i], 1.0).unwrap(); }
        let y = gemm::linear(&x, &eye, None).unwrap();
        prop_assert_eq!(y.to_vec_f32().unwrap(), v);
    }

    /// NMS keep-list is sorted by descending score and is a subset of inputs.
    #[test]
    fn nms_output_valid(seed in 0u64..500, thresh in 0.1f32..0.9) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let n = 20;
        let xy = rng.uniform(&[n, 2], 0.0, 30.0).to_vec_f32().unwrap();
        let wh = rng.uniform(&[n, 2], 1.0, 10.0).to_vec_f32().unwrap();
        let mut bx = Vec::with_capacity(n * 4);
        for i in 0..n {
            bx.extend_from_slice(&[xy[i*2], xy[i*2+1], xy[i*2] + wh[i*2], xy[i*2+1] + wh[i*2+1]]);
        }
        let boxes = Tensor::from_vec(bx, &[n, 4]).unwrap();
        let scores = rng.uniform(&[n], 0.0, 1.0);
        let keep = roi::nms(&boxes, &scores, thresh).unwrap().to_vec_i64().unwrap();
        prop_assert!(!keep.is_empty() && keep.len() <= n);
        let sv = scores.to_vec_f32().unwrap();
        for w in keep.windows(2) {
            prop_assert!(sv[w[0] as usize] >= sv[w[1] as usize]);
        }
        // highest-score box always kept
        let best = sv.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        prop_assert!(keep.contains(&(best as i64)));
    }

    /// add/mul are commutative element-wise.
    #[test]
    fn arithmetic_commutative(a in tensor_1d(32), seed in 0u64..100) {
        let b = ngb_tensor::random::TensorRng::seed(seed).uniform(a.shape(), -5.0, 5.0);
        prop_assert_eq!(
            arithmetic::add(&a, &b).unwrap().to_vec_f32().unwrap(),
            arithmetic::add(&b, &a).unwrap().to_vec_f32().unwrap()
        );
        prop_assert_eq!(
            arithmetic::mul(&a, &b).unwrap().to_vec_f32().unwrap(),
            arithmetic::mul(&b, &a).unwrap().to_vec_f32().unwrap()
        );
    }
}

proptest! {
    /// Bilinear interpolation never leaves the input's value range
    /// (convex combination of corners).
    #[test]
    fn bilinear_stays_in_range(
        h in 1usize..6, w in 1usize..6, oh in 1usize..10, ow in 1usize..10, seed in 0u64..200,
    ) {
        let x = ngb_tensor::random::TensorRng::seed(seed).uniform(&[1, 1, h, w], -5.0, 5.0);
        let v = x.to_vec_f32().unwrap();
        let (lo, hi) = v.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h2), &a| {
            (l.min(a), h2.max(a))
        });
        let y = ngb_ops::interpolate::interpolate_bilinear(&x, oh, ow).unwrap();
        for q in y.to_vec_f32().unwrap() {
            prop_assert!(q >= lo - 1e-4 && q <= hi + 1e-4, "{q} outside [{lo}, {hi}]");
        }
    }

    /// Max pooling dominates average pooling element-wise.
    #[test]
    fn max_pool_dominates_avg_pool(seed in 0u64..200, k in 1usize..4) {
        let x = ngb_tensor::random::TensorRng::seed(seed).uniform(&[1, 2, 6, 6], -3.0, 3.0);
        let mx = ngb_ops::pooling::max_pool2d(&x, k, k, 0).unwrap();
        let av = ngb_ops::pooling::avg_pool2d(&x, k, k, 0).unwrap();
        for (m, a) in mx.to_vec_f32().unwrap().iter().zip(av.to_vec_f32().unwrap()) {
            prop_assert!(m >= &(a - 1e-5), "max {m} < avg {a}");
        }
    }

    /// IoU is symmetric, bounded in [0, 1], and 1 on the diagonal for
    /// non-degenerate boxes.
    #[test]
    fn iou_matrix_properties(seed in 0u64..200, n in 1usize..8) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let xy = rng.uniform(&[n, 2], 0.0, 20.0).to_vec_f32().unwrap();
        let wh = rng.uniform(&[n, 2], 0.5, 10.0).to_vec_f32().unwrap();
        let mut v = Vec::with_capacity(n * 4);
        for i in 0..n {
            v.extend_from_slice(&[xy[i*2], xy[i*2+1], xy[i*2] + wh[i*2], xy[i*2+1] + wh[i*2+1]]);
        }
        let b = Tensor::from_vec(v, &[n, 4]).unwrap();
        let iou = ngb_ops::roi::box_iou(&b, &b).unwrap();
        for i in 0..n {
            prop_assert!((iou.at(&[i, i]).unwrap() - 1.0).abs() < 1e-5);
            for j in 0..n {
                let a = iou.at(&[i, j]).unwrap();
                prop_assert!((0.0..=1.0 + 1e-6).contains(&a));
                prop_assert!((a - iou.at(&[j, i]).unwrap()).abs() < 1e-6);
            }
        }
    }

    /// Raising the NMS IoU threshold can only keep more boxes.
    #[test]
    fn nms_monotone_in_threshold(seed in 0u64..100) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let n = 24;
        let xy = rng.uniform(&[n, 2], 0.0, 20.0).to_vec_f32().unwrap();
        let wh = rng.uniform(&[n, 2], 1.0, 10.0).to_vec_f32().unwrap();
        let mut v = Vec::with_capacity(n * 4);
        for i in 0..n {
            v.extend_from_slice(&[xy[i*2], xy[i*2+1], xy[i*2] + wh[i*2], xy[i*2+1] + wh[i*2+1]]);
        }
        let boxes = Tensor::from_vec(v, &[n, 4]).unwrap();
        let scores = rng.uniform(&[n], 0.0, 1.0);
        let mut prev = 0usize;
        for thresh in [0.1f32, 0.3, 0.5, 0.7, 0.9] {
            let kept = roi::nms(&boxes, &scores, thresh).unwrap().numel();
            prop_assert!(kept >= prev, "threshold {thresh}: {kept} < {prev}");
            prev = kept;
        }
    }

    /// Embedding lookup is exactly a row gather: looked-up vectors match
    /// the table rows.
    #[test]
    fn embedding_is_row_gather(seed in 0u64..100, vocab in 2usize..20, d in 1usize..8) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let table = rng.normal(&[vocab, d]);
        let ids = rng.uniform_i64(&[5], 0, vocab as i64);
        let e = ngb_ops::embedding::embedding(&table, &ids).unwrap();
        for (row, &id) in ids.to_vec_i64().unwrap().iter().enumerate() {
            for col in 0..d {
                prop_assert_eq!(
                    e.at(&[row, col]).unwrap(),
                    table.at(&[id as usize, col]).unwrap()
                );
            }
        }
    }

    /// Conv2d is linear in its input: conv(a*x) == a * conv(x).
    #[test]
    fn conv_is_linear_in_input(seed in 0u64..100, scale in 0.25f32..4.0) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let x = rng.normal(&[1, 2, 5, 5]);
        let w = rng.normal(&[3, 2, 3, 3]);
        let base = gemm::conv2d(&x, &w, None, 1, 1, 1).unwrap();
        let scaled_in = arithmetic::mul_scalar(&x, scale).unwrap();
        let scaled_out = gemm::conv2d(&scaled_in, &w, None, 1, 1, 1).unwrap();
        for (a, b) in base.to_vec_f32().unwrap().iter().zip(scaled_out.to_vec_f32().unwrap()) {
            prop_assert!((a * scale - b).abs() < 1e-3 * (1.0 + a.abs() * scale.abs()));
        }
    }

    /// Roll composes additively: roll(roll(x, a), b) == roll(x, a + b),
    /// on a dense input and on a permuted view of the same shape.
    #[test]
    fn roll_composes(seed in 0u64..100, a in -5isize..5, b2 in -5isize..5) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let dense = rng.normal(&[3, 7]);
        let permuted = rng.normal(&[7, 3]).permute(&[1, 0]).unwrap();
        for x in [dense, permuted] {
            let twice = ngb_ops::memory::roll(&ngb_ops::memory::roll(&x, a, 1).unwrap(), b2, 1).unwrap();
            let once = ngb_ops::memory::roll(&x, a + b2, 1).unwrap();
            prop_assert_eq!(twice.to_vec_f32().unwrap(), once.to_vec_f32().unwrap());
        }
    }
}

/// Asserts `ranges` is a sorted, pairwise-disjoint, exact cover of
/// `0..total` with no empty chunks (the intra-op safety contract: chunk
/// jobs write disjoint slices that together fill the output).
fn assert_exact_cover(
    ranges: &[std::ops::Range<usize>],
    total: usize,
) -> Result<(), proptest::TestCaseError> {
    if total == 0 {
        // a zero-length decomposition is a single empty range
        prop_assert_eq!(ranges.len(), 1);
        prop_assert_eq!(ranges[0].clone(), 0..0);
        return Ok(());
    }
    let mut next = 0usize;
    for r in ranges {
        prop_assert_eq!(r.start, next, "gap or overlap at {}", r.start);
        prop_assert!(r.end > r.start, "empty chunk {r:?}");
        next = r.end;
    }
    prop_assert_eq!(next, total, "cover stops short of {total}");
    Ok(())
}

proptest! {
    /// Element chunking is a pairwise-disjoint exact cover of the flat
    /// output for arbitrary sizes.
    #[test]
    fn element_partition_is_exact_cover(total in 0usize..300_000) {
        assert_exact_cover(&parallel::element_partition(total), total)?;
    }

    /// Row chunking is a pairwise-disjoint exact cover of the row space
    /// for arbitrary row counts and widths.
    #[test]
    fn row_partition_is_exact_cover(
        rows in 0usize..5_000, row_len in 0usize..3_000,
    ) {
        assert_exact_cover(&parallel::row_partition(rows, row_len), rows)?;
    }

    /// Shape purity: the decomposition is a function of shape only — installing intra-op runners with different thread counts
    /// must not change it (thread count only changes who runs a chunk).
    #[test]
    fn partition_is_independent_of_thread_count(
        total in 1usize..200_000, row_len in 1usize..2_000,
    ) {
        let elems_base = parallel::element_partition(total);
        let rows_base = parallel::row_partition(total.min(4_000), row_len);
        for threads in [1usize, 2, 8] {
            let runner = std::sync::Arc::new(CountingRunner { threads });
            let (elems, rows) = parallel::with_runner(runner, || {
                (
                    parallel::element_partition(total),
                    parallel::row_partition(total.min(4_000), row_len),
                )
            });
            prop_assert_eq!(&elems, &elems_base, "{threads} threads changed element chunks");
            prop_assert_eq!(&rows, &rows_base, "{threads} threads changed row chunks");
        }
    }

    /// GEMM work units — (panel group x row block) rectangles — cover the
    /// `[m, n]` output exactly once, and the chunks `par_rows` forms over
    /// them cover every unit exactly once.
    #[test]
    fn gemm_tile_blocks_are_exact_cover(m in 1usize..2_000, k in 1usize..6_000, n in 1usize..300) {
        let (units, unit_len) = gemm::tile_units(m, k, n);
        prop_assert!(unit_len >= 1);
        assert_exact_cover(&parallel::row_partition(units.len(), unit_len), units.len())?;
        let mut hits = vec![0u8; m * n];
        for (rows, cols) in &units {
            prop_assert!(rows.end <= m && cols.end <= n, "unit {rows:?} x {cols:?} out of bounds");
            for i in rows.clone() {
                for h in &mut hits[i * n + cols.start..i * n + cols.end] {
                    *h += 1;
                }
            }
        }
        prop_assert!(hits.iter().all(|&h| h == 1), "some output element is not covered exactly once");
    }
}

/// Builds a non-contiguous view of a fresh random NCHW tensor plus its
/// materialized copy: `(view, dense)`. The pair is bit-identical
/// element-for-element, so every stride-capable kernel must produce
/// bit-identical outputs on both.
fn strided_pair(seed: u64, shape: [usize; 4], kind: u8) -> (Tensor, Tensor) {
    let mut rng = ngb_tensor::random::TensorRng::seed(seed);
    let view = match kind % 3 {
        // inner transpose: classic attention / sw layout
        0 => {
            let base = rng.normal(&[shape[0], shape[1], shape[3], shape[2]]);
            base.transpose(-1, -2).unwrap()
        }
        // NHWC-permuted storage read as NCHW
        1 => {
            let base = rng.normal(&[shape[0], shape[2], shape[3], shape[1]]);
            base.permute(&[0, 3, 1, 2]).unwrap()
        }
        // interior window of a larger buffer (offset + wide row stride)
        _ => {
            let base = rng.normal(&[shape[0], shape[1], shape[2] + 2, shape[3] + 3]);
            base.narrow(2, 1, shape[2])
                .unwrap()
                .narrow(3, 2, shape[3])
                .unwrap()
        }
    };
    assert!(!view.is_contiguous() || view.numel() <= 1);
    let dense = view.contiguous();
    (view, dense)
}

proptest! {
    /// Stride-capable kernels are bit-identical on a strided view and on
    /// its materialized copy — the contract the contiguous-elision pass
    /// and the strided GEMM/norm/softmax/pool paths rest on.
    #[test]
    fn strided_kernels_match_materialized(seed in 0u64..300, kind in 0u8..3) {
        let (v, d) = strided_pair(seed, [2, 3, 4, 5], kind);

        // GEMM family: bmm over the trailing 2-D panels of a merged view
        let vm = v.reshape(&[6, 4, 5]).unwrap();
        let dm = d.reshape(&[6, 4, 5]).unwrap();
        let rhs = ngb_tensor::random::TensorRng::seed(seed ^ 0xb33f).normal(&[6, 5, 4]);
        prop_assert_eq!(
            gemm::bmm(&vm, &rhs).unwrap().to_vec_f32().unwrap(),
            gemm::bmm(&dm, &rhs).unwrap().to_vec_f32().unwrap()
        );

        // softmax over the last dim (fused strided-lane path)
        prop_assert_eq!(
            logit::softmax(&v, 3).unwrap().to_vec_f32().unwrap(),
            logit::softmax(&d, 3).unwrap().to_vec_f32().unwrap()
        );

        // row-parallel norms
        let (gamma, beta) = (Tensor::ones(&[5]), Tensor::zeros(&[5]));
        prop_assert_eq!(
            normalization::layer_norm(&v, &gamma, &beta, 1e-5).unwrap().to_vec_f32().unwrap(),
            normalization::layer_norm(&d, &gamma, &beta, 1e-5).unwrap().to_vec_f32().unwrap()
        );
        prop_assert_eq!(
            normalization::rms_norm(&v, &gamma, 1e-5).unwrap().to_vec_f32().unwrap(),
            normalization::rms_norm(&d, &gamma, 1e-5).unwrap().to_vec_f32().unwrap()
        );
        let (g3, b3) = (Tensor::ones(&[3]), Tensor::zeros(&[3]));
        prop_assert_eq!(
            normalization::batch_norm2d(&v, &g3, &b3, &Tensor::zeros(&[3]), &Tensor::ones(&[3]), 1e-5)
                .unwrap().to_vec_f32().unwrap(),
            normalization::batch_norm2d(&d, &g3, &b3, &Tensor::zeros(&[3]), &Tensor::ones(&[3]), 1e-5)
                .unwrap().to_vec_f32().unwrap()
        );
        prop_assert_eq!(
            normalization::group_norm(&v, 3, &g3, &b3, 1e-5).unwrap().to_vec_f32().unwrap(),
            normalization::group_norm(&d, 3, &g3, &b3, 1e-5).unwrap().to_vec_f32().unwrap()
        );

        // pooling walks NCHW strides directly
        prop_assert_eq!(
            ngb_ops::pooling::max_pool2d(&v, 2, 2, 1).unwrap().to_vec_f32().unwrap(),
            ngb_ops::pooling::max_pool2d(&d, 2, 2, 1).unwrap().to_vec_f32().unwrap()
        );
        prop_assert_eq!(
            ngb_ops::pooling::adaptive_avg_pool2d(&v, 2, 3).unwrap().to_vec_f32().unwrap(),
            ngb_ops::pooling::adaptive_avg_pool2d(&d, 2, 3).unwrap().to_vec_f32().unwrap()
        );

        // element-wise unary (map fallback) and binary (zip_map fallback)
        prop_assert_eq!(
            activation::gelu(&v).unwrap().to_vec_f32().unwrap(),
            activation::gelu(&d).unwrap().to_vec_f32().unwrap()
        );
        prop_assert_eq!(
            arithmetic::add(&v, &d).unwrap().to_vec_f32().unwrap(),
            arithmetic::add(&d, &d).unwrap().to_vec_f32().unwrap()
        );
    }

    /// Linear on a transposed weight view matches the materialized
    /// weight — the permuted-weight fast path never changes results.
    #[test]
    fn linear_on_permuted_weight_matches(seed in 0u64..300) {
        let mut rng = ngb_tensor::random::TensorRng::seed(seed);
        let x = rng.normal(&[4, 8]);
        let wt = rng.normal(&[8, 6]); // stored [in, out], viewed as [out, in]
        let w_view = wt.transpose(0, 1).unwrap();
        let w_dense = w_view.contiguous();
        let bias = rng.normal(&[6]);
        prop_assert_eq!(
            gemm::linear(&x, &w_view, Some(&bias)).unwrap().to_vec_f32().unwrap(),
            gemm::linear(&x, &w_dense, Some(&bias)).unwrap().to_vec_f32().unwrap()
        );
        // and a strided activation against both weights
        let xs = rng.normal(&[8, 4]).transpose(0, 1).unwrap();
        prop_assert_eq!(
            gemm::linear(&xs, &w_view, Some(&bias)).unwrap().to_vec_f32().unwrap(),
            gemm::linear(&xs.contiguous(), &w_dense, Some(&bias)).unwrap().to_vec_f32().unwrap()
        );
    }
}

/// Dummy runner: runs chunks serially but advertises a thread count, so
/// the purity test exercises the runner-installed code path.
struct CountingRunner {
    threads: usize,
}

impl parallel::IntraOpRunner for CountingRunner {
    fn run(&self, chunks: usize, job: &(dyn Fn(usize) + Sync)) -> usize {
        for c in 0..chunks {
            job(c);
        }
        self.threads.min(chunks).max(1)
    }
}
