//! Property-based tests for tensor view/layout invariants.

use ngb_tensor::{broadcast_shapes, Tensor};
use proptest::prelude::*;

/// Strategy: a small shape of rank 1..=4 with dims 1..=5.
fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=5, 1..=4)
}

/// Strategy: a shape plus data filling it.
fn shaped_tensor() -> impl Strategy<Value = Tensor> {
    small_shape().prop_flat_map(|shape| {
        let n: usize = shape.iter().product();
        prop::collection::vec(-100.0f32..100.0, n..=n)
            .prop_map(move |data| Tensor::from_vec(data, &shape).unwrap())
    })
}

proptest! {
    /// contiguous() never changes the logical contents.
    #[test]
    fn contiguous_preserves_values(t in shaped_tensor(), perm_seed in 0usize..24) {
        let rank = t.rank();
        let mut perm: Vec<usize> = (0..rank).collect();
        // derive some permutation from the seed
        perm.rotate_left(perm_seed % rank.max(1));
        let p = t.permute(&perm).unwrap();
        let c = p.contiguous();
        prop_assert_eq!(c.to_vec_f32().unwrap(), p.to_vec_f32().unwrap());
        prop_assert!(c.is_contiguous());
    }

    /// reshape to flat and back is the identity.
    #[test]
    fn reshape_roundtrip(t in shaped_tensor()) {
        let flat = t.reshape(&[t.numel()]).unwrap();
        let back = flat.reshape(t.shape()).unwrap();
        prop_assert_eq!(back.to_vec_f32().unwrap(), t.to_vec_f32().unwrap());
    }

    /// permute twice with inverse permutation is the identity view.
    #[test]
    fn permute_inverse_roundtrip(t in shaped_tensor()) {
        let rank = t.rank();
        let perm: Vec<usize> = (0..rank).rev().collect();
        let mut inv = vec![0usize; rank];
        for (i, &p) in perm.iter().enumerate() { inv[p] = i; }
        let round = t.permute(&perm).unwrap().permute(&inv).unwrap();
        prop_assert_eq!(round.shape(), t.shape());
        prop_assert_eq!(round.to_vec_f32().unwrap(), t.to_vec_f32().unwrap());
    }

    /// split followed by cat along the same dim reconstructs the tensor.
    #[test]
    fn split_cat_roundtrip(t in shaped_tensor(), size in 1usize..=3) {
        let dim = t.rank() - 1;
        let parts = t.split(size, dim).unwrap();
        let sum: usize = parts.iter().map(|p| p.shape()[dim]).sum();
        prop_assert_eq!(sum, t.shape()[dim]);
        let whole = Tensor::cat(&parts, dim).unwrap();
        prop_assert_eq!(whole.to_vec_f32().unwrap(), t.to_vec_f32().unwrap());
    }

    /// expand never changes values read back at broadcast indices.
    #[test]
    fn expand_replicates(v in prop::collection::vec(-10.0f32..10.0, 1..5), reps in 1usize..4) {
        let n = v.len();
        let t = Tensor::from_vec(v.clone(), &[n, 1]).unwrap();
        let e = t.expand(&[n, reps]).unwrap();
        for (i, x) in v.iter().enumerate() {
            for j in 0..reps {
                prop_assert_eq!(e.at(&[i, j]).unwrap(), *x);
            }
        }
    }

    /// broadcast_shapes is commutative and idempotent against itself.
    #[test]
    fn broadcast_commutative(a in small_shape(), b in small_shape()) {
        let ab = broadcast_shapes(&a, &b);
        let ba = broadcast_shapes(&b, &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(&x, &y);
                prop_assert_eq!(broadcast_shapes(&x, &a).unwrap(), x.clone());
            }
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "broadcast not symmetric"),
        }
    }

    /// cat of single-element splits equals contiguous copy (exercises
    /// strided reads in cat).
    #[test]
    fn narrow_views_tile_the_tensor(t in shaped_tensor()) {
        let dim = 0;
        let slices: Vec<Tensor> =
            (0..t.shape()[dim]).map(|i| t.narrow(dim, i, 1).unwrap()).collect();
        let whole = Tensor::cat(&slices, dim).unwrap();
        prop_assert_eq!(whole.to_vec_f32().unwrap(), t.to_vec_f32().unwrap());
    }
}

/// Every multi-index of `shape` in row-major order, built one nested loop
/// per dim: the enumerator the references below walk, independent of the
/// crate's strided walker. A scalar has one (empty) index, a 0-sized dim
/// none.
fn indices(shape: &[usize]) -> Vec<Vec<usize>> {
    shape.iter().fold(vec![Vec::new()], |prefixes, &n| {
        prefixes
            .into_iter()
            .flat_map(|p| (0..n).map(move |i| [p.as_slice(), &[i]].concat()))
            .collect()
    })
}

/// Reference broadcast implementation against which zip_map's fast paths
/// and its general strided branch are checked.
fn zip_map_reference(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let read = |t: &Tensor, ix: &[usize]| {
        let pad = out.len() - t.rank();
        let tix: Vec<usize> = ix[pad..]
            .iter()
            .zip(t.shape())
            .map(|(&i, &d)| if d == 1 { 0 } else { i })
            .collect();
        t.at(&tix).unwrap()
    };
    indices(&out)
        .iter()
        .map(|ix| f(read(a, ix), read(b, ix)))
        .collect()
}

/// One random strided view of rank 0–6. Each dim has a logical size (0–4,
/// 0 one time in twenty), the padding a `narrow` cuts off below and above
/// it (padding below moves the storage offset off 0), and a flag making it
/// an `expand`ed size-1 dim (stride 0); a random permutation comes last.
#[derive(Debug, Clone)]
struct ViewSpec {
    dims: Vec<(usize, usize, usize, bool)>,
    perm: Vec<usize>,
}

fn view_spec() -> impl Strategy<Value = ViewSpec> {
    prop::collection::vec(0usize..480, 0..=6).prop_flat_map(|codes| {
        let dims: Vec<(usize, usize, usize, bool)> = codes
            .iter()
            .map(|&r| {
                let size = if r % 20 == 0 { 0 } else { 1 + r % 4 };
                (size, r / 20 % 3, r / 60 % 2, r / 120 == 0)
            })
            .collect();
        prop::collection::vec(0u32..1000, dims.len()).prop_map(move |keys| {
            let mut perm: Vec<usize> = (0..keys.len()).collect();
            perm.sort_by_key(|&i| keys[i]);
            ViewSpec {
                dims: dims.clone(),
                perm,
            }
        })
    })
}

impl ViewSpec {
    /// Shape of the dense tensor the view is cut from.
    fn base_shape(&self) -> Vec<usize> {
        self.dims
            .iter()
            .map(|&(size, lo, hi, expanded)| if expanded { 1 } else { lo + size + hi })
            .collect()
    }

    fn base_len(&self) -> usize {
        self.base_shape().iter().product()
    }

    /// Narrows, expands and permutes `base` (shaped [`Self::base_shape`]).
    fn view(&self, base: Tensor) -> Tensor {
        let mut t = base;
        for (d, &(size, lo, _, expanded)) in self.dims.iter().enumerate() {
            if !expanded {
                t = t.narrow(d, lo, size).unwrap();
            }
        }
        let sizes: Vec<usize> = self.dims.iter().map(|d| d.0).collect();
        t.expand(&sizes).unwrap().permute(&self.perm).unwrap()
    }
}

/// A view of logical `shape` over a dense tensor of the reversed shape,
/// one larger on every dim: narrowed to start at 1 (offset ≠ 0), then its
/// axes reversed, so no dim of rank ≥ 2 has unit stride where a dense
/// tensor would.
fn reversed_view(shape: &[usize], salt: f32) -> Tensor {
    let base: Vec<usize> = shape.iter().rev().map(|&d| d + 1).collect();
    let n: usize = base.iter().product();
    let mut t = Tensor::from_vec(
        (0..n).map(|i| (i as f32 * 0.37 + salt).sin()).collect(),
        &base,
    )
    .unwrap();
    for (d, &size) in shape.iter().rev().enumerate() {
        t = t.narrow(d, 1, size).unwrap();
    }
    let rev: Vec<usize> = (0..shape.len()).rev().collect();
    t.permute(&rev).unwrap()
}

proptest! {
    /// to_vec and contiguous() of every dtype read a random view exactly as
    /// the nested-index reference does.
    #[test]
    fn views_copy_like_the_nested_reference(spec in view_spec()) {
        let (shape, n) = (spec.base_shape(), spec.base_len());
        let f = spec.view(Tensor::from_vec((0..n).map(|i| i as f32).collect(), &shape).unwrap());
        let want: Vec<f32> = indices(f.shape()).iter().map(|ix| f.at(ix).unwrap()).collect();
        prop_assert_eq!(f.to_vec_f32().unwrap(), want.clone());
        let c = f.contiguous();
        prop_assert!(c.is_contiguous());
        prop_assert_eq!(c.as_slice_f32().unwrap(), want.as_slice());

        let i = spec.view(Tensor::from_i64((0..n as i64).map(|i| 3 * i - 7).collect(), &shape).unwrap());
        let want: Vec<i64> = indices(i.shape()).iter().map(|ix| i.at_i64(ix).unwrap()).collect();
        prop_assert_eq!(i.to_vec_i64().unwrap(), want.clone());
        let c = i.contiguous();
        prop_assert!(c.is_contiguous());
        let got: Vec<i64> = indices(c.shape()).iter().map(|ix| c.at_i64(ix).unwrap()).collect();
        prop_assert_eq!(got, want);

        let b = spec.view(Tensor::from_bool((0..n).map(|i| i % 3 == 0).collect(), &shape).unwrap());
        let want: Vec<bool> = indices(b.shape()).iter().map(|ix| b.at_bool(ix).unwrap()).collect();
        prop_assert_eq!(b.to_vec_bool().unwrap(), want.clone());
        let c = b.contiguous();
        prop_assert!(c.is_contiguous());
        let got: Vec<bool> = indices(c.shape()).iter().map(|ix| c.at_bool(ix).unwrap()).collect();
        prop_assert_eq!(got, want);
    }

    /// zip_map's general branch with both operands strided: a random view
    /// against a reversed, narrowed view with random dims broadcast (and
    /// leading dims dropped), on both sides of a non-commutative closure.
    #[test]
    fn zip_map_reads_two_strided_operands(
        spec in view_spec(),
        mask in prop::collection::vec(prop::bool::ANY, 6),
        dropped in 0usize..=2,
    ) {
        let (shape, n) = (spec.base_shape(), spec.base_len());
        let a = spec.view(Tensor::from_vec((0..n).map(|i| i as f32).collect(), &shape).unwrap());
        let rank = a.rank();
        let rhs_shape: Vec<usize> = a
            .shape()
            .iter()
            .zip(&mask)
            .map(|(&d, &keep)| if keep { d } else { 1 })
            .skip(dropped.min(rank))
            .collect();
        let b = reversed_view(&rhs_shape, 0.5);
        let f = |x: f32, y: f32| x - 2.0 * y;
        let ab = a.zip_map(&b, f).unwrap();
        prop_assert_eq!(ab.to_vec_f32().unwrap(), zip_map_reference(&a, &b, f));
        let ba = b.zip_map(&a, f).unwrap();
        prop_assert_eq!(ba.to_vec_f32().unwrap(), zip_map_reference(&b, &a, f));
    }

    /// reduce_dim on a strided view folds every lane in row-major order: a
    /// non-associative fold is bit-equal to the nested-index reference.
    #[test]
    fn reduce_dim_keeps_row_major_fold_order(spec in view_spec(), dim_seed in 0usize..6) {
        prop_assume!(!spec.dims.is_empty());
        let (shape, n) = (spec.base_shape(), spec.base_len());
        let data = (0..n).map(|i| (i as f32 * 0.61).cos()).collect();
        let t = spec.view(Tensor::from_vec(data, &shape).unwrap());
        let dim = dim_seed % t.rank();
        let fold = |a: f32, b: f32| a * 0.5 + b;
        let mut lanes = t.shape().to_vec();
        lanes.remove(dim);
        let want: Vec<u32> = indices(&lanes)
            .iter()
            .map(|lane| {
                (0..t.shape()[dim]).fold(0.25f32, |acc, i| {
                    let mut ix = lane.clone();
                    ix.insert(dim, i);
                    fold(acc, t.at(&ix).unwrap())
                })
                .to_bits()
            })
            .collect();
        let got = t.reduce_dim(dim, false, 0.25, fold).unwrap();
        prop_assert_eq!(got.shape(), lanes.as_slice());
        let got: Vec<u32> = got.to_vec_f32().unwrap().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}

proptest! {
    /// zip_map (with its suffix- and single-axis fast paths) must agree
    /// with the naive broadcast reference for every shape pair.
    #[test]
    fn zip_map_matches_reference(
        lhs_shape in prop::collection::vec(1usize..=4, 1..=4),
        mask in prop::collection::vec(prop::bool::ANY, 4),
    ) {
        // rhs: same rank with a random subset of dims collapsed to 1
        let rhs_shape: Vec<usize> = lhs_shape
            .iter()
            .zip(&mask)
            .map(|(&d, &keep)| if keep { d } else { 1 })
            .collect();
        let n_l: usize = lhs_shape.iter().product();
        let n_r: usize = rhs_shape.iter().product();
        let a = Tensor::from_vec((0..n_l).map(|i| i as f32).collect(), &lhs_shape).unwrap();
        let b = Tensor::from_vec((0..n_r).map(|i| (i * 7) as f32).collect(), &rhs_shape).unwrap();
        let add = |x: f32, y: f32| x + y;
        let fast = a.zip_map(&b, add).unwrap();
        prop_assert_eq!(fast.to_vec_f32().unwrap(), zip_map_reference(&a, &b, add));
        // and with a lower-rank rhs (drop leading dims)
        if rhs_shape.len() > 1 && rhs_shape[0] == 1 {
            let b2 = b.reshape(&rhs_shape[1..]).unwrap();
            let fast2 = a.zip_map(&b2, add).unwrap();
            prop_assert_eq!(fast2.to_vec_f32().unwrap(), zip_map_reference(&a, &b2, add));
        }
    }
}
