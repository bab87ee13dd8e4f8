//! Embedding lookup and gather — the input-side memory operators of every
//! language model in the suite (token + position embeddings).

use ngb_tensor::{LaneMap, Tensor, TensorError};

use crate::{OpCost, Result, F32_BYTES};

/// Embedding lookup: `table: [V, D]`, `ids: [*]` (i64) → `[*, D]`.
///
/// # Errors
///
/// Fails when `table` is not rank-2 f32, ids are not i64, or an id is out
/// of vocabulary range.
pub fn embedding(table: &Tensor, ids: &Tensor) -> Result<Tensor> {
    if table.rank() != 2 {
        return Err(TensorError::InvalidArgument(
            "embedding table must be [V, D]".into(),
        ));
    }
    let (v, d) = (table.shape()[0], table.shape()[1]);
    let idv = ids.to_vec_i64()?;
    let tc = table.contiguous();
    let ts = tc.as_slice_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: table.dtype().name(),
        op: "embedding",
    })?;
    let mut out = Vec::with_capacity(idv.len() * d);
    for &id in &idv {
        if id < 0 || id as usize >= v {
            return Err(TensorError::InvalidArgument(format!(
                "embedding id {id} out of range for vocabulary of {v}"
            )));
        }
        out.extend_from_slice(&ts[id as usize * d..(id as usize + 1) * d]);
    }
    let mut shape = ids.shape().to_vec();
    shape.push(d);
    Tensor::from_vec(out, &shape)
}

/// Cost of an embedding lookup producing `tokens × d` floats.
pub fn embedding_cost(tokens: usize, d: usize) -> OpCost {
    OpCost {
        flops: 0.0,
        bytes_read: (tokens * d) as f64 * F32_BYTES + tokens as f64 * 8.0,
        bytes_written: (tokens * d) as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

/// Gathers values along `dim` using integer `index` of the same rank
/// (simplified `torch.gather`: index shape must match input except along
/// `dim`).
///
/// # Errors
///
/// Fails on rank mismatch, out-of-range dim, or out-of-range indices.
pub fn gather(x: &Tensor, dim: usize, index: &Tensor) -> Result<Tensor> {
    if x.rank() != index.rank() || dim >= x.rank() {
        return Err(TensorError::InvalidArgument(
            "gather requires index of equal rank and valid dim".into(),
        ));
    }
    for (i, (&xd, &id)) in x.shape().iter().zip(index.shape()).enumerate() {
        if i != dim && id > xd {
            return Err(TensorError::ShapeMismatch {
                expected: x.shape().to_vec(),
                actual: index.shape().to_vec(),
                op: "gather",
            });
        }
    }
    let idx = index.to_vec_i64()?;
    if let Some(id) = idx
        .iter()
        .find(|&&id| id < 0 || id as usize >= x.shape()[dim])
    {
        return Err(TensorError::InvalidArgument(format!(
            "gather index {id} out of range on dim {dim}"
        )));
    }
    let src = x.storage_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: x.dtype().name(),
        op: "gather",
    })?;
    // lanes along `dim` over the index's shape, read through x's strides:
    // lane (o, l) of the output takes x's lane (o, l) at the gathered rows
    let (outer, d, inner) = index.lane_dims(dim)?;
    let map = LaneMap::new(index.shape(), x.strides(), x.storage_offset(), dim);
    let mut out = vec![0.0; idx.len()];
    for o in 0..outer {
        for l in 0..inner {
            let base = map.lane_base(o, l) as isize;
            for t in 0..d {
                let i = (o * d + t) * inner + l;
                out[i] = src[(base + idx[i] as isize * map.step()) as usize];
            }
        }
    }
    Tensor::from_vec(out, index.shape())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_looks_up_rows() {
        let table = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]).unwrap();
        let ids = Tensor::from_i64(vec![3, 0, 3], &[3]).unwrap();
        let e = embedding(&table, &ids).unwrap();
        assert_eq!(e.shape(), &[3, 2]);
        assert_eq!(e.to_vec_f32().unwrap(), vec![6.0, 7.0, 0.0, 1.0, 6.0, 7.0]);
    }

    #[test]
    fn embedding_batched_ids() {
        let table = Tensor::ones(&[10, 4]);
        let ids = Tensor::from_i64(vec![1, 2, 3, 4, 5, 6], &[2, 3]).unwrap();
        assert_eq!(embedding(&table, &ids).unwrap().shape(), &[2, 3, 4]);
    }

    #[test]
    fn embedding_rejects_oov() {
        let table = Tensor::ones(&[4, 2]);
        let ids = Tensor::from_i64(vec![4], &[1]).unwrap();
        assert!(embedding(&table, &ids).is_err());
        let neg = Tensor::from_i64(vec![-1], &[1]).unwrap();
        assert!(embedding(&table, &neg).is_err());
    }

    /// `out[ix] = x[ix with ix[dim] = index[ix]]`, element by element, for a
    /// rank-3 `index`.
    fn gather_by_definition(x: &Tensor, dim: usize, index: &Tensor) -> Vec<f32> {
        let ids = index.to_vec_i64().unwrap();
        let s = index.shape();
        let mut out = Vec::new();
        for i in 0..s[0] {
            for j in 0..s[1] {
                for k in 0..s[2] {
                    let mut ix = [i, j, k];
                    ix[dim] = ids[(i * s[1] + j) * s[2] + k] as usize;
                    out.push(x.at(&ix).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn gather_along_dim1() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let idx = Tensor::from_i64(vec![2, 0], &[2, 1]).unwrap();
        let g = gather(&x, 1, &idx).unwrap();
        assert_eq!(g.to_vec_f32().unwrap(), vec![3.0, 4.0]);

        // a permuted x (strides [1, 12, 4]) narrowed to start at 1 on its
        // last dim, gathered with an index narrower than x on every other dim
        let dense = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        let x = dense.permute(&[2, 0, 1]).unwrap().narrow(2, 1, 2).unwrap();
        assert!(!x.is_contiguous());
        assert_eq!(x.shape(), &[4, 2, 2]);
        for (dim, ids, shape) in [
            (0, vec![3, 0, 2, 1, 1, 3], [3, 1, 2]),
            (1, vec![1, 0, 0, 1, 1, 1], [3, 2, 1]),
            (2, vec![1, 0, 0, 1], [2, 1, 2]),
        ] {
            let idx = Tensor::from_i64(ids, &shape).unwrap();
            let g = gather(&x, dim, &idx).unwrap();
            assert_eq!(g.shape(), &shape);
            assert_eq!(g.to_vec_f32().unwrap(), gather_by_definition(&x, dim, &idx));
        }
    }

    #[test]
    fn gather_validates() {
        let x = Tensor::zeros(&[2, 3]);
        let idx = Tensor::from_i64(vec![5], &[1, 1]).unwrap();
        assert!(gather(&x, 1, &idx).is_err());
        assert!(gather(&x, 2, &idx).is_err());
        let wrong_rank = Tensor::from_i64(vec![0], &[1]).unwrap();
        assert!(gather(&x, 0, &wrong_rank).is_err());
    }

    #[test]
    fn costs_move_bytes_without_flops() {
        let c = embedding_cost(128, 768);
        assert_eq!(c.flops, 0.0);
        assert!(c.memory_bytes() > 0.0);
    }
}
