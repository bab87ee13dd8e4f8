//! Dynamic-batch formation: which models batch, and how inputs/outputs
//! map between a batch-B graph and its per-request batch-1 rows.
//!
//! The graph builders parameterize batch size, node ids are stable across
//! batch sizes, and input RNG is keyed on node id — so a batch is formed
//! by synthesizing each request's batch-1 inputs ([`ngb_exec::synth_input`]
//! with the request seed), concatenating them along dim 0, and running the
//! cached batch-B graph once. Outputs split back with `narrow(0, i, 1)`.
//!
//! Only **batch-transparent** models (batched row bit-identical to a solo
//! batch-1 run) are served in batches. Three classes fall out:
//!
//! * transparent — convnets/Swin/SegFormer/BERT: reductions and GEMM
//!   blocking never mix rows, so rows are bit-exact; `tests/serve.rs`
//!   checks every model of [`BATCH_TRANSPARENT`] at batch 2 and 8;
//! * held at batch 1 by policy — ViT and the GPT/Llama family. The table
//!   was derived while a GEMM's partial row block took another rounding
//!   path than a full one, so a row's bits depended on how many rows the
//!   batch had. Partial blocks are zero-padded now, and these models'
//!   batched rows are bit-identical to solo runs as well;
//!   they stay out of the table only because adding them changes which
//!   requests the server batches, a serving change to be measured on its
//!   own;
//! * non-splittable — detection/panoptic models: dynamic ops (NMS) or
//!   outputs whose leading dim is not the batch make per-request rows
//!   unrecoverable; always batch 1.

use std::collections::HashMap;

use ngb_exec::synth_input;
use ngb_graph::{Graph, NodeId, OpKind};
use ngb_models::ModelId;
use ngb_tensor::{Tensor, TensorError};

/// Models whose batched rows are bit-identical to solo batch-1 runs.
/// Everything not listed serves at effective batch 1 (see module docs).
pub const BATCH_TRANSPARENT: &[ModelId] = &[
    ModelId::ResNet50,
    ModelId::MobileNetV2,
    ModelId::SwinTiny,
    ModelId::SwinSmall,
    ModelId::SwinBase,
    ModelId::Segformer,
    ModelId::Bert,
];

/// Whether `model` may be served in dynamic batches larger than 1.
pub fn batch_transparent(model: ModelId) -> bool {
    BATCH_TRANSPARENT.contains(&model)
}

/// The largest batch the scheduler may form for `model` under a
/// configured cap.
pub fn effective_max_batch(model: ModelId, max_batch: usize) -> usize {
    if batch_transparent(model) {
        max_batch.max(1)
    } else {
        1
    }
}

/// Synthesizes the batched input overrides for `batch_graph` from one
/// seed per request: per-request tensors come from the batch-1 graph's
/// input nodes (same node ids), concatenated along dim 0.
///
/// # Errors
///
/// Propagates `cat` failures (cannot happen for same-structure graphs).
pub fn batched_inputs(
    solo_graph: &Graph,
    seeds: &[u64],
) -> Result<HashMap<NodeId, Tensor>, TensorError> {
    let mut overrides = HashMap::new();
    for node in solo_graph.iter() {
        if matches!(node.op, OpKind::Input | OpKind::InputIds { .. }) {
            let parts: Vec<Tensor> = seeds.iter().map(|&s| synth_input(s, node)).collect();
            let joined = if parts.len() == 1 {
                parts.into_iter().next().expect("one part")
            } else {
                Tensor::cat(&parts, 0)?
            };
            overrides.insert(node.id, joined);
        }
    }
    Ok(overrides)
}

/// Splits one batched output tensor into its per-request rows (dense
/// copies, so the batch buffer is released).
///
/// # Errors
///
/// Fails when the leading dimension is not the batch size.
pub fn split_output(out: &Tensor, batch: usize) -> Result<Vec<Tensor>, TensorError> {
    if out.shape().first() != Some(&batch) {
        return Err(TensorError::InvalidArgument(format!(
            "output shape {:?} does not split into batch {batch}",
            out.shape()
        )));
    }
    (0..batch)
        .map(|i| Ok(out.narrow(0, i, 1)?.contiguous()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_models::Scale;

    #[test]
    fn transparency_policy_caps_non_transparent_models_at_one() {
        assert_eq!(effective_max_batch(ModelId::Bert, 8), 8);
        assert_eq!(effective_max_batch(ModelId::Gpt2, 8), 1);
        assert_eq!(effective_max_batch(ModelId::FasterRcnn, 8), 1);
        assert_eq!(effective_max_batch(ModelId::Bert, 0), 1);
    }

    #[test]
    fn batched_inputs_stack_per_request_rows() {
        let g1 = ModelId::Bert.build(1, Scale::Tiny).unwrap();
        let seeds = [1u64, 2, 3];
        let overrides = batched_inputs(&g1, &seeds).unwrap();
        assert!(!overrides.is_empty());
        for (id, t) in &overrides {
            let n = g1.node(*id);
            assert_eq!(t.shape()[0], seeds.len() * n.out_shape[0]);
            // row i must be exactly the solo synthesis for seed i
            for (i, &s) in seeds.iter().enumerate() {
                let row = t.narrow(0, i, 1).unwrap().contiguous();
                assert_eq!(row, synth_input(s, n));
            }
        }
    }

    #[test]
    fn split_output_rejects_wrong_leading_dim() {
        let t = Tensor::from_vec(vec![0.0; 6], &[2, 3]).unwrap();
        assert_eq!(split_output(&t, 2).unwrap().len(), 2);
        assert!(split_output(&t, 3).is_err());
    }
}
