//! # ngb-graph
//!
//! The operator-graph intermediate representation of NonGEMM Bench: the
//! Rust analogue of a `torch.fx` trace. A [`Graph`] is a topologically
//! ordered list of operator [`Node`]s with concrete shapes; it can be
//!
//! * **classified** — every node is [`OpClass::Gemm`] or
//!   [`OpClass::NonGemm`] with a functional [`NonGemmGroup`] (the paper's
//!   §2.1 taxonomy),
//! * **costed** — [`Graph::node_cost`] returns the device-independent
//!   FLOPs/traffic/kernel-count descriptor used by the analytic platform
//!   models,
//! * **executed** — the `ngb-exec` crate runs the graph on real tensors
//!   with reproducible synthetic weights, sequentially or on a worker
//!   pool, timing every node (the host-measured profiling mode), and
//! * **matched** — [`attention_prologue`] and [`conv_bn`] are the one
//!   definition of the fusion patterns that `ngb-opt` rewrites,
//!   `ngb-analyze` lints and `ngb-runtime` prices.
//!
//! # Examples
//!
//! ```
//! use ngb_graph::{GraphBuilder, OpKind};
//!
//! # fn main() -> Result<(), ngb_tensor::TensorError> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input(&[1, 4]);
//! let h = b.push(OpKind::Linear { in_f: 4, out_f: 4, bias: true }, &[x], "fc")?;
//! b.push(OpKind::Relu, &[h], "act")?;
//! let graph = b.finish();
//!
//! assert_eq!(graph.len(), 3);
//! assert_eq!(graph.node(h).out_shape, vec![1, 4]);
//! graph.validate().expect("builder graphs are well-formed");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod fusion;
mod graph;
mod infer;
mod op;

pub use fusion::{attention_prologue, conv_bn, AttentionMatch};
pub use graph::{Graph, GraphBuilder, Node, NodeId, StructuralIssue};
pub use infer::{fused_attribution, infer_shape, op_cost, static_strides, walk_fused};
pub use op::{shard_span, FusedKind, FusedOp, FusedStage, NonGemmGroup, OpClass, OpKind};
