//! # ngb-tensor
//!
//! A small, dependency-light dense tensor library that underpins the
//! NonGEMM Bench reproduction. It provides exactly the tensor semantics the
//! benchmark's operators need:
//!
//! * dense storage for `f32`, `i64`, and `bool` elements,
//! * shape/stride **views** so that the paper's *memory operators*
//!   (`reshape`, `view`, `permute`, `expand`, `squeeze`, …) can be modeled
//!   with their real zero-copy/copy behavior,
//! * copy operators (`contiguous`, `cat`, `split`, `stack`),
//! * broadcasting element-wise iteration used by the arithmetic kernels, and
//! * seeded random initialization so every experiment is reproducible.
//!
//! The design intentionally mirrors the PyTorch tensor model (storage +
//! shape + strides + offset) because the paper characterizes PyTorch
//! workloads: whether an operator allocates or merely re-strides is part of
//! what NonGEMM Bench measures.
//!
//! # Examples
//!
//! ```
//! use ngb_tensor::Tensor;
//!
//! # fn main() -> Result<(), ngb_tensor::TensorError> {
//! let t = Tensor::arange(0.0, 6.0, 1.0).reshape(&[2, 3])?;
//! let p = t.permute(&[1, 0])?;          // zero-copy transpose view
//! assert_eq!(p.shape(), &[3, 2]);
//! assert_eq!(p.at(&[2, 1])?, 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod compare;
mod error;
mod index;
mod shape;
mod storage;
mod tensor;
mod view;

pub mod random;
pub mod telemetry;

pub use compare::{bit_equal, max_abs_err, max_rel_err, Tolerance};
pub use error::TensorError;
pub use index::{offset_of, transposed_rows, LaneMap, LaneReader, TILED_COPY_MIN_ELEMS, TILE_ROWS};
pub use shape::{
    broadcast_shapes, contiguous_strides, expand_strides, is_contiguous, num_elements,
    reshape_strides, resolve_reshape,
};
pub use storage::{DType, Storage};
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
