//! Thread-local layout-copy telemetry.
//!
//! Counts the bytes physically copied by materialization: the copying path of
//! [`Tensor::contiguous`](crate::Tensor::contiguous) (which also backs
//! stride-incompatible `reshape`) and any kernel fallback that gathers a
//! strided operand into dense storage. Engines sample the counter around each
//! node execution to attribute layout copies to the node that incurred them —
//! a copy is always counted on the thread dispatching the node, never inside
//! intra-op worker chunks (a tiled copy split across chunks is counted once
//! by its caller), so a thread-local is exact.

use std::cell::Cell;

thread_local! {
    static BYTES_MATERIALIZED: Cell<u64> = const { Cell::new(0) };
}

/// Adds `bytes` to this thread's materialization counter.
///
/// Called by the tensor layer when a copy is unavoidable; strided kernel
/// paths that consume views in place never report here.
#[inline]
pub fn note_materialized(bytes: usize) {
    BYTES_MATERIALIZED.with(|c| c.set(c.get() + bytes as u64));
}

/// Current value of this thread's materialization counter, in bytes.
pub fn bytes_materialized() -> u64 {
    BYTES_MATERIALIZED.with(|c| c.get())
}

/// Resets this thread's materialization counter to zero.
pub fn reset_bytes_materialized() {
    BYTES_MATERIALIZED.with(|c| c.set(0));
}

/// Returns the counter and resets it — the sampling primitive used by
/// execution engines around each node.
pub fn take_bytes_materialized() -> u64 {
    BYTES_MATERIALIZED.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn contiguous_copy_is_counted() {
        reset_bytes_materialized();
        let a = Tensor::arange(0.0, 6.0, 1.0).reshape(&[2, 3]).unwrap();
        let _free = a.contiguous(); // already dense: no copy
        assert_eq!(take_bytes_materialized(), 0);
        let p = a.permute(&[1, 0]).unwrap();
        let _copy = p.contiguous();
        assert_eq!(take_bytes_materialized(), 6 * 4);
        // take() reset the counter
        assert_eq!(bytes_materialized(), 0);
    }
}
