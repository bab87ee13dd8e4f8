//! Shadow-memory execution sanitizer.
//!
//! [`ShadowMemory`] mirrors one run's value table with per-slot state
//! tags (unwritten / written / freed) plus an owner id and reader count,
//! and checks every executor access against them:
//!
//! - **read-before-write** — a consumer gathered an input its producer
//!   never wrote (a scheduling bug: the data edge was not ordered);
//! - **write-write overlap** — two nodes wrote the same slot (an id
//!   aliasing or double-execution bug);
//! - **use-after-free** — a value was read after, or freed while, the
//!   liveness plan had (or concurrent readers still held) it.
//!
//! Every transition appends to a bounded event ring, so a violation
//! reports the offending node ids *and* the recent history of the slot's
//! accesses — enough to replay the interleaving that produced it. All
//! checks sit behind one mutex; the sanitizer is a debugging mode
//! (`--sanitize`, `Interpreter::sanitize`), not a fast path, and when
//! disabled the executors hold no [`ShadowMemory`] at all (zero overhead).

use std::collections::VecDeque;
use std::sync::Mutex;

use ngb_tensor::TensorError;

/// Events kept per shadow memory for violation reports.
const TRACE_CAP: usize = 64;

/// What an executor did to a slot, as recorded in the trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Write,
    BeginRead,
    EndRead,
    Free,
}

impl Action {
    fn name(self) -> &'static str {
        match self {
            Action::Write => "write",
            Action::BeginRead => "begin-read",
            Action::EndRead => "end-read",
            Action::Free => "free",
        }
    }
}

/// One recorded access: at logical time `epoch`, node `actor` performed
/// `action` on the slot of value `value`.
#[derive(Debug, Clone, Copy)]
struct Event {
    epoch: u64,
    action: Action,
    value: usize,
    actor: usize,
}

/// Shadow tag of one value slot.
#[derive(Debug, Clone, Copy)]
enum SlotState {
    /// No producer has written yet.
    Unwritten,
    /// Written by `writer` at `epoch`; `readers` nodes are mid-read.
    Written {
        writer: usize,
        epoch: u64,
        readers: usize,
    },
    /// Written by `writer`, then freed by `freed_by` at `epoch`.
    Freed {
        writer: usize,
        freed_by: usize,
        epoch: u64,
    },
}

#[derive(Debug)]
struct ShadowInner {
    slots: Vec<SlotState>,
    epoch: u64,
    trace: VecDeque<Event>,
}

/// Per-run shadow of the executor's value table (see module docs).
///
/// Slot indices are graph positions; actors are the node positions
/// performing the access. All methods are callable from any worker
/// thread.
#[derive(Debug)]
pub struct ShadowMemory {
    inner: Mutex<ShadowInner>,
}

impl ShadowMemory {
    /// A shadow for a graph of `len` values, all unwritten.
    pub fn new(len: usize) -> ShadowMemory {
        ShadowMemory {
            inner: Mutex::new(ShadowInner {
                slots: vec![SlotState::Unwritten; len],
                epoch: 0,
                trace: VecDeque::with_capacity(TRACE_CAP),
            }),
        }
    }

    /// Records node `writer` defining value `value`.
    ///
    /// # Errors
    ///
    /// Write-write overlap (slot already written) or write-after-free.
    pub fn write(&self, value: usize, writer: usize) -> Result<(), TensorError> {
        let mut inner = self.lock();
        inner.record(Action::Write, value, writer);
        match inner.slots[value] {
            SlotState::Unwritten => {
                let epoch = inner.epoch;
                inner.slots[value] = SlotState::Written {
                    writer,
                    epoch,
                    readers: 0,
                };
                Ok(())
            }
            SlotState::Written {
                writer: prev,
                epoch,
                ..
            } => Err(inner.violation(format!(
                "write-write overlap on value %{value}: node %{writer} wrote a slot \
                 node %{prev} already wrote at t{epoch}"
            ))),
            SlotState::Freed {
                freed_by, epoch, ..
            } => Err(inner.violation(format!(
                "write-after-free on value %{value}: node %{writer} wrote a slot \
                 node %{freed_by} freed at t{epoch}"
            ))),
        }
    }

    /// Records node `reader` starting to consume value `value` (gathering
    /// it as a kernel input). Pair with [`ShadowMemory::end_read`].
    ///
    /// # Errors
    ///
    /// Read-before-write (slot unwritten: an unordered or missing data
    /// edge let the consumer run early) or use-after-free.
    pub fn begin_read(&self, value: usize, reader: usize) -> Result<(), TensorError> {
        let mut inner = self.lock();
        inner.record(Action::BeginRead, value, reader);
        match &mut inner.slots[value] {
            SlotState::Unwritten => Err(inner.violation(format!(
                "read-before-write on value %{value}: node %{reader} consumed it \
                 before its producer executed (unordered or missing data edge)"
            ))),
            SlotState::Written { readers, .. } => {
                *readers += 1;
                Ok(())
            }
            SlotState::Freed {
                writer,
                freed_by,
                epoch,
            } => {
                let (writer, freed_by, epoch) = (*writer, *freed_by, *epoch);
                Err(inner.violation(format!(
                    "use-after-free on value %{value} (produced by node %{writer}): \
                     node %{reader} read a slot node %{freed_by} freed at t{epoch} \
                     (lifetime ended too early)"
                )))
            }
        }
    }

    /// Records node `reader` finishing with value `value`. Infallible:
    /// an unmatched end-read can only follow an already-reported
    /// violation, so it is recorded but not re-reported.
    pub fn end_read(&self, value: usize, reader: usize) {
        let mut inner = self.lock();
        inner.record(Action::EndRead, value, reader);
        if let SlotState::Written { readers, .. } = &mut inner.slots[value] {
            *readers = readers.saturating_sub(1);
        }
    }

    /// Records node `freer` releasing value `value` (drop-at-last-use).
    ///
    /// # Errors
    ///
    /// Freeing an unwritten slot, double free, or freeing while another
    /// node is mid-read (a use-after-free race the liveness plan missed).
    pub fn free(&self, value: usize, freer: usize) -> Result<(), TensorError> {
        let mut inner = self.lock();
        inner.record(Action::Free, value, freer);
        match inner.slots[value] {
            SlotState::Unwritten => Err(inner.violation(format!(
                "free-before-write on value %{value}: node %{freer} freed a slot \
                 that was never produced"
            ))),
            SlotState::Written {
                writer, readers, ..
            } if readers > 0 => Err(inner.violation(format!(
                "use-after-free race on value %{value}: node %{freer} freed it while \
                 {readers} reader(s) were still consuming (producer %{writer})"
            ))),
            SlotState::Written { writer, .. } => {
                let epoch = inner.epoch;
                inner.slots[value] = SlotState::Freed {
                    writer,
                    freed_by: freer,
                    epoch,
                };
                Ok(())
            }
            SlotState::Freed {
                freed_by, epoch, ..
            } => Err(inner.violation(format!(
                "double free on value %{value}: node %{freer} freed a slot \
                 node %{freed_by} already freed at t{epoch}"
            ))),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShadowInner> {
        self.inner.lock().expect("shadow memory lock")
    }
}

impl ShadowInner {
    fn record(&mut self, action: Action, value: usize, actor: usize) {
        self.epoch += 1;
        if self.trace.len() == TRACE_CAP {
            self.trace.pop_front();
        }
        self.trace.push_back(Event {
            epoch: self.epoch,
            action,
            value,
            actor,
        });
    }

    /// Builds the violation error: message plus the replayable access
    /// trace (most recent last).
    fn violation(&self, message: String) -> TensorError {
        let mut text = format!("sanitizer: {message}; trace:");
        for e in &self.trace {
            text.push_str(&format!(
                " [t{} %{} {} %{}]",
                e.epoch,
                e.actor,
                e.action.name(),
                e.value
            ));
        }
        TensorError::InvalidArgument(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(r: Result<(), TensorError>) -> String {
        r.unwrap_err().to_string()
    }

    #[test]
    fn clean_produce_consume_free_cycle_passes() {
        let s = ShadowMemory::new(3);
        s.write(0, 0).unwrap();
        s.begin_read(0, 1).unwrap();
        s.write(1, 1).unwrap();
        s.end_read(0, 1);
        s.free(0, 1).unwrap();
        s.begin_read(1, 2).unwrap();
        s.write(2, 2).unwrap();
        s.end_read(1, 2);
        s.free(1, 2).unwrap();
    }

    #[test]
    fn read_before_write_is_reported_with_both_nodes() {
        let s = ShadowMemory::new(2);
        let m = msg(s.begin_read(0, 1));
        assert!(m.contains("read-before-write"), "{m}");
        assert!(m.contains("%1"), "{m}");
        assert!(m.contains("trace:"), "{m}");
    }

    #[test]
    fn write_write_overlap_names_both_writers() {
        let s = ShadowMemory::new(1);
        s.write(0, 0).unwrap();
        let m = msg(s.write(0, 5));
        assert!(m.contains("write-write overlap"), "{m}");
        assert!(m.contains("%5") && m.contains("%0"), "{m}");
    }

    #[test]
    fn use_after_free_on_read() {
        let s = ShadowMemory::new(2);
        s.write(0, 0).unwrap();
        s.free(0, 1).unwrap();
        let m = msg(s.begin_read(0, 2));
        assert!(m.contains("use-after-free"), "{m}");
        assert!(m.contains("%2"), "{m}");
    }

    #[test]
    fn freeing_under_active_readers_is_a_race() {
        let s = ShadowMemory::new(2);
        s.write(0, 0).unwrap();
        s.begin_read(0, 1).unwrap();
        let m = msg(s.free(0, 1));
        assert!(m.contains("use-after-free race"), "{m}");
        // after the reader finishes, the free succeeds
        let s2 = ShadowMemory::new(2);
        s2.write(0, 0).unwrap();
        s2.begin_read(0, 1).unwrap();
        s2.end_read(0, 1);
        s2.free(0, 1).unwrap();
    }

    #[test]
    fn double_free_and_free_before_write() {
        let s = ShadowMemory::new(2);
        s.write(0, 0).unwrap();
        s.free(0, 1).unwrap();
        assert!(msg(s.free(0, 2)).contains("double free"));
        assert!(msg(s.free(1, 2)).contains("free-before-write"));
    }

    #[test]
    fn write_after_free_is_reported() {
        let s = ShadowMemory::new(1);
        s.write(0, 0).unwrap();
        s.free(0, 0).unwrap();
        assert!(msg(s.write(0, 0)).contains("write-after-free"));
    }

    #[test]
    fn trace_ring_is_bounded() {
        let s = ShadowMemory::new(1);
        s.write(0, 0).unwrap();
        for _ in 0..(TRACE_CAP * 2) {
            s.begin_read(0, 0).unwrap();
            s.end_read(0, 0);
        }
        let inner = s.lock();
        assert_eq!(inner.trace.len(), TRACE_CAP);
        assert!(inner.epoch > TRACE_CAP as u64);
    }
}
