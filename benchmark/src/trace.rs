//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer, with child spans rebuilt from the data those calls return.
//!
//! A span's self time is its duration minus the part of that interval its
//! children cover (children may overlap: kernels of a parallel run do).
//! Self times are accumulated for every span; only a bounded sample of the
//! spans themselves is kept for the Chrome trace file, because a node-level
//! child per kernel per inference would run to millions of events.

use std::collections::BTreeMap;
use std::time::Instant;

use nongemm::serve::protocol::obj;
use serde_json::Value;

/// One recorded interval, microseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the causing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Spans of one operation (request, inference, session) share this.
    pub request: u64,
    /// Display lane: worker thread or device.
    pub lane: usize,
    /// Part of the interval covered by children.
    pub covered_us: f64,
}

impl Span {
    pub fn self_us(&self) -> f64 {
        (self.end_us - self.start_us - self.covered_us).max(0.0)
    }
}

/// A child interval handed to [`Tracer::operation`].
#[derive(Debug, Clone, Copy)]
pub struct Child {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub lane: usize,
}

/// Per-name totals over every span recorded, stored or not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
    /// Whether spans of this name were ever split into children; only those
    /// contribute to the `unattributed` line.
    pub split: bool,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, Totals>,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + open.map_or(0.0, |(s, e)| e - s)
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Microseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn account(&mut self, name: &'static str, total_us: f64, self_us: f64, split: bool) {
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_us += total_us;
        t.self_us += self_us;
        t.split |= split;
    }

    /// Records one operation span and its children. Self times always enter
    /// [`Tracer::totals`]; the spans are kept for the trace file only when
    /// `store` is set. Returns the operation's self time in microseconds.
    pub fn operation(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
        children: &[Child],
        store: bool,
    ) -> f64 {
        let (start_us, end_us) = (self.at(start), self.at(end));
        let intervals: Vec<(f64, f64)> = children.iter().map(|c| (c.start_us, c.end_us)).collect();
        let covered_us = covered(start_us, end_us, &intervals);
        let op = Span {
            name,
            start_us,
            end_us,
            parent: None,
            request,
            lane: 0,
            covered_us,
        };
        let self_us = op.self_us();
        self.account(name, end_us - start_us, self_us, !children.is_empty());
        for c in children {
            let d = (c.end_us - c.start_us).max(0.0);
            self.account(c.name, d, d, false);
        }
        if store {
            let parent = self.spans.len();
            self.spans.push(op);
            self.spans.extend(children.iter().map(|c| Span {
                name: c.name,
                start_us: c.start_us,
                end_us: c.end_us,
                parent: Some(parent),
                request,
                lane: c.lane,
                covered_us: 0.0,
            }));
        }
        self_us
    }

    /// Self time inside split spans over their total time: what the layer
    /// spans do not explain.
    pub fn unattributed(&self) -> (f64, f64) {
        let split = self.totals.values().filter(|t| t.split);
        let (own, whole) = split.fold((0.0, 0.0), |(o, w), t| (o + t.self_us, w + t.total_us));
        (own, crate::stats::share(own, whole))
    }

    /// Chrome trace (`chrome://tracing`, Perfetto) object form, with the
    /// per-name self-time table and the `unattributed` line alongside.
    pub fn to_chrome(&self, workload: &str, fingerprint: Value) -> Value {
        let num = Value::Number;
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", Value::String(s.name.to_string())),
                    ("cat", Value::String(workload.to_string())),
                    ("ph", Value::String("X".into())),
                    ("ts", num(s.start_us)),
                    ("dur", num((s.end_us - s.start_us).max(0.0))),
                    ("pid", num(1.0)),
                    ("tid", num(s.lane as f64)),
                    (
                        "args",
                        obj(vec![
                            ("request", num(s.request as f64)),
                            ("parent", s.parent.map_or(Value::Null, |p| num(p as f64))),
                            ("self_us", num(s.self_us())),
                        ]),
                    ),
                ])
            })
            .collect();
        let self_time: Vec<(String, Value)> = self
            .totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("count", num(t.count as f64)),
                        ("total_us", num(t.total_us)),
                        ("self_us", num(t.self_us)),
                    ]),
                )
            })
            .collect();
        let (own_us, own_share) = self.unattributed();
        obj(vec![
            ("workload", Value::String(workload.to_string())),
            ("fingerprint", fingerprint),
            (
                "unattributed",
                obj(vec![("us", num(own_us)), ("share", num(own_share))]),
            ),
            ("self_time", Value::Object(self_time)),
            ("spans_recorded", {
                num(self.totals.values().map(|t| t.count).sum::<u64>() as f64)
            }),
            ("spans_stored", num(self.spans.len() as f64)),
            ("displayTimeUnit", Value::String("ms".into())),
            ("traceEvents", Value::Array(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 3.0);
        // overlapping and nested intervals count once
        assert_eq!(
            covered(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0), (2.0, 3.0)]),
            5.0
        );
        // parts outside the parent do not count
        assert_eq!(covered(2.0, 8.0, &[(0.0, 3.0), (7.0, 12.0)]), 2.0);
        assert_eq!(covered(2.0, 8.0, &[(9.0, 12.0)]), 0.0);
    }

    fn child(name: &'static str, start_us: f64, end_us: f64, lane: usize) -> Child {
        Child {
            name,
            start_us,
            end_us,
            lane,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new();
        let start = t.origin + Duration::from_micros(100);
        let end = t.origin + Duration::from_micros(200);
        // two workers overlap on 120..150; 160..170 runs alone
        let kids = [
            child("ops.gemm", 110.0, 150.0, 0),
            child("ops.memory", 120.0, 160.0, 1),
            child("ops.gemm", 160.0, 170.0, 0),
        ];
        let own = t.operation("exec.run", start, end, 7, &kids, true);
        assert!((own - 40.0).abs() < 1e-6, "{own}");
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.request == 7));
        let run = t.totals["exec.run"];
        assert!(run.split && run.count == 1);
        assert!((run.total_us - 100.0).abs() < 1e-6);
        let gemm = t.totals["ops.gemm"];
        assert_eq!(gemm.count, 2);
        assert!((gemm.self_us - 50.0).abs() < 1e-6);

        // unstored spans still enter the totals; childless ones stay out of
        // the unattributed line
        t.operation("exec.run", start, end, 8, &kids, false);
        t.operation("models.build", start, end, 0, &[], false);
        assert_eq!(t.spans.len(), 4);
        let (own_us, own_share) = t.unattributed();
        assert!((own_us - 80.0).abs() < 1e-6);
        assert!((own_share - 0.4).abs() < 1e-9);
    }

    #[test]
    fn chrome_output_states_unattributed() {
        let mut t = Tracer::new();
        let (a, b) = (t.origin, t.origin + Duration::from_micros(10));
        t.operation("exec.run", a, b, 1, &[child("ops.gemm", 0.0, 4.0, 0)], true);
        let v = t.to_chrome("graph_tiny", Value::Null);
        assert_eq!(v["unattributed"]["us"], 6.0);
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 2);
        assert_eq!(v["traceEvents"][0]["ph"], "X");
    }
}
