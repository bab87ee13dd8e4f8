//! The service: accept loop → per-connection readers → bounded per-model
//! queues → round-robin batch scheduler → shared executor → responders.
//!
//! Threading model (all std): one accept thread, one reader thread per
//! connection, and one scheduler thread that forms and executes batches
//! on the pool of one shared [`ngb_exec::Interpreter`]. Responses are
//! written through a mutex-guarded clone of the connection socket, so the
//! scheduler and the reader (which answers control ops and rejections
//! inline) never interleave partial lines.
//!
//! A request is only ever delayed by work. On the wire, a response and its
//! newline leave in one `write_all` on a `TCP_NODELAY` socket, and the rows
//! of one batch that answer the same connection share that write: a second
//! small segment would sit behind Nagle's algorithm until the client's
//! delayed ACK. In the scheduler, a batch that is not full is held for
//! companions only while the model's measured arrivals are denser than
//! `batch_wait` (see [`due`]); sparse traffic is dispatched the moment the
//! scheduler is free.
//!
//! Graceful drain: `shutdown` (wire op or [`ServerHandle::shutdown`])
//! stops admission, the scheduler keeps dispatching until every admitted
//! request is answered, the worker pool is drained and stopped, and every
//! connection socket is closed so reader threads exit.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ngb_exec::{Engine, Interpreter};
use ngb_graph::Graph;
use ngb_models::ModelId;
use ngb_runtime::{GraphCache, GraphKey};
use serde_json::Value;

use crate::batching::{batched_inputs, effective_max_batch, split_output};
use crate::protocol::{error_response, obj, ok_response, tensor_digest, Request};
use crate::ServeConfig;

/// Counter snapshot of a running (or finished) server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted to a queue.
    pub accepted: u64,
    /// Requests answered with a result.
    pub completed: u64,
    /// Requests rejected by admission control (full queue or draining) —
    /// every one received an error response, none were dropped.
    pub rejected: u64,
    /// Malformed requests and execution failures.
    pub errors: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Largest batch actually formed.
    pub max_batch: usize,
}

impl ServeStats {
    fn to_value(self, extra: Vec<(&str, Value)>) -> Value {
        let mut fields = vec![
            ("accepted", Value::Number(self.accepted as f64)),
            ("completed", Value::Number(self.completed as f64)),
            ("rejected", Value::Number(self.rejected as f64)),
            ("errors", Value::Number(self.errors as f64)),
            ("batches", Value::Number(self.batches as f64)),
            ("max_batch", Value::Number(self.max_batch as f64)),
        ];
        fields.extend(extra);
        obj(fields)
    }
}

/// One admitted inference request waiting in a queue.
struct Pending {
    id: String,
    seed: u64,
    enqueued: Instant,
    reply: Responder,
}

/// Longest request line a connection may send, newline included.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Locks `m` whether or not an earlier holder panicked. Every critical
/// section in this file leaves its data valid at each step (counter bumps
/// and queue pushes; nothing that can panic sits between two updates that
/// belong together), so a poisoned lock must not turn every later request
/// into a dead server.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One response as it travels: the JSON object and its newline together,
/// so no caller can emit them as two segments.
fn wire_line(v: &Value) -> String {
    let mut line = serde_json::to_string(v).expect("responses serialize");
    line.push('\n');
    line
}

/// Serialized write access to one connection socket.
#[derive(Clone)]
struct Responder {
    stream: Arc<Mutex<TcpStream>>,
}

impl Responder {
    fn send(&self, v: &Value) {
        self.write(&wire_line(v));
    }

    /// Writes whole lines with one `write_all` under the lock.
    fn write(&self, lines: &str) {
        // a vanished client is not a server error; the write just ends
        let _ = lock(&self.stream).write_all(lines.as_bytes());
    }
}

/// Answers each request with one write per connection: lines that go back
/// on the same socket leave together.
fn reply_all<'a>(replies: impl Iterator<Item = (&'a Responder, Value)>) {
    let mut writes: Vec<(&Responder, String)> = Vec::new();
    for (to, v) in replies {
        let line = wire_line(&v);
        let same = writes
            .iter_mut()
            .find(|(r, _)| Arc::ptr_eq(&r.stream, &to.stream));
        match same {
            Some((_, lines)) => lines.push_str(&line),
            None => writes.push((to, line)),
        }
    }
    for (to, lines) in writes {
        to.write(&lines);
    }
}

/// Smoothed gap between the admissions of one model's requests: the
/// measurement the scheduler reads to tell whether a waiting request can
/// expect a companion.
#[derive(Default)]
struct Arrivals {
    last: Option<Instant>,
    gap: Option<Duration>,
}

impl Arrivals {
    /// Folds the gap since the previous admission into the estimate with
    /// weight 1/4, so a handful of arrivals follow a change of rate.
    fn observe(&mut self, now: Instant) {
        if let Some(last) = self.last {
            let sample = now.saturating_duration_since(last);
            self.gap = Some(self.gap.map_or(sample, |g| (g * 3 + sample) / 4));
        }
        self.last = Some(now);
    }

    /// The smoothed gap; with fewer than two arrivals nothing says a
    /// companion is coming.
    fn gap(&self) -> Duration {
        self.gap.unwrap_or(Duration::MAX)
    }
}

/// Whether a non-empty queue is dispatched now. A batch that is not full
/// is held, up to the oldest request's `batch_wait` deadline, only while
/// arrivals are dense enough (`gap < batch_wait`) that a companion is
/// expected before that deadline.
fn due(
    len: usize,
    cap: usize,
    head_age: Duration,
    gap: Duration,
    batch_wait: Duration,
    draining: bool,
) -> bool {
    len >= cap || draining || head_age >= batch_wait || gap >= batch_wait
}

/// One model's FIFO and the arrival measurement kept beside it.
struct ModelQueue {
    model: ModelId,
    pending: VecDeque<Pending>,
    arrivals: Arrivals,
}

/// Queue state guarded by one mutex (scheduler + all readers).
struct Queues {
    by_model: Vec<ModelQueue>,
    rr: usize,
    paused: bool,
    draining: bool,
    queued_total: usize,
}

impl Queues {
    fn queue_mut(&mut self, model: ModelId) -> &mut ModelQueue {
        if let Some(i) = self.by_model.iter().position(|q| q.model == model) {
            &mut self.by_model[i]
        } else {
            self.by_model.push(ModelQueue {
                model,
                pending: VecDeque::new(),
                arrivals: Arrivals::default(),
            });
            self.by_model.last_mut().expect("just pushed")
        }
    }

    fn queue_len(&self, model: ModelId) -> usize {
        self.by_model
            .iter()
            .find(|q| q.model == model)
            .map_or(0, |q| q.pending.len())
    }
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    queues: Mutex<Queues>,
    work: Condvar,
    cache: GraphCache,
    executor: Interpreter,
    stats: Mutex<ServeStats>,
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn begin_shutdown(&self) {
        {
            let mut q = lock(&self.queues);
            if q.draining {
                return;
            }
            q.draining = true;
        }
        self.work.notify_all();
        // wake the accept loop so it observes the drain flag
        let _ = TcpStream::connect(self.addr);
    }
}

/// The inference service. [`Server::start`] binds, spawns the threads,
/// and returns a [`ServerHandle`].
pub struct Server;

/// A running server: address, counters, and shutdown/join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    sched: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the accept and scheduler threads, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut executor = Interpreter::new(config.seed).engine(Engine::Parallel(config.threads));
        if let Some(on) = config.intra_op {
            executor = executor.intra_op(on);
        }
        executor.pool(); // spawn the workers now, not inside the first request
        let shared = Arc::new(Shared {
            config,
            addr,
            queues: Mutex::new(Queues {
                by_model: Vec::new(),
                rr: 0,
                paused: false,
                draining: false,
                queued_total: 0,
            }),
            work: Condvar::new(),
            cache: GraphCache::new(),
            executor,
            stats: Mutex::new(ServeStats::default()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ngb-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn accept thread")
        };
        let sched = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ngb-serve-sched".into())
                .spawn(move || scheduler_loop(&shared))
                .expect("spawn scheduler thread")
        };
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            sched: Some(sched),
        })
    }
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        *lock(&self.shared.stats)
    }

    /// Initiates graceful drain (same as the wire `shutdown` op).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the drain to finish and returns the final counters.
    /// Call [`ServerHandle::shutdown`] (or send the wire op) first.
    pub fn join(mut self) -> ServeStats {
        if let Some(h) = self.sched.take() {
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.stats()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if lock(&shared.queues).draining {
            return; // wake-up connection (or late client) — drop and exit
        }
        let Ok(stream) = stream else { continue };
        // responses are whole lines written once; Nagle would only hold a
        // later one back until the client acknowledges the earlier
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, clone);
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("ngb-serve-conn-{conn_id}"))
            .spawn(move || {
                connection_loop(stream, &shared);
                lock(&shared.conns).remove(&conn_id);
            });
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let responder = Responder {
        stream: Arc::new(Mutex::new(write_half)),
    };
    let bad_request = |msg: &str| {
        lock(&shared.stats).errors += 1;
        responder.send(&error_response("", 400, msg, None));
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // the cap bounds what a peer that never sends '\n' can make us hold
        let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64);
        if !matches!(capped.read_until(b'\n', &mut line), Ok(n) if n > 0) {
            break; // closed by the peer, or by the drain
        }
        if line.len() == MAX_LINE_BYTES && !line.ends_with(b"\n") {
            bad_request("request line too long");
            // close our side, then discard what the peer still sends: closing
            // over unread input resets the connection and can take the 400
            // with it before the peer has read it
            let _ = reader.get_ref().shutdown(Shutdown::Write);
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            bad_request("request line is not UTF-8");
            continue;
        };
        if text.trim().is_empty() {
            continue;
        }
        match Request::parse(text) {
            Err(msg) => bad_request(&msg),
            Ok(req) => handle_request(shared, &responder, req),
        }
    }
}

fn handle_request(shared: &Arc<Shared>, responder: &Responder, req: Request) {
    match req {
        Request::Infer { id, model, seed } => admit(shared, responder, id, &model, seed),
        Request::Ping => responder.send(&ok_response(vec![("pong", Value::Bool(true))])),
        Request::Stats => responder.send(&stats_response(shared)),
        Request::Pause => {
            lock(&shared.queues).paused = true;
            shared.work.notify_all();
            responder.send(&ok_response(vec![("paused", Value::Bool(true))]));
        }
        Request::Resume => {
            lock(&shared.queues).paused = false;
            shared.work.notify_all();
            responder.send(&ok_response(vec![("paused", Value::Bool(false))]));
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            responder.send(&ok_response(vec![("draining", Value::Bool(true))]));
        }
    }
}

/// Admission control: resolve the model, enforce the drain flag and the
/// per-model queue bound, and either enqueue or reject with an explicit
/// error response.
fn admit(shared: &Arc<Shared>, responder: &Responder, id: String, model: &str, seed: u64) {
    let Some(model_id) = ModelId::parse(model) else {
        lock(&shared.stats).errors += 1;
        responder.send(&error_response(
            &id,
            404,
            &format!("unknown model \"{model}\""),
            None,
        ));
        return;
    };
    let rejection = {
        let mut q = lock(&shared.queues);
        if q.draining {
            Some(error_response(&id, 503, "shutting down", None))
        } else if q.queue_len(model_id) >= shared.config.queue_cap {
            let retry_ms = (shared.config.batch_wait.as_millis() as u64).max(1);
            Some(error_response(&id, 429, "queue full", Some(retry_ms)))
        } else {
            let now = Instant::now();
            let queue = q.queue_mut(model_id);
            queue.arrivals.observe(now);
            queue.pending.push_back(Pending {
                id,
                seed,
                enqueued: now,
                reply: responder.clone(),
            });
            q.queued_total += 1;
            None
        }
    };
    let mut stats = lock(&shared.stats);
    match rejection {
        Some(resp) => {
            stats.rejected += 1;
            drop(stats);
            responder.send(&resp);
        }
        None => {
            stats.accepted += 1;
            drop(stats);
            shared.work.notify_all();
        }
    }
}

fn stats_response(shared: &Arc<Shared>) -> Value {
    let stats = *lock(&shared.stats);
    let (queued, paused, draining) = {
        let q = lock(&shared.queues);
        (q.queued_total, q.paused, q.draining)
    };
    let cache = shared.cache.stats();
    let extra = vec![
        ("queued", Value::Number(queued as f64)),
        ("paused", Value::Bool(paused)),
        ("draining", Value::Bool(draining)),
        (
            "pool_queue_depth",
            Value::Number(shared.executor.pool().queue_depth() as f64),
        ),
        (
            "pool_in_flight",
            Value::Number(shared.executor.pool().in_flight() as f64),
        ),
        (
            "graph_cache",
            obj(vec![
                ("hits", Value::Number(cache.hits as f64)),
                ("misses", Value::Number(cache.misses as f64)),
                ("entries", Value::Number(cache.entries as f64)),
            ]),
        ),
    ];
    ok_response(vec![("stats", stats.to_value(extra))])
}

/// Round-robin scheduler: picks the next model whose queue is [`due`],
/// sleeps until the earliest deadline (or the next arrival) otherwise, and
/// exits once draining leaves every queue empty.
fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        let Some((model, taken)) = next_batch(shared) else {
            break;
        };
        execute_batch(shared, model, taken);
    }
    // drain finished: quiesce the pool, then unblock every reader
    shared.executor.pool().shutdown();
    for (_, stream) in lock(&shared.conns).drain() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

fn next_batch(shared: &Arc<Shared>) -> Option<(ModelId, Vec<Pending>)> {
    let max_batch = shared.config.max_batch;
    let batch_wait = shared.config.batch_wait;
    let mut q = lock(&shared.queues);
    loop {
        if q.draining && q.queued_total == 0 {
            return None;
        }
        // draining overrides pause: shutdown must always make progress
        if (!q.paused || q.draining) && q.queued_total > 0 {
            let now = Instant::now();
            let n = q.by_model.len();
            // round-robin scan for a dispatchable queue
            let pick = (0..n).map(|i| (q.rr + i) % n).find_map(|idx| {
                let queue = &q.by_model[idx];
                let head = queue.pending.front()?;
                let cap = effective_max_batch(queue.model, max_batch);
                let head_age = now.saturating_duration_since(head.enqueued);
                let (len, gap) = (queue.pending.len(), queue.arrivals.gap());
                due(len, cap, head_age, gap, batch_wait, q.draining).then_some((idx, cap))
            });
            if let Some((idx, cap)) = pick {
                q.rr = (idx + 1) % n;
                let queue = &mut q.by_model[idx];
                let model = queue.model;
                let take = queue.pending.len().min(cap);
                let taken: Vec<Pending> = queue.pending.drain(..take).collect();
                q.queued_total -= taken.len();
                return Some((model, taken));
            }
            // every waiting request expects a companion: sleep until the
            // earliest deadline; an arrival wakes the scan sooner
            let earliest = q
                .by_model
                .iter()
                .filter_map(|queue| queue.pending.front())
                .map(|p| p.enqueued + batch_wait)
                .min();
            if let Some(deadline) = earliest {
                let wait = deadline.saturating_duration_since(Instant::now());
                let woken = shared.work.wait_timeout(q, wait);
                q = woken.unwrap_or_else(PoisonError::into_inner).0;
                continue;
            }
        }
        q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Fetches (or builds) the optimized graph for one (model, batch) point.
fn cached_graph(
    shared: &Arc<Shared>,
    model: ModelId,
    batch: usize,
) -> Result<Arc<Graph>, ngb_tensor::TensorError> {
    let key = GraphKey {
        model: model.spec().alias.to_string(),
        scale: shared.config.scale.name().to_string(),
        opt_level: shared.config.opt_level.name().to_string(),
        batch,
    };
    shared.cache.get_or_build(&key, || {
        model
            .build(batch, shared.config.scale)
            .map(|g| ngb_opt::optimize(&g, shared.config.opt_level).0)
    })
}

fn execute_batch(shared: &Arc<Shared>, model: ModelId, taken: Vec<Pending>) {
    let batch = taken.len();
    let dispatched = Instant::now();
    let alias = model.spec().alias;

    let result = cached_graph(shared, model, 1).and_then(|solo| {
        let graph = if batch == 1 {
            Arc::clone(&solo)
        } else {
            cached_graph(shared, model, batch)?
        };
        let seeds: Vec<u64> = taken.iter().map(|p| p.seed).collect();
        let overrides = batched_inputs(&solo, &seeds)?;
        let t0 = Instant::now();
        let trace = shared.executor.run_with_inputs(&graph, &overrides)?;
        let exec = t0.elapsed();
        Ok((graph, trace, exec))
    });

    let (graph, trace, exec) = match result {
        Ok(r) => r,
        Err(e) => return fail_batch(shared, &taken, &format!("execution failed: {e}")),
    };

    // split each output once, then assemble per-request records
    let mut rows: Vec<Vec<(ngb_graph::NodeId, ngb_tensor::Tensor)>> =
        (0..batch).map(|_| Vec::new()).collect();
    for (node, tensor) in &trace.outputs {
        if batch == 1 {
            rows[0].push((*node, tensor.clone()));
            continue;
        }
        match split_output(tensor, batch) {
            Ok(split) => {
                for (i, row) in split.into_iter().enumerate() {
                    rows[i].push((*node, row));
                }
            }
            Err(e) => return fail_batch(shared, &taken, &format!("batch split failed: {e}")),
        }
    }

    let breakdown =
        serde_json::to_value(ngb_profiler::breakdown_from_trace(&graph, &trace.timings))
            .unwrap_or(Value::Null);
    let exec_us = exec.as_micros() as f64;

    // counted before answered: a client that asks for stats after its
    // answer finds itself in them
    {
        let mut stats = lock(&shared.stats);
        stats.completed += batch as u64;
        stats.batches += 1;
        stats.max_batch = stats.max_batch.max(batch);
    }
    reply_all(taken.iter().zip(rows).map(|(p, row)| {
        let queue_us = dispatched.duration_since(p.enqueued).as_micros() as f64;
        let outputs: Vec<Value> = row
            .iter()
            .map(|(node, tensor)| {
                obj(vec![
                    ("node", Value::Number(node.0 as f64)),
                    (
                        "shape",
                        Value::Array(
                            tensor
                                .shape()
                                .iter()
                                .map(|&d| Value::Number(d as f64))
                                .collect(),
                        ),
                    ),
                    ("digest", Value::String(tensor_digest(tensor))),
                ])
            })
            .collect();
        let record = obj(vec![
            ("batch_size", Value::Number(batch as f64)),
            ("queue_us", Value::Number(queue_us)),
            ("exec_us", Value::Number(exec_us)),
            ("outputs", Value::Array(outputs)),
            ("breakdown", breakdown.clone()),
        ]);
        let response = ok_response(vec![
            ("id", Value::String(p.id.clone())),
            ("model", Value::String(alias.to_string())),
            ("result", record),
        ]);
        (&p.reply, response)
    }));
}

/// Answers every request of a batch that could not be served with a 500.
fn fail_batch(shared: &Arc<Shared>, taken: &[Pending], msg: &str) {
    lock(&shared.stats).errors += taken.len() as u64;
    reply_all(
        taken
            .iter()
            .map(|p| (&p.reply, error_response(&p.id, 500, msg, None))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_millis(2);
    const YOUNG: Duration = Duration::from_micros(100);
    const DENSE: Duration = Duration::from_micros(500);
    const SPARSE: Duration = Duration::from_millis(13);

    #[test]
    fn a_queue_is_due_when_waiting_cannot_add_a_companion() {
        // dense arrivals and a young head: the one case worth holding
        assert!(!due(1, 8, YOUNG, DENSE, WAIT, false));
        assert!(!due(7, 8, YOUNG, DENSE, WAIT, false));
        // full batch
        assert!(due(8, 8, YOUNG, DENSE, WAIT, false));
        assert!(due(1, 1, YOUNG, DENSE, WAIT, false));
        // expired head, at and past the deadline
        assert!(due(1, 8, WAIT, DENSE, WAIT, false));
        assert!(due(1, 8, WAIT * 3, DENSE, WAIT, false));
        // draining
        assert!(due(1, 8, YOUNG, DENSE, WAIT, true));
        // sparse arrivals, measured or not yet measurable
        assert!(due(1, 8, YOUNG, SPARSE, WAIT, false));
        assert!(due(1, 8, YOUNG, WAIT, WAIT, false));
        assert!(due(1, 8, Duration::ZERO, Duration::MAX, WAIT, false));
        // no linger configured: nothing is ever held
        assert!(due(
            1,
            8,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            false
        ));
    }

    #[test]
    fn the_gap_estimate_follows_a_hand_made_arrival_sequence() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut a = Arrivals::default();
        assert_eq!(a.gap(), Duration::MAX);
        a.observe(at(0));
        assert_eq!(a.gap(), Duration::MAX, "one arrival measures no gap");
        a.observe(at(8_000));
        assert_eq!(a.gap(), Duration::from_micros(8_000));
        // (3 * 8000 + 4000) / 4, then (3 * 7000 + 1000) / 4
        a.observe(at(12_000));
        assert_eq!(a.gap(), Duration::from_micros(7_000));
        a.observe(at(13_000));
        assert_eq!(a.gap(), Duration::from_micros(5_500));
        // a burst drags the estimate under a 2 ms ceiling within five
        // arrivals, and one long silence lifts it back over at once
        for i in 1..=5 {
            a.observe(at(13_000 + 100 * i));
        }
        assert!(a.gap() < WAIT, "gap {:?}", a.gap());
        a.observe(at(1_013_500));
        assert!(a.gap() >= WAIT, "gap {:?}", a.gap());
        // a clock reading that does not advance is a zero gap, not a panic
        a.observe(at(1_013_500));
        a.observe(at(0));
    }
}
