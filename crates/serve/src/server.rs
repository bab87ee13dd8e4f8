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
//! Graceful drain: `shutdown` (wire op or [`ServerHandle::shutdown`])
//! stops admission, the scheduler keeps dispatching until every admitted
//! request is answered, the worker pool is drained and stopped, and every
//! connection socket is closed so reader threads exit.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ngb_exec::{Engine, Interpreter};
use ngb_graph::Graph;
use ngb_models::ModelId;
use ngb_runtime::{GraphCache, GraphKey};
use serde_json::Value;

use crate::batching::{batched_inputs, effective_max_batch, model_by_alias, split_output};
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

/// Serialized write access to one connection socket.
#[derive(Clone)]
struct Responder {
    stream: Arc<Mutex<TcpStream>>,
}

impl Responder {
    fn send(&self, v: &Value) {
        let line = serde_json::to_string(v).expect("responses serialize");
        let mut s = self.stream.lock().expect("responder lock");
        // a vanished client is not a server error; the write just ends
        let _ = s.write_all(line.as_bytes());
        let _ = s.write_all(b"\n");
        let _ = s.flush();
    }
}

/// Queue state guarded by one mutex (scheduler + all readers).
struct Queues {
    by_model: Vec<(ModelId, VecDeque<Pending>)>,
    rr: usize,
    paused: bool,
    draining: bool,
    queued_total: usize,
}

impl Queues {
    fn queue_mut(&mut self, model: ModelId) -> &mut VecDeque<Pending> {
        if let Some(i) = self.by_model.iter().position(|(m, _)| *m == model) {
            &mut self.by_model[i].1
        } else {
            self.by_model.push((model, VecDeque::new()));
            &mut self.by_model.last_mut().expect("just pushed").1
        }
    }

    fn queue_len(&self, model: ModelId) -> usize {
        self.by_model
            .iter()
            .find(|(m, _)| *m == model)
            .map_or(0, |(_, q)| q.len())
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
            let mut q = self.queues.lock().expect("queue lock");
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
        let mut executor =
            Interpreter::new(config.seed).engine(Engine::Parallel(config.effective_threads()));
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
        *self.shared.stats.lock().expect("stats lock")
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
        if shared.queues.lock().expect("queue lock").draining {
            return; // wake-up connection (or late client) — drop and exit
        }
        let Ok(stream) = stream else { continue };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conns lock")
                .insert(conn_id, clone);
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name(format!("ngb-serve-conn-{conn_id}"))
            .spawn(move || {
                connection_loop(stream, &shared);
                shared.conns.lock().expect("conns lock").remove(&conn_id);
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
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(&line) {
            Err(msg) => {
                shared.stats.lock().expect("stats lock").errors += 1;
                responder.send(&error_response("", 400, &msg, None));
            }
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
            shared.queues.lock().expect("queue lock").paused = true;
            shared.work.notify_all();
            responder.send(&ok_response(vec![("paused", Value::Bool(true))]));
        }
        Request::Resume => {
            shared.queues.lock().expect("queue lock").paused = false;
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
    let Some(model_id) = model_by_alias(model) else {
        shared.stats.lock().expect("stats lock").errors += 1;
        responder.send(&error_response(
            &id,
            404,
            &format!("unknown model \"{model}\""),
            None,
        ));
        return;
    };
    let rejection = {
        let mut q = shared.queues.lock().expect("queue lock");
        if q.draining {
            Some(error_response(&id, 503, "shutting down", None))
        } else if q.queue_len(model_id) >= shared.config.queue_cap {
            let retry_ms = (shared.config.batch_wait.as_millis() as u64).max(1);
            Some(error_response(&id, 429, "queue full", Some(retry_ms)))
        } else {
            q.queue_mut(model_id).push_back(Pending {
                id,
                seed,
                enqueued: Instant::now(),
                reply: responder.clone(),
            });
            q.queued_total += 1;
            None
        }
    };
    let mut stats = shared.stats.lock().expect("stats lock");
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
    let stats = *shared.stats.lock().expect("stats lock");
    let (queued, paused, draining) = {
        let q = shared.queues.lock().expect("queue lock");
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

/// Round-robin scheduler: picks the next dispatchable model (full batch,
/// expired deadline, or draining), sleeps until the earliest deadline
/// otherwise, and exits once draining leaves every queue empty.
fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        let Some((model, taken)) = next_batch(shared) else {
            break;
        };
        execute_batch(shared, model, taken);
    }
    // drain finished: quiesce the pool, then unblock every reader
    shared.executor.pool().shutdown();
    for (_, stream) in shared.conns.lock().expect("conns lock").drain() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

fn next_batch(shared: &Arc<Shared>) -> Option<(ModelId, Vec<Pending>)> {
    let max_batch = shared.config.max_batch;
    let batch_wait = shared.config.batch_wait;
    let mut q = shared.queues.lock().expect("queue lock");
    loop {
        if q.draining && q.queued_total == 0 {
            return None;
        }
        // draining overrides pause: shutdown must always make progress
        if (!q.paused || q.draining) && q.queued_total > 0 {
            let now = Instant::now();
            let n = q.by_model.len();
            // round-robin scan for a dispatchable queue
            let mut pick = None;
            for i in 0..n {
                let idx = (q.rr + i) % n;
                let (model, queue) = &q.by_model[idx];
                if queue.is_empty() {
                    continue;
                }
                let cap = effective_max_batch(*model, max_batch);
                let due = queue.len() >= cap
                    || q.draining
                    || queue
                        .front()
                        .is_some_and(|p| p.enqueued + batch_wait <= now);
                if due {
                    pick = Some((idx, *model, cap));
                    break;
                }
            }
            if let Some((idx, model, cap)) = pick {
                q.rr = (idx + 1) % n;
                let queue = &mut q.by_model[idx].1;
                let take = queue.len().min(cap);
                let taken: Vec<Pending> = queue.drain(..take).collect();
                q.queued_total -= taken.len();
                return Some((model, taken));
            }
            // nothing due yet: sleep until the earliest pending deadline
            let earliest = q
                .by_model
                .iter()
                .filter_map(|(_, queue)| queue.front())
                .map(|p| p.enqueued + batch_wait)
                .min();
            if let Some(deadline) = earliest {
                let now = Instant::now();
                let wait = if deadline > now {
                    deadline - now
                } else {
                    Duration::ZERO
                };
                if !wait.is_zero() {
                    let (guard, _) = shared.work.wait_timeout(q, wait).expect("queue lock");
                    q = guard;
                }
                continue;
            }
        }
        q = shared.work.wait(q).expect("queue lock");
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
        Err(e) => {
            let mut stats = shared.stats.lock().expect("stats lock");
            stats.errors += batch as u64;
            drop(stats);
            let msg = format!("execution failed: {e}");
            for p in &taken {
                p.reply.send(&error_response(&p.id, 500, &msg, None));
            }
            return;
        }
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
            Err(e) => {
                let mut stats = shared.stats.lock().expect("stats lock");
                stats.errors += batch as u64;
                drop(stats);
                let msg = format!("batch split failed: {e}");
                for p in &taken {
                    p.reply.send(&error_response(&p.id, 500, &msg, None));
                }
                return;
            }
        }
    }

    let breakdown =
        serde_json::to_value(ngb_profiler::breakdown_from_trace(&graph, &trace.timings))
            .unwrap_or(Value::Null);
    let exec_us = exec.as_micros() as f64;

    for (p, row) in taken.iter().zip(rows) {
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
        p.reply.send(&ok_response(vec![
            ("id", Value::String(p.id.clone())),
            ("model", Value::String(alias.to_string())),
            ("result", record),
        ]));
    }

    let mut stats = shared.stats.lock().expect("stats lock");
    stats.completed += batch as u64;
    stats.batches += 1;
    stats.max_batch = stats.max_batch.max(batch);
}
