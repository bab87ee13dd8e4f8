//! `serve_mix`: an in-process `ngb-serve` server under open-loop Poisson
//! arrivals over one persistent pipelined TCP connection, with two generator
//! threads (a scheduled sender and a receiver).
//!
//! Three phases share the run's seconds, half for the first and a quarter
//! for each other: 150 req/s, where almost every batch is a single request;
//! 400 req/s, where batches form; and 2500 req/s, a planned overload that
//! admission control must answer with rejections. The middle rate keeps the
//! executor under half busy: at 600 req/s a slow spell of the host filled a
//! queue and requests were refused, and a workload must not fail for reasons
//! outside the code.
//! The mix is bert 5 : gpt2 3 : resnet50 1 : mobilenet_v2 1, so it holds
//! batch-transparent models beside one the server must run solo. Wire,
//! admission, queueing and batch formation own most of a request's latency
//! here; execution is a small part of it.
//!
//! Latency is timed from each request's due time, not from when the sender
//! got to it, so a stall is charged to every request it delays.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nongemm::graph::Graph;
use nongemm::models::{ModelId, Scale};
use nongemm::opt::OptLevel;
use nongemm::profiler::breakdown_from_trace;
use nongemm::serve::batching::{batched_inputs, effective_max_batch, split_output};
use nongemm::serve::protocol::{tensor_digest, Request};
use nongemm::serve::{ServeConfig, Server, ServerHandle};
use serde_json::Value;

use crate::affinity::Pinned;
use crate::common::{self, Cfg, Check, Metrics, Outcome};
use crate::stats::{median, median_and_tail, poisson_schedule, share, Lcg};
use crate::trace::{Child, Tracer};

const MAX_BATCH: usize = 8;
/// Model and weight out of ten.
const MIX: [(ModelId, u64); 4] = [
    (ModelId::Bert, 5),
    (ModelId::Gpt2, 3),
    (ModelId::ResNet50, 1),
    (ModelId::MobileNetV2, 1),
];
/// Latency limit on the reported tail for a rate to count as sustained.
const SLO_MS: f64 = 50.0;
/// Every this many served rows, the digest is held against a solo run.
const VERIFY_EVERY: usize = 50;
const GOODPUT_WINDOW_S: f64 = 0.25;
/// Spans kept per phase for the trace file.
const STORED_PER_PHASE: usize = 500;

struct Phase {
    rate: f64,
    /// Part of the run's seconds.
    share: f64,
    /// Rejections are the expected answer and do not count as failures.
    overload: bool,
}

/// `r150`, `r400` and the overload. The lowest rate gets half the seconds:
/// its median rests on the fewest requests, and which gaps the seed draws
/// moves it (a response's tail waits for the next request, see the README).
const PHASES: [Phase; 3] = [
    Phase {
        rate: 150.0,
        share: 0.5,
        overload: false,
    },
    Phase {
        rate: 400.0,
        share: 0.25,
        overload: false,
    },
    Phase {
        rate: 2500.0,
        share: 0.25,
        overload: true,
    },
];

/// Every field set explicitly, so no `NGB_SERVE_*` default applies.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        scale: Scale::Tiny,
        opt_level: OptLevel::O0,
        max_batch: MAX_BATCH,
        batch_wait: Duration::from_millis(2),
        // deep enough to absorb the burst an open-loop sender releases after
        // the host stalls it for a second; with 64, one such stall at 400
        // req/s made the server refuse requests
        queue_cap: 256,
        threads: 1,
        intra_op: Some(false),
        seed: common::WEIGHT_SEED,
    }
}

/// A running server and the one connection to it. Dropping drains and joins
/// the server, then gives the calling thread its original CPUs back.
struct Harness {
    server: Option<ServerHandle>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Held for its drop, after the server's threads have been joined.
    _placement: Pinned,
}

impl Harness {
    fn start() -> std::io::Result<Harness> {
        // threads inherit the placement of the thread that spawns them: the
        // server starts under its own CPUs, then this thread (the receiver,
        // which spawns the sender) moves to the generator's
        let placement = Pinned::split();
        placement.as_server();
        let server = Server::start(config());
        placement.as_generator();
        let server = server?;
        let writer = TcpStream::connect(server.addr())?;
        // a load generator must not add Nagle delays of its own
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Harness {
            server: Some(server),
            writer,
            reader,
            _placement: placement,
        })
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.writer
            .write_all(format!("{}\n", req.to_line()).as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<Value> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        serde_json::from_str(&line).map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Fills the server's graph cache before anything is timed: `pause`
    /// holds dispatch while `k` requests queue, so `resume` releases a batch
    /// of exactly `k`, for every batch size each model can be served at.
    fn warm_up(&mut self) -> std::io::Result<()> {
        for (model, _) in MIX {
            for k in 1..=effective_max_batch(model, MAX_BATCH) {
                self.send(&Request::Pause)?;
                for i in 0..k {
                    self.send(&infer(model, i, 0))?;
                }
                self.send(&Request::Resume)?;
                for _ in 0..k + 2 {
                    if self.recv()?["ok"] != true {
                        return Err(std::io::Error::other("warm-up request refused"));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

fn infer(model: ModelId, id: usize, seed: u64) -> Request {
    Request::Infer {
        id: id.to_string(),
        model: model.spec().alias.to_string(),
        seed,
    }
}

struct Arrival {
    due_s: f64,
    model: ModelId,
    seed: u64,
}

fn arrivals(rng: &mut Lcg, rate: f64, seconds: f64) -> Vec<Arrival> {
    poisson_schedule(rng, rate, seconds)
        .into_iter()
        .map(|due_s| {
            let mut ticket = rng.below(MIX.iter().map(|(_, w)| w).sum());
            let pick = MIX.iter().find(|(_, w)| {
                let hit = ticket < *w;
                ticket = ticket.saturating_sub(*w);
                hit
            });
            Arrival {
                due_s,
                model: pick.expect("ticket below the total weight").0,
                // below 2^32, so the wire's f64 carries it exactly
                seed: rng.below(1 << 32),
            }
        })
        .collect()
}

/// What the receiver kept of one response line.
#[derive(Clone)]
struct Reply {
    at: Instant,
    ok: bool,
    code: u64,
    batch: f64,
    queue_ms: f64,
    exec_ms: f64,
    digests: Vec<String>,
}

struct PhaseLog {
    start: Instant,
    seconds: f64,
    arrivals: Vec<Arrival>,
    late_ms_max: f64,
    replies: Vec<Option<Reply>>,
}

impl PhaseLog {
    fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(self.arrivals[i].due_s)
    }

    fn served(&self) -> impl Iterator<Item = (usize, &Reply)> {
        let replies = self.replies.iter().enumerate();
        replies.filter_map(|(i, r)| r.as_ref().filter(|r| r.ok).map(|r| (i, r)))
    }

    fn latency_ms(&self, i: usize, reply: &Reply) -> f64 {
        (reply.at - self.due(i)).as_secs_f64() * 1e3
    }

    fn latencies_ms(&self, want: impl Fn(ModelId) -> bool) -> Vec<f64> {
        let served = self.served().filter(|(i, _)| want(self.arrivals[*i].model));
        served.map(|(i, r)| self.latency_ms(i, r)).collect()
    }

    fn mean_batch(&self) -> f64 {
        // each row of a batch of b carries 1/b of one batch
        let batches: f64 = self.served().map(|(_, r)| 1.0 / r.batch.max(1.0)).sum();
        share(self.served().count() as f64, batches)
    }

    /// Completions per second inside the phase's own time, not the drain
    /// after it: the median over windows of [`GOODPUT_WINDOW_S`], so that one
    /// stall of the host does not set the result.
    fn goodput(&self) -> f64 {
        median(&self.goodput_windows())
    }

    fn goodput_windows(&self) -> Vec<f64> {
        let windows = (self.seconds / GOODPUT_WINDOW_S).floor().max(1.0) as usize;
        let width = self.seconds / windows as f64;
        let mut counts = vec![0.0; windows];
        for (_, r) in self.served() {
            let at = (r.at - self.start).as_secs_f64() / width;
            if let Some(c) = counts.get_mut(at as usize) {
                *c += 1.0 / width;
            }
        }
        counts
    }

    fn rejected(&self) -> usize {
        let replies = self.replies.iter().flatten();
        replies.filter(|r| !r.ok && r.code == 429).count()
    }
}

fn parse_reply(line: &str, at: Instant) -> Option<(usize, Reply)> {
    let v: Value = serde_json::from_str(line).ok()?;
    let id: usize = v["id"].as_str()?.parse().ok()?;
    let result = &v["result"];
    let outputs = result["outputs"].as_array();
    let digests = outputs
        .filter(|_| id.is_multiple_of(VERIFY_EVERY))
        .map(|outs| {
            let of = |o: &Value| o["digest"].as_str().unwrap_or_default().to_string();
            outs.iter().map(of).collect()
        });
    let reply = Reply {
        at,
        ok: v["ok"] == true,
        code: v["error"]["code"].as_u64().unwrap_or(0),
        batch: result["batch_size"].as_f64().unwrap_or(0.0),
        queue_ms: result["queue_us"].as_f64().unwrap_or(0.0) / 1e3,
        exec_ms: result["exec_us"].as_f64().unwrap_or(0.0) / 1e3,
        digests: digests.unwrap_or_default(),
    };
    Some((id, reply))
}

/// Sends `arrivals` on their schedule from one thread while this thread
/// receives; returns once every request sent has its response.
fn run_phase(h: &mut Harness, arrivals: Vec<Arrival>, seconds: f64) -> PhaseLog {
    let lines: Vec<String> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{}\n", infer(a.model, i, a.seed).to_line()))
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let expected = AtomicUsize::new(lines.len());
    let (writer, reader) = (&mut h.writer, &mut h.reader);
    let mut replies: Vec<Option<Reply>> = vec![None; lines.len()];
    let late_ms_max = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late_ms_max = 0.0f64;
            for (sent, (line, a)) in lines.iter().zip(&arrivals).enumerate() {
                let due = start + Duration::from_secs_f64(a.due_s);
                // sleeping, not spinning: the sender shares two cores with
                // the server it loads
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                if writer.write_all(line.as_bytes()).is_err() {
                    expected.store(sent, Ordering::SeqCst);
                    break;
                }
                let late = Instant::now().saturating_duration_since(due);
                late_ms_max = late_ms_max.max(late.as_secs_f64() * 1e3);
            }
            late_ms_max
        });
        let mut got = 0;
        let mut line = String::new();
        while got < expected.load(Ordering::SeqCst) {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => break, // closed or timed out: the missing replies count as failed
            }
            got += 1;
            if let Some((id, reply)) = parse_reply(&line, Instant::now()) {
                if let Some(slot) = replies.get_mut(id) {
                    *slot = Some(reply);
                }
            }
        }
        sender.join().expect("sender thread")
    });
    PhaseLog {
        start,
        seconds,
        arrivals,
        late_ms_max,
        replies,
    }
}

/// Counts a phase's requests and holds every `VERIFY_EVERY`th served row's
/// digests against a solo batch-1 run of the same seed.
fn verify(log: &PhaseLog, phase: &Phase, solo: &[(ModelId, Graph)], check: &mut Check) {
    let interp = common::sequential();
    let overload = phase.overload;
    let before = check.failed;
    for (i, reply) in log.replies.iter().enumerate() {
        let a = &log.arrivals[i];
        let alias = a.model.spec().alias;
        let verdict = match reply {
            None => Err("no response".to_string()),
            Some(r) if r.ok && i.is_multiple_of(VERIFY_EVERY) => {
                let graph = &solo
                    .iter()
                    .find(|(m, _)| *m == a.model)
                    .expect("mix model")
                    .1;
                batched_inputs(graph, &[a.seed])
                    .and_then(|inputs| interp.run_with_inputs(graph, &inputs))
                    .map_err(|e| e.to_string())
                    .and_then(|trace| {
                        let want: Vec<String> = trace
                            .outputs
                            .iter()
                            .map(|(_, t)| tensor_digest(t))
                            .collect();
                        if want == r.digests {
                            Ok(())
                        } else {
                            Err(format!("seed {} digest differs from a solo run", a.seed))
                        }
                    })
            }
            Some(r) if r.ok || overload && r.code == 429 => Ok(()),
            Some(r) => Err(format!("due at {:.3} s, refused with {}", a.due_s, r.code)),
        };
        check.record(alias, verdict);
    }
    println!(
        "serve phase {} req/s: sent {} served {} rejected {} failed {} generator late by at most {:.3} ms",
        phase.rate,
        log.arrivals.len(),
        log.served().count(),
        log.rejected(),
        check.failed - before,
        log.late_ms_max
    );
    if overload {
        println!(
            "serve overload completions per second by window: {:?}",
            log.goodput_windows()
        );
    }
}

fn record_spans(tracer: &mut Tracer, log: &PhaseLog) {
    for (n, (i, r)) in log.served().enumerate() {
        // the response carries durations, not instants: queue wait is drawn
        // from the due time and execution right after it
        let due_us = tracer.at(log.due(i));
        let queued_us = due_us + r.queue_ms * 1e3;
        let children = [
            Child {
                name: "serve.queue",
                start_us: due_us,
                end_us: queued_us,
                lane: 0,
            },
            Child {
                name: "serve.exec",
                start_us: queued_us,
                end_us: queued_us + r.exec_ms * 1e3,
                lane: 0,
            },
        ];
        let store = n < STORED_PER_PHASE;
        tracer.operation(
            "serve.request",
            log.due(i),
            r.at,
            i as u64,
            &children,
            store,
        );
    }
}

/// Starts the server, connects, and warms every batch size of every model.
fn setup(check: &mut Check) -> Option<Harness> {
    let ready = Harness::start().and_then(|mut h| h.warm_up().map(|()| h));
    check.record(
        "server",
        ready.as_ref().map(|_| ()).map_err(|e| e.to_string()),
    );
    ready.ok()
}

/// One more set-up, for `setup_s`; the server is drained and joined again.
pub fn set_up_again() -> Check {
    let mut check = Check::default();
    setup(&mut check);
    check
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut check = Check::default();
    let mut tracer = Tracer::new();
    let (harness, setup_s) = common::timed(|| setup(&mut check));
    let mut m = Metrics::new();
    let Some(mut harness) = harness else {
        return Outcome {
            check,
            metrics: m,
            tracer,
        };
    };

    let mut rng = Lcg::new(cfg.seed);
    let logs: Vec<PhaseLog> = PHASES
        .iter()
        .map(|phase| {
            let seconds = cfg.seconds * phase.share;
            let plan = arrivals(&mut rng, phase.rate, seconds);
            run_phase(&mut harness, plan, seconds)
        })
        .collect();
    let cache = harness.send(&Request::Stats).and_then(|()| harness.recv());
    drop(harness);

    let solo: Vec<(ModelId, Graph)> = MIX
        .iter()
        .map(|&(model, _)| {
            (
                model,
                model.build(1, Scale::Tiny).expect("registry models build"),
            )
        })
        .collect();
    for (phase, log) in PHASES.iter().zip(&logs) {
        verify(log, phase, &solo, &mut check);
    }

    let (r150, r400, overload) = (&logs[0], &logs[1], &logs[2]);
    let goodput = overload.goodput();
    if !cfg.traced {
        m.insert("setup_s", setup_s);
        m.insert("primary_ms", median(&r150.latencies_ms(|_| true)));
        m.insert("secondary_ms", median(&r400.latencies_ms(|_| true)));
        m.insert("throughput_per_s", goodput);
        return Outcome {
            check,
            metrics: m,
            tracer,
        };
    }

    for (log, names) in [(r150, &RATE_METRICS[0]), (r400, &RATE_METRICS[1])] {
        record_spans(&mut tracer, log);
        let served: Vec<(usize, &Reply)> = log.served().collect();
        let of = |f: &dyn Fn(usize, &Reply) -> f64| -> f64 {
            median(&served.iter().map(|(i, r)| f(*i, r)).collect::<Vec<_>>())
        };
        m.insert(names[0], of(&|_, r| r.queue_ms));
        m.insert(names[1], of(&|_, r| r.exec_ms));
        m.insert(
            names[2],
            of(&|i, r| log.latency_ms(i, r) - r.queue_ms - r.exec_ms),
        );
        m.insert(names[3], log.mean_batch());
    }
    let batched = |model| effective_max_batch(model, MAX_BATCH) > 1;
    m.insert(
        "serve.tail_ms_r150",
        median_and_tail(&r150.latencies_ms(|_| true)).1,
    );
    m.insert(
        "serve.tail_ms_r400",
        median_and_tail(&r400.latencies_ms(|_| true)).1,
    );
    m.insert(
        "serve.batched_p50_ms_r400",
        median(&r400.latencies_ms(batched)),
    );
    m.insert(
        "serve.solo_p50_ms_r400",
        median(&r400.latencies_ms(|m| !batched(m))),
    );
    m.insert("serve.mean_batch_overload", overload.mean_batch());
    m.insert(
        "serve.rejected_share_overload",
        share(overload.rejected() as f64, overload.arrivals.len() as f64),
    );
    let sustained = PHASES.iter().zip(&logs).filter(|(_, log)| {
        let clean = log.served().count() == log.arrivals.len();
        clean && median_and_tail(&log.latencies_ms(|_| true)).1 <= SLO_MS
    });
    m.insert(
        "serve.max_rate_in_slo_rps",
        sustained.map(|(p, _)| p.rate).fold(0.0, f64::max),
    );
    m.insert(
        "serve.gen_late_ms_max",
        logs.iter().map(|l| l.late_ms_max).fold(0.0, f64::max),
    );
    let hit_rate = cache.ok().map_or(0.0, |v| {
        let c = &v["stats"]["graph_cache"];
        let (hits, misses) = (c["hits"].as_f64(), c["misses"].as_f64());
        share(
            hits.unwrap_or(0.0),
            hits.unwrap_or(0.0) + misses.unwrap_or(0.0),
        )
    });
    m.insert("runtime.graph_cache_hit_rate", hit_rate);
    probes(cfg.seed, &mut m, &mut check);
    Outcome {
        check,
        metrics: m,
        tracer,
    }
}

const RATE_METRICS: [[&str; 4]; 2] = [
    [
        "serve.queue_ms_p50_r150",
        "serve.exec_ms_p50_r150",
        "serve.unattributed_ms_p50_r150",
        "serve.mean_batch_r150",
    ],
    [
        "serve.queue_ms_p50_r400",
        "serve.exec_ms_p50_r400",
        "serve.unattributed_ms_p50_r400",
        "serve.mean_batch_r400",
    ],
];

/// Direct timed calls into the pieces of a request's path the response does
/// not time: parse, batch assembly, output split, digest, and the taxonomy
/// breakdown attached to every response, on a batch of eight `bert` rows.
fn probes(seed: u64, m: &mut Metrics, check: &mut Check) {
    let line = infer(ModelId::Bert, 17, seed & 0xffff_ffff).to_line();
    let parse_ns = common::probe_ns(|| {
        std::hint::black_box(Request::parse(&line).expect("a valid request"));
    });
    m.insert("serve.parse_us", parse_ns / 1e3);

    let seeds: Vec<u64> = (0..MAX_BATCH as u64)
        .map(|i| seed.wrapping_add(i))
        .collect();
    let built = ModelId::Bert.build(1, Scale::Tiny).and_then(|solo| {
        let batch = ModelId::Bert.build(MAX_BATCH, Scale::Tiny)?;
        let inputs = batched_inputs(&solo, &seeds)?;
        let trace = common::sequential().run_with_inputs(&batch, &inputs)?;
        Ok((solo, batch, trace))
    });
    let (solo, batch, trace) = match built {
        Ok(b) => b,
        Err(e) => return check.record("bert", Err(format!("probe batch: {e}"))),
    };
    let assemble_ns = common::probe_ns(|| {
        std::hint::black_box(batched_inputs(&solo, &seeds).expect("same-structure graphs"));
    });
    m.insert("serve.batch_assemble_us", assemble_ns / 1e3);
    let out = &trace.outputs[0].1;
    let split_ns = common::probe_ns(|| {
        std::hint::black_box(split_output(out, MAX_BATCH).expect("leading dim is the batch"));
    });
    m.insert("serve.split_us", split_ns / 1e3);
    let row = split_output(out, MAX_BATCH)
        .expect("leading dim is the batch")
        .remove(0);
    let digest_ns = common::probe_ns(|| {
        std::hint::black_box(tensor_digest(&row));
    });
    m.insert("serve.digest_us", digest_ns / 1e3);
    let breakdown_ns = common::probe_ns(|| {
        std::hint::black_box(breakdown_from_trace(&batch, &trace.timings));
    });
    m.insert("profiler.breakdown_us", breakdown_ns / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{current, original, split};

    /// A pinned thread that asked again how many CPUs there are was told
    /// one, and every set-up after the first put server and generator on
    /// CPU 0.
    #[test]
    fn every_harness_gets_the_same_placement_and_gives_it_back() {
        let before = current();
        let (_, generator) = split(&original());
        for _ in 0..2 {
            let h = Harness::start().expect("server starts");
            if before.is_some() {
                assert_eq!(current(), Some(generator));
            }
            drop(h);
            assert_eq!(current(), before);
        }
    }
}
