//! `decode_lm`: closed loop, one caller, greedy generation through
//! `decode_bundle` + `DecodeSession` for tiny `gpt2` and `llama2` at batch 1,
//! 32 prompt tokens and 96 new ones per session.
//!
//! The same executor as `graph_tiny` driven the other way: thousands of
//! single-token graphs with KV-cache appends beside reads, where step
//! overhead, not kernels, sets time-to-first-token and inter-token latency.
//! Prefill (the prompt, one position per step) and decode are kept apart.

use std::time::Instant;

use nongemm::models::{decode_bundle, DecodeBundle, ModelId, Scale};
use nongemm::runtime::{greedy_reference, synth_prompt, DecodeSession, KvCache, KvCacheStats};
use nongemm::tensor::Tensor;

use crate::common::{self, millis, Cfg, Check, Metrics, Outcome};
use crate::stats::{median, median_and_tail, percentile, share, sorted};
use crate::trace::{Child, Tracer};

const PROMPT: usize = 32;
const NEW: usize = 96;
const LMS: [ModelId; 2] = [ModelId::Gpt2, ModelId::Llama2_7b];

struct Lm {
    alias: &'static str,
    bundle: DecodeBundle,
    prompt: Vec<Vec<i64>>,
}

/// One generated sequence with the instants the metrics are read from.
struct Generation {
    tokens: Vec<i64>,
    started: Instant,
    session_ready: Instant,
    /// Start and end of every `DecodeSession::step`, prompt positions first.
    steps: Vec<(Instant, Instant)>,
    /// When each new token was known (after its argmax).
    token_at: Vec<Instant>,
    cache: KvCacheStats,
}

/// Lowest index of the largest probability, the tie-break of
/// `ngb_runtime::greedy_decode`.
fn argmax(probs: &Tensor) -> Result<i64, String> {
    let row = probs.to_vec_f32().map_err(|e| e.to_string())?;
    let mut best = 0;
    for (i, &p) in row.iter().enumerate() {
        if p > row[best] {
            best = i;
        }
    }
    Ok(best as i64)
}

fn generate(lm: &Lm) -> Result<Generation, String> {
    let err = |e: nongemm::tensor::TensorError| e.to_string();
    let started = Instant::now();
    let mut session = DecodeSession::new(
        lm.bundle.decode.clone(),
        &lm.bundle.reference,
        common::sequential(),
    )
    .map_err(err)?;
    let session_ready = Instant::now();
    let mut steps = Vec::with_capacity(PROMPT + NEW);
    let mut step = |token: i64| -> Result<Tensor, String> {
        let t0 = Instant::now();
        let probs = session.step(&[token]).map_err(err)?;
        steps.push((t0, Instant::now()));
        Ok(probs)
    };
    let mut probs = Tensor::zeros(&[0]);
    for &token in &lm.prompt[0] {
        probs = step(token)?;
    }
    let mut tokens = Vec::with_capacity(NEW);
    let mut token_at = Vec::with_capacity(NEW);
    loop {
        tokens.push(argmax(&probs)?);
        token_at.push(Instant::now());
        if tokens.len() == NEW {
            break;
        }
        probs = step(tokens[tokens.len() - 1])?;
    }
    Ok(Generation {
        tokens,
        started,
        session_ready,
        steps,
        token_at,
        cache: session.cache_stats(),
    })
}

fn setup(cfg: &Cfg, check: &mut Check, tracer: &mut Tracer) -> Vec<Lm> {
    let mut lms = Vec::new();
    for id in LMS {
        let alias = id.spec().alias;
        let t0 = Instant::now();
        let bundle = decode_bundle(id, Scale::Tiny, 1, PROMPT + NEW).expect("an autoregressive LM");
        tracer.operation("models.build", t0, Instant::now(), 0, &[], cfg.traced);
        let lm = bundle.map_err(|e| e.to_string()).and_then(|bundle| {
            let prompt = synth_prompt(cfg.seed, &bundle.reference, PROMPT);
            let prompt = prompt.map_err(|e| e.to_string())?;
            Ok(Lm {
                alias,
                bundle,
                prompt,
            })
        });
        match lm {
            Ok(lm) => {
                check.record(alias, generate(&lm).map(|_| ()));
                lms.push(lm);
            }
            Err(e) => check.record(alias, Err(e)),
        }
    }
    lms
}

/// Sample sets of one run, pooled over both models.
#[derive(Default)]
struct Samples {
    itl_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    session_s: f64,
    sessions: usize,
    session_new_ms: Vec<f64>,
    prefill_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    late_ms: Vec<f64>,
    cache: KvCacheStats,
}

impl Samples {
    fn add(&mut self, g: &Generation) {
        let last = *g.token_at.last().expect("NEW tokens");
        self.ttft_ms.push(millis(g.started, g.token_at[0]));
        self.itl_ms
            .extend(g.token_at.windows(2).map(|w| millis(w[0], w[1])));
        self.session_s += (last - g.started).as_secs_f64();
        self.sessions += 1;
        self.session_new_ms.push(millis(g.started, g.session_ready));
        for (pos, &(t0, t1)) in g.steps.iter().enumerate() {
            let ms = millis(t0, t1);
            if pos < PROMPT {
                self.prefill_ms.push(ms);
            } else {
                self.decode_ms.push(ms);
            }
            if pos >= 96 {
                self.late_ms.push(ms);
            }
        }
        self.cache = g.cache;
    }
}

fn record_spans(tracer: &mut Tracer, g: &Generation, request: u64, store: bool) {
    let mut children = vec![Child {
        name: "runtime.session_new",
        start_us: tracer.at(g.started),
        end_us: tracer.at(g.session_ready),
        lane: 0,
    }];
    children.extend(g.steps.iter().enumerate().map(|(pos, &(t0, t1))| Child {
        name: if pos < PROMPT {
            "runtime.step.prefill"
        } else {
            "runtime.step.decode"
        },
        start_us: tracer.at(t0),
        end_us: tracer.at(t1),
        lane: 0,
    }));
    let last = *g.token_at.last().expect("NEW tokens");
    tracer.operation(
        "runtime.session",
        g.started,
        last,
        request,
        &children,
        store,
    );
}

/// One more set-up, for `setup_s`; what it made is dropped.
pub fn set_up_again(cfg: &Cfg) -> Check {
    let mut check = Check::default();
    setup(cfg, &mut check, &mut Tracer::new());
    check
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut check = Check::default();
    let mut tracer = Tracer::new();
    let (lms, setup_s) = common::timed(|| setup(cfg, &mut check, &mut tracer));

    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut first: Vec<Option<Vec<i64>>> = vec![None; lms.len()];
    let min_rounds = if cfg.traced { 2 } else { 1 };
    let started = Instant::now();
    let mut round = 0;
    while round < min_rounds || started.elapsed().as_secs_f64() < cfg.seconds {
        // a traced run leaves every other round untraced: the overhead
        let traced_round = cfg.traced && round % 2 == 0;
        for (i, lm) in lms.iter().enumerate() {
            match generate(lm) {
                Ok(g) => {
                    check.record(lm.alias, Ok(()));
                    if traced_round {
                        let request = (round * lms.len() + i) as u64;
                        record_spans(&mut tracer, &g, request, round == 0);
                        traced.add(&g);
                    } else {
                        plain.add(&g);
                    }
                    first[i].get_or_insert(g.tokens);
                }
                Err(e) => check.record(lm.alias, Err(e)),
            }
        }
        round += 1;
    }

    // the first timed session of each model against the uncached recompute
    for (lm, tokens) in lms.iter().zip(&first) {
        let reference =
            greedy_reference(&lm.bundle.reference, &common::sequential(), &lm.prompt, NEW);
        let verdict = match (reference, tokens) {
            (Err(e), _) => Err(e.to_string()),
            (_, None) => Err("no session completed".to_string()),
            (Ok(r), Some(t)) if &r.tokens[0] == t => Ok(()),
            (Ok(_), Some(_)) => Err("tokens differ from greedy_reference".to_string()),
        };
        check.record(lm.alias, verdict);
    }

    let mut m = Metrics::new();
    if cfg.traced {
        let s = &traced;
        let steps = sorted(&[s.prefill_ms.as_slice(), s.decode_ms.as_slice()].concat());
        m.insert("runtime.session_new_ms", median(&s.session_new_ms));
        m.insert("runtime.step_ms_p50_prefill", median(&s.prefill_ms));
        m.insert("runtime.step_ms_p50_decode", median(&s.decode_ms));
        m.insert("runtime.step_ms_pos_ge96", median(&s.late_ms));
        m.insert("runtime.step_ms_p999", percentile(&steps, 99.9));
        m.insert("runtime.itl_ms_tail", median_and_tail(&s.itl_ms).1);
        m.insert("runtime.ttft_ms_tail", median_and_tail(&s.ttft_ms).1);
        m.insert("runtime.kv_hit_rate", s.cache.hit_rate());
        m.insert(
            "bench.trace_overhead_share",
            share(median(&s.itl_ms), median(&plain.itl_ms)) - 1.0,
        );
        kv_probes(&mut m);
    } else {
        m.insert("setup_s", setup_s);
        m.insert("primary_ms", median(&plain.itl_ms));
        m.insert("secondary_ms", median(&plain.ttft_ms));
        m.insert(
            "throughput_per_s",
            share((NEW * plain.sessions) as f64, plain.session_s),
        );
    }
    Outcome {
        check,
        metrics: m,
        tracer,
    }
}

/// Direct timed calls into the KV cache at capacity 128: one step's appends
/// over four layers plus the commit, and the read of one layer's K tensor.
fn kv_probes(m: &mut Metrics) {
    const LAYERS: usize = 4;
    const CAPACITY: usize = 128;
    let (rows, head_dim) = (4, 16);
    let empty = KvCache::new(LAYERS, rows, CAPACITY, head_dim);
    let row = Tensor::ones(&[rows, 1, head_dim]);
    let mut cache = empty.clone();
    let append_ns = common::probe_ns(|| {
        if cache.len() == CAPACITY {
            cache = empty.clone();
        }
        for layer in 0..LAYERS {
            cache.append(layer, &row, &row).expect("below capacity");
        }
        cache.commit();
    });
    m.insert("runtime.kv_append_us", append_ns / 1e3);
    let read_ns = common::probe_ns(|| {
        std::hint::black_box(cache.k_tensor(0).expect("layer 0 exists"));
    });
    m.insert("runtime.kv_read_us", read_ns / 1e3);
}
