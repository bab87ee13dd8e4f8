//! Wire protocol: line-delimited JSON request/response objects.
//!
//! One JSON object per line in each direction. Requests select an
//! operation with `"op"`:
//!
//! | op         | fields                          | reply                      |
//! |------------|---------------------------------|----------------------------|
//! | `infer`    | `model`, optional `id`, `seed`  | result record (async, after batching) |
//! | `ping`     |                                 | `{"ok":true,"pong":true}`  |
//! | `stats`    |                                 | server counters            |
//! | `pause`    |                                 | scheduler holds batches    |
//! | `resume`   |                                 | scheduler resumes          |
//! | `shutdown` |                                 | initiates graceful drain   |
//!
//! `pause`/`resume` gate batch dispatch without touching admission — they
//! exist so tests (and operators) can deterministically observe queue
//! buildup, full-queue rejection, and multi-request batch formation.
//!
//! Responses always carry `"ok"`. Failures carry an `"error"` object with
//! an HTTP-flavored `code` (400 bad request, 404 unknown model, 429 queue
//! full + `retry_after_ms`, 503 shutting down) — a rejected request is
//! *reported*, never silently dropped.
//!
//! These types deliberately stay `serde_json::Value`-based: the wire
//! format is the contract, and hand-rolled (de)serialization keeps it
//! independent of Rust-side struct layout.

use serde_json::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one inference of `model`, inputs synthesized from `seed`.
    Infer {
        /// Client-chosen correlation id, echoed in the response.
        id: String,
        /// Model alias (e.g. `"bert"`).
        model: String,
        /// Input seed; defaults to the interpreter's default seed. Must be
        /// below 2^53: the wire carries numbers as `f64`, which stops holding
        /// every integer exactly there, and a seed that changed in transit
        /// would break the digest contract unseen.
        seed: u64,
    },
    /// Liveness check.
    Ping,
    /// Server counter snapshot.
    Stats,
    /// Hold batch dispatch (admission continues).
    Pause,
    /// Resume batch dispatch.
    Resume,
    /// Begin graceful drain: stop admitting, finish everything queued.
    Shutdown,
}

/// Exclusive bound on a request seed: 2^53, up to which an `f64` holds
/// every integer exactly.
const SEED_LIMIT: u64 = 1 << 53;

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a missing or
    /// unknown `op`, a missing `model` on `infer`, or a `seed` that is
    /// present but not an integer in `0..2^53`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"op\" field".to_string())?;
        match op {
            "infer" => {
                let model = v
                    .get("model")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "infer requires a \"model\" field".to_string())?
                    .to_string();
                let id = v
                    .get("id")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                let seed = match v.get("seed") {
                    None => 0x5eed,
                    Some(seed) => seed
                        .as_u64()
                        .filter(|&n| n < SEED_LIMIT)
                        .ok_or_else(|| "\"seed\" must be an integer in 0..2^53".to_string())?,
                };
                Ok(Request::Infer { id, model, seed })
            }
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "pause" => Ok(Request::Pause),
            "resume" => Ok(Request::Resume),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op \"{other}\"")),
        }
    }

    /// Serializes the request to its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Infer { id, model, seed } => obj(vec![
                ("op", Value::String("infer".into())),
                ("id", Value::String(id.clone())),
                ("model", Value::String(model.clone())),
                ("seed", Value::Number(*seed as f64)),
            ]),
            Request::Ping => op_only("ping"),
            Request::Stats => op_only("stats"),
            Request::Pause => op_only("pause"),
            Request::Resume => op_only("resume"),
            Request::Shutdown => op_only("shutdown"),
        };
        serde_json::to_string(&v).expect("requests serialize")
    }
}

/// Builds a JSON object value from key/value pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn op_only(op: &str) -> Value {
    obj(vec![("op", Value::String(op.into()))])
}

/// A successful response envelope: `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("ok", Value::Bool(true))];
    all.extend(fields);
    obj(all)
}

/// An error response: `{"ok":false,"id":…,"error":{code,message[,retry_after_ms]}}`.
pub fn error_response(id: &str, code: u16, message: &str, retry_after_ms: Option<u64>) -> Value {
    let mut err = vec![
        ("code", Value::Number(f64::from(code))),
        ("message", Value::String(message.to_string())),
    ];
    if let Some(ms) = retry_after_ms {
        err.push(("retry_after_ms", Value::Number(ms as f64)));
    }
    obj(vec![
        ("ok", Value::Bool(false)),
        ("id", Value::String(id.to_string())),
        ("error", obj(err)),
    ])
}

/// FNV-1a hash over a tensor's dtype, shape, and exact bit pattern — the
/// response-side fingerprint that lets clients check bit-identity of
/// batched vs solo execution without shipping the tensor.
pub fn tensor_digest(t: &ngb_tensor::Tensor) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(t.shape().len() as u64);
    for &d in t.shape() {
        eat(d as u64);
    }
    let c = t.contiguous();
    match c.dtype() {
        ngb_tensor::DType::F32 => {
            eat(0);
            for x in c.to_vec_f32().expect("dtype checked") {
                eat(u64::from(x.to_bits()));
            }
        }
        ngb_tensor::DType::I64 => {
            eat(1);
            for x in c.to_vec_i64().expect("dtype checked") {
                eat(x as u64);
            }
        }
        ngb_tensor::DType::Bool => {
            eat(2);
            for x in c.to_vec_bool().expect("dtype checked") {
                eat(u64::from(x));
            }
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_round_trips() {
        let r = Request::Infer {
            id: "r1".into(),
            model: "bert".into(),
            seed: 42,
        };
        assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn infer_defaults_seed_and_id() {
        let r = Request::parse(r#"{"op":"infer","model":"bert"}"#).unwrap();
        assert_eq!(
            r,
            Request::Infer {
                id: String::new(),
                model: "bert".into(),
                seed: 0x5eed,
            }
        );
    }

    #[test]
    fn largest_exact_seed_round_trips() {
        let r = Request::Infer {
            id: "r1".into(),
            model: "bert".into(),
            seed: SEED_LIMIT - 1,
        };
        assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
    }

    #[test]
    fn a_present_but_invalid_seed_is_an_error_not_the_default() {
        // 2^53 and 2^53 + 1 are one f64: neither may be taken for the other
        for seed in [
            "-1",
            "1.5",
            "\"7\"",
            "null",
            "9007199254740992",
            "9007199254740993",
            "1e300",
        ] {
            let line = format!(r#"{{"op":"infer","model":"bert","seed":{seed}}}"#);
            let err = Request::parse(&line).expect_err(seed);
            assert!(err.contains("seed"), "seed {seed}: {err}");
        }
    }

    #[test]
    fn control_ops_round_trip() {
        for r in [
            Request::Ping,
            Request::Stats,
            Request::Pause,
            Request::Resume,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"model":"bert"}"#).is_err());
        assert!(Request::parse(r#"{"op":"launch"}"#).is_err());
        assert!(Request::parse(r#"{"op":"infer"}"#).is_err());
    }

    #[test]
    fn error_response_shape() {
        let v = error_response("r9", 429, "queue full", Some(3));
        assert_eq!(v["ok"], false);
        assert_eq!(v["id"], "r9");
        assert_eq!(v["error"]["code"], 429u64);
        assert_eq!(v["error"]["retry_after_ms"], 3u64);
    }

    #[test]
    fn digest_is_sensitive_to_content_and_shape() {
        let a = ngb_tensor::Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = ngb_tensor::Tensor::from_vec(vec![1.0, 2.5], &[2]).unwrap();
        let c = ngb_tensor::Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        assert_ne!(tensor_digest(&a), tensor_digest(&b));
        assert_ne!(tensor_digest(&a), tensor_digest(&c));
        assert_eq!(tensor_digest(&a), tensor_digest(&a.clone()));
    }
}
