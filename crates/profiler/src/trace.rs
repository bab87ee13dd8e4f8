//! Chrome-tracing export: renders a [`ModelProfile`] as a `chrome://tracing`
//! / Perfetto-compatible JSON document, one lane per execution thread (or
//! per device for analytic profiles), so profiles can be inspected visually
//! alongside real PyTorch traces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::profile::ModelProfile;

/// Process id used for all events of one profile.
const PID: usize = 1;

/// Serializes `profile` into the Chrome trace-event JSON format.
///
/// The document starts with `"M"` metadata records naming the process
/// (the model) and every thread lane, followed by complete (`"X"`) events
/// with microsecond timestamps taken from each node's recorded start
/// offset. Every event carries explicit numeric `pid`/`tid` fields;
/// parallel measured profiles therefore render as genuinely overlapping
/// lanes, one per worker thread. Transfers appear on a dedicated `pcie`
/// lane. The result loads directly in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
pub fn to_chrome_trace(profile: &ModelProfile) -> String {
    // lane names: worker-N for host threads, the placement for devices
    let mut lanes: BTreeMap<usize, String> = BTreeMap::new();
    for node in &profile.nodes {
        lanes.entry(node.tid).or_insert_with(|| {
            if node.placement == "host" {
                format!("worker-{}", node.tid)
            } else {
                node.placement.to_string()
            }
        });
    }
    let has_transfers = profile.nodes.iter().any(|n| n.transfer_s > 0.0);
    let pcie_tid = lanes.keys().next_back().map_or(0, |&t| t + 1);
    if has_transfers {
        lanes.insert(pcie_tid, "pcie".to_string());
    }

    let mut events = Vec::new();
    let mut meta = String::new();
    let _ = write!(
        meta,
        r#"{{"name":"process_name","ph":"M","pid":{PID},"args":{{"name":{}}}}}"#,
        json_str(&profile.model),
    );
    events.push((f64::NEG_INFINITY, meta));
    for (tid, lane) in &lanes {
        let mut meta = String::new();
        let _ = write!(
            meta,
            r#"{{"name":"thread_name","ph":"M","pid":{PID},"tid":{tid},"args":{{"name":{}}}}}"#,
            json_str(lane),
        );
        events.push((f64::NEG_INFINITY, meta));
    }

    for node in &profile.nodes {
        let ts_us = node.start_s * 1e6;
        let dur_us = node.latency_s * 1e6;
        let class = match node.class {
            ngb_graph::OpClass::Gemm => "GEMM".to_string(),
            ngb_graph::OpClass::NonGemm(g) => g.label().to_string(),
        };
        let mut ev = String::new();
        let _ = write!(
            ev,
            r#"{{"name":{},"cat":{},"ph":"X","ts":{:.3},"dur":{:.3},"pid":{PID},"tid":{},"args":{{"op":{},"placement":{},"shape":{:?}}}}}"#,
            json_str(&node.name),
            json_str(&class),
            ts_us,
            dur_us.max(0.001),
            node.tid,
            json_str(node.op),
            json_str(node.placement),
            node.out_shape,
        );
        events.push((ts_us, ev));
        if node.transfer_s > 0.0 {
            let t_start_us = ts_us + dur_us;
            let t_us = node.transfer_s * 1e6;
            let mut ev = String::new();
            let _ = write!(
                ev,
                r#"{{"name":{},"cat":"transfer","ph":"X","ts":{:.3},"dur":{:.3},"pid":{PID},"tid":{pcie_tid}}}"#,
                json_str(&format!("{}.transfer", node.name)),
                t_start_us,
                t_us.max(0.001),
            );
            events.push((t_start_us, ev));
        }
    }
    // Perfetto wants ascending timestamps; metadata sorts first
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let body: Vec<String> = events.into_iter().map(|(_, e)| e).collect();
    format!(
        r#"{{"traceEvents":[{}],"displayTimeUnit":"ms","otherData":{{"model":{},"platform":{},"flow":{}}}}}"#,
        body.join(","),
        json_str(&profile.model),
        json_str(&profile.platform),
        json_str(&profile.flow),
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_analytic, profile_measured};
    use ngb_exec::{Engine, Interpreter};
    use ngb_graph::{GraphBuilder, OpKind};
    use ngb_platform::Platform;
    use ngb_runtime::Flow;

    fn profile() -> ModelProfile {
        let mut b = GraphBuilder::new("trace_me");
        let x = b.input(&[1, 32]);
        let h = b
            .push(
                OpKind::Linear {
                    in_f: 32,
                    out_f: 32,
                    bias: true,
                },
                &[x],
                "fc",
            )
            .unwrap();
        let v = b
            .push(OpKind::View { shape: vec![32] }, &[h], "view")
            .unwrap();
        b.push(OpKind::Contiguous, &[v], "contig").unwrap();
        let g = b.finish();
        profile_analytic(&g, &Platform::data_center(), Flow::Ort, true, 1)
    }

    #[test]
    fn trace_is_valid_json_with_all_nodes() {
        let p = profile();
        let trace = to_chrome_trace(&p);
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid json");
        let events = v["traceEvents"].as_array().expect("array");
        let x_events = events.iter().filter(|e| e["ph"] == "X").count();
        assert!(x_events >= p.nodes.len());
        assert_eq!(v["otherData"]["model"], "trace_me");
    }

    #[test]
    fn metadata_names_process_and_threads() {
        let trace = to_chrome_trace(&profile());
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid json");
        let events = v["traceEvents"].as_array().expect("array");
        assert_eq!(events[0]["ph"], "M");
        assert_eq!(events[0]["name"], "process_name");
        assert_eq!(events[0]["args"]["name"], "trace_me");
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert!(thread_names.contains(&"gpu"), "{thread_names:?}");
        assert!(thread_names.contains(&"pcie"), "{thread_names:?}");
        // every X event's tid has a thread_name record
        let named_tids: Vec<u64> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        for e in events.iter().filter(|e| e["ph"] == "X") {
            assert!(named_tids.contains(&e["tid"].as_u64().expect("numeric tid")));
        }
    }

    #[test]
    fn transfers_get_their_own_lane() {
        let p = profile();
        let trace = to_chrome_trace(&p);
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid json");
        let events = v["traceEvents"].as_array().expect("array");
        let pcie_tid = events
            .iter()
            .find(|e| e["name"] == "thread_name" && e["args"]["name"] == "pcie")
            .and_then(|e| e["tid"].as_u64())
            .expect("pcie lane metadata");
        let has_transfer = events
            .iter()
            .any(|e| e["ph"] == "X" && e["tid"] == pcie_tid && e["cat"] == "transfer");
        assert!(has_transfer, "ORT fallback must emit a transfer event");
    }

    #[test]
    fn timestamps_are_monotone() {
        let trace = to_chrome_trace(&profile());
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid json");
        let mut last = -1.0;
        for e in v["traceEvents"].as_array().expect("array") {
            if e["ph"] != "X" {
                continue; // metadata records carry no timestamp
            }
            let ts = e["ts"].as_f64().expect("number");
            assert!(ts >= last);
            last = ts;
        }
    }

    #[test]
    fn parallel_measured_trace_uses_worker_lanes() {
        let mut b = GraphBuilder::new("par_trace");
        let x = b.input(&[2, 16]);
        let l = b.push(OpKind::Gelu, &[x], "left").unwrap();
        let r = b.push(OpKind::Relu, &[x], "right").unwrap();
        b.push(OpKind::Add, &[l, r], "join").unwrap();
        let g = b.finish();
        let p = profile_measured(&g, 1, &Interpreter::new(7).engine(Engine::Parallel(2))).unwrap();
        let trace = to_chrome_trace(&p);
        let v: serde_json::Value = serde_json::from_str(&trace).expect("valid json");
        let events = v["traceEvents"].as_array().expect("array");
        let worker_lanes: Vec<&str> = events
            .iter()
            .filter(|e| e["name"] == "thread_name")
            .map(|e| e["args"]["name"].as_str().unwrap())
            .filter(|n| n.starts_with("worker-"))
            .collect();
        assert!(!worker_lanes.is_empty(), "no worker lanes in {trace}");
    }
}
