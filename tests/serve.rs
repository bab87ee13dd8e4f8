//! End-to-end tests of the `ngb-serve` inference service: admission
//! control, dynamic batch formation, bit-identity of batched rows vs solo
//! execution, and graceful shutdown under load.
//!
//! All tests bind 127.0.0.1:0 (ephemeral ports) and use the tiny model
//! scale, so they are safe to run in parallel and in CI. The `pause` /
//! `resume` wire ops make batch formation deterministic: with the
//! scheduler held, a known set of requests queues up, and releasing it
//! dispatches them as one batch.

use std::collections::HashMap;
use std::time::Duration;

use nongemm::serve::protocol::{tensor_digest, Request};
use nongemm::serve::{batching, Client, ServeConfig, Server, ServerHandle};
use nongemm::{Interpreter, ModelId, OptLevel, Scale};

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        scale: Scale::Tiny,
        opt_level: OptLevel::O0,
        max_batch: 4,
        batch_wait: Duration::from_millis(5),
        queue_cap: 64,
        threads: 2,
        intra_op: Some(false),
        seed: 0x5eed,
    }
}

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("server binds an ephemeral port")
}

/// Reference digests: what a solo batch-1 run (the `nongemm-cli run`
/// path: build → optimize → interpret) produces for one request seed.
fn solo_digests(model: ModelId, opt: OptLevel, input_seed: u64) -> HashMap<u64, String> {
    let built = model.build(1, Scale::Tiny).expect("model builds");
    let (graph, _) = nongemm::opt::optimize(&built, opt);
    let overrides = batching::batched_inputs(&graph, &[input_seed]).expect("inputs synthesize");
    let trace = Interpreter::new(0x5eed)
        .run_with_inputs(&graph, &overrides)
        .expect("solo run succeeds");
    trace
        .outputs
        .iter()
        .map(|(id, t)| (id.0 as u64, tensor_digest(t)))
        .collect()
}

fn response_digests(resp: &serde_json::Value) -> HashMap<u64, String> {
    resp["result"]["outputs"]
        .as_array()
        .expect("outputs array")
        .iter()
        .map(|o| {
            (
                o["node"].as_u64().expect("node id"),
                o["digest"].as_str().expect("digest").to_string(),
            )
        })
        .collect()
}

/// Polls server stats until `pred` holds (bounded; panics on timeout).
fn wait_for_stats(handle: &ServerHandle, pred: impl Fn(nongemm::serve::ServeStats) -> bool) {
    for _ in 0..500 {
        if pred(handle.stats()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("stats condition not reached: {:?}", handle.stats());
}

#[test]
fn ping_stats_and_unknown_model() {
    let handle = start(test_config());
    let mut c = Client::connect(handle.addr()).unwrap();
    let pong = c.request(&Request::Ping).unwrap();
    assert_eq!(pong["ok"], true);
    assert_eq!(pong["pong"], true);

    let resp = c.infer("nonesuch", "r0", 1).unwrap();
    assert_eq!(resp["ok"], false);
    assert_eq!(resp["error"]["code"], 404u64);

    let stats = c.stats().unwrap();
    assert_eq!(stats["ok"], true);
    assert_eq!(stats["stats"]["errors"], 1u64);

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_lines_get_400_not_disconnect() {
    let handle = start(test_config());
    let mut c = Client::connect(handle.addr()).unwrap();
    // hand-write garbage on the socket, then a valid ping on the same
    // connection: the server must answer both
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    let resp: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(resp["ok"], false);
    assert_eq!(resp["error"]["code"], 400u64);

    assert_eq!(c.request(&Request::Ping).unwrap()["ok"], true);
    handle.shutdown();
    handle.join();
}

#[test]
fn a_deeply_nested_line_gets_one_400_and_the_connection_keeps_serving() {
    // under the 64 KiB line cap, but deep enough to overflow a connection
    // thread's stack if the JSON parser recursed without a limit
    use std::io::{BufRead, Write};
    let handle = start(test_config());
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut deep = "[".repeat(60_000);
    deep.push('\n');
    raw.write_all(deep.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(resp["ok"], false);
    assert_eq!(resp["error"]["code"], 400u64);
    let message = resp["error"]["message"].as_str().unwrap();
    assert!(message.contains("recursion limit exceeded"), "{message}");

    raw.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(pong["pong"], true, "{line}");
    assert_eq!(handle.stats().errors, 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn a_lone_request_is_served_without_waiting_out_batch_wait() {
    // batch_wait is a ceiling on holding a request for companions, and it
    // applies only while arrivals are denser than it: one request after a
    // quiet second has no companion to wait for and must not sit out the
    // whole second
    let config = ServeConfig {
        batch_wait: Duration::from_secs(1),
        ..test_config()
    };
    let handle = start(config);
    std::thread::sleep(Duration::from_secs(1));
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.infer("bert", "solo", 7).unwrap();
    assert_eq!(resp["ok"], true, "response: {resp}");
    assert_eq!(resp["result"]["batch_size"], 1u64);
    let queue_us = resp["result"]["queue_us"].as_f64().unwrap();
    assert!((0.0..100_000.0).contains(&queue_us), "queue_us {queue_us}");
    assert!(resp["result"]["exec_us"].as_f64().unwrap() > 0.0);
    // the taxonomy breakdown rides along on every response
    assert!(resp["result"]["breakdown"]["total_s"].as_f64().unwrap() > 0.0);
    assert_eq!(
        response_digests(&resp),
        solo_digests(ModelId::Bert, OptLevel::O0, 7)
    );

    let final_stats = {
        handle.shutdown();
        handle.join()
    };
    assert_eq!(final_stats.completed, 1);
    assert_eq!(final_stats.accepted, 1);
}

#[test]
fn sequential_round_trips_never_wait_for_a_delayed_ack() {
    // a client that sends nothing between exchanges acknowledges a segment
    // only after the delayed-ACK timer (about 40 ms on Linux loopback): a
    // line that travels as two segments pays that on every exchange, here
    // about a second in all
    let handle = start(test_config());
    let mut c = Client::connect(handle.addr()).unwrap();
    let started = std::time::Instant::now();
    for _ in 0..25 {
        assert_eq!(c.request(&Request::Ping).unwrap()["pong"], true);
    }
    let took = started.elapsed();
    assert!(took < Duration::from_millis(500), "25 pings took {took:?}");
    handle.shutdown();
    handle.join();
}

#[test]
fn an_endless_request_line_gets_one_400_and_only_that_connection_closes() {
    use std::io::{Read, Write};
    let handle = start(test_config());
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    // a server that waits for the newline never answers: fail, do not hang
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&vec![b'x'; 100 * 1024]).unwrap();
    let mut answer = String::new();
    // read to the end: the server closes its side after the one answer
    raw.read_to_string(&mut answer).unwrap();
    let lines: Vec<&str> = answer.lines().collect();
    assert_eq!(lines.len(), 1, "answer: {answer}");
    let resp: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(resp["ok"], false);
    assert_eq!(resp["error"]["code"], 400u64);
    assert_eq!(resp["error"]["message"], "request line too long");

    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.request(&Request::Ping).unwrap()["pong"], true);
    assert_eq!(handle.stats().errors, 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn an_invalid_seed_is_refused_and_the_largest_exact_one_is_served() {
    use std::io::Write;
    let handle = start(test_config());
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    // 2^53 is where the wire's f64 stops carrying every integer
    let bad = ["-1", "1.5", "\"7\"", "9007199254740992"];
    for seed in bad {
        let line = format!("{{\"op\":\"infer\",\"model\":\"bert\",\"seed\":{seed}}}\n");
        raw.write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        std::io::BufRead::read_line(&mut reader, &mut answer).unwrap();
        let resp: serde_json::Value = serde_json::from_str(&answer).unwrap();
        assert_eq!(resp["ok"], false, "seed {seed}: {resp}");
        assert_eq!(resp["error"]["code"], 400u64, "seed {seed}: {resp}");
        let message = resp["error"]["message"].as_str().unwrap();
        assert!(message.contains("seed"), "seed {seed}: {message}");
    }
    let stats = handle.stats();
    assert_eq!(stats.errors, bad.len() as u64);
    assert_eq!(stats.accepted, 0, "no bad seed ran as the default seed");

    let largest = (1u64 << 53) - 1;
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.infer("bert", "edge", largest).unwrap();
    assert_eq!(resp["ok"], true, "response: {resp}");
    assert_eq!(
        response_digests(&resp),
        solo_digests(ModelId::Bert, OptLevel::O0, largest)
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn zero_queue_cap_rejects_everything_with_retry_after() {
    let config = ServeConfig {
        queue_cap: 0,
        ..test_config()
    };
    let handle = start(config);
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..3 {
        let resp = c.infer("bert", &format!("r{i}"), i).unwrap();
        assert_eq!(resp["ok"], false);
        assert_eq!(resp["error"]["code"], 429u64);
        assert!(resp["error"]["retry_after_ms"].as_u64().unwrap() >= 1);
    }
    let stats = handle.stats();
    assert_eq!(stats.rejected, 3);
    assert_eq!(stats.accepted, 0);
    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_rejects_deterministically_under_pause() {
    let config = ServeConfig {
        queue_cap: 2,
        ..test_config()
    };
    let handle = start(config);
    let mut control = Client::connect(handle.addr()).unwrap();
    assert_eq!(control.request(&Request::Pause).unwrap()["ok"], true);

    // with the scheduler held, the first two admissions fill the queue
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.send(&Request::Infer {
            id: format!("r{i}"),
            model: "bert".into(),
            seed: i as u64,
        })
        .unwrap();
        // serialize admissions so exactly the third one overflows
        wait_for_stats(&handle, |s| s.accepted + s.rejected == i as u64 + 1);
    }
    let overflow = clients[2].recv().unwrap();
    assert_eq!(overflow["ok"], false);
    assert_eq!(overflow["error"]["code"], 429u64);
    assert_eq!(overflow["error"]["message"], "queue full");

    assert_eq!(control.request(&Request::Resume).unwrap()["ok"], true);
    for (i, c) in clients.iter_mut().take(2).enumerate() {
        let resp = c.recv().unwrap();
        assert_eq!(resp["ok"], true, "client {i}: {resp}");
    }
    let stats = handle.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.accepted, 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_requests_form_a_batch_bit_identical_to_solo_runs() {
    let config = ServeConfig {
        max_batch: 3,
        ..test_config()
    };
    let handle = start(config);
    let mut control = Client::connect(handle.addr()).unwrap();
    assert_eq!(control.request(&Request::Pause).unwrap()["ok"], true);

    let seeds = [11u64, 22, 33];
    let mut clients: Vec<Client> = seeds
        .iter()
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    for (c, &seed) in clients.iter_mut().zip(&seeds) {
        c.send(&Request::Infer {
            id: format!("s{seed}"),
            model: "bert".into(),
            seed,
        })
        .unwrap();
    }
    wait_for_stats(&handle, |s| s.accepted == 3);
    assert_eq!(control.request(&Request::Resume).unwrap()["ok"], true);

    for (c, &seed) in clients.iter_mut().zip(&seeds) {
        let resp = c.recv().unwrap();
        assert_eq!(resp["ok"], true, "seed {seed}: {resp}");
        assert_eq!(resp["id"].as_str().unwrap(), format!("s{seed}"));
        // all three dispatched as ONE batch...
        assert_eq!(resp["result"]["batch_size"], 3u64);
        // ...and each row is bit-identical to that seed's solo run
        assert_eq!(
            response_digests(&resp),
            solo_digests(ModelId::Bert, OptLevel::O0, seed),
            "batched row for seed {seed} diverged from solo execution"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, 3);
    handle.shutdown();
    handle.join();
}

#[test]
fn non_transparent_models_execute_at_batch_one() {
    // gpt2 is NOT batch-transparent (GEMM row-block tails mix rows), so
    // even simultaneous requests must execute as batch-1 dispatches with
    // rows bit-identical to solo runs
    let handle = start(test_config());
    let mut control = Client::connect(handle.addr()).unwrap();
    assert_eq!(control.request(&Request::Pause).unwrap()["ok"], true);

    let seeds = [5u64, 6];
    let mut clients: Vec<Client> = seeds
        .iter()
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    for (c, &seed) in clients.iter_mut().zip(&seeds) {
        c.send(&Request::Infer {
            id: format!("g{seed}"),
            model: "gpt2".into(),
            seed,
        })
        .unwrap();
    }
    wait_for_stats(&handle, |s| s.accepted == 2);
    assert_eq!(control.request(&Request::Resume).unwrap()["ok"], true);

    for (c, &seed) in clients.iter_mut().zip(&seeds) {
        let resp = c.recv().unwrap();
        assert_eq!(resp["ok"], true, "seed {seed}: {resp}");
        assert_eq!(resp["result"]["batch_size"], 1u64);
        assert_eq!(
            response_digests(&resp),
            solo_digests(ModelId::Gpt2, OptLevel::O0, seed)
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.max_batch, 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn graph_cache_serves_steady_state_from_memory() {
    let handle = start(test_config());
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..3 {
        assert_eq!(c.infer("bert", &format!("w{i}"), i).unwrap()["ok"], true);
    }
    let stats = c.stats().unwrap();
    let cache = &stats["stats"]["graph_cache"];
    // batch-1 graph built exactly once, then pure hits
    assert_eq!(cache["misses"], 1u64, "cache: {cache}");
    assert!(cache["hits"].as_u64().unwrap() >= 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_mid_load_answers_every_admitted_request() {
    let handle = start(test_config());
    let mut control = Client::connect(handle.addr()).unwrap();
    assert_eq!(control.request(&Request::Pause).unwrap()["ok"], true);

    // load up 4 requests while the scheduler is held, then shut down
    // without ever resuming: the drain must override the pause and
    // answer all of them
    let seeds = [1u64, 2, 3, 4];
    let mut clients: Vec<Client> = seeds
        .iter()
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    for (c, &seed) in clients.iter_mut().zip(&seeds) {
        c.send(&Request::Infer {
            id: format!("d{seed}"),
            model: "bert".into(),
            seed,
        })
        .unwrap();
    }
    wait_for_stats(&handle, |s| s.accepted == 4);
    handle.shutdown();

    for (c, &seed) in clients.iter_mut().zip(&seeds) {
        let resp = c.recv().unwrap();
        assert_eq!(resp["ok"], true, "seed {seed} must be answered: {resp}");
    }
    let final_stats = handle.join();
    assert_eq!(final_stats.accepted, 4);
    assert_eq!(
        final_stats.completed, 4,
        "no admitted request may be dropped"
    );
}

#[test]
fn draining_server_rejects_new_requests_with_503() {
    let handle = start(test_config());
    let mut control = Client::connect(handle.addr()).unwrap();
    assert_eq!(control.request(&Request::Pause).unwrap()["ok"], true);
    let mut c = Client::connect(handle.addr()).unwrap();
    c.send(&Request::Infer {
        id: "in".into(),
        model: "bert".into(),
        seed: 1,
    })
    .unwrap();
    wait_for_stats(&handle, |s| s.accepted == 1);
    // pipeline drain + a late infer on one connection: the reader
    // processes them back to back, before the scheduler can finish
    // draining and close the socket
    control.send(&Request::Shutdown).unwrap();
    control
        .send(&Request::Infer {
            id: "late".into(),
            model: "bert".into(),
            seed: 2,
        })
        .unwrap();
    let ack = control.recv().unwrap();
    assert_eq!(ack["ok"], true);
    assert_eq!(ack["draining"], true);
    let late = control.recv().unwrap();
    assert_eq!(late["ok"], false);
    assert_eq!(late["error"]["code"], 503u64);
    // the admitted request still completes
    assert_eq!(c.recv().unwrap()["ok"], true);
    let final_stats = handle.join();
    assert_eq!(final_stats.completed, 1);
    assert_eq!(final_stats.rejected, 1);
}
