//! The sharded executor: runs a [`ShardPlan`] on one thread per device,
//! moving cross-device activations over channels through the plan's
//! explicit [`OpKind::Transfer`] nodes.
//!
//! Every node executes through [`ngb_exec::run_node`] — the same
//! dispatch and RNG seeding as the single-device engines — so a sharded
//! run is bit-identical to
//! [`Interpreter::run`](ngb_exec::Interpreter::run) on the unsharded
//! graph (microbatches are request-level replays and all produce the
//! same values; outputs are reported once). One [`ParamStore`] per
//! [`execute`] call, shared by the device threads, draws each layer once
//! however many microbatches or `LinearShard` parts read it.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ngb_exec::{run_node, ParamStore, Quant};
use ngb_graph::{NodeId, OpKind};
use ngb_tensor::{num_elements, Tensor, TensorError};

use crate::ShardPlan;

/// How long a device thread waits on its inbox before declaring the run
/// wedged (only reachable if a peer thread died mid-plan).
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Result of executing a [`ShardPlan`].
#[derive(Debug)]
pub struct ShardRun {
    /// Output values keyed by the *original* graph's node ids, in id
    /// order — directly comparable to
    /// [`ExecutionTrace::outputs`](ngb_exec::ExecutionTrace::outputs).
    pub outputs: Vec<(NodeId, Tensor)>,
    /// Microbatches executed (request-level replays).
    pub microbatches: usize,
    /// Wall-clock seconds for the whole schedule.
    pub wall_s: f64,
    /// Seconds each device spent executing kernels (roster order).
    pub busy_s: Vec<f64>,
    /// Measured idle fraction across the devices that own work:
    /// `1 − Σ busy / (active × wall)` — the executed pipeline bubble.
    pub bubble_fraction: f64,
    /// Bytes actually moved across device links, all microbatches.
    pub transfer_bytes: u64,
}

/// Message on a device's inbox: `(microbatch, transfer-node position,
/// value)`.
type Packet = (usize, usize, Tensor);

/// Per-device result: busy seconds, bytes sent over the interconnect,
/// and this device's microbatch-0 outputs mapped to original node ids.
type DeviceResult = Result<(f64, u64, Vec<(NodeId, Tensor)>), TensorError>;

/// Executes `plan` with `microbatches` request-level replays and returns
/// the microbatch-0 outputs mapped back to the original graph's node ids.
///
/// # Errors
///
/// Propagates kernel errors from any device thread; fails if a thread
/// starves on its inbox (peer died) or a plan output has no origin.
pub fn execute(plan: &ShardPlan, seed: u64, microbatches: usize) -> Result<ShardRun, TensorError> {
    let m = microbatches.max(1);
    let n = plan.graph.len();
    let n_dev = plan.devices.len();
    let quant = ngb_exec::env_quant(Quant::None);
    let store = ParamStore::default();

    // per-device node lists, id order (ids are topological)
    let mut device_nodes: Vec<Vec<usize>> = vec![Vec::new(); n_dev];
    for (pos, &d) in plan.device_of.iter().enumerate() {
        device_nodes[d].push(pos);
    }
    // producer position → transfers fed remotely, and per-node local
    // consumer counts (every non-transfer edge is same-device by
    // construction)
    let mut remote_sends: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut local_uses = vec![0usize; n];
    let mut total_uses = vec![0usize; n];
    for node in plan.graph.iter() {
        for &i in &node.inputs {
            total_uses[i.0] += 1;
            if matches!(node.op, OpKind::Transfer)
                && plan.device_of[i.0] != plan.device_of[node.id.0]
            {
                remote_sends[i.0].push((node.id.0, plan.device_of[node.id.0]));
            } else {
                local_uses[i.0] += 1;
            }
        }
    }
    let is_output: Vec<bool> = total_uses.iter().map(|&u| u == 0).collect();

    let mut senders = Vec::with_capacity(n_dev);
    let mut receivers = Vec::with_capacity(n_dev);
    for _ in 0..n_dev {
        let (tx, rx) = mpsc::channel::<Packet>();
        senders.push(tx);
        receivers.push(Some(rx));
    }

    let t0 = Instant::now();
    let per_device: Vec<DeviceResult> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_dev);
        for d in 0..n_dev {
            let rx = receivers[d].take().expect("receiver consumed once");
            let txs = senders.clone();
            let my_nodes = &device_nodes[d];
            let remote_sends = &remote_sends;
            let local_uses = &local_uses;
            let is_output = &is_output;
            let store = &store;
            handles.push(scope.spawn(move || {
                run_device(
                    plan,
                    seed,
                    quant,
                    store,
                    m,
                    my_nodes,
                    rx,
                    &txs,
                    remote_sends,
                    local_uses,
                    is_output,
                )
            }));
        }
        drop(senders); // threads own their clones
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(TensorError::InvalidArgument(
                        "device thread panicked".into(),
                    ))
                })
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64().max(1e-12);

    let mut busy_s = Vec::with_capacity(n_dev);
    let mut transfer_bytes = 0u64;
    let mut outputs: Vec<(NodeId, Tensor)> = Vec::new();
    for r in per_device {
        let (busy, moved, outs) = r?;
        busy_s.push(busy);
        transfer_bytes += moved;
        outputs.extend(outs);
    }
    outputs.sort_by_key(|(id, _)| *id);
    let active = device_nodes.iter().filter(|v| !v.is_empty()).count().max(1);
    let bubble_fraction =
        (1.0 - busy_s.iter().sum::<f64>() / (active as f64 * wall_s)).clamp(0.0, 1.0);
    Ok(ShardRun {
        outputs,
        microbatches: m,
        wall_s,
        busy_s,
        bubble_fraction,
        transfer_bytes,
    })
}

/// One device's schedule: its plan nodes in id order, `m` microbatches.
#[allow(clippy::too_many_arguments)]
fn run_device(
    plan: &ShardPlan,
    seed: u64,
    quant: Quant,
    store: &ParamStore,
    m: usize,
    my_nodes: &[usize],
    rx: mpsc::Receiver<Packet>,
    txs: &[mpsc::Sender<Packet>],
    remote_sends: &[Vec<(usize, usize)>],
    local_uses: &[usize],
    is_output: &[bool],
) -> DeviceResult {
    // values from peers that arrived ahead of this device's schedule
    let mut early: HashMap<(usize, usize), Tensor> = HashMap::new();
    let mut busy = Duration::ZERO;
    let mut moved = 0u64;
    let mut outs = Vec::new();
    for mb in 0..m {
        let mut values: HashMap<usize, Tensor> = HashMap::new();
        let mut uses: HashMap<usize, usize> = HashMap::new();
        for &pos in my_nodes {
            let node = &plan.graph.nodes[pos];
            let args: Vec<Tensor> = if matches!(node.op, OpKind::Transfer) {
                // the input is on another device by construction; block on
                // the inbox until this (microbatch, node) value lands
                let want = (mb, pos);
                loop {
                    if let Some(v) = early.remove(&want) {
                        break vec![v];
                    }
                    match rx.recv_timeout(RECV_TIMEOUT) {
                        Ok((mbx, px, t)) => {
                            early.insert((mbx, px), t);
                        }
                        Err(_) => {
                            return Err(TensorError::InvalidArgument(format!(
                                "device inbox starved waiting for {} (mb {mb})",
                                plan.graph.nodes[pos].name
                            )))
                        }
                    }
                }
            } else {
                node.inputs
                    .iter()
                    .map(|&i| {
                        values.get(&i.0).cloned().ok_or_else(|| {
                            TensorError::InvalidArgument(format!(
                                "missing local value {} for {}",
                                i, node.name
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?
            };
            let started = Instant::now();
            let out = run_node(seed, node, &args, None, store, quant)?;
            busy += started.elapsed();
            drop(args);
            for &(tpos, dst) in &remote_sends[pos] {
                moved += num_elements(out.shape()) as u64 * 4;
                txs[dst].send((mb, tpos, out.clone())).map_err(|_| {
                    TensorError::InvalidArgument(format!(
                        "device {dst} hung up mid-plan (sending {})",
                        node.name
                    ))
                })?;
            }
            if is_output[pos] && mb == 0 {
                let origin = plan.origin[pos].ok_or_else(|| {
                    TensorError::InvalidArgument(format!(
                        "plan output {} has no origin node",
                        node.name
                    ))
                })?;
                outs.push((origin, out.clone()));
            }
            // drop-at-last-use against local consumers only; remote
            // consumers already hold their clone in the channel
            for &i in &node.inputs {
                if let Some(slot) = uses.get_mut(&i.0) {
                    *slot -= 1;
                    if *slot == 0 {
                        uses.remove(&i.0);
                        values.remove(&i.0);
                    }
                }
            }
            if local_uses[pos] > 0 {
                uses.insert(pos, local_uses[pos]);
                values.insert(pos, out);
            }
        }
    }
    Ok((busy.as_secs_f64(), moved, outs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, DeviceSpec, ShardOptions, Strategy};
    use ngb_exec::Interpreter;
    use ngb_graph::{Graph, GraphBuilder};

    fn mlp() -> Graph {
        let mut b = GraphBuilder::new("mlp");
        let x = b.input(&[2, 16]);
        let mut h = x;
        for i in 0..4 {
            h = b
                .push(
                    OpKind::Linear {
                        in_f: 16,
                        out_f: 16,
                        bias: true,
                    },
                    &[h],
                    &format!("fc{i}"),
                )
                .unwrap();
            h = b.push(OpKind::Gelu, &[h], &format!("act{i}")).unwrap();
            h = b
                .push(OpKind::LayerNorm { dim: 16 }, &[h], &format!("ln{i}"))
                .unwrap();
        }
        b.finish()
    }

    fn assert_bit_identical(strategy: Strategy, spec: &str, microbatches: usize) {
        let g = mlp();
        let reference = Interpreter::default().run(&g).expect("reference run");
        let devices = DeviceSpec::parse(spec).unwrap().roster();
        let plan = partition(&g, &devices, strategy, &ShardOptions::default()).unwrap();
        let run = execute(&plan, 0x5eed, microbatches).expect("sharded run");
        assert_eq!(run.outputs.len(), reference.outputs.len());
        for ((sid, sval), (rid, rval)) in run.outputs.iter().zip(reference.outputs.iter()) {
            assert_eq!(sid, rid);
            assert_eq!(
                sval.to_vec_f32(),
                rval.to_vec_f32(),
                "{strategy} on {spec} diverged at node {sid}"
            );
        }
    }

    #[test]
    fn pipeline_two_gpus_is_bit_identical() {
        assert_bit_identical(Strategy::Pipeline, "2xgpu", 4);
    }

    #[test]
    fn pipeline_heterogeneous_is_bit_identical() {
        assert_bit_identical(Strategy::Pipeline, "gpu+cpu", 3);
    }

    #[test]
    fn tensor_split_is_bit_identical() {
        assert_bit_identical(Strategy::Tensor, "2xgpu", 1);
        assert_bit_identical(Strategy::Tensor, "4xgpu", 2);
    }

    #[test]
    fn run_reports_schedule_accounting() {
        let g = mlp();
        let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
        let plan = partition(&g, &devices, Strategy::Pipeline, &ShardOptions::default()).unwrap();
        let run = execute(&plan, 0x5eed, 4).unwrap();
        assert_eq!(run.microbatches, 4);
        assert_eq!(run.busy_s.len(), 2);
        assert!(run.wall_s > 0.0);
        assert!(run.transfer_bytes > 0, "pipeline cut must move activations");
        assert!((0.0..=1.0).contains(&run.bubble_fraction));
    }
}
