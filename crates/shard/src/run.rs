//! The sharded executor: runs a [`ShardPlan`] on one thread per device,
//! moving cross-device activations over channels through the plan's
//! explicit [`OpKind::Transfer`] nodes.
//!
//! A device thread is the third driver of the `ngb-exec` run core: it
//! walks its own node list through the same gather → execute → finish
//! steps as the single-device engines ([`RunCore`], [`ExecCtx`]), with a
//! `Transfer`'s argument arriving from the inbox instead of the value
//! table. Dispatch, RNG seeding, drop-at-last-use, the typed kernel-panic
//! error and the shadow memory are therefore the engines' own, and a
//! sharded run is bit-identical to
//! [`Interpreter::run`](ngb_exec::Interpreter::run) on the unsharded
//! graph (microbatches are request-level replays and all produce the
//! same values; outputs are reported once). The device threads share the
//! interpreter's parameter store, which draws each layer once however
//! many microbatches or `LinearShard` parts read it.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ngb_exec::{BufferPlan, ExecCtx, Interpreter, RunCore};
use ngb_graph::{Node, NodeId, OpKind};
use ngb_tensor::{num_elements, Tensor, TensorError};

use crate::ShardPlan;

/// How long a device thread waits on its inbox before declaring the run
/// wedged. A last resort: a failing peer sends [`Packet::Abort`] first.
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

/// Message on a device's inbox.
enum Packet {
    /// `(microbatch, transfer-node position, value)`.
    Value(usize, usize, Tensor),
    /// A peer failed; stop waiting.
    Abort,
}

/// Why a device stopped early.
enum Stop {
    /// Its own node failed — what [`execute`] reports.
    Failed(TensorError),
    /// A peer failed first (abort packet, closed or starved inbox);
    /// reported only when no device holds the cause.
    Collateral(TensorError),
}

impl From<TensorError> for Stop {
    fn from(e: TensorError) -> Stop {
        Stop::Failed(e)
    }
}

/// Per-device result: busy seconds, bytes sent over the interconnect,
/// and this device's microbatch-0 outputs mapped to original node ids.
type DeviceResult = Result<(f64, u64, Vec<(NodeId, Tensor)>), Stop>;

/// What every device thread reads: the run's settings, the plan and, per
/// plan node, where its value goes.
struct Routing<'a> {
    ctx: ExecCtx,
    sanitize: bool,
    microbatches: usize,
    plan: &'a ShardPlan,
    /// Producer position → `(transfer position, destination device)`.
    remote_sends: Vec<Vec<(usize, usize)>>,
    /// Same-device consumer counts (every non-transfer edge is same-device
    /// by construction): remote consumers hold their clone in the channel.
    local_uses: Vec<usize>,
    is_output: Vec<bool>,
}

/// Whether `node` is a transfer fed from another device's thread.
fn crosses(plan: &ShardPlan, node: &Node) -> bool {
    matches!(node.op, OpKind::Transfer)
        && node
            .inputs
            .first()
            .is_some_and(|i| plan.device_of[i.0] != plan.device_of[node.id.0])
}

/// Executes `plan` with `microbatches` request-level replays and returns
/// the microbatch-0 outputs mapped back to the original graph's node ids.
///
/// # Errors
///
/// The error of the device that failed first by cause (a kernel error, or
/// a kernel panic as a typed error naming the node) — never a peer's
/// secondary "hung up"; fails if a thread starves on its inbox or a plan
/// output has no origin.
pub fn execute(plan: &ShardPlan, seed: u64, microbatches: usize) -> Result<ShardRun, TensorError> {
    execute_on(plan, &Interpreter::new(seed), microbatches)
}

/// [`execute`] with the engine settings (seed, quantization, sanitizer,
/// parameter store) of a caller-built interpreter.
pub(crate) fn execute_on(
    plan: &ShardPlan,
    interp: &Interpreter,
    microbatches: usize,
) -> Result<ShardRun, TensorError> {
    ngb_exec::validate(&plan.graph)?;
    let m = microbatches.max(1);
    let n_dev = plan.devices.len();

    // per-device node lists, id order (ids are topological)
    let mut device_nodes: Vec<Vec<usize>> = vec![Vec::new(); n_dev];
    for (pos, &d) in plan.device_of.iter().enumerate() {
        device_nodes[d].push(pos);
    }
    let mut local_uses = BufferPlan::new(&plan.graph).uses;
    let is_output = local_uses.iter().map(|&u| u == 0).collect();
    let mut remote_sends = vec![Vec::new(); plan.graph.len()];
    for node in plan.graph.iter().filter(|n| crosses(plan, n)) {
        let src = node.inputs[0].0;
        remote_sends[src].push((node.id.0, plan.device_of[node.id.0]));
        local_uses[src] -= 1;
    }
    let routing = Routing {
        ctx: interp.begin_run(),
        sanitize: interp.sanitize_enabled(),
        microbatches: m,
        plan,
        remote_sends,
        local_uses,
        is_output,
    };

    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..n_dev).map(|_| mpsc::channel::<Packet>()).unzip();

    let t0 = Instant::now();
    let per_device: Vec<DeviceResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(d, rx)| {
                let txs = senders.clone();
                let (routing, my_nodes) = (&routing, &device_nodes[d]);
                scope.spawn(move || {
                    let result = run_device(routing, d, my_nodes, &rx, &txs);
                    if result.is_err() {
                        // every thread holds a sender to every inbox, so
                        // none ever disconnects: wake the peers explicitly
                        for tx in &txs {
                            let _ = tx.send(Packet::Abort);
                        }
                    }
                    result
                })
            })
            .collect();
        drop(senders); // threads own their clones
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(Stop::Failed(TensorError::InvalidArgument(
                        "device thread panicked".into(),
                    )))
                })
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64().max(1e-12);

    let mut busy_s = Vec::with_capacity(n_dev);
    let mut transfer_bytes = 0u64;
    let mut outputs: Vec<(NodeId, Tensor)> = Vec::new();
    let mut collateral = None;
    for r in per_device {
        match r {
            Ok((busy, moved, outs)) => {
                busy_s.push(busy);
                transfer_bytes += moved;
                outputs.extend(outs);
            }
            Err(Stop::Failed(cause)) => return Err(cause),
            Err(Stop::Collateral(e)) => collateral = collateral.or(Some(e)),
        }
    }
    if let Some(e) = collateral {
        return Err(e);
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

/// One device's schedule: its plan nodes in id order, once per
/// microbatch, each on a fresh value table.
fn run_device(
    routing: &Routing<'_>,
    device: usize,
    my_nodes: &[usize],
    rx: &mpsc::Receiver<Packet>,
    txs: &[mpsc::Sender<Packet>],
) -> DeviceResult {
    let plan = routing.plan;
    // values from peers that arrived ahead of this device's schedule
    let mut early: HashMap<(usize, usize), Tensor> = HashMap::new();
    let mut busy = Duration::ZERO;
    let mut moved = 0u64;
    let mut outs = Vec::new();
    for mb in 0..routing.microbatches {
        let mut core = RunCore::new(
            routing.local_uses.clone(),
            routing.is_output.clone(),
            routing.sanitize,
        );
        for &pos in my_nodes {
            let node = &plan.graph.nodes[pos];
            let args = if crosses(plan, node) {
                // block on the inbox until this (microbatch, node) value
                // lands; it never enters this device's table, so the
                // core's bookkeeping for it in `finish` is a no-op
                let stopped = |why: &str| {
                    Stop::Collateral(TensorError::InvalidArgument(format!(
                        "device inbox {why} waiting for {} (mb {mb})",
                        node.name
                    )))
                };
                loop {
                    if let Some(v) = early.remove(&(mb, pos)) {
                        break vec![v];
                    }
                    match rx.recv_timeout(RECV_TIMEOUT) {
                        Ok(Packet::Value(mbx, px, t)) => {
                            early.insert((mbx, px), t);
                        }
                        Ok(Packet::Abort) => return Err(stopped("aborted by a failed peer")),
                        Err(_) => return Err(stopped("starved")),
                    }
                }
            } else {
                core.gather(node)?
            };
            let done = routing.ctx.execute(node, args, None, device)?;
            busy += done.timing.elapsed;
            for &(tpos, dst) in &routing.remote_sends[pos] {
                moved += num_elements(done.out.shape()) as u64 * 4;
                txs[dst]
                    .send(Packet::Value(mb, tpos, done.out.clone()))
                    .map_err(|_| {
                        Stop::Collateral(TensorError::InvalidArgument(format!(
                            "device {dst} hung up mid-plan (sending {})",
                            node.name
                        )))
                    })?;
            }
            if routing.is_output[pos] && mb == 0 {
                let origin = plan.origin[pos].ok_or_else(|| {
                    TensorError::InvalidArgument(format!(
                        "plan output {} has no origin node",
                        node.name
                    ))
                })?;
                outs.push((origin, done.out.clone()));
            }
            core.finish(node, done)?;
        }
    }
    Ok((busy.as_secs_f64(), moved, outs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, DeviceSpec, ShardOptions, Strategy};
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
    /// A 2-device pipeline plan of [`mlp`] and, per stage, the position of
    /// one of its `Gelu` nodes.
    fn pipeline_plan_with_a_gelu_per_stage() -> (ShardPlan, [usize; 2]) {
        let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
        let plan = partition(
            &mlp(),
            &devices,
            Strategy::Pipeline,
            &ShardOptions::default(),
        )
        .unwrap();
        let gelu_on = |d: usize| {
            plan.graph
                .iter()
                .position(|n| matches!(n.op, OpKind::Gelu) && plan.device_of[n.id.0] == d)
                .expect("each stage owns an activation")
        };
        let at = [gelu_on(0), gelu_on(1)];
        (plan, at)
    }

    #[test]
    fn a_failing_stage_wakes_its_peer_and_the_cause_is_reported() {
        for stage in 0..2 {
            let (mut plan, at) = pipeline_plan_with_a_gelu_per_stage();
            // an activation that lost its operand fails in gather
            let name = plan.graph.nodes[at[stage]].name.clone();
            plan.graph.nodes[at[stage]].inputs.clear();
            let started = Instant::now();
            let err = execute(&plan, 0x5eed, 4).expect_err("corrupted plan must fail");
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "stage {stage}: peers waited {:?} for a dead device",
                started.elapsed()
            );
            let msg = err.to_string();
            assert!(
                msg.contains(&name) && msg.contains("missing input"),
                "stage {stage}: expected the root cause at {name}, got: {msg}"
            );
        }
    }

    #[test]
    fn panicking_kernel_on_a_device_is_a_typed_error_naming_the_node() {
        for stage in 0..2 {
            let (mut plan, at) = pipeline_plan_with_a_gelu_per_stage();
            // Linear with in_f = 0 trips the weight initializer's
            // nonzero-fan-in assert: a genuine panic on a device thread
            let node = &mut plan.graph.nodes[at[stage]];
            node.op = OpKind::Linear {
                in_f: 0,
                out_f: 16,
                bias: false,
            };
            node.name = "poison".into();
            let started = Instant::now();
            let msg = execute(&plan, 0x5eed, 2).unwrap_err().to_string();
            assert!(started.elapsed() < Duration::from_secs(2), "stage {stage}");
            assert!(
                msg.contains("poison") && msg.contains("kernel panicked"),
                "stage {stage}: {msg}"
            );
        }
    }

    #[test]
    fn sanitized_sharded_runs_are_clean_and_bit_identical() {
        let g = mlp();
        let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
        for strategy in [Strategy::Pipeline, Strategy::Tensor] {
            let plan = partition(&g, &devices, strategy, &ShardOptions::default()).unwrap();
            let plain = execute_on(&plan, &Interpreter::new(7).sanitize(false), 3).unwrap();
            // channel-fed transfer inputs never enter the receiving
            // device's table and must not read as read-before-write
            let checked = execute_on(&plan, &Interpreter::new(7).sanitize(true), 3)
                .unwrap_or_else(|e| panic!("{strategy}: sanitizer raised {e}"));
            assert_eq!(plain.outputs.len(), checked.outputs.len());
            for ((pi, pv), (ci, cv)) in plain.outputs.iter().zip(&checked.outputs) {
                assert_eq!(pi, ci);
                assert!(ngb_tensor::bit_equal(pv, cv).unwrap(), "{strategy}: {pi}");
            }
            assert_eq!(plain.transfer_bytes, checked.transfer_bytes);
        }
    }
}
