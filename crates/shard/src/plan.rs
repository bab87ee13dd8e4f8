//! Partitioning and placement: cut a graph into per-device pieces,
//! choose devices for the pieces, and materialize explicit transfer
//! nodes at every cross-device edge.

use std::collections::HashMap;

use ngb_graph::{op_cost, Graph, Node, NodeId, OpKind};
use ngb_platform::DeviceModel;
use ngb_profiler::{ModelProfile, NodeProfile, StagePhase};
use ngb_tensor::TensorError;

use crate::{link_latency, Strategy};

/// Default microbatch count for pipeline execution (and the modeled
/// bubble accounting).
pub const DEFAULT_MICROBATCHES: usize = 4;

/// Partitioner knobs.
#[derive(Debug, Clone, Default)]
pub struct ShardOptions {
    /// Pipeline only: skip the device-permutation placement search and
    /// assign stage `i` to device `i` (useful for deterministic tests on
    /// heterogeneous rosters).
    pub identity_placement: bool,
}

/// Modeled performance of a plan at a given microbatch count.
#[derive(Debug, Clone)]
pub struct ModeledEstimate {
    /// Microbatches the estimate assumes.
    pub microbatches: usize,
    /// Modeled sharded wall-clock seconds for all microbatches.
    pub wall_s: f64,
    /// Modeled best-single-device wall for the same work.
    pub single_wall_s: f64,
    /// `single_wall_s / wall_s`.
    pub speedup: f64,
    /// Pipeline fill/drain bubble fraction (`(S−1)/(m+S−1)`; 0 for
    /// tensor plans).
    pub bubble_fraction: f64,
    /// Modeled link seconds per microbatch.
    pub transfer_s: f64,
    /// Activation bytes crossing device links per microbatch.
    pub transfer_bytes: u64,
}

/// A partitioned, placed, transfer-materialized execution plan.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// The plan graph: the input graph rewritten with `LinearShard` /
    /// `AllGather` nodes (tensor strategy) and an explicit [`OpKind::Transfer`]
    /// at every cross-device edge.
    pub graph: Graph,
    /// Owning device of every plan node.
    pub device_of: Vec<usize>,
    /// Plan node → node of the *input* graph whose value it carries
    /// (`None` for inserted shard/transfer machinery). Output nodes
    /// always map back, which is how runs are compared bit-for-bit
    /// against single-device execution.
    pub origin: Vec<Option<NodeId>>,
    /// Partitioning strategy.
    pub strategy: Strategy,
    /// Device roster (index = device id).
    pub devices: Vec<DeviceModel>,
    /// `Linear` layers split by the tensor strategy (0 for pipeline).
    pub splits: usize,
    /// Modeled seconds charged to each device for one microbatch.
    device_s: Vec<f64>,
    /// Modeled one-microbatch serialized plan time (shard groups run in
    /// parallel; everything else in sequence) — the tensor wall model.
    serial_s: f64,
    /// Modeled link seconds per microbatch.
    transfer_s: f64,
    /// Bytes crossing links per microbatch.
    transfer_bytes: u64,
    /// Best single-device modeled seconds for the *input* graph.
    single_s: f64,
}

impl ShardPlan {
    /// Number of devices that own at least one node.
    pub fn active_devices(&self) -> usize {
        self.device_s.iter().filter(|&&s| s > 0.0).count().max(1)
    }

    /// Modeled performance at `microbatches` replays.
    pub fn modeled(&self, microbatches: usize) -> ModeledEstimate {
        let m = microbatches.max(1);
        let s_eff = self.active_devices();
        let bottleneck = self
            .device_s
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let (wall_s, bubble_fraction) = match self.strategy {
            // fill + drain: the slowest stage paces every step
            Strategy::Pipeline => (
                (m + s_eff - 1) as f64 * bottleneck,
                (s_eff - 1) as f64 / (m + s_eff - 1) as f64,
            ),
            // shards run concurrently inside each microbatch; microbatches
            // are sequential
            Strategy::Tensor => (m as f64 * self.serial_s.max(1e-12), 0.0),
        };
        let single_wall_s = m as f64 * self.single_s;
        ModeledEstimate {
            microbatches: m,
            wall_s,
            single_wall_s,
            speedup: single_wall_s / wall_s,
            bubble_fraction,
            transfer_s: self.transfer_s,
            transfer_bytes: self.transfer_bytes,
        }
    }

    /// Analytic per-node profile of the plan on its devices, with the
    /// profiler's `device` dimension set and every transfer node charged
    /// its link's modeled PCIe latency.
    pub fn profile(&self) -> ModelProfile {
        let mut cursor = 0.0f64;
        let nodes = self
            .graph
            .iter()
            .map(|n| {
                let d = self.device_of[n.id.0];
                let dev = &self.devices[d];
                let (latency_s, transfer_s) = self.node_model_s(n);
                let util = if n.class().is_gemm() { 0.9 } else { 0.35 };
                let start_s = cursor;
                cursor += latency_s + transfer_s;
                NodeProfile {
                    id: n.id,
                    name: n.name.clone(),
                    op: n.op.name(),
                    class: n.class(),
                    latency_s,
                    transfer_s,
                    energy_j: dev.energy(latency_s + transfer_s, util),
                    placement: device_kind_label(dev),
                    start_s,
                    tid: d,
                    out_shape: n.out_shape.clone(),
                    intra_chunks: 0,
                    intra_parallelism: 0,
                    bytes_materialized: 0,
                    attribution: Vec::new(),
                    stage: StagePhase::Prefill,
                    device: d,
                }
            })
            .collect();
        ModelProfile {
            model: self.graph.name.clone(),
            platform: format!(
                "{} devices ({})",
                self.devices.len(),
                self.devices
                    .iter()
                    .map(device_kind_label)
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            flow: format!("shard-{}", self.strategy),
            batch: self
                .graph
                .iter()
                .next()
                .map(|n| n.out_shape.first().copied().unwrap_or(1))
                .unwrap_or(1),
            nodes,
            peak_memory_bytes: self.graph.peak_activation_bytes(),
            param_synthesis_s: 0.0,
        }
    }

    /// Modeled `(kernel, link)` seconds of one plan node on its device.
    fn node_model_s(&self, n: &Node) -> (f64, f64) {
        let d = self.device_of[n.id.0];
        let cost = node_cost(&self.graph, n);
        let kernel = self.devices[d].op_latency(&cost, n.class().is_gemm());
        let link = if matches!(n.op, OpKind::Transfer) {
            let src = self.device_of[n.inputs[0].0];
            link_latency(
                &self.devices[src],
                &self.devices[d],
                value_bytes(&n.out_shape) as f64,
            )
        } else {
            0.0
        };
        (kernel, link)
    }
}

fn device_kind_label(d: &DeviceModel) -> &'static str {
    match d.kind {
        ngb_platform::DeviceKind::Cpu => "cpu",
        ngb_platform::DeviceKind::Gpu => "gpu",
        ngb_platform::DeviceKind::Npu => "npu",
    }
}

/// Partitions `graph` across `devices` with `strategy`, places the pieces,
/// and materializes cross-device transfers. The returned plan executes
/// bit-identically to the single-device interpreter on the input graph
/// (column-split shards reconstruct the unsplit GEMM exactly; pipeline
/// stages never change any node's math).
///
/// # Errors
///
/// Fails on an empty graph or empty roster.
pub fn partition(
    graph: &Graph,
    devices: &[DeviceModel],
    strategy: Strategy,
    options: &ShardOptions,
) -> Result<ShardPlan, TensorError> {
    if graph.is_empty() {
        return Err(TensorError::InvalidArgument(
            "cannot shard an empty graph".into(),
        ));
    }
    if devices.is_empty() {
        return Err(TensorError::InvalidArgument(
            "device roster is empty".into(),
        ));
    }
    let (pre_graph, pre_dev, pre_origin, splits) = match strategy {
        Strategy::Pipeline => {
            let stage_of = pipeline_stages(graph, devices.len().min(graph.len()));
            let stage_to_dev = if options.identity_placement {
                (0..devices.len()).collect()
            } else {
                place_pipeline(graph, &stage_of, devices)
            };
            let dev: Vec<usize> = stage_of.iter().map(|&s| stage_to_dev[s]).collect();
            let origin: Vec<Option<NodeId>> = graph.iter().map(|n| Some(n.id)).collect();
            (graph.clone(), dev, origin, 0)
        }
        Strategy::Tensor => tensor_partition(graph, devices),
    };
    let (plan_graph, device_of, origin, transfer_bytes) =
        materialize_transfers(&pre_graph, &pre_dev, &pre_origin);

    // modeled accounting on the final plan
    let mut device_s = vec![0.0f64; devices.len()];
    let mut transfer_s = 0.0f64;
    let mut serial_s = 0.0f64;
    // LinearShard groups (keyed by seed identity) overlap in the serial
    // model: only the slowest member contributes
    let mut shard_group_max: HashMap<usize, f64> = HashMap::new();
    for n in plan_graph.iter() {
        let d = device_of[n.id.0];
        let cost = node_cost(&plan_graph, n);
        let mut t = devices[d].op_latency(&cost, n.class().is_gemm());
        if matches!(n.op, OpKind::Transfer) {
            let src = device_of[n.inputs[0].0];
            let link = link_latency(&devices[src], &devices[d], value_bytes(&n.out_shape) as f64);
            t += link;
            transfer_s += link;
        }
        device_s[d] += t;
        if matches!(n.op, OpKind::LinearShard { .. }) {
            let key = n.seed_hint.unwrap_or(n.id).0;
            let slot = shard_group_max.entry(key).or_insert(0.0);
            *slot = slot.max(t);
        } else {
            serial_s += t;
        }
    }
    serial_s += shard_group_max.values().sum::<f64>();

    // best single device running the whole input graph
    let single_s = devices
        .iter()
        .map(|dev| {
            graph
                .iter()
                .map(|n| dev.op_latency(&node_cost(graph, n), n.class().is_gemm()))
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min);

    Ok(ShardPlan {
        graph: plan_graph,
        device_of,
        origin,
        strategy,
        devices: devices.to_vec(),
        splits,
        device_s,
        serial_s,
        transfer_s,
        transfer_bytes,
        single_s,
    })
}

/// Device-independent cost of one node (producer shapes from the graph).
fn node_cost(graph: &Graph, n: &Node) -> ngb_ops::OpCost {
    let inputs: Vec<Vec<usize>> = n
        .inputs
        .iter()
        .map(|&i| graph.nodes[i.0].out_shape.clone())
        .collect();
    op_cost(&n.op, &inputs, &n.out_shape)
}

/// f32-equivalent bytes of one value.
fn value_bytes(shape: &[usize]) -> u64 {
    ngb_tensor::num_elements(shape) as u64 * 4
}

/// Scheduling weight of a node: FLOPs + logical traffic, floored at 1.
fn node_weight(graph: &Graph, n: &Node) -> f64 {
    let c = node_cost(graph, n);
    (c.flops + c.memory_bytes()).max(1.0)
}

/// Splits node ids `0..n` into `s` contiguous, non-empty stages: a DP
/// that minimizes the maximum stage weight (compute balance) and breaks
/// ties toward the smallest total activation bytes crossing the cuts —
/// the minimum-cut part of the pipeline objective. Returns each node's
/// stage index. Ids are topological, so contiguous prefixes are valid
/// stages by construction.
fn pipeline_stages(graph: &Graph, s: usize) -> Vec<usize> {
    let n = graph.len();
    let s = s.clamp(1, n);
    let weights: Vec<f64> = graph.iter().map(|nd| node_weight(graph, nd)).collect();
    let mut prefix = vec![0.0f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + weights[i];
    }
    // cut_bytes[p]: activation bytes alive across the boundary after node
    // p — every u ≤ p whose farthest consumer is beyond p contributes its
    // output. Built with a difference array over the [u, max_consumer)
    // ranges.
    let mut diff = vec![0i64; n + 1];
    for node in graph.iter() {
        for &i in &node.inputs {
            let (u, c) = (i.0, node.id.0);
            // contributes to every boundary p with u <= p < c; widen to
            // the *latest* consumer by accumulating max ranges below
            let b = value_bytes(&graph.nodes[u].out_shape) as i64;
            // overlapping per-edge ranges would double-count a value
            // consumed twice downstream, so track the farthest consumer
            // instead — handled after this loop
            let _ = (b, u, c);
        }
    }
    let mut last_use = vec![0usize; n];
    for node in graph.iter() {
        for &i in &node.inputs {
            last_use[i.0] = last_use[i.0].max(node.id.0);
        }
    }
    for (u, &lu) in last_use.iter().enumerate() {
        if lu > u {
            let b = value_bytes(&graph.nodes[u].out_shape) as i64;
            diff[u] += b;
            diff[lu] -= b;
        }
    }
    let mut cut_bytes = vec![0i64; n]; // boundary after node p
    let mut acc = 0i64;
    for (p, slot) in cut_bytes.iter_mut().enumerate() {
        acc += diff[p];
        *slot = acc;
    }

    // dp[k][e]: best (max stage weight, total cut bytes) splitting nodes
    // 0..e into k stages. e ranges 1..=n.
    const INF: f64 = f64::INFINITY;
    let mut best = vec![(INF, i64::MAX); n + 1];
    let mut choice = vec![vec![0usize; n + 1]; s + 1];
    best[0] = (0.0, 0);
    for e in 1..=n {
        best[e] = (prefix[e], 0); // one stage covering 0..e
    }
    let mut prev = best.clone();
    #[allow(clippy::needless_range_loop)]
    for k in 2..=s {
        let mut cur = vec![(INF, i64::MAX); n + 1];
        for e in k..=n {
            // last stage is q..e, previous k-1 stages cover 0..q
            for q in (k - 1)..e {
                let (pm, pb) = prev[q];
                if pm == INF {
                    continue;
                }
                let m = pm.max(prefix[e] - prefix[q]);
                let b = pb.saturating_add(cut_bytes[q - 1]);
                if m < cur[e].0 || (m == cur[e].0 && b < cur[e].1) {
                    cur[e] = (m, b);
                    choice[k][e] = q;
                }
            }
        }
        prev = cur;
    }
    // reconstruct boundaries
    let mut bounds = Vec::with_capacity(s + 1);
    bounds.push(n);
    let mut e = n;
    for k in (2..=s).rev() {
        e = choice[k][e];
        bounds.push(e);
    }
    bounds.push(0);
    bounds.reverse(); // [0, q1, q2, ..., n]
    let mut stage_of = vec![0usize; n];
    for (stage, win) in bounds.windows(2).enumerate() {
        for item in stage_of.iter_mut().take(win[1]).skip(win[0]) {
            *item = stage;
        }
    }
    stage_of
}

/// Chooses which device runs each pipeline stage: exhaustive search over
/// injective stage→device assignments minimizing the modeled bottleneck
/// (slowest stage compute + its incoming PCIe transfers), which paces a
/// microbatched pipeline. Falls back to the identity assignment for
/// rosters too large to enumerate.
fn place_pipeline(graph: &Graph, stage_of: &[usize], devices: &[DeviceModel]) -> Vec<usize> {
    let s = stage_of.iter().copied().max().unwrap_or(0) + 1;
    let d = devices.len();
    if d > 6 {
        return (0..d).collect();
    }
    // stage compute on each candidate device
    let mut stage_cost = vec![vec![0.0f64; d]; s];
    for n in graph.iter() {
        let c = node_cost(graph, n);
        for (di, dev) in devices.iter().enumerate() {
            stage_cost[stage_of[n.id.0]][di] += dev.op_latency(&c, n.class().is_gemm());
        }
    }
    // bytes entering each stage from earlier stages
    let mut in_bytes = vec![0u64; s];
    for n in graph.iter() {
        for &i in &n.inputs {
            let (su, sc) = (stage_of[i.0], stage_of[n.id.0]);
            if su != sc {
                in_bytes[sc] += value_bytes(&graph.nodes[i.0].out_shape);
            }
        }
    }
    let mut assign: Vec<usize> = (0..s).map(|i| i.min(d - 1)).collect();
    let mut best_assign = assign.clone();
    let mut best = f64::INFINITY;
    let mut used = vec![false; d];
    #[allow(clippy::too_many_arguments)]
    fn rec(
        stage: usize,
        s: usize,
        d: usize,
        assign: &mut Vec<usize>,
        used: &mut Vec<bool>,
        stage_cost: &[Vec<f64>],
        in_bytes: &[u64],
        devices: &[DeviceModel],
        best: &mut f64,
        best_assign: &mut Vec<usize>,
    ) {
        if stage == s {
            let mut bottleneck = 0.0f64;
            for st in 0..s {
                let dev = assign[st];
                let mut t = stage_cost[st][dev];
                if st > 0 {
                    t += link_latency(&devices[assign[st - 1]], &devices[dev], in_bytes[st] as f64);
                }
                bottleneck = bottleneck.max(t);
            }
            if bottleneck < *best {
                *best = bottleneck;
                best_assign.clone_from(assign);
            }
            return;
        }
        for dev in 0..d {
            if used[dev] {
                continue;
            }
            used[dev] = true;
            assign[stage] = dev;
            rec(
                stage + 1,
                s,
                d,
                assign,
                used,
                stage_cost,
                in_bytes,
                devices,
                best,
                best_assign,
            );
            used[dev] = false;
        }
    }
    rec(
        0,
        s,
        d,
        &mut assign,
        &mut used,
        &stage_cost,
        &in_bytes,
        devices,
        &mut best,
        &mut best_assign,
    );
    best_assign
}

/// Rewrites every splittable primitive `Linear` into per-device
/// [`OpKind::LinearShard`] nodes joined by an [`OpKind::AllGather`], then
/// places the remaining nodes greedily: each picks the device minimizing
/// its own modeled latency plus the PCIe cost of reaching its producers —
/// the generalized ORT CPU-fallback objective. Shards stay pinned to
/// their part's device.
fn tensor_partition(
    graph: &Graph,
    devices: &[DeviceModel],
) -> (Graph, Vec<usize>, Vec<Option<NodeId>>, usize) {
    let parts = devices.len();
    let mut nodes: Vec<Node> = Vec::with_capacity(graph.len());
    let mut dev: Vec<usize> = Vec::with_capacity(graph.len());
    let mut pinned: Vec<bool> = Vec::with_capacity(graph.len());
    let mut origin: Vec<Option<NodeId>> = Vec::with_capacity(graph.len());
    let mut remap: Vec<NodeId> = vec![NodeId(0); graph.len()];
    let mut splits = 0usize;
    for node in graph.iter() {
        let seed = node.seed_hint.unwrap_or(node.id);
        match node.op {
            OpKind::Linear { in_f, out_f, bias } if parts >= 2 && out_f >= parts => {
                splits += 1;
                let x = remap[node.inputs[0].0];
                let mut shard_ids = Vec::with_capacity(parts);
                for part in 0..parts {
                    let (_, len) = ngb_graph::shard_span(out_f, part, parts);
                    let mut shape = node.out_shape.clone();
                    *shape.last_mut().expect("linear output has a last dim") = len;
                    let id = NodeId(nodes.len());
                    nodes.push(Node {
                        id,
                        op: OpKind::LinearShard {
                            in_f,
                            out_f,
                            bias,
                            part,
                            parts,
                            row_split: false,
                        },
                        inputs: vec![x],
                        out_shape: shape,
                        name: format!("{}.shard{part}", node.name),
                        seed_hint: Some(seed),
                    });
                    dev.push(part);
                    pinned.push(true);
                    origin.push(None);
                    shard_ids.push(id);
                }
                let id = NodeId(nodes.len());
                nodes.push(Node {
                    id,
                    op: OpKind::AllGather {
                        dim: node.out_shape.len() - 1,
                    },
                    inputs: shard_ids,
                    out_shape: node.out_shape.clone(),
                    name: format!("{}.all_gather", node.name),
                    seed_hint: None,
                });
                dev.push(0);
                pinned.push(true);
                origin.push(Some(node.id));
                remap[node.id.0] = id;
            }
            _ => {
                let id = NodeId(nodes.len());
                nodes.push(Node {
                    id,
                    op: node.op.clone(),
                    inputs: node.inputs.iter().map(|&i| remap[i.0]).collect(),
                    out_shape: node.out_shape.clone(),
                    name: node.name.clone(),
                    seed_hint: Some(seed),
                });
                dev.push(0);
                pinned.push(false);
                origin.push(Some(node.id));
                remap[node.id.0] = id;
            }
        }
    }
    let plan = Graph {
        nodes,
        name: graph.name.clone(),
    };
    // greedy placement for unpinned nodes
    for pos in 0..plan.len() {
        if pinned[pos] {
            continue;
        }
        let n = &plan.nodes[pos];
        let c = node_cost(&plan, n);
        let mut best = (f64::INFINITY, 0usize);
        for (di, d) in devices.iter().enumerate() {
            let mut t = d.op_latency(&c, n.class().is_gemm());
            for &i in &n.inputs {
                if dev[i.0] != di {
                    t += link_latency(
                        &devices[dev[i.0]],
                        d,
                        value_bytes(&plan.nodes[i.0].out_shape) as f64,
                    );
                }
            }
            if t < best.0 {
                best = (t, di);
            }
        }
        dev[pos] = best.1;
    }
    (plan, dev, origin, splits)
}

/// Rebuilds `graph` with an explicit [`OpKind::Transfer`] node on the
/// consuming device for every cross-device edge (one per `(producer,
/// destination)` pair), renumbering so ids stay positions. After this
/// pass the *only* cross-device edges are `producer → Transfer`, which is
/// what lets the executor route every inter-device move through one
/// channel hop. Returns the plan graph, its device map, its origin map,
/// and the activation bytes crossing links.
fn materialize_transfers(
    graph: &Graph,
    dev: &[usize],
    origin: &[Option<NodeId>],
) -> (Graph, Vec<usize>, Vec<Option<NodeId>>, u64) {
    let n = graph.len();
    // destination devices needing each node's value
    let mut dests: Vec<Vec<usize>> = vec![Vec::new(); n];
    for node in graph.iter() {
        let d = dev[node.id.0];
        for &i in &node.inputs {
            if dev[i.0] != d && !dests[i.0].contains(&d) {
                dests[i.0].push(d);
            }
        }
    }
    for list in &mut dests {
        list.sort_unstable();
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(n);
    let mut pdev = Vec::with_capacity(n);
    let mut porigin = Vec::with_capacity(n);
    let mut local: Vec<NodeId> = vec![NodeId(0); n];
    let mut remote: HashMap<(usize, usize), NodeId> = HashMap::new();
    let mut transfer_bytes = 0u64;
    for node in graph.iter() {
        let d = dev[node.id.0];
        let inputs = node
            .inputs
            .iter()
            .map(|&i| {
                if dev[i.0] == d {
                    local[i.0]
                } else {
                    remote[&(i.0, d)]
                }
            })
            .collect();
        let id = NodeId(nodes.len());
        nodes.push(Node {
            id,
            op: node.op.clone(),
            inputs,
            out_shape: node.out_shape.clone(),
            name: node.name.clone(),
            seed_hint: Some(node.seed_hint.unwrap_or(node.id)),
        });
        pdev.push(d);
        porigin.push(origin[node.id.0]);
        local[node.id.0] = id;
        for &dst in &dests[node.id.0] {
            let tid = NodeId(nodes.len());
            nodes.push(Node {
                id: tid,
                op: OpKind::Transfer,
                inputs: vec![id],
                out_shape: node.out_shape.clone(),
                name: format!("{}.to_dev{dst}", node.name),
                seed_hint: None,
            });
            pdev.push(dst);
            porigin.push(None);
            remote.insert((node.id.0, dst), tid);
            transfer_bytes += value_bytes(&node.out_shape);
        }
    }
    (
        Graph {
            nodes,
            name: graph.name.clone(),
        },
        pdev,
        porigin,
        transfer_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;
    use ngb_graph::GraphBuilder;

    fn chain(n_linear: usize) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let mut x = b.input(&[1, 8]);
        for i in 0..n_linear {
            x = b
                .push(
                    OpKind::Linear {
                        in_f: 8,
                        out_f: 8,
                        bias: true,
                    },
                    &[x],
                    &format!("fc{i}"),
                )
                .unwrap();
            x = b.push(OpKind::Gelu, &[x], &format!("act{i}")).unwrap();
        }
        b.finish()
    }

    #[test]
    fn pipeline_stages_are_contiguous_and_cover() {
        let g = chain(4);
        let stages = pipeline_stages(&g, 2);
        assert_eq!(stages.len(), g.len());
        assert_eq!(stages[0], 0);
        assert_eq!(*stages.last().unwrap(), 1);
        // monotone non-decreasing, steps of at most 1
        for w in stages.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
    }

    #[test]
    fn pipeline_plan_validates_and_places_every_node() {
        let g = chain(4);
        let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
        let plan = partition(&g, &devices, Strategy::Pipeline, &ShardOptions::default()).unwrap();
        plan.graph.validate().expect("plan graph is well-formed");
        assert_eq!(plan.device_of.len(), plan.graph.len());
        assert!(plan.graph.len() > g.len(), "cut must insert transfers");
        let transfers = plan
            .graph
            .iter()
            .filter(|n| matches!(n.op, OpKind::Transfer))
            .count();
        assert!(transfers >= 1);
        let m = plan.modeled(DEFAULT_MICROBATCHES);
        assert!(m.bubble_fraction > 0.0 && m.bubble_fraction < 1.0);
        assert!(m.transfer_bytes > 0);
    }

    #[test]
    fn tensor_plan_splits_linears_and_validates() {
        let g = chain(3);
        let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
        let plan = partition(&g, &devices, Strategy::Tensor, &ShardOptions::default()).unwrap();
        plan.graph.validate().expect("plan graph is well-formed");
        assert_eq!(plan.splits, 3);
        let shards = plan
            .graph
            .iter()
            .filter(|n| matches!(n.op, OpKind::LinearShard { .. }))
            .count();
        assert_eq!(shards, 6);
        let gathers = plan
            .graph
            .iter()
            .filter(|n| matches!(n.op, OpKind::AllGather { .. }))
            .count();
        assert_eq!(gathers, 3);
        // shard part k must sit on device k
        for n in plan.graph.iter() {
            if let OpKind::LinearShard { part, .. } = n.op {
                assert_eq!(plan.device_of[n.id.0], part);
            }
        }
        let m = plan.modeled(1);
        assert_eq!(m.bubble_fraction, 0.0);
    }

    #[test]
    fn heterogeneous_placement_prefers_the_faster_device_for_gemms() {
        let g = chain(4);
        let devices = DeviceSpec::parse("gpu+cpu").unwrap().roster();
        let plan = partition(&g, &devices, Strategy::Pipeline, &ShardOptions::default()).unwrap();
        // the placement search must beat or match identity on the modeled
        // bottleneck
        let identity = partition(
            &g,
            &devices,
            Strategy::Pipeline,
            &ShardOptions {
                identity_placement: true,
            },
        )
        .unwrap();
        let placed = plan.modeled(4).wall_s;
        let ident = identity.modeled(4).wall_s;
        assert!(placed <= ident * (1.0 + 1e-9), "{placed} > {ident}");
    }

    #[test]
    fn plan_profile_carries_the_device_dimension() {
        let g = chain(2);
        let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
        let plan = partition(&g, &devices, Strategy::Pipeline, &ShardOptions::default()).unwrap();
        let prof = plan.profile();
        assert_eq!(prof.nodes.len(), plan.graph.len());
        let devices_used: std::collections::BTreeSet<usize> =
            prof.nodes.iter().map(|n| n.device).collect();
        assert_eq!(devices_used.len(), 2);
        // transfer nodes carry a positive modeled link charge
        assert!(prof
            .nodes
            .iter()
            .filter(|n| n.op == "transfer")
            .all(|n| n.transfer_s > 0.0));
    }
}
