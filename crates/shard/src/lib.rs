//! # ngb-shard
//!
//! Multi-device sharding for NonGEMM Bench: partitions an operator
//! [`Graph`](ngb_graph::Graph) across N simulated devices, places the
//! pieces on a heterogeneous roster of [`DeviceModel`]s, and **executes**
//! the plan — the collective and transfer operators the split introduces
//! become first-class, profiled non-GEMM nodes instead of an invisible
//! runtime tax.
//!
//! Two strategies:
//!
//! * **Pipeline parallel** ([`Strategy::Pipeline`]) — contiguous stages
//!   split at minimum-activation-bytes cut points (a balance-first DP with
//!   a min-transfer tie-break), run as a microbatched schedule whose
//!   bubble fraction the executor measures.
//! * **Tensor parallel** ([`Strategy::Tensor`]) — each primitive `Linear`
//!   layer's weight is column-split across devices into
//!   [`OpKind::LinearShard`](ngb_graph::OpKind::LinearShard) nodes joined
//!   by an explicit [`OpKind::AllGather`](ngb_graph::OpKind::AllGather);
//!   shard weights are bitwise slices of the unsplit layer, so the
//!   gathered result is **bit-identical** to single-device execution.
//!
//! Cross-device edges are materialized as explicit
//! [`OpKind::Transfer`](ngb_graph::OpKind::Transfer) nodes owned by the
//! consuming device; the executor moves the tensors over channels and the
//! profile charges each transfer the modeled PCIe latency of its link.
//! Both strategies are verified bit-identical to the single-device
//! interpreter for all 18 benchmark models (see `tests/shard.rs`).
//!
//! # Examples
//!
//! ```
//! use ngb_shard::{partition, DeviceSpec, ShardOptions, Strategy};
//! use ngb_graph::{GraphBuilder, OpKind};
//!
//! # fn main() -> Result<(), ngb_tensor::TensorError> {
//! let mut b = GraphBuilder::new("tiny");
//! let x = b.input(&[1, 8]);
//! let h = b.push(OpKind::Linear { in_f: 8, out_f: 8, bias: true }, &[x], "fc1")?;
//! let a = b.push(OpKind::Gelu, &[h], "act")?;
//! b.push(OpKind::Linear { in_f: 8, out_f: 4, bias: true }, &[a], "fc2")?;
//! let graph = b.finish();
//!
//! let devices = DeviceSpec::parse("2xgpu").unwrap().roster();
//! let plan = partition(&graph, &devices, Strategy::Pipeline, &ShardOptions::default())?;
//! let run = ngb_shard::execute(&plan, 0x5eed, 4)?;
//! assert_eq!(run.outputs.len(), 1); // same outputs as the plain interpreter
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod plan;
mod run;

pub use plan::{partition, ModeledEstimate, ShardOptions, ShardPlan, DEFAULT_MICROBATCHES};
pub use run::{execute, ShardRun};

use ngb_platform::{DeviceKind, DeviceModel};

/// How the partitioner splits the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Contiguous stages, one per device, microbatched.
    Pipeline,
    /// Column-split `Linear` weights joined by `AllGather`.
    Tensor,
}

impl Strategy {
    /// Parses `"pipeline"` or `"tensor"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "pipeline" | "pp" => Some(Strategy::Pipeline),
            "tensor" | "tp" => Some(Strategy::Tensor),
            _ => None,
        }
    }

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Pipeline => "pipeline",
            Strategy::Tensor => "tensor",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A parsed `--devices` roster: `2xgpu`, `gpu+cpu`, `4xgpu`,
/// `gpu+gpu+npu`, … Each element names a device class; `Nx` prefixes
/// repeat it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Device kinds in roster order (device index order).
    pub kinds: Vec<DeviceKind>,
}

impl DeviceSpec {
    /// Parses a roster spec. Terms are separated by `+`; each term is a
    /// kind name (`cpu`, `gpu`, `npu`) with an optional `<count>x` repeat
    /// prefix. Returns `None` on empty, unknown, or zero-count specs.
    pub fn parse(spec: &str) -> Option<DeviceSpec> {
        let mut kinds = Vec::new();
        for term in spec.trim().to_ascii_lowercase().split('+') {
            let term = term.trim();
            let (count, name) = match term.split_once('x') {
                Some((n, rest)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                    (n.parse::<usize>().ok()?, rest.trim())
                }
                _ => (1, term),
            };
            let kind = match name {
                "cpu" => DeviceKind::Cpu,
                "gpu" => DeviceKind::Gpu,
                "npu" => DeviceKind::Npu,
                _ => return None,
            };
            if count == 0 {
                return None;
            }
            kinds.extend(std::iter::repeat_n(kind, count));
        }
        if kinds.is_empty() {
            None
        } else {
            Some(DeviceSpec { kinds })
        }
    }

    /// Number of devices in the roster.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the roster is empty (never true for parsed specs).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Concrete [`DeviceModel`]s for the roster: GPUs are A100s, CPUs are
    /// EPYC 7763s, NPUs are the edge-NPU model — the data-center column
    /// of Table 3 extended with the NPU class.
    pub fn roster(&self) -> Vec<DeviceModel> {
        self.kinds
            .iter()
            .map(|k| match k {
                DeviceKind::Cpu => DeviceModel::epyc7763(),
                DeviceKind::Gpu => DeviceModel::a100(),
                DeviceKind::Npu => DeviceModel::edge_npu(),
            })
            .collect()
    }

    /// Canonical display form, e.g. `"gpu+gpu+cpu"`.
    pub fn label(&self) -> String {
        let names: Vec<&str> = self
            .kinds
            .iter()
            .map(|k| match k {
                DeviceKind::Cpu => "cpu",
                DeviceKind::Gpu => "gpu",
                DeviceKind::Npu => "npu",
            })
            .collect();
        names.join("+")
    }
}

/// Modeled latency of moving `bytes` from `src` to `dst`: each non-CPU
/// endpoint pays one PCIe hop (CPU↔CPU shares host memory and is free;
/// accelerator↔accelerator bounces through the host, two hops).
pub fn link_latency(src: &DeviceModel, dst: &DeviceModel, bytes: f64) -> f64 {
    src.transfer_latency(bytes) + dst.transfer_latency(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_accepts_the_documented_forms() {
        assert_eq!(
            DeviceSpec::parse("2xgpu").unwrap().kinds,
            vec![DeviceKind::Gpu, DeviceKind::Gpu]
        );
        assert_eq!(
            DeviceSpec::parse("gpu+cpu").unwrap().kinds,
            vec![DeviceKind::Gpu, DeviceKind::Cpu]
        );
        assert_eq!(DeviceSpec::parse("4xgpu").unwrap().len(), 4);
        assert_eq!(
            DeviceSpec::parse("2xGPU + NPU").unwrap().label(),
            "gpu+gpu+npu"
        );
        assert!(DeviceSpec::parse("").is_none());
        assert!(DeviceSpec::parse("0xgpu").is_none());
        assert!(DeviceSpec::parse("tpu").is_none());
    }

    #[test]
    fn roster_matches_kinds() {
        let r = DeviceSpec::parse("gpu+cpu+npu").unwrap().roster();
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].kind, DeviceKind::Gpu);
        assert_eq!(r[1].kind, DeviceKind::Cpu);
        assert_eq!(r[2].kind, DeviceKind::Npu);
    }

    #[test]
    fn strategy_round_trips() {
        for s in [Strategy::Pipeline, Strategy::Tensor] {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert!(Strategy::parse("ring").is_none());
    }

    #[test]
    fn link_latency_is_zero_only_between_cpus() {
        let (cpu, gpu) = (DeviceModel::epyc7763(), DeviceModel::a100());
        assert_eq!(link_latency(&cpu, &cpu, 1e6), 0.0);
        assert!(link_latency(&cpu, &gpu, 1e6) > 0.0);
        let two_hop = link_latency(&gpu, &gpu, 1e6);
        assert!((two_hop - 2.0 * link_latency(&cpu, &gpu, 1e6)).abs() < 1e-12);
    }
}
