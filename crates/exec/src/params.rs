//! Resident parameters: every engine owner synthesizes a layer's weights
//! once and serves them from memory afterwards.
//!
//! A graph's parameters are not stored anywhere — they are a pure function
//! of `(seed, seed id, op dims)` drawn from the per-node RNG. A
//! [`ParamStore`] memoizes that function: the first fetch of a key draws
//! the set (for a folded Conv+BN node, draws *and folds*), later fetches
//! hand out `Arc`-backed clones. Because the key is everything the values
//! depend on, graphs that renumber nodes but keep `seed_hint` (O2
//! rewrites, decode/reference pairs, `LinearShard` parts) share one copy,
//! and two graphs that reuse an id with different dims never collide.
//!
//! Admission is first-come up to [`MAX_RESIDENT_BYTES`] with no eviction:
//! a set that does not fit is drawn per use, which is exactly the
//! pre-residency behaviour and keeps models larger than the budget
//! runnable. Eviction would make a node's cost depend on what ran before
//! it; first-come keeps every run of a `(seed, graph)` after the first
//! identical.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ngb_graph::{FusedKind, Node, NodeId, OpKind};
use ngb_tensor::random::TensorRng;
use ngb_tensor::{Tensor, TensorError};

use crate::interp::rng_for;

/// Cap on the bytes one [`ParamStore`] keeps resident.
pub const MAX_RESIDENT_BYTES: usize = 1 << 30;

/// Parameter-fetch counters of one run, plus the owning store's size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Parameter sets served from the store.
    pub hits: u64,
    /// Parameter sets that had to be synthesized (first touch of a key,
    /// or a set the store's budget could not admit).
    pub misses: u64,
    /// Bytes resident in the owner's store when the run ended.
    pub retained_bytes: usize,
}

/// What one run fetched; folded into the trace when the run ends.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FetchTally {
    resident: u64,
    synthesized: u64,
    synthesis: Duration,
}

impl FetchTally {
    pub(crate) fn merge(&mut self, other: FetchTally) {
        self.resident += other.resident;
        self.synthesized += other.synthesized;
        self.synthesis += other.synthesis;
    }

    /// Time spent drawing (and folding) parameters.
    pub(crate) fn synthesis(&self) -> Duration {
        self.synthesis
    }

    pub(crate) fn stats(&self, store: &ParamStore) -> ArenaStats {
        ArenaStats {
            hits: self.resident,
            misses: self.synthesized,
            retained_bytes: store.resident_bytes(),
        }
    }
}

/// One parameter set: the tensors a kernel reads besides its inputs, in
/// draw order (weight before bias; gain, shift, mean, variance).
type ParamSet = Arc<[Tensor]>;

/// The parameters of one node, fetched before its timer starts: a set per
/// stage of a fused pipeline, a single set otherwise.
#[derive(Debug, Default)]
pub(crate) struct NodeParams(Vec<Option<ParamSet>>);

impl NodeParams {
    /// Stage `i`'s tensors; empty for a stage without parameters.
    pub(crate) fn stage(&self, i: usize) -> &[Tensor] {
        self.0.get(i).and_then(|s| s.as_deref()).unwrap_or(&[])
    }
}

/// Dims of a convolution's parameters (stride and padding do not shape
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ConvDims {
    in_c: usize,
    out_c: usize,
    kernel: usize,
    groups: usize,
    bias: bool,
}

/// Which draw sequence a key stands for. Ops that draw the same sequence
/// share a kind: `LinearShard` slices its unsplit `Linear`, the RMS norms
/// draw one gain, layer and group norm a gain and a shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ParamKind {
    Linear {
        in_f: usize,
        out_f: usize,
        bias: bool,
    },
    Conv1dGpt2 {
        in_f: usize,
        out_f: usize,
    },
    Conv2d(ConvDims),
    /// A convolution with the batch norm seeded by `bn_seed_id` folded in.
    ConvBn {
        conv: ConvDims,
        bn_seed_id: usize,
    },
    Embedding {
        vocab: usize,
        dim: usize,
    },
    Gain {
        dim: usize,
    },
    GainShift {
        dim: usize,
    },
    BatchStats {
        c: usize,
    },
}

impl ParamKind {
    fn of(op: &OpKind) -> Option<ParamKind> {
        Some(match *op {
            OpKind::Linear { in_f, out_f, bias }
            | OpKind::LinearShard {
                in_f, out_f, bias, ..
            } => ParamKind::Linear { in_f, out_f, bias },
            OpKind::Conv1dGpt2 { in_f, out_f } => ParamKind::Conv1dGpt2 { in_f, out_f },
            OpKind::Conv2d {
                in_c,
                out_c,
                kernel,
                groups,
                bias,
                ..
            } => ParamKind::Conv2d(ConvDims {
                in_c,
                out_c,
                kernel,
                groups,
                bias,
            }),
            OpKind::Embedding { vocab, dim } => ParamKind::Embedding { vocab, dim },
            OpKind::RmsNorm { dim } | OpKind::LlamaRmsNorm { dim } => ParamKind::Gain { dim },
            OpKind::LayerNorm { dim } | OpKind::GroupNorm { c: dim, .. } => {
                ParamKind::GainShift { dim }
            }
            OpKind::BatchNorm2d { c } | OpKind::FrozenBatchNorm2d { c } => {
                ParamKind::BatchStats { c }
            }
            _ => return None,
        })
    }
}

/// Everything a parameter set's values depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ParamKey {
    seed: u64,
    /// The node id the RNG is keyed on (`seed_hint` survives rewrites).
    seed_id: usize,
    kind: ParamKind,
}

fn conv_draw(rng: &mut TensorRng, d: ConvDims) -> (Tensor, Option<Tensor>) {
    let fan_in = (d.in_c / d.groups) * d.kernel * d.kernel;
    let shape = [d.out_c, d.in_c / d.groups, d.kernel, d.kernel];
    let w = rng.kaiming(&shape, fan_in.max(1));
    (w, d.bias.then(|| rng.normal(&[d.out_c])))
}

fn gain_shift_draw(rng: &mut TensorRng, dim: usize) -> [Tensor; 2] {
    [
        rng.uniform(&[dim], 0.9, 1.1),
        rng.uniform(&[dim], -0.1, 0.1),
    ]
}

fn batch_stats_draw(rng: &mut TensorRng, c: usize) -> [Tensor; 4] {
    let [g, b] = gain_shift_draw(rng, c);
    [
        g,
        b,
        rng.uniform(&[c], -0.1, 0.1),
        rng.uniform(&[c], 0.8, 1.2),
    ]
}

impl ParamKey {
    /// The one place parameters are drawn. Draw order per kind is the
    /// contract that keeps outputs bit-identical across engines, rewrites
    /// and shards.
    fn synthesize(&self) -> Result<Vec<Tensor>, TensorError> {
        let mut rng = rng_for(self.seed, NodeId(self.seed_id));
        Ok(match self.kind {
            ParamKind::Linear { in_f, out_f, bias } => {
                let w = rng.kaiming(&[out_f, in_f], in_f);
                std::iter::once(w)
                    .chain(bias.then(|| rng.normal(&[out_f])))
                    .collect()
            }
            ParamKind::Conv1dGpt2 { in_f, out_f } => {
                vec![rng.kaiming(&[in_f, out_f], in_f), rng.normal(&[out_f])]
            }
            ParamKind::Conv2d(dims) => {
                let (w, b) = conv_draw(&mut rng, dims);
                std::iter::once(w).chain(b).collect()
            }
            ParamKind::ConvBn { conv, bn_seed_id } => {
                let (w, b) = conv_draw(&mut rng, conv);
                let shape = w.shape().to_vec();
                let mut wv = w.to_vec_f32()?;
                let mut bv = match b {
                    Some(t) => t.to_vec_f32()?,
                    None => vec![0.0; conv.out_c],
                };
                let mut bn_rng = rng_for(self.seed, NodeId(bn_seed_id));
                let [g, beta, m, v] = batch_stats_draw(&mut bn_rng, conv.out_c);
                ngb_ops::fused::fold_bn(
                    &mut wv,
                    &mut bv,
                    &g.to_vec_f32()?,
                    &beta.to_vec_f32()?,
                    &m.to_vec_f32()?,
                    &v.to_vec_f32()?,
                    1e-5,
                );
                vec![
                    Tensor::from_vec(wv, &shape)?,
                    Tensor::from_vec(bv, &[conv.out_c])?,
                ]
            }
            ParamKind::Embedding { vocab, dim } => vec![rng.normal(&[vocab, dim])],
            ParamKind::Gain { dim } => vec![rng.uniform(&[dim], 0.9, 1.1)],
            ParamKind::GainShift { dim } => gain_shift_draw(&mut rng, dim).into(),
            ParamKind::BatchStats { c } => batch_stats_draw(&mut rng, c).into(),
        })
    }
}

#[derive(Default)]
struct Resident {
    sets: HashMap<ParamKey, ParamSet>,
    bytes: usize,
}

/// The memo of one engine owner: an [`crate::Interpreter`] and its
/// clones — what a server, a decode session or one sharded execute holds.
pub struct ParamStore {
    resident: Mutex<Resident>,
    budget: usize,
}

impl Default for ParamStore {
    fn default() -> Self {
        ParamStore::with_budget(MAX_RESIDENT_BYTES)
    }
}

impl std::fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resident = self.lock();
        f.debug_struct("ParamStore")
            .field("sets", &resident.sets.len())
            .field("bytes", &resident.bytes)
            .field("budget", &self.budget)
            .finish()
    }
}

impl ParamStore {
    pub(crate) fn with_budget(budget: usize) -> ParamStore {
        ParamStore {
            resident: Mutex::new(Resident::default()),
            budget,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Resident> {
        // held only around map reads and inserts, which cannot panic midway
        self.resident.lock().expect("param store lock")
    }

    /// Bytes of parameters currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The parameters `node` needs under `seed`, resident or drawn now.
    pub(crate) fn fetch(
        &self,
        seed: u64,
        node: &Node,
        tally: &mut FetchTally,
    ) -> Result<NodeParams, TensorError> {
        let mut get = |seed_id: usize, kind: ParamKind| {
            self.get(
                ParamKey {
                    seed,
                    seed_id,
                    kind,
                },
                tally,
            )
        };
        let OpKind::Fused(f) = &node.op else {
            // Rewritten graphs renumber nodes; the seed hint preserves the
            // original id so weights stay bit-identical across
            // optimization levels.
            let seed_id = node.seed_hint.unwrap_or(node.id).0;
            return Ok(NodeParams(match ParamKind::of(&node.op) {
                Some(kind) => vec![Some(get(seed_id, kind)?)],
                None => Vec::new(),
            }));
        };
        if f.kind == FusedKind::ConvBnAct {
            // the kernel rejects any other stage shape
            let [conv, bn, ..] = f.stages.as_slice() else {
                return Ok(NodeParams::default());
            };
            let (Some(ParamKind::Conv2d(dims)), Some(ParamKind::BatchStats { c })) =
                (ParamKind::of(&conv.op), ParamKind::of(&bn.op))
            else {
                return Ok(NodeParams::default());
            };
            if c != dims.out_c {
                return Err(TensorError::InvalidArgument(format!(
                    "node {} folds a {c}-channel batch norm into a {}-channel conv",
                    node.id, dims.out_c
                )));
            }
            let kind = ParamKind::ConvBn {
                conv: dims,
                bn_seed_id: bn.seed_id,
            };
            return Ok(NodeParams(vec![Some(get(conv.seed_id, kind)?)]));
        }
        let mut sets = Vec::new();
        for (i, stage) in f.stages.iter().enumerate() {
            if let Some(kind) = ParamKind::of(&stage.op) {
                sets.resize(i, None);
                sets.push(Some(get(stage.seed_id, kind)?));
            }
        }
        Ok(NodeParams(sets))
    }

    fn get(&self, key: ParamKey, tally: &mut FetchTally) -> Result<ParamSet, TensorError> {
        if let Some(set) = self.lock().sets.get(&key) {
            tally.resident += 1;
            return Ok(Arc::clone(set));
        }
        // drawn outside the lock: first touches of different layers run
        // concurrently on the parallel engine and on device threads
        let started = Instant::now();
        let set: ParamSet = key.synthesize()?.into();
        tally.synthesis += started.elapsed();
        tally.synthesized += 1;
        let bytes: usize = set.iter().map(Tensor::size_bytes).sum();
        let mut resident = self.lock();
        // a concurrent first touch of the same key may have got there
        // first: it stays the entry, this caller computes on its equal copy
        if !resident.sets.contains_key(&key) && resident.bytes + bytes <= self.budget {
            resident.bytes += bytes;
            resident.sets.insert(key, Arc::clone(&set));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, ExecutionTrace, Interpreter};
    use ngb_graph::{Graph, GraphBuilder};
    use ngb_models::{decode_bundle, ModelId, Scale};
    use ngb_opt::{optimize_with, OptLevel};
    use ngb_tensor::bit_equal;

    fn assert_bit_equal(a: &ExecutionTrace, b: &ExecutionTrace) {
        assert_eq!(a.outputs.len(), b.outputs.len());
        for ((ia, ta), (ib, tb)) in a.outputs.iter().zip(&b.outputs) {
            assert_eq!(ia, ib);
            assert!(bit_equal(ta, tb).unwrap(), "output {ia} differs");
        }
    }

    /// `input → Linear(in_f → out_f)`: node 1 is the layer in every graph.
    fn one_linear(in_f: usize, out_f: usize) -> Graph {
        let mut b = GraphBuilder::new("fc");
        let x = b.input(&[2, in_f]);
        let op = OpKind::Linear {
            in_f,
            out_f,
            bias: true,
        };
        b.push(op, &[x], "fc").unwrap();
        b.finish()
    }

    #[test]
    fn a_reused_node_id_with_other_dims_gets_its_own_set() {
        let (small, wide) = (one_linear(8, 4), one_linear(8, 12));
        let shared = Interpreter::new(3);
        for g in [&small, &wide, &small] {
            let got = shared.run(g).unwrap();
            assert_bit_equal(&got, &Interpreter::new(3).run(g).unwrap());
        }
        assert_eq!(shared.store.resident_bytes(), (8 * 4 + 4 + 8 * 12 + 12) * 4);
    }

    #[test]
    fn rewrites_and_decode_pairs_share_one_copy_of_a_layer() {
        // bert has no Conv+BN to fold, so O2 changes no parameter set
        let o0 = ModelId::Bert.build(1, Scale::Tiny).unwrap();
        let (o2, report) = optimize_with(&o0, OptLevel::O2, true);
        assert!(report.fusions() > 0, "O2 must rewrite something");
        let interp = Interpreter::new(5);
        let after_one = interp.run(&o0).unwrap().arena.retained_bytes;
        assert!(after_one > 0);
        let fused = interp.run(&o2).unwrap();
        assert_eq!(fused.arena.retained_bytes, after_one);
        assert_eq!(fused.arena.misses, 0, "{:?}", fused.arena);

        let bundle = decode_bundle(ModelId::Gpt2, Scale::Tiny, 1, 8)
            .expect("gpt2 decodes")
            .unwrap();
        let interp = Interpreter::new(5);
        let after_one = interp.run(&bundle.reference).unwrap().arena.retained_bytes;
        let step = interp.run(&bundle.decode).unwrap();
        assert_eq!(step.arena.retained_bytes, after_one);
        assert_eq!(step.arena.misses, 0, "{:?}", step.arena);
    }

    #[test]
    fn a_set_over_budget_is_drawn_per_use() {
        let g = ModelId::Gpt2.build(1, Scale::Tiny).unwrap();
        let want = Interpreter::new(9).run(&g).unwrap();
        let full = want.arena.retained_bytes;
        // room for some layers, not for all
        let budget = full / 3;
        let mut tight = Interpreter::new(9);
        tight.store = Arc::new(ParamStore::with_budget(budget));
        let first = tight.run(&g).unwrap();
        let second = tight.run(&g).unwrap();
        assert_bit_equal(&first, &want);
        assert_bit_equal(&second, &want);
        for t in [&first, &second] {
            assert!(t.arena.retained_bytes <= budget, "{:?}", t.arena);
        }
        assert!(second.arena.hits > 0 && second.arena.misses > 0);
        assert!(second.param_synthesis > Duration::ZERO);
        // no eviction: what the first run admitted is what stays
        assert_eq!(second.arena.retained_bytes, first.arena.retained_bytes);
    }

    #[test]
    fn concurrent_first_touch_keeps_one_entry_per_key() {
        // sw-t's windowed attention gives the parallel engine wide fronts
        let g = ModelId::SwinTiny.build(1, Scale::Tiny).unwrap();
        let want = Interpreter::new(11).run(&g).unwrap();
        let interp = Interpreter::new(11)
            .engine(Engine::Parallel(8))
            .intra_op(true);
        let first = interp.run(&g).unwrap();
        assert_bit_equal(&first, &want);
        // entries are per key, so the sequential run's count and bytes
        assert_eq!(first.arena.retained_bytes, want.arena.retained_bytes);
        let keys = |i: &Interpreter| i.store.lock().sets.len();
        assert_eq!(keys(&interp), want.arena.misses as usize);
        let second = interp.run(&g).unwrap();
        assert_bit_equal(&second, &want);
        assert_eq!(second.arena.misses, 0);
    }
}
