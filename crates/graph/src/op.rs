//! Operator kinds, the GEMM / non-GEMM taxonomy, and per-op metadata.

use serde::{Deserialize, Serialize};

/// The paper's non-GEMM operator groups (Table 2 plus the auxiliary groups
/// needed to cover the full model suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NonGemmGroup {
    /// ReLU/GELU/SiLU/… non-linearities.
    Activation,
    /// LayerNorm/BatchNorm/RMSNorm/GroupNorm.
    Normalization,
    /// Layout manipulation: view/reshape/permute/contiguous/cat/split/….
    Memory,
    /// Element-wise and scalar arithmetic, reductions.
    Arithmetic,
    /// Softmax-family logit computation.
    LogitComputation,
    /// NMS/RoIAlign/box utilities (data-dependent detection ops).
    RoiSelection,
    /// Nearest/bilinear resampling.
    Interpolation,
    /// Max/avg/adaptive pooling.
    Pooling,
    /// Embedding table lookup and gather.
    Embedding,
    /// Multi-device collectives and transfers (all-reduce, all-gather,
    /// PCIe copies) inserted by the `ngb-shard` partitioner.
    Collective,
    /// Everything else (argmax/top-k heads, masks, …).
    Other,
}

impl NonGemmGroup {
    /// Human-readable label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            NonGemmGroup::Activation => "Activation",
            NonGemmGroup::Normalization => "Normalization",
            NonGemmGroup::Memory => "Memory",
            NonGemmGroup::Arithmetic => "Arithmetic",
            NonGemmGroup::LogitComputation => "Logit",
            NonGemmGroup::RoiSelection => "RoI",
            NonGemmGroup::Interpolation => "Interpolation",
            NonGemmGroup::Pooling => "Pooling",
            NonGemmGroup::Embedding => "Embedding",
            NonGemmGroup::Collective => "Collective",
            NonGemmGroup::Other => "Other",
        }
    }

    /// All groups, in report order.
    pub fn all() -> &'static [NonGemmGroup] {
        &[
            NonGemmGroup::Normalization,
            NonGemmGroup::Activation,
            NonGemmGroup::Memory,
            NonGemmGroup::Arithmetic,
            NonGemmGroup::LogitComputation,
            NonGemmGroup::RoiSelection,
            NonGemmGroup::Interpolation,
            NonGemmGroup::Pooling,
            NonGemmGroup::Embedding,
            NonGemmGroup::Collective,
            NonGemmGroup::Other,
        ]
    }
}

impl std::fmt::Display for NonGemmGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of an operator: the paper's primary split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Representable as matrix multiplication (Linear, Conv2d, BMM, …).
    Gemm,
    /// Everything else, tagged with its functional group.
    NonGemm(NonGemmGroup),
}

impl OpClass {
    /// Whether this is a GEMM-based operator.
    pub fn is_gemm(self) -> bool {
        matches!(self, OpClass::Gemm)
    }

    /// The non-GEMM group, if any.
    pub fn group(self) -> Option<NonGemmGroup> {
        match self {
            OpClass::Gemm => None,
            OpClass::NonGemm(g) => Some(g),
        }
    }
}

/// Every operator kind that can appear in a NonGEMM Bench model graph.
///
/// Attributes (kernel sizes, dims, scalars) are stored inline; weights are
/// implicit in the node (materialized from a seeded RNG at execution time),
/// matching the operator-graph granularity the paper profiles at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpKind {
    // ---------------------------------------------------------------- inputs
    /// Graph input: an f32 activation tensor.
    Input,
    /// Graph input: i64 token ids drawn from `vocab`.
    InputIds {
        /// Vocabulary size used to bound synthetic ids.
        vocab: usize,
    },

    // ------------------------------------------------------------------ GEMM
    /// Fully-connected layer `[.., in] -> [.., out]`.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
        /// Whether a bias is added.
        bias: bool,
    },
    /// GPT-2's `Conv1D` (transposed-weight linear).
    Conv1dGpt2 {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// 2-D convolution on NCHW.
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Channel groups (`in_c` for depthwise).
        groups: usize,
        /// Whether a bias is added.
        bias: bool,
    },
    /// Rank-2 matrix multiplication of the two inputs.
    Matmul,
    /// Batched matrix multiplication `[B,M,K]@[B,K,N]`.
    Bmm,

    // ------------------------------------------------------------ activation
    /// `max(0, x)`.
    Relu,
    /// `clamp(x, 0, 6)`.
    Relu6,
    /// Exact (erf) GELU — the fused library kernel.
    Gelu,
    /// Tanh-approximated GELU — fused.
    GeluTanh,
    /// Hugging Face `NewGELU` — decomposes into 8 kernels in eager mode.
    NewGelu,
    /// `x * sigmoid(x)` (Llama).
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hard-swish (MobileNet).
    Hardswish,

    // --------------------------------------------------------- normalization
    /// LayerNorm over the last dim of size `dim`.
    LayerNorm {
        /// Normalized (last) dimension size.
        dim: usize,
    },
    /// Fused RMS norm over the last dim.
    RmsNorm {
        /// Normalized (last) dimension size.
        dim: usize,
    },
    /// Llama's decomposed RMS norm — 6 kernels in eager mode.
    LlamaRmsNorm {
        /// Normalized (last) dimension size.
        dim: usize,
    },
    /// Inference BatchNorm2d over `c` channels.
    BatchNorm2d {
        /// Channel count.
        c: usize,
    },
    /// Torchvision's hand-rolled scale-and-shift batch norm — 4 kernels.
    FrozenBatchNorm2d {
        /// Channel count.
        c: usize,
    },
    /// GroupNorm with `groups` groups over `c` channels.
    GroupNorm {
        /// Number of groups.
        groups: usize,
        /// Channel count.
        c: usize,
    },

    // ---------------------------------------------------------------- memory
    /// Copy-if-needed reshape (`torch.reshape`).
    Reshape {
        /// Target shape (`usize::MAX` = inferred).
        shape: Vec<usize>,
    },
    /// Zero-copy view (requires contiguous input).
    View {
        /// Target shape (`usize::MAX` = inferred).
        shape: Vec<usize>,
    },
    /// Zero-copy axis permutation.
    Permute {
        /// Axis order.
        perm: Vec<usize>,
    },
    /// Zero-copy swap of two dims.
    Transpose {
        /// First dim.
        d0: usize,
        /// Second dim.
        d1: usize,
    },
    /// Materialize a dense row-major copy.
    Contiguous,
    /// Zero-copy broadcast expansion.
    Expand {
        /// Target shape.
        shape: Vec<usize>,
    },
    /// Remove a size-1 dim.
    Squeeze {
        /// Dim to remove.
        dim: usize,
    },
    /// Insert a size-1 dim.
    Unsqueeze {
        /// Insertion position.
        dim: usize,
    },
    /// Zero-copy slice along `dim` (one output of a `split`).
    Slice {
        /// Sliced dim.
        dim: usize,
        /// Start element.
        start: usize,
        /// Slice length.
        len: usize,
    },
    /// Copying concatenation of all inputs along `dim`.
    Cat {
        /// Concatenated dim.
        dim: usize,
    },
    /// Cyclic roll along `dim` (`torch.roll`, Swin's shifted windows).
    Roll {
        /// Signed shift amount.
        shift: isize,
        /// Rolled dim.
        dim: usize,
    },

    // ------------------------------------------------------------ arithmetic
    /// Broadcasting element-wise add of two inputs.
    Add,
    /// Broadcasting element-wise subtract.
    Sub,
    /// Broadcasting element-wise multiply.
    Mul,
    /// Broadcasting element-wise (true) division.
    Div,
    /// Element-wise negation.
    Neg,
    /// Add a scalar.
    AddScalar(f32),
    /// Multiply by a scalar (attention's `1/sqrt(d)`).
    MulScalar(f32),
    /// Divide by a scalar.
    DivScalar(f32),
    /// Element-wise power.
    PowScalar(f32),
    /// Element-wise square root.
    Sqrt,
    /// Mean over `dim`.
    MeanDim {
        /// Reduced dim.
        dim: usize,
        /// Keep the reduced dim as size 1.
        keepdim: bool,
    },
    /// Causal (upper-triangular) mask fill with `-inf` on `[.., T, T]`
    /// attention scores.
    CausalMask,

    // ----------------------------------------------------------------- logit
    /// Numerically-stable softmax over `dim`.
    Softmax {
        /// Softmaxed dim.
        dim: usize,
    },
    /// Log-softmax over `dim`.
    LogSoftmax {
        /// Softmaxed dim.
        dim: usize,
    },

    // --------------------------------------------------------------- pooling
    /// Square max pooling.
    MaxPool2d {
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Square average pooling.
    AvgPool2d {
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Adaptive average pooling to a fixed grid.
    AdaptiveAvgPool2d {
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
    },

    // ------------------------------------------------------------------- RoI
    /// Greedy non-maximum suppression over `[N,4]` boxes + `[N]` scores.
    Nms {
        /// IoU suppression threshold.
        iou_threshold: f32,
        /// Nominal number of boxes kept (for static shape propagation; the
        /// real count is data-dependent).
        nominal_keep: usize,
    },
    /// RoIAlign of `[C,H,W]` features over `[R,4]` rois.
    RoiAlign {
        /// Output grid size.
        out: usize,
        /// Box-to-feature scale.
        spatial_scale: f32,
    },
    /// Convert `(cx,cy,w,h)` boxes to corners.
    BoxConvert,

    // --------------------------------------------------------- interpolation
    /// Nearest-neighbor resize.
    InterpolateNearest {
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
    },
    /// Bilinear resize.
    InterpolateBilinear {
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
    },

    // ------------------------------------------------------------- embedding
    /// Table lookup `[V,D]` by i64 ids.
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dim.
        dim: usize,
    },

    // ------------------------------------------------------------ collective
    /// Element-wise sum of all inputs (equal shapes) — the reduction half
    /// of a tensor-parallel row split. Partial sums are accumulated in
    /// input (rank) order, so results are deterministic but float-reorder
    /// equivalent (not bitwise) to the unsplit GEMM.
    AllReduce,
    /// Copying concatenation of per-device shards along `dim` — the
    /// gather half of a tensor-parallel column split. Bit-identical to
    /// the unsplit result because every element is computed once.
    AllGather {
        /// Concatenated (shard) dim.
        dim: usize,
    },
    /// A cross-device copy over the interconnect: executes as a dense
    /// copy, and the sharded executor charges the modeled PCIe latency
    /// for its bytes into the profile.
    Transfer,
    /// One tensor-parallel shard of a [`OpKind::Linear`] layer. The full
    /// `[out_f, in_f]` weight (and bias) is materialized from the
    /// *original* node's RNG stream (via `seed_hint`) and then sliced, so
    /// shard weights are bitwise slices of the unsplit weight.
    LinearShard {
        /// Full-layer input features.
        in_f: usize,
        /// Full-layer output features.
        out_f: usize,
        /// Whether the full layer adds a bias.
        bias: bool,
        /// This shard's index in `0..parts`.
        part: usize,
        /// Total number of shards.
        parts: usize,
        /// `false`: column-parallel — slice output features; combine with
        /// [`OpKind::AllGather`]. `true`: row-parallel — slice input
        /// features (the operand arrives pre-sliced); combine with
        /// [`OpKind::AllReduce`], bias applied by `part` 0 only.
        row_split: bool,
    },

    // ------------------------------------------------------------- reduction
    /// Argmax over `dim` (i64 output).
    Argmax {
        /// Reduced dim.
        dim: usize,
    },
    /// Top-k over the last dim (values output).
    TopK {
        /// Number of entries kept.
        k: usize,
    },

    // ----------------------------------------------------------------- fused
    /// A composite node produced by the `ngb-opt` graph rewriter: several
    /// primitive stages executed as one kernel, with interior activations
    /// kept in registers/cache instead of being materialized as values.
    Fused(FusedOp),
}

/// The fusion family a [`OpKind::Fused`] node was built by. Determines the
/// fused kernel strategy at execution time (e.g. BN folding for
/// [`FusedKind::ConvBnAct`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusedKind {
    /// `Conv2d → BatchNorm2d/FrozenBatchNorm2d [→ ReLU/ReLU6]`, executed as
    /// one convolution with the BN folded into the weights (reorders FP
    /// arithmetic; equivalence is tolerance-based).
    ConvBnAct,
    /// A GEMM producer (`Linear`/`Conv1dGpt2`/`Matmul`/`Bmm`) with a chain
    /// of single-consumer pointwise epilogues applied in the output loop.
    GemmEpilogue,
    /// A chain of single-consumer unary element-wise ops collapsed into one
    /// pass over the data.
    ElementwiseChain,
    /// `Matmul/Bmm → scale [→ mask/add] → Softmax`: the attention-score
    /// prologue matched by [`crate::attention_prologue`], which also drives
    /// `ngb-analyze`'s `FuseAttention` lint.
    AttentionPrologue,
}

impl FusedKind {
    /// Stable report name for a fused node of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FusedKind::ConvBnAct => "fused_conv_bn_act",
            FusedKind::GemmEpilogue => "fused_gemm_epilogue",
            FusedKind::ElementwiseChain => "fused_elementwise",
            FusedKind::AttentionPrologue => "fused_attention",
        }
    }
}

/// One primitive stage of a [`FusedOp`], in execution order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedStage {
    /// The primitive operator this stage executes.
    pub op: OpKind,
    /// Seed identity of the original node, so weight/parameter RNG streams
    /// are unchanged by the rewrite (see `rng_for` in `ngb-exec`).
    pub seed_id: usize,
    /// How many of the fused node's inputs this stage consumes, in order.
    /// Stage 0 has no chained value, so all of its operands are "extra";
    /// later stages receive the previous stage's output as operand 0 plus
    /// `extra_inputs` more from the fused node's input list.
    pub extra_inputs: usize,
}

/// The payload of [`OpKind::Fused`]: an ordered pipeline of primitive
/// stages. The fused node's inputs are the concatenation of every stage's
/// extra inputs; its output is the last stage's output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedOp {
    /// Which fusion family built this node.
    pub kind: FusedKind,
    /// The constituent stages, in execution order.
    pub stages: Vec<FusedStage>,
}

impl FusedOp {
    /// Total number of graph inputs the fused node consumes.
    pub fn total_inputs(&self) -> usize {
        self.stages.iter().map(|s| s.extra_inputs).sum()
    }
}

impl OpKind {
    /// A short stable name for reports (`"conv2d"`, `"layer_norm"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input => "input",
            OpKind::InputIds { .. } => "input_ids",
            OpKind::Linear { .. } => "linear",
            OpKind::Conv1dGpt2 { .. } => "conv1d_gpt2",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::Matmul => "matmul",
            OpKind::Bmm => "bmm",
            OpKind::Relu => "relu",
            OpKind::Relu6 => "relu6",
            OpKind::Gelu => "gelu",
            OpKind::GeluTanh => "gelu_tanh",
            OpKind::NewGelu => "new_gelu",
            OpKind::Silu => "silu",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Hardswish => "hardswish",
            OpKind::LayerNorm { .. } => "layer_norm",
            OpKind::RmsNorm { .. } => "rms_norm",
            OpKind::LlamaRmsNorm { .. } => "llama_rms_norm",
            OpKind::BatchNorm2d { .. } => "batch_norm2d",
            OpKind::FrozenBatchNorm2d { .. } => "frozen_batch_norm2d",
            OpKind::GroupNorm { .. } => "group_norm",
            OpKind::Reshape { .. } => "reshape",
            OpKind::View { .. } => "view",
            OpKind::Permute { .. } => "permute",
            OpKind::Transpose { .. } => "transpose",
            OpKind::Contiguous => "contiguous",
            OpKind::Expand { .. } => "expand",
            OpKind::Squeeze { .. } => "squeeze",
            OpKind::Unsqueeze { .. } => "unsqueeze",
            OpKind::Slice { .. } => "slice",
            OpKind::Cat { .. } => "cat",
            OpKind::Roll { .. } => "roll",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Neg => "neg",
            OpKind::AddScalar(_) => "add_scalar",
            OpKind::MulScalar(_) => "mul_scalar",
            OpKind::DivScalar(_) => "div_scalar",
            OpKind::PowScalar(_) => "pow",
            OpKind::Sqrt => "sqrt",
            OpKind::MeanDim { .. } => "mean",
            OpKind::CausalMask => "causal_mask",
            OpKind::Softmax { .. } => "softmax",
            OpKind::LogSoftmax { .. } => "log_softmax",
            OpKind::MaxPool2d { .. } => "max_pool2d",
            OpKind::AvgPool2d { .. } => "avg_pool2d",
            OpKind::AdaptiveAvgPool2d { .. } => "adaptive_avg_pool2d",
            OpKind::Nms { .. } => "nms",
            OpKind::RoiAlign { .. } => "roi_align",
            OpKind::BoxConvert => "box_convert",
            OpKind::InterpolateNearest { .. } => "interpolate_nearest",
            OpKind::InterpolateBilinear { .. } => "interpolate_bilinear",
            OpKind::Embedding { .. } => "embedding",
            OpKind::AllReduce => "all_reduce",
            OpKind::AllGather { .. } => "all_gather",
            OpKind::Transfer => "transfer",
            OpKind::LinearShard { .. } => "linear_shard",
            OpKind::Argmax { .. } => "argmax",
            OpKind::TopK { .. } => "topk",
            OpKind::Fused(f) => f.kind.name(),
        }
    }

    /// The GEMM / non-GEMM classification of this operator (paper §2.1).
    pub fn class(&self) -> OpClass {
        use NonGemmGroup as G;
        match self {
            OpKind::Linear { .. }
            | OpKind::Conv1dGpt2 { .. }
            | OpKind::Conv2d { .. }
            | OpKind::Matmul
            | OpKind::Bmm
            | OpKind::LinearShard { .. } => OpClass::Gemm,

            OpKind::AllReduce | OpKind::AllGather { .. } | OpKind::Transfer => {
                OpClass::NonGemm(G::Collective)
            }

            OpKind::Relu
            | OpKind::Relu6
            | OpKind::Gelu
            | OpKind::GeluTanh
            | OpKind::NewGelu
            | OpKind::Silu
            | OpKind::Sigmoid
            | OpKind::Hardswish => OpClass::NonGemm(G::Activation),

            OpKind::LayerNorm { .. }
            | OpKind::RmsNorm { .. }
            | OpKind::LlamaRmsNorm { .. }
            | OpKind::BatchNorm2d { .. }
            | OpKind::FrozenBatchNorm2d { .. }
            | OpKind::GroupNorm { .. } => OpClass::NonGemm(G::Normalization),

            OpKind::Reshape { .. }
            | OpKind::View { .. }
            | OpKind::Permute { .. }
            | OpKind::Transpose { .. }
            | OpKind::Contiguous
            | OpKind::Expand { .. }
            | OpKind::Squeeze { .. }
            | OpKind::Unsqueeze { .. }
            | OpKind::Slice { .. }
            | OpKind::Cat { .. }
            | OpKind::Roll { .. } => OpClass::NonGemm(G::Memory),

            OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Neg
            | OpKind::AddScalar(_)
            | OpKind::MulScalar(_)
            | OpKind::DivScalar(_)
            | OpKind::PowScalar(_)
            | OpKind::Sqrt
            | OpKind::MeanDim { .. }
            | OpKind::CausalMask => OpClass::NonGemm(G::Arithmetic),

            OpKind::Softmax { .. } | OpKind::LogSoftmax { .. } => {
                OpClass::NonGemm(G::LogitComputation)
            }

            OpKind::MaxPool2d { .. }
            | OpKind::AvgPool2d { .. }
            | OpKind::AdaptiveAvgPool2d { .. } => OpClass::NonGemm(G::Pooling),

            OpKind::Nms { .. } | OpKind::RoiAlign { .. } | OpKind::BoxConvert => {
                OpClass::NonGemm(G::RoiSelection)
            }

            OpKind::InterpolateNearest { .. } | OpKind::InterpolateBilinear { .. } => {
                OpClass::NonGemm(G::Interpolation)
            }

            OpKind::Embedding { .. } => OpClass::NonGemm(G::Embedding),

            OpKind::Argmax { .. }
            | OpKind::TopK { .. }
            | OpKind::Input
            | OpKind::InputIds { .. } => OpClass::NonGemm(G::Other),

            // A fused node is classified by its dominant stage: the GEMM
            // head for conv/linear/attention fusions, the first stage for a
            // pure element-wise chain. The profiler re-attributes latency
            // to constituent groups separately (see `fused_attribution`).
            OpKind::Fused(f) => match f.kind {
                FusedKind::ElementwiseChain => f
                    .stages
                    .first()
                    .map(|s| s.op.class())
                    .unwrap_or(OpClass::NonGemm(G::Arithmetic)),
                _ => OpClass::Gemm,
            },
        }
    }

    /// Number of learned parameters this operator carries.
    pub fn param_count(&self) -> usize {
        match self {
            OpKind::Linear { in_f, out_f, bias } => in_f * out_f + if *bias { *out_f } else { 0 },
            OpKind::Conv1dGpt2 { in_f, out_f } => in_f * out_f + out_f,
            OpKind::Conv2d {
                in_c,
                out_c,
                kernel,
                groups,
                bias,
                ..
            } => out_c * (in_c / groups.max(&1)) * kernel * kernel + if *bias { *out_c } else { 0 },
            OpKind::LayerNorm { dim } | OpKind::RmsNorm { dim } | OpKind::LlamaRmsNorm { dim } => {
                2 * dim
            }
            OpKind::BatchNorm2d { c } | OpKind::FrozenBatchNorm2d { c } => 4 * c,
            OpKind::GroupNorm { c, .. } => 2 * c,
            OpKind::Embedding { vocab, dim } => vocab * dim,
            OpKind::LinearShard {
                in_f,
                out_f,
                bias,
                part,
                parts,
                row_split,
            } => {
                let (_, len) = shard_span(if *row_split { *in_f } else { *out_f }, *part, *parts);
                let weight = len * if *row_split { *out_f } else { *in_f };
                let bias_len = match (*bias, *row_split) {
                    (false, _) => 0,
                    (true, false) => len, // its slice of the bias
                    (true, true) => {
                        if *part == 0 {
                            *out_f
                        } else {
                            0
                        }
                    } // part 0 owns the bias
                };
                weight + bias_len
            }
            OpKind::Fused(f) => f.stages.iter().map(|s| s.op.param_count()).sum(),
            _ => 0,
        }
    }

    /// Whether the op's output depends on input *data* (Table 2
    /// "Dynamicity").
    pub fn is_dynamic(&self) -> bool {
        if let OpKind::Fused(f) = self {
            return f.stages.iter().any(|s| s.op.is_dynamic());
        }
        matches!(self, OpKind::Nms { .. } | OpKind::RoiAlign { .. })
    }

    /// Whether the op applies a non-linear function (Table 2
    /// "Non Linearity").
    pub fn is_nonlinear(&self) -> bool {
        if let OpKind::Fused(f) = self {
            return f.stages.iter().any(|s| s.op.is_nonlinear());
        }
        matches!(
            self,
            OpKind::Gelu
                | OpKind::GeluTanh
                | OpKind::NewGelu
                | OpKind::Silu
                | OpKind::Sigmoid
                | OpKind::Hardswish
                | OpKind::LayerNorm { .. }
                | OpKind::RmsNorm { .. }
                | OpKind::LlamaRmsNorm { .. }
                | OpKind::BatchNorm2d { .. }
                | OpKind::FrozenBatchNorm2d { .. }
                | OpKind::GroupNorm { .. }
                | OpKind::Softmax { .. }
                | OpKind::LogSoftmax { .. }
                | OpKind::Sqrt
                | OpKind::PowScalar(_)
        )
    }

    /// Whether the op reduces along a dimension (Table 2 "Reduction").
    pub fn is_reduction(&self) -> bool {
        if let OpKind::Fused(f) = self {
            return f.stages.iter().any(|s| s.op.is_reduction());
        }
        matches!(
            self,
            OpKind::LayerNorm { .. }
                | OpKind::RmsNorm { .. }
                | OpKind::LlamaRmsNorm { .. }
                | OpKind::BatchNorm2d { .. }
                | OpKind::FrozenBatchNorm2d { .. }
                | OpKind::GroupNorm { .. }
                | OpKind::Softmax { .. }
                | OpKind::LogSoftmax { .. }
                | OpKind::MeanDim { .. }
                | OpKind::Argmax { .. }
                | OpKind::TopK { .. }
                | OpKind::MaxPool2d { .. }
                | OpKind::AvgPool2d { .. }
                | OpKind::AdaptiveAvgPool2d { .. }
                | OpKind::AllReduce
        )
    }

    /// Whether the op is a multi-device collective or interconnect
    /// transfer inserted by the `ngb-shard` partitioner. Rewrite passes
    /// must never fuse through these nodes: they mark device cut points,
    /// and absorbing work across one would move computation onto a
    /// different device than the placement assigned.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            OpKind::AllReduce | OpKind::AllGather { .. } | OpKind::Transfer
        )
    }

    /// Whether the op is a single primitive device operation rather than a
    /// decomposed chain (Table 2 "Single Operation").
    pub fn is_single_operation(&self) -> bool {
        // Fusion is the point: the composite runs as one kernel.
        if matches!(self, OpKind::Fused(_)) {
            return true;
        }
        !matches!(
            self,
            OpKind::NewGelu
                | OpKind::LlamaRmsNorm { .. }
                | OpKind::FrozenBatchNorm2d { .. }
                | OpKind::Nms { .. }
                | OpKind::RoiAlign { .. }
        ) && !self.is_nonlinear()
            || matches!(self, OpKind::Relu | OpKind::Relu6)
    }

    /// The fusible unary element-wise kernel this op computes, if any.
    ///
    /// This is the contract between the `ngb-opt` rewriter (which fuses
    /// exactly these ops into chains and GEMM epilogues) and the `ngb-exec`
    /// fused kernels (which replay them per element, bit-identically to the
    /// standalone kernels).
    pub fn pointwise(&self) -> Option<ngb_ops::fused::Pointwise> {
        use ngb_ops::fused::Pointwise as P;
        match self {
            OpKind::Relu => Some(P::Relu),
            OpKind::Relu6 => Some(P::Relu6),
            OpKind::Gelu => Some(P::Gelu),
            OpKind::GeluTanh => Some(P::GeluTanh),
            OpKind::NewGelu => Some(P::NewGelu),
            OpKind::Silu => Some(P::Silu),
            OpKind::Sigmoid => Some(P::Sigmoid),
            OpKind::Hardswish => Some(P::Hardswish),
            OpKind::Neg => Some(P::Neg),
            OpKind::AddScalar(s) => Some(P::AddScalar(*s)),
            OpKind::MulScalar(s) => Some(P::MulScalar(*s)),
            OpKind::DivScalar(s) => Some(P::DivScalar(*s)),
            OpKind::PowScalar(e) => Some(P::PowScalar(*e)),
            OpKind::Sqrt => Some(P::Sqrt),
            _ => None,
        }
    }

    /// Whether this op's executor consumes **arbitrary strided views**
    /// bit-identically to a materialized copy — the contract the `ngb-opt`
    /// contiguous-elision pass relies on when it removes a `Contiguous`
    /// node feeding this op.
    ///
    /// The list is conservative: an op is declared capable only when its
    /// `ngb-ops` kernel (or the `ngb_tensor` combinator it delegates to)
    /// walks strides directly. Ops whose kernels still materialize a dense
    /// copy internally (embedding, interpolation, RoI, reduction heads)
    /// stay `false` so eliding a producer never silently relocates the
    /// copy into the consumer.
    pub fn stride_capable(&self) -> bool {
        match self {
            // GEMM family: panels are packed straight from strided
            // operands (gather pack loops in `ngb_ops::gemm`).
            OpKind::Linear { .. }
            | OpKind::Conv1dGpt2 { .. }
            | OpKind::Conv2d { .. }
            | OpKind::Matmul
            | OpKind::Bmm => true,

            // Element-wise: `parallel::unary`/`Tensor::map`/`zip_map`
            // walk logical order over any layout.
            OpKind::Relu
            | OpKind::Relu6
            | OpKind::Gelu
            | OpKind::GeluTanh
            | OpKind::NewGelu
            | OpKind::Silu
            | OpKind::Sigmoid
            | OpKind::Hardswish
            | OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Neg
            | OpKind::AddScalar(_)
            | OpKind::MulScalar(_)
            | OpKind::DivScalar(_)
            | OpKind::PowScalar(_)
            | OpKind::Sqrt
            | OpKind::CausalMask => true,

            // Reductions over lanes via `reduce_dim`/`LaneMap`.
            OpKind::MeanDim { .. } | OpKind::Softmax { .. } | OpKind::LogSoftmax { .. } => true,

            // Normalization: strided-lane kernels (scratch-buffer gather).
            OpKind::LayerNorm { .. }
            | OpKind::RmsNorm { .. }
            | OpKind::LlamaRmsNorm { .. }
            | OpKind::BatchNorm2d { .. }
            | OpKind::FrozenBatchNorm2d { .. }
            | OpKind::GroupNorm { .. } => true,

            // Pooling: direct NCHW stride arithmetic.
            OpKind::MaxPool2d { .. }
            | OpKind::AvgPool2d { .. }
            | OpKind::AdaptiveAvgPool2d { .. } => true,

            // Collectives: `zip_map` accumulation, stride-aware `cat`,
            // and the transfer copy all walk logical order over any
            // layout; the shard GEMM packs panels like the full layer.
            OpKind::AllReduce
            | OpKind::AllGather { .. }
            | OpKind::Transfer
            | OpKind::LinearShard { .. } => true,

            // Layout ops are metadata rewrites or stride-aware copies
            // (`cat`/`roll` read through strides while writing dense
            // output). `Reshape`/`View` are capable only when the incoming
            // strides merge zero-copy — the elision pass checks that
            // statically with `reshape_strides` before trusting this bit.
            OpKind::Reshape { .. }
            | OpKind::View { .. }
            | OpKind::Permute { .. }
            | OpKind::Transpose { .. }
            | OpKind::Contiguous
            | OpKind::Expand { .. }
            | OpKind::Squeeze { .. }
            | OpKind::Unsqueeze { .. }
            | OpKind::Slice { .. }
            | OpKind::Cat { .. }
            | OpKind::Roll { .. } => true,

            // Resamplers and RoIAlign walk the spatial strides of their
            // feature map directly (base + iy*sh + ix*sw taps, like the
            // pooling kernels); box tensors go through `to_vec_f32`,
            // which reads any layout.
            OpKind::InterpolateNearest { .. }
            | OpKind::InterpolateBilinear { .. }
            | OpKind::RoiAlign { .. } => true,

            // Kernels that still materialize internally or gather through
            // integer indices: keep the copy explicit in the graph.
            OpKind::Input
            | OpKind::InputIds { .. }
            | OpKind::Embedding { .. }
            | OpKind::Nms { .. }
            | OpKind::BoxConvert
            | OpKind::Argmax { .. }
            | OpKind::TopK { .. } => false,

            // A fused pipeline consumes its inputs through its head stage.
            OpKind::Fused(f) => f
                .stages
                .first()
                .map(|s| s.op.stride_capable())
                .unwrap_or(false),
        }
    }

    /// Whether the op consumes exactly one tensor operand (Table 2
    /// "Single Operand").
    pub fn is_single_operand(&self) -> bool {
        if let OpKind::Fused(f) = self {
            return f.total_inputs() <= 1;
        }
        !matches!(
            self,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::Div
                | OpKind::Matmul
                | OpKind::Bmm
                | OpKind::Cat { .. }
                | OpKind::Nms { .. }
                | OpKind::RoiAlign { .. }
                | OpKind::AllReduce
                | OpKind::AllGather { .. }
        )
    }
}

/// The `(start, len)` span of shard `part` of `parts` over `total`
/// elements: the first `total % parts` shards take one extra element, so
/// spans tile `0..total` exactly for any divisibility.
pub fn shard_span(total: usize, part: usize, parts: usize) -> (usize, usize) {
    let parts = parts.max(1);
    let part = part.min(parts - 1);
    let base = total / parts;
    let extra = total % parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    (start, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_classification_matches_paper() {
        assert!(OpKind::Linear {
            in_f: 1,
            out_f: 1,
            bias: true
        }
        .class()
        .is_gemm());
        assert!(OpKind::Bmm.class().is_gemm());
        assert!(OpKind::Matmul.class().is_gemm());
        assert!(OpKind::Conv2d {
            in_c: 3,
            out_c: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
            bias: false
        }
        .class()
        .is_gemm());
        assert!(OpKind::Conv1dGpt2 { in_f: 1, out_f: 1 }.class().is_gemm());
    }

    #[test]
    fn non_gemm_groups() {
        assert_eq!(
            OpKind::Softmax { dim: 1 }.class().group(),
            Some(NonGemmGroup::LogitComputation)
        );
        assert_eq!(
            OpKind::NewGelu.class().group(),
            Some(NonGemmGroup::Activation)
        );
        assert_eq!(
            OpKind::FrozenBatchNorm2d { c: 4 }.class().group(),
            Some(NonGemmGroup::Normalization)
        );
        assert_eq!(
            OpKind::Contiguous.class().group(),
            Some(NonGemmGroup::Memory)
        );
        assert_eq!(
            OpKind::Nms {
                iou_threshold: 0.5,
                nominal_keep: 100
            }
            .class()
            .group(),
            Some(NonGemmGroup::RoiSelection)
        );
        assert_eq!(
            OpKind::CausalMask.class().group(),
            Some(NonGemmGroup::Arithmetic)
        );
    }

    #[test]
    fn param_counts() {
        assert_eq!(
            OpKind::Linear {
                in_f: 4,
                out_f: 8,
                bias: true
            }
            .param_count(),
            40
        );
        assert_eq!(
            OpKind::Linear {
                in_f: 4,
                out_f: 8,
                bias: false
            }
            .param_count(),
            32
        );
        assert_eq!(OpKind::LayerNorm { dim: 16 }.param_count(), 32);
        assert_eq!(OpKind::Relu.param_count(), 0);
        assert_eq!(OpKind::Embedding { vocab: 10, dim: 4 }.param_count(), 40);
        assert_eq!(
            OpKind::Conv2d {
                in_c: 4,
                out_c: 8,
                kernel: 3,
                stride: 1,
                padding: 1,
                groups: 1,
                bias: true
            }
            .param_count(),
            4 * 8 * 9 + 8
        );
    }

    #[test]
    fn dynamic_flags() {
        assert!(OpKind::Nms {
            iou_threshold: 0.5,
            nominal_keep: 10
        }
        .is_dynamic());
        assert!(!OpKind::Softmax { dim: 0 }.is_dynamic());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(OpKind::NewGelu.name(), "new_gelu");
        assert_eq!(OpKind::Cat { dim: 0 }.name(), "cat");
    }

    #[test]
    fn fused_metadata_follows_stages() {
        let gemm_epilogue = OpKind::Fused(FusedOp {
            kind: FusedKind::GemmEpilogue,
            stages: vec![
                FusedStage {
                    op: OpKind::Linear {
                        in_f: 4,
                        out_f: 8,
                        bias: true,
                    },
                    seed_id: 3,
                    extra_inputs: 1,
                },
                FusedStage {
                    op: OpKind::Gelu,
                    seed_id: 4,
                    extra_inputs: 0,
                },
            ],
        });
        assert_eq!(gemm_epilogue.name(), "fused_gemm_epilogue");
        assert!(gemm_epilogue.class().is_gemm());
        assert_eq!(gemm_epilogue.param_count(), 40);
        assert!(gemm_epilogue.is_nonlinear());
        assert!(!gemm_epilogue.is_dynamic());
        assert!(gemm_epilogue.is_single_operation());
        assert!(gemm_epilogue.is_single_operand());
        if let OpKind::Fused(f) = &gemm_epilogue {
            assert_eq!(f.total_inputs(), 1);
        }

        let chain = OpKind::Fused(FusedOp {
            kind: FusedKind::ElementwiseChain,
            stages: vec![
                FusedStage {
                    op: OpKind::MulScalar(0.5),
                    seed_id: 0,
                    extra_inputs: 1,
                },
                FusedStage {
                    op: OpKind::Sqrt,
                    seed_id: 1,
                    extra_inputs: 0,
                },
            ],
        });
        assert_eq!(
            chain.class().group(),
            Some(NonGemmGroup::Arithmetic),
            "element-wise chains keep their head's class"
        );
    }

    #[test]
    fn stride_capability_is_conservative() {
        assert!(OpKind::Bmm.stride_capable());
        assert!(OpKind::Gelu.stride_capable());
        assert!(OpKind::Softmax { dim: 3 }.stride_capable());
        assert!(OpKind::LayerNorm { dim: 8 }.stride_capable());
        assert!(OpKind::MaxPool2d {
            kernel: 2,
            stride: 2,
            padding: 0
        }
        .stride_capable());
        // detection kernels walk feature-map strides directly
        assert!(OpKind::InterpolateBilinear { oh: 4, ow: 4 }.stride_capable());
        assert!(OpKind::RoiAlign {
            out: 7,
            spatial_scale: 1.0
        }
        .stride_capable());
        // internal materializers keep their explicit Contiguous producers
        assert!(!OpKind::Embedding { vocab: 8, dim: 4 }.stride_capable());
        assert!(!OpKind::TopK { k: 5 }.stride_capable());
    }

    #[test]
    fn group_labels_cover_all() {
        for g in NonGemmGroup::all() {
            assert!(!g.label().is_empty());
        }
        assert_eq!(NonGemmGroup::all().len(), 11);
    }

    #[test]
    fn shard_span_tiles_total_exactly() {
        for &(total, parts) in &[(7usize, 3usize), (8, 4), (1, 2), (5, 5), (0, 3), (16, 1)] {
            let mut next = 0;
            for part in 0..parts {
                let (start, len) = shard_span(total, part, parts);
                assert_eq!(start, next, "{total}/{parts} part {part}");
                next = start + len;
            }
            assert_eq!(next, total, "spans must cover 0..{total}");
        }
    }

    #[test]
    fn collectives_are_classified_and_guarded() {
        for op in [
            OpKind::AllReduce,
            OpKind::AllGather { dim: 1 },
            OpKind::Transfer,
        ] {
            assert!(op.is_collective(), "{} is a collective", op.name());
            assert_eq!(op.class(), OpClass::NonGemm(NonGemmGroup::Collective));
        }
        let shard = OpKind::LinearShard {
            in_f: 8,
            out_f: 6,
            bias: true,
            part: 0,
            parts: 2,
            row_split: false,
        };
        assert!(!shard.is_collective());
        assert_eq!(shard.class(), OpClass::Gemm);
        // column split: part 0 of 2 over out_f=6 owns 3 rows of [6,8] + 3 bias
        assert_eq!(shard.param_count(), 3 * 8 + 3);
    }
}
