//! The NonGEMM Bench model registry (paper Figure 4, Table 1), including
//! user-pluggable custom models ("Plug Model & Profile", Table 5).

use ngb_graph::Graph;
use ngb_tensor::TensorError;

use crate::nlp::{bert::BertConfig, gpt2::Gpt2Config, llama::LlamaConfig};
use crate::vision::detection::{DetrConfig, RcnnConfig};
use crate::vision::mobilenet::MobileNetV2Config;
use crate::vision::resnet::ResNet50Config;
use crate::vision::segmentation::{MaskformerConfig, SegformerConfig};
use crate::vision::swin::SwinConfig;
use crate::vision::vit::VitConfig;

/// The four task domains of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Task {
    /// ImageNet-style classification.
    ImageClassification,
    /// COCO-style detection.
    ObjectDetection,
    /// COCO/ADE-style segmentation.
    Segmentation,
    /// Causal or masked language modeling.
    LanguageModel,
}

impl Task {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Task::ImageClassification => "Image Classification",
            Task::ObjectDetection => "Object Detection",
            Task::Segmentation => "Segmentation",
            Task::LanguageModel => "Language Models",
        }
    }
}

impl std::fmt::Display for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which configuration scale to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's published configuration (graphs are analyzed
    /// analytically; the largest also execute, just slowly).
    #[default]
    Full,
    /// Structurally identical toy configuration that executes in
    /// milliseconds on the host.
    Tiny,
}

impl Scale {
    /// Stable lowercase name (`"full"` / `"tiny"`), used as a baseline
    /// key by `ngb-regress` — changing these strings invalidates every
    /// committed baseline file.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Inverse of [`Scale::name`].
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The 18 models of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum ModelId {
    ResNet50,
    MobileNetV2,
    VitBase16,
    VitLarge16,
    VitHuge14,
    SwinTiny,
    SwinSmall,
    SwinBase,
    FasterRcnn,
    MaskRcnn,
    Detr,
    Maskformer,
    Segformer,
    Gpt2,
    Gpt2Large,
    Gpt2Xl,
    Llama2_7b,
    Bert,
}

/// Static description of a registry entry (one row of Table 1).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Model id.
    pub id: ModelId,
    /// Short alias used in figures (Table 4's "Model Alias" column).
    pub alias: &'static str,
    /// Task domain.
    pub task: Task,
    /// Parameter count reported in Table 1 (0 when the paper leaves it
    /// blank, as for Llama-2-7B's "7B").
    pub params_reported: usize,
    /// Dataset the paper evaluates on.
    pub dataset: &'static str,
}

impl ModelId {
    /// All 18 models in Table 1 order.
    pub fn all() -> &'static [ModelId] {
        use ModelId::*;
        &[
            ResNet50,
            MobileNetV2,
            VitLarge16,
            VitHuge14,
            SwinTiny,
            SwinSmall,
            SwinBase,
            VitBase16,
            FasterRcnn,
            MaskRcnn,
            Detr,
            Maskformer,
            Segformer,
            Gpt2,
            Gpt2Large,
            Gpt2Xl,
            Llama2_7b,
            Bert,
        ]
    }

    /// The model whose [`ModelSpec::alias`] is `alias`.
    pub fn parse(alias: &str) -> Option<ModelId> {
        ModelId::all()
            .iter()
            .copied()
            .find(|m| m.spec().alias == alias)
    }

    /// This model's Table 1 row.
    pub fn spec(self) -> ModelSpec {
        use ModelId::*;
        use Task::*;
        let (alias, task, params, dataset) = match self {
            ResNet50 => ("resnet50", ImageClassification, 25_600_000, "ImageNet"),
            MobileNetV2 => ("mobilenet_v2", ImageClassification, 3_400_000, "ImageNet"),
            VitBase16 => ("vit-b", ImageClassification, 86_000_000, "ImageNet"),
            VitLarge16 => ("vit-l", ImageClassification, 307_000_000, "ImageNet"),
            VitHuge14 => ("vit-h", ImageClassification, 632_000_000, "ImageNet"),
            SwinTiny => ("sw-t", ImageClassification, 29_000_000, "ImageNet"),
            SwinSmall => ("sw-s", ImageClassification, 50_000_000, "ImageNet"),
            SwinBase => ("sw-b", ImageClassification, 88_000_000, "ImageNet"),
            FasterRcnn => ("frcnn", ObjectDetection, 42_000_000, "COCO"),
            MaskRcnn => ("mrcnn", ObjectDetection, 44_000_000, "COCO"),
            Detr => ("detr", ObjectDetection, 41_000_000, "COCO"),
            Maskformer => ("maskformer", Segmentation, 102_000_000, "COCO"),
            Segformer => ("segformer", Segmentation, 3_700_000, "COCO"),
            Gpt2 => ("gpt2", LanguageModel, 117_000_000, "wikitext"),
            Gpt2Large => ("gpt2-l", LanguageModel, 762_000_000, "wikitext"),
            Gpt2Xl => ("gpt2-xl", LanguageModel, 1_500_000_000, "wikitext"),
            Llama2_7b => ("llama2", LanguageModel, 7_000_000_000, "wikitext"),
            Bert => ("bert", LanguageModel, 110_000_000, "wikitext"),
        };
        ModelSpec {
            id: self,
            alias,
            task,
            params_reported: params,
            dataset,
        }
    }

    /// Builds the operator graph for `batch` inputs at `scale`.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference errors (none occur for the shipped
    /// configurations).
    pub fn build(self, batch: usize, scale: Scale) -> Result<Graph, TensorError> {
        use ModelId::*;
        match (self, scale) {
            (ResNet50, Scale::Full) => ResNet50Config::full().build(batch),
            (ResNet50, Scale::Tiny) => ResNet50Config::tiny().build(batch),
            (MobileNetV2, Scale::Full) => MobileNetV2Config::full().build(batch),
            (MobileNetV2, Scale::Tiny) => MobileNetV2Config::tiny().build(batch),
            (VitBase16, Scale::Full) => VitConfig::base16().build(batch),
            (VitLarge16, Scale::Full) => VitConfig::large16().build(batch),
            (VitHuge14, Scale::Full) => VitConfig::huge14().build(batch),
            (VitBase16 | VitLarge16 | VitHuge14, Scale::Tiny) => VitConfig::tiny().build(batch),
            (SwinTiny, Scale::Full) => SwinConfig::tiny_224().build(batch),
            (SwinSmall, Scale::Full) => SwinConfig::small_224().build(batch),
            (SwinBase, Scale::Full) => SwinConfig::base_224().build(batch),
            (SwinTiny | SwinSmall | SwinBase, Scale::Tiny) => SwinConfig::toy().build(batch),
            (FasterRcnn, Scale::Full) => RcnnConfig::faster_rcnn().build(batch),
            (FasterRcnn, Scale::Tiny) => RcnnConfig::toy(false).build(batch),
            (MaskRcnn, Scale::Full) => RcnnConfig::mask_rcnn().build(batch),
            (MaskRcnn, Scale::Tiny) => RcnnConfig::toy(true).build(batch),
            (Detr, Scale::Full) => DetrConfig::full().build(batch),
            (Detr, Scale::Tiny) => DetrConfig::toy().build(batch),
            (Maskformer, Scale::Full) => MaskformerConfig::full().build(batch),
            (Maskformer, Scale::Tiny) => MaskformerConfig::toy().build(batch),
            (Segformer, Scale::Full) => SegformerConfig::b0().build(batch),
            (Segformer, Scale::Tiny) => SegformerConfig::toy().build(batch),
            (Gpt2, Scale::Full) => Gpt2Config::base().build(batch),
            (Gpt2Large, Scale::Full) => Gpt2Config::large().build(batch),
            (Gpt2Xl, Scale::Full) => Gpt2Config::xl().build(batch),
            (Gpt2 | Gpt2Large | Gpt2Xl, Scale::Tiny) => Gpt2Config::toy().build(batch),
            (Llama2_7b, Scale::Full) => LlamaConfig::llama2_7b().build(batch),
            (Llama2_7b, Scale::Tiny) => LlamaConfig::toy().build(batch),
            (Bert, Scale::Full) => BertConfig::base().build(batch),
            (Bert, Scale::Tiny) => BertConfig::toy().build(batch),
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().alias)
    }
}

/// Graph-factory signature for custom registry entries.
pub type GraphFactory = Box<dyn Fn(usize) -> Result<Graph, TensorError> + Send + Sync>;

/// A registry holding the 18 preset models plus any user-plugged custom
/// models — the "Plug Model & Profile" feature of Table 5.
///
/// # Examples
///
/// ```
/// use ngb_models::ModelRegistry;
/// use ngb_graph::{GraphBuilder, OpKind};
///
/// let mut reg = ModelRegistry::with_presets();
/// reg.register("my_mlp", |batch| {
///     let mut b = GraphBuilder::new("my_mlp");
///     let x = b.input(&[batch, 8]);
///     b.push(OpKind::Linear { in_f: 8, out_f: 2, bias: true }, &[x], "fc")?;
///     Ok(b.finish())
/// });
/// assert!(reg.names().iter().any(|n| n == "my_mlp"));
/// let g = reg.build("my_mlp", 4).unwrap();
/// assert_eq!(g.nodes.last().unwrap().out_shape, vec![4, 2]);
/// ```
#[derive(Default)]
pub struct ModelRegistry {
    presets: Vec<ModelId>,
    custom: Vec<(String, GraphFactory)>,
    scale: Scale,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("presets", &self.presets)
            .field(
                "custom",
                &self.custom.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("scale", &self.scale)
            .finish()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// A registry preloaded with all 18 Table 1 models at full scale.
    pub fn with_presets() -> ModelRegistry {
        ModelRegistry {
            presets: ModelId::all().to_vec(),
            custom: Vec::new(),
            scale: Scale::Full,
        }
    }

    /// Sets the scale used for preset builds (builder style).
    pub fn scale(mut self, scale: Scale) -> ModelRegistry {
        self.scale = scale;
        self
    }

    /// Plugs a custom model factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(usize) -> Result<Graph, TensorError> + Send + Sync + 'static,
    ) -> &mut Self {
        self.custom.push((name.into(), Box::new(factory)));
        self
    }

    /// All registered names (preset aliases + custom names).
    pub fn names(&self) -> Vec<String> {
        self.presets
            .iter()
            .map(|m| m.spec().alias.to_string())
            .chain(self.custom.iter().map(|(n, _)| n.clone()))
            .collect()
    }

    /// Builds the named model's graph for `batch` inputs.
    ///
    /// # Errors
    ///
    /// Fails when `name` is unknown or the factory fails.
    pub fn build(&self, name: &str, batch: usize) -> Result<Graph, TensorError> {
        if let Some(m) = self.presets.iter().find(|m| m.spec().alias == name) {
            return m.build(batch, self.scale);
        }
        if let Some((_, f)) = self.custom.iter().find(|(n, _)| n == name) {
            return f(batch);
        }
        Err(TensorError::InvalidArgument(format!(
            "unknown model '{name}'"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_models() {
        assert_eq!(ModelId::all().len(), 18);
        let mut seen = std::collections::BTreeSet::new();
        for m in ModelId::all() {
            assert!(
                seen.insert(m.spec().alias),
                "duplicate alias {}",
                m.spec().alias
            );
        }
    }

    #[test]
    fn alias_lookup_round_trips() {
        for &m in ModelId::all() {
            assert_eq!(ModelId::parse(m.spec().alias), Some(m));
        }
        assert_eq!(ModelId::parse("nonesuch"), None);
    }

    #[test]
    fn every_model_builds_tiny_and_validates() {
        for &m in ModelId::all() {
            let g = m
                .build(1, Scale::Tiny)
                .unwrap_or_else(|e| panic!("{m}: {e}"));
            g.validate().unwrap_or_else(|e| panic!("{m}: {e}"));
            assert!(g.len() > 5, "{m} suspiciously small");
        }
    }

    #[test]
    fn task_partitions() {
        use Task::*;
        let by_task = |t: Task| ModelId::all().iter().filter(|m| m.spec().task == t).count();
        assert_eq!(by_task(ImageClassification), 8);
        assert_eq!(by_task(ObjectDetection), 3);
        assert_eq!(by_task(Segmentation), 2);
        assert_eq!(by_task(LanguageModel), 5);
    }

    #[test]
    fn registry_builds_presets_and_rejects_unknown() {
        let reg = ModelRegistry::with_presets().scale(Scale::Tiny);
        let g = reg.build("gpt2", 1).unwrap();
        assert!(g.len() > 10);
        assert!(reg.build("nope", 1).is_err());
        assert_eq!(reg.names().len(), 18);
    }
}
