//! # ngb-bench
//!
//! The committed-file table of the NonGEMM Bench reproduction, plus the
//! two Criterion kernel benches (`gemm_kernels`, `nongemm_kernels`).
//! [`rows`] names every file the code determines: each paper figure and
//! table and each extension study under `artifacts/` (DESIGN.md §4 and §8
//! index them), then each model's `baselines/<alias>.json`, rendered by
//! `ngb-regress`. The `artifacts` binary writes the rows, and
//! `tests/artifacts.rs` runs the one drift guard, [`drift`], over both
//! directories. Every artifact profile is analytic over the paper's
//! unoptimized (-O0) full-scale graphs, so no artifact depends on an opt
//! level.
//!
//! Wall-clock measurement of the stack itself (graph execution, serving,
//! decode, sharding) is not here: it lives in the standalone `benchmark/`
//! crate declared by `BENCHMARK.json`.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use nongemm::profiler::profile_analytic;
use nongemm::regress::model_baseline;
use nongemm::{Flow, ModelId, ModelProfile, Platform, Scale};

mod extensions;
mod paper;

/// One rendered artifact: the content of `artifacts/<name>.txt` and, for
/// the group-breakdown figures, of `artifacts/<name>.csv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// The text file.
    pub text: String,
    /// The CSV file, where the artifact has one.
    pub csv: Option<String>,
}

impl From<String> for Artifact {
    fn from(text: String) -> Artifact {
        Artifact { text, csv: None }
    }
}

/// Renders one artifact.
pub type Render = fn() -> Artifact;

/// Every artifact by file name, in the order the README lists them.
const ARTIFACTS: &[(&str, Render)] = &[
    ("fig1", paper::fig1),
    ("fig5", || {
        paper::group_figure(
            "Figure 5: Data Center breakdown across operator groups (eager)",
            paper::cpu_vs_gpu(Platform::data_center()),
            Flow::Eager,
            true,
        )
    }),
    ("fig6", || {
        paper::group_figure(
            "Figure 6: Workstation breakdown across operator groups (eager, batch 1)",
            paper::cpu_vs_gpu(Platform::workstation()),
            Flow::Eager,
            false,
        )
    }),
    ("fig7", paper::fig7),
    ("fig8", || {
        paper::group_figure(
            "Figure 8: ONNX Runtime breakdown, Mobile vs Data Center GPUs (batch 1)",
            [
                ("Mobile (RTX 4060m)", Platform::mobile(), true),
                ("Data Center (A100)", Platform::data_center(), true),
            ],
            Flow::Ort,
            false,
        )
    }),
    ("table2", paper::table2),
    ("table4", paper::table4),
    ("table5", paper::table5),
    ("summary", paper::summary),
    ("microbench", paper::microbench),
    ("ablation", extensions::ablation),
    ("batch_sweep", extensions::batch_sweep),
    ("energy", extensions::energy),
    ("sensitivity", extensions::sensitivity),
    ("attention_fusion", extensions::attention_fusion),
    ("decode", extensions::decode),
];

/// One row of the committed-file table.
#[derive(Debug, Clone, Copy)]
pub enum Row {
    /// `artifacts/<name>.txt`, plus `<name>.csv` where the artifact has one.
    Artifact(&'static str, Render),
    /// `baselines/<alias>.json`.
    Baseline(ModelId),
}

impl Row {
    /// The name the `artifacts` binary selects the row by: the artifact
    /// name or the model alias.
    pub fn name(&self) -> &'static str {
        match *self {
            Row::Artifact(name, _) => name,
            Row::Baseline(id) => id.spec().alias,
        }
    }

    /// Renders the row's files, keyed by path under the repository root.
    ///
    /// # Panics
    ///
    /// Panics when an artifact's sanity assertions fail or a model does
    /// not build.
    pub fn render(&self) -> BTreeMap<String, String> {
        match *self {
            Row::Artifact(name, render) => {
                let artifact = render();
                let csv = artifact
                    .csv
                    .map(|csv| (format!("artifacts/{name}.csv"), csv));
                std::iter::once((format!("artifacts/{name}.txt"), artifact.text))
                    .chain(csv)
                    .collect()
            }
            Row::Baseline(id) => {
                let baseline = model_baseline(id).expect("suite models build");
                BTreeMap::from([(
                    format!("baselines/{}.json", self.name()),
                    baseline.to_json(),
                )])
            }
        }
    }
}

/// The one row the host measures rather than the code determines:
/// `microbench`'s replay column is wall-clock, so no two runs print the
/// same file. The drift guard skips it, and `artifacts` rewrites it only
/// when it is named.
pub const MEASURED: &str = "microbench";

/// The committed-file table: every artifact in README order, then every
/// model's baseline in registry order.
pub fn rows() -> impl Iterator<Item = Row> {
    let artifacts = ARTIFACTS
        .iter()
        .map(|&(name, render)| Row::Artifact(name, render));
    artifacts.chain(ModelId::all().iter().map(|&id| Row::Baseline(id)))
}

/// The repository root, which holds `artifacts/` and `baselines/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repository root")
        .to_path_buf()
}

/// The drift guard: one failure message per file that differs between
/// `committed` and `rendered` (both keyed by path under the repository
/// root), including a file only one side has. A message names the file,
/// its first differing line, committed vs rendered, and for JSON that
/// line's key path:
///
/// ```text
/// baselines/gpt2.json line 166 (snapshots[2].cost.non_gemm_us):
///   committed:         "non_gemm_us": 993.5472192046978,
///   rendered:          "non_gemm_us": 496.7736096023489,
/// ```
pub fn drift(
    committed: &BTreeMap<String, String>,
    rendered: &BTreeMap<String, String>,
) -> Vec<String> {
    let files: BTreeSet<&String> = committed.keys().chain(rendered.keys()).collect();
    files
        .into_iter()
        .filter_map(|file| {
            let old = committed.get(file).map(String::as_str);
            let new = rendered.get(file).map(String::as_str);
            (old != new).then(|| file_drift(file, old, new))
        })
        .collect()
}

/// The message for one file whose committed and rendered content differ;
/// `None` stands for no such file.
fn file_drift(file: &str, committed: Option<&str>, rendered: Option<&str>) -> String {
    fn lines(text: Option<&str>) -> Vec<&str> {
        text.map_or(Vec::new(), |t| t.split_inclusive('\n').collect())
    }
    let (old, new) = (lines(committed), lines(rendered));
    let n = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .unwrap_or(0);
    let show = |text: Option<&str>, lines: &[&str]| match (text, lines.get(n)) {
        (None, _) => "(no file)".to_string(),
        (Some(_), None) => "(end of file)".to_string(),
        (Some(_), Some(line)) => line.trim_end_matches('\n').to_string(),
    };
    let json = rendered.or(committed).filter(|_| file.ends_with(".json"));
    let key = match json.map(|text| json_path(text, n)) {
        Some(key) if !key.is_empty() => format!(" ({key})"),
        _ => String::new(),
    };
    format!(
        "{file} line {}{key}:\n  committed: {}\n  rendered:  {}",
        n + 1,
        show(committed, &old),
        show(rendered, &new)
    )
}

/// The key path of line `n` (0-based) of pretty-printed JSON, such as
/// `snapshots[2].cost.non_gemm_us`: every container open at that line
/// contributes its current key or index.
fn json_path(json: &str, n: usize) -> String {
    enum Open<'a> {
        Object(Option<&'a str>),
        Array(Option<usize>),
    }
    let mut open: Vec<Open> = Vec::new();
    for (i, line) in json.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line == "}" || line == "]" {
            open.pop();
        } else {
            match open.last_mut() {
                Some(Open::Object(key)) => {
                    *key = line
                        .strip_prefix('"')
                        .and_then(|l| l.split_once("\": "))
                        .map(|(k, _)| k);
                }
                Some(Open::Array(index)) => *index = Some(index.map_or(0, |i| i + 1)),
                None => {}
            }
        }
        if i == n {
            break;
        }
        if line.ends_with('{') {
            open.push(Open::Object(None));
        } else if line.ends_with('[') {
            open.push(Open::Array(None));
        }
    }
    let mut path = String::new();
    for step in &open {
        match step {
            Open::Object(Some(key)) if path.is_empty() => path.push_str(key),
            Open::Object(Some(key)) => path += &format!(".{key}"),
            Open::Array(Some(index)) => path += &format!("[{index}]"),
            _ => {}
        }
    }
    path
}

/// Analytic profile of `model`'s full-scale graph at `batch`: the paper's
/// unoptimized graph.
///
/// # Panics
///
/// Panics when the graph does not build or its GEMM + non-GEMM fractions
/// do not sum to 1.
fn profile(
    model: ModelId,
    batch: usize,
    platform: &Platform,
    gpu: bool,
    flow: Flow,
) -> ModelProfile {
    let graph = model.build(batch, Scale::Full).expect("suite models build");
    let p = profile_analytic(&graph, platform, flow, gpu, batch);
    let b = p.breakdown();
    let sum = b.gemm_frac() + b.non_gemm_frac();
    assert!(
        (sum - 1.0).abs() < 1e-6,
        "{model}: fractions sum to {sum}, not 1"
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use nongemm::OptLevel;

    /// The guard's one message when `file` is the only file and differs.
    fn message(file: &str, committed: Option<&str>, rendered: Option<&str>) -> String {
        let map = |text: Option<&str>| -> BTreeMap<String, String> {
            let file = text.map(|text| (file.to_string(), text.to_string()));
            file.into_iter().collect()
        };
        let stale = drift(&map(committed), &map(rendered));
        assert_eq!(stale.len(), 1, "{stale:?}");
        stale[0].clone()
    }

    /// The message the guard owes for `committed` against `rendered`
    /// differing first in a line at `key`.
    fn expected(file: &str, key: &str, committed: &str, rendered: &str) -> String {
        let (old, new): (Vec<&str>, Vec<&str>) =
            (committed.lines().collect(), rendered.lines().collect());
        let n = old
            .iter()
            .zip(&new)
            .position(|(a, b)| a != b)
            .expect("a line differs");
        format!(
            "{file} line {} ({key}):\n  committed: {}\n  rendered:  {}",
            n + 1,
            old[n],
            new[n]
        )
    }

    #[test]
    fn guard_names_file_line_and_key_path_of_edited_baselines() {
        let gpt2 = model_baseline(ModelId::Gpt2).unwrap();
        let resnet = model_baseline(ModelId::ResNet50).unwrap();
        for b in [&gpt2, &resnet] {
            let cell = &b.snapshots[2];
            assert_eq!(
                (cell.scale.as_str(), cell.opt_level),
                ("tiny", OptLevel::O2)
            );
        }

        let mut doubled = gpt2.clone();
        doubled.snapshots[2].cost.non_gemm_us *= 2.0;
        let mut folded = resnet.clone();
        *folded.snapshots[2]
            .opt
            .rewrites
            .get_mut("conv_bn_act")
            .unwrap() += 1;
        let digit = gpt2.to_json().replacen("\"gemm\": ", "\"gemm\": 1", 1);
        for (file, key, committed, rendered) in [
            (
                "baselines/gpt2.json",
                "snapshots[2].cost.non_gemm_us",
                doubled.to_json(),
                gpt2.to_json(),
            ),
            (
                "baselines/resnet50.json",
                "snapshots[2].opt.rewrites.conv_bn_act",
                folded.to_json(),
                resnet.to_json(),
            ),
            (
                "baselines/gpt2.json",
                "snapshots[0].graph.gemm",
                digit,
                gpt2.to_json(),
            ),
        ] {
            assert_eq!(
                message(file, Some(&committed), Some(&rendered)),
                expected(file, key, &committed, &rendered)
            );
        }
    }

    #[test]
    fn guard_names_uncommitted_and_stray_files() {
        let json = model_baseline(ModelId::Gpt2).unwrap().to_json();
        assert_eq!(
            message("baselines/gpt2.json", None, Some(&json)),
            "baselines/gpt2.json line 1:\n  committed: (no file)\n  rendered:  {"
        );
        assert_eq!(
            message("baselines/stray.json", Some(&json), None),
            "baselines/stray.json line 1:\n  committed: {\n  rendered:  (no file)"
        );
        assert_eq!(
            message("artifacts/fig1.txt", Some("a\nb\n"), Some("a\nb")),
            "artifacts/fig1.txt line 2:\n  committed: b\n  rendered:  b"
        );
    }

    #[test]
    fn row_names_are_unique() {
        let names: BTreeSet<&str> = rows().map(|row| row.name()).collect();
        assert_eq!(names.len(), rows().count());
    }
}
