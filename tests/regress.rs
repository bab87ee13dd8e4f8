//! End-to-end tests of the `ngb-regress` gate: baseline round-trips,
//! perturbation detection, schema versioning, and the committed
//! baselines themselves.

use std::path::PathBuf;

use nongemm::regress::{
    baseline_path, check, compare_model, load_baseline, model_baseline, update, write_baseline,
    GateConfig, RegressError,
};
use nongemm::ModelId;

fn tmpdir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "ngb-regress-it-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn cfg(dir: PathBuf, models: Vec<ModelId>) -> GateConfig {
    GateConfig { dir, models }
}

#[test]
fn write_read_compare_round_trip_is_clean() {
    let dir = tmpdir("roundtrip");
    let baseline = model_baseline(ModelId::VitBase16).unwrap();
    let path = baseline_path(&dir, &baseline.model);
    write_baseline(&path, &baseline).unwrap();
    let reread = load_baseline(&path).unwrap();
    assert_eq!(baseline, reread);
    assert!(compare_model(&baseline, &reread).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perturbed_baseline_file_fails_check_naming_model_and_metric() {
    let dir = tmpdir("perturb");
    let gate = cfg(dir.clone(), vec![ModelId::Gpt2]);
    update(&gate).unwrap();

    // sabotage one committed cost-model entry on disk, as a bad PR would
    let path = baseline_path(&dir, "gpt2");
    let mut baseline = load_baseline(&path).unwrap();
    let cell = baseline.snapshots[2].key();
    baseline.snapshots[2].cost.non_gemm_us *= 2.0;
    write_baseline(&path, &baseline).unwrap();

    let outcome = check(&gate).unwrap();
    assert!(!outcome.is_clean());
    assert_eq!(outcome.failed_models(), vec!["gpt2"]);
    let diff = &outcome.diffs[0];
    assert_eq!(diff.metric, "cost.non_gemm_us");
    assert_eq!(diff.context, cell);
    let text = outcome.to_text();
    assert!(text.contains("FAIL gpt2"), "{text}");
    assert!(text.contains("cost.non_gemm_us"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perturbed_optimizer_counter_fails_check() {
    let dir = tmpdir("opt");
    let gate = cfg(dir.clone(), vec![ModelId::ResNet50]);
    update(&gate).unwrap();

    let path = baseline_path(&dir, "resnet50");
    let mut baseline = load_baseline(&path).unwrap();
    // the O2 snapshot records conv+bn folds; pretend one more happened
    let o2 = baseline
        .snapshots
        .iter_mut()
        .find(|s| s.key() == "tiny/O2")
        .expect("tiny/O2 cell exists");
    *o2.opt.rewrites.get_mut("conv_bn_act").unwrap() += 1;
    write_baseline(&path, &baseline).unwrap();

    let outcome = check(&gate).unwrap();
    assert!(!outcome.is_clean());
    assert_eq!(outcome.diffs.len(), 1);
    assert_eq!(outcome.diffs[0].metric, "opt.rewrites.conv_bn_act");
    assert_eq!(outcome.diffs[0].context, "tiny/O2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_schema_baseline_is_an_update_hint_not_a_panic() {
    let dir = tmpdir("schema");
    let path = baseline_path(&dir, "bert");
    // a v0 file from some ancient PR: parses as JSON, wrong schema
    std::fs::write(
        &path,
        "{\"schema\": 0, \"model\": \"bert\", \"snapshots\": []}",
    )
    .unwrap();
    let err = load_baseline(&path).unwrap_err();
    assert!(matches!(err, RegressError::Schema { found: 0, .. }));
    assert!(err.to_string().contains("--update"));

    // through the gate the same file fails the check instead of aborting
    let gate = cfg(dir.clone(), vec![ModelId::Bert]);
    let outcome = check(&gate).unwrap();
    assert!(!outcome.is_clean());
    assert_eq!(outcome.diffs[0].context, "baseline");
    assert!(outcome.diffs[0].baseline.contains("schema v0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_baselines_match_head() {
    // The acceptance gate itself: every file under baselines/ belongs to
    // a model and equals, byte for byte, what `nongemm-cli ci --update`
    // writes for the current tree. Skips cleanly when the test runs
    // outside the repo checkout (e.g. a published crate).
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
    if !committed.is_dir() {
        eprintln!(
            "skipping: no committed baselines at {}",
            committed.display()
        );
        return;
    }
    let files: Vec<String> = ModelId::all()
        .iter()
        .map(|m| format!("{}.json", m.spec().alias))
        .collect();
    for entry in std::fs::read_dir(&committed).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        assert!(
            files.contains(&name),
            "baselines/{name} belongs to no ModelId; delete it"
        );
    }

    // regenerate over a copy of the committed files, so the update
    // outcome names every metric that moved and each model builds once
    let dir = tmpdir("head");
    for file in &files {
        if committed.join(file).is_file() {
            std::fs::copy(committed.join(file), dir.join(file)).unwrap();
        }
    }
    let outcome = update(&cfg(dir.clone(), ModelId::all().to_vec())).unwrap();
    assert_eq!(outcome.written.len(), 18);
    for file in &files {
        let regenerated = std::fs::read(dir.join(file)).unwrap();
        assert!(
            std::fs::read(committed.join(file)).ok() == Some(regenerated),
            "baselines/{file} differs from its regeneration; run \
             `nongemm-cli ci --update`\n{}",
            outcome.to_text()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
