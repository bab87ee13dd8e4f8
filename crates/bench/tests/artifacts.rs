//! The drift guard over every code-determined file: each row of
//! `ngb_bench::rows()` must render, byte for byte, its committed files
//! under `artifacts/` and `baselines/`, and every file there must belong
//! to a row. Rendering also runs each artifact's own sanity assertions.
//! Regenerate with `cargo run -p ngb-bench --release --bin artifacts [NAME…]`.

use std::collections::BTreeMap;

use ngb_bench::{drift, repo_root, rows, MEASURED};

/// Every file the rows render, by repo-relative name, except the measured
/// table, whose numbers depend on the machine.
fn rendered() -> BTreeMap<String, String> {
    rows()
        .filter(|row| row.name() != MEASURED)
        .flat_map(|row| row.render())
        .collect()
}

/// Every committed file under `artifacts/` and `baselines/`, by
/// repo-relative name, except the measured table.
fn committed() -> BTreeMap<String, String> {
    let mut committed = BTreeMap::new();
    for dir in ["artifacts", "baselines"] {
        for entry in std::fs::read_dir(repo_root().join(dir)).expect("the directory exists") {
            let path = entry.expect("a readable entry").path();
            let file = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
            if file != format!("artifacts/{MEASURED}.txt") {
                committed.insert(file, std::fs::read_to_string(&path).expect("a text file"));
            }
        }
    }
    committed
}

#[test]
fn committed_artifacts_match_their_renderers() {
    let rendered = rendered();
    let committed: BTreeMap<String, String> = committed()
        .into_iter()
        .filter(|(file, _)| rendered.contains_key(file))
        .collect();
    let stale = drift(&committed, &rendered);
    assert!(
        stale.is_empty(),
        "committed files differ from their rows; regenerate with \
         `cargo run -p ngb-bench --release --bin artifacts`:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_committed_file_has_a_renderer() {
    let rendered = rendered();
    let stray: BTreeMap<String, String> = committed()
        .into_iter()
        .filter(|(file, _)| !rendered.contains_key(file))
        .collect();
    let stray = drift(&stray, &BTreeMap::new());
    assert!(
        stray.is_empty(),
        "committed files that no row renders; delete them or add a row:\n{}",
        stray.join("\n")
    );
}
