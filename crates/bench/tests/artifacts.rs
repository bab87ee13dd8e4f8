//! Drift guard for `artifacts/`: every renderer in `ngb_bench::ARTIFACTS`
//! must print, byte for byte, the committed `<name>.txt` (and `<name>.csv`
//! where it has one), so the figures and the code cannot drift apart.
//! Rendering also runs each artifact's own sanity assertions. Regenerate
//! with `cargo run -p ngb-bench --release --bin artifacts [NAME…]`.

use std::path::Path;

use ngb_bench::{artifacts_dir, ARTIFACTS};

/// `None` when `path` holds exactly `expected`, else what differs.
fn drift(path: &Path, expected: Option<&str>) -> Option<String> {
    let committed = std::fs::read_to_string(path).ok();
    if committed.as_deref() == expected {
        return None;
    }
    let name = path.file_name().expect("a file").to_string_lossy();
    Some(match (committed, expected) {
        (None, _) => format!("{name}: not committed"),
        (Some(_), None) => format!("{name}: committed, but its renderer writes no such file"),
        (Some(committed), Some(expected)) => {
            let (line, (old, new)) = committed
                .lines()
                .chain(std::iter::repeat(""))
                .zip(expected.lines().chain(std::iter::repeat("")))
                .enumerate()
                .find(|(_, (old, new))| old != new)
                .unwrap_or((0, ("(same lines)", "(same lines, other line ends)")));
            format!(
                "{name} line {}:\n  committed: {old}\n  rendered:  {new}",
                line + 1
            )
        }
    })
}

#[test]
fn committed_artifacts_match_their_renderers() {
    let dir = artifacts_dir();
    let mut stale = Vec::new();
    for &(name, render) in ARTIFACTS {
        // microbench's replay column is wall-clock measured on the host,
        // so no two runs print the same file
        if name == "microbench" {
            continue;
        }
        let artifact = render();
        stale.extend(drift(
            &dir.join(format!("{name}.txt")),
            Some(&artifact.text),
        ));
        stale.extend(drift(
            &dir.join(format!("{name}.csv")),
            artifact.csv.as_deref(),
        ));
    }
    assert!(
        stale.is_empty(),
        "artifacts/ differs from its renderers; regenerate with \
         `cargo run -p ngb-bench --release --bin artifacts`:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_committed_file_has_a_renderer() {
    for entry in std::fs::read_dir(artifacts_dir()).expect("artifacts/ exists") {
        let file = entry.expect("readable entry").file_name();
        let file = file.to_string_lossy();
        let stem = file
            .strip_suffix(".txt")
            .or_else(|| file.strip_suffix(".csv"))
            .unwrap_or_else(|| panic!("artifacts/{file}: neither .txt nor .csv"));
        assert!(
            ARTIFACTS.iter().any(|(name, _)| *name == stem),
            "artifacts/{file} has no renderer"
        );
    }
}
