//! Regenerates `artifacts/`: `artifacts [NAME…]` renders the named
//! artifacts (every one when no name is given) and writes
//! `artifacts/<name>.txt`, plus `<name>.csv` where the artifact has one.
//! An unknown name exits 2 before anything is written.

use std::process::ExitCode;

use ngb_bench::{artifacts_dir, ARTIFACTS};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("error: unknown artifact '{unknown}'");
        eprintln!("usage: artifacts [NAME…] (known: {})", known.join(", "));
        return ExitCode::from(2);
    }
    let dir = artifacts_dir();
    for (name, render) in ARTIFACTS {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        let artifact = render();
        let csv = artifact.csv.map(|csv| ("csv", csv));
        for (ext, content) in std::iter::once(("txt", artifact.text)).chain(csv) {
            let path = dir.join(format!("{name}.{ext}"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
