//! Regenerates every code-determined committed file: `artifacts [NAME…]`
//! renders the named rows of `ngb_bench::rows()`, artifact names and model
//! aliases alike, and writes their files under `artifacts/` and
//! `baselines/`. With no name it writes every row but the host-measured
//! `microbench`, so two runs in a row leave the tree unchanged. An unknown
//! name exits 2 before anything is written.

use std::process::ExitCode;

use ngb_bench::{repo_root, rows, MEASURED};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known: Vec<&str> = rows().map(|row| row.name()).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("error: unknown row '{unknown}'");
        eprintln!("usage: artifacts [NAME…] (known: {})", known.join(", "));
        return ExitCode::from(2);
    }
    let selected = |name: &str| {
        if names.is_empty() {
            name != MEASURED
        } else {
            names.iter().any(|n| n == name)
        }
    };
    let root = repo_root();
    for row in rows().filter(|row| selected(row.name())) {
        for (file, content) in row.render() {
            let path = root.join(file);
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
