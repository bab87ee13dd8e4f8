#!/usr/bin/env bash
# The root workspace's scripts/ci.sh does not see this crate; this is its
# fmt + clippy + test + smoke gate. Tests run in release: they execute the
# workloads in --quick mode, full-scale mobilenet_v2 included.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- --quick --seed 1
