#!/usr/bin/env bash
# Repository CI gate, split into named stages with per-stage timing.
#
#   scripts/ci.sh                  # run every stage
#   CI_STAGES=clippy scripts/ci.sh # rerun a single stage
#   CI_STAGES=test,serve scripts/ci.sh
#
# Stages: fmt, clippy, test, sanitize, serve, contiguous-ratchet,
# one-executor, benchmark. The suite runs once: no setting comes from the
# environment, so engine and opt-level cases are explicit test inputs.
# Unknown stage names in CI_STAGES exit 2 with the valid list, so a typo
# never silently skips every gate.
# The contiguous-ratchet stage pins the declared list of eager
# .contiguous() call sites in ngb-ops kernels: strided consumption is the
# default, and a new materialization site fails CI until it is justified
# and added to the fallback list here. The same stage keeps IndexIter,
# which allocates an index per element, out of every strided loop. It is
# pub(crate), so the compiler already keeps it inside ngb-tensor; there,
# outside test modules, it may be named only in crates/tensor/src/index.rs
# (its definition) and crates/tensor/src/view.rs (Tensor::cat's copy loop).
# Remove view.rs from that list, and the type with it, when cat_copy moves
# to the strided walker after the benchmark revision (ROADMAP items 1(a)
# and 2): a faster cat today trips decode_lm's peak_rss_mb bound through
# the harness's own per-step sample vectors. roll has its own row kernel
# and reads strided input in place, so the body of fn roll in
# crates/ops/src/memory.rs may name neither .contiguous() nor Tensor::cat.
# The batch-norm family walks whole planes with its per-channel constants
# hoisted, and reads strided maps lane by lane: outside its test module,
# crates/ops/src/normalization.rs may neither name elem_offset (the
# per-element strided offset, kept only as the tests' oracle) nor recover
# a channel from a flat element index with "/ plane ... % c".
# The one-executor stage pins the run core as the only node walk: outside
# test modules, the shadow-memory read hook, the contiguous-copy counter
# read and the parameter fetch — the calls every copy of the
# gather/execute/finish loop has to make — must each live in exactly one
# file of the executing crates, and no setting is read from the
# environment: outside test modules env::var("NGB_ appears nowhere under
# crates/. A second loop or any NGB_* reader fails CI until it is
# justified here. The same stage keeps nongemm-cli's FLAGS table the only
# place a flag is named: outside its test module, each "--flag" string
# literal appears at most once in crates/core/src/bin/nongemm-cli.rs, so a
# hand-written match arm beside the table fails CI. It also pins two single
# owners under crates/*/src, outside test modules: the attention scale link
# `DivScalar(_) | OpKind::MulScalar(_)` is matched only in
# crates/graph/src/fusion.rs, the one fusion matcher that ngb-opt,
# ngb-analyze and ngb-runtime share; and the reshape wildcard test
# `== usize::MAX` appears only in crates/tensor/src/shape.rs, whose
# resolve_reshape serves Tensor::reshape/view and graph shape inference.
# The sanitize stage audits that unsafe code stays confined to ngb-ops
# and ngb-exec, lints the verifier crate at -D warnings, and runs the
# 18-model hazard sweep (static verifier + shadow-memory execution) on a
# multi-threaded engine with intra-op parallelism on. Tiny GEMMs fall under
# one intra-op grain and run as a single chunk, so it also runs the static
# verifier alone on the four full-scale graph_full models, whose GEMM and
# convolution partitions really split.
# The serve stage boots the inference service on a tiny model, fires a
# short open-loop loadgen burst, and asserts completions > 0 with zero
# failures and a clean drain; the sweep summary lands in
# target/ci/BENCH_SERVE.json for artifact upload. Its batch > 1 assertion
# rests on the 2000 req/s point, whose arrivals are denser than
# --batch-wait-us: sparser traffic is dispatched at once and need not
# batch. It also greps that no response or request can leave in two
# segments (no separate newline write, TCP_NODELAY on both ends).
# The benchmark stage runs benchmark/check.sh as it stands: the standalone
# benchmark crate is outside this workspace, so no other stage compiles it
# against the ngb-exec surface it builds on (Interpreter, ExecutionTrace).
# First it fails when the workspace no longer matches the read-only
# benchmark/Cargo.lock: a plain `cargo metadata` rewrites the lockfile to
# fit (`--locked` does not catch a dependency that was only removed), and
# `git diff` then sees the change.
# Each run ends with a per-stage timing table, also appended to
# $GITHUB_STEP_SUMMARY when set (the workflow's job summary).
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES="fmt,clippy,test,sanitize,serve,contiguous-ratchet,one-executor,benchmark"
STAGES="${CI_STAGES:-$ALL_STAGES}"

# reject unknown stage names up front: a typo in CI_STAGES must fail
# loudly, not skip every stage and report success
IFS=',' read -ra _requested <<<"$STAGES"
for _stage in "${_requested[@]}"; do
  [[ -z "$_stage" ]] && continue
  if [[ ",$ALL_STAGES," != *",$_stage,"* ]]; then
    echo "error: unknown stage '$_stage' (valid stages: $ALL_STAGES)" >&2
    exit 2
  fi
done

want() { [[ ",$STAGES," == *",$1,"* ]]; }

# per-stage timing collected for the summary table: "name<TAB>status<TAB>secs"
STAGE_TIMINGS=()

run_stage() {
  local name="$1"
  shift
  if ! want "$name"; then
    echo "==> [$name] skipped (CI_STAGES=$STAGES)"
    STAGE_TIMINGS+=("$name	skipped	0")
    return 0
  fi
  echo "==> [$name] $*"
  local start=$SECONDS
  "$@"
  local took=$((SECONDS - start))
  echo "==> [$name] ok (+${took}s)"
  STAGE_TIMINGS+=("$name	ok	$took")
}

print_summary() {
  local row name status secs
  echo
  echo "stage timing summary:"
  printf '  %-20s %-8s %s\n' "stage" "status" "seconds"
  for row in "${STAGE_TIMINGS[@]}"; do
    IFS=$'\t' read -r name status secs <<<"$row"
    printf '  %-20s %-8s %s\n' "$name" "$status" "$secs"
  done
  if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
      echo "### CI stage timings"
      echo
      echo "| stage | status | seconds |"
      echo "| --- | --- | --- |"
      for row in "${STAGE_TIMINGS[@]}"; do
        IFS=$'\t' read -r name status secs <<<"$row"
        echo "| $name | $status | $secs |"
      done
    } >>"$GITHUB_STEP_SUMMARY"
  fi
}

sanitize_gate() {
  # unsafe code is allowed only in the two crates whose kernels need it;
  # every other crate root must carry #![forbid(unsafe_code)]
  local crate root
  for root in crates/*/src/lib.rs; do
    crate=$(basename "$(dirname "$(dirname "$root")")")
    case "$crate" in
      ops|exec) continue ;;
    esac
    grep -q '#!\[forbid(unsafe_code)\]' "$root" \
      || { echo "error: $root is missing #![forbid(unsafe_code)]"; return 1; }
  done
  if grep -rln 'unsafe ' crates/*/src --include='*.rs' \
      | grep -v -e '^crates/ops/' -e '^crates/exec/'; then
    echo "error: unsafe code outside ngb-ops/ngb-exec (see files above)"
    return 1
  fi
  cargo clippy -q -p ngb-sanitize --all-targets -- -D warnings
  cargo build --release -q --bin nongemm-cli
  ./target/release/nongemm-cli sanitize --tiny --threads 4 --intra-op on
  ./target/release/nongemm-cli sanitize --static-only --model mobilenet_v2 \
    --model resnet50 --model sw-t --model segformer
}

serve_gate() {
  # one-segment wire rule: the newline travels inside the line's buffer and
  # both ends of a connection turn Nagle off
  if grep -rn 'write_all(b"\\n")' crates/serve/src; then
    echo "error: a newline written on its own makes a second segment (see files above)"
    return 1
  fi
  local f
  for f in server.rs client.rs; do
    grep -q 'set_nodelay(true)' "crates/serve/src/$f" \
      || { echo "error: crates/serve/src/$f does not set TCP_NODELAY"; return 1; }
  done
  mkdir -p target/ci
  cargo build --release -q --bin nongemm-cli --bin loadgen
  local log=target/ci/serve.log rc=0
  # ephemeral port: the server prints "ngb-serve listening on host:port"
  # on stdout, scraped below so parallel CI jobs never collide
  ./target/release/nongemm-cli serve --tiny --max-batch 8 \
    --batch-wait-us 4000 >"$log" 2>&1 &
  local server_pid=$!
  local addr=""
  for _ in $(seq 50); do
    addr=$(sed -n 's/^ngb-serve listening on //p' "$log" | head -n1)
    [[ -n "$addr" ]] && break
    kill -0 "$server_pid" 2>/dev/null \
      || { echo "error: server died at startup"; cat "$log"; return 1; }
    sleep 0.1
  done
  [[ -n "$addr" ]] || { echo "error: server never reported an address"; cat "$log"; return 1; }
  ./target/release/loadgen --addr "$addr" --rate 50 --rate 200 --rate 2000 \
    --duration-ms 600 --model bert --seed 7 \
    --summary target/ci/BENCH_SERVE.json --shutdown --fail-on-error || rc=$?
  # the server must drain and exit 0 once loadgen sends shutdown
  wait "$server_pid" || { echo "error: server exited non-zero"; cat "$log"; return 1; }
  cat "$log"
  [[ $rc -eq 0 ]] || { echo "error: loadgen failed (rc=$rc)"; return 1; }
  # batching must actually engage: at 2000 req/s the mean gap (0.5 ms) is
  # far under the 4 ms ceiling, so requests are held for companions
  grep -q '"max_batch": *\([2-9]\|[0-9][0-9]\)' target/ci/BENCH_SERVE.json \
    || { echo "error: no dynamic batch larger than 1 was formed"; return 1; }
}

# Declared eager-materialization fallbacks in ngb-ops kernel code
# (file:reason). Everything else must consume strided operands in place;
# shrinking this list is progress, growing it needs a review.
CONTIGUOUS_ALLOWLIST=(
  "src/embedding.rs:row gather needs a dense table"
  "src/gemm.rs:conv2d weight repack fallback"
  "src/memory.rs:the contiguous op is defined as a copy"
)

contiguous_ratchet() {
  local hits violations=0 allowed f
  # test modules may materialize freely (they build reference copies)
  hits=$(grep -rn '\.contiguous()' crates/ops/src --include='*.rs' \
    | grep -v -e '#\[cfg(test)\]' -e 'mod tests' || true)
  while IFS= read -r line; do
    [[ -z "$line" ]] && continue
    f=${line#crates/ops/}; f=${f%%:*}:${line#*:}; f=${f%%:*}  # src/<file>.rs
    # call sites inside #[cfg(test)] blocks: approximate by line number
    # being past the file's "mod tests" marker, if it has one
    local test_start
    test_start=$(grep -n 'mod tests' "crates/ops/$f" | head -n1 | cut -d: -f1)
    local lineno; lineno=$(echo "$line" | cut -d: -f2)
    if [[ -n "$test_start" && "$lineno" -gt "$test_start" ]]; then
      continue
    fi
    allowed=""
    for entry in "${CONTIGUOUS_ALLOWLIST[@]}"; do
      [[ "$f" == "${entry%%:*}" ]] && allowed=1 && break
    done
    if [[ -z "$allowed" ]]; then
      echo "error: new eager .contiguous() outside the fallback list: $line"
      violations=1
    fi
  done <<<"$hits"
  local stray
  stray=$(non_test_hits 'IndexIter' crates/tensor/src | cut -f1 | sort -u \
    | grep -vx -e crates/tensor/src/index.rs -e crates/tensor/src/view.rs || true)
  if [[ -n "$stray" ]]; then
    echo "error: IndexIter outside its definition and Tensor::cat's copy loop:"
    echo "$stray"
    violations=1
  fi
  local per_element
  per_element=$(non_test_hits 'elem_offset|/ *plane(\.max\(1\))?\)? *% *c\b' \
    crates/ops/src/normalization.rs)
  if [[ -n "$per_element" ]]; then
    echo "error: per-element index arithmetic is back in crates/ops/src/normalization.rs:"
    echo "$per_element"
    violations=1
  fi
  local roll_body
  roll_body=$(awk '/^pub fn roll\(/ { on = 1 } on { print } on && /^}/ { exit }' \
    crates/ops/src/memory.rs)
  if [[ -z "$roll_body" ]]; then
    echo "error: fn roll not found in crates/ops/src/memory.rs"
    violations=1
  elif grep -nE '\.contiguous\(\)|Tensor::cat' <<<"$roll_body"; then
    echo "error: fn roll materializes or concatenates instead of copying rows"
    violations=1
  fi
  [[ $violations -eq 0 ]] || return 1
  echo "contiguous ratchet: all eager call sites are declared fallbacks, IndexIter only in cat, roll copies rows, norms walk planes"
}

# Non-test matches of the extended regex PATTERN in the *.rs files under
# the remaining arguments, one "file<TAB>match" line each. Test modules are
# approximated, as above, by everything past a file's first "mod tests"
# marker.
non_test_hits() {
  local pattern="$1" f lineno hit test_start
  shift
  { grep -rnoHE --include='*.rs' -e "$pattern" "$@" || true; } \
    | while IFS=: read -r f lineno hit; do
        test_start=$(grep -n 'mod tests' "$f" | head -n1 | cut -d: -f1 || true)
        [[ -n "$test_start" && "$lineno" -gt "$test_start" ]] && continue
        printf '%s\t%s\n' "$f" "$hit"
      done
}

# The readers of NGB_* variables, as "file<TAB>variable" lines in sort
# order: none. A reader is added here, with its reason in the header.
ENV_READERS=""

one_executor() {
  local pattern files readers violations=0
  for pattern in '\.begin_read\(' 'take_bytes_materialized\(' '\.fetch\('; do
    files=$(non_test_hits "$pattern" crates/{exec,shard,runtime,serve,profiler}/src \
      | cut -f1 | sort -u)
    if [[ $(grep -c . <<<"$files" || true) -ne 1 ]]; then
      echo "error: call sites of '$pattern' must live in exactly one file, found:"
      echo "${files:-  (none)}"
      violations=1
    fi
  done
  readers=$(non_test_hits 'env::var(_os)?\("NGB_[A-Z_]+"' crates \
    | sed -E 's/\t.*"(NGB_[A-Z_]+)"$/\t\1/' | LC_ALL=C sort)
  if [[ "$readers" != "$ENV_READERS" ]]; then
    echo "error: the readers of NGB_* variables differ from the declared list (< declared, > found):"
    diff <(echo "$ENV_READERS") <(echo "$readers") || true
    violations=1
  fi
  local repeated
  repeated=$(non_test_hits '"--[a-z][a-z0-9-]*"' crates/core/src/bin/nongemm-cli.rs \
    | cut -f2 | sort | uniq -d)
  if [[ -n "$repeated" ]]; then
    echo "error: flags named outside nongemm-cli's FLAGS table:"
    echo "$repeated"
    violations=1
  fi
  local owner rule
  for rule in 'DivScalar\(_\) \| OpKind::MulScalar\(_\)	crates/graph/src/fusion.rs' \
    '== usize::MAX	crates/tensor/src/shape.rs'; do
    IFS=$'\t' read -r pattern owner <<<"$rule"
    files=$(non_test_hits "$pattern" crates/*/src | cut -f1 | sort -u)
    if [[ "$files" != "$owner" ]]; then
      echo "error: '$pattern' must appear only in $owner, found:"
      echo "${files:-  (none)}"
      violations=1
    fi
  done
  [[ $violations -eq 0 ]] || return 1
  echo "one executor: one gather/execute/finish core, no NGB_* reader, one flag table, one fusion matcher, one reshape resolver"
}

benchmark_gate() {
  cargo metadata --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null
  git diff --exit-code -- benchmark/Cargo.lock \
    || { echo "error: the workspace no longer matches the read-only benchmark/Cargo.lock; only the benchmark revision (ROADMAP item 1) may refresh it"; return 1; }
  benchmark/check.sh
}

run_stage fmt           cargo fmt --all -- --check
run_stage clippy        cargo clippy --all-targets -- -D warnings
run_stage test          cargo test -q
run_stage sanitize      sanitize_gate
run_stage serve         serve_gate
run_stage contiguous-ratchet contiguous_ratchet
run_stage one-executor  one_executor
run_stage benchmark     benchmark_gate

print_summary
echo "==> ok (stages: $STAGES, total ${SECONDS}s)"
