//! CLI smoke tests: help coverage, exit-code conventions, and each
//! subcommand driven through the real binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nongemm-cli"))
}

#[test]
fn help_exits_zero_and_documents_every_flag() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["run", "--help"],
        &["serve", "--help"],
        &["generate", "--help"],
    ] {
        let out = cli().args(args).output().expect("spawn cli");
        assert!(
            out.status.success(),
            "{args:?} must exit 0, got {:?}",
            out.status.code()
        );
        let text = String::from_utf8(out.stdout).unwrap();
        // every subcommand and every flag added since PR 1 must be listed
        for needle in [
            "run",
            "generate",
            "verify",
            "sanitize",
            "serve",
            "--model",
            "--platform",
            "--flow",
            "--batch",
            "--cpu-only",
            "--tiny",
            "--measured",
            "--microbench",
            "--threads",
            "--opt-level",
            "--format",
            "--trace",
            "--all",
            "--intra-op",
            "--addr",
            "--max-batch",
            "--batch-wait-us",
            "--queue-cap",
            "--quantize",
            "--max-new-tokens",
            "--prompt-len",
            "shard",
            "--devices",
            "--strategy",
            "--microbatches",
            "--static-only",
            "--sanitize",
        ] {
            assert!(text.contains(needle), "{args:?} help lacks '{needle}'");
        }
    }
}

/// What a run reports depends on its command line alone: exporting values
/// for `--opt-level`, `--threads` and `--intra-op` under `NGB_*` names
/// leaves stdout byte-identical.
#[test]
fn output_depends_on_flags_not_the_environment() {
    const VARS: [(&str, &str); 3] = [("NGB_OPT", "2"), ("NGB_THREADS", "4"), ("NGB_INTRAOP", "0")];
    for args in [
        &["run", "--model", "resnet50", "--tiny", "--format", "json"][..],
        &["verify", "--model", "gpt2", "--tiny"],
    ] {
        let mut plain = cli();
        let mut exported = cli();
        for (name, value) in VARS {
            plain.env_remove(name);
            exported.env(name, value);
        }
        let plain = plain.args(args).output().expect("spawn cli");
        let exported = exported.args(args).output().expect("spawn cli");
        assert!(
            plain.status.success() && exported.status.success(),
            "{args:?}"
        );
        assert!(
            plain.stdout == exported.stdout,
            "{args:?}: stdout moved with the environment:\n{}\nvs\n{}",
            String::from_utf8_lossy(&plain.stdout),
            String::from_utf8_lossy(&exported.stdout)
        );
    }
}

#[test]
fn unknown_flags_and_subcommands_exit_two_with_usage() {
    let cases: &[&[&str]] = &[
        &["--bogus"],
        &["run", "--bogus"],
        &["verify", "--bogus"],
        &["ci"],
        &["frobnicate"],
        &["run", "--threads", "0"],
        &["run", "--opt-level", "9"],
        &["verify", "--format", "csv"],
        &["run", "--model"], // missing value
        &["run", "--intra-op", "maybe"],
        &["verify", "--intra-op", "2"],
        &["serve", "--bogus"],
        &["serve", "--max-batch", "0"],
        &["serve", "--batch-wait-us", "soon"],
        &["serve", "--queue-cap", "-1"],
        &["serve", "--addr"], // missing value
        &["generate", "--bogus"],
        &["generate", "--quantize", "int4"],
        &["generate", "--max-new-tokens", "0"],
        &["generate", "--prompt-len"], // missing value
        &["run", "--model", "gtp2"],
        &["run", "--model", "gpt2", "--model", "gtp2"],
        &["verify", "--model", "gtp2"],
        &["generate", "--model", "gtp2"],
        &["run", "--microbench", "--measured"],
        &["run", "--microbench", "--trace", "out"],
        &["run", "--sanitize"],
    ];
    for args in cases {
        let out = cli().args(*args).output().expect("spawn cli");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, got {:?}",
            out.status.code()
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("usage: nongemm-cli"),
            "{args:?} stderr lacks the usage string: {err}"
        );
    }
}

#[test]
fn generate_decodes_a_tiny_model_with_and_without_int8() {
    for quant in ["none", "int8"] {
        let out = cli()
            .args([
                "generate",
                "--model",
                "gpt2",
                "--tiny",
                "--max-new-tokens",
                "4",
                "--quantize",
                quant,
            ])
            .output()
            .expect("spawn cli");
        assert!(
            out.status.success(),
            "generate --quantize {quant}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("tok/s"), "{text}");
        assert!(text.contains("cache hit rate"), "{text}");
        assert!(text.contains(&format!("quant {quant}")), "{text}");
    }
}

/// A heterogeneous roster under the tensor strategy, and a model most of
/// whose outputs are integer tensors: `shard` compares every output. The
/// `--opt-level 2` case is the only one that partitions fused graphs.
#[test]
fn shard_reports_bit_identity_in_text_and_json() {
    for (args, needle) in [
        (
            "shard --tiny --model gpt2 --devices gpu+cpu --strategy tensor",
            "bit-identical",
        ),
        (
            "shard --tiny --model gpt2 --devices gpu+cpu --strategy tensor --opt-level 2",
            "bit-identical",
        ),
        (
            "shard --tiny --model segformer --format json",
            "\"bit_identical\":true",
        ),
        (
            "shard --tiny --model segformer --format json --opt-level 2",
            "\"bit_identical\":true",
        ),
    ] {
        let out = cli().args(args.split(' ')).output().expect("spawn cli");
        assert!(
            out.status.success(),
            "{args}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(needle), "{args}: {text}");
    }
}

/// Measured text and JSON name the GEMM tile body the host ran; the
/// analytic reports and the CSV schema do not change.
#[test]
fn measured_runs_name_the_gemm_tile() {
    let tile = nongemm::ops::gemm::tile_kind();
    assert!(["avx512", "avx2-fma", "portable"].contains(&tile));
    for (args, named) in [
        ("run --model bert --tiny --measured", true),
        ("run --model bert --tiny --measured --format json", true),
        ("run --model bert --tiny --measured --format csv", false),
        ("run --model bert --tiny --format json", false),
    ] {
        let out = cli().args(args.split(' ')).output().expect("spawn cli");
        assert!(out.status.success(), "{args}");
        let text = String::from_utf8(out.stdout).unwrap();
        let needle = if args.contains("json") {
            format!(",\"gemm_tile\":\"{tile}\"}}")
        } else {
            format!("gemm tile: {tile}\n")
        };
        assert_eq!(text.contains(&needle), named, "{args}: {text}");
        assert_eq!(
            text.contains("gemm_tile") || text.contains("gemm tile"),
            named,
            "{args}"
        );
    }
}

#[test]
fn generate_rejects_non_lm_models() {
    let out = cli()
        .args(["generate", "--model", "resnet50", "--tiny"])
        .output()
        .expect("spawn cli");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("not an autoregressive LM"), "{err}");
}

#[test]
fn verify_still_passes_for_a_tiny_model() {
    let out = cli()
        .args(["verify", "--model", "gpt2", "--tiny"])
        .output()
        .expect("spawn cli");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("PASS"), "{text}");
}
