//! CLI smoke tests: help coverage, exit-code conventions, and the
//! `ci` gate driven through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nongemm-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!("ngb-cli-{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
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
            "ci",
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
            "--check",
            "--update",
            "--dir",
            "--intra-op",
            "--addr",
            "--max-batch",
            "--batch-wait-us",
            "--queue-cap",
            "--quantize",
            "--max-new-tokens",
            "--prompt-len",
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
        &["ci", "--bogus"],
        &["frobnicate"],
        &["run", "--threads", "0"],
        &["run", "--opt-level", "9"],
        &["verify", "--format", "csv"],
        &["ci", "--format", "csv"],
        &["ci", "--check", "--update"],
        &["ci", "--no-wallclock"],
        &["ci", "--wallclock-iters", "3"],
        &["ci", "--bench", "x"],
        &["ci", "--report", "x"],
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
fn ci_update_then_check_round_trips_through_the_binary() {
    let dir = tmpdir("gate");
    let baselines = dir.join("baselines");
    let common = [
        "ci",
        "--model",
        "gpt2",
        "--dir",
        baselines.to_str().unwrap(),
    ];

    // a check before any baselines exist must fail and point at --update
    let out = cli().args(common).output().expect("spawn cli");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("--update"), "{text}");

    let out = cli()
        .args(common)
        .arg("--update")
        .current_dir(&dir)
        .output()
        .expect("spawn cli");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("new  gpt2"), "{text}");
    assert!(baselines.join("gpt2.json").is_file());
    // run from `dir`, so a file written beside the baselines (a seed at a
    // relative default path) would land here
    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(written, ["baselines"], "--update writes only the baselines");

    let out = cli()
        .args(common)
        .arg("--check")
        .output()
        .expect("spawn cli");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("ok   gpt2"), "{text}");
    assert!(text.contains("result: PASS"), "{text}");
    let out = cli()
        .args(common)
        .args(["--check", "--format", "json"])
        .output()
        .expect("spawn cli");
    assert!(out.status.success());
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(v["clean"], true);
    assert_eq!(v["models_checked"], 1.0);

    // perturb the committed baseline; the check must name model + metric
    let path = baselines.join("gpt2.json");
    let mangled = std::fs::read_to_string(&path)
        .unwrap()
        .replacen("\"gemm\": ", "\"gemm\": 1", 1); // prepends a digit: count changes
    std::fs::write(&path, mangled).unwrap();
    let out = cli()
        .args(common)
        .args(["--format", "json"])
        .output()
        .expect("spawn cli");
    assert_eq!(out.status.code(), Some(1));
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(v["clean"], false);
    assert_eq!(v["models_failed"][0], "gpt2");
    assert_eq!(v["diffs"][0]["metric"], "graph.gemm");

    std::fs::remove_dir_all(&dir).ok();
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
