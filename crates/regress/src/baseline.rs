//! On-disk baseline store: one versioned JSON file per model under the
//! baseline directory.

use std::path::{Path, PathBuf};

use serde::Deserialize;

use crate::snapshot::{ModelBaseline, SCHEMA_VERSION};

/// Why a baseline could not be read, written, or produced.
#[derive(Debug)]
pub enum RegressError {
    /// Filesystem failure.
    Io {
        /// Offending path.
        path: PathBuf,
        /// Underlying error message.
        msg: String,
    },
    /// File exists but is not valid JSON / not baseline-shaped.
    Parse {
        /// Offending path.
        path: PathBuf,
        /// Parser message.
        msg: String,
    },
    /// File parses but was written by a different schema version.
    Schema {
        /// Offending path.
        path: PathBuf,
        /// Version found in the file.
        found: u64,
        /// Version this binary writes.
        expected: u64,
    },
    /// Building the current snapshot failed.
    Build {
        /// Model alias.
        model: String,
        /// Underlying error message.
        msg: String,
    },
}

impl std::fmt::Display for RegressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressError::Io { path, msg } => write!(f, "{}: {msg}", path.display()),
            RegressError::Parse { path, msg } => {
                write!(f, "{}: malformed baseline: {msg}", path.display())
            }
            RegressError::Schema {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: baseline schema v{found}, this binary expects v{expected}; \
                 regenerate with `nongemm-cli ci --update`",
                path.display()
            ),
            RegressError::Build { model, msg } => {
                write!(f, "building snapshot for '{model}' failed: {msg}")
            }
        }
    }
}

impl std::error::Error for RegressError {}

/// Minimal probe deserialized before the full document, so schema
/// mismatches surface as [`RegressError::Schema`] rather than a field
/// error deep inside an unrelated struct.
#[derive(Deserialize)]
struct SchemaProbe {
    schema: u64,
}

/// Path of `model`'s baseline file under `dir` (`<dir>/<alias>.json`).
pub fn baseline_path(dir: &Path, model: &str) -> PathBuf {
    dir.join(format!("{model}.json"))
}

/// Loads and schema-checks one baseline file.
///
/// # Errors
///
/// [`RegressError::Io`] when unreadable, [`RegressError::Parse`] on
/// malformed JSON, [`RegressError::Schema`] on a version mismatch.
pub fn load_baseline(path: &Path) -> Result<ModelBaseline, RegressError> {
    let text = std::fs::read_to_string(path).map_err(|e| RegressError::Io {
        path: path.to_path_buf(),
        msg: e.to_string(),
    })?;
    let probe: SchemaProbe = serde_json::from_str(&text).map_err(|e| RegressError::Parse {
        path: path.to_path_buf(),
        msg: e.to_string(),
    })?;
    if probe.schema != SCHEMA_VERSION {
        return Err(RegressError::Schema {
            path: path.to_path_buf(),
            found: probe.schema,
            expected: SCHEMA_VERSION,
        });
    }
    serde_json::from_str(&text).map_err(|e| RegressError::Parse {
        path: path.to_path_buf(),
        msg: e.to_string(),
    })
}

/// Writes one baseline file (pretty-printed, trailing newline), creating
/// the directory if needed.
///
/// # Errors
///
/// [`RegressError::Io`] on filesystem failure.
pub fn write_baseline(path: &Path, baseline: &ModelBaseline) -> Result<(), RegressError> {
    let io = |e: std::io::Error| RegressError::Io {
        path: path.to_path_buf(),
        msg: e.to_string(),
    };
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(io)?;
    }
    let mut text = serde_json::to_string_pretty(baseline).expect("baselines serialize");
    text.push('\n');
    std::fs::write(path, text).map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::model_baseline;
    use ngb_models::ModelId;

    fn tmpdir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .subsec_nanos();
        let dir =
            std::env::temp_dir().join(format!("ngb-regress-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn baseline_round_trips_exactly() {
        let dir = tmpdir("roundtrip");
        let baseline = model_baseline(ModelId::Gpt2).unwrap();
        let path = baseline_path(&dir, &baseline.model);
        write_baseline(&path, &baseline).unwrap();
        let reread = load_baseline(&path).unwrap();
        assert_eq!(baseline, reread, "JSON round-trip must be lossless");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_mismatch_is_a_clear_error_not_a_panic() {
        let dir = tmpdir("schema");
        let path = baseline_path(&dir, "gpt2");
        std::fs::write(&path, "{\"schema\": 99, \"model\": \"gpt2\"}").unwrap();
        let err = load_baseline(&path).unwrap_err();
        assert!(matches!(
            err,
            RegressError::Schema {
                found: 99,
                expected: SCHEMA_VERSION,
                ..
            }
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("--update"),
            "must tell the user the fix: {msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let dir = tmpdir("malformed");
        let path = baseline_path(&dir, "bad");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(
            load_baseline(&path).unwrap_err(),
            RegressError::Parse { .. }
        ));
        assert!(matches!(
            load_baseline(&dir.join("absent.json")).unwrap_err(),
            RegressError::Io { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
