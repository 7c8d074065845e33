//! Shared output plumbing for the bench bins.
//!
//! [`Out`] is a tee: each [`outln!`] line goes to stdout, and on drop the
//! full text is saved under [`out_dir`] (`CHAMELEON_RESULTS_DIR`, default
//! `results/`) so one env var redirects the paper tables and the eval results.
//!
//! Machine-readable artifacts (`BENCH_*.json`) instead go through
//! [`artifact_path`]: they land in the current directory when
//! `CHAMELEON_RESULTS_DIR` is unset — CI's smoke steps validate them at the
//! repo root — and follow the override when it is set.

use chameleon_telemetry::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;

/// Directory receiving the human-readable `*.txt` outputs and eval results
/// directories: `$CHAMELEON_RESULTS_DIR`, or `results/` under the current
/// directory when unset.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("CHAMELEON_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("results"),
    }
}

/// Where a machine-readable artifact (e.g. `BENCH_mt.json`) should be
/// written: the current directory by default (CI validates these at the
/// repo root), or `$CHAMELEON_RESULTS_DIR` when set.
pub fn artifact_path(name: &str) -> PathBuf {
    match std::env::var_os("CHAMELEON_RESULTS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir).join(name),
        _ => PathBuf::from(name),
    }
}

/// Writes a machine-readable artifact via [`artifact_path`], creating the
/// results directory if needed, and echoes where it went.
pub fn write_artifact(name: &str, contents: &str) {
    let path = artifact_path(name);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Number of hardware threads the host exposes (1 when unknown). Recorded
/// in bench JSON so gates can contextualize per-host numbers — threads=4
/// "losing" on a 1-core container is expected, not a regression.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host metadata as a telemetry JSON value: core count, OS and arch.
pub fn host_meta() -> Value {
    let mut obj = BTreeMap::new();
    obj.insert(
        "available_parallelism".to_string(),
        Value::Num(available_parallelism() as f64),
    );
    obj.insert(
        "os".to_string(),
        Value::Str(std::env::consts::OS.to_string()),
    );
    obj.insert(
        "arch".to_string(),
        Value::Str(std::env::consts::ARCH.to_string()),
    );
    Value::Obj(obj)
}

/// Host metadata as a raw JSON object string, for the bins that hand-roll
/// their `BENCH_*.json` documents.
pub fn host_meta_json() -> String {
    chameleon_telemetry::json::render(&host_meta())
}

/// Buffered stdout tee for one bench binary. Lines written through
/// [`outln!`] (or [`Out::line`]) print immediately; when the value drops,
/// the accumulated text is saved to `out_dir()/<name>.txt`. An
/// `Out::default()` only accumulates: it neither prints nor saves.
#[derive(Default)]
pub struct Out {
    name: Option<&'static str>,
    buf: RefCell<String>,
}

impl Out {
    /// Creates a tee for the binary `name` (the file stem of the saved
    /// transcript).
    pub fn new(name: &'static str) -> Self {
        Out {
            name: Some(name),
            buf: RefCell::default(),
        }
    }

    /// The text written so far.
    pub fn text(&self) -> String {
        self.buf.borrow().clone()
    }

    /// Prints one line to stdout and appends it to the saved transcript.
    pub fn line(&self, args: fmt::Arguments<'_>) {
        let mut text = args.to_string();
        text.push('\n');
        self.write(&text);
    }

    /// Prints a fragment without a trailing newline (already-formatted
    /// multi-line blocks pass through unchanged).
    pub fn write(&self, text: &str) {
        if self.name.is_some() {
            print!("{text}");
        }
        self.buf.borrow_mut().push_str(text);
    }

    /// Prints a horizontal rule sized to `width`.
    pub fn hr(&self, width: usize) {
        self.line(format_args!("{}", "-".repeat(width)));
    }
}

impl Drop for Out {
    fn drop(&mut self) {
        let Some(name) = self.name else { return };
        let path = out_dir().join(format!("{name}.txt"));
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(e) = std::fs::write(&path, self.buf.borrow().as_str()) {
            eprintln!("warning: could not save {}: {e}", path.display());
        }
    }
}

/// `println!` into an [`Out`] tee: prints to stdout and records the line in
/// the transcript saved under [`out_dir`].
#[macro_export]
macro_rules! outln {
    ($out:expr) => {
        $out.line(::core::format_args!(""))
    };
    ($out:expr, $($arg:tt)*) => {
        $out.line(::core::format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_path_defaults_to_cwd() {
        // The CI smoke steps read BENCH_mt.json from the repo root; the
        // default must stay a bare relative path.
        if std::env::var_os("CHAMELEON_RESULTS_DIR").is_none() {
            assert_eq!(
                artifact_path("BENCH_mt.json"),
                PathBuf::from("BENCH_mt.json")
            );
            assert_eq!(out_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn host_meta_has_core_count() {
        let meta = host_meta();
        let cores = meta
            .get("available_parallelism")
            .and_then(Value::as_u64)
            .expect("available_parallelism present");
        assert!(cores >= 1);
        assert!(meta.get("os").and_then(Value::as_str).is_some());
    }
}
