//! Matrix specification: axes, cells, and the config-hash resume contract.
//!
//! A spec is the cross product of five axes (workloads × rulesets × heap
//! presets × thread counts × telemetry on/off). Each resulting [`Cell`]
//! carries a filesystem-safe id and an FNV-1a config hash over everything
//! that could change its results — including the *source text* of a custom
//! ruleset — so a resumed run recomputes exactly the cells whose
//! configuration drifted and skips the rest.

use std::path::PathBuf;

/// Results-schema identifier stamped into every manifest, summary, golden
/// and `BENCH_eval.json`. Bump when a field changes meaning; the hash
/// covers it, so old rows are recomputed rather than misread.
pub const SCHEMA: &str = "chameleon-eval/1";

/// The five evaluation axes plus the per-cell repeat count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalSpec {
    /// Workload registry names (see `chameleon_workloads::NAMES`).
    pub workloads: Vec<String>,
    /// `"builtin"` or a ruleset file path (resolved against the current
    /// directory, then the workspace root).
    pub rulesets: Vec<String>,
    /// Heap preset names (see [`heap_preset`]).
    pub heaps: Vec<String>,
    /// Mutator thread counts. `1` runs sequentially; `n > 1` runs
    /// `Env::run_parallel` with `n` partitions on `n` threads.
    pub threads: Vec<usize>,
    /// Telemetry attachment axis (simulation results must be identical
    /// either way; the summary cross-checks this).
    pub telemetry: Vec<bool>,
    /// Timed repeats per cell (wall time keeps the minimum; simulated
    /// results are identical across repeats).
    pub repeats: usize,
}

impl Default for EvalSpec {
    /// The checked-in default matrix: 2 workloads × 2 rulesets × 2 heap
    /// presets × 3 thread counts × telemetry on/off = 48 cells.
    fn default() -> Self {
        EvalSpec {
            workloads: vec!["synthetic".into(), "tvla".into()],
            rulesets: vec!["builtin".into(), "examples/custom.rules".into()],
            heaps: vec!["default".into(), "small-gc".into()],
            threads: vec![1, 2, 4],
            telemetry: vec![false, true],
            repeats: 1,
        }
    }
}

/// One point of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Workload registry name.
    pub workload: String,
    /// Ruleset axis value (`"builtin"` or a path).
    pub ruleset: String,
    /// Heap preset name.
    pub heap: String,
    /// Mutator thread count.
    pub threads: usize,
    /// Whether telemetry is attached.
    pub telemetry: bool,
}

impl Cell {
    /// Filesystem-safe cell id, unique within a spec:
    /// `{workload}+{ruleset-tag}+{heap}+t{threads}+tel{on|off}`.
    pub fn id(&self) -> String {
        format!(
            "{}+{}+{}+t{}+tel{}",
            self.workload,
            ruleset_tag(&self.ruleset),
            self.heap,
            self.threads,
            if self.telemetry { "on" } else { "off" }
        )
    }

    /// Pair key for the telemetry-invariance cross-check: the id with the
    /// telemetry component erased.
    pub fn pair_key(&self) -> String {
        format!(
            "{}+{}+{}+t{}",
            self.workload,
            ruleset_tag(&self.ruleset),
            self.heap,
            self.threads
        )
    }

    /// Config hash over every input that could change this cell's results:
    /// schema version, all five axis values, the resolved ruleset source
    /// text, the heap preset's parameters, and the repeat count.
    pub fn config_hash(&self, ruleset_src: &str, repeats: usize) -> String {
        let (gc_interval, capacity) = heap_preset(&self.heap).expect("validated preset");
        let desc = format!(
            "{SCHEMA}|{}|{}|{}|{}|gc={gc_interval:?}|cap={capacity:?}|t={}|tel={}|r={repeats}",
            self.workload, self.ruleset, ruleset_src, self.heap, self.threads, self.telemetry,
        );
        format!("{:016x}", fnv1a(desc.as_bytes()))
    }
}

/// The heap presets the `heaps` axis can name, as
/// `(gc_interval_bytes, heap_capacity)` pairs for `EnvConfig`.
///
/// * `default`  — unbounded heap, GC every 256 KiB of allocation.
/// * `small-gc` — unbounded heap, GC every 64 KiB (4× the cycles, so
///   pause quantiles get a populated histogram).
/// * `capped`   — 4 MiB hard capacity, allocation-failure-driven GC.
pub fn heap_preset(name: &str) -> Option<(Option<u64>, Option<u64>)> {
    match name {
        "default" => Some((Some(256 * 1024), None)),
        "small-gc" => Some((Some(64 * 1024), None)),
        "capped" => Some((None, Some(4 * 1024 * 1024))),
        _ => None,
    }
}

/// Names [`heap_preset`] accepts, for error messages.
pub const HEAP_PRESETS: [&str; 3] = ["default", "small-gc", "capped"];

/// Shortens a ruleset axis value to its id component: `"builtin"` stays,
/// a path reduces to its sanitized file stem (`examples/custom.rules` →
/// `custom`).
pub fn ruleset_tag(ruleset: &str) -> String {
    if ruleset == "builtin" {
        return "builtin".to_string();
    }
    let stem = PathBuf::from(ruleset)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| ruleset.to_string());
    stem.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Resolves a ruleset axis value to its source text: `"builtin"` → `None`;
/// a path is read relative to the current directory, falling back to the
/// workspace root (tests and `cargo run` differ in their working
/// directory).
pub fn resolve_ruleset(ruleset: &str) -> Result<Option<String>, String> {
    if ruleset == "builtin" {
        return Ok(None);
    }
    let direct = PathBuf::from(ruleset);
    let candidates = [
        direct.clone(),
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&direct),
    ];
    for c in &candidates {
        if let Ok(src) = std::fs::read_to_string(c) {
            return Ok(Some(src));
        }
    }
    Err(format!("cannot read ruleset file `{ruleset}`"))
}

impl EvalSpec {
    /// Expands the axes into cells, workload-major, in declaration order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for w in &self.workloads {
            for r in &self.rulesets {
                for h in &self.heaps {
                    for &t in &self.threads {
                        for &tel in &self.telemetry {
                            cells.push(Cell {
                                workload: w.clone(),
                                ruleset: r.clone(),
                                heap: h.clone(),
                                threads: t,
                                telemetry: tel,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Validates the axes: nonempty, known workloads and heap presets,
    /// readable rulesets, and parallel cells only for partitionable
    /// workloads.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty()
            || self.rulesets.is_empty()
            || self.heaps.is_empty()
            || self.threads.is_empty()
            || self.telemetry.is_empty()
        {
            return Err("every axis needs at least one value".to_string());
        }
        if self.repeats == 0 {
            return Err("repeats must be at least 1".to_string());
        }
        for w in &self.workloads {
            let workload = chameleon_workloads::by_name(w)
                .ok_or_else(|| format!("unknown workload `{w}` (try list-workloads)"))?;
            if self.threads.iter().any(|&t| t > 1) && workload.partitions(2).is_none() {
                return Err(format!(
                    "workload `{w}` has no partition plan; it cannot run at threads > 1 \
                     (drop it or set the threads axis to 1)"
                ));
            }
        }
        for h in &self.heaps {
            if heap_preset(h).is_none() {
                return Err(format!(
                    "unknown heap preset `{h}` (one of: {})",
                    HEAP_PRESETS.join(", ")
                ));
            }
        }
        for r in &self.rulesets {
            resolve_ruleset(r)?;
        }
        for (i, &t) in self.threads.iter().enumerate() {
            if t == 0 || t > 64 {
                return Err(format!("threads[{i}] = {t} out of range (1..=64)"));
            }
        }
        Ok(())
    }

    /// Parses a declarative spec file: `key = v1, v2` lines, `#` comments,
    /// blank lines ignored. Unset keys keep their [`Default`] values.
    pub fn parse(src: &str) -> Result<EvalSpec, String> {
        let mut spec = EvalSpec::default();
        for (lineno, raw) in src.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = values`", lineno + 1))?;
            let values: Vec<String> = value
                .split(',')
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
                .collect();
            match key.trim() {
                "workloads" => spec.workloads = values,
                "rulesets" => spec.rulesets = values,
                "heaps" => spec.heaps = values,
                "threads" => spec.threads = parse_usize_list(&values, lineno + 1)?,
                "telemetry" => spec.telemetry = parse_bool_list(&values, lineno + 1)?,
                "repeats" => {
                    spec.repeats = values
                        .first()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("line {}: repeats needs a number", lineno + 1))?
                }
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        Ok(spec)
    }
}

/// Parses a comma-separated thread list (`"1,2,4"`).
pub fn parse_usize_list(values: &[String], lineno: usize) -> Result<Vec<usize>, String> {
    values
        .iter()
        .map(|v| {
            v.parse()
                .map_err(|_| format!("line {lineno}: `{v}` is not a number"))
        })
        .collect()
}

/// Parses a comma-separated telemetry axis (`"off,on"`).
pub fn parse_bool_list(values: &[String], lineno: usize) -> Result<Vec<bool>, String> {
    values
        .iter()
        .map(|v| match v.as_str() {
            "on" | "true" | "1" => Ok(true),
            "off" | "false" | "0" => Ok(false),
            other => Err(format!("line {lineno}: `{other}` is not on/off")),
        })
        .collect()
}

/// 64-bit FNV-1a: deterministic and dependency-free, unlike the std
/// `HashMap` hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_is_at_least_24_cells() {
        let spec = EvalSpec::default();
        spec.validate().expect("default spec is valid");
        assert!(spec.cells().len() >= 24, "got {}", spec.cells().len());
    }

    #[test]
    fn cell_ids_are_unique_and_fs_safe() {
        let cells = EvalSpec::default().cells();
        let mut ids: Vec<String> = cells.iter().map(Cell::id).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate cell ids");
        for id in &ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "+-_.".contains(c)),
                "unsafe id {id}"
            );
        }
    }

    #[test]
    fn hash_covers_ruleset_source() {
        let cell = Cell {
            workload: "synthetic".into(),
            ruleset: "examples/custom.rules".into(),
            heap: "default".into(),
            threads: 1,
            telemetry: false,
        };
        let a = cell.config_hash("rule A", 1);
        let b = cell.config_hash("rule B", 1);
        assert_ne!(a, b, "ruleset source must change the hash");
        assert_ne!(
            cell.config_hash("rule A", 1),
            cell.config_hash("rule A", 2),
            "repeat count must change the hash"
        );
        assert_eq!(a, cell.config_hash("rule A", 1), "hash is deterministic");
    }

    #[test]
    fn spec_file_overrides_defaults() {
        let spec = EvalSpec::parse(
            "# mini matrix\nworkloads = synthetic\nthreads = 1, 2\ntelemetry = off\n",
        )
        .expect("parses");
        assert_eq!(spec.workloads, ["synthetic"]);
        assert_eq!(spec.threads, [1, 2]);
        assert_eq!(spec.telemetry, [false]);
        // Unset axes keep their defaults.
        assert_eq!(spec.heaps.len(), 2);
        assert!(EvalSpec::parse("bogus = 1").is_err());
        assert!(EvalSpec::parse("threads = x").is_err());
    }

    #[test]
    fn validate_rejects_unpartitionable_parallel_cells() {
        let spec = EvalSpec {
            workloads: vec!["bloat".into()],
            threads: vec![1, 2],
            ..EvalSpec::default()
        };
        let err = spec.validate().expect_err("bloat is not partitionable");
        assert!(err.contains("partition plan"), "{err}");
        let seq = EvalSpec {
            workloads: vec!["bloat".into()],
            threads: vec![1],
            ..EvalSpec::default()
        };
        seq.validate().expect("sequential bloat cells are fine");
    }

    #[test]
    fn ruleset_tags() {
        assert_eq!(ruleset_tag("builtin"), "builtin");
        assert_eq!(ruleset_tag("examples/custom.rules"), "custom");
        assert_eq!(ruleset_tag("a b/weird name.rules"), "weird-name");
    }
}
