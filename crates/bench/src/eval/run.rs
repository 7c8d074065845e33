//! Matrix execution: parallel cell runs, JSONL rows, resume, and the
//! machine-validated summary.
//!
//! Each cell runs a [`chameleon_core::run_quick_experiment`]: one profiled
//! baseline run and one policy re-run under the same configuration. Rows
//! append to `cells.jsonl` as cells complete, so a killed run loses at most
//! the in-flight cells; the next invocation keeps every row whose
//! `(id, hash)` still matches the manifest and computes only the rest.

use super::spec::{heap_preset, resolve_ruleset, Cell, EvalSpec, SCHEMA};
use crate::out::host_meta;
use chameleon_core::{run_quick_experiment, EnvConfig, ParallelConfig, QuickExperiment};
use chameleon_rules::RuleEngine;
use chameleon_telemetry::json::{self, Value};
use chameleon_telemetry::metrics::Histogram;
use chameleon_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Keys every `cells.jsonl` row and every `summary.json` cell must carry;
/// `validate_jsonl` checks the log against this list after each run.
pub const ROW_KEYS: [&str; 19] = [
    "id",
    "hash",
    "workload",
    "ruleset",
    "heap",
    "threads",
    "telemetry",
    "suggestions",
    "applied",
    "cost_ratio",
    "sim_time_before",
    "sim_time_after",
    "gc_before",
    "gc_after",
    "alloc_before",
    "alloc_after",
    "pause_p50",
    "pause_p95",
    "wall_ns",
];

/// Pause-histogram bucket bounds: powers of two up to 1 Mi simulated
/// units, giving `Histogram::quantile` interpolation room at every scale
/// the GC produces.
fn pause_bounds() -> Vec<u64> {
    (0..=20).map(|i| 1u64 << i).collect()
}

/// Execution options for one `eval_matrix` invocation.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The matrix to run.
    pub spec: EvalSpec,
    /// Results directory (manifest, rows, summary).
    pub dir: PathBuf,
    /// Concurrent cell runners.
    pub jobs: usize,
    /// Stop (with a nonzero exit) after computing this many new cells —
    /// the CI kill-and-resume harness uses this as a deterministic kill.
    pub max_cells: Option<usize>,
    /// Discard existing rows instead of resuming.
    pub fresh: bool,
}

/// Outcome of a completed (not truncated) run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Cells computed by this invocation.
    pub computed: usize,
    /// Cells skipped because a matching row already existed.
    pub skipped: usize,
    /// Total cells in the matrix.
    pub total: usize,
}

/// Runs (or resumes) the matrix, writing `manifest.json`, one JSONL row
/// per cell into `cells.jsonl`, and — once every cell is present — the
/// machine-validated `summary.json`.
pub fn run_matrix(opts: &RunOptions) -> Result<RunOutcome, String> {
    opts.spec.validate()?;
    let cells = opts.spec.cells();

    // Resolve every ruleset once; the source text feeds the config hashes.
    let mut ruleset_src: BTreeMap<String, Option<String>> = BTreeMap::new();
    for r in &opts.spec.rulesets {
        ruleset_src.insert(r.clone(), resolve_ruleset(r)?);
    }
    let hash_of = |cell: &Cell| -> String {
        let src = ruleset_src[&cell.ruleset].as_deref().unwrap_or("builtin");
        cell.config_hash(src, opts.spec.repeats)
    };
    let expected: BTreeMap<String, String> = cells.iter().map(|c| (c.id(), hash_of(c))).collect();

    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;
    write_manifest(&opts.dir, &opts.spec, &cells, &expected)?;

    // Resume: keep rows whose (id, hash) still matches the manifest.
    let rows_path = opts.dir.join("cells.jsonl");
    let mut kept_rows: Vec<Value> = Vec::new();
    if !opts.fresh {
        if let Ok(log) = std::fs::read_to_string(&rows_path) {
            for line in log.lines().filter(|l| !l.trim().is_empty()) {
                let row = json::parse(line)
                    .map_err(|e| format!("corrupt row in {}: {e}", rows_path.display()))?;
                let id = row.get("id").and_then(Value::as_str).unwrap_or_default();
                let hash = row.get("hash").and_then(Value::as_str).unwrap_or_default();
                if expected.get(id).is_some_and(|h| h == hash)
                    && !kept_rows
                        .iter()
                        .any(|r| r.get("id").and_then(Value::as_str) == Some(id))
                {
                    kept_rows.push(row);
                }
            }
        }
    }
    let done_ids: BTreeSet<String> = kept_rows
        .iter()
        .filter_map(|r| r.get("id").and_then(Value::as_str).map(str::to_string))
        .collect();
    // Rewrite the log to exactly the kept rows, pruning stale or duplicate
    // entries before new rows append.
    let kept_log: String = kept_rows
        .iter()
        .map(|r| format!("{}\n", json::render(r)))
        .collect();
    std::fs::write(&rows_path, kept_log)
        .map_err(|e| format!("cannot write {}: {e}", rows_path.display()))?;

    let pending: Vec<&Cell> = cells
        .iter()
        .filter(|c| !done_ids.contains(&c.id()))
        .collect();
    let budget = opts.max_cells.unwrap_or(pending.len()).min(pending.len());
    let to_run = &pending[..budget];
    let truncated = pending.len() - budget;

    // Parallel cell execution: a shared claim counter hands each worker
    // the next un-run cell; completed rows append to the log under a lock.
    let computed_rows: Mutex<Vec<Value>> = Mutex::new(Vec::new());
    let log_file = Mutex::new(
        std::fs::OpenOptions::new()
            .append(true)
            .open(&rows_path)
            .map_err(|e| format!("cannot append to {}: {e}", rows_path.display()))?,
    );
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    run_claimed(to_run, opts.jobs, |cell| {
        if first_error.lock().unwrap().is_some() {
            return;
        }
        let src = ruleset_src[&cell.ruleset].as_deref();
        match run_cell(cell, src, opts.spec.repeats) {
            Ok(row) => {
                let rendered = json::render(&row);
                let mut file = log_file.lock().unwrap();
                if writeln!(file, "{rendered}")
                    .and_then(|()| file.flush())
                    .is_err()
                {
                    *first_error.lock().unwrap() =
                        Some(format!("cannot append row for {}", cell.id()));
                    return;
                }
                drop(file);
                computed_rows.lock().unwrap().push(row);
            }
            Err(e) => {
                *first_error.lock().unwrap() = Some(format!("cell {}: {e}", cell.id()));
            }
        }
    });
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(e);
    }

    let computed = computed_rows.into_inner().unwrap();
    if truncated > 0 {
        return Err(format!(
            "stopped after {} new cell(s) (--max-cells); {} cell(s) remaining — \
             rerun without --max-cells to resume",
            computed.len(),
            truncated
        ));
    }

    let mut all_rows = kept_rows;
    all_rows.extend(computed.iter().cloned());
    all_rows.sort_by_key(|r| {
        r.get("id")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    });
    write_summary(&opts.dir, &opts.spec, &all_rows)?;

    // Machine-validate the row log against the schema before reporting
    // success: every row must parse and carry every required key.
    let log = std::fs::read_to_string(&rows_path)
        .map_err(|e| format!("cannot reread {}: {e}", rows_path.display()))?;
    let n = json::validate_jsonl(&log, &ROW_KEYS)
        .map_err(|e| format!("{} failed validation: {e}", rows_path.display()))?;
    if n != cells.len() {
        return Err(format!(
            "{} has {n} row(s), expected {}",
            rows_path.display(),
            cells.len()
        ));
    }

    Ok(RunOutcome {
        computed: computed.len(),
        skipped: done_ids.len(),
        total: cells.len(),
    })
}

/// Runs `f` on every item over `workers` scoped threads (on the calling
/// thread when `workers <= 1`) and returns the outputs in item order. Each
/// worker claims the next unclaimed item, so list the longest items first.
/// The bench crate's one worker pool: the matrix's cell runners and the
/// paper runner both use it.
pub(crate) fn run_claimed<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // relaxed: work-distribution claim counter; claim order is irrelevant
    // (outputs are put back in item order), only uniqueness matters, which
    // fetch_add gives at any ordering.
    let next = AtomicUsize::new(0);
    let worker = || {
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < items.len());
        std::iter::from_fn(claim)
            .map(|i| (i, f(&items[i])))
            .collect::<Vec<_>>()
    };
    let mut done = if workers <= 1 {
        worker()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers.min(items.len()))
                .map(|_| s.spawn(worker))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs one cell `repeats` times, keeping the wall-time minimum (the
/// simulated results are identical across repeats).
fn run_cell(cell: &Cell, ruleset_src: Option<&str>, repeats: usize) -> Result<Value, String> {
    let engine = match ruleset_src {
        None => RuleEngine::builtin(),
        Some(src) => {
            let mut e = RuleEngine::new();
            e.add_rules(src).map_err(|e| e.render())?;
            e
        }
    };
    let (gc_interval_bytes, heap_capacity) =
        heap_preset(&cell.heap).ok_or_else(|| format!("unknown heap preset {}", cell.heap))?;
    let workload = chameleon_workloads::by_name(&cell.workload)
        .ok_or_else(|| format!("unknown workload {}", cell.workload))?;
    let parallel = (cell.threads > 1).then_some(ParallelConfig {
        partitions: cell.threads,
        threads: cell.threads,
    });

    let mut best: Option<(u64, QuickExperiment)> = None;
    for _ in 0..repeats.max(1) {
        let config = EnvConfig {
            gc_interval_bytes,
            heap_capacity,
            telemetry: cell.telemetry.then(Telemetry::new),
            ..EnvConfig::default()
        };
        let t0 = Instant::now();
        let quick = run_quick_experiment(workload.as_ref(), &engine, &config, parallel)
            .map_err(|e| e.to_string())?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        if best.as_ref().is_none_or(|(w, _)| wall_ns < *w) {
            best = Some((wall_ns, quick));
        }
    }
    let (wall_ns, quick) = best.expect("at least one repeat");

    let mut suggestions: Vec<String> = quick.suggestions.iter().map(|s| s.to_string()).collect();
    suggestions.sort();
    let bounds = pause_bounds();
    let pauses = Histogram::new(&bounds);
    for &p in &quick.pause_units_before {
        pauses.record(p);
    }

    let mut row = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        row.insert(k.to_string(), v);
    };
    put("id", Value::Str(cell.id()));
    put(
        "hash",
        Value::Str(cell.config_hash(ruleset_src.unwrap_or("builtin"), repeats)),
    );
    put("workload", Value::Str(cell.workload.clone()));
    put("ruleset", Value::Str(cell.ruleset.clone()));
    put("heap", Value::Str(cell.heap.clone()));
    put("threads", Value::Num(cell.threads as f64));
    put("telemetry", Value::Bool(cell.telemetry));
    put(
        "suggestions",
        Value::Arr(suggestions.into_iter().map(Value::Str).collect()),
    );
    put("applied", Value::Num(quick.applied.len() as f64));
    put("cost_ratio", Value::Num(quick.cost_ratio()));
    put("sim_time_before", Value::Num(quick.before.sim_time as f64));
    put("sim_time_after", Value::Num(quick.after.sim_time as f64));
    put("gc_before", Value::Num(quick.before.gc_count as f64));
    put("gc_after", Value::Num(quick.after.gc_count as f64));
    put(
        "alloc_before",
        Value::Num(quick.before.total_allocated_bytes as f64),
    );
    put(
        "alloc_after",
        Value::Num(quick.after.total_allocated_bytes as f64),
    );
    put("pause_p50", Value::Num(pauses.quantile(0.5)));
    put("pause_p95", Value::Num(pauses.quantile(0.95)));
    put("wall_ns", Value::Num(wall_ns as f64));
    Ok(Value::Obj(row))
}

fn write_manifest(
    dir: &Path,
    spec: &EvalSpec,
    cells: &[Cell],
    hashes: &BTreeMap<String, String>,
) -> Result<(), String> {
    let mut m = BTreeMap::new();
    m.insert("schema".to_string(), Value::Str(SCHEMA.to_string()));
    m.insert("host".to_string(), host_meta());
    m.insert("repeats".to_string(), Value::Num(spec.repeats as f64));
    let mut axes = BTreeMap::new();
    let strs = |xs: &[String]| Value::Arr(xs.iter().cloned().map(Value::Str).collect());
    axes.insert("workloads".to_string(), strs(&spec.workloads));
    axes.insert("rulesets".to_string(), strs(&spec.rulesets));
    axes.insert("heaps".to_string(), strs(&spec.heaps));
    axes.insert(
        "threads".to_string(),
        Value::Arr(spec.threads.iter().map(|&t| Value::Num(t as f64)).collect()),
    );
    axes.insert(
        "telemetry".to_string(),
        Value::Arr(spec.telemetry.iter().map(|&b| Value::Bool(b)).collect()),
    );
    m.insert("spec".to_string(), Value::Obj(axes));
    let cell_list: Vec<Value> = cells
        .iter()
        .map(|c| {
            let mut o = BTreeMap::new();
            o.insert("id".to_string(), Value::Str(c.id()));
            o.insert("hash".to_string(), Value::Str(hashes[&c.id()].clone()));
            o.insert("workload".to_string(), Value::Str(c.workload.clone()));
            o.insert("ruleset".to_string(), Value::Str(c.ruleset.clone()));
            o.insert("heap".to_string(), Value::Str(c.heap.clone()));
            o.insert("threads".to_string(), Value::Num(c.threads as f64));
            o.insert("telemetry".to_string(), Value::Bool(c.telemetry));
            Value::Obj(o)
        })
        .collect();
    m.insert("total_cells".to_string(), Value::Num(cells.len() as f64));
    m.insert("cells".to_string(), Value::Arr(cell_list));
    let path = dir.join("manifest.json");
    std::fs::write(&path, json::render(&Value::Obj(m)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Builds and writes `summary.json` from the full row set, cross-checking
/// the telemetry invariance (cells differing only in telemetry must have
/// identical simulated results), then parses the written file back to
/// prove it is machine-readable.
fn write_summary(dir: &Path, spec: &EvalSpec, rows: &[Value]) -> Result<(), String> {
    let mut pairs: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    for row in rows {
        let id = row.get("id").and_then(Value::as_str).unwrap_or_default();
        let pair_key = id.rsplit_once("+tel").map(|(p, _)| p).unwrap_or(id);
        pairs.entry(pair_key.to_string()).or_default().push(row);
    }
    let mut violations: Vec<Value> = Vec::new();
    let mut checked_pairs = 0u64;
    for (key, members) in &pairs {
        if members.len() < 2 {
            continue;
        }
        checked_pairs += 1;
        let fingerprint = |r: &Value| {
            (
                r.get("sim_time_before").and_then(Value::as_f64),
                r.get("cost_ratio").and_then(Value::as_f64),
                r.get("suggestions").map(json::render),
            )
        };
        let first = fingerprint(members[0]);
        if members.iter().any(|m| fingerprint(m) != first) {
            violations.push(Value::Str(key.clone()));
        }
    }

    let wall_total: f64 = rows
        .iter()
        .filter_map(|r| r.get("wall_ns").and_then(Value::as_f64))
        .sum();
    let mut s = BTreeMap::new();
    s.insert("schema".to_string(), Value::Str(SCHEMA.to_string()));
    s.insert("host".to_string(), host_meta());
    s.insert("repeats".to_string(), Value::Num(spec.repeats as f64));
    s.insert("total_cells".to_string(), Value::Num(rows.len() as f64));
    s.insert("wall_ns_total".to_string(), Value::Num(wall_total));
    let mut inv = BTreeMap::new();
    inv.insert(
        "checked_pairs".to_string(),
        Value::Num(checked_pairs as f64),
    );
    inv.insert("ok".to_string(), Value::Bool(violations.is_empty()));
    inv.insert("violations".to_string(), Value::Arr(violations.clone()));
    s.insert("telemetry_invariant".to_string(), Value::Obj(inv));
    s.insert("cells".to_string(), Value::Arr(rows.to_vec()));
    let path = dir.join("summary.json");
    let rendered = json::render(&Value::Obj(s));
    std::fs::write(&path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    // Machine validation: the summary must round-trip and every cell must
    // carry every schema key.
    let reread = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot reread {}: {e}", path.display()))?;
    let doc = json::parse(&reread).map_err(|e| format!("summary does not parse: {e}"))?;
    let cells = doc
        .get("cells")
        .and_then(Value::as_arr)
        .ok_or("summary missing cells")?;
    for cell in cells {
        for key in ROW_KEYS {
            if cell.get(key).is_none() {
                return Err(format!("summary cell missing `{key}`"));
            }
        }
    }
    if !violations.is_empty() {
        return Err(format!(
            "telemetry invariance violated for {} pair(s): attaching telemetry must not \
             change simulated results (see summary.json)",
            violations.len()
        ));
    }
    Ok(())
}
