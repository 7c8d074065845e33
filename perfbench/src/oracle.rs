//! Checked-in reference outputs the benchmark compares against: the
//! Fig. 6/7 tables under `results/` and the evaluation goldens under
//! `crates/bench/goldens/`. Files are read from the repository the
//! benchmark was built from, so a missing file is a failed check.

use chameleon_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Repository root (the benchmark package sits one level below it).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read(rel: &str) -> Result<String, String> {
    std::fs::read_to_string(repo_root().join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
}

/// Whitespace-separated rows of a results table whose second column is
/// an integer, keyed by their first column.
fn table_rows(rel: &str) -> Result<BTreeMap<String, Vec<String>>, String> {
    Ok(read(rel)?
        .lines()
        .map(|l| l.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
        .filter(|t| t.len() >= 6 && t[1].parse::<u64>().is_ok())
        .map(|t| (t[0].clone(), t))
        .collect())
}

/// One Fig. 6 row: minimal heap before/after and the suggestion count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig6 {
    /// Minimal heap with default collections (bytes).
    pub before: u64,
    /// Minimal heap with the applied policy (bytes).
    pub after: u64,
    /// Suggestions the rule engine produced.
    pub suggestions: u64,
}

/// One Fig. 7 row: simulated time and GC counts before/after.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig7 {
    /// Simulated cost units with default collections.
    pub sim_before: u64,
    /// Simulated cost units with the policy.
    pub sim_after: u64,
    /// GCs with default collections.
    pub gc_before: u64,
    /// GCs with the policy.
    pub gc_after: u64,
}

fn int(t: &[String], i: usize) -> u64 {
    t.get(i).and_then(|s| s.parse().ok()).unwrap_or(u64::MAX)
}

/// The Fig. 6 row for `name`. For bloat the policy-only row (`policy`) is
/// the one a pipeline reproduces; the `bloat` row folds in a manual fix.
pub fn fig6(name: &str) -> Result<Fig6, String> {
    let key = if name == "bloat" { "policy" } else { name };
    let rows = table_rows("results/fig6_min_heap.txt")?;
    let t = rows
        .get(key)
        .ok_or_else(|| format!("results/fig6_min_heap.txt has no {key} row"))?;
    Ok(Fig6 {
        before: int(t, 1),
        after: int(t, 2),
        suggestions: int(t, 5),
    })
}

/// The Fig. 7 row for `name`.
pub fn fig7(name: &str) -> Result<Fig7, String> {
    let rows = table_rows("results/fig7_running_time.txt")?;
    let t = rows
        .get(name)
        .ok_or_else(|| format!("results/fig7_running_time.txt has no {name} row"))?;
    Ok(Fig7 {
        sim_before: int(t, 1),
        sim_after: int(t, 2),
        gc_before: int(t, 5),
        gc_after: int(t, 6),
    })
}

/// A quick-experiment result in the evaluation goldens' terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Simulated cost units of the baseline run.
    pub sim_time_before: u64,
    /// GCs of the baseline run.
    pub gc_before: u64,
    /// Policy-run cost over baseline cost.
    pub cost_ratio: f64,
    /// Rendered suggestions, sorted.
    pub suggestions: Vec<String>,
}

/// Compares `got` with golden cell `id` of `crates/bench/goldens/default.json`
/// under the golden file's own tolerance policy: suggestions and GC count
/// exact, simulated time and cost ratio within `tolerance_pct`.
pub fn check_golden(id: &str, got: &Cell) -> Result<(), String> {
    let doc = json::parse(&read("crates/bench/goldens/default.json")?)?;
    let cell = doc
        .get("cells")
        .and_then(Value::as_arr)
        .and_then(|cells| {
            cells
                .iter()
                .find(|c| c.get("id").and_then(Value::as_str) == Some(id))
        })
        .ok_or_else(|| format!("golden cell {id} missing"))?;
    let tol = |key: &str| {
        doc.get("tolerance_pct")
            .and_then(|t| t.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / 100.0
    };
    let f = |key: &str| cell.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let within = |want: f64, got: f64, rel: f64| (got - want).abs() <= rel * want.abs();
    let want_suggestions: Vec<String> = cell
        .get("suggestions")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.as_str().map(str::to_owned))
        .collect();
    let mut errors = Vec::new();
    if want_suggestions != got.suggestions {
        errors.push("suggestions differ".to_owned());
    }
    if f("gc_before") != got.gc_before as f64 {
        errors.push(format!("gc_before {} != {}", got.gc_before, f("gc_before")));
    }
    if !within(
        f("sim_time_before"),
        got.sim_time_before as f64,
        tol("sim_time"),
    ) {
        errors.push(format!(
            "sim_time_before {} != {}",
            got.sim_time_before,
            f("sim_time_before")
        ));
    }
    if !within(f("cost_ratio"), got.cost_ratio, tol("cost_ratio")) {
        errors.push(format!(
            "cost_ratio {} != {}",
            got.cost_ratio,
            f("cost_ratio")
        ));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!("golden {id}: {}", errors.join("; ")))
    }
}
