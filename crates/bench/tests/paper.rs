//! The paper runner renders the same bytes on any worker count, and every
//! committed `results/*.txt` table is one it renders.

use chameleon_bench::paper;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Tables whose experiments take well under a second in a release build.
const CHEAP: [&str; 7] = [
    "table2_rules",
    "fig2_tvla_live_used_core",
    "fig3_top_contexts",
    "table1_stats",
    "table3_gc_stats",
    "fig8_bloat_spike",
    "ablation_stability",
];

#[test]
fn cheap_tables_are_identical_on_one_and_two_workers() {
    let one = paper::render(&CHEAP, 1).expect("known tables");
    let two = paper::render(&CHEAP, 2).expect("known tables");
    assert_eq!(one.len(), CHEAP.len());
    assert_eq!(one, two);
    for (name, text) in &one {
        let committed = std::fs::read_to_string(results_dir().join(format!("{name}.txt")))
            .expect("committed table");
        assert_eq!(text, &committed, "{name} differs from results/{name}.txt");
    }
}

#[test]
fn every_committed_table_is_rendered() {
    let stems: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let names: BTreeSet<String> = paper::names().map(str::to_owned).collect();
    assert_eq!(names, stems);
}

#[test]
fn unknown_table_is_an_error() {
    let err = paper::render(&["fig9_nonexistent"], 1).unwrap_err();
    assert!(err.contains("fig9_nonexistent"), "{err}");
}
