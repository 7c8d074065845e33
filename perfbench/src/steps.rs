//! Pipeline steps shared by the `minheap` and `profile` workloads, each
//! timed from outside into its layer row.

use crate::harness::{timed, Layers};
use chameleon_core::{portable_updates, Env, EnvConfig, PortableUpdate, RunMetrics};
use chameleon_profiler::ProfileReport;
use chameleon_rules::{RuleEngine, Suggestion};

/// Builds the profile of a finished profiling run (`profiler.report_s`),
/// evaluates the rules over it (audited into `config`'s telemetry when
/// attached) and turns the auto-applicable suggestions into a portable
/// policy (`rules.evaluate_s`), as `chameleon_core::run_experiment` does.
pub fn suggest(
    env: &Env,
    engine: &RuleEngine,
    config: &EnvConfig,
    layers: &mut Layers,
) -> (ProfileReport, Vec<Suggestion>, Vec<PortableUpdate>) {
    let (report, report_s) = timed(|| env.report());
    layers.add("profiler.report_s", report_s);
    layers.add("profiler.contexts", report.contexts.len() as f64);
    layers.add("heap.contexts", env.heap.context_count() as f64);
    let ((suggestions, applied), rules_s) = timed(|| {
        let suggestions = engine.evaluate_traced(&report, config.telemetry.as_ref());
        let applicable: Vec<Suggestion> = suggestions
            .iter()
            .filter(|s| s.auto_applicable())
            .cloned()
            .collect();
        let applied = portable_updates(&applicable, &env.heap);
        (suggestions, applied)
    });
    layers.add("rules.evaluate_s", rules_s);
    layers.add("rules.suggestions", suggestions.len() as f64);
    layers.add("rules.applicable", applied.len() as f64);
    (report, suggestions, applied)
}

/// Adds a finished run's simulated counts to the heap and collections rows.
pub fn count_run(layers: &mut Layers, m: &RunMetrics) {
    layers.add("heap.alloc_objects", m.total_allocated_objects as f64);
    layers.add("heap.alloc_bytes", m.total_allocated_bytes as f64);
    layers.add("collections.capture_count", m.capture_count as f64);
    layers.add("heap.gc_cycles", m.gc_count as f64);
}
