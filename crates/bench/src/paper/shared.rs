//! Tables rendered from experiments other tables read too: the §5.2
//! pipelines (Fig. 6, Fig. 7, the layout ablation) and the default
//! profiling runs (Fig. 2, Fig. 3, Tables 1-3).

use super::{head, pct, Job, Results, PAPER};
use crate::out::Out;
use crate::outln;
use chameleon_rules::RuleEngine;
use std::collections::BTreeMap;

/// Fig. 2 — Percentage of live data consumed by collections in TVLA, per
/// GC cycle: total collection bytes (**live**), the part used to store
/// application entries (**used**), and the ideal lower bound (**core**).
/// The paper's figure shows collections at up to ~70% of live data with
/// used at up to ~40%.
pub(super) fn fig2(r: &Results, out: &Out) {
    let report = &r.profile("tvla").report;
    head(
        out,
        "Fig. 2 — TVLA: collection share of live data per GC cycle",
        64,
        " cycle      live(B)    live%    used%    core%",
    );
    for p in &report.series {
        outln!(
            out,
            "{:>6} {:>12} {:>7.1}% {:>7.1}% {:>7.1}%",
            p.cycle,
            p.heap_live,
            p.live_pct,
            p.used_pct,
            p.core_pct
        );
    }
    out.hr(64);
    let max_live = report.series.iter().map(|p| p.live_pct).fold(0.0, f64::max);
    let max_used = report.series.iter().map(|p| p.used_pct).fold(0.0, f64::max);
    outln!(
        out,
        "peaks: live {max_live:.1}% (paper: up to ~70%), used {max_used:.1}% (paper: up to ~40%)"
    );
}

/// Fig. 3 — Combined results for the top allocation contexts in TVLA:
/// per-context space-saving potential and operation distribution. The
/// paper's top contexts are dominated by `get` operations, with one context
/// also showing a small portion of `add` and `remove`; it also prints the
/// paper's succinct suggestion messages for the top contexts.
pub(super) fn fig3(r: &Results, out: &Out) {
    let tvla = r.profile("tvla");
    outln!(
        out,
        "Fig. 3 — TVLA: top allocation contexts (potential + operation mix)"
    );
    out.hr(100);
    out.write(&tvla.report.format_top_contexts(4));
    out.hr(100);

    outln!(out, "\nSuggestions (paper §2.1 message style):");
    for (i, s) in tvla.suggestions.iter().take(6).enumerate() {
        outln!(out, "{}: {}", i + 1, s);
    }
}

/// Fig. 6 — Improvement of minimal heap size required to run each
/// benchmark, as a percentage of the original minimal heap size.
///
/// For bloat the paper's 56% includes a *manual* fix (lazy allocation of
/// the list fields themselves); the automatic (policy-only) number is shown
/// alongside, as the paper reports "more than 20% ... by making the lists
/// into LazyArrayLists".
pub(super) fn fig6(r: &Results, out: &Out) {
    head(
        out,
        "Fig. 6 — minimal-heap improvement (% of original min heap)",
        78,
        "benchmark     before(B)     after(B)   measured      paper  suggestions",
    );
    for (name, min_heap_pct, _) in PAPER {
        let p = r.pipeline(Job::Pipeline(name));
        let result = &p.result;
        let mut improvement = result.space_improvement().pct();
        let mut after = result.min_heap_after;
        // bloat: fold in the paper's manual lazy-allocation fix (§5.3 says
        // the 56% came from manually making the allocation itself lazy; the
        // LazyArrayList policy alone gives "more than 20%").
        if let Some(manual_after) = p.manual_lazy_after {
            outln!(
                out,
                "{:<10} {:>12} {:>12} {:>10} {:>10} {:>12}",
                " policy",
                result.min_heap_before,
                result.min_heap_after,
                pct(result.space_improvement().pct()),
                ">20%",
                result.suggestions.len(),
            );
            if manual_after < after {
                after = manual_after;
                improvement =
                    100.0 * (result.min_heap_before - after) as f64 / result.min_heap_before as f64;
            }
        }
        outln!(
            out,
            "{:<10} {:>12} {:>12} {:>10} {:>10} {:>12}",
            result.name,
            result.min_heap_before,
            after,
            pct(improvement),
            pct(min_heap_pct),
            result.suggestions.len(),
        );
    }
    out.hr(78);
}

/// Fig. 7 — Improvement of running time after applying the fixes suggested
/// by Chameleon, as a percentage of the original running time. Following
/// §5.2, both versions run with the benchmark's *original* minimal heap
/// size, so GC pressure differences count (that is the entire PMD effect:
/// 16% fewer GCs → 8.33% faster).
pub(super) fn fig7(r: &Results, out: &Out) {
    head(
        out,
        "Fig. 7 — running-time improvement at the original minimal heap size",
        86,
        "benchmark   before(units)   after(units)  measured     paper       GCs      GCs'",
    );
    for (name, _, time_pct) in PAPER {
        let r = &r.pipeline(Job::Pipeline(name)).result;
        outln!(
            out,
            "{:<10} {:>14} {:>14} {:>9} {:>9} {:>9} {:>9}",
            r.name,
            r.time_before.sim_time,
            r.time_after.sim_time,
            pct(r.time_improvement().pct()),
            time_pct.map(pct).unwrap_or_else(|| "n/a".to_owned()),
            r.time_before.gc_count,
            r.time_after.gc_count,
        );
    }
    out.hr(86);
    outln!(
        out,
        "(units are deterministic simulated cost units; see DESIGN.md §1)"
    );
}

/// Table 1 — the heap and trace statistics Chameleon gathers per
/// allocation context, printed for the TVLA run: overall live data
/// (total/max), collection live/used/core (total/max), collection object
/// counts, operation totals, average/deviation of operation counts and of
/// the maximal size.
pub(super) fn table1(r: &Results, out: &Out) {
    let report = &r.profile("tvla").report;
    head(
        out,
        "Table 1 — statistics gathered per execution (TVLA)",
        72,
        "metric                                            Total          Max",
    );
    let t = &report.totals;
    let rows = [
        ("Overall live data (B)", t.total_live, t.max_live),
        ("Collection live data (B)", t.total.live, t.max.live),
        ("Collection used data (B)", t.total.used, t.max.used),
        ("Collection core data (B)", t.total.core, t.max.core),
        ("Collection object number", t.total.count, t.max.count),
    ];
    for (metric, total, max) in rows {
        outln!(out, "{metric:<42} {total:>12} {max:>12}");
    }
    out.hr(72);

    head(
        out,
        "\nPer-context aggregation (top 4 by potential):",
        96,
        "context                                       insts   #allOps  avgMaxSz  stdMaxSz   pot(B)",
    );
    for c in report.top(4) {
        outln!(
            out,
            "{:<44} {:>6} {:>9} {:>9.2} {:>9.2} {:>8}",
            truncate(&c.label, 44),
            c.trace.instances,
            c.trace.all_ops_total(),
            c.trace.max_size_avg(),
            c.trace.max_size_std(),
            c.potential_bytes,
        );
    }
    out.hr(96);

    outln!(
        out,
        "\nOperation-count averages and deviations for the top context:"
    );
    let top = &report.contexts[0];
    for (op, _) in top.trace.op_distribution() {
        outln!(
            out,
            "  #{:<22} avg {:>8.2}  std {:>8.2}",
            op,
            top.trace.op_avg(op),
            top.trace.op_std(op)
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Table 2 — the built-in Chameleon selection rules, and which of them
/// fire on each of the six benchmarks.
pub(super) fn table2(r: &Results, out: &Out) {
    outln!(out, "Table 2 — built-in selection rules (priority order)");
    out.hr(100);
    for (i, rule) in RuleEngine::builtin().rules().iter().enumerate() {
        outln!(out, "{:>2}. [{}] {}", i + 1, rule.category(), rule);
    }
    out.hr(100);

    outln!(out, "\nRule firings per benchmark:");
    for (name, _, _) in PAPER {
        let suggestions = &r.profile(name).suggestions;
        let mut by_action: BTreeMap<String, usize> = BTreeMap::new();
        for s in suggestions {
            *by_action.entry(s.action.to_string()).or_insert(0) += 1;
        }
        outln!(out, "\n  {} — {} suggestion(s):", name, suggestions.len());
        for (action, n) in by_action {
            outln!(out, "    {n:>3} × -> {action}");
        }
    }
}

/// Table 3 — the statistics the collection-aware collector gathers on
/// every GC cycle: live data, collection live/used/core, collection object
/// number, and the per-type live-size breakdown; printed for the TVLA run.
pub(super) fn table3(r: &Results, out: &Out) {
    let tvla = r.profile("tvla");
    let cycles = &tvla.cycles;
    head(
        out,
        "Table 3 — per-GC-cycle semantic statistics (TVLA)",
        86,
        "cycle     live(B)    collLive    collUsed    collCore  collObj    types",
    );
    for c in cycles {
        outln!(
            out,
            "{:>5} {:>11} {:>11} {:>11} {:>11} {:>8} {:>8}",
            c.cycle,
            c.live_bytes,
            c.collection.live,
            c.collection.used,
            c.collection.core,
            c.collection.count,
            c.type_distribution.len(),
        );
    }
    out.hr(86);

    // Type distribution of the peak cycle.
    let peak = cycles
        .iter()
        .max_by_key(|c| c.live_bytes)
        .expect("cycles recorded");
    outln!(
        out,
        "\nType distribution at the peak cycle ({}):",
        peak.cycle
    );
    let mut rows = peak.type_distribution.clone();
    rows.sort_by_key(|(_, bytes, _)| std::cmp::Reverse(*bytes));
    for (class, bytes, count) in rows.iter().take(10) {
        outln!(
            out,
            "  {:<24} {:>10} B {:>8} objects ({:>5.1}% of live)",
            tvla.class_names[class],
            bytes,
            count,
            100.0 * *bytes as f64 / peak.live_bytes as f64
        );
    }
}

/// Ablation — object-layout sensitivity: 32-bit vs 64-bit JVM model.
///
/// The paper's byte arithmetic (§2.3's 24-byte hash entry) assumes a
/// 32-bit JVM. On a 64-bit layout (16-byte headers, 8-byte references)
/// every per-entry overhead doubles, so Chameleon's replacements should
/// save *more*, not less — the bloat problem worsens with pointer width.
/// This sweep re-runs the minimal-heap experiment for TVLA and FindBugs
/// under both layouts; the jvm32 rows are the Fig. 6 pipelines.
pub(super) fn layout64(r: &Results, out: &Out) {
    head(
        out,
        "Ablation — layout sensitivity (paper model: 32-bit JVM)",
        84,
        "benchmark  layout      before(B)     after(B)  improvement",
    );
    for w in ["tvla", "findbugs"] {
        for (name, job) in [("jvm32", Job::Pipeline(w)), ("jvm64", Job::Pipeline64(w))] {
            let result = &r.pipeline(job).result;
            outln!(
                out,
                "{:<10} {:<8} {:>12} {:>12} {:>12}",
                result.name,
                name,
                result.min_heap_before,
                result.min_heap_after,
                pct(result.space_improvement().pct()),
            );
        }
    }
    out.hr(84);
    outln!(
        out,
        "(note: the minimal-heap searches re-run under the profiling layout, so the"
    );
    outln!(
        out,
        " 64-bit rows measure an end-to-end 64-bit pipeline, not a unit conversion)"
    );
}
