//! Tables that run their own experiments, which no other table reads. Each
//! renders whole inside one job of the paper runner.

use super::{head, pct};
use crate::out::Out;
use crate::outln;
use chameleon_collections::factory::{CaptureConfig, CaptureMethod, Selection};
use chameleon_collections::{CollectionFactory, MapChoice};
use chameleon_core::{
    min_heap_size, portable_updates, run_online, Chameleon, Env, EnvConfig, OnlineConfig,
    PortableChoice, PortableUpdate, Workload,
};
use chameleon_profiler::StabilityConfig;
use chameleon_rules::RuleEngine;
use chameleon_workloads::{paper_benchmarks, Bloat, Tvla};
use std::sync::Arc;

/// Simulated time of one run of `w` under `config` with `policy` applied.
fn sim_time(w: &dyn Workload, config: &EnvConfig, policy: &[PortableUpdate]) -> u64 {
    let env = Env::new(config);
    env.apply_policy(policy);
    env.run(w);
    env.metrics().sim_time
}

/// No context capture and no profiling: the uninstrumented baseline.
fn uninstrumented() -> EnvConfig {
    EnvConfig {
        capture: CaptureConfig {
            method: CaptureMethod::None,
            ..CaptureConfig::default()
        },
        profiling: false,
        ..EnvConfig::default()
    }
}

/// Replaces the HashMaps allocated at `frame` with `choice`.
fn map_policy(frame: &str, choice: MapChoice) -> Vec<PortableUpdate> {
    vec![PortableUpdate {
        src_type: "HashMap".to_owned(),
        frames: vec![frame.to_owned()],
        kind: PortableChoice::Map(Selection {
            choice,
            capacity: None,
        }),
    }]
}

/// Fig. 8 — Percentage of live data occupied by collections in the
/// original version of bloat, per GC cycle. The paper's figure shows a
/// spike (at GC#656 on their trace) where "around 25% of the heap ... was
/// consumed by LinkedList$Entry objects allocated as the head of an empty
/// linked list".
pub(super) fn fig8(out: &Out) {
    let env = Env::new(&EnvConfig {
        gc_interval_bytes: Some(64 * 1024),
        ..EnvConfig::default()
    });
    env.run(&Bloat::default());
    let report = env.report();

    head(
        out,
        "Fig. 8 — bloat: collection share of live data per GC cycle",
        70,
        " cycle      live(B)    coll%  chart",
    );
    for p in &report.series {
        let bars = (p.live_pct / 2.0).round() as usize;
        outln!(
            out,
            "{:>6} {:>12} {:>7.1}%  {}",
            p.cycle,
            p.heap_live,
            p.live_pct,
            "#".repeat(bars)
        );
    }
    out.hr(70);

    // Quantify the paper's "25% of the heap = empty-list entries" claim at
    // the spike cycle.
    let spike = report
        .series
        .iter()
        .max_by(|a, b| a.heap_live.cmp(&b.heap_live))
        .expect("cycles recorded");
    let cycles = env.heap.cycles();
    let spike_cycle = cycles
        .iter()
        .find(|c| c.cycle == spike.cycle)
        .expect("spike cycle recorded");
    let entry_class = env.heap.register_class("LinkedList$Entry", None);
    let entry_bytes = spike_cycle
        .type_distribution
        .iter()
        .find(|(c, _, _)| *c == entry_class)
        .map(|(_, b, _)| *b)
        .unwrap_or(0);
    outln!(
        out,
        "at the spike (cycle {}): LinkedList$Entry = {} B = {:.1}% of live data \
         (paper: ~25%)",
        spike.cycle,
        entry_bytes,
        100.0 * entry_bytes as f64 / spike_cycle.live_bytes as f64
    );
}

/// TVLA-like conversion-study workload: retained maps whose sizes cluster
/// just under 16 (12-15), plus a 10% tail of large maps (size 40) — the
/// paper's warning that "even a single collection with large size may
/// considerably degrade program performance" under a pure array choice.
fn conversion_workload() -> impl Workload {
    ("sec23", |f: &CollectionFactory| {
        let _g = f.enter("tvla.core.base.BaseTVS:50");
        let mut keep = Vec::new();
        for i in 0..1200usize {
            let mut m = f.new_map::<i64, i64>(None);
            let n = if i % 10 == 0 { 40 } else { 12 + (i % 4) };
            for k in 0..n {
                m.put(k as i64, (i + k) as i64);
            }
            keep.push(m);
        }
        // Read-dominated phase: many lookups per map, uniform over the
        // map's contents.
        for (i, m) in keep.iter().enumerate() {
            let n = if i % 10 == 0 { 40 } else { 12 + (i % 4) };
            for pass in 0..150 {
                let _ = m.get(&(((pass * 7) % n) as i64));
            }
        }
    })
}

fn measure(choice: Option<MapChoice>) -> (u64, u64) {
    let w = conversion_workload();
    let policy = choice.map_or(Vec::new(), |c| map_policy("tvla.core.base.BaseTVS:50", c));
    let min_heap = min_heap_size(&w, &policy, 256 * 1024);
    // Time at a fixed generous heap so the comparison isolates operation
    // costs (the paper reports "performance degradation" of the hybrid).
    let config = EnvConfig::measured(8 * 1024 * 1024);
    (min_heap, sim_time(&w, &config, &policy))
}

/// §2.3 — the hybrid-collection study: convert an array-backed map to a
/// hash map once it crosses a size threshold. The paper's finding on TVLA:
/// "making the conversion of ArrayMap to HashMap at size 16 provides a
/// relatively low footprint with 8% performance degradation. However,
/// increasing the conversion size to a larger number than 16 does not
/// provide a smaller footprint ... Moreover, reducing the conversion size
/// to 13 provides the same footprint as the original implementation."
///
/// The crossover exists because the application's map sizes cluster just
/// *below* 16: a threshold of 13 converts nearly every map to a hash table
/// (no saving); 16 keeps them array-backed (big saving, linear-probe time
/// cost); beyond 16 the pre-sized array only adds slack.
pub(super) fn sec23(out: &Out) {
    let (base_heap, base_time) = measure(None);
    head(
        out,
        "§2.3 — ArrayMap→HashMap conversion-threshold sweep (map sizes 12-15)",
        76,
        "configuration               minheap(B)     Δspace  time(units)      Δtime",
    );
    outln!(
        out,
        "{:<26} {:>11} {:>10} {:>12} {:>10}",
        "HashMap (original)",
        base_heap,
        "-",
        base_time,
        "-"
    );
    let thresholds = [8usize, 13, 16, 24, 32]
        .map(|t| (format!("SizeAdaptingMap({t})"), MapChoice::SizeAdapting(t)));
    let no_conversion = ("ArrayMap (no conversion)".to_owned(), MapChoice::ArrayMap);
    for (label, choice) in thresholds.into_iter().chain([no_conversion]) {
        let (h, t) = measure(Some(choice));
        outln!(
            out,
            "{:<26} {:>11} {:>10} {:>12} {:>10}",
            label,
            h,
            pct(100.0 * (base_heap as f64 - h as f64) / base_heap as f64),
            t,
            pct(100.0 * (t as f64 - base_time as f64) / base_time as f64),
        );
    }
    out.hr(76);
    outln!(
        out,
        "paper: threshold 16 → low footprint at +8% time; 13 → no footprint gain;"
    );
    outln!(
        out,
        "       >16 → no further footprint gain and growing time degradation"
    );
}

/// §5.4 — Fully-automatic online replacement: Chameleon replaces
/// implementations while the program runs, paying context capture on every
/// collection allocation.
///
/// Paper: "for most benchmarks, the overall slowdown was noticeable, but
/// not prohibitive"; TVLA slowed 35% with **space saving identical to the
/// manual modification**; the one prohibitive case (6×) was the benchmark
/// performing "massive rapid allocation of short-lived collections", which
/// amplifies the per-allocation capture cost.
///
/// In this reproduction the *mechanism* is identical (capture cost per
/// collection allocation dominates the overhead) but the *ranking* of
/// benchmarks differs: our bloat simulacrum is the most collection-dense
/// per unit of application work, so it takes the prohibitive slot; see
/// EXPERIMENTS.md.
pub(super) fn sec54(out: &Out) {
    head(
        out,
        "§5.4 — fully-automatic online mode: slowdown vs uninstrumented run",
        92,
        "benchmark        baseline         online  slowdown   captures     evals  replaced",
    );
    // Online: capture every allocation, periodic rule evaluation. The
    // paper's online mode applies a winning suggestion at the very next
    // evaluation: confirm_evals 1 and no drift tracker keep this
    // reproduction on those semantics (serve-mode hysteresis is opt-in).
    let online_config = |eval_every_deaths| OnlineConfig {
        env: EnvConfig::default(),
        eval_every_deaths,
        shutoff_below_potential: None,
        confirm_evals: 1,
        min_potential_bytes: 0,
        drift: None,
    };
    let engine = Arc::new(RuleEngine::builtin());
    for w in paper_benchmarks() {
        let baseline = sim_time(w.as_ref(), &uninstrumented(), &[]);
        let result =
            run_online(w.as_ref(), engine.clone(), &online_config(256)).expect("online run");
        let online = result.metrics.sim_time;
        outln!(
            out,
            "{:<10} {:>14} {:>14} {:>8.2}x {:>10} {:>9} {:>9}",
            w.name(),
            baseline,
            online,
            online as f64 / baseline as f64,
            result.metrics.capture_count,
            result.evaluations,
            result.replacements,
        );
    }
    out.hr(92);

    // The paper's space-parity claim: for TVLA, online replacement achieves
    // the same space saving as applying the suggestions manually.
    outln!(
        out,
        "\nTVLA space parity (online vs offline-applied policy):"
    );
    let w = Tvla::default();

    // Offline: profile once, apply the policy, measure minimal heap.
    let penv = Env::new(&EnvConfig::default());
    penv.run(&w);
    let suggestions = engine.evaluate(&penv.report());
    let applicable: Vec<_> = suggestions
        .into_iter()
        .filter(|s| s.auto_applicable())
        .collect();
    let policy = portable_updates(&applicable, &penv.heap);
    let baseline_min = min_heap_size(&w, &[], 128 * 1024);
    let offline_min = min_heap_size(&w, &policy, 128 * 1024);

    // Online: one run that converges on a policy; measure the minimal heap
    // under the converged decisions.
    let online = run_online(&w, engine, &online_config(128)).expect("online run");
    let online_min = min_heap_size(&w, &online.converged_policy, 128 * 1024);

    outln!(out, "  original min heap: {baseline_min} B");
    outln!(
        out,
        "  offline policy:    {offline_min} B ({:.1}% saving)",
        100.0 * (baseline_min - offline_min) as f64 / baseline_min as f64
    );
    outln!(
        out,
        "  online policy:     {online_min} B ({:.1}% saving; paper: identical to manual)",
        100.0 * (baseline_min.saturating_sub(online_min)) as f64 / baseline_min as f64
    );
}

/// Ablation — partial allocation-context depth (§3.2.1).
///
/// The paper uses call stacks of depth 2 or 3 because "the full allocation
/// context is rarely needed, and maintaining it is often too expensive",
/// yet depth 1 (allocation site only) cannot see through collection
/// factories. TVLA allocates all its HashMaps through `HashMapFactory`, so
/// at depth 1 all seven logical contexts collapse into one — and its merged
/// statistics blur the per-site size profile.
pub(super) fn context_depth(out: &Out) {
    head(
        out,
        "Ablation — context depth vs suggestion quality (TVLA, factory-heavy)",
        78,
        "depth     map contexts    suggestions  auto-applicable       captures",
    );
    for depth in [1usize, 2, 3, 4] {
        let cfg = EnvConfig {
            capture: CaptureConfig {
                depth,
                ..CaptureConfig::default()
            },
            ..EnvConfig::default()
        };
        let chameleon = Chameleon::new().with_profile_config(cfg);
        let report = chameleon.profile(&Tvla::default());
        let map_contexts = report
            .contexts
            .iter()
            .filter(|c| c.src_type == "HashMap")
            .count();
        let suggestions = chameleon.engine().evaluate(&report);
        let applicable = suggestions.iter().filter(|s| s.auto_applicable()).count();
        outln!(
            out,
            "{:<7} {:>14} {:>14} {:>16} {:>14}",
            depth,
            map_contexts,
            suggestions.len(),
            applicable,
            report.contexts.len(),
        );
    }
    out.hr(78);
    outln!(
        out,
        "paper: depth 1 cannot disambiguate factory allocations; 2-3 suffices"
    );
}

/// Ablation — allocation-context sampling (§4.2).
///
/// "To further mitigate the cost of obtaining the allocation context,
/// CHAMELEON can employ sampling of the allocation contexts." This ablation
/// sweeps the sampling period on the allocation-heavy bloat workload and
/// reports the overhead/coverage trade: capture cost shrinks linearly while
/// the top contexts remain discoverable well past 1-in-10 sampling.
pub(super) fn sampling(out: &Out) {
    let w = Bloat::default();
    let baseline = sim_time(&w, &uninstrumented(), &[]);
    head(
        out,
        "Ablation — context-capture sampling (bloat, Throwable capture)",
        86,
        "sample 1/N     captures     overhead   contexts    suggestions top-site found",
    );
    for period in [1u32, 2, 10, 50, 200] {
        let cfg = EnvConfig {
            capture: CaptureConfig {
                method: CaptureMethod::Throwable,
                sample_every: period,
                ..CaptureConfig::default()
            },
            ..EnvConfig::default()
        };
        let chameleon = Chameleon::new().with_profile_config(cfg.clone());
        let env = Env::new(&cfg);
        env.run(&w);
        let report = env.report();
        let time = env.metrics().sim_time;
        let suggestions = chameleon.engine().evaluate(&report);
        let found_top = suggestions
            .iter()
            .any(|s| s.label.contains("bloat.cfg.Block"));
        outln!(
            out,
            "{:<12} {:>10} {:>11.1}% {:>10} {:>14} {:>14}",
            format!("1/{period}"),
            env.metrics().capture_count,
            100.0 * (time as f64 - baseline as f64) / baseline as f64,
            report.contexts.len(),
            suggestions.len(),
            found_top,
        );
    }
    out.hr(86);
    outln!(
        out,
        "paper: sampling trades profiling overhead for attribution coverage"
    );
}

fn bimodal() -> impl Workload {
    ("bimodal", |f: &CollectionFactory| {
        let _g = f.enter("bimodal.Site:1");
        let mut keep = Vec::new();
        for i in 0..300usize {
            let mut m = f.new_map::<i64, i64>(None);
            let n = if i % 10 == 0 { 600 } else { 2 };
            for k in 0..n {
                m.put(k as i64, k as i64);
            }
            // Read phase proportional to content.
            for k in 0..n {
                let _ = m.get(&(k as i64));
            }
            keep.push(m);
        }
    })
}

/// Ablation — the Definition 3.1 stability gate.
///
/// "If the tool replaces the type allocated at a given context from a
/// HashMap to an ArrayMap on the premise that objects allocated at that
/// context have small maximal sizes, even a single collection with large
/// size may considerably degrade program performance" (§3.3.2). This
/// ablation runs a bimodal workload (90% tiny maps, 10% enormous ones) with
/// the gate on and off and measures the time consequence of the ungated
/// replacement.
pub(super) fn stability(out: &Out) {
    let w = bimodal();
    outln!(
        out,
        "Ablation — stability gate on a bimodal context (90% size-2, 10% size-600)"
    );
    out.hr(70);

    // Profile once.
    let env = Env::new(&EnvConfig::default());
    env.run(&w);
    let report = env.report();
    let ctx = &report.contexts[0];
    outln!(
        out,
        "context {}: avg maxSize {:.1}, std {:.1} -> stable? {}",
        ctx.label,
        ctx.trace.max_size_avg(),
        ctx.trace.max_size_std(),
        StabilityConfig::default().size_stable(&ctx.trace)
    );

    // Gated engine (default): what does it suggest?
    let gated = RuleEngine::builtin();
    let gated_suggestions = gated.evaluate(&report);
    outln!(
        out,
        "\nwith stability gate ({} suggestion(s)):",
        gated_suggestions.len()
    );
    for s in &gated_suggestions {
        outln!(out, "  {s}");
    }

    // Ungated engine: effectively disable the gate.
    let mut ungated = RuleEngine::builtin();
    ungated.set_stability(StabilityConfig {
        size_abs_threshold: f64::INFINITY,
        size_rel_threshold: 0.0,
        op_rel_threshold: None,
    });
    let ungated_suggestions = ungated.evaluate(&report);
    outln!(
        out,
        "\nwithout stability gate ({} suggestion(s)):",
        ungated_suggestions.len()
    );
    for s in &ungated_suggestions {
        outln!(out, "  {s}");
    }

    // Consequence: force the ungated ArrayMap choice and measure time,
    // against the baseline and the gated choice (SizeAdaptingMap).
    let measured = EnvConfig::measured(16 * 1024 * 1024);
    let baseline = sim_time(&w, &measured, &[]);
    let forced = map_policy("bimodal.Site:1", MapChoice::ArrayMap);
    let degraded = sim_time(&w, &measured, &forced);
    let adaptive = map_policy("bimodal.Site:1", MapChoice::SizeAdapting(16));
    let adapted = sim_time(&w, &measured, &adaptive);

    out.hr(70);
    outln!(out, "time, HashMap baseline:        {baseline:>12} units");
    outln!(
        out,
        "time, ungated ArrayMap:        {degraded:>12} units ({:+.1}%)",
        100.0 * (degraded as f64 - baseline as f64) / baseline as f64
    );
    outln!(
        out,
        "time, gated SizeAdaptingMap:   {adapted:>12} units ({:+.1}%)",
        100.0 * (adapted as f64 - baseline as f64) / baseline as f64
    );
}
