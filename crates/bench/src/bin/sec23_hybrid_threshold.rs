//! §2.3 — the hybrid-collection study: convert an array-backed map to a
//! hash map once it crosses a size threshold. The paper's finding on TVLA:
//! "making the conversion of ArrayMap to HashMap at size 16 provides a
//! relatively low footprint with 8% performance degradation. However,
//! increasing the conversion size to a larger number than 16 does not
//! provide a smaller footprint ... Moreover, reducing the conversion size
//! to 13 provides the same footprint as the original implementation."
//!
//! The crossover exists because the application's map sizes cluster just
//! *below* 16: a threshold of 13 converts nearly every map to a hash table
//! (no saving); 16 keeps them array-backed (big saving, linear-probe time
//! cost); beyond 16 the pre-sized array only adds slack.

use chameleon_bench::out::Out;
use chameleon_bench::outln;
use chameleon_bench::pct;
use chameleon_collections::factory::Selection;
use chameleon_collections::{CollectionFactory, MapChoice};
use chameleon_core::{min_heap_size, Env, EnvConfig, PortableChoice, PortableUpdate, Workload};

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

fn policy(choice: MapChoice) -> Vec<PortableUpdate> {
    vec![PortableUpdate {
        src_type: "HashMap".to_owned(),
        frames: vec!["tvla.core.base.BaseTVS:50".to_owned()],
        kind: PortableChoice::Map(Selection {
            choice,
            capacity: None,
        }),
    }]
}

fn measure(updates: &[PortableUpdate]) -> (u64, u64) {
    let w = conversion_workload();
    let min_heap = min_heap_size(&w, updates, 256 * 1024);
    // Time at a fixed generous heap so the comparison isolates operation
    // costs (the paper reports "performance degradation" of the hybrid).
    let env = Env::new(&EnvConfig::measured(8 * 1024 * 1024));
    env.apply_policy(updates);
    env.run(&w);
    (min_heap, env.metrics().sim_time)
}

fn main() {
    let out = Out::new("sec23_hybrid_threshold");
    let (base_heap, base_time) = measure(&[]);
    outln!(
        out,
        "§2.3 — ArrayMap→HashMap conversion-threshold sweep (map sizes 12-15)"
    );
    out.hr(76);
    outln!(
        out,
        "{:<26} {:>11} {:>10} {:>12} {:>10}",
        "configuration",
        "minheap(B)",
        "Δspace",
        "time(units)",
        "Δtime"
    );
    out.hr(76);
    outln!(
        out,
        "{:<26} {:>11} {:>10} {:>12} {:>10}",
        "HashMap (original)",
        base_heap,
        "-",
        base_time,
        "-"
    );
    for threshold in [8usize, 13, 16, 24, 32] {
        let (h, t) = measure(&policy(MapChoice::SizeAdapting(threshold)));
        outln!(
            out,
            "{:<26} {:>11} {:>10} {:>12} {:>10}",
            format!("SizeAdaptingMap({threshold})"),
            h,
            pct(100.0 * (base_heap as f64 - h as f64) / base_heap as f64),
            t,
            pct(100.0 * (t as f64 - base_time as f64) / base_time as f64),
        );
    }
    let (h, t) = measure(&policy(MapChoice::ArrayMap));
    outln!(
        out,
        "{:<26} {:>11} {:>10} {:>12} {:>10}",
        "ArrayMap (no conversion)",
        h,
        pct(100.0 * (base_heap as f64 - h as f64) / base_heap as f64),
        t,
        pct(100.0 * (t as f64 - base_time as f64) / base_time as f64),
    );
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
