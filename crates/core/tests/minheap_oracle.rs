//! The minimal-heap search against its oracles.
//!
//! - `bisection_answer` against a literal run of the probing bisection it
//!   replaces, over the predicate `c ≥ m`.
//! - `completes_under(C)` against `C ≥` the exact minimum, which a
//!   zero-slack elastic run measures, on small generated workloads.
//! - `min_heap_size` against the probing bisection over real capped runs:
//!   on the small workloads always, and on all six paper workloads at
//!   default scale (before and after policy) in an ignored release-mode
//!   cross-check:
//!
//!   ```text
//!   cargo test --release -p chameleon-core -- --ignored
//!   ```

use chameleon_collections::CollectionFactory;
use chameleon_core::{
    bisection_answer, completes_under, min_heap_size, run_experiment, Env, EnvConfig,
    PortableUpdate, Workload,
};
use chameleon_heap::OutOfMemory;
use chameleon_rules::RuleEngine;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The probing bisection the search replaces, verbatim but for the
/// predicate: double from `max(hint, 64 KiB)` until a run completes, then
/// halve `(0, hi]` down to 1 KiB.
fn bisection(hint: u64, mut completes: impl FnMut(u64) -> bool) -> u64 {
    let mut hi = hint.max(64 * 1024);
    while !completes(hi) {
        hi = hi.saturating_mul(2);
        assert!(
            hi < (1 << 40),
            "workload does not complete even with a 1 TiB heap"
        );
    }
    let mut lo = 0u64;
    while hi - lo > 1024 {
        let mid = lo + (hi - lo) / 2;
        if completes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The bisection's probe: a plain capped run that stops at the simulated
/// `OutOfMemoryError`.
fn completes_without_oom(w: &dyn Workload, policy: &[PortableUpdate], capacity: u64) -> bool {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<OutOfMemory>().is_none() {
                prev(info);
            }
        }));
    });
    let env = Env::new(&EnvConfig::measured(capacity));
    env.apply_policy(policy);
    match catch_unwind(AssertUnwindSafe(|| env.run(w))) {
        Ok(()) => true,
        Err(payload) if payload.downcast_ref::<OutOfMemory>().is_some() => false,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The exact minimal capacity: a run from cap 0 that grows to exactly
/// the need wherever it would run out ends at the largest need, `M`.
fn exact_minimum(w: &dyn Workload) -> u64 {
    let env = Env::new(&EnvConfig::measured(0));
    env.heap.set_elastic(Some(Box::new(|need| need)));
    env.run(w);
    env.heap.capacity().expect("measured runs are capped")
}

/// `(kind, size, drop)`: build a map (kind 0) or list of `size` entries,
/// then maybe drop one kept collection, chosen by `drop`.
type Op = (u32, u32, u32);

fn scripted(ops: Vec<Op>) -> impl Workload {
    ("scripted", move |f: &CollectionFactory| {
        let _g = f.enter("Scripted.run:1");
        let mut maps = Vec::new();
        let mut lists = Vec::new();
        for &(kind, size, drop) in &ops {
            if kind == 0 {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..i64::from(size) {
                    m.put(i, i);
                }
                maps.push(m);
            } else {
                let mut l = f.new_list::<i64>(None);
                for i in 0..i64::from(size) {
                    l.add(i);
                }
                lists.push(l);
            }
            if drop % 3 == 0 && !maps.is_empty() {
                maps.remove(drop as usize % maps.len());
            }
            if drop % 4 == 1 && !lists.is_empty() {
                lists.remove(drop as usize % lists.len());
            }
        }
    })
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u32..2, 0u32..48, 0u32..12), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bisection_answer_replays_the_bisection(
        m in 0u64..(1 << 36),
        dm in 0u64..4096,
        hint in 0u64..(1 << 36),
    ) {
        let answer = bisection_answer(m, hint);
        prop_assert_eq!(answer, bisection(hint, |c| c >= m));
        prop_assert!(answer >= m);
        prop_assert!(bisection_answer(m + dm, hint) >= answer, "monotone in m");
        prop_assert_eq!(bisection_answer(answer, hint), answer, "fixed point");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn completes_exactly_at_and_above_the_exact_minimum(
        ops in ops(),
        offset in 1u64..4096,
    ) {
        let w = scripted(ops);
        let exact = exact_minimum(&w);
        for c in [exact, exact + 1, exact + offset, exact.saturating_sub(offset), exact.saturating_sub(1)] {
            prop_assert_eq!(completes_under(&w, &[], c), c >= exact, "cap {} vs {}", c, exact);
        }
    }

    #[test]
    fn search_equals_the_probing_bisection(ops in ops(), hint in 0u64..(256 * 1024)) {
        let w = scripted(ops);
        let want = bisection(hint, |c| completes_without_oom(&w, &[], c));
        prop_assert_eq!(min_heap_size(&w, &[], hint), want);
    }
}

#[test]
#[ignore = "minutes in release mode: cargo test --release -p chameleon-core -- --ignored"]
fn search_equals_the_probing_bisection_on_every_paper_workload() {
    let engine = RuleEngine::builtin();
    for w in chameleon_workloads::paper_benchmarks() {
        let result = run_experiment(w.as_ref(), &engine, &EnvConfig::default(), None);
        let hint = result.report.peak_live().max(64 * 1024);
        let cases = [
            ("before", &[][..], result.min_heap_before),
            ("after", &result.applied[..], result.min_heap_after),
        ];
        for (when, policy, got) in cases {
            let want = bisection(hint, |c| completes_without_oom(w.as_ref(), policy, c));
            assert_eq!(got, want, "{} {when} policy", w.name());
        }
    }
}
