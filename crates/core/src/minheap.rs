//! Minimal-heap-size search.
//!
//! The paper evaluates space savings as "the minimal heap size required to
//! run the program" (§5.2): shrink the heap until the program throws
//! `OutOfMemoryError`. Measured runs collect exactly (mark-and-sweep, no
//! allocation-driven GC), so a run completes under capacity `C` exactly when
//! `C ≥ M`, where `M` is the largest `live bytes + request` over the run's
//! allocations. The reported size is the one a bisection to
//! [`MIN_HEAP_STEP`] over probe runs would find, `answer(M)` (see
//! [`bisection_answer`]); the search gets it from two runs instead:
//!
//! - **Replay by arithmetic.** [`bisection_answer`] replays the bisection's
//!   doubling and halving against the predicate `c ≥ m`. It is monotone in
//!   `m`, at least `m`, and a fixed point on its own results.
//! - **Bounds from the heap.** Every capacity-pressure GC records
//!   `need = live after GC + request` ([`Heap::peak_need`]), and every need
//!   is at most `M`. A *bracket* run from capacity 0 on an elastic heap,
//!   which grows to `need + need / 8` where it would run out
//!   ([`Heap::set_elastic`]), yields a lower bound `L` (its largest need)
//!   and an upper bound `U` (its final capacity). If
//!   `answer(L) == answer(U)`, that is `answer(M)`.
//! - **One near-minimum run.** Otherwise a second run starts at
//!   `answer(L)` and, where it would run out, grows only to
//!   `answer(need)`. Every cap it takes is at most `answer(M)`, and it
//!   completes under its final cap `F`, so `M ≤ F ≤ answer(M)`; `F` is a
//!   fixed point of `answer`, hence `F == answer(M)`.
//!
//! A run's GC work grows roughly like `1 / (C − M)` as its cap `C`
//! approaches `M` (the heap-limit/GC-time law of Kirisame et al.), so the
//! search pays for one near-minimum run where the bisection paid for four
//! or five. No run stops at a would-be `OutOfMemoryError`: they all grow
//! and finish, so the search needs no panic and no `catch_unwind`.
//!
//! [`Heap::peak_need`]: chameleon_heap::Heap::peak_need
//! [`Heap::set_elastic`]: chameleon_heap::Heap::set_elastic

use crate::env::{Env, EnvConfig, PortableUpdate};
use crate::workload::Workload;
use chameleon_heap::Growth;

/// Granularity of the search in bytes.
pub const MIN_HEAP_STEP: u64 = 1024;

/// Growth of the bracket run and of [`completes_under`]: 1/8 slack keeps
/// GC pressure low once a run has outgrown its cap.
fn with_slack(need: u64) -> u64 {
    need + need / 8
}

/// What one run on an elastic heap observed.
struct Elastic {
    /// Largest need at a capacity-pressure GC (a lower bound on `M`).
    peak_need: u64,
    /// The cap at the end of the run (an upper bound on `M`).
    final_capacity: u64,
}

/// Runs `workload` with `policy` on a heap starting at `capacity` that
/// grows by `grow` where it would run out, under the measured-run protocol
/// (layout model, cost model and GC threads from `template`).
fn run_elastic(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    capacity: u64,
    template: &EnvConfig,
    grow: Growth,
) -> Elastic {
    let env = Env::new(&EnvConfig {
        model: template.model,
        cost: template.cost,
        gc_threads: template.gc_threads,
        ..EnvConfig::measured(capacity)
    });
    env.heap.set_elastic(Some(grow));
    env.apply_policy(policy);
    env.run(workload);
    Elastic {
        peak_need: env.heap.peak_need(),
        final_capacity: env.heap.capacity().unwrap_or(capacity),
    }
}

/// Runs `workload` under `capacity` with `policy`; returns whether it
/// completed without running out of heap.
pub fn completes_under(workload: &dyn Workload, policy: &[PortableUpdate], capacity: u64) -> bool {
    completes_under_with(workload, policy, capacity, &EnvConfig::default())
}

/// [`completes_under`] with an environment template (layout model, cost
/// model and GC threads are taken from `template`; capacity, capture and
/// profiling follow the measured-run protocol).
pub fn completes_under_with(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    capacity: u64,
    template: &EnvConfig,
) -> bool {
    // An elastic heap's cap only ever grows where a plain one would OOM.
    let run = run_elastic(workload, policy, capacity, template, Box::new(with_slack));
    run.final_capacity == capacity
}

/// The capacity the [`MIN_HEAP_STEP`] bisection seeded with `hint` returns
/// when a run completes under `c` exactly when `c ≥ m`.
///
/// The bisection starts at `max(hint, 64 KiB)`, doubles until the run
/// completes, then halves `(0, hi]` until it is at most [`MIN_HEAP_STEP`]
/// wide. This replays it with arithmetic only. The result is monotone in
/// `m`, at least `m`, and its own answer.
///
/// # Panics
///
/// Panics if `m` needs a heap of 1 TiB or more, as the bisection does.
pub fn bisection_answer(m: u64, hint: u64) -> u64 {
    let mut hi = hint.max(64 * 1024);
    while hi < m {
        hi = hi.saturating_mul(2);
        assert!(
            hi < (1 << 40),
            "workload does not complete even with a 1 TiB heap"
        );
    }
    let mut lo = 0u64;
    while hi - lo > MIN_HEAP_STEP {
        let mid = lo + (hi - lo) / 2;
        if mid >= m {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The minimal heap capacity (to [`MIN_HEAP_STEP`] granularity) at which
/// `workload` completes with `policy` applied.
///
/// `hint` seeds the bisection whose answer this returns (e.g. the
/// profiling run's peak live bytes; see [`bisection_answer`]).
pub fn min_heap_size(workload: &dyn Workload, policy: &[PortableUpdate], hint: u64) -> u64 {
    min_heap_size_with(workload, policy, hint, &EnvConfig::default())
}

/// [`min_heap_size`] with an environment template (see
/// [`completes_under_with`]).
pub fn min_heap_size_with(
    workload: &dyn Workload,
    policy: &[PortableUpdate],
    hint: u64,
    template: &EnvConfig,
) -> u64 {
    let answer = |m: u64| bisection_answer(m, hint);
    let bracket = run_elastic(workload, policy, 0, template, Box::new(with_slack));
    let (lower, upper) = (bracket.peak_need, bracket.final_capacity);
    if answer(lower) == answer(upper) {
        return answer(upper);
    }
    let grow = Box::new(move |need| bisection_answer(need, hint));
    run_elastic(workload, policy, answer(lower), template, grow).final_capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_collections::CollectionFactory;

    /// Keeps `n` maps of 4 entries alive simultaneously.
    fn pinned_maps(n: usize) -> impl Workload {
        ("pinned", move |f: &CollectionFactory| {
            let _g = f.enter("P.site:1");
            let mut keep = Vec::new();
            for _ in 0..n {
                let mut m = f.new_map::<i64, i64>(None);
                for i in 0..4 {
                    m.put(i, i);
                }
                keep.push(m);
            }
        })
    }

    #[test]
    fn completes_detects_oom() {
        let w = pinned_maps(50);
        assert!(completes_under(&w, &[], 64 * 1024 * 1024));
        assert!(!completes_under(&w, &[], 4 * 1024));
    }

    #[test]
    fn min_heap_scales_with_live_data() {
        let small = min_heap_size(&pinned_maps(20), &[], 64 * 1024);
        let large = min_heap_size(&pinned_maps(100), &[], 64 * 1024);
        assert!(
            large > small + 3 * MIN_HEAP_STEP,
            "5x live data must need a bigger heap: {small} vs {large}"
        );
        // Sanity: both complete at their reported minimum and fail at
        // noticeably less.
        let w = pinned_maps(20);
        assert!(completes_under(&w, &[], small));
        assert!(!completes_under(&w, &[], small / 2));
    }

    #[test]
    fn policy_reduces_min_heap() {
        use crate::env::{PortableChoice, PortableUpdate};
        use chameleon_collections::factory::Selection;
        use chameleon_collections::MapChoice;
        let w = pinned_maps(100);
        let before = min_heap_size(&w, &[], 64 * 1024);
        let policy = vec![PortableUpdate {
            src_type: "HashMap".to_owned(),
            frames: vec!["P.site:1".to_owned()],
            kind: PortableChoice::Map(Selection {
                choice: MapChoice::ArrayMap,
                capacity: Some(4),
            }),
        }];
        let after = min_heap_size(&w, &policy, 64 * 1024);
        assert!(
            after < before,
            "ArrayMap policy must shrink the minimal heap ({before} -> {after})"
        );
    }
}
