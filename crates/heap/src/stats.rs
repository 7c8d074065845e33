//! GC-cycle statistics (the paper's Table 3) and their aggregation across
//! cycles (the heap rows of Table 1).

use crate::context::ContextId;
use crate::object::ClassId;
use std::collections::HashMap;
use std::fmt;

/// Live/used/core byte totals plus a collection-object count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdtTotals {
    /// Bytes occupied by collection objects and their internals.
    pub live: u64,
    /// Live bytes minus unused capacity (empty array slots / buckets).
    pub used: u64,
    /// Ideal bytes: a pointer array holding exactly the content.
    pub core: u64,
    /// Number of (top-level) collection objects.
    pub count: u64,
}

impl AdtTotals {
    /// Component-wise sum.
    pub fn add(&mut self, other: AdtTotals) {
        self.live += other.live;
        self.used += other.used;
        self.core += other.core;
        self.count += other.count;
    }

    /// Component-wise maximum.
    pub fn max_with(&mut self, other: AdtTotals) {
        self.live = self.live.max(other.live);
        self.used = self.used.max(other.used);
        self.core = self.core.max(other.core);
        self.count = self.count.max(other.count);
    }
}

/// Statistics of one GC cycle — the per-cycle rows of the paper's Table 3.
///
/// `PartialEq` compares every field; the GC equivalence tests use it to
/// assert that parallel and sequential cycles produce byte-identical stats.
///
/// A cycle of an elastic heap (see `Heap::set_elastic`) carries totals
/// only: `cycle`, `at_units`, the live and swept totals and
/// `pause_cost_units` are as on a plain heap, while `collection` is the
/// default and `per_context` and `type_distribution` are empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Cycle ordinal (1-based).
    pub cycle: u64,
    /// Simulated-clock reading when the cycle ran (0 if no clock attached).
    pub at_units: u64,
    /// Size of all reachable objects.
    pub live_bytes: u64,
    /// Number of reachable objects.
    pub live_objects: u64,
    /// Bytes reclaimed by the sweep.
    pub swept_bytes: u64,
    /// Objects reclaimed by the sweep.
    pub swept_objects: u64,
    /// Simulated cost units the cycle's stop-the-world pause charged — a
    /// pure function of `GcConfig` and live bytes, recorded even when no
    /// clock is attached.
    pub pause_cost_units: u64,
    /// Collection totals over the whole heap.
    pub collection: AdtTotals,
    /// Collection totals per allocation context.
    pub per_context: Vec<(ContextId, AdtTotals)>,
    /// Live-size breakdown per class: `(class, bytes, objects)`.
    pub type_distribution: Vec<(ClassId, u64, u64)>,
}

impl CycleStats {
    /// Percentage (0–100) of live data occupied by collections.
    pub fn collection_live_pct(&self) -> f64 {
        pct(self.collection.live, self.live_bytes)
    }

    /// Percentage (0–100) of live data that is *used* collection space.
    pub fn collection_used_pct(&self) -> f64 {
        pct(self.collection.used, self.live_bytes)
    }

    /// Percentage (0–100) of live data that is *core* collection space.
    pub fn collection_core_pct(&self) -> f64 {
        pct(self.collection.core, self.live_bytes)
    }

    /// Multi-line summary with a per-class top-`top_n` live-size breakdown;
    /// `class_name` resolves ids to display names. The first line is the
    /// [`fmt::Display`] rendering.
    pub fn format_summary(&self, class_name: &dyn Fn(ClassId) -> String, top_n: usize) -> String {
        let mut out = format!("{self}\n");
        let mut by_size: Vec<_> = self.type_distribution.clone();
        by_size.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
        for (class, bytes, objects) in by_size.into_iter().take(top_n) {
            out.push_str(&format!(
                "  {:>10} B  {:>8} objs  {}\n",
                bytes,
                objects,
                class_name(class)
            ));
        }
        out
    }
}

impl fmt::Display for CycleStats {
    /// One-line cycle summary: pause cost, live/swept totals and the
    /// collection live/used/core triple.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {} @ {} units: pause {} units, live {} B / {} objs, \
             swept {} B / {} objs, collections live {} B used {} B core {} B ({} objs, {:.1}% of live)",
            self.cycle,
            self.at_units,
            self.pause_cost_units,
            self.live_bytes,
            self.live_objects,
            self.swept_bytes,
            self.swept_objects,
            self.collection.live,
            self.collection.used,
            self.collection.core,
            self.collection.count,
            self.collection_live_pct(),
        )
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Aggregation of cycle statistics over a whole run — the heap-derived rows
/// of the paper's Table 1 ("Total/Max size of …", accumulated over all GC
/// cycles).
#[derive(Debug, Clone, Default)]
pub struct HeapAggregate {
    /// Number of cycles aggregated.
    pub cycles: u64,
    /// Sum of live bytes over all cycles ("Overall live data, Total").
    pub total_live: u64,
    /// Largest live bytes seen in any cycle ("Overall live data, Max").
    pub max_live: u64,
    /// Sums of collection live/used/core/count over all cycles.
    pub total: AdtTotals,
    /// Maxima of collection live/used/core/count over cycles.
    pub max: AdtTotals,
}

impl HeapAggregate {
    /// Aggregates a run's cycle list.
    pub fn from_cycles(cycles: &[CycleStats]) -> Self {
        let mut agg = HeapAggregate::default();
        for c in cycles {
            agg.cycles += 1;
            agg.total_live += c.live_bytes;
            agg.max_live = agg.max_live.max(c.live_bytes);
            agg.total.add(c.collection);
            agg.max.max_with(c.collection);
        }
        agg
    }

    /// The paper's headline potential: total live minus total used bytes of
    /// collections, i.e. space allocated by collections but not storing
    /// entries.
    pub fn total_potential(&self) -> u64 {
        self.total.live.saturating_sub(self.total.used)
    }
}

/// Per-context aggregation over cycles: total and max of the collection
/// metrics attributed to each allocation context.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContextHeapStats {
    /// Sums over all cycles.
    pub total: AdtTotals,
    /// Maxima over cycles.
    pub max: AdtTotals,
}

impl ContextHeapStats {
    /// Potential saving for this context: total live − total used.
    pub fn potential(&self) -> u64 {
        self.total.live.saturating_sub(self.total.used)
    }
}

/// Builds the per-context aggregate table from a run's cycles.
pub fn aggregate_contexts(cycles: &[CycleStats]) -> HashMap<ContextId, ContextHeapStats> {
    let mut out: HashMap<ContextId, ContextHeapStats> = HashMap::new();
    for c in cycles {
        for (ctx, totals) in &c.per_context {
            let e = out.entry(*ctx).or_default();
            e.total.add(*totals);
            e.max.max_with(*totals);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(live: u64, coll: AdtTotals, per_ctx: Vec<(ContextId, AdtTotals)>) -> CycleStats {
        CycleStats {
            live_bytes: live,
            collection: coll,
            per_context: per_ctx,
            ..CycleStats::default()
        }
    }

    #[test]
    fn percentages() {
        let c = cycle(
            1000,
            AdtTotals {
                live: 700,
                used: 400,
                core: 200,
                count: 10,
            },
            vec![],
        );
        assert!((c.collection_live_pct() - 70.0).abs() < 1e-9);
        assert!((c.collection_used_pct() - 40.0).abs() < 1e-9);
        assert!((c.collection_core_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn percentages_of_empty_heap_are_zero() {
        let c = CycleStats::default();
        assert_eq!(c.collection_live_pct(), 0.0);
    }

    #[test]
    fn display_and_summary_render_totals() {
        let c = CycleStats {
            cycle: 3,
            at_units: 1_000,
            live_bytes: 2_000,
            live_objects: 20,
            swept_bytes: 500,
            swept_objects: 5,
            pause_cost_units: 51_200,
            collection: AdtTotals {
                live: 1_000,
                used: 600,
                core: 300,
                count: 4,
            },
            per_context: vec![],
            type_distribution: vec![
                (ClassId(0), 1_500, 10),
                (ClassId(1), 300, 6),
                (ClassId(2), 200, 4),
            ],
        };
        let line = c.to_string();
        assert!(line.contains("cycle 3 @ 1000 units"), "{line}");
        assert!(line.contains("pause 51200 units"), "{line}");
        assert!(line.contains("live 2000 B / 20 objs"), "{line}");
        assert!(line.contains("50.0% of live"), "{line}");

        let summary = c.format_summary(&|c| format!("Class{}", c.0), 2);
        assert!(summary.starts_with(&line));
        assert!(summary.contains("Class0"), "{summary}");
        assert!(summary.contains("Class1"), "{summary}");
        assert!(!summary.contains("Class2"), "top-2 only: {summary}");
    }

    #[test]
    fn aggregate_totals_and_maxima() {
        let c1 = cycle(
            100,
            AdtTotals {
                live: 60,
                used: 30,
                core: 10,
                count: 2,
            },
            vec![],
        );
        let c2 = cycle(
            80,
            AdtTotals {
                live: 70,
                used: 20,
                core: 15,
                count: 1,
            },
            vec![],
        );
        let agg = HeapAggregate::from_cycles(&[c1, c2]);
        assert_eq!(agg.cycles, 2);
        assert_eq!(agg.total_live, 180);
        assert_eq!(agg.max_live, 100);
        assert_eq!(agg.total.live, 130);
        assert_eq!(agg.max.live, 70);
        assert_eq!(agg.max.used, 30);
        assert_eq!(agg.total_potential(), 130 - 50);
    }

    #[test]
    fn per_context_aggregation() {
        let ctx_a = ContextId(0);
        let ctx_b = ContextId(1);
        let t = |l, u| AdtTotals {
            live: l,
            used: u,
            core: 0,
            count: 1,
        };
        let c1 = cycle(
            0,
            AdtTotals::default(),
            vec![(ctx_a, t(50, 20)), (ctx_b, t(10, 10))],
        );
        let c2 = cycle(0, AdtTotals::default(), vec![(ctx_a, t(30, 25))]);
        let per = aggregate_contexts(&[c1, c2]);
        assert_eq!(per[&ctx_a].total.live, 80);
        assert_eq!(per[&ctx_a].max.live, 50);
        assert_eq!(per[&ctx_a].potential(), 80 - 45);
        assert_eq!(per[&ctx_b].total.live, 10);
        assert_eq!(per[&ctx_b].potential(), 0);
    }
}
