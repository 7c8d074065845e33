//! The traced side of a round: attaches the program's own `Tracer` and
//! `Telemetry` to an environment through `EnvConfig`, then reads back the
//! spans and `gc_cycle` events the program already emits and folds them
//! into per-layer rows. Nothing here adds a span inside the crates.

use crate::harness::{Layers, Round};
use chameleon_core::EnvConfig;
use chameleon_telemetry::{SpanRecord, Telemetry, Tracer};

/// A tracer and telemetry sink for one traced environment (or one quick
/// experiment). The tracer keeps its default 4096 records per lane; a
/// lost record shows as a `gc` span count below the run's GC count.
pub struct Probe {
    tracer: Tracer,
    telemetry: Telemetry,
}

impl Probe {
    /// A fresh, armed probe.
    pub fn new() -> Self {
        Probe {
            tracer: Tracer::new(),
            telemetry: Telemetry::new(),
        }
    }

    /// `config` with this probe's tracer and telemetry attached.
    pub fn attach(&self, config: EnvConfig) -> EnvConfig {
        EnvConfig {
            tracer: Some(self.tracer.clone()),
            telemetry: Some(self.telemetry.clone()),
            ..config
        }
    }

    /// Folds every span recorded so far into `layers` and returns the
    /// number of `gc` spans and `gc_cycle` events read back:
    ///
    /// * `gc`, `gc_mark`, `gc_scan`, `gc_sweep` → `heap.gc_*_s`;
    /// * `workload` and `partition` spans minus their `gc` children →
    ///   `collections.mutator_s`; `partition` spans → `parallel.worker_busy_s`;
    /// * `merge_partition` → `parallel.merge_s`, `ctx_stripe_wait` →
    ///   `parallel.ctx_stripe_wait_s`;
    /// * the context-intern miss counters → `heap.ctx_intern_misses`.
    pub fn harvest(&self, layers: &mut Layers) -> (u64, u64) {
        let records = self.tracer.records();
        let secs = |r: &SpanRecord| r.dur_ns() as f64 / 1e9;
        let gc_child_s = |parent: u64| -> f64 {
            records
                .iter()
                .filter(|c| c.parent == parent && c.name == "gc")
                .map(secs)
                .sum()
        };
        let mut gc_spans = 0;
        for r in &records {
            match r.name {
                "gc" => {
                    gc_spans += 1;
                    layers.add("heap.gc_s", secs(r));
                }
                "gc_mark" => layers.add("heap.gc_mark_s", secs(r)),
                "gc_scan" => layers.add("heap.gc_scan_s", secs(r)),
                "gc_sweep" => layers.add("heap.gc_sweep_s", secs(r)),
                "workload" => layers.add("collections.mutator_s", secs(r) - gc_child_s(r.id)),
                "partition" => {
                    layers.add("parallel.worker_busy_s", secs(r));
                    layers.add("collections.mutator_s", secs(r) - gc_child_s(r.id));
                }
                "merge_partition" => layers.add("parallel.merge_s", secs(r)),
                "ctx_stripe_wait" => layers.add("parallel.ctx_stripe_wait_s", secs(r)),
                _ => {}
            }
        }
        let misses = self.telemetry.counter("heap.context.misses").get()
            + self.telemetry.counter("heap.context.frame_misses").get();
        layers.add("heap.ctx_intern_misses", misses as f64);
        let gc_events = self
            .telemetry
            .events_snapshot()
            .lines()
            .filter(|l| l.starts_with(r#"{"ev":"gc_cycle""#))
            .count() as u64;
        (gc_spans, gc_events)
    }
}

/// Harvests `probes` into `round.layers` after the timed region, and
/// checks that the trace is complete: one `gc` span per GC the runs
/// reported (`heap.gc_cycles`) and, where telemetry reached the heap
/// (`sequential`), one `gc_cycle` event per GC as well. A shortfall means
/// the rings overwrote records and the per-layer rows undercount.
pub fn harvest_into(probes: &[Probe], round: &mut Round, sequential: bool) {
    let (mut spans, mut events) = (0, 0);
    for p in probes {
        let (s, e) = p.harvest(&mut round.layers);
        spans += s;
        events += e;
    }
    let gcs = round.layers.get("heap.gc_cycles") as u64;
    round.check(if spans == gcs && (!sequential || events == gcs) {
        Ok(())
    } else {
        Err(format!(
            "incomplete trace: {spans} gc spans, {events} gc_cycle events for {gcs} GCs"
        ))
    });
}
