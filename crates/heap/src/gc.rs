//! Mark-sweep collector with semantic collection accounting.
//!
//! The collector performs a standard mark phase (optionally parallel, one
//! worker per configured thread, mirroring the paper's "number of parallel
//! threads is the same as the number of cores"), then a *single fused pass*
//! over the slab that simultaneously gathers live/type statistics, walks
//! every marked object whose class registered a *top-level* semantic map to
//! compute per-collection live/used/core statistics attributed to the
//! allocation context recorded in the object (§4.3), and identifies the
//! garbage to sweep. The fused pass is sharded across `GcConfig::threads`
//! workers over disjoint slab chunks; each worker fills dense per-class and
//! per-context accumulators that merge with plain `u64` addition, so the
//! resulting [`CycleStats`] are byte-for-byte identical for any thread
//! count. Finally the recorded garbage is swept and the simulated clock is
//! charged for the pause.
//!
//! Marking uses an epoch-stamped mark array kept in `HeapInner` (a slot is
//! marked iff its stamp equals the current cycle's epoch), so no per-cycle
//! mark allocation or clearing is needed. The mark is *dense*: it reads the
//! generation stamps and reference ranges kept parallel to the slab, never
//! an `Object`. With one GC thread it claims a mark with a plain load and
//! store, walks the root map in place and reuses one work stack across
//! cycles; only parallel markers pay for an atomic swap.

use crate::heap::{HeapInner, ANOMALY_WARMUP, F_OCCUPIED, F_TOP_COLL, PAUSE_HISTORY};
use crate::object::{ElemKind, ObjBody, ObjId};
use crate::semantic::{AdtDescriptor, SemanticMap};
use crate::snapshot::{self, SnapAcc};
use crate::stats::{AdtTotals, CycleStats};
use crate::sync::{AtomicU32, Ordering};
use chameleon_telemetry::trace::{gc_shard_lane, SpanKind, SpanRecord, MAX_SPAN_ARGS};
use chameleon_telemetry::SpanTimer;
use std::ops::Range;

/// Runs one full collection cycle on the heap.
pub(crate) fn collect(inner: &mut HeapInner) -> CycleStats {
    // Wall-clock phase timing happens only with telemetry or tracing on;
    // the simulated results below never depend on it.
    let lane = inner.tracer.clone().filter(|l| l.armed());
    let timed = inner.telemetry.as_ref().is_some_and(|ht| ht.on()) || lane.is_some();
    let _gc_span = lane
        .as_ref()
        .and_then(|l| l.scope("gc"))
        .map(|s| s.arg("cycle", inner.gc_count + 1));

    // Snapshot capture is due on cycles 1, 1+every, 1+2*every, ... after
    // profiling was enabled. One Option check per cycle when disabled.
    let snap_due = inner
        .heapprof
        .as_ref()
        .is_some_and(|s| inner.gc_count.is_multiple_of(s.config.every.max(1)));

    // Take the reusable mark array out of the heap so workers can share
    // `&HeapInner` while holding an independent borrow of the marks.
    let mut marks = std::mem::take(&mut inner.marks);
    let epoch = next_epoch(inner, &mut marks);
    if marks.len() < inner.slab.len() {
        marks.extend((marks.len()..inner.slab.len()).map(|_| AtomicU32::new(0)));
    }

    let mark_span = lane.as_ref().and_then(|l| l.scope("gc_mark"));
    let mark_timer = timed.then(SpanTimer::start);
    let mut stack = std::mem::take(&mut inner.mark_stack);
    mark(inner, &marks, epoch, &mut stack);
    inner.mark_stack = stack;
    let mark_ns = mark_timer.map_or(0, |t| t.elapsed_ns());
    drop(mark_span);

    // ----- fused live/semantic/sweep scan (sharded) ----------------------------
    let scan_span = lane.as_ref().and_then(|l| l.scope("gc_scan"));
    let scan_begin_ns = lane.as_ref().map_or(0, |l| l.now_ns());
    let scan_timer = timed.then(SpanTimer::start);
    let threads = inner.gc_config.threads.max(1);
    let n_classes = inner.classes.len();
    let n_contexts = inner.contexts.len();
    let accs: Vec<ScanAcc> = if threads == 1 || inner.slab.len() < 2 {
        vec![scan_chunk(
            inner,
            &marks,
            epoch,
            0..inner.slab.len(),
            n_classes,
            n_contexts,
            timed,
            snap_due,
        )]
    } else {
        let chunk = inner.slab.len().div_ceil(threads);
        let shared: &HeapInner = inner;
        let marks_ref: &[AtomicU32] = &marks;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..inner.slab.len())
                .step_by(chunk)
                .map(|start| {
                    let range = start..(start + chunk).min(shared.slab.len());
                    s.spawn(move || {
                        scan_chunk(
                            shared, marks_ref, epoch, range, n_classes, n_contexts, timed, snap_due,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gc scan worker panicked"))
                .collect()
        })
    };
    let scan_ns = scan_timer.map_or(0, |t| t.elapsed_ns());
    // Per-shard scan spans, recorded post-hoc on the collecting thread
    // (keeping every ring single-writer) from each worker's own elapsed
    // time; they render on synthetic shard lanes because shards overlap
    // in wall time.
    if let (Some(l), Some(span)) = (&lane, &scan_span) {
        for (shard, acc) in accs.iter().enumerate() {
            let mut args = [("", 0u64); MAX_SPAN_ARGS];
            args[0] = ("shard", shard as u64);
            args[1] = ("live_objects", acc.live_objects);
            l.record(SpanRecord {
                id: l.tracer().alloc_id(),
                parent: span.id(),
                lane: gc_shard_lane(l.lane(), shard),
                kind: SpanKind::Complete,
                begin_ns: scan_begin_ns,
                end_ns: scan_begin_ns + acc.elapsed_ns,
                name: "gc_scan_shard",
                args,
                nargs: 2,
            });
        }
    }
    drop(scan_span);

    // ----- merge (order-independent u64 sums; dense ids are pre-sorted) --------
    let mut live_bytes = 0u64;
    let mut live_objects = 0u64;
    let mut swept_bytes = 0u64;
    let mut swept_objects = 0u64;
    let mut collection = AdtTotals::default();
    let mut per_ctx_dense = vec![AdtTotals::default(); n_contexts];
    let mut type_dense = vec![(0u64, 0u64); n_classes];
    for acc in &accs {
        live_bytes += acc.live_bytes;
        live_objects += acc.live_objects;
        swept_bytes += acc.swept_bytes;
        swept_objects += acc.swept_objects;
        collection.add(acc.collection);
        for (merged, t) in per_ctx_dense.iter_mut().zip(&acc.per_context) {
            merged.add(*t);
        }
        for (merged, t) in type_dense.iter_mut().zip(&acc.type_dist) {
            merged.0 += t.0;
            merged.1 += t.1;
        }
    }

    // ----- apply the sweep ------------------------------------------------------
    // Workers are chunk-ordered and each sweep list is ascending, so the
    // concatenation frees slots in ascending index order — the same free-list
    // order a sequential sweep produces.
    let sweep_span = lane.as_ref().and_then(|l| l.scope("gc_sweep"));
    let sweep_timer = timed.then(SpanTimer::start);
    for acc in &accs {
        for &i in &acc.sweep_list {
            inner.release_slot(i as usize);
            inner.free.push(i);
        }
    }
    let sweep_ns = sweep_timer.map_or(0, |t| t.elapsed_ns());
    drop(sweep_span);
    inner.heap_bytes = inner.heap_bytes.saturating_sub(swept_bytes);
    inner.generation = inner.generation.wrapping_add(1).max(1);
    inner.gc_count += 1;
    inner.marks = marks;

    // ----- clock ----------------------------------------------------------------
    // The pause cost is a pure function of config and live bytes, so it is
    // recorded in the stats even when no clock is attached to charge it.
    let cfg = inner.gc_config;
    let pause_cost_units = cfg.cost_per_cycle + (live_bytes / 1024) * cfg.cost_per_live_kib;
    let at_units = if let Some(clock) = &inner.clock {
        clock.charge(pause_cost_units);
        clock.now()
    } else {
        0
    };

    // ----- flight-recorder anomaly trigger --------------------------------------
    // Purely observational: compares the deterministic pause cost against the
    // running median of recent cycles and dumps the trace rings to disk when
    // a pause exceeds `anomaly_factor` times that median. The history itself
    // is deterministic data, so it is maintained whether or not tracing is
    // armed; only the dump requires an armed tracer.
    if let Some(l) = &lane {
        if cfg.anomaly_factor > 0 && inner.pause_history.len() >= ANOMALY_WARMUP {
            let mut sorted: Vec<u64> = inner.pause_history.iter().copied().collect();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            if median > 0 && pause_cost_units > cfg.anomaly_factor.saturating_mul(median) {
                let _ = l.tracer().flight_dump("gc-anomaly");
            }
        }
    }
    inner.pause_history.push_back(pause_cost_units);
    if inner.pause_history.len() > PAUSE_HISTORY {
        inner.pause_history.pop_front();
    }

    // ----- snapshot assembly ----------------------------------------------------
    // Pure read-side work: the merged accumulator plus virtual-root edges
    // resolved against the (already swept, but roots are live) slab. Never
    // touches the clock or the cycle statistics.
    let snap_span = snap_due
        .then(|| lane.as_ref().and_then(|l| l.scope("heap_snapshot_capture")))
        .flatten();
    let snapshot = snap_due.then(|| {
        let mut merged = SnapAcc::new(n_contexts);
        for acc in &accs {
            if let Some(s) = &acc.snap {
                merged.merge(s);
            }
        }
        let root_node = (n_contexts + 1) as u32;
        for id in inner.roots.keys() {
            if let Some(t) = inner.slot_of(*id) {
                let tnode = inner.slab[t].ctx.map_or(n_contexts as u32, |c| c.0);
                merged.edges.insert(snapshot::pack_edge(root_node, tnode));
            }
        }
        snapshot::build_snapshot(
            inner.gc_count,
            at_units,
            live_bytes,
            live_objects,
            &merged,
            &per_ctx_dense,
            collection,
        )
    });
    drop(snap_span);

    let per_context: Vec<_> = per_ctx_dense
        .into_iter()
        .enumerate()
        .filter(|(_, t)| t.count > 0)
        .map(|(i, t)| (crate::context::ContextId(i as u32), t))
        .collect();
    let type_distribution: Vec<_> = type_dense
        .into_iter()
        .enumerate()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(i, (b, n))| (crate::object::ClassId(i as u32), b, n))
        .collect();

    let stats = CycleStats {
        cycle: inner.gc_count,
        at_units,
        live_bytes,
        live_objects,
        swept_bytes,
        swept_objects,
        pause_cost_units,
        collection,
        per_context,
        type_distribution,
    };

    if let Some(ht) = inner.telemetry.as_ref().filter(|ht| ht.on()) {
        ht.gc_cycles.inc();
        ht.gc_pause_units.record(pause_cost_units);
        ht.gc_marked_objects.add(live_objects);
        ht.gc_swept_objects.add(swept_objects);
        let shard_ns: Vec<u64> = accs.iter().map(|a| a.elapsed_ns).collect();
        if let Some(mut e) = ht.t.event("gc_cycle", at_units) {
            e.num("cycle", stats.cycle)
                .num("live_bytes", live_bytes)
                .num("live_objects", live_objects)
                .num("swept_bytes", swept_bytes)
                .num("swept_objects", swept_objects)
                .num("pause_units", pause_cost_units)
                .num("threads", threads as u64)
                .num("mark_ns", mark_ns)
                .num("scan_ns", scan_ns)
                .num("sweep_ns", sweep_ns)
                .nums("shard_scan_ns", &shard_ns)
                .num("coll_live", stats.collection.live)
                .num("coll_used", stats.collection.used)
                .num("coll_core", stats.collection.core)
                .num("coll_count", stats.collection.count);
        }
        if let Some(s) = &snapshot {
            ht.prof_snapshots.inc();
            if let Some(mut e) = ht.t.event("heap_snapshot", at_units) {
                e.num("cycle", s.cycle)
                    .num("live_bytes", s.live_bytes)
                    .num("live_objects", s.live_objects)
                    .num("retained_root", s.retained_root)
                    .num("contexts", s.contexts.len() as u64);
            }
        }
    }

    if let Some(s) = snapshot {
        if let Some(state) = inner.heapprof.as_mut() {
            state.snapshots.push(s);
        }
    }

    inner.cycles.push(stats.clone());
    stats
}

/// Advances the mark epoch, resetting stamps on the (rare) u32 wraparound
/// so a slot marked billions of cycles ago can never alias a fresh epoch.
fn next_epoch(inner: &mut HeapInner, marks: &mut [AtomicU32]) -> u32 {
    inner.mark_epoch = inner.mark_epoch.wrapping_add(1);
    if inner.mark_epoch == 0 {
        for m in marks.iter_mut() {
            // relaxed: &mut access proves exclusivity; the store only needs
            // to be a plain write (and compiles to one).
            m.store(0, Ordering::Relaxed);
        }
        inner.mark_epoch = 1;
    }
    inner.mark_epoch
}

/// Per-worker accumulator of the fused scan. Dense vectors indexed by
/// `ClassId`/`ContextId` keep merging exact and order-independent.
struct ScanAcc {
    live_bytes: u64,
    live_objects: u64,
    swept_bytes: u64,
    swept_objects: u64,
    /// Slab indices to free, ascending within this worker's chunk.
    sweep_list: Vec<u32>,
    collection: AdtTotals,
    per_context: Vec<AdtTotals>,
    type_dist: Vec<(u64, u64)>,
    /// Snapshot accumulator, filled only on cycles where heap profiling is
    /// due; `None` keeps the scan loop free of snapshot branches' work.
    snap: Option<SnapAcc>,
    /// Wall-clock nanoseconds this worker spent scanning (0 when telemetry
    /// is off; never feeds into the simulated statistics).
    elapsed_ns: u64,
}

/// Scans one slab chunk: live/type accounting, semantic ADT accounting for
/// top-level collections, and garbage identification. Read-only over the
/// whole heap (semantic walks may chase references outside the chunk); the
/// sweep itself is applied by the caller after every worker has finished.
#[allow(clippy::too_many_arguments)]
fn scan_chunk(
    inner: &HeapInner,
    marks: &[AtomicU32],
    epoch: u32,
    range: Range<usize>,
    n_classes: usize,
    n_contexts: usize,
    timed: bool,
    snap_due: bool,
) -> ScanAcc {
    let timer = timed.then(SpanTimer::start);
    let mut acc = ScanAcc {
        live_bytes: 0,
        live_objects: 0,
        swept_bytes: 0,
        swept_objects: 0,
        sweep_list: Vec::new(),
        collection: AdtTotals::default(),
        per_context: vec![AdtTotals::default(); n_contexts],
        type_dist: vec![(0, 0); n_classes],
        snap: snap_due.then(|| SnapAcc::new(n_contexts)),
        elapsed_ns: 0,
    };
    for i in range {
        let slot_flags = inner.flags[i];
        if slot_flags & F_OCCUPIED == 0 {
            continue;
        }
        let o = &inner.slab[i];
        // relaxed: sweep runs after every marker thread joined; the join
        // is the happens-before edge that publishes the mark words.
        if marks[i].load(Ordering::Relaxed) != epoch {
            acc.swept_bytes += u64::from(o.size);
            acc.swept_objects += 1;
            acc.sweep_list.push(i as u32);
            continue;
        }
        acc.live_bytes += u64::from(o.size);
        acc.live_objects += 1;
        let slot = &mut acc.type_dist[o.class.0 as usize];
        slot.0 += u64::from(o.size);
        slot.1 += 1;
        if let Some(snap) = acc.snap.as_mut() {
            // Live objects reachable from this one are marked by
            // construction, so every resolvable reference is a live edge.
            let node = o.ctx.map_or(n_contexts as u32, |c| c.0);
            snap.self_bytes[node as usize] += u64::from(o.size);
            snap.objects[node as usize] += 1;
            for child in inner.ranges[i].targets(&inner.ref_pool) {
                if let Some(t) = inner.slot_of(child) {
                    let tnode = inner.slab[t].ctx.map_or(n_contexts as u32, |c| c.0);
                    snap.edges_in[tnode as usize] += 1;
                    if tnode != node {
                        snap.edges.insert(snapshot::pack_edge(node, tnode));
                    }
                }
            }
        }
        // F_TOP_COLL is precomputed at insert, so the common (non-collection)
        // case costs one flag test instead of a class-registry lookup.
        if slot_flags & F_TOP_COLL == 0 {
            continue;
        }
        let map = inner
            .classes
            .info(o.class)
            .semantic_map
            .expect("F_TOP_COLL implies a top-level semantic map");
        let mut totals = adt_stats(inner, i, map);
        totals.count = 1;
        acc.collection.add(totals);
        if let Some(ctx) = o.ctx {
            acc.per_context[ctx.0 as usize].add(totals);
        }
    }
    acc.elapsed_ns = timer.map_or(0, |t| t.elapsed_ns());
    acc
}

/// Marks reachable objects by stamping `epoch` into the shared mark array.
fn mark(inner: &HeapInner, marks: &[AtomicU32], epoch: u32, stack: &mut Vec<u32>) {
    let threads = inner.gc_config.threads.max(1);
    if threads == 1 || inner.roots.len() < 2 {
        // hashmap-iter-ok: marking computes the reachable set, which does
        // not depend on the order roots are traced in.
        for &root in inner.roots.keys() {
            trace_from::<false>(inner, marks, epoch, root, stack);
        }
        return;
    }
    // hashmap-iter-ok: the roots are only split among markers; the marked
    // set is the same for any split.
    let roots: Vec<ObjId> = inner.roots.keys().copied().collect();
    let chunk = roots.len().div_ceil(threads);
    std::thread::scope(|s| {
        for part in roots.chunks(chunk) {
            s.spawn(move || {
                let mut stack: Vec<u32> = Vec::new();
                for r in part {
                    trace_from::<true>(inner, marks, epoch, *r, &mut stack);
                }
            });
        }
    });
}

/// Marks everything reachable from `root`. `SHARED` markers race with each
/// other on the mark words; a sole marker does not.
fn trace_from<const SHARED: bool>(
    inner: &HeapInner,
    marks: &[AtomicU32],
    epoch: u32,
    root: ObjId,
    stack: &mut Vec<u32>,
) {
    if !claim::<SHARED>(inner, marks, epoch, root) {
        return;
    }
    stack.push(root.index);
    while let Some(i) = stack.pop() {
        for child in inner.ranges[i as usize].targets(&inner.ref_pool) {
            if claim::<SHARED>(inner, marks, epoch, child) {
                stack.push(child.index);
            }
        }
    }
}

/// Claims the mark stamp; returns true if this caller marked it. Stale ids
/// (swept or reused slots) are ignored rather than traced.
#[inline(always)]
fn claim<const SHARED: bool>(
    inner: &HeapInner,
    marks: &[AtomicU32],
    epoch: u32,
    obj: ObjId,
) -> bool {
    if inner.slot_of(obj).is_none() {
        return false;
    }
    let mark = &marks[obj.index as usize];
    if SHARED {
        // relaxed: the swap only needs atomicity so each object is claimed
        // by exactly one marker; publication to the sweeper happens at join.
        mark.swap(epoch, Ordering::Relaxed) != epoch
    } else {
        // relaxed: a sole marker owns every mark word for the whole phase,
        // so a load and a store cannot interleave with another claim.
        if mark.load(Ordering::Relaxed) == epoch {
            return false;
        }
        // relaxed: as above; the scan reads the words after this phase, on
        // this thread or on workers it spawns (the spawn publishes them).
        mark.store(epoch, Ordering::Relaxed);
        true
    }
}

/// Computes live/used/core for one collection object according to its
/// semantic map. `count` is left zero; callers set it.
pub(crate) fn adt_stats(inner: &HeapInner, i: usize, map: SemanticMap) -> AdtTotals {
    let model = inner.model;
    let obj = &inner.slab[i];
    let size_meta = obj.meta.first().copied().unwrap_or(0).max(0) as u32;
    let refs_per_elem = map.kind.refs_per_elem();
    let core = u64::from(model.array_size(model.ref_bytes, size_meta * refs_per_elem));
    let own = u64::from(obj.size);

    match map.descriptor {
        AdtDescriptor::Wrapper { impl_field } => {
            let backing = scalar_ref(inner, i, impl_field);
            let mut totals = match backing.and_then(|b| inner.slot_of(b)) {
                Some(b) => {
                    let backing_map = inner
                        .classes
                        .info(inner.slab[b].class)
                        .semantic_map
                        .unwrap_or(SemanticMap::backing(map.kind, AdtDescriptor::Inline));
                    adt_stats(inner, b, backing_map)
                }
                None => AdtTotals {
                    live: 0,
                    used: 0,
                    core,
                    count: 0,
                },
            };
            totals.live += own;
            totals.used += own;
            totals
        }
        AdtDescriptor::ArrayBacked {
            array_field,
            slots_per_elem,
        } => {
            let mut live = own;
            let mut slack = 0u64;
            if let Some(arr) = scalar_ref(inner, i, array_field).and_then(|a| inner.slot_of(a)) {
                let arr = &inner.slab[arr];
                live += u64::from(arr.size);
                if let ObjBody::Array { elem, capacity } = &arr.body {
                    let elem_bytes = match elem {
                        ElemKind::Ref => model.ref_bytes,
                        ElemKind::Prim { bytes_per_elem } => *bytes_per_elem,
                    };
                    let used_slots = size_meta.saturating_mul(slots_per_elem).min(*capacity);
                    slack = u64::from((capacity - used_slots) * elem_bytes);
                }
            }
            AdtTotals {
                live,
                used: live - slack,
                core,
                count: 0,
            }
        }
        AdtDescriptor::ChainedHash { array_field } => {
            let mut live = own;
            let mut slack = 0u64;
            if let Some(a) = scalar_ref(inner, i, array_field).and_then(|a| inner.slot_of(a)) {
                let arr = &inner.slab[a];
                live += u64::from(arr.size);
                if let ObjBody::Array { capacity, .. } = &arr.body {
                    let slots = inner.ranges[a];
                    let used_buckets = obj.meta.get(1).copied().unwrap_or(0).max(0) as u32;
                    slack = u64::from((capacity.saturating_sub(used_buckets)) * model.ref_bytes);
                    // Walk every bucket chain; entries link through ref field 0.
                    let max_steps = size_meta as usize + slots.len as usize + 8;
                    let mut steps = 0usize;
                    for head in inner.ref_pool[slots.as_range()].iter().filter_map(|s| *s) {
                        let mut cur = Some(head);
                        while let Some(id) = cur {
                            if steps >= max_steps {
                                break;
                            }
                            steps += 1;
                            let Some(entry) = inner.slot_of(id) else {
                                break;
                            };
                            live += u64::from(inner.slab[entry].size);
                            cur = scalar_ref(inner, entry, 0);
                        }
                    }
                }
            }
            AdtTotals {
                live,
                used: live - slack,
                core,
                count: 0,
            }
        }
        AdtDescriptor::LinkedEntries { head_field } => {
            let mut live = own;
            if let Some(head) = scalar_ref(inner, i, head_field) {
                // Circular list: walk next pointers until back at the head.
                let max_steps = size_meta as usize + 4;
                let mut cur = inner.slot_of(head).map(|_| head);
                let mut steps = 0usize;
                while let Some(id) = cur {
                    if steps >= max_steps {
                        break;
                    }
                    steps += 1;
                    let Some(entry) = inner.slot_of(id) else {
                        break;
                    };
                    live += u64::from(inner.slab[entry].size);
                    cur = scalar_ref(inner, entry, 0).filter(|next| *next != head);
                }
            }
            AdtTotals {
                live,
                used: live,
                core,
                count: 0,
            }
        }
        AdtDescriptor::Inline => AdtTotals {
            live: own,
            used: own,
            core,
            count: 0,
        },
    }
}

/// Reference field `field` of the scalar in slot `i` (`None` for arrays and
/// out-of-range fields).
fn scalar_ref(inner: &HeapInner, i: usize, field: usize) -> Option<ObjId> {
    let refs = inner.ranges[i];
    match inner.slab[i].body {
        ObjBody::Scalar { .. } if (field as u32) < refs.len => {
            inner.ref_pool[refs.start as usize + field]
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use crate::heap::{GcConfig, Heap, HeapConfig};
    use crate::object::ElemKind;
    use crate::semantic::{AdtDescriptor, CollectionKind, SemanticMap};

    /// Builds an ArrayList-shaped pair: impl object + backing array of
    /// `cap` slots with `size` elements, wrapped in a top-level wrapper.
    fn array_list_fixture(heap: &Heap, cap: u32, size: u32) -> crate::object::ObjId {
        let wrapper_class = heap.register_class(
            "ListWrapper",
            Some(SemanticMap::wrapper(CollectionKind::List)),
        );
        let impl_class = heap.register_class(
            "ArrayListImpl",
            Some(SemanticMap::backing(
                CollectionKind::List,
                AdtDescriptor::ArrayBacked {
                    array_field: 0,
                    slots_per_elem: 1,
                },
            )),
        );
        let arr_class = heap.register_class("Object[]", None);
        let ctx = heap.intern_context("ArrayList", &["A.m:1".to_owned()], 2);
        let w = heap.alloc_scalar(wrapper_class, 1, 0, Some(ctx));
        let im = heap.alloc_scalar(impl_class, 1, 8, None);
        let arr = heap.alloc_array(arr_class, ElemKind::Ref, cap, None);
        heap.set_ref(w, 0, Some(im));
        heap.set_ref(im, 0, Some(arr));
        heap.set_meta(im, 0, i64::from(size));
        heap.set_meta(w, 0, i64::from(size));
        heap.add_root(w);
        w
    }

    #[test]
    fn array_backed_accounting() {
        let heap = Heap::new();
        let _w = array_list_fixture(&heap, 10, 3);
        let stats = heap.gc();
        let m = heap.model();
        let expected_live = u64::from(m.object_size(1, 0)) // wrapper
            + u64::from(m.object_size(1, 8)) // impl
            + u64::from(m.ref_array_size(10)); // backing array
        assert_eq!(stats.collection.live, expected_live);
        // 7 unused slots * 4 bytes slack.
        assert_eq!(stats.collection.used, expected_live - 7 * 4);
        assert_eq!(stats.collection.core, u64::from(m.core_size(3)));
        assert_eq!(stats.collection.count, 1);
        assert_eq!(stats.per_context.len(), 1);
        assert_eq!(stats.per_context[0].1.live, expected_live);
    }

    #[test]
    fn empty_backing_array_is_all_slack() {
        let heap = Heap::new();
        let _w = array_list_fixture(&heap, 10, 0);
        let stats = heap.gc();
        let m = heap.model();
        let fixed = u64::from(m.object_size(1, 0)) + u64::from(m.object_size(1, 8));
        assert_eq!(
            stats.collection.used,
            fixed + u64::from(m.ref_array_size(10)) - 40
        );
        assert_eq!(stats.collection.core, u64::from(m.core_size(0)));
    }

    #[test]
    fn chained_hash_accounting() {
        let heap = Heap::new();
        let wrapper_class = heap.register_class(
            "MapWrapper",
            Some(SemanticMap::wrapper(CollectionKind::Map)),
        );
        let impl_class = heap.register_class(
            "HashMapImpl",
            Some(SemanticMap::backing(
                CollectionKind::Map,
                AdtDescriptor::ChainedHash { array_field: 0 },
            )),
        );
        let arr_class = heap.register_class("Entry[]", None);
        let entry_class = heap.register_class("HashMap$Entry", None);
        let ctx = heap.intern_context("HashMap", &["B.m:2".to_owned()], 2);
        let w = heap.alloc_scalar(wrapper_class, 1, 0, Some(ctx));
        let im = heap.alloc_scalar(impl_class, 1, 8, None);
        let buckets = heap.alloc_array(arr_class, ElemKind::Ref, 16, None);
        heap.set_ref(w, 0, Some(im));
        heap.set_ref(im, 0, Some(buckets));
        // Two entries in one bucket (a chain), one in another.
        let e1 = heap.alloc_scalar(entry_class, 3, 4, None); // 24 B
        let e2 = heap.alloc_scalar(entry_class, 3, 4, None);
        let e3 = heap.alloc_scalar(entry_class, 3, 4, None);
        heap.set_elem(buckets, 0, Some(e1));
        heap.set_ref(e1, 0, Some(e2));
        heap.set_elem(buckets, 5, Some(e3));
        heap.set_meta(im, 0, 3); // size
        heap.set_meta(im, 1, 2); // used buckets
        heap.set_meta(w, 0, 3);
        heap.add_root(w);

        let stats = heap.gc();
        let m = heap.model();
        let expected_live = u64::from(m.object_size(1, 0))
            + u64::from(m.object_size(1, 8))
            + u64::from(m.ref_array_size(16))
            + 3 * 24;
        assert_eq!(stats.collection.live, expected_live);
        // 14 empty buckets * 4 B slack.
        assert_eq!(stats.collection.used, expected_live - 14 * 4);
        // Map core: 3 elements * 2 refs.
        assert_eq!(stats.collection.core, u64::from(m.ref_array_size(6)));
    }

    #[test]
    fn linked_entries_accounting_counts_sentinel() {
        let heap = Heap::new();
        let wrapper_class = heap.register_class(
            "LinkedWrapper",
            Some(SemanticMap::wrapper(CollectionKind::List)),
        );
        let impl_class = heap.register_class(
            "LinkedListImpl",
            Some(SemanticMap::backing(
                CollectionKind::List,
                AdtDescriptor::LinkedEntries { head_field: 0 },
            )),
        );
        let entry_class = heap.register_class("LinkedList$Entry", None);
        let w = heap.alloc_scalar(wrapper_class, 1, 0, None);
        let im = heap.alloc_scalar(impl_class, 1, 4, None);
        // Circular: header <-> e1, empty logical list would be header only.
        let header = heap.alloc_scalar(entry_class, 3, 0, None); // 24 B sentinel
        let e1 = heap.alloc_scalar(entry_class, 3, 0, None);
        heap.set_ref(header, 0, Some(e1));
        heap.set_ref(e1, 0, Some(header)); // circular back
        heap.set_ref(w, 0, Some(im));
        heap.set_ref(im, 0, Some(header));
        heap.set_meta(im, 0, 1);
        heap.set_meta(w, 0, 1);
        heap.add_root(w);

        let stats = heap.gc();
        let m = heap.model();
        let expected_live = u64::from(m.object_size(1, 0))
            + u64::from(m.object_size(1, 4))
            + 2 * u64::from(m.object_size(3, 0));
        assert_eq!(stats.collection.live, expected_live);
        // Linked entries have no slack: used == live.
        assert_eq!(stats.collection.used, expected_live);
        assert_eq!(stats.collection.core, u64::from(m.core_size(1)));
    }

    #[test]
    fn parallel_marking_matches_sequential() {
        let build = |threads: usize| {
            let heap = Heap::with_config(HeapConfig {
                gc: GcConfig {
                    threads,
                    ..GcConfig::default()
                },
                ..HeapConfig::default()
            });
            let class = heap.register_class("Node", None);
            // Build a few linked chains with shared tails.
            let shared = heap.alloc_scalar(class, 0, 0, None);
            for _ in 0..8 {
                let mut prev = shared;
                for _ in 0..50 {
                    let n = heap.alloc_scalar(class, 1, 0, None);
                    heap.set_ref(n, 0, Some(prev));
                    prev = n;
                }
                heap.add_root(prev);
            }
            // Garbage.
            for _ in 0..100 {
                let _ = heap.alloc_scalar(class, 2, 16, None);
            }
            heap.gc()
        };
        let seq = build(1);
        let par = build(4);
        // Full byte-for-byte equivalence, not just live/swept counts.
        assert_eq!(seq, par);
    }

    #[test]
    fn epoch_marks_survive_many_cycles() {
        let heap = Heap::new();
        let class = heap.register_class("Node", None);
        let keep = heap.alloc_scalar(class, 0, 8, None);
        heap.add_root(keep);
        for _ in 0..50 {
            let _garbage = heap.alloc_scalar(class, 0, 8, None);
            let stats = heap.gc();
            assert_eq!(stats.live_objects, 1);
            assert_eq!(stats.swept_objects, 1);
        }
        assert!(heap.is_live(keep));
    }

    #[test]
    fn type_distribution_covers_live_bytes() {
        let heap = Heap::new();
        let a = heap.register_class("A", None);
        let b = heap.register_class("B", None);
        let o1 = heap.alloc_scalar(a, 0, 0, None);
        let o2 = heap.alloc_scalar(b, 0, 32, None);
        heap.add_root(o1);
        heap.add_root(o2);
        let stats = heap.gc();
        let sum: u64 = stats
            .type_distribution
            .iter()
            .map(|(_, bytes, _)| bytes)
            .sum();
        assert_eq!(sum, stats.live_bytes);
        assert_eq!(stats.type_distribution.len(), 2);
    }

    #[test]
    fn clock_charged_per_cycle() {
        use crate::clock::SimClock;
        let heap = Heap::new();
        let clock = SimClock::new();
        heap.attach_clock(clock.clone());
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        let stats = heap.gc();
        assert!(clock.now() >= GcConfig::default().cost_per_cycle);
        assert_eq!(
            stats.pause_cost_units,
            clock.now(),
            "one cycle == one charge"
        );
    }

    #[test]
    fn pause_cost_recorded_without_clock() {
        let heap = Heap::new();
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 2048, None);
        heap.add_root(o);
        let stats = heap.gc();
        let cfg = GcConfig::default();
        assert_eq!(
            stats.pause_cost_units,
            cfg.cost_per_cycle + (stats.live_bytes / 1024) * cfg.cost_per_live_kib
        );
        assert_eq!(stats.at_units, 0, "no clock attached");
    }

    #[test]
    fn snapshot_capture_reconciles_with_cycle_stats() {
        use crate::snapshot::HeapProfConfig;
        let heap = Heap::new();
        heap.set_heap_profiling(Some(HeapProfConfig { every: 1 }));
        let _w = array_list_fixture(&heap, 10, 3);
        let stats = heap.gc();
        let snaps = heap.heap_snapshots();
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        assert_eq!(s.cycle, stats.cycle);
        assert_eq!(s.live_bytes, stats.live_bytes);
        assert_eq!(s.live_objects, stats.live_objects);
        let self_sum: u64 = s.contexts.iter().map(|c| c.self_bytes).sum();
        assert_eq!(self_sum, stats.live_bytes, "self bytes partition the heap");
        assert_eq!(s.retained_root, stats.live_bytes);
        // The rooted wrapper's context dominates the context-less impl and
        // backing array, so it retains the entire live heap.
        let ctx_snap = s.contexts.iter().find(|c| c.ctx.is_some()).unwrap();
        assert_eq!(ctx_snap.retained_bytes, stats.live_bytes);
        assert_eq!(ctx_snap.coll, stats.per_context[0].1);
        // Wrapper -> impl and impl -> array are the only resolvable edges
        // into the no-context bucket.
        let none_snap = s.contexts.iter().find(|c| c.ctx.is_none()).unwrap();
        assert_eq!(none_snap.edges_in, 2);
        assert_eq!(none_snap.objects, 2);
    }

    #[test]
    fn snapshot_cadence_follows_every() {
        use crate::snapshot::HeapProfConfig;
        let heap = Heap::new();
        heap.set_heap_profiling(Some(HeapProfConfig { every: 3 }));
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        for _ in 0..7 {
            heap.gc();
        }
        let cycles: Vec<u64> = heap.heap_snapshots().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, [1, 4, 7]);
        heap.clear_heap_snapshots();
        assert!(heap.heap_snapshots().is_empty());
        assert_eq!(heap.heap_profiling(), Some(HeapProfConfig { every: 3 }));
    }

    #[test]
    fn snapshots_identical_across_thread_counts() {
        use crate::snapshot::HeapProfConfig;
        let build = |threads: usize| {
            let heap = Heap::with_config(HeapConfig {
                gc: GcConfig {
                    threads,
                    ..GcConfig::default()
                },
                ..HeapConfig::default()
            });
            heap.set_heap_profiling(Some(HeapProfConfig { every: 1 }));
            let class = heap.register_class("Node", None);
            // Cross-context chains: each context's objects reference the
            // next context's, with some shared tails.
            let ctxs: Vec<_> = (0..6)
                .map(|i| heap.intern_context("Node", &[format!("S.m:{i}")], 1))
                .collect();
            let shared = heap.alloc_scalar(class, 0, 16, Some(ctxs[5]));
            for (i, &ctx) in ctxs.iter().enumerate().take(5) {
                let mut prev = shared;
                for _ in 0..20 {
                    let n = heap.alloc_scalar(class, 1, (i as u32) * 8, Some(ctx));
                    heap.set_ref(n, 0, Some(prev));
                    prev = n;
                }
                heap.add_root(prev);
            }
            for _ in 0..30 {
                let _ = heap.alloc_scalar(class, 0, 8, None); // garbage
            }
            heap.gc();
            heap.heap_snapshots()
        };
        let seq = build(1);
        let par = build(4);
        assert_eq!(seq, par, "snapshots must not depend on worker count");
    }

    #[test]
    fn disabling_heap_profiling_stops_capture() {
        use crate::snapshot::HeapProfConfig;
        let heap = Heap::new();
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        heap.gc();
        assert!(heap.heap_snapshots().is_empty(), "off by default");
        heap.set_heap_profiling(Some(HeapProfConfig::default()));
        heap.gc();
        assert_eq!(heap.heap_snapshots().len(), 1);
        heap.set_heap_profiling(None);
        heap.gc();
        assert!(heap.heap_snapshots().is_empty());
    }

    #[test]
    fn telemetry_records_gc_cycles_only_when_enabled() {
        use chameleon_telemetry::{json, Telemetry};
        let heap = Heap::new();
        let t = Telemetry::disabled();
        heap.attach_telemetry(&t);
        let class = heap.register_class("A", None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);

        let disabled_stats = heap.gc();
        assert_eq!(t.event_count(), 0, "disabled telemetry emits nothing");
        assert_eq!(t.counter("heap.gc.cycles").get(), 0);

        t.set_enabled(true);
        let enabled_stats = heap.gc();
        assert_eq!(
            disabled_stats.pause_cost_units, enabled_stats.pause_cost_units,
            "telemetry must not perturb simulated results"
        );
        assert_eq!(t.counter("heap.gc.cycles").get(), 1);
        let log = t.drain_events();
        json::validate_jsonl(&log, &["ev", "t", "cycle", "pause_units", "shard_scan_ns"])
            .expect("gc_cycle event is valid JSONL");
        let ev = json::parse(log.lines().next().unwrap()).unwrap();
        assert_eq!(ev.get("ev").unwrap().as_str(), Some("gc_cycle"));
        assert_eq!(
            ev.get("pause_units").unwrap().as_u64(),
            Some(enabled_stats.pause_cost_units)
        );
        assert_eq!(
            ev.get("live_objects").unwrap().as_u64(),
            Some(enabled_stats.live_objects)
        );
    }
}
