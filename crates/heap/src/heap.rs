//! The simulated managed heap.
//!
//! [`Heap`] is a cheaply cloneable handle to one heap: an object table,
//! a root set, a class registry, an allocation-context table, and a
//! mark-sweep collector. Collection implementations mirror every internal
//! allocation (wrappers, backing arrays, entry objects) into this heap so
//! the collector can account for them exactly the way the paper's
//! J9-instrumented GC did.
//!
//! # Storage layout
//!
//! Objects live in a *dense* slab (`Vec<Object>`) with three parallel
//! vectors: a packed flag byte per slot (occupied, array, top-level
//! semantic map), the slot's generation stamp, and its reference range.
//! The GC's fused scan reads the flag byte instead of an `Option`
//! discriminant plus a class-registry lookup; the mark reads only the
//! stamps and ranges, never the object. A swept slot keeps its (stale)
//! object in place so reuse writes fields instead of constructing.
//!
//! Reference fields and array slots live in one shared *ref pool* arena
//! per heap, handed out as [`RefRange`](crate::object::RefRange)s with
//! exact-size free-list buckets. Allocating or sweeping an object touches
//! no process allocator once the pool is warm — crucial for parallel
//! mutators, where per-object `Box` traffic from many threads serializes
//! on `malloc` even when the heaps themselves are disjoint.
//!
//! # Single-mutator contract
//!
//! Every heap is a single-mutator cell guarded by one atomic busy flag:
//! each operation — allocation, GC, and context interning alike — swaps
//! the flag on entry and clears it on exit, so the hot path takes no lock.
//! One thread at a time may be inside a heap; a second thread entering
//! while the first is still inside panics instead of blocking, naming the
//! operation (and, for a partition heap, the partition from
//! [`HeapConfig::shard_index`]). Sequential runs, the parallel runtime's
//! per-partition heaps, its merge parent (touched only after the join)
//! and serve tenants all satisfy this; the GC's scan workers borrow the
//! heap's state read-only from inside one entry.

use crate::clock::SimClock;
use crate::context::{ContextExport, ContextId, ContextTable, FrameId};
use crate::gc;
use crate::layout::MemoryModel;
use crate::object::{ClassId, ElemKind, ObjBody, ObjId, Object, ObjectView, RefRange};
use crate::semantic::{ClassRegistry, SemanticMap};
use crate::snapshot::{HeapProfConfig, HeapProfState, HeapSnapshot};
use crate::stats::CycleStats;
use crate::sync::{AtomicBool, AtomicU32, Ordering, UnsafeCell};
use crate::telemetry::HeapTelemetry;
use chameleon_telemetry::{Telemetry, TraceLane};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Panic payload used for the simulated `OutOfMemoryError`.
///
/// [`Heap`] panics with this payload when an allocation does not fit under
/// the configured capacity even after a full GC (unless the heap is
/// elastic, see [`Heap::set_elastic`]); harnesses that expect it catch it
/// with `std::panic::catch_unwind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the failing allocation requested.
    pub requested: u64,
    /// Configured heap capacity.
    pub capacity: u64,
    /// Live bytes remaining after the emergency GC.
    pub live_after_gc: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated OutOfMemoryError: requested {} B, capacity {} B, live {} B",
            self.requested, self.capacity, self.live_after_gc
        )
    }
}

/// Growth rule of an elastic heap: the new cap for a `need` that does not
/// fit (see [`Heap::set_elastic`]).
pub type Growth = Box<dyn Fn(u64) -> u64 + Send + Sync>;

/// Collector configuration.
#[derive(Debug, Clone, Copy)]
pub struct GcConfig {
    /// Marking threads (the paper uses one per hardware core; values > 1
    /// exercise the parallel-marking path).
    pub threads: usize,
    /// Simulated cost units charged per KiB of live data marked.
    pub cost_per_live_kib: u64,
    /// Fixed simulated cost units charged per cycle (stop-the-world pause).
    pub cost_per_cycle: u64,
    /// Flight-recorder anomaly trigger: when an execution tracer is
    /// attached and a cycle's pause cost exceeds `anomaly_factor ×` the
    /// running median of the last [`PAUSE_HISTORY`] cycles (after
    /// [`ANOMALY_WARMUP`] warm-up cycles), the tracer's ring buffers are
    /// dumped to its flight directory. The trigger compares deterministic
    /// simulated cost units, never wall clock. `0` disables the trigger.
    pub anomaly_factor: u64,
}

/// Pause-cost samples retained for the anomaly trigger's running median.
pub const PAUSE_HISTORY: usize = 32;
/// Cycles observed before the anomaly trigger may fire.
pub const ANOMALY_WARMUP: usize = 8;

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            threads: 1,
            cost_per_live_kib: 600,
            cost_per_cycle: 50_000,
            anomaly_factor: 8,
        }
    }
}

/// Heap construction parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapConfig {
    /// Object layout model (defaults to the paper's 32-bit JVM).
    pub model: MemoryModel,
    /// Optional capacity in bytes; `None` means unbounded (no automatic GC).
    pub capacity: Option<u64>,
    /// If set, run a GC every time this many bytes have been allocated
    /// since the last cycle — allocation-driven GC pressure for unbounded
    /// profiling runs.
    pub gc_interval_bytes: Option<u64>,
    /// Collector configuration.
    pub gc: GcConfig,
    /// Partition index of the heap, named in the concurrent-entry panic
    /// message so a contract violation reports *which* partition was
    /// entered twice. The parallel runner sets it when building partition
    /// environments; serve sets it per tenant.
    pub shard_index: Option<usize>,
}

/// Packed per-slot flags (`HeapInner::flags`), one byte per slab slot.
///
/// The slot holds a live-or-garbage object (cleared when swept).
pub(crate) const F_OCCUPIED: u8 = 1;
/// The object is an array (its body carries `slots`/`capacity`).
pub(crate) const F_ARRAY: u8 = 1 << 1;
/// The object's class registered a *top-level* semantic map, so the GC
/// scan computes collection statistics for it. Precomputed at insert so
/// the scan skips the class-registry lookup for ordinary objects.
pub(crate) const F_TOP_COLL: u8 = 1 << 2;

pub(crate) struct HeapInner {
    pub(crate) model: MemoryModel,
    /// Dense object storage; `flags` gates which slots are occupied.
    pub(crate) slab: Vec<Object>,
    /// Packed per-slot flag bytes, parallel to `slab`.
    pub(crate) flags: Vec<u8>,
    /// Per-slot generation stamps, parallel to `slab`: an `ObjId` resolves
    /// only while its generation matches its slot's. A free slot's stamp is
    /// 0, which no object has, so the stamp alone decides liveness.
    pub(crate) gens: Vec<u32>,
    /// Per-slot reference fields / array slots in `ref_pool`, parallel to
    /// `slab` (empty for primitive arrays and ref-free scalars).
    pub(crate) ranges: Vec<RefRange>,
    pub(crate) free: Vec<u32>,
    /// Arena backing every object's reference fields / array slots.
    pub(crate) ref_pool: Vec<Option<ObjId>>,
    /// Exact-size free-range buckets into `ref_pool`: `len → start offsets`
    /// (LIFO, so reuse is cache-warm).
    free_ranges: HashMap<u32, Vec<u32>>,
    pub(crate) generation: u32,
    /// Bytes currently occupied in the object table (live + garbage).
    pub(crate) heap_bytes: u64,
    pub(crate) capacity: Option<u64>,
    /// Growth rule of an elastic heap (see [`Heap::set_elastic`]); `None`
    /// panics with [`OutOfMemory`] instead of growing.
    elastic: Option<Growth>,
    /// Largest `live_after_gc + request` seen at a capacity-pressure GC.
    peak_need: u64,
    pub(crate) gc_interval_bytes: Option<u64>,
    pub(crate) bytes_since_gc: u64,
    pub(crate) roots: HashMap<ObjId, usize>,
    pub(crate) classes: ClassRegistry,
    /// Frame and allocation-context intern table.
    pub(crate) contexts: ContextTable,
    pub(crate) cycles: Vec<CycleStats>,
    pub(crate) gc_config: GcConfig,
    pub(crate) clock: Option<SimClock>,
    pub(crate) total_allocated_bytes: u64,
    pub(crate) total_allocated_objects: u64,
    pub(crate) gc_count: u64,
    /// Reusable epoch-stamped mark array (slot i is marked iff
    /// `marks[i] == mark_epoch`); lives here so collection cycles neither
    /// allocate nor clear marks.
    pub(crate) marks: Vec<AtomicU32>,
    pub(crate) mark_epoch: u32,
    /// Reusable work stack of the single-threaded mark.
    pub(crate) mark_stack: Vec<u32>,
    /// Pre-resolved telemetry handles; `None` (the default) keeps every hot
    /// path exactly as uninstrumented.
    pub(crate) telemetry: Option<HeapTelemetry>,
    /// Execution-trace lane for GC phase spans; `None` (the default)
    /// keeps collection cycles span-free.
    pub(crate) tracer: Option<TraceLane>,
    /// Recent `pause_cost_units` (deterministic sim units) feeding the
    /// flight-recorder anomaly trigger's running median.
    pub(crate) pause_history: VecDeque<u64>,
    /// Continuous heap profiling; `None` (the default) keeps the GC scan
    /// free of snapshot work.
    pub(crate) heapprof: Option<HeapProfState>,
}

/// Single-mutator cell behind every [`Heap`]: entry wins the `busy` swap
/// or panics, so at most one `&mut HeapInner` ever exists.
struct ShardCell {
    busy: AtomicBool,
    /// Partition index this heap belongs to (from
    /// [`HeapConfig::shard_index`]); names the partition in the
    /// concurrent-entry panic so the report points at a partition, not just
    /// "a heap".
    index: Option<usize>,
    inner: UnsafeCell<HeapInner>,
}

// SAFETY: all access to `inner` goes through `Heap::lock` /
// `Heap::try_lock_inner`, which admit exactly one guard at a time via the
// `busy` flag (acquire on entry, release on guard drop). `HeapInner` itself
// is `Send` (asserted below), so handing the cell between threads is sound.
unsafe impl Send for ShardCell {}
unsafe impl Sync for ShardCell {}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<HeapInner>();
};

/// Guard over the heap's cell; clears the busy flag on drop (including the
/// simulated-OOM unwind path).
pub(crate) struct ShardGuard<'a> {
    cell: &'a ShardCell,
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.cell.busy.store(false, Ordering::Release);
    }
}

impl Deref for ShardGuard<'_> {
    type Target = HeapInner;
    fn deref(&self) -> &HeapInner {
        // SAFETY: the busy flag guarantees this is the only guard.
        self.cell.inner.with(|p| unsafe { &*p })
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut HeapInner {
        // SAFETY: the busy flag guarantees this is the only guard.
        self.cell.inner.with_mut(|p| unsafe { &mut *p })
    }
}

/// Cheaply cloneable handle to a simulated heap with a single-mutator
/// contract.
///
/// Clones share one heap and may move between threads, but only one
/// thread at a time may be inside a heap operation. Entering the heap
/// while another thread is inside it panics instead of blocking (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use chameleon_heap::{Heap, ElemKind};
///
/// let heap = Heap::new();
/// let class = heap.register_class("Point", None);
/// let p = heap.alloc_scalar(class, 2, 8, None);
/// heap.add_root(p);
/// let before = heap.gc().live_objects;
/// heap.remove_root(p);
/// let after = heap.gc().live_objects;
/// assert_eq!(before - after, 1);
/// let _ = ElemKind::Ref; // arrays work the same way via `alloc_array`
/// ```
#[derive(Clone)]
pub struct Heap {
    cell: Arc<ShardCell>,
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `try_lock_inner`, not `lock`: debug-printing a heap from a thread
        // that is already inside it (e.g. a panic hook mid-allocation) must
        // not trip the single-mutator panic.
        match self.try_lock_inner() {
            Some(inner) => f
                .debug_struct("Heap")
                .field("objects", &(inner.slab.len() - inner.free.len()))
                .field("heap_bytes", &inner.heap_bytes)
                .field("capacity", &inner.capacity)
                .field("gc_count", &inner.gc_count)
                .finish(),
            None => f.write_str("Heap(<locked>)"),
        }
    }
}

impl Default for Heap {
    fn default() -> Self {
        Heap::new()
    }
}

impl Heap {
    /// Creates an unbounded heap with the paper's 32-bit layout.
    pub fn new() -> Self {
        Heap::with_config(HeapConfig::default())
    }

    /// Creates a heap with an explicit configuration.
    pub fn with_config(config: HeapConfig) -> Self {
        let inner = HeapInner {
            model: config.model,
            slab: Vec::new(),
            flags: Vec::new(),
            gens: Vec::new(),
            ranges: Vec::new(),
            free: Vec::new(),
            ref_pool: Vec::new(),
            free_ranges: HashMap::new(),
            generation: 1,
            heap_bytes: 0,
            capacity: config.capacity,
            elastic: None,
            peak_need: 0,
            gc_interval_bytes: config.gc_interval_bytes,
            bytes_since_gc: 0,
            roots: HashMap::new(),
            classes: ClassRegistry::new(),
            contexts: ContextTable::new(),
            cycles: Vec::new(),
            gc_config: config.gc,
            clock: None,
            total_allocated_bytes: 0,
            total_allocated_objects: 0,
            gc_count: 0,
            marks: Vec::new(),
            mark_epoch: 0,
            mark_stack: Vec::new(),
            telemetry: None,
            tracer: None,
            pause_history: VecDeque::new(),
            heapprof: None,
        };
        Heap {
            cell: Arc::new(ShardCell {
                busy: AtomicBool::new(false),
                index: config.shard_index,
                inner: UnsafeCell::new(inner),
            }),
        }
    }

    /// Enters the heap by flipping its busy flag.
    ///
    /// `op` names the heap operation being entered; it appears in the
    /// concurrent-entry panic so a violation report says which operation
    /// collided on which partition.
    ///
    /// # Panics
    ///
    /// Panics if the heap is entered while another thread is inside it
    /// (single-mutator contract).
    fn lock(&self, op: &'static str) -> ShardGuard<'_> {
        let cell = &*self.cell;
        if cell.busy.swap(true, Ordering::Acquire) {
            let partition = cell.index.map(|i| format!(" of partition {i}"));
            panic!(
                "heap{} entered concurrently during `{op}` (single-mutator contract)",
                partition.unwrap_or_default()
            );
        }
        ShardGuard { cell }
    }

    /// Non-blocking entry; `None` when the heap is held (by any thread,
    /// including the current one).
    fn try_lock_inner(&self) -> Option<ShardGuard<'_>> {
        let cell = &*self.cell;
        if cell.busy.swap(true, Ordering::Acquire) {
            None
        } else {
            Some(ShardGuard { cell })
        }
    }

    /// Creates a heap capped at `capacity` bytes (allocations GC on
    /// exhaustion and panic with [`OutOfMemory`] if still full).
    pub fn with_capacity(capacity: u64) -> Self {
        Heap::with_config(HeapConfig {
            capacity: Some(capacity),
            ..HeapConfig::default()
        })
    }

    /// Attaches a simulated clock; the collector charges its cycle costs to
    /// it.
    pub fn attach_clock(&self, clock: SimClock) {
        self.lock("attach_clock").clock = Some(clock);
    }

    /// Attaches a telemetry handle. Metric handles are resolved once, here;
    /// afterwards the allocation/capture/GC paths pay one enabled-check when
    /// the handle is disabled and lock-free atomics when enabled. Telemetry
    /// never charges the [`SimClock`], so simulated results are identical
    /// with it on, off, or absent. Re-attaching redirects every metric,
    /// context-capture counters included, to the new handle.
    pub fn attach_telemetry(&self, telemetry: &Telemetry) {
        self.lock("attach_telemetry").telemetry = Some(HeapTelemetry::new(telemetry));
    }

    /// Attaches an execution-trace lane: GC cycles record causal phase
    /// spans (mark, sharded scan, sweep, snapshot capture). Re-attaching
    /// replaces the lane. Tracing reads only the wall clock and never
    /// charges the [`SimClock`], so simulated results are bit-identical
    /// with it absent, armed, or exporting. Also arms the flight-recorder
    /// anomaly trigger (see [`GcConfig::anomaly_factor`]).
    pub fn attach_tracer(&self, lane: &TraceLane) {
        self.lock("attach_tracer").tracer = Some(lane.clone());
    }

    /// Enables (with `Some`) or disables (with `None`) continuous heap
    /// profiling. While enabled, every `config.every`-th GC cycle captures a
    /// [`HeapSnapshot`] during the fused scan — per-context self bytes,
    /// object and edge counts, semantic collection totals, and
    /// dominator-based retained sizes over the context condensation.
    /// Snapshot capture only reads the heap and never charges the
    /// [`SimClock`], so simulated results are bit-identical with profiling
    /// on, off, or absent. Re-enabling discards previously captured
    /// snapshots.
    pub fn set_heap_profiling(&self, config: Option<HeapProfConfig>) {
        self.lock("set_heap_profiling").heapprof = config.map(HeapProfState::new);
    }

    /// The active heap-profiling configuration, if any.
    pub fn heap_profiling(&self) -> Option<HeapProfConfig> {
        self.lock("heap_profiling")
            .heapprof
            .as_ref()
            .map(|s| s.config)
    }

    /// All heap snapshots captured so far (empty unless
    /// [`Heap::set_heap_profiling`] enabled capture).
    pub fn heap_snapshots(&self) -> Vec<HeapSnapshot> {
        self.lock("heap_snapshots")
            .heapprof
            .as_ref()
            .map(|s| s.snapshots.clone())
            .unwrap_or_default()
    }

    /// Discards captured snapshots while keeping profiling enabled.
    pub fn clear_heap_snapshots(&self) {
        if let Some(s) = self.lock("clear_heap_snapshots").heapprof.as_mut() {
            s.snapshots.clear();
        }
    }

    /// The layout model this heap uses.
    pub fn model(&self) -> MemoryModel {
        self.lock("model").model
    }

    /// The current capacity cap (`None` = unbounded). An elastic heap's
    /// cap grows during the run (see [`Heap::set_elastic`]).
    pub fn capacity(&self) -> Option<u64> {
        self.lock("capacity").capacity
    }

    /// Makes a capped heap *elastic* (`Some(grow)`) or restores the
    /// simulated `OutOfMemoryError` (`None`, the default).
    ///
    /// Where an allocation does not fit even after its capacity-pressure
    /// GC, an elastic heap raises its cap to `grow(need)` (at least `need`),
    /// with `need` = live bytes after that GC + the request, and carries on
    /// instead of panicking with [`OutOfMemory`]. Up to that point the run
    /// is identical to a plain capped run, so "the cap never grew" means
    /// "completes under the starting cap", and the final cap is one the
    /// run completes under.
    pub fn set_elastic(&self, grow: Option<Growth>) {
        self.lock("set_elastic").elastic = grow;
    }

    /// Largest `need` (live bytes after a capacity-pressure GC + the
    /// request that triggered it) seen so far; 0 before any such GC.
    ///
    /// With exact mark-and-sweep and no allocation-driven GC, a run
    /// completes under cap `C` exactly when `C` covers the live bytes plus
    /// the request at every allocation, so every `need` — and this maximum
    /// — is a lower bound on the smallest cap the run completes under.
    pub fn peak_need(&self) -> u64 {
        self.lock("peak_need").peak_need
    }

    // ----- classes and contexts -------------------------------------------------

    /// Registers a class (idempotent by name).
    pub fn register_class(&self, name: &str, map: Option<SemanticMap>) -> ClassId {
        self.lock("register_class").classes.register(name, map)
    }

    /// Returns the display name of `class`.
    pub fn class_name(&self, class: ClassId) -> String {
        self.lock("class_name").classes.info(class).name.clone()
    }

    /// Interns an allocation context from frame display names
    /// (innermost first), truncated to `depth`.
    pub fn intern_context(&self, src_type: &str, frames: &[String], depth: usize) -> ContextId {
        let mut inner = self.lock("intern_context");
        let table = &mut inner.contexts;
        let ids: Vec<FrameId> = frames
            .iter()
            .take(depth)
            .map(|f| table.intern_frame(f))
            .collect();
        table.intern(src_type, &ids, depth)
    }

    /// Interns a single stack frame into this heap's context table.
    ///
    /// The hit path is a borrowed lookup: no allocation once the frame is
    /// warm. [`CallStackSim::for_heap`](crate::context::CallStackSim::for_heap)
    /// stacks use this so their frame ids are directly valid for
    /// [`Heap::intern_context_ids`].
    pub fn intern_frame(&self, name: &str) -> FrameId {
        let mut inner = self.lock("intern_frame");
        let misses = inner.contexts.frame_misses();
        let id = inner.contexts.intern_frame(name);
        if inner.contexts.frame_misses() != misses {
            if let Some(ht) = inner.telemetry.as_ref().filter(|ht| ht.on()) {
                ht.frame_misses.inc();
            }
        }
        id
    }

    /// Resolves a frame id previously returned by [`Heap::intern_frame`].
    pub fn frame_name(&self, frame: FrameId) -> String {
        self.lock("frame_name")
            .contexts
            .frame_name(frame)
            .to_owned()
    }

    /// Interns an allocation context from already-interned frame ids
    /// (innermost first, truncated to `depth`).
    ///
    /// This is the hot capture path: one heap entry, a borrowed-key probe,
    /// and zero allocations when the context is already known.
    pub fn intern_context_ids(
        &self,
        src_type: &str,
        frames: &[FrameId],
        depth: usize,
    ) -> ContextId {
        let mut inner = self.lock("intern_context_ids");
        let misses = inner.contexts.context_misses();
        let ctx = inner.contexts.intern(src_type, frames, depth);
        if let Some(ht) = inner.telemetry.as_ref().filter(|ht| ht.on()) {
            if inner.contexts.context_misses() != misses {
                ht.ctx_misses.inc();
            } else {
                ht.ctx_hits.inc();
            }
        }
        ctx
    }

    /// `(frame_misses, context_misses)` of the context table: how many
    /// intern calls actually allocated. Warm capture paths leave both
    /// counters unchanged, which tests assert on.
    pub fn context_intern_misses(&self) -> (u64, u64) {
        let inner = self.lock("context_intern_misses");
        (
            inner.contexts.frame_misses(),
            inner.contexts.context_misses(),
        )
    }

    /// Formats a context in the paper's `Type:frame;frame` style.
    pub fn format_context(&self, ctx: ContextId) -> String {
        self.lock("format_context").contexts.format(ctx)
    }

    /// Source type recorded for a context.
    pub fn context_src_type(&self, ctx: ContextId) -> String {
        self.lock("context_src_type")
            .contexts
            .record(ctx)
            .src_type
            .to_string()
    }

    /// Frame display names of a context, innermost first (portable across
    /// heaps: re-interning them reproduces the same logical context).
    pub fn context_frames(&self, ctx: ContextId) -> Vec<String> {
        let inner = self.lock("context_frames");
        let table = &inner.contexts;
        table
            .record(ctx)
            .stack
            .iter()
            .map(|f| table.frame_name(*f).to_owned())
            .collect()
    }

    /// Changes the allocation-driven GC interval.
    pub fn set_gc_interval_bytes(&self, interval: Option<u64>) {
        self.lock("set_gc_interval_bytes").gc_interval_bytes = interval;
    }

    /// Number of distinct allocation contexts interned.
    pub fn context_count(&self) -> usize {
        self.lock("context_count").contexts.len()
    }

    /// Dumps the context table as an `Arc`-shared [`ContextExport`]:
    /// frame names in `FrameId` order plus records in `ContextId` order,
    /// with every string shared rather than copied.
    pub fn export_contexts(&self) -> ContextExport {
        self.lock("export_contexts").contexts.export()
    }

    /// Re-interns `export` (from another heap) into this heap's context
    /// table and returns the remap: index `i` — the exporter's
    /// `ContextId(i)` — maps to this heap's returned id. Used by the
    /// parallel runner's partition merge; by construction the remap is a
    /// pure function of the two tables' contents, never of thread timing.
    pub fn import_contexts(&self, export: &ContextExport) -> Vec<ContextId> {
        self.lock("import_contexts").contexts.import(export)
    }

    // ----- allocation -----------------------------------------------------------

    /// Allocates a scalar object with `ref_fields` reference fields (all
    /// null) and `prim_bytes` of primitive payload.
    ///
    /// # Panics
    ///
    /// Panics with an [`OutOfMemory`] payload if the heap is capped and the
    /// object does not fit even after a GC.
    pub fn alloc_scalar(
        &self,
        class: ClassId,
        ref_fields: u32,
        prim_bytes: u32,
        ctx: Option<ContextId>,
    ) -> ObjId {
        let mut inner = self.lock("alloc_scalar");
        let size = inner.model.object_size(ref_fields, prim_bytes);
        inner.ensure_room(u64::from(size));
        let refs = inner.alloc_range(ref_fields);
        inner.insert(class, size, ctx, ObjBody::Scalar { prim_bytes }, refs)
    }

    /// Allocates an array of `capacity` elements of kind `elem`.
    ///
    /// # Panics
    ///
    /// Panics with an [`OutOfMemory`] payload if the heap is capped and the
    /// array does not fit even after a GC.
    pub fn alloc_array(
        &self,
        class: ClassId,
        elem: ElemKind,
        capacity: u32,
        ctx: Option<ContextId>,
    ) -> ObjId {
        let mut inner = self.lock("alloc_array");
        let elem_bytes = match elem {
            ElemKind::Ref => inner.model.ref_bytes,
            ElemKind::Prim { bytes_per_elem } => bytes_per_elem,
        };
        let size = inner.model.array_size(elem_bytes, capacity);
        inner.ensure_room(u64::from(size));
        let slots = match elem {
            ElemKind::Ref => inner.alloc_range(capacity),
            ElemKind::Prim { .. } => RefRange::EMPTY,
        };
        inner.insert(class, size, ctx, ObjBody::Array { elem, capacity }, slots)
    }

    /// Allocates `N` objects, wires `links` between them and registers
    /// `roots`, all under a single heap acquisition and a single capacity
    /// check.
    ///
    /// Collection constructors allocate a wrapper, an implementation object
    /// and often a backing array together; doing that through three
    /// `alloc_*` calls takes the lock three times and — worse — can run a
    /// capacity-pressure GC between the allocations, sweeping the fresh,
    /// not-yet-linked objects. `alloc_batch` reserves room for the whole
    /// group up front, so a mid-batch GC is impossible.
    ///
    /// `links` entries are `(src, field, dst)` indices into the request
    /// array: object `src` gets its reference field (or array slot) `field`
    /// pointed at object `dst`. `roots` lists request indices to register as
    /// GC roots.
    ///
    /// # Panics
    ///
    /// Panics with an [`OutOfMemory`] payload if the heap is capped and the
    /// combined batch does not fit even after a GC.
    pub fn alloc_batch<const N: usize>(
        &self,
        reqs: [BatchAlloc; N],
        links: &[(usize, usize, usize)],
        roots: &[usize],
    ) -> [ObjId; N] {
        let mut inner = self.lock("alloc_batch");
        let model = inner.model;
        let sizes = reqs.map(|r| r.size(&model));
        let batch_bytes: u64 = sizes.iter().map(|s| u64::from(*s)).sum();
        if let Some(ht) = inner.telemetry.as_ref().filter(|ht| ht.on()) {
            ht.alloc_batch_bytes.record(batch_bytes);
        }
        inner.ensure_room(batch_bytes);
        let mut ids = [ObjId {
            index: 0,
            generation: 0,
        }; N];
        for (i, req) in reqs.into_iter().enumerate() {
            let (class, ctx, body, refs) = match req {
                BatchAlloc::Scalar {
                    class,
                    ref_fields,
                    prim_bytes,
                    ctx,
                } => (
                    class,
                    ctx,
                    ObjBody::Scalar { prim_bytes },
                    inner.alloc_range(ref_fields),
                ),
                BatchAlloc::Array {
                    class,
                    elem,
                    capacity,
                    ctx,
                } => (
                    class,
                    ctx,
                    ObjBody::Array { elem, capacity },
                    match elem {
                        ElemKind::Ref => inner.alloc_range(capacity),
                        ElemKind::Prim { .. } => RefRange::EMPTY,
                    },
                ),
            };
            ids[i] = inner.insert(class, sizes[i], ctx, body, refs);
        }
        for &(src, field, dst) in links {
            let range = inner.ranges[inner.checked(ids[src])];
            inner.ref_pool[range.slot(field)] = Some(ids[dst]);
        }
        // hashmap-iter-ok: `roots` here is the `&[usize]` parameter of
        // request indices, not the heap's root map.
        for &root in roots {
            *inner.roots.entry(ids[root]).or_insert(0) += 1;
        }
        ids
    }

    // ----- object access --------------------------------------------------------

    /// Stores `target` into reference field `field` of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is stale or `field` is out of bounds.
    pub fn set_ref(&self, obj: ObjId, field: usize, target: Option<ObjId>) {
        let mut inner = self.lock("set_ref");
        let range = inner.scalar_refs(obj, "set_ref on array object; use set_elem");
        inner.ref_pool[range.slot(field)] = target;
    }

    /// Reads reference field `field` of `obj`.
    pub fn get_ref(&self, obj: ObjId, field: usize) -> Option<ObjId> {
        let inner = self.lock("get_ref");
        let range = inner.scalar_refs(obj, "get_ref on array object; use get_elem");
        inner.ref_pool[range.slot(field)]
    }

    /// Stores `target` into slot `idx` of a reference array.
    pub fn set_elem(&self, arr: ObjId, idx: usize, target: Option<ObjId>) {
        let mut inner = self.lock("set_elem");
        let range = inner.array_slots(arr, "set_elem on scalar object; use set_ref");
        inner.ref_pool[range.slot(idx)] = target;
    }

    /// Reads slot `idx` of a reference array.
    pub fn get_elem(&self, arr: ObjId, idx: usize) -> Option<ObjId> {
        let inner = self.lock("get_elem");
        let range = inner.array_slots(arr, "get_elem on scalar object; use get_ref");
        inner.ref_pool[range.slot(idx)]
    }

    /// Writes semantic-map metadata slot `idx` (grows the vector as needed).
    pub fn set_meta(&self, obj: ObjId, idx: usize, value: i64) {
        let mut inner = self.lock("set_meta");
        let meta = &mut inner.resolve_mut(obj).meta;
        if meta.len() <= idx {
            meta.resize(idx + 1, 0);
        }
        meta[idx] = value;
    }

    /// Reads semantic-map metadata slot `idx` (0 if never written).
    pub fn get_meta(&self, obj: ObjId, idx: usize) -> i64 {
        let inner = self.lock("get_meta");
        inner.resolve(obj).meta.get(idx).copied().unwrap_or(0)
    }

    /// Returns a snapshot view of `obj`.
    pub fn view(&self, obj: ObjId) -> ObjectView {
        let inner = self.lock("view");
        let i = inner.checked(obj);
        let o = &inner.slab[i];
        ObjectView {
            class: o.class,
            size: o.size,
            ctx: o.ctx,
            refs: inner.ref_pool[inner.ranges[i].as_range()].to_vec(),
            array_capacity: o.array_capacity(),
            meta: o.meta.clone(),
        }
    }

    /// Whether `obj` still resolves (has not been swept).
    pub fn is_live(&self, obj: ObjId) -> bool {
        self.lock("is_live").slot_of(obj).is_some()
    }

    /// Aligned size of `obj` in bytes.
    pub fn size_of(&self, obj: ObjId) -> u32 {
        self.lock("size_of").resolve(obj).size
    }

    /// Class of `obj`.
    pub fn class_of(&self, obj: ObjId) -> ClassId {
        self.lock("class_of").resolve(obj).class
    }

    // ----- roots ----------------------------------------------------------------

    /// Registers `obj` as a GC root (reference counted).
    pub fn add_root(&self, obj: ObjId) {
        *self.lock("add_root").roots.entry(obj).or_insert(0) += 1;
    }

    /// Releases one root registration of `obj`.
    pub fn remove_root(&self, obj: ObjId) {
        let mut inner = self.lock("remove_root");
        if let Some(n) = inner.roots.get_mut(&obj) {
            *n -= 1;
            if *n == 0 {
                inner.roots.remove(&obj);
            }
        }
    }

    /// Number of distinct roots.
    pub fn root_count(&self) -> usize {
        self.lock("root_count").roots.len()
    }

    // ----- GC and statistics ----------------------------------------------------

    /// Runs a full mark-sweep cycle and returns its statistics.
    pub fn gc(&self) -> CycleStats {
        let mut inner = self.lock("gc");
        gc::collect(&mut inner)
    }

    /// All per-cycle statistics recorded so far (Table 3 rows).
    pub fn cycles(&self) -> Vec<CycleStats> {
        self.lock("cycles").cycles.clone()
    }

    /// Largest `live_bytes` over the recorded cycles (0 before the first),
    /// without cloning them.
    pub fn peak_live_bytes(&self) -> u64 {
        let inner = self.lock("peak_live_bytes");
        inner.cycles.iter().map(|c| c.live_bytes).max().unwrap_or(0)
    }

    /// Clears recorded cycle statistics (between runs).
    pub fn clear_cycles(&self) {
        self.lock("clear_cycles").cycles.clear();
    }

    /// Bytes currently occupied in the heap (live + not-yet-collected
    /// garbage).
    pub fn heap_bytes(&self) -> u64 {
        self.lock("heap_bytes").heap_bytes
    }

    /// Total bytes ever allocated.
    pub fn total_allocated_bytes(&self) -> u64 {
        self.lock("total_allocated_bytes").total_allocated_bytes
    }

    /// Total objects ever allocated.
    pub fn total_allocated_objects(&self) -> u64 {
        self.lock("total_allocated_objects").total_allocated_objects
    }

    /// Number of GC cycles run.
    pub fn gc_count(&self) -> u64 {
        self.lock("gc_count").gc_count
    }

    /// Number of objects currently in the table (live + garbage).
    pub fn object_count(&self) -> usize {
        let inner = self.lock("object_count");
        inner.slab.len() - inner.free.len()
    }

    /// Folds a finished partition heap's recorded history into this heap:
    /// per-cycle statistics and heap snapshots (renumbered so cycle indices
    /// continue this heap's counter) plus allocation totals. Context ids
    /// inside `cycles` and `snapshots` must already be remapped into this
    /// heap's context table by the caller. Absorbing partitions in a fixed
    /// order yields a deterministic combined history regardless of which OS
    /// thread ran which partition.
    pub fn absorb_partition(
        &self,
        mut cycles: Vec<CycleStats>,
        mut snapshots: Vec<HeapSnapshot>,
        allocated_bytes: u64,
        allocated_objects: u64,
    ) {
        let mut inner = self.lock("absorb_partition");
        let base = inner.gc_count;
        let absorbed = cycles.len() as u64;
        for c in &mut cycles {
            c.cycle += base;
        }
        for s in &mut snapshots {
            s.cycle += base;
        }
        inner.cycles.append(&mut cycles);
        if let Some(state) = inner.heapprof.as_mut() {
            state.snapshots.extend(snapshots);
        }
        inner.gc_count = base + absorbed;
        inner.total_allocated_bytes += allocated_bytes;
        inner.total_allocated_objects += allocated_objects;
    }
}

impl RefRange {
    /// Pool index of this range's `field`-th slot.
    ///
    /// # Panics
    ///
    /// Panics if `field` is out of bounds for the range.
    fn slot(self, field: usize) -> usize {
        assert!(
            field < self.len as usize,
            "reference slot {field} out of bounds (object has {})",
            self.len
        );
        self.start as usize + field
    }
}

/// One allocation request inside a [`Heap::alloc_batch`] call.
#[derive(Debug, Clone, Copy)]
pub enum BatchAlloc {
    /// A scalar object (see [`Heap::alloc_scalar`]).
    Scalar {
        /// Class to allocate as.
        class: ClassId,
        /// Number of reference fields (initially null).
        ref_fields: u32,
        /// Bytes of primitive payload.
        prim_bytes: u32,
        /// Allocation context to record, if any.
        ctx: Option<ContextId>,
    },
    /// An array object (see [`Heap::alloc_array`]).
    Array {
        /// Class to allocate as.
        class: ClassId,
        /// Element kind.
        elem: ElemKind,
        /// Capacity in elements.
        capacity: u32,
        /// Allocation context to record, if any.
        ctx: Option<ContextId>,
    },
}

impl BatchAlloc {
    fn size(&self, model: &MemoryModel) -> u32 {
        match *self {
            BatchAlloc::Scalar {
                ref_fields,
                prim_bytes,
                ..
            } => model.object_size(ref_fields, prim_bytes),
            BatchAlloc::Array { elem, capacity, .. } => {
                let elem_bytes = match elem {
                    ElemKind::Ref => model.ref_bytes,
                    ElemKind::Prim { bytes_per_elem } => bytes_per_elem,
                };
                model.array_size(elem_bytes, capacity)
            }
        }
    }
}

impl HeapInner {
    fn ensure_room(&mut self, size: u64) {
        if let Some(interval) = self.gc_interval_bytes {
            if self.bytes_since_gc + size > interval {
                gc::collect(self);
                self.bytes_since_gc = 0;
            }
        }
        let Some(cap) = self.capacity else { return };
        if self.heap_bytes + size <= cap {
            return;
        }
        gc::collect(self);
        self.bytes_since_gc = 0;
        let need = self.heap_bytes + size;
        self.peak_need = self.peak_need.max(need);
        if need > cap {
            match &self.elastic {
                Some(grow) => self.capacity = Some(grow(need).max(need)),
                None => std::panic::panic_any(OutOfMemory {
                    requested: size,
                    capacity: cap,
                    live_after_gc: self.heap_bytes,
                }),
            }
        }
    }

    /// Takes a `len`-slot range from the ref pool: exact-size free-bucket
    /// reuse first (slots re-nulled), fresh pool growth otherwise.
    fn alloc_range(&mut self, len: u32) -> RefRange {
        if len == 0 {
            return RefRange::EMPTY;
        }
        if let Some(start) = self.free_ranges.get_mut(&len).and_then(|b| b.pop()) {
            let range = RefRange { start, len };
            self.ref_pool[range.as_range()].fill(None);
            return range;
        }
        let start = self.ref_pool.len() as u32;
        self.ref_pool
            .resize(self.ref_pool.len() + len as usize, None);
        RefRange { start, len }
    }

    /// Clears slot `i` after a sweep: flags and generation zeroed, its ref
    /// range returned to the free buckets, and its meta vector cleared
    /// (capacity kept for the next occupant). The stale `Object` stays in place; every access
    /// path is gated on `F_OCCUPIED` plus the generation stamp.
    pub(crate) fn release_slot(&mut self, i: usize) {
        self.flags[i] = 0;
        self.gens[i] = 0;
        let range = self.ranges[i];
        if range.len > 0 {
            self.free_ranges
                .entry(range.len)
                .or_default()
                .push(range.start);
        }
        self.slab[i].meta.clear();
    }

    fn insert(
        &mut self,
        class: ClassId,
        size: u32,
        ctx: Option<ContextId>,
        body: ObjBody,
        refs: RefRange,
    ) -> ObjId {
        self.heap_bytes += u64::from(size);
        self.bytes_since_gc += u64::from(size);
        self.total_allocated_bytes += u64::from(size);
        self.total_allocated_objects += 1;
        let generation = self.generation;
        let mut flags = F_OCCUPIED;
        if matches!(body, ObjBody::Array { .. }) {
            flags |= F_ARRAY;
        }
        if self
            .classes
            .info(class)
            .semantic_map
            .is_some_and(|m| m.top_level)
        {
            flags |= F_TOP_COLL;
        }
        let index = if let Some(i) = self.free.pop() {
            let slot = &mut self.slab[i as usize];
            slot.class = class;
            slot.size = size;
            slot.ctx = ctx;
            slot.body = body;
            debug_assert!(slot.meta.is_empty(), "released slot keeps cleared meta");
            self.flags[i as usize] = flags;
            self.gens[i as usize] = generation;
            self.ranges[i as usize] = refs;
            i
        } else {
            self.slab.push(Object {
                class,
                size,
                ctx,
                body,
                meta: Vec::new(),
            });
            self.flags.push(flags);
            self.gens.push(generation);
            self.ranges.push(refs);
            (self.slab.len() - 1) as u32
        };
        ObjId { index, generation }
    }

    /// Slot index of `obj` if it still resolves (occupied slot, matching
    /// generation); `None` for a swept or reused slot.
    pub(crate) fn slot_of(&self, obj: ObjId) -> Option<usize> {
        let i = obj.index as usize;
        (self.gens.get(i) == Some(&obj.generation)).then_some(i)
    }

    /// Slot index of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is stale (its object was swept or its slot reused).
    pub(crate) fn checked(&self, obj: ObjId) -> usize {
        let i = obj.index as usize;
        assert!(
            self.flags[i] & F_OCCUPIED != 0,
            "stale ObjId: object was swept"
        );
        assert_eq!(
            self.gens[i], obj.generation,
            "stale ObjId: slot was reused by a newer object"
        );
        i
    }

    pub(crate) fn resolve(&self, obj: ObjId) -> &Object {
        &self.slab[self.checked(obj)]
    }

    pub(crate) fn resolve_mut(&mut self, obj: ObjId) -> &mut Object {
        let i = self.checked(obj);
        &mut self.slab[i]
    }

    /// Reference fields of scalar `obj`; panics with `misuse` on an array.
    fn scalar_refs(&self, obj: ObjId, misuse: &str) -> RefRange {
        let i = self.checked(obj);
        assert!(self.flags[i] & F_ARRAY == 0, "{misuse}");
        self.ranges[i]
    }

    /// Slots of array `arr`; panics with `misuse` on a scalar.
    fn array_slots(&self, arr: ObjId, misuse: &str) -> RefRange {
        let i = self.checked(arr);
        assert!(self.flags[i] & F_ARRAY != 0, "{misuse}");
        self.ranges[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_heap() -> (Heap, ClassId) {
        let heap = Heap::new();
        let class = heap.register_class("Obj", None);
        (heap, class)
    }

    #[test]
    fn alloc_and_view_scalar() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 2, 4, None);
        let v = heap.view(o);
        assert_eq!(v.class, class);
        assert_eq!(v.refs.len(), 2);
        assert_eq!(v.size, heap.model().object_size(2, 4));
        assert!(v.array_capacity.is_none());
    }

    #[test]
    fn alloc_array_and_slots() {
        let (heap, class) = simple_heap();
        let arr = heap.alloc_array(class, ElemKind::Ref, 4, None);
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.set_elem(arr, 2, Some(o));
        assert_eq!(heap.get_elem(arr, 2), Some(o));
        assert_eq!(heap.get_elem(arr, 0), None);
        assert_eq!(heap.view(arr).array_capacity, Some(4));
    }

    #[test]
    fn meta_grows_on_demand() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 0, 0, None);
        assert_eq!(heap.get_meta(o, 3), 0);
        heap.set_meta(o, 3, 42);
        assert_eq!(heap.get_meta(o, 3), 42);
        assert_eq!(heap.get_meta(o, 0), 0);
    }

    #[test]
    fn gc_reclaims_unrooted() {
        let (heap, class) = simple_heap();
        let kept = heap.alloc_scalar(class, 1, 0, None);
        let child = heap.alloc_scalar(class, 0, 0, None);
        let _garbage = heap.alloc_scalar(class, 0, 0, None);
        heap.set_ref(kept, 0, Some(child));
        heap.add_root(kept);
        let stats = heap.gc();
        assert_eq!(stats.live_objects, 2);
        assert_eq!(stats.swept_objects, 1);
        assert!(heap.is_live(kept));
        assert!(heap.is_live(child));
    }

    #[test]
    fn root_refcounting() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.add_root(o);
        heap.add_root(o);
        heap.remove_root(o);
        heap.gc();
        assert!(heap.is_live(o), "still rooted once");
        heap.remove_root(o);
        heap.gc();
        assert!(!heap.is_live(o));
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let (heap, class) = simple_heap();
        let o = heap.alloc_scalar(class, 0, 0, None);
        heap.gc(); // sweeps o
        let o2 = heap.alloc_scalar(class, 0, 0, None);
        // Slot may be reused but ids must differ.
        assert_ne!(o, o2);
        assert!(!heap.is_live(o));
        assert!(heap.is_live(o2));
    }

    #[test]
    fn ref_ranges_are_recycled_by_exact_size() {
        let (heap, class) = simple_heap();
        let a = heap.alloc_scalar(class, 3, 0, None);
        let a_view_start = {
            // Resolve the arena offset through a reference write/read.
            let peer = heap.alloc_scalar(class, 0, 0, None);
            heap.add_root(peer);
            heap.set_ref(a, 1, Some(peer));
            assert_eq!(heap.get_ref(a, 1), Some(peer));
            peer
        };
        heap.gc(); // sweeps `a` (never rooted); its 3-slot range is freed
        let b = heap.alloc_scalar(class, 3, 0, None);
        // The recycled range must come back nulled, not with a's old refs.
        assert_eq!(heap.get_ref(b, 0), None);
        assert_eq!(heap.get_ref(b, 1), None);
        assert_eq!(heap.get_ref(b, 2), None);
        let _keep = a_view_start;
    }

    #[test]
    fn capacity_triggers_gc_then_oom() {
        let heap = Heap::with_capacity(256);
        let class = heap.register_class("Obj", None);
        // Fill with garbage; auto-GC should reclaim and allow more.
        for _ in 0..100 {
            let _ = heap.alloc_scalar(class, 0, 24, None);
        }
        assert!(heap.gc_count() > 0, "capacity pressure must trigger GC");
        // Now pin everything and overflow.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..100 {
                let o = heap.alloc_scalar(class, 0, 24, None);
                heap.add_root(o);
            }
        }));
        let err = result.expect_err("must OOM");
        let oom = err
            .downcast_ref::<OutOfMemory>()
            .expect("payload is OutOfMemory");
        assert_eq!(oom.capacity, 256);
    }

    /// One rooted 32 B object, three 32 B garbage objects, then a 64 B
    /// request: the last capacity-pressure GC leaves 32 B live, so the run
    /// needs exactly 32 + 64 = 96 B.
    fn pressure_script(heap: &Heap) {
        let class = heap.register_class("Obj", None);
        let keep = heap.alloc_scalar(class, 0, 24, None);
        heap.add_root(keep);
        for _ in 0..3 {
            let _ = heap.alloc_scalar(class, 0, 24, None);
        }
        let _ = heap.alloc_scalar(class, 0, 56, None);
    }

    #[test]
    fn pressure_gc_reports_need_and_need_is_the_exact_minimum_cap() {
        let heap = Heap::with_capacity(128);
        pressure_script(&heap);
        assert_eq!(heap.peak_need(), 32 + 64, "live after GC + request");

        let exact = Heap::with_capacity(96);
        pressure_script(&exact);
        assert_eq!(exact.peak_need(), 96, "completes under exactly the need");

        let below = Heap::with_capacity(95);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pressure_script(&below)))
                .expect_err("1 B below the need must OOM");
        let oom = err.downcast_ref::<OutOfMemory>().expect("OutOfMemory");
        assert_eq!(
            *oom,
            OutOfMemory {
                requested: 64,
                capacity: 95,
                live_after_gc: 32
            }
        );
        assert_eq!(below.peak_need(), 96, "recorded before the panic");
    }

    #[test]
    fn elastic_heap_grows_where_it_would_oom() {
        for (slack, grown) in [(0, 96), (8, 96 + 12)] {
            let heap = Heap::with_capacity(95);
            heap.set_elastic(Some(Box::new(move |need| need + need / 8 * slack / 8)));
            pressure_script(&heap);
            assert_eq!(heap.capacity(), Some(grown), "slack {slack}/8");
            assert_eq!(heap.peak_need(), 96);
        }
        let roomy = Heap::with_capacity(128);
        roomy.set_elastic(Some(Box::new(|need| need + need / 8)));
        pressure_script(&roomy);
        assert_eq!(roomy.capacity(), Some(128), "no growth where it fits");
    }

    #[test]
    fn heap_accounting_tracks_alloc_and_sweep() {
        let (heap, class) = simple_heap();
        let size = u64::from(heap.model().object_size(0, 0));
        let a = heap.alloc_scalar(class, 0, 0, None);
        let _b = heap.alloc_scalar(class, 0, 0, None);
        assert_eq!(heap.heap_bytes(), 2 * size);
        heap.add_root(a);
        heap.gc();
        assert_eq!(heap.heap_bytes(), size);
        assert_eq!(heap.total_allocated_bytes(), 2 * size);
        assert_eq!(heap.total_allocated_objects(), 2);
    }

    #[test]
    fn gc_interval_drives_cycles_on_unbounded_heap() {
        let heap = Heap::with_config(HeapConfig {
            gc_interval_bytes: Some(1024),
            ..HeapConfig::default()
        });
        let class = heap.register_class("Obj", None);
        for _ in 0..200 {
            let _ = heap.alloc_scalar(class, 0, 24, None); // 32 B each
        }
        // 200 * 32 B = 6400 B allocated, interval 1 KiB -> ~6 cycles.
        assert!(heap.gc_count() >= 5, "gc_count = {}", heap.gc_count());
        assert!(heap.gc_count() <= 8);
    }

    #[test]
    fn context_frames_are_portable() {
        let heap = Heap::new();
        let ctx = heap.intern_context("HashMap", &["F.m:31".to_owned(), "G.n:50".to_owned()], 2);
        let frames = heap.context_frames(ctx);
        let heap2 = Heap::new();
        let ctx2 = heap2.intern_context("HashMap", &frames, 2);
        assert_eq!(heap.format_context(ctx), heap2.format_context(ctx2));
    }

    #[test]
    fn contexts_roundtrip() {
        let heap = Heap::new();
        let ctx = heap.intern_context(
            "HashMap",
            &["F.m:31".to_owned(), "G.n:50".to_owned(), "H.o:9".to_owned()],
            2,
        );
        assert_eq!(heap.format_context(ctx), "HashMap:F.m:31;G.n:50");
        assert_eq!(heap.context_src_type(ctx), "HashMap");
    }

    #[test]
    fn export_import_remaps_contexts_exactly() {
        let src = Heap::new();
        let c0 = src.intern_context("HashMap", &["A.m:1".to_owned(), "B.n:2".to_owned()], 2);
        let c1 = src.intern_context("ArrayList", &["B.n:2".to_owned()], 1);

        // Destination already knows some overlapping frames/contexts in a
        // different id order.
        let dst = Heap::new();
        let pre = dst.intern_context("ArrayList", &["B.n:2".to_owned()], 1);

        let remap = dst.import_contexts(&src.export_contexts());
        assert_eq!(remap.len(), 2);
        assert_eq!(remap[c1.0 as usize], pre, "existing context is reused");
        assert_eq!(
            dst.format_context(remap[c0.0 as usize]),
            src.format_context(c0)
        );
        assert_eq!(
            dst.format_context(remap[c1.0 as usize]),
            src.format_context(c1)
        );
    }

    #[test]
    fn debug_while_heap_is_held_prints_locked_placeholder() {
        let (heap, class) = simple_heap();
        let _o = heap.alloc_scalar(class, 0, 0, None);
        assert!(format!("{heap:?}").contains("objects"), "unlocked form");
        let guard = heap.lock("debug_test");
        // While the heap is entered (as a panic hook or tracing line inside
        // an allocation would see it), Debug must neither block nor panic.
        assert_eq!(format!("{heap:?}"), "Heap(<locked>)");
        drop(guard);
        assert!(format!("{heap:?}").contains("objects"), "released again");
    }

    #[test]
    fn concurrent_entry_panics_naming_the_operation() {
        fn second_entry_panic(op: impl FnOnce(&Heap) + Send) -> String {
            let heap = Heap::new();
            let _held = heap.lock("a");
            let other = heap.clone();
            let payload = std::thread::scope(|s| {
                s.spawn(move || op(&other))
                    .join()
                    .expect_err("a second thread entering the heap must panic")
            });
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }
        let msg = second_entry_panic(|h| drop(h.lock("b")));
        assert!(
            msg.contains("entered concurrently during `b`"),
            "panic names the colliding operation: {msg}"
        );
        // Context interning enters the cell like every other operation.
        let msg = second_entry_panic(|h| {
            h.intern_context("HashMap", &["F.m:1".to_owned()], 2);
        });
        assert!(
            msg.contains("entered concurrently during `intern_context`"),
            "interning names itself: {msg}"
        );
    }
}
