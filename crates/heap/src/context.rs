//! Allocation contexts.
//!
//! Chameleon aggregates every statistic per *allocation context*: the type
//! being allocated plus a bounded suffix of the call stack at the allocation
//! (§3.2.1, "partial allocation context", usually of depth 2 or 3 — deep
//! enough to see through collection factories). This module interns stack
//! frames and contexts so the rest of the system can pass around cheap
//! 32-bit [`ContextId`]s, and provides [`CallStackSim`], the simulated call
//! stack that workloads push frames onto.
//!
//! [`ContextTable`] is the one intern table: every [`Heap`] owns one inside
//! its single-mutator cell, and an unbound [`CallStackSim`] keeps a private
//! one. It is allocation-free on the hit path: frame lookup borrows the
//! candidate `&str` directly, and context lookup probes with a borrowed
//! `(src_type, frames)` key via the `Borrow<dyn ContextKey>` trick, so the
//! per-allocation capture path performs zero `String` (or any other)
//! allocations once its frames and contexts are warm. Miss counters make
//! that property testable.

use crate::heap::Heap;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// Interned identifier of one stack frame (e.g. `"tvla.util.HashMapFactory:31"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// Interned identifier of an allocation context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u32);

/// One interned allocation context: the allocated source type plus the
/// captured (partial) call stack, innermost frame first.
///
/// Both parts are reference-counted, so the table's id vector, its lookup
/// map and every [`ContextExport`] share one allocation per part: cloning
/// a record bumps two counts and copies no bytes.
#[derive(Debug, Clone)]
pub struct ContextRecord {
    /// Name of the collection type the program requested (e.g. `"HashMap"`).
    pub src_type: Arc<str>,
    /// Partial call stack, innermost frame first.
    pub stack: Arc<[FrameId]>,
}

/// Borrow target that lets the context table probe its hash map with a
/// `(&str, &[FrameId])` pair without building an owned key first.
trait ContextKey {
    fn parts(&self) -> (&str, &[FrameId]);
}

/// Borrowed probe key built on the stack for lookups.
struct BorrowedContextKey<'a> {
    src_type: &'a str,
    stack: &'a [FrameId],
}

impl ContextKey for ContextRecord {
    fn parts(&self) -> (&str, &[FrameId]) {
        (&self.src_type, &self.stack)
    }
}

impl ContextKey for BorrowedContextKey<'_> {
    fn parts(&self) -> (&str, &[FrameId]) {
        (self.src_type, self.stack)
    }
}

impl<'a> std::borrow::Borrow<dyn ContextKey + 'a> for ContextRecord {
    fn borrow(&self) -> &(dyn ContextKey + 'a) {
        self
    }
}

// The record must hash exactly like the trait object so borrowed lookups
// land in the same bucket; both therefore delegate to `parts()`.
impl Hash for dyn ContextKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (src, stack) = self.parts();
        src.hash(state);
        stack.hash(state);
    }
}

impl PartialEq for dyn ContextKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn ContextKey + '_ {}

impl Hash for ContextRecord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn ContextKey).hash(state)
    }
}

impl PartialEq for ContextRecord {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for ContextRecord {}

/// Intern table for frames and allocation contexts.
///
/// `FrameId`s and `ContextId`s are dense and insertion-ordered (the GC's
/// per-context accumulators index by them directly), so interning the same
/// sequence into two tables yields the same ids.
///
/// # Examples
///
/// ```
/// use chameleon_heap::context::ContextTable;
///
/// let mut t = ContextTable::new();
/// let f1 = t.intern_frame("tvla.util.HashMapFactory:31");
/// let f2 = t.intern_frame("tvla.core.base.BaseTVS:50");
/// let ctx = t.intern("HashMap", &[f1, f2], 2);
/// assert_eq!(
///     t.format(ctx),
///     "HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50"
/// );
/// ```
#[derive(Default)]
pub struct ContextTable {
    frames: Vec<Arc<str>>,
    frame_ids: HashMap<Arc<str>, FrameId>,
    records: Vec<ContextRecord>,
    record_ids: HashMap<ContextRecord, ContextId>,
    frame_misses: u64,
    context_misses: u64,
}

impl fmt::Debug for ContextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextTable")
            .field("frames", &self.frames.len())
            .field("contexts", &self.records.len())
            .field("frame_misses", &self.frame_misses)
            .field("context_misses", &self.context_misses)
            .finish()
    }
}

impl ContextTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a stack frame by its display name.
    ///
    /// The hit path is a borrowed lookup (zero allocations); a miss performs
    /// exactly one string allocation, shared between the id vector and the
    /// lookup map.
    pub fn intern_frame(&mut self, name: &str) -> FrameId {
        if let Some(id) = self.frame_ids.get(name) {
            return *id;
        }
        self.frame_misses += 1;
        let id = FrameId(self.frames.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.frames.push(Arc::clone(&shared));
        self.frame_ids.insert(shared, id);
        id
    }

    /// Resolves a frame id back to its display name.
    ///
    /// # Panics
    ///
    /// Panics if `frame` was not produced by this table.
    pub fn frame_name(&self, frame: FrameId) -> &str {
        &self.frames[frame.0 as usize]
    }

    /// Interns the context `(src_type, stack truncated to depth)`.
    ///
    /// `stack` is innermost-first; only the first `depth` frames participate
    /// in the context identity, mirroring the paper's partial contexts. The
    /// hit path probes with a borrowed key and allocates nothing; a miss
    /// allocates the record's two shared parts once.
    pub fn intern(&mut self, src_type: &str, stack: &[FrameId], depth: usize) -> ContextId {
        let truncated = &stack[..depth.min(stack.len())];
        let probe = BorrowedContextKey {
            src_type,
            stack: truncated,
        };
        if let Some(id) = self.record_ids.get(&probe as &dyn ContextKey) {
            return *id;
        }
        self.context_misses += 1;
        let id = ContextId(self.records.len() as u32);
        let record = ContextRecord {
            src_type: Arc::from(src_type),
            stack: Arc::from(truncated),
        };
        self.records.push(record.clone());
        self.record_ids.insert(record, id);
        id
    }

    /// Returns the interned record for `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` was not produced by this table.
    pub fn record(&self, ctx: ContextId) -> &ContextRecord {
        &self.records[ctx.0 as usize]
    }

    /// Number of distinct contexts interned so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no context has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of frame interns that missed the table (i.e. allocated).
    pub fn frame_misses(&self) -> u64 {
        self.frame_misses
    }

    /// Number of context interns that missed the table (i.e. allocated).
    pub fn context_misses(&self) -> u64 {
        self.context_misses
    }

    /// Formats a context the way the paper prints suggestions:
    /// `Type:frame;frame`.
    pub fn format(&self, ctx: ContextId) -> String {
        let rec = self.record(ctx);
        let mut s = String::new();
        s.push_str(&rec.src_type);
        s.push(':');
        for (i, f) in rec.stack.iter().enumerate() {
            if i > 0 {
                s.push(';');
            }
            s.push_str(self.frame_name(*f));
        }
        s
    }

    /// Dumps the whole table as a portable, `Arc`-shared export.
    pub(crate) fn export(&self) -> ContextExport {
        ContextExport {
            frames: self.frames.clone(),
            records: self.records.clone(),
        }
    }

    /// Re-interns every record of `export` into this table, returning the
    /// id remap: index `i` (the exporter's `ContextId(i)`) maps to the
    /// returned `ContextId`. Frame names are remapped once up front, so a
    /// merge costs one frame intern per distinct frame plus one context
    /// intern per record — no per-record string materialization.
    pub(crate) fn import(&mut self, export: &ContextExport) -> Vec<ContextId> {
        let frame_remap: Vec<FrameId> = export
            .frames
            .iter()
            .map(|name| self.intern_frame(name))
            .collect();
        let mut buf: Vec<FrameId> = Vec::new();
        export
            .records
            .iter()
            .map(|rec| {
                buf.clear();
                buf.extend(rec.stack.iter().map(|f| frame_remap[f.0 as usize]));
                self.intern(&rec.src_type, &buf, buf.len())
            })
            .collect()
    }
}

impl fmt::Display for ContextRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(depth {})", self.src_type, self.stack.len())
    }
}

/// Portable dump of a context table: frame names in `FrameId` order plus
/// records in `ContextId` order. Produced by
/// [`Heap::export_contexts`](crate::Heap::export_contexts) and consumed by
/// [`Heap::import_contexts`](crate::Heap::import_contexts); everything is
/// `Arc`-shared with the source table, so exporting allocates two vectors
/// and zero strings.
pub struct ContextExport {
    frames: Vec<Arc<str>>,
    records: Vec<ContextRecord>,
}

impl ContextExport {
    /// Number of exported context records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the export carries no context records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl fmt::Debug for ContextExport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextExport")
            .field("frames", &self.frames.len())
            .field("contexts", &self.records.len())
            .finish()
    }
}

/// Stack-buffer size for [`CallStackSim::with_top`]; capture depths beyond
/// this (the paper uses 2–3) fall back to a heap buffer.
const TOP_BUF: usize = 16;

/// Frames the stack can resolve without consulting a heap: either interned
/// into a bound [`Heap`]'s context table or into a private local table.
struct StackInner {
    /// Heap whose context table issues this stack's [`FrameId`]s, if bound.
    heap: Option<Heap>,
    /// Local interner used when no heap is bound (names still resolvable).
    local: ContextTable,
    /// Name → id cache; hit path is a borrowed lookup, and the `Arc<str>`
    /// key doubles as the stored name (clone = refcount bump, no allocation).
    cache: HashMap<Arc<str>, FrameId>,
    /// Current stack, outermost first: `(id, name)` pairs.
    frames: Vec<(FrameId, Arc<str>)>,
}

impl StackInner {
    fn intern(&mut self, name: &str) -> (FrameId, Arc<str>) {
        if let Some((key, id)) = self.cache.get_key_value(name) {
            return (*id, Arc::clone(key));
        }
        let id = match &self.heap {
            Some(heap) => heap.intern_frame(name),
            None => self.local.intern_frame(name),
        };
        let shared: Arc<str> = Arc::from(name);
        self.cache.insert(Arc::clone(&shared), id);
        (id, shared)
    }
}

/// A simulated thread call stack.
///
/// Workloads push a frame when "entering a method" and the guard pops it on
/// scope exit; collection factories snapshot the top frames to build the
/// allocation context. The stack is deliberately single-threaded (the
/// workloads are), cheap to clone, and shares its frames across clones.
///
/// Frames are interned to [`FrameId`]s on first entry; re-entering a frame
/// the stack has seen before allocates nothing, which keeps the
/// per-allocation capture path ([`CallStackSim::with_top`]) allocation-free
/// once warm.
///
/// # Examples
///
/// ```
/// use chameleon_heap::context::CallStackSim;
///
/// let stack = CallStackSim::new();
/// {
///     let _outer = stack.enter("Main.run:10");
///     let _inner = stack.enter("Factory.make:31");
///     assert_eq!(stack.snapshot_names(), vec!["Factory.make:31", "Main.run:10"]);
/// }
/// assert!(stack.snapshot_names().is_empty());
/// ```
#[derive(Clone)]
pub struct CallStackSim {
    inner: Rc<RefCell<StackInner>>,
}

impl fmt::Debug for CallStackSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CallStackSim")
            .field("depth", &inner.frames.len())
            .field("bound_to_heap", &inner.heap.is_some())
            .finish()
    }
}

impl Default for CallStackSim {
    fn default() -> Self {
        CallStackSim::with_heap(None)
    }
}

/// RAII guard returned by [`CallStackSim::enter`]; pops its frame on drop.
pub struct FrameGuard {
    inner: Rc<RefCell<StackInner>>,
}

impl fmt::Debug for FrameGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameGuard")
            .field("depth", &self.inner.borrow().frames.len())
            .finish()
    }
}

impl CallStackSim {
    fn with_heap(heap: Option<Heap>) -> Self {
        CallStackSim {
            inner: Rc::new(RefCell::new(StackInner {
                heap,
                local: ContextTable::new(),
                cache: HashMap::new(),
                frames: Vec::new(),
            })),
        }
    }

    /// Creates an empty simulated call stack with a private frame interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a stack whose frames are interned directly into `heap`'s
    /// context table, so [`CallStackSim::with_top`] yields ids that
    /// [`Heap::intern_context_ids`] accepts without translation.
    pub fn for_heap(heap: Heap) -> Self {
        CallStackSim::with_heap(Some(heap))
    }

    /// Pushes `frame` and returns a guard that pops it when dropped.
    pub fn enter(&self, frame: &str) -> FrameGuard {
        let mut inner = self.inner.borrow_mut();
        let entry = inner.intern(frame);
        inner.frames.push(entry);
        FrameGuard {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Current depth of the simulated stack.
    pub fn depth(&self) -> usize {
        self.inner.borrow().frames.len()
    }

    /// Snapshot of frame names, innermost first.
    pub fn snapshot_names(&self) -> Vec<String> {
        self.inner
            .borrow()
            .frames
            .iter()
            .rev()
            .map(|(_, name)| name.to_string())
            .collect()
    }

    /// Calls `f` with the top `depth` frame ids, innermost first, without
    /// allocating (for depths up to an internal stack-buffer size).
    ///
    /// The ids are only meaningful to the table they were interned into:
    /// the bound heap's for [`CallStackSim::for_heap`] stacks, the private
    /// local table otherwise.
    pub fn with_top<R>(&self, depth: usize, f: impl FnOnce(&[FrameId]) -> R) -> R {
        let inner = self.inner.borrow();
        let frames = &inner.frames;
        let n = depth.min(frames.len());
        let top = frames[frames.len() - n..].iter().rev();
        if n <= TOP_BUF {
            let mut buf = [FrameId(0); TOP_BUF];
            for (slot, (id, _)) in buf.iter_mut().zip(top) {
                *slot = *id;
            }
            f(&buf[..n])
        } else {
            let ids: Vec<FrameId> = top.map(|(id, _)| *id).collect();
            f(&ids)
        }
    }
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        self.inner.borrow_mut().frames.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = ContextTable::new();
        let a = t.intern_frame("A.m:1");
        let b = t.intern_frame("A.m:1");
        assert_eq!(a, b);
        let c1 = t.intern("HashMap", &[a], 2);
        let c2 = t.intern("HashMap", &[b], 2);
        assert_eq!(c1, c2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn depth_truncation_merges_contexts() {
        let mut t = ContextTable::new();
        let a = t.intern_frame("A.m:1");
        let b = t.intern_frame("B.m:2");
        let c = t.intern_frame("C.m:3");
        // Same top-2 frames, different third frame: identical at depth 2.
        let c1 = t.intern("ArrayList", &[a, b, c], 2);
        let c2 = t.intern("ArrayList", &[a, b], 2);
        assert_eq!(c1, c2);
        // But distinct at depth 3.
        let c3 = t.intern("ArrayList", &[a, b, c], 3);
        let c4 = t.intern("ArrayList", &[a, b], 3);
        assert_ne!(c3, c4);
    }

    #[test]
    fn src_type_disambiguates() {
        let mut t = ContextTable::new();
        let a = t.intern_frame("A.m:1");
        let c1 = t.intern("HashMap", &[a], 2);
        let c2 = t.intern("ArrayList", &[a], 2);
        assert_ne!(c1, c2);
    }

    #[test]
    fn format_matches_paper_style() {
        let mut t = ContextTable::new();
        let f1 = t.intern_frame("BaseHashTVSSet:112");
        let f2 = t.intern_frame("tvla.core.base.BaseHashTVSSet:60");
        let ctx = t.intern("ArrayList", &[f1, f2], 3);
        assert_eq!(
            t.format(ctx),
            "ArrayList:BaseHashTVSSet:112;tvla.core.base.BaseHashTVSSet:60"
        );
    }

    #[test]
    fn warm_interns_do_not_miss() {
        let mut t = ContextTable::new();
        let a = t.intern_frame("A.m:1");
        let b = t.intern_frame("B.m:2");
        let _ = t.intern("HashMap", &[a, b], 2);
        assert_eq!(t.frame_misses(), 2);
        assert_eq!(t.context_misses(), 1);
        for _ in 0..100 {
            let a2 = t.intern_frame("A.m:1");
            let _ = t.intern("HashMap", &[a2, b], 2);
        }
        assert_eq!(t.frame_misses(), 2, "warm frame interns must not allocate");
        assert_eq!(
            t.context_misses(),
            1,
            "warm context interns must not allocate"
        );
    }

    #[test]
    fn borrowed_and_owned_keys_agree_on_truncation() {
        let mut t = ContextTable::new();
        let a = t.intern_frame("A.m:1");
        let b = t.intern_frame("B.m:2");
        // Interned via a longer stack truncated to 1: must hit the same
        // bucket as the directly-short probe.
        let c1 = t.intern("ArrayList", &[a, b], 1);
        let c2 = t.intern("ArrayList", &[a], 1);
        assert_eq!(c1, c2);
        assert_eq!(t.context_misses(), 1);
    }

    #[test]
    fn call_stack_sim_nesting() {
        let s = CallStackSim::new();
        assert_eq!(s.depth(), 0);
        let _a = s.enter("a");
        {
            let _b = s.enter("b");
            assert_eq!(s.depth(), 2);
            assert_eq!(s.snapshot_names()[0], "b");
        }
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn call_stack_clones_share_frames() {
        let s = CallStackSim::new();
        let s2 = s.clone();
        let _a = s.enter("a");
        assert_eq!(s2.depth(), 1);
    }

    #[test]
    fn with_top_yields_innermost_first() {
        let s = CallStackSim::new();
        let _a = s.enter("a");
        let _b = s.enter("b");
        let _c = s.enter("c");
        let names = s.snapshot_names();
        assert_eq!(names, vec!["c", "b", "a"]);
        s.with_top(2, |ids| assert_eq!(ids.len(), 2));
        // Ids are stable per name: re-entering reuses the same id.
        let id_c = s.with_top(1, |ids| ids[0]);
        drop(_c);
        let _c2 = s.enter("c");
        assert_eq!(s.with_top(1, |ids| ids[0]), id_c);
    }

    #[test]
    fn with_top_deeper_than_buffer_falls_back() {
        let s = CallStackSim::new();
        let _guards: Vec<_> = (0..TOP_BUF + 4)
            .map(|i| s.enter(&format!("f{i}")))
            .collect();
        s.with_top(TOP_BUF + 2, |ids| assert_eq!(ids.len(), TOP_BUF + 2));
    }

    #[test]
    fn heap_bound_stack_interns_into_heap_table() {
        let heap = Heap::new();
        let s = CallStackSim::for_heap(heap.clone());
        let _a = s.enter("Site.m:1");
        let ctx = s.with_top(2, |ids| heap.intern_context_ids("HashMap", ids, 2));
        assert_eq!(heap.format_context(ctx), "HashMap:Site.m:1");
    }
}
