//! Simulated heap objects.
//!
//! Every allocation in the simulated heap is either a *scalar* object (a
//! fixed set of reference fields plus opaque primitive bytes) or an *array*
//! (of references or of primitives). Objects carry the [`ClassId`] they were
//! allocated as, the [`ContextId`] they were
//! allocated at, and a small `meta` vector of primitive values that semantic
//! ADT maps read (e.g. a collection's logical size) — the analogue of the
//! fields the paper's GC reads through its semantic maps.

use crate::context::ContextId;

/// Identifier of a registered class (allocation type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Handle to a heap object.
///
/// Ids are generational: after an object is swept, a stale `ObjId` no longer
/// resolves, which turns use-after-free bugs in collection implementations
/// into immediate panics instead of silent corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl ObjId {
    /// Slot index within the heap's object table (stable while the object is
    /// live; reused after it is collected).
    pub fn index(&self) -> u32 {
        self.index
    }
}

/// Element kind of a simulated array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// Array of references; slots are traced by the collector.
    Ref,
    /// Array of primitives of the given width in bytes; not traced.
    Prim {
        /// Bytes per element (e.g. 4 for `int[]`).
        bytes_per_elem: u32,
    },
}

/// A contiguous run of reference slots inside the heap's shared ref pool.
///
/// Objects no longer own a `Box<[Option<ObjId>]>` each; their reference
/// fields (or array slots) live in one arena (`HeapInner::ref_pool`) and
/// the slot records only `start..start+len` (in `HeapInner::ranges`). Allocating an object
/// therefore costs zero process-allocator calls once the pool and the
/// exact-size free-range buckets are warm — the property that makes
/// per-partition mutator threads scale instead of contending on `malloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RefRange {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl RefRange {
    pub(crate) const EMPTY: RefRange = RefRange { start: 0, len: 0 };

    pub(crate) fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// The non-null references stored in this range of `pool`.
    pub(crate) fn targets(self, pool: &[Option<ObjId>]) -> impl Iterator<Item = ObjId> + '_ {
        pool[self.as_range()].iter().filter_map(|r| *r)
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum ObjBody {
    Scalar {
        #[allow(dead_code)]
        prim_bytes: u32,
    },
    Array {
        elem: ElemKind,
        capacity: u32,
    },
}

/// A slab slot's payload. The slot's generation stamp and reference range
/// live in arrays parallel to the slab (`HeapInner::gens` /
/// `HeapInner::ranges`), so the collector's mark never reads an `Object`.
#[derive(Debug)]
pub(crate) struct Object {
    pub(crate) class: ClassId,
    pub(crate) size: u32,
    pub(crate) ctx: Option<ContextId>,
    pub(crate) body: ObjBody,
    /// Primitive metadata readable by semantic maps (logical size, used
    /// bucket count, …). Written by collection implementations. Cleared —
    /// capacity retained — when the slot is swept, so slot reuse does not
    /// reallocate it.
    pub(crate) meta: Vec<i64>,
}

impl Object {
    pub(crate) fn array_capacity(&self) -> Option<u32> {
        match &self.body {
            ObjBody::Array { capacity, .. } => Some(*capacity),
            ObjBody::Scalar { .. } => None,
        }
    }
}

/// A snapshot view of one heap object, for inspection APIs and semantic maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectView {
    /// Class the object was allocated as.
    pub class: ClassId,
    /// Aligned size of this single object in bytes.
    pub size: u32,
    /// Allocation context, if one was recorded.
    pub ctx: Option<ContextId>,
    /// Reference fields (scalar) or reference slots (ref array).
    pub refs: Vec<Option<ObjId>>,
    /// Array capacity if the object is an array.
    pub array_capacity: Option<u32>,
    /// Semantic-map metadata values.
    pub meta: Vec<i64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_id_equality_includes_generation() {
        let a = ObjId {
            index: 3,
            generation: 1,
        };
        let b = ObjId {
            index: 3,
            generation: 2,
        };
        assert_ne!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn refs_iter_skips_null_slots() {
        // The ref pool holds an unrelated leading slot; the range covers
        // only the object's own three slots.
        let pool = vec![
            Some(ObjId {
                index: 99,
                generation: 0,
            }),
            None,
            Some(ObjId {
                index: 7,
                generation: 0,
            }),
            None,
        ];
        let targets: Vec<_> = RefRange { start: 1, len: 3 }.targets(&pool).collect();
        assert_eq!(targets.len(), 1);
        assert_eq!(targets[0].index(), 7);
    }

    #[test]
    fn empty_ref_range_iterates_nothing() {
        let pool: Vec<Option<ObjId>> = vec![Some(ObjId {
            index: 1,
            generation: 0,
        })];
        let o = Object {
            class: ClassId(0),
            size: 16,
            ctx: None,
            body: ObjBody::Array {
                elem: ElemKind::Prim { bytes_per_elem: 4 },
                capacity: 8,
            },
            meta: Vec::new(),
        };
        assert_eq!(RefRange::EMPTY.targets(&pool).count(), 0);
        assert_eq!(o.array_capacity(), Some(8));
    }
}
