//! # chameleon-bench
//!
//! Harnesses regenerating every table and figure of the Chameleon paper.
//! The `paper` binary ([`paper`]) writes all of them to `results/`;
//! `benches/` holds the Criterion micro-benchmarks validating the
//! cost-model orderings on real hardware. See EXPERIMENTS.md at the
//! workspace root for the index.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod eval;
pub mod out;
pub mod paper;

use chameleon_heap::semantic::{AdtDescriptor, CollectionKind, SemanticMap};
use chameleon_heap::{ElemKind, GcConfig, Heap, HeapConfig};

/// Collections built by [`gc_bench_heap`]: ~12 objects each, so the heap
/// holds ~100k objects (104,998 exactly).
const GC_BENCH_COLLECTIONS: usize = 10_000;

/// Builds the GC benchmark heap shared by `bench_gc` and the `gc_cycle`
/// Criterion bench: a mix of array-backed and chained-hash collections
/// over 64 contexts, plain rooted payload and floating garbage, collected
/// with `threads` marking threads.
pub fn gc_bench_heap(threads: usize) -> Heap {
    let heap = Heap::with_config(HeapConfig {
        gc: GcConfig {
            threads,
            ..GcConfig::default()
        },
        ..HeapConfig::default()
    });
    let wrap_list = heap.register_class(
        "ListWrapper",
        Some(SemanticMap::wrapper(CollectionKind::List)),
    );
    let wrap_map = heap.register_class(
        "MapWrapper",
        Some(SemanticMap::wrapper(CollectionKind::Map)),
    );
    let array_impl = heap.register_class(
        "ArrayListImpl",
        Some(SemanticMap::backing(
            CollectionKind::List,
            AdtDescriptor::ArrayBacked {
                array_field: 0,
                slots_per_elem: 1,
            },
        )),
    );
    let hash_impl = heap.register_class(
        "HashMapImpl",
        Some(SemanticMap::backing(
            CollectionKind::Map,
            AdtDescriptor::ChainedHash { array_field: 0 },
        )),
    );
    let arr_class = heap.register_class("Object[]", None);
    let entry_class = heap.register_class("Entry", None);
    let plain = heap.register_class("Plain", None);

    for i in 0..GC_BENCH_COLLECTIONS {
        let ctx = Some(heap.intern_context(
            "Coll",
            &[format!("Site.m:{}", i % 64), "Outer.run:1".to_owned()],
            2,
        ));
        let w = if i % 2 == 0 {
            let w = heap.alloc_scalar(wrap_list, 1, 0, ctx);
            let im = heap.alloc_scalar(array_impl, 1, 8, None);
            let arr = heap.alloc_array(arr_class, ElemKind::Ref, 10, None);
            heap.set_ref(w, 0, Some(im));
            heap.set_ref(im, 0, Some(arr));
            heap.set_meta(im, 0, (i % 10) as i64);
            heap.set_meta(w, 0, (i % 10) as i64);
            w
        } else {
            let w = heap.alloc_scalar(wrap_map, 1, 0, ctx);
            let im = heap.alloc_scalar(hash_impl, 1, 16, None);
            let arr = heap.alloc_array(arr_class, ElemKind::Ref, 16, None);
            heap.set_ref(w, 0, Some(im));
            heap.set_ref(im, 0, Some(arr));
            for e in 0..(i % 6) {
                let entry = heap.alloc_scalar(entry_class, 3, 4, None);
                if let Some(head) = heap.get_elem(arr, e % 16) {
                    heap.set_ref(entry, 0, Some(head));
                }
                heap.set_elem(arr, e % 16, Some(entry));
            }
            heap.set_meta(im, 0, (i % 6) as i64);
            heap.set_meta(im, 1, (i % 6).min(16) as i64);
            heap.set_meta(w, 0, (i % 6) as i64);
            w
        };
        heap.add_root(w);
        // Plain live payload hanging off nothing (rooted directly) plus
        // floating garbage, so the sweep has real work every cycle.
        for g in 0..6 {
            let o = heap.alloc_scalar(plain, (g % 3) as u32, 8, None);
            if g == 0 {
                heap.add_root(o);
            }
        }
    }
    heap
}
