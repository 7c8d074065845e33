//! GC-cycle benchmarks for the fused single-pass collector.
//!
//! Builds a ~100k-object heap (a mix of array-backed, chained-hash and
//! linked collections plus plain garbage) and measures one full
//! mark + fused-scan + sweep cycle at 1, 2 and 4 worker threads, plus the
//! warm context-capture path. On a single-core host the thread variants
//! measure sharding overhead rather than speedup; the numbers are still
//! the equivalence baseline for multi-core runs.

use chameleon_bench::gc_bench_heap;
use chameleon_heap::Heap;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_gc_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_cycle");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let heap = gc_bench_heap(threads);
        assert!(
            heap.object_count() >= 100_000,
            "heap too small for the benchmark"
        );
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| black_box(heap.gc().live_objects));
        });
    }
    group.finish();
}

fn bench_context_capture(c: &mut Criterion) {
    use chameleon_collections::factory::CollectionFactory;
    use chameleon_collections::Runtime;
    let mut group = c.benchmark_group("context_capture");
    let f = CollectionFactory::new(Runtime::new(Heap::new()));
    let _outer = f.enter("Outer.run:1");
    let _inner = f.enter("Hot.site:7");
    // Warm the intern tables, then measure the steady-state capture path.
    let _ = f.capture_context("HashMap");
    group.bench_function("warm_capture", |b| {
        b.iter(|| black_box(f.capture_context("HashMap")));
    });
    group.finish();
}

criterion_group!(benches, bench_gc_cycle, bench_context_capture);
criterion_main!(benches);
