//! Emits `BENCH_mt.json`: wall-time of the parallel mutator runtime on a
//! partitioned synthetic workload at 1/2/4 mutator threads, compared
//! against a pure-sequential baseline (`Env::run`, no partitioning), plus
//! a determinism check — the merged profile must be bit-identical at every
//! thread count. Partition heaps are single-mutator, so any concurrent
//! entry into one panics and fails this bench outright.
//!
//! Run from the workspace root: `cargo run --release --bin bench_mt`.

use chameleon_bench::out::{host_meta_json, write_artifact, Out};
use chameleon_bench::outln;
use chameleon_core::{Env, EnvConfig, ParallelConfig};
use chameleon_workloads::synthetic::{SizeDist, Synthetic, SyntheticSite};
use std::fmt::Write as _;
use std::time::Instant;

const SITES: usize = 8;
const INSTANCES_PER_SITE: usize = 4_000;
const PARTITIONS: usize = 4;
const REPEATS: usize = 5;

fn workload() -> Synthetic {
    Synthetic {
        sites: (0..SITES)
            .map(|i| SyntheticSite {
                frame: format!("bench.mt.Site:{i}"),
                instances: INSTANCES_PER_SITE,
                sizes: SizeDist::Fixed(6),
                gets_per_instance: 8,
                long_lived: i % 2 == 0,
                via_factory: false,
            })
            .collect(),
    }
}

fn env_config() -> EnvConfig {
    EnvConfig {
        gc_interval_bytes: Some(256 * 1024),
        ..EnvConfig::default()
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let out = Out::new("bench_mt");
    let w = workload();

    // Pure-sequential baseline: one un-partitioned `Env::run`, the cost
    // every parallel configuration is competing against.
    let mut seq_samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let env = Env::new(&env_config());
        let t0 = Instant::now();
        env.run(&w);
        seq_samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let seq_med = median(seq_samples.clone());
    let seq_min = seq_samples.iter().copied().fold(f64::INFINITY, f64::min);
    outln!(
        out,
        "sequential baseline: median {seq_med:.1} us, min {seq_min:.1} us \
         ({} sites, no partitioning)",
        w.sites.len()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"host\": {},", host_meta_json());
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    let _ = writeln!(
        json,
        "  \"sequential_baseline\": {{\"median_us\": {seq_med:.2}, \
         \"min_us\": {seq_min:.2}, \"repeats\": {REPEATS}}},"
    );
    json.push_str("  \"parallel_mutators\": [\n");
    let mut fingerprints = Vec::new();
    let mut first = true;
    for threads in [1usize, 2, 4] {
        let mut samples = Vec::with_capacity(REPEATS);
        let mut survivors = 0usize;
        let mut fingerprint = None;
        for _ in 0..REPEATS {
            let env = Env::new(&env_config());
            let t0 = Instant::now();
            let stats = env
                .run_parallel(
                    &w,
                    ParallelConfig {
                        partitions: PARTITIONS,
                        threads,
                    },
                )
                .expect("synthetic is partitionable");
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
            survivors = stats.survivors;
            fingerprint = Some((env.metrics(), env.report().to_json()));
        }
        let med = median(samples.clone());
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let overhead_pct = (med - seq_med) / seq_med * 100.0;
        outln!(
            out,
            "parallel_mutators threads={threads}: median {med:.1} us, min {min:.1} us \
             ({PARTITIONS} partitions, {} sites, {survivors} survivor(s), \
             {overhead_pct:+.1}% vs sequential)",
            w.sites.len()
        );
        fingerprints.push((threads, fingerprint.expect("at least one repeat")));
        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "    {{\"threads\": {threads}, \"partitions\": {PARTITIONS}, \
             \"median_us\": {med:.2}, \"min_us\": {min:.2}, \"repeats\": {REPEATS}, \
             \"survivors\": {survivors}, \"overhead_vs_sequential_pct\": {overhead_pct:.2}}}"
        );
    }
    json.push_str("\n  ],\n");

    // Determinism: the merged profile is a function of (workload,
    // partition plan) alone — every thread count must produce the same
    // metrics and the same report, byte for byte.
    let (_, baseline) = &fingerprints[0];
    let deterministic = fingerprints.iter().all(|(_, fp)| fp == baseline);
    assert!(
        deterministic,
        "merged profile differs across thread counts: {:?}",
        fingerprints
            .iter()
            .map(|(t, (m, _))| (*t, *m))
            .collect::<Vec<_>>()
    );
    outln!(
        out,
        "determinism: merged profile identical across thread counts 1/2/4 \
         ({} report bytes)",
        baseline.1.len()
    );
    let _ = writeln!(
        json,
        "  \"deterministic_across_threads\": {deterministic},\n  \
         \"report_bytes\": {}\n}}",
        baseline.1.len()
    );

    write_artifact("BENCH_mt.json", &json);
}
