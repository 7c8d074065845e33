//! `parallel`: `Env::run_parallel` on a seeded bench_mt-shaped
//! `Synthetic` (8 sites × 4000 maps) with a fixed 4-partition plan on 2
//! threads, followed by the merged profile report. One round is one
//! operation: build the environment, run, report.

use crate::harness::{timed, Meter, Round, Workload};
use crate::inputs::{self, describe_synthetic, num, obj, Rng};
use crate::probe::{harvest_into, Probe};
use crate::steps;
use chameleon_core::{Env, EnvConfig, ParallelConfig};
use chameleon_telemetry::json::Value;
use chameleon_workloads::Synthetic;

/// The fixed partition plan; results depend on it, never on `threads`.
pub const PARTITIONS: usize = 4;
/// Mutator threads of the timed rounds.
pub const THREADS: usize = 2;

/// The parallel workload's state.
pub struct Parallel {
    workload: Synthetic,
}

impl Parallel {
    /// Generates the seeded site set.
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        Parallel {
            workload: inputs::synthetic(&mut rng, "mt", 8, 4000, 6, false),
        }
    }

    fn config() -> EnvConfig {
        EnvConfig {
            gc_interval_bytes: Some(256 * 1024),
            ..EnvConfig::default()
        }
    }

    /// Runs the plan on `threads` threads; returns the round with its
    /// digest (merged metrics, merged report, survivors).
    fn run(&self, threads: usize, traced: bool) -> Round {
        let mut round = Round::default();
        let probe = traced.then(Probe::new);
        let config = match &probe {
            Some(p) => p.attach(Self::config()),
            None => Self::config(),
        };
        let meter = Meter::start();
        let env = Env::new(&config);
        let plan = ParallelConfig {
            partitions: PARTITIONS,
            threads,
        };
        let (stats, run_s) = timed(|| env.run_parallel(&self.workload, plan));
        let (report, report_s) = timed(|| env.report());
        let metrics = env.metrics();
        let contexts = env.heap.context_count();
        drop(env);
        meter.stop(&mut round);
        round.op_s.push(round.wall_s);
        round.throughput_ops = 1;
        round.sim_objects = metrics.total_allocated_objects;
        let layers = &mut round.layers;
        layers.add("parallel.run_s", run_s);
        layers.add("profiler.report_s", report_s);
        layers.add("profiler.contexts", report.contexts.len() as f64);
        layers.add("heap.contexts", contexts as f64);
        steps::count_run(layers, &metrics);
        match stats {
            Ok(stats) => {
                layers.add("parallel.survivors", stats.survivors as f64);
                layers.add("parallel.lock_contention", stats.lock_contention as f64);
                round.digest = format!(
                    "{metrics:?}\nsurvivors {}\n{}\n",
                    stats.survivors,
                    report.to_json()
                );
                round.check(Ok(()));
            }
            Err(e) => round.check(Err(format!("run_parallel: {e}"))),
        }
        if let Some(p) = &probe {
            harvest_into(std::slice::from_ref(p), &mut round, false);
        }
        round
    }
}

impl Workload for Parallel {
    /// One untimed round.
    fn warm_up(&self) {
        self.run(THREADS, false);
    }

    fn describe(&self) -> Value {
        obj(vec![
            ("synthetic", describe_synthetic("mt", &self.workload)),
            ("partitions", num(PARTITIONS as f64)),
            ("threads", num(THREADS as f64)),
            ("heap", Value::Str("uncapped, GC every 256 KiB".into())),
        ])
    }

    fn ledger(&self) -> &'static [&'static str] {
        &["parallel.run_s", "profiler.report_s"]
    }

    /// The merged results must not depend on the thread count.
    fn final_checks(&self, digest: &str) -> Vec<Result<(), String>> {
        vec![if self.run(1, false).digest == digest {
            Ok(())
        } else {
            Err("merged results differ between threads 1 and 2 for one plan".into())
        }]
    }

    fn round(&mut self, traced: bool) -> Round {
        self.run(THREADS, traced)
    }
}
