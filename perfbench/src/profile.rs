//! `profile`: quick experiments (profiled run → rules → apply → re-run,
//! the per-cell experiment of the evaluation fleet) on uncapped heaps.
//! One operation is one experiment; one round runs every input once.
//! Plain rounds call `chameleon_core::run_quick_experiment`; traced
//! rounds compose its steps from public calls so each layer can be
//! timed, and the round digests check that both give the same results.

use crate::harness::{timed, Layers, Meter, Round, Workload};
use crate::inputs::{self, describe_synthetic, obj, Rng};
use crate::oracle::{self, Cell};
use crate::probe::{harvest_into, Probe};
use crate::steps;
use chameleon_core::{run_quick_experiment, Env, EnvConfig, RunMetrics, Workload as Sim};
use chameleon_rules::{RuleEngine, Suggestion};
use chameleon_telemetry::json::Value;
use chameleon_workloads::{Bloat, Findbugs, Fop, Synthetic, Tvla};

/// Seeded `Synthetic` site sets per round.
pub const SYNTHETIC_SETS: usize = 4;

/// The profile workload's state.
pub struct Profile {
    inputs: Vec<Box<dyn Sim>>,
    synthetic: Vec<Synthetic>,
    engine: RuleEngine,
}

impl Profile {
    /// Builds the mutator-heavy simulacra, the seeded site sets and the
    /// rule engine.
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let synthetic: Vec<Synthetic> = (0..SYNTHETIC_SETS)
            .map(|i| inputs::synthetic(&mut rng, &format!("prof{i}"), 6, 400, 6, true))
            .collect();
        let mut inputs: Vec<Box<dyn Sim>> = vec![
            Box::new(Tvla::default()),
            Box::new(Bloat::default()),
            Box::new(Fop::default()),
            Box::new(Findbugs::default()),
        ];
        inputs.extend(
            synthetic
                .iter()
                .map(|s| Box::new(s.clone()) as Box<dyn Sim>),
        );
        Profile {
            inputs,
            synthetic,
            engine: RuleEngine::builtin(),
        }
    }
}

/// One experiment's simulated results.
struct Outcome {
    name: &'static str,
    cell: Cell,
    before: RunMetrics,
    after: RunMetrics,
}

impl Outcome {
    fn digest(&self) -> String {
        format!(
            "{} sim {}->{} gc {}->{} alloc {}->{} sugg [{}]",
            self.name,
            self.before.sim_time,
            self.after.sim_time,
            self.before.gc_count,
            self.after.gc_count,
            self.before.total_allocated_objects,
            self.after.total_allocated_objects,
            self.cell.suggestions.join(" | ")
        )
    }
}

fn cell(suggestions: &[Suggestion], before: &RunMetrics, after: &RunMetrics) -> Cell {
    let mut rendered: Vec<String> = suggestions.iter().map(|s| s.to_string()).collect();
    rendered.sort();
    Cell {
        sim_time_before: before.sim_time,
        gc_before: before.gc_count,
        cost_ratio: after.sim_time as f64 / before.sim_time.max(1) as f64,
        suggestions: rendered,
    }
}

impl Profile {
    /// One experiment as one `run_quick_experiment` call.
    fn experiment(&self, w: &dyn Sim) -> Result<Outcome, String> {
        let q = run_quick_experiment(w, &self.engine, &EnvConfig::default(), None)
            .map_err(|e| format!("{}: {e}", w.name()))?;
        Ok(Outcome {
            name: q.name,
            cell: cell(&q.suggestions, &q.before, &q.after),
            before: q.before,
            after: q.after,
        })
    }

    /// One experiment composed step by step under `config`, each step
    /// timed into its layer row.
    fn traced_experiment(&self, w: &dyn Sim, config: &EnvConfig, layers: &mut Layers) -> Outcome {
        let env = Env::new(config);
        env.run(w);
        let (_, suggestions, applied) = steps::suggest(&env, &self.engine, config, layers);
        let before = env.metrics();
        drop(env);
        let after_env = Env::new(&EnvConfig {
            policy: applied,
            ..config.clone()
        });
        after_env.run(w);
        let after = after_env.metrics();
        steps::count_run(layers, &before);
        steps::count_run(layers, &after);
        Outcome {
            name: w.name(),
            cell: cell(&suggestions, &before, &after),
            before,
            after,
        }
    }
}

impl Workload for Profile {
    /// One experiment on the first seeded site set.
    fn warm_up(&self) {
        let w = &self.inputs[self.inputs.len() - SYNTHETIC_SETS];
        // A failure here shows again, as a failed check, in every round.
        let _ = self.experiment(w.as_ref());
    }

    fn describe(&self) -> Value {
        obj(vec![
            (
                "simulacra",
                Value::Arr(
                    ["tvla", "bloat", "fop", "findbugs"]
                        .iter()
                        .map(|n| Value::Str((*n).into()))
                        .collect(),
                ),
            ),
            (
                "synthetic",
                Value::Arr(
                    self.synthetic
                        .iter()
                        .enumerate()
                        .map(|(i, s)| describe_synthetic(&format!("prof{i}"), s))
                        .collect(),
                ),
            ),
            ("heap", Value::Str("uncapped, GC every 256 KiB".into())),
        ])
    }

    fn ledger(&self) -> &'static [&'static str] {
        &[
            "heap.gc_s",
            "collections.mutator_s",
            "profiler.report_s",
            "rules.evaluate_s",
        ]
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        let mut outcomes = Vec::new();
        let mut probes = Vec::new();
        let meter = Meter::start();
        for w in &self.inputs {
            let (outcome, op_s) = if traced {
                let probe = Probe::new();
                let config = probe.attach(EnvConfig::default());
                probes.push(probe);
                let (o, op_s) =
                    timed(|| self.traced_experiment(w.as_ref(), &config, &mut round.layers));
                (Ok(o), op_s)
            } else {
                timed(|| self.experiment(w.as_ref()))
            };
            round.op_s.push(op_s);
            match outcome {
                Ok(o) => outcomes.push(o),
                Err(e) => round.check(Err(e)),
            }
        }
        meter.stop(&mut round);
        round.throughput_ops = self.inputs.len() as u64;
        round.sim_objects = outcomes
            .iter()
            .map(|o| o.before.total_allocated_objects + o.after.total_allocated_objects)
            .sum();
        for o in &outcomes {
            round.digest.push_str(&o.digest());
            round.digest.push('\n');
            let golden = match o.name {
                "tvla" => oracle::check_golden("tvla+builtin+default+t1+teloff", &o.cell),
                _ => Ok(()),
            };
            round.check(golden);
        }
        if traced {
            harvest_into(&probes, &mut round, true);
        }
        round
    }
}
