//! `minheap`: the §5.2 pipeline (profile → rules → policy → minimal-heap
//! search before and after → measured runs at the original minimum plus
//! 12.5%) on fixed paper simulacra. One operation is one simulacrum's
//! pipeline; one round runs them all. Plain rounds call
//! `chameleon_core::run_experiment`; traced rounds compose the same steps
//! from public calls so each layer can be timed, and the round digests
//! check that both give the same simulated results.

use crate::harness::{timed, Layers, Meter, Round, Workload};
use crate::inputs::{num, obj};
use crate::oracle;
use crate::probe::{harvest_into, Probe};
use crate::steps;
use chameleon_core::{
    min_heap_size_with, run_experiment, Env, EnvConfig, ExperimentResult, PortableUpdate,
    RunMetrics, Workload as Sim,
};
use chameleon_rules::RuleEngine;
use chameleon_telemetry::json::Value;
use chameleon_workloads::{Bloat, Findbugs, Fop, Pmd, Tvla};

/// AST nodes of the reduced pmd: its minimal heap (435295 B) is the
/// default-scale one, and the search still thrashes near the minimum
/// (29 → 24 GCs in the measured runs), at a third of the default cost.
pub const PMD_AST_NODES: usize = 600;

/// The fixed inputs. soot (≈4.5 s per pipeline on a 2-core x86-64 host)
/// is left out so three rounds fit one run; its pipeline exercises the
/// same search and GC code as the others.
pub fn simulacra() -> Vec<Box<dyn Sim>> {
    vec![
        Box::new(Bloat::default()),
        Box::new(Fop::default()),
        Box::new(Findbugs::default()),
        Box::new(Tvla::default()),
        Box::new(Pmd {
            ast_nodes: PMD_AST_NODES,
            ..Pmd::default()
        }),
    ]
}

/// Fig. 6 rows of `results/fig6_min_heap.txt` the program does not
/// reproduce: name, the checked-in row, and the row the program computes.
/// tvla's checked-in minimum (815405 → 427827 B) is not what the current
/// pipeline finds (815371 → 427809 B, the same on 1 and 2 cores and at
/// every buildable earlier commit). The benchmark checks tvla against the
/// computed row, so any further change still fails, and reports the
/// mismatch with the table in every run record under `known_mismatches`.
const KNOWN_FIG6: [(&str, oracle::Fig6, oracle::Fig6); 1] = [(
    "tvla",
    oracle::Fig6 {
        before: 815405,
        after: 427827,
        suggestions: 9,
    },
    oracle::Fig6 {
        before: 815371,
        after: 427809,
        suggestions: 9,
    },
)];

/// The minheap workload's state.
pub struct MinHeap {
    sims: Vec<Box<dyn Sim>>,
    engine: RuleEngine,
}

impl MinHeap {
    /// Builds the inputs and the rule engine.
    pub fn setup() -> Self {
        MinHeap {
            sims: simulacra(),
            engine: RuleEngine::builtin(),
        }
    }
}

/// Everything one pipeline produced that must repeat exactly.
struct Outcome {
    name: &'static str,
    suggestions: usize,
    applied: usize,
    before: u64,
    after: u64,
    time_before: RunMetrics,
    time_after: RunMetrics,
}

impl Outcome {
    fn from_result(r: ExperimentResult) -> Self {
        Outcome {
            name: r.name,
            suggestions: r.suggestions.len(),
            applied: r.applied.len(),
            before: r.min_heap_before,
            after: r.min_heap_after,
            time_before: r.time_before,
            time_after: r.time_after,
        }
    }

    fn digest(&self) -> String {
        format!(
            "{} min {}->{} sugg {} applied {} sim {}->{} gc {}->{}",
            self.name,
            self.before,
            self.after,
            self.suggestions,
            self.applied,
            self.time_before.sim_time,
            self.time_after.sim_time,
            self.time_before.gc_count,
            self.time_after.gc_count
        )
    }

    /// Compares with the checked-in Fig. 6/7 rows. pmd runs at a reduced
    /// scale, so only its Fig. 6 row (set by long-lived data) applies. A
    /// mismatch listed in [`KNOWN_FIG6`] goes to `known` instead of failing.
    fn check(&self, known: &mut Vec<String>) -> Result<(), String> {
        let mut errors = Vec::new();
        let want6 = oracle::fig6(self.name)?;
        let got6 = oracle::Fig6 {
            before: self.before,
            after: self.after,
            suggestions: self.suggestions as u64,
        };
        if got6 != want6 {
            match KNOWN_FIG6.iter().find(|k| k.0 == self.name) {
                // The documented mismatch, and nothing else: record it.
                Some((_, table, computed)) if want6 == *table && got6 == *computed => {
                    known.push(format!(
                        "{}: Fig. 6 {got6:?} != results {want6:?} (known, not counted as a failure)",
                        self.name
                    ));
                }
                _ => errors.push(format!("Fig. 6 {got6:?} != results {want6:?}")),
            }
        }
        if self.name != "pmd" {
            let want7 = oracle::fig7(self.name)?;
            let got7 = oracle::Fig7 {
                sim_before: self.time_before.sim_time,
                sim_after: self.time_after.sim_time,
                gc_before: self.time_before.gc_count,
                gc_after: self.time_after.gc_count,
            };
            if got7 != want7 {
                errors.push(format!("Fig. 7 {got7:?} != results {want7:?}"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: {}", self.name, errors.join("; ")))
        }
    }
}

impl MinHeap {
    /// One pipeline as one `run_experiment` call.
    fn pipeline(&self, w: &dyn Sim) -> Outcome {
        Outcome::from_result(run_experiment(w, &self.engine, &EnvConfig::default(), None))
    }

    /// One pipeline composed step by step, each step timed into its layer
    /// row; a probe is attached to every environment it builds and
    /// returned for harvesting after the timed region.
    fn traced_pipeline(&self, w: &dyn Sim, layers: &mut Layers) -> (Outcome, Vec<Probe>) {
        let mut probes = Vec::new();
        let mut config = |c: EnvConfig| {
            let p = Probe::new();
            let c = p.attach(c);
            probes.push(p);
            c
        };
        let profile_config = config(EnvConfig::default());
        let env = Env::new(&profile_config);
        env.run(w);
        let (report, suggestions, applied) =
            steps::suggest(&env, &self.engine, &profile_config, layers);
        let profiled = env.metrics();
        drop(env);

        let hint = report.peak_live().max(64 * 1024);
        let ((before, after), search_s) = timed(|| {
            (
                min_heap_size_with(w, &[], hint, &profile_config),
                min_heap_size_with(w, &applied, hint, &profile_config),
            )
        });
        layers.add("minheap.search_s", search_s);
        layers.add("minheap.calls", 2.0);

        let ((time_before, time_after), measured_s) = timed(|| {
            let mut measured = |policy: &[PortableUpdate]| {
                let env = Env::new(&config(EnvConfig {
                    model: profile_config.model,
                    cost: profile_config.cost,
                    gc_threads: profile_config.gc_threads,
                    ..EnvConfig::measured(before + before / 8)
                }));
                env.apply_policy(policy);
                env.run(w);
                env.metrics()
            };
            (measured(&[]), measured(&applied))
        });
        layers.add("experiment.measured_run_s", measured_s);
        for m in [&profiled, &time_before, &time_after] {
            steps::count_run(layers, m);
        }
        let outcome = Outcome {
            name: w.name(),
            suggestions: suggestions.len(),
            applied: applied.len(),
            before,
            after,
            time_before,
            time_after,
        };
        (outcome, probes)
    }
}

impl Workload for MinHeap {
    /// The findbugs pipeline (the cheapest).
    fn warm_up(&self) {
        self.pipeline(self.sims[2].as_ref());
    }

    fn describe(&self) -> Value {
        obj(vec![
            (
                "simulacra",
                Value::Arr(
                    ["bloat", "fop", "findbugs", "tvla", "pmd"]
                        .iter()
                        .map(|n| Value::Str((*n).into()))
                        .collect(),
                ),
            ),
            ("pmd_ast_nodes", num(PMD_AST_NODES as f64)),
            ("omitted", Value::Str("soot (run time budget)".into())),
            ("seeded", Value::Bool(false)),
        ])
    }

    fn ledger(&self) -> &'static [&'static str] {
        &[
            "heap.gc_s",
            "collections.mutator_s",
            "profiler.report_s",
            "rules.evaluate_s",
            "minheap.search_s",
        ]
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        let mut outcomes = Vec::new();
        let mut probes = Vec::new();
        let meter = Meter::start();
        for w in &self.sims {
            let (outcome, op_s) = if traced {
                let ((outcome, p), op_s) =
                    timed(|| self.traced_pipeline(w.as_ref(), &mut round.layers));
                probes.extend(p);
                (outcome, op_s)
            } else {
                timed(|| self.pipeline(w.as_ref()))
            };
            round.op_s.push(op_s);
            outcomes.push(outcome);
        }
        meter.stop(&mut round);
        round.throughput_ops = outcomes.len() as u64;
        round.sim_objects = outcomes
            .iter()
            .map(|o| o.time_before.total_allocated_objects + o.time_after.total_allocated_objects)
            .sum();
        for o in &outcomes {
            round.digest.push_str(&o.digest());
            round.digest.push('\n');
            let outcome = o.check(&mut round.known);
            round.check(outcome);
        }
        if traced {
            harvest_into(&probes, &mut round, true);
        }
        round
    }
}
