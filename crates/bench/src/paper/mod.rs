//! The paper runner: every table and figure under `results/`, from one run
//! of each distinct experiment.
//!
//! Each table names the experiments it reads. [`render`] runs every
//! experiment the requested tables need exactly once, spread over a worker
//! pool, and then renders the tables from the results in one fixed order.
//! Every experiment owns its `Env`, so the rendered bytes never depend on
//! the worker count or on which worker ran what. Tables whose experiments
//! no other table reads run whole inside one job.

mod shared;
mod whole;

use crate::out::Out;
use crate::outln;
use chameleon_core::{run_experiment, Env, EnvConfig, ExperimentResult, Workload};
use chameleon_heap::{ClassId, CycleStats, MemoryModel};
use chameleon_profiler::ProfileReport;
use chameleon_rules::{RuleEngine, Suggestion};
use chameleon_workloads::Bloat;
use std::collections::BTreeMap;

/// The six paper benchmarks in the figures' order, with the paper's
/// Fig. 6 minimal-heap improvement and Fig. 7 running-time improvement
/// (% of the original; `None` where §5.3 gives only the figure, no
/// number: TVLA 49->19 min ~ 61%, SOOT 11%, PMD 8.33%).
const PAPER: [(&str, f64, Option<f64>); 6] = [
    ("bloat", 56.0, None),
    ("fop", 7.69, None),
    ("findbugs", 13.79, None),
    ("pmd", 0.0, Some(8.33)),
    ("soot", 6.0, Some(11.0)),
    ("tvla", 50.0, Some(61.0)),
];

/// Formats a percentage column.
fn pct(x: f64) -> String {
    format!("{x:6.2}%")
}

/// Prints a table head: the title, a rule, the column names, a rule.
fn head(out: &Out, title: &str, width: usize, columns: &str) {
    outln!(out, "{title}");
    out.hr(width);
    outln!(out, "{columns}");
    out.hr(width);
}

/// One distinct experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Job {
    /// The §5.2 pipeline of a paper benchmark under the default 32-bit
    /// layout, with the builtin rules.
    Pipeline(&'static str),
    /// The same pipeline under the 64-bit layout.
    Pipeline64(&'static str),
    /// A default profiling run of a paper benchmark, with the builtin
    /// rules' suggestions.
    Profile(&'static str),
    /// A whole table whose experiments no other table reads.
    Whole(&'static str),
}

impl Job {
    fn run(self) -> Outcome {
        match self {
            Job::Pipeline(w) => Outcome::Pipeline(pipeline(w, MemoryModel::jvm32(), w == "bloat")),
            Job::Pipeline64(w) => Outcome::Pipeline(pipeline(w, MemoryModel::jvm64(), false)),
            Job::Profile(w) => Outcome::Profile(profile(w)),
            Job::Whole(name) => {
                let out = Out::default();
                match TABLES.iter().find(|t| t.0 == name) {
                    Some((_, Whole(render))) => render(&out),
                    _ => unreachable!("{name} is not a whole table"),
                }
                Outcome::Text(out.text())
            }
        }
    }
}

fn workload(name: &str) -> Box<dyn Workload> {
    chameleon_workloads::by_name(name).expect("paper benchmark")
}

/// A pipeline's result. For bloat it also carries Fig. 6's minimal heap
/// with the paper's manual fix (lazy allocation of the list fields)
/// under the pipeline's policy, searched from the pipeline's own minimum.
struct Pipeline {
    result: ExperimentResult,
    manual_lazy_after: Option<u64>,
}

fn pipeline(name: &str, model: MemoryModel, manual_lazy: bool) -> Pipeline {
    let config = EnvConfig {
        model,
        ..EnvConfig::default()
    };
    let result = run_experiment(
        workload(name).as_ref(),
        &RuleEngine::builtin(),
        &config,
        None,
    );
    let manual_lazy_after = manual_lazy.then(|| {
        let manual = Bloat {
            manual_lazy: true,
            ..Bloat::default()
        };
        chameleon_core::min_heap_size(&manual, &result.applied, result.min_heap_before)
    });
    Pipeline {
        result,
        manual_lazy_after,
    }
}

/// A profiling run: its report, the builtin rules' suggestions, and the
/// per-cycle statistics with the names of the classes they count.
struct Profile {
    report: ProfileReport,
    suggestions: Vec<Suggestion>,
    cycles: Vec<CycleStats>,
    class_names: BTreeMap<ClassId, String>,
}

fn profile(name: &str) -> Profile {
    let env = Env::new(&EnvConfig::default());
    env.run(workload(name).as_ref());
    let report = env.report();
    let suggestions = RuleEngine::builtin().evaluate(&report);
    let cycles = env.heap.cycles();
    let class_names = cycles
        .iter()
        .flat_map(|c| &c.type_distribution)
        .map(|&(class, _, _)| (class, env.heap.class_name(class)))
        .collect();
    Profile {
        report,
        suggestions,
        cycles,
        class_names,
    }
}

enum Outcome {
    Pipeline(Pipeline),
    Profile(Profile),
    Text(String),
}

/// Every experiment's outcome, keyed by the experiment.
struct Results(BTreeMap<Job, Outcome>);

impl Results {
    fn pipeline(&self, job: Job) -> &Pipeline {
        match self.0.get(&job) {
            Some(Outcome::Pipeline(p)) => p,
            _ => panic!("{job:?} did not run"),
        }
    }

    fn profile(&self, name: &'static str) -> &Profile {
        match self.0.get(&Job::Profile(name)) {
            Some(Outcome::Profile(p)) => p,
            _ => panic!("profile of {name} did not run"),
        }
    }
}

enum Render {
    /// Reads the listed experiments; renders once every job has run.
    Shared(&'static [Job], fn(&Results, &Out)),
    /// Runs the table's own experiments while rendering, as one job.
    Whole(fn(&Out)),
}

use Render::{Shared, Whole};

const PIPELINES: &[Job] = &[
    Job::Pipeline("bloat"),
    Job::Pipeline("fop"),
    Job::Pipeline("findbugs"),
    Job::Pipeline("pmd"),
    Job::Pipeline("soot"),
    Job::Pipeline("tvla"),
];

const PROFILES: &[Job] = &[
    Job::Profile("bloat"),
    Job::Profile("fop"),
    Job::Profile("findbugs"),
    Job::Profile("pmd"),
    Job::Profile("soot"),
    Job::Profile("tvla"),
];

const TVLA: &[Job] = &[Job::Profile("tvla")];

const LAYOUTS: &[Job] = &[
    Job::Pipeline("tvla"),
    Job::Pipeline64("tvla"),
    Job::Pipeline("findbugs"),
    Job::Pipeline64("findbugs"),
];

/// Every table, in output order. The names are the `results/*.txt` stems.
const TABLES: [(&str, Render); 14] = [
    ("fig2_tvla_live_used_core", Shared(TVLA, shared::fig2)),
    ("fig3_top_contexts", Shared(TVLA, shared::fig3)),
    ("fig6_min_heap", Shared(PIPELINES, shared::fig6)),
    ("fig7_running_time", Shared(PIPELINES, shared::fig7)),
    ("fig8_bloat_spike", Whole(whole::fig8)),
    ("table1_stats", Shared(TVLA, shared::table1)),
    ("table2_rules", Shared(PROFILES, shared::table2)),
    ("table3_gc_stats", Shared(TVLA, shared::table3)),
    ("sec23_hybrid_threshold", Whole(whole::sec23)),
    ("sec54_automatic_mode", Whole(whole::sec54)),
    ("ablation_context_depth", Whole(whole::context_depth)),
    ("ablation_layout64", Shared(LAYOUTS, shared::layout64)),
    ("ablation_sampling", Whole(whole::sampling)),
    ("ablation_stability", Whole(whole::stability)),
];

/// Every table name, in output order.
pub fn names() -> impl Iterator<Item = &'static str> {
    TABLES.iter().map(|t| t.0)
}

/// Runs the experiments the named tables need, each once, over `workers`
/// threads, and renders the tables. Returns `(name, text)` in output
/// order, whatever the order of `names`.
///
/// # Errors
///
/// Names a requested table that does not exist.
pub fn render(names: &[&str], workers: usize) -> Result<Vec<(&'static str, String)>, String> {
    if let Some(bad) = names.iter().find(|n| TABLES.iter().all(|t| t.0 != **n)) {
        return Err(format!("unknown table {bad}"));
    }
    let tables: Vec<_> = TABLES.iter().filter(|t| names.contains(&t.0)).collect();
    let mut jobs: Vec<Job> = tables
        .iter()
        .flat_map(|&&(name, ref render)| match render {
            Shared(needs, _) => needs.to_vec(),
            Whole(_) => vec![Job::Whole(name)],
        })
        .collect();
    jobs.sort();
    jobs.dedup();
    // Workers claim jobs in list order. The pmd pipeline is most of the
    // work (≈7.5 s of ≈12 s on a 2-vCPU x86-64 host; no other job takes
    // 1 s), so it starts first and the other workers take everything else.
    jobs.sort_by_key(|j| *j != Job::Pipeline("pmd"));
    let outcomes = crate::eval::run::run_claimed(&jobs, workers, |job| job.run());
    let mut results = Results(jobs.into_iter().zip(outcomes).collect());
    Ok(tables
        .into_iter()
        .map(|&(name, ref render)| {
            let text = match render {
                Shared(_, render) => {
                    let out = Out::default();
                    render(&results, &out);
                    out.text()
                }
                Whole(_) => match results.0.remove(&Job::Whole(name)) {
                    Some(Outcome::Text(text)) => text,
                    _ => unreachable!("{name} ran as one job"),
                },
            };
            (name, text)
        })
        .collect())
}
