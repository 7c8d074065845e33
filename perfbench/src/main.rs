//! End-to-end and per-layer benchmark of the Chameleon reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <minheap|profile|serve|parallel> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets its workload up, runs one untimed warm-up operation, then
//! runs rounds of it for `--seconds`, setting it up again (timed, then
//! discarded) before every round so the median set-up time, `setup_s`,
//! samples the whole run. It checks every simulated output,
//! and prints a record of the run (host, seed, inputs, metrics with units
//! and sample counts, checks, and for traced runs the per-layer ledger)
//! followed, as the last line, by the summary
//! `{"attempted":..,"correct":..,"failed":..,"metrics":{..}}`.
//!
//! With `--trace 0` every round is plain and the summary holds the
//! end-to-end metrics. With `--trace 1` plain and traced rounds alternate;
//! traced rounds attach the program's own tracer and telemetry and the
//! summary holds the per-layer metrics, each a mean per traced round.
//! Both summaries are rendered through `chameleon_telemetry::json`.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc; build it on 64-bit Linux");

mod harness;
mod inputs;
mod minheap;
mod oracle;
mod parallel;
mod probe;
mod profile;
mod serve;
mod steps;

use chameleon_telemetry::json::{self, Value};
use harness::{median, quantile, run_rounds, timed, Layers, Round, Rounds, Workload};
use inputs::{num, obj};
use std::process::ExitCode;

/// The ledger may leave this share of the traced wall time unaccounted
/// (`other_s`), and may over-count it by `LEDGER_OVERLAP` at most.
const LEDGER_TOLERANCE: f64 = 0.05;
/// See [`LEDGER_TOLERANCE`].
const LEDGER_OVERLAP: f64 = 0.02;

/// Per-layer metrics (traced rounds): name and unit. Rows a workload does
/// not exercise read 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("heap.gc_cycles", "count"),
    ("heap.gc_s", "s"),
    ("heap.gc_mark_s", "s"),
    ("heap.gc_scan_s", "s"),
    ("heap.gc_sweep_s", "s"),
    ("heap.alloc_objects", "count"),
    ("heap.alloc_bytes", "B"),
    ("heap.ctx_intern_misses", "count"),
    ("heap.contexts", "count"),
    ("collections.mutator_s", "s"),
    ("collections.capture_count", "count"),
    ("profiler.report_s", "s"),
    ("profiler.contexts", "count"),
    ("rules.evaluate_s", "s"),
    ("rules.suggestions", "count"),
    ("rules.applicable", "count"),
    ("minheap.search_s", "s"),
    ("minheap.calls", "count"),
    ("minheap.search_share", "%"),
    ("experiment.measured_run_s", "s"),
    ("serve.open_s", "s"),
    ("serve.step_s", "s"),
    ("serve.report_s", "s"),
    ("serve.close_s", "s"),
    ("serve.json_parse_s", "s"),
    ("serve.json_render_s", "s"),
    ("serve.evaluations", "count"),
    ("serve.replacements", "count"),
    ("serve.reverts", "count"),
    ("serve.drift_events", "count"),
    ("serve.deaths", "count"),
    ("serve.install_ratio", "ratio"),
    ("parallel.run_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.merge_s", "s"),
    ("parallel.ctx_stripe_wait_s", "s"),
    ("parallel.survivors", "count"),
    ("parallel.lock_contention", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("ledger.other_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == key)
            .ok_or_else(|| format!("missing {key}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Workload names, why each was chosen, and what one operation is.
const WORKLOADS: [(&str, &str, &str); 4] = [
    (
        "minheap",
        "Sec. 5.2 min-heap pipeline on the paper simulacra; the search is over 90% of wall time and GC-bound, so GC and search changes show here",
        "one run_experiment call: one simulacrum's whole pipeline",
    ),
    (
        "profile",
        "quick experiments on mutator-heavy simulacra and seeded synthetic sites; most time is op dispatch, capture and allocation, not GC",
        "one run_quick_experiment call: profiled run, rules, policy re-run",
    ),
    (
        "serve",
        "closed-loop seeded multi-tenant session through Server::handle_line; capture on every allocation, online re-evaluation, many small heaps",
        "one tenant_step (step latency); ops_per_s counts every command",
    ),
    (
        "parallel",
        "run_parallel with a fixed 4-partition plan on 2 threads; the only workload exercising core::parallel, shard heaps and the merge",
        "one run_parallel round (environment, run, merged report)",
    ),
];

fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "minheap" => Box::new(minheap::MinHeap::setup()),
        "profile" => Box::new(profile::Profile::setup(seed)),
        "serve" => Box::new(serve::Serve::setup(seed)),
        "parallel" => Box::new(parallel::Parallel::setup(seed)),
        _ => return None,
    })
}

fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("nproc", num(nproc as f64)),
        ("os", Value::Str(std::env::consts::OS.into())),
        ("arch", Value::Str(std::env::consts::ARCH.into())),
    ])
}

/// One reported metric with its sample count and the statistic it is.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    n: usize,
    stat: &'static str,
}

impl Metric {
    fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        n: usize,
        stat: &'static str,
    ) -> Self {
        Metric {
            name,
            unit,
            // The summary must stay valid JSON (0/0 can only arise from a
            // workload that did no work, which the checks report).
            value: if value.is_finite() { value } else { 0.0 },
            n,
            stat,
        }
    }

    /// `{"unit":..,"value":..}`, plus `n` and `stat` for the record.
    fn to_json(&self, full: bool) -> Value {
        let mut fields = vec![
            ("value", num(self.value)),
            ("unit", Value::Str(self.unit.into())),
        ];
        if full {
            fields.push(("n", num(self.n as f64)));
            fields.push(("stat", Value::Str(self.stat.into())));
        }
        obj(fields)
    }
}

fn metrics_json(metrics: &[Metric], full: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.to_json(full)))
            .collect(),
    )
}

/// Latency of each operation of a round, in milliseconds: the median over
/// the plain rounds of that operation's samples. Every round runs the same
/// operations in the same order, so operation `i` is one fixed input.
///
/// Percentiles are taken over these per-operation medians rather than over
/// the pooled samples. The operations are a fixed mix of inputs with
/// distinct costs; a pooled percentile lands on the edge between two
/// inputs' clusters (with eight inputs the pooled median always averages
/// the slowest sample of one input and the fastest of the next) or moves
/// between clusters as the number of rounds changes.
fn op_medians_ms(plain: &[Round]) -> Vec<f64> {
    let ops = plain.iter().map(|r| r.op_s.len()).min().unwrap_or(0);
    (0..ops)
        .map(|i| median(&plain.iter().map(|r| r.op_s[i] * 1e3).collect::<Vec<_>>()))
        .collect()
}

/// Median round wall time.
fn median_wall(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>())
}

/// End-to-end metrics from the plain rounds: medians over rounds, and
/// operation percentiles over the operations' medians.
fn end_to_end(rounds: &Rounds) -> Vec<Metric> {
    let plain = &rounds.plain;
    let n = plain.len();
    let med = |f: fn(&Round) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let mean = |f: fn(&Round) -> f64| plain.iter().map(f).sum::<f64>() / n as f64;
    let ops = op_medians_ms(plain);
    let samples: usize = plain.iter().map(|r| r.op_s.len()).sum();
    let wall_s = median_wall(plain);
    const ROUNDS: &str = "median of rounds";
    vec![
        Metric::new(
            "setup_s",
            "s",
            median(&rounds.setup_s),
            rounds.setup_s.len(),
            "median of set-ups",
        ),
        Metric::new("wall_s", "s", wall_s, n, ROUNDS),
        Metric::new("cpu_s", "s", med(|r| r.cpu_s), n, ROUNDS),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            med(|r| r.peak_rss_mib),
            n,
            "median of rounds' peak resident set",
        ),
        Metric::new(
            "op_p50_ms",
            "ms",
            median(&ops),
            samples,
            "p50 over a round's operations of each one's median over rounds",
        ),
        Metric::new(
            "op_p90_ms",
            "ms",
            quantile(&ops, 0.9),
            samples,
            "p90 over a round's operations of each one's median over rounds",
        ),
        Metric::new(
            "ops_per_s",
            "1/s",
            mean(|r| r.throughput_ops as f64) / wall_s,
            n,
            "operations per round / wall_s",
        ),
        Metric::new(
            "sim_objects_per_s",
            "1/s",
            mean(|r| r.sim_objects as f64) / wall_s,
            n,
            "simulated objects per round / wall_s",
        ),
    ]
}

/// The ledger of the traced rounds: mean rows per round, `other_s`, and
/// whether they add up to the mean traced wall time within tolerance.
struct Ledger {
    rows: Layers,
    wall_s: f64,
    other_s: f64,
    ok: bool,
}

fn ledger(bench: &dyn Workload, traced: &[Round]) -> Ledger {
    let n = traced.len().max(1) as f64;
    let mut sum = Layers::default();
    for r in traced {
        sum.merge(&r.layers);
    }
    let mut rows = Layers::default();
    for (k, v) in &sum.0 {
        rows.add(k, v / n);
    }
    let wall_s = traced.iter().map(|r| r.wall_s).sum::<f64>() / n;
    let accounted: f64 = bench.ledger().iter().map(|k| rows.get(k)).sum();
    let other_s = wall_s - accounted;
    let ok = other_s >= -LEDGER_OVERLAP * wall_s && other_s <= LEDGER_TOLERANCE * wall_s;
    Ledger {
        rows,
        wall_s,
        other_s,
        ok,
    }
}

/// Per-layer metrics from the traced rounds.
fn per_layer(bench: &dyn Workload, l: &Ledger, rounds: &Rounds) -> Vec<Metric> {
    let n = rounds.traced.len();
    let plain_wall = median_wall(&rounds.plain);
    let traced_wall = median_wall(&rounds.traced);
    let evaluations = l.rows.get("serve.evaluations");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (v, stat) = match name {
                "minheap.search_share" => (
                    100.0 * l.rows.get("minheap.search_s") / l.wall_s,
                    "search_s over traced wall_s",
                ),
                "serve.install_ratio" => (
                    l.rows.get("serve.replacements") / evaluations.max(1.0),
                    "replacements over serve.evaluations",
                ),
                "telemetry.trace_overhead_pct" if !bench.attaches_tracer() => {
                    (0.0, "not applicable: traced rounds attach no tracer")
                }
                "telemetry.trace_overhead_pct" => (
                    100.0 * (traced_wall - plain_wall) / plain_wall,
                    "median traced over median plain round wall",
                ),
                "ledger.other_s" => (l.other_s, "traced wall_s minus ledger rows"),
                _ => (l.rows.get(name), "mean per traced round"),
            };
            Metric::new(name, unit, v, n, stat)
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(&(_, why, op)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };

    // One set-up builds the inputs and long-lived state (rule engine,
    // site sets, session script); the warm-up operation is not part of it.
    let set_up = || timed(|| build(&args.workload, args.seed));
    let (bench, first_setup_s) = set_up();
    let mut bench = bench.expect("workload name was validated");
    bench.warm_up();

    let mut rounds = run_rounds(bench.as_mut(), args.seconds, args.trace, || set_up().1);
    rounds.setup_s.push(first_setup_s);
    let e2e = end_to_end(&rounds);

    // Output checks: each round's own (oracles, replies, trace
    // completeness, identical simulated results to round 0, traced or
    // not), the workload's once-per-run checks and the ledger's sum.
    let all: Vec<&Round> = rounds.plain.iter().chain(&rounds.traced).collect();
    let mut checks = bench.final_checks(&rounds.digest);
    let ledger = args.trace.then(|| ledger(bench.as_ref(), &rounds.traced));
    if let Some(l) = &ledger {
        checks.push(if l.ok {
            Ok(())
        } else {
            Err(format!(
                "ledger other_s {:.4} s of {:.4} s outside [-{LEDGER_OVERLAP}, {LEDGER_TOLERANCE}] of wall",
                l.other_s, l.wall_s
            ))
        });
    }
    let mut failures: Vec<String> = all.iter().flat_map(|r| r.failures.clone()).collect();
    failures.extend(checks.iter().filter_map(|r| r.clone().err()));
    let mut known: Vec<String> = all.iter().flat_map(|r| r.known.clone()).collect();
    known.sort();
    known.dedup();
    let attempted = all.iter().map(|r| r.attempted).sum::<u64>() + checks.len() as u64;
    let failed = failures.len() as u64;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let metrics = match &ledger {
        Some(l) => per_layer(bench.as_ref(), l, &rounds),
        None => e2e,
    };

    let mut record = vec![
        ("benchmark", Value::Str("perfbench".into())),
        ("workload", Value::Str(args.workload.clone())),
        ("why", Value::Str(why.into())),
        ("op", Value::Str(op.into())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("host", host()),
        ("inputs", bench.describe()),
        ("rounds_plain", num(rounds.plain.len() as f64)),
        ("rounds_traced", num(rounds.traced.len() as f64)),
        ("metrics", metrics_json(&metrics, true)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("error_rate", num(error_rate)),
        (
            "failures",
            Value::Arr(failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        (
            "known_mismatches",
            Value::Arr(known.iter().map(|k| Value::Str(k.clone())).collect()),
        ),
    ];
    if let Some(l) = &ledger {
        let rows = bench
            .ledger()
            .iter()
            .map(|k| (k.to_string(), num(l.rows.get(k))));
        record.push((
            "ledger",
            obj(vec![
                ("rows", Value::Obj(rows.collect())),
                ("other_s", num(l.other_s)),
                ("wall_s", num(l.wall_s)),
                ("tolerance_share", num(LEDGER_TOLERANCE)),
                ("overlap_share", num(LEDGER_OVERLAP)),
                ("ok", Value::Bool(l.ok)),
            ]),
        ));
        record.push((
            "trace_overhead_base_wall_s",
            num(median_wall(&rounds.plain)),
        ));
    }
    println!("{}", json::render(&obj(record)));

    for m in &metrics {
        eprintln!(
            "{:<30} {:>16.6} {:<6} {} of {}",
            m.name, m.value, m.unit, m.stat, m.n
        );
    }
    eprintln!("attempted {attempted} failed {failed} error_rate {error_rate:.4}");
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    for k in &known {
        eprintln!("KNOWN MISMATCH: {k}");
    }

    let summary = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    println!("{}", json::render(&summary));
    ExitCode::SUCCESS
}
