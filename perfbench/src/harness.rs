//! Measurement plumbing shared by every workload: the round loop, host
//! readings, order statistics and the per-layer accumulator.

use chameleon_telemetry::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Process CPU seconds so far, all threads including exited ones
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, which writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident set, so the next reading is the peak since now.
pub fn reset_peak_rss() {
    // A kernel without the reset leaves the process-wide peak, which only
    // makes later readings too high, never wrong in kind.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Named per-layer quantities of one round: seconds for `*_s` rows,
/// counts otherwise. Rows add up across rounds and runs.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `v` to row `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Current value of row `name` (0 when never written).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every row of `other`.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

/// What one round of a workload hands back to the harness.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall seconds of the measured region (the workload brackets the
    /// work itself, so output checks after it are not timed).
    pub wall_s: f64,
    /// Process CPU seconds (all threads) over the same region.
    pub cpu_s: f64,
    /// Peak resident set size over the same region, in MiB.
    pub peak_rss_mib: f64,
    /// Latency of each operation in the round, in seconds.
    pub op_s: Vec<f64>,
    /// Operations counted for throughput (`ops_per_s`).
    pub throughput_ops: u64,
    /// Simulated objects allocated in the round (`sim_objects_per_s`).
    pub sim_objects: u64,
    /// Canonical rendering of every simulated result of the round; it
    /// must repeat byte for byte across rounds, traced or not.
    pub digest: String,
    /// Operations attempted and failed (output-check mismatches, error
    /// replies, unexpected errors).
    pub attempted: u64,
    /// See [`Round::attempted`].
    pub failed: u64,
    /// One line per failure, for the record.
    pub failures: Vec<String>,
    /// Documented mismatches with checked-in reference tables: recorded,
    /// not counted as failures.
    pub known: Vec<String>,
    /// Per-layer rows (traced rounds only).
    pub layers: Layers,
}

impl Round {
    /// Counts one checked operation; `Err` makes it a failure.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            self.failures.push(msg);
        }
    }
}

/// A workload the harness can drive.
pub trait Workload {
    /// One operation, untimed, so lazy state fills before the rounds.
    fn warm_up(&self);

    /// Runs one round; `traced` attaches the tracer and telemetry.
    fn round(&mut self, traced: bool) -> Round;

    /// The generated and fixed inputs, for the run record.
    fn describe(&self) -> Value;

    /// Whether traced rounds attach the program's tracer and telemetry
    /// (`telemetry.trace_overhead_pct` is not applicable otherwise).
    fn attaches_tracer(&self) -> bool {
        true
    }

    /// Disjoint per-layer rows that, with `ledger.other_s`, make up a
    /// traced round's wall time.
    fn ledger(&self) -> &'static [&'static str];

    /// Untimed checks run once after the rounds, given round 0's digest.
    fn final_checks(&self, _digest: &str) -> Vec<Result<(), String>> {
        Vec::new()
    }
}

/// Brackets a round's measured region in wall and CPU time and peak
/// resident memory.
pub struct Meter {
    t0: Instant,
    cpu0: f64,
}

impl Meter {
    /// Resets the peak resident set and starts both clocks.
    pub fn start() -> Self {
        reset_peak_rss();
        Meter {
            cpu0: cpu_seconds(),
            t0: Instant::now(),
        }
    }

    /// Stops both clocks into `r.wall_s` and `r.cpu_s` and reads the
    /// peak resident set into `r.peak_rss_mib`.
    pub fn stop(self, r: &mut Round) {
        r.wall_s = secs(self.t0);
        r.cpu_s = cpu_seconds() - self.cpu0;
        r.peak_rss_mib = peak_rss_mib();
    }
}

/// Timed set-ups before each round; `setup_s` is the median of these
/// and of the first set-up.
pub const SETUPS_PER_ROUND: usize = 3;

/// Every round of one run, split by mode.
pub struct Rounds {
    /// Seconds of every set-up of the run.
    pub setup_s: Vec<f64>,
    /// Rounds without tracing (end-to-end metrics come from these only).
    pub plain: Vec<Round>,
    /// Traced rounds (per-layer metrics).
    pub traced: Vec<Round>,
    /// The first round's digest; later rounds' digests are compared with
    /// it as they finish and then dropped, so memory stays flat however
    /// many rounds run.
    pub digest: String,
}

/// Runs rounds until `seconds` have passed, timing `SETUPS_PER_ROUND`
/// calls of `set_up` (which returns its own seconds) before each. With
/// `trace`, plain and traced rounds alternate (plain first) and at least
/// one of each runs. A round whose simulated results differ from the
/// first round's fails a check.
pub fn run_rounds(
    w: &mut dyn Workload,
    seconds: f64,
    trace: bool,
    mut set_up: impl FnMut() -> f64,
) -> Rounds {
    let t0 = Instant::now();
    let mut out = Rounds {
        setup_s: Vec::new(),
        plain: Vec::new(),
        traced: Vec::new(),
        digest: String::new(),
    };
    loop {
        let traced = trace && out.plain.len() > out.traced.len();
        out.setup_s.extend((0..SETUPS_PER_ROUND).map(|_| set_up()));
        let mut r = w.round(traced);
        if out.plain.is_empty() {
            out.digest = std::mem::take(&mut r.digest);
        } else {
            let i = out.plain.len() + out.traced.len();
            r.check(if r.digest == out.digest {
                Ok(())
            } else {
                Err(format!(
                    "round {i} ({}) simulated results differ from round 0",
                    if traced { "traced" } else { "plain" }
                ))
            });
            r.digest = String::new();
        }
        if traced {
            out.traced.push(r);
        } else {
            out.plain.push(r);
        }
        let enough = !out.plain.is_empty() && (!trace || !out.traced.is_empty());
        if enough && secs(t0) >= seconds {
            break;
        }
    }
    out
}
