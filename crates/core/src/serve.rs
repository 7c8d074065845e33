//! Multi-tenant online-adaptation server (`chameleon serve`).
//!
//! ROADMAP item 2's millions-of-users story scaled down to one process: a
//! long-running [`Server`] hosts N named tenant environments, each a
//! workload instance with its own hermetic heap / factory / profiler
//! (the same isolation contract as `core::parallel`'s partition
//! environments). Every tenant runs the fully-automatic online mode
//! (§3.3.2) with the hysteresis policy and drift trigger from
//! [`crate::online`].
//!
//! The server speaks JSONL: one command object per line in, one response
//! object per line out, both through `telemetry::json`. Commands:
//!
//! | command         | fields                           | effect |
//! |-----------------|----------------------------------|--------|
//! | `tenant_open`   | `tenant`, `workload`             | build a tenant environment |
//! | `tenant_step`   | `tenant`, `phase?`, `repeat?`    | run the workload (or one named phase) `repeat` times |
//! | `tenant_report` | `tenant`                         | per-tenant adaptation summary |
//! | `tenant_close`  | `tenant`                         | final GC + survivor flush, converged policy, teardown |
//! | `fleet_report`  | —                                | all tenant summaries + fleet aggregates |
//! | `shutdown`      | —                                | acknowledge and stop the stream loop |
//!
//! Blank lines and `#`-prefixed comment lines are skipped, so recorded
//! session scripts can be annotated.
//!
//! **Determinism contract:** a serve session is a pure function of its
//! command stream. Tenant state lives in `BTreeMap`s, responses are
//! rendered through the canonical `json::render` (sorted keys, no
//! whitespace), the evaluation cadence is death-count driven, and nothing
//! in this module reads the wall clock — so replaying the same script
//! yields byte-identical output, evaluation-for-evaluation.

use crate::env::{Env, EnvConfig};
use crate::online::{OnlineConfig, OnlineDriftConfig, OnlineSink};
use crate::workload::Workload;
use chameleon_heap::Heap;
use chameleon_rules::{PolicyUpdate, RuleEngine};
use chameleon_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Server construction parameters. The adaptation knobs mirror
/// [`OnlineConfig`] and apply to every tenant; unlike the single-tenant
/// online mode, drift detection defaults to **on** — a server cannot
/// assume its tenants keep one phase forever.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Environment template for tenants. Observability hooks (telemetry,
    /// tracer, heap profiling) are stripped per tenant; profiling is
    /// forced on (online adaptation requires it).
    pub env: EnvConfig,
    /// Death cadence between rule re-evaluations per tenant.
    pub eval_every_deaths: u64,
    /// Consecutive evaluations a policy change must win before it is
    /// installed (hysteresis K).
    pub confirm_evals: u64,
    /// Minimum `potential_bytes` a suggestion must show to become a
    /// hysteresis candidate.
    pub min_potential_bytes: u64,
    /// §4.2 per-type capture shutoff floor (None = never shut off).
    pub shutoff_below_potential: Option<u64>,
    /// Drift detection (re-profiling trigger). `None` disables it.
    pub drift: Option<OnlineDriftConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            env: EnvConfig::default(),
            eval_every_deaths: 64,
            confirm_evals: 2,
            min_potential_bytes: 0,
            shutoff_below_potential: None,
            drift: Some(OnlineDriftConfig::default()),
        }
    }
}

/// Builds a workload by registry name. The server takes this as a
/// parameter because the workload registry lives above `core` in the
/// crate graph (`chameleon-workloads` depends on `chameleon-core`); the
/// CLI passes `chameleon_workloads::by_name`.
pub type WorkloadResolver = Box<dyn Fn(&str) -> Option<Box<dyn Workload>>>;

/// One reply to one command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Canonical JSON text (no trailing newline).
    pub text: String,
    /// Whether the command asked the stream loop to stop.
    pub shutdown: bool,
}

struct Tenant {
    workload: Box<dyn Workload>,
    env: Env,
    sink: Arc<OnlineSink>,
    steps: u64,
}

/// The multi-tenant adaptation server.
pub struct Server {
    engine: Arc<RuleEngine>,
    config: ServeConfig,
    resolve: WorkloadResolver,
    tenants: BTreeMap<String, Tenant>,
    opened: usize,
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn kind_name(tag: u8) -> &'static str {
    match tag {
        0 => "list",
        1 => "set",
        _ => "map",
    }
}

/// Renders an installed override as a response object.
fn update_value(u: &PolicyUpdate, heap: &Heap) -> Value {
    let (kind, ctx, impl_name, capacity) = match u {
        PolicyUpdate::List(c, sel) => ("list", *c, format!("{:?}", sel.choice), sel.capacity),
        PolicyUpdate::Set(c, sel) => ("set", *c, format!("{:?}", sel.choice), sel.capacity),
        PolicyUpdate::Map(c, sel) => ("map", *c, format!("{:?}", sel.choice), sel.capacity),
    };
    obj(vec![
        ("kind", text(kind)),
        ("context", text(heap.format_context(ctx))),
        ("impl", text(impl_name)),
        (
            "capacity",
            capacity.map(|c| num(c as u64)).unwrap_or(Value::Null),
        ),
    ])
}

/// The implementation name an override selects (for fleet aggregation).
fn update_impl_name(u: &PolicyUpdate) -> String {
    match u {
        PolicyUpdate::List(_, sel) => format!("{:?}", sel.choice),
        PolicyUpdate::Set(_, sel) => format!("{:?}", sel.choice),
        PolicyUpdate::Map(_, sel) => format!("{:?}", sel.choice),
    }
}

fn tenant_summary(name: &str, t: &Tenant) -> Value {
    let m = t.env.metrics();
    let heap = &t.env.heap;
    let selections: Vec<Value> = t
        .sink
        .installed_updates()
        .iter()
        .map(|u| update_value(u, heap))
        .collect();
    let switches: Vec<Value> = t
        .sink
        .switch_counts()
        .iter()
        .map(|(tag, ctx, n)| {
            obj(vec![
                ("kind", text(kind_name(*tag))),
                ("context", text(heap.format_context(*ctx))),
                ("switches", num(*n)),
            ])
        })
        .collect();
    obj(vec![
        ("tenant", text(name)),
        ("workload", text(t.workload.name())),
        ("steps", num(t.steps)),
        ("deaths", num(t.sink.death_total())),
        ("evaluations", num(t.sink.evaluations())),
        ("replacements", num(t.sink.replacements())),
        ("reverts", num(t.sink.reverts())),
        ("drift_events", num(t.sink.drift_events())),
        ("max_switches", num(t.sink.max_switches())),
        (
            "disabled_types",
            Value::Arr(
                t.sink
                    .disabled_types()
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("selections", Value::Arr(selections)),
        ("switches", Value::Arr(switches)),
        (
            "metrics",
            obj(vec![
                ("sim_time", num(m.sim_time)),
                ("peak_live_bytes", num(m.peak_live_bytes)),
                ("gc_count", num(m.gc_count)),
                ("allocated_bytes", num(m.total_allocated_bytes)),
                ("allocated_objects", num(m.total_allocated_objects)),
                ("capture_count", num(m.capture_count)),
            ]),
        ),
    ])
}

impl Server {
    /// Builds a server. `resolve` maps `tenant_open`'s workload names to
    /// workload instances.
    pub fn new(engine: RuleEngine, config: &ServeConfig, resolve: WorkloadResolver) -> Self {
        Server {
            engine: Arc::new(engine),
            config: config.clone(),
            resolve,
            tenants: BTreeMap::new(),
            opened: 0,
        }
    }

    /// Number of currently open tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Handles one command line and produces one response line. Invalid
    /// input never panics or kills the server: it yields an
    /// `{"ok":false,"error":...}` response so a misbehaving client cannot
    /// take down the other tenants.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let (value, shutdown) = match self.dispatch(line) {
            Ok((v, shutdown)) => (v, shutdown),
            Err(msg) => (
                obj(vec![("ok", Value::Bool(false)), ("error", text(msg))]),
                false,
            ),
        };
        Reply {
            text: json::render(&value),
            shutdown,
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<(Value, bool), String> {
        let v = json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("missing string field \"cmd\"")?
            .to_owned();
        let value = match cmd.as_str() {
            "tenant_open" => self.tenant_open(&v)?,
            "tenant_step" => self.tenant_step(&v)?,
            "tenant_report" => {
                let (name, t) = self.tenant(&v)?;
                obj(vec![
                    ("ok", Value::Bool(true)),
                    ("cmd", text("tenant_report")),
                    ("report", tenant_summary(&name, t)),
                ])
            }
            "tenant_close" => self.tenant_close(&v)?,
            "fleet_report" => self.fleet_report(),
            "shutdown" => {
                let value = obj(vec![
                    ("ok", Value::Bool(true)),
                    ("cmd", text("shutdown")),
                    ("tenants_open", num(self.tenants.len() as u64)),
                ]);
                return Ok((value, true));
            }
            other => return Err(format!("unknown command {other:?}")),
        };
        Ok((value, false))
    }

    fn tenant_name(v: &Value) -> Result<String, String> {
        Ok(v.get("tenant")
            .and_then(Value::as_str)
            .ok_or("missing string field \"tenant\"")?
            .to_owned())
    }

    fn tenant(&self, v: &Value) -> Result<(String, &Tenant), String> {
        let name = Self::tenant_name(v)?;
        let t = self
            .tenants
            .get(&name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        Ok((name, t))
    }

    fn tenant_open(&mut self, v: &Value) -> Result<Value, String> {
        let name = Self::tenant_name(v)?;
        if self.tenants.contains_key(&name) {
            return Err(format!("tenant {name:?} already open"));
        }
        let workload_name = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("missing string field \"workload\"")?;
        let workload = (self.resolve)(workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;

        // Hermetic tenant environment: same contract as a parallel
        // partition env — own heap, no shared observability hooks. The
        // server is single-threaded, so the heap's single-mutator contract
        // holds trivially.
        let env = Env::new(&EnvConfig {
            telemetry: None,
            tracer: None,
            heapprof: None,
            profiling: true,
            shard_index: Some(self.opened),
            ..self.config.env.clone()
        });
        let online = OnlineConfig {
            env: self.config.env.clone(),
            eval_every_deaths: self.config.eval_every_deaths,
            shutoff_below_potential: self.config.shutoff_below_potential,
            confirm_evals: self.config.confirm_evals,
            min_potential_bytes: self.config.min_potential_bytes,
            drift: self.config.drift,
        };
        let sink =
            OnlineSink::new(&env, self.engine.clone(), &online).map_err(|e| e.to_string())?;
        env.rt.set_sink(sink.clone());
        self.opened += 1;
        self.tenants.insert(
            name.clone(),
            Tenant {
                workload,
                env,
                sink,
                steps: 0,
            },
        );
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("tenant_open")),
            ("tenant", text(name)),
            ("workload", text(workload_name)),
        ]))
    }

    fn tenant_step(&mut self, v: &Value) -> Result<Value, String> {
        let name = Self::tenant_name(v)?;
        let phase = v.get("phase").and_then(Value::as_str).map(str::to_owned);
        let repeat = match v.get("repeat") {
            None => 1,
            Some(r) => r
                .as_u64()
                .filter(|&n| n >= 1)
                .ok_or("field \"repeat\" must be a positive integer")?,
        };
        let t = self
            .tenants
            .get_mut(&name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        let phases = match &phase {
            Some(p) => {
                let plan = t
                    .workload
                    .phases()
                    .ok_or_else(|| format!("workload {:?} has no phases", t.workload.name()))?;
                let known: Vec<String> = plan.iter().map(|x| x.name().to_owned()).collect();
                Some(
                    plan.into_iter()
                        .find(|x| x.name() == p)
                        .ok_or_else(|| format!("unknown phase {p:?} (have {known:?})"))?,
                )
            }
            None => None,
        };
        for _ in 0..repeat {
            match &phases {
                Some(task) => task.run(&t.env.factory),
                None => t.workload.run(&t.env.factory),
            }
            // A GC per step keeps heap statistics (and thus
            // potential-bytes evidence) flowing between commands; the
            // survivor flush waits for tenant_close so long-lived state
            // is not double-counted across steps.
            t.env.heap.gc();
        }
        t.steps += repeat;
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("tenant_step")),
            ("tenant", text(name)),
            ("phase", phase.map(Value::Str).unwrap_or(Value::Null)),
            ("repeat", num(repeat)),
            ("steps", num(t.steps)),
            ("deaths", num(t.sink.death_total())),
            ("evaluations", num(t.sink.evaluations())),
            ("replacements", num(t.sink.replacements())),
            ("reverts", num(t.sink.reverts())),
            ("drift_events", num(t.sink.drift_events())),
        ]))
    }

    fn tenant_close(&mut self, v: &Value) -> Result<Value, String> {
        let name = Self::tenant_name(v)?;
        let t = self
            .tenants
            .get(&name)
            .ok_or_else(|| format!("unknown tenant {name:?}"))?;
        // End-of-life accounting, as Env::run does for one-shot runs:
        // final GC, then deliver survivors so long-lived contexts reach
        // the converged policy.
        t.env.heap.gc();
        t.env.rt.flush_survivors();
        let report = t.env.report();
        let converged: Vec<Value> = self
            .engine
            .evaluate(&report)
            .iter()
            .filter(|s| s.auto_applicable())
            .map(|s| {
                obj(vec![
                    ("context", text(&s.label)),
                    ("src_type", text(&s.src_type)),
                    ("potential_bytes", num(s.potential_bytes)),
                ])
            })
            .collect();
        let summary = tenant_summary(&name, t);
        self.tenants.remove(&name);
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("tenant_close")),
            ("report", summary),
            ("converged", Value::Arr(converged)),
        ]))
    }

    fn fleet_report(&self) -> Value {
        let mut tenants = BTreeMap::new();
        let mut deaths = 0u64;
        let mut evaluations = 0u64;
        let mut replacements = 0u64;
        let mut reverts = 0u64;
        let mut drift_events = 0u64;
        let mut max_switches = 0u64;
        let mut by_impl: BTreeMap<String, u64> = BTreeMap::new();
        for (name, t) in &self.tenants {
            tenants.insert(name.clone(), tenant_summary(name, t));
            deaths += t.sink.death_total();
            evaluations += t.sink.evaluations();
            replacements += t.sink.replacements();
            reverts += t.sink.reverts();
            drift_events += t.sink.drift_events();
            max_switches = max_switches.max(t.sink.max_switches());
            for u in t.sink.installed_updates() {
                *by_impl.entry(update_impl_name(&u)).or_insert(0) += 1;
            }
        }
        obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", text("fleet_report")),
            ("tenants", Value::Obj(tenants)),
            (
                "fleet",
                obj(vec![
                    ("tenants", num(self.tenants.len() as u64)),
                    ("deaths", num(deaths)),
                    ("evaluations", num(evaluations)),
                    ("replacements", num(replacements)),
                    ("reverts", num(reverts)),
                    ("drift_events", num(drift_events)),
                    ("max_switches", num(max_switches)),
                    (
                        "selections_by_impl",
                        Value::Obj(by_impl.into_iter().map(|(k, n)| (k, num(n))).collect()),
                    ),
                ]),
            ),
        ])
    }
}

/// Drives `server` over a JSONL stream: one response line per command
/// line, blank and `#`-comment lines skipped. Returns `true` when the
/// stream ended because of a `shutdown` command (rather than EOF).
pub fn serve_stream<R: BufRead, W: Write>(
    server: &mut Server,
    reader: R,
    mut writer: W,
) -> std::io::Result<bool> {
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let reply = server.handle_line(trimmed);
        writeln!(writer, "{}", reply.text)?;
        if reply.shutdown {
            writer.flush()?;
            return Ok(true);
        }
    }
    writer.flush()?;
    Ok(false)
}

/// Serves connections on a Unix socket at `path`, one at a time (the
/// determinism contract is per command stream; concurrent clients would
/// interleave nondeterministically). An existing socket file at `path` is
/// replaced. Returns after a client sends `shutdown`.
#[cfg(unix)]
pub fn serve_socket(server: &mut Server, path: &std::path::Path) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    for stream in listener.incoming() {
        let stream = stream?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        if serve_stream(server, reader, stream)? {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::PartitionTask;
    use chameleon_collections::CollectionFactory;

    /// A miniature phase-shift tenant workload: small maps in phase one,
    /// get-hammered linked lists in phase two.
    struct TwoPhase;

    fn map_heavy(f: &CollectionFactory) {
        let _g = f.enter("tp.MapHeavy:1");
        for i in 0..120 {
            let mut m = f.new_map::<i64, i64>(None);
            for k in 0..4 {
                m.put(k, i + k);
            }
            let _ = m.get(&0);
        }
    }

    fn list_heavy(f: &CollectionFactory) {
        let _g = f.enter("tp.ListHeavy:2");
        for i in 0..120 {
            let mut l = f.new_linked_list::<i64>();
            for k in 0..8 {
                l.add(i + k);
            }
            for g in 0..96 {
                let _ = l.get(g % 8);
            }
        }
    }

    impl Workload for TwoPhase {
        fn name(&self) -> &'static str {
            "two-phase"
        }
        fn run(&self, f: &CollectionFactory) {
            map_heavy(f);
            list_heavy(f);
        }
        fn phases(&self) -> Option<Vec<PartitionTask>> {
            Some(vec![
                PartitionTask::new("map-heavy", map_heavy),
                PartitionTask::new("list-heavy", list_heavy),
            ])
        }
    }

    /// Steady workload: small maps forever.
    struct Steady;
    impl Workload for Steady {
        fn name(&self) -> &'static str {
            "steady"
        }
        fn run(&self, f: &CollectionFactory) {
            map_heavy(f);
        }
    }

    fn resolver() -> WorkloadResolver {
        Box::new(|name| match name {
            "two-phase" => Some(Box::new(TwoPhase)),
            "steady" => Some(Box::new(Steady)),
            _ => None,
        })
    }

    fn server() -> Server {
        Server::new(
            RuleEngine::builtin(),
            &ServeConfig {
                eval_every_deaths: 50,
                ..ServeConfig::default()
            },
            resolver(),
        )
    }

    const SESSION: &str = r#"
# three tenants: a shifts phase, b and c stay steady
{"cmd":"tenant_open","tenant":"a","workload":"two-phase"}
{"cmd":"tenant_open","tenant":"b","workload":"two-phase"}
{"cmd":"tenant_open","tenant":"c","workload":"steady"}
{"cmd":"tenant_step","tenant":"a","phase":"map-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"b","phase":"map-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"c","repeat":4}
{"cmd":"tenant_report","tenant":"a"}
{"cmd":"tenant_step","tenant":"a","phase":"list-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"b","phase":"map-heavy","repeat":4}
{"cmd":"tenant_step","tenant":"c","repeat":4}
{"cmd":"fleet_report"}
{"cmd":"tenant_close","tenant":"a"}
{"cmd":"tenant_close","tenant":"b"}
{"cmd":"tenant_close","tenant":"c"}
{"cmd":"shutdown"}
"#;

    fn run_session(script: &str) -> String {
        let mut out = Vec::new();
        let ended =
            serve_stream(&mut server(), script.as_bytes(), &mut out).expect("in-memory stream");
        assert!(ended, "script ends with shutdown");
        String::from_utf8(out).expect("responses are utf-8")
    }

    fn fleet_of(output: &str) -> Value {
        let line = output
            .lines()
            .find(|l| l.contains("\"cmd\":\"fleet_report\""))
            .expect("fleet report present");
        json::parse(line).expect("fleet report parses")
    }

    #[test]
    fn replayed_sessions_are_byte_identical() {
        let first = run_session(SESSION);
        let second = run_session(SESSION);
        assert_eq!(first, second, "serve sessions must replay bit-identically");
        // Every response is itself canonical JSON.
        for line in first.lines() {
            let v = json::parse(line).expect("response parses");
            assert_eq!(json::render(&v), line, "response is canonical");
        }
    }

    #[test]
    fn phase_shift_drifts_only_the_tenant_that_shifted() {
        let output = run_session(SESSION);
        let fleet = fleet_of(&output);
        let tenants = fleet.get("tenants").expect("tenants object");
        let drift = |name: &str| {
            tenants
                .get(name)
                .and_then(|t| t.get("drift_events"))
                .and_then(Value::as_u64)
                .expect("drift_events")
        };
        assert!(drift("a") >= 1, "the shifting tenant re-profiles: {output}");
        assert_eq!(drift("b"), 0, "steady tenant b must not drift: {output}");
        assert_eq!(drift("c"), 0, "steady tenant c must not drift: {output}");
    }

    #[test]
    fn no_tenant_flaps() {
        let output = run_session(SESSION);
        let fleet = fleet_of(&output);
        let tenants = fleet
            .get("tenants")
            .expect("tenants object")
            .as_obj()
            .unwrap();
        for (name, t) in tenants {
            let max = t.get("max_switches").and_then(Value::as_u64).unwrap();
            // Two phases: an install in each (plus at most a revert of the
            // stale one after the shift) — never more than one switch per
            // phase per slot.
            assert!(max <= 2, "tenant {name} flapped ({max} switches): {output}");
            let replacements = t.get("replacements").and_then(Value::as_u64).unwrap();
            assert!(replacements >= 1, "tenant {name} adapted: {output}");
        }
    }

    #[test]
    fn closing_reports_a_converged_policy() {
        let output = run_session(SESSION);
        let close_a = output
            .lines()
            .filter(|l| l.contains("\"cmd\":\"tenant_close\""))
            .map(|l| json::parse(l).expect("parses"))
            .find(|v| {
                v.get("report")
                    .and_then(|r| r.get("tenant"))
                    .and_then(Value::as_str)
                    == Some("a")
            })
            .expect("tenant a close response");
        let converged = close_a.get("converged").and_then(Value::as_arr).unwrap();
        assert!(
            !converged.is_empty(),
            "tenant a converges to a non-empty policy: {output}"
        );
    }

    #[test]
    fn errors_are_structured_and_non_fatal() {
        let mut s = server();
        for (line, needle) in [
            ("not json", "bad json"),
            ("{\"nocmd\":1}", "missing string field \"cmd\""),
            ("{\"cmd\":\"launch\"}", "unknown command"),
            (
                "{\"cmd\":\"tenant_step\",\"tenant\":\"ghost\"}",
                "unknown tenant",
            ),
            (
                "{\"cmd\":\"tenant_open\",\"tenant\":\"a\",\"workload\":\"nope\"}",
                "unknown workload",
            ),
        ] {
            let reply = s.handle_line(line);
            assert!(!reply.shutdown);
            let v = json::parse(&reply.text).expect("error replies are json");
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
            let err = v.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
        // The server is still usable afterwards.
        let reply = s.handle_line(r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#);
        let v = json::parse(&reply.text).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(s.tenant_count(), 1);

        // Duplicate opens, bad phases and non-integral repeats are rejected
        // without teardown.
        for line in [
            r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#,
            r#"{"cmd":"tenant_step","tenant":"a","phase":"warp"}"#,
            r#"{"cmd":"tenant_step","tenant":"a","repeat":0}"#,
            r#"{"cmd":"tenant_step","tenant":"a","repeat":1.5}"#,
        ] {
            let v = json::parse(&s.handle_line(line).text).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{line}");
            if line.contains("repeat") {
                let err = v.get("error").and_then(Value::as_str).unwrap();
                assert!(err.contains("must be a positive integer"), "{line}: {err}");
            }
        }
        assert_eq!(s.tenant_count(), 1);
    }

    #[test]
    fn hostile_nesting_is_rejected_and_the_server_survives() {
        let mut s = server();
        let reply = s.handle_line(&"[".repeat(100_000));
        assert!(!reply.shutdown);
        let v = json::parse(&reply.text).expect("error replies are json");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        let err = v.get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("nesting deeper than"), "{err}");
        let reply = s.handle_line(r#"{"cmd":"tenant_open","tenant":"a","workload":"steady"}"#);
        let v = json::parse(&reply.text).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    }

    #[cfg(unix)]
    #[test]
    fn socket_sessions_match_stdin_sessions() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("chameleon-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.sock");
        let server_path = path.clone();
        let handle = std::thread::spawn(move || {
            let mut s = server();
            serve_socket(&mut s, &server_path).expect("socket serve");
        });
        // The listener may not be bound yet; retry the connect briefly.
        let stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) => std::thread::yield_now(),
            }
        };
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(SESSION.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut socket_out = String::new();
        for line in BufReader::new(stream).lines() {
            socket_out.push_str(&line.unwrap());
            socket_out.push('\n');
        }
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(socket_out, run_session(SESSION));
    }
}
