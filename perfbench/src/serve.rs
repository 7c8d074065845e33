//! `serve`: a closed loop with one client driving a seeded multi-tenant
//! JSONL session through `Server::handle_line`, each command sent after
//! the previous reply. One round replays the whole session on a fresh
//! server; one operation is one `tenant_step` (latency) and throughput
//! counts every command.

use crate::harness::{timed, Meter, Round, Workload};
use crate::inputs::{self, describe_synthetic, num, obj, Rng, TenantPlan};
use chameleon_core::{ServeConfig, Server, Workload as Sim};
use chameleon_rules::RuleEngine;
use chameleon_telemetry::json::{self, Value};
use chameleon_workloads::Synthetic;
use std::time::Instant;

/// `synthetic` tenants in a session.
pub const SYNTHETIC_TENANTS: usize = 2;

/// The serve workload's state.
pub struct Serve {
    synthetic: Vec<Synthetic>,
    plans: Vec<TenantPlan>,
    lines: Vec<String>,
    kinds: Vec<String>,
}

impl Serve {
    /// Generates the seeded site sets and the session script.
    pub fn setup(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let synthetic = (0..SYNTHETIC_TENANTS)
            .map(|i| inputs::synthetic(&mut rng, &format!("srv{i}"), 4, 60, 5, false))
            .collect();
        let (plans, lines) = inputs::serve_session(&mut rng, SYNTHETIC_TENANTS);
        let kinds = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .ok()
                    .and_then(|v| v.get("cmd").and_then(Value::as_str).map(str::to_owned))
                    .unwrap_or_default()
            })
            .collect();
        Serve {
            synthetic,
            plans,
            lines,
            kinds,
        }
    }

    fn server(&self, config: &ServeConfig) -> Server {
        let synthetic = self.synthetic.clone();
        Server::new(
            RuleEngine::builtin(),
            config,
            Box::new(move |name: &str| -> Option<Box<dyn Sim>> {
                match name
                    .strip_prefix("syn")
                    .and_then(|i| i.parse::<usize>().ok())
                {
                    Some(i) => synthetic
                        .get(i)
                        .cloned()
                        .map(|s| Box::new(s) as Box<dyn Sim>),
                    None => chameleon_workloads::by_name(name),
                }
            }),
        )
    }
}

/// Per-command-kind layer row.
fn kind_row(kind: &str) -> &'static str {
    match kind {
        "tenant_open" => "serve.open_s",
        "tenant_step" => "serve.step_s",
        "tenant_close" => "serve.close_s",
        _ => "serve.report_s",
    }
}

impl Workload for Serve {
    /// The session's first 40 commands on a fresh server.
    fn warm_up(&self) {
        let mut server = self.server(&ServeConfig::default());
        for line in self.lines.iter().take(40) {
            server.handle_line(line);
        }
    }

    fn describe(&self) -> Value {
        let tenants = self
            .plans
            .iter()
            .map(|p| {
                obj(vec![
                    ("tenant", Value::Str(p.tenant.clone())),
                    ("workload", Value::Str(p.workload.clone())),
                    ("steps", num(p.steps.len() as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("commands", num(self.lines.len() as f64)),
            ("tenants", Value::Arr(tenants)),
            (
                "synthetic",
                Value::Arr(
                    self.synthetic
                        .iter()
                        .enumerate()
                        .map(|(i, s)| describe_synthetic(&format!("syn{i}"), s))
                        .collect(),
                ),
            ),
            ("client", Value::Str("closed loop, 1 client".into())),
            (
                "session",
                Value::Arr(self.lines.iter().map(|l| Value::Str(l.clone())).collect()),
            ),
        ])
    }

    /// Tenants strip the tracer and telemetry from their environments,
    /// so a traced round runs exactly as a plain one; after its timed
    /// region it also times the JSON codec on the session's own lines.
    fn attaches_tracer(&self) -> bool {
        false
    }

    fn ledger(&self) -> &'static [&'static str] {
        &[
            "serve.open_s",
            "serve.step_s",
            "serve.report_s",
            "serve.close_s",
        ]
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        let mut replies = Vec::with_capacity(self.lines.len());
        let meter = Meter::start();
        let mut server = self.server(&ServeConfig::default());
        for (line, kind) in self.lines.iter().zip(&self.kinds) {
            let t0 = Instant::now();
            let reply = server.handle_line(line);
            let dt = t0.elapsed().as_secs_f64();
            round.layers.add(kind_row(kind), dt);
            if kind == "tenant_step" {
                round.op_s.push(dt);
            }
            replies.push(reply.text);
        }
        drop(server);
        meter.stop(&mut round);
        round.throughput_ops = self.lines.len() as u64;

        for (reply, kind) in replies.iter().zip(&self.kinds) {
            round.digest.push_str(reply);
            round.digest.push('\n');
            let Ok(v) = json::parse(reply) else {
                round.check(Err(format!("unparsable reply {reply}")));
                continue;
            };
            round.check(if v.get("ok").and_then(Value::as_bool) == Some(true) {
                Ok(())
            } else {
                Err(format!("{kind} failed: {reply}"))
            });
            if traced {
                // The server renders each reply once from its value.
                round
                    .layers
                    .add("serve.json_render_s", timed(|| json::render(&v)).1);
            }
            if kind != "tenant_close" {
                continue;
            }
            let report = v.get("report");
            let field = |k: &str| report.and_then(|r| r.get(k)).and_then(Value::as_f64);
            let metric = |k: &str| {
                report
                    .and_then(|r| r.get("metrics"))
                    .and_then(|m| m.get(k))
                    .and_then(Value::as_f64)
            };
            for (row, key) in [
                ("serve.deaths", "deaths"),
                ("serve.evaluations", "evaluations"),
                ("serve.replacements", "replacements"),
                ("serve.reverts", "reverts"),
                ("serve.drift_events", "drift_events"),
            ] {
                round.layers.add(row, field(key).unwrap_or(0.0));
            }
            for (row, key) in [
                ("heap.gc_cycles", "gc_count"),
                ("heap.alloc_objects", "allocated_objects"),
                ("heap.alloc_bytes", "allocated_bytes"),
                ("collections.capture_count", "capture_count"),
            ] {
                round.layers.add(row, metric(key).unwrap_or(0.0));
            }
        }
        if traced {
            // ... and parses each command line once.
            for line in &self.lines {
                round
                    .layers
                    .add("serve.json_parse_s", timed(|| json::parse(line)).1);
            }
        }
        round.sim_objects = round.layers.get("heap.alloc_objects") as u64;
        round
    }
}
