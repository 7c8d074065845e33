//! Seeded input generation. The seed drives the `Synthetic` site sets and
//! the serve command stream; every generator keeps the distribution of
//! work fixed and lets the seed choose only the draws (site names, and so
//! the sizes each site draws; command interleaving), so runs with
//! different seeds measure the same expected quantity of work.
//!
//! The paper simulacra (bloat, fop, findbugs, pmd, soot, tvla) are fixed
//! inputs: their random streams are keyed by workload name in
//! `chameleon_workloads::util::rng`, so no seed reaches them.

use chameleon_telemetry::json::{self, Value};
use chameleon_workloads::{SizeDist, Synthetic, SyntheticSite};

/// SplitMix64: a small, well-mixed generator for input shapes.
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A `Synthetic` of `sites` map sites with `instances` maps each, sizes
/// uniform over `[mean/2, 3*mean/2]`, every other site keeping its maps
/// alive to the end. The seed names the sites, and each site draws its
/// sizes from a random stream keyed by its name, so the seed picks the
/// actual sizes while their distribution, and so the work, stays fixed.
pub fn synthetic(
    rng: &mut Rng,
    tag: &str,
    sites: usize,
    instances: usize,
    mean: usize,
    via_factory: bool,
) -> Synthetic {
    Synthetic {
        sites: (0..sites)
            .map(|i| SyntheticSite {
                frame: format!("{tag}.Site{:08x}:{i}", rng.below(1 << 32)),
                instances,
                sizes: SizeDist::Uniform(mean / 2, mean + mean / 2),
                gets_per_instance: 8,
                long_lived: i % 2 == 0,
                via_factory,
            })
            .collect(),
    }
}

/// A JSON description of a `Synthetic` input, for the run record.
pub fn describe_synthetic(name: &str, w: &Synthetic) -> Value {
    let sites = w
        .sites
        .iter()
        .map(|s| {
            let (lo, hi) = match s.sizes {
                SizeDist::Uniform(lo, hi) => (lo, hi),
                SizeDist::Fixed(n) => (n, n),
                SizeDist::Bimodal(a, b) => (a, b),
            };
            obj(vec![
                ("frame", Value::Str(s.frame.clone())),
                ("instances", num(s.instances as f64)),
                ("size_lo", num(lo as f64)),
                ("size_hi", num(hi as f64)),
                ("gets_per_instance", num(s.gets_per_instance as f64)),
                ("long_lived", Value::Bool(s.long_lived)),
                ("via_factory", Value::Bool(s.via_factory)),
            ])
        })
        .collect();
    obj(vec![
        ("name", Value::Str(name.to_owned())),
        ("sites", Value::Arr(sites)),
    ])
}

/// One tenant of a generated serve session.
pub struct TenantPlan {
    /// Tenant name.
    pub tenant: String,
    /// Workload name `tenant_open` resolves.
    pub workload: String,
    /// Steps as `(phase, repeat)`; `None` runs the whole workload.
    pub steps: Vec<(Option<&'static str>, u64)>,
}

/// The serve session for `seed`: two phase-shift tenants (20 map-heavy
/// steps, then 20 list-heavy, so drift fires), `synthetic` tenants
/// `syn0..synN` running the seeded site sets 40 times each, and one tvla
/// tenant with three steps. The seed picks the command interleaving, which
/// tenant each periodic `tenant_report` asks about, and the close order;
/// the multiset of steps is fixed. A `fleet_report` follows every 60
/// steps, a `tenant_report` every 15, and every tenant is closed at the
/// end, followed by a last `fleet_report`.
pub fn serve_session(rng: &mut Rng, synthetic_tenants: usize) -> (Vec<TenantPlan>, Vec<String>) {
    let mut plans = Vec::new();
    for t in ["ps-a", "ps-b"] {
        let mut steps = vec![(Some("map-heavy"), 1); 20];
        steps.extend(vec![(Some("list-heavy"), 1); 20]);
        plans.push(TenantPlan {
            tenant: t.to_owned(),
            workload: "phase-shift".to_owned(),
            steps,
        });
    }
    for i in 0..synthetic_tenants {
        plans.push(TenantPlan {
            tenant: format!("syn-{i}"),
            workload: format!("syn{i}"),
            steps: vec![(None, 1); 40],
        });
    }
    plans.push(TenantPlan {
        tenant: "tvla-a".to_owned(),
        workload: "tvla".to_owned(),
        steps: vec![(None, 1); 3],
    });

    let cmd = |entries: Vec<(&str, Value)>| json::render(&obj(entries));
    let mut lines = Vec::new();
    for p in &plans {
        lines.push(cmd(vec![
            ("cmd", Value::Str("tenant_open".into())),
            ("tenant", Value::Str(p.tenant.clone())),
            ("workload", Value::Str(p.workload.clone())),
        ]));
    }
    let mut next = vec![0usize; plans.len()];
    let mut steps_sent = 0u64;
    loop {
        let open: Vec<usize> = (0..plans.len())
            .filter(|&i| next[i] < plans[i].steps.len())
            .collect();
        if open.is_empty() {
            break;
        }
        let i = open[rng.below(open.len() as u64) as usize];
        let (phase, repeat) = plans[i].steps[next[i]];
        next[i] += 1;
        let mut entries = vec![
            ("cmd", Value::Str("tenant_step".into())),
            ("tenant", Value::Str(plans[i].tenant.clone())),
            ("repeat", num(repeat as f64)),
        ];
        if let Some(phase) = phase {
            entries.push(("phase", Value::Str(phase.into())));
        }
        lines.push(cmd(entries));
        steps_sent += 1;
        if steps_sent.is_multiple_of(15) {
            let t = &plans[rng.below(plans.len() as u64) as usize].tenant;
            lines.push(cmd(vec![
                ("cmd", Value::Str("tenant_report".into())),
                ("tenant", Value::Str(t.clone())),
            ]));
        }
        if steps_sent.is_multiple_of(60) {
            lines.push(cmd(vec![("cmd", Value::Str("fleet_report".into()))]));
        }
    }
    let mut order: Vec<usize> = (0..plans.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for i in order {
        lines.push(cmd(vec![
            ("cmd", Value::Str("tenant_close".into())),
            ("tenant", Value::Str(plans[i].tenant.clone())),
        ]));
    }
    lines.push(cmd(vec![("cmd", Value::Str("fleet_report".into()))]));
    (plans, lines)
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// A JSON number.
pub fn num(x: f64) -> Value {
    Value::Num(x)
}
