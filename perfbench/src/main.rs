//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <churn|federation|streaming|paper> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs replications with tracing off for `--seconds` and
//! reports the end-to-end metrics. `--trace 1` alternates untraced and
//! traced replications of the same seed and reports the per-layer cost
//! ledger. Both check the workload's outputs. The last line of stdout is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. Details
//! (percentile used, sample counts, violations) go to stderr. See
//! `NOTES.md` for what each metric means and which layer owns it.

mod cases;
mod ledger;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use cases::{rep_seed, Case, Layers, Rep};
use ledger::{Ledger, BROKER, KINDS, PEER, ROLES, TIMER_CLASSES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints as its last line.
struct Outcome {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(case) = cases::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload `{}` (expected one of {})",
            args.workload,
            cases::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs(args.seconds);
    let mut out = if args.trace {
        traced(case.as_ref(), args.seed, budget)
    } else {
        untraced(case.as_ref(), args.seed, budget)
    };
    for (name, value, _) in &mut out.metrics {
        if !value.is_finite() {
            out.violations.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }
    for v in &out.violations {
        eprintln!("perfbench: violation: {v}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.violations.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end run: whole cycles of untraced replications over the
/// run's seed list, with a batch of set-up-only runs before the first
/// replication and after each one.
fn untraced(case: &dyn Case, seed: u64, budget: Duration) -> Outcome {
    let start = Instant::now();
    let mut violations = Vec::new();
    let mut setups = vec![setup_batch(case, seed)];
    let seeds: Vec<u64> = (0..case.sim_reps()).map(|i| rep_seed(seed, i)).collect();
    let mut firsts: Vec<Rep> = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    // Only whole cycles run, so every seed has as many timed replications
    // as every other; one more cycle runs only if it fits the budget. A
    // repeat must reproduce its seed's first outputs.
    loop {
        let cycle_start = Instant::now();
        for (k, &seed) in seeds.iter().enumerate() {
            let r = case.run(seed, None);
            walls[k].push(r.wall_s);
            if firsts.len() < seeds.len() {
                firsts.push(r);
            } else if r.artifact != firsts[k].artifact {
                violations.push(format!("seed {seed}: a repeat changed the outputs"));
            }
            setups.push(setup_batch(case, seed));
        }
        if start.elapsed() + cycle_start.elapsed() > budget {
            break;
        }
    }
    let attempted: u64 = firsts.iter().map(|r| r.attempted).sum();
    let failed: u64 = firsts.iter().map(|r| r.failed).sum();
    let mut pooled = Vec::new();
    let mut tails = Vec::new();
    let mut samples = Vec::new();
    for r in &firsts {
        violations.extend(r.violations.iter().cloned());
        samples.push(r.latencies.len());
        pooled.extend_from_slice(&r.latencies);
        match stats::tail(&r.latencies) {
            Some(t) => tails.push(t),
            None => violations.push(format!("only {} latency samples", r.latencies.len())),
        }
    }
    let percentiles: Vec<f64> = tails.iter().map(|t| t.percentile).collect();
    let tails: Vec<f64> = tails.iter().map(|t| t.value).collect();
    // Each seed's median wall, weighted equally: the seed mix is the same
    // whatever the number of cycles.
    let seed_walls: Vec<f64> = walls.iter().map(|w| stats::median(w)).collect();
    eprintln!(
        "perfbench: seeds {seeds:?}, {} cycle(s); latency samples {samples:?}, \
         tail percentiles {percentiles:?}; setup_s over {} batches",
        walls[0].len(),
        setups.len(),
    );
    Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), stats::median(&setups), "s"),
            ("wall_s".into(), stats::mean(&seed_walls), "s"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
            (
                "success_ratio".into(),
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            ("sim_op_p50_s".into(), stats::median(&pooled), "sim_s"),
            ("sim_op_tail_s".into(), stats::median(&tails), "sim_s"),
        ],
        violations,
    }
}

/// One `setup_s` sample: set-up-only runs of `seed`, repeated until their
/// set-up time reaches `SETUP_BATCH`, as the mean set-up time of one. A
/// batch is long enough to average over the allocator and page-fault
/// noise of a single set-up, and batches sample the whole run, as the
/// replications do.
fn setup_batch(case: &dyn Case, seed: u64) -> f64 {
    let mut total = 0.0;
    let mut n = 0u32;
    while n == 0 || total < SETUP_BATCH {
        total += case.setup_only(seed);
        n += 1;
    }
    total / f64::from(n)
}

/// Set-up time (s) that one `setup_s` sample spans.
const SETUP_BATCH: f64 = 0.1;

/// The per-layer run: pairs of untraced and traced replications of one
/// seed until `budget` is spent. The traced replication must
/// reproduce the untraced outputs exactly.
fn traced(case: &dyn Case, seed: u64, budget: Duration) -> Outcome {
    let start = Instant::now();
    let mut violations = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut ledgers: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut first: Option<Rep> = None;
    while first.is_none() || start.elapsed() < budget {
        // Alternate which side runs first: a process's first replication
        // pays for growing the heap.
        let ledger = Ledger::new();
        let (plain, rep) = if plain_walls.len() % 2 == 0 {
            let plain = case.run(seed, None);
            (plain, case.run(seed, Some(&ledger)))
        } else {
            let rep = case.run(seed, Some(&ledger));
            (case.run(seed, None), rep)
        };
        if rep.artifact != plain.artifact {
            violations.push("the traced run changed the outputs".into());
        }
        plain_walls.push(plain.wall_s);
        traced_walls.push(rep.wall_s);
        ledgers.push(layer_metrics(&ledger, &rep));
        if first.is_none() {
            violations.extend(plain.violations.iter().cloned());
            first = Some(plain);
        }
    }
    let first = first.expect("at least one replication ran");
    let mut merged: BTreeMap<String, f64> = BTreeMap::new();
    let keys: Vec<String> = ledgers[0].keys().cloned().collect();
    for key in keys {
        let values: Vec<f64> = ledgers
            .iter()
            .map(|l| l.get(&key).copied().unwrap_or(0.0))
            .collect();
        merged.insert(key, stats::median(&values));
    }
    let plain_wall = stats::median(&plain_walls);
    let events = first.layers.get("engine.events").copied().unwrap_or(0.0);
    merged.insert("engine.events_per_s".into(), events / plain_wall);
    merged.insert(
        "trace_overhead".into(),
        stats::median(&traced_walls) / plain_wall - 1.0,
    );
    eprintln!(
        "perfbench: {} untraced + {} traced replications of seed {seed}",
        plain_walls.len(),
        traced_walls.len()
    );
    let mut metrics = Vec::new();
    for (name, unit) in per_layer_list() {
        let value = merged.remove(&name).unwrap_or(0.0);
        metrics.push((name, value, unit));
    }
    for name in merged.keys() {
        violations.push(format!("layer metric {name} is not in the per-layer list"));
    }
    Outcome {
        attempted: first.attempted,
        failed: first.failed,
        metrics,
        violations,
    }
}

/// Renders one traced replication's ledger and layer values as metrics.
/// Every name it writes is one [`per_layer_list`] prints.
fn layer_metrics(ledger: &Ledger, rep: &Rep) -> BTreeMap<String, f64> {
    let mut m: Layers = rep.layers.clone();
    for (slot, &(kind, role)) in KINDS.iter().enumerate() {
        let wire = &ledger.wire[slot];
        m.insert(
            format!("transport.msgs.{kind}"),
            wire.msgs.load(Relaxed) as f64,
        );
        m.insert(
            format!("transport.bytes.{kind}"),
            wire.bytes.load(Relaxed) as f64,
        );
        let s = &ledger.roles[role].msg[slot];
        m.insert(
            format!("{}.msg.{kind}.calls", ROLES[role]),
            s.calls() as f64,
        );
        m.insert(format!("{}.msg.{kind}.self_s", ROLES[role]), s.secs());
    }
    for (role, slots) in ROLES.iter().zip(&ledger.roles) {
        m.insert(format!("{role}.start.self_s"), slots.start.secs());
    }
    for (class, s) in TIMER_CLASSES.iter().zip(&ledger.roles[BROKER].timer) {
        m.insert(format!("broker.timer.{class}.calls"), s.calls() as f64);
        m.insert(format!("broker.timer.{class}.self_s"), s.secs());
    }
    let peer_timer = &ledger.roles[PEER].timer[0];
    m.insert("peer.timer.calls".into(), peer_timer.calls() as f64);
    m.insert("peer.timer.self_s".into(), peer_timer.secs());
    m.insert("selection.calls".into(), ledger.selection.calls() as f64);
    m.insert(
        "selection.refused".into(),
        ledger.refused.load(Relaxed) as f64,
    );
    m.insert("selection.self_s".into(), ledger.selection.secs());
    let measured = ledger.callback_secs() + ledger.selection.secs();
    m.insert("engine.self_s".into(), (rep.wall_s - measured).max(0.0));
    m.insert("ledger.coverage".into(), measured / rep.wall_s);
    let unlisted = ledger.unlisted_messages();
    if unlisted > 0 {
        eprintln!("perfbench: {unlisted} messages of a kind or to a role not in the ledger's list");
    }
    m
}

/// Peak resident set of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(f64::NAN)
}

/// The layer metrics that are neither per message kind nor per timer
/// class, in print order, with units.
const FIXED_LAYER_METRICS: [(&str, &str); 20] = [
    ("setup.topology_s", "s"),
    ("setup.actors_s", "s"),
    ("setup.engine_s", "s"),
    ("testbed.build_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.peak_queue_len", "count"),
    ("engine.self_s", "s"),
    ("ledger.coverage", "ratio"),
    ("parallel.rounds", "count"),
    ("parallel.stalls", "count"),
    ("parallel.busy_s", "s"),
    ("parallel.barrier_wait_s", "s"),
    ("registry.bytes_per_peer", "B"),
    ("registry.gossip_bytes_per_peer", "B"),
    ("selection.calls", "count"),
    ("selection.refused", "count"),
    ("selection.self_s", "s"),
    ("peer.timer.calls", "count"),
    ("peer.timer.self_s", "s"),
];

/// The per-layer metrics `--trace 1` prints, in order, with units: the
/// fixed layer metrics, each role's `on_start`, the broker timer classes,
/// then per message kind the transport counts and the receiving role's
/// callback spans. `BENCHMARK.json` lists the same names in this order.
fn per_layer_list() -> Vec<(String, &'static str)> {
    let mut list: Vec<(String, &str)> = FIXED_LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for role in ROLES {
        list.push((format!("{role}.start.self_s"), "s"));
    }
    for class in TIMER_CLASSES {
        list.push((format!("broker.timer.{class}.calls"), "count"));
        list.push((format!("broker.timer.{class}.self_s"), "s"));
    }
    for (kind, _) in KINDS {
        list.push((format!("transport.msgs.{kind}"), "count"));
        list.push((format!("transport.bytes.{kind}"), "B"));
    }
    for (kind, role) in KINDS {
        list.push((format!("{}.msg.{kind}.calls", ROLES[role]), "count"));
        list.push((format!("{}.msg.{kind}.self_s", ROLES[role]), "s"));
    }
    list.push(("trace_overhead".into(), "ratio"));
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` and `unit` of every entry of `BENCHMARK.json`'s
    /// `per_layer` section, in order.
    fn benchmark_json_per_layer() -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find("\"per_layer\"").expect("per_layer section");
        let len = json[start..].find(']').expect("per_layer section closes");
        let section = &json[start..start + len];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("field present");
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        section
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_printed_per_layer_metrics() {
        let printed: Vec<(String, String)> = per_layer_list()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(benchmark_json_per_layer(), printed);
    }

    #[test]
    fn every_ledger_metric_is_listed() {
        let rep = Rep {
            wall_s: 1.0,
            artifact: String::new(),
            latencies: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            layers: Layers::new(),
        };
        let listed: Vec<String> = per_layer_list().into_iter().map(|(n, _)| n).collect();
        for name in layer_metrics(&Ledger::new(), &rep).keys() {
            assert!(listed.contains(name), "{name} is not listed");
        }
    }
}
