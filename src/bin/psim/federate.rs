//! The federation subcommands: `psim federate` (determinism artifact)
//! and `psim bench-federation` (petition latency vs broker count and
//! gossip staleness, plus failover recovery → `BENCH_federation.json`).
//!
//! `psim federate` writes only worker-count-invariant bytes to stdout —
//! trace JSONL, metrics snapshot, summary JSON — so the CI
//! federation-determinism job can byte-diff two runs that differ only in
//! `--shard-workers`, including a `--kill-broker-at` run. Wall-clock
//! numbers and diagnostics go to stderr.

use netsim::time::SimDuration;
use overlay::federation::HomingPolicy;
use workloads::federation::{
    run_federation, summary_json, BrokerOutage, FederationConfig, FederationResult, LatencySummary,
};
use workloads::harness::stdout_artifact;
use workloads::synthtopo::SynthTopoConfig;

use crate::{write_or_exit, Flags};

/// Parses `--homing` (region|hash), exiting 2 on anything else.
fn homing_or_exit(flags: &Flags) -> HomingPolicy {
    match flags.get("homing").expect("table default") {
        "region" => HomingPolicy::RegionAffinity,
        "hash" => HomingPolicy::ConsistentHash,
        other => {
            eprintln!("invalid value `{other}` for --homing (expected region|hash)");
            std::process::exit(2);
        }
    }
}

/// Builds the [`FederationConfig`] shared by both subcommands from the
/// common flag set.
pub(crate) fn federation_config(flags: &Flags) -> FederationConfig {
    let brokers = flags.usize("brokers").max(1);
    let peers = flags.usize("peers").max(brokers);
    let num_shards = flags.usize("num-shards").max(1).min(brokers);
    let gossip = SimDuration::from_millis(flags.u64("gossip-ms").max(1));
    let staleness = flags
        .has("staleness-ms")
        .then(|| SimDuration::from_millis(flags.u64("staleness-ms").max(1)));
    let kill = flags.has("kill-broker-at").then(|| BrokerOutage {
        region: flags.usize("kill-region"),
        down_at: SimDuration::from_secs_f64(flags.f64("kill-broker-at").max(0.0)),
        restart_at: flags
            .has("restart-broker-at")
            .then(|| SimDuration::from_secs_f64(flags.f64("restart-broker-at").max(0.0))),
    });
    FederationConfig {
        topo: SynthTopoConfig {
            regions: brokers,
            peers,
            ..SynthTopoConfig::default()
        },
        homing: homing_or_exit(flags),
        gossip_interval: gossip,
        staleness_bound: staleness,
        forward_hops: flags.u64("forward-hops") as u32,
        horizon: SimDuration::from_secs(flags.u64("horizon-secs").max(1)),
        num_shards,
        kill,
        trace_capacity: Some(1 << 16),
        ..FederationConfig::default()
    }
}

/// Runs one federation replication, exiting with a flag diagnostic when
/// the configuration is rejected instead of panicking.
fn run_federation_or_exit(cfg: &FederationConfig, seed: u64) -> FederationResult {
    run_federation(cfg, seed).unwrap_or_else(|e| {
        eprintln!("federate: {e}");
        std::process::exit(2);
    })
}

/// `psim federate`: one federation run; stdout carries the determinism
/// artifact (trace JSONL + metrics snapshot + summary JSON), stderr the
/// human summary. Byte-identical stdout for any `--shard-workers`.
pub(crate) fn cmd_federate(flags: &Flags) {
    let cfg = FederationConfig {
        shard_workers: flags.usize("shard-workers"),
        ..federation_config(flags)
    };
    let seed = flags.u64("seed");
    let result = run_federation_or_exit(&cfg, seed);

    let mut tail = summary_json(&cfg, seed, &result);
    tail.push('\n');
    print!("{}", stdout_artifact(&result.trace, &result.metrics, &tail));
    eprintln!(
        "federate: {:?} at t={:.1}s, {} peers / {} brokers / {} shards, {} events, \
         {} trace events ({} dropped), digest {:016x}, {} workers",
        result.outcome,
        result.elapsed.as_secs_f64(),
        cfg.topo.peers,
        cfg.topo.regions,
        cfg.num_shards,
        result.events_processed,
        result.trace.len(),
        result.trace.dropped(),
        result.trace.digest(),
        cfg.shard_workers,
    );
    let d = result.dynamics;
    eprintln!(
        "federation dynamics: {} joins, {} rehomes, {} forwarded ({} served, \
         {} exhausted), {} stale views dropped",
        d.joins,
        d.rehomes,
        d.petitions_forwarded,
        d.forwards_served,
        d.forwards_exhausted,
        d.stale_views_dropped,
    );
    if let Some(kill) = cfg.kill {
        match result.recovery {
            Some(r) => eprintln!(
                "failover: broker of region {} down at {:.0}s; {} re-homes, \
                 recovery {:.1}s mean / {:.1}s max",
                kill.region,
                kill.down_at.as_secs_f64(),
                r.count,
                r.mean_s,
                r.max_s,
            ),
            None => eprintln!(
                "failover: broker of region {} down at {:.0}s; no client re-homed \
                 (horizon too short for the probe timeout?)",
                kill.region,
                kill.down_at.as_secs_f64(),
            ),
        }
    }
}

/// `psim bench-federation`: petition latency and forwarding volume as the
/// broker count and the gossip/staleness cadence vary, plus one scripted
/// failover run for the recovery-time distribution. Writes
/// `BENCH_federation.json`.
pub(crate) fn cmd_bench_federation(flags: &Flags) {
    let peers = flags.usize("peers").max(8);
    let horizon = SimDuration::from_secs(flags.u64("horizon-secs").max(1));
    let seed = flags.u64("seed");
    let out = flags.get("out").expect("table default").to_string();

    // The grid couples gossip interval and staleness bound (staleness =
    // cadence): a slow cadence is what leaves brokers blind between
    // rounds, so it is the axis that actually moves forwarding volume.
    let broker_counts = [2usize, 4];
    let staleness_secs = [30u64, 240];
    eprintln!(
        "bench-federation: {peers} peers, horizon {:.0}s, brokers {broker_counts:?} x \
         gossip/staleness {staleness_secs:?}s ...",
        horizon.as_secs_f64()
    );

    let base = |brokers: usize| FederationConfig {
        topo: SynthTopoConfig {
            regions: brokers,
            peers,
            ..SynthTopoConfig::default()
        },
        num_shards: brokers,
        horizon,
        // One region's peers arrive late: its broker faces scheduled
        // rounds with an empty local registry, so slow gossip forces
        // cross-broker forwarding while fast gossip serves remote views.
        late_region: Some((1, SimDuration::from_secs_f64(horizon.as_secs_f64() * 0.6))),
        trace_capacity: None,
        ..FederationConfig::default()
    };

    let mut points = Vec::new();
    for &brokers in &broker_counts {
        for &s in &staleness_secs {
            let cfg = FederationConfig {
                gossip_interval: SimDuration::from_secs(s),
                staleness_bound: Some(SimDuration::from_secs(s)),
                ..base(brokers)
            };
            let result = run_federation_or_exit(&cfg, seed);
            let petition = LatencySummary::from_samples(&result.petition_latencies());
            let mean = petition.map(|p| p.mean_s).unwrap_or(0.0);
            let d = result.dynamics;
            eprintln!(
                "  {brokers} brokers, staleness {s:>3}s: {} transfers, petition mean \
                 {mean:.3}s, {} forwarded / {} served remote",
                result.log.transfers.len(),
                d.petitions_forwarded,
                d.forwards_served,
            );
            points.push(format!(
                "{{\"brokers\":{brokers},\"gossip_secs\":{s},\"staleness_secs\":{s},\
                 \"transfers\":{},\"petition_latency_mean_s\":{mean},\
                 \"forwarded\":{},\"served_remote\":{}}}",
                result.log.transfers.len(),
                d.petitions_forwarded,
                d.forwards_served,
            ));
        }
    }

    // The failover run: four brokers, one killed mid-run, recovery times
    // from the traced re-home events.
    let kill_at = flags.u64("kill-at-secs").max(1);
    let failover_cfg = FederationConfig {
        kill: Some(BrokerOutage {
            region: 0,
            down_at: SimDuration::from_secs(kill_at),
            restart_at: None,
        }),
        late_region: None,
        trace_capacity: Some(1 << 16),
        ..base(4)
    };
    let failover = run_federation_or_exit(&failover_cfg, seed);
    let recovery = failover.recovery;
    eprintln!(
        "  failover: kill at {kill_at}s -> {} re-homes, recovery mean {:.1}s / max {:.1}s",
        failover.dynamics.rehomes,
        recovery.map(|r| r.mean_s).unwrap_or(0.0),
        recovery.map(|r| r.max_s).unwrap_or(0.0),
    );

    let json = format!(
        "{{\n  \"bench\": \"federation\",\n  \"peers\": {},\n  \"horizon_secs\": {},\n  \
         \"seed\": {},\n  \"rss_bytes\": {},\n  \"points\": [{}],\n  \
         \"failover\": {{\"brokers\": 4, \"kill_at_secs\": {}, \"rehomes\": {}, \
         \"recovery_mean_s\": {}, \"recovery_max_s\": {}}}\n}}\n",
        peers,
        horizon.as_secs_f64(),
        seed,
        crate::churn::rss_bytes(),
        points.join(", "),
        kill_at,
        failover.dynamics.rehomes,
        recovery.map(|r| r.mean_s).unwrap_or(0.0),
        recovery.map(|r| r.max_s).unwrap_or(0.0),
    );
    write_or_exit(&out, &json);
}
