//! Pins the stdout artifacts of the harness-hosted drivers to goldens
//! captured from the pre-harness implementations, and the classic
//! scenarios' artifacts to goldens captured from their own engine
//! assembly before they moved onto the harness.
//!
//! The `workloads::harness` refactor moved testbed construction,
//! federation wiring, engine assembly, and artifact rendering out of the
//! individual drivers; its contract is that not one byte of the churn,
//! multiregion, or federation determinism artifacts moved. These tests
//! rebuild each artifact exactly as `psim churn` / `psim multiregion` /
//! `psim federate` do — same configs as the golden capture commands —
//! and byte-compare against `tests/goldens/*.txt` at 1, 2, and 4
//! workers, so they pin worker-count invariance and the refactor's
//! byte-compatibility in one assertion.
//!
//! If a golden diff is ever *intended* (a deliberate artifact change),
//! re-capture with the commands documented on each constant.

use netsim::time::SimDuration;
use workloads::churn::{run_churn, ChurnConfig};
use workloads::federation::{run_federation, BrokerOutage, FederationConfig};
use workloads::harness::stdout_artifact;
use workloads::multiregion::{phase_csv, run_multiregion, MultiRegionConfig};
use workloads::runner::run_traced;
use workloads::scenario::{run_scenario_profiled, ScenarioConfig};
use workloads::synthtopo::SynthTopoConfig;

/// `psim churn --regions 4 --peers 24 --num-shards 4 --horizon-secs 600
/// --seed 11 > tests/goldens/churn.txt`
const CHURN_GOLDEN: &str = include_str!("goldens/churn.txt");

/// `psim multiregion --regions 3 --clients 2 --seed 11 >
/// tests/goldens/multiregion.txt`
const MULTIREGION_GOLDEN: &str = include_str!("goldens/multiregion.txt");

/// `psim federate --brokers 3 --peers 12 --num-shards 3
/// --horizon-secs 600 --seed 11 > tests/goldens/federation.txt`
const FEDERATION_GOLDEN: &str = include_str!("goldens/federation.txt");

/// `psim federate --brokers 3 --peers 12 --num-shards 3
/// --horizon-secs 900 --kill-broker-at 300 --seed 11 >
/// tests/goldens/federation_kill.txt`
const FEDERATION_KILL_GOLDEN: &str = include_str!("goldens/federation_kill.txt");

/// `stdout_artifact(trace, metrics, "")` of `runner::run_traced` on the
/// `fig5-lossy` scenario at seed 7 (one shard): the trace JSONL of
/// `psim trace fig5-lossy --seed 7` followed by its metrics snapshot.
const FIG5_LOSSY_GOLDEN: &str = include_str!("goldens/fig5_lossy.txt");

/// As [`FIG5_LOSSY_GOLDEN`] for `fig5` at seed 7 on three shards: the
/// artifact behind `psim trace fig5 --seed 7 --shards 3`.
const FIG5_SHARDED_GOLDEN: &str = include_str!("goldens/fig5_sharded.txt");

/// `psim profile fig5 --seed 1 > tests/goldens/profile_fig5.txt`: the
/// one-shard series CSV followed by the Prometheus exposition.
const PROFILE_FIG5_GOLDEN: &str = include_str!("goldens/profile_fig5.txt");

/// As [`FIG5_LOSSY_GOLDEN`] for the `churn` scenario at seed 7: SC3 leaves
/// at 90 s and rejoins at 180 s, SC5 leaves for good, and the broker
/// distributes a file before and after. Pins the SimpleClient receive path
/// across a leave/rejoin (`psim trace churn --seed 7` plus the metrics).
const CHURN_SCENARIO_GOLDEN: &str = include_str!("goldens/churn_scenario.txt");

const SEED: u64 = 11;

/// Asserts `artifact == golden` with a diagnosis that names the first
/// differing line instead of dumping hundreds of kilobytes.
fn assert_matches_golden(name: &str, workers: usize, artifact: &str, golden: &str) {
    if artifact == golden {
        return;
    }
    let line = artifact
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .map(|i| i + 1);
    panic!(
        "{name} artifact at {workers} workers diverged from the golden: \
         {} vs {} bytes, first differing line {:?}",
        artifact.len(),
        golden.len(),
        line
    );
}

#[test]
fn churn_artifact_matches_pre_harness_golden() {
    let base = ChurnConfig {
        topo: SynthTopoConfig {
            regions: 4,
            peers: 24,
            ..SynthTopoConfig::default()
        },
        horizon: SimDuration::from_secs(600),
        num_shards: 4,
        trace_capacity: Some(1 << 16),
        ..ChurnConfig::default()
    };
    for workers in [1usize, 2, 4] {
        let cfg = ChurnConfig {
            shard_workers: workers,
            ..base.clone()
        };
        let result = run_churn(&cfg, SEED).expect("golden config is valid");
        let mut tail = workloads::churn::summary_json(&cfg, SEED, &result);
        tail.push('\n');
        let artifact = stdout_artifact(&result.trace, &result.metrics, &tail);
        assert_matches_golden("churn", workers, &artifact, CHURN_GOLDEN);
    }
}

#[test]
fn multiregion_artifact_matches_pre_harness_golden() {
    for workers in [1usize, 2, 4] {
        let cfg = MultiRegionConfig {
            regions: 3,
            clients_per_region: 2,
            shard_workers: workers,
            trace_capacity: Some(1 << 16),
            ..MultiRegionConfig::default()
        };
        let result = run_multiregion(&cfg, SEED).expect("golden config is valid");
        let tail = phase_csv(&result.trace, &result.node_names);
        let artifact = stdout_artifact(&result.trace, &result.metrics, &tail);
        assert_matches_golden("multiregion", workers, &artifact, MULTIREGION_GOLDEN);
    }
}

/// The federate golden configs: `--brokers 3 --peers 12 --num-shards 3`
/// with the psim flag defaults (region homing, 30 s gossip, 2 forward
/// hops).
fn federate_base() -> FederationConfig {
    FederationConfig {
        topo: SynthTopoConfig {
            regions: 3,
            peers: 12,
            ..SynthTopoConfig::default()
        },
        num_shards: 3,
        trace_capacity: Some(1 << 16),
        ..FederationConfig::default()
    }
}

fn federate_artifact(cfg: &FederationConfig) -> String {
    let result = run_federation(cfg, SEED).expect("golden config is valid");
    let mut tail = workloads::federation::summary_json(cfg, SEED, &result);
    tail.push('\n');
    stdout_artifact(&result.trace, &result.metrics, &tail)
}

#[test]
fn federation_artifact_matches_pre_harness_golden() {
    for workers in [1usize, 2, 4] {
        let cfg = FederationConfig {
            horizon: SimDuration::from_secs(600),
            shard_workers: workers,
            ..federate_base()
        };
        assert_matches_golden(
            "federation",
            workers,
            &federate_artifact(&cfg),
            FEDERATION_GOLDEN,
        );
    }
}

#[test]
fn federation_failover_artifact_matches_pre_harness_golden() {
    for workers in [1usize, 2, 4] {
        let cfg = FederationConfig {
            horizon: SimDuration::from_secs(900),
            kill: Some(BrokerOutage {
                region: 0,
                down_at: SimDuration::from_secs(300),
                restart_at: None,
            }),
            shard_workers: workers,
            ..federate_base()
        };
        assert_matches_golden(
            "federation_kill",
            workers,
            &federate_artifact(&cfg),
            FEDERATION_KILL_GOLDEN,
        );
    }
}

fn traced_artifact(cfg: &ScenarioConfig, seed: u64) -> String {
    let run = run_traced(cfg, seed);
    stdout_artifact(&run.result.trace, &run.result.metrics, "")
}

#[test]
fn lossy_scenario_artifact_matches_pre_harness_golden() {
    let cfg = ScenarioConfig::named("fig5-lossy").expect("a named scenario");
    assert_matches_golden(
        "fig5-lossy",
        1,
        &traced_artifact(&cfg, 7),
        FIG5_LOSSY_GOLDEN,
    );
}

#[test]
fn churn_scenario_artifact_matches_golden() {
    let cfg = ScenarioConfig::named("churn").expect("a named scenario");
    assert_matches_golden(
        "churn scenario",
        1,
        &traced_artifact(&cfg, 7),
        CHURN_SCENARIO_GOLDEN,
    );
}

#[test]
fn sharded_scenario_artifact_matches_pre_harness_golden() {
    for workers in [1usize, 2, 4] {
        let cfg = ScenarioConfig::named("fig5").and_then(|c| c.sharded(3, workers).ok());
        let artifact = traced_artifact(&cfg.expect("fig5 at 3 shards"), 7);
        assert_matches_golden("fig5 (3 shards)", workers, &artifact, FIG5_SHARDED_GOLDEN);
    }
}

#[test]
fn scenario_profile_matches_pre_harness_golden() {
    let cfg = ScenarioConfig::named("fig5").expect("a named scenario");
    let result = run_scenario_profiled(&cfg, 1, SimDuration::from_secs(60)).expect("valid");
    let csv = result.series.expect("series_interval was set").to_csv();
    let artifact = csv + &result.metrics.render_prometheus("psim_profile");
    assert_matches_golden("profile fig5", 1, &artifact, PROFILE_FIG5_GOLDEN);
}
