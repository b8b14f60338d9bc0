//! The churn subcommands: `psim churn` (determinism artifact) and
//! `psim bench-churn` (throughput + memory, `BENCH_churn.json`).
//!
//! `psim churn` writes only worker-count-invariant bytes to stdout —
//! trace JSONL, metrics snapshot, summary JSON — so the CI
//! churn-determinism job can byte-diff two runs that differ only in
//! `--shard-workers`. Wall-clock numbers and diagnostics go to stderr.

use workloads::churn::{run_churn, summary_json, ChurnConfig, ChurnResult};
use workloads::harness::stdout_artifact;
use workloads::synthtopo::SynthTopoConfig;

use crate::{write_or_exit, Flags};

/// Builds the [`ChurnConfig`] shared by both subcommands from the common
/// flag set (`--regions`, `--peers`, `--horizon-secs`, `--num-shards`).
pub(crate) fn churn_config(flags: &Flags) -> ChurnConfig {
    let regions = flags.usize("regions").max(1);
    let peers = flags.usize("peers").max(regions);
    let num_shards = flags.usize("num-shards").max(1).min(regions);
    ChurnConfig {
        topo: SynthTopoConfig {
            regions,
            peers,
            ..SynthTopoConfig::default()
        },
        horizon: netsim::time::SimDuration::from_secs(flags.u64("horizon-secs").max(1)),
        num_shards,
        trace_capacity: Some(1 << 16),
        ..ChurnConfig::default()
    }
}

/// Runs one churn replication, exiting with a flag diagnostic when the
/// configuration cannot be sharded instead of panicking.
pub(crate) fn run_churn_or_exit(cfg: &ChurnConfig, seed: u64) -> ChurnResult {
    run_churn(cfg, seed).unwrap_or_else(|e| {
        eprintln!("churn: {e}");
        std::process::exit(2);
    })
}

/// Resident-set proxy from `/proc/self/statm` (pages × 4 KiB); 0 when the
/// proc filesystem is unavailable (non-Linux hosts).
pub(crate) fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// `psim churn`: one churn run; stdout carries the determinism artifact
/// (trace JSONL + metrics snapshot + summary JSON), stderr the human
/// summary. Byte-identical stdout for any `--shard-workers`.
pub(crate) fn cmd_churn(flags: &Flags) {
    let cfg = ChurnConfig {
        shard_workers: flags.usize("shard-workers"),
        ..churn_config(flags)
    };
    let seed = flags.u64("seed");
    let result = run_churn_or_exit(&cfg, seed);

    let mut tail = summary_json(&cfg, seed, &result);
    tail.push('\n');
    print!("{}", stdout_artifact(&result.trace, &result.metrics, &tail));
    eprintln!(
        "churn: {:?} at t={:.1}s, {} peers / {} regions / {} shards, {} events, \
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
    eprintln!(
        "swap dynamics: {} joins, {} rejoins, {} leaves, {} refused petitions, \
         {} refused tasks",
        result.swap.joins,
        result.swap.rejoins,
        result.swap.leaves,
        result.swap.refused_petitions,
        result.swap.refused_tasks,
    );
}

/// `psim bench-churn`: the churn workload at 1, 2, and 4 workers, wall
/// clock measured, plus a resident-memory proxy. Writes `BENCH_churn.json`.
pub(crate) fn cmd_bench_churn(flags: &Flags) {
    let base = churn_config(flags);
    let seed = flags.u64("seed");
    let out = flags.get("out").expect("table default").to_string();
    let workers_list = [1usize, 2, 4];

    eprintln!(
        "bench-churn: {} peers / {} regions / {} shards, horizon {:.0}s, workers 1/2/4 ...",
        base.topo.peers,
        base.topo.regions,
        base.num_shards,
        base.horizon.as_secs_f64()
    );
    let mut points = Vec::new();
    let mut swap = None;
    for &workers in &workers_list {
        let cfg = ChurnConfig {
            shard_workers: workers,
            // The bench measures raw event throughput; tracing off keeps
            // the ring out of the measurement.
            trace_capacity: None,
            ..base.clone()
        };
        let start = std::time::Instant::now();
        let result = run_churn_or_exit(&cfg, seed);
        let wall = start.elapsed().as_secs_f64();
        let events_per_sec = if wall > 0.0 {
            result.events_processed as f64 / wall
        } else {
            0.0
        };
        eprintln!(
            "  {} workers  {:>10.0} events/s  ({} events, {:.3} s wall, {} windows)",
            workers, events_per_sec, result.events_processed, wall, result.profile.rounds
        );
        points.push(format!(
            "{{\"workers\":{workers},\"events\":{},\"wall_secs\":{wall},\
             \"events_per_sec\":{events_per_sec}}}",
            result.events_processed
        ));
        swap = Some(result.swap);
    }
    crate::bench::warn_if_saturated(*workers_list.iter().max().unwrap_or(&1));

    let swap = swap.expect("at least one bench point ran");
    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"peers\": {},\n  \"regions\": {},\n  \
         \"num_shards\": {},\n  \"horizon_secs\": {},\n  \"seed\": {},\n  \
         \"rss_bytes\": {},\n  \"swap\": {{\"joins\": {}, \"rejoins\": {}, \
         \"leaves\": {}, \"refused_petitions\": {}, \"refused_tasks\": {}}},\n  \
         \"points\": [{}]\n}}\n",
        base.topo.peers,
        base.topo.regions,
        base.num_shards,
        base.horizon.as_secs_f64(),
        seed,
        rss_bytes(),
        swap.joins,
        swap.rejoins,
        swap.leaves,
        swap.refused_petitions,
        swap.refused_tasks,
        points.join(", "),
    );
    write_or_exit(&out, &json);
}
