//! The four benchmark workloads, each run from its public entry point:
//! `churn`, `federation` and `streaming` through `workloads::harness`,
//! `paper` through the classic `scenario` path.
//!
//! A [`Case`] makes one replication at a time. A replication returns its
//! timings, its worker-invariant outputs (compared across runs of the
//! same seed), the primary operation's latencies, and the violations of
//! the workload's output checks.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::engine::RunOutcome;
use netsim::metrics::Metrics;
use netsim::node::NodeId;
use netsim::time::SimDuration;
use overlay::broker::{BrokerCommand, TargetSpec};
use overlay::selector::ModelKind;
use planetlab::builder::{build, TestbedConfig};
use workloads::churn::{ChurnConfig, ChurnWorkload, SwapDynamics};
use workloads::experiments::{fig5, fig6};
use workloads::federation::{FederationConfig, FederationDynamics, FederationWorkload};
use workloads::harness::{HarnessRun, Workload, WorkloadBuilder};
use workloads::scenario::{run_scenario, ScenarioBuilder, ScenarioConfig};
use workloads::spec::{ExperimentSpec, MB};
use workloads::streaming::{PiecePolicy, StreamingConfig, StreamingWorkload, UploadProfile};
use workloads::sweep::{derive_seed, DISTRIBUTE_LABEL, MEASURED_LABEL};
use workloads::synthtopo::SynthTopoConfig;

use crate::ledger::{timed_factory, Instrumented, JoinLog, Ledger};

/// Per-layer values a replication measures besides the ledger's spans.
pub type Layers = BTreeMap<String, f64>;

/// One replication's outputs.
pub struct Rep {
    /// First dispatched event to drained results (host s).
    pub wall_s: f64,
    /// Worker-invariant outputs: must repeat exactly for a seed, traced
    /// or not.
    pub artifact: String,
    /// Latencies of the primary operations that finished (simulated s).
    pub latencies: Vec<f64>,
    /// Primary operations attempted.
    pub attempted: u64,
    /// Primary operations that failed, were refused or did not finish.
    pub failed: u64,
    /// Output-check violations.
    pub violations: Vec<String>,
    /// Per-layer values (set-up split, engine, parallel, registry, ...).
    pub layers: Layers,
}

/// A benchmark workload.
pub trait Case {
    /// Seeds whose replications make up one run's sample set.
    fn sim_reps(&self) -> usize;
    /// One set-up-only measurement in host seconds: the work a
    /// replication does before its first event, then nothing else.
    fn setup_only(&self, seed: u64) -> f64;
    /// One replication; `ledger` turns on the per-callback spans.
    fn run(&self, seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep;
}

/// The workloads, by name.
pub const NAMES: [&str; 4] = ["churn", "federation", "streaming", "paper"];

/// The case called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Case>> {
    Some(match name {
        "churn" => Box::new(Churn(churn_config())),
        "federation" => Box::new(Federation(federation_config())),
        "streaming" => Box::new(Streaming(streaming_config())),
        "paper" => Box::new(Paper {
            replications: PAPER_REPLICATIONS,
        }),
        _ => return None,
    })
}

/// The seed of replication `i` of a run: the run's own seed first, so
/// the reference seed reproduces the plain `psim` numbers.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        derive_seed(seed, 0xBE9C, i as u64)
    }
}

// ---- harness workloads ------------------------------------------------

/// `psim bench-churn` defaults: 20k lifecycle peers, 8 regions, 4 shards,
/// 1800 s, tracing off.
fn churn_config() -> ChurnConfig {
    ChurnConfig {
        topo: SynthTopoConfig {
            regions: 8,
            peers: 20_000,
            ..SynthTopoConfig::default()
        },
        horizon: SimDuration::from_secs(1800),
        num_shards: 4,
        shard_workers: 1,
        trace_capacity: None,
        ..ChurnConfig::default()
    }
}

/// 8 brokers, 4,000 peers, 1800 s, 2 forwarding hops, 24 rounds of
/// selected transfers every 60 s from 120 s (192 petitions a replication). Region 1
/// arrives at 1080 s, and the first gossip round is at 150 s, so broker 1
/// meets its 120 s round with no candidate at all and forwards it. No
/// broker outage is scripted: see `NOTES.md` for the failover defect that
/// makes petitions fail under one.
fn federation_config() -> FederationConfig {
    FederationConfig {
        topo: SynthTopoConfig {
            regions: 8,
            peers: 4_000,
            ..SynthTopoConfig::default()
        },
        gossip_interval: SimDuration::from_secs(150),
        forward_hops: 2,
        horizon: SimDuration::from_secs(1800),
        num_shards: 4,
        shard_workers: 1,
        rounds: 24,
        round_interval: SimDuration::from_secs(60),
        late_region: Some((1, SimDuration::from_secs(1080))),
        trace_capacity: None,
        ..FederationConfig::default()
    }
}

/// 8 regions, 1,024 viewers on campus uplinks, rarest-window w=8, 240
/// pieces, 1800 s.
fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        topo: SynthTopoConfig {
            regions: 8,
            peers: 1_024,
            ..SynthTopoConfig::default()
        },
        policy: PiecePolicy::RarestWindow,
        window: 8,
        upload: UploadProfile::Campus,
        horizon: SimDuration::from_secs(1800),
        num_shards: 4,
        shard_workers: 1,
        total_pieces: 240,
        trace_capacity: None,
        ..StreamingConfig::default()
    }
}

/// Timings and outputs of one harness run.
struct HarnessRep {
    run: HarnessRun,
    joins: Option<JoinLog>,
    setup_s: f64,
    wall_s: f64,
    artifact: String,
    layers: Layers,
}

/// Runs `w` once through the harness, one worker, tracing off. With a
/// ledger every actor is timed and execution profiling is on; with
/// `joins` every peer's session joins are timed in simulated time.
fn run_harness(
    w: &dyn Workload,
    horizon: SimDuration,
    seed: u64,
    ledger: Option<&Arc<Ledger>>,
    joins: bool,
) -> HarnessRep {
    let harness = WorkloadBuilder::new()
        .horizon(horizon)
        .shard_workers(1)
        .trace_capacity(None)
        .profile_execution(ledger.is_some())
        .build()
        .expect("benchmark harness parameters are valid");
    let join_log = joins.then(|| Arc::new(Mutex::new(JoinLog::default())));
    let wrapped = Instrumented::new(w, ledger.cloned(), join_log.clone());
    let t0 = Instant::now();
    let run = harness
        .run(&wrapped, seed)
        .expect("benchmark workload is valid");
    let end = Instant::now();
    let spans = wrapped
        .setup()
        .expect("the run dispatched at least one event");
    let artifact = run.artifact(&w.summarize(seed, &run));
    let joins = join_log.map(|log| std::mem::take(&mut *log.lock().expect("the run has ended")));

    let mut layers = Layers::new();
    layers.insert("setup.topology_s".into(), spans.topology.as_secs_f64());
    layers.insert("setup.actors_s".into(), spans.actors.as_secs_f64());
    let engine_s = spans.first_event.duration_since(spans.fleet_ready);
    layers.insert("setup.engine_s".into(), engine_s.as_secs_f64());
    layers.insert("engine.events".into(), run.events_processed as f64);
    layers.insert("engine.peak_queue_len".into(), run.peak_queue_len as f64);
    layers.insert("parallel.rounds".into(), run.profile.rounds as f64);
    if let Some(profile) = &run.exec_profile {
        let totals = profile.totals();
        let stalls: u64 = totals.iter().map(|t| t.stalls).sum();
        let busy: f64 = totals.iter().map(|t| t.busy.as_secs_f64()).sum();
        let wait: f64 = totals.iter().map(|t| t.barrier_wait.as_secs_f64()).sum();
        layers.insert("parallel.stalls".into(), stalls as f64);
        layers.insert("parallel.busy_s".into(), busy);
        layers.insert("parallel.barrier_wait_s".into(), wait);
    }
    registry_layers(&run.metrics, &mut layers);
    HarnessRep {
        setup_s: (spans.first_event.duration_since(t0) - spans.wrapping).as_secs_f64(),
        wall_s: end.duration_since(spans.first_event).as_secs_f64(),
        artifact,
        layers,
        run,
        joins,
    }
}

/// Sums the per-broker `registry.*` gauges into bytes per registered peer.
fn registry_layers(m: &Metrics, layers: &mut Layers) {
    let sum = |prefix: &str| -> f64 {
        m.gauges_sorted()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    let peers = sum("registry.peers.");
    if peers > 0.0 {
        layers.insert(
            "registry.bytes_per_peer".into(),
            sum("registry.bytes.") / peers,
        );
        layers.insert(
            "registry.gossip_bytes_per_peer".into(),
            sum("registry.gossip_bytes.") / peers,
        );
    }
}

/// A set-up-only harness run: the horizon ends right after the first
/// events, so the time is set-up plus the start hooks.
fn harness_setup_only(w: &dyn Workload, seed: u64) -> f64 {
    run_harness(w, SimDuration::from_nanos(1), seed, None, false).setup_s
}

fn check(violations: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        violations.push(what());
    }
}

/// How close to the horizon a join may start and still be expected to be
/// answered: far above the slowest answered join seen (≈12 s).
const JOIN_CUTOFF: SimDuration = SimDuration::from_secs(60);

struct Churn(ChurnConfig);

impl Case for Churn {
    fn sim_reps(&self) -> usize {
        3
    }

    fn setup_only(&self, seed: u64) -> f64 {
        harness_setup_only(&ChurnWorkload { cfg: &self.0 }, seed)
    }

    fn run(&self, seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep {
        let cfg = &self.0;
        let h = run_harness(&ChurnWorkload { cfg }, cfg.horizon, seed, ledger, true);
        let swap = SwapDynamics::from_metrics(&h.run.metrics);
        let joins = h.joins.expect("churn runs time its joins");
        // A join still unanswered at the horizon is cut off, not failed,
        // if it started within `JOIN_CUTOFF` of it.
        let cutoff_at = (cfg.horizon - JOIN_CUTOFF).as_secs_f64();
        let cut = joins
            .pending_at_end
            .iter()
            .filter(|&&t| t >= cutoff_at)
            .count();
        let started = swap.joins + swap.rejoins;
        let attempted = started.saturating_sub(cut as u64);
        let answered = joins.latencies.len() as u64;
        let mut violations = Vec::new();
        check(&mut violations, swap.joins == cfg.topo.peers as u64, || {
            format!("churn: {} joins for {} peers", swap.joins, cfg.topo.peers)
        });
        check(&mut violations, swap.leaves > 0, || {
            "churn: no leaves".into()
        });
        let unanswered = joins.left_unanswered + joins.pending_at_end.len() as u64;
        check(&mut violations, answered + unanswered == started, || {
            format!("churn: {answered} answered + {unanswered} unanswered of {started} joins")
        });
        check(
            &mut violations,
            h.run.outcome == RunOutcome::HorizonReached,
            || format!("churn: run ended {:?}", h.run.outcome),
        );
        Rep {
            wall_s: h.wall_s,
            attempted,
            failed: attempted.saturating_sub(answered),
            latencies: joins.latencies,
            violations,
            artifact: h.artifact,
            layers: h.layers,
        }
    }
}

struct Federation(FederationConfig);

impl Case for Federation {
    fn sim_reps(&self) -> usize {
        12
    }

    fn setup_only(&self, seed: u64) -> f64 {
        harness_setup_only(&FederationWorkload { cfg: &self.0 }, seed)
    }

    fn run(&self, seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep {
        let cfg = &self.0;
        let h = run_harness(
            &FederationWorkload { cfg },
            cfg.horizon,
            seed,
            ledger,
            false,
        );
        let d = FederationDynamics::from_metrics(&h.run.metrics);
        let transfers = &h.run.log.transfers;
        let latencies: Vec<f64> = transfers
            .iter()
            .filter(|t| t.completed_at.is_some() && !t.cancelled)
            .filter_map(|t| t.petition_latency_secs())
            .collect();
        let attempted = (cfg.topo.regions * cfg.rounds) as u64;
        let mut violations = Vec::new();
        check(&mut violations, d.petitions_forwarded > 0, || {
            "federation: no petition was forwarded".into()
        });
        check(&mut violations, d.joins >= cfg.topo.peers as u64, || {
            format!("federation: {} joins for {} peers", d.joins, cfg.topo.peers)
        });
        Rep {
            wall_s: h.wall_s,
            failed: attempted.saturating_sub(latencies.len() as u64),
            attempted,
            latencies,
            violations,
            artifact: h.artifact,
            layers: h.layers,
        }
    }
}

struct Streaming(StreamingConfig);

impl Case for Streaming {
    fn sim_reps(&self) -> usize {
        16
    }

    fn setup_only(&self, seed: u64) -> f64 {
        harness_setup_only(&StreamingWorkload { cfg: &self.0 }, seed)
    }

    fn run(&self, seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep {
        let cfg = &self.0;
        let h = run_harness(&StreamingWorkload { cfg }, cfg.horizon, seed, ledger, false);
        let streams = &h.run.log.streams;
        let viewers = cfg.topo.peers as u64;
        let started = streams
            .iter()
            .filter(|s| s.startup_delay_secs.is_some())
            .count() as u64;
        let completed = streams.iter().filter(|s| s.completed_at.is_some()).count() as u64;
        let latencies: Vec<f64> = streams
            .iter()
            .filter_map(|s| s.startup_delay_secs)
            .collect();
        let mut violations = Vec::new();
        check(&mut violations, started == viewers, || {
            format!("streaming: {started} of {viewers} viewers started playback")
        });
        Rep {
            wall_s: h.wall_s,
            attempted: viewers,
            failed: viewers.saturating_sub(completed),
            latencies,
            violations,
            artifact: h.artifact,
            layers: h.layers,
        }
    }
}

// ---- the paper figures --------------------------------------------------

/// Replications of every paper cell in one replication of the workload.
const PAPER_REPLICATIONS: usize = 300;

/// One figure cell: a scenario and what its rows are.
struct PaperCell {
    cfg: ScenarioConfig,
    /// `true` for a Fig 6 selected transfer (one row: the measured
    /// transfer); `false` for a Fig 5 broadcast (one row per SC).
    selected: bool,
}

/// The Fig 6 selected-transfer cells (economic / same-priority /
/// quick-peer / random × {4, 16} parts) and the Fig 5 100 MB broadcast
/// (whole / 4 / 16 parts), built like the `fig67` and `fig345` sweep
/// grids build them. `ledger` wraps every selection model's factory;
/// `horizon` replaces the scenario horizon.
fn paper_cells(ledger: Option<&Arc<Ledger>>, horizon: Option<SimDuration>) -> Vec<PaperCell> {
    let warmup = ExperimentSpec::paper_defaults().warmup;
    let testbed = build(&TestbedConfig::measurement_setup());
    let fastest = (0..testbed.len())
        .map(|i| NodeId(i as u32))
        .find(|&n| testbed.topology.node(n).name == fig6::FASTEST_PEER)
        .expect("the measurement testbed has the historically fastest peer");
    let mut cells = Vec::new();
    for model in fig6::MODELS {
        for parts in fig6::GRANULARITIES {
            cells.push(PaperCell {
                cfg: selected_transfer(model, parts, warmup, fastest, ledger, horizon),
                selected: true,
            });
        }
    }
    for parts in fig5::GRANULARITIES {
        let cfg = with_horizon(ScenarioBuilder::measurement_setup(), horizon)
            .at(
                warmup,
                BrokerCommand::DistributeFile {
                    target: TargetSpec::AllClients,
                    size_bytes: fig5::FILE_SIZE,
                    num_parts: parts,
                    label: DISTRIBUTE_LABEL.into(),
                },
            )
            .build()
            .expect("the Fig 5 cell is valid");
        cells.push(PaperCell {
            cfg,
            selected: false,
        });
    }
    cells
}

/// The Fig 6 scenario: warm-up broadcast and tasks, a background transfer
/// to the historically fastest peer, then the measured transfer to the
/// peer the model selects.
fn selected_transfer(
    model: ModelKind,
    parts: u32,
    t0: SimDuration,
    fastest: NodeId,
    ledger: Option<&Arc<Ledger>>,
    horizon: Option<SimDuration>,
) -> ScenarioConfig {
    let t_bg = t0 + SimDuration::from_secs(600);
    let t_measure = t_bg + SimDuration::from_secs(2);
    let mut builder = with_horizon(ScenarioBuilder::measurement_setup(), horizon)
        .task_accept_by_sc(fig6::WARMUP_TASK_ACCEPT)
        .at(
            t0,
            BrokerCommand::DistributeFile {
                target: TargetSpec::AllClients,
                size_bytes: 8 * MB,
                num_parts: 8,
                label: "warmup".into(),
            },
        );
    for k in 0..5u64 {
        builder = builder.at(
            t0 + SimDuration::from_secs(60 + 15 * k),
            BrokerCommand::SubmitTask {
                target: TargetSpec::AllClients,
                work_gops: 2.0,
                input_bytes: 0,
                input_parts: 1,
                label: format!("warmup-task-{k}"),
            },
        );
    }
    let factory = fig6::factory_for_kind(model).expect("Fig 6 models all select");
    let factory = match ledger {
        Some(l) => timed_factory(factory, l.clone()),
        None => factory,
    };
    builder
        .at(
            t_bg,
            BrokerCommand::DistributeFile {
                target: TargetSpec::Node(fastest),
                size_bytes: fig6::BACKGROUND_SIZE,
                num_parts: parts,
                label: "background".into(),
            },
        )
        .at(
            t_measure,
            BrokerCommand::DistributeFile {
                target: TargetSpec::Selected,
                size_bytes: fig6::MEASURED_SIZE,
                num_parts: parts,
                label: MEASURED_LABEL.into(),
            },
        )
        .selector(factory)
        .build()
        .expect("the Fig 6 cell is valid")
}

fn with_horizon(builder: ScenarioBuilder, horizon: Option<SimDuration>) -> ScenarioBuilder {
    match horizon {
        Some(h) => builder.horizon(h),
        None => builder,
    }
}

struct Paper {
    replications: usize,
}

impl Paper {
    /// The scenario seed of replication `r` of cell `ci`.
    fn scenario_seed(seed: u64, ci: usize, r: usize) -> u64 {
        derive_seed(seed, ci as u64, r as u64)
    }
}

impl Case for Paper {
    fn sim_reps(&self) -> usize {
        1
    }

    /// The set-up of every scenario of one replication: each runs with a
    /// horizon that ends right after its first events, so the time is the
    /// testbed build, the actors, the engine and the start hooks.
    fn setup_only(&self, seed: u64) -> f64 {
        let cells = paper_cells(None, Some(SimDuration::from_nanos(1)));
        let t0 = Instant::now();
        for (ci, cell) in cells.iter().enumerate() {
            for r in 0..self.replications {
                let s = Self::scenario_seed(seed, ci, r);
                std::hint::black_box(run_scenario(&cell.cfg, s));
            }
        }
        t0.elapsed().as_secs_f64()
    }

    /// Every cell's replications, one scenario at a time on this thread.
    /// The wall starts with the first scenario: the scenario path sets up
    /// each scenario internally, so `wall_s` includes those set-ups.
    fn run(&self, seed: u64, ledger: Option<&Arc<Ledger>>) -> Rep {
        let cells = paper_cells(ledger, None);
        let first_event = Instant::now();
        let mut artifact = String::new();
        let mut latencies = Vec::new();
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut violations = Vec::new();
        let (mut events, mut peak_queue) = (0u64, 0usize);
        for (ci, cell) in cells.iter().enumerate() {
            let mut rows = 0usize;
            for r in 0..self.replications {
                let s = Self::scenario_seed(seed, ci, r);
                let result = run_scenario(&cell.cfg, s);
                events += result.events_processed;
                peak_queue = peak_queue.max(result.peak_queue_len);
                let transfers = &result.log.transfers;
                let values: Vec<f64> = if cell.selected {
                    attempted += 1;
                    transfers
                        .iter()
                        .filter(|t| t.label == MEASURED_LABEL && !t.cancelled)
                        .filter_map(|t| t.total_secs())
                        .collect()
                } else {
                    attempted += 8;
                    transfers
                        .iter()
                        .filter(|t| t.label == DISTRIBUTE_LABEL && !t.cancelled)
                        .filter_map(|t| t.total_secs())
                        .collect()
                };
                let expected = if cell.selected { 1 } else { 8 };
                failed += (expected as u64).saturating_sub(values.len() as u64);
                if values.len() == expected {
                    rows += 1;
                }
                if cell.selected {
                    latencies.extend_from_slice(&values);
                }
                artifact.push_str(&format!(
                    "{ci}/{r}:{}:{}:{:?}\n",
                    result.events_processed,
                    result.elapsed.as_nanos(),
                    values
                ));
            }
            check(&mut violations, rows == self.replications, || {
                format!("paper: cell {ci} has {rows} of {} rows", self.replications)
            });
        }
        let wall_s = first_event.elapsed().as_secs_f64();
        let mut layers = Layers::new();
        layers.insert("engine.events".into(), events as f64);
        layers.insert("engine.peak_queue_len".into(), peak_queue as f64);
        if ledger.is_some() {
            // The scenario path builds its testbed inside `run_scenario`;
            // the same builds, timed here outside the wall span, stand in
            // for that share of it.
            let b0 = Instant::now();
            for cell in &cells {
                for _ in 0..self.replications {
                    std::hint::black_box(build(cell.cfg.testbed()));
                }
            }
            layers.insert("testbed.build_s".into(), b0.elapsed().as_secs_f64());
        }
        Rep {
            wall_s,
            artifact,
            latencies,
            attempted,
            failed,
            violations,
            layers,
        }
    }
}
