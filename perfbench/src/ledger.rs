//! The outside-in cost ledger: timing wrappers around the public calls
//! into each layer, recording into slots fixed when the wrapper is made.
//!
//! Nothing here changes the program. [`Instrumented`] is a [`Workload`]
//! that forwards to the real one; it times `topology` and `actors`, and
//! hands the harness wrapped actors. [`TimedActor`] times every
//! `on_start`, `on_message` and `on_timer`, keyed by role and by
//! `Payload::kind()` or timer-tag class. [`timed_factory`] wraps a
//! `SelectorFactory` so every `select` call is timed. A call costs two
//! clock reads and a few relaxed atomic adds into preallocated slots: no
//! allocation and no lock.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use netsim::engine::{Actor, Context, Payload, TimerId};
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};
use netsim::timeseries::{TimeSeriesError, TimeSeriesRecorder};
use netsim::transport::TransportConfig;
use overlay::message::OverlayMsg;
use overlay::selector::{PeerSelector, SelectionOutcome, SelectionRequest, SelectorFactory};
use workloads::harness::{
    BuildCtx, FederationSpec, HarnessError, HarnessRun, TopologyPlan, Workload,
};

/// The message kinds the ledger lists, most frequent first so the lookup
/// is short on the hot kinds, each with the role that receives it. These
/// are the kinds that occur in some benchmark workload; any other kind
/// lands in the `other` slot, which the traced run reports on stderr.
pub const KINDS: [(&str, usize); 14] = [
    ("gossip", BROKER),
    ("piece", PEER),
    ("piece-request", PEER),
    ("part", PEER),
    ("confirm", BROKER),
    ("join", BROKER),
    ("join-ack", PEER),
    ("leave", BROKER),
    ("ping", BROKER),
    ("pong", PEER),
    ("petition", PEER),
    ("petition-ack", BROKER),
    ("fwd-petition", BROKER),
    ("complete", PEER),
];

/// Slot count for message kinds: every kind in [`KINDS`] plus `other`.
pub const KIND_SLOTS: usize = KINDS.len() + 1;

/// The slot of kinds not in [`KINDS`].
pub const OTHER_KIND: usize = KINDS.len();

/// Slot of a message kind label.
pub fn kind_index(kind: &str) -> usize {
    KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .unwrap_or(OTHER_KIND)
}

/// Broker timer classes, by the tag ranges `overlay::broker` schedules:
/// commands from 1,000,000 and the gossip tag 3,000,000. Transfer and task
/// watchdogs, retries and scripted outages are rare in the benchmark
/// workloads and share the `other` class.
pub const TIMER_CLASSES: [&str; 3] = ["gossip", "command", "other"];

fn broker_timer_class(tag: u64) -> usize {
    match tag {
        3_000_000 => 0,
        1_000_000..2_000_000 => 1,
        _ => 2,
    }
}

/// The two actor roles: brokers, and every peer kind (lifecycle peers,
/// simple clients, streaming viewers).
pub const ROLES: [&str; 2] = ["broker", "peer"];
/// Index of the broker role in [`ROLES`].
pub const BROKER: usize = 0;
/// Index of the peer role in [`ROLES`].
pub const PEER: usize = 1;

/// Calls and summed duration of one span kind.
#[derive(Default)]
pub struct Slot {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Slot {
    fn add(&self, d: Duration) {
        self.calls.fetch_add(1, Relaxed);
        self.nanos.fetch_add(d.as_nanos() as u64, Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Summed span time in seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Relaxed) as f64 * 1e-9
    }
}

/// The callback slots of one role.
pub struct RoleSlots {
    /// `on_start`.
    pub start: Slot,
    /// `on_message`, by message kind.
    pub msg: [Slot; KIND_SLOTS],
    /// `on_timer`, by broker timer class; peers use the first slot only.
    pub timer: [Slot; TIMER_CLASSES.len()],
}

impl Default for RoleSlots {
    fn default() -> Self {
        RoleSlots {
            start: Slot::default(),
            msg: std::array::from_fn(|_| Slot::default()),
            timer: std::array::from_fn(|_| Slot::default()),
        }
    }
}

impl RoleSlots {
    /// Summed time of every callback of this role.
    pub fn secs(&self) -> f64 {
        self.start.secs()
            + self.msg.iter().map(Slot::secs).sum::<f64>()
            + self.timer.iter().map(Slot::secs).sum::<f64>()
    }
}

/// Message count and wire bytes (payload plus framing) of one kind.
#[derive(Default)]
pub struct Wire {
    /// Messages delivered.
    pub msgs: AtomicU64,
    /// Wire bytes delivered.
    pub bytes: AtomicU64,
}

/// Everything one instrumented run records.
pub struct Ledger {
    /// Actor callback slots, indexed like [`ROLES`].
    pub roles: [RoleSlots; 2],
    /// Delivered messages by kind.
    pub wire: [Wire; KIND_SLOTS],
    /// `PeerSelector::select` spans.
    pub selection: Slot,
    /// `select` calls that returned no candidate.
    pub refused: AtomicU64,
    framing: u64,
}

impl Ledger {
    /// An empty ledger; wire bytes add the default transport's framing.
    pub fn new() -> Arc<Ledger> {
        Arc::new(Ledger {
            roles: std::array::from_fn(|_| RoleSlots::default()),
            wire: std::array::from_fn(|_| Wire::default()),
            selection: Slot::default(),
            refused: AtomicU64::new(0),
            framing: TransportConfig::default().per_message_overhead_bytes,
        })
    }

    /// Summed time of every actor callback.
    pub fn callback_secs(&self) -> f64 {
        self.roles.iter().map(RoleSlots::secs).sum()
    }

    /// Messages of a kind not in [`KINDS`], or received by another role
    /// than the one listed for their kind: counted in the spans, but not
    /// printed by kind.
    pub fn unlisted_messages(&self) -> u64 {
        let mut n = self.wire[OTHER_KIND].msgs.load(Relaxed);
        for (slot, &(_, role)) in KINDS.iter().enumerate() {
            let other_role = 1 - role;
            n += self.roles[other_role].msg[slot].calls();
        }
        n
    }
}

/// An actor whose callbacks are timed into one role's slots. It also
/// stamps the first `on_start` of the run.
struct TimedActor {
    inner: Box<dyn Actor<OverlayMsg> + Send>,
    ledger: Arc<Ledger>,
    role: usize,
    first_event: Arc<OnceLock<Instant>>,
}

impl Actor<OverlayMsg> for TimedActor {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        let t0 = Instant::now();
        self.first_event.get_or_init(|| t0);
        self.inner.on_start(ctx);
        self.ledger.roles[self.role].start.add(t0.elapsed());
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        let kind = kind_index(msg.kind());
        let bytes = msg.wire_size() + self.ledger.framing;
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        let d = t0.elapsed();
        self.ledger.roles[self.role].msg[kind].add(d);
        let wire = &self.ledger.wire[kind];
        wire.msgs.fetch_add(1, Relaxed);
        wire.bytes.fetch_add(bytes, Relaxed);
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, timer: TimerId, tag: u64) {
        let class = if self.role == BROKER {
            broker_timer_class(tag)
        } else {
            0
        };
        let t0 = Instant::now();
        self.inner.on_timer(ctx, timer, tag);
        self.ledger.roles[self.role].timer[class].add(t0.elapsed());
    }
}

/// An actor that only stamps its `on_start`: the untraced run wraps the
/// one actor the engine starts first, and nothing else.
struct StartStamp {
    inner: Box<dyn Actor<OverlayMsg> + Send>,
    first_event: Arc<OnceLock<Instant>>,
}

impl Actor<OverlayMsg> for StartStamp {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        self.first_event.get_or_init(Instant::now);
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, timer: TimerId, tag: u64) {
        self.inner.on_timer(ctx, timer, tag);
    }
}

/// Session joins of lifecycle peers, as simulated latencies.
#[derive(Default)]
pub struct JoinLog {
    /// Join timer to `JoinAck`, simulated seconds, for every answered join.
    pub latencies: Vec<f64>,
    /// Joins whose session ended before the ack.
    pub left_unanswered: u64,
    /// Start times (simulated seconds) of joins still unanswered when the
    /// run ended.
    pub pending_at_end: Vec<f64>,
}

/// Timer tags at or above this are not session timers: `overlay::lifecycle`
/// gives session `i` the join tag `2i` and the leave tag `2i + 1`, and
/// puts task and probe timers from 2^32 up.
const SESSION_TAG_SPAN: u64 = 1 << 32;

/// A lifecycle peer whose session joins are timed in simulated time: from
/// the join timer to the home broker's `JoinAck`.
struct JoinClock {
    inner: Box<dyn Actor<OverlayMsg> + Send>,
    pending: Option<SimTime>,
    log: Arc<Mutex<JoinLog>>,
}

impl JoinClock {
    fn log(&self) -> std::sync::MutexGuard<'_, JoinLog> {
        self.log
            .lock()
            .expect("no thread panics while holding the join log")
    }
}

impl Actor<OverlayMsg> for JoinClock {
    fn on_start(&mut self, ctx: &mut Context<OverlayMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId, msg: OverlayMsg) {
        if matches!(msg, OverlayMsg::JoinAck { .. }) {
            if let Some(t) = self.pending.take() {
                let secs = (ctx.now() - t).as_secs_f64();
                self.log().latencies.push(secs);
            }
        }
        self.inner.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Context<OverlayMsg>, timer: TimerId, tag: u64) {
        if tag < SESSION_TAG_SPAN {
            if self.pending.take().is_some() {
                self.log().left_unanswered += 1;
            }
            if tag.is_multiple_of(2) {
                self.pending = Some(ctx.now());
            }
        }
        self.inner.on_timer(ctx, timer, tag);
    }
}

impl Drop for JoinClock {
    fn drop(&mut self) {
        if let Some(t) = self.pending {
            if let Ok(mut log) = self.log.lock() {
                log.pending_at_end.push(t.as_secs_f64());
            }
        }
    }
}

/// Set-up milestones of one instrumented harness run.
#[derive(Debug, Clone, Copy)]
pub struct SetupSpans {
    /// `Workload::topology`.
    pub topology: Duration,
    /// `Workload::actors`.
    pub actors: Duration,
    /// The benchmark's own wrapping of the fleet, to leave out of set-up.
    pub wrapping: Duration,
    /// When the fleet was handed to the harness.
    pub fleet_ready: Instant,
    /// The first dispatched event (the first `on_start`).
    pub first_event: Instant,
}

/// A [`Workload`] that forwards to `inner`, timing its set-up calls and
/// wrapping its actors. With a ledger every actor is a [`TimedActor`];
/// without one only the actor the engine starts first is wrapped, to
/// stamp the first dispatched event. With a join log every peer is also
/// a [`JoinClock`].
pub struct Instrumented<'a> {
    inner: &'a dyn Workload,
    ledger: Option<Arc<Ledger>>,
    joins: Option<Arc<Mutex<JoinLog>>>,
    first_event: Arc<OnceLock<Instant>>,
    /// Node → shard: the sharded engine starts shards in order and each
    /// shard's actors in node order, so the lowest node of shard 0 starts
    /// first.
    shard_of: RefCell<Vec<usize>>,
    topology: Cell<Duration>,
    actors: Cell<Duration>,
    wrapping: Cell<Duration>,
    fleet_ready: Cell<Option<Instant>>,
}

impl<'a> Instrumented<'a> {
    /// Wraps `inner`; `ledger` turns on the per-callback spans, `joins`
    /// the join clocks.
    pub fn new(
        inner: &'a dyn Workload,
        ledger: Option<Arc<Ledger>>,
        joins: Option<Arc<Mutex<JoinLog>>>,
    ) -> Self {
        Instrumented {
            inner,
            ledger,
            joins,
            first_event: Arc::new(OnceLock::new()),
            shard_of: RefCell::new(Vec::new()),
            topology: Cell::new(Duration::ZERO),
            actors: Cell::new(Duration::ZERO),
            wrapping: Cell::new(Duration::ZERO),
            fleet_ready: Cell::new(None),
        }
    }

    /// The set-up milestones, once the run has dispatched an event.
    pub fn setup(&self) -> Option<SetupSpans> {
        Some(SetupSpans {
            topology: self.topology.get(),
            actors: self.actors.get(),
            wrapping: self.wrapping.get(),
            fleet_ready: self.fleet_ready.get()?,
            first_event: *self.first_event.get()?,
        })
    }
}

impl Workload for Instrumented<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn topology(&self, seed: u64) -> Result<TopologyPlan, HarnessError> {
        let t0 = Instant::now();
        let plan = self.inner.topology(seed)?;
        self.topology.set(t0.elapsed());
        *self.shard_of.borrow_mut() = plan.map.assignment().to_vec();
        Ok(plan)
    }

    fn federation(&self) -> FederationSpec {
        self.inner.federation()
    }

    fn actors(&self, cx: &BuildCtx<'_>) -> Vec<(NodeId, Box<dyn Actor<OverlayMsg> + Send>)> {
        let t0 = Instant::now();
        let actors = self.inner.actors(cx);
        let t1 = Instant::now();
        self.actors.set(t1 - t0);
        let shard_of = self.shard_of.borrow();
        let first = actors
            .iter()
            .map(|(n, _)| n.index())
            .filter(|&i| shard_of[i] == 0)
            .min();
        let actors = actors
            .into_iter()
            .map(|(node, mut actor)| {
                let role = if cx.brokers.contains(&node) {
                    BROKER
                } else {
                    PEER
                };
                if let (Some(log), PEER) = (&self.joins, role) {
                    actor = Box::new(JoinClock {
                        inner: actor,
                        pending: None,
                        log: log.clone(),
                    });
                }
                if let Some(ledger) = &self.ledger {
                    actor = Box::new(TimedActor {
                        inner: actor,
                        ledger: ledger.clone(),
                        role,
                        first_event: self.first_event.clone(),
                    });
                } else if Some(node.index()) == first {
                    actor = Box::new(StartStamp {
                        inner: actor,
                        first_event: self.first_event.clone(),
                    });
                }
                (node, actor)
            })
            .collect();
        let ready = Instant::now();
        self.wrapping.set(ready - t1);
        self.fleet_ready.set(Some(ready));
        actors
    }

    fn series_schema(&self, interval: SimDuration) -> Result<TimeSeriesRecorder, TimeSeriesError> {
        self.inner.series_schema(interval)
    }

    fn summarize(&self, seed: u64, run: &HarnessRun) -> String {
        self.inner.summarize(seed, run)
    }
}

/// A selector whose `select` calls are timed into the ledger.
struct TimedSelector {
    inner: Box<dyn PeerSelector>,
    ledger: Arc<Ledger>,
}

impl PeerSelector for TimedSelector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Option<usize> {
        let t0 = Instant::now();
        let chosen = self.inner.select(req);
        self.ledger.selection.add(t0.elapsed());
        if chosen.is_none() {
            self.ledger.refused.fetch_add(1, Relaxed);
        }
        chosen
    }

    fn candidate_costs(&mut self, req: &SelectionRequest<'_>) -> Option<Vec<f64>> {
        self.inner.candidate_costs(req)
    }

    fn on_outcome(&mut self, outcome: &SelectionOutcome) {
        self.inner.on_outcome(outcome);
    }
}

/// Wraps a selection model's factory so each selector it makes is timed.
pub fn timed_factory(inner: SelectorFactory, ledger: Arc<Ledger>) -> SelectorFactory {
    Box::new(move |seed| {
        Box::new(TimedSelector {
            inner: inner(seed),
            ledger: ledger.clone(),
        })
    })
}
