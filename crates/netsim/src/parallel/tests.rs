use super::*;
use crate::engine::{Context, ServiceClass};
use crate::link::{AccessLink, PathSpec};
use crate::node::NodeSpec;
use crate::timeseries::{SeriesMode, SeriesSource};

#[derive(Debug, Clone)]
struct Token(u32);

impl Payload for Token {
    fn wire_size(&self) -> u64 {
        128
    }
    fn kind(&self) -> &'static str {
        "token"
    }
    fn service_class(&self) -> ServiceClass {
        ServiceClass::Fast
    }
}

/// Bounces a token around a fixed itinerary of nodes.
struct Bouncer {
    itinerary: Vec<NodeId>,
    hops: u32,
    kick_off: bool,
}

impl Actor<Token> for Bouncer {
    fn on_start(&mut self, ctx: &mut Context<Token>) {
        if self.kick_off {
            ctx.send(self.itinerary[0], Token(0));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<Token>, _from: NodeId, msg: Token) {
        if msg.0 < self.hops {
            let next = self.itinerary[(msg.0 as usize) % self.itinerary.len()];
            ctx.send(next, Token(msg.0 + 1));
        }
    }
}

/// Two regions of three nodes: 2 ms inside a region, 40 ms across, each
/// path with `jitter` (a fraction of its delay) drawn from the engine seed.
fn two_region_topo(jitter: f64) -> Topology {
    let mut t = Topology::new();
    for i in 0..6 {
        t.add_node(NodeSpec::responsive(format!("n{i}")), AccessLink::default());
    }
    for a in 0..6u32 {
        for b in 0..6u32 {
            if a == b {
                continue;
            }
            let ms = if (a < 3) == (b < 3) { 2.0 } else { 40.0 };
            t.set_path(NodeId(a), NodeId(b), PathSpec::from_owd_ms(ms, jitter));
        }
    }
    t
}

fn build(workers: usize) -> ShardedEngine<Token> {
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).unwrap();
    let mut e = ShardedEngine::new(
        two_region_topo(0.0),
        TransportConfig::default(),
        42,
        map,
        workers,
    )
    .unwrap();
    let all: Vec<NodeId> = (0..6).map(NodeId).collect();
    for (i, &node) in all.iter().enumerate() {
        // Every token hop moves to a pseudo-random next node, with
        // plenty of cross-region (= cross-shard) traffic.
        let itinerary: Vec<NodeId> = (0..6).map(|j| NodeId((j * 5 + 1) % 6)).collect();
        e.register(
            node,
            Box::new(Bouncer {
                itinerary,
                hops: 40,
                kick_off: i < 2,
            }),
        );
    }
    e.enable_trace(4096);
    e
}

#[test]
fn sharded_run_is_worker_count_invariant() {
    let horizon = SimTime::from_secs_f64(30.0);
    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut e = build(workers);
        let outcome = e.run_until(horizon);
        runs.push((
            workers,
            outcome,
            e.trace().digest(),
            e.trace().to_jsonl(),
            e.metrics().render(),
            e.now(),
            e.events_processed(),
        ));
    }
    let (_, o1, d1, j1, m1, t1, n1) = &runs[0];
    for (w, o, d, j, m, t, n) in &runs[1..] {
        assert_eq!(o, o1, "outcome differs at {w} workers");
        assert_eq!(d, d1, "trace digest differs at {w} workers");
        assert_eq!(j, j1, "trace JSONL differs at {w} workers");
        assert_eq!(m, m1, "metrics differ at {w} workers");
        assert_eq!(t, t1, "final clock differs at {w} workers");
        assert_eq!(n, n1, "event count differs at {w} workers");
    }
    assert!(*n1 > 0, "the workload must actually run");
}

#[test]
fn cross_shard_messages_are_delivered_and_counted() {
    let mut e = build(1);
    e.run_until(SimTime::from_secs_f64(30.0));
    let m = e.metrics();
    assert!(m.counter("net.messages_sent") > 0);
    assert_eq!(
        m.counter("net.messages_delivered") + m.counter("net.messages_dropped_no_actor"),
        m.counter("net.messages_sent"),
        "every sent message is accounted for across shards"
    );
}

#[test]
fn zero_cross_shard_traffic_still_terminates() {
    // Tokens bounce strictly inside each region: outboxes stay empty,
    // windows are pure clock advancement.
    let map = ShardMap::from_assignment(vec![0, 0, 0, 1, 1, 1]).unwrap();
    let mut e =
        ShardedEngine::new(two_region_topo(0.0), TransportConfig::default(), 7, map, 2).unwrap();
    for region in 0..2u32 {
        let local: Vec<NodeId> = (0..3).map(|j| NodeId(region * 3 + j)).collect();
        for (i, &node) in local.iter().enumerate() {
            e.register(
                node,
                Box::new(Bouncer {
                    itinerary: local.clone(),
                    hops: 10,
                    kick_off: i == 0,
                }),
            );
        }
    }
    // Both regions finish their 10 hops, outboxes stay empty, and the
    // barrier loop notices the drained queues instead of spinning on
    // clock-advance windows forever.
    let outcome = e.run_until(SimTime::from_secs_f64(10.0));
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    assert!(e.events_processed() > 0);
    // 1 kick-off + 10 forwarded hops per region, two regions.
    assert_eq!(e.metrics().counter("net.messages_delivered"), 22);
}

#[test]
fn single_shard_degenerate_matches_serial_engine() {
    // One shard is the serial engine: the lone shard takes the raw seed,
    // its recorder samples per event, and metrics/trace are its own — so
    // the history, the metrics and the series all match a plain Engine
    // built with the same seed. Jittered paths make the history seed-bound.
    let topo = two_region_topo(0.5);
    let map = ShardMap::single(topo.len());
    let mut sharded =
        ShardedEngine::new(topo.clone(), TransportConfig::default(), 9, map, 1).unwrap();
    let mut serial = Engine::new(topo, TransportConfig::default(), 9);
    let itinerary: Vec<NodeId> = (0..6).map(|j| NodeId((j * 5 + 1) % 6)).collect();
    for (i, node) in (0..6).map(NodeId).enumerate() {
        let make = || Bouncer {
            itinerary: itinerary.clone(),
            hops: 25,
            kick_off: i == 0,
        };
        sharded.register(node, Box::new(make()));
        serial.register(node, Box::new(make()));
    }
    sharded.enable_trace(4096);
    serial.enable_trace(4096);
    let recorder = || {
        let mut rec = TimeSeriesRecorder::new(SimDuration::from_millis(250)).unwrap();
        let delivered = SeriesSource::Counter("net.messages_delivered".into());
        rec.register("delivered", delivered, SeriesMode::Delta);
        rec
    };
    sharded.install_recorder(recorder());
    serial.install_recorder(recorder());
    let horizon = SimTime::from_secs_f64(20.0);
    let a = sharded.run_until(horizon);
    let b = serial.run_until(horizon);
    assert_eq!(a, b);
    assert_eq!(sharded.trace().to_jsonl(), serial.trace().to_jsonl());
    assert_eq!(sharded.metrics().render(), serial.metrics().render());
    let (a, b) = (
        sharded.take_recorder().unwrap(),
        serial.take_recorder().unwrap(),
    );
    assert!(a.len() > 2, "the series must span several windows");
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn zero_lookahead_is_rejected() {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::responsive("a"), AccessLink::default());
    let b = t.add_node(NodeSpec::responsive("b"), AccessLink::default());
    t.set_path_symmetric(a, b, PathSpec::from_owd_ms(0.0, 0.0));
    let map = ShardMap::from_assignment(vec![0, 1]).unwrap();
    let err = ShardedEngine::<Token>::new(t, TransportConfig::default(), 1, map, 2)
        .err()
        .expect("zero-delay cross links must be rejected");
    assert_eq!(err, ParallelError::ZeroLookahead);
}

#[test]
fn map_size_mismatch_is_rejected() {
    let t = two_region_topo(0.0);
    let map = ShardMap::from_assignment(vec![0, 1]).unwrap();
    let err = ShardedEngine::<Token>::new(t, TransportConfig::default(), 1, map, 2)
        .err()
        .expect("undersized shard map must be rejected");
    assert_eq!(
        err,
        ParallelError::MapSizeMismatch {
            map: 2,
            topology: 6
        }
    );
}

#[test]
fn profile_accounts_busy_and_critical_path() {
    let mut e = build(2);
    e.run_until(SimTime::from_secs_f64(30.0));
    let p = e.profile();
    assert!(p.rounds > 0, "multi-shard run must take barrier rounds");
    assert!(p.busy >= p.critical_path);
    assert!(p.critical_path > Duration::ZERO);
}
