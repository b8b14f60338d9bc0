//! Registry unit and property tests.

use super::*;
use crate::advertisement::DEFAULT_LIFETIME;
use crate::id::IdGenerator;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use std::collections::HashMap;

fn adv(ids: &mut IdGenerator, node: u32, name: &str, now: SimTime) -> PeerAdvertisement {
    PeerAdvertisement {
        peer: PeerId::generate(ids),
        node: NodeId(node),
        name: name.to_string(),
        cpu_gops: 1.0,
        accepts_tasks: true,
        published: now,
        lifetime: DEFAULT_LIFETIME,
    }
}

/// A gossiped view of `peer` claiming host `node`.
fn remote(peer: PeerId, node: u32, name: &str) -> CandidateView {
    CandidateView {
        peer,
        node: NodeId(node),
        name: name.into(),
        cpu_gops: 1.0,
        snapshot: StatsSnapshot::empty(1.0),
        history: InteractionHistory::empty(),
    }
}

#[test]
fn admit_then_expel_evicts_both_indices() {
    let mut ids = IdGenerator::new(1);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 1, "alpha", SimTime::ZERO);
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    assert_eq!(reg.peer_count(), 1);
    assert!(reg.has_peer(peer));
    assert_eq!(reg.peer_of(NodeId(1)), Some(peer));
    assert!(reg.expel(peer));
    assert_eq!(reg.peer_count(), 0);
    assert_eq!(reg.peer_of(NodeId(1)), None);
    assert!(!reg.expel(peer), "double eviction is a no-op");
}

#[test]
fn memory_footprint_tracks_population() {
    let mut ids = IdGenerator::new(11);
    let mut reg = PeerRegistry::new();
    let empty = reg.memory_footprint();
    assert_eq!(empty.total(), 0, "an empty registry costs nothing");

    let a = adv(&mut ids, 1, "alpha", SimTime::ZERO);
    let b = adv(&mut ids, 2, "beta", SimTime::ZERO);
    let peer_a = a.peer;
    reg.admit(a, SimTime::ZERO);
    reg.admit(b, SimTime::ZERO);
    let two = reg.memory_footprint();
    assert!(two.roster > 0, "entry slots and indexes are counted");
    assert!(two.stats > 0, "windowed-ratio rings are counted");
    assert!(two.ads > 0, "advertisement names are counted");
    assert_eq!(two.content, 0, "nothing published yet");
    assert!(two.total() > empty.total());

    // Eviction returns the slot to the free list: roster shrinks but
    // keeps the slab (the slot stays allocated, plus the free entry).
    reg.expel(peer_a);
    let one = reg.memory_footprint();
    assert!(one.total() < two.total(), "footprint follows the roster");
    assert!(one.roster > 0);
}

#[test]
fn readmission_keeps_the_original_entry() {
    // A duplicate Join (retransmission) must not reset accumulated
    // stats/history: `admit` refreshes identity fields only.
    let mut ids = IdGenerator::new(2);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 3, "beta", SimTime::ZERO);
    let peer = a.peer;
    reg.admit(a.clone(), SimTime::ZERO);
    reg.entry_mut(peer).unwrap().history.transfers_completed = 7;
    reg.admit(a, SimTime::ZERO + SimDuration::from_secs(9));
    assert_eq!(
        reg.entry_mut(peer).unwrap().history.transfers_completed,
        7,
        "re-join must not clear history"
    );
    assert_eq!(reg.peer_count(), 1);
}

#[test]
fn readmission_refreshes_advertisement_and_node_index() {
    // THE churn bug this PR fixes: a peer that left and rejoined from a
    // different host (new node, new capacity) must be re-indexed. The
    // old code's `or_insert_with` kept the stale entry, leaving a
    // dangling `by_node` key on the old host and stale `cpu_gops`.
    let mut ids = IdGenerator::new(7);
    let mut reg = PeerRegistry::new();
    let first = adv(&mut ids, 4, "gamma", SimTime::ZERO);
    let peer = first.peer;
    reg.admit(first, SimTime::ZERO);
    reg.entry_mut(peer).unwrap().history.transfers_completed = 3;

    let rejoin = PeerAdvertisement {
        peer,
        node: NodeId(9),
        name: "gamma-prime".to_string(),
        cpu_gops: 2.5,
        accepts_tasks: false,
        published: SimTime::ZERO + SimDuration::from_secs(60),
        lifetime: DEFAULT_LIFETIME,
    };
    reg.admit(rejoin, SimTime::ZERO + SimDuration::from_secs(60));
    reg.check_invariants();

    let entry = reg.entry(peer).unwrap();
    assert_eq!(entry.adv.node, NodeId(9), "advertisement refreshed");
    assert_eq!(entry.adv.cpu_gops, 2.5, "capacity refreshed");
    assert_eq!(entry.stats.cpu_gops, 2.5, "stats see the new capacity");
    assert_eq!(&*entry.name, "gamma-prime", "interned name refreshed");
    assert!(!entry.adv.accepts_tasks);
    assert_eq!(
        entry.history.transfers_completed, 3,
        "history survives the move"
    );
    assert_eq!(reg.peer_of(NodeId(9)), Some(peer), "new host indexed");
    assert_eq!(reg.peer_of(NodeId(4)), None, "old host unmapped");
    assert_eq!(reg.peer_count(), 1);
}

#[test]
fn admit_forgets_the_federation_rumor() {
    // Once a peer registers locally it must stop being served from the
    // remote roster, even if gossip advertised it first.
    let mut ids = IdGenerator::new(11);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 2, "delta", SimTime::ZERO);
    assert!(reg.learn_remote(&remote(a.peer, 2, "delta"), SimTime::ZERO));
    assert_eq!(reg.remote_count(), 1);
    reg.admit(a, SimTime::ZERO);
    reg.check_invariants();
    assert_eq!(reg.remote_count(), 0);
    assert_eq!(reg.candidate_views(SimTime::ZERO, 24, None).len(), 1);
}

#[test]
fn gossip_cannot_resurrect_a_departed_peer() {
    // The federation bug this PR fixes: a gossip snapshot taken before
    // a peer's departure used to re-enter the remote roster after the
    // local broker had already seen the Leave, so selection kept
    // offering a peer known to be gone.
    let mut ids = IdGenerator::new(21);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 6, "zeta", SimTime::ZERO);
    let peer = a.peer;
    let node = a.node;
    let view = remote(peer, node.0, "zeta");
    reg.admit(a, SimTime::ZERO);
    let t5 = SimTime::ZERO + SimDuration::from_secs(5);
    reg.expel(peer);
    reg.purge_remote(peer, node);
    reg.note_departed(peer, t5);
    reg.check_invariants();

    // A stale echo (snapshot taken at t=3 < departure at t=5) must be
    // rejected and leave the tombstone in place.
    let t3 = SimTime::ZERO + SimDuration::from_secs(3);
    assert!(!reg.learn_remote(&view, t3), "stale echo rejected");
    assert_eq!(reg.remote_count(), 0);
    assert!(reg.candidate_views(t5, 24, None).is_empty());
    reg.check_invariants();

    // A snapshot taken *after* the departure proves the peer rejoined
    // elsewhere: accepted, tombstone cleared.
    let t6 = SimTime::ZERO + SimDuration::from_secs(6);
    assert!(reg.learn_remote(&view, t6), "newer view clears tombstone");
    assert_eq!(reg.remote_count(), 1);
    reg.check_invariants();
}

#[test]
fn candidate_views_apply_the_staleness_window() {
    let mut ids = IdGenerator::new(23);
    let mut reg = PeerRegistry::new();
    let fresh = remote(PeerId::generate(&mut ids), 11, "fresh");
    let stale = remote(PeerId::generate(&mut ids), 12, "stale");
    let now = SimTime::ZERO + SimDuration::from_secs(300);
    assert!(reg.learn_remote(&fresh, now - SimDuration::from_secs(60)));
    assert!(reg.learn_remote(&stale, now - SimDuration::from_secs(250)));
    let bounded = reg.candidate_views(now, 24, Some(SimDuration::from_secs(120)));
    assert_eq!(bounded.len(), 1, "only the fresh view survives");
    assert_eq!(bounded[0].node, NodeId(11));
    let unbounded = reg.candidate_views(now, 24, None);
    assert_eq!(unbounded.len(), 2, "no bound, no filtering");
}

#[test]
fn broker_heartbeats_drive_liveness() {
    let mut reg = PeerRegistry::new();
    let now = SimTime::ZERO + SimDuration::from_secs(500);
    let bound = SimDuration::from_secs(120);
    assert!(
        reg.broker_alive(NodeId(1), now, bound),
        "never-heard brokers are presumed alive"
    );
    reg.note_broker_alive(NodeId(1), now - SimDuration::from_secs(60));
    assert!(reg.broker_alive(NodeId(1), now, bound));
    reg.note_broker_alive(NodeId(2), now - SimDuration::from_secs(200));
    assert!(!reg.broker_alive(NodeId(2), now, bound), "silent too long");
}

#[test]
fn expelled_slots_are_recycled() {
    // Churn must not grow the slab: N sequential join/leave cycles
    // keep capacity at the concurrent-population high-water mark.
    let mut ids = IdGenerator::new(5);
    let mut reg = PeerRegistry::new();
    for round in 0..100 {
        let a = adv(&mut ids, round % 3, "cycled", SimTime::ZERO);
        let peer = a.peer;
        reg.admit(a, SimTime::ZERO);
        reg.check_invariants();
        reg.expel(peer);
        reg.check_invariants();
    }
    assert_eq!(reg.peer_count(), 0);
    assert_eq!(reg.slab_capacity(), 1, "slots recycled, slab stayed flat");
}

#[test]
fn candidate_views_sorted_and_federation_merged() {
    let mut ids = IdGenerator::new(3);
    let mut reg = PeerRegistry::new();
    reg.admit(adv(&mut ids, 5, "e", SimTime::ZERO), SimTime::ZERO);
    reg.admit(adv(&mut ids, 2, "b", SimTime::ZERO), SimTime::ZERO);
    // A remote peer on an unregistered node is merged…
    assert!(reg.learn_remote(
        &remote(PeerId::generate(&mut ids), 9, "remote"),
        SimTime::ZERO
    ));
    // …but one shadowing a registered node is not.
    let shadow = remote(PeerId::generate(&mut ids), 5, "remote");
    assert!(!reg.learn_remote(&shadow, SimTime::ZERO));
    let views = reg.candidate_views(SimTime::ZERO, 24, None);
    let nodes: Vec<u32> = views.iter().map(|v| v.node.0).collect();
    assert_eq!(nodes, vec![2, 5, 9], "sorted by node, shadow dropped");
}

#[test]
fn reported_snapshot_overrides_queue_gauges() {
    let mut ids = IdGenerator::new(4);
    let mut reg = PeerRegistry::new();
    let a = adv(&mut ids, 1, "g", SimTime::ZERO);
    let peer = a.peer;
    reg.admit(a, SimTime::ZERO);
    let mut reported = StatsSnapshot::empty(1.0);
    reported.inbox_now = 11.0;
    reported.outbox_avg = 2.5;
    reg.entry_mut(peer).unwrap().reported = Some(reported);
    let views = reg.candidate_views(SimTime::ZERO, 24, None);
    assert_eq!(views[0].snapshot.inbox_now, 11.0);
    assert_eq!(views[0].snapshot.outbox_avg, 2.5);
}

/// Reference model of the remote roster's semantics without the host
/// index: a plain map of views purged by a full `retain` scan, plus the
/// departure tombstones. Local membership comes from the caller.
#[derive(Default)]
struct RemoteModel {
    views: HashMap<PeerId, (CandidateView, SimTime)>,
    departed: HashMap<PeerId, SimTime>,
}

impl RemoteModel {
    fn learn(&mut self, view: &CandidateView, as_of: SimTime, shadowed: bool) -> bool {
        if shadowed {
            return false;
        }
        if let Some(&left_at) = self.departed.get(&view.peer) {
            if as_of <= left_at {
                return false;
            }
            self.departed.remove(&view.peer);
        }
        self.views.insert(view.peer, (view.clone(), as_of));
        true
    }

    fn admit(&mut self, peer: PeerId) {
        self.views.remove(&peer);
        self.departed.remove(&peer);
    }

    fn purge(&mut self, peer: PeerId, node: NodeId) {
        self.views.remove(&peer);
        self.views.retain(|_, (view, _)| view.node != node);
    }

    /// `(node, peer, name)` of every candidate: the members plus the
    /// remote views on unoccupied hosts inside the staleness window,
    /// sorted by `(node, peer)`.
    fn candidates(
        &self,
        members: &[(NodeId, PeerId, Arc<str>)],
        now: SimTime,
        staleness: Option<SimDuration>,
    ) -> Vec<(NodeId, PeerId, Arc<str>)> {
        let mut all = members.to_vec();
        for (view, as_of) in self.views.values() {
            let shadowed = members.iter().any(|m| m.0 == view.node);
            let stale = staleness.is_some_and(|bound| now - *as_of > bound);
            if !shadowed && !stale {
                all.push((view.node, view.peer, view.name.clone()));
            }
        }
        all.sort_by_key(|c| (c.0, c.1));
        all
    }
}

fn served(
    reg: &PeerRegistry,
    now: SimTime,
    staleness: Option<SimDuration>,
) -> Vec<(NodeId, PeerId, Arc<str>)> {
    reg.candidate_views(now, 24, staleness)
        .into_iter()
        .map(|v| (v.node, v.peer, v.name))
        .collect()
}

#[test]
fn candidate_order_ignores_remote_arrival_order() {
    // Two remote views claiming one host: whichever arrives first, the
    // registry serves them in the same `(node, peer)` order.
    let mut ids = IdGenerator::new(31);
    let a = remote(PeerId::generate(&mut ids), 7, "a");
    let b = remote(PeerId::generate(&mut ids), 7, "b");
    let learn = |first: &CandidateView, second: &CandidateView| {
        let mut reg = PeerRegistry::new();
        assert!(reg.learn_remote(first, SimTime::ZERO));
        assert!(reg.learn_remote(second, SimTime::ZERO));
        reg.check_invariants();
        reg.candidate_views(SimTime::ZERO, 24, None)
    };
    let ab = learn(&a, &b);
    assert_eq!(ab.len(), 2);
    assert_eq!(ab, learn(&b, &a));
}

#[test]
fn purge_drops_exactly_the_claimants_of_the_host() {
    let mut ids = IdGenerator::new(37);
    let mut reg = PeerRegistry::new();
    let [w, x, y, z] = [(); 4].map(|_| PeerId::generate(&mut ids));
    assert!(reg.learn_remote(&remote(x, 4, "x"), SimTime::ZERO));
    assert!(reg.learn_remote(&remote(y, 4, "y"), SimTime::ZERO));
    assert!(reg.learn_remote(&remote(w, 4, "w"), SimTime::ZERO));
    assert!(reg.learn_remote(&remote(z, 5, "z"), SimTime::ZERO));
    // x moves to host 6: its claim on host 4 goes with it.
    assert!(reg.learn_remote(&remote(x, 6, "x"), SimTime::ZERO));
    reg.check_invariants();
    reg.purge_remote(PeerId(0), NodeId(4));
    reg.check_invariants();
    let left: Vec<PeerId> = reg
        .candidate_views(SimTime::ZERO, 24, None)
        .iter()
        .map(|v| v.peer)
        .collect();
    assert_eq!(
        left,
        vec![z, x],
        "w and y purged with host 4; x and z survive"
    );
}

#[test]
fn random_churn_preserves_registry_invariants() {
    // Property test: a long random interleaving of join / leave /
    // rejoin-elsewhere must keep the slab index, the peers↔by_node
    // bijection, and every advertisement field coherent. Before the
    // admit-refresh fix this trips within a handful of steps. After
    // every step the served candidates must equal the reference model's,
    // with and without a staleness window.
    let mut rng = SimRng::new(0xC0FF_EE07);
    // A second stream picks the shared hosts below, so the original
    // interleaving of joins, leaves and gossip stays what it always was.
    let mut claim_rng = SimRng::new(0x7135_0DE5);
    const SHARED_HOSTS: u64 = 6;
    let mut ids = IdGenerator::new(6);
    let mut reg = PeerRegistry::new();
    let mut model = RemoteModel::default();
    // Pool of identities that join, leave, and rejoin from new hosts.
    let mut pool: Vec<PeerAdvertisement> = (0..24)
        .map(|i| adv(&mut ids, 1000 + i, &format!("p{i}"), SimTime::ZERO))
        .collect();
    let mut member = vec![false; pool.len()];
    for step in 0..6000u64 {
        let now = SimTime::from_secs_f64(step as f64);
        let i = rng.below(pool.len() as u64) as usize;
        match rng.below(4) {
            0 | 1 => {
                // (Re)join, usually from a brand-new host with fresh
                // capacity — the churn case that used to dangle.
                if rng.bernoulli(0.8) {
                    pool[i].node = NodeId(2000 + rng.below(4000) as u32);
                    // Now and then onto one of the two shared hosts that
                    // gossip also claims, so a later leave purges a host
                    // with several claimants.
                    if claim_rng.bernoulli(0.5) {
                        pool[i].node = NodeId(9000 + claim_rng.below(SHARED_HOSTS) as u32);
                    }
                    pool[i].cpu_gops = 0.5 + rng.uniform() * 4.0;
                    pool[i].name = format!("p{i}@{}", pool[i].node.0);
                }
                pool[i].published = now;
                reg.admit(pool[i].clone(), now);
                model.admit(pool[i].peer);
                // Landing on an occupied host displaces its occupant.
                for j in 0..pool.len() {
                    if j != i && member[j] && pool[j].node == pool[i].node {
                        member[j] = false;
                    }
                }
                member[i] = true;
            }
            2 => {
                assert_eq!(reg.expel(pool[i].peer), member[i]);
                if member[i] {
                    // The broker's Leave path: purge + tombstone.
                    reg.purge_remote(pool[i].peer, pool[i].node);
                    reg.note_departed(pool[i].peer, now);
                    model.purge(pool[i].peer, pool[i].node);
                    model.departed.insert(pool[i].peer, now);
                }
                member[i] = false;
            }
            _ => {
                // Gossip about a random identity; the registry must
                // never let a rumor shadow or outlive membership. The
                // snapshot age varies so tombstones both hold and clear.
                let j = rng.below(pool.len() as u64) as usize;
                let as_of = now - SimDuration::from_secs(rng.below(20));
                // Mostly its own host; sometimes another identity's
                // (possibly vacated) host or one of two shared hosts,
                // so several views claim one host and purges hit many.
                let node = match claim_rng.below(4) {
                    0 => pool[j].node,
                    1 => pool[claim_rng.below(pool.len() as u64) as usize].node,
                    _ => NodeId(9000 + claim_rng.below(SHARED_HOSTS) as u32),
                };
                let view = CandidateView {
                    peer: pool[j].peer,
                    node,
                    name: Arc::from(pool[j].name.as_str()),
                    cpu_gops: pool[j].cpu_gops,
                    snapshot: StatsSnapshot::empty(pool[j].cpu_gops),
                    history: InteractionHistory::empty(),
                };
                let shadowed =
                    member[j] || (0..pool.len()).any(|k| member[k] && pool[k].node == node);
                assert_eq!(
                    reg.learn_remote(&view, as_of),
                    model.learn(&view, as_of, shadowed),
                    "admission agrees with the model at step {step}"
                );
                if member[j] {
                    reg.purge_remote(pool[j].peer, pool[j].node);
                    model.purge(pool[j].peer, pool[j].node);
                }
            }
        }
        reg.check_invariants();
        let members: Vec<(NodeId, PeerId, Arc<str>)> = (0..pool.len())
            .filter(|&k| member[k])
            .map(|k| (pool[k].node, pool[k].peer, Arc::from(pool[k].name.as_str())))
            .collect();
        for staleness in [None, Some(SimDuration::from_secs(10))] {
            assert_eq!(
                served(&reg, now, staleness),
                model.candidates(&members, now, staleness),
                "served candidates diverge from the model at step {step}"
            );
        }
        // No stale advertisement fields: what the registry serves for a
        // member is exactly the latest thing that member advertised.
        if member[i] {
            let entry = reg.entry(pool[i].peer).unwrap();
            assert_eq!(entry.adv.node, pool[i].node);
            assert_eq!(entry.adv.cpu_gops, pool[i].cpu_gops);
            assert_eq!(&*entry.name, pool[i].name.as_str());
        }
    }
    assert!(
        reg.slab_capacity() <= pool.len(),
        "slab bounded by concurrent population ({} > {})",
        reg.slab_capacity(),
        pool.len()
    );
}
