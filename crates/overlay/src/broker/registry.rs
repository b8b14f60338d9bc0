//! The peer registry: who is in the overlay and what the broker knows
//! about each member.
//!
//! [`PeerRegistry`] owns the peer entries (advertisement, broker-side
//! statistics, peer-reported snapshot, observed interaction history), the
//! published-content index, the federation roster learnt from fellow
//! brokers, and an interned host-name cache so hot paths never re-allocate
//! display names. The membership/discovery/statistics message handlers
//! live here as `impl Broker` blocks; the actor merely dispatches to them.
//!
//! Storage is a **slab**: entries live in one contiguous `Vec`, freed slots
//! are recycled LIFO, and a `PeerId → slot` index provides O(1) lookup.
//! Under churn a million-peer roster therefore occupies memory proportional
//! to the *concurrent* population, not the total number of joins, and the
//! entries stay cache-adjacent for the roster-snapshot scan that selection
//! takes on every petition.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::advertisement::{ContentAdvertisement, PeerAdvertisement};
use crate::footprint::{map_estimate, slots_estimate, FootprintBreakdown, MemoryFootprint};
use crate::id::{IdMap, PeerId};
use crate::message::OverlayMsg;
use crate::selector::{CandidateView, InteractionHistory};
use crate::stats::{PeerStats, StatsSnapshot};

use super::counters::FootprintGauges;
use super::Broker;

/// Everything the broker tracks about one registered peer.
pub(crate) struct PeerEntry {
    pub(crate) adv: PeerAdvertisement,
    /// The advertised hostname, interned once at admission so per-selection
    /// roster snapshots clone a refcount instead of a string buffer.
    pub(crate) name: Arc<str>,
    pub(crate) stats: PeerStats,
    pub(crate) reported: Option<StatsSnapshot>,
    pub(crate) history: InteractionHistory,
}

/// One published copy of a piece of content.
#[derive(Debug, Clone)]
pub(crate) struct Holding {
    pub(crate) peer: PeerId,
    pub(crate) node: NodeId,
    pub(crate) content: crate::id::ContentId,
    pub(crate) size: u64,
    pub(crate) adv: ContentAdvertisement,
}

/// A gossiped candidate plus the virtual time its sending broker took
/// the snapshot, so selection can apply a staleness window.
pub(crate) struct RemoteView {
    pub(crate) view: CandidateView,
    pub(crate) as_of: SimTime,
}

/// The membership layer: registered peers, their statistics, published
/// content, and the federation roster.
#[derive(Default)]
pub(crate) struct PeerRegistry {
    /// Entry slab; `None` marks a recyclable slot left by an eviction.
    entries: Vec<Option<PeerEntry>>,
    /// Free slot indices, reused LIFO so churn does not grow the slab.
    free: Vec<u32>,
    /// Registered peer → slab slot.
    index: IdMap<PeerId, u32>,
    by_node: IdMap<NodeId, PeerId>,
    /// Candidate views learnt from fellow brokers, keyed by peer.
    remote_peers: IdMap<PeerId, RemoteView>,
    /// Host → the remote peers whose views claim it, kept in step with
    /// `remote_peers` so a departure purges exactly its host's claimants.
    remote_by_node: IdMap<NodeId, Vec<PeerId>>,
    /// Departure tombstones: peers this broker saw leave, and when. A
    /// gossiped view older than the tombstone is a stale echo and must
    /// not resurrect the peer; a newer one proves it rejoined elsewhere
    /// and clears the tombstone.
    departed: IdMap<PeerId, SimTime>,
    /// Last time each fellow broker was heard from (gossip or forwarded
    /// petitions): the heartbeat table failover liveness reads.
    broker_heartbeats: IdMap<NodeId, SimTime>,
    /// Published content by name → holders.
    content: HashMap<String, Vec<Holding>>,
    /// Interned display names by host, so record keeping on the transfer
    /// and task hot paths clones an `Arc` instead of allocating a String.
    names: IdMap<NodeId, Arc<str>>,
}

impl PeerRegistry {
    pub(crate) fn new() -> Self {
        PeerRegistry::default()
    }

    /// Number of registered peers.
    pub(crate) fn peer_count(&self) -> usize {
        self.index.len()
    }

    /// Capacity of the entry slab (occupied + recyclable slots). Bounded
    /// by the high-water mark of concurrent peers, not by total joins.
    #[cfg(test)]
    pub(crate) fn slab_capacity(&self) -> usize {
        self.entries.len()
    }

    /// Whether any peer is registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `peer` is a registered member.
    pub(crate) fn has_peer(&self, peer: PeerId) -> bool {
        self.index.contains_key(&peer)
    }

    /// The registered peer living on `node`, if any.
    pub(crate) fn peer_of(&self, node: NodeId) -> Option<PeerId> {
        self.by_node.get(&node).copied()
    }

    /// Shared access to a registered peer's entry.
    pub(crate) fn entry(&self, peer: PeerId) -> Option<&PeerEntry> {
        self.index
            .get(&peer)
            .and_then(|&slot| self.entries[slot as usize].as_ref())
    }

    /// Mutable access to a registered peer's entry.
    pub(crate) fn entry_mut(&mut self, peer: PeerId) -> Option<&mut PeerEntry> {
        let slot = *self.index.get(&peer)?;
        self.entries[slot as usize].as_mut()
    }

    /// All occupied entries, in slab order (deterministic: slot assignment
    /// is a pure function of the join/leave event order).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &PeerEntry> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }

    /// The host of a registered peer.
    pub(crate) fn node_of(&self, peer: PeerId) -> Option<NodeId> {
        self.entry(peer).map(|e| e.adv.node)
    }

    /// The interned display name of `node`, allocated at most once per host.
    pub(crate) fn display_name(&mut self, ctx: &Context<OverlayMsg>, node: NodeId) -> Arc<str> {
        self.names
            .entry(node)
            .or_insert_with(|| Arc::from(ctx.node_name(node)))
            .clone()
    }

    /// Admits (or refreshes) a peer from its advertisement.
    ///
    /// A re-join **refreshes** the stored advertisement, interned name,
    /// `cpu_gops`, and the node index (unmapping the old host when the
    /// peer moved) while preserving accumulated statistics, the last
    /// reported snapshot, and interaction history — at the registry level
    /// a rejoin is indistinguishable from a duplicate-Join retransmission,
    /// so identity must survive. The peer also stops being a federation
    /// rumor: it is now first-hand knowledge.
    pub(crate) fn admit(&mut self, adv: PeerAdvertisement, now: SimTime) {
        let peer = adv.peer;
        let cpu = adv.cpu_gops;
        self.forget_remote(peer);
        // First-hand readmission beats any departure we recorded earlier.
        self.departed.remove(&peer);
        // A host runs one peer: a Join from a node that already carries a
        // *different* identity supersedes the old occupant (crash-rejoin
        // without a Leave), keeping by_node a bijection.
        if let Some(&prev) = self.by_node.get(&adv.node) {
            if prev != peer {
                self.expel(prev);
            }
        }
        if let Some(&slot) = self.index.get(&peer) {
            let old_node = self.entries[slot as usize]
                .as_ref()
                .expect("indexed slot occupied")
                .adv
                .node;
            if old_node != adv.node && self.by_node.get(&old_node) == Some(&peer) {
                self.by_node.remove(&old_node);
            }
            self.by_node.insert(adv.node, peer);
            let entry = self.entries[slot as usize].as_mut().expect("occupied");
            if &*entry.name != adv.name.as_str() {
                entry.name = Arc::from(adv.name.as_str());
            }
            entry.adv = adv;
            entry.stats.cpu_gops = cpu;
            return;
        }
        self.by_node.insert(adv.node, peer);
        let entry = PeerEntry {
            name: Arc::from(adv.name.as_str()),
            adv,
            stats: PeerStats::new(now, cpu),
            reported: None,
            history: InteractionHistory::empty(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                (self.entries.len() - 1) as u32
            }
        };
        self.index.insert(peer, slot);
    }

    /// Evicts a peer (voluntary leave), forgetting its entry and node
    /// mapping and recycling its slab slot. Content holdings are filtered
    /// lazily at discovery/serve time via [`PeerRegistry::has_peer`].
    pub(crate) fn expel(&mut self, peer: PeerId) -> bool {
        let Some(slot) = self.index.remove(&peer) else {
            return false;
        };
        let entry = self.entries[slot as usize].take().expect("indexed slot");
        if self.by_node.get(&entry.adv.node) == Some(&peer) {
            self.by_node.remove(&entry.adv.node);
        }
        self.free.push(slot);
        true
    }

    /// Records a federation-learnt candidate view taken at `as_of`,
    /// unless it concerns a peer already registered here, would shadow a
    /// host that has a locally-registered peer (never trust a relay over
    /// first-hand knowledge), or is a stale echo of a peer this broker
    /// already saw depart. A view *newer* than the departure tombstone
    /// proves the peer rejoined elsewhere and clears it. Returns whether
    /// the view was stored; only a stored view is copied.
    pub(crate) fn learn_remote(&mut self, view: &CandidateView, as_of: SimTime) -> bool {
        if self.index.contains_key(&view.peer) || self.by_node.contains_key(&view.node) {
            return false;
        }
        if let Some(&left_at) = self.departed.get(&view.peer) {
            if as_of <= left_at {
                return false;
            }
            self.departed.remove(&view.peer);
        }
        let (peer, node) = (view.peer, view.node);
        let stored = RemoteView {
            view: view.clone(),
            as_of,
        };
        match self.remote_peers.insert(peer, stored) {
            Some(old) if old.view.node == node => {}
            Some(old) => {
                self.unclaim(old.view.node, peer);
                self.claim(node, peer);
            }
            None => self.claim(node, peer),
        }
        true
    }

    /// Adds `peer` to the claimants of `node`. Most hosts have exactly one
    /// claimant, so a new host's list is allocated at capacity one.
    fn claim(&mut self, node: NodeId, peer: PeerId) {
        match self.remote_by_node.entry(node) {
            Entry::Occupied(mut claims) => claims.get_mut().push(peer),
            Entry::Vacant(slot) => {
                slot.insert(vec![peer]);
            }
        }
    }

    /// Drops `peer`'s remote view, if any, and its claim on its host.
    fn forget_remote(&mut self, peer: PeerId) {
        if let Some(old) = self.remote_peers.remove(&peer) {
            self.unclaim(old.view.node, peer);
        }
    }

    /// Removes `peer` from the claimants of `node`.
    fn unclaim(&mut self, node: NodeId, peer: PeerId) {
        let claims = self
            .remote_by_node
            .get_mut(&node)
            .expect("a stored remote view claims its host");
        let at = claims
            .iter()
            .position(|&p| p == peer)
            .expect("a stored remote view is among its host's claimants");
        claims.swap_remove(at);
        if claims.is_empty() {
            self.remote_by_node.remove(&node);
        }
    }

    /// Records that `peer` left this broker at `now`, so later gossip
    /// snapshots taken before the departure cannot resurrect it.
    pub(crate) fn note_departed(&mut self, peer: PeerId, now: SimTime) {
        self.departed.insert(peer, now);
    }

    /// Records that fellow broker `node` was heard from at `now`.
    pub(crate) fn note_broker_alive(&mut self, node: NodeId, now: SimTime) {
        self.broker_heartbeats.insert(node, now);
    }

    /// Heartbeat liveness: a fellow broker is presumed alive until it has
    /// been silent longer than `bound`. Never-heard brokers are presumed
    /// alive (the federation may simply not have gossiped yet).
    pub(crate) fn broker_alive(&self, node: NodeId, now: SimTime, bound: SimDuration) -> bool {
        match self.broker_heartbeats.get(&node) {
            Some(&heard) => now - heard <= bound,
            None => true,
        }
    }

    /// Forgets every federation view of `peer` and of anything claiming to
    /// live on `node` (a departed peer must not survive as a rumor). Costs
    /// O(claims on `node`): the host index names exactly the doomed views.
    pub(crate) fn purge_remote(&mut self, peer: PeerId, node: NodeId) {
        self.forget_remote(peer);
        for claimant in self.remote_by_node.remove(&node).unwrap_or_default() {
            self.remote_peers.remove(&claimant);
        }
    }

    /// Number of federation-learnt (non-local) candidate views.
    #[cfg(test)]
    pub(crate) fn remote_count(&self) -> usize {
        self.remote_peers.len()
    }

    /// All registered hosts, in deterministic order.
    pub(crate) fn registered_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.by_node.keys().copied().collect();
        nodes.sort(); // deterministic order
        nodes
    }

    /// The published holdings of `name`, if any.
    pub(crate) fn holdings(&self, name: &str) -> Option<&Vec<Holding>> {
        self.content.get(name)
    }

    /// Records a published copy. A peer that publishes a name it already
    /// holds (every rejoin republishes) refreshes its holding in place, so
    /// discovery and owner selection see each (peer, name) once.
    pub(crate) fn publish(&mut self, holding: Holding) {
        let holdings = self.content.entry(holding.adv.name.clone()).or_default();
        match holdings.iter_mut().find(|h| h.peer == holding.peer) {
            Some(held) => *held = holding,
            None => holdings.push(holding),
        }
    }

    /// Published content whose name contains `pattern`.
    pub(crate) fn matching_holdings<'a>(
        &'a self,
        pattern: &'a str,
    ) -> impl Iterator<Item = &'a Holding> + 'a {
        self.content
            .iter()
            .filter(move |(name, _)| name.contains(pattern))
            .flat_map(|(_, holdings)| holdings.iter())
    }

    /// The candidate view of one registered peer: broker-side stats, with
    /// queue gauges overridden by the peer's own latest report when
    /// available.
    fn local_view(entry: &PeerEntry, now: SimTime, stats_k_hours: usize) -> CandidateView {
        let mut snapshot = entry.stats.snapshot(now, stats_k_hours);
        if let Some(reported) = &entry.reported {
            snapshot.inbox_now = reported.inbox_now;
            snapshot.inbox_avg = reported.inbox_avg;
            snapshot.outbox_now = reported.outbox_now;
            snapshot.outbox_avg = reported.outbox_avg;
        }
        CandidateView {
            peer: entry.adv.peer,
            node: entry.adv.node,
            name: entry.name.clone(),
            cpu_gops: entry.adv.cpu_gops,
            snapshot,
            history: entry.history.clone(),
        }
    }

    /// Views of the locally registered peers only, sorted by node (hosts
    /// are unique among registered peers): what one gossip round sends,
    /// built straight into the allocation every fellow broker's message
    /// shares.
    pub(crate) fn local_views(&self, now: SimTime, stats_k_hours: usize) -> Arc<[CandidateView]> {
        let mut local: Vec<&PeerEntry> = self.entries().collect();
        local.sort_unstable_by_key(|entry| entry.adv.node);
        local
            .into_iter()
            .map(|entry| Self::local_view(entry, now, stats_k_hours))
            .collect()
    }

    /// Snapshot of every known candidate (registered + federation-learnt),
    /// sorted by `(node, peer)`, so the order never depends on map
    /// iteration even when two remote views claim one host. When
    /// `staleness` is set, gossiped views older than that bound are left
    /// out: the stale-stat tolerance window of the federation design.
    pub(crate) fn candidate_views(
        &self,
        now: SimTime,
        stats_k_hours: usize,
        staleness: Option<SimDuration>,
    ) -> Vec<CandidateView> {
        let mut views: Vec<CandidateView> = self
            .entries()
            .map(|entry| Self::local_view(entry, now, stats_k_hours))
            .collect();
        // Merge federation-learnt peers that are not locally registered
        // and whose gossip snapshot is inside the staleness window.
        for remote in self.remote_peers.values() {
            if self.by_node.contains_key(&remote.view.node) {
                continue;
            }
            if let Some(bound) = staleness {
                if now - remote.as_of > bound {
                    continue;
                }
            }
            views.push(remote.view.clone());
        }
        views.sort_unstable_by_key(|v| (v.node, v.peer));
        views
    }

    /// Structural invariants, checked by tests after every mutation:
    /// index↔slab agreement, peers↔by_node bijection, slot accounting,
    /// and exact agreement of the host index with the remote views.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let occupied = self.entries.iter().filter(|e| e.is_some()).count();
        assert_eq!(occupied, self.index.len(), "index covers the slab");
        assert_eq!(
            self.free.len() + occupied,
            self.entries.len(),
            "every slot is occupied or free"
        );
        for (&peer, &slot) in &self.index {
            let entry = self.entries[slot as usize]
                .as_ref()
                .expect("indexed slot occupied");
            assert_eq!(entry.adv.peer, peer, "slab slot agrees with index key");
            assert_eq!(
                self.by_node.get(&entry.adv.node),
                Some(&peer),
                "registered peer's current node maps back to it"
            );
        }
        for (&node, &peer) in &self.by_node {
            let entry = self.entry(peer).expect("by_node points at a member");
            assert_eq!(entry.adv.node, node, "no stale node mapping");
        }
        for (&peer, remote) in &self.remote_peers {
            assert!(
                !self.index.contains_key(&peer),
                "a registered peer is never also a federation rumor"
            );
            assert_eq!(remote.view.peer, peer, "remote view agrees with its key");
            let claims = self
                .remote_by_node
                .get(&remote.view.node)
                .expect("every remote view's host is indexed");
            assert_eq!(
                claims.iter().filter(|&&p| p == peer).count(),
                1,
                "a remote view claims its host exactly once"
            );
        }
        for (node, claims) in &self.remote_by_node {
            assert!(!claims.is_empty(), "no empty claim list outlives its host");
            for claimant in claims {
                let remote = self
                    .remote_peers
                    .get(claimant)
                    .expect("every claimant has a remote view");
                assert_eq!(remote.view.node, *node, "no stale host claim");
            }
        }
        for peer in self.departed.keys() {
            assert!(
                !self.index.contains_key(peer),
                "a registered peer is never also a departure tombstone"
            );
        }
    }
}

impl MemoryFootprint for PeerRegistry {
    /// Length-based heap estimate (see [`crate::footprint`]): entry slots
    /// and id indexes under `roster`, windowed-ratio rings under `stats`,
    /// owned advertisement strings under `ads`, the content directory
    /// under `content`, and federation views under `gossip`.
    fn memory_footprint(&self) -> FootprintBreakdown {
        let mut fp = FootprintBreakdown {
            roster: slots_estimate::<Option<PeerEntry>>(self.entries.len())
                + slots_estimate::<u32>(self.free.len())
                + map_estimate::<PeerId, u32>(self.index.len())
                + map_estimate::<NodeId, PeerId>(self.by_node.len())
                + map_estimate::<NodeId, Arc<str>>(self.names.len()),
            gossip: map_estimate::<PeerId, RemoteView>(self.remote_peers.len())
                + map_estimate::<NodeId, Vec<PeerId>>(self.remote_by_node.len())
                + slots_estimate::<PeerId>(self.remote_peers.len())
                + map_estimate::<PeerId, SimTime>(self.departed.len())
                + map_estimate::<NodeId, SimTime>(self.broker_heartbeats.len()),
            ..FootprintBreakdown::default()
        };
        for name in self.names.values() {
            fp.roster += name.len() as u64;
        }
        for entry in self.entries() {
            fp.roster += entry.name.len() as u64;
            fp.ads += entry.adv.name.len() as u64;
            fp.stats += entry.stats.message_window.heap_bytes();
        }
        for remote in self.remote_peers.values() {
            fp.gossip += remote.view.name.len() as u64;
        }
        for (key, holdings) in &self.content {
            fp.content += key.len() as u64 + slots_estimate::<Holding>(holdings.len());
            for h in holdings {
                fp.content += h.adv.name.len() as u64;
            }
        }
        fp
    }
}

impl Broker {
    pub(crate) fn on_join(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        adv: PeerAdvertisement,
    ) {
        let now = ctx.now();
        let peer = adv.peer;
        self.registry.admit(adv, now);
        let group = self.groups.admit(peer);
        ctx.send(from, OverlayMsg::JoinAck { group });
        self.bump(ctx, |c| c.joins);
    }

    pub(crate) fn on_leave(&mut self, ctx: &mut Context<OverlayMsg>, peer: PeerId) {
        let node = self.registry.node_of(peer);
        self.registry.expel(peer);
        self.groups.expel(peer);
        if let Some(node) = node {
            // A departed peer must vanish from every roster the broker can
            // still hand to selection: the federation cache and the queue
            // of deferred commands aimed at its host. The tombstone keeps
            // later-arriving gossip snapshots taken *before* the departure
            // from resurrecting it.
            self.registry.purge_remote(peer, node);
            self.registry.note_departed(peer, ctx.now());
            self.schedule.cancel_for_node(node);
        }
        self.maybe_stop(ctx);
    }

    pub(crate) fn on_discover_peers(&mut self, ctx: &mut Context<OverlayMsg>, from: NodeId) {
        let now = ctx.now();
        let adverts: Vec<PeerAdvertisement> = self
            .registry
            .entries()
            .map(|e| e.adv.clone())
            .filter(|a| !a.is_expired(now))
            .collect();
        ctx.send(from, OverlayMsg::DiscoverPeersResponse { adverts });
    }

    pub(crate) fn on_stats_report(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        peer: PeerId,
        snapshot: StatsSnapshot,
    ) {
        let now = ctx.now();
        if let Some(entry) = self.registry.entry_mut(peer) {
            entry.reported = Some(snapshot);
            entry.stats.record_message(now, true);
        }
    }

    pub(crate) fn on_publish_content(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        adv: ContentAdvertisement,
    ) {
        let node = self.registry.node_of(adv.owner).unwrap_or(from);
        self.registry.publish(Holding {
            peer: adv.owner,
            node,
            content: adv.content,
            size: adv.size_bytes,
            adv,
        });
        self.bump(ctx, |c| c.content_published);
    }

    pub(crate) fn on_discover_content(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        pattern: String,
    ) {
        let now = ctx.now();
        let adverts: Vec<ContentAdvertisement> = self
            .registry
            .matching_holdings(&pattern)
            .filter(|h| !h.adv.is_expired(now) && self.registry.has_peer(h.peer))
            .map(|h| h.adv.clone())
            .collect();
        ctx.send(from, OverlayMsg::DiscoverContentResponse { adverts });
    }

    pub(crate) fn on_broker_gossip(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from_broker: NodeId,
        sent_at: SimTime,
        roster: Arc<[CandidateView]>,
    ) {
        self.registry.note_broker_alive(from_broker, ctx.now());
        let mut dropped = 0u64;
        for view in roster.iter() {
            // Never shadow a locally-registered peer with a relay, and
            // never resurrect one this broker already saw depart.
            if !self.registry.learn_remote(view, sent_at) {
                dropped += 1;
            }
        }
        self.bump_by(ctx, |c| c.stale_views_dropped, dropped);
        self.bump(ctx, |c| c.gossip_received);
    }

    pub(crate) fn on_gossip_timer(&mut self, ctx: &mut Context<OverlayMsg>) {
        let now = ctx.now();
        // Only locally-registered peers are gossiped (relays are never
        // relayed). The round's snapshot is built once; every fellow
        // broker's message shares it.
        let roster = self.registry.local_views(now, self.cfg.stats_k_hours);
        let me = ctx.self_id();
        for &b in &self.cfg.peer_brokers {
            ctx.send(
                b,
                OverlayMsg::BrokerGossip {
                    from_broker: me,
                    sent_at: now,
                    roster: Arc::clone(&roster),
                },
            );
        }
        // Publish the registry's estimated heap footprint on the gossip
        // cadence. Gauge names carry this broker's node index: gauges sum
        // by name across shards, so unique-per-broker names reconstruct
        // each broker's last-set value in the merged metrics, and the
        // `registry.bytes.` prefix sums them fleet-wide. The handles are
        // resolved on the first tick, so a broker that never gossips
        // publishes no footprint gauges at all.
        let fp = self.registry.memory_footprint();
        let gauges = *self
            .footprint_gauges
            .get_or_insert_with(|| FootprintGauges::resolve(ctx.metrics(), me));
        let metrics = ctx.metrics();
        metrics.set_gauge_id(gauges.bytes, fp.total() as f64);
        metrics.set_gauge_id(gauges.peers, self.registry.peer_count() as f64);
        for (&id, (_, bytes)) in gauges.components.iter().zip(fp.components()) {
            metrics.set_gauge_id(id, bytes as f64);
        }
        ctx.schedule_timer(self.cfg.gossip_interval, super::GOSSIP_TAG);
    }
}

#[cfg(test)]
mod tests;
