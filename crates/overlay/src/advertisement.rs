//! JXTA-style advertisements.
//!
//! In JXTA every discoverable resource — peers, pipes, shared content — is
//! announced through an *advertisement*: a small self-describing document
//! with a publication time and a lifetime. Brokers cache advertisements and
//! answer discovery queries from that cache; expired advertisements are
//! purged lazily.

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::time::{SimDuration, SimTime};

use crate::id::{ContentId, PeerId, PipeId};
use crate::message::OverlayMsg;

/// Announces a peer and its capabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerAdvertisement {
    /// The advertised peer.
    pub peer: PeerId,
    /// The simulated host the peer runs on.
    pub node: NodeId,
    /// Human-readable peer name (hostname in our testbed).
    pub name: String,
    /// Advertised CPU rate in giga-ops/second.
    pub cpu_gops: f64,
    /// Whether the peer accepts executable tasks.
    pub accepts_tasks: bool,
    /// Publication time.
    pub published: SimTime,
    /// Validity period from publication.
    pub lifetime: SimDuration,
}

impl PeerAdvertisement {
    /// What a peer joins (or rejoins) its broker with: this host under its
    /// testbed name, published now, valid for [`DEFAULT_LIFETIME`].
    pub(crate) fn join(
        ctx: &Context<OverlayMsg>,
        peer: PeerId,
        cpu_gops: f64,
        accepts_tasks: bool,
    ) -> Self {
        PeerAdvertisement {
            peer,
            node: ctx.self_id(),
            name: ctx.node_name(ctx.self_id()).to_string(),
            cpu_gops,
            accepts_tasks,
            published: ctx.now(),
            lifetime: DEFAULT_LIFETIME,
        }
    }

    /// True once the advertisement's lifetime has elapsed.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now > self.published + self.lifetime
    }

    /// Approximate serialized size in bytes.
    pub fn wire_size(&self) -> u64 {
        96 + self.name.len() as u64
    }
}

/// Announces a unicast pipe endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct PipeAdvertisement {
    /// The advertised pipe.
    pub pipe: PipeId,
    /// The peer that listens on it.
    pub owner: PeerId,
    /// Pipe name (service label).
    pub name: String,
    /// Publication time.
    pub published: SimTime,
    /// Validity period from publication.
    pub lifetime: SimDuration,
}

impl PipeAdvertisement {
    /// True once the advertisement's lifetime has elapsed.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now > self.published + self.lifetime
    }

    /// Approximate serialized size in bytes.
    pub fn wire_size(&self) -> u64 {
        80 + self.name.len() as u64
    }
}

/// Announces shared content (a file available for transfer).
#[derive(Debug, Clone, PartialEq)]
pub struct ContentAdvertisement {
    /// The advertised content item.
    pub content: ContentId,
    /// The peer that holds it.
    pub owner: PeerId,
    /// File name.
    pub name: String,
    /// File size in bytes.
    pub size_bytes: u64,
    /// Publication time.
    pub published: SimTime,
    /// Validity period from publication.
    pub lifetime: SimDuration,
}

impl ContentAdvertisement {
    /// True once the advertisement's lifetime has elapsed.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now > self.published + self.lifetime
    }

    /// Approximate serialized size in bytes.
    pub fn wire_size(&self) -> u64 {
        88 + self.name.len() as u64
    }
}

/// Default advertisement lifetime (JXTA's default is on the order of hours).
pub const DEFAULT_LIFETIME: SimDuration = SimDuration::from_secs(2 * 3600);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn peer_adv(published: SimTime, lifetime: SimDuration) -> PeerAdvertisement {
        let mut g = IdGenerator::new(1);
        PeerAdvertisement {
            peer: PeerId::generate(&mut g),
            node: NodeId(0),
            name: "host.example".into(),
            cpu_gops: 1.5,
            accepts_tasks: true,
            published,
            lifetime,
        }
    }

    #[test]
    fn expiry_logic() {
        let adv = peer_adv(t(100), SimDuration::from_secs(50));
        assert!(!adv.is_expired(t(100)));
        assert!(!adv.is_expired(t(150))); // boundary: still valid at exactly published+lifetime
        assert!(adv.is_expired(t(151)));
    }

    #[test]
    fn wire_sizes_scale_with_name() {
        let short = peer_adv(t(0), DEFAULT_LIFETIME);
        let mut long = short.clone();
        long.name = "a-very-long-hostname.with.many.labels.example.org".into();
        assert!(long.wire_size() > short.wire_size());
    }

    #[test]
    fn pipe_and_content_adverts_expire() {
        let mut g = IdGenerator::new(2);
        let pipe = PipeAdvertisement {
            pipe: PipeId::generate(&mut g),
            owner: PeerId::generate(&mut g),
            name: "task-service".into(),
            published: t(0),
            lifetime: SimDuration::from_secs(10),
        };
        assert!(pipe.is_expired(t(11)));
        assert!(pipe.wire_size() > 0);
        let content = ContentAdvertisement {
            content: ContentId::generate(&mut g),
            owner: PeerId::generate(&mut g),
            name: "lecture.mp4".into(),
            size_bytes: 100 << 20,
            published: t(0),
            lifetime: DEFAULT_LIFETIME,
        };
        assert!(!content.is_expired(t(3600)));
        assert!(content.wire_size() > 0);
    }
}
