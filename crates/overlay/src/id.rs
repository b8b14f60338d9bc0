//! JXTA-style identifiers.
//!
//! JXTA identifies peers, pipes, groups and content with 128-bit UUID-like
//! IDs. We reproduce that scheme with a namespace byte folded into a 128-bit
//! value, generated deterministically from a seeded generator so simulation
//! runs are reproducible.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use netsim::rng::SimRng;

/// Namespace of an identifier (JXTA calls these ID *types*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IdKind {
    /// A peer.
    Peer,
    /// A unicast pipe.
    Pipe,
    /// A peer group.
    Group,
    /// A file-transfer session.
    Transfer,
    /// An executable task.
    Task,
    /// A shared content item.
    Content,
}

impl IdKind {
    fn tag(self) -> u8 {
        match self {
            IdKind::Peer => 0x01,
            IdKind::Pipe => 0x02,
            IdKind::Group => 0x03,
            IdKind::Transfer => 0x04,
            IdKind::Task => 0x05,
            IdKind::Content => 0x06,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            IdKind::Peer => "peer",
            IdKind::Pipe => "pipe",
            IdKind::Group => "grp",
            IdKind::Transfer => "xfer",
            IdKind::Task => "task",
            IdKind::Content => "cont",
        }
    }
}

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $kind:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u128);

        impl $name {
            /// Generates a fresh id from the generator.
            pub fn generate(gen: &mut IdGenerator) -> Self {
                $name(gen.next_raw($kind))
            }

            /// The raw 128-bit value.
            pub fn raw(self) -> u128 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "urn:jxta:{}-{:016x}", $kind.prefix(), (self.0 >> 8) as u64)
            }
        }
    };
}

define_id!(
    /// Identifies a peer.
    PeerId,
    IdKind::Peer
);
define_id!(
    /// Identifies a unicast pipe.
    PipeId,
    IdKind::Pipe
);
define_id!(
    /// Identifies a peer group.
    GroupId,
    IdKind::Group
);
define_id!(
    /// Identifies one file-transfer session.
    TransferId,
    IdKind::Transfer
);
define_id!(
    /// Identifies an executable task.
    TaskId,
    IdKind::Task
);
define_id!(
    /// Identifies a shared content item.
    ContentId,
    IdKind::Content
);

/// Deterministic id factory: a seeded RNG plus a collision-free counter.
///
/// The counter guarantees uniqueness within a run even if the RNG were to
/// collide; the RNG spreads ids so hash maps behave.
#[derive(Debug, Clone)]
pub struct IdGenerator {
    rng: SimRng,
    counter: u64,
}

impl IdGenerator {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        IdGenerator {
            rng: SimRng::new(seed ^ 0x1D6E_5A17_0DD5_EED5),
            counter: 0,
        }
    }

    fn next_raw(&mut self, kind: IdKind) -> u128 {
        self.counter += 1;
        let hi = self.rng.next_u64_raw() as u128;
        let lo = self.counter as u128;
        (hi << 64) | (lo << 8) | kind.tag() as u128
    }
}

/// A fixed (unseeded) multiply-rotate hasher for integer keys: overlay ids
/// and node indices, all generated inside the simulation. Ids are already
/// well spread (a random high word, see [`IdGenerator`]) and node indices
/// are dense, so one multiply per word spreads both across buckets. Being
/// unseeded, it also makes map iteration order a pure function of the
/// insertion history.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x517C_C1B7_2722_0A95;
}

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(Self::K);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A hash map keyed by overlay ids or node indices, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_spreads_ids_and_dense_node_indices() {
        use std::collections::HashSet;
        use std::hash::{BuildHasher, Hash};
        // Low bits pick the bucket: both key shapes must fill a 256-slot
        // table about as well as a random hash would (~162 of 256 slots
        // for 256 keys), not pile into a few.
        let build = BuildHasherDefault::<IdHasher>::default();
        let low_byte = |key: &dyn Fn(&mut IdHasher)| {
            let mut h = build.build_hasher();
            key(&mut h);
            h.finish() & 0xFF
        };
        let mut g = IdGenerator::new(9);
        let peers: HashSet<u64> = (0..256)
            .map(|_| {
                let p = PeerId::generate(&mut g);
                low_byte(&|h| p.hash(h))
            })
            .collect();
        let nodes: HashSet<u64> = (0..256u32)
            .map(|i| low_byte(&|h| netsim::node::NodeId(i).hash(h)))
            .collect();
        assert!(peers.len() > 128, "peer ids collide: {}", peers.len());
        assert_eq!(nodes.len(), 256, "dense node indices map one-to-one");
    }

    #[test]
    fn ids_are_unique() {
        let mut g = IdGenerator::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(PeerId::generate(&mut g)));
        }
    }

    #[test]
    fn ids_are_deterministic_per_seed() {
        let mut g1 = IdGenerator::new(7);
        let mut g2 = IdGenerator::new(7);
        for _ in 0..100 {
            assert_eq!(TransferId::generate(&mut g1), TransferId::generate(&mut g2));
        }
        let mut g3 = IdGenerator::new(8);
        assert_ne!(PeerId::generate(&mut g1), PeerId::generate(&mut g3));
    }

    #[test]
    fn kinds_are_distinguishable() {
        let mut g = IdGenerator::new(2);
        let p = PeerId::generate(&mut g);
        let t = TaskId::generate(&mut g);
        // Tag byte differs even if upper bits were equal.
        assert_ne!(p.raw() & 0xFF, t.raw() & 0xFF);
    }

    #[test]
    fn display_is_urn_like() {
        let mut g = IdGenerator::new(3);
        let p = PeerId::generate(&mut g);
        let s = p.to_string();
        assert!(s.starts_with("urn:jxta:peer-"), "{s}");
        let x = TransferId::generate(&mut g);
        assert!(x.to_string().starts_with("urn:jxta:xfer-"));
    }
}
