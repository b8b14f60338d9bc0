//! The chunked file-transfer protocol (paper §4.2, "File transmission").
//!
//! The paper's protocol: a file is split into fixed-size parts; the sender
//! first sends a *petition* announcing the transfer; the peer confirms; each
//! part is then sent and, "as soon as a peer receives the part, it should
//! confirm correct reception of the file and its availability to receive
//! another part" — i.e. stop-and-wait at part granularity. Sending the file
//! whole is the degenerate one-part case.

use netsim::time::SimTime;

use crate::id::{ContentId, TransferId};

/// Metadata of a file being transferred.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Content identity.
    pub content: ContentId,
    /// File name.
    pub name: String,
    /// Total size in bytes.
    pub size_bytes: u64,
}

impl FileMeta {
    /// Approximate wire size of the metadata itself.
    pub fn wire_size(&self) -> u64 {
        48 + self.name.len() as u64
    }
}

/// Splits `size_bytes` into `num_parts` part sizes: all parts equal except
/// the last, which absorbs the remainder. Zero-part requests collapse to one.
pub fn split_parts(size_bytes: u64, num_parts: u32) -> Vec<u64> {
    let n = num_parts.max(1) as u64;
    if size_bytes == 0 {
        return vec![0];
    }
    let base = size_bytes / n;
    let rem = size_bytes % n;
    let mut parts: Vec<u64> = (0..n).map(|_| base).collect();
    if let Some(last) = parts.last_mut() {
        *last += rem;
    }
    // Degenerate: more parts than bytes → drop empty parts.
    parts.retain(|&p| p > 0);
    if parts.is_empty() {
        parts.push(size_bytes);
    }
    parts
}

/// Sender-side state of one outbound transfer (stop-and-wait).
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundTransfer {
    /// Transfer identity.
    pub id: TransferId,
    /// What is being sent.
    pub file: FileMeta,
    /// Destination host.
    pub to: netsim::node::NodeId,
    /// Part sizes (computed once, immutable).
    pub parts: Vec<u64>,
    /// Index of the next part to send.
    pub next_part: u32,
    /// Protocol phase.
    pub phase: TransferPhase,
    /// When the petition was sent.
    pub petition_sent_at: SimTime,
}

/// Phase of an outbound transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPhase {
    /// Petition sent; waiting for the peer to confirm readiness.
    AwaitingPetitionAck,
    /// Parts being streamed, one confirm at a time.
    Sending,
    /// All parts confirmed.
    Complete,
    /// Gave up (timeout or peer refusal).
    Cancelled,
}

impl OutboundTransfer {
    /// Creates the sender state and computes the part layout.
    pub fn new(
        id: TransferId,
        file: FileMeta,
        to: netsim::node::NodeId,
        num_parts: u32,
        now: SimTime,
    ) -> Self {
        let parts = split_parts(file.size_bytes, num_parts);
        OutboundTransfer {
            id,
            file,
            to,
            parts,
            next_part: 0,
            phase: TransferPhase::AwaitingPetitionAck,
            petition_sent_at: now,
        }
    }

    /// Number of parts in this transfer.
    pub fn num_parts(&self) -> u32 {
        self.parts.len() as u32
    }

    /// The peer confirmed readiness: returns the first part to send
    /// (`index`, `size`), or `None` if the transfer was refused.
    pub fn on_petition_ack(&mut self, accepted: bool) -> Option<(u32, u64)> {
        if self.phase != TransferPhase::AwaitingPetitionAck {
            return None;
        }
        if !accepted {
            self.phase = TransferPhase::Cancelled;
            return None;
        }
        self.phase = TransferPhase::Sending;
        self.next_part = 1;
        Some((0, self.parts[0]))
    }

    /// Whether a confirm for part `index` would advance the window right
    /// now. Record keepers use this to validate a confirm *before* mutating
    /// timing records: a stale or duplicate confirm must not touch them.
    pub fn accepts_confirm(&self, index: u32) -> bool {
        self.phase == TransferPhase::Sending && index + 1 == self.next_part
    }

    /// The peer confirmed part `index`: returns the next part to send, or
    /// `None` when the transfer just completed (or the confirm was stale).
    pub fn on_part_confirm(&mut self, index: u32) -> Option<(u32, u64)> {
        // Stop-and-wait: only the confirm for the most recently sent part
        // advances the window.
        if !self.accepts_confirm(index) {
            return None;
        }
        if (self.next_part as usize) < self.parts.len() {
            let i = self.next_part;
            self.next_part += 1;
            Some((i, self.parts[i as usize]))
        } else {
            self.phase = TransferPhase::Complete;
            None
        }
    }

    /// Marks the transfer cancelled (watchdog timeout etc.).
    pub fn cancel(&mut self) {
        if self.phase != TransferPhase::Complete {
            self.phase = TransferPhase::Cancelled;
        }
    }

    /// True when every part has been confirmed.
    pub fn is_complete(&self) -> bool {
        self.phase == TransferPhase::Complete
    }
}

/// Receiver-side state of one inbound transfer, kept by
/// [`crate::recvflow::ReceiverFlow`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct InboundTransfer {
    /// Expected number of parts.
    pub(crate) expected_parts: u32,
    /// Parts received so far (distinct indices).
    pub(crate) received: u32,
    /// Bytes received so far (duplicates excluded).
    pub(crate) bytes: u64,
}

/// What a received part meant to the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartReceipt {
    /// A fresh part; more are expected.
    New,
    /// A fresh part, and it was the last one.
    Last,
    /// A retransmission of an already-received part (re-confirm it; the
    /// sender's confirm may have been lost).
    Duplicate,
    /// An index beyond the next expected one: impossible under faithful
    /// stop-and-wait, so the part is rejected — counting it would drift
    /// `received`/`bytes` past reality. Do not confirm it.
    Gap,
}

impl InboundTransfer {
    /// Creates receiver state when the petition is accepted.
    pub(crate) fn new(expected_parts: u32) -> Self {
        InboundTransfer {
            expected_parts,
            received: 0,
            bytes: 0,
        }
    }

    /// Records part `index`; stop-and-wait means parts arrive in order, so
    /// any index below the next expected one is a retransmission and any
    /// index above it is a gap (rejected without touching the tallies).
    pub(crate) fn on_part(&mut self, index: u32, size: u64) -> PartReceipt {
        if index < self.received {
            return PartReceipt::Duplicate;
        }
        if index > self.received {
            return PartReceipt::Gap;
        }
        self.received += 1;
        self.bytes += size;
        if self.received >= self.expected_parts {
            PartReceipt::Last
        } else {
            PartReceipt::New
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::IdGenerator;
    use netsim::node::NodeId;

    fn meta(size: u64) -> FileMeta {
        let mut g = IdGenerator::new(1);
        FileMeta {
            content: ContentId::generate(&mut g),
            name: "payload.bin".into(),
            size_bytes: size,
        }
    }

    #[test]
    fn split_parts_even_and_remainder() {
        assert_eq!(split_parts(100, 4), vec![25, 25, 25, 25]);
        assert_eq!(split_parts(103, 4), vec![25, 25, 25, 28]);
        assert_eq!(split_parts(100, 1), vec![100]);
        assert_eq!(split_parts(100, 0), vec![100]);
    }

    #[test]
    fn split_parts_conserves_bytes() {
        for size in [1u64, 7, 100, 1 << 20, (100 << 20) + 13] {
            for n in [1u32, 2, 4, 16, 33] {
                let parts = split_parts(size, n);
                assert_eq!(parts.iter().sum::<u64>(), size, "size={size} n={n}");
                assert!(parts.iter().all(|&p| p > 0));
            }
        }
    }

    #[test]
    fn split_parts_degenerate_cases() {
        assert_eq!(split_parts(0, 4), vec![0]);
        // More parts than bytes: empty parts dropped.
        let parts = split_parts(3, 16);
        assert_eq!(parts.iter().sum::<u64>(), 3);
        assert!(parts.len() <= 3);
    }

    #[test]
    fn split_parts_size_smaller_than_num_parts() {
        // base = 0, remainder = size: everything lands in the last slot,
        // empty slots are dropped, so the result is a single full part.
        assert_eq!(split_parts(3, 16), vec![3]);
        assert_eq!(split_parts(1, 2), vec![1]);
        // Exactly one byte per part at the boundary.
        assert_eq!(split_parts(4, 4), vec![1, 1, 1, 1]);
    }

    #[test]
    fn split_parts_zero_parts_requested() {
        // num_parts = 0 is clamped to one part, for any size.
        assert_eq!(split_parts(0, 0), vec![0]);
        assert_eq!(split_parts(7, 0), vec![7]);
        assert_eq!(split_parts(u64::MAX, 0), vec![u64::MAX]);
    }

    #[test]
    fn split_parts_remainder_absorbed_by_last_part() {
        // All non-final parts stay at the base size; only the last grows.
        let parts = split_parts(1009, 10);
        assert_eq!(parts.len(), 10);
        assert!(parts[..9].iter().all(|&p| p == 100));
        assert_eq!(*parts.last().unwrap(), 109);
        assert_eq!(parts.iter().sum::<u64>(), 1009);
    }

    fn outbound(size: u64, n: u32) -> OutboundTransfer {
        let mut g = IdGenerator::new(2);
        OutboundTransfer::new(
            TransferId::generate(&mut g),
            meta(size),
            NodeId(3),
            n,
            SimTime::ZERO,
        )
    }

    #[test]
    fn stop_and_wait_walks_all_parts() {
        let mut t = outbound(100, 4);
        assert_eq!(t.phase, TransferPhase::AwaitingPetitionAck);
        let first = t.on_petition_ack(true).unwrap();
        assert_eq!(first, (0, 25));
        assert_eq!(t.on_part_confirm(0), Some((1, 25)));
        assert_eq!(t.on_part_confirm(1), Some((2, 25)));
        assert_eq!(t.on_part_confirm(2), Some((3, 25)));
        assert_eq!(t.on_part_confirm(3), None);
        assert!(t.is_complete());
    }

    #[test]
    fn refused_petition_cancels() {
        let mut t = outbound(100, 4);
        assert_eq!(t.on_petition_ack(false), None);
        assert_eq!(t.phase, TransferPhase::Cancelled);
        // Further confirms are ignored.
        assert_eq!(t.on_part_confirm(0), None);
    }

    #[test]
    fn stale_and_duplicate_confirms_ignored() {
        let mut t = outbound(100, 4);
        t.on_petition_ack(true);
        assert_eq!(t.on_part_confirm(2), None, "out-of-order confirm");
        let next = t.on_part_confirm(0).unwrap();
        assert_eq!(next.0, 1);
        assert_eq!(t.on_part_confirm(0), None, "duplicate confirm");
    }

    #[test]
    fn double_petition_ack_ignored() {
        let mut t = outbound(100, 2);
        assert!(t.on_petition_ack(true).is_some());
        assert_eq!(t.on_petition_ack(true), None);
    }

    #[test]
    fn cancel_is_sticky_but_not_after_completion() {
        let mut t = outbound(10, 1);
        t.on_petition_ack(true);
        assert_eq!(t.on_part_confirm(0), None);
        assert!(t.is_complete());
        t.cancel();
        assert!(t.is_complete(), "completed transfers stay completed");
        let mut u = outbound(10, 2);
        u.cancel();
        assert_eq!(u.phase, TransferPhase::Cancelled);
    }

    #[test]
    fn inbound_counts_parts_and_dedupes() {
        let mut r = InboundTransfer::new(3);
        assert_eq!(r.on_part(0, 10), PartReceipt::New);
        // Retransmission of part 0: acknowledged but not double-counted.
        assert_eq!(r.on_part(0, 10), PartReceipt::Duplicate);
        assert_eq!(r.on_part(1, 10), PartReceipt::New);
        assert_eq!(r.on_part(2, 12), PartReceipt::Last);
        assert_eq!(r.bytes, 32);
        assert_eq!(r.received, 3);
    }

    #[test]
    fn inbound_rejects_index_gaps() {
        let mut r = InboundTransfer::new(4);
        assert_eq!(r.on_part(0, 10), PartReceipt::New);
        // Index 2 while expecting 1: a gap must not advance the tallies.
        assert_eq!(r.on_part(2, 10), PartReceipt::Gap);
        assert_eq!(r.received, 1);
        assert_eq!(r.bytes, 10);
        // The expected part still goes through normally afterwards.
        assert_eq!(r.on_part(1, 10), PartReceipt::New);
        assert_eq!(r.on_part(2, 10), PartReceipt::New);
        assert_eq!(r.on_part(3, 12), PartReceipt::Last);
        assert_eq!(r.received, 4);
        assert_eq!(r.bytes, 42);
    }

    #[test]
    fn inbound_duplicate_of_last_part_stays_duplicate() {
        let mut r = InboundTransfer::new(2);
        assert_eq!(r.on_part(0, 10), PartReceipt::New);
        assert_eq!(r.on_part(1, 10), PartReceipt::Last);
        // A retransmitted final part must read as a duplicate, not as a
        // fresh (or gap) part, and must leave the tallies untouched.
        assert_eq!(r.on_part(1, 10), PartReceipt::Duplicate);
        assert_eq!(r.received, 2);
        assert_eq!(r.bytes, 20);
    }

    #[test]
    fn accepts_confirm_matches_window() {
        let mut t = outbound(100, 4);
        assert!(!t.accepts_confirm(0), "not accepting before petition ack");
        t.on_petition_ack(true);
        assert!(t.accepts_confirm(0));
        assert!(!t.accepts_confirm(1), "future confirm rejected");
        t.on_part_confirm(0);
        assert!(!t.accepts_confirm(0), "duplicate confirm rejected");
        assert!(t.accepts_confirm(1));
    }

    #[test]
    fn whole_file_is_single_part() {
        let t = outbound(100 << 20, 1);
        assert_eq!(t.num_parts(), 1);
        assert_eq!(t.parts[0], 100 << 20);
    }
}
