//! The receiving peer's side of the paper's protocol (§4.2: ack the
//! petition, confirm each part on arrival) plus task execution, written
//! once for the SimpleClient and the churn peer as the sibling of
//! [`crate::sendflow::SenderFlow`]. Receivers differ only in policy, which
//! comes in as closures asked where the decision is made, so every RNG draw
//! stays in place: petition willingness only for unknown transfers, task
//! acceptance before the execution time is drawn, task success after it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use netsim::engine::Context;
use netsim::node::NodeId;
use netsim::trace::TraceEventKind;

use crate::filetransfer::{InboundTransfer, PartReceipt};
use crate::footprint::{map_estimate, FootprintBreakdown};
use crate::id::{TaskId, TransferId};
use crate::message::OverlayMsg;
use crate::records::RecordSink;

/// A task being executed, keyed by its completion-timer tag.
struct RunningTask {
    id: TaskId,
    exec_secs: f64,
    success: bool,
}

/// What a receive-side message did that the actor may account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Received {
    /// A petition opened a new transfer.
    Opened,
    /// A petition for a new transfer was refused.
    Refused,
    /// A transfer closed; whether every part had arrived.
    Ended(bool),
    /// A task offer was accepted and is executing.
    TaskAccepted,
    /// A task offer was rejected.
    TaskRejected,
}

/// One peer's receive state: inbound transfers and running tasks.
pub(crate) struct ReceiverFlow {
    inbound: HashMap<TransferId, InboundTransfer>,
    running: HashMap<u64, RunningTask>,
    next_task_tag: u64,
    sink: Option<RecordSink>,
}

impl ReceiverFlow {
    /// Task timers are tagged upward from `task_tag_base`; the owning actor
    /// keeps its other timer tags clear of that range.
    pub(crate) fn new(task_tag_base: u64) -> Self {
        ReceiverFlow {
            inbound: HashMap::new(),
            running: HashMap::new(),
            next_task_tag: task_tag_base,
            sink: None,
        }
    }

    /// Attaches the run log that receiver-side byte tallies are stamped on.
    pub(crate) fn set_sink(&mut self, sink: RecordSink) {
        self.sink = Some(sink);
    }

    /// Inbound transfers plus running tasks.
    pub(crate) fn load(&self) -> usize {
        self.inbound.len() + self.running.len()
    }

    /// Running tasks.
    pub(crate) fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Forgets every inbound transfer; their later parts are dropped.
    pub(crate) fn drop_inbound(&mut self) {
        self.inbound.clear();
    }

    /// Receive state under `content`, running tasks under `stats`.
    pub(crate) fn footprint(&self) -> FootprintBreakdown {
        FootprintBreakdown {
            content: map_estimate::<TransferId, InboundTransfer>(self.inbound.len()),
            stats: map_estimate::<u64, RunningTask>(self.running.len()),
            ..FootprintBreakdown::default()
        }
    }

    /// Answers a petition, part, transfer end, task offer or ping; `None`
    /// when there is nothing to account, or for any other message. `willing`
    /// decides a petition for an unknown transfer, `accept` a task offer,
    /// and `succeed` an accepted task's outcome.
    pub(crate) fn on_message(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        from: NodeId,
        msg: &OverlayMsg,
        willing: impl FnOnce(&mut Context<OverlayMsg>) -> bool,
        accept: impl FnOnce(&mut Context<OverlayMsg>) -> bool,
        succeed: impl FnOnce(&mut Context<OverlayMsg>) -> bool,
    ) -> Option<Received> {
        match *msg {
            OverlayMsg::FilePetition {
                transfer,
                num_parts,
                sent_at,
                ..
            } => {
                // A repeated petition (its ack was lost) must not reset the
                // transfer, so it is re-acked without asking the policy.
                let received = match self.inbound.entry(transfer) {
                    Entry::Occupied(_) => None,
                    Entry::Vacant(slot) if willing(ctx) => {
                        slot.insert(InboundTransfer::new(num_parts));
                        Some(Received::Opened)
                    }
                    Entry::Vacant(_) => Some(Received::Refused),
                };
                ctx.send(
                    from,
                    OverlayMsg::PetitionAck {
                        transfer,
                        accepted: received != Some(Received::Refused),
                        petition_sent_at: sent_at,
                        handled_at: ctx.now(),
                    },
                );
                received
            }
            // Parts of unknown transfers (stale, or sent after a departure)
            // are dropped and left to the sender's retries.
            OverlayMsg::FilePart {
                transfer,
                index,
                size,
            } => {
                if let Some(inb) = self.inbound.get_mut(&transfer) {
                    match inb.on_part(index, size) {
                        // Confirming a gap would move the sender past a part
                        // this peer lacks.
                        PartReceipt::Gap => {
                            if ctx.trace_enabled() {
                                ctx.trace_event(TraceEventKind::PartGap {
                                    transfer: transfer.raw(),
                                    index,
                                    expected: inb.received,
                                });
                            }
                            return None;
                        }
                        // The tally is final now; TransferComplete is unacked
                        // and may be lost on a lossy transport.
                        PartReceipt::Last => stamp_bytes(self.sink.as_ref(), transfer, inb.bytes),
                        // A duplicate is confirmed again: the first confirm
                        // may have been lost.
                        PartReceipt::New | PartReceipt::Duplicate => {}
                    }
                    ctx.send(from, OverlayMsg::PartConfirm { transfer, index });
                }
                None
            }
            OverlayMsg::TransferComplete { transfer } | OverlayMsg::TransferCancel { transfer } => {
                let inb = self.inbound.remove(&transfer);
                if let Some(inb) = &inb {
                    stamp_bytes(self.sink.as_ref(), transfer, inb.bytes);
                }
                Some(Received::Ended(
                    inb.is_some_and(|i| i.received >= i.expected_parts),
                ))
            }
            OverlayMsg::TaskOffer { ref task, .. } => {
                if !accept(ctx) {
                    ctx.send(from, OverlayMsg::TaskReject { task: task.id });
                    return Some(Received::TaskRejected);
                }
                ctx.send(from, OverlayMsg::TaskAccept { task: task.id });
                let exec = ctx.execution_time(task.work_gops);
                let running = RunningTask {
                    id: task.id,
                    exec_secs: exec.as_secs_f64(),
                    success: succeed(ctx),
                };
                let tag = self.next_task_tag;
                self.next_task_tag += 1;
                self.running.insert(tag, running);
                ctx.schedule_timer(exec, tag);
                Some(Received::TaskAccepted)
            }
            OverlayMsg::Ping { nonce, sent_at } => {
                ctx.send(from, OverlayMsg::Pong { nonce, sent_at });
                None
            }
            _ => None,
        }
    }

    /// Reports a finished task to `broker`; `Some(success)` when `tag` was
    /// a running task's timer.
    pub(crate) fn on_timer(
        &mut self,
        ctx: &mut Context<OverlayMsg>,
        tag: u64,
        broker: NodeId,
    ) -> Option<bool> {
        let done = self.running.remove(&tag)?;
        ctx.send(
            broker,
            OverlayMsg::TaskResult {
                task: done.id,
                success: done.success,
                exec_secs: done.exec_secs,
            },
        );
        Some(done.success)
    }
}

/// Records the receiver's byte tally, which experiments check against the file size.
fn stamp_bytes(sink: Option<&RecordSink>, transfer: TransferId, bytes: u64) {
    if let Some(sink) = sink {
        sink.with(|log| {
            if let Some(rec) = log.transfer_mut(transfer) {
                rec.receiver_bytes = Some(bytes);
            }
        });
    }
}
