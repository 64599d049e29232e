//! Engine outputs: the [`Action`] enum and the [`Outbox`] that collects them.
//!
//! Client replies are the one output whose count scales with the batch, not
//! with the protocol: a committed batch answers every transaction in it. The
//! [`Outbox`] therefore keeps them in a list of their own instead of wrapping
//! each one in an [`Action`], and hosts take a whole invocation's replies in
//! one hand-off.

use crate::engine::TimerKind;
use crate::messages::{ClientReply, Message};
use flexitrust_types::{ReplicaId, SeqNum};

/// One effect requested by a protocol engine.
///
/// The hosting environment (simulator or threaded runtime) interprets these:
/// `Send`/`Broadcast` go over the network model, `Reply` goes back to the
/// client library, timers are scheduled against the host's clock, and
/// `Executed` is a pure notification used for metrics and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send a message to one replica.
    Send {
        /// Destination replica.
        to: ReplicaId,
        /// The message.
        msg: Message,
    },
    /// Send a message to every replica, including the sender (the host loops
    /// the sender's copy back so engines handle their own votes uniformly).
    Broadcast {
        /// The message.
        msg: Message,
    },
    /// Send a reply to a client. Engines never emit this variant — the
    /// [`Outbox`] keeps replies apart — but a host handed one explicitly
    /// passes it on with the invocation's other replies.
    Reply {
        /// The reply.
        reply: ClientReply,
    },
    /// Arm (or re-arm) a timer.
    SetTimer {
        /// Which timer.
        timer: TimerKind,
        /// Delay until expiry, in microseconds.
        delay_us: u64,
    },
    /// Cancel a pending timer, if armed.
    CancelTimer {
        /// Which timer.
        timer: TimerKind,
    },
    /// Notification that the batch at `seq` was executed (metrics only).
    Executed {
        /// The executed sequence number.
        seq: SeqNum,
        /// Number of transactions in the executed batch.
        txns: usize,
    },
}

/// Collects the actions produced while handling one event: client replies
/// in one list, everything else in another, each in emission order.
#[derive(Debug, Default)]
pub struct Outbox {
    actions: Vec<Action>,
    replies: Vec<ClientReply>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues a unicast message.
    pub fn send(&mut self, to: ReplicaId, msg: Message) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Queues a broadcast to all replicas (the sender included).
    pub fn broadcast(&mut self, msg: Message) {
        self.actions.push(Action::Broadcast { msg });
    }

    /// Queues a client reply.
    pub fn reply(&mut self, reply: ClientReply) {
        self.replies.push(reply);
    }

    /// Makes room for `additional` more replies (a committed batch knows
    /// how many it will answer before it builds the first).
    pub fn reserve_replies(&mut self, additional: usize) {
        self.replies.reserve(additional);
    }

    /// Arms a timer.
    pub fn set_timer(&mut self, timer: TimerKind, delay_us: u64) {
        self.actions.push(Action::SetTimer { timer, delay_us });
    }

    /// Cancels a timer.
    pub fn cancel_timer(&mut self, timer: TimerKind) {
        self.actions.push(Action::CancelTimer { timer });
    }

    /// Records an execution notification.
    pub fn executed(&mut self, seq: SeqNum, txns: usize) {
        self.actions.push(Action::Executed { seq, txns });
    }

    /// Number of queued actions and replies.
    pub fn len(&self) -> usize {
        self.actions.len() + self.replies.len()
    }

    /// Returns `true` when nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty() && self.replies.is_empty()
    }

    /// Drains the queued actions other than replies, in emission order.
    pub fn drain(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    /// Takes the queued actions and the queued replies, each in emission
    /// order.
    pub fn into_parts(self) -> (Vec<Action>, Vec<ClientReply>) {
        (self.actions, self.replies)
    }

    /// Read-only view of the queued actions other than replies.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// The queued client replies, in emission order.
    pub fn replies(&self) -> &[ClientReply] {
        &self.replies
    }

    /// Convenience for tests: the queued broadcast messages.
    pub fn broadcasts(&self) -> Vec<&Message> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Convenience for tests: the queued unicast messages.
    pub fn sends(&self) -> Vec<(&ReplicaId, &Message)> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { to, msg } => Some((to, msg)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::{Digest, View};

    fn msg() -> Message {
        Message::Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            attestation: None,
        }
    }

    #[test]
    fn outbox_preserves_emission_order() {
        let mut out = Outbox::new();
        out.broadcast(msg());
        out.send(ReplicaId(2), msg());
        out.set_timer(TimerKind::ViewChange, 1000);
        out.executed(SeqNum(1), 5);
        let actions = out.drain();
        assert_eq!(actions.len(), 4);
        assert!(matches!(actions[0], Action::Broadcast { .. }));
        assert!(matches!(
            actions[1],
            Action::Send {
                to: ReplicaId(2),
                ..
            }
        ));
        assert!(matches!(actions[2], Action::SetTimer { .. }));
        assert!(matches!(actions[3], Action::Executed { txns: 5, .. }));
        assert!(out.is_empty());
    }

    #[test]
    fn replies_are_kept_apart_in_emission_order() {
        let reply = |request: u64| ClientReply {
            client: flexitrust_types::ClientId(1),
            request: flexitrust_types::RequestId(request),
            seq: SeqNum(1),
            view: View(0),
            replica: ReplicaId(0),
            result: flexitrust_types::KvResult::Written,
            speculative: false,
        };
        let mut out = Outbox::new();
        out.reply(reply(1));
        out.broadcast(msg());
        out.reply(reply(2));
        assert_eq!(out.len(), 3);
        assert_eq!(out.actions().len(), 1);
        let (actions, replies) = out.into_parts();
        assert!(matches!(actions[..], [Action::Broadcast { .. }]));
        assert_eq!(replies, vec![reply(1), reply(2)]);
    }

    #[test]
    fn helpers_filter_by_kind() {
        let mut out = Outbox::new();
        out.broadcast(msg());
        out.send(ReplicaId(1), msg());
        out.cancel_timer(TimerKind::ViewChange);
        assert_eq!(out.broadcasts().len(), 1);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(out.replies().len(), 0);
        assert_eq!(out.len(), 3);
    }
}
