//! The [`ConsensusEngine`] trait: the contract between protocol logic and
//! the environments that host it (simulator, threaded runtime, attack
//! harnesses).

use crate::actions::Outbox;
use crate::messages::Message;
use crate::properties::ProtocolProperties;
use crate::replica::ReplicaCore;
use flexitrust_types::{Digest, ReplicaId, SeqNum, SystemConfig, Transaction, View};

/// Timers an engine may arm. The host schedules them against its own clock
/// (simulated or real) and calls [`ConsensusEngine::on_timer`] on expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerKind {
    /// Primary-failure detection; on expiry the replica votes for a view
    /// change.
    ViewChange,
    /// Flush a partially filled batch at the primary.
    BatchFlush,
    /// Periodic checkpoint trigger.
    Checkpoint,
    /// A request-specific timer set after forwarding a client retry to the
    /// primary (Flexi-ZZ §8.3); the payload is the transaction's digest tag.
    RequestForwarded(u64),
}

/// A deterministic, I/O-free consensus protocol replica.
///
/// Engines are driven entirely through the three `on_*` entry points and
/// communicate exclusively through the [`Outbox`]. They own their replica's
/// execution queue and reply cache, so "executing" a batch is internal; the
/// host observes executions through `Action::Executed` and client replies.
pub trait ConsensusEngine: Send {
    /// The replica state every engine embeds: configuration, view, execution
    /// progress. The state accessors below read it.
    fn replica(&self) -> &ReplicaCore;

    /// The static configuration the engine was built with.
    fn config(&self) -> &SystemConfig {
        self.replica().config()
    }

    /// This replica's identifier.
    fn id(&self) -> ReplicaId {
        self.replica().id()
    }

    /// Static properties of the configured protocol (Figure 1 of the paper).
    fn properties(&self) -> ProtocolProperties {
        ProtocolProperties::for_protocol(self.config().protocol)
    }

    /// Called when client transactions arrive at this replica.
    ///
    /// At the primary this normally leads to batching and a `PrePrepare`;
    /// at a backup the transactions are forwarded to the primary.
    fn on_client_request(&mut self, txns: Vec<Transaction>, out: &mut Outbox);

    /// Called when a protocol message arrives from `from`.
    ///
    /// No host authenticates the transport: the TCP frame's MAC field is
    /// zeros and nothing checks it, so `from` is whatever the sender's
    /// frame or channel says. The engine is responsible for protocol-level
    /// validation (views, quorums, attestations) and must simply ignore
    /// malformed input.
    fn on_message(&mut self, from: ReplicaId, msg: Message, out: &mut Outbox);

    /// Called when a previously armed timer expires.
    fn on_timer(&mut self, timer: TimerKind, out: &mut Outbox);

    /// The view this replica currently operates in.
    fn view(&self) -> View {
        self.replica().view()
    }

    /// The highest sequence number this replica has executed.
    fn last_executed(&self) -> SeqNum {
        self.replica().last_executed()
    }

    /// Total number of transactions this replica has executed.
    fn executed_txns(&self) -> u64 {
        self.replica().executed_txns()
    }

    /// Digest of the replica's executed state. The chaos invariant checker
    /// compares these across replicas that report the same `last_executed`.
    fn state_digest(&self) -> Digest {
        self.replica().state_digest()
    }

    /// Returns `true` when this replica is the primary of its current view.
    fn is_primary(&self) -> bool {
        self.replica().is_primary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_kinds_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TimerKind::ViewChange);
        set.insert(TimerKind::BatchFlush);
        set.insert(TimerKind::RequestForwarded(7));
        set.insert(TimerKind::RequestForwarded(7));
        assert_eq!(set.len(), 3);
        assert_ne!(
            TimerKind::RequestForwarded(1),
            TimerKind::RequestForwarded(2)
        );
    }
}
