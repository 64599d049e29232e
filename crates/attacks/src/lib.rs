//! Byzantine attack scenarios from §5–§7 of the paper.
//!
//! Each module reproduces one of the paper's analytical claims as executable
//! code against the real protocol engines:
//!
//! * [`responsiveness`] — §5: with `n = 2f + 1`, Byzantine replicas plus one
//!   delayed honest replica leave the client short of the `f + 1` matching
//!   replies it needs, and no view change can be triggered; with `3f + 1`
//!   (PBFT, FlexiTrust) the client always hears from `f + 1` honest replicas.
//! * [`rollback`] — §6: rolling back the primary's (non-persistent) trusted
//!   counter lets it equivocate, committing two different transactions at
//!   the same sequence number in MinBFT; in Flexi-BFT the same rollback
//!   cannot produce two commits because `2f + 1` quorums intersect in an
//!   honest replica.
//! * [`sequential`] — §7: trust-bft replicas must access their counters in
//!   order, so out-of-order proposals are rejected by the trusted component,
//!   while FlexiTrust replicas accept out-of-order proposals and merely
//!   delay execution.
//!
//! Every engine comes from [`flexitrust_host::build_replica`], the factory
//! the simulator and the threaded hosts start their replicas with, so each
//! scenario is written once and takes the protocol as an input. Only the §5
//! scenario routes messages: [`harness::drive`] delivers them by the
//! simulator's one fault model ([`flexitrust_sim::ChaosPlan`], interpreted
//! by the same [`flexitrust_sim::ChaosState::fate`]), so that attack plan
//! can also be replayed at scale inside the discrete-event simulation
//! (Figure 2) and composed with crashes, partitions and link chaos, and the
//! client counts its replies with [`flexitrust_protocol::ClientLibrary`].
//! The §6 and §7 scenarios hand-deliver a few messages to backups directly.

pub mod harness;
pub mod responsiveness;
pub mod rollback;
pub mod sequential;

pub use responsiveness::{responsiveness_attack, ResponsivenessReport};
pub use rollback::{rollback_attack_flexibft, rollback_attack_minbft, RollbackReport};
pub use sequential::{out_of_order_probe, SequentialReport};
