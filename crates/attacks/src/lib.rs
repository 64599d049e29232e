//! Byzantine attack scenarios from §5–§7 of the paper.
//!
//! Each scenario reproduces one of the paper's analytical claims as executable
//! code against the real protocol engines:
//!
//! * [`responsiveness_attack`] — §5: with `n = 2f + 1`, Byzantine replicas
//!   plus one delayed honest replica leave the client short of the `f + 1`
//!   matching replies it needs, and no view change can be triggered; with
//!   `3f + 1` (PBFT, FlexiTrust) the client always hears from `f + 1`
//!   honest replicas.
//! * [`rollback_attack_minbft`] / [`rollback_attack_flexibft`] — §6:
//!   rolling back the primary's (non-persistent) trusted counter lets it
//!   equivocate, committing two different transactions at the same sequence
//!   number in MinBFT; in Flexi-BFT the same rollback cannot produce two
//!   commits because `2f + 1` quorums intersect in an honest replica.
//! * [`out_of_order_probe`] — §7: trust-bft replicas must access their
//!   counters in order, so out-of-order proposals are rejected by the
//!   trusted component, while FlexiTrust replicas accept out-of-order
//!   proposals and merely delay execution.
//!
//! Every scenario runs on the one router and cluster that the engine tests
//! use, [`flexitrust_protocol::testing`]: engines from the factory the
//! simulator and the threaded hosts start their replicas with, over
//! counting-mode attestations, and messages that move only through the one
//! [`flexitrust_protocol::host::Dispatcher`]. So each scenario is written
//! once and takes the protocol as an input. The §5 adversary relays each
//! inbox through the simulator's one fault model
//! ([`flexitrust_sim::ChaosPlan`], interpreted by the same
//! [`flexitrust_sim::ChaosState::fate`]), so that attack plan can also be
//! replayed at scale inside the discrete-event simulation (Figure 2) and
//! composed with crashes, partitions and link chaos; its client counts
//! replies with [`flexitrust_protocol::ClientLibrary`]. The §6 and §7
//! scenarios hand a few messages to backups in the adversary's order.

mod responsiveness;
mod rollback;
mod sequential;

pub use responsiveness::{responsiveness_attack, ResponsivenessReport};
pub use rollback::{rollback_attack_flexibft, rollback_attack_minbft, RollbackReport};
pub use sequential::{out_of_order_probe, SequentialReport};
