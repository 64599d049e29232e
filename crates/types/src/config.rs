//! System and protocol configuration.
//!
//! The central object is [`SystemConfig`], which fixes the fault threshold
//! `f`, the replication factor (`2f + 1` for trust-bft protocols, `3f + 1`
//! for bft and FlexiTrust protocols), batching, timeouts and checkpointing.
//! Quorum sizes are derived here in one place so that every protocol engine
//! uses exactly the thresholds the paper describes.

use crate::error::{Error, Result};
use crate::ids::ReplicaId;
use std::fmt;

/// Identifies one of the protocols implemented in this repository; what
/// the protocol is, is its row of the design table, [`ProtocolId::style`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolId {
    /// PBFT (Castro & Liskov), the classic three-phase 3f+1 protocol.
    Pbft,
    /// Zyzzyva, speculative single-phase 3f+1 protocol (client needs all n
    /// matching replies for the fast path).
    Zyzzyva,
    /// PBFT-EA (attested append-only memory), three-phase 2f+1 trust-bft.
    PbftEa,
    /// MinBFT, two-phase 2f+1 trust-bft using trusted counters.
    MinBft,
    /// MinZZ, speculative single-phase 2f+1 trust-bft.
    MinZz,
    /// OPBFT-EA: the authors' PBFT-EA variant with parallel consensus
    /// invocations.
    OpbftEa,
    /// CheapBFT: f+1 active replicas in the failure-free case (related work).
    CheapBft,
    /// Flexi-BFT: the paper's two-phase FlexiTrust protocol.
    FlexiBft,
    /// Flexi-ZZ: the paper's single-phase speculative FlexiTrust protocol.
    FlexiZz,
    /// oFlexi-BFT: Flexi-BFT with parallel consensus invocations disabled.
    OFlexiBft,
    /// oFlexi-ZZ: Flexi-ZZ with parallel consensus invocations disabled.
    OFlexiZz,
}

impl ProtocolId {
    /// All protocols evaluated in the paper's figures.
    pub const ALL: [ProtocolId; 11] = [
        ProtocolId::Pbft,
        ProtocolId::Zyzzyva,
        ProtocolId::PbftEa,
        ProtocolId::MinBft,
        ProtocolId::MinZz,
        ProtocolId::OpbftEa,
        ProtocolId::CheapBft,
        ProtocolId::FlexiBft,
        ProtocolId::FlexiZz,
        ProtocolId::OFlexiBft,
        ProtocolId::OFlexiZz,
    ];

    /// Returns the canonical display name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Pbft => "Pbft",
            ProtocolId::Zyzzyva => "Zyzzyva",
            ProtocolId::PbftEa => "Pbft-EA",
            ProtocolId::MinBft => "MinBFT",
            ProtocolId::MinZz => "MinZZ",
            ProtocolId::OpbftEa => "Opbft-ea",
            ProtocolId::CheapBft => "CheapBFT",
            ProtocolId::FlexiBft => "Flexi-BFT",
            ProtocolId::FlexiZz => "Flexi-ZZ",
            ProtocolId::OFlexiBft => "oFlexi-BFT",
            ProtocolId::OFlexiZz => "oFlexi-ZZ",
        }
    }

    /// Returns the replication factor the protocol is designed for.
    pub fn replication_factor(self) -> ReplicationFactor {
        self.style().replication
    }
}

impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Replication factor regimes studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationFactor {
    /// `n = 2f + 1`: the regime targeted by existing trust-bft protocols.
    TwoFPlusOne,
    /// `n = 3f + 1`: the regime of classic BFT and the FlexiTrust protocols.
    ThreeFPlusOne,
}

impl ReplicationFactor {
    /// Number of replicas for a given fault threshold `f`.
    pub fn replicas(self, f: usize) -> usize {
        match self {
            ReplicationFactor::TwoFPlusOne => 2 * f + 1,
            ReplicationFactor::ThreeFPlusOne => 3 * f + 1,
        }
    }

    /// Whether quorums of `quorum` replicas are safe and live at fault
    /// threshold `f`: any two must share one replica under `2f + 1` (the
    /// trusted component already rules out equivocation) and `f + 1` under
    /// `3f + 1` (an honest replica beyond the `f` Byzantine ones), and the
    /// `n - f` replicas left after `f` crashes must still form one.
    pub fn admits_quorum(self, f: usize, quorum: usize) -> bool {
        let n = self.replicas(f);
        let shared = match self {
            ReplicationFactor::TwoFPlusOne => 1,
            ReplicationFactor::ThreeFPlusOne => f + 1,
        };
        2 * quorum >= n + shared && quorum + f <= n
    }
}

/// Named quorum rules used by the protocols; centralised so quorum math is
/// written (and tested) exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumRule {
    /// `f + 1` matching messages (trust-bft prepare/commit quorums, client
    /// reply threshold of 3f+1 protocols).
    FPlusOne,
    /// `2f + 1` matching messages (PBFT prepare/commit quorums, FlexiTrust
    /// quorums, Flexi-ZZ client reply threshold).
    TwoFPlusOne,
    /// All `n` replicas (Zyzzyva / MinZZ fast-path reply threshold).
    AllReplicas,
}

/// Static configuration of one deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// The protocol being run.
    pub protocol: ProtocolId,
    /// Maximum number of Byzantine replicas tolerated.
    pub f: usize,
    /// Total number of replicas (`2f + 1` or `3f + 1` depending on protocol).
    pub n: usize,
    /// Number of transactions per consensus batch.
    pub batch_size: usize,
    /// How many consensus instances may be in flight concurrently at the
    /// primary. Sequential protocols use 1.
    pub max_in_flight: usize,
    /// Checkpoint period in sequence numbers.
    pub checkpoint_interval: u64,
    /// View-change timeout in microseconds (simulated or real).
    pub view_timeout_us: u64,
    /// Client retry timeout in microseconds.
    pub client_timeout_us: u64,
}

impl SystemConfig {
    /// Builds the default configuration the paper uses for a protocol at
    /// fault threshold `f`: the replica count of its row, a window of 256
    /// instances in flight when the row runs consensus out of order and one
    /// otherwise, batch size 100, checkpointing every 1000 sequence numbers.
    pub fn for_protocol(protocol: ProtocolId, f: usize) -> Self {
        let style = protocol.style();
        SystemConfig {
            protocol,
            f,
            n: style.replication.replicas(f),
            batch_size: 100,
            max_in_flight: if style.out_of_order { 256 } else { 1 },
            checkpoint_interval: 1000,
            view_timeout_us: 2_000_000,
            client_timeout_us: 1_000_000,
        }
    }

    /// Validates the internal consistency of the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.f == 0 {
            return Err(Error::config("f must be at least 1"));
        }
        let required = self.protocol.replication_factor().replicas(self.f);
        if self.n < required {
            return Err(Error::config(format!(
                "protocol {} with f = {} requires at least {} replicas, got {}",
                self.protocol.name(),
                self.f,
                required,
                self.n
            )));
        }
        if self.batch_size == 0 {
            return Err(Error::config("batch size must be positive"));
        }
        if self.max_in_flight == 0 {
            return Err(Error::config("max_in_flight must be positive"));
        }
        if self.checkpoint_interval == 0 {
            return Err(Error::config("checkpoint interval must be positive"));
        }
        Ok(())
    }

    /// Iterator over all replica ids of the deployment.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.n as u32).map(ReplicaId)
    }

    /// Size of an `f + 1` quorum.
    pub fn small_quorum(&self) -> usize {
        self.f + 1
    }

    /// Size of a `2f + 1` quorum.
    pub fn large_quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Number of messages that satisfies the given quorum rule.
    pub fn quorum(&self, rule: QuorumRule) -> usize {
        match rule {
            QuorumRule::FPlusOne => self.small_quorum(),
            QuorumRule::TwoFPlusOne => self.large_quorum(),
            QuorumRule::AllReplicas => self.n,
        }
    }

    /// Number of matching replies a client accepts after its fast path
    /// timed out. An all-replica fast path falls back to a commit
    /// certificate: `2f + 1` replies for Zyzzyva, `f + 1` for MinZZ
    /// (`n = 2f + 1`). Every other rule has no fast path to fall back from,
    /// so the threshold is its normal quorum.
    pub fn fallback_quorum(&self, rule: QuorumRule) -> usize {
        match rule {
            QuorumRule::AllReplicas if self.n == self.large_quorum() => self.small_quorum(),
            QuorumRule::AllReplicas => self.large_quorum(),
            QuorumRule::FPlusOne | QuorumRule::TwoFPlusOne => self.quorum(rule),
        }
    }

    /// Returns `true` when `replica` is within the configured replica set.
    pub fn contains(&self, replica: ReplicaId) -> bool {
        replica.as_usize() < self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_factor_math() {
        assert_eq!(ReplicationFactor::TwoFPlusOne.replicas(8), 17);
        assert_eq!(ReplicationFactor::ThreeFPlusOne.replicas(8), 25);
        assert_eq!(ReplicationFactor::TwoFPlusOne.replicas(20), 41);
        assert_eq!(ReplicationFactor::ThreeFPlusOne.replicas(20), 61);
    }

    #[test]
    fn quorum_sizes_fit_their_regimes_for_every_f() {
        for f in 1..=64 {
            let trusted = SystemConfig::for_protocol(ProtocolId::MinBft, f);
            let untrusted = SystemConfig::for_protocol(ProtocolId::Pbft, f);
            assert!(
                ReplicationFactor::TwoFPlusOne.admits_quorum(f, trusted.small_quorum()),
                "small_quorum at f = {f}"
            );
            assert!(
                ReplicationFactor::ThreeFPlusOne.admits_quorum(f, untrusted.large_quorum()),
                "large_quorum at f = {f}"
            );
        }
        // The cross-regime bug the paper is about: a trust-bft `f + 1`
        // quorum (or a `2f` one) in a `3f + 1` deployment shares too few
        // replicas, and a `2f` quorum of `2f + 1` is unreachable.
        assert!(!ReplicationFactor::ThreeFPlusOne.admits_quorum(2, 3));
        assert!(!ReplicationFactor::ThreeFPlusOne.admits_quorum(2, 4));
        assert!(!ReplicationFactor::TwoFPlusOne.admits_quorum(2, 4));
    }

    #[test]
    fn quorum_sizes_for_f8() {
        let cfg = SystemConfig::for_protocol(ProtocolId::FlexiBft, 8);
        assert_eq!(cfg.n, 25);
        assert_eq!(cfg.small_quorum(), 9);
        assert_eq!(cfg.large_quorum(), 17);
        assert_eq!(cfg.quorum(QuorumRule::AllReplicas), 25);

        let cfg = SystemConfig::for_protocol(ProtocolId::MinBft, 8);
        assert_eq!(cfg.n, 17);
        assert_eq!(cfg.quorum(QuorumRule::FPlusOne), 9);
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        let mut cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 4);
        assert!(cfg.validate().is_ok());
        cfg.n = 10; // 3f + 1 = 13 required.
        assert!(cfg.validate().is_err());
        cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 4);
        cfg.batch_size = 0;
        assert!(cfg.validate().is_err());
        cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 4);
        cfg.f = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn all_protocols_have_unique_names() {
        let mut names: Vec<&str> = ProtocolId::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProtocolId::ALL.len());
    }

    #[test]
    fn replicas_iterator_covers_all() {
        let cfg = SystemConfig::for_protocol(ProtocolId::Pbft, 1);
        let ids: Vec<ReplicaId> = cfg.replicas().collect();
        assert_eq!(ids.len(), 4);
        assert!(cfg.contains(ReplicaId(3)));
        assert!(!cfg.contains(ReplicaId(4)));
    }
}
