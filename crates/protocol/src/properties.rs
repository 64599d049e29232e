//! Static protocol properties — the rows of Figure 1 of the paper.
//!
//! Figure 1 compares the protocols along five axes: the trusted abstraction
//! they need, whether they preserve the liveness guarantees of plain BFT
//! protocols, whether they support out-of-order (parallel) consensus, how
//! much trusted memory they require, and whether only the primary needs an
//! *active* trusted component. [`ProtocolProperties`] derives those axes from
//! the protocol's row of the design table ([`ProtocolId::style`]), the same
//! row the engine runs, so the Figure 1 reproduction is generated from what
//! the engines do, and the simulator/client harnesses read the reply quorum
//! and phase count from one place.

use flexitrust_types::{PrimaryAttest, ProtocolId, QuorumRule, ReplicaAttest, ReplicationFactor};
use std::fmt;

/// The trusted abstraction a protocol requires at replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrustedAbstraction {
    /// No trusted component (plain BFT: PBFT, Zyzzyva).
    None,
    /// Append-only trusted logs (PBFT-EA, HotStuff-M).
    Log,
    /// Monotonic counters plus a bounded log (Trinc, Hybster, Damysus).
    CounterAndLog,
    /// Monotonic counters only (MinBFT, MinZZ, CheapBFT, FlexiTrust).
    Counter,
}

impl fmt::Display for TrustedAbstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrustedAbstraction::None => "-",
            TrustedAbstraction::Log => "Log",
            TrustedAbstraction::CounterAndLog => "Counter + Log",
            TrustedAbstraction::Counter => "Counter",
        };
        f.write_str(s)
    }
}

/// How much memory the trusted component needs (Figure 1, column 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryFootprint {
    /// No trusted state at all.
    None,
    /// A handful of counters.
    Low,
    /// Proportional to a bounded log of recent requests.
    OrderOfLogSize,
    /// Proportional to the full request log since the last checkpoint.
    High,
}

impl fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryFootprint::None => "-",
            MemoryFootprint::Low => "Low",
            MemoryFootprint::OrderOfLogSize => "Order of Log-size",
            MemoryFootprint::High => "High",
        };
        f.write_str(s)
    }
}

/// Static, per-protocol properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolProperties {
    /// Which protocol this describes.
    pub id: ProtocolId,
    /// Replication factor regime (`2f+1` or `3f+1`).
    pub replication: ReplicationFactor,
    /// Trusted abstraction required at replicas.
    pub trusted_abstraction: TrustedAbstraction,
    /// Whether the protocol preserves BFT liveness for clients (Figure 1
    /// column 2; trust-bft protocols do not, per §5).
    pub bft_liveness: bool,
    /// Whether consensus instances may proceed out of order / in parallel.
    pub out_of_order: bool,
    /// Trusted memory requirement.
    pub trusted_memory: MemoryFootprint,
    /// Whether only the primary needs an active trusted component.
    pub primary_only_tc: bool,
    /// Number of message phases in the failure-free common case
    /// (PrePrepare counts as the first phase).
    pub phases: u8,
    /// How many matching replies a client needs to accept a result.
    pub reply_quorum: QuorumRule,
    /// Whether replicas execute speculatively before commit (Zyzzyva-style).
    pub speculative: bool,
}

impl ProtocolProperties {
    /// A protocol's Figure 1 row, read off its [`ProtocolId::style`]: the
    /// trusted abstraction and memory follow from how the primary attests,
    /// the primary alone needs a trusted component when it attests and the
    /// backups do not, and a speculative protocol has one phase where the
    /// others have two or, with a `Commit` phase, three.
    pub fn for_protocol(id: ProtocolId) -> Self {
        let style = id.style();
        let (trusted_abstraction, trusted_memory) = match style.primary_attest {
            PrimaryAttest::None => (TrustedAbstraction::None, MemoryFootprint::None),
            PrimaryAttest::Log => (TrustedAbstraction::Log, MemoryFootprint::High),
            PrimaryAttest::HostCounter | PrimaryAttest::AppendF => {
                (TrustedAbstraction::Counter, MemoryFootprint::Low)
            }
        };
        let phases = match (style.speculative, style.use_commit_phase) {
            (true, _) => 1,
            (false, false) => 2,
            (false, true) => 3,
        };
        ProtocolProperties {
            id,
            replication: style.replication,
            trusted_abstraction,
            bft_liveness: style.bft_liveness,
            out_of_order: style.out_of_order,
            trusted_memory,
            primary_only_tc: style.primary_attest != PrimaryAttest::None
                && style.replica_attest == ReplicaAttest::None,
            phases,
            reply_quorum: style.reply_quorum,
            speculative: style.speculative,
        }
    }

    /// The full Figure 1 table (one row per protocol the figure lists, plus
    /// the plain BFT baselines).
    pub fn figure1_rows() -> Vec<ProtocolProperties> {
        ProtocolId::ALL
            .iter()
            .map(|p| Self::for_protocol(*p))
            .collect()
    }
}

impl fmt::Display for ProtocolProperties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<11} | {:>5} | {:<13} | {:^8} | {:^12} | {:<17} | {:^10} | {} phase(s)",
            self.id.name(),
            match self.replication {
                ReplicationFactor::TwoFPlusOne => "2f+1",
                ReplicationFactor::ThreeFPlusOne => "3f+1",
            },
            self.trusted_abstraction.to_string(),
            if self.bft_liveness { "yes" } else { "no" },
            if self.out_of_order { "yes" } else { "no" },
            self.trusted_memory.to_string(),
            if self.primary_only_tc { "yes" } else { "no" },
            self.phases
        )
    }
}
