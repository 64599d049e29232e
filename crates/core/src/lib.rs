//! The FlexiTrust protocol suite — the paper's contribution.
//!
//! Section 8 of the paper argues that trusted components pay off only when
//! combined with `3f + 1` replicas, and derives a recipe for converting any
//! trust-bft protocol into a *FlexiTrust* protocol:
//!
//! 1. **Restrict `Append`** to the internally-incrementing `AppendF`
//!    ([`flexitrust_trusted::CounterSet::append_f`]) so counter values stay
//!    contiguous and a Byzantine primary cannot open far-future gaps.
//! 2. **Access the trusted component only at the primary**, once per
//!    consensus: backups merely verify the attestation's signature.
//! 3. **Use `2f + 1` quorums over `3f + 1` replicas**, so every quorum
//!    contains an honest replica and equivocation is impossible even without
//!    per-message attestations — restoring client responsiveness (§5),
//!    removing the trusted-logging memory cost, shrinking the rollback
//!    window to one access per consensus (§6) and enabling parallel
//!    consensus invocations (§7).
//!
//! Here the recipe is a change of [`ProtocolStyle`] — [`PrimaryAttest::AppendF`],
//! [`ReplicaAttest::None`], `2f + 1` quorums — so both conversions run on
//! [`flexitrust_baselines::PbftFamilyEngine`] like every baseline, and
//! differ from the protocols they derive from in nothing else:
//!
//! * [`FlexiBft`] — derived from MinBFT/PBFT: two phases (`PrePrepare`,
//!   `Prepare`), commit at `2f + 1` `Prepare` votes, clients need `f + 1`
//!   matching replies.
//! * [`FlexiZz`] — derived from MinZZ/Zyzzyva: a single speculative phase,
//!   clients need `2f + 1` matching replies, and — unlike Zyzzyva/MinZZ —
//!   the fast path survives up to `f` unresponsive replicas (Figure 7) and
//!   the view change stays simple.
//!
//! The sequential ablations `oFlexi-BFT` / `oFlexi-ZZ` used in Figure 6(i)
//! are the same engines built from a configuration for their own
//! [`ProtocolId`], whose proposal window holds one instance.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod flexi_bft;
pub mod flexi_zz;

pub use flexi_bft::FlexiBft;
pub use flexi_zz::FlexiZz;

use flexitrust_baselines::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_trusted::{EnclaveRegistry, SharedEnclave};
use flexitrust_types::{ProtocolId, QuorumRule, ReplicaId, SystemConfig};
use std::sync::Arc;

/// The style both conversions share: `AppendF`, idle backups, `2f + 1`.
fn flexi_style(id: ProtocolId, speculative: bool) -> ProtocolStyle {
    ProtocolStyle {
        id,
        use_commit_phase: false,
        prepare_quorum_rule: QuorumRule::TwoFPlusOne,
        commit_quorum_rule: QuorumRule::TwoFPlusOne,
        speculative,
        primary_attest: PrimaryAttest::AppendF,
        replica_attest: ReplicaAttest::None,
        active_subset_only: false,
    }
}

/// Builds replica `id` of `style`, as its sequential ablation when the
/// configuration names that or a window of one instance.
fn engine(
    config: impl Into<Arc<SystemConfig>>,
    id: ReplicaId,
    mut style: ProtocolStyle,
    enclave: SharedEnclave,
    registry: EnclaveRegistry,
) -> PbftFamilyEngine {
    let config = config.into();
    let sequential = if style.speculative {
        ProtocolId::OFlexiZz
    } else {
        ProtocolId::OFlexiBft
    };
    if config.protocol == sequential || config.max_in_flight == 1 {
        style.id = sequential;
    }
    PbftFamilyEngine::new(config, id, style, Some(enclave), Some(registry))
}

#[cfg(test)]
mod testing {
    use flexitrust_baselines::PbftFamilyEngine;
    use flexitrust_protocol::testing::run_cluster_until_quiescent;
    use flexitrust_trusted::{AttestationMode, EnclaveRegistry, SharedEnclave};
    use flexitrust_types::{ClientId, KvOp, ReplicaId, RequestId, SystemConfig, Transaction};

    /// How a builder makes one engine.
    pub type Build =
        fn(SystemConfig, ReplicaId, SharedEnclave, EnclaveRegistry) -> PbftFamilyEngine;

    /// One engine per replica of `config` over counting-mode enclaves, and
    /// the enclave each holds.
    pub fn cluster(
        config: &SystemConfig,
        enclave: fn(ReplicaId, AttestationMode) -> SharedEnclave,
        build: Build,
    ) -> (Vec<PbftFamilyEngine>, Vec<SharedEnclave>) {
        let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
        config
            .replicas()
            .map(|id| {
                let enclave = enclave(id, AttestationMode::Counting);
                let engine = build(config.clone(), id, enclave.clone(), registry.clone());
                (engine, enclave)
            })
            .unzip()
    }

    /// Delivers every message between `engines` until quiescence.
    pub fn run(engines: &mut [PbftFamilyEngine], inject: Vec<(usize, Vec<Transaction>)>) {
        let mut engines: Vec<&mut PbftFamilyEngine> = engines.iter_mut().collect();
        run_cluster_until_quiescent(&mut engines, inject, 300);
    }

    pub fn txns(count: usize) -> Vec<Transaction> {
        (0..count)
            .map(|i| {
                Transaction::new(
                    ClientId(1),
                    RequestId(i as u64 + 1),
                    KvOp::Update {
                        key: i as u64,
                        value: vec![9].into(),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flexi_quorum_fits_the_untrusted_regime() {
        for style in [FlexiBft::style(), FlexiZz::style()] {
            let regime = style.id.replication_factor();
            for f in 1..=64 {
                let config = SystemConfig::for_protocol(style.id, f);
                for rule in [style.prepare_quorum_rule, style.commit_quorum_rule] {
                    let quorum = config.quorum(rule);
                    assert!(
                        regime.admits_quorum(f, quorum),
                        "{} {rule:?} at f = {f}",
                        style.id
                    );
                }
            }
        }
    }
}
