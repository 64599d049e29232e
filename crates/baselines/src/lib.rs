//! Baseline BFT and trust-BFT protocols evaluated by the paper, and the one
//! engine every protocol of the repository runs on.
//!
//! The paper compares its FlexiTrust suite against five deployed baselines
//! plus three variants the authors build themselves. All of them — and the
//! two FlexiTrust protocols — are PBFT-shaped, differing in replication
//! factor, number of phases, quorum sizes, speculation and how they use
//! trusted components:
//!
//! | Protocol | n | Phases | Trusted component use |
//! |---|---|---|---|
//! | [`Pbft`](pbft::Pbft) | 3f+1 | PrePrepare, Prepare, Commit | none |
//! | [`Zyzzyva`](zyzzyva::Zyzzyva) | 3f+1 | PrePrepare (speculative) | none |
//! | [`PbftEa`](pbft_ea::PbftEa) | 2f+1 | 3 phases | trusted log per message |
//! | [`OpbftEa`](opbft_ea::OpbftEa) | 2f+1 | 3 phases, parallel instances | trusted log per message |
//! | [`MinBft`](minbft::MinBft) | 2f+1 | 2 phases | trusted counter per message |
//! | [`MinZz`](minzz::MinZz) | 2f+1 | 1 phase (speculative) | trusted counter per message |
//! | [`CheapBft`](cheapbft::CheapBft) | 2f+1 (f+1 active) | 2 phases | trusted counter per message |
//! | Flexi-BFT (`flexitrust_core`) | 3f+1 | 2 phases, parallel instances | `AppendF` once per consensus, primary only |
//! | Flexi-ZZ (`flexitrust_core`) | 3f+1 | 1 phase (speculative), parallel instances | `AppendF` once per consensus, primary only |
//!
//! All of them are styles of the shared [`common::PbftFamilyEngine`], a
//! configurable PBFT-family replica: each protocol module instantiates it
//! with the style parameters above and documents the protocol-specific
//! behaviour and its limitations (§5–§7 of the paper); `flexitrust_core`
//! does the same for the two FlexiTrust styles.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod cheapbft;
pub mod common;
pub mod minbft;
pub mod minzz;
pub mod opbft_ea;
pub mod pbft;
pub mod pbft_ea;
pub mod zyzzyva;

pub use cheapbft::CheapBft;
pub use common::{PbftFamilyEngine, PrimaryAttest, ProtocolStyle, ReplicaAttest};
pub use minbft::MinBft;
pub use minzz::MinZz;
pub use opbft_ea::OpbftEa;
pub use pbft::Pbft;
pub use pbft_ea::PbftEa;
pub use zyzzyva::Zyzzyva;

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::SystemConfig;

    #[test]
    fn every_style_quorum_fits_its_protocols_regime() {
        let styles = [
            Pbft::style(),
            Zyzzyva::style(),
            PbftEa::style(),
            OpbftEa::style(),
            MinBft::style(),
            MinZz::style(),
            CheapBft::style(),
        ];
        for style in styles {
            let regime = style.id.replication_factor();
            for f in 1..=64 {
                let config = SystemConfig::for_protocol(style.id, f);
                for rule in [style.prepare_quorum_rule, style.commit_quorum_rule] {
                    assert!(
                        regime.admits_quorum(f, config.quorum(rule)),
                        "{} {rule:?} at f = {f}",
                        style.id
                    );
                }
            }
        }
    }
}
