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
//! Two conversions are provided, exactly as in the paper:
//!
//! * [`FlexiBft`](flexi_bft::FlexiBft) — derived from MinBFT/PBFT: two
//!   phases (`PrePrepare`, `Prepare`), commit at `2f + 1` `Prepare` votes,
//!   clients need `f + 1` matching replies.
//! * [`FlexiZz`](flexi_zz::FlexiZz) — derived from MinZZ/Zyzzyva: a single
//!   speculative phase, clients need `2f + 1` matching replies, and —
//!   unlike Zyzzyva/MinZZ — the fast path survives up to `f` unresponsive
//!   replicas (Figure 7) and the view change stays simple.
//!
//! The sequential ablations `oFlexi-BFT` / `oFlexi-ZZ` used in Figure 6(i)
//! are the same engines constructed with parallelism disabled
//! ([`flexi_bft::FlexiBft::sequential`], [`flexi_zz::FlexiZz::sequential`]).

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod common;
pub mod flexi_bft;
pub mod flexi_zz;

pub use common::FlexiCore;
pub use flexi_bft::FlexiBft;
pub use flexi_zz::FlexiZz;
