//! Trusted-component substrate.
//!
//! Existing trust-bft protocols equip every replica `r` with a co-located
//! trusted component `t_r` (Definition 1 of the paper): a cryptographically
//! secure entity that provably performs a specific computation. Two
//! abstractions cover all protocols studied by the paper:
//!
//! * **Trusted monotonic counters** ([`counter::CounterSet`]) — `Append`
//!   binds a message digest to a counter value that may only grow (MinBFT,
//!   MinZZ, Trinc, CheapBFT); the restricted [`counter::CounterSet::append_f`]
//!   variant introduced by FlexiTrust (§8.1) has the component increment the
//!   counter internally so values stay contiguous; `Create` opens a fresh
//!   counter after a view change.
//! * **Trusted append-only logs** ([`log::TrustedLog`]) — `Append` stores the
//!   message at a slot and `Lookup` returns a signed attestation of the slot
//!   contents (PBFT-EA, HotStuff-M).
//!
//! Both produce [`Attestation`]s: digitally signed statements
//! `⟨Attest(q, k, x)⟩_{t_r}` binding value `k` of counter/log `q` to digest
//! `x`, verifiable by anyone holding the enclave registry.
//!
//! The substrate also models the two *practical* concerns the paper analyses:
//!
//! * **Access latency** ([`hardware::TrustedHardware`]) — SGX enclave
//!   counters are fast but rollbackable; SGX persistent counters and TPMs
//!   resist rollback but cost tens to hundreds of milliseconds per access
//!   (Figure 8); ADAM-CS-style counters sit in between.
//! * **Rollback attacks** ([`rollback::RollbackControl`]) — a malicious host
//!   can snapshot and restore a non-persistent enclave's state, re-enabling
//!   equivocation (§6). The [`enclave::Enclave`] exposes this capability only
//!   through an explicit attack handle so honest code cannot trip over it.

#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod attestation;
pub mod counter;
pub mod enclave;
pub mod hardware;
pub mod log;
pub mod rollback;
pub mod stats;

pub use attestation::{AttestKind, Attestation, AttestationMode, EnclaveRegistry};
pub use counter::CounterSet;
pub use enclave::{Enclave, EnclaveConfig, SharedEnclave};
pub use hardware::TrustedHardware;
pub use log::TrustedLog;
pub use rollback::RollbackControl;
pub use stats::{TcAccessKind, TcStats, TcStatsSnapshot};
