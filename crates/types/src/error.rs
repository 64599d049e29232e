//! Error types shared across the workspace.

use crate::ids::ReplicaId;
use std::fmt;

/// Convenience alias used by every crate in the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the substrates and protocol engines.
///
/// Protocol engines are designed to *ignore* malformed input (the standard
/// BFT stance: a bad message is simply dropped), so most of these errors are
/// surfaced by the substrates (crypto, trusted components, execution) and by
/// configuration checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A digital signature or MAC failed verification.
    InvalidSignature {
        /// Human-readable description of what was being verified.
        context: String,
    },
    /// A trusted-component attestation failed verification.
    InvalidAttestation {
        /// Human-readable description of the failure.
        context: String,
    },
    /// A trusted counter/log was asked to move backwards or reuse a slot.
    TrustedMonotonicityViolation {
        /// Counter or log identifier.
        counter: u64,
        /// Current value held by the trusted component.
        current: u64,
        /// Value that was requested.
        requested: u64,
    },
    /// A lookup on a trusted log referenced a slot that holds no value.
    TrustedSlotEmpty {
        /// Log identifier.
        log: u64,
        /// Slot that was looked up.
        slot: u64,
    },
    /// The protocol/system configuration is inconsistent (e.g. `n < 3f + 1`).
    InvalidConfig {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// The named replica is not part of the configured replica set.
    UnknownReplica {
        /// The offending replica id.
        replica: ReplicaId,
    },
    /// A key required by the crypto substrate is missing.
    MissingKey {
        /// Human-readable owner description.
        owner: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidSignature { context } => {
                write!(f, "invalid signature: {context}")
            }
            Error::InvalidAttestation { context } => {
                write!(f, "invalid trusted attestation: {context}")
            }
            Error::TrustedMonotonicityViolation {
                counter,
                current,
                requested,
            } => write!(
                f,
                "trusted counter {counter} monotonicity violation: current {current}, requested {requested}"
            ),
            Error::TrustedSlotEmpty { log, slot } => {
                write!(f, "trusted log {log} has no value at slot {slot}")
            }
            Error::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Error::UnknownReplica { replica } => write!(f, "unknown replica {replica}"),
            Error::MissingKey { owner } => write!(f, "missing key material for {owner}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Builds an [`Error::InvalidConfig`] from anything printable.
    pub fn config(reason: impl Into<String>) -> Self {
        Error::InvalidConfig {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        let e = Error::TrustedMonotonicityViolation {
            counter: 3,
            current: 10,
            requested: 5,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("10") && s.contains('5'));
    }

    #[test]
    fn helpers_build_expected_variants() {
        assert!(matches!(Error::config("x"), Error::InvalidConfig { .. }));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::config("bad"));
    }
}
