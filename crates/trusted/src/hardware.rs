//! Trusted hardware latency and persistence models.
//!
//! Section 6 and Figure 8 of the paper turn on the *practical* properties of
//! trusted hardware: SGX enclave state is fast to access but can be rolled
//! back by a malicious host; SGX persistent counters and TPMs resist rollback
//! but take tens to hundreds of milliseconds per access; emerging designs
//! such as ADAM-CS bring that below ten milliseconds. [`TrustedHardware`]
//! captures an access-latency / rollback-resistance point so that the
//! simulator can sweep it (Figure 8) and the attack scenarios can reason
//! about which configurations are vulnerable (§6).

use std::fmt;

/// A trusted-hardware configuration: how long one access takes and whether
/// the state survives (and resists) a malicious host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustedHardware {
    /// Monotonic counters kept inside an SGX enclave (the paper's default
    /// experimental setup, §9.1): microsecond-scale access, but state is
    /// *not* rollback-protected.
    SgxEnclaveCounter {
        /// One access in microseconds (signing an attestation inside the
        /// enclave); the paper's setup is on the order of tens of µs.
        access_us: u64,
    },
    /// SGX Platform Services persistent counters: rollback-protected but
    /// 30–187 ms per access and a limited write budget.
    SgxPersistentCounter {
        /// One access in microseconds.
        access_us: u64,
    },
    /// A TPM-backed counter: rollback-protected, 80–200 ms per access.
    Tpm {
        /// One access in microseconds.
        access_us: u64,
    },
    /// An ADAM-CS-style asynchronous monotonic counter service: rollback
    /// protected with access latency below 10 ms.
    AdamCs {
        /// One access in microseconds.
        access_us: u64,
    },
    /// A custom latency point, used by the Figure 8 sweep.
    Custom {
        /// One access in microseconds.
        access_us: u64,
        /// Whether the state resists rollback by the host.
        rollback_protected: bool,
    },
}

impl TrustedHardware {
    /// The paper's default: counters inside the SGX enclave, ~20 µs/access.
    pub fn default_enclave() -> Self {
        TrustedHardware::SgxEnclaveCounter { access_us: 20 }
    }

    /// Typical SGX persistent counter (~60 ms/access, middle of the 30–187 ms
    /// range reported by the paper).
    pub fn typical_persistent_counter() -> Self {
        TrustedHardware::SgxPersistentCounter { access_us: 60_000 }
    }

    /// Typical TPM (~100 ms/access).
    pub fn typical_tpm() -> Self {
        TrustedHardware::Tpm { access_us: 100_000 }
    }

    /// Latency of one access to the trusted component, in microseconds.
    pub fn access_latency_us(&self) -> u64 {
        match *self {
            TrustedHardware::SgxEnclaveCounter { access_us }
            | TrustedHardware::SgxPersistentCounter { access_us }
            | TrustedHardware::Tpm { access_us }
            | TrustedHardware::AdamCs { access_us }
            | TrustedHardware::Custom { access_us, .. } => access_us,
        }
    }

    /// Whether the hardware's state survives a malicious host attempting a
    /// rollback (§6): `false` means a rollback attack is possible.
    pub fn rollback_protected(&self) -> bool {
        match *self {
            TrustedHardware::SgxEnclaveCounter { .. } => false,
            TrustedHardware::SgxPersistentCounter { .. }
            | TrustedHardware::Tpm { .. }
            | TrustedHardware::AdamCs { .. } => true,
            TrustedHardware::Custom {
                rollback_protected, ..
            } => rollback_protected,
        }
    }

    /// Human-readable name of the hardware class.
    pub fn name(&self) -> &'static str {
        match self {
            TrustedHardware::SgxEnclaveCounter { .. } => "SGX enclave counter",
            TrustedHardware::SgxPersistentCounter { .. } => "SGX persistent counter",
            TrustedHardware::Tpm { .. } => "TPM",
            TrustedHardware::AdamCs { .. } => "ADAM-CS",
            TrustedHardware::Custom { .. } => "custom",
        }
    }

    /// The latency points of the Figure 8 sweep (in milliseconds), as listed
    /// in the paper's table: 1.0, 1.5, 2.0, 2.5, 3.0, 10, 30, 100, 200.
    pub fn figure8_sweep_ms() -> Vec<f64> {
        vec![1.0, 1.5, 2.0, 2.5, 3.0, 10.0, 30.0, 100.0, 200.0]
    }
}

impl fmt::Display for TrustedHardware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} µs/access, rollback-{})",
            self.name(),
            self.access_latency_us(),
            if self.rollback_protected() {
                "protected"
            } else {
                "vulnerable"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclave_counters_are_fast_but_rollbackable() {
        let hw = TrustedHardware::default_enclave();
        assert!(hw.access_latency_us() < 1_000);
        assert!(!hw.rollback_protected());
    }

    #[test]
    fn persistent_hardware_is_slow_but_protected() {
        for hw in [
            TrustedHardware::typical_persistent_counter(),
            TrustedHardware::typical_tpm(),
        ] {
            assert!(hw.access_latency_us() >= 30_000, "{hw}");
            assert!(hw.rollback_protected(), "{hw}");
        }
    }

    #[test]
    fn custom_point_controls_both_axes() {
        let hw = TrustedHardware::Custom {
            access_us: 2_500,
            rollback_protected: true,
        };
        assert_eq!(hw.access_latency_us(), 2_500);
        assert!(hw.rollback_protected());
    }

    #[test]
    fn figure8_sweep_matches_paper_rows() {
        let sweep = TrustedHardware::figure8_sweep_ms();
        assert_eq!(sweep.len(), 9);
        assert_eq!(sweep[0], 1.0);
        assert_eq!(*sweep.last().unwrap(), 200.0);
    }

    #[test]
    fn display_mentions_vulnerability() {
        assert!(TrustedHardware::default_enclave()
            .to_string()
            .contains("rollback-vulnerable"));
        assert!(TrustedHardware::typical_tpm()
            .to_string()
            .contains("rollback-protected"));
    }
}
