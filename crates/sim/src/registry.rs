//! Builds engine clusters for every protocol in the repository.

use crate::spec::ScenarioSpec;
use flexitrust_host::build_replica;
pub use flexitrust_host::ReplicaSetup;
use flexitrust_trusted::{AttestationMode, EnclaveRegistry};
use flexitrust_types::ReplicaId;
use std::sync::Arc;

/// Builds the full replica set for a scenario.
///
/// All enclaves use counting-mode attestations (structurally checked but not
/// cryptographically signed) so that simulating millions of messages stays
/// cheap; the *cost* of signing/verifying is charged by the
/// [`crate::cost::CostModel`] instead.
pub fn build_replicas(spec: &ScenarioSpec) -> Vec<ReplicaSetup> {
    // The one allocation the whole cluster shares: every engine holds this
    // same `Arc`, and the registry's key table is itself Arc-backed, so
    // replica construction is reference-count bumps from here on.
    let config = Arc::new(spec.system_config());
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    (0..config.n)
        .map(|i| {
            build_replica(
                spec.protocol,
                Arc::clone(&config),
                ReplicaId(i as u32),
                registry.clone(),
                spec.hardware,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexitrust_types::ProtocolId;

    #[test]
    fn every_protocol_builds_the_right_cluster_size() {
        for protocol in ProtocolId::ALL {
            let spec = ScenarioSpec::quick_test(protocol);
            let replicas = build_replicas(&spec);
            assert_eq!(replicas.len(), spec.replicas(), "{protocol}");
            assert_eq!(replicas[0].engine.id(), ReplicaId(0));
            assert_eq!(
                replicas[0].enclave.is_some(),
                protocol.uses_trusted_component(),
                "{protocol}"
            );
        }
    }

    #[test]
    fn enclaves_inherit_the_scenario_hardware() {
        let mut spec = ScenarioSpec::quick_test(ProtocolId::MinBft);
        spec.hardware = flexitrust_trusted::TrustedHardware::Custom {
            access_us: 5_000,
            rollback_protected: true,
        };
        let replicas = build_replicas(&spec);
        assert_eq!(
            replicas[0].enclave.as_ref().unwrap().access_latency_us(),
            5_000
        );
    }

    #[test]
    fn oflexi_variants_are_sequential() {
        let spec = ScenarioSpec::quick_test(ProtocolId::OFlexiZz);
        assert_eq!(spec.system_config().max_in_flight, 1);
        let replicas = build_replicas(&spec);
        assert!(!replicas[0].engine.properties().out_of_order);
    }
}
