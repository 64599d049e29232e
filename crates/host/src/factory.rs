//! The one place a configuration becomes a running engine.

use flexitrust_baselines::PbftFamilyEngine;
use flexitrust_protocol::ConsensusEngine;
use flexitrust_trusted::{Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave, TrustedHardware};
use flexitrust_types::{ReplicaId, SystemConfig};
use std::sync::Arc;

/// One replica as every host starts it: its engine and (when the protocol
/// uses one) its trusted component, which the simulator observes to charge
/// access latency.
pub struct ReplicaSetup {
    /// The protocol engine.
    pub engine: Box<dyn ConsensusEngine>,
    /// The replica's trusted component, if the protocol uses one.
    pub enclave: Option<SharedEnclave>,
}

/// Builds replica `id` of a `config.protocol` cluster: the one engine with
/// the protocol's row, and the enclave the row's primary attestation needs.
/// Every engine of one cluster shares `config` and the registry's key table
/// by reference count. The enclave attests in the registry's mode —
/// counting for the simulator (which charges signing *cost* through its
/// cost model instead), real Ed25519 for the threaded hosts — on the given
/// `hardware`.
pub fn build_replica(
    config: Arc<SystemConfig>,
    id: ReplicaId,
    registry: EnclaveRegistry,
    hardware: TrustedHardware,
) -> ReplicaSetup {
    let style = config.protocol.style();
    let enclave = EnclaveConfig::for_style(&style, id, registry.mode())
        .map(|enclave| Enclave::shared(enclave.with_hardware(hardware)));
    let engine = PbftFamilyEngine::new(config, id, style, enclave.clone(), Some(registry));
    ReplicaSetup {
        engine: Box::new(engine),
        enclave,
    }
}
