//! The one place a [`ProtocolId`] becomes a running engine.

use flexitrust_baselines::{CheapBft, MinBft, MinZz, OpbftEa, Pbft, PbftEa, Zyzzyva};
use flexitrust_core::{FlexiBft, FlexiZz};
use flexitrust_protocol::ConsensusEngine;
use flexitrust_trusted::{Enclave, EnclaveConfig, EnclaveRegistry, SharedEnclave, TrustedHardware};
use flexitrust_types::{ProtocolId, ReplicaId, SystemConfig};
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

impl ReplicaSetup {
    fn plain(engine: impl ConsensusEngine + 'static) -> Self {
        ReplicaSetup {
            engine: Box::new(engine),
            enclave: None,
        }
    }

    fn trusted<E: ConsensusEngine + 'static>(
        enclave: SharedEnclave,
        engine: impl FnOnce(SharedEnclave) -> E,
    ) -> Self {
        ReplicaSetup {
            engine: Box::new(engine(Arc::clone(&enclave))),
            enclave: Some(enclave),
        }
    }
}

/// Builds replica `id` of a `protocol` cluster. Every engine of one cluster
/// shares `config` and the registry's key table by reference count. The
/// enclave attests in the registry's mode — counting for the simulator
/// (which charges signing *cost* through its cost model instead), real
/// Ed25519 for the threaded hosts — on the given `hardware`.
pub fn build_replica(
    protocol: ProtocolId,
    config: Arc<SystemConfig>,
    id: ReplicaId,
    registry: EnclaveRegistry,
    hardware: TrustedHardware,
) -> ReplicaSetup {
    let mode = registry.mode();
    let counter = || Enclave::shared(EnclaveConfig::counter_only(id, mode).with_hardware(hardware));
    let log = || Enclave::shared(EnclaveConfig::log_based(id, mode).with_hardware(hardware));
    match protocol {
        ProtocolId::Pbft => ReplicaSetup::plain(Pbft::engine(config, id)),
        ProtocolId::Zyzzyva => ReplicaSetup::plain(Zyzzyva::engine(config, id)),
        ProtocolId::PbftEa => {
            ReplicaSetup::trusted(log(), |e| PbftEa::engine(config, id, e, registry))
        }
        ProtocolId::OpbftEa => {
            ReplicaSetup::trusted(log(), |e| OpbftEa::engine(config, id, e, registry))
        }
        ProtocolId::MinBft => {
            ReplicaSetup::trusted(counter(), |e| MinBft::engine(config, id, e, registry))
        }
        ProtocolId::MinZz => {
            ReplicaSetup::trusted(counter(), |e| MinZz::engine(config, id, e, registry))
        }
        ProtocolId::CheapBft => {
            ReplicaSetup::trusted(counter(), |e| CheapBft::engine(config, id, e, registry))
        }
        ProtocolId::FlexiBft | ProtocolId::OFlexiBft => {
            ReplicaSetup::trusted(counter(), |e| FlexiBft::new(config, id, e, registry))
        }
        ProtocolId::FlexiZz | ProtocolId::OFlexiZz => {
            ReplicaSetup::trusted(counter(), |e| FlexiZz::new(config, id, e, registry))
        }
    }
}
