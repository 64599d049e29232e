//! Figure 5: the cost of trusted counters (TC) and signature attestations
//! (SA) on single-worker PBFT.
//!
//! Bars (as in the paper):
//!   [a] standard PBFT;
//!   [b] primary accesses a TC in the PrePrepare phase;
//!   [c] primary TC + SA in PrePrepare;
//!   [d] primary TC + SA in all three phases;
//!   [e] all replicas TC in PrePrepare;
//!   [f] all replicas TC + SA in PrePrepare;
//!   [g] all replicas TC + SA in all three phases.

use flexitrust::prelude::*;
use flexitrust::protocol::PbftFamilyEngine;
use flexitrust::sim::{build_replicas, ReplicaSetup};
use flexitrust::trusted::{AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry};
use flexitrust::types::{PrimaryAttest, ProtocolStyle, ReplicaAttest};
use flexitrust_bench::{eval_spec, print_table};

struct Bar {
    label: &'static str,
    primary_attest: PrimaryAttest,
    replica_attest: ReplicaAttest,
    all_replicas_have_tc: bool,
    signed: bool,
}

fn bars() -> Vec<Bar> {
    use PrimaryAttest as P;
    use ReplicaAttest as R;
    vec![
        Bar {
            label: "[a] standard Pbft",
            primary_attest: P::None,
            replica_attest: R::None,
            all_replicas_have_tc: false,
            signed: false,
        },
        Bar {
            label: "[b] P: TC in Prep",
            primary_attest: P::HostCounter,
            replica_attest: R::None,
            all_replicas_have_tc: false,
            signed: false,
        },
        Bar {
            label: "[c] P: TC+SA in Prep",
            primary_attest: P::HostCounter,
            replica_attest: R::None,
            all_replicas_have_tc: false,
            signed: true,
        },
        Bar {
            label: "[d] P: TC+SA all phases",
            primary_attest: P::HostCounter,
            replica_attest: R::Counter,
            all_replicas_have_tc: false,
            signed: true,
        },
        Bar {
            label: "[e] All: TC in Prep",
            primary_attest: P::HostCounter,
            replica_attest: R::None,
            all_replicas_have_tc: true,
            signed: false,
        },
        Bar {
            label: "[f] All: TC+SA in Prep",
            primary_attest: P::HostCounter,
            replica_attest: R::None,
            all_replicas_have_tc: true,
            signed: true,
        },
        Bar {
            label: "[g] All: TC+SA all phases",
            primary_attest: P::HostCounter,
            replica_attest: R::Counter,
            all_replicas_have_tc: true,
            signed: true,
        },
    ]
}

fn run_bar(bar: &Bar) -> f64 {
    let mut spec = eval_spec(ProtocolId::Pbft, 2);
    spec.workers_per_replica = 1; // single worker thread, as in the paper
    spec.cost = if bar.signed {
        CostModel::calibrated()
    } else {
        CostModel::unsigned_attestations()
    };
    let config = spec.system_config();
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    let style = ProtocolStyle {
        primary_attest: bar.primary_attest,
        replica_attest: bar.replica_attest,
        ..ProtocolId::Pbft.style()
    };
    let replicas: Vec<ReplicaSetup> = if bar.primary_attest == PrimaryAttest::None {
        build_replicas(&spec)
    } else {
        (0..config.n)
            .map(|i| {
                let id = ReplicaId(i as u32);
                // Bars [b]-[d]: only the primary holds an (active) enclave;
                // bars [e]-[g]: every replica does.
                let enclave = if i == 0 || bar.all_replicas_have_tc {
                    Some(Enclave::shared(
                        EnclaveConfig::counter_only(id, AttestationMode::Counting)
                            .with_hardware(spec.hardware),
                    ))
                } else {
                    None
                };
                ReplicaSetup {
                    engine: Box::new(PbftFamilyEngine::new(
                        config.clone(),
                        id,
                        style,
                        enclave.clone(),
                        Some(registry.clone()),
                    )),
                    enclave,
                }
            })
            .collect()
    };
    Simulation::with_replicas(spec, replicas)
        .run()
        .throughput_tps
}

fn main() {
    let all = bars();
    let baseline = run_bar(&all[0]);
    let rows: Vec<String> = all
        .iter()
        .map(|bar| {
            let tput = run_bar(bar);
            format!(
                "{:<28} {:>10.0} txn/s   ({:>5.2}x of [a])",
                bar.label,
                tput,
                tput / baseline
            )
        })
        .collect();
    print_table(
        "Figure 5: impact of trusted counters (TC) and signature attestations (SA) on single-worker Pbft",
        "Variant                          throughput        relative",
        &rows,
    );
}
