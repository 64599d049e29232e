//! What each protocol is and how it behaves, over the engines every host
//! runs: the design table pinned for all eleven protocol ids, the
//! benchmark's trace-host forwards checked against `build_replica`, and the
//! per-protocol behaviour of the paper's descriptions, each cluster built
//! through `build_replica`.

use flexitrust::baselines::{FlexiBft, FlexiZz, MinBft, Pbft};
use flexitrust::crypto::make_batch;
use flexitrust::protocol::host::build_replica;
use flexitrust::protocol::testing::{self, run_cluster_until_quiescent, txns, TestNet};
use flexitrust::protocol::{
    Action, ConsensusEngine, MemoryFootprint, Message, Outbox, ProtocolProperties, TimerKind,
    TrustedAbstraction,
};
use flexitrust::trusted::{
    AttestKind, Attestation, AttestationMode, Enclave, EnclaveConfig, EnclaveRegistry,
    SharedEnclave, TrustedHardware,
};
use flexitrust::types::{
    Batch, Digest, ProtocolId, QuorumRule, ReplicaId, ReplicationFactor, SeqNum, SystemConfig,
    Transaction, View,
};
use std::sync::Arc;

type Engines = Vec<Box<dyn ConsensusEngine>>;

/// Delivers every message between `engines` until quiescence.
fn run(engines: &mut Engines, inject: Vec<(usize, Vec<Transaction>)>) -> usize {
    run_cluster_until_quiescent(engines, inject, 300)
}

/// The primary's first `PrePrepare` for `txns`.
fn proposal(primary: &mut dyn ConsensusEngine, txns: Vec<Transaction>) -> Message {
    let mut out = Outbox::new();
    primary.on_client_request(txns, &mut out);
    out.broadcasts()[0].clone()
}

/// Delivers a `PrePrepare` and reports whether the replica accepted it,
/// i.e. voted for it.
fn accepts(engine: &mut dyn ConsensusEngine, from: u32, msg: Message) -> bool {
    let mut out = Outbox::new();
    engine.on_message(ReplicaId(from), msg, &mut out);
    out.broadcasts().iter().any(|m| m.kind() == "Prepare")
}

/// Delivers `voter`'s `Prepare` for `digest` at sequence number 1.
fn prepare(engine: &mut dyn ConsensusEngine, voter: u32, digest: Digest) -> Outbox {
    let vote = Message::Prepare {
        view: View(0),
        seq: SeqNum(1),
        digest,
        attestation: None,
    };
    let mut out = Outbox::new();
    engine.on_message(ReplicaId(voter), vote, &mut out);
    out
}

/// The trusted component a replica holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnclaveKind {
    None,
    Counter,
    Log,
}

/// What `build_replica` gives replica 0 of a `protocol` cluster: no
/// enclave, or one that does or does not hold trusted logs.
fn enclave_kind(protocol: ProtocolId) -> EnclaveKind {
    let config = Arc::new(SystemConfig::for_protocol(protocol, 1));
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    let replica = build_replica(
        config,
        ReplicaId(0),
        registry,
        TrustedHardware::default_enclave(),
    );
    match replica.enclave {
        None => EnclaveKind::None,
        Some(enclave) if enclave.log_append(0, None, Digest::ZERO).is_ok() => EnclaveKind::Log,
        Some(_) => EnclaveKind::Counter,
    }
}

#[test]
fn every_protocol_row_is_pinned() {
    use EnclaveKind as E;
    use MemoryFootprint as M;
    use ProtocolId as P;
    use QuorumRule as Q;
    use ReplicationFactor::{ThreeFPlusOne as N3, TwoFPlusOne as N2};
    use TrustedAbstraction as T;
    // Each row: the protocol; Figure 1's columns as the properties list
    // them (n, trusted abstraction, BFT liveness, out of order, trusted
    // memory, primary-only TC, phases, reply quorum, speculative); the
    // rendered line; `n` and the default window at f = 1 and f = 8; and the
    // enclave `build_replica` gives a replica.
    #[rustfmt::skip]
    let table = [
        (P::Pbft, N3, T::None, true, true, M::None, false, 3, Q::FPlusOne, false,
         "Pbft        |  3f+1 | -             |   yes    |     yes      | -                 |     no     | 3 phase(s)",
         [4, 25], [256, 256], E::None),
        (P::Zyzzyva, N3, T::None, true, true, M::None, false, 1, Q::AllReplicas, true,
         "Zyzzyva     |  3f+1 | -             |   yes    |     yes      | -                 |     no     | 1 phase(s)",
         [4, 25], [256, 256], E::None),
        (P::PbftEa, N2, T::Log, false, false, M::High, false, 3, Q::FPlusOne, false,
         "Pbft-EA     |  2f+1 | Log           |    no    |      no      | High              |     no     | 3 phase(s)",
         [3, 17], [1, 1], E::Log),
        (P::MinBft, N2, T::Counter, false, false, M::Low, false, 2, Q::FPlusOne, false,
         "MinBFT      |  2f+1 | Counter       |    no    |      no      | Low               |     no     | 2 phase(s)",
         [3, 17], [1, 1], E::Counter),
        (P::MinZz, N2, T::Counter, false, false, M::Low, false, 1, Q::AllReplicas, true,
         "MinZZ       |  2f+1 | Counter       |    no    |      no      | Low               |     no     | 1 phase(s)",
         [3, 17], [1, 1], E::Counter),
        (P::OpbftEa, N2, T::Log, false, true, M::High, false, 3, Q::FPlusOne, false,
         "Opbft-ea    |  2f+1 | Log           |    no    |     yes      | High              |     no     | 3 phase(s)",
         [3, 17], [256, 256], E::Log),
        (P::CheapBft, N2, T::Counter, false, false, M::Low, false, 2, Q::FPlusOne, false,
         "CheapBFT    |  2f+1 | Counter       |    no    |      no      | Low               |     no     | 2 phase(s)",
         [3, 17], [1, 1], E::Counter),
        (P::FlexiBft, N3, T::Counter, true, true, M::Low, true, 2, Q::FPlusOne, false,
         "Flexi-BFT   |  3f+1 | Counter       |   yes    |     yes      | Low               |    yes     | 2 phase(s)",
         [4, 25], [256, 256], E::Counter),
        (P::FlexiZz, N3, T::Counter, true, true, M::Low, true, 1, Q::TwoFPlusOne, true,
         "Flexi-ZZ    |  3f+1 | Counter       |   yes    |     yes      | Low               |    yes     | 1 phase(s)",
         [4, 25], [256, 256], E::Counter),
        (P::OFlexiBft, N3, T::Counter, true, false, M::Low, true, 2, Q::FPlusOne, false,
         "oFlexi-BFT  |  3f+1 | Counter       |   yes    |      no      | Low               |    yes     | 2 phase(s)",
         [4, 25], [1, 1], E::Counter),
        (P::OFlexiZz, N3, T::Counter, true, false, M::Low, true, 1, Q::TwoFPlusOne, true,
         "oFlexi-ZZ   |  3f+1 | Counter       |   yes    |      no      | Low               |    yes     | 1 phase(s)",
         [4, 25], [1, 1], E::Counter),
    ];
    let rows = ProtocolProperties::figure1_rows();
    assert_eq!(rows.len(), table.len());
    for (row, pinned) in rows.into_iter().zip(table) {
        #[rustfmt::skip]
        let (id, replication, trusted_abstraction, bft_liveness, out_of_order,
             trusted_memory, primary_only_tc, phases, reply_quorum, speculative,
             line, n, window, enclave) = pinned;
        let expected = ProtocolProperties {
            id,
            replication,
            trusted_abstraction,
            bft_liveness,
            out_of_order,
            trusted_memory,
            primary_only_tc,
            phases,
            reply_quorum,
            speculative,
        };
        assert_eq!(row, expected, "{id}");
        assert_eq!(row.to_string(), line, "{id}");
        for (i, f) in [1, 8].into_iter().enumerate() {
            let config = SystemConfig::for_protocol(id, f);
            assert_eq!(config.n, n[i], "{id} n at f = {f}");
            assert_eq!(config.max_in_flight, window[i], "{id} window at f = {f}");
        }
        assert_eq!(enclave_kind(id), enclave, "{id}");
    }
}

/// The four builders the benchmark's trace host still calls build the
/// engine `build_replica` builds: the same cluster through either commits
/// the same batches to the same state.
#[test]
fn the_benchmark_forwards_build_what_build_replica_builds() {
    for protocol in [
        ProtocolId::Pbft,
        ProtocolId::MinBft,
        ProtocolId::FlexiBft,
        ProtocolId::FlexiZz,
    ] {
        let mut config = SystemConfig::for_protocol(protocol, 1);
        config.batch_size = 2;
        let config = Arc::new(config);
        let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
        let mut forwarded: Engines = config
            .replicas()
            .map(|id| {
                let (config, registry) = (Arc::clone(&config), registry.clone());
                let enclave =
                    Enclave::shared(EnclaveConfig::counter_only(id, AttestationMode::Counting));
                let engine = match protocol {
                    ProtocolId::Pbft => Pbft::engine(config, id),
                    ProtocolId::MinBft => MinBft::engine(config, id, enclave, registry),
                    ProtocolId::FlexiBft => FlexiBft::new(config, id, enclave, registry),
                    _ => FlexiZz::new(config, id, enclave, registry),
                };
                Box::new(engine) as Box<dyn ConsensusEngine>
            })
            .collect();
        let (mut built, _) = testing::cluster(protocol, 1, |c| c.batch_size = 2);
        let inject = || vec![(0, txns(1..7))];
        let delivered = run(&mut forwarded, inject());
        assert_eq!(run(&mut built, inject()), delivered, "{protocol}");
        for (a, b) in forwarded.iter().zip(&built) {
            let replica = format!("{protocol} replica {}", a.id());
            assert_eq!(a.last_executed(), SeqNum(3), "{replica}");
            assert_eq!(a.last_executed(), b.last_executed(), "{replica}");
            assert_eq!(a.state_digest(), b.state_digest(), "{replica}");
        }
    }
}

mod pbft {
    use super::*;

    #[test]
    fn commits_with_three_phases_and_parallel_slots() {
        let (mut engines, _) = testing::cluster(ProtocolId::Pbft, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..6))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(5));
            assert_eq!(e.executed_txns(), 5);
            assert_eq!(e.view().0, 0);
        }
    }

    #[test]
    fn tolerates_f_silent_backups() {
        // With f = 1 and 4 replicas, a backup that never hears anything
        // must not block commit.
        let (mut engines, _) = testing::cluster(ProtocolId::Pbft, 1, |c| c.batch_size = 2);
        let mut net = TestNet::new(engines.len());
        net.pause(3);
        net.client_request(&mut engines, 0, txns(1..3));
        net.run(&mut engines, 200);
        for e in engines.iter().take(3) {
            assert_eq!(e.executed_txns(), 2, "replica {}", e.id());
        }
        assert_eq!(engines[3].executed_txns(), 0);
    }
}

mod zyzzyva {
    use super::*;

    #[test]
    fn replicas_execute_speculatively_in_one_phase() {
        let (mut engines, _) = testing::cluster(ProtocolId::Zyzzyva, 1, |c| c.batch_size = 1);
        let delivered = run(&mut engines, vec![(0, txns(1..4))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(3));
        }
        // Single phase: only PrePrepare broadcasts (3 proposals × 4
        // replicas) plus nothing else.
        assert_eq!(delivered, 12);
    }

    #[test]
    fn speculative_replies_are_flagged_speculative() {
        let (mut engines, _) = testing::cluster(ProtocolId::Zyzzyva, 1, |c| c.batch_size = 1);
        let preprepare = proposal(&mut *engines[0], txns(1..2));
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert!(out.replies()[0].speculative);
    }
}

mod pbft_ea {
    use super::*;

    #[test]
    fn runs_with_2f_plus_1_replicas_and_small_quorums() {
        let (mut engines, _) = testing::cluster(ProtocolId::PbftEa, 1, |c| c.batch_size = 1);
        assert_eq!(engines.len(), 3);
        run(&mut engines, vec![(0, txns(1..3))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
        }
    }

    #[test]
    fn every_consensus_message_costs_a_trusted_log_access() {
        let (mut engines, enclaves) = testing::cluster(ProtocolId::PbftEa, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..2))]);
        // The primary logs its PrePrepare; every replica logs its Prepare and
        // its Commit. So each replica's enclave sees at least 2 log appends
        // and the primary's at least 3 — this O(n) access pattern per
        // consensus is the §6/Figure 8 cost FlexiTrust eliminates.
        let primary_appends = enclaves[0].stats().snapshot().log_appends;
        assert!(primary_appends >= 3, "primary appends = {primary_appends}");
        for enclave in &enclaves[1..] {
            let appends = enclave.stats().snapshot().log_appends;
            assert!(appends >= 2, "replica appends = {appends}");
        }
    }
}

mod opbft_ea {
    use super::*;

    #[test]
    fn cluster_commits_multiple_instances() {
        let (mut engines, _) = testing::cluster(ProtocolId::OpbftEa, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..5))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(4));
        }
    }
}

mod minbft {
    use super::*;

    #[test]
    fn commits_in_two_phases_with_f_plus_1_quorums() {
        let (mut engines, _) = testing::cluster(ProtocolId::MinBft, 2, |c| c.batch_size = 1); // n = 5
        run(&mut engines, vec![(0, txns(1..4))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(3));
            assert_eq!(e.executed_txns(), 3);
        }
    }

    #[test]
    fn every_replica_accesses_its_counter_per_consensus() {
        let (mut engines, enclaves) = testing::cluster(ProtocolId::MinBft, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..3))]);
        for (i, enclave) in enclaves.iter().enumerate() {
            let appends = enclave.stats().snapshot().counter_appends;
            assert!(
                appends >= 2,
                "replica {i} made only {appends} counter accesses"
            );
        }
    }

    #[test]
    fn counter_values_track_sequence_numbers() {
        let (mut engines, enclaves) = testing::cluster(ProtocolId::MinBft, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..5))]);
        // The primary bound batches 1..=4 to its counter.
        assert_eq!(enclaves[0].counter_value(0), Some(4));
    }
}

mod minzz {
    use super::*;

    #[test]
    fn executes_speculatively_in_a_single_phase() {
        let (mut engines, _) = testing::cluster(ProtocolId::MinZz, 1, |c| c.batch_size = 1);
        let delivered = run(&mut engines, vec![(0, txns(1..3))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
        }
        // 2 proposals × 3 replicas; no vote traffic.
        assert_eq!(delivered, 6);
    }

    #[test]
    fn only_the_primary_attests_per_consensus_but_it_is_still_per_message() {
        let (mut engines, enclaves) = testing::cluster(ProtocolId::MinZz, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..4))]);
        // The primary attests each PrePrepare; backups execute speculatively
        // and (in the failure-free path) make no counter accesses.
        assert_eq!(enclaves[0].stats().snapshot().counter_appends, 3);
    }
}

mod cheapbft {
    use super::*;

    #[test]
    fn active_replicas_commit_with_f_plus_1_votes() {
        let (mut engines, _) = testing::cluster(ProtocolId::CheapBft, 1, |c| c.batch_size = 1); // n = 3, active = 2
        run(&mut engines, vec![(0, txns(1..3))]);
        // Active replicas (0 and 1) execute; the passive replica also learns
        // the result because it receives the same quorum of Prepare votes.
        assert_eq!(engines[0].last_executed(), SeqNum(2));
        assert_eq!(engines[1].last_executed(), SeqNum(2));
    }

    #[test]
    fn passive_replicas_never_access_their_counters() {
        let (mut engines, enclaves) =
            testing::cluster(ProtocolId::CheapBft, 1, |c| c.batch_size = 1);
        run(&mut engines, vec![(0, txns(1..3))]);
        let passive = enclaves.last().unwrap().stats().snapshot();
        assert_eq!(passive.counter_appends, 0);
        assert!(enclaves[0].stats().snapshot().counter_appends > 0);
    }
}

mod flexi_bft {
    use super::*;

    fn flexi_bft(batch: usize) -> (Engines, Vec<SharedEnclave>) {
        testing::cluster(ProtocolId::FlexiBft, 1, |c| c.batch_size = batch)
    }

    #[test]
    fn cluster_commits_in_two_phases_with_2f_plus_1_quorums() {
        let (mut engines, _) = flexi_bft(2);
        run(&mut engines, vec![(0, txns(1..5))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn primary_proposes_with_contiguous_counter_values() {
        let (mut engines, enclaves) = flexi_bft(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1..4), &mut out);
        let seqs: Vec<u64> = out
            .broadcasts()
            .iter()
            .filter_map(|m| m.seq().map(|s| s.0))
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(enclaves[0].stats().snapshot().counter_append_fs, 3);
        assert_eq!(engines[0].replica().outstanding(), 3);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let (mut engines, enclaves) = flexi_bft(1);
        run(&mut engines, vec![(0, txns(1..6))]);
        assert_eq!(enclaves[0].stats().snapshot().counter_append_fs, 5);
        for (i, enclave) in enclaves.iter().enumerate().skip(1) {
            let accesses = enclave.stats().snapshot().total_accesses();
            assert_eq!(accesses, 0, "backup {i} must not touch its enclave");
        }
    }

    #[test]
    fn backups_never_touch_their_enclave_on_acceptance() {
        let (mut engines, enclaves) = flexi_bft(1);
        let preprepare = proposal(&mut *engines[0], txns(1..2));
        assert!(accepts(&mut *engines[1], 0, preprepare));
        assert_eq!(enclaves[1].stats().snapshot().total_accesses(), 0);
    }

    #[test]
    fn acceptance_rejects_bad_attestations() {
        let (mut engines, _) = flexi_bft(1);
        let Message::PrePrepare {
            view,
            seq,
            batch,
            attestation,
        } = proposal(&mut *engines[0], txns(1..2))
        else {
            panic!("expected a PrePrepare");
        };
        let att = attestation.expect("attested");
        let pp = |seq, batch: &Batch, attestation: Option<Attestation>| Message::PrePrepare {
            view,
            seq,
            batch: batch.clone(),
            attestation,
        };

        // Missing attestation.
        assert!(!accepts(&mut *engines[1], 0, pp(seq, &batch, None)));
        // Attestation bound to a different sequence number.
        let mut wrong_seq = att.clone();
        wrong_seq.value = 9;
        assert!(!accepts(
            &mut *engines[1],
            0,
            pp(SeqNum(9), &batch, Some(wrong_seq))
        ));
        // Attestation bound to a different batch.
        let other = make_batch(txns(1..3));
        assert!(!accepts(
            &mut *engines[1],
            0,
            pp(seq, &other, Some(att.clone()))
        ));
        // Attestation of another kind.
        let mut created = att.clone();
        created.kind = AttestKind::CounterCreate;
        assert!(!accepts(
            &mut *engines[1],
            0,
            pp(seq, &batch, Some(created))
        ));
        // From a replica that is not the primary.
        assert!(!accepts(
            &mut *engines[2],
            1,
            pp(seq, &batch, Some(att.clone()))
        ));
        // The genuine proposal is still acceptable exactly once.
        assert!(accepts(
            &mut *engines[1],
            0,
            pp(seq, &batch, Some(att.clone()))
        ));
        assert!(!accepts(&mut *engines[1], 0, pp(seq, &batch, Some(att))));
    }

    #[test]
    fn parallel_instances_are_in_flight_simultaneously() {
        let (mut engines, _) = flexi_bft(1);
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1..11), &mut out);
        // All ten proposals go out before any commit, i.e. ten instances are
        // outstanding concurrently (G1).
        assert_eq!(engines[0].replica().outstanding(), 10);
        assert_eq!(out.broadcasts().len(), 10);
    }

    #[test]
    fn sequential_ablation_proposes_one_instance_at_a_time() {
        let (mut engines, _) = testing::cluster(ProtocolId::OFlexiBft, 1, |c| c.batch_size = 1);
        let primary = &mut engines[0];
        assert_eq!(primary.properties().id, ProtocolId::OFlexiBft);
        let mut out = Outbox::new();
        primary.on_client_request(txns(1..11), &mut out);
        assert_eq!(primary.replica().outstanding(), 1);
        assert_eq!(out.broadcasts().len(), 1);
    }

    #[test]
    fn commit_requires_2f_plus_1_prepares() {
        let (mut engines, _) = flexi_bft(1);
        let preprepare = proposal(&mut *engines[0], txns(1..2));
        let digest = match &preprepare {
            Message::PrePrepare { batch, .. } => batch.digest(),
            _ => unreachable!(),
        };
        // The proposal and two Prepare votes: not enough (2f + 1 = 3).
        engines[1].on_message(ReplicaId(0), preprepare, &mut Outbox::new());
        for voter in [1, 2] {
            prepare(&mut *engines[1], voter, digest);
        }
        assert_eq!(engines[1].last_executed(), SeqNum(0));
        // The third distinct vote commits.
        let out = prepare(&mut *engines[1], 3, digest);
        assert_eq!(engines[1].last_executed(), SeqNum(1));
        assert_eq!(out.replies().len(), 1);
        assert!(!out.replies()[0].speculative);
    }

    #[test]
    fn view_change_creates_a_fresh_counter_and_reproposes_contiguously() {
        let (mut engines, enclaves) = flexi_bft(1);
        // The primary proposed three batches; replica 1 accepted them all
        // but saw no votes.
        let mut out = Outbox::new();
        engines[0].on_client_request(txns(1..4), &mut out);
        for msg in out.broadcasts() {
            engines[1].on_message(ReplicaId(0), msg.clone(), &mut Outbox::new());
        }
        // Replica 1 suspects the primary: its ViewChange carries the three
        // accepted proposals. With two more votes it leads view 1.
        let mut out = Outbox::new();
        engines[1].on_timer(TimerKind::ViewChange, &mut out);
        let own = out.broadcasts()[0].clone();
        let mut out = Outbox::new();
        engines[1].on_message(ReplicaId(1), own, &mut out);
        for sender in [2, 3] {
            let vote = Message::ViewChange {
                new_view: View(1),
                last_stable: SeqNum(0),
                prepared: Vec::new(),
            };
            engines[1].on_message(ReplicaId(sender), vote, &mut out);
        }
        assert_eq!(engines[1].view(), View(1));
        assert!(engines[1].is_primary());
        assert_eq!(enclaves[1].stats().snapshot().counter_creates, 1);
        let Some(Message::NewView {
            supporting_votes,
            proposals,
            counter_attestation,
            ..
        }) = out.broadcasts().into_iter().find(|m| m.kind() == "NewView")
        else {
            panic!("no NewView");
        };
        assert_eq!(*supporting_votes, 3);
        let created = counter_attestation.as_ref().expect("creation proof");
        assert_eq!(created.kind, AttestKind::CounterCreate);
        let seqs: Vec<u64> = proposals.iter().map(|(s, _, _)| s.0).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(proposals.iter().all(|(_, _, a)| a.is_some()));
    }

    #[test]
    fn new_view_without_counter_attestation_is_rejected() {
        let (mut engines, _) = flexi_bft(1);
        let new_view = Message::NewView {
            view: View(1),
            supporting_votes: 3,
            proposals: vec![(SeqNum(1), Batch::noop(1), None)],
            counter_attestation: None,
        };
        engines[2].on_message(ReplicaId(1), new_view, &mut Outbox::new());
        assert_eq!(engines[2].view(), View(0));
    }

    #[test]
    fn view_change_preserves_accepted_batches() {
        let (mut engines, _) = flexi_bft(1);
        run(&mut engines, vec![(0, txns(1..4))]);
        // Everyone executed 3 batches in view 0. Now the primary goes silent
        // and the backups time out.
        let mut net = TestNet::new(engines.len());
        for backup in 1..engines.len() {
            net.fire(&mut engines, backup, TimerKind::ViewChange);
        }
        net.run(&mut engines, 100);
        // The backups are now in view 1 with replica 1 as primary, and the
        // previously executed state is intact.
        for e in engines.iter().skip(1) {
            assert_eq!(e.view(), View(1), "replica {}", e.id());
            assert_eq!(e.last_executed(), SeqNum(3));
        }
        assert!(engines[1].is_primary());
    }
}

mod flexi_zz {
    use super::*;

    fn flexi_zz(f: usize) -> (Engines, Vec<SharedEnclave>) {
        testing::cluster(ProtocolId::FlexiZz, f, |c| c.batch_size = 1)
    }

    #[test]
    fn single_phase_speculative_commit() {
        let (mut engines, _) = testing::cluster(ProtocolId::FlexiZz, 1, |c| c.batch_size = 2);
        run(&mut engines, vec![(0, txns(1..5))]);
        for e in &engines {
            assert_eq!(e.last_executed(), SeqNum(2));
            assert_eq!(e.executed_txns(), 4);
        }
    }

    #[test]
    fn replies_are_speculative() {
        let (mut engines, _) = flexi_zz(2);
        let preprepare = proposal(&mut *engines[0], txns(1..2));
        let mut out = Outbox::new();
        engines[3].on_message(ReplicaId(0), preprepare, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert!(out.replies()[0].speculative);
    }

    #[test]
    fn only_the_primary_accesses_its_trusted_counter() {
        let (mut engines, enclaves) = flexi_zz(1);
        run(&mut engines, vec![(0, txns(1..7))]);
        assert_eq!(enclaves[0].stats().snapshot().counter_append_fs, 6);
        for enclave in &enclaves[1..] {
            assert_eq!(enclave.stats().snapshot().total_accesses(), 0);
        }
    }

    #[test]
    fn fast_path_survives_f_unresponsive_replicas() {
        // With f = 1 (n = 4), one replica never receives anything; the other
        // three still execute and reply — enough for the 2f + 1 = 3 reply
        // rule, unlike MinZZ/Zyzzyva which would need all replicas.
        let (mut engines, _) = flexi_zz(1);
        let preprepare = proposal(&mut *engines[0], txns(1..2));
        let mut replies = 0;
        for engine in engines.iter_mut().take(3) {
            let mut out = Outbox::new();
            engine.on_message(ReplicaId(0), preprepare.clone(), &mut out);
            replies += out.replies().len();
        }
        assert_eq!(replies, 3);
        assert!(replies >= engines[0].config().quorum(QuorumRule::TwoFPlusOne));
    }

    #[test]
    fn client_retry_is_answered_from_the_reply_cache() {
        let (mut engines, _) = flexi_zz(1);
        let request = txns(1..2);
        run(&mut engines, vec![(0, request.clone())]);
        let mut out = Outbox::new();
        let retry = Message::ClientRetry {
            txn: request[0].clone(),
        };
        engines[2].on_message(ReplicaId(1), retry, &mut out);
        assert_eq!(out.replies().len(), 1);
        assert_eq!(out.replies()[0].request, request[0].request());
    }

    /// Hands replica 2 a retry of a request it never saw; returns the tag of
    /// the timer that arms.
    fn unserved_retry(engines: &mut Engines, out: &mut Outbox) -> u64 {
        let txn = txns(1..2).remove(0);
        engines[2].on_message(ReplicaId(1), Message::ClientRetry { txn }, out);
        out.actions()
            .iter()
            .find_map(|a| match a {
                Action::SetTimer {
                    timer: TimerKind::RequestForwarded(tag),
                    ..
                } => Some(*tag),
                _ => None,
            })
            .expect("a RequestForwarded timer")
    }

    #[test]
    fn unserved_client_retry_forwards_to_primary_and_arms_a_timer() {
        let (mut engines, _) = flexi_zz(1);
        let mut out = Outbox::new();
        unserved_retry(&mut engines, &mut out);
        assert_eq!(out.replies().len(), 0);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(*out.sends()[0].0, ReplicaId(0));
    }

    #[test]
    fn forwarded_request_timeout_triggers_a_view_change_vote() {
        let (mut engines, _) = flexi_zz(1);
        let tag = unserved_retry(&mut engines, &mut Outbox::new());
        let mut out = Outbox::new();
        engines[2].on_timer(TimerKind::RequestForwarded(tag), &mut out);
        let votes = out.broadcasts();
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].kind(), "ViewChange");
        assert!(engines[2].replica().in_view_change());
    }

    #[test]
    fn view_change_reproposes_executed_batches_and_preserves_results() {
        let (mut engines, _) = flexi_zz(1);
        run(&mut engines, vec![(0, txns(1..3))]);
        // Primary goes silent; every backup times out and votes.
        let mut net = TestNet::new(engines.len());
        for backup in 1..engines.len() {
            net.fire(&mut engines, backup, TimerKind::ViewChange);
        }
        net.run(&mut engines, 100);
        for e in engines.iter().skip(1) {
            assert_eq!(e.view(), View(1), "replica {}", e.id());
            assert_eq!(e.last_executed(), SeqNum(2), "replica {}", e.id());
        }
        assert!(engines[1].is_primary());
        assert!(engines[1].replica().view_changes_completed() >= 1);
    }
}
