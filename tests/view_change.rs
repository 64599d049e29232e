//! The view change, end to end through every engine the factory builds.
//!
//! No other root test runs one (the chaos presets crash backups; the figure
//! shapes never lose the primary), so the sub-protocol the paper says Flexi-BFT
//! and Flexi-ZZ inherit from PBFT (§8.2, §8.3) was exercised by engine unit
//! tests only. Here it runs, table-driven over all eleven protocols (none has
//! to be skipped), on the shared `TestNet`: a silent primary, every backup's
//! timer, then quiescence.

use flexitrust::host::build_replica;
use flexitrust::prelude::*;
use flexitrust::protocol::testing::TestNet;
use flexitrust::trusted::AttestationMode;
use flexitrust::types::KvOp;
use std::sync::Arc;

fn cluster(protocol: ProtocolId) -> Vec<Box<dyn ConsensusEngine>> {
    let mut config = SystemConfig::for_protocol(protocol, 1);
    config.batch_size = 1;
    let config = Arc::new(config);
    let registry = EnclaveRegistry::deterministic(config.n, AttestationMode::Counting);
    config
        .replicas()
        .map(|id| {
            let hardware = TrustedHardware::default_enclave();
            build_replica(
                protocol,
                Arc::clone(&config),
                id,
                registry.clone(),
                hardware,
            )
            .engine
        })
        .collect()
}

fn txns(requests: std::ops::Range<u64>) -> Vec<Transaction> {
    let update = |key| KvOp::Update {
        key,
        value: vec![7].into(),
    };
    requests
        .map(|i| Transaction::new(ClientId(1), RequestId(i), update(i)))
        .collect()
}

#[test]
fn a_silent_primary_is_replaced_in_every_protocol() {
    for protocol in ProtocolId::ALL {
        let name = protocol.name();
        let mut engines = cluster(protocol);
        let n = engines.len();
        let mut net = TestNet::new(n);

        // View 0 commits a prefix everywhere.
        net.client_request(&mut engines, 0, txns(1..4));
        net.run(&mut engines, 300);
        let prefix: Vec<_> = engines.iter().map(|e| e.state_digest()).collect();
        for engine in &engines {
            assert_eq!(engine.last_executed(), SeqNum(3), "{name} {}", engine.id());
        }

        // The primary falls silent (nothing reaches it, it says nothing) and
        // every backup's view-change timer fires.
        net.pause(0);
        for backup in 1..n {
            net.fire(&mut engines, backup, TimerKind::ViewChange);
        }
        net.run(&mut engines, 300);

        // Every backup is in view 1 under replica 1, the executed prefix is
        // what it was, and nobody is left with a view-change timer running —
        // least of all the new primary, which would vote itself out of its
        // own view when it expired.
        for (i, engine) in engines.iter().enumerate().skip(1) {
            assert_eq!(engine.view(), View(1), "{name} {}", engine.id());
            assert!(!engine.replica().in_view_change(), "{name} {}", engine.id());
            assert_eq!(engine.last_executed(), SeqNum(3), "{name} {}", engine.id());
            assert_eq!(engine.state_digest(), prefix[i], "{name} {}", engine.id());
            assert!(
                !net.timer_armed(i, TimerKind::ViewChange),
                "{name} {} still has its view-change timer armed",
                engine.id()
            );
        }
        assert!(engines[1].is_primary(), "{name}");

        // The new primary proposes: a fresh request becomes a PrePrepare in
        // view 1, and the live replicas execute it.
        net.client_request(&mut engines, 1, txns(4..5));
        let proposed = net.take_inbox(1);
        assert!(
            proposed.iter().any(|(_, msg)| matches!(
                msg,
                Message::PrePrepare {
                    view: View(1),
                    seq: SeqNum(4),
                    ..
                }
            )),
            "{name}: the new primary proposed {proposed:?}"
        );
        for (from, msg) in proposed {
            net.deliver(&mut engines, 1, from, msg);
        }
        net.run(&mut engines, 300);
        // CheapBFT cannot commit it: its active set is replicas 0..=f, the
        // silent replica is one of them, and the switch to MinBFT that would
        // let the passive replica vote is not implemented.
        let committed = SeqNum(if protocol == ProtocolId::CheapBft {
            3
        } else {
            4
        });
        for engine in engines.iter().skip(1) {
            assert_eq!(engine.last_executed(), committed, "{name} {}", engine.id());
        }
    }
}
