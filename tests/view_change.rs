//! The view change, end to end through every engine the factory builds.
//!
//! No other root test runs one (the chaos presets crash backups; the figure
//! shapes never lose the primary), so the sub-protocol the paper says Flexi-BFT
//! and Flexi-ZZ inherit from PBFT (§8.2, §8.3) was exercised by engine unit
//! tests only. Here it runs, table-driven over all eleven protocols, on the
//! shared `TestNet`: a silent primary, every backup's timer, then
//! quiescence — plus the three ways a view change used to go wrong: a client
//! retry that armed a timer nothing disarmed, a proposal accepted everywhere
//! but committed nowhere, and a speculative execution the new view drops.

use flexitrust::prelude::*;
use flexitrust::protocol::testing::{self, txns, TestNet};
use flexitrust::protocol::Action;

#[test]
fn a_silent_primary_is_replaced_in_every_protocol() {
    for protocol in ProtocolId::ALL {
        let name = protocol.name();
        let (mut engines, _) = testing::cluster(protocol, 1, |config| config.batch_size = 1);
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

/// Delivers queued messages until quiescence, dropping every one `lost`
/// picks out of the inbox of the replica it names.
fn run_losing(
    engines: &mut [Box<dyn ConsensusEngine>],
    net: &mut TestNet,
    lost: impl Fn(usize, &Message) -> bool,
) {
    for _ in 0..300 {
        let mut delivered = false;
        for to in 0..engines.len() {
            for (from, msg) in net.take_inbox(to) {
                delivered = true;
                if !lost(to, &msg) {
                    net.deliver(engines, to, from, msg);
                }
            }
        }
        if !delivered {
            return;
        }
    }
}

#[test]
fn a_client_retry_that_commits_leaves_no_view_change_behind() {
    for protocol in ProtocolId::ALL {
        let name = protocol.name();
        let (mut engines, _) = testing::cluster(protocol, 1, |config| config.batch_size = 1);
        let mut net = TestNet::new(engines.len());
        let backup = 2;

        // An unhappy client re-sends a request the backup never saw: it
        // forwards the request to the primary and arms a timer.
        let txn = txns(1..2).remove(0);
        let mut out = Outbox::new();
        engines[backup].on_message(ReplicaId(2), Message::ClientRetry { txn }, &mut out);
        let armed: Vec<TimerKind> = out
            .actions()
            .iter()
            .filter_map(|action| match action {
                Action::SetTimer { timer, .. } => Some(*timer),
                _ => None,
            })
            .collect();
        assert_eq!(armed.len(), 1, "{name}: armed {armed:?}");
        for (to, msg) in out.sends() {
            net.deliver(&mut engines, to.as_usize(), ReplicaId(2), msg.clone());
        }
        net.run(&mut engines, 300);
        assert_eq!(engines[backup].last_executed(), SeqNum(1), "{name}");

        // The primary was healthy: the request committed. Whatever the
        // retry armed, its expiry must not turn the backup against it.
        net.fire(&mut engines, backup, armed[0]);
        assert!(!engines[backup].replica().in_view_change(), "{name}");
        assert!(
            net.take_inbox(0)
                .iter()
                .all(|(_, msg)| msg.kind() != "ViewChange"),
            "{name}: the backup voted against a healthy primary"
        );
    }
}

#[test]
fn a_proposal_accepted_everywhere_but_committed_nowhere_commits_in_the_next_view() {
    for protocol in ProtocolId::ALL {
        let name = protocol.name();
        let (mut engines, _) = testing::cluster(protocol, 1, |config| config.batch_size = 1);
        let n = engines.len();
        let mut net = TestNet::new(n);

        // View 0 commits 1..=3 everywhere.
        net.client_request(&mut engines, 0, txns(1..4));
        net.run(&mut engines, 300);

        // Proposal 4 reaches every replica; every vote on it is lost.
        net.client_request(&mut engines, 0, txns(4..5));
        run_losing(&mut engines, &mut net, |_, msg| msg.kind() != "PrePrepare");

        // The primary falls silent and every backup's timer fires. The
        // client's retry of request 4 reaches the new primary once its view
        // is in place.
        net.pause(0);
        for backup in 1..n {
            net.fire(&mut engines, backup, TimerKind::ViewChange);
        }
        net.run(&mut engines, 300);
        let retry = Message::ClientRetry {
            txn: txns(4..5).remove(0),
        };
        net.deliver(&mut engines, 1, ReplicaId(1), retry);
        net.run(&mut engines, 300);

        // CheapBFT's silent primary is one of its two active replicas: the
        // view cannot gather a quorum without the passive one.
        let committed = SeqNum(if protocol == ProtocolId::CheapBft {
            3
        } else {
            4
        });
        for engine in engines.iter().skip(1) {
            assert_eq!(engine.view(), View(1), "{name} {}", engine.id());
            assert_eq!(engine.last_executed(), committed, "{name} {}", engine.id());
        }
    }
}

#[test]
fn an_overshooting_speculative_replica_rolls_back_and_rejoins_the_others() {
    let speculative = [
        ProtocolId::Zyzzyva,
        ProtocolId::MinZz,
        ProtocolId::FlexiZz,
        ProtocolId::OFlexiZz,
    ];
    for protocol in speculative {
        let name = protocol.name();
        let (mut engines, _) = testing::cluster(protocol, 1, |config| {
            config.batch_size = 1;
            config.checkpoint_interval = 2;
        });
        let n = engines.len();
        let last = n - 1;
        let mut net = TestNet::new(n);

        // The last replica alone receives proposal 4 and executes it
        // speculatively; boundary 2 turns stable everywhere.
        net.client_request(&mut engines, 0, txns(1..5));
        run_losing(&mut engines, &mut net, |to, msg| {
            to != last && msg.seq() == Some(SeqNum(4))
        });
        assert_eq!(engines[last].last_executed(), SeqNum(4), "{name}");
        assert_eq!(
            engines[last].replica().low_water_mark(),
            SeqNum(2),
            "{name}"
        );

        // The others change view without it. Nobody else executed 4, so the
        // new view re-proposes 3 only and the last replica must discard 4:
        // back to the state at 2, then 3 again, like everyone else.
        net.pause(last);
        for voter in 0..last {
            net.fire(&mut engines, voter, TimerKind::ViewChange);
        }
        net.run(&mut engines, 300);
        assert_eq!(engines[1].view(), View(1), "{name}");
        for (from, msg) in net.take_inbox(last) {
            net.deliver(&mut engines, last, from, msg);
        }
        assert_eq!(engines[last].view(), View(1), "{name}");
        assert_eq!(engines[last].last_executed(), SeqNum(3), "{name}");
        assert_eq!(
            engines[last].state_digest(),
            engines[1].state_digest(),
            "{name}"
        );
    }
}
