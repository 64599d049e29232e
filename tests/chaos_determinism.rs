//! Chaos determinism pins.
//!
//! A [`ChaosPlan`] is a *deterministic* adversary: every probabilistic link
//! fate comes from the plan's own seeded ChaCha stream and every scripted
//! event fires at a fixed virtual time, so an identical plan must reproduce
//! a bit-identical run — same event schedule, same message count, same
//! commit sequence, same per-replica execution frontiers. These property
//! tests drive random seeds through a crash-recovery plan with link chaos
//! (drop + duplicate + reorder) and compare everything across repeated runs.

use flexitrust::prelude::*;
use flexitrust::sim::CommittedTxn;
use flexitrust::types::Digest;
use proptest::prelude::*;

/// A crash-recovery plan with link chaos on every message class: replica 3
/// crashes mid-run and rejoins via checkpoint state transfer while the
/// network duplicates and reorders a few messages per thousand. Drops are
/// deliberately off *here*: with one replica crashed the remaining quorum
/// has zero slack, so a single dropped vote can legitimately wedge the run
/// (votes are never retransmitted) — the drop path's determinism is pinned
/// separately in the runner's own seed-reproducibility test.
fn chaos_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
    spec.checkpoint_interval = Some(10);
    spec.chaos = ChaosPlan::crash_then_recover(seed, ReplicaId(3), 60_000_000, 110_000_000)
        .with_link(LinkChaos {
            duplicate_per_10k: 30,
            reorder_per_10k: 60,
            reorder_max_delay_us: 400,
            ..LinkChaos::default()
        });
    spec
}

/// Everything a chaos run observably is: the event schedule length, the
/// delivered-message count, the commit sequence and the replica frontiers.
type Fingerprint = (u64, u64, Vec<CommittedTxn>, Vec<(u64, Digest)>);

fn fingerprint(report: &SimReport) -> Fingerprint {
    (
        report.events_processed,
        report.messages_delivered,
        report.commit_log.clone(),
        report.replica_frontiers.clone(),
    )
}

proptest! {
    // Each case runs several full simulations; a handful of random seeds is
    // plenty to pin the "no hidden entropy" contract.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole pin: the same chaos seed reproduces a bit-identical
    /// run, including the faults it injected and the recovery it drove.
    #[test]
    fn same_chaos_seed_reproduces_the_identical_run(seed in any::<u64>()) {
        let first = Simulation::new(chaos_spec(seed)).run();
        // Reordering may legitimately cost liveness for some seeds: the
        // engines assume FIFO links (attested counter values must arrive in
        // order), so an out-of-order vote can be rejected and is never
        // retransmitted. Safety, however, must survive ANY chaos — equal
        // execution frontiers always agree on the state digest.
        if let Err(violation) = first.check_chaos_invariants() {
            prop_assert!(
                violation.starts_with("liveness"),
                "safety must hold under any chaos: {}", violation
            );
        }
        let second = Simulation::new(chaos_spec(seed)).run();
        prop_assert_eq!(fingerprint(&first), fingerprint(&second));
    }

}
