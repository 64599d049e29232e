//! Integration tests for the paper's three analytical claims (§5, §6, §7),
//! exercised across crates: attack scenarios built in `flexitrust-attacks`,
//! engines from `flexitrust-host`'s factory, trusted components from
//! `flexitrust-trusted`.

use flexitrust::attacks::{
    out_of_order_probe, responsiveness_attack, rollback_attack_flexibft, rollback_attack_minbft,
    RollbackReport,
};
use flexitrust::prelude::*;

#[test]
fn section5_weak_quorums_break_responsiveness_only_for_2f_plus_1_protocols() {
    for f in [1usize, 2, 3] {
        let minbft = responsiveness_attack(ProtocolId::MinBft, f);
        assert!(
            minbft.client_stuck(),
            "MinBFT f={f} should leave the client stuck"
        );

        let flexibft = responsiveness_attack(ProtocolId::FlexiBft, f);
        assert!(
            flexibft.client_responsive(),
            "Flexi-BFT f={f} should stay responsive"
        );

        let pbft = responsiveness_attack(ProtocolId::Pbft, f);
        assert!(
            pbft.client_responsive(),
            "PBFT f={f} should stay responsive"
        );
    }
}

#[test]
fn section6_rollback_breaks_minbft_safety_but_not_flexibft() {
    let minbft = rollback_attack_minbft(2, TrustedHardware::default_enclave());
    assert!(minbft.safety_violated);
    assert_ne!(minbft.digests.0, minbft.digests.1);

    let flexibft = rollback_attack_flexibft(2, TrustedHardware::default_enclave());
    assert!(!flexibft.safety_violated);

    // Rollback-protected hardware stops the attack outright (at the cost of
    // its access latency — the Figure 8 trade-off).
    let protected = rollback_attack_minbft(2, TrustedHardware::typical_persistent_counter());
    assert!(!protected.rollback_succeeded);
    assert!(!protected.safety_violated);
}

#[test]
fn section7_out_of_order_proposals_are_rejected_by_trust_bft_counters_only() {
    for f in [1usize, 2] {
        let (minbft, flexizz) = out_of_order_probe(f);
        assert!(minbft.tc_rejections >= 1, "MinBFT f={f}");
        assert_eq!(flexizz.tc_rejections, 0, "Flexi-ZZ f={f}");
        assert!(flexizz.both_executed, "Flexi-ZZ f={f}");
    }
}

/// Every outcome of the three scenarios, pinned: rollback at f = 1, 2, 3 on
/// each hardware preset, the out-of-order probe at f = 1, 2, 3 and the §5
/// attack on every protocol at f = 1, 2, 3. The odd-f rows pin where the
/// rollback splits the honest backups (`f` of `2f`, `⌊3f/2⌋` of `3f`).
#[test]
fn every_attack_outcome_is_pinned() {
    let hardware = [
        TrustedHardware::default_enclave(),
        TrustedHardware::typical_persistent_counter(),
        TrustedHardware::typical_tpm(),
    ];
    // (rollback_succeeded, executed_t, executed_t_prime, safety_violated)
    // per f, per hardware preset above: MinBFT, then Flexi-BFT.
    let refused = (false, 0, 0, false);
    let rollback = [
        [
            ((true, 1, 1, true), (true, 0, 2, false)),
            (refused, refused),
            (refused, refused),
        ],
        [
            ((true, 2, 2, true), (true, 0, 0, false)),
            (refused, refused),
            (refused, refused),
        ],
        [
            ((true, 3, 3, true), (true, 0, 0, false)),
            (refused, refused),
            (refused, refused),
        ],
    ];
    for (f, rows) in (1usize..).zip(rollback) {
        for (hw, (minbft, flexibft)) in hardware.into_iter().zip(rows) {
            let outcome = |r: RollbackReport| {
                (
                    r.rollback_succeeded,
                    r.executed_t,
                    r.executed_t_prime,
                    r.safety_violated,
                )
            };
            let context = format!("f={f} {hw:?}");
            assert_eq!(
                outcome(rollback_attack_minbft(f, hw)),
                minbft,
                "MinBFT {context}"
            );
            assert_eq!(
                outcome(rollback_attack_flexibft(f, hw)),
                flexibft,
                "Flexi-BFT {context}"
            );
        }
    }

    // (tc_rejections, both_executed): MinBFT, Flexi-ZZ — the same at every f.
    for f in [1usize, 2, 3] {
        let (minbft, flexizz) = out_of_order_probe(f);
        assert_eq!(
            (minbft.tc_rejections, minbft.both_executed),
            (1, false),
            "MinBFT f={f}"
        );
        assert_eq!(
            (flexizz.tc_rejections, flexizz.both_executed),
            (0, true),
            "Flexi-ZZ f={f}"
        );
    }

    // (matching_replies, replies_needed, client_stuck()) at f = 1, 2, 3.
    let responsiveness = [
        (
            ProtocolId::Pbft,
            [(2, 2, false), (3, 3, false), (4, 4, false)],
        ),
        (
            ProtocolId::Zyzzyva,
            [(2, 4, true), (3, 7, true), (4, 10, true)],
        ),
        (
            ProtocolId::PbftEa,
            [(1, 2, true), (1, 3, true), (1, 4, true)],
        ),
        (
            ProtocolId::MinBft,
            [(1, 2, true), (1, 3, true), (1, 4, true)],
        ),
        (
            ProtocolId::MinZz,
            [(1, 3, true), (1, 5, true), (1, 7, true)],
        ),
        (
            ProtocolId::OpbftEa,
            [(1, 2, true), (1, 3, true), (1, 4, true)],
        ),
        (
            ProtocolId::CheapBft,
            [(1, 2, true), (1, 3, true), (1, 4, true)],
        ),
        (
            ProtocolId::FlexiBft,
            [(2, 2, false), (3, 3, false), (4, 4, false)],
        ),
        (
            ProtocolId::FlexiZz,
            [(2, 3, true), (3, 5, true), (4, 7, true)],
        ),
        (
            ProtocolId::OFlexiBft,
            [(2, 2, false), (3, 3, false), (4, 4, false)],
        ),
        (
            ProtocolId::OFlexiZz,
            [(2, 3, true), (3, 5, true), (4, 7, true)],
        ),
    ];
    assert_eq!(responsiveness.len(), ProtocolId::ALL.len());
    for (protocol, rows) in responsiveness {
        for (f, expected) in (1usize..).zip(rows) {
            let r = responsiveness_attack(protocol, f);
            let outcome = (r.matching_replies, r.replies_needed, r.client_stuck());
            assert_eq!(outcome, expected, "{} f={f}", protocol.name());
        }
    }
}
