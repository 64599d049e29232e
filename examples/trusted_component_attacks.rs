//! Reproduce the paper's three analytical attacks (§5, §6, §7) against the
//! real protocol engines and print what happens.
//!
//! ```text
//! cargo run --release --example trusted_component_attacks
//! ```

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use flexitrust::attacks::{
    out_of_order_probe, responsiveness_attack, rollback_attack_flexibft, rollback_attack_minbft,
};
use flexitrust::prelude::*;

fn main() {
    println!("== Section 5: restricted responsiveness (weak quorums) ==");
    for protocol in [ProtocolId::MinBft, ProtocolId::FlexiBft, ProtocolId::Pbft] {
        let r = responsiveness_attack(protocol, 2);
        println!(
            "  {:<11} client got {}/{} matching replies, view-change votes {}/{} -> {}",
            r.protocol.name(),
            r.matching_replies,
            r.replies_needed,
            r.view_change_votes,
            r.view_change_quorum,
            if r.client_stuck() { "STUCK" } else { "ok" }
        );
    }

    println!();
    println!("== Section 6: rollback attack on the trusted counter ==");
    let minbft = rollback_attack_minbft(2, TrustedHardware::default_enclave());
    println!(
        "  MinBFT on SGX enclave counters : rollback ok = {}, safety violated = {} ({} vs {} executions at {})",
        minbft.rollback_succeeded,
        minbft.safety_violated,
        minbft.executed_t,
        minbft.executed_t_prime,
        minbft.seq
    );
    let minbft_tpm = rollback_attack_minbft(2, TrustedHardware::typical_tpm());
    println!(
        "  MinBFT on a TPM               : rollback ok = {}, safety violated = {}",
        minbft_tpm.rollback_succeeded, minbft_tpm.safety_violated
    );
    let flexi = rollback_attack_flexibft(2, TrustedHardware::default_enclave());
    println!(
        "  Flexi-BFT on SGX enclave      : rollback ok = {}, safety violated = {}",
        flexi.rollback_succeeded, flexi.safety_violated
    );

    println!();
    println!("== Section 7: out-of-order proposals (sequential consensus) ==");
    let (minbft, flexizz) = out_of_order_probe(1);
    println!(
        "  MinBFT : trusted-component rejections = {}, both slots executed = {}",
        minbft.tc_rejections, minbft.both_executed
    );
    println!(
        "  Flexi-ZZ: trusted-component rejections = {}, both slots executed = {}",
        flexizz.tc_rejections, flexizz.both_executed
    );
}
