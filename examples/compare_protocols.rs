//! Compare every protocol of the paper under the simulator's default
//! LAN scenario and print a Figure 6(i)-style summary, plus the Figure 1
//! qualitative table.
//!
//! ```text
//! cargo run --release --example compare_protocols
//! ```

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use flexitrust::prelude::*;
use flexitrust::protocol::ProtocolProperties;

fn main() {
    println!("Figure 1 (protocol properties):");
    for row in ProtocolProperties::figure1_rows() {
        println!("  {row}");
    }
    println!();

    println!("Simulated LAN comparison (f = 2, batch 50, 2 000 clients):");
    for protocol in ProtocolId::ALL {
        let mut spec = ScenarioSpec::quick_test(protocol);
        spec.f = 2;
        spec.batch_size = 50;
        spec.clients = 2_000;
        spec.duration_us = 200_000;
        spec.warmup_us = 50_000;
        let report = Simulation::new(spec).run();
        println!("  {}", report.summary_line());
    }
    println!();
    println!(
        "Expected shape (paper §9.4): Pbft-EA lowest; MinBFT/MinZZ above it; Pbft above all\n\
         trust-bft protocols; Flexi-BFT and Flexi-ZZ highest; oFlexi-* below their trust-bft\n\
         counterparts because they give up parallel consensus."
    );
}
