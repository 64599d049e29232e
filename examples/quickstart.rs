//! Quickstart: run a real (threaded, real-crypto) Flexi-ZZ cluster and a
//! small YCSB-style workload against it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(clippy::print_stdout, reason = "an example prints its results")]

use flexitrust::prelude::*;
use std::time::Duration;

fn main() {
    // Flexi-ZZ with f = 1 (4 replicas), batches of 10 transactions, real
    // Ed25519 attestations from each replica's software enclave.
    let cluster = Cluster::start(ProtocolId::FlexiZz, 1, 10);
    println!(
        "started {} replicas running {}",
        cluster.config().n,
        cluster.config().protocol.name()
    );

    let summary = cluster.run_workload(500, 20, Duration::from_secs(30));
    println!(
        "completed {} transactions in {:.2?} ({:.0} txn/s across {} replicas)",
        summary.completed_txns, summary.elapsed, summary.throughput_tps, summary.n
    );
    cluster.shutdown();

    // The same protocol, this time under the discrete-event simulator used
    // for the paper's evaluation figures.
    let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiZz);
    spec.clients = 1_000;
    let report = Simulation::new(spec).run();
    println!("simulated: {}", report.summary_line());
}
