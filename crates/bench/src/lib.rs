//! Shared helpers for the figure-reproduction benchmarks.
//!
//! Every `[[bench]]` target in this crate regenerates one table or figure of
//! the paper's evaluation (§9) and prints the same rows/series the paper
//! reports. The absolute numbers come from the discrete-event simulator and
//! are not expected to match the paper's 97-node cloud deployment; the
//! orderings and crossovers are (see the "Paper figures → benches" table
//! in `README.md`).
//!
//! The parameters here are deliberately scaled down (smaller `f`, shorter
//! simulated windows, fewer clients) so that the whole suite runs in minutes
//! on a laptop. Set the environment variable `FLEXITRUST_BENCH_SCALE=full`
//! to use larger windows closer to the paper's setup.

use flexitrust::prelude::*;

/// The parameter scale a bench run was asked for, from the single
/// `FLEXITRUST_BENCH_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// The default laptop-friendly parameters.
    Quick,
    /// `FLEXITRUST_BENCH_SCALE=full`: larger windows closer to the paper's
    /// setup.
    Full,
    /// `FLEXITRUST_BENCH_SCALE=smoke`: the CI smoke configuration —
    /// `fig6vi_wan` shrinks its sweeps to a representative handful of points
    /// so a regression in the models fails fast without burning CI minutes
    /// on full figures.
    Smoke,
}

/// Reads `FLEXITRUST_BENCH_SCALE` once; any unrecognised value means
/// [`BenchScale::Quick`].
pub fn bench_scale() -> BenchScale {
    match std::env::var("FLEXITRUST_BENCH_SCALE") {
        Ok(v) if v.eq_ignore_ascii_case("full") => BenchScale::Full,
        Ok(v) if v.eq_ignore_ascii_case("smoke") => BenchScale::Smoke,
        _ => BenchScale::Quick,
    }
}

/// Returns `true` when the full-scale (slower) parameters were requested.
pub fn full_scale() -> bool {
    bench_scale() == BenchScale::Full
}

/// Mixed elephant/mouse traffic over 50 Mbps client lanes: ~1 % of requests
/// are large range scans whose replies (hundreds of kB) share each
/// replica's client lane with everyone else's small replies — the
/// head-of-line-blocking scenario behind both the `fig6vi_wan` MTU-chunking
/// gate and the `tests/link_queue.rs` tail-latency pin. One definition so
/// the CI gate and the test cannot drift onto different scenarios.
pub fn mixed_elephant_spec(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.workload = WorkloadConfig {
        value_size: 1024,
        read_proportion: 0.94,
        update_proportion: 0.05,
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        scan_proportion: 0.01,
        max_scan_len: 300,
        record_count: 1_000,
        distribution: flexitrust::sim::workload::KeyDistribution::Uniform,
    };
    let mut bandwidth = BandwidthConfig::unlimited();
    bandwidth.client_mbps = Some(50);
    spec.bandwidth = bandwidth;
    spec.duration_us = 1_200_000;
    spec.warmup_us = 300_000;
    spec.clients = 200;
    spec
}

/// The receive-side twin of [`mixed_elephant_spec`]: every link is
/// unlimited *except* replica ingest (`ingress_mbps`), and the workload is
/// all 4 kB updates in batches of 50 — so each PrePrepare is a ~200 kB
/// elephant on every receiver's ingest lane while the votes it triggers
/// stay mice on the same lane. With atomic rx reservations a vote arriving
/// mid-ingest waits for the elephant's last byte (the receive-side
/// head-of-line blocking that egress chunking alone cannot fix); with
/// `chunk_bytes` set it slips between ingest chunks. One definition shared
/// by the `fig6vi_wan` CI gate and the `tests/link_queue.rs` pin.
pub fn mixed_elephant_rx_spec(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.workload = WorkloadConfig {
        value_size: 4096,
        read_proportion: 0.0,
        update_proportion: 1.0,
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        scan_proportion: 0.0,
        max_scan_len: 1,
        record_count: 1_000,
        distribution: flexitrust::sim::workload::KeyDistribution::Uniform,
    };
    spec.batch_size = 50;
    let mut bandwidth = BandwidthConfig::unlimited();
    bandwidth.ingress_mbps = Some(400);
    spec.bandwidth = bandwidth;
    spec.duration_us = 1_200_000;
    spec.warmup_us = 300_000;
    spec.clients = 100;
    spec
}

/// The standard evaluation scenario used by the figure benches.
pub fn eval_spec(protocol: ProtocolId, f: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default(protocol);
    spec.f = f;
    spec.batch_size = 50;
    spec.clients = 2_000;
    if full_scale() {
        spec.duration_us = 600_000;
        spec.warmup_us = 150_000;
        spec.batch_size = 100;
        spec.clients = 8_000;
    } else {
        spec.duration_us = 120_000;
        spec.warmup_us = 30_000;
    }
    spec.client_timeout_us = Some(20_000);
    spec
}

/// The protocol line-up of Figure 6(i), in the paper's order.
pub fn figure6_protocols() -> Vec<ProtocolId> {
    vec![
        ProtocolId::PbftEa,
        ProtocolId::MinBft,
        ProtocolId::MinZz,
        ProtocolId::OpbftEa,
        ProtocolId::FlexiBft,
        ProtocolId::FlexiZz,
        ProtocolId::Pbft,
        ProtocolId::Zyzzyva,
        ProtocolId::OFlexiBft,
        ProtocolId::OFlexiZz,
    ]
}

/// Prints a table header followed by rows.
#[expect(
    clippy::print_stdout,
    reason = "bench table printer: stdout is this crate's UI"
)]
pub fn print_table(title: &str, header: &str, rows: &[String]) {
    println!();
    println!("=== {title} ===");
    println!("{header}");
    println!("{}", "-".repeat(header.len().max(20)));
    for row in rows {
        println!("{row}");
    }
    println!();
}

/// Runs one scenario and returns its report.
pub fn run(spec: ScenarioSpec) -> SimReport {
    Simulation::new(spec).run()
}
