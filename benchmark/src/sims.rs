//! Simulator workloads: repetitions of `Simulation::new(spec).run()`.
//!
//! Virtual-time results are deterministic for a seed, so every repetition
//! of a run must report the same events, completions, messages, throughput
//! and latency — that is the output check. What differs between
//! repetitions is only how long the host took to get there, which is what
//! `commit_tps` and `cpu_us_per_txn` measure.
//!
//! Injected delay: `NetworkModel::lan` (the model `regions = 1` selects)
//! with `CostModel::calibrated()`; virtual latency reflects that model, not
//! a real network.

use crate::measure::{median, thread_cpu_ns, Budget, Sample, Window};
use flexitrust::prelude::*;
use flexitrust::workload::KeyDistribution;
use std::time::Instant;

/// Repetitions every run measures at least.
const MIN_REPS: usize = 3;
/// Extra constructions timed before every repetition: building a simulation
/// takes tens of microseconds, so `setup_s` is a median over thousands of
/// set-ups, spread over the whole run, and not over a handful.
const SETUP_SAMPLES_PER_REP: usize = 200;

/// The three simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// `sim_flexibft_lan`.
    FlexiBftLan,
    /// `sim_broadcast_heavy`.
    BroadcastHeavy,
    /// `sim_crash_recover`.
    CrashRecover,
}

/// `paper_default` at f = 2 with 2 000 clients: 400 ms measured after a
/// 100 ms warm-up, LAN, unlimited bandwidth.
pub fn lan_spec(protocol: ProtocolId, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default(protocol);
    spec.f = 2;
    spec.clients = 2_000;
    spec.seed = seed;
    spec
}

/// ROADMAP's named scenario, frozen here: n = 25, batch 50 × 4 KiB updates,
/// 10 Gbps links chunked at 9 000 B with equally constrained ingress,
/// 1.6 s of virtual time.
pub fn broadcast_heavy_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper_default(ProtocolId::FlexiBft);
    spec.f = 8;
    spec.batch_size = 50;
    spec.clients = 2_000;
    spec.duration_us = 1_300_000;
    spec.warmup_us = 300_000;
    spec.workload = WorkloadConfig {
        value_size: 4096,
        read_proportion: 0.0,
        update_proportion: 1.0,
        insert_proportion: 0.0,
        rmw_proportion: 0.0,
        scan_proportion: 0.0,
        max_scan_len: 1,
        record_count: 1_000,
        distribution: KeyDistribution::Uniform,
    };
    let mut bandwidth = BandwidthConfig::unlimited();
    bandwidth.local_mbps = Some(10_000);
    bandwidth.ingress_mbps = Some(10_000);
    bandwidth.chunk_bytes = Some(9_000);
    spec.bandwidth = bandwidth;
    spec.seed = seed;
    spec
}

/// The fault run: `quick_test(FlexiBft)` with checkpoints every 10
/// sequence numbers over 1 s of virtual time; replica 2 crashes at 0.25 s
/// and recovers, by checkpoint state transfer, at 0.5 s.
pub fn crash_recover_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::quick_test(ProtocolId::FlexiBft);
    spec.checkpoint_interval = Some(10);
    spec.warmup_us = 30_000;
    spec.duration_us = 970_000;
    spec.chaos = ChaosPlan::crash_then_recover(seed, ReplicaId(2), 250_000_000, 500_000_000);
    spec.seed = seed;
    spec
}

impl SimWorkload {
    /// The workload's scenario for `seed` (which feeds the scenario's
    /// workload generator and the chaos plan's private stream).
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        match self {
            SimWorkload::FlexiBftLan => lan_spec(ProtocolId::FlexiBft, seed),
            SimWorkload::BroadcastHeavy => broadcast_heavy_spec(seed),
            SimWorkload::CrashRecover => crash_recover_spec(seed),
        }
    }
}

/// One timed repetition.
pub struct Rep {
    /// The measured window: `run()` only.
    pub run: Window,
    /// Seconds the (single) simulation thread spent on a CPU inside the
    /// window: the window's effective time.
    pub on_cpu_s: f64,
    /// Wall seconds of set-up: `Simulation::new`, before the window.
    pub setup_s: f64,
    /// The simulator's report.
    pub report: SimReport,
}

/// Builds, runs and checks `spec` once.
pub fn run_once(spec: &ScenarioSpec) -> Rep {
    let t0 = Instant::now();
    let sim = Simulation::new(spec.clone());
    let setup_s = t0.elapsed().as_secs_f64();
    let s0 = Sample::now();
    let cpu0 = thread_cpu_ns();
    let report = sim.run();
    let on_cpu_s = thread_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
    let s1 = Sample::now();
    Rep {
        run: s0.until(&s1),
        on_cpu_s,
        setup_s,
        report,
    }
}

/// The fields that must be bit-identical across repetitions of one seed.
fn fingerprint(r: &SimReport) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.events_processed,
        r.completed_txns,
        r.messages_delivered,
        r.throughput_tps.to_bits(),
        r.p50_latency_ms.to_bits(),
        r.p99_latency_ms.to_bits(),
    )
}

/// Everything a sequence of repetitions measured.
pub struct SimStats {
    /// Per repetition: completed txn/s over the thread's on-CPU time.
    pub rep_tps: Vec<f64>,
    /// Per repetition: simulator events per on-CPU second.
    pub rep_events_per_s: Vec<f64>,
    /// Wall seconds of each `Simulation::new` sampled.
    pub setup_samples: Vec<f64>,
    /// Sum of the measured windows.
    pub measured: Window,
    /// Transactions completed, summed over repetitions.
    pub completed: u64,
    /// The report of the last repetition (identical to every other one).
    pub report: SimReport,
    /// Failed output checks, one line each.
    pub check_errors: Vec<String>,
}

impl SimStats {
    /// Median per-repetition completion rate over effective time.
    pub fn commit_tps(&self) -> f64 {
        median(&self.rep_tps).unwrap_or(0.0)
    }

    /// Median per-repetition event rate over effective time.
    pub fn events_per_s(&self) -> f64 {
        median(&self.rep_events_per_s).unwrap_or(0.0)
    }

    /// Process CPU microseconds per completed transaction.
    pub fn cpu_us_per_txn(&self) -> f64 {
        self.measured.cpu_s() * 1e6 / self.completed.max(1) as f64
    }

    /// Median set-up: building the simulation (engines, enclaves, keys).
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples).unwrap_or(0.0)
    }
}

/// Runs one unmeasured warm-up repetition, then timed repetitions of `w`
/// until `budget` is spent, checking every report against the first.
pub fn measure_reps(w: SimWorkload, seed: u64, budget: Budget) -> SimStats {
    let spec = w.spec(seed);
    let warm = run_once(&spec);
    let reference = fingerprint(&warm.report);
    let mut stats = SimStats {
        rep_tps: Vec::new(),
        rep_events_per_s: Vec::new(),
        setup_samples: Vec::new(),
        measured: Window::default(),
        completed: 0,
        report: warm.report,
        check_errors: Vec::new(),
    };
    let mut reps = 0usize;
    loop {
        if budget.spent(reps, MIN_REPS, stats.measured.wall_s) {
            break;
        }
        for _ in 0..SETUP_SAMPLES_PER_REP {
            let t = Instant::now();
            let sim = Simulation::new(spec.clone());
            stats.setup_samples.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        let rep = run_once(&spec);
        reps += 1;
        if fingerprint(&rep.report) != reference {
            stats.check_errors.push(format!(
                "repetition {reps} differs from the warm-up: {:?} vs {:?}",
                fingerprint(&rep.report),
                reference
            ));
        }
        if let Err(e) = rep.report.check_chaos_invariants() {
            stats.check_errors.push(format!("repetition {reps}: {e}"));
        }
        let expected_disruptions = u64::from(w == SimWorkload::CrashRecover);
        if rep.report.chaos_disruptions != expected_disruptions {
            stats.check_errors.push(format!(
                "repetition {reps}: {} chaos disruptions, expected {expected_disruptions}",
                rep.report.chaos_disruptions
            ));
        }
        stats
            .rep_tps
            .push(rep.report.completed_txns as f64 / rep.on_cpu_s);
        stats
            .rep_events_per_s
            .push(rep.report.events_processed as f64 / rep.on_cpu_s);
        stats.completed += rep.report.completed_txns;
        stats.measured.add(&rep.run);
        stats.setup_samples.push(rep.setup_s);
        stats.report = rep.report;
    }
    stats
}
