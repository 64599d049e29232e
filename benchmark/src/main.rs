//! The repository's benchmark: one workload per process, end to end
//! (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload tcp_flexibft --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed by name with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `benchmark/README.md` for what each workload and metric
//! means and which layer should move which number.

mod catalog;
mod hosts;
mod layers;
mod measure;
mod sims;
mod trace;

use catalog::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use measure::Budget;
use std::process::ExitCode;

/// What one invocation measured.
pub struct Outcome {
    /// Operations attempted (transactions submitted or simulated).
    pub attempted: u64,
    /// Operations that failed: transactions a stalled round left
    /// uncommitted.
    pub failed: u64,
    /// Rounds that hit the 10 s timeout.
    pub stalled_rounds: u64,
    /// Metric values, in catalog order ([`catalog::collect`]).
    pub metrics: Vec<f64>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Failed output checks; any entry makes the run incorrect.
    pub check_errors: Vec<String>,
}

/// What a workload name stands for.
#[derive(Clone, Copy)]
enum Workload {
    Host(hosts::HostWorkload),
    Sim(sims::SimWorkload),
}

fn resolve(name: &str) -> Option<Workload> {
    Some(match name {
        "tcp_flexibft" => Workload::Host(hosts::TCP_FLEXIBFT),
        "tcp_flexibft_b20" => Workload::Host(hosts::TCP_FLEXIBFT_B20),
        "chan_flexibft" => Workload::Host(hosts::CHAN_FLEXIBFT),
        "sim_flexibft_lan" => Workload::Sim(sims::SimWorkload::FlexiBftLan),
        "sim_broadcast_heavy" => Workload::Sim(sims::SimWorkload::BroadcastHeavy),
        "sim_crash_recover" => Workload::Sim(sims::SimWorkload::CrashRecover),
        _ => return None,
    })
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<usize>,
}

const USAGE: &str = "usage: flexitrust-benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--rounds <n>] | --list | --manifest";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut argv = argv.peekable();
    let mut name = String::new();
    let mut args = Args {
        name: String::new(),
        workload: Workload::Host(hosts::TCP_FLEXIBFT),
        seed: 42,
        seconds: catalog::RUN_SECONDS as f64,
        trace: false,
        rounds: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--list" => {
                print_list();
                return Ok(None);
            }
            "--manifest" => {
                print!("{}", catalog::manifest_json());
                return Ok(None);
            }
            "--workload" => name = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                // `--trace 0|1`; a bare `--trace` means 1.
                args.trace = argv.next_if(|v| v == "0" || v == "1").as_deref() != Some("0");
            }
            "--rounds" => {
                let v = value()?;
                args.rounds = Some(v.parse().map_err(|_| bad(&v))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = resolve(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    args.name = name;
    Ok(Some(args))
}

fn print_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    let row = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0} %", b * 100.0));
        println!(
            "  {:<38} {:<6} {} is better{bound}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    };
    println!("end-to-end metrics (--trace 0):");
    END_TO_END.iter().for_each(row);
    println!("per-layer metrics (--trace 1):");
    PER_LAYER.iter().for_each(row);
}

/// The end-to-end outcome of a run, from what either kind of workload
/// measured.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    commit_tps: f64,
    cpu_us_per_txn: f64,
    setup_s: f64,
    attempted: u64,
    failed: u64,
    stalled_rounds: u64,
    notes: Vec<String>,
    check_errors: Vec<String>,
) -> Result<Outcome, String> {
    let metrics = catalog::collect(&END_TO_END, |name| match name {
        "commit_tps" => Some(commit_tps),
        "cpu_us_per_txn" => Some(cpu_us_per_txn),
        "peak_rss_mb" => Some(measure::peak_rss_mib()),
        "setup_s" => Some(setup_s),
        _ => None,
    })?;
    Ok(Outcome {
        attempted,
        failed,
        stalled_rounds,
        metrics,
        notes,
        check_errors,
    })
}

fn run_host(w: &hosts::HostWorkload, budget: Budget) -> Result<Outcome, String> {
    let stats = hosts::measure_rounds(w, budget).map_err(|e| e.to_string())?;
    let notes = vec![
        format!(
            "{} rounds of {} txns (batch {}, {} clients, closed burst), {} stalled, {} msgs dropped",
            stats.start_s.len(),
            w.burst,
            w.batch,
            hosts::CLIENTS,
            stats.stalled_rounds,
            stats.dropped_msgs
        ),
        format!(
            "per-round txn/s: effective median {:.0}, p10 {:.0}; raw wall median {:.0}; \
             measured windows {:.2} s wall, {:.2} s cpu ({:.2} s kernel), {:.2} s steal",
            stats.commit_tps(),
            stats.round_tps_p10(),
            measure::median(&stats.round_tps_wall).unwrap_or(0.0),
            stats.measured.wall_s,
            stats.measured.cpu_s(),
            stats.measured.sys_s,
            stats.measured.steal_s
        ),
    ];
    end_to_end(
        stats.commit_tps(),
        stats.cpu_us_per_txn(),
        stats.setup_s(),
        stats.attempted,
        stats.failed,
        stats.stalled_rounds,
        notes,
        stats.check_errors,
    )
}

fn run_sim(w: sims::SimWorkload, seed: u64, budget: Budget) -> Result<Outcome, String> {
    let stats = sims::measure_reps(w, seed, budget);
    let r = &stats.report;
    let notes = vec![
        format!(
            "{} repetitions, each {} events, {} txns, {} messages; injected delay: NetworkModel::lan + CostModel::calibrated",
            stats.rep_tps.len(),
            r.events_processed,
            r.completed_txns,
            r.messages_delivered
        ),
        format!(
            "virtual time (identical in every repetition): sim_vtps {} txn/s, sim_p50_ms {}, sim_p99_ms {}; \
             {:.0} events/s; frontiers {:?}",
            r.throughput_tps,
            r.p50_latency_ms,
            r.p99_latency_ms,
            stats.events_per_s(),
            r.replica_frontiers.iter().map(|f| f.0).collect::<Vec<_>>()
        ),
        format!(
            "per-repetition txn/s over on-CPU time: min {:.0}, median {:.0}, max {:.0}; \
             measured windows {:.2} s wall, {:.2} s cpu, {:.2} s steal",
            measure::quantile(&stats.rep_tps, 0.0).unwrap_or(0.0),
            stats.commit_tps(),
            measure::quantile(&stats.rep_tps, 1.0).unwrap_or(0.0),
            stats.measured.wall_s,
            stats.measured.cpu_s(),
            stats.measured.steal_s
        ),
    ];
    end_to_end(
        stats.commit_tps(),
        stats.cpu_us_per_txn(),
        stats.setup_s(),
        stats.completed,
        0,
        0,
        notes,
        stats.check_errors,
    )
}

/// `value` with six significant digits, in plain decimal notation.
fn six_digits(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (5 - magnitude).clamp(0, 12) as usize)
}

fn json_line(outcome: &Outcome, defs: &[MetricDef], correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .zip(defs)
        .map(|(value, def)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = args
        .rounds
        .map_or(Budget::Seconds(args.seconds), Budget::Rounds);
    let (result, defs): (_, &[MetricDef]) = match (args.trace, args.workload) {
        (true, _) => {
            let out_dir = std::path::Path::new("benchmark").join("out");
            (layers::run(args.seed, args.seconds, &out_dir), &PER_LAYER)
        }
        (false, Workload::Host(w)) => (run_host(&w, budget), &END_TO_END),
        (false, Workload::Sim(w)) => (run_sim(w, args.seed, budget), &END_TO_END),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} trace {} ({} cpus)",
        args.name,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (value, def) in outcome.metrics.iter().zip(defs) {
        println!("{:<38} {:>16} {}", def.name, six_digits(*value), def.unit);
    }
    println!(
        "attempted {} failed {} stalled_rounds {}",
        outcome.attempted, outcome.failed, outcome.stalled_rounds
    );
    for e in &outcome.check_errors {
        eprintln!("check failed: {e}");
    }
    if outcome.stalled_rounds >= hosts::MAX_STALLED_ROUNDS {
        eprintln!(
            "{}: {} rounds stalled, aborting",
            args.name, outcome.stalled_rounds
        );
        return ExitCode::FAILURE;
    }
    let finite = outcome.metrics.iter().all(|v| v.is_finite());
    let correct = outcome.check_errors.is_empty() && finite && outcome.attempted > 0;
    println!("{}", json_line(&outcome, defs, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_workload_resolves_and_nothing_else_does() {
        assert!(WORKLOADS.iter().all(|w| resolve(w.name).is_some()));
        assert!(resolve("tcp_minbft").is_none());
    }

    #[test]
    fn six_digits_keeps_small_values_readable() {
        assert_eq!(six_digits(157_884.4), "157884");
        assert_eq!(six_digits(11.67313), "11.6731");
        assert_eq!(six_digits(0.000_020_073_5), "0.0000200735");
        assert_eq!(six_digits(0.0), "0.00000");
    }
}
