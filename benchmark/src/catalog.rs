//! The benchmark's vocabulary: every workload and every metric, by name,
//! with unit, direction and bound. `BENCHMARK.json` at the repository root
//! is generated from these tables (`--manifest`) and a unit test keeps the
//! two identical, so a metric cannot be printed under a name the manifest
//! does not declare.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: a frozen set of inputs, and why it is in the suite.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The `--workload` name.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name in the output and the manifest.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its direction.
    pub better: Better,
    /// End-to-end metrics only: share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 10;

/// The six workloads.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "tcp_flexibft",
        why: "TcpCluster, FlexiBft n=4, batch 100, 16000-txn closed bursts: the headline real system, bound by wire, sockets and the reply path",
    },
    WorkloadDef {
        name: "tcp_flexibft_b20",
        why: "same TCP host at batch 20, 4000-txn bursts: five times the batches, votes and writer wake-ups per txn, so per-message costs show here",
    },
    WorkloadDef {
        name: "chan_flexibft",
        why: "channel Cluster, otherwise identical to tcp_flexibft: bypasses wire and sockets, so codec or socket gains must leave it flat",
    },
    WorkloadDef {
        name: "sim_flexibft_lan",
        why: "simulator, FlexiBft f=2 n=7, batch 100, 2000 clients, LAN, unlimited bandwidth: single-threaded engine + exec + protocol cost, no threads",
    },
    WorkloadDef {
        name: "sim_broadcast_heavy",
        why: "simulator, n=25, batch 50 x 4 KiB, 10 Gbps chunked links + constrained ingress: event queue, LinkQueues and the Arc message plane dominate",
    },
    WorkloadDef {
        name: "sim_crash_recover",
        why: "simulator fault run: replica 2 crashes and rejoins by checkpoint transfer (interval 10); the only workload running snapshot and state transfer",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: reported by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("commit_tps", "txn/s", Better::Higher, 0.25),
    e2e("cpu_us_per_txn", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.1),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Per-layer metrics: reported by the traced run (`--trace 1`). Layers are
/// the workspace crates; the prefix names the layer.
pub const PER_LAYER: [MetricDef; 55] = [
    layer("types.txn_build_ns", "ns", Lower),
    layer("crypto.sha256_mb_s", "MB/s", Higher),
    layer("crypto.digest_batch_us", "us", Lower),
    layer("crypto.sign_us", "us", Lower),
    layer("crypto.verify_us", "us", Lower),
    layer("trusted.append_f_us", "us", Lower),
    layer("trusted.verify_us", "us", Lower),
    layer("trusted.flexibft_accesses_per_batch", "count", Lower),
    layer("trusted.minbft_accesses_per_batch", "count", Lower),
    layer("wire.encode_preprepare_us", "us", Lower),
    layer("wire.decode_preprepare_us", "us", Lower),
    layer("wire.encode_vote_ns", "ns", Lower),
    layer("wire.decode_vote_ns", "ns", Lower),
    layer("wire.encode_reply_ns", "ns", Lower),
    layer("wire.decode_reply_ns", "ns", Lower),
    layer("wire.decode_submit_us", "us", Lower),
    layer("wire.frames_per_txn", "count", Lower),
    layer("wire.bytes_per_txn", "count", Lower),
    layer("protocol.batcher_ns_per_txn", "ns", Lower),
    layer("protocol.quorum_vote_ns", "ns", Lower),
    layer("protocol.client_on_reply_ns", "ns", Lower),
    layer("protocol.commit_batch_ns_per_txn", "ns", Lower),
    layer("host.dispatch_ns_per_action", "ns", Lower),
    layer("core.flexibft_preprepare_us", "us", Lower),
    layer("core.flexibft_prepare_us", "us", Lower),
    layer("core.flexibft_self_us_per_batch", "us", Lower),
    layer("core.flexizz_us_per_batch", "us", Lower),
    layer("baselines.pbft_us_per_batch", "us", Lower),
    layer("baselines.minbft_us_per_batch", "us", Lower),
    layer("exec.apply_ns_per_txn", "ns", Lower),
    layer("exec.apply_4k_ns_per_txn", "ns", Lower),
    layer("exec.snapshot_us_per_10k_keys", "us", Lower),
    layer("exec.state_digest_us", "us", Lower),
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.events_per_txn", "count", Lower),
    layer("sim.lan_events_per_s", "1/s", Higher),
    layer("sim.link_reserve_ns", "ns", Lower),
    layer("sim.vtps", "txn/s", Higher),
    layer("sim.p50_ms", "ms", Lower),
    layer("sim.p99_ms", "ms", Lower),
    layer("sim.flexibft_over_minbft_vtps", "ratio", Higher),
    layer("sim.rejoin_frontier_share", "share", Higher),
    layer("runtime.start_ms", "ms", Lower),
    layer("runtime.shutdown_ms", "ms", Lower),
    layer("runtime.tcp_sys_cpu_us_per_txn", "us", Lower),
    layer("runtime.tcp_overhead_us_per_txn", "us", Lower),
    layer("runtime.chan_overhead_us_per_txn", "us", Lower),
    layer("runtime.round_tps_p10", "txn/s", Higher),
    layer("runtime.dropped_msgs", "count", Lower),
    layer("runtime.stalled_rounds", "count", Lower),
    layer("workload.gen_ns_per_txn", "ns", Lower),
    layer("trace.cpu_us_per_txn", "us", Lower),
    layer("trace.msgs_per_batch", "count", Lower),
    layer("trace.unattributed_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// The values of `defs`, in order; an error names the first metric
/// `value_of` does not know, so a misspelt row cannot report as zero.
pub fn collect(
    defs: &[MetricDef],
    value_of: impl Fn(&str) -> Option<f64>,
) -> Result<Vec<f64>, String> {
    defs.iter()
        .map(|m| value_of(m.name).ok_or_else(|| format!("no value measured for {}", m.name)))
        .collect()
}

/// The `BENCHMARK.json` manifest, generated from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.unwrap_or(0.0)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(manifest_json().len() < 64 * 1024);
    }
}
