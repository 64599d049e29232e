//! Figure 7: impact of a single non-primary replica failure.
//!
//! Zyzzyva and MinZZ need replies from every replica to stay on their fast
//! path, so one unresponsive replica pushes every request onto the slow
//! (timeout) path; Flexi-ZZ only needs 2f + 1 of 3f + 1 replies and is
//! unaffected.

use flexitrust::prelude::*;
use flexitrust_bench::{eval_spec, print_table, run};

fn main() {
    let protocols = [
        ProtocolId::MinZz,
        ProtocolId::Zyzzyva,
        ProtocolId::FlexiZz,
        ProtocolId::FlexiBft,
        ProtocolId::Pbft,
    ];
    let fs = [1usize, 2, 4];
    let mut rows = Vec::new();
    for protocol in protocols {
        for f in fs {
            let healthy = run(eval_spec(protocol, f));
            let mut spec = eval_spec(protocol, f);
            spec.duration_us = 300_000;
            spec.warmup_us = 75_000;
            let victim = ReplicaId((spec.replicas() - 1) as u32);
            spec.chaos = ChaosPlan::single_failure(victim);
            let failed = run(spec);
            rows.push(format!(
                "{:<11} f={:<2} healthy tput={:>9.0}  failed tput={:>9.0}  ({:>5.1}% kept)  lat {:>6.2} -> {:>6.2} ms",
                protocol.name(),
                f,
                healthy.throughput_tps,
                failed.throughput_tps,
                100.0 * failed.throughput_tps / healthy.throughput_tps.max(1.0),
                healthy.avg_latency_ms,
                failed.avg_latency_ms,
            ));
        }
    }
    print_table(
        "Figure 7: impact of one non-primary replica failure",
        "Protocol    f    throughput healthy vs failed            latency healthy -> failed",
        &rows,
    );
}
