//! Loopback-TCP transport smoke test: a small Flexi-BFT workload over real
//! sockets, guarded by a hard in-process watchdog.
//!
//! A transport deadlock (a blocking send cycle, a reader that never
//! drains, a shutdown that never joins) would otherwise *hang* the test
//! binary until the CI job times out, burning the whole job budget to
//! report nothing. The watchdog aborts the process with a diagnostic
//! instead, and the CI step additionally wraps the run in a `timeout` so
//! even an abort-proof wedge fails the step fast.

#![expect(
    clippy::print_stderr,
    reason = "the watchdog names the hang before it aborts the process"
)]

use flexitrust::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aborts the whole process if `done` is not raised within `limit` —
/// a hang must fail loudly, not outlive the test harness.
fn watchdog(limit: Duration, done: Arc<AtomicBool>) {
    std::thread::spawn(move || {
        let step = Duration::from_millis(200);
        let mut waited = Duration::ZERO;
        while waited < limit {
            if done.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(step);
            waited += step;
        }
        eprintln!("tcp_smoke: transport deadlock suspected after {limit:?}; aborting");
        std::process::abort();
    });
}

#[test]
fn flexi_bft_smoke_workload_over_real_sockets() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog(Duration::from_secs(90), Arc::clone(&done));

    let cluster = TcpCluster::start(ProtocolId::FlexiBft, 1, 10).expect("cluster starts");
    let summary = cluster.run_workload(200, 8, Duration::from_secs(60));
    cluster.shutdown();

    assert_eq!(summary.completed_txns, 200);
    assert!(summary.throughput_tps > 0.0);
    // The smoke workload is far below every queue bound: a drop here means
    // the transport is shedding load it has no business shedding.
    assert_eq!(summary.dropped_messages, 0);
    done.store(true, Ordering::SeqCst);
}

/// Flexi-BFT: a burst deep enough that backups' `Prepare`s routinely
/// overtake the `PrePrepare` they vote for (the primary's own copy never
/// crosses a socket, so it is the one that cannot be overtaken) used to
/// wedge about every other run. Three out of three must commit, with
/// nothing shed on the way.
#[test]
fn flexi_bft_commits_large_bursts_whatever_order_the_sockets_deliver() {
    let done = Arc::new(AtomicBool::new(false));
    watchdog(Duration::from_secs(180), Arc::clone(&done));

    for attempt in 1..=3 {
        let cluster = TcpCluster::start(ProtocolId::FlexiBft, 1, 100).expect("cluster starts");
        let summary = cluster.run_workload(48_000, 64, Duration::from_secs(45));
        cluster.shutdown();
        assert_eq!(summary.completed_txns, 48_000, "attempt {attempt}");
        assert_eq!(summary.dropped_messages, 0, "attempt {attempt}");
    }
    done.store(true, Ordering::SeqCst);
}
