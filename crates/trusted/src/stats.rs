//! Access statistics for trusted components.
//!
//! The paper's central performance argument is about *how often* protocols
//! touch their trusted components: once per message for trust-bft protocols,
//! once per consensus (and only at the primary) for FlexiTrust (G2). These
//! counters make that measurable — the simulator charges hardware latency
//! per recorded access and the tests assert the per-protocol access budgets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kinds of trusted-component accesses tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcAccessKind {
    /// trust-bft `Append` on a counter (host supplies the value).
    CounterAppend,
    /// FlexiTrust `AppendF` (component increments internally).
    CounterAppendF,
    /// `Create` of a fresh counter.
    CounterCreate,
    /// Append to a trusted log.
    LogAppend,
    /// Lookup (attested read) from a trusted log.
    LogLookup,
}

/// A snapshot of trusted-component access counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcStatsSnapshot {
    /// Number of `Append` calls.
    pub counter_appends: u64,
    /// Number of `AppendF` calls.
    pub counter_append_fs: u64,
    /// Number of `Create` calls.
    pub counter_creates: u64,
    /// Number of log appends.
    pub log_appends: u64,
    /// Number of log lookups.
    pub log_lookups: u64,
    /// Number of accesses that were *rejected* (monotonicity violations,
    /// missing slots); rejected accesses still cost hardware latency.
    pub rejected: u64,
}

impl TcStatsSnapshot {
    /// Total number of trusted-component accesses of any kind (including
    /// rejected ones, which still pay the hardware access latency).
    pub fn total_accesses(&self) -> u64 {
        self.counter_appends
            + self.counter_append_fs
            + self.counter_creates
            + self.log_appends
            + self.log_lookups
            + self.rejected
    }

    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &TcStatsSnapshot) -> TcStatsSnapshot {
        TcStatsSnapshot {
            counter_appends: self.counter_appends.saturating_sub(earlier.counter_appends),
            counter_append_fs: self
                .counter_append_fs
                .saturating_sub(earlier.counter_append_fs),
            counter_creates: self.counter_creates.saturating_sub(earlier.counter_creates),
            log_appends: self.log_appends.saturating_sub(earlier.log_appends),
            log_lookups: self.log_lookups.saturating_sub(earlier.log_lookups),
            rejected: self.rejected.saturating_sub(earlier.rejected),
        }
    }
}

/// Thread-safe, cheaply cloneable access counters for one trusted component.
#[derive(Clone, Default)]
pub struct TcStats {
    inner: Arc<TcCounters>,
}

#[derive(Default)]
struct TcCounters {
    counter_appends: AtomicU64,
    counter_append_fs: AtomicU64,
    counter_creates: AtomicU64,
    log_appends: AtomicU64,
    log_lookups: AtomicU64,
    rejected: AtomicU64,
}

impl TcStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        TcStats::default()
    }

    /// Records a successful access of the given kind.
    pub fn record(&self, kind: TcAccessKind) {
        let counter = match kind {
            TcAccessKind::CounterAppend => &self.inner.counter_appends,
            TcAccessKind::CounterAppendF => &self.inner.counter_append_fs,
            TcAccessKind::CounterCreate => &self.inner.counter_creates,
            TcAccessKind::LogAppend => &self.inner.log_appends,
            TcAccessKind::LogLookup => &self.inner.log_lookups,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejected access.
    pub fn record_rejected(&self) {
        self.inner.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the current counts.
    pub fn snapshot(&self) -> TcStatsSnapshot {
        TcStatsSnapshot {
            counter_appends: self.inner.counter_appends.load(Ordering::Relaxed),
            counter_append_fs: self.inner.counter_append_fs.load(Ordering::Relaxed),
            counter_creates: self.inner.counter_creates.load(Ordering::Relaxed),
            log_appends: self.inner.log_appends.load(Ordering::Relaxed),
            log_lookups: self.inner.log_lookups.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_by_kind() {
        let stats = TcStats::new();
        stats.record(TcAccessKind::CounterAppendF);
        stats.record(TcAccessKind::CounterAppendF);
        stats.record(TcAccessKind::LogAppend);
        stats.record_rejected();
        let snap = stats.snapshot();
        assert_eq!(snap.counter_append_fs, 2);
        assert_eq!(snap.log_appends, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.total_accesses(), 4);
    }

    #[test]
    fn clones_share_counters() {
        let stats = TcStats::new();
        stats.clone().record(TcAccessKind::CounterCreate);
        assert_eq!(stats.snapshot().counter_creates, 1);
    }

    #[test]
    fn since_gives_interval_deltas() {
        let stats = TcStats::new();
        stats.record(TcAccessKind::CounterAppend);
        let a = stats.snapshot();
        stats.record(TcAccessKind::CounterAppend);
        stats.record(TcAccessKind::LogLookup);
        let delta = stats.snapshot().since(&a);
        assert_eq!(delta.counter_appends, 1);
        assert_eq!(delta.log_lookups, 1);
        assert_eq!(delta.counter_creates, 0);
    }
}
