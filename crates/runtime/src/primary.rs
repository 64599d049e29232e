//! The cluster-wide current-primary accessor.
//!
//! Replica threads own their engines, so the submitting client (the main
//! thread) cannot ask an engine which view it is in. Instead every replica
//! publishes its view into this shared tracker after each batch of work,
//! and the cluster's one `submit`, over either network, routes to the
//! primary of the most advanced published view instead of hard-coding
//! replica 0 (the same bug class as the hard-coded replica-0 client RTT
//! fixed in an earlier revision of the simulator).

use flexitrust_types::{ReplicaId, View};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, lock-free view board: one slot per replica.
#[derive(Clone, Debug)]
pub struct PrimaryTracker {
    views: Arc<Vec<AtomicU64>>,
}

impl PrimaryTracker {
    /// A tracker for `n` replicas, all starting in view 0.
    pub fn new(n: usize) -> Self {
        PrimaryTracker {
            views: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Number of replicas tracked.
    pub fn replicas(&self) -> usize {
        self.views.len()
    }

    /// Publishes `replica`'s current view. Views only move forward; a stale
    /// publish never rolls the board back. Replica loops publish after every
    /// input, so an unchanged view is only read: the board's cache line is
    /// written when a view changes, not once per message.
    pub fn observe(&self, replica: ReplicaId, view: View) {
        if let Some(slot) = self.views.get(replica.as_usize()) {
            if slot.load(Ordering::Relaxed) < view.0 {
                slot.fetch_max(view.0, Ordering::Relaxed);
            }
        }
    }

    /// The most advanced view any replica has published.
    pub fn current_view(&self) -> View {
        View(
            self.views
                .iter()
                .map(|v| v.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        )
    }

    /// The primary of [`Self::current_view`] — where new client
    /// transactions should be submitted.
    pub fn current_primary(&self) -> ReplicaId {
        self.current_view().primary(self.replicas().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_the_most_advanced_view() {
        let tracker = PrimaryTracker::new(4);
        assert_eq!(tracker.current_primary(), ReplicaId(0));
        tracker.observe(ReplicaId(2), View(1));
        assert_eq!(tracker.current_view(), View(1));
        assert_eq!(tracker.current_primary(), ReplicaId(1));
        // Stale observations never roll the board back.
        tracker.observe(ReplicaId(2), View(0));
        assert_eq!(tracker.current_view(), View(1));
        // Views wrap around the replica set.
        tracker.observe(ReplicaId(0), View(6));
        assert_eq!(tracker.current_primary(), ReplicaId(2));
    }

    #[test]
    fn clones_share_one_board() {
        let tracker = PrimaryTracker::new(4);
        let clone = tracker.clone();
        clone.observe(ReplicaId(1), View(3));
        assert_eq!(tracker.current_view(), View(3));
    }
}
