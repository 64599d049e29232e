//! Commit-progress-triggered crash windows, shared by every host.

use flexitrust_types::ReplicaId;

/// A crash/recover window keyed on commit progress rather than time, so
/// one value pins the same behaviour on the simulator and the threaded
/// cluster (whose clocks are incomparable). While down the replica hears
/// nothing and fires no timers; on recovery the host calls
/// [`Dispatcher::rejoin`](super::Dispatcher::rejoin), and the engine
/// catches up by checkpoint state transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The replica that crashes and later rejoins.
    pub replica: ReplicaId,
    /// Crash once this replica's own last-executed sequence reaches this.
    pub crash_at_seq: u64,
    /// Recover once the other replicas' frontier reaches this.
    pub recover_at_seq: u64,
}

impl CrashWindow {
    /// The max over `frontiers` (every replica's last-executed sequence, in
    /// replica order) with this window's own replica left out.
    pub fn others_frontier(&self, frontiers: impl IntoIterator<Item = u64>) -> u64 {
        frontiers
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != self.replica.as_usize())
            .map(|(_, frontier)| frontier)
            .max()
            .unwrap_or(0)
    }
}

/// What a [`WindowPhase::step`] asks the host to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEvent {
    /// Take the replica down: discard its input and pending timers.
    Crash,
    /// Bring the replica back and [`rejoin`](super::Dispatcher::rejoin) it:
    /// it asks its peers for their latest stable checkpoint at once, and
    /// asks again whenever a checkpoint turns stable past its frontier.
    Recover,
}

/// Lifecycle of one [`CrashWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPhase {
    /// Waiting for the replica's own frontier to reach `crash_at_seq`.
    Armed,
    /// Crashed; waiting for the rest of the cluster to reach
    /// `recover_at_seq`.
    Down,
    /// Recovered; the window is spent and never re-arms.
    Done,
}

impl WindowPhase {
    /// Advances the window; returns the transition the host must carry
    /// out, if any.
    pub fn step(
        &mut self,
        window: &CrashWindow,
        own_frontier: u64,
        others_frontier: u64,
    ) -> Option<WindowEvent> {
        match self {
            WindowPhase::Armed if own_frontier >= window.crash_at_seq => {
                *self = WindowPhase::Down;
                Some(WindowEvent::Crash)
            }
            WindowPhase::Down if others_frontier >= window.recover_at_seq => {
                *self = WindowPhase::Done;
                Some(WindowEvent::Recover)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: CrashWindow = CrashWindow {
        replica: ReplicaId(2),
        crash_at_seq: 40,
        recover_at_seq: 120,
    };

    #[test]
    fn window_crashes_on_own_frontier_and_recovers_on_the_others_exactly_once() {
        let mut phase = WindowPhase::Armed;
        // Armed ignores the others' frontier entirely.
        assert_eq!(phase.step(&WINDOW, 39, 500), None);
        assert_eq!(phase, WindowPhase::Armed);
        assert_eq!(phase.step(&WINDOW, 40, 0), Some(WindowEvent::Crash));
        assert_eq!(phase, WindowPhase::Down);
        // Down ignores the replica's own frontier entirely.
        assert_eq!(phase.step(&WINDOW, 500, 119), None);
        assert_eq!(phase, WindowPhase::Down);
        assert_eq!(phase.step(&WINDOW, 40, 120), Some(WindowEvent::Recover));
        assert_eq!(phase, WindowPhase::Done);
        // A spent window never re-arms and never recovers twice.
        for (own, others) in [(0, 0), (40, 0), (40, 120), (500, 500)] {
            assert_eq!(phase.step(&WINDOW, own, others), None);
            assert_eq!(phase, WindowPhase::Done);
        }
    }

    #[test]
    fn others_frontier_leaves_the_windows_own_replica_out() {
        assert_eq!(WINDOW.others_frontier([7, 9, 100, 3]), 9);
        assert_eq!(WINDOW.others_frontier([0, 0, 100]), 0);
        assert_eq!(WINDOW.others_frontier([]), 0);
    }
}
