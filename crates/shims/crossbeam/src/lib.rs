//! Minimal stand-in for `crossbeam` (offline build): bounded MPSC channels
//! with the `crossbeam::channel` API surface this workspace uses, backed by
//! `std::sync::mpsc::sync_channel`.

/// Multi-producer channels.
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity; the value is handed back.
        Full(T),
        /// The receiver is gone; the value is handed back.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// Every sender disconnected and the channel is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// Every sender disconnected and the channel is drained.
        Disconnected,
    }

    /// The sending half of a bounded channel.
    pub struct Sender<T> {
        inner: mpsc::SyncSender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while the channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value).map_err(|e| SendError(e.0))
        }

        /// Sends `value` without blocking, failing when the channel is full
        /// or the receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            self.inner.try_send(value).map_err(|e| match e {
                std::sync::mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                std::sync::mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
            })
        }
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives, the timeout elapses, or all
        /// senders disconnect.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Takes a message if one is already queued, without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvTimeoutError> {
            self.inner
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected)
        }
    }

    /// Creates a bounded channel with capacity `cap`.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender { inner: tx }, Receiver { inner: rx })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn messages_flow_in_order() {
        let (tx, rx) = bounded(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn try_send_reports_full_and_disconnected_without_blocking() {
        use super::channel::TrySendError;
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        tx.try_send(3).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn try_recv_never_blocks_on_empty_non_empty_or_disconnected_channels() {
        use super::channel::TryRecvError;
        let (tx, rx) = bounded(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        // Queued messages outlive their senders; only a drained channel
        // reports the disconnect.
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn disconnect_is_reported() {
        let (tx, rx) = bounded::<u32>(1);
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn senders_clone_across_threads() {
        let (tx, rx) = bounded(16);
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
