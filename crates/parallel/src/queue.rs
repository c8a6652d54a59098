//! A bounded MPSC queue with backpressure-stall and depth accounting.
//!
//! The streaming service pipelines frame production (rendering) against
//! frame consumption (encoding) per shard. The queue between the two must
//! be *bounded* so a fast producer cannot balloon memory with rendered
//! frames, and the service wants two live signals from it:
//!
//! * how often the producer actually blocked — the backpressure signal
//!   that says the encoder, not the renderer, is the bottleneck — and
//! * how many items currently sit in the queue — the congestion signal a
//!   load-aware placement policy reads when deciding which shard should
//!   take the next session.
//!
//! [`bounded_queue`] wraps [`std::sync::mpsc::sync_channel`] with a sender
//! that counts full-queue stalls before blocking and a receiver that
//! decrements the occupancy gauge as it drains, and hands out a separate
//! [`QueueStats`] handle so both counters stay readable after the sender
//! and receiver have moved into their pipeline threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender, TrySendError};
use std::sync::Arc;

/// Error returned by [`BoundedSender::send`] when every receiver is gone;
/// carries the unsent value back to the caller.
#[derive(Debug)]
pub struct QueueClosed<T>(pub T);

impl<T> std::fmt::Display for QueueClosed<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("bounded queue closed: receiver dropped")
    }
}

// `T: Debug` rather than a blanket impl: `Error` requires `Debug` on the
// whole type, and the derived `Debug` needs it on the payload.
impl<T: std::fmt::Debug> std::error::Error for QueueClosed<T> {}

/// The shared counters behind one queue.
///
/// Occupancy is tracked as two monotonic counters rather than one gauge:
/// a sent value becomes visible to the receiver *inside* the underlying
/// channel send, before the sender could bump a gauge, so a
/// single-gauge design can observe the decrement before the matching
/// increment and underflow. `sent - received` can never go negative
/// when read received-first.
#[derive(Debug, Default)]
struct Counters {
    stalls: AtomicU64,
    sent: AtomicU64,
    received: AtomicU64,
    peak_depth: AtomicU64,
}

impl Counters {
    /// Called after `sent` was bumped: folds the post-send occupancy
    /// snapshot into the high-water mark. Reading `received` first keeps
    /// the snapshot conservative (never above the true occupancy).
    fn note_depth(&self) {
        let received = self.received.load(Ordering::Relaxed);
        let sent = self.sent.load(Ordering::Relaxed);
        self.peak_depth
            .fetch_max(sent.saturating_sub(received), Ordering::Relaxed);
    }
}

/// The producing half of a [`bounded_queue`].
#[derive(Debug)]
pub struct BoundedSender<T> {
    inner: SyncSender<T>,
    counters: Arc<Counters>,
}

// Not derived: deriving Clone would bound T: Clone needlessly.
impl<T> Clone for BoundedSender<T> {
    fn clone(&self) -> Self {
        BoundedSender {
            inner: self.inner.clone(),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<T> BoundedSender<T> {
    /// Sends `value`, blocking while the queue is at capacity.
    ///
    /// A full queue increments the stall counter exactly once per call
    /// before falling back to the blocking send.
    ///
    /// # Errors
    ///
    /// Returns [`QueueClosed`] (with the value) when the receiver has been
    /// dropped.
    pub fn send(&self, value: T) -> Result<(), QueueClosed<T>> {
        match self.inner.try_send(value) {
            Ok(()) => {
                self.counters.sent.fetch_add(1, Ordering::Relaxed);
                self.counters.note_depth();
                Ok(())
            }
            Err(TrySendError::Disconnected(v)) => Err(QueueClosed(v)),
            Err(TrySendError::Full(v)) => {
                self.counters.stalls.fetch_add(1, Ordering::Relaxed);
                match self.inner.send(v) {
                    Ok(()) => {
                        self.counters.sent.fetch_add(1, Ordering::Relaxed);
                        self.counters.note_depth();
                        Ok(())
                    }
                    Err(e) => Err(QueueClosed(e.0)),
                }
            }
        }
    }

    /// Number of sends so far that found the queue full and had to block.
    pub fn stalls(&self) -> u64 {
        self.counters.stalls.load(Ordering::Relaxed)
    }
}

/// The consuming half of a [`bounded_queue`]; draining it keeps the
/// occupancy gauge in [`QueueStats`] honest.
#[derive(Debug)]
pub struct BoundedReceiver<T> {
    inner: Receiver<T>,
    counters: Arc<Counters>,
}

impl<T> BoundedReceiver<T> {
    /// Receives the next value, blocking while the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] when every sender has been dropped and the
    /// queue is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let value = self.inner.recv()?;
        self.counters.received.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }

    /// A blocking iterator over received values; ends when every sender is
    /// gone and the queue is drained.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

/// Consuming iterator over a [`BoundedReceiver`].
#[derive(Debug)]
pub struct IntoIter<T>(BoundedReceiver<T>);

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> IntoIterator for BoundedReceiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter(self)
    }
}

/// A read-only handle onto a queue's counters, usable after the sender and
/// receiver have moved into their pipeline threads.
#[derive(Debug, Clone)]
pub struct QueueStats(Arc<Counters>);

impl QueueStats {
    /// Number of sends so far that found the queue full and had to block.
    pub fn stalls(&self) -> u64 {
        self.0.stalls.load(Ordering::Relaxed)
    }

    /// Items currently sitting in the queue (sent but not yet received).
    ///
    /// A momentary snapshot: producers and consumers move it concurrently,
    /// so treat it as a load signal, not an exact invariant. Reading
    /// `received` before `sent` (plus the saturating subtraction) keeps
    /// the snapshot from ever going negative, even mid-handoff.
    pub fn depth(&self) -> usize {
        let received = self.0.received.load(Ordering::Relaxed);
        let sent = self.0.sent.load(Ordering::Relaxed);
        sent.saturating_sub(received) as usize
    }

    /// Total items ever enqueued (monotonic).
    pub fn enqueued(&self) -> u64 {
        self.0.sent.load(Ordering::Relaxed)
    }

    /// The deepest post-send occupancy observed so far — the queue's
    /// high-water mark. A shard whose peak sits at the configured depth
    /// spent time with its producer blocked on backpressure.
    pub fn peak_depth(&self) -> usize {
        self.0.peak_depth.load(Ordering::Relaxed) as usize
    }
}

/// Creates a bounded queue of the given depth.
///
/// Returns the sender, the receiver, and a [`QueueStats`] handle observing
/// how often senders blocked on a full queue and how many items are
/// currently enqueued.
///
/// # Panics
///
/// Panics if `depth` is zero (a rendezvous channel would make every send a
/// "stall" and serialize the pipeline).
pub fn bounded_queue<T>(depth: usize) -> (BoundedSender<T>, BoundedReceiver<T>, QueueStats) {
    assert!(depth > 0, "queue depth must be non-zero");
    let (tx, rx) = sync_channel(depth);
    let counters = Arc::new(Counters::default());
    (
        BoundedSender {
            inner: tx,
            counters: Arc::clone(&counters),
        },
        BoundedReceiver {
            inner: rx,
            counters: Arc::clone(&counters),
        },
        QueueStats(counters),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_arrive_in_order() {
        let (tx, rx, _) = bounded_queue(4);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..100u32 {
                    tx.send(i).expect("receiver alive");
                }
            });
            let got: Vec<u32> = rx.iter().collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    /// Spins until `stats` reports at least one stall. The wait is
    /// guaranteed to terminate when a producer is blocked on a full queue
    /// that nobody drains before the stall: the producer's try_send has
    /// either already failed or will fail, independent of scheduling.
    fn wait_for_stall(stats: &QueueStats) {
        while stats.stalls() == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn full_queue_counts_a_stall_and_still_delivers() {
        let (tx, rx, stats) = bounded_queue(1);
        std::thread::scope(|scope| {
            let producer = scope.spawn(move || {
                tx.send(1u8).unwrap(); // fills the queue
                tx.send(2u8).unwrap(); // must stall: nothing drains until then
                tx.stalls()
            });
            // No draining happens before the stall, so the producer's second
            // send is guaranteed to find the queue full.
            wait_for_stall(&stats);
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            let producer_stalls = producer.join().unwrap();
            assert_eq!(producer_stalls, 1);
            assert_eq!(stats.stalls(), 1);
        });
    }

    #[test]
    fn dropped_receiver_returns_the_value() {
        let (tx, rx, _) = bounded_queue::<u32>(2);
        drop(rx);
        let err = tx.send(7).unwrap_err();
        assert_eq!(err.0, 7);
        assert!(err.to_string().contains("closed"));
    }

    #[test]
    fn queue_closed_boxes_as_a_std_error() {
        let (tx, rx, _) = bounded_queue::<u32>(1);
        drop(rx);
        let failing_send = || -> Result<(), Box<dyn std::error::Error>> {
            tx.send(7)?;
            Ok(())
        };
        let boxed = failing_send().expect_err("receiver was dropped");
        assert!(boxed.to_string().contains("closed"));
    }

    #[test]
    fn unstalled_sends_report_zero() {
        let (tx, rx, stats) = bounded_queue(8);
        tx.send(1u8).unwrap();
        tx.send(2u8).unwrap();
        drop(tx);
        assert_eq!(rx.iter().count(), 2);
        assert_eq!(stats.stalls(), 0);
    }

    #[test]
    fn depth_tracks_enqueued_items() {
        let (tx, rx, stats) = bounded_queue(4);
        assert_eq!(stats.depth(), 0);
        tx.send(1u8).unwrap();
        tx.send(2u8).unwrap();
        tx.send(3u8).unwrap();
        assert_eq!(stats.depth(), 3);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(stats.depth(), 2);
        drop(tx);
        assert_eq!(rx.into_iter().count(), 2);
        assert_eq!(stats.depth(), 0);
    }

    #[test]
    fn peak_depth_is_a_high_water_mark() {
        let (tx, rx, stats) = bounded_queue(4);
        assert_eq!(stats.peak_depth(), 0);
        tx.send(1u8).unwrap();
        tx.send(2u8).unwrap();
        tx.send(3u8).unwrap();
        assert_eq!(stats.peak_depth(), 3);
        // Draining does not lower the peak.
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(stats.peak_depth(), 3);
        // A shallower refill does not raise it either.
        tx.send(4u8).unwrap();
        assert_eq!(stats.peak_depth(), 3);
        assert_eq!(stats.enqueued(), 4);
        drop(tx);
        assert_eq!(rx.into_iter().count(), 2);
    }

    #[test]
    fn enqueued_counts_blocking_sends_too() {
        let (tx, rx, stats) = bounded_queue(1);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                tx.send(1u8).unwrap();
                tx.send(2u8).unwrap(); // stalls until the main thread drains
            });
            wait_for_stall(&stats);
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        });
        assert_eq!(stats.enqueued(), 2);
        assert!(stats.peak_depth() >= 1);
    }

    #[test]
    fn depth_includes_the_blocking_send_once_delivered() {
        let (tx, rx, stats) = bounded_queue(1);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                tx.send(1u8).unwrap();
                tx.send(2u8).unwrap(); // stalls until the main thread drains
            });
            wait_for_stall(&stats);
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        });
        assert_eq!(stats.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "queue depth must be non-zero")]
    fn zero_depth_panics() {
        let _ = bounded_queue::<u8>(0);
    }

    #[test]
    fn cloned_senders_share_the_stall_counter() {
        let (tx, rx, stats) = bounded_queue(1);
        let tx2 = tx.clone();
        tx.send(1u8).unwrap(); // fills the queue before the clone sends
        std::thread::scope(|scope| {
            scope.spawn(move || tx2.send(2u8).unwrap());
            wait_for_stall(&stats);
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
        });
        assert_eq!(stats.stalls(), 1);
    }
}
