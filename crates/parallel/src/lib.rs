//! Threading primitives for the streaming runtime's long-lived shard
//! workers.
//!
//! Parallelism in the serving path comes from shards: each shard worker
//! runs its sessions one frame at a time, and every frame is encoded
//! sequentially on that worker's thread. This crate holds the pieces the
//! shards are wired from:
//!
//! * [`bounded_queue`] — the data plane between a shard's renderer and its
//!   encoder, with backpressure-stall and depth accounting;
//! * [`control_channel`] — the never-blocking control plane a worker waits
//!   on when idle and polls between frames;
//! * [`Gauge`] — a shared, saturating load counter for placement
//!   telemetry;
//! * [`available_threads`] — the machine's usable core count, for shard
//!   count defaults.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod gauge;
pub mod queue;

pub use control::{control_channel, ControlClosed, ControlPoll, ControlReceiver, ControlSender};
pub use gauge::Gauge;
pub use queue::{bounded_queue, BoundedReceiver, BoundedSender, QueueClosed, QueueStats};

/// The number of worker threads that saturates the current machine, for
/// callers that want a good default shard count.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
