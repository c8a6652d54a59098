//! Runtime determinism smoke test (runs in the normal test suite).
//!
//! The acceptance property of the streaming subsystem: a batch run (start,
//! admit every session, drain, shut down) with 1 shard and with 4 shards
//! produces **bit-identical** per-session encoded streams for the same
//! seeds. Frames are kept small (32×32) so this stays fast enough for
//! every CI run — the large-scale numbers come from the `fleet` bench
//! binary instead. The whole check runs on every compilation of the strip
//! kernel this CPU runs (baseline, AVX2), whose streams must also be
//! equal.

use pvc_frame::Dimensions;
use pvc_stream::{GazeModel, ServiceConfig, ServiceReport, SessionConfig, StreamRuntime};

const SESSIONS: usize = 8;
const FRAMES: u32 = 6;

fn run(shards: usize) -> ServiceReport {
    let dims = Dimensions::new(32, 32);
    let mut runtime = StreamRuntime::start_static(
        ServiceConfig::default()
            .with_shards(shards)
            .with_queue_depth(2)
            .with_collect_payloads(true),
    );
    for index in 0..SESSIONS - 1 {
        runtime.admit(SessionConfig::synthetic(index, dims, FRAMES));
    }
    // Mix in one smooth-pursuit session so both gaze models are exercised.
    runtime.admit(
        SessionConfig::synthetic(SESSIONS - 1, dims, FRAMES)
            .with_gaze_model(GazeModel::pursuit(1.5)),
    );
    runtime.drain();
    runtime.shutdown()
}

#[test]
fn one_and_four_shards_produce_bit_identical_streams() {
    // Every compilation of the strip kernel must give the same streams.
    let mut runs = Vec::new();
    pvc_core::on_each_kernel_path(|path| {
        eprintln!("shard determinism: {path} kernel");
        runs.push((path, check_shard_determinism()));
    });
    let (_, baseline) = &runs[0];
    for (path, digests) in &runs[1..] {
        assert_eq!(
            digests, baseline,
            "the {path} kernel disagrees with the baseline"
        );
    }
}

/// Runs the 1-shard and 4-shard batches (and the 4-shard one again) and
/// asserts bit-identical streams; returns the per-session digests.
fn check_shard_determinism() -> Vec<u64> {
    let single = run(1);
    let sharded = run(4);

    assert_eq!(single.sessions.len(), SESSIONS);
    assert_eq!(sharded.sessions.len(), SESSIONS);
    assert_eq!(single.totals.frames, (SESSIONS as u64) * u64::from(FRAMES));
    assert_eq!(single.totals.frames, sharded.totals.frames);
    assert_eq!(single.totals.bytes_out, sharded.totals.bytes_out);

    for (a, b) in single.sessions.iter().zip(&sharded.sessions) {
        assert_eq!(a.session, b.session);
        assert_eq!(a.scene, b.scene);
        assert_eq!(
            a.payloads, b.payloads,
            "session {}: encoded bitstreams must not depend on the shard count",
            a.session
        );
        assert_eq!(a.stream_digest, b.stream_digest);
        assert_eq!(a.cache, b.cache, "cache behaviour is per-session state");
        let payloads = a.payloads.as_ref().expect("collect_payloads was set");
        assert_eq!(payloads.len(), FRAMES as usize);
        assert!(payloads.iter().all(|p| !p.is_empty()));
    }

    // Re-running the same configuration reproduces the digests exactly.
    let again = run(4);
    for (a, b) in sharded.sessions.iter().zip(&again.sessions) {
        assert_eq!(a.stream_digest, b.stream_digest);
    }
    single.sessions.iter().map(|s| s.stream_digest).collect()
}
