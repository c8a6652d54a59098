//! Temporal-coding determinism pins.
//!
//! Temporal prediction threads state across frames (each predicted frame
//! references the previous adjusted frame), which is exactly the kind of
//! state that could leak scheduling into encoded bits. These pins show it
//! does not:
//!
//! * a temporal fleet's encoded streams are bit-identical across shard
//!   counts and placement policies, like the intra-only pins of
//!   `determinism.rs`;
//! * a shed session's stream splices the two solo runs at the switch
//!   frame, with exactly one forced intra refresh at the boundary and
//!   bit-exact re-alignment right after;
//! * a hard-cancelled temporal session's stream is a bit-identical
//!   prefix of the solo run (no refresh is emitted — the stream simply
//!   ends).
//!
//! All of it follows from one invariant: the keyframe schedule is a pure
//! function of the *absolute* frame index, and each session owns its own
//! reference history.

use pvc_bdc::{is_temporal_bitstream, BdDecoder};
use pvc_core::{EncoderConfig, TemporalConfig};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_stream::{
    LeastLoaded, Placement, PowerOfTwoChoices, Predictive, ResolutionTier, ServiceConfig,
    SessionConfig, SessionProfile, Static, StreamRuntime, StreamService, WorkloadMix,
};

const SESSIONS: usize = 8;
const BASE_FRAMES: u32 = 30;
const KEYFRAME_INTERVAL: u32 = 12;

fn base_dims() -> Dimensions {
    Dimensions::new(32, 32)
}

fn temporal_service(shards: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(shards)
        .with_collect_payloads(true)
        .with_encoder(
            EncoderConfig::default().with_temporal(TemporalConfig::every(KEYFRAME_INTERVAL)),
        )
}

/// Runs the heavy-tail fleet and returns each session's (payloads,
/// digest) in admission order.
fn fleet_run(shards: usize, placement: Box<dyn Placement>) -> Vec<(Vec<Vec<u8>>, u64)> {
    let mut service = StreamService::new(temporal_service(shards));
    service.admit_mixed(SESSIONS, WorkloadMix::HeavyTail, base_dims(), BASE_FRAMES);
    let report = service.run_with_placement(placement);
    let mut sessions = report.sessions;
    sessions.sort_by_key(|session| session.session);
    sessions
        .into_iter()
        .map(|session| {
            (
                session.payloads.expect("collect_payloads was set"),
                session.stream_digest,
            )
        })
        .collect()
}

/// Decodes a full stream of payloads into per-frame pixels with a fresh
/// stateful decoder.
fn decode_stream(payloads: &[Vec<u8>]) -> Vec<SrgbFrame> {
    let mut decoder = BdDecoder::new();
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Default::default());
    payloads
        .iter()
        .enumerate()
        .map(|(index, payload)| {
            decoder
                .decode_frame_into(payload, &mut out)
                .unwrap_or_else(|err| panic!("frame {index} must decode: {err}"));
            out.clone()
        })
        .collect()
}

/// Blocks until `shard` has rendered part of the `committed` pixel work
/// its sessions were admitted with. A shard renders its sessions
/// round-robin in admission order, so once this returns the shard's first
/// admitted session has rendered a frame, and a verb sent to it next
/// lands mid-stream rather than before frame 0.
fn wait_for_rendering(runtime: &StreamRuntime, shard: usize, committed: u64) {
    let remaining = || {
        runtime
            .shard_loads()
            .into_iter()
            .find(|load| load.shard == shard)
            .map_or(0, |load| load.remaining_pixels)
    };
    while remaining() >= committed {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn temporal_streams_are_bit_identical_across_shards_and_policies() {
    let baseline = fleet_run(1, Box::new(Static));
    // Sanity: the baseline really is temporal — predicted frames exist,
    // and every stream opens on a keyframe.
    for (payloads, _) in &baseline {
        assert!(
            !is_temporal_bitstream(&payloads[0]),
            "frame 0 is a keyframe"
        );
        assert!(
            payloads.iter().any(|p| is_temporal_bitstream(p)),
            "the stream contains predicted frames"
        );
    }
    let policies: &[fn() -> Box<dyn Placement>] = &[
        || Box::new(Static),
        || Box::new(PowerOfTwoChoices::default()),
        || Box::new(LeastLoaded),
        || Box::new(Predictive),
    ];
    for shards in [1usize, 4] {
        for make_policy in policies {
            let policy = make_policy();
            let name = policy.name();
            let run = fleet_run(shards, policy);
            assert_eq!(
                run, baseline,
                "{name}, {shards} shard(s): temporal streams must be bit-identical \
                 to the single-shard static baseline"
            );
        }
    }
}

#[test]
fn shed_temporal_stream_splices_the_solo_runs_at_the_refresh_boundary() {
    let profile = SessionProfile::for_tier(ResolutionTier::VisionClass, base_dims(), 600);
    let lower = profile.downgraded().expect("vision downgrades");
    let config = SessionConfig::synthetic(0, base_dims(), 600).with_profile(profile);
    let lower_config = config.clone().with_profile(lower);

    let solo = |config: &SessionConfig| -> Vec<Vec<u8>> {
        let mut runtime = StreamRuntime::start_static(temporal_service(1));
        let id = runtime.admit(config.clone());
        let report = runtime.retire(id);
        runtime.shutdown();
        report.payloads.expect("collect_payloads was set")
    };
    let upper_solo = solo(&config);
    let lower_solo = solo(&lower_config);

    let mut runtime = StreamRuntime::start_static(temporal_service(1));
    let committed = config.pixel_cost() * u64::from(config.frames());
    let id = runtime.admit(config);
    wait_for_rendering(&runtime, 0, committed);
    assert!(runtime.shed(id, lower), "a live session must shed");
    let report = runtime.retire(id);
    runtime.shutdown();

    let switch = report.downgrade_frame.expect("the shed landed mid-stream") as usize;
    assert!(switch > 0, "the shed landed after frame 0");
    let payloads = report.payloads.expect("collect_payloads was set");
    assert_eq!(payloads.len(), lower.frames as usize);
    assert_eq!(
        payloads[..switch],
        upper_solo[..switch],
        "frames before the downgrade match the solo original-tier run bit-exactly"
    );
    // The switch frame is the forced refresh: the rebuilt encoder has no
    // reference, so it emits an intra keyframe where the solo lower-tier
    // run is (in general) mid-GOP.
    assert!(
        !is_temporal_bitstream(&payloads[switch]),
        "the switch frame is an intra refresh"
    );
    assert_eq!(
        payloads[switch + 1..],
        lower_solo[switch + 1..],
        "one frame after the refresh the streams re-align bit-exactly \
         (both references are the same adjusted frame)"
    );
    // And the refresh loses no pixels: from the switch on, the shed
    // stream decodes to exactly the solo lower-tier run's frames. (The
    // shed stream's switch frame is intra, so decoding can start there.)
    let shed_pixels = decode_stream(&payloads[switch..]);
    let lower_pixels = decode_stream(&lower_solo);
    assert_eq!(shed_pixels, lower_pixels[switch..]);
}

#[test]
fn hard_cancelled_temporal_streams_are_prefixes_of_the_solo_run() {
    let config = SessionConfig::synthetic(0, base_dims(), 600);
    let mut runtime = StreamRuntime::start_static(temporal_service(1));
    let solo_id = runtime.admit(config.clone());
    let solo = runtime.retire(solo_id).payloads.expect("payloads");
    runtime.shutdown();

    let mut runtime = StreamRuntime::start_static(temporal_service(1));
    let id = runtime.admit(config);
    let report = runtime.retire_now(id);
    runtime.shutdown();
    assert!(report.cancelled);
    let payloads = report.payloads.expect("payloads");
    assert!(
        payloads.len() < solo.len(),
        "the cancel must land mid-stream to pin anything"
    );
    assert_eq!(
        payloads[..],
        solo[..payloads.len()],
        "a hard-cancelled temporal stream is a bit-identical prefix of the solo run"
    );
}
