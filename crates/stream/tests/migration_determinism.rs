//! Migration and shed determinism pins — the acceptance properties of
//! the elastic control plane's two mid-stream verbs.
//!
//! * **Migration** (`StreamRuntime::migrate`): moving a live session to
//!   a freshly spawned shard must not move a single encoded bit — the
//!   mover's full payload sequence and digest equal a solo run of the
//!   same config, and every co-resident survivor's stream is untouched.
//!   Pinned across {1, 4} initial shards × every placement policy
//!   (static, power-of-two-choices, least-loaded, predictive).
//! * **Shed** (`StreamRuntime::shed`): downgrading a session one
//!   resolution tier mid-stream splices two solo runs at the switch
//!   frame. Frames before the downgrade are bit-identical to the solo
//!   *original*-tier run; frames from the switch on are bit-identical
//!   to a solo run started directly on `profile.downgraded()`, at the
//!   same frame indices. A migration after the shed keeps the same
//!   splice, and the wire stream carries exactly one tier-change record.
//!
//! Both hold because encoded output is a pure function of
//! `(scene, seed, profile)` per frame index: migration rebuilds the
//! encoder on the destination shard (the cache is a perf artifact, never
//! a bits artifact) and shedding re-derives the session exactly as
//! `SessionProfile::downgraded` documents.

use pvc_bdc::{is_temporal_bitstream, BdDecoder};
use pvc_core::{EncoderConfig, TemporalConfig};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_stream::{
    LeastLoaded, Placement, PowerOfTwoChoices, Predictive, ResolutionTier, ServiceConfig,
    SessionConfig, SessionProfile, Static, StreamRuntime, WireReader, WireRecord, WorkloadMix,
};

/// Co-resident sessions: a heavy-tail mix over eight indices spans all
/// three tiers.
const SURVIVORS: usize = 8;
const BASE_FRAMES: u32 = 4;
/// The mover's frame budget: long enough that the migration lands while
/// the stream is genuinely in flight.
const MOVER_FRAMES: u32 = 600;

/// One session's encoded frame payloads, in frame order.
type Payloads = Vec<Vec<u8>>;

fn base_dims() -> Dimensions {
    Dimensions::new(32, 32)
}

fn mover_config() -> SessionConfig {
    SessionConfig::synthetic(0, base_dims(), MOVER_FRAMES)
}

fn survivor_configs() -> Vec<SessionConfig> {
    (1..=SURVIVORS)
        .map(|index| {
            SessionConfig::synthetic_mixed(index, WorkloadMix::HeavyTail, base_dims(), BASE_FRAMES)
        })
        .collect()
}

/// The service config under test: intra-only (the historical pin) or
/// temporal coding with a 12-frame keyframe cadence.
fn service_config(temporal: bool) -> ServiceConfig {
    let mut config = ServiceConfig::default().with_collect_payloads(true);
    if temporal {
        config =
            config.with_encoder(EncoderConfig::default().with_temporal(TemporalConfig::every(12)));
    }
    config
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

/// A session's stream when it is the only session on a fresh single-shard
/// runtime — the ground truth.
fn solo(config: &SessionConfig, temporal: bool) -> (Payloads, u64) {
    let mut runtime = StreamRuntime::start_static(service_config(temporal));
    let id = runtime.admit(config.clone());
    let report = runtime.retire(id);
    runtime.shutdown();
    (
        report.payloads.expect("collect_payloads was set"),
        report.stream_digest,
    )
}

/// Admits the mover plus the mixed-tier survivors, spawns a fresh shard,
/// migrates the mover onto it mid-stream, and returns (mover payloads,
/// mover digest, survivors' payloads in admission order).
fn migration_run(
    shards: usize,
    placement: Box<dyn Placement>,
    temporal: bool,
) -> (Payloads, u64, Vec<Payloads>) {
    let mut runtime = StreamRuntime::start(
        service_config(temporal)
            .with_shards(shards)
            .with_queue_depth(2),
        placement,
    );
    let mover = runtime.admit(mover_config());
    let survivor_ids: Vec<usize> = survivor_configs()
        .into_iter()
        .map(|config| runtime.admit(config))
        .collect();
    // The mover was admitted first, so it is the first session its shard
    // renders.
    let from = runtime.assignment(mover).expect("just admitted");
    let committed: u64 = std::iter::once((mover, mover_config()))
        .chain(survivor_ids.iter().copied().zip(survivor_configs()))
        .filter(|&(id, _)| runtime.assignment(id) == Some(from))
        .map(|(_, config)| config.pixel_cost() * u64::from(config.frames()))
        .sum();
    wait_for_rendering(&runtime, from, committed);

    let dest = runtime.spawn_shard();
    assert_eq!(dest, shards, "spawned shards take the next stable id");
    assert!(
        runtime.migrate(mover, dest),
        "the mover streams for {MOVER_FRAMES} frames; the migration must land"
    );
    assert_eq!(runtime.assignment(mover), Some(dest));

    let mover_report = runtime.retire(mover);
    assert_eq!(mover_report.shard, dest);
    assert_eq!(mover_report.throughput.frames, u64::from(MOVER_FRAMES));

    runtime.drain();
    let report = runtime.shutdown();
    assert_eq!(report.elasticity.migrated, 1);
    assert_eq!(report.elasticity.shards_spawned, 1);
    assert!(
        report.shards[dest].frames < u64::from(MOVER_FRAMES),
        "the migration landed mid-stream, not before the mover's first frame"
    );

    let mut survivors: Vec<Option<Payloads>> = vec![None; SURVIVORS];
    for session in report.sessions {
        let slot = survivor_ids
            .iter()
            .position(|&id| id == session.session)
            .expect("unexpected session id in the shutdown report");
        survivors[slot] = Some(session.payloads.expect("collect_payloads was set"));
    }
    (
        mover_report.payloads.expect("collect_payloads was set"),
        mover_report.stream_digest,
        survivors
            .into_iter()
            .map(|payloads| payloads.expect("every survivor reports"))
            .collect(),
    )
}

const POLICIES: &[fn() -> Box<dyn Placement>] = &[
    || Box::new(Static),
    || Box::new(PowerOfTwoChoices::default()),
    || Box::new(LeastLoaded),
    || Box::new(Predictive),
];

#[test]
fn migrated_streams_are_bit_identical_to_solo_runs() {
    let (mover_solo, mover_digest) = solo(&mover_config(), false);
    let survivor_solos: Vec<Vec<Vec<u8>>> = survivor_configs()
        .iter()
        .map(|config| solo(config, false).0)
        .collect();

    for shards in [1usize, 4] {
        for make_policy in POLICIES {
            let policy = make_policy();
            let name = policy.name();
            let (mover, digest, survivors) = migration_run(shards, policy, false);
            assert_eq!(
                mover, mover_solo,
                "{name}, {shards} shard(s): migration changed the mover's encoded bits"
            );
            assert_eq!(
                digest, mover_digest,
                "{name}, {shards} shard(s): the carried digest must seal the same stream"
            );
            assert_eq!(
                survivors, survivor_solos,
                "{name}, {shards} shard(s): a migration changed a bystander's encoded bits"
            );
        }
    }
}

/// Decodes a full stream of temporal/intra payloads into per-frame pixel
/// frames with a fresh stateful decoder.
fn decode_stream(payloads: &[Vec<u8>]) -> Vec<SrgbFrame> {
    let mut decoder = BdDecoder::new();
    let mut out = SrgbFrame::filled(pvc_frame::Dimensions::new(1, 1), Default::default());
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

#[test]
fn migrated_temporal_streams_refresh_at_the_handoff_and_realign() {
    // In temporal mode the migrated stream is NOT byte-identical to the
    // solo run: the destination shard's fresh encoder has no reference,
    // so the handoff frame is a forced intra refresh. The pin is the
    // splice form of determinism: at most that one frame differs, it is
    // an intra keyframe where the solo run had a predicted frame, the
    // streams re-align bit-exactly immediately after (both references
    // are the same adjusted frame), and the *decoded pixels* are equal
    // everywhere. Survivors are never refreshed, so their streams stay
    // bit-identical.
    let (mover_solo, _) = solo(&mover_config(), true);
    let mover_solo_pixels = decode_stream(&mover_solo);
    let survivor_solos: Vec<Vec<Vec<u8>>> = survivor_configs()
        .iter()
        .map(|config| solo(config, true).0)
        .collect();

    for shards in [1usize, 4] {
        for make_policy in POLICIES {
            let policy = make_policy();
            let name = policy.name();
            let (mover, _digest, survivors) = migration_run(shards, policy, true);
            assert_eq!(mover.len(), mover_solo.len());
            let mismatches: Vec<usize> = (0..mover.len())
                .filter(|&index| mover[index] != mover_solo[index])
                .collect();
            assert!(
                mismatches.len() <= 1,
                "{name}, {shards} shard(s): only the handoff frame may differ, \
                 got mismatches at {mismatches:?}"
            );
            if let Some(&handoff) = mismatches.first() {
                assert!(
                    !is_temporal_bitstream(&mover[handoff]),
                    "{name}, {shards} shard(s): the handoff frame must be an intra refresh"
                );
                assert!(
                    is_temporal_bitstream(&mover_solo[handoff]),
                    "{name}, {shards} shard(s): a keyframe-slot handoff cannot mismatch \
                     (keyframes are a pure function of the frame)"
                );
            }
            assert_eq!(
                decode_stream(&mover),
                mover_solo_pixels,
                "{name}, {shards} shard(s): the refresh must not change a single decoded pixel"
            );
            assert_eq!(
                survivors, survivor_solos,
                "{name}, {shards} shard(s): a migration changed a bystander's encoded bits"
            );
        }
    }
}

#[test]
fn shed_stream_splices_the_two_solo_runs_at_the_switch_frame() {
    let profile = SessionProfile::for_tier(ResolutionTier::VisionClass, base_dims(), 600);
    let lower = profile.downgraded().expect("vision downgrades");
    let config = SessionConfig::synthetic(0, base_dims(), 600).with_profile(profile);
    let lower_config = config.clone().with_profile(lower);
    let (upper_solo, _) = solo(&config, false);
    let (lower_solo, _) = solo(&lower_config, false);

    for then_migrate in [false, true] {
        let mut runtime =
            StreamRuntime::start_static(service_config(false).with_collect_wire(true));
        let id = runtime.admit(config.clone());
        wait_for_rendering(
            &runtime,
            0,
            config.pixel_cost() * u64::from(config.frames()),
        );
        assert!(runtime.shed(id, lower), "a live session must shed");
        if then_migrate {
            let dest = runtime.spawn_shard();
            assert!(
                runtime.migrate(id, dest),
                "the shed session is still streaming"
            );
        }
        let report = runtime.retire(id);
        runtime.shutdown();

        assert_eq!(report.downgraded_from, Some(ResolutionTier::VisionClass));
        assert_eq!(report.tier, lower.tier);
        let switch = report.downgrade_frame.expect("the shed landed mid-stream") as usize;
        assert!(
            0 < switch && switch < lower.frames as usize,
            "the switch frame ({switch}) lies after frame 0 and before the \
             downgraded budget ({})",
            lower.frames
        );
        let payloads = report.payloads.expect("collect_payloads was set");
        assert_eq!(
            payloads.len(),
            lower.frames as usize,
            "the stream finishes on the downgraded frame budget"
        );
        assert_eq!(
            payloads[..switch],
            upper_solo[..switch],
            "migrate {then_migrate}: frames before the downgrade match the solo \
             original-tier run"
        );
        assert_eq!(
            payloads[switch..],
            lower_solo[switch..],
            "migrate {then_migrate}: frames from the switch on match the solo \
             downgraded run at the same indices"
        );
        let wire = report.wire_stream.expect("collect_wire was set");
        let mut reader = WireReader::new(&wire);
        let mut tier_changes = Vec::new();
        while let Some(record) = reader.next_record() {
            if let WireRecord::TierChange(change) = record.expect("the wire stream parses") {
                tier_changes.push(change.frame_index as usize);
            }
        }
        assert_eq!(
            tier_changes,
            vec![switch],
            "migrate {then_migrate}: exactly one tier-change record, at the switch"
        );
    }
}
