//! Decode-side replay shared by the fleet drivers: run every session's
//! wire stream through a [`SessionClient`] and aggregate the delivery
//! quality per tier.
//!
//! When a `--link` scenario is active, the binaries collect each
//! session's framed wire stream, replay it here over the simulated link,
//! and report what the headsets actually displayed: on-time / late /
//! dropped frames, delivered FPS, goodput, and the PSNR of the shown
//! pixels against the (lossless) decoded reference. On a lossless link
//! every frame arrives on time and the PSNR is infinite — rendered as
//! `null` in the JSON, `inf` in the tables.

use crate::json::{object, Json};
use pvc_client::{ClientReport, LinkModel, SessionClient};
use pvc_metrics::DeliveryReport;
use pvc_stream::SessionReport;
use pvc_trace::{Lane, Recorder, ThreadTrace, TraceEpoch};

/// The decode-side view of a whole fleet: one [`ClientReport`] per
/// session plus per-tier and fleet-wide delivery aggregates.
pub struct LinkReplay {
    /// The link model the replay ran over.
    pub link: LinkModel,
    /// Per-session client reports, in the order the sessions were given.
    pub sessions: Vec<ClientReport>,
    /// Per-tier merged delivery accounting, `(tier name, sessions, merged)`.
    pub tiers: Vec<(String, usize, DeliveryReport)>,
    /// The whole fleet's merged delivery accounting.
    pub totals: DeliveryReport,
}

/// Replays every session's wire stream through a fresh [`SessionClient`]
/// on `link`.
///
/// # Panics
///
/// Panics when a session is missing its wire stream (the binary forgot
/// `with_collect_wire`) or ships a malformed stream — both are bugs, not
/// user errors.
pub fn replay_sessions(link: LinkModel, sessions: &[&SessionReport]) -> LinkReplay {
    run_replay(SessionClient::new(link), sessions).0
}

/// Like [`replay_sessions`], with the client recording decode spans (wall
/// time) and link-transit spans (the stream's virtual timeline) into a
/// trace sealed as one client thread (`shard` = replay index 0). Push the
/// returned [`ThreadTrace`] onto the run's `TraceReport` so the export
/// shows the decode side next to the serving threads.
///
/// # Panics
///
/// Same contract as [`replay_sessions`].
pub fn replay_sessions_traced(
    link: LinkModel,
    sessions: &[&SessionReport],
    epoch: TraceEpoch,
    ring_capacity: usize,
) -> (LinkReplay, ThreadTrace) {
    let client = SessionClient::new(link).with_trace(Recorder::new(epoch, ring_capacity));
    let (replay, mut client) = run_replay(client, sessions);
    let recorder = client.take_recorder().expect("recorder installed above");
    (replay, recorder.into_thread(0, Lane::Client))
}

fn run_replay(
    mut client: SessionClient,
    sessions: &[&SessionReport],
) -> (LinkReplay, SessionClient) {
    let link = *client.link();
    let mut reports = Vec::with_capacity(sessions.len());
    let mut tiers: Vec<(String, usize, DeliveryReport)> = Vec::new();
    let mut totals = DeliveryReport::default();
    for session in sessions {
        let wire = session
            .wire_stream
            .as_ref()
            .expect("link replay needs with_collect_wire(true)");
        let seen = client
            .consume(wire)
            .expect("worker-emitted wire streams are well-formed");
        totals.merge(&seen.delivery);
        let label = session.tier.name();
        match tiers.iter_mut().find(|(name, _, _)| name == label) {
            Some((_, count, merged)) => {
                *count += 1;
                merged.merge(&seen.delivery);
            }
            None => tiers.push((label.to_string(), 1, seen.delivery)),
        }
        reports.push(seen);
    }
    (
        LinkReplay {
            link,
            sessions: reports,
            tiers,
            totals,
        },
        client,
    )
}

/// Prints the human-readable link tables: per-session delivery, per-tier
/// aggregates, and the fleet-wide summary line.
pub fn print_replay(replay: &LinkReplay) {
    let link = &replay.link;
    println!(
        "\nlink replay: bandwidth {}, latency {} ms, drop probability {}",
        match link.bandwidth_mbits {
            Some(mbits) => format!("{mbits} Mbit/s"),
            None => "unlimited".to_string(),
        },
        link.latency_ms,
        link.drop_probability,
    );
    println!("session  tier       sent  on-time  late  dropped  fps   Mbit/s  PSNR dB");
    for seen in &replay.sessions {
        let d = &seen.delivery;
        println!(
            "{:>7}  {:<9} {:>5} {:>8} {:>5} {:>8} {:>5.1} {:>8.2} {:>8.1}",
            seen.header.session,
            seen.header.tier.name(),
            d.frames_sent,
            d.frames_delivered,
            d.frames_late,
            d.frames_dropped,
            d.delivered_fps(),
            d.goodput_mbits(),
            d.psnr_db(),
        );
    }
    println!("\ntier       sessions  sent  on-time  late  dropped  delivery  PSNR dB");
    for (label, count, merged) in &replay.tiers {
        println!(
            "{:<9} {:>9} {:>5} {:>8} {:>5} {:>8} {:>8.0}% {:>8.1}",
            label,
            count,
            merged.frames_sent,
            merged.frames_delivered,
            merged.frames_late,
            merged.frames_dropped,
            merged.delivery_rate() * 100.0,
            merged.psnr_db(),
        );
    }
    let totals = &replay.totals;
    println!(
        "\nfleet delivery: {}/{} frames on time ({:.0}%), {} late, {} dropped, \
         {:.2} Mbit/s goodput, displayed PSNR {:.1} dB",
        totals.frames_delivered,
        totals.frames_sent,
        totals.delivery_rate() * 100.0,
        totals.frames_late,
        totals.frames_dropped,
        totals.goodput_mbits(),
        totals.psnr_db(),
    );
}

fn delivery_json(delivery: &DeliveryReport) -> Json {
    object([
        ("frames_sent", delivery.frames_sent.into()),
        ("frames_delivered", delivery.frames_delivered.into()),
        ("frames_late", delivery.frames_late.into()),
        ("frames_dropped", delivery.frames_dropped.into()),
        ("bytes_sent", delivery.bytes_sent.into()),
        ("bytes_delivered", delivery.bytes_delivered.into()),
        ("blank_slots", delivery.blank_slots.into()),
        ("delivery_rate", delivery.delivery_rate().into()),
        ("delivered_fps", delivery.delivered_fps().into()),
        ("goodput_mbits", delivery.goodput_mbits().into()),
        // Infinite on a lossless link; the renderer turns that into null.
        ("psnr_db", delivery.psnr_db().into()),
    ])
}

/// The `link` section of the benches' `--json` document: the model
/// parameters plus fleet / per-tier / per-session delivery reports.
pub fn replay_json(replay: &LinkReplay) -> Json {
    let link = &replay.link;
    object([
        (
            "model",
            object([
                (
                    "bandwidth_mbits",
                    link.bandwidth_mbits.map_or(Json::Null, Json::F64),
                ),
                ("latency_ms", link.latency_ms.into()),
                ("drop_probability", link.drop_probability.into()),
                ("seed", link.seed.into()),
            ]),
        ),
        ("totals", delivery_json(&replay.totals)),
        (
            "tiers",
            Json::Array(
                replay
                    .tiers
                    .iter()
                    .map(|(label, count, merged)| {
                        object([
                            ("tier", label.as_str().into()),
                            ("sessions", (*count).into()),
                            ("delivery", delivery_json(merged)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "sessions",
            Json::Array(
                replay
                    .sessions
                    .iter()
                    .map(|seen| {
                        object([
                            ("session", seen.header.session.into()),
                            ("tier", seen.header.tier.name().into()),
                            ("cancelled", seen.cancelled.into()),
                            ("delivery", delivery_json(&seen.delivery)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_frame::Dimensions;
    use pvc_stream::{ServiceConfig, SessionConfig, StreamRuntime, WorkloadMix};

    fn fleet() -> Vec<SessionReport> {
        let mut runtime =
            StreamRuntime::start_static(ServiceConfig::default().with_collect_wire(true));
        for index in 0..4 {
            let dims = Dimensions::new(16, 16);
            runtime.admit(SessionConfig::synthetic_mixed(
                index,
                WorkloadMix::Bimodal,
                dims,
                2,
            ));
        }
        runtime.drain();
        runtime.shutdown().sessions
    }

    #[test]
    fn lossless_replay_delivers_everything() {
        let sessions = fleet();
        let refs: Vec<&SessionReport> = sessions.iter().collect();
        let replay = replay_sessions(LinkModel::lossless(), &refs);
        assert_eq!(replay.sessions.len(), 4);
        assert_eq!(replay.totals.frames_delivered, replay.totals.frames_sent);
        assert!(replay.totals.psnr_db().is_infinite());
        // Bimodal = alternating Quest-2 / Vision-class.
        assert_eq!(replay.tiers.len(), 2);
        let rendered = replay_json(&replay).render();
        assert!(
            rendered.contains(r#""psnr_db":null"#),
            "infinite PSNR renders as null"
        );
        assert!(rendered.contains(r#""bandwidth_mbits":null"#));
    }

    #[test]
    fn traced_replay_seals_a_client_thread_and_changes_nothing() {
        use pvc_trace::Stage;

        let sessions = fleet();
        let refs: Vec<&SessionReport> = sessions.iter().collect();
        let plain = replay_sessions(LinkModel::lossless(), &refs);
        let (replay, thread) =
            replay_sessions_traced(LinkModel::lossless(), &refs, TraceEpoch::now(), 64);
        assert_eq!(replay.totals, plain.totals, "tracing is observation only");
        assert_eq!(thread.lane, Lane::Client);
        assert_eq!(thread.shard, 0);
        assert_eq!(thread.dropped, 0);
        // Every consumed frame records one decode and one transit span.
        let frames = replay.totals.frames_sent;
        assert_eq!(thread.stages.stage_merged(Stage::Decode).count(), frames);
        assert_eq!(
            thread.stages.stage_merged(Stage::LinkTransit).count(),
            frames
        );
        assert_eq!(thread.events.len() as u64, 2 * frames);
    }

    #[test]
    fn starved_link_reports_misses() {
        let sessions = fleet();
        let refs: Vec<&SessionReport> = sessions.iter().collect();
        // A link so slow nothing meets its deadline.
        let replay = replay_sessions(
            LinkModel::lossless().with_bandwidth_mbits(Some(0.001)),
            &refs,
        );
        assert_eq!(replay.totals.frames_delivered, 0);
        assert_eq!(
            replay.totals.frames_late + replay.totals.frames_dropped,
            replay.totals.frames_sent
        );
        assert!(replay.totals.psnr_db().is_finite());
    }
}
