//! The fleet workload: the serving path.
//!
//! A `StreamRuntime` with one shard per two cores (the static placement)
//! serves a closed loop of [`LIVE`] sessions drawn from the heavy-tail
//! tier mix: whenever the oldest session is retired, the next one is
//! admitted. A round is [`ROUND`] sessions, one Vision-class whale
//! among them, with seeds derived from the workload seed; the run serves
//! whole rounds, so every run of one seed emits the same bytes. After each
//! retire, a client decodes the session's wire stream over a lossless
//! link. Timings are taken per round and reported as the median round.

use crate::report::{fnv1a, mean, peak_rss_mb, quantile, Outcome, FNV_OFFSET_BASIS};
use crate::Args;
use pvc_bdc::{BdConfig, BdEncoder, BitWriter};
use pvc_client::{LinkModel, SessionClient};
use pvc_color::{LinearRgb, Srgb8};
use pvc_core::EncoderConfig;
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, SrgbTileLanes};
use pvc_metrics::TemporalTotals;
use pvc_scenes::{SceneConfig, SceneRenderer};
use pvc_stream::{
    ServiceConfig, ServiceReport, SessionConfig, SessionReport, StreamRuntime, TraceConfig,
    WireReader, WireRecord, WorkloadMix,
};
use pvc_trace::Stage;
use std::collections::VecDeque;
use std::time::Instant;

/// Quest-2-equivalent base render size of every session.
pub const BASE: u32 = 256;
/// Quest-2-equivalent (72 Hz) frame budget; faster tiers get more frames.
pub const BASE_FRAMES: u32 = 12;
/// Sessions per round; the heavy-tail mix repeats every eight sessions.
pub const ROUND: usize = 8;
/// Sessions kept live at once: a whole round, so that every session
/// shares the shard with the same mix of tiers.
pub const LIVE: usize = ROUND;
/// Runtime set-ups per run; the run reports their median.
const SETUP_REPEATS: usize = 15;
const MIX: WorkloadMix = WorkloadMix::HeavyTail;

/// The workload parameters recorded with every result.
pub fn params() -> String {
    format!(
        "{{\"base\": \"{BASE}x{BASE}\", \"base_frames\": {BASE_FRAMES}, \"mix\": \"{}\", \"round_sessions\": {ROUND}, \"live_sessions\": {LIVE}, \"shards\": {}, \"placement\": \"static\", \"link\": \"lossless\"}}",
        MIX.name(),
        shards()
    )
}

fn shards() -> usize {
    (pvc_parallel::available_threads() / 2).max(1)
}

/// The session in position `slot` of every round.
fn session_config(slot: usize, seed: u64) -> SessionConfig {
    let base = Dimensions::new(BASE, BASE);
    let session_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(slot as u64);
    SessionConfig::synthetic_mixed(slot, MIX, base, BASE_FRAMES).with_seed(session_seed)
}

fn service_config(traced: bool) -> ServiceConfig {
    let config = ServiceConfig::default()
        .with_shards(shards())
        .with_collect_wire(true);
    if traced {
        config.with_trace(TraceConfig::default())
    } else {
        config
    }
}

/// One round: the wall time from the previous round's last retirement
/// to its own, its pixels, and each session's stream wall time per frame.
#[derive(Debug, Default)]
struct Round {
    wall_s: f64,
    pixels: u64,
    session_frame_ms: Vec<f64>,
}

impl Round {
    fn mpx_s(&self) -> f64 {
        self.pixels as f64 / self.wall_s / 1e6
    }
}

/// What one serving phase measured.
#[derive(Debug, Default)]
struct Served {
    wall_s: f64,
    rounds: Vec<Round>,
    pixels: u64,
    admit_us: Vec<f64>,
    retire_wait_ms: Vec<f64>,
    client_s: f64,
    frames_decoded: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// Temporal statistics, emitted bits included, over the phase.
    temporal: TemporalTotals,
    shutdown_ms: f64,
}

impl Served {
    fn per_round(&self, count: u64) -> f64 {
        count as f64 / self.rounds.len() as f64
    }
}

/// Median over `rounds` of a per-round figure. Every round serves the same
/// work, so the median round is robust to a burst of load on the machine.
fn median_round<'a>(rounds: impl Iterator<Item = &'a Round>, figure: fn(&Round) -> f64) -> f64 {
    quantile(&rounds.map(figure).collect::<Vec<_>>(), 0.5)
}

/// Payload digest of a wire stream, chained like `stream_digest`, or
/// `None` when the framing does not parse.
fn wire_digest(wire: &[u8]) -> Option<u64> {
    let mut reader = WireReader::new(wire);
    let mut digest = FNV_OFFSET_BASIS;
    while let Some(record) = reader.next_record() {
        if let WireRecord::Frame { payload, .. } = record.ok()? {
            digest = fnv1a(digest, payload);
        }
    }
    Some(digest)
}

/// Flips one bit in the middle of frame `frame`'s payload.
fn corrupt_frame(wire: &mut [u8], frame: u64) {
    let mut reader = WireReader::new(wire);
    let mut target = None;
    while let Some(Ok(record)) = reader.next_record() {
        if let WireRecord::Frame {
            frame_index,
            payload,
            ..
        } = record
        {
            if u64::from(frame_index) == frame {
                let offset = payload.as_ptr() as usize - wire.as_ptr() as usize;
                target = Some(offset + payload.len() / 2);
            }
        }
    }
    let target = target.expect("the frame to corrupt is in the stream");
    wire[target] ^= 0x10;
}

/// Checks one retired session: the client decodes every frame of its
/// budget, the wire carries the bytes the worker digested, and the
/// digest equals that of the same slot in earlier rounds.
struct Checker {
    client: SessionClient,
    digests: [Option<u64>; ROUND],
    corrupt: Option<u64>,
}

impl Checker {
    fn check(
        &mut self,
        slot: usize,
        budget: u32,
        report: &mut SessionReport,
        served: &mut Served,
        outcome: &mut Outcome,
    ) {
        let mut ok = !report.cancelled && report.throughput.frames == u64::from(budget);
        match report.wire_stream.take() {
            Some(mut wire) => {
                if let Some(frame) = self.corrupt.take() {
                    corrupt_frame(&mut wire, frame);
                }
                ok &= wire_digest(&wire) == Some(report.stream_digest);
                let started = Instant::now();
                let consumed = self.client.consume(&wire);
                served.client_s += started.elapsed().as_secs_f64();
                match consumed {
                    Ok(seen) => {
                        served.frames_decoded += seen.delivery.frames_sent;
                        ok &= seen.terminated
                            && !seen.cancelled
                            && seen.delivery.frames_sent == u64::from(budget)
                            && seen.delivery.frames_delivered == u64::from(budget);
                    }
                    Err(_) => ok = false,
                }
            }
            None => ok = false,
        }
        let expected = self.digests[slot].get_or_insert(report.stream_digest);
        ok &= *expected == report.stream_digest;
        for _ in 0..budget {
            outcome.count(ok);
        }
    }
}

/// Serves whole rounds on `runtime` until `seconds` have passed, then
/// shuts it down and returns its final report.
fn serve(
    mut runtime: StreamRuntime,
    seed: u64,
    seconds: f64,
    checker: &mut Checker,
    outcome: &mut Outcome,
) -> (Served, ServiceReport) {
    let mut served = Served::default();
    let mut round = Round::default();
    let started = Instant::now();
    let mut round_started = started;
    let mut live = VecDeque::with_capacity(LIVE);
    let mut admitted = 0usize;
    let admit = |runtime: &mut StreamRuntime, served: &mut Served, admitted: &mut usize| {
        let slot = *admitted % ROUND;
        let config = session_config(slot, seed);
        let budget = config.frames();
        let t0 = Instant::now();
        let id = runtime.admit(config);
        served.admit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        *admitted += 1;
        (id, slot, budget)
    };
    for _ in 0..LIVE {
        live.push_back(admit(&mut runtime, &mut served, &mut admitted));
    }
    while let Some((id, slot, budget)) = live.pop_front() {
        let t0 = Instant::now();
        let mut report = runtime.retire(id);
        served.retire_wait_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let frames = report.throughput.frames.max(1);
        round
            .session_frame_ms
            .push(report.throughput.wall_seconds * 1e3 / frames as f64);
        round.pixels += report.throughput.pixels;
        served.pixels += report.throughput.pixels;
        served.cache_hits += report.cache.hits;
        served.cache_misses += report.cache.misses;
        served.temporal.merge(&report.temporal);
        checker.check(slot, budget, &mut report, &mut served, outcome);
        if slot == ROUND - 1 {
            // Sessions retire in admission order: this one closes its round.
            round.wall_s = round_started.elapsed().as_secs_f64();
            round_started = Instant::now();
            served.rounds.push(std::mem::take(&mut round));
        }
        if admitted % ROUND != 0 || started.elapsed().as_secs_f64() < seconds {
            live.push_back(admit(&mut runtime, &mut served, &mut admitted));
        }
    }
    let t0 = Instant::now();
    let service = runtime.shutdown();
    served.shutdown_ms = t0.elapsed().as_secs_f64() * 1e3;
    served.wall_s = started.elapsed().as_secs_f64();
    (served, service)
}

/// Bits plain BD spends on one round's unadjusted frames, rendered as
/// the runtime's producer renders them.
fn baseline_round_bits(seed: u64) -> u64 {
    let default_tile = EncoderConfig::default().tile_size;
    let mut frame = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
    let mut srgb = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let mut writer = BitWriter::new();
    let mut gather = SrgbTileLanes::new();
    let mut bits = 0;
    for slot in 0..ROUND {
        let config = session_config(slot, seed);
        let renderer = SceneRenderer::new(
            config.scene,
            SceneConfig::new(config.dimensions()).with_seed(config.seed),
        );
        let tile = config.profile.tile_size.unwrap_or(default_tile);
        let bd = BdEncoder::new(BdConfig::with_tile_size(tile));
        for index in 0..config.frames() {
            renderer.render_linear_into(index, &mut frame);
            frame.to_srgb_into(&mut srgb);
            bd.encode_frame_into(&srgb, &mut writer, &mut gather);
            bits += writer.bits_written();
        }
    }
    bits
}

/// A started runtime, warmed by one single-frame session through every
/// stage, and how long `start_static` and the whole set-up took.
struct Started {
    runtime: StreamRuntime,
    start_s: f64,
    setup_s: f64,
}

fn start(traced: bool) -> Started {
    let t0 = Instant::now();
    let mut runtime = StreamRuntime::start_static(service_config(traced));
    let start_s = t0.elapsed().as_secs_f64();
    let warm = runtime.admit(SessionConfig::synthetic(0, Dimensions::new(BASE, BASE), 1));
    runtime.retire(warm);
    Started {
        runtime,
        start_s,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs the fleet workload and returns its outcome.
pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut checker = Checker {
        client: SessionClient::new(LinkModel::lossless()),
        digests: [None; ROUND],
        corrupt: args.corrupt,
    };
    if !args.trace {
        // Computed first, untimed: it also wakes the machine up before
        // the set-up is timed.
        let baseline_bits = baseline_round_bits(args.seed);
        let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
        for _ in 1..SETUP_REPEATS {
            let started = start(false);
            setup_s.push(started.setup_s);
            started.runtime.shutdown();
        }
        let started = start(false);
        setup_s.push(started.setup_s);
        let (served, _) = serve(
            started.runtime,
            args.seed,
            args.seconds,
            &mut checker,
            &mut outcome,
        );
        let round_bits = served.per_round(served.temporal.bits);
        outcome.set("setup_s", quantile(&setup_s, 0.5));
        outcome.set(
            "throughput_mpx_s",
            median_round(served.rounds.iter(), Round::mpx_s),
        );
        outcome.set(
            "frame_ms_p50",
            median_round(served.rounds.iter(), |r| quantile(&r.session_frame_ms, 0.5)),
        );
        outcome.set(
            "frame_ms_p90",
            median_round(served.rounds.iter(), |r| quantile(&r.session_frame_ms, 0.9)),
        );
        outcome.set(
            "bits_per_pixel",
            served.temporal.bits as f64 / served.pixels as f64,
        );
        outcome.set(
            "reduction_vs_bd_pct",
            100.0 * (1.0 - round_bits / baseline_bits as f64),
        );
        outcome.set("frames_ok_pct", 100.0 * (1.0 - outcome.error_rate()));
        outcome.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    // The traced phase sits between two untraced halves, so the tracing
    // overhead is measured against the same machine state.
    let half_s = args.seconds / 2.0;
    let (before, _) = serve(
        start(false).runtime,
        args.seed,
        half_s,
        &mut checker,
        &mut outcome,
    );
    let started = start(true);
    let (traced, service) = serve(
        started.runtime,
        args.seed,
        args.seconds,
        &mut checker,
        &mut outcome,
    );
    let (after, _) = serve(
        start(false).runtime,
        args.seed,
        half_s,
        &mut checker,
        &mut outcome,
    );
    let untraced_mpx_s = median_round(before.rounds.iter().chain(&after.rounds), Round::mpx_s);
    let traced_mpx_s = median_round(traced.rounds.iter(), Round::mpx_s);
    let trace = service
        .trace
        .as_ref()
        .expect("a traced runtime returns its trace");
    let stage_ms = |stage: Stage| {
        trace
            .stage_histogram(stage)
            .mean_nanos()
            .map_or(0.0, |ns| ns / 1e6)
    };
    // Exact busy time per stage from the histograms' sum (mean × count).
    let stage_s = |stage: Stage| {
        let histogram = trace.stage_histogram(stage);
        histogram.mean_nanos().unwrap_or(0.0) * histogram.count() as f64 / 1e9
    };
    let shards = &service.shards;
    let shard_count = shards.len().max(1) as f64;
    let worker_busy_s = [
        Stage::Adjust,
        Stage::Gamma,
        Stage::BdEncode,
        Stage::WireEmit,
    ]
    .into_iter()
    .map(stage_s)
    .sum::<f64>()
        / shard_count;
    let render_busy_s = stage_s(Stage::Render) / shard_count;
    let client_ms = traced.client_s * 1e3 / traced.frames_decoded.max(1) as f64;

    outcome.set(
        "pvc_scenes.render_utilization",
        mean(
            &shards
                .iter()
                .map(|s| s.render_utilization())
                .collect::<Vec<_>>(),
        ),
    );
    outcome.set(
        "pvc_fovea.map_builds",
        traced.per_round(traced.cache_misses),
    );
    outcome.set(
        "pvc_core.map_hit_rate",
        traced.cache_hits as f64 / (traced.cache_hits + traced.cache_misses).max(1) as f64,
    );
    let temporal = traced.temporal;
    outcome.set("pvc_bdc.keyframes", traced.per_round(temporal.keyframes));
    outcome.set(
        "pvc_bdc.intra_tiles",
        traced.per_round(temporal.intra_tiles),
    );
    outcome.set("pvc_bdc.skip_tiles", traced.per_round(temporal.skip_tiles));
    outcome.set(
        "pvc_bdc.delta_tiles",
        traced.per_round(temporal.delta_tiles),
    );
    outcome.set("pvc_stream.start_ms", started.start_s * 1e3);
    outcome.set("pvc_stream.admit_us_mean", mean(&traced.admit_us));
    outcome.set(
        "pvc_stream.retire_wait_ms_mean",
        mean(&traced.retire_wait_ms),
    );
    outcome.set("pvc_stream.shutdown_ms", traced.shutdown_ms);
    outcome.set(
        "pvc_stream.worker_utilization",
        mean(&shards.iter().map(|s| s.utilization()).collect::<Vec<_>>()),
    );
    outcome.set(
        "pvc_parallel.queue_stalls",
        traced.per_round(shards.iter().map(|s| s.queue_stalls).sum()),
    );
    outcome.set(
        "pvc_parallel.queue_peak_depth",
        shards.iter().map(|s| s.queue_peak_depth).max().unwrap_or(0) as f64,
    );
    outcome.set("pvc_client.decode_ms_mean", client_ms);
    outcome.set(
        "pvc_client.frames_decoded",
        traced.per_round(traced.frames_decoded),
    );
    outcome.set("pvc_trace.render_ms_mean", stage_ms(Stage::Render));
    outcome.set("pvc_trace.queue_wait_ms_mean", stage_ms(Stage::QueueWait));
    outcome.set("pvc_trace.adjust_ms_mean", stage_ms(Stage::Adjust));
    outcome.set("pvc_trace.gamma_ms_mean", stage_ms(Stage::Gamma));
    outcome.set("pvc_trace.bd_encode_ms_mean", stage_ms(Stage::BdEncode));
    outcome.set("pvc_trace.wire_emit_ms_mean", stage_ms(Stage::WireEmit));
    outcome.set(
        "pvc_trace.overhead_pct",
        100.0 * (untraced_mpx_s - traced_mpx_s) / untraced_mpx_s,
    );
    outcome.set(
        "ladder.residual_pct",
        100.0 * (traced.wall_s - worker_busy_s.max(render_busy_s)) / traced.wall_s,
    );
    outcome.set("error_rate", outcome.error_rate());
    outcome
}
