//! The fleet benchmark: synthetic headset sessions streamed by a sharded
//! [`StreamRuntime`], optionally churned in waves.
//!
//! Prints the shared fleet report ([`FleetRun::print`]). `--mix` picks a
//! population of resolution tiers. `--temporal` turns on Skip/Delta coding
//! with smooth-pursuit gaze on odd sessions, and on the unmodified
//! `--quick` preset asserts it saves at least 30% of the intra-only bits.
//! `--waves N` adds churn: each wave retires the `--churn` oldest sessions
//! (the first `--hard-cancel` of them hard-cancelled) and admits as many
//! fresh ones. `--link` replays every wire stream over a simulated link.
//!
//! ```text
//! cargo run --release -p pvc_bench --bin fleet -- --quick
//! cargo run --release -p pvc_bench --bin fleet -- --quick --mix bimodal \
//!     --waves 2 --churn 2 --hard-cancel 1
//! cargo run --release -p pvc_bench --bin fleet -- \
//!     --sessions 32 --frames 60 --shards 8 --mix heavy-tail --placement least-loaded
//! ```

use pvc_bench::cli::{
    exit_with_usage, link_option, mix_option, placement_option, ArgSpec, CliError, ParsedArgs,
};
use pvc_bench::fleet_report::{print_parameters, FleetRun};
use pvc_bench::json::Json;
use pvc_core::{EncoderConfig, TemporalConfig};
use pvc_frame::Dimensions;
use pvc_stream::{GazeModel, ServiceConfig, SessionConfig, StreamRuntime, TraceConfig};
use std::collections::VecDeque;

const SPEC: ArgSpec = ArgSpec {
    flags: &["--quick", "--temporal"],
    options: &[
        "--keyframe-interval",
        "--sessions",
        "--frames",
        "--shards",
        "--queue-depth",
        "--width",
        "--height",
        "--waves",
        "--churn",
        "--hard-cancel",
        "--placement",
        "--mix",
        "--link",
        "--bandwidth-mbits",
        "--latency-ms",
        "--drop-prob",
        "--link-seed",
        "--json",
        "--trace",
    ],
};

const USAGE: &str = "[--quick] [--temporal] [--keyframe-interval N] \
                     [--sessions N] [--frames N] [--shards N] \
                     [--queue-depth N] [--width PX] [--height PX] \
                     [--waves N] [--churn N] [--hard-cancel N] \
                     [--placement static|p2c|least-loaded] \
                     [--mix uniform|bimodal|heavy-tail] \
                     [--link none|lossless|capped] [--bandwidth-mbits MBITS] \
                     [--latency-ms MS] [--drop-prob P] [--link-seed N] \
                     [--json PATH] [--trace PATH]";

/// Overriding any of these changes the encode workload and lifts the
/// temporal-savings bar: the ≥ 30% guarantee only holds for the
/// built-in `--quick` preset.
const TEMPORAL_BAR_KNOBS: &[&str] = &[
    "--sessions",
    "--frames",
    "--width",
    "--height",
    "--keyframe-interval",
    "--mix",
    "--waves",
];

/// The workload, after applying the preset and any explicit overrides.
struct RunConfig {
    sessions: usize,
    frames: u32,
    shards: usize,
    queue_depth: usize,
    dimensions: Dimensions,
    /// Churn waves; 0 streams the initial fleet to completion.
    waves: usize,
    /// Sessions each wave retires and replaces.
    churn: usize,
    /// Of each wave's retirements, how many are hard-cancels.
    hard_cancels: usize,
}

fn run_config(parsed: &ParsedArgs) -> Result<RunConfig, CliError> {
    let quick = parsed.has("--quick");
    let (sessions, frames, side, churn) = if quick {
        (8, 12, 96, 2)
    } else {
        (16, 30, 256, 4)
    };
    let shards = pvc_parallel::available_threads().min(if quick { 4 } else { 8 });
    let sessions = parsed.positive_usize("--sessions")?.unwrap_or(sessions);
    let churn = parsed
        .positive_usize("--churn")?
        .unwrap_or(churn)
        .min(sessions);
    Ok(RunConfig {
        sessions,
        frames: parsed.positive_u32("--frames")?.unwrap_or(frames),
        shards: parsed.positive_usize("--shards")?.unwrap_or(shards),
        queue_depth: parsed.positive_usize("--queue-depth")?.unwrap_or(4),
        dimensions: Dimensions::new(
            parsed.positive_u32("--width")?.unwrap_or(side),
            parsed.positive_u32("--height")?.unwrap_or(side),
        ),
        waves: parsed.positive_usize("--waves")?.unwrap_or(0),
        churn,
        hard_cancels: parsed
            .non_negative_usize("--hard-cancel")?
            .map_or(0, |n| n.min(churn)),
    })
}

fn main() {
    let parsed = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let config = run_config(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    // Load-aware placement: churn is where modulo routing leaves shards
    // lopsided, and placement moves only timing, never encoded bits.
    let placement =
        placement_option(&parsed, "p2c").unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let mix = mix_option(&parsed, "uniform").unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let link_model = link_option(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let temporal_on = parsed.has("--temporal");
    let keyframe_interval = parsed
        .positive_u32("--keyframe-interval")
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE))
        .unwrap_or(TemporalConfig::default().keyframe_interval);

    let parameters = [
        ("sessions", config.sessions.into()),
        ("frames", u64::from(config.frames).into()),
        ("shards", config.shards.into()),
        ("queue_depth", config.queue_depth.into()),
        ("width", u64::from(config.dimensions.width).into()),
        ("height", u64::from(config.dimensions.height).into()),
        ("waves", config.waves.into()),
        ("churn", config.churn.into()),
        ("hard_cancels", config.hard_cancels.into()),
        ("placement", placement.name().into()),
        ("mix", mix.name().into()),
        ("quick", Json::Bool(parsed.has("--quick"))),
        ("temporal", Json::Bool(temporal_on)),
        ("keyframe_interval", u64::from(keyframe_interval).into()),
    ];
    print_parameters("fleet", &parameters);

    let mut encoder_config = EncoderConfig::default();
    if temporal_on {
        encoder_config = encoder_config.with_temporal(TemporalConfig::every(keyframe_interval));
    }
    let mut runtime = StreamRuntime::start(
        ServiceConfig::default()
            .with_shards(config.shards)
            .with_queue_depth(config.queue_depth)
            .with_encoder(encoder_config)
            // The link replay consumes each session's framed wire stream,
            // including the partial streams of hard-cancelled sessions.
            .with_collect_wire(link_model.is_some())
            // Tracing is always on (allocation-free on the hot path);
            // `--trace` only controls the Chrome export.
            .with_trace(TraceConfig::default()),
        placement,
    );
    // Temporal runs use the fixation/smooth-pursuit workload: the default
    // fixation-saccade model on even sessions, smooth pursuit on odd
    // ones, the two gaze behaviors whose inter-frame coherence temporal
    // coding exploits. Intra-only runs keep the all-fixation population
    // so their numbers stay comparable across changes.
    let session = |index: usize| {
        let session = SessionConfig::synthetic_mixed(index, mix, config.dimensions, config.frames);
        if temporal_on && index % 2 == 1 {
            session.with_gaze_model(GazeModel::pursuit(1.5))
        } else {
            session
        }
    };
    let mut live: VecDeque<usize> = (0..config.sessions)
        .map(|index| runtime.admit(session(index)))
        .collect();

    // retire() hands each report over for good; keep them so the report
    // covers the whole fleet, not just the survivors.
    let mut retired = Vec::new();
    for wave in 1..=config.waves {
        let mut retired_ids = Vec::new();
        for slot in 0..config.churn.min(live.len()) {
            let id = live.pop_front().expect("live fleet is non-empty");
            // The first `hard_cancels` retirements of each wave model a
            // user yanking the headset: remaining frames are dropped.
            retired.push(if slot < config.hard_cancels {
                runtime.retire_now(id)
            } else {
                runtime.retire(id)
            });
            retired_ids.push(id);
            let next = runtime.churn().admitted as usize;
            live.push_back(runtime.admit(session(next)));
        }
        let loads: Vec<String> = runtime
            .shard_loads()
            .iter()
            .map(|l| format!("{}:{:.2}Mpx", l.sessions, l.session_pixels as f64 / 1e6))
            .collect();
        println!(
            "wave {wave}: retired {retired_ids:?}, shard sessions:pixels [{}]",
            loads.join(" ")
        );
    }
    runtime.drain();
    let cancelled = retired.iter().filter(|report| report.cancelled).count() as u64;
    let run = FleetRun::new(runtime.shutdown(), retired, link_model);
    run.print();

    let churn = &run.report.churn;
    assert_eq!(churn.completed, churn.admitted, "every stream must finish");
    assert_eq!(
        churn.cancelled, cancelled,
        "cancellation telemetry must match the reports handed out"
    );
    assert!(run.report.totals.frames_per_second() > 0.0);
    // The acceptance bar for the temporal path: on the unmodified
    // `--quick` workload, inter-frame coding must save at least 30% of
    // the intra-only bits.
    let preset_workload = TEMPORAL_BAR_KNOBS
        .iter()
        .all(|knob| parsed.value(knob).is_none());
    if temporal_on && parsed.has("--quick") && preset_workload {
        assert!(
            run.temporal.reduction_over_intra_percent() >= 30.0,
            "temporal coding must save >= 30% of the intra-only bits on the \
             --quick workload (saved {:.1}%)",
            run.temporal.reduction_over_intra_percent(),
        );
    }

    run.write_outputs(&parsed, || run.json("fleet", &parameters));
}
