//! The report both fleet drivers (`fleet`, `fleet_elastic`) print and
//! write once their runtime has shut down: the session, tier, shard,
//! aggregate and temporal tables, the optional link replay, the
//! per-stage latency table, the `--json` document and the `--trace`
//! Chrome export.
//!
//! A [`FleetRun`] covers every session the run served. The runtime's
//! [`ServiceReport`] keeps only the sessions nobody retired, so a driver
//! hands back the reports `retire`/`retire_now` returned, and every
//! aggregate here counts retired sessions and survivors alike.

use crate::cli::ParsedArgs;
use crate::json::{
    object, session_json, shard_json, summary_json, temporal_json, throughput_json, with_field,
    write_json, Json,
};
use crate::link::{self, LinkReplay};
use crate::report::assert_session_rates;
use crate::trace_export;
use pvc_client::LinkModel;
use pvc_core::BatchCacheStats;
use pvc_metrics::{TemporalTotals, TierAggregates};
use pvc_stream::{ServiceReport, SessionReport, TraceConfig};

/// A finished fleet run, with aggregates over every session it served.
pub struct FleetRun {
    /// The runtime's shutdown report, its `sessions` extended to every
    /// session the run served (retired ones included), in id order.
    pub report: ServiceReport,
    /// Per-tier totals over every served session.
    tiers: TierAggregates,
    /// Temporal-coding totals over every served session.
    pub temporal: TemporalTotals,
    /// Eccentricity-map cache counters over every served session.
    cache: BatchCacheStats,
    /// The decode-side replay, when the run had a link model.
    replay: Option<LinkReplay>,
}

impl FleetRun {
    /// Folds the reports handed out by `retire`/`retire_now` back into
    /// the shutdown report, checks every session's rates, and replays
    /// the wire streams over `link` when one is given. A traced run's
    /// replay joins its trace as a client thread.
    ///
    /// # Panics
    ///
    /// Panics when a session with frames reports a zero rate (see
    /// [`assert_session_rates`]), or when `link` is set and a session
    /// has no wire stream.
    pub fn new(
        mut report: ServiceReport,
        retired: Vec<SessionReport>,
        link: Option<LinkModel>,
    ) -> FleetRun {
        report.sessions.extend(retired);
        report.sessions.sort_by_key(|session| session.session);
        let mut tiers = TierAggregates::new();
        let mut temporal = TemporalTotals::default();
        let mut cache = BatchCacheStats::default();
        for session in &report.sessions {
            assert_session_rates(session);
            tiers.record(session.tier.name(), session.cancelled, &session.throughput);
            temporal.merge(&session.temporal);
            cache.hits += session.cache.hits;
            cache.misses += session.cache.misses;
        }
        let replay = link.map(|model| {
            let sessions: Vec<&SessionReport> = report.sessions.iter().collect();
            match report.trace.as_mut() {
                Some(trace) => {
                    let (replay, thread) = link::replay_sessions_traced(
                        model,
                        &sessions,
                        trace.epoch,
                        TraceConfig::default().ring_capacity,
                    );
                    trace.threads.push(thread);
                    replay
                }
                None => link::replay_sessions(model, &sessions),
            }
        });
        FleetRun {
            report,
            tiers,
            temporal,
            cache,
            replay,
        }
    }

    /// Prints the session, tier, shard, aggregate and temporal tables,
    /// then the link replay and the per-stage table when present. A `!`
    /// after a session's frame count marks a hard-cancel.
    pub fn print(&self) {
        let report = &self.report;
        println!(
            "\nsession  scene      tier       shard  frames     kB out    fps  hit-rate  shed-from"
        );
        for session in &report.sessions {
            println!(
                "{:>7}  {:<9} {:<9} {:>5} {:>7}{} {:>9.1} {:>6.1} {:>8.0}%  {}",
                session.session,
                session.scene.name(),
                session.tier.name(),
                session.shard,
                session.throughput.frames,
                if session.cancelled { "!" } else { " " },
                session.throughput.bytes_out as f64 / 1e3,
                session.throughput.frames_per_second(),
                session.cache.hit_rate() * 100.0,
                session.downgraded_from.map_or("-", |tier| tier.name()),
            );
        }

        println!("\ntier       sessions  cancelled  frames      Mpx    fps   Mpx/s");
        for tier in self.tiers.entries() {
            println!(
                "{:<9} {:>9} {:>10} {:>7} {:>8.2} {:>6.1} {:>7.2}",
                tier.label,
                tier.sessions,
                tier.cancelled,
                tier.throughput.frames,
                tier.throughput.pixels as f64 / 1e6,
                tier.throughput.frames_per_second(),
                tier.throughput.megapixels_per_second(),
            );
        }

        println!("\nshard  sessions  frames  utilization   Mpx/s  queue-stalls");
        for shard in &report.shards {
            println!(
                "{:>5} {:>9} {:>7} {:>11.0}% {:>7.2} {:>13}",
                shard.shard,
                shard.sessions,
                shard.frames,
                shard.utilization() * 100.0,
                shard.megapixels_per_second(),
                shard.queue_stalls,
            );
        }

        let totals = &report.totals;
        let (frames, wall) = (totals.frames, totals.wall_seconds);
        let mpx = totals.pixels as f64 / 1e6;
        let (fps, mpx_s) = (totals.frames_per_second(), totals.megapixels_per_second());
        let (mb_in, mb_out) = (totals.bytes_in as f64 / 1e6, totals.bytes_out as f64 / 1e6);
        let reduction = totals.bandwidth_reduction_percent();
        let mbit_s = totals.output_megabits_per_second();
        let cache = &self.cache;
        let hit_rate = cache.hit_rate() * 100.0;
        let churn = &report.churn;
        println!("\naggregate:");
        println!("  frames encoded      {frames} ({mpx:.2} Mpx) in {wall:.3} s");
        println!("  throughput          {fps:.1} frames/s ({mpx_s:.2} Mpx/s)");
        println!("  bytes in / out      {mb_in:.2} MB / {mb_out:.2} MB ({reduction:.1}% reduction, {mbit_s:.1} Mbit/s on the wire)");
        println!(
            "  map-cache hit rate  {hit_rate:.0}% ({} hits / {} misses)",
            cache.hits, cache.misses
        );
        println!(
            "  churn               {} admitted / {} retired / {} completed / {} cancelled \
             (peak {} concurrent)",
            churn.admitted, churn.retired, churn.completed, churn.cancelled, churn.peak_concurrent,
        );
        if let Some(u) = report.utilization_summary() {
            let (mean, min, max) = (u.mean * 100.0, u.min * 100.0, u.max * 100.0);
            let spread = max - min;
            println!("  shard utilization   mean {mean:.0}% (min {min:.0}%, max {max:.0}%, spread {spread:.0}pp)");
        }
        if let Some(p) = report.pixel_throughput_summary() {
            let (mean, min, max, spread) = (p.mean, p.min, p.max, p.max - p.min);
            println!("  shard pixel rate    mean {mean:.2} Mpx/s (min {min:.2}, max {max:.2}, spread {spread:.2})");
        }

        let t = &self.temporal;
        let (key, predicted) = (t.keyframes, t.predicted_frames);
        let (skip, delta, intra) = (t.skip_tiles, t.delta_tiles, t.intra_tiles);
        let saved = t.reduction_over_intra_percent();
        println!("\ntemporal coding:");
        println!("  frames              {key} key / {predicted} predicted");
        println!("  tiles               {skip} skip / {delta} delta / {intra} intra");
        println!(
            "  bits                {} emitted vs {} intra-only ({saved:.1}% saved)",
            t.bits, t.intra_bits
        );

        if let Some(replay) = &self.replay {
            link::print_replay(replay);
        }
        if let Some(trace) = &report.trace {
            trace_export::print_stage_table(trace);
        }
    }

    /// The machine-readable report: aggregate rates, cache counters,
    /// per-tier / per-session / per-shard breakdowns, the shard
    /// utilization and pixel-rate spreads, the churn and elasticity
    /// counters, and the `link` and `trace` sections when present.
    pub fn json(&self, bench: &str, parameters: &[(&str, Json)]) -> Json {
        let report = &self.report;
        let tier_entries = self
            .tiers
            .entries()
            .iter()
            .map(|tier| {
                let mut temporal = TemporalTotals::default();
                for session in &report.sessions {
                    if session.tier.name() == tier.label {
                        temporal.merge(&session.temporal);
                    }
                }
                object([
                    ("tier", tier.label.as_str().into()),
                    ("sessions", tier.sessions.into()),
                    ("cancelled", tier.cancelled.into()),
                    ("throughput", throughput_json(&tier.throughput)),
                    ("temporal", temporal_json(&temporal)),
                ])
            })
            .collect();
        let churn = &report.churn;
        let elasticity = &report.elasticity;
        let mut document = object([
            ("bench", bench.into()),
            (
                "parameters",
                Json::Object(
                    parameters
                        .iter()
                        .map(|(key, value)| (key.to_string(), value.clone()))
                        .collect(),
                ),
            ),
            ("totals", throughput_json(&report.totals)),
            ("temporal", temporal_json(&self.temporal)),
            (
                "cache",
                object([
                    ("hits", self.cache.hits.into()),
                    ("misses", self.cache.misses.into()),
                    ("hit_rate", self.cache.hit_rate().into()),
                ]),
            ),
            ("tiers", Json::Array(tier_entries)),
            (
                "sessions",
                Json::Array(report.sessions.iter().map(session_json).collect()),
            ),
            (
                "shards",
                Json::Array(report.shards.iter().map(shard_json).collect()),
            ),
            (
                "shard_spread",
                object([
                    ("utilization", summary_json(report.utilization_summary())),
                    (
                        "megapixels_per_second",
                        summary_json(report.pixel_throughput_summary()),
                    ),
                ]),
            ),
            (
                "churn",
                object([
                    ("admitted", churn.admitted.into()),
                    ("retired", churn.retired.into()),
                    ("completed", churn.completed.into()),
                    ("cancelled", churn.cancelled.into()),
                    ("peak_concurrent", churn.peak_concurrent.into()),
                ]),
            ),
            (
                "elasticity",
                object([
                    ("rejected", elasticity.rejected.into()),
                    ("queued", elasticity.queued.into()),
                    ("shed", elasticity.shed.into()),
                    ("migrated", elasticity.migrated.into()),
                    ("shards_spawned", elasticity.shards_spawned.into()),
                    ("shards_drained", elasticity.shards_drained.into()),
                ]),
            ),
        ]);
        if let Some(replay) = &self.replay {
            document = with_field(document, "link", link::replay_json(replay));
        }
        if let Some(trace) = &report.trace {
            document = with_field(document, "trace", trace_export::trace_section_json(trace));
        }
        document
    }

    /// Writes `document()` to the `--json` path and the run's Chrome
    /// trace to the `--trace` path, for whichever of the two was given.
    /// Exits with status 1 when a file cannot be written.
    ///
    /// # Panics
    ///
    /// Panics when `--trace` is given and the run was not traced.
    pub fn write_outputs(&self, parsed: &ParsedArgs, document: impl FnOnce() -> Json) {
        if let Some(path) = parsed.value("--json") {
            write_or_exit(path, &document(), "json");
        }
        if let Some(path) = parsed.value("--trace") {
            let trace = self.report.trace.as_ref().expect("fleet runs are traced");
            write_or_exit(
                path,
                &trace_export::chrome_trace_json(trace),
                "chrome trace",
            );
        }
    }
}

/// Prints a driver's banner: its name and every workload parameter as
/// `key=value`, the same pairs its `--json` document records.
pub fn print_parameters(bench: &str, parameters: &[(&str, Json)]) {
    let pairs: Vec<String> = parameters
        .iter()
        .map(|(key, value)| match value {
            Json::Str(text) => format!("{key}={text}"),
            other => format!("{key}={}", other.render()),
        })
        .collect();
    println!("{bench}: {}", pairs.join(" "));
}

fn write_or_exit(path: &str, document: &Json, what: &str) {
    match write_json(std::path::Path::new(path), document) {
        Ok(()) => println!("({what} written to {path})"),
        Err(err) => {
            eprintln!("error: could not write {what} to {path}: {err}");
            std::process::exit(1);
        }
    }
}
