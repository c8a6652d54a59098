//! The batch-style front end of the streaming subsystem.
//!
//! [`StreamService`] models the simplest serving pattern: collect a roster
//! of sessions, stream all of them to completion, read the report. Since
//! the long-lived [`StreamRuntime`] landed, the
//! service is a thin wrapper over it — `run()` is exactly *start → admit
//! all → drain → shutdown* — so everything pinned against the batch API
//! (determinism across shard counts, cache behaviour, telemetry shapes)
//! holds verbatim for the runtime underneath.
//!
//! Three properties drive the design:
//!
//! * **Stable routing.** A session is placed on one shard at admission and
//!   stays there for its whole stream, so its eccentricity-map cache stays
//!   hot on one worker. `run()` uses the deterministic [`Static`] modulo
//!   policy (`session_id % shards`);
//!   [`run_with_placement`](StreamService::run_with_placement) accepts any
//!   [`Placement`].
//! * **Bounded pipelining.** Within a shard, frame *production* (scene
//!   rendering) runs on a producer thread and frame *encoding* on the shard
//!   worker, connected by a [`pvc_parallel::bounded_queue`]. The queue
//!   depth caps rendered-but-unencoded frames (memory), and its stall
//!   counter is the backpressure signal: stalls mean encoding, not
//!   rendering, is the bottleneck.
//! * **Placement invariance.** Each session's frames are encoded in frame
//!   order by exactly one worker, from inputs derived only from the
//!   session's own config — so the encoded streams are bit-identical no
//!   matter how many shards the service runs with or which placement
//!   policy routes them. Only wall-clock telemetry changes.

use crate::placement::{Placement, Static};
use crate::runtime::StreamRuntime;
use crate::session::{SessionConfig, SessionReport, WorkloadMix};
use pvc_core::{BatchCacheStats, EncoderConfig, DEFAULT_GAZE_CACHE_CAPACITY};
use pvc_frame::Dimensions;
use pvc_metrics::{
    ChurnCounters, ElasticityCounters, SampleSummary, ThroughputReport, TierAggregates,
};
use pvc_trace::TraceReport;
use serde::{Deserialize, Serialize};

/// Configuration of the runtime's per-thread tracing (see [`pvc_trace`]).
///
/// Tracing is structurally allocation-free on the hot path: every ring
/// and histogram table is pre-allocated when the shard threads spawn, so
/// enabling it changes no encoded bit and keeps the `alloc_regression`
/// pin green.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Capacity of each pipeline thread's event ring. When a thread
    /// records more events than this, the oldest scroll out (the
    /// histograms still count every span); [`TraceReport`] reports how
    /// many were dropped.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// Returns the configuration with a different per-thread ring
    /// capacity (0 keeps only histograms, no events).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Number of shard workers.
    pub shards: usize,
    /// Depth of each shard's render→encode queue (frames in flight).
    pub queue_depth: usize,
    /// Encoder configuration shared by every session.
    pub encoder: EncoderConfig,
    /// Eccentricity-map cache capacity of each session's encoder.
    pub gaze_cache_capacity: usize,
    /// Keep every frame's encoded bitstream in the session reports.
    /// Memory-hungry; meant for tests and debugging, not serving.
    pub collect_payloads: bool,
    /// Keep each session's framed wire stream (see [`crate::wire`]) in
    /// the session reports, for client-side decode. Memory use is the
    /// session's whole compressed stream; enable it when something
    /// actually consumes the bytes (link simulation, round-trip tests).
    pub collect_wire: bool,
    /// Per-stage tracing (event rings + latency histograms). `None`
    /// disables it entirely; `Some` pre-allocates every ring at shard
    /// spawn and attaches a [`TraceReport`] to the service report.
    pub trace: Option<TraceConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            queue_depth: 4,
            encoder: EncoderConfig::default(),
            gaze_cache_capacity: DEFAULT_GAZE_CACHE_CAPACITY,
            collect_payloads: false,
            collect_wire: false,
            trace: None,
        }
    }
}

impl ServiceConfig {
    /// Returns the configuration with a different shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        self.shards = shards;
        self
    }

    /// Returns the configuration with a different queue depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth` is zero.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue depth must be non-zero");
        self.queue_depth = queue_depth;
        self
    }

    /// Returns the configuration with a different encoder configuration.
    pub fn with_encoder(mut self, encoder: EncoderConfig) -> Self {
        self.encoder = encoder;
        self
    }

    /// Returns the configuration with a different per-session gaze-cache
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_gaze_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        self.gaze_cache_capacity = capacity;
        self
    }

    /// Returns the configuration with payload collection switched on/off.
    pub fn with_collect_payloads(mut self, collect: bool) -> Self {
        self.collect_payloads = collect;
        self
    }

    /// Returns the configuration with wire-stream collection switched
    /// on/off.
    pub fn with_collect_wire(mut self, collect: bool) -> Self {
        self.collect_wire = collect;
        self
    }

    /// Returns the configuration with per-stage tracing enabled.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// What one shard worker observed over its lifetime (one
/// [`StreamService::run`] or one [`StreamRuntime`] start→shutdown).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// Sessions placed on this shard over the run.
    pub sessions: usize,
    /// Frames this shard encoded.
    pub frames: u64,
    /// Pixels this shard encoded. Under heterogeneous session profiles
    /// this — not `frames` — is the comparable per-shard work measure: a
    /// Vision-class frame costs ~3.3× a Quest-2 frame.
    pub pixels: u64,
    /// Seconds the worker spent inside the encoder.
    pub busy_seconds: f64,
    /// Seconds the shard's producer spent rendering frames. Runs on its
    /// own thread, so it overlaps (rather than adds to) `busy_seconds` —
    /// the two answer "which side of the queue is the bottleneck".
    pub render_seconds: f64,
    /// Wall-clock seconds from shard start to worker exit.
    pub wall_seconds: f64,
    /// Times the producer blocked on a full queue (backpressure events).
    pub queue_stalls: u64,
    /// Jobs ever enqueued on the shard's render→encode queue: every
    /// frame, plus one `Open` and one `Close` per session opened on the
    /// shard (a migrated or shed session is opened once more where it
    /// lands, so each move adds one of each).
    pub queue_enqueued: u64,
    /// High-water mark of the queue's occupancy. A peak pinned at the
    /// configured depth means the producer spent time blocked.
    pub queue_peak_depth: usize,
}

impl ShardReport {
    /// Fraction of the shard's wall-clock spent encoding, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.busy_seconds / self.wall_seconds).clamp(0.0, 1.0)
    }

    /// Fraction of the shard's wall-clock its producer spent rendering,
    /// in `[0, 1]` — the render-side twin of [`Self::utilization`].
    pub fn render_utilization(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.render_seconds / self.wall_seconds).clamp(0.0, 1.0)
    }

    /// The shard's pixel throughput in megapixels per second (0 when no
    /// wall-clock elapsed).
    pub fn megapixels_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.pixels as f64 / 1e6 / self.wall_seconds
    }
}

/// Everything a service run (or runtime lifetime) produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Per-session results, ordered by session id. Sessions whose reports
    /// were already handed out by `StreamRuntime::retire` are not
    /// repeated here; `totals` and `churn` still cover them.
    pub sessions: Vec<SessionReport>,
    /// Per-shard telemetry, ordered by shard index.
    pub shards: Vec<ShardReport>,
    /// Service-wide totals; `wall_seconds` is the full run's elapsed time.
    pub totals: ThroughputReport,
    /// Session admission/retirement/completion counters.
    pub churn: ChurnCounters,
    /// What the elastic control plane did over the run: tier sheds,
    /// migrations and shard spawns/drains counted by the runtime, plus —
    /// when the run was driven through `ElasticController` — the
    /// admission-side rejected/queued counts it merges in at shutdown.
    /// All-zero (see [`ElasticityCounters::is_passive`]) for a plain
    /// batch run.
    pub elasticity: ElasticityCounters,
    /// Per-thread trace (events + stage histograms) when the run was
    /// configured with [`ServiceConfig::with_trace`]. Wall-clock
    /// telemetry, machine- and timing-dependent by nature, and skipped by
    /// serde — the JSON-facing digest lives in the bench layer's `trace`
    /// section instead.
    #[serde(skip)]
    pub trace: Option<TraceReport>,
}

impl ServiceReport {
    /// Eccentricity-map cache counters summed over the sessions in this
    /// report. Sessions whose reports were handed out by
    /// `StreamRuntime::retire` are not represented — sum their reports'
    /// `cache` counters separately if a fleet-wide rate is needed.
    pub fn aggregate_cache(&self) -> BatchCacheStats {
        let mut total = BatchCacheStats::default();
        for session in &self.sessions {
            total.hits += session.cache.hits;
            total.misses += session.cache.misses;
            total.entries += session.cache.entries;
        }
        total
    }

    /// Mean/spread of per-shard utilization over the shards that actually
    /// served sessions, or `None` when no shard did.
    ///
    /// Shards that never received a session idle at utilization 0.0 by
    /// construction; including them would drag the mean down whenever
    /// `shards > sessions` and misreport how busy the serving shards were.
    pub fn utilization_summary(&self) -> Option<SampleSummary> {
        self.serving_shard_summary(ShardReport::utilization)
    }

    /// Mean/spread of per-shard **pixel throughput** (megapixels per
    /// second) over the shards that actually served sessions, or `None`
    /// when no shard did.
    ///
    /// This is the spread that stays meaningful when session profiles are
    /// heterogeneous: two shards can run at the same *utilization* while
    /// one pushes several times the pixels of the other. A placement
    /// policy balancing pixel cost should narrow this spread; one
    /// balancing session counts need not.
    pub fn pixel_throughput_summary(&self) -> Option<SampleSummary> {
        self.serving_shard_summary(ShardReport::megapixels_per_second)
    }

    /// Summarizes `metric` over the shards that served at least one
    /// session (idle shards sit at 0 by construction and would drag any
    /// mean down whenever `shards > sessions`).
    fn serving_shard_summary(&self, metric: impl Fn(&ShardReport) -> f64) -> Option<SampleSummary> {
        let values: Vec<f64> = self
            .shards
            .iter()
            .filter(|shard| shard.sessions > 0)
            .map(metric)
            .collect();
        if values.is_empty() {
            return None;
        }
        Some(SampleSummary::of(&values))
    }

    /// Per-tier totals over the sessions in this report, grouped by
    /// [`ResolutionTier::name`](crate::ResolutionTier::name). Sessions
    /// whose reports were handed out by `StreamRuntime::retire` /
    /// `retire_now` are not represented — record their reports into a
    /// [`TierAggregates`] of your own for fleet-wide tables (the
    /// `session_churn` binary does exactly that).
    pub fn tier_summary(&self) -> TierAggregates {
        let mut tiers = TierAggregates::new();
        for session in &self.sessions {
            tiers.record(session.tier.name(), session.cancelled, &session.throughput);
        }
        tiers
    }
}

/// A deterministic multi-session streaming service over the stream-mode
/// perceptual encoder: the run-to-completion front end of
/// [`StreamRuntime`]. See the [crate docs](crate) for an end-to-end
/// example.
#[derive(Debug, Clone)]
pub struct StreamService {
    config: ServiceConfig,
    sessions: Vec<SessionConfig>,
}

impl StreamService {
    /// Creates an empty service.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards, queue depth or cache
    /// capacity (the builder methods already enforce this; the assert
    /// guards struct-literal configs).
    pub fn new(config: ServiceConfig) -> StreamService {
        assert!(config.shards > 0, "shard count must be non-zero");
        assert!(config.queue_depth > 0, "queue depth must be non-zero");
        assert!(
            config.gaze_cache_capacity > 0,
            "cache capacity must be non-zero"
        );
        StreamService {
            config,
            sessions: Vec::new(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The admitted sessions, in admission order.
    pub fn sessions(&self) -> &[SessionConfig] {
        &self.sessions
    }

    /// Admits a session and returns its id (= admission index).
    pub fn admit(&mut self, session: SessionConfig) -> usize {
        self.sessions.push(session);
        self.sessions.len() - 1
    }

    /// Admits `count` synthetic sessions (see [`SessionConfig::synthetic`])
    /// and returns the range of their ids.
    pub fn admit_synthetic(
        &mut self,
        count: usize,
        dimensions: Dimensions,
        frames: u32,
    ) -> std::ops::Range<usize> {
        let first = self.sessions.len();
        for index in first..first + count {
            self.sessions
                .push(SessionConfig::synthetic(index, dimensions, frames));
        }
        first..self.sessions.len()
    }

    /// Admits `count` synthetic sessions drawn from a heterogeneous
    /// [`WorkloadMix`] (see [`SessionConfig::synthetic_mixed`]) and
    /// returns the range of their ids. `dimensions`/`frames` are the
    /// Quest-2-equivalent base render size and 72 Hz-equivalent frame
    /// budget each tier scales from.
    pub fn admit_mixed(
        &mut self,
        count: usize,
        mix: WorkloadMix,
        dimensions: Dimensions,
        frames: u32,
    ) -> std::ops::Range<usize> {
        let first = self.sessions.len();
        for index in first..first + count {
            self.sessions.push(SessionConfig::synthetic_mixed(
                index, mix, dimensions, frames,
            ));
        }
        first..self.sessions.len()
    }

    /// The shard a session id lands on under the default [`Static`]
    /// placement used by [`run`](Self::run).
    pub fn shard_of(&self, session: usize) -> usize {
        session % self.config.shards
    }

    /// Streams every admitted session to completion and reports, routing
    /// sessions with the deterministic [`Static`] modulo placement.
    ///
    /// Per-session encoded output (payload bytes, digests, cache counters)
    /// depends only on the session configs and the encoder configuration —
    /// never on the shard count, queue depth or thread scheduling. Timing
    /// telemetry (utilization, wall seconds, stalls) is of course
    /// machine-dependent.
    pub fn run(&self) -> ServiceReport {
        self.run_with_placement(Box::new(Static))
    }

    /// [`run`](Self::run) with an explicit placement policy.
    ///
    /// The thin wrapper over the long-lived runtime: start, admit every
    /// session, drain, shut down. Encoded output is identical under every
    /// policy; only load distribution (and thus timing telemetry) moves.
    pub fn run_with_placement(&self, placement: Box<dyn Placement>) -> ServiceReport {
        let mut runtime = StreamRuntime::start(self.config.clone(), placement);
        for session in &self.sessions {
            runtime.admit(session.clone());
        }
        runtime.drain();
        runtime.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaze::{FixationSaccadeConfig, GazeModel, GazeTrace};
    use crate::placement::PowerOfTwoChoices;
    use crate::session::{fnv1a_update, FNV_OFFSET_BASIS, GAZE_SEED_SALT};
    use pvc_color::SyntheticDiscriminationModel;
    use pvc_core::BatchEncoder;
    use pvc_fovea::DisplayGeometry;
    use pvc_scenes::{SceneConfig, SceneRenderer};

    fn tiny_dims() -> Dimensions {
        Dimensions::new(32, 32)
    }

    fn service_with(
        shards: usize,
        session_count: usize,
        frames: u32,
        collect: bool,
    ) -> StreamService {
        let mut service = StreamService::new(
            ServiceConfig::default()
                .with_shards(shards)
                .with_collect_payloads(collect),
        );
        service.admit_synthetic(session_count, tiny_dims(), frames);
        service
    }

    #[test]
    fn shard_count_does_not_change_encoded_streams() {
        let single = service_with(1, 5, 4, true).run();
        let sharded = service_with(3, 5, 4, true).run();
        assert_eq!(single.sessions.len(), 5);
        assert_eq!(sharded.sessions.len(), 5);
        for (a, b) in single.sessions.iter().zip(&sharded.sessions) {
            assert_eq!(a.session, b.session);
            assert_eq!(a.scene, b.scene);
            assert_eq!(a.stream_digest, b.stream_digest);
            assert_eq!(
                a.payloads, b.payloads,
                "session {} payloads differ",
                a.session
            );
            assert_eq!(a.cache, b.cache);
            assert_eq!(a.throughput.frames, b.throughput.frames);
            assert_eq!(a.throughput.bytes_out, b.throughput.bytes_out);
        }
    }

    #[test]
    fn tracing_does_not_change_encoded_streams() {
        use crate::session::WorkloadMix;
        use pvc_trace::Stage;

        let build = |trace: bool| {
            let mut config = ServiceConfig::default()
                .with_shards(2)
                .with_collect_payloads(true);
            if trace {
                config = config.with_trace(TraceConfig::default());
            }
            let mut service = StreamService::new(config);
            service.admit_mixed(4, WorkloadMix::Bimodal, tiny_dims(), 2);
            service.run()
        };
        let plain = build(false);
        let traced = build(true);

        assert!(plain.trace.is_none());
        for (a, b) in plain.sessions.iter().zip(&traced.sessions) {
            assert_eq!(a.stream_digest, b.stream_digest);
            assert_eq!(a.payloads, b.payloads, "session {}", a.session);
        }

        let trace = traced.trace.as_ref().expect("tracing was configured");
        // 2 shards × (producer + worker) + the control lane.
        assert_eq!(trace.threads.len(), 5);
        assert_eq!(trace.dropped_events(), 0, "default ring fits this run");
        let frames: u64 = traced.sessions.iter().map(|s| s.throughput.frames).sum();
        for stage in [
            Stage::Render,
            Stage::QueueWait,
            Stage::Adjust,
            Stage::Gamma,
            Stage::BdEncode,
            Stage::WireEmit,
        ] {
            assert_eq!(
                trace.stage_histogram(stage).count(),
                frames,
                "stage {} must cover every frame",
                stage.name()
            );
        }
        // The bimodal mix spans two tier classes; per-tier tables see it.
        let per_class: Vec<u64> = (0..pvc_trace::TIER_CLASS_COUNT as u8)
            .map(|class| trace.class_stage_histogram(class, Stage::BdEncode).count())
            .collect();
        assert_eq!(per_class.iter().sum::<u64>(), frames);
        assert!(
            per_class.iter().filter(|&&count| count > 0).count() >= 2,
            "bimodal mix must populate at least two tier classes: {per_class:?}"
        );
        // Control lane carries one admit marker per admission.
        let control = trace
            .threads
            .iter()
            .find(|thread| thread.lane == pvc_trace::Lane::Control)
            .expect("control lane present");
        assert_eq!(control.events.len(), 4);
    }

    #[test]
    fn placement_policy_does_not_change_encoded_streams() {
        let static_run = service_with(3, 5, 4, true).run();
        let p2c_run =
            service_with(3, 5, 4, true).run_with_placement(Box::new(PowerOfTwoChoices::default()));
        for (a, b) in static_run.sessions.iter().zip(&p2c_run.sessions) {
            assert_eq!(a.session, b.session);
            assert_eq!(a.stream_digest, b.stream_digest);
            assert_eq!(a.payloads, b.payloads);
            assert_eq!(a.cache, b.cache);
        }
    }

    #[test]
    fn service_output_matches_a_hand_driven_batch_encoder() {
        let service = service_with(1, 1, 3, true);
        let report = service.run();
        let cfg = &service.sessions()[0];

        // Re-derive the stream exactly the way the shard pipeline
        // documents it.
        let renderer = SceneRenderer::new(
            cfg.scene,
            SceneConfig::new(cfg.dimensions()).with_seed(cfg.seed),
        );
        let trace = GazeTrace::synthesize(
            &cfg.gaze_model(),
            cfg.dimensions(),
            cfg.seed ^ GAZE_SEED_SALT,
            cfg.frames() as usize,
        );
        let mut encoder = BatchEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
            DisplayGeometry::quest2_like(cfg.dimensions()),
        );
        let mut digest = FNV_OFFSET_BASIS;
        let mut expected_payloads = Vec::new();
        let mut expected_bytes_in = 0u64;
        for t in 0..cfg.frames() {
            let frame = renderer.render_linear(t);
            let result = encoder.encode(&frame, trace.samples()[t as usize]);
            let bitstream = result.encoded.to_bitstream();
            digest = fnv1a_update(digest, &bitstream);
            expected_payloads.push(bitstream);
            // Input accounting must round partial bytes *up*.
            expected_bytes_in += result.our_stats().uncompressed_bits.div_ceil(8);
        }
        let session = &report.sessions[0];
        assert_eq!(session.stream_digest, digest);
        assert_eq!(
            session.payloads.as_deref(),
            Some(expected_payloads.as_slice())
        );
        assert_eq!(session.cache, encoder.cache_stats());
        assert_eq!(session.throughput.bytes_in, expected_bytes_in);
    }

    #[test]
    fn sessions_are_routed_to_stable_shards() {
        let service = service_with(2, 4, 2, false);
        let report = service.run();
        for session in &report.sessions {
            assert_eq!(session.shard, session.session % 2);
            assert_eq!(service.shard_of(session.session), session.shard);
        }
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.shards[0].sessions, 2);
        assert_eq!(report.shards[1].sessions, 2);
        assert_eq!(report.shards[0].frames + report.shards[1].frames, 8);
    }

    #[test]
    fn totals_aggregate_every_session() {
        let report = service_with(2, 3, 2, false).run();
        assert_eq!(report.totals.frames, 6);
        assert_eq!(
            report.totals.bytes_out,
            report
                .sessions
                .iter()
                .map(|s| s.throughput.bytes_out)
                .sum::<u64>()
        );
        assert!(report.totals.wall_seconds > 0.0);
        assert!(report.totals.frames_per_second() > 0.0);
        let cache = report.aggregate_cache();
        assert_eq!(cache.hits + cache.misses, 6);
        let summary = report.utilization_summary().expect("two shards served");
        assert!(summary.mean >= 0.0 && summary.mean <= 1.0);
    }

    #[test]
    fn per_session_telemetry_is_nonzero() {
        // Regression: wall_seconds was never assigned per session, so
        // frames_per_second() and output_megabits_per_second() reported 0.
        let report = service_with(2, 3, 2, false).run();
        for session in &report.sessions {
            assert!(
                session.throughput.wall_seconds > 0.0,
                "session {} has zero wall-clock",
                session.session
            );
            assert!(session.throughput.frames_per_second() > 0.0);
            assert!(session.throughput.output_megabits_per_second() > 0.0);
        }
    }

    #[test]
    fn run_reports_churn_counters() {
        let report = service_with(2, 3, 2, false).run();
        assert_eq!(report.churn.admitted, 3);
        assert_eq!(report.churn.completed, 3);
        assert_eq!(report.churn.retired, 0, "run() never retires individually");
        assert_eq!(report.churn.cancelled, 0, "run() never hard-cancels");
        assert!(report.churn.peak_concurrent >= 1);
        assert_eq!(report.churn.in_flight(), 0);
    }

    #[test]
    fn mixed_workloads_report_per_tier_and_pixel_telemetry() {
        use crate::session::{ResolutionTier, WorkloadMix};
        let mut service = StreamService::new(ServiceConfig::default().with_shards(2));
        service.admit_mixed(4, WorkloadMix::Bimodal, tiny_dims(), 2);
        let report = service.run();
        assert_eq!(report.sessions.len(), 4);

        let tiers = report.tier_summary();
        assert_eq!(tiers.len(), 2, "bimodal spans two tiers");
        let quest2 = &tiers.entries()[0];
        assert_eq!(quest2.label, ResolutionTier::Quest2.name());
        assert_eq!(quest2.sessions, 2);
        assert_eq!(quest2.cancelled, 0);
        let vision = &tiers.entries()[1];
        assert_eq!(vision.label, ResolutionTier::VisionClass.name());
        assert_eq!(vision.sessions, 2);
        assert!(
            vision.throughput.pixels > 3 * quest2.throughput.pixels,
            "per-tier pixel totals must reflect the cost gap"
        );

        // Per-shard pixel telemetry adds up and yields a spread summary.
        assert_eq!(
            report.shards.iter().map(|s| s.pixels).sum::<u64>(),
            report.totals.pixels
        );
        let summary = report
            .pixel_throughput_summary()
            .expect("both shards served");
        assert!(summary.mean > 0.0);
        assert!(summary.max >= summary.min);
    }

    #[test]
    fn fixation_heavy_gaze_keeps_the_cache_hot() {
        let mut service = StreamService::new(ServiceConfig::default());
        let pinned_fixation = GazeModel::FixationSaccade(FixationSaccadeConfig {
            min_fixation_frames: 5,
            max_fixation_frames: 5,
            mean_saccade_px: 10.0,
            max_saccade_px: 20.0,
        });
        service
            .admit(SessionConfig::synthetic(0, tiny_dims(), 20).with_gaze_model(pinned_fixation));
        let report = service.run();
        let cache = report.aggregate_cache();
        assert_eq!(cache.misses, 4, "20 frames / 5-frame fixations");
        assert_eq!(cache.hits, 16);
        assert!((cache.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_service_produces_an_empty_report() {
        let report = StreamService::new(ServiceConfig::default().with_shards(2)).run();
        assert!(report.sessions.is_empty());
        assert_eq!(report.totals.frames, 0);
        assert_eq!(report.aggregate_cache(), BatchCacheStats::default());
        assert_eq!(
            report.utilization_summary(),
            None,
            "no shard served a session"
        );
    }

    #[test]
    fn more_shards_than_sessions_is_fine() {
        let report = service_with(4, 2, 2, false).run();
        assert_eq!(report.sessions.len(), 2);
        assert_eq!(report.totals.frames, 4);
        let occupied: usize = report.shards.iter().map(|s| s.sessions).sum();
        assert_eq!(occupied, 2);
        // Regression: idle shards (utilization 0.0 by construction) must
        // not be averaged into the summary. With static placement the two
        // sessions land on shards 0 and 1; shards 2 and 3 stay empty.
        let summary = report.utilization_summary().expect("two shards served");
        let served: Vec<f64> = report
            .shards
            .iter()
            .filter(|shard| shard.sessions > 0)
            .map(ShardReport::utilization)
            .collect();
        assert_eq!(served.len(), 2);
        assert_eq!(summary, SampleSummary::of(&served));
        assert!(
            summary.min >= report.shards[2].utilization(),
            "summary should not include the idle shards' zeros"
        );
    }

    #[test]
    #[should_panic(expected = "shard count must be non-zero")]
    fn zero_shards_is_rejected() {
        let _ = StreamService::new(ServiceConfig {
            shards: 0,
            ..ServiceConfig::default()
        });
    }

    #[test]
    fn payloads_are_absent_unless_requested() {
        let report = service_with(1, 1, 2, false).run();
        assert!(report.sessions[0].payloads.is_none());
        assert_ne!(report.sessions[0].stream_digest, FNV_OFFSET_BASIS);
    }
}
