//! The long-lived streaming runtime: persistent shard workers, dynamic
//! session churn, pluggable placement.
//!
//! [`StreamRuntime`] is the serving core the batch-style
//! [`crate::StreamService`] wraps. Where the batch service respawned its
//! shard threads per `run()` and streamed a fixed roster to completion,
//! the runtime spawns each shard's **producer** (scene rendering) and
//! **worker** (encoding) thread once at [`StreamRuntime::start`] and keeps
//! them alive until [`StreamRuntime::shutdown`]. In between, sessions are
//! [admitted](StreamRuntime::admit) and [retired](StreamRuntime::retire)
//! dynamically over per-shard control channels while other sessions'
//! frames are still in flight.
//!
//! # Threading model
//!
//! Per shard, two threads connected by a bounded frame queue
//! ([`pvc_parallel::bounded_queue`]):
//!
//! ```text
//!            control channel (open / close / shutdown)
//! runtime ──────────────────────────► producer thread
//!                                        │ render, round-robin
//!                                        ▼
//!                              bounded frame queue
//!                                        │ encode, in arrival order
//!                                        ▼
//! runtime ◄────────────────────────── worker thread
//!            event channel (closed sessions, shard report)
//! ```
//!
//! The producer owns each member session's renderer and gaze trace and
//! interleaves sessions frame-major (A0 B0 A1 B1 …); the worker owns each
//! member session's [`BatchEncoder`] and telemetry. A session's stream
//! travels `Open → Frame×n → Close` through the queue, so the worker
//! learns about sessions in the exact order the producer committed to.
//! `Close` says how the stream left the shard: it completed its frame
//! budget, it was hard-cancelled, or it was evicted to be reopened.
//!
//! # Steady-state allocation
//!
//! The per-frame path is allocation-free once warm. Rendered frames
//! circulate in a small pool: the worker returns each encoded frame's
//! buffer to the producer on a *recycle channel*, and the producer renders
//! the next frame into it ([`pvc_scenes::SceneRenderer::render_linear_into`]).
//! The worker keeps one [`StreamScratch`] (tile adjustment buffers, one
//! tile's sRGB8 lanes, bitstream writer) plus one bitstream buffer alive for
//! its whole lifetime and encodes every session's frames through it
//! ([`BatchEncoder::encode_frame_stream_into`]), so session churn — not
//! frame count — bounds the shard's allocations. None of this moves a
//! single encoded bit: the `alloc_regression` test in `pvc_core` pins the
//! zero-allocation property, the determinism tests here pin the bits.
//!
//! # Heterogeneous sessions
//!
//! Sessions need not look alike: each one carries its own
//! [`SessionProfile`] (resolution tier, render
//! size, frame budget, gaze model, optional tile size), and each shard
//! maintains **pixel gauges** next to its item counters — committed
//! session pixels and queued frame pixels — so cost-aware placement
//! (e.g. [`crate::LeastLoaded`]) can weigh a Vision-class session as the
//! ~3.3× load it actually is.
//!
//! # Retirement: graceful vs hard-cancel
//!
//! [`StreamRuntime::retire`] is graceful — the session finishes its frame
//! budget, so its stream is bit-identical to an uninterrupted run.
//! [`StreamRuntime::retire_now`] models a user yanking the headset: the
//! producer drops the session's not-yet-rendered frames and the final
//! report comes back partial, flagged `cancelled`. Frames already
//! rendered into the shard queue when the cancel lands are still encoded,
//! so the cancelled session's own frame count is timing-dependent — but
//! the *surviving* sessions' streams are not perturbed by a single bit
//! (pinned by `tests/cancel_determinism.rs`).
//!
//! # Elasticity
//!
//! The shard protocol has two primitives: **open** a session on a shard
//! at `(config, frame k, carried state)`, and **close** it. Every
//! elasticity verb is a composition of the two:
//!
//! * [`StreamRuntime::migrate`] closes a live session with `Evict` and
//!   opens it again at the next frame index on another shard, same
//!   profile;
//! * [`StreamRuntime::shed`] does the same on the session's own shard
//!   with a lower profile; the reopen stamps a tier-change record into
//!   the wire stream;
//! * [`StreamRuntime::drain_shard`] reopens every member wherever
//!   placement puts it, with the draining shard flagged, then winds the
//!   shard's threads down.
//!
//! [`StreamRuntime::spawn_shard`] adds a shard mid-flight (stable,
//! never-reused ids). Migrations, sheds and shard spawns/drains are
//! counted in [`ElasticityCounters`] and marked on the control trace
//! lane. The policy loop that decides *when* to do any of this lives one
//! layer up, in [`crate::controller`].
//!
//! # Determinism
//!
//! A session's encoded stream is **bit-identical** regardless of shard
//! count, placement policy, admission order, retirement timing, queue
//! depth, or other sessions being hard-cancelled around it: it is encoded
//! in frame order by exactly one worker, by an encoder built only from
//! the session's own config. Placement and churn move *where* and *when*
//! that happens — never *what* is produced.
//!
//! Reopening preserves this because encoded bits are a pure function of
//! `(scene, seed, profile, frame index)`. Close, then open at k: every
//! frame rendered before the eviction is encoded before the `Close`, the
//! reopened renderer, gaze trace and encoder are rebuilt from the config
//! alone, and the encoder's frame counter starts at k with an empty
//! reference, so frame k is an intra refresh. A migrated stream therefore
//! equals the solo run, and a shed stream equals the solo run at the old
//! profile before k and at the new profile from k on (pinned by
//! `tests/migration_determinism.rs`; under temporal coding only the
//! refresh frame itself differs, pinned by `tests/temporal_determinism.rs`).
//! Only wall-clock telemetry is machine- and timing-dependent, and only a
//! hard-cancelled session's own stream *length* is timing-dependent (a
//! prefix of its solo stream).

use crate::gaze::GazeTrace;
use crate::placement::{Placement, ShardLoad, Static};
use crate::service::{ServiceConfig, ServiceReport, ShardReport};
use crate::session::{
    SessionConfig, SessionProfile, SessionReport, FNV_OFFSET_BASIS, GAZE_SEED_SALT,
};
use crate::wire::{DigestSink, FrameSink, WireSessionHeader, WireSink, WireTierChange};
use pvc_color::{LinearRgb, SyntheticDiscriminationModel};
use pvc_core::{BatchCacheStats, BatchEncoder, StreamScratch};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::{Dimensions, LinearFrame};
use pvc_metrics::{ChurnCounters, ElasticityCounters, TemporalTotals, ThroughputReport};
use pvc_parallel::{
    bounded_queue, control_channel, BoundedReceiver, BoundedSender, ControlPoll, ControlReceiver,
    ControlSender, Gauge, QueueStats,
};
use pvc_scenes::{SceneConfig, SceneRenderer};
use pvc_trace::{Lane, Marker, Recorder, Stage, ThreadTrace, TraceEpoch, TraceReport, CLASS_OTHER};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the runtime's blocking event waits wake up to check shard
/// thread health. The runtime retains an event sender (so it can spawn
/// shards later), which means the channel never closes on its own — a
/// shard thread panicking is detected by polling
/// [`JoinHandle::is_finished`] on this cadence instead.
const EVENT_POLL: Duration = Duration::from_millis(25);

/// How a session's stream leaves its shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CloseMode {
    /// The stream rendered its whole frame budget.
    Complete,
    /// Hard-cancelled: the not-yet-rendered frames are dropped and the
    /// report comes back partial, flagged `cancelled`.
    Cancel,
    /// Evicted mid-stream, so the runtime can reopen it at the next frame
    /// index (migrate, shed, drain).
    Evict,
}

/// Opens session `id` under `config` at frame `at`. `state` is the
/// carried state of a reopened session, `None` for a fresh admission. The
/// runtime sends it to the producer, which forwards it to the worker.
struct SessionOpen {
    id: usize,
    config: SessionConfig,
    at: u32,
    state: Option<Box<SessionCarry>>,
}

/// Commands the runtime sends to a shard's producer thread.
enum ShardControl {
    /// Take ownership of a session and stream its frames from `at` on.
    Open(SessionOpen),
    /// Stop rendering a member session and close it `how` (`Cancel` or
    /// `Evict`). A no-op for a non-member: its stream already completed,
    /// and its `Complete` close is on the way.
    Close { id: usize, how: CloseMode },
    /// Finish every member session's remaining frames, then exit.
    Shutdown,
}

/// One message travelling through a shard's render→encode queue.
///
/// A session's lifetime on the queue is `Open`, then its frames in order,
/// then `Close` — all emitted by the single producer, so the worker sees
/// them in exactly that order, and a `Close` lands behind every frame
/// rendered before it.
enum ShardJob {
    /// The worker should open the session (see [`WorkerSession::open`]).
    Open(SessionOpen),
    /// One rendered frame to encode.
    Frame {
        id: usize,
        frame: LinearFrame,
        gaze: GazePoint,
        /// When the producer handed the frame to the queue; the worker's
        /// dequeue-minus-this is the queue-wait stage. Always stamped
        /// (one clock read) — timing never steers any encoded bit.
        enqueued: Instant,
    },
    /// No further frames for the session follow; hand its state back.
    Close { id: usize, how: CloseMode },
}

/// A session's cumulative state, which outlives any one shard: the worker
/// hands it back on every close, and a reopen carries it to the next
/// open.
///
/// The encoder is *not* carried: every open rebuilds it from the config,
/// which is bit-safe because the encoder's eccentricity-map cache only
/// ever changes where intermediates live — never an emitted bit. What
/// must survive is everything cumulative: the report (throughput, cache
/// counters, downgrade stamps) and the frame sinks (digest chain state,
/// collected wire bytes).
struct SessionCarry {
    /// The config the session is currently streaming under.
    config: SessionConfig,
    report: SessionReport,
    /// The telemetry sink (digest chain, optional payload collection).
    digest: DigestSink,
    /// The serving sink (framed wire stream), when collection is on.
    wire: Option<WireSink>,
    /// Encode-start instant of the session's first frame (on any shard);
    /// per-session wall-clock runs from here to the end of the last
    /// frame's encode.
    first_frame: Option<Instant>,
}

impl SessionCarry {
    /// The state of a session that has not streamed a frame yet.
    fn new(id: usize, service: &ServiceConfig, config: SessionConfig) -> SessionCarry {
        SessionCarry {
            report: SessionReport {
                session: id,
                scene: config.scene,
                tier: config.profile.tier,
                shard: 0,
                cancelled: false,
                throughput: ThroughputReport::default(),
                cache: BatchCacheStats::default(),
                temporal: TemporalTotals::default(),
                stream_digest: FNV_OFFSET_BASIS,
                payloads: None,
                wire_stream: None,
                downgraded_from: None,
                downgrade_frame: None,
            },
            config,
            digest: DigestSink::new(service.collect_payloads),
            wire: service.collect_wire.then(WireSink::new),
            first_frame: None,
        }
    }

    /// The session's frame sinks: telemetry first, then (when enabled)
    /// the wire stream. Every encoded frame goes through each.
    fn sinks(&mut self) -> impl Iterator<Item = &mut dyn FrameSink> {
        std::iter::once(&mut self.digest as &mut dyn FrameSink)
            .chain(self.wire.iter_mut().map(|sink| sink as &mut dyn FrameSink))
    }

    /// Seals a closed session's final report: finishes its sinks and moves
    /// the digest, payloads and wire bytes into it.
    fn seal(mut self, cancelled: bool) -> SessionReport {
        for sink in self.sinks() {
            sink.finish(cancelled);
        }
        let mut report = self.report;
        report.cancelled = cancelled;
        report.stream_digest = self.digest.digest();
        report.payloads = self.digest.take_payloads();
        report.wire_stream = self.wire.map(WireSink::into_bytes);
        report
    }
}

/// What shard threads report back to the runtime.
enum RuntimeEvent {
    /// A session left its shard's worker `how`; `state` holds its report
    /// and sinks.
    Closed {
        id: usize,
        how: CloseMode,
        state: Box<SessionCarry>,
    },
    /// A shard worker exited (after queue drain); here is its telemetry.
    ShardDone(ShardReport),
}

/// A session as the producer thread sees it: config plus the deterministic
/// render-side machinery rebuilt from it.
struct ProducerSession {
    id: usize,
    config: SessionConfig,
    renderer: SceneRenderer,
    trace: GazeTrace,
    /// Next frame index to render.
    next: u32,
}

impl ProducerSession {
    /// Rebuilds the render side of a session at frame `at`. The renderer
    /// and gaze trace are pure functions of the config, and
    /// `render_linear_into(t, ..)` depends only on `t` — so opening at `at`
    /// produces exactly the frames a solo run would from there on.
    fn open(id: usize, config: SessionConfig, at: u32) -> ProducerSession {
        ProducerSession {
            id,
            renderer: SceneRenderer::new(
                config.scene,
                SceneConfig::new(config.dimensions()).with_seed(config.seed),
            ),
            trace: GazeTrace::synthesize(
                &config.gaze_model(),
                config.dimensions(),
                config.seed ^ GAZE_SEED_SALT,
                config.frames() as usize,
            ),
            config,
            next: at,
        }
    }
}

/// A session as the worker thread sees it: its encoder plus its carried
/// state.
struct WorkerSession {
    encoder: BatchEncoder<SyntheticDiscriminationModel>,
    state: SessionCarry,
}

/// Builds a session's encoder from the service config plus the session
/// profile's overrides, returning it with the effective tile size (which
/// the wire header / tier-change record reports). Always built from the
/// session's *current* config, never from carried state, so every
/// incarnation is a pure function of the config.
fn encoder_for(
    service: &ServiceConfig,
    config: &SessionConfig,
) -> (BatchEncoder<SyntheticDiscriminationModel>, u32) {
    // The profile may override the service-wide tile size; everything
    // else about the encoder configuration is shared.
    let mut encoder_config = service.encoder.clone();
    if let Some(tile_size) = config.profile.tile_size {
        encoder_config = encoder_config.with_tile_size(tile_size);
    }
    let tile_size = encoder_config.tile_size;
    let encoder = BatchEncoder::new(
        SyntheticDiscriminationModel::default(),
        encoder_config,
        DisplayGeometry::quest2_like(config.dimensions()),
    )
    .with_cache_capacity(service.gaze_cache_capacity);
    (encoder, tile_size)
}

impl WorkerSession {
    /// Opens a session on `shard` at frame `at`. The encoder is built
    /// from `config` with its frame counter at `at` and an empty temporal
    /// reference, so a reopened session's first frame is an intra refresh
    /// and its keyframe schedule stays a pure function of the absolute
    /// frame index, exactly like a solo run's.
    ///
    /// A fresh session (no `state`) writes its wire header. A carried one
    /// whose tier differs from `config` (a shed) writes a tier-change
    /// record at `at` and stamps the downgrade into its report.
    fn open(shard: usize, service: &ServiceConfig, open: SessionOpen) -> Self {
        let SessionOpen {
            id,
            config,
            at,
            state,
        } = open;
        let (mut encoder, tile_size) = encoder_for(service, &config);
        encoder.set_next_frame_index(at);
        let tier = config.profile.tier;
        let Dimensions { width, height } = config.dimensions();
        let frame_budget = config.frames();
        let mut state = match state {
            Some(state) => *state,
            None => {
                let mut state = SessionCarry::new(id, service, config.clone());
                let header = WireSessionHeader {
                    session: id as u64,
                    tier,
                    width,
                    height,
                    tile_size,
                    frame_budget,
                };
                for sink in state.sinks() {
                    sink.start(&header);
                }
                state
            }
        };
        if state.report.tier != tier {
            // Only the first downgrade is "from" anything the client did
            // not already know about.
            let old_tier = state.report.tier;
            state.report.downgraded_from.get_or_insert(old_tier);
            state.report.downgrade_frame = Some(at);
            state.report.tier = tier;
            let change = WireTierChange {
                frame_index: at,
                tier,
                width,
                height,
                tile_size,
                frame_budget,
            };
            for sink in state.sinks() {
                sink.tier_change(&change);
            }
        }
        state.config = config;
        state.report.shard = shard;
        WorkerSession { encoder, state }
    }
}

/// What a shard needs to participate in tracing, fixed at spawn time.
struct TracingSpec {
    epoch: TraceEpoch,
    ring_capacity: usize,
    /// Sealed [`ThreadTrace`]s travel back to the runtime on this channel.
    sender: mpsc::Sender<ThreadTrace>,
}

/// One pipeline thread's tracing kit: its pre-allocated recorder plus the
/// way home for the sealed trace. Created on the runtime thread (all
/// allocation up front), moved into the pipeline thread, sealed on exit.
struct ShardTracing {
    shard: usize,
    recorder: Recorder,
    out: mpsc::Sender<ThreadTrace>,
}

impl ShardTracing {
    fn new(shard: usize, spec: &TracingSpec) -> ShardTracing {
        ShardTracing {
            shard,
            recorder: Recorder::new(spec.epoch, spec.ring_capacity),
            out: spec.sender.clone(),
        }
    }

    /// Seals the recorder and ships the thread's trace to the runtime.
    fn finish(self, lane: Lane) {
        self.out
            .send(self.recorder.into_thread(self.shard, lane))
            .ok();
    }
}

/// The runtime's half of tracing: the shared epoch, the control-plane
/// recorder (admit/retire/cancel markers), and the channel the shard
/// threads return their sealed traces on.
struct RuntimeTracing {
    epoch: TraceEpoch,
    control: Recorder,
    collected: mpsc::Receiver<ThreadTrace>,
}

/// The runtime's handle onto one shard's thread pair.
struct ShardHandle {
    /// The shard's stable id: assigned at spawn, never reused. With
    /// dynamic spawn/drain the live handles are not necessarily
    /// contiguous, so placement and assignments speak in these ids, never
    /// in `Vec` positions.
    shard: usize,
    control: ControlSender<ShardControl>,
    queue: QueueStats,
    /// Sessions open on the shard; incremented at every open (so
    /// back-to-back placements see each other) and decremented by the
    /// worker at every close.
    sessions: Arc<AtomicUsize>,
    /// Sum of the open sessions' per-frame pixel costs — the
    /// pixel-weighted twin of `sessions`, maintained on the same schedule.
    session_pixels: Gauge,
    /// Pixels of rendered frames currently in the render→encode queue —
    /// the pixel-weighted twin of the queue's depth gauge.
    queued_pixels: Gauge,
    /// Pixels the shard is still *due to render*: `pixel_cost ×
    /// not-yet-rendered frames`, summed over members. Raised at every
    /// open, lowered by the producer per rendered frame and at every
    /// cancel or eviction — the predictive placement signal.
    remaining_pixels: Gauge,
    producer: JoinHandle<()>,
    worker: JoinHandle<()>,
}

/// A long-lived, shard-parallel streaming service with dynamic session
/// churn, heterogeneous session profiles and load-aware placement. See
/// the [module docs](self) for the threading model and determinism
/// argument.
///
/// # Examples
///
/// ```
/// use pvc_frame::Dimensions;
/// use pvc_stream::{PowerOfTwoChoices, ServiceConfig, SessionConfig, StreamRuntime};
///
/// let mut runtime = StreamRuntime::start(
///     ServiceConfig::default().with_shards(2),
///     Box::new(PowerOfTwoChoices::default()),
/// );
///
/// // Admit two sessions, retire the first mid-flight (blocks until its
/// // stream completes), admit a third while the second is still going.
/// let dims = Dimensions::new(32, 32);
/// let a = runtime.admit(SessionConfig::synthetic(0, dims, 4));
/// let b = runtime.admit(SessionConfig::synthetic(1, dims, 4));
/// let report_a = runtime.retire(a);
/// assert_eq!(report_a.throughput.frames, 4);
/// assert!(report_a.throughput.frames_per_second() > 0.0);
/// let c = runtime.admit(SessionConfig::synthetic(2, dims, 4));
/// assert_eq!(c, 2);
///
/// let report = runtime.shutdown();
/// assert_eq!(report.sessions.len(), 2, "session a's report was handed to retire()");
/// assert_eq!(report.churn.admitted, 3);
/// assert_eq!(report.churn.retired, 1);
/// assert_eq!(report.totals.frames, 12, "totals still cover the retired session");
/// # let _ = b;
/// ```
pub struct StreamRuntime {
    config: ServiceConfig,
    placement: Box<dyn Placement>,
    /// Live (serving) shards. Drained shards are removed; ids are stable
    /// and never reused, so positions here are *not* shard ids.
    shards: Vec<ShardHandle>,
    events: mpsc::Receiver<RuntimeEvent>,
    /// Retained so [`Self::spawn_shard`] can wire new shards into the
    /// same event channel. Consequence: the channel never closes by
    /// itself; blocking waits poll shard thread health instead.
    event_tx: mpsc::Sender<RuntimeEvent>,
    /// Retained alongside `event_tx` so dynamically spawned shards join
    /// the same trace epoch and collection channel.
    tracing_spec: Option<TracingSpec>,
    /// Final reports of completed sessions awaiting pickup, keyed by id.
    /// [`Self::retire`] removes and hands over the entry — a long-lived
    /// runtime must not accumulate reports (least of all collected
    /// payloads) for every session it ever served — so at shutdown this
    /// holds only the sessions nobody retired individually.
    completed: BTreeMap<usize, SessionReport>,
    /// Frame/byte totals over every session ever completed, merged as
    /// completions arrive so handing reports out in [`Self::retire`] does
    /// not lose them from the service-wide aggregate.
    totals: ThroughputReport,
    /// Shard telemetry, indexed by stable shard id (so it covers drained
    /// shards too); filled in as workers exit during drain or shutdown.
    shard_reports: Vec<Option<ShardReport>>,
    /// Which shard each admitted session was placed on (updated by
    /// migration).
    assignments: BTreeMap<usize, usize>,
    retired: BTreeSet<usize>,
    churn: ChurnCounters,
    /// What the elastic control plane did to this runtime: migrations and
    /// shard spawns/drains are counted here; admission-side counters
    /// (rejected/queued) belong to the policy layer driving the runtime.
    elasticity: ElasticityCounters,
    started: Instant,
    next_id: usize,
    /// The next stable shard id [`Self::spawn_shard`] will hand out; also
    /// the trace index of the control lane at shutdown.
    next_shard_index: usize,
    /// Present when the config enables tracing: the control-plane
    /// recorder plus the channel shard threads return sealed traces on.
    tracing: Option<RuntimeTracing>,
}

impl std::fmt::Debug for StreamRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamRuntime")
            .field("config", &self.config)
            .field("placement", &self.placement.name())
            .field("shards", &self.shards.len())
            .field("churn", &self.churn)
            .finish_non_exhaustive()
    }
}

impl StreamRuntime {
    /// Spawns the shard thread pairs and returns the running (idle)
    /// runtime. `placement` decides which shard each admitted session
    /// lands on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards, queue depth or cache
    /// capacity.
    pub fn start(config: ServiceConfig, placement: Box<dyn Placement>) -> StreamRuntime {
        assert!(config.shards > 0, "shard count must be non-zero");
        assert!(config.queue_depth > 0, "queue depth must be non-zero");
        assert!(
            config.gaze_cache_capacity > 0,
            "cache capacity must be non-zero"
        );
        let (event_tx, events) = mpsc::channel();
        // All tracing storage (rings, stage tables) is allocated here,
        // before any pipeline thread runs a frame.
        let (spec, tracing) = match &config.trace {
            Some(trace) => {
                let epoch = TraceEpoch::now();
                let (trace_tx, trace_rx) = mpsc::channel();
                (
                    Some(TracingSpec {
                        epoch,
                        ring_capacity: trace.ring_capacity,
                        sender: trace_tx,
                    }),
                    Some(RuntimeTracing {
                        epoch,
                        control: Recorder::new(epoch, trace.ring_capacity),
                        collected: trace_rx,
                    }),
                )
            }
            None => (None, None),
        };
        let shards: Vec<ShardHandle> = (0..config.shards)
            .map(|shard| spawn_shard_threads(shard, &config, event_tx.clone(), spec.as_ref()))
            .collect();
        StreamRuntime {
            shard_reports: vec![None; config.shards],
            next_shard_index: config.shards,
            config,
            placement,
            shards,
            events,
            event_tx,
            tracing_spec: spec,
            completed: BTreeMap::new(),
            totals: ThroughputReport::default(),
            assignments: BTreeMap::new(),
            retired: BTreeSet::new(),
            churn: ChurnCounters::default(),
            elasticity: ElasticityCounters::default(),
            started: Instant::now(),
            next_id: 0,
            tracing,
        }
    }

    /// [`Self::start`] with the deterministic [`Static`] modulo placement.
    pub fn start_static(config: ServiceConfig) -> StreamRuntime {
        StreamRuntime::start(config, Box::new(Static))
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The active placement policy's name.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// Churn counters as of the runtime's latest bookkeeping. Completion
    /// events are absorbed lazily, so `completed` may trail the shard
    /// workers by a moment.
    pub fn churn(&self) -> ChurnCounters {
        self.churn
    }

    /// Live load snapshots for every *serving* shard, as placement would
    /// see them: item counters (sessions, queue depth), their
    /// pixel-weighted twins (committed session pixels, queued frame
    /// pixels), and the predictive remaining-work gauge. Entries carry
    /// stable shard ids — after a drain they need not be contiguous.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|handle| ShardLoad {
                shard: handle.shard,
                sessions: handle.sessions.load(Ordering::Relaxed),
                queue_depth: handle.queue.depth(),
                session_pixels: handle.session_pixels.get(),
                queued_pixels: handle.queued_pixels.get(),
                remaining_pixels: handle.remaining_pixels.get(),
                draining: false,
            })
            .collect()
    }

    /// The handle of a serving shard, by stable id.
    ///
    /// # Panics
    ///
    /// Panics if no serving shard has that id (never spawned, or drained).
    fn handle(&self, shard: usize) -> &ShardHandle {
        self.shards
            .iter()
            .find(|handle| handle.shard == shard)
            .unwrap_or_else(|| panic!("shard {shard} is unknown or drained"))
    }

    /// Elasticity counters (migrations, shard spawns/drains) as of the
    /// latest control action. Admission-side counters (rejections, queue
    /// waits, sheds requested) are the driving policy's to keep — see
    /// `ElasticController` — and are merged into the final report there.
    pub fn elasticity(&self) -> ElasticityCounters {
        self.elasticity
    }

    /// How many shards are currently serving.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ids of sessions admitted and not yet completed, in id order.
    /// Completion events are absorbed first, so the answer is as fresh as
    /// the workers' reporting.
    pub fn live_sessions(&mut self) -> Vec<usize> {
        self.pump_events();
        self.assignments
            .keys()
            .filter(|id| !self.retired.contains(id) && !self.completed.contains_key(id))
            .copied()
            .collect()
    }

    /// The shard a session was placed on, or `None` for unknown ids.
    pub fn assignment(&self, session: usize) -> Option<usize> {
        self.assignments.get(&session).copied()
    }

    /// Admits a session: places it on a shard (via the placement policy's
    /// view of live shard loads) and hands it to that shard's producer.
    /// Returns the session id (admission index). Never blocks on frame
    /// backpressure — the control channel is unbounded.
    pub fn admit(&mut self, config: SessionConfig) -> usize {
        self.pump_events();
        let id = self.next_id;
        self.next_id += 1;
        let loads = self.shard_loads();
        let shard = self.placement.place(id, &config, &loads);
        self.mark(Marker::Admit, config.profile.tier.class_index(), id);
        self.open_on(shard, id, config, 0, None);
        self.churn.record_admission();
        id
    }

    /// Opens session `id` on `shard` at frame `at`, carrying `state` when
    /// the session is being reopened. Commits the session's load to the
    /// shard's gauges synchronously, so back-to-back placements see each
    /// other, and hands the session to the shard's producer.
    fn open_on(
        &mut self,
        shard: usize,
        id: usize,
        config: SessionConfig,
        at: u32,
        state: Option<Box<SessionCarry>>,
    ) {
        let handle = self.handle(shard);
        handle.sessions.fetch_add(1, Ordering::Relaxed);
        handle.session_pixels.add(config.pixel_cost());
        handle
            .remaining_pixels
            .add(config.pixel_cost() * u64::from(config.frames().saturating_sub(at)));
        handle
            .control
            .send(ShardControl::Open(SessionOpen {
                id,
                config,
                at,
                state,
            }))
            .expect("shard producer exited while the runtime is alive");
        self.assignments.insert(id, shard);
    }

    /// Retires a session: blocks until its stream completes (it always
    /// finishes its configured frame budget — retirement is graceful, so
    /// the encoded stream stays bit-identical to an uninterrupted run) and
    /// returns its final report. Other sessions keep streaming throughout.
    ///
    /// The report is handed over, not copied: the runtime keeps only the
    /// session's contribution to [`ServiceReport::totals`] and the churn
    /// counters, so serving unbounded session churn does not accumulate
    /// per-session state (or collected payloads) until shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the id was never admitted or was already retired.
    pub fn retire(&mut self, session: usize) -> SessionReport {
        self.begin_retirement(session);
        self.mark(Marker::Retire, CLASS_OTHER, session);
        self.await_completion(session)
    }

    /// Hard-cancels a session: tells its shard to drop the session's
    /// not-yet-rendered frames, blocks until the partial report arrives,
    /// and returns it flagged [`cancelled`](SessionReport::cancelled).
    /// Other sessions keep streaming throughout, and their encoded
    /// streams are not perturbed by a single bit (pinned by
    /// `tests/cancel_determinism.rs`).
    ///
    /// The cancelled stream is a *prefix* of the session's uninterrupted
    /// stream: frames already rendered into the shard queue when the
    /// cancel lands are still encoded, so how long the prefix is depends
    /// on timing. A session that already finished its frame budget is
    /// returned complete, with `cancelled` false — cancelling it was a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics if the id was never admitted or was already retired.
    pub fn retire_now(&mut self, session: usize) -> SessionReport {
        let shard = self.begin_retirement(session);
        self.mark(Marker::Cancel, CLASS_OTHER, session);
        self.handle(shard)
            .control
            .send(ShardControl::Close {
                id: session,
                how: CloseMode::Cancel,
            })
            .expect("shard producer exited while the runtime is alive");
        self.await_completion(session)
    }

    /// Shared bookkeeping of [`Self::retire`] / [`Self::retire_now`]:
    /// validates the id, marks it retired, counts the retirement, and
    /// returns the session's shard.
    fn begin_retirement(&mut self, session: usize) -> usize {
        let shard = self.admitted_on(session);
        assert!(
            self.retired.insert(session),
            "session {session} was already retired"
        );
        self.churn.record_retirement();
        shard
    }

    /// Marks a control-plane action on the control trace lane, when
    /// tracing is on.
    fn mark(&mut self, marker: Marker, class: u8, id: usize) {
        if let Some(tracing) = self.tracing.as_mut() {
            tracing.control.mark(marker, class, id as u64);
        }
    }

    /// Blocks until the next event arrives, panicking if a serving shard
    /// thread exits in the meantime (before shutdown, that can only mean
    /// it panicked — the runtime holds an event sender, so the channel
    /// itself never closes).
    fn recv_event(&mut self) -> RuntimeEvent {
        loop {
            if let Some(event) = self.poll_event() {
                return event;
            }
            if let Some(dead) = self
                .shards
                .iter()
                .find(|handle| handle.producer.is_finished() || handle.worker.is_finished())
            {
                panic!(
                    "shard {} thread exited while the runtime is alive \
                     (see the shard thread's panic output above)",
                    dead.shard
                );
            }
        }
    }

    /// Waits up to [`EVENT_POLL`] for the next event.
    fn poll_event(&self) -> Option<RuntimeEvent> {
        match self.events.recv_timeout(EVENT_POLL) {
            Ok(event) => Some(event),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the runtime holds an event sender")
            }
        }
    }

    /// Blocks until `session`'s final report arrives and hands it over.
    fn await_completion(&mut self, session: usize) -> SessionReport {
        loop {
            self.pump_events();
            if let Some(report) = self.completed.remove(&session) {
                return report;
            }
            let event = self.recv_event();
            self.absorb(event);
        }
    }

    /// Blocks until every admitted session's stream has completed. The
    /// shard threads stay alive and ready for further admissions.
    pub fn drain(&mut self) {
        self.pump_events();
        while self.churn.in_flight() > 0 {
            let event = self.recv_event();
            self.absorb(event);
        }
    }

    /// Spawns a fresh shard thread pair and returns its stable id.
    /// Placement sees it (initially empty) from the next admission on.
    /// Ids are never reused: after spawn/drain cycles the serving set need
    /// not be contiguous.
    ///
    /// # Examples
    ///
    /// ```
    /// use pvc_frame::Dimensions;
    /// use pvc_stream::{ServiceConfig, SessionConfig, StreamRuntime};
    ///
    /// let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
    /// let id = runtime.admit(SessionConfig::synthetic(0, Dimensions::new(32, 32), 64));
    ///
    /// // Scale up, move the session onto the new shard, finish it there.
    /// let dest = runtime.spawn_shard();
    /// assert_eq!(dest, 1);
    /// assert!(runtime.migrate(id, dest));
    /// assert_eq!(runtime.assignment(id), Some(dest));
    /// let report = runtime.retire(id);
    /// assert_eq!(report.throughput.frames, 64, "migration loses no frames");
    ///
    /// // Scale back down; the drained shard's telemetry comes back.
    /// let drained = runtime.drain_shard(dest);
    /// assert_eq!(drained.shard, dest);
    /// assert_eq!(runtime.shard_count(), 1);
    ///
    /// let report = runtime.shutdown();
    /// assert_eq!(report.elasticity.migrated, 1);
    /// assert_eq!(report.elasticity.shards_spawned, 1);
    /// assert_eq!(report.elasticity.shards_drained, 1);
    /// assert_eq!(report.shards.len(), 2, "drained shards stay in the report");
    /// ```
    pub fn spawn_shard(&mut self) -> usize {
        let shard = self.next_shard_index;
        self.next_shard_index += 1;
        let handle = spawn_shard_threads(
            shard,
            &self.config,
            self.event_tx.clone(),
            self.tracing_spec.as_ref(),
        );
        self.shards.push(handle);
        self.shard_reports.push(None);
        self.mark(Marker::ShardSpawn, CLASS_OTHER, shard);
        self.elasticity.record_shard_spawned();
        shard
    }

    /// Drains a shard out of the fleet: migrates its live sessions to the
    /// remaining shards (placed by the runtime's policy, which must not
    /// pick the draining shard), winds down its thread pair, and returns
    /// its telemetry. The report also stays in the final
    /// [`ServiceReport::shards`] under the shard's stable id.
    ///
    /// Migrated streams stay bit-identical to their solo runs — see
    /// [`Self::migrate`].
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown/already drained, if it is the last
    /// serving shard, or if a shard thread panicked.
    pub fn drain_shard(&mut self, shard: usize) -> ShardReport {
        let position = self
            .shards
            .iter()
            .position(|handle| handle.shard == shard)
            .unwrap_or_else(|| panic!("shard {shard} is unknown or already drained"));
        assert!(self.shards.len() > 1, "cannot drain the last serving shard");
        // Relocate every live member first so their streams continue on
        // the survivors.
        let members: Vec<usize> = self
            .live_sessions()
            .into_iter()
            .filter(|id| self.assignments[id] == shard)
            .collect();
        for id in members {
            // `false` means the session completed in the meantime —
            // nothing left to move.
            self.reopen(id, None, None);
        }
        let handle = self.shards.remove(position);
        self.stop_shards(vec![handle]);
        self.mark(Marker::ShardDrain, CLASS_OTHER, shard);
        self.elasticity.record_shard_drained();
        self.shard_reports[shard]
            .clone()
            .expect("a worker reports before it exits")
    }

    /// Migrates a live session to the serving shard `to`, blocking until
    /// the hand-off completes: the session is closed on its shard and
    /// opened on `to` at its next frame index. Returns `false` (without
    /// side effects) if the session's stream already completed or `to` is
    /// its current shard.
    ///
    /// The migrated stream is **bit-identical** to the session's solo
    /// run: the source worker encodes exactly the frames its producer
    /// rendered (the eviction travels the frame queue in order), the
    /// destination rebuilds renderer, gaze trace and encoder purely from
    /// the session config, and the digest/wire sinks are carried
    /// mid-chain. The encoder cache is the only state lost, and it never
    /// steers an encoded bit (pinned by `tests/migration_determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the session was never admitted or `to` is not a serving
    /// shard.
    pub fn migrate(&mut self, session: usize, to: usize) -> bool {
        let from = self.admitted_on(session);
        // Validate eagerly: the eviction is irrevocable once sent.
        let _ = self.handle(to);
        from != to && self.reopen(session, Some(to), None)
    }

    /// Downgrades a live session to `profile` mid-stream (tier shed:
    /// quality for throughput), blocking until the downgrade lands: the
    /// session is closed on its shard and opened there again at its next
    /// frame index under `profile`. Returns `false` if the session's
    /// stream already completed. The session's report carries
    /// [`SessionReport::downgraded_from`] and
    /// [`SessionReport::downgrade_frame`], and its wire stream a
    /// tier-change record at that frame.
    ///
    /// The post-downgrade stream is bit-identical to a solo run started
    /// at `profile` from the same frame index (pinned by
    /// `tests/migration_determinism.rs`): renderer, gaze trace and
    /// encoder are re-derived purely from the new profile, and the frame
    /// index continues under the new numbering.
    ///
    /// # Panics
    ///
    /// Panics if the session was never admitted.
    pub fn shed(&mut self, session: usize, profile: SessionProfile) -> bool {
        let shard = self.admitted_on(session);
        self.reopen(session, Some(shard), Some(profile))
    }

    /// The shard a session was last opened on; panics for unknown ids.
    fn admitted_on(&self, session: usize) -> usize {
        *self
            .assignments
            .get(&session)
            .unwrap_or_else(|| panic!("session {session} was never admitted"))
    }

    /// The one reopen path behind [`Self::migrate`], [`Self::shed`] and
    /// [`Self::drain_shard`]: closes a live session with `Evict`, waits
    /// for its state, and opens it again at the next frame index — on
    /// `to`, or where placement puts it (with the current shard flagged
    /// draining) when `to` is `None`, and under `profile` when given (a
    /// shed). Returns `false` if the stream completed first.
    fn reopen(
        &mut self,
        session: usize,
        to: Option<usize>,
        profile: Option<SessionProfile>,
    ) -> bool {
        self.pump_events();
        if self.retired.contains(&session) || self.completed.contains_key(&session) {
            return false;
        }
        let from = self.assignments[&session];
        self.handle(from)
            .control
            .send(ShardControl::Close {
                id: session,
                how: CloseMode::Evict,
            })
            .expect("shard producer exited while the runtime is alive");
        let state = loop {
            match self.recv_event() {
                RuntimeEvent::Closed {
                    id,
                    how: CloseMode::Evict,
                    state,
                } if id == session => break state,
                event => {
                    // A completion that raced the eviction ends the wait.
                    let raced = matches!(&event, RuntimeEvent::Closed { id, .. } if *id == session);
                    self.absorb(event);
                    if raced {
                        return false;
                    }
                }
            }
        };
        // Every rendered frame precedes the `Close` in the queue, so the
        // carried report has counted exactly the frames streamed so far.
        let at = state.report.throughput.frames as u32;
        let config = match profile {
            Some(profile) => state.config.clone().with_profile(profile),
            None => state.config.clone(),
        };
        let to = to.unwrap_or_else(|| {
            let mut loads = self.shard_loads();
            for load in &mut loads {
                load.draining = load.shard == from;
            }
            let to = self.placement.place(session, &config, &loads);
            assert!(to != from, "placement returned the draining shard {from}");
            to
        });
        let marker = if profile.is_some() {
            self.elasticity.record_shed();
            Marker::Shed
        } else {
            self.elasticity.record_migration();
            Marker::Migrate
        };
        self.mark(marker, config.profile.tier.class_index(), session);
        self.open_on(to, session, config, at, Some(state));
        true
    }

    /// Stops the runtime: lets every in-flight session finish its frame
    /// budget, winds down the shard threads, and returns the service
    /// report. `sessions` holds the final reports not already handed out
    /// by [`Self::retire`]; `totals` and `churn` cover every session the
    /// runtime ever served, retired or not.
    ///
    /// # Panics
    ///
    /// Propagates panics from shard threads.
    pub fn shutdown(mut self) -> ServiceReport {
        let handles = std::mem::take(&mut self.shards);
        self.stop_shards(handles);
        let sessions: Vec<SessionReport> =
            std::mem::take(&mut self.completed).into_values().collect();
        let mut totals = self.totals;
        totals.wall_seconds = self.started.elapsed().as_secs_f64();
        let shards = std::mem::take(&mut self.shard_reports)
            .into_iter()
            .map(|report| report.expect("a worker reports before it exits"))
            .collect();
        // Every pipeline thread has been joined, so every sealed trace is
        // already sitting in the channel; drain without blocking.
        let trace = self.tracing.take().map(|tracing| {
            let RuntimeTracing {
                epoch,
                control,
                collected,
            } = tracing;
            let mut report = TraceReport::new(epoch);
            while let Ok(thread) = collected.try_recv() {
                report.threads.push(thread);
            }
            // The control plane reports as its own lane, one past the
            // highest shard id ever spawned, so drained shards keep their
            // own trace groups.
            report
                .threads
                .push(control.into_thread(self.next_shard_index, Lane::Control));
            // Within a shard's group, lanes sort in declaration order:
            // producer, worker, control, client.
            report
                .threads
                .sort_by_key(|thread| (thread.shard, thread.lane as u8));
            report
        });
        ServiceReport {
            sessions,
            shards,
            totals,
            churn: self.churn,
            elasticity: self.elasticity,
            trace,
        }
    }

    /// Winds shards down: sends each one `Shutdown` (its members finish
    /// their frame budgets first), absorbs events until every worker has
    /// reported, and joins the threads.
    ///
    /// # Panics
    ///
    /// Propagates panics from shard threads.
    fn stop_shards(&mut self, handles: Vec<ShardHandle>) {
        for handle in &handles {
            handle.control.send(ShardControl::Shutdown).ok();
        }
        while handles
            .iter()
            .any(|handle| self.shard_reports[handle.shard].is_none())
        {
            if let Some(event) = self.poll_event() {
                self.absorb(event);
            } else if handles.iter().all(|handle| handle.worker.is_finished()) {
                // Workers send their report before exiting, so once every
                // worker is finished the reports (if any) are already
                // buffered. A report still missing after the flush means
                // a worker panicked: fall through to the joins to surface
                // it.
                self.pump_events();
                break;
            }
        }
        for handle in handles {
            handle.producer.join().expect("shard producer panicked");
            handle.worker.join().expect("shard worker panicked");
        }
    }

    /// Absorbs every event the workers have already delivered, without
    /// blocking.
    fn pump_events(&mut self) {
        while let Ok(event) = self.events.try_recv() {
            self.absorb(event);
        }
    }

    fn absorb(&mut self, event: RuntimeEvent) {
        match event {
            // At most one eviction is ever in flight (the runtime is
            // single-threaded and `reopen` consumes its eviction before
            // returning), so evictions never reach the generic path.
            RuntimeEvent::Closed {
                how: CloseMode::Evict,
                ..
            } => unreachable!("evictions are consumed by the reopen wait"),
            RuntimeEvent::Closed { how, state, .. } => {
                let report = state.seal(how == CloseMode::Cancel);
                self.churn.record_completion();
                if report.cancelled {
                    self.churn.record_cancellation();
                }
                self.totals.merge(&report.throughput);
                self.completed.insert(report.session, report);
            }
            RuntimeEvent::ShardDone(report) => {
                let slot = &mut self.shard_reports[report.shard];
                debug_assert!(slot.is_none(), "shard {} reported twice", report.shard);
                *slot = Some(report);
            }
        }
    }
}

/// Spawns one shard's producer/worker thread pair. `shard` is the stable
/// id the pair reports as; the runtime calls this both at start and from
/// [`StreamRuntime::spawn_shard`].
fn spawn_shard_threads(
    shard: usize,
    config: &ServiceConfig,
    events: mpsc::Sender<RuntimeEvent>,
    tracing: Option<&TracingSpec>,
) -> ShardHandle {
    let (control_tx, control_rx) = control_channel();
    let (job_tx, job_rx, queue) = bounded_queue(config.queue_depth);
    // Render buffers flow producer→worker inside ShardJob::Frame and come
    // back empty-handed on this recycle channel, so session lifetime — not
    // frame count — bounds the shard's frame allocations.
    let (recycle_tx, recycle_rx) = mpsc::channel();
    // Frames in the queue plus one in the producer's hands; recycled
    // buffers beyond the cap are dropped rather than hoarded.
    let frame_pool_cap = config.queue_depth + 1;
    let sessions = Arc::new(AtomicUsize::new(0));
    let session_pixels = Gauge::new();
    let queued_pixels = Gauge::new();
    let remaining_pixels = Gauge::new();
    // Always-on render-time accounting (satisfies ShardReport even with
    // tracing off): the producer adds, the worker reads at exit.
    let render_nanos = Arc::new(AtomicU64::new(0));
    let producer = std::thread::Builder::new()
        .name(format!("pvc-shard{shard}-render"))
        .spawn({
            let links = ProducerLinks {
                control: control_rx,
                jobs: job_tx,
                queued_pixels: queued_pixels.clone(),
                remaining_pixels: remaining_pixels.clone(),
                recycle: recycle_rx,
                frame_pool_cap,
                render_nanos: Arc::clone(&render_nanos),
                tracing: tracing.map(|spec| ShardTracing::new(shard, spec)),
            };
            move || run_producer(links)
        })
        .expect("spawning shard producer thread");
    let worker = std::thread::Builder::new()
        .name(format!("pvc-shard{shard}-encode"))
        .spawn({
            let config = config.clone();
            let links = WorkerLinks {
                jobs: job_rx,
                queue: queue.clone(),
                sessions: Arc::clone(&sessions),
                session_pixels: session_pixels.clone(),
                queued_pixels: queued_pixels.clone(),
                events,
                recycle: recycle_tx,
                render_nanos,
                tracing: tracing.map(|spec| ShardTracing::new(shard, spec)),
            };
            move || run_worker(shard, config, links)
        })
        .expect("spawning shard worker thread");
    ShardHandle {
        shard,
        control: control_tx,
        queue,
        sessions,
        session_pixels,
        queued_pixels,
        remaining_pixels,
        producer,
        worker,
    }
}

/// Applies one control message to the producer's member sessions.
/// `Open` is forwarded to the worker at once, ahead of any frame of the
/// session; `Close` stops rendering a member and queues its `Close`
/// behind every frame already rendered.
///
/// Returns `Err` when the worker is gone (queue closed) and the producer
/// should stop.
fn apply(
    message: ShardControl,
    active: &mut Vec<ProducerSession>,
    draining: &mut bool,
    links: &ProducerLinks,
) -> Result<(), ()> {
    let job = match message {
        ShardControl::Open(open) => {
            active.push(ProducerSession::open(open.id, open.config.clone(), open.at));
            ShardJob::Open(open)
        }
        ShardControl::Close { id, how } => {
            let Some(position) = active.iter().position(|session| session.id == id) else {
                return Ok(());
            };
            let session = active.remove(position);
            let unrendered = session.config.frames().saturating_sub(session.next);
            let pixels = session.config.pixel_cost() * u64::from(unrendered);
            links.remaining_pixels.sub(pixels);
            ShardJob::Close { id, how }
        }
        ShardControl::Shutdown => {
            *draining = true;
            return Ok(());
        }
    };
    links.jobs.send(job).map_err(|_| ())
}

/// Everything one producer thread owns, bundled so the tracing kit and
/// the always-on render-time counter ride along without widening the
/// thread function's signature.
struct ProducerLinks {
    control: ControlReceiver<ShardControl>,
    jobs: BoundedSender<ShardJob>,
    queued_pixels: Gauge,
    /// Work still due: lowered per rendered frame and at every cancel or
    /// eviction; the runtime raises it at every open.
    remaining_pixels: Gauge,
    recycle: mpsc::Receiver<LinearFrame>,
    frame_pool_cap: usize,
    /// Accumulated render time, read by the worker at exit into
    /// [`ShardReport::render_seconds`]. Always maintained.
    render_nanos: Arc<AtomicU64>,
    tracing: Option<ShardTracing>,
}

/// The producer thread: runs the loop, then seals and ships its trace.
/// `links` (and with it the job sender) drops when this returns, which is
/// what lets the worker drain and wind down.
fn run_producer(mut links: ProducerLinks) {
    producer_loop(&mut links);
    if let Some(tracing) = links.tracing.take() {
        tracing.finish(Lane::Producer);
    }
}

/// The producer loop: absorbs control commands (blocking while idle,
/// polling while busy) and renders member sessions' frames round-robin
/// into the bounded queue. Frame-major interleaving (A0 B0 A1 B1 …) is
/// fair across sessions while preserving per-session frame order — which
/// is all determinism needs. `queued_pixels` is raised before each frame
/// send (add-before-handoff, see [`Gauge`]) and released by the worker.
///
/// Render buffers come from a small pool fed by the worker's `recycle`
/// channel (capped at `frame_pool_cap`; excess buffers are dropped), so a
/// long-lived session renders its whole stream into a handful of
/// recirculating frames. Rendering overwrites every pixel, so recycling
/// cannot change a single emitted bit — and neither can any of the clock
/// reads tracing adds around it.
fn producer_loop(links: &mut ProducerLinks) {
    let mut active: Vec<ProducerSession> = Vec::new();
    let mut pool: Vec<LinearFrame> = Vec::new();
    let mut draining = false;
    loop {
        // Idle: sleep on the control channel rather than spinning.
        while active.is_empty() && !draining {
            let Some(message) = links.control.wait() else {
                draining = true;
                break;
            };
            if apply(message, &mut active, &mut draining, links).is_err() {
                return;
            }
        }
        // Busy: absorb whatever commands piled up, without blocking.
        loop {
            match links.control.poll() {
                ControlPoll::Message(message) => {
                    if apply(message, &mut active, &mut draining, links).is_err() {
                        return;
                    }
                }
                ControlPoll::Closed => {
                    draining = true;
                    break;
                }
                ControlPoll::Empty => break,
            }
        }
        if active.is_empty() {
            if draining {
                return; // returning drops `jobs` upstream; worker winds down
            }
            continue;
        }
        // Reclaim whatever render buffers the worker has finished with.
        let reclaim_start = Instant::now();
        while let Ok(frame) = links.recycle.try_recv() {
            if pool.len() < links.frame_pool_cap {
                pool.push(frame);
            }
        }
        if let Some(tracing) = links.tracing.as_mut() {
            tracing
                .recorder
                .span(Stage::PoolRecycle, CLASS_OTHER, 0, 0, reclaim_start);
        }
        // One frame per member session. Every send can block on the
        // bounded queue (backpressure); a send error means the worker is
        // gone (unwinding), so stop producing.
        let mut index = 0;
        while index < active.len() {
            let finished = {
                let session = &mut active[index];
                if session.next < session.config.frames() {
                    let t = session.next;
                    let mut frame = pool.pop().unwrap_or_else(|| {
                        LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK)
                    });
                    let render_start = Instant::now();
                    session.renderer.render_linear_into(t, &mut frame);
                    let rendered_nanos = render_start.elapsed().as_nanos() as u64;
                    links
                        .render_nanos
                        .fetch_add(rendered_nanos, Ordering::Relaxed);
                    if let Some(tracing) = links.tracing.as_mut() {
                        let class = session.config.profile.tier.class_index();
                        let start = tracing.recorder.epoch().nanos_since(render_start);
                        tracing.recorder.span_nanos(
                            Stage::Render,
                            class,
                            session.id as u64,
                            t,
                            start,
                            rendered_nanos,
                        );
                    }
                    let job = ShardJob::Frame {
                        id: session.id,
                        frame,
                        gaze: session.trace.samples()[t as usize],
                        enqueued: Instant::now(),
                    };
                    // Add-before-handoff keeps the gauge non-negative: the
                    // worker's release always follows this add.
                    let pixels = session.config.pixel_cost();
                    links.queued_pixels.add(pixels);
                    if links.jobs.send(job).is_err() {
                        links.queued_pixels.sub(pixels);
                        return;
                    }
                    // The frame is rendered: it is no longer "remaining".
                    links.remaining_pixels.sub(pixels);
                    session.next += 1;
                }
                session.next >= session.config.frames()
            };
            if finished {
                // `remove` (not swap_remove) keeps the round-robin order of
                // the remaining sessions stable.
                let done = active.remove(index);
                let close = ShardJob::Close {
                    id: done.id,
                    how: CloseMode::Complete,
                };
                if links.jobs.send(close).is_err() {
                    return;
                }
            } else {
                index += 1;
            }
        }
    }
}

/// Everything one worker thread owns besides its encoder state, bundled
/// like [`ProducerLinks`] to keep the thread function's signature flat.
struct WorkerLinks {
    jobs: BoundedReceiver<ShardJob>,
    queue: QueueStats,
    /// The shard-load gauges the worker releases as sessions and frames
    /// pass through it; the runtime and producer raise them.
    sessions: Arc<AtomicUsize>,
    session_pixels: Gauge,
    queued_pixels: Gauge,
    events: mpsc::Sender<RuntimeEvent>,
    recycle: mpsc::Sender<LinearFrame>,
    /// The producer's accumulated render time; read once at exit (the
    /// queue has closed by then, so the producer has stopped adding).
    render_nanos: Arc<AtomicU64>,
    tracing: Option<ShardTracing>,
}

/// The worker loop: drains the frame queue in arrival order, opening
/// sessions on `Open`, encoding each frame with its session's own encoder,
/// and handing each session's state back to the runtime on `Close`. Exits
/// when the producer drops its sender and the queue drains.
///
/// One [`StreamScratch`] and one bitstream buffer serve every session of
/// the shard for the worker's whole lifetime: the scratch only changes
/// *where* intermediates live (never a computed bit), so sharing it across
/// heterogeneous sessions is safe — the buffers simply warm up to the
/// largest frame size the shard serves. Encoded frames are handed back to
/// the producer through `recycle` for re-rendering.
///
/// With tracing on, each frame contributes a queue-wait span, an adjust
/// span covering the whole fused adjust → quantize → pack encode (the
/// scratch's [`StreamScratch::last_timing`], chained from the encode
/// start — the gaze-map lookup between dequeue and adjust is untraced)
/// and a wire-emit span around the sink fan-out. All of it is clock
/// reads and integer stores: no allocation, no encoded-bit drift.
fn run_worker(shard: usize, config: ServiceConfig, mut links: WorkerLinks) {
    let wall_start = Instant::now();
    let mut shard_report = ShardReport {
        shard,
        ..ShardReport::default()
    };
    let mut sessions: BTreeMap<usize, WorkerSession> = BTreeMap::new();
    let mut scratch = StreamScratch::new();
    let mut bitstream: Vec<u8> = Vec::new();
    let mut busy_seconds = 0.0f64;
    for job in links.jobs.iter() {
        match job {
            ShardJob::Open(open) => {
                // A reopen on the same shard (a shed) is not a second
                // session there.
                if open
                    .state
                    .as_ref()
                    .map_or(true, |state| state.report.shard != shard)
                {
                    shard_report.sessions += 1;
                }
                let id = open.id;
                sessions.insert(id, WorkerSession::open(shard, &config, open));
            }
            ShardJob::Frame {
                id,
                frame,
                gaze,
                enqueued,
            } => {
                let session = sessions
                    .get_mut(&id)
                    .expect("frame for a session that was never opened");
                let state = &mut session.state;
                let pixels = state.config.pixel_cost();
                let class = state.config.profile.tier.class_index();
                // The frame left the queue: release its pixel weight.
                links.queued_pixels.sub(pixels);
                shard_report.frames += 1;
                shard_report.pixels += pixels;
                let encode_start = Instant::now();
                let first_frame = *state.first_frame.get_or_insert(encode_start);
                let stats = session.encoder.encode_frame_stream_into(
                    &frame,
                    gaze,
                    &mut scratch,
                    &mut bitstream,
                );
                busy_seconds += encode_start.elapsed().as_secs_f64();
                // The frame's pixels are encoded; hand the buffer back for
                // re-rendering (the producer may already be gone at
                // shutdown, which is fine — the buffer just drops).
                links.recycle.send(frame).ok();
                let report = &mut state.report;
                // The frame's index within the session, before the
                // throughput counter moves past it.
                let frame_index = report.throughput.frames as u32;
                report.temporal.record_frame(
                    stats.temporal.keyframe,
                    stats.temporal.skip_tiles,
                    stats.temporal.delta_tiles,
                    stats.temporal.intra_tiles,
                    stats.temporal.bits,
                    stats.temporal.intra_bits,
                );
                report.throughput.record_frame_bits(
                    stats.compression.uncompressed_bits,
                    bitstream.len() as u64,
                    pixels,
                );
                // Per-session wall-clock: first frame's encode start to the
                // latest frame's encode end. Refreshed every frame so the
                // final value lands on the last frame without needing one.
                report.throughput.wall_seconds = first_frame.elapsed().as_secs_f64();
                if let Some(tracing) = links.tracing.as_mut() {
                    record_frame_spans(
                        &mut tracing.recorder,
                        class,
                        id as u64,
                        frame_index,
                        enqueued,
                        encode_start,
                        scratch.last_timing(),
                    );
                }
                let emit_start = Instant::now();
                let keyframe = stats.temporal.keyframe;
                for sink in state.sinks() {
                    sink.frame(frame_index, keyframe, &bitstream);
                }
                if let Some(tracing) = links.tracing.as_mut() {
                    tracing.recorder.span(
                        Stage::WireEmit,
                        class,
                        id as u64,
                        frame_index,
                        emit_start,
                    );
                }
            }
            ShardJob::Close { id, how } => {
                let session = sessions
                    .remove(&id)
                    .expect("close for a session that was never opened");
                close(id, session, how, &links);
            }
        }
    }
    // The producer only exits without closing every session while
    // unwinding; close leftovers so retirees are not stranded.
    for (id, session) in std::mem::take(&mut sessions) {
        close(id, session, CloseMode::Complete, &links);
    }
    shard_report.busy_seconds = busy_seconds;
    shard_report.render_seconds = links.render_nanos.load(Ordering::Relaxed) as f64 / 1e9;
    shard_report.wall_seconds = wall_start.elapsed().as_secs_f64();
    shard_report.queue_stalls = links.queue.stalls();
    shard_report.queue_enqueued = links.queue.enqueued();
    shard_report.queue_peak_depth = links.queue.peak_depth();
    links
        .events
        .send(RuntimeEvent::ShardDone(shard_report))
        .ok();
    if let Some(tracing) = links.tracing.take() {
        tracing.finish(Lane::Worker);
    }
}

/// Records one encoded frame's span ladder: queue wait (enqueue →
/// dequeue), then the encode as one `adjust` span of the scratch's
/// timing, chained end to end from the encode start. The encode adjusts,
/// quantizes and packs tile by tile in one loop, so it has no separate
/// gamma or BD-encode span.
fn record_frame_spans(
    recorder: &mut Recorder,
    class: u8,
    session: u64,
    frame: u32,
    enqueued: Instant,
    encode_start: Instant,
    encode: Duration,
) {
    // The ladder is chained: each stage starts where the previous ended.
    let epoch = recorder.epoch();
    let at = epoch.nanos_since(enqueued);
    let queue_wait = epoch.nanos_since(encode_start).saturating_sub(at);
    recorder.span_nanos(Stage::QueueWait, class, session, frame, at, queue_wait);
    recorder.span_nanos(
        Stage::Adjust,
        class,
        session,
        frame,
        at + queue_wait,
        encode.as_nanos() as u64,
    );
}

/// Closes a session on this worker: adds its encoder's cache counters to
/// the report (each open builds a fresh encoder, so the report sums every
/// incarnation), releases its shard-load gauges, and hands its state back
/// to the runtime.
fn close(id: usize, session: WorkerSession, how: CloseMode, links: &WorkerLinks) {
    let WorkerSession { encoder, mut state } = session;
    let stats = encoder.cache_stats();
    let cache = &mut state.report.cache;
    cache.hits += stats.hits;
    cache.misses += stats.misses;
    cache.entries += stats.entries;
    links.sessions.fetch_sub(1, Ordering::Relaxed);
    links.session_pixels.sub(state.config.pixel_cost());
    let state = Box::new(state);
    links
        .events
        .send(RuntimeEvent::Closed { id, how, state })
        .ok();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PowerOfTwoChoices;
    use pvc_frame::Dimensions;

    fn dims() -> Dimensions {
        Dimensions::new(32, 32)
    }

    #[test]
    fn sessions_admitted_after_a_retire_still_stream() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let a = runtime.admit(SessionConfig::synthetic(0, dims(), 3));
        let report_a = runtime.retire(a);
        assert_eq!(report_a.throughput.frames, 3);
        assert!(report_a.throughput.wall_seconds > 0.0);
        assert!(report_a.throughput.frames_per_second() > 0.0);

        // The shard threads are still alive: admit another wave.
        let b = runtime.admit(SessionConfig::synthetic(1, dims(), 2));
        let report = runtime.shutdown();
        assert_eq!(
            report.sessions.len(),
            1,
            "session a's report was handed to retire()"
        );
        assert_eq!(report.sessions[0].session, b);
        assert_eq!(report.sessions[0].throughput.frames, 2);
        assert_eq!(report.totals.frames, 5, "totals still cover the retiree");
        assert_eq!(report.churn.admitted, 2);
        assert_eq!(report.churn.retired, 1);
        assert_eq!(report.churn.completed, 2);
        assert_eq!(
            report.churn.peak_concurrent, 1,
            "never two in flight at once"
        );
    }

    #[test]
    fn retire_waits_for_the_full_frame_budget() {
        // Retiring immediately after admission must still deliver every
        // frame the session was configured for: retirement is graceful.
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 6));
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 6);
        assert_ne!(report.stream_digest, FNV_OFFSET_BASIS);
        runtime.shutdown();
    }

    #[test]
    fn drain_completes_every_stream_and_keeps_the_runtime_alive() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        for index in 0..4 {
            runtime.admit(SessionConfig::synthetic(index, dims(), 2));
        }
        runtime.drain();
        assert_eq!(runtime.churn().in_flight(), 0);
        assert_eq!(runtime.churn().completed, 4);
        // Still serving after the drain.
        runtime.admit(SessionConfig::synthetic(4, dims(), 2));
        let report = runtime.shutdown();
        assert_eq!(report.sessions.len(), 5);
        assert_eq!(report.totals.frames, 10);
    }

    #[test]
    fn zero_frame_sessions_complete_immediately() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 0));
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 0);
        assert_eq!(
            report.stream_digest, FNV_OFFSET_BASIS,
            "no frames, seed digest"
        );
        runtime.shutdown();
    }

    #[test]
    fn static_assignments_are_modulo_and_observable() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(3));
        for index in 0..6 {
            let id = runtime.admit(SessionConfig::synthetic(index, dims(), 3));
            assert_eq!(runtime.assignment(id), Some(id % 3));
        }
        assert_eq!(runtime.assignment(99), None);
        let report = runtime.shutdown();
        for session in &report.sessions {
            assert_eq!(session.shard, session.session % 3);
        }
        for shard in &report.shards {
            assert_eq!(
                shard.queue_enqueued,
                2 * 3 + 2 * 2,
                "two sessions per shard: every frame plus one Open and one Close each"
            );
        }
    }

    #[test]
    fn power_of_two_spreads_sessions_under_load() {
        // With 2 shards p2c always compares both, and admissions bump the
        // placed shard's live session count synchronously — so the second
        // admission must see shard 0 loaded and flee to shard 1. Exact
        // splits beyond that depend on live load (sessions completing
        // mid-loop lower their shard's score, legitimately attracting
        // later admissions), so only the both-shards-used property is
        // timing-independent.
        let mut runtime = StreamRuntime::start(
            ServiceConfig::default().with_shards(2),
            Box::new(PowerOfTwoChoices::default()),
        );
        for index in 0..8 {
            runtime.admit(SessionConfig::synthetic(index, dims(), 50));
        }
        let placed: Vec<usize> = (0..8).map(|id| runtime.assignment(id).unwrap()).collect();
        let on_zero = placed.iter().filter(|&&shard| shard == 0).count();
        assert!(
            (1..=7).contains(&on_zero),
            "p2c must not pile every session on one shard, got {placed:?}"
        );
        let report = runtime.shutdown();
        assert_eq!(report.totals.frames, 400);
        let served: usize = report.shards.iter().map(|shard| shard.sessions).sum();
        assert_eq!(served, 8);
    }

    #[test]
    fn shard_loads_report_live_population() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        runtime.admit(SessionConfig::synthetic(0, dims(), 40));
        let loads = runtime.shard_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].sessions, 1, "admission registers immediately");
        assert_eq!(
            loads[0].session_pixels,
            32 * 32,
            "the pixel gauge rises with the session count"
        );
        assert_eq!(loads[1].sessions, 0);
        assert_eq!(loads[1].session_pixels, 0);
        runtime.drain();
        let after = runtime.shard_loads();
        assert_eq!(after[0].sessions, 0, "completion deregisters");
        assert_eq!(after[0].session_pixels, 0, "pixels release with it");
        assert_eq!(after[0].queued_pixels, 0, "the queue drained");
        runtime.shutdown();
    }

    #[test]
    fn hard_cancel_returns_a_partial_cancelled_report() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        // A budget far beyond what could stream before the cancel lands.
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 100_000));
        let report = runtime.retire_now(id);
        assert!(report.cancelled, "the stream must have been cut short");
        assert!(
            report.throughput.frames < 100_000,
            "cancel must drop the remaining frame budget"
        );
        // The runtime keeps serving after a cancel.
        let survivor = runtime.admit(SessionConfig::synthetic(1, dims(), 3));
        let survivor_report = runtime.retire(survivor);
        assert_eq!(survivor_report.throughput.frames, 3);
        assert!(!survivor_report.cancelled);
        let service_report = runtime.shutdown();
        assert_eq!(service_report.churn.admitted, 2);
        assert_eq!(service_report.churn.retired, 2);
        assert_eq!(service_report.churn.completed, 2);
        assert_eq!(service_report.churn.cancelled, 1);
    }

    #[test]
    fn hard_cancel_of_a_finished_stream_returns_the_complete_report() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 2));
        runtime.drain();
        let report = runtime.retire_now(id);
        assert!(!report.cancelled, "a finished stream has nothing to cancel");
        assert_eq!(report.throughput.frames, 2);
        let service_report = runtime.shutdown();
        assert_eq!(service_report.churn.cancelled, 0);
        assert_eq!(service_report.churn.retired, 1);
    }

    #[test]
    fn hard_cancel_releases_the_shard_load_gauges() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 100_000));
        assert_eq!(runtime.shard_loads()[0].session_pixels, 32 * 32);
        let _ = runtime.retire_now(id);
        let load = runtime.shard_loads()[0];
        assert_eq!(load.sessions, 0);
        assert_eq!(load.session_pixels, 0, "cancel releases committed pixels");
        runtime.shutdown();
    }

    #[test]
    fn heterogeneous_profiles_stream_side_by_side() {
        use crate::session::{ResolutionTier, SessionProfile};
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let base = dims();
        let ids: Vec<usize> = ResolutionTier::ALL
            .iter()
            .enumerate()
            .map(|(index, &tier)| {
                runtime.admit(
                    SessionConfig::synthetic(index, base, 4)
                        .with_profile(SessionProfile::for_tier(tier, base, 4)),
                )
            })
            .collect();
        runtime.drain();
        let report = runtime.shutdown();
        assert_eq!(report.sessions.len(), 3);
        for (id, session) in ids.iter().zip(&report.sessions) {
            assert_eq!(session.session, *id);
        }
        let by_tier: Vec<(&'static str, u64, u64)> = report
            .sessions
            .iter()
            .map(|s| (s.tier.name(), s.throughput.frames, s.throughput.pixels))
            .collect();
        assert_eq!(by_tier[0].0, "quest2");
        assert_eq!(by_tier[0].1, 4);
        assert_eq!(by_tier[1].0, "quest-pro");
        assert_eq!(by_tier[1].1, 5, "90 Hz budget");
        assert_eq!(by_tier[2].0, "vision");
        assert_eq!(by_tier[2].1, 5, "96 Hz budget");
        // Pixel telemetry reflects each tier's actual cost, not a shared
        // frame size.
        for session in &report.sessions {
            assert_eq!(
                session.throughput.pixels,
                session.throughput.frames
                    * u64::try_from(
                        ResolutionTier::ALL[session.session]
                            .scale(base)
                            .pixel_count()
                    )
                    .unwrap()
            );
        }
        assert_eq!(
            report.totals.pixels,
            report.sessions.iter().map(|s| s.throughput.pixels).sum()
        );
    }

    #[test]
    fn migrate_moves_a_live_session_and_its_gauges() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 400));
        assert_eq!(runtime.assignment(id), Some(0));
        assert!(runtime.migrate(id, 1), "a live session must move");
        assert_eq!(runtime.assignment(id), Some(1));
        let loads = runtime.shard_loads();
        assert_eq!(loads[0].sessions, 0, "the source released its gauges");
        assert_eq!(loads[0].session_pixels, 0);
        assert_eq!(loads[1].sessions, 1, "the destination picked them up");
        assert_eq!(loads[1].session_pixels, 32 * 32);
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 400, "no frame lost in transit");
        assert_eq!(report.shard, 1, "the report names the new home");
        let service_report = runtime.shutdown();
        assert_eq!(service_report.elasticity.migrated, 1);
        assert_eq!(
            service_report.shards[0].frames + service_report.shards[1].frames,
            400,
            "shard attribution splits at the migration point"
        );
        let enqueued: u64 = service_report
            .shards
            .iter()
            .map(|shard| shard.queue_enqueued)
            .sum();
        assert_eq!(
            enqueued,
            400 + 2 + 2,
            "the move adds exactly one Open and one Close"
        );
    }

    #[test]
    fn migrate_refuses_completed_sessions_and_self_moves() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let done = runtime.admit(SessionConfig::synthetic(0, dims(), 2));
        runtime.drain();
        assert!(!runtime.migrate(done, 1), "completed streams stay put");
        let live = runtime.admit(SessionConfig::synthetic(1, dims(), 200));
        assert!(!runtime.migrate(live, 1), "self-migration is refused");
        let report = runtime.shutdown();
        assert_eq!(report.elasticity.migrated, 0);
    }

    #[test]
    fn shed_downgrades_a_live_session_mid_stream() {
        use crate::session::{ResolutionTier, SessionProfile};
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let profile = SessionProfile::for_tier(ResolutionTier::VisionClass, dims(), 600);
        let lower = profile
            .downgraded()
            .expect("vision downgrades to quest-pro");
        let downgraded_frames = lower.frames;
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 600).with_profile(profile));
        assert!(runtime.shed(id, lower), "a live session must shed");
        let report = runtime.retire(id);
        assert_eq!(report.tier, ResolutionTier::QuestPro);
        assert_eq!(report.downgraded_from, Some(ResolutionTier::VisionClass));
        let switch = report
            .downgrade_frame
            .expect("the downgrade landed mid-stream");
        assert!(
            switch < downgraded_frames,
            "the switch point ({switch}) must precede the downgraded budget ({downgraded_frames})"
        );
        assert_eq!(
            report.throughput.frames,
            u64::from(downgraded_frames),
            "the stream finishes on the *downgraded* frame budget"
        );
        let service_report = runtime.shutdown();
        assert_eq!(service_report.elasticity.shed, 1);
        assert_eq!(
            service_report.shards[0].sessions, 1,
            "a shed reopens on the same shard: not a second session there"
        );
    }

    #[test]
    fn drain_rebalances_members_onto_surviving_shards() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 400));
        let dest = runtime.spawn_shard();
        assert_eq!(dest, 1, "spawned shards take fresh stable ids");
        assert_eq!(runtime.shard_count(), 2);
        let drained = runtime.drain_shard(0);
        assert_eq!(drained.shard, 0);
        assert_eq!(drained.sessions, 1, "the shard served before handing off");
        assert_eq!(runtime.shard_count(), 1);
        assert_eq!(
            runtime.assignment(id),
            Some(dest),
            "drain migrated the live member to the survivor"
        );
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 400);
        let service_report = runtime.shutdown();
        assert_eq!(service_report.elasticity.shards_spawned, 1);
        assert_eq!(service_report.elasticity.shards_drained, 1);
        assert_eq!(service_report.elasticity.migrated, 1, "rebalance counts");
        assert_eq!(
            service_report.shards.len(),
            2,
            "drained shards still appear in the final report"
        );
        assert_eq!(service_report.totals.frames, 400);
    }

    #[test]
    fn remaining_pixels_gauge_tracks_admission_and_cancel() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let total = 100_000u64 * 32 * 32;
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 100_000));
        let load = runtime.shard_loads()[0];
        assert!(
            load.remaining_pixels > 0 && load.remaining_pixels <= total,
            "remaining work commits on admission, drains per frame: {}",
            load.remaining_pixels
        );
        let _ = runtime.retire_now(id);
        assert_eq!(
            runtime.shard_loads()[0].remaining_pixels,
            0,
            "hard-cancel decommits the remaining work"
        );
        runtime.shutdown();
    }

    #[test]
    #[should_panic(expected = "cannot drain the last serving shard")]
    fn draining_the_last_shard_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let _ = runtime.drain_shard(0);
    }

    #[test]
    #[should_panic(expected = "unknown or already drained")]
    fn draining_an_unknown_shard_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let _ = runtime.drain_shard(7);
    }

    #[test]
    #[should_panic(expected = "was never admitted")]
    fn retiring_an_unknown_session_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let _ = runtime.retire(3);
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn retiring_twice_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 1));
        let _ = runtime.retire(id);
        let _ = runtime.retire(id);
    }
}
