//! Multi-session streaming service over the perceptual encoder.
//!
//! The paper's encoder lives inside a VR runtime that serves *continuous
//! per-headset frame streams*, not one frame at a time — and real fleets
//! are heterogeneous: a Quest-2-class headset streams next to a
//! Vision-class one whose frames cost ~3.3× the pixels. This crate models
//! that serving layer end to end, deterministically:
//!
//! * [`GazeTrace`] synthesizes realistic gaze streams — fixations,
//!   saccades, smooth pursuit — from a seed, so sessions exercise the
//!   eccentricity-map cache the way real eye trackers do ([`gaze`]).
//! * [`SessionConfig`] describes one headset's stream declaratively:
//!   scene + seed (*what* is shown) and a [`SessionProfile`] (*how* it
//!   renders: resolution tier, per-eye size, frame budget, gaze model,
//!   optional tile size). [`ResolutionTier`] and [`WorkloadMix`] provide
//!   the standard tiers and synthetic population mixes ([`session`]).
//! * [`StreamRuntime`] is the long-lived serving core: per-shard
//!   producer/worker thread pairs spawned once at `start()`, sessions
//!   admitted, gracefully retired or hard-cancelled
//!   ([`StreamRuntime::retire_now`]) over control channels while frames
//!   are in flight, bounded render→encode queues (backpressure), and
//!   per-session / per-shard / per-tier / churn telemetry ([`runtime`]).
//! * [`Placement`] policies decide which shard an admitted session lands
//!   on: [`Static`] modulo routing, depth-based [`PowerOfTwoChoices`], or
//!   pixel-cost-aware [`LeastLoaded`] — the one heterogeneous mixes need
//!   ([`placement`], including the fairness caveat).
//! * [`ElasticController`] is the control plane over a live runtime:
//!   admission gating against a fleet pixel budget, tier-shedding under
//!   sustained overload, shard autoscaling on hysteresis thresholds, and
//!   rebalancing migration — all built from runtime verbs that preserve
//!   bit-identical streams ([`controller`]).
//! * [`ServiceConfig`] configures a runtime; [`ServiceReport`] is what
//!   its shutdown returns ([`service`]). A batch run is start → admit
//!   all → drain → shutdown.
//!
//! Encoded output is **bit-identical for the same `(scene, seed,
//! profile)` regardless of shard count, placement policy,
//! admission/retirement timing, or other sessions being hard-cancelled**
//! — only timing telemetry varies. The `fleet` and `fleet_elastic`
//! binaries in `pvc_bench` drive this crate at scale, including
//! `--mix bimodal` / `--mix heavy-tail` populations.
//!
//! # Examples
//!
//! The long-lived runtime serving a heterogeneous fleet — start, admit
//! one session per tier, gracefully retire one, hard-cancel another,
//! shut down:
//!
//! ```
//! use pvc_frame::Dimensions;
//! use pvc_stream::{
//!     ResolutionTier, ServiceConfig, SessionConfig, SessionProfile, StreamRuntime,
//! };
//! use pvc_scenes::SceneId;
//!
//! let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
//!
//! // One session per resolution tier, scaled down from a 32×32
//! // Quest-2-equivalent base so the example stays fast. The Vision-class
//! // session costs ~3.3× the pixels per frame and gets a 96 Hz-scaled
//! // frame budget; `--mix` in the bench binaries builds fleets like this.
//! let base = Dimensions::new(32, 32);
//! let ids: Vec<usize> = ResolutionTier::ALL
//!     .iter()
//!     .enumerate()
//!     .map(|(index, &tier)| {
//!         let profile = SessionProfile::for_tier(tier, base, 4);
//!         runtime.admit(SessionConfig::new(SceneId::by_index(index), 7 + index as u64, profile))
//!     })
//!     .collect();
//!
//! // Pixel-weighted shard loads are live; cost-aware placement reads
//! // them. (They are a moment-in-time snapshot — committed pixels
//! // release as sessions finish — so only the shape is asserted here.)
//! let loads = runtime.shard_loads();
//! assert_eq!(loads.len(), 2);
//! let _committed: u64 = loads.iter().map(|l| l.session_pixels).sum();
//!
//! // Graceful retirement: the Quest-2 session finishes its 4-frame budget.
//! let report = runtime.retire(ids[0]);
//! assert_eq!(report.throughput.frames, 4);
//! assert!(!report.cancelled);
//!
//! // Hard-cancel: the Vision-class session ends early with a partial,
//! // flagged report (its budget was 96 Hz-scaled: 5 frames).
//! let cancelled = runtime.retire_now(ids[2]);
//! assert!(cancelled.throughput.frames <= 5);
//! assert_eq!(cancelled.tier, ResolutionTier::VisionClass);
//!
//! let service_report = runtime.shutdown();
//! assert_eq!(service_report.churn.admitted, 3);
//! assert_eq!(service_report.churn.completed, 3);
//! assert_eq!(service_report.churn.retired, 2);
//! // The report keeps only the session not handed out above.
//! assert_eq!(service_report.sessions.len(), 1);
//! assert_eq!(service_report.sessions[0].tier, ResolutionTier::QuestPro);
//! ```
//!
//! A batch run over a homogeneous roster:
//!
//! ```
//! use pvc_frame::Dimensions;
//! use pvc_stream::{ServiceConfig, SessionConfig, StreamRuntime};
//!
//! // Four headsets, two shard workers, eight frames each.
//! let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
//! for index in 0..4 {
//!     runtime.admit(SessionConfig::synthetic(index, Dimensions::new(32, 32), 8));
//! }
//! runtime.drain();
//! let report = runtime.shutdown();
//! assert_eq!(report.totals.frames, 32);
//! assert!(report.totals.bytes_out < report.totals.bytes_in, "BD always compresses");
//!
//! // Fixation-heavy gaze keeps the per-session map cache hot.
//! let hits: u64 = report.sessions.iter().map(|s| s.cache.hits).sum();
//! assert!(hits > 0);
//!
//! // Sessions stay pinned to their shard; per-session rates are real.
//! for session in &report.sessions {
//!     assert_eq!(session.shard, session.session % 2);
//!     assert!(session.throughput.frames_per_second() > 0.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod gaze;
pub mod placement;
pub mod runtime;
pub mod service;
pub mod session;
pub mod wire;

pub use controller::{Admission, ElasticConfig, ElasticController, TickActions};
pub use gaze::{FixationSaccadeConfig, GazeModel, GazeTrace, SmoothPursuitConfig};
pub use placement::{
    plan_migration, LeastLoaded, MigrationPlan, Placement, PowerOfTwoChoices, Predictive,
    ShardLoad, Static,
};
pub use runtime::StreamRuntime;
pub use service::{ServiceConfig, ServiceReport, ShardReport, TraceConfig};
pub use session::{ResolutionTier, SessionConfig, SessionProfile, SessionReport, WorkloadMix};
pub use wire::{
    FrameSink, WireError, WireReader, WireRecord, WireSessionHeader, WireSink, WireTierChange,
    WIRE_VERSION,
};
