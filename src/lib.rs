//! Perceptual VR frame encoding — a reproduction of *"Exploiting Human
//! Color Discrimination for Memory- and Energy-Efficient Image Encoding in
//! Virtual Reality"* (ASPLOS 2024).
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single package:
//!
//! * [`color`] — color spaces, discrimination ellipsoids and the
//!   eccentricity-dependent discrimination model Φ,
//! * [`frame`] — frames and tiles,
//! * [`fovea`] — display geometry, gaze and eccentricity maps,
//! * [`scenes`] — procedural VR scene generation,
//! * [`bdc`] — the Base+Delta framebuffer codec,
//! * [`baselines`] — PNG-style and SCC baseline codecs,
//! * [`core`] — the perceptual color adjustment algorithm and frame encoder,
//! * [`hw`] — the CAU hardware, DRAM energy and power-saving models,
//! * [`metrics`] — PSNR, error statistics and throughput telemetry,
//! * [`stream`] — the multi-session streaming runtime with gaze-trace
//!   synthesis, heterogeneous session profiles (resolution tiers,
//!   per-session frame budgets), cost-aware placement and hard-cancel
//!   retirement,
//! * [`trace`] — allocation-free per-stage tracing: per-thread event
//!   rings, log-scaled latency histograms and the run-level trace report
//!   the benches export as Chrome trace JSON,
//! * [`study`] — the simulated psychophysical user study.
//!
//! # Quickstart
//!
//! ```
//! use perceptual_vr_encoding::prelude::*;
//!
//! // Render a frame of one of the synthetic VR scenes.
//! let dims = Dimensions::new(128, 128);
//! let frame = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims)).render_linear(0);
//!
//! // Encode it with the perceptual encoder for a centrally-fixated viewer.
//! let encoder = PerceptualEncoder::new(
//!     SyntheticDiscriminationModel::default(),
//!     EncoderConfig::default(),
//! );
//! let display = DisplayGeometry::quest2_like(dims);
//! let result = encoder.encode_frame(&frame, &display, GazePoint::center_of(dims));
//!
//! // The perceptual encoding always needs at most as much traffic as BD.
//! assert!(result.our_stats().compressed_bits <= result.bd_stats().compressed_bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pvc_baselines as baselines;
pub use pvc_bdc as bdc;
pub use pvc_client as client;
pub use pvc_color as color;
pub use pvc_core as core;
pub use pvc_fovea as fovea;
pub use pvc_frame as frame;
pub use pvc_hw as hw;
pub use pvc_metrics as metrics;
pub use pvc_scenes as scenes;
pub use pvc_stream as stream;
pub use pvc_study as study;
pub use pvc_trace as trace;

/// The most commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use pvc_baselines::{nocom_stats, PngLikeCodec, SccCodec, SccConfig};
    pub use pvc_bdc::{BdConfig, BdDecoder, BdEncoder, CompressionStats, FrameKind};
    pub use pvc_client::{ClientReport, LinkModel, SessionClient};
    pub use pvc_color::{
        DiscriminationModel, DklColor, LinearRgb, RbfDiscriminationModel, RgbAxis, Srgb8,
        SyntheticDiscriminationModel,
    };
    pub use pvc_core::{
        AdjustScratch, BatchCacheStats, BatchEncoder, EncoderConfig, PerceptualEncodeResult,
        PerceptualEncoder, StreamFrameStats, StreamScratch, TemporalConfig,
    };
    pub use pvc_fovea::{DisplayGeometry, EccentricityMap, FoveaConfig, GazePoint, StereoGeometry};
    pub use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, TileGrid};
    pub use pvc_hw::{CauModel, DramConfig, PowerModel, RefreshRate};
    pub use pvc_metrics::{QualityReport, ThroughputReport, TierAggregates};
    pub use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
    pub use pvc_stream::{
        FrameSink, GazeModel, GazeTrace, LeastLoaded, PowerOfTwoChoices, ResolutionTier,
        ServiceConfig, SessionConfig, SessionProfile, StreamRuntime, TraceConfig, WireReader,
        WireRecord, WorkloadMix,
    };
    pub use pvc_study::{SceneTrial, StudyConfig, UserStudy};
    pub use pvc_trace::{LatencyHistogram, Recorder, Stage, TraceEpoch, TraceReport};
}
