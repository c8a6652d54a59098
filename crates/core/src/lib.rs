//! Color perception-aware framebuffer encoding — the paper's contribution.
//!
//! The encoder relaxes the numerically lossless constraint of Base+Delta
//! framebuffer compression to a *perceptually* lossless one: pixel colors
//! may be adjusted freely as long as each stays inside its eccentricity-
//! dependent discrimination ellipsoid (Sec. 3 of the paper). Within that
//! freedom the encoder minimizes the per-tile value range along the Red or
//! Blue axis, which directly minimizes the Δ bit-length of the downstream
//! BD codec.
//!
//! The crate provides:
//!
//! * [`adjust`] — the per-tile analytical color adjustment (extrema, HL/LH
//!   planes, case-1/case-2 moves of Fig. 6) and its general route,
//! * [`strip`] — the fixed-shape closed form over a whole tile row, one SIMD
//!   lane per tile, with an AVX2 clone chosen at run time,
//! * [`encoder`] — the full-frame [`PerceptualEncoder`] that combines the
//!   gaze-dependent eccentricity map, the foveal bypass, the per-tile
//!   adjustment along both candidate axes, and the existing BD back-end,
//! * [`batch`] — the [`BatchEncoder`] session API that amortises
//!   eccentricity-map construction across a gaze-stream of frames,
//! * [`solver`] — an iterative reference solver for the relaxed optimization
//!   problem, used to validate that the analytical solution is optimal,
//! * [`stats`] — the per-frame statistics reported in the paper's
//!   evaluation (case distribution, adjusted-tile counts).
//!
//! # Examples
//!
//! ```
//! use pvc_color::SyntheticDiscriminationModel;
//! use pvc_core::{EncoderConfig, PerceptualEncoder};
//! use pvc_fovea::{DisplayGeometry, GazePoint};
//! use pvc_frame::{Dimensions, LinearFrame};
//! use pvc_color::LinearRgb;
//!
//! let dims = Dimensions::new(64, 64);
//! let frame = LinearFrame::filled(dims, LinearRgb::new(0.4, 0.5, 0.3));
//! let display = DisplayGeometry::quest2_like(dims);
//! let gaze = GazePoint::center_of(dims);
//!
//! let encoder = PerceptualEncoder::new(
//!     SyntheticDiscriminationModel::default(),
//!     EncoderConfig::default(),
//! );
//! let result = encoder.encode_frame(&frame, &display, gaze);
//! // The decoded frame is what the display controller would show.
//! let shown = result.encoded.decode();
//! assert_eq!(shown.dimensions(), dims);
//! ```

// The one exception is the runtime dispatch to the strip kernel's AVX2
// clone (`strip::run_kernel`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adjust;
pub mod batch;
pub mod config;
pub mod encoder;
pub mod solver;
pub mod stats;
pub mod strip;

pub use ablation::{run_ablation, AblationResult, AblationVariant};
pub use adjust::{
    adjust_tile_along_axis, adjust_tile_with, AdjustScratch, AdjustmentCase, AxisAdjustment,
    TileAdjustOutcome,
};
pub use batch::{BatchCacheStats, BatchEncoder, DEFAULT_GAZE_CACHE_CAPACITY};
pub use config::{EncoderConfig, TemporalConfig};
pub use encoder::{
    PerceptualEncodeResult, PerceptualEncoder, StreamFrameStats, StreamScratch, TemporalHistory,
};
pub use solver::IterativeSolver;
pub use stats::AdjustmentStats;
pub use strip::kernel_path;
#[doc(hidden)]
pub use strip::on_each_kernel_path;
