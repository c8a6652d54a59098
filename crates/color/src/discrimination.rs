//! The eccentricity-dependent color discrimination function Φ (Eq. 3).
//!
//! Φ maps a reference color κ and a retinal eccentricity *e* (in degrees) to
//! the semi-axes `(a, b, c)` of the discrimination ellipsoid of κ in DKL
//! space. The paper evaluates Φ with a Radial Basis Function (RBF) network
//! fitted to human psychophysical measurements (Duinkharjav et al. 2022).
//! Those raw measurements are not publicly available, so this crate provides:
//!
//! * [`SyntheticDiscriminationModel`] — an analytic stand-in that has the
//!   properties the paper relies on (thresholds grow with eccentricity,
//!   larger thresholds for darker colors, green-dominated sensitivity), with
//!   an overall scale calibrated so that foveal thresholds are ~1–2 sRGB code
//!   values and 25°-periphery thresholds are several code values (Fig. 2).
//! * [`RbfDiscriminationModel`] — the paper's RBF-network *mechanism*,
//!   fitted by ridge regression to any other model (by default the synthetic
//!   one). This is the form a GPU shader would evaluate per pixel.
//!
//! Both implement the [`DiscriminationModel`] trait consumed by the encoder,
//! so the substitution is transparent to every downstream crate.

use crate::dkl::{dkl_axis_rgb_gain, DklColor};
use crate::ellipsoid::{DiscriminationEllipsoid, EllipsoidAxes, EllipsoidLanes, RgbAxis};
use crate::math::{solve_dense, Vec3};
use crate::srgb::LinearRgb;
use serde::{Deserialize, Serialize};

/// Maximum eccentricity (degrees) at which the models are defined; inputs
/// beyond this are clamped. Half of a ~110° VR field of view.
pub const MAX_ECCENTRICITY_DEG: f64 = 55.0;

/// The smallest semi-axis [`SyntheticDiscriminationModel`] returns:
/// smaller values are raised to it.
const SEMI_AXIS_FLOOR: f64 = 1e-9;

/// The color discrimination function Φ: `(κ, e) → (a, b, c)` (Eq. 3).
///
/// Implementations must be deterministic and cheap; the encoder evaluates
/// Φ once per pixel, a tile at a time: through [`Self::ellipsoid_lanes`],
/// or, for a model that declares a [`Self::fixed_shape`], through its
/// per-pixel scales.
pub trait DiscriminationModel: Send + Sync {
    /// Returns the DKL semi-axes of the discrimination ellipsoid of `color`
    /// viewed at `eccentricity_deg` degrees from fixation.
    fn ellipsoid_axes(&self, color: LinearRgb, eccentricity_deg: f64) -> EllipsoidAxes;

    /// Convenience: the full discrimination ellipsoid (center + semi-axes).
    fn ellipsoid(&self, color: LinearRgb, eccentricity_deg: f64) -> DiscriminationEllipsoid {
        DiscriminationEllipsoid::new(
            DklColor::from_linear_rgb(color),
            self.ellipsoid_axes(color, eccentricity_deg),
        )
    }

    /// The ellipsoids of a whole tile viewed at one eccentricity, written
    /// into `out` (cleared first) as lanes: slot `i` holds the ellipsoid of
    /// the pixel `(r[i], g[i], b[i])`.
    ///
    /// The default calls [`Self::ellipsoid`] once per pixel. A model may
    /// override it to hoist per-tile work out of the pixel loop, but every
    /// lane must hold the bits the per-pixel call produces, and it must
    /// panic wherever the per-pixel call would.
    ///
    /// # Panics
    ///
    /// Panics if the three channel lanes have different lengths, or where
    /// [`Self::ellipsoid`] panics on one of the pixels.
    fn ellipsoid_lanes(
        &self,
        r: &[f64],
        g: &[f64],
        b: &[f64],
        eccentricity_deg: f64,
        out: &mut EllipsoidLanes,
    ) {
        assert_channel_lanes_match(r, g, b);
        out.clear();
        for ((&r, &g), &b) in r.iter().zip(g).zip(b) {
            out.push(self.ellipsoid(LinearRgb::new(r, g, b), eccentricity_deg));
        }
    }

    /// Declares that every ellipsoid of this model is one constant shape
    /// times a per-pixel scale, so its extrema along an RGB axis are
    /// `rgb ± s · e_axis` (see [`FixedShape`]).
    ///
    /// The default, `None`, keeps the general route: the encoder builds
    /// every pixel's ellipsoid through [`Self::ellipsoid_lanes`]. A model
    /// that returns a shape promises that, for every pixel whose scale the
    /// shape [holds at](FixedShape::holds_at), [`Self::ellipsoid`] is the
    /// unit shape times that scale, centered on the pixel, up to rounding.
    fn fixed_shape(&self) -> Option<FixedShape<'_>> {
        None
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "discrimination-model"
    }
}

/// The per-pixel half of a [`FixedShape`]: how large each pixel's
/// ellipsoid is.
pub trait ShapeScale: Sync {
    /// Writes the scale of every pixel `(r[i], g[i], b[i])` viewed at
    /// `eccentricity_deg` into `out`, cleared first.
    ///
    /// # Panics
    ///
    /// Panics if the three channel lanes have different lengths.
    fn scales_into(
        &self,
        r: &[f64],
        g: &[f64],
        b: &[f64],
        eccentricity_deg: f64,
        out: &mut Vec<f64>,
    );
}

/// What a fixed-shape model declares ([`DiscriminationModel::fixed_shape`]):
/// every ellipsoid is one unit shape, centered on its pixel and scaled by
/// the pixel's scale `s`.
///
/// Scaling an ellipsoid scales its extremum offsets, so the extrema of a
/// pixel `p` along an RGB axis are `p ± s · e_axis`. Here `e_axis` is the
/// high extremum of the unit shape centered at the DKL origin, computed
/// once with [`DiscriminationEllipsoid::extrema_along_axis`]; its
/// `axis` component is never negative.
#[derive(Clone, Copy)]
pub struct FixedShape<'a> {
    scale: &'a dyn ShapeScale,
    extremum_offsets: [Vec3; 3],
    min_scale: f64,
    max_scale: f64,
}

impl<'a> FixedShape<'a> {
    /// A shape whose unit ellipsoid has the semi-axes `unit_axes` and whose
    /// per-pixel scales come from `scale`. The model's ellipsoids are the
    /// unit shape times the scale only for scales in
    /// `min_scale..=max_scale`, for example above a floor on the semi-axes
    /// and below their overflow.
    pub fn new(
        scale: &'a dyn ShapeScale,
        unit_axes: EllipsoidAxes,
        min_scale: f64,
        max_scale: f64,
    ) -> Self {
        let unit = DiscriminationEllipsoid::new(DklColor::default(), unit_axes);
        FixedShape {
            scale,
            extremum_offsets: RgbAxis::ALL.map(|axis| unit.extrema_along_axis(axis).high.to_vec3()),
            min_scale,
            max_scale,
        }
    }

    /// The extremum offset `e_axis` of the unit shape along `axis`.
    #[inline]
    pub fn extremum_offset(&self, axis: RgbAxis) -> Vec3 {
        self.extremum_offsets[axis.index()]
    }

    /// True when a pixel of scale `scale` has exactly the declared shape
    /// (false for NaN).
    #[inline]
    pub fn holds_at(&self, scale: f64) -> bool {
        scale >= self.min_scale && scale <= self.max_scale
    }

    /// Writes every pixel's scale into `out`; see [`ShapeScale::scales_into`].
    pub fn scales_into(
        &self,
        r: &[f64],
        g: &[f64],
        b: &[f64],
        eccentricity_deg: f64,
        out: &mut Vec<f64>,
    ) {
        self.scale.scales_into(r, g, b, eccentricity_deg, out);
    }
}

/// The shared length check of every [`DiscriminationModel::ellipsoid_lanes`].
fn assert_channel_lanes_match(r: &[f64], g: &[f64], b: &[f64]) {
    assert!(
        r.len() == g.len() && r.len() == b.len(),
        "channel lanes must have equal lengths: ({}, {}, {})",
        r.len(),
        g.len(),
        b.len()
    );
}

// The blanket impls forward `ellipsoid_lanes` and `fixed_shape` too, so a
// wrapped model keeps its lane build and its shape instead of falling back
// to the defaults.
impl<T: DiscriminationModel + ?Sized> DiscriminationModel for &T {
    fn ellipsoid_axes(&self, color: LinearRgb, eccentricity_deg: f64) -> EllipsoidAxes {
        (**self).ellipsoid_axes(color, eccentricity_deg)
    }
    fn ellipsoid_lanes(
        &self,
        r: &[f64],
        g: &[f64],
        b: &[f64],
        eccentricity_deg: f64,
        out: &mut EllipsoidLanes,
    ) {
        (**self).ellipsoid_lanes(r, g, b, eccentricity_deg, out)
    }
    fn fixed_shape(&self) -> Option<FixedShape<'_>> {
        (**self).fixed_shape()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: DiscriminationModel + ?Sized> DiscriminationModel for std::sync::Arc<T> {
    fn ellipsoid_axes(&self, color: LinearRgb, eccentricity_deg: f64) -> EllipsoidAxes {
        (**self).ellipsoid_axes(color, eccentricity_deg)
    }
    fn ellipsoid_lanes(
        &self,
        r: &[f64],
        g: &[f64],
        b: &[f64],
        eccentricity_deg: f64,
        out: &mut EllipsoidLanes,
    ) {
        (**self).ellipsoid_lanes(r, g, b, eccentricity_deg, out)
    }
    fn fixed_shape(&self) -> Option<FixedShape<'_>> {
        (**self).fixed_shape()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Parameters of the [`SyntheticDiscriminationModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticModelParams {
    /// Per-channel discrimination half-extent (in linear RGB units) at 0°
    /// eccentricity for a mid-gray reference color.
    pub foveal_extent: f64,
    /// Additional half-extent per degree of eccentricity.
    pub extent_per_degree: f64,
    /// Eccentricity (degrees) beyond which thresholds stop growing.
    pub saturation_eccentricity: f64,
    /// Multiplier applied at zero luminance (dark colors have somewhat larger
    /// thresholds); interpolates linearly down to 1.0 at luminance 1.
    pub dark_boost: f64,
    /// Relative weight of the first DKL axis (≈ luminance).
    pub weight_k1: f64,
    /// Relative weight of the second DKL axis (≈ L−M, red–green).
    pub weight_k2: f64,
    /// Relative weight of the third DKL axis (≈ S, blue–yellow).
    pub weight_k3: f64,
}

impl Default for SyntheticModelParams {
    fn default() -> Self {
        // Calibrated so that a mid-gray color has roughly ±1 sRGB code value
        // of wiggle room in the fovea and ±6–10 code values at 25–35°,
        // mirroring the qualitative growth of Fig. 2.
        SyntheticModelParams {
            foveal_extent: 0.0035,
            extent_per_degree: 0.00065,
            saturation_eccentricity: 40.0,
            dark_boost: 1.6,
            weight_k1: 0.55,
            weight_k2: 1.0,
            weight_k3: 1.45,
        }
    }
}

impl SyntheticModelParams {
    /// Returns a copy with every extent multiplied by `factor`; used by the
    /// sensitivity studies and the per-observer calibration discussion of
    /// Sec. 6.5.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.foveal_extent *= factor;
        self.extent_per_degree *= factor;
        self
    }
}

/// Analytic stand-in for the psychophysically measured discrimination model.
///
/// See the module documentation and DESIGN.md (substitution S1) for how it
/// relates to the paper's RBF model.
///
/// # Examples
///
/// ```
/// use pvc_color::{DiscriminationModel, LinearRgb, SyntheticDiscriminationModel};
/// let model = SyntheticDiscriminationModel::default();
/// let foveal = model.ellipsoid_axes(LinearRgb::gray(0.5), 0.0);
/// let peripheral = model.ellipsoid_axes(LinearRgb::gray(0.5), 25.0);
/// assert!(peripheral.a > foveal.a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SyntheticDiscriminationModel {
    params: SyntheticModelParams,
}

impl SyntheticDiscriminationModel {
    /// Creates a model from explicit parameters.
    pub fn new(params: SyntheticModelParams) -> Self {
        SyntheticDiscriminationModel { params }
    }

    /// Creates a model with all extents multiplied by `factor` relative to
    /// the default calibration.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    pub fn with_scale(factor: f64) -> Self {
        SyntheticDiscriminationModel {
            params: SyntheticModelParams::default().scaled(factor),
        }
    }

    /// The model parameters.
    pub fn params(&self) -> SyntheticModelParams {
        self.params
    }

    /// The eccentricity-dependent part of the threshold scale: the same
    /// for every pixel of a tile.
    #[inline]
    fn base_extent(&self, eccentricity_deg: f64) -> f64 {
        let p = &self.params;
        let e = eccentricity_deg
            .clamp(0.0, MAX_ECCENTRICITY_DEG)
            .min(p.saturation_eccentricity);
        p.foveal_extent + p.extent_per_degree * e
    }

    /// Scalar threshold scale (linear RGB units) of a color of the given
    /// luminance, from [`Self::base_extent`], before the per-DKL-axis
    /// weighting.
    #[inline]
    fn extent_scale(&self, base: f64, luminance: f64) -> f64 {
        let p = &self.params;
        let lum = luminance.clamp(0.0, 1.0);
        let boost = p.dark_boost + (1.0 - p.dark_boost) * lum;
        base * boost
    }

    /// The three semi-axes of a threshold scale, unchecked.
    ///
    /// Each DKL axis is normalized by `gains` ([`dkl_axis_rgb_gain`]): how
    /// strongly a unit step along it moves the color in linear RGB, so the
    /// weights are expressed in perceptually meaningful (RGB-sized) units
    /// regardless of the DKL matrix conditioning.
    #[inline]
    fn semi_axes(&self, scale: f64, gains: Vec3) -> [f64; 3] {
        let p = &self.params;
        [
            (scale * p.weight_k1 / gains.x).max(SEMI_AXIS_FLOOR),
            (scale * p.weight_k2 / gains.y).max(SEMI_AXIS_FLOOR),
            (scale * p.weight_k3 / gains.z).max(SEMI_AXIS_FLOOR),
        ]
    }
}

impl DiscriminationModel for SyntheticDiscriminationModel {
    fn ellipsoid_axes(&self, color: LinearRgb, eccentricity_deg: f64) -> EllipsoidAxes {
        let base = self.base_extent(eccentricity_deg);
        let scale = self.extent_scale(base, color.luminance());
        let [a, b, c] = self.semi_axes(scale, dkl_axis_rgb_gain());
        EllipsoidAxes::new(a, b, c)
    }

    /// Every ellipsoid is the unit shape `semi_axes(1)` times the pixel's
    /// `extent_scale`, as long as no semi-axis hits the floor or overflows.
    /// `None` when a weight is not positive and finite: the floor then
    /// binds at every scale.
    fn fixed_shape(&self) -> Option<FixedShape<'_>> {
        let p = &self.params;
        let gains = dkl_axis_rgb_gain();
        let weights = [p.weight_k1, p.weight_k2, p.weight_k3];
        let unit = [
            p.weight_k1 / gains.x,
            p.weight_k2 / gains.y,
            p.weight_k3 / gains.z,
        ];
        if !unit
            .iter()
            .chain(&weights)
            .all(|&x| x > 0.0 && x.is_finite())
        {
            return None;
        }
        let smallest = unit.iter().copied().fold(f64::INFINITY, f64::min);
        let largest = unit.iter().chain(&weights).copied().fold(1.0, f64::max);
        // A factor of two on either side keeps the rounding of
        // `scale · w / g` clear of the floor and of overflow.
        Some(FixedShape::new(
            self,
            EllipsoidAxes::new(unit[0], unit[1], unit[2]),
            2.0 * SEMI_AXIS_FLOOR / smallest,
            f64::MAX / (2.0 * largest),
        ))
    }

    fn name(&self) -> &str {
        "synthetic"
    }
}

impl ShapeScale for SyntheticDiscriminationModel {
    /// The eccentricity's base extent, computed once, times each pixel's
    /// luminance boost: the `scale` [`DiscriminationModel::ellipsoid_axes`]
    /// passes to the semi-axes.
    fn scales_into(
        &self,
        r: &[f64],
        g: &[f64],
        b: &[f64],
        eccentricity_deg: f64,
        out: &mut Vec<f64>,
    ) {
        assert_channel_lanes_match(r, g, b);
        let base = self.base_extent(eccentricity_deg);
        out.clear();
        out.extend(
            r.iter()
                .zip(g)
                .zip(b)
                .map(|((&r, &g), &b)| self.extent_scale(base, LinearRgb::new(r, g, b).luminance())),
        );
    }
}

/// Configuration of the RBF network used by [`RbfDiscriminationModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RbfConfig {
    /// Number of kernel centers along each RGB channel.
    pub color_grid: usize,
    /// Number of kernel centers along the eccentricity axis.
    pub eccentricity_grid: usize,
    /// Gaussian kernel width (in normalized input units).
    pub kernel_width: f64,
    /// Ridge-regression regularization strength.
    pub ridge_lambda: f64,
    /// Number of training samples per input dimension when fitting against a
    /// reference model.
    pub training_grid: usize,
}

impl Default for RbfConfig {
    fn default() -> Self {
        RbfConfig {
            color_grid: 3,
            eccentricity_grid: 4,
            kernel_width: 0.55,
            ridge_lambda: 1e-6,
            training_grid: 5,
        }
    }
}

/// The paper's RBF-network form of Φ.
///
/// Inputs are the linear RGB channels and the normalized eccentricity;
/// outputs are the logarithms of the three DKL semi-axes (fitting in log
/// space keeps the predictions positive). The network is fitted to a
/// reference [`DiscriminationModel`] by ridge regression.
///
/// # Examples
///
/// ```
/// use pvc_color::{DiscriminationModel, LinearRgb};
/// use pvc_color::{RbfDiscriminationModel, SyntheticDiscriminationModel};
/// let reference = SyntheticDiscriminationModel::default();
/// let rbf = RbfDiscriminationModel::fit_to(&reference, Default::default())?;
/// let axes = rbf.ellipsoid_axes(LinearRgb::new(0.4, 0.5, 0.6), 20.0);
/// assert!(axes.a > 0.0);
/// # Ok::<(), pvc_color::RbfFitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbfDiscriminationModel {
    centers: Vec<[f64; 4]>,
    /// One weight row per kernel (plus bias as the last entry), per output.
    weights: [Vec<f64>; 3],
    kernel_width: f64,
}

/// Error returned when fitting an [`RbfDiscriminationModel`] fails.
#[derive(Debug, Clone, PartialEq)]
pub enum RbfFitError {
    /// The regularized normal equations were singular.
    SingularSystem {
        /// Output dimension (0, 1 or 2) whose fit failed.
        output: usize,
    },
    /// The configuration requested no kernels or no training samples.
    EmptyConfiguration,
}

impl std::fmt::Display for RbfFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RbfFitError::SingularSystem { output } => {
                write!(
                    f,
                    "rbf fit failed: singular normal equations for output {output}"
                )
            }
            RbfFitError::EmptyConfiguration => {
                write!(
                    f,
                    "rbf fit failed: configuration has no kernels or no training samples"
                )
            }
        }
    }
}

impl std::error::Error for RbfFitError {}

impl RbfDiscriminationModel {
    /// Fits the RBF network to `reference` over a grid of colors and
    /// eccentricities.
    ///
    /// # Errors
    ///
    /// Returns [`RbfFitError::EmptyConfiguration`] when `config` specifies an
    /// empty kernel or training grid, and [`RbfFitError::SingularSystem`]
    /// when the (regularized) normal equations cannot be solved.
    pub fn fit_to<M: DiscriminationModel + ?Sized>(
        reference: &M,
        config: RbfConfig,
    ) -> Result<Self, RbfFitError> {
        if config.color_grid == 0 || config.eccentricity_grid == 0 || config.training_grid == 0 {
            return Err(RbfFitError::EmptyConfiguration);
        }
        let centers = Self::make_centers(&config);
        let samples = Self::make_training_inputs(config.training_grid);
        let n_kernels = centers.len();
        let n_features = n_kernels + 1; // + bias
        let n_samples = samples.len();

        // Design matrix (row per sample).
        let mut design = vec![0.0; n_samples * n_features];
        let mut targets = [
            vec![0.0; n_samples],
            vec![0.0; n_samples],
            vec![0.0; n_samples],
        ];
        for (si, input) in samples.iter().enumerate() {
            for (ki, center) in centers.iter().enumerate() {
                design[si * n_features + ki] = gaussian_kernel(input, center, config.kernel_width);
            }
            design[si * n_features + n_kernels] = 1.0;
            let color = LinearRgb::new(input[0], input[1], input[2]);
            let ecc = input[3] * MAX_ECCENTRICITY_DEG;
            let axes = reference.ellipsoid_axes(color, ecc);
            targets[0][si] = axes.a.ln();
            targets[1][si] = axes.b.ln();
            targets[2][si] = axes.c.ln();
        }

        // Normal equations: (ΦᵀΦ + λI) w = Φᵀ y, shared Gram matrix.
        let mut gram = vec![0.0; n_features * n_features];
        for s in 0..n_samples {
            for i in 0..n_features {
                let di = design[s * n_features + i];
                if di == 0.0 {
                    continue;
                }
                for j in 0..n_features {
                    gram[i * n_features + j] += di * design[s * n_features + j];
                }
            }
        }
        for i in 0..n_features {
            gram[i * n_features + i] += config.ridge_lambda;
        }

        let mut weights: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (out, target) in targets.iter().enumerate() {
            let mut rhs = vec![0.0; n_features];
            for s in 0..n_samples {
                for i in 0..n_features {
                    rhs[i] += design[s * n_features + i] * target[s];
                }
            }
            let mut gram_copy = gram.clone();
            let solved = solve_dense(&mut gram_copy, &mut rhs, n_features)
                .map_err(|_| RbfFitError::SingularSystem { output: out })?;
            weights[out] = solved;
        }

        Ok(RbfDiscriminationModel {
            centers,
            weights,
            kernel_width: config.kernel_width,
        })
    }

    /// Number of kernels in the network (excluding the bias).
    pub fn kernel_count(&self) -> usize {
        self.centers.len()
    }

    fn make_centers(config: &RbfConfig) -> Vec<[f64; 4]> {
        let mut centers = Vec::new();
        let color_pos = grid_positions(config.color_grid, 0.1, 0.9);
        let ecc_pos = grid_positions(config.eccentricity_grid, 0.0, 1.0);
        for &r in &color_pos {
            for &g in &color_pos {
                for &b in &color_pos {
                    for &e in &ecc_pos {
                        centers.push([r, g, b, e]);
                    }
                }
            }
        }
        centers
    }

    fn make_training_inputs(grid: usize) -> Vec<[f64; 4]> {
        let color_pos = grid_positions(grid, 0.05, 0.95);
        let ecc_pos = grid_positions(grid, 0.0, 1.0);
        let mut samples = Vec::new();
        for &r in &color_pos {
            for &g in &color_pos {
                for &b in &color_pos {
                    for &e in &ecc_pos {
                        samples.push([r, g, b, e]);
                    }
                }
            }
        }
        samples
    }

    fn predict_log_axes(&self, input: &[f64; 4]) -> [f64; 3] {
        let n_kernels = self.centers.len();
        let mut out = [0.0; 3];
        for (ki, center) in self.centers.iter().enumerate() {
            let phi = gaussian_kernel(input, center, self.kernel_width);
            if phi == 0.0 {
                continue;
            }
            for (o, val) in out.iter_mut().enumerate() {
                *val += self.weights[o][ki] * phi;
            }
        }
        for (o, val) in out.iter_mut().enumerate() {
            *val += self.weights[o][n_kernels];
        }
        out
    }
}

impl DiscriminationModel for RbfDiscriminationModel {
    fn ellipsoid_axes(&self, color: LinearRgb, eccentricity_deg: f64) -> EllipsoidAxes {
        let c = color.clamped();
        let e = eccentricity_deg.clamp(0.0, MAX_ECCENTRICITY_DEG) / MAX_ECCENTRICITY_DEG;
        let log_axes = self.predict_log_axes(&[c.r, c.g, c.b, e]);
        EllipsoidAxes::new(
            log_axes[0].exp().max(1e-9),
            log_axes[1].exp().max(1e-9),
            log_axes[2].exp().max(1e-9),
        )
    }

    fn name(&self) -> &str {
        "rbf"
    }
}

fn grid_positions(count: usize, lo: f64, hi: f64) -> Vec<f64> {
    if count == 1 {
        return vec![(lo + hi) * 0.5];
    }
    (0..count)
        .map(|i| lo + (hi - lo) * (i as f64) / ((count - 1) as f64))
        .collect()
}

fn gaussian_kernel(x: &[f64; 4], center: &[f64; 4], width: f64) -> f64 {
    let mut d2 = 0.0;
    for i in 0..4 {
        let d = x[i] - center[i];
        d2 += d * d;
    }
    (-d2 / (2.0 * width * width)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ellipsoid::RgbAxis;

    #[test]
    fn synthetic_axes_grow_with_eccentricity() {
        let model = SyntheticDiscriminationModel::default();
        let color = LinearRgb::new(0.5, 0.5, 0.5);
        let mut prev = 0.0;
        for e in [0.0, 5.0, 10.0, 20.0, 30.0, 40.0] {
            let axes = model.ellipsoid_axes(color, e);
            let size = axes.mean_radius();
            assert!(size >= prev, "size must not shrink with eccentricity");
            prev = size;
        }
    }

    #[test]
    fn synthetic_axes_saturate_beyond_limit() {
        let model = SyntheticDiscriminationModel::default();
        let color = LinearRgb::new(0.5, 0.5, 0.5);
        let a = model.ellipsoid_axes(color, 45.0);
        let b = model.ellipsoid_axes(color, 200.0);
        assert_eq!(a, b);
    }

    #[test]
    fn figure_2_like_growth_between_5_and_25_degrees() {
        // The 25° ellipsoids of Fig. 2 are visibly larger than the 5° ones.
        let model = SyntheticDiscriminationModel::default();
        let color = LinearRgb::new(0.4, 0.6, 0.3);
        let five = model.ellipsoid(color, 5.0);
        let twenty_five = model.ellipsoid(color, 25.0);
        for axis in RgbAxis::ALL {
            let ratio =
                twenty_five.half_extent_along_axis(axis) / five.half_extent_along_axis(axis);
            assert!(ratio > 1.5, "extent along {axis} grew only {ratio}x");
        }
    }

    #[test]
    fn dark_colors_have_larger_thresholds() {
        let model = SyntheticDiscriminationModel::default();
        let dark = model.ellipsoid_axes(LinearRgb::gray(0.05), 20.0);
        let bright = model.ellipsoid_axes(LinearRgb::gray(0.9), 20.0);
        assert!(dark.mean_radius() > bright.mean_radius());
    }

    #[test]
    fn ellipsoids_are_elongated_along_blue_and_tightest_along_green() {
        // Sec. 3.2: "most discrimination ellipsoids are elongated along
        // either the Red or the Blue axis … human visual perception is most
        // sensitive to green". With the published DKL matrix and the default
        // calibration the Blue extent dominates and Green is the smallest.
        let model = SyntheticDiscriminationModel::default();
        for &(r, g, b) in &[
            (0.5, 0.5, 0.5),
            (0.2, 0.7, 0.3),
            (0.8, 0.3, 0.6),
            (0.1, 0.1, 0.1),
        ] {
            let e = model.ellipsoid(LinearRgb::new(r, g, b), 20.0);
            let green = e.half_extent_along_axis(RgbAxis::Green);
            let red = e.half_extent_along_axis(RgbAxis::Red);
            let blue = e.half_extent_along_axis(RgbAxis::Blue);
            assert!(
                blue > red && blue > green,
                "blue must dominate: r={red} g={green} b={blue}"
            );
            assert!(
                green <= red * 1.05,
                "green must be (about) the tightest: r={red} g={green}"
            );
        }
    }

    #[test]
    fn foveal_extent_is_subtle_peripheral_is_substantial() {
        let model = SyntheticDiscriminationModel::default();
        let e0 = model.ellipsoid(LinearRgb::gray(0.5), 0.0);
        let e30 = model.ellipsoid(LinearRgb::gray(0.5), 30.0);
        // Roughly ±0.3–3 sRGB code values in the fovea...
        let foveal = e0.half_extent_along_axis(RgbAxis::Blue) * 255.0;
        assert!(
            foveal > 0.3 && foveal < 5.0,
            "foveal extent {foveal} code values"
        );
        // ... and clearly more (but bounded) in the periphery.
        let periph = e30.half_extent_along_axis(RgbAxis::Blue) * 255.0;
        assert!(
            periph > 3.0 && periph < 40.0,
            "peripheral extent {periph} code values"
        );
    }

    #[test]
    fn scaled_params_scale_extents() {
        let base = SyntheticDiscriminationModel::default();
        let double = SyntheticDiscriminationModel::with_scale(2.0);
        let a = base.ellipsoid_axes(LinearRgb::gray(0.5), 15.0);
        let b = double.ellipsoid_axes(LinearRgb::gray(0.5), 15.0);
        assert!((b.a / a.a - 2.0).abs() < 1e-9);
        assert!((b.c / a.c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rbf_fit_approximates_reference() {
        let reference = SyntheticDiscriminationModel::default();
        let rbf = RbfDiscriminationModel::fit_to(&reference, RbfConfig::default())
            .expect("fit should succeed");
        assert!(rbf.kernel_count() > 0);
        // Check relative error on a probe grid that differs from the
        // training grid.
        let mut worst: f64 = 0.0;
        for &e in &[2.5, 12.0, 22.0, 33.0] {
            for &v in &[0.15, 0.45, 0.7] {
                let color = LinearRgb::new(v, 1.0 - v, v * 0.5 + 0.2);
                let want = reference.ellipsoid_axes(color, e);
                let got = rbf.ellipsoid_axes(color, e);
                for (w, g) in [(want.a, got.a), (want.b, got.b), (want.c, got.c)] {
                    worst = worst.max((w - g).abs() / w);
                }
            }
        }
        assert!(worst < 0.25, "rbf relative error too large: {worst}");
    }

    #[test]
    fn rbf_rejects_empty_configuration() {
        let reference = SyntheticDiscriminationModel::default();
        let bad = RbfConfig {
            color_grid: 0,
            ..RbfConfig::default()
        };
        let err = RbfDiscriminationModel::fit_to(&reference, bad).unwrap_err();
        assert_eq!(err, RbfFitError::EmptyConfiguration);
        assert!(err.to_string().contains("configuration"));
    }

    #[test]
    fn rbf_axes_grow_with_eccentricity() {
        let reference = SyntheticDiscriminationModel::default();
        let rbf = RbfDiscriminationModel::fit_to(&reference, RbfConfig::default()).unwrap();
        let near = rbf.ellipsoid_axes(LinearRgb::gray(0.5), 5.0);
        let far = rbf.ellipsoid_axes(LinearRgb::gray(0.5), 30.0);
        assert!(far.mean_radius() > near.mean_radius());
    }

    #[test]
    fn model_trait_objects_work_through_references() {
        let model = SyntheticDiscriminationModel::default();
        let dyn_model: &dyn DiscriminationModel = &model;
        let axes = dyn_model.ellipsoid_axes(LinearRgb::gray(0.5), 10.0);
        assert!(axes.a > 0.0);
        assert_eq!(dyn_model.name(), "synthetic");
        let arc: std::sync::Arc<dyn DiscriminationModel> = std::sync::Arc::new(model);
        assert_eq!(arc.name(), "synthetic");
    }
}
