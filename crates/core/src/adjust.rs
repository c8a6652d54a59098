//! The per-tile perceptual color adjustment algorithm (Sec. 3.3–3.4).
//!
//! For every pixel of a tile the algorithm knows the discrimination
//! ellipsoid the adjusted color must stay inside. Along the chosen RGB axis
//! each ellipsoid has a highest point `H` and a lowest point `L` (its
//! *extrema*); across the tile the algorithm computes
//!
//! * `HL` — the **H**ighest of all the **L**owest points, and
//! * `LH` — the **L**owest of all the **H**ighest points.
//!
//! If `LH ≥ HL` (case 2, Fig. 6b) a plane exists that crosses every
//! ellipsoid; all colors are moved onto the average of the two planes and
//! the Δ along the axis collapses to zero. Otherwise (case 1, Fig. 6a)
//! colors above `HL` are pulled down to it and colors below `LH` are pulled
//! up to it, leaving a residual range of `HL − LH`, which is the smallest
//! range achievable without leaving the ellipsoids. Movement is always along
//! each pixel's own extrema vector, so the adjusted color stays inside its
//! ellipsoid by construction; an additional gamut clamp shortens the move if
//! it would leave `[0, 1]`.
//!
//! The frame path has two routes to the extrema. The general route builds
//! each pixel's ellipsoid and its extrema in DKL space. For a model that
//! declares a [`FixedShape`], every extremum is `p ± s · e_axis` with one
//! constant `e_axis` per axis and a per-pixel scale `s`, and the closed
//! form (`ClosedForm`) reads that directly: a few multiply-adds per pixel.
//! A tile whose pixels or scales the shape does not cover falls back to the
//! general route.

use pvc_bdc::tile_codec::bits_for_range;
use pvc_color::lanes::{max_f64, min_f64};
use pvc_color::{
    dkl_to_rgb_matrix, linear_to_srgb8, AxisExtrema, DiscriminationEllipsoid, DiscriminationModel,
    EllipsoidLanes, FixedShape, LinearRgb, Mat3, RgbAxis, Vec3, LANE_WIDTH,
};
use pvc_frame::{LinearFrame, LinearTileLanes, TileRect};
use serde::{Deserialize, Serialize};

/// Which of the two geometric cases of Fig. 6 a tile fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdjustmentCase {
    /// Case 1 (`HL > LH`): no plane crosses every ellipsoid; a residual Δ of
    /// `HL − LH` remains along the optimized axis.
    NoCommonPlane,
    /// Case 2 (`HL ≤ LH`): a common plane exists and the Δ along the
    /// optimized axis collapses to zero.
    CommonPlane,
}

impl AdjustmentCase {
    /// Short label used in reports ("c1" / "c2" as in Fig. 12).
    pub fn label(self) -> &'static str {
        match self {
            AdjustmentCase::NoCommonPlane => "c1",
            AdjustmentCase::CommonPlane => "c2",
        }
    }
}

/// The result of adjusting one tile along one axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisAdjustment {
    /// The axis the adjustment optimized.
    pub axis: RgbAxis,
    /// Which geometric case the tile fell into.
    pub case: AdjustmentCase,
    /// The adjusted pixel colors (same order as the input).
    pub adjusted: Vec<LinearRgb>,
    /// The HL plane value (highest of the lowest extrema) along the axis.
    pub hl: f64,
    /// The LH plane value (lowest of the highest extrema) along the axis.
    pub lh: f64,
}

impl AxisAdjustment {
    /// Total Δ bit cost of the adjusted tile after sRGB quantization,
    /// summed over all three channels (the quantity Eq. 7a minimizes, minus
    /// the constant base cost).
    pub fn delta_bit_cost(&self) -> u64 {
        delta_bit_cost(&self.adjusted)
    }
}

/// Σ over channels of the per-Δ bit length × pixel count for a tile of
/// linear-RGB pixels, measured after sRGB quantization.
///
/// Scalar reference walk over AoS pixels; the hot path
/// ([`adjust_tile_with`]) computes the same quantity over SoA lanes with
/// [`delta_bit_cost_lanes`], and the equivalence tests compare the two.
fn delta_bit_cost(pixels: &[LinearRgb]) -> u64 {
    let mut total = 0u64;
    for channel in 0..3 {
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        for p in pixels {
            let v = p.to_srgb8().channel(channel);
            min = min.min(v);
            max = max.max(v);
        }
        total += u64::from(bits_for_range(max - min)) * pixels.len() as u64;
    }
    total
}

/// Moves `color` along its extrema vector until its `axis` channel reaches
/// `target`, shortening the move if it would leave the `[0, 1]` gamut.
///
/// `color` must be the center of the ellipsoid that produced `extrema`; the
/// extrema vector passes through the center, so any point reached this way
/// stays inside the ellipsoid.
fn move_along_extrema(
    color: LinearRgb,
    extrema: &AxisExtrema,
    axis: RgbAxis,
    target: f64,
) -> LinearRgb {
    let direction = extrema.extrema_vector();
    let axis_span = direction.component(axis.index());
    if axis_span.abs() <= f64::EPSILON {
        return color;
    }
    let current = color.channel(axis.index());
    // Fraction of the full extrema vector needed to reach the target.
    let mut t = (target - current) / axis_span;
    // The chord through the center spans t ∈ [-0.5, 0.5]; numerical safety.
    t = t.clamp(-0.5, 0.5);
    // Shorten the move so every channel stays inside [0, 1].
    t = clamp_step_to_gamut(color.to_vec3(), direction, t);
    LinearRgb::from_vec3(color.to_vec3() + direction * t)
}

/// Largest-magnitude step `t'` with `|t'| ≤ |t|` and the same sign such that
/// `origin + direction · t'` stays inside the unit cube.
fn clamp_step_to_gamut(origin: Vec3, direction: Vec3, t: f64) -> f64 {
    if t == 0.0 {
        return 0.0;
    }
    let mut limit = t.abs();
    let sign = t.signum();
    for i in 0..3 {
        let d = direction.component(i) * sign;
        if d.abs() <= f64::EPSILON {
            continue;
        }
        let o = origin.component(i);
        // Allowed movement along +d before hitting 0 or 1.
        let room = if d > 0.0 {
            (1.0 - o) / d
        } else {
            (0.0 - o) / d
        };
        if room < limit {
            limit = room.max(0.0);
        }
    }
    limit * sign
}

/// Per-tile SoA working buffers for the vectorized adjustment path.
///
/// Each `Vec` is one contiguous lane the 8-wide kernels stream over: the
/// tile's pixels, then either its per-pixel scales (closed form) or its
/// ellipsoids and one axis attempt's extrema (general route), and the
/// candidate and best-so-far output pixel lanes. All buffers are refilled
/// in place, never shrunk, so the steady state performs no allocation.
#[derive(Debug, Clone, Default)]
struct AdjustLanes {
    pixels: LinearTileLanes,
    scales: Vec<f64>,
    ellipsoids: EllipsoidLanes,
    extrema: ExtremaLanes,
    out: LinearTileLanes,
    best: LinearTileLanes,
}

impl AdjustLanes {
    /// The pixels a finished search keeps: the best attempt's, or the
    /// original pixels when no attempt beat them (the no-regress guard of
    /// [`search_axes`], which leaves `adjusted_cost == original_cost`).
    fn winner(&self, outcome: &TileAdjustOutcome) -> &LinearTileLanes {
        if outcome.adjusted_cost < outcome.original_cost {
            &self.best
        } else {
            &self.pixels
        }
    }
}

/// One axis attempt's extrema over the tile: the per-pixel extrema vector
/// `high − low` (`dir_*`) and the axis-channel values of the low and high
/// points, which the HL/LH reduction consumes.
#[derive(Debug, Clone, Default)]
struct ExtremaLanes {
    dir_x: Vec<f64>,
    dir_y: Vec<f64>,
    dir_z: Vec<f64>,
    low: Vec<f64>,
    high: Vec<f64>,
}

/// The Compute Extrema phase over lanes: for every pixel, the values
/// [`DiscriminationEllipsoid::extrema_along_axis`] would produce, reduced
/// to what the later phases read.
///
/// The loop body is the scalar method's expression sequence, in the same
/// operation order: `(w·s)·s` for `D⁻¹w`, the left-to-right dot product,
/// `.max(0.0).sqrt()`, the scale by `1.0 / denom`, and the row-wise
/// `Mat3 * Vec3` products. Its two branches become selects on the same
/// predicates: `denom <= EPSILON` picks the zero offset (so a NaN `denom`
/// takes the divide, as in the scalar code), and `high ≥ low` on the axis
/// channel keeps the order, else swaps it. So every lane holds the scalar
/// path's bits.
fn extrema_lanes(
    ellipsoids: &EllipsoidLanes,
    dkl_to_rgb: Mat3,
    axis: RgbAxis,
    out: &mut ExtremaLanes,
) {
    // One monomorphized loop per axis, so the axis channel is a constant.
    match axis.index() {
        0 => extrema_lanes_along::<0>(ellipsoids, dkl_to_rgb, out),
        1 => extrema_lanes_along::<1>(ellipsoids, dkl_to_rgb, out),
        _ => extrema_lanes_along::<2>(ellipsoids, dkl_to_rgb, out),
    }
}

fn extrema_lanes_along<const AXIS: usize>(
    ellipsoids: &EllipsoidLanes,
    dkl_to_rgb: Mat3,
    out: &mut ExtremaLanes,
) {
    let n = ellipsoids.k1.len();
    let ExtremaLanes {
        dir_x,
        dir_y,
        dir_z,
        low,
        high,
    } = out;
    // Every slot is overwritten below, so stale values may stay; a
    // same-sized tile skips the zero fill.
    for lane in [&mut *dir_x, &mut *dir_y, &mut *dir_z, &mut *low, &mut *high] {
        lane.resize(n, 0.0);
    }
    let EllipsoidLanes {
        k1,
        k2,
        k3,
        a,
        b,
        c,
    } = ellipsoids;
    let (k1, k2, k3) = (&k1[..n], &k2[..n], &k3[..n]);
    let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
    let (dx, dy, dz) = (&mut dir_x[..n], &mut dir_y[..n], &mut dir_z[..n]);
    let (lo, hi) = (&mut low[..n], &mut high[..n]);
    let w = dkl_to_rgb.row(AXIS);
    for i in 0..n {
        // D⁻¹ w  (D is diagonal).
        let dinv_w = Vec3::new(w.x * a[i] * a[i], w.y * b[i] * b[i], w.z * c[i] * c[i]);
        let denom = w.dot(dinv_w).max(0.0).sqrt();
        let scaled = dinv_w * (1.0 / denom);
        let offset = if denom <= f64::EPSILON {
            Vec3::ZERO
        } else {
            scaled
        };
        let center = Vec3::new(k1[i], k2[i], k3[i]);
        let up = dkl_to_rgb * (center + offset);
        let down = dkl_to_rgb * (center - offset);
        let keep = up.component(AXIS) >= down.component(AXIS);
        let (h, l) = if keep { (up, down) } else { (down, up) };
        let d = h - l;
        dx[i] = d.x;
        dy[i] = d.y;
        dz[i] = d.z;
        lo[i] = l.component(AXIS);
        hi[i] = h.component(AXIS);
    }
}

/// [`delta_bit_cost`] computed over SoA lanes with two quantizations per
/// channel instead of one per pixel.
///
/// `linear_to_srgb8` is monotone non-decreasing, so a channel's smallest
/// and largest code are the codes of its smallest and largest value. The
/// reduction ([`quantizer_min_max`]) reads every value through a select
/// that maps exactly the inputs the quantizer sends to code 0 by its
/// `!(x > 0.0)` test — NaN, ±0.0 and negatives — to `0.0`, so no NaN
/// reaches the min/max and the reduced extremes quantize to the scalar
/// walk's codes bit for bit.
fn delta_bit_cost_lanes(lanes: &LinearTileLanes) -> u64 {
    let n = lanes.len();
    let mut total = 0u64;
    for channel in 0..3 {
        let (min, max) = quantizer_min_max(lanes.channel(channel));
        let range = linear_to_srgb8(max) - linear_to_srgb8(min);
        total += u64::from(bits_for_range(range)) * n as u64;
    }
    total
}

/// `(min, max)` of a channel lane as the sRGB quantizer sees it: every
/// value is read through `if x > 0.0 { x } else { 0.0 }` first.
///
/// The sanitized values are never NaN or −0.0, so the plain select-form
/// min/max, which needs no NaN handling, returns exactly the smallest and
/// largest value.
fn quantizer_min_max(values: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in values {
        let x = if x > 0.0 { x } else { 0.0 };
        min = if x < min { x } else { min };
        max = if x > max { x } else { max };
    }
    (min, max)
}

/// The vectorized Phase 3 color shift: moves every pixel lane-wise toward
/// its target plane with a branch-free compute-then-select form of
/// [`move_along_extrema`].
///
/// Every arithmetic operation matches the scalar path in value and order
/// (clamp to the chord, then the three-channel gamut walk in RGB order with
/// the limit chained through), so moved lanes produce bit-identical colors;
/// unmoved lanes (an in-range case-1 pixel, or a degenerate axis span) pass
/// the original pixel bits through the final select, which also discards
/// whatever the speculative arithmetic produced for them (including the
/// infinities and NaNs a near-zero span divides into).
fn lane_axis_adjust(
    pixels: &LinearTileLanes,
    dirs: (&[f64], &[f64], &[f64]),
    axis: RgbAxis,
    hl: f64,
    lh: f64,
    out: &mut LinearTileLanes,
) -> AdjustmentCase {
    let n = pixels.len();
    // Every slot is overwritten below; no zero fill needed.
    out.r.resize(n, 0.0);
    out.g.resize(n, 0.0);
    out.b.resize(n, 0.0);
    let (px, py, pz) = (&pixels.r[..n], &pixels.g[..n], &pixels.b[..n]);
    let (dx, dy, dz) = (&dirs.0[..n], &dirs.1[..n], &dirs.2[..n]);
    let cur: &[f64] = match axis.index() {
        0 => px,
        1 => py,
        _ => pz,
    };
    let span: &[f64] = match axis.index() {
        0 => dx,
        1 => dy,
        _ => dz,
    };
    let common_plane = hl <= lh;
    let plane = 0.5 * (hl + lh);
    let (or_, og, ob) = (&mut out.r[..], &mut out.g[..], &mut out.b[..]);
    for i in 0..n {
        let value = cur[i];
        // Which plane this pixel moves toward, and whether it moves at all.
        let (target, wants_move) = if common_plane {
            (plane, true)
        } else {
            let target = if value > hl { hl } else { lh };
            (target, value > hl || value < lh)
        };
        let active = span[i].abs() > f64::EPSILON;
        let t0 = ((target - value) / span[i]).clamp(-0.5, 0.5);
        // clamp_step_to_gamut, unrolled with the limit chained in RGB order.
        let sign = t0.signum();
        let mut limit = t0.abs();
        for (d, o) in [(dx[i], px[i]), (dy[i], py[i]), (dz[i], pz[i])] {
            let d = d * sign;
            // Select the numerator, then divide once: the same quotient
            // the scalar branch computes, at one divide per channel.
            let room = (if d > 0.0 { 1.0 - o } else { 0.0 - o }) / d;
            limit = if d.abs() > f64::EPSILON && room < limit {
                room.max(0.0)
            } else {
                limit
            };
        }
        let t = if t0 == 0.0 { 0.0 } else { limit * sign };
        let moved = wants_move && active;
        or_[i] = if moved { px[i] + dx[i] * t } else { px[i] };
        og[i] = if moved { py[i] + dy[i] * t } else { py[i] };
        ob[i] = if moved { pz[i] + dz[i] * t } else { pz[i] };
    }
    if common_plane {
        AdjustmentCase::CommonPlane
    } else {
        AdjustmentCase::NoCommonPlane
    }
}

/// The per-frame constants of the closed-form axis search for a model
/// with a [`FixedShape`]. Built once per frame and shared by every tile
/// (and every worker) of it.
///
/// For a pixel `p` of scale `s`, the extrema along axis `A` are
/// `p ± s · e`, where `e` is the shape's extremum offset, oriented so that
/// `e_A ≥ 0`. Moving a pixel along its extrema vector until its `A`
/// channel has moved by `τ` moves it by `τ · u`, with the constant
/// direction `u = e / e_A`. So one axis attempt over a tile reads each
/// pixel's three channels and its scale, and nothing else.
pub(crate) struct ClosedForm<'a> {
    shape: FixedShape<'a>,
    steps: [AxisStep; 3],
}

/// One axis's constants of the closed form.
#[derive(Debug, Clone, Copy, Default)]
struct AxisStep {
    /// `e_A`: the unit shape's half chord along the axis (positive).
    reach: f64,
    /// `u = e / e_A` per channel; `u_A` is exactly 1.
    dir: [f64; 3],
    /// Per channel, `(bound, 1 / d)` for a move along `+u`
    /// ([`gamut_room`]).
    up: [(f64, f64); 3],
    /// The same for a move along `−u`.
    down: [(f64, f64); 3],
}

/// `(bound, 1 / d)` for a channel that moves by `d` per unit step: from a
/// channel value `o` the step can grow to `(bound − o) · (1 / d)` before
/// the channel leaves `[0, 1]`. `(∞, 1)` for a channel that does not move,
/// so its room is infinite.
fn gamut_room(d: f64) -> (f64, f64) {
    if d > 0.0 {
        (1.0, 1.0 / d)
    } else if d < 0.0 {
        (0.0, 1.0 / d)
    } else {
        (f64::INFINITY, 1.0)
    }
}

impl<'a> ClosedForm<'a> {
    /// The constants of `shape`, or `None` when an extremum offset is not
    /// finite or has no extent along its own axis.
    pub(crate) fn new(shape: FixedShape<'a>) -> Option<Self> {
        let mut steps = [AxisStep::default(); 3];
        for axis in RgbAxis::ALL {
            let e = shape.extremum_offset(axis);
            let reach = e.component(axis.index());
            if !(reach > 0.0 && e.is_finite()) {
                return None;
            }
            let dir = e.to_array().map(|c| c / reach);
            steps[axis.index()] = AxisStep {
                reach,
                dir,
                up: dir.map(gamut_room),
                down: dir.map(|d| gamut_room(-d)),
            };
        }
        Some(ClosedForm { shape, steps })
    }

    /// Fills the tile's scale lane and reports whether the closed form
    /// covers the tile: every pixel channel is finite and the shape holds
    /// at every scale. A NaN pixel makes a NaN scale, and an infinite one
    /// breaks `p ± s · e`, so either sends the tile to the general route.
    fn load_scales(
        &self,
        pixels: &LinearTileLanes,
        eccentricity_deg: f64,
        scales: &mut Vec<f64>,
    ) -> bool {
        let (r, g, b) = (&pixels.r, &pixels.g, &pixels.b);
        self.shape.scales_into(r, g, b, eccentricity_deg, scales);
        // Non-short-circuiting folds: one branch-free pass per lane.
        let finite = |lane: &[f64]| lane.iter().fold(true, |ok, x| ok & x.is_finite());
        finite(r)
            && finite(g)
            && finite(b)
            && scales
                .iter()
                .fold(true, |ok, &s| ok & self.shape.holds_at(s))
    }

    /// One closed-form axis attempt: the HL/LH planes, then every pixel
    /// moved into `out`. Returns `(hl, lh, case)`.
    fn attempt(
        &self,
        axis: RgbAxis,
        pixels: &LinearTileLanes,
        scales: &[f64],
        out: &mut LinearTileLanes,
    ) -> (f64, f64, AdjustmentCase) {
        let step = &self.steps[axis.index()];
        // One monomorphized loop per axis, so the axis channel is a constant.
        match axis.index() {
            0 => closed_form_attempt::<0>(step, pixels, scales, out),
            1 => closed_form_attempt::<1>(step, pixels, scales, out),
            _ => closed_form_attempt::<2>(step, pixels, scales, out),
        }
    }
}

/// `HL = max(p_A − s·e_A)` and `LH = min(p_A + s·e_A)` over the tile, in
/// [`LANE_WIDTH`]-wide accumulators. The values are finite, so the
/// select-form max and min return the exact extremes in any order.
fn closed_form_planes(values: &[f64], scales: &[f64], reach: f64) -> (f64, f64) {
    let mut hl = [f64::NEG_INFINITY; LANE_WIDTH];
    let mut lh = [f64::INFINITY; LANE_WIDTH];
    let mut fold = |j: usize, value: f64, scale: f64| {
        let r = scale * reach;
        let (low, high) = (value - r, value + r);
        hl[j] = if low > hl[j] { low } else { hl[j] };
        lh[j] = if high < lh[j] { high } else { lh[j] };
    };
    let mut value_chunks = values.chunks_exact(LANE_WIDTH);
    let mut scale_chunks = scales.chunks_exact(LANE_WIDTH);
    for (v, s) in (&mut value_chunks).zip(&mut scale_chunks) {
        for j in 0..LANE_WIDTH {
            fold(j, v[j], s[j]);
        }
    }
    for (j, (&v, &s)) in value_chunks
        .remainder()
        .iter()
        .zip(scale_chunks.remainder())
        .enumerate()
    {
        fold(j, v, s);
    }
    let max = hl
        .iter()
        .fold(f64::NEG_INFINITY, |a, &b| if b > a { b } else { a });
    let min = lh
        .iter()
        .fold(f64::INFINITY, |a, &b| if b < a { b } else { a });
    (max, min)
}

/// The closed-form Color Shift along axis `AXIS`: every pixel moves by
/// `τ · u`, where `τ` is the axis move toward its target plane, clamped to
/// the chord `±s·e_A` and then shortened to the gamut.
///
/// The gamut step keeps [`clamp_step_to_gamut`]'s contract: `τ` keeps its
/// sign, never grows, and is zero when the pixel already lies outside the
/// cube in the direction it would move. Unmoved pixels (`τ == 0`) keep
/// their original bits. Every step is a compare-select, so the loop is
/// branch-free.
fn closed_form_attempt<const AXIS: usize>(
    step: &AxisStep,
    pixels: &LinearTileLanes,
    scales: &[f64],
    out: &mut LinearTileLanes,
) -> (f64, f64, AdjustmentCase) {
    let n = pixels.len();
    let (px, py, pz) = (&pixels.r[..n], &pixels.g[..n], &pixels.b[..n]);
    let cur = pixels.channel(AXIS);
    let scales = &scales[..n];
    let (hl, lh) = closed_form_planes(cur, scales, step.reach);
    let common_plane = hl <= lh;
    let plane = 0.5 * (hl + lh);
    // Every slot is overwritten below; no zero fill needed.
    out.r.resize(n, 0.0);
    out.g.resize(n, 0.0);
    out.b.resize(n, 0.0);
    let (or_, og, ob) = (&mut out.r[..n], &mut out.g[..n], &mut out.b[..n]);
    let [ux, uy, uz] = step.dir;
    for i in 0..n {
        let value = cur[i];
        let reach = scales[i] * step.reach;
        let target = if common_plane {
            plane
        } else if value > hl {
            hl
        } else if value < lh {
            lh
        } else {
            value
        };
        let want = target - value;
        let tau0 = if want > reach {
            reach
        } else if want < -reach {
            -reach
        } else {
            want
        };
        // The gamut room both ways, then the one `τ` moves in: the
        // smallest room over the channels, floored at zero, caps `|τ|`.
        // That is `clamp_step_to_gamut`'s chained limit, reordered: min and
        // max are exact, so the order of the comparisons cannot change it.
        let up = tau0 > 0.0;
        let mut room_up = f64::INFINITY;
        let mut room_down = f64::INFINITY;
        for (c, o) in [px[i], py[i], pz[i]].into_iter().enumerate() {
            let (bound, inv) = step.up[c];
            let room = (bound - o) * inv;
            room_up = if room < room_up { room } else { room_up };
            let (bound, inv) = step.down[c];
            let room = (bound - o) * inv;
            room_down = if room < room_down { room } else { room_down };
        }
        let room = if up { room_up } else { room_down };
        let room = if room > 0.0 { room } else { 0.0 };
        let magnitude = tau0.abs();
        let limit = if room < magnitude { room } else { magnitude };
        let tau = if up { limit } else { -limit };
        let moved = tau != 0.0;
        or_[i] = if moved { px[i] + ux * tau } else { px[i] };
        og[i] = if moved { py[i] + uy * tau } else { py[i] };
        ob[i] = if moved { pz[i] + uz * tau } else { pz[i] };
    }
    let case = if common_plane {
        AdjustmentCase::CommonPlane
    } else {
        AdjustmentCase::NoCommonPlane
    };
    (hl, lh, case)
}

/// Reusable buffers for per-tile adjustment: the working buffers (SoA
/// pixel, scale, ellipsoid and extrema lanes and the best-so-far pixel
/// set) the adjustment cycles through, plus AoS `pixels` / `ellipsoids`
/// inputs and the AoS `best` output of [`adjust_tile_with`].
///
/// The frame encoder never touches the AoS buffers: it gathers each tile
/// straight into the pixel lanes, has the model fill the scale or the
/// ellipsoid lanes, and reads the winning lanes back
/// (see `PerceptualEncoder::adjust_frame_with_map_into`). They serve only
/// callers that hold a tile as AoS slices — tests, references and
/// `kernel_bench`.
///
/// One scratch serves an unbounded stream of tiles: every buffer is
/// cleared, never shrunk, so after the first few tiles the hot loop
/// performs no allocation at all. The figure path builds one scratch per
/// frame, and streaming sessions keep one alive for their whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct AdjustScratch {
    /// The tile's pixels for [`adjust_tile_with`], gathered by the caller
    /// (row-major).
    pub pixels: Vec<LinearRgb>,
    /// One discrimination ellipsoid per pixel for [`adjust_tile_with`],
    /// built by the caller.
    pub ellipsoids: Vec<DiscriminationEllipsoid>,
    lanes: AdjustLanes,
    best: Vec<LinearRgb>,
}

impl AdjustScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        AdjustScratch::default()
    }

    /// The winning adjusted pixels of the most recent
    /// [`adjust_tile_with`].
    pub fn best(&self) -> &[LinearRgb] {
        &self.best
    }

    /// The winning pixels, as lanes, of the most recent adjustment, which
    /// returned `outcome`.
    pub(crate) fn winner(&self, outcome: &TileAdjustOutcome) -> &LinearTileLanes {
        self.lanes.winner(outcome)
    }
}

/// The metadata of a scratch-based tile adjustment; the winning pixels
/// themselves stay in the scratch (for [`adjust_tile_with`], in its
/// [`best`](AdjustScratch::best) buffer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileAdjustOutcome {
    /// The winning axis.
    pub axis: RgbAxis,
    /// Which geometric case the winning attempt fell into.
    pub case: AdjustmentCase,
    /// The winning attempt's HL plane value.
    pub hl: f64,
    /// The winning attempt's LH plane value.
    pub lh: f64,
    /// Δ bit cost of the original (unadjusted) tile.
    pub original_cost: u64,
    /// Δ bit cost of the pixels left in the scratch's `best` buffer.
    pub adjusted_cost: u64,
}

/// Adjusts one tile along a single axis.
///
/// The scalar reference the lane path ([`adjust_tile_with`]) is pinned
/// against; it allocates its result buffers per call, so hot loops should
/// prefer [`adjust_tile_with`] with a reused [`AdjustScratch`].
///
/// # Panics
///
/// Panics if `pixels` and `ellipsoids` have different lengths or are empty.
pub fn adjust_tile_along_axis(
    pixels: &[LinearRgb],
    ellipsoids: &[DiscriminationEllipsoid],
    axis: RgbAxis,
) -> AxisAdjustment {
    assert_eq!(
        pixels.len(),
        ellipsoids.len(),
        "one ellipsoid per pixel is required"
    );
    assert!(!pixels.is_empty(), "cannot adjust an empty tile");

    // Phase 1: per-pixel extrema (the Compute Extrema blocks of the CAU).
    let extrema: Vec<AxisExtrema> = ellipsoids
        .iter()
        .map(|e| e.extrema_along_axis(axis))
        .collect();

    // Phase 2: HL / LH reduction (the Compute Planes blocks).
    let hl = extrema
        .iter()
        .map(AxisExtrema::low_value)
        .fold(f64::NEG_INFINITY, f64::max);
    let lh = extrema
        .iter()
        .map(AxisExtrema::high_value)
        .fold(f64::INFINITY, f64::min);

    // Phase 3: color shifts (the Color Shift blocks).
    let (case, adjusted) = if hl <= lh {
        // Case 2: collapse every color onto the average plane.
        let plane = 0.5 * (hl + lh);
        let adjusted = pixels
            .iter()
            .zip(&extrema)
            .map(|(&p, ext)| move_along_extrema(p, ext, axis, plane))
            .collect();
        (AdjustmentCase::CommonPlane, adjusted)
    } else {
        // Case 1: clamp the axis values into [LH, HL].
        let adjusted = pixels
            .iter()
            .zip(&extrema)
            .map(|(&p, ext)| {
                let value = p.channel(axis.index());
                if value > hl {
                    move_along_extrema(p, ext, axis, hl)
                } else if value < lh {
                    move_along_extrema(p, ext, axis, lh)
                } else {
                    p
                }
            })
            .collect();
        (AdjustmentCase::NoCommonPlane, adjusted)
    };
    AxisAdjustment {
        axis,
        case,
        adjusted,
        hl,
        lh,
    }
}

/// Adjusts the tile held in `scratch` (its `pixels` / `ellipsoids`
/// buffers) by trying every candidate axis and keeping the attempt with
/// the smallest Δ bit cost. The winning pixels land in
/// [`AdjustScratch::best`]; only metadata is returned.
///
/// This is the vectorized general route: the tile's pixels and ellipsoids
/// are transposed into SoA lanes once, every axis attempt runs the lane
/// kernels (`extrema_lanes`, the chunked HL/LH reductions,
/// `lane_axis_adjust`, `delta_bit_cost_lanes`), and only the winning lanes
/// are scattered back to AoS. Bit-identical to the scalar per-axis
/// reference ([`adjust_tile_along_axis`]) on the same inputs — the lanes
/// only change where intermediate values live, the order of
/// order-independent reductions, and which values the monotone
/// sRGB quantizer is applied to, never a single computed value. Ties
/// between axes resolve to the first axis tried, matching
/// `Iterator::min_by_key`.
///
/// # Panics
///
/// Panics if `axes` is empty, or if the scratch's `pixels` and
/// `ellipsoids` have different lengths or are empty.
pub fn adjust_tile_with(scratch: &mut AdjustScratch, axes: &[RgbAxis]) -> TileAdjustOutcome {
    // Transpose the tile's pixels and ellipsoids into SoA lanes once; every
    // axis attempt reads them.
    let lanes = &mut scratch.lanes;
    lanes.pixels.fill_from_pixels(&scratch.pixels);
    lanes.ellipsoids.fill_from(&scratch.ellipsoids);
    let outcome = search_axes(lanes, axes, None);
    lanes.winner(&outcome).scatter_into(&mut scratch.best);
    outcome
}

/// Adjusts one tile of `frame` through `scratch` with the ellipsoids
/// `model` gives it at `eccentricity_deg`: the frame encoder's per-tile
/// step. The winning pixels stay in the scratch's lanes, for
/// [`AdjustScratch::winner`].
///
/// The tile is gathered straight into the pixel lanes. When `closed_form`
/// (built from `model`'s [`FixedShape`]) covers the tile, the axis search
/// reads the pixels and their scales directly. Otherwise the model writes
/// the ellipsoid lanes ([`DiscriminationModel::ellipsoid_lanes`]) and the
/// search takes the general route, bit-identical to gathering the tile
/// with `tile_pixels_into`, building one `model.ellipsoid` per pixel and
/// calling [`adjust_tile_with`].
///
/// # Panics
///
/// Panics if `axes` is empty or the tile extends outside the frame.
pub(crate) fn adjust_frame_tile<M: DiscriminationModel + ?Sized>(
    scratch: &mut AdjustScratch,
    frame: &LinearFrame,
    tile: TileRect,
    model: &M,
    closed_form: Option<&ClosedForm<'_>>,
    eccentricity_deg: f64,
    axes: &[RgbAxis],
) -> TileAdjustOutcome {
    let lanes = &mut scratch.lanes;
    frame.tile_lanes_into(tile, &mut lanes.pixels);
    let closed_form =
        closed_form.filter(|cf| cf.load_scales(&lanes.pixels, eccentricity_deg, &mut lanes.scales));
    if closed_form.is_none() {
        let pixels = &lanes.pixels;
        model.ellipsoid_lanes(
            &pixels.r,
            &pixels.g,
            &pixels.b,
            eccentricity_deg,
            &mut lanes.ellipsoids,
        );
    }
    search_axes(lanes, axes, closed_form)
}

/// The axis search over a tile already held in `lanes.pixels` and, for
/// the closed form, `lanes.scales`, else `lanes.ellipsoids`: every
/// candidate axis runs one attempt, the first minimal attempt wins and
/// its pixels stay in `lanes.best`, unless no attempt beats the original
/// pixels (see [`AdjustLanes::winner`]).
///
/// # Panics
///
/// Panics if `axes` is empty, if the tile is empty, or, on the general
/// route, if the pixel and ellipsoid lanes have different lengths.
fn search_axes(
    lanes: &mut AdjustLanes,
    axes: &[RgbAxis],
    closed_form: Option<&ClosedForm<'_>>,
) -> TileAdjustOutcome {
    assert!(
        !axes.is_empty(),
        "at least one optimization axis is required"
    );
    if closed_form.is_none() {
        assert_eq!(
            lanes.pixels.len(),
            lanes.ellipsoids.len(),
            "one ellipsoid per pixel is required"
        );
    }
    assert!(!lanes.pixels.is_empty(), "cannot adjust an empty tile");

    let dkl_to_rgb = dkl_to_rgb_matrix();
    let original_cost = delta_bit_cost_lanes(&lanes.pixels);
    let mut chosen: Option<TileAdjustOutcome> = None;
    for &axis in axes {
        let (hl, lh, case) = match closed_form {
            Some(cf) => cf.attempt(axis, &lanes.pixels, &lanes.scales, &mut lanes.out),
            None => {
                // Phase 1: per-pixel extrema (the Compute Extrema blocks
                // of the CAU), straight into direction and plane-value
                // lanes.
                extrema_lanes(&lanes.ellipsoids, dkl_to_rgb, axis, &mut lanes.extrema);
                let extrema = &lanes.extrema;

                // Phase 2: HL / LH reduction (the Compute Planes blocks).
                // The chunked reductions visit values in a different order
                // than a scalar fold, which is harmless: f64 max/min are
                // associative and commutative over the non-NaN values
                // extrema produce.
                let hl = max_f64(&extrema.low);
                let lh = min_f64(&extrema.high);

                // Phase 3: color shifts (the Color Shift blocks), lane-wise.
                let case = lane_axis_adjust(
                    &lanes.pixels,
                    (&extrema.dir_x, &extrema.dir_y, &extrema.dir_z),
                    axis,
                    hl,
                    lh,
                    &mut lanes.out,
                );
                (hl, lh, case)
            }
        };
        let adjusted_cost = delta_bit_cost_lanes(&lanes.out);
        // Strict `<` keeps the first minimal axis, like min_by_key.
        if chosen.map_or(true, |c| adjusted_cost < c.adjusted_cost) {
            std::mem::swap(&mut lanes.out, &mut lanes.best);
            chosen = Some(TileAdjustOutcome {
                axis,
                case,
                hl,
                lh,
                original_cost,
                adjusted_cost,
            });
        }
    }
    let mut outcome = chosen.expect("axes is non-empty");
    // Never regress: if the adjustment does not help (e.g. everything was
    // clamped by the gamut), keep the original pixels.
    if outcome.adjusted_cost >= original_cost {
        outcome.adjusted_cost = original_cost;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::{DiscriminationModel, SyntheticDiscriminationModel};

    fn ellipsoids_for(pixels: &[LinearRgb], eccentricity: f64) -> Vec<DiscriminationEllipsoid> {
        let model = SyntheticDiscriminationModel::default();
        pixels
            .iter()
            .map(|&p| model.ellipsoid(p, eccentricity))
            .collect()
    }

    /// Loads one tile into `scratch` (which may hold a previous tile) and
    /// adjusts it; the winning pixels are left in `scratch.best()`.
    fn adjust(
        scratch: &mut AdjustScratch,
        pixels: &[LinearRgb],
        ellipsoids: &[DiscriminationEllipsoid],
        axes: &[RgbAxis],
    ) -> TileAdjustOutcome {
        scratch.pixels.clear();
        scratch.pixels.extend_from_slice(pixels);
        scratch.ellipsoids.clear();
        scratch.ellipsoids.extend_from_slice(ellipsoids);
        adjust_tile_with(scratch, axes)
    }

    fn similar_tile() -> Vec<LinearRgb> {
        // A smooth tile: nearby colors, typical of rendered content.
        (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.42 + 0.01 * t, 0.5 + 0.008 * t, 0.35 + 0.012 * t)
            })
            .collect()
    }

    fn diverse_tile() -> Vec<LinearRgb> {
        (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.2 + 0.6 * t, 0.7 - 0.5 * t, 0.1 + 0.8 * t)
            })
            .collect()
    }

    #[test]
    fn adjusted_colors_stay_inside_ellipsoids() {
        for (pixels, ecc) in [(similar_tile(), 25.0), (diverse_tile(), 10.0)] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            for axis in [RgbAxis::Blue, RgbAxis::Red] {
                let result = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                for (adjusted, ellipsoid) in result.adjusted.iter().zip(&ellipsoids) {
                    assert!(
                        ellipsoid.contains_rgb(*adjusted, 1e-6),
                        "adjusted color left its ellipsoid (axis {axis})"
                    );
                }
            }
        }
    }

    #[test]
    fn adjusted_colors_stay_in_gamut() {
        // Colors near the gamut boundary must not be pushed outside [0, 1].
        let pixels: Vec<LinearRgb> = (0..16)
            .map(|i| {
                let t = f64::from(i) / 15.0;
                LinearRgb::new(0.002 * t, 0.998 + 0.002 * t, 0.001)
            })
            .collect();
        let ellipsoids = ellipsoids_for(&pixels, 30.0);
        let mut scratch = AdjustScratch::new();
        adjust(
            &mut scratch,
            &pixels,
            &ellipsoids,
            &[RgbAxis::Blue, RgbAxis::Red],
        );
        for p in scratch.best() {
            assert!(p.in_gamut(1e-9), "adjusted color {p:?} out of gamut");
        }
    }

    #[test]
    fn axis_range_never_grows() {
        for (pixels, ecc) in [(similar_tile(), 25.0), (diverse_tile(), 25.0)] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            for axis in [RgbAxis::Blue, RgbAxis::Red] {
                let result = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                let range = |colors: &[LinearRgb]| {
                    let vals: Vec<f64> = colors.iter().map(|c| c.channel(axis.index())).collect();
                    vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                        - vals.iter().cloned().fold(f64::INFINITY, f64::min)
                };
                assert!(
                    range(&result.adjusted) <= range(&pixels) + 1e-9,
                    "axis range grew on {axis}"
                );
            }
        }
    }

    #[test]
    fn similar_colors_collapse_to_common_plane() {
        // A smooth peripheral tile should land in case 2 and the Δ along the
        // optimized axis should vanish.
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels, 25.0);
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, AdjustmentCase::CommonPlane);
        let values: Vec<f64> = result.adjusted.iter().map(|c| c.b).collect();
        let range = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(range < 1e-6, "blue range after collapse: {range}");
    }

    #[test]
    fn diverse_colors_fall_into_case_one_with_residual_range() {
        let pixels = diverse_tile();
        let ellipsoids = ellipsoids_for(&pixels, 10.0);
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, AdjustmentCase::NoCommonPlane);
        assert!(result.hl > result.lh);
        // The residual range equals HL − LH (up to gamut clamping).
        let values: Vec<f64> = result.adjusted.iter().map(|c| c.b).collect();
        let range = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(range <= result.hl - result.lh + 1e-9);
    }

    #[test]
    fn foveal_ellipsoids_allow_less_adjustment_than_peripheral() {
        let pixels = similar_tile();
        let mut scratch = AdjustScratch::new();
        let foveal = adjust(
            &mut scratch,
            &pixels,
            &ellipsoids_for(&pixels, 2.0),
            &RgbAxis::OPTIMIZED,
        );
        let peripheral = adjust(
            &mut scratch,
            &pixels,
            &ellipsoids_for(&pixels, 30.0),
            &RgbAxis::OPTIMIZED,
        );
        assert!(peripheral.adjusted_cost <= foveal.adjusted_cost);
    }

    #[test]
    fn adjustment_reduces_delta_bits_on_smooth_peripheral_tiles() {
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels, 25.0);
        let mut scratch = AdjustScratch::new();
        let result = adjust(&mut scratch, &pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
        assert!(
            result.original_cost.saturating_sub(result.adjusted_cost) > 0,
            "expected savings on a smooth peripheral tile"
        );
        assert!(delta_bit_cost(scratch.best()) < result.original_cost);
    }

    #[test]
    fn adjustment_never_increases_total_delta_bits() {
        for (pixels, ecc) in [(similar_tile(), 5.0), (diverse_tile(), 30.0)] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            let mut scratch = AdjustScratch::new();
            let result = adjust(&mut scratch, &pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
            assert!(delta_bit_cost(scratch.best()) <= result.original_cost);
        }
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_a_fresh_one() {
        let mut scratch = AdjustScratch::new();
        for (pixels, ecc) in [
            (similar_tile(), 25.0),
            (diverse_tile(), 10.0),
            (similar_tile(), 2.0),
            (vec![LinearRgb::new(0.3, 0.4, 0.5)], 15.0),
        ] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            let mut fresh = AdjustScratch::new();
            let expected = adjust(&mut fresh, &pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
            // The scratch arrives dirty from the previous tile on purpose.
            let outcome = adjust(&mut scratch, &pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
            assert_eq!(scratch.best(), fresh.best());
            assert_eq!(outcome.axis, expected.axis);
            assert_eq!(outcome.case, expected.case);
            assert_eq!(outcome.hl, expected.hl);
            assert_eq!(outcome.lh, expected.lh);
            assert_eq!(outcome.original_cost, expected.original_cost);
            assert_eq!(outcome.adjusted_cost, delta_bit_cost(fresh.best()));
        }
    }

    #[test]
    fn scratch_no_regress_keeps_the_original_pixels() {
        // Near-zero ellipsoids leave no room to improve: the scratch path
        // must fall back to the original pixels.
        let pixels = diverse_tile();
        let ellipsoids = ellipsoids_for(&pixels, 0.01);
        let mut scratch = AdjustScratch::new();
        let outcome = adjust(&mut scratch, &pixels, &ellipsoids, &RgbAxis::OPTIMIZED);
        assert_eq!(scratch.best(), &pixels[..]);
        assert_eq!(outcome.adjusted_cost, delta_bit_cost(scratch.best()));
        assert!(
            outcome.adjusted_cost <= outcome.original_cost,
            "the no-regress guard must hold"
        );
    }

    #[test]
    fn lane_path_matches_the_scalar_reference_composition() {
        // Rebuild adjust_tile_with's axis selection from the scalar
        // per-axis reference and require bit-identical pixels, plane
        // values and costs from the lane path.
        for (pixels, ecc) in [
            (similar_tile(), 25.0),
            (diverse_tile(), 10.0),
            (similar_tile(), 0.01),
            (vec![LinearRgb::new(0.3, 0.4, 0.5)], 15.0),
        ] {
            let ellipsoids = ellipsoids_for(&pixels, ecc);
            let mut scratch = AdjustScratch::new();
            scratch.pixels.extend_from_slice(&pixels);
            scratch.ellipsoids.extend_from_slice(&ellipsoids);
            let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);

            // Scalar reference: first axis with strictly minimal cost.
            let mut expected: Option<AxisAdjustment> = None;
            for &axis in &RgbAxis::OPTIMIZED {
                let attempt = adjust_tile_along_axis(&pixels, &ellipsoids, axis);
                if expected
                    .as_ref()
                    .map_or(true, |b| attempt.delta_bit_cost() < b.delta_bit_cost())
                {
                    expected = Some(attempt);
                }
            }
            let expected = expected.unwrap();
            let original_cost = delta_bit_cost(&pixels);
            assert_eq!(outcome.axis, expected.axis, "ecc {ecc}");
            assert_eq!(outcome.case, expected.case, "ecc {ecc}");
            assert_eq!(outcome.hl, expected.hl, "ecc {ecc}");
            assert_eq!(outcome.lh, expected.lh, "ecc {ecc}");
            assert_eq!(outcome.original_cost, original_cost, "ecc {ecc}");
            if expected.delta_bit_cost() >= original_cost {
                assert_eq!(scratch.best(), &pixels[..], "ecc {ecc}");
                assert_eq!(outcome.adjusted_cost, original_cost, "ecc {ecc}");
            } else {
                assert_eq!(scratch.best(), &expected.adjusted[..], "ecc {ecc}");
                assert_eq!(
                    outcome.adjusted_cost,
                    expected.delta_bit_cost(),
                    "ecc {ecc}"
                );
            }
        }
    }

    /// Smallest `f64` the quantizer maps to at least `code`, bisected on
    /// the bit pattern (order-preserving for non-negative doubles).
    fn decision_threshold(code: u8) -> f64 {
        let (mut lo, mut hi) = (0.0f64.to_bits(), 1.0f64.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if linear_to_srgb8(f64::from_bits(mid)) >= code {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        f64::from_bits(hi)
    }

    #[test]
    fn lane_cost_matches_the_scalar_cost_on_adversarial_values() {
        // Values the quantizer sends to code 0 by its `!(x > 0.0)` test, or
        // to 255 by `x >= 1.0`: the sanitizing select must agree with both.
        let specials = [
            f64::NAN,
            0.0,
            -0.0,
            -f64::MIN_POSITIVE,
            -0.5,
            f64::NEG_INFINITY,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            f64::INFINITY,
        ];
        // Each code's decision threshold and its two neighbouring doubles.
        let near: Vec<[f64; 3]> = (1..=255u8)
            .map(|code| {
                let t = decision_threshold(code);
                [
                    f64::from_bits(t.to_bits() - 1),
                    t,
                    f64::from_bits(t.to_bits() + 1),
                ]
            })
            .collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        let mut lanes = LinearTileLanes::new();
        // Sub-lane, whole-lane-group and remainder tile lengths.
        for len in 1..=33usize {
            for trial in 0..64 {
                // Values straddling two adjacent thresholds, so each
                // channel's range sits on a code boundary; every fourth
                // trial also mixes in the special values.
                let code = next() % 254;
                let mut pool: Vec<f64> =
                    near[code].iter().chain(&near[code + 1]).copied().collect();
                if trial % 4 == 0 {
                    pool.extend(specials);
                }
                let pixels: Vec<LinearRgb> = (0..len)
                    .map(|_| {
                        let mut pick = || pool[next() % pool.len()];
                        LinearRgb::new(pick(), pick(), pick())
                    })
                    .collect();
                lanes.fill_from_pixels(&pixels);
                assert_eq!(
                    delta_bit_cost_lanes(&lanes),
                    delta_bit_cost(&pixels),
                    "len {len}, pixels {pixels:?}"
                );
            }
        }
    }

    #[test]
    fn case_labels_match_figure_12() {
        assert_eq!(AdjustmentCase::NoCommonPlane.label(), "c1");
        assert_eq!(AdjustmentCase::CommonPlane.label(), "c2");
    }

    #[test]
    fn single_pixel_tile_is_trivially_common_plane() {
        let pixels = vec![LinearRgb::new(0.3, 0.4, 0.5)];
        let ellipsoids = ellipsoids_for(&pixels, 15.0);
        let result = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
        assert_eq!(result.case, AdjustmentCase::CommonPlane);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels[..4], 10.0);
        let _ = adjust_tile_along_axis(&pixels, &ellipsoids, RgbAxis::Blue);
    }

    #[test]
    #[should_panic]
    fn empty_axes_panic() {
        let pixels = similar_tile();
        let ellipsoids = ellipsoids_for(&pixels, 10.0);
        let _ = adjust(&mut AdjustScratch::new(), &pixels, &ellipsoids, &[]);
    }
}
