//! Property-based pin: the SoA lane path through [`adjust_tile_with`] is
//! bit-identical to the scalar per-axis reference ([`adjust_tile_along_axis`]
//! composed with the first-minimal axis selection and the no-regress guard).
//!
//! The strategies deliberately cover the shapes the lane kernels treat
//! specially: full 4×4 and 8×8 tiles (whole lane groups), clipped edge tiles
//! whose pixel count is not a multiple of the lane width (scalar remainder
//! tail), single-pixel tiles, near-constant tiles (degenerate extrema spans,
//! where the speculative lane divide produces garbage that the select must
//! discard), near-zero eccentricities (degenerate ellipsoids that leave
//! no room to move, exercising the no-regress fallback), and tiles whose
//! channels sit within a few ulps of sRGB8 rounding decisions or just
//! outside the gamut (where the Δ-bit costing quantizes only each
//! channel's extremes).
//!
//! A second pin covers the frame path: `adjust_frame_with_map_into`
//! adjusts each tile row in `[slot][tile]` strip lanes and must equal the
//! per-tile AoS composition bit for bit, on the strip kernel's baseline
//! compilation and on its AVX2 clone. For a model with a fixed shape the
//! reference is a scalar closed form in the kernel's operation order, with
//! the kernel's per-tile fallback; every other tile, and every tile of a
//! model without one, goes through `tile_pixels_into`, one
//! `model.ellipsoid` per pixel and `adjust_tile_with`. Any drift in gather
//! order, in the strip layout, in the ellipsoid lanes or in the closed
//! form shows up there. On clean frames
//! the pin also checks the paper's promise in linear space: every adjusted
//! pixel stays inside its original pixel's ellipsoid. The pin counts every
//! NaN as one value: Rust leaves the sign and payload of an arithmetic NaN
//! unspecified, the optimized lane build can pick a different one than the
//! per-pixel call, and nothing downstream reads them (the sRGB quantizer
//! maps every NaN to code 0).

use proptest::prelude::*;
use pvc_bdc::tile_codec::bits_for_range;
use pvc_color::{
    linear_to_srgb8, srgb_to_linear, DiscriminationModel, FixedShape, LinearRgb,
    RbfDiscriminationModel, RgbAxis, SyntheticDiscriminationModel,
};
use pvc_core::{
    adjust_tile_along_axis, adjust_tile_with, on_each_kernel_path, AdjustScratch, AdjustmentCase,
    AdjustmentStats, AxisAdjustment, EncoderConfig, PerceptualEncoder,
};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, TileGrid};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

/// Independent scalar Δ bit cost: per-channel sRGB8 range via the scalar
/// quantizer, never the lane kernels under test.
fn scalar_delta_bit_cost(pixels: &[LinearRgb]) -> u64 {
    let mut total = 0u64;
    for channel in 0..3 {
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        for p in pixels {
            let v = linear_to_srgb8(p.channel(channel));
            min = min.min(v);
            max = max.max(v);
        }
        total += u64::from(bits_for_range(max - min)) * pixels.len() as u64;
    }
    total
}

/// Runs both paths on one tile and requires bit-identical outputs.
fn assert_lane_matches_scalar(pixels: &[LinearRgb], eccentricity: f64) {
    let model = SyntheticDiscriminationModel::default();
    let ellipsoids: Vec<_> = pixels
        .iter()
        .map(|&p| model.ellipsoid(p, eccentricity))
        .collect();

    let mut scratch = AdjustScratch::new();
    scratch.pixels.extend_from_slice(pixels);
    scratch.ellipsoids.extend_from_slice(&ellipsoids);
    let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);

    // Scalar reference composition: first axis with strictly minimal cost.
    let mut expected: Option<AxisAdjustment> = None;
    for &axis in &RgbAxis::OPTIMIZED {
        let attempt = adjust_tile_along_axis(pixels, &ellipsoids, axis);
        if expected.as_ref().map_or(true, |best| {
            attempt.delta_bit_cost() < best.delta_bit_cost()
        }) {
            expected = Some(attempt);
        }
    }
    let expected = expected.expect("at least one axis");
    let original_cost = scalar_delta_bit_cost(pixels);

    prop_assert_eq!(outcome.axis, expected.axis);
    prop_assert_eq!(outcome.case, expected.case);
    prop_assert_eq!(outcome.hl.to_bits(), expected.hl.to_bits());
    prop_assert_eq!(outcome.lh.to_bits(), expected.lh.to_bits());
    prop_assert_eq!(outcome.original_cost, original_cost);
    let expected_cost = expected.delta_bit_cost();
    if expected_cost >= original_cost {
        // No-regress guard: the lane path must hand back the original bits.
        prop_assert_eq!(scratch.best(), pixels);
        prop_assert_eq!(outcome.adjusted_cost, original_cost);
    } else {
        prop_assert_eq!(outcome.adjusted_cost, expected_cost);
        prop_assert_eq!(scratch.best().len(), expected.adjusted.len());
        for (got, want) in scratch.best().iter().zip(expected.adjusted.iter()) {
            for channel in 0..3 {
                prop_assert_eq!(
                    got.channel(channel).to_bits(),
                    want.channel(channel).to_bits()
                );
            }
        }
    }
}

fn arb_pixel() -> impl Strategy<Value = LinearRgb> {
    (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64).prop_map(|(r, g, b)| LinearRgb::new(r, g, b))
}

/// Exactly `side * side` diverse pixels: a full (unclipped) tile.
fn arb_full_tile(side: usize) -> impl Strategy<Value = Vec<LinearRgb>> {
    let pixels = side * side;
    proptest::collection::vec(arb_pixel(), pixels..pixels + 1)
}

/// A clipped edge tile: any pixel count up to a full 8×8 tile, so the
/// length sweeps every remainder class modulo the lane width (including
/// single-pixel tiles).
fn arb_clipped_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    proptest::collection::vec(arb_pixel(), 1..65)
}

/// A smooth tile: one base color plus per-pixel jitter small enough that
/// common planes (case 2) and near-zero extrema spans actually occur.
fn arb_smooth_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    (
        arb_pixel(),
        proptest::collection::vec(-0.01..=0.01f64, 1..65),
    )
        .prop_map(|(base, jitter)| {
            jitter
                .into_iter()
                .map(|j| {
                    LinearRgb::new(
                        (base.channel(0) + j).clamp(0.0, 1.0),
                        (base.channel(1) + 0.5 * j).clamp(0.0, 1.0),
                        (base.channel(2) - j).clamp(0.0, 1.0),
                    )
                })
                .collect()
        })
}

/// A tile whose channels sit on sRGB8 rounding decisions, where the Δ-bit
/// costing must quantize each channel's extremes exactly as the scalar
/// walk quantizes every pixel.
///
/// Per tile and channel a base code `k` is drawn; each pixel's channel is
/// the linear image of a code midpoint `(k + step + 0.5) / 255`
/// (`step ∈ 0..=2`) moved by up to four ulps either way. One channel value
/// in eight lies just outside `[0, 1]` instead (`-0.0` included), so
/// slightly out-of-gamut pixels are covered too.
fn arb_threshold_tile() -> impl Strategy<Value = Vec<LinearRgb>> {
    let channel = (0u8..=2, 0u32..=8, 0u8..16, 0.0..0.01f64);
    (
        proptest::array::uniform3(0u8..=252),
        proptest::collection::vec(proptest::array::uniform3(channel), 1..65),
    )
        .prop_map(|(base, pixels)| {
            pixels
                .into_iter()
                .map(|channels| {
                    let value = |c: usize| {
                        let (step, ulps, pick, outside) = channels[c];
                        match pick {
                            0 => -outside,
                            1 => 1.0 + outside,
                            _ => {
                                let code = f64::from(base[c] + step);
                                let midpoint = srgb_to_linear((code + 0.5) / 255.0);
                                f64::from_bits(midpoint.to_bits() + u64::from(ulps) - 4)
                            }
                        }
                    };
                    LinearRgb::new(value(0), value(1), value(2))
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn threshold_tiles_match(pixels in arb_threshold_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn full_4x4_tiles_match(pixels in arb_full_tile(4), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn full_8x8_tiles_match(pixels in arb_full_tile(8), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn clipped_edge_tiles_match(pixels in arb_clipped_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn smooth_tiles_match(pixels in arb_smooth_tile(), ecc in 0.5..40.0f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }

    #[test]
    fn degenerate_ellipsoids_match(pixels in arb_clipped_tile(), ecc in 0.001..0.1f64) {
        assert_lane_matches_scalar(&pixels, ecc);
    }
}

/// The per-tile AoS composition the frame path must reproduce: gather each
/// non-foveal tile with `tile_pixels_into`, then adjust it with the scalar
/// closed form ([`closed_form_adjust_tile`]) when the model declares a
/// fixed shape that covers the tile, else build one ellipsoid per pixel
/// with `model.ellipsoid` and adjust with `adjust_tile_with`; write back.
fn aos_adjust_frame(
    model: &dyn DiscriminationModel,
    config: &EncoderConfig,
    frame: &LinearFrame,
    map: &EccentricityMap,
) -> (LinearFrame, AdjustmentStats) {
    let grid = TileGrid::new(frame.dimensions(), config.tile_size);
    let mut out = frame.clone();
    let mut stats = AdjustmentStats {
        total_tiles: grid.tile_count(),
        ..Default::default()
    };
    let shape = model.fixed_shape();
    let mut scratch = AdjustScratch::new();
    for tile in grid.tiles() {
        if map.is_foveal_tile(tile) {
            stats.foveal_tiles += 1;
            continue;
        }
        let ecc = map.tile_eccentricity(tile);
        frame.tile_pixels_into(tile, &mut scratch.pixels);
        if let Some((case, adjusted)) = shape
            .as_ref()
            .and_then(|shape| closed_form_adjust_tile(shape, &scratch.pixels, ecc, &config.axes))
        {
            stats.record_case(case);
            out.write_tile(tile, &adjusted);
            continue;
        }
        scratch.ellipsoids.clear();
        let ellipsoids = scratch.pixels.iter().map(|&p| model.ellipsoid(p, ecc));
        scratch.ellipsoids.extend(ellipsoids);
        let outcome = adjust_tile_with(&mut scratch, &config.axes);
        stats.record_case(outcome.case);
        out.write_tile(tile, scratch.best());
    }
    (out, stats)
}

/// Scalar reference of the closed-form axis search for a fixed-shape
/// model, in the kernel's operation order: per axis, `HL`/`LH` from
/// `p_A ∓ s·e_A`, then every pixel moved by `τ·u` with `τ` clamped to the
/// chord and shortened to the gamut, then the first minimal Δ-bit cost and
/// the no-regress guard. Returns `None` where the kernel falls back to the
/// general route: a non-finite channel, or a scale the shape does not hold
/// at.
fn closed_form_adjust_tile(
    shape: &FixedShape<'_>,
    pixels: &[LinearRgb],
    ecc: f64,
    axes: &[RgbAxis],
) -> Option<(AdjustmentCase, Vec<LinearRgb>)> {
    let channel = |c: usize| -> Vec<f64> { pixels.iter().map(|p| p.channel(c)).collect() };
    let (r, g, b) = (channel(0), channel(1), channel(2));
    let mut scales = Vec::new();
    shape.scales_into(&r, &g, &b, &vec![ecc; pixels.len()], &mut scales);
    let finite = pixels.iter().all(|p| p.to_vec3().is_finite());
    if !finite || !scales.iter().all(|&s| shape.holds_at(s)) {
        return None;
    }
    let original_cost = scalar_delta_bit_cost(pixels);
    let mut best: Option<(u64, AdjustmentCase, Vec<LinearRgb>)> = None;
    for &axis in axes {
        let a = axis.index();
        let e = shape.extremum_offset(axis);
        let reach = e.component(a);
        let u = e.to_array().map(|c| c / reach);
        let mut hl = f64::NEG_INFINITY;
        let mut lh = f64::INFINITY;
        for (p, &s) in pixels.iter().zip(&scales) {
            hl = hl.max(p.channel(a) - s * reach);
            lh = lh.min(p.channel(a) + s * reach);
        }
        let common_plane = hl <= lh;
        let plane = 0.5 * (hl + lh);
        let adjusted: Vec<LinearRgb> = pixels
            .iter()
            .zip(&scales)
            .map(|(p, &s)| {
                let value = p.channel(a);
                let chord = s * reach;
                let target = if common_plane {
                    plane
                } else {
                    value.min(hl).max(lh)
                };
                let tau0 = (target - value).min(chord).max(-chord);
                // Gamut: the step along ±u shrinks to the first cube face.
                let sign = if tau0 > 0.0 { 1.0 } else { -1.0 };
                let mut limit = tau0.abs();
                for (c, &uc) in u.iter().enumerate() {
                    let d = sign * uc;
                    let room = if d > 0.0 {
                        (1.0 - p.channel(c)) * (1.0 / d)
                    } else if d < 0.0 {
                        (0.0 - p.channel(c)) * (1.0 / d)
                    } else {
                        continue;
                    };
                    limit = limit.min(room.max(0.0));
                }
                let tau = sign * limit;
                if tau == 0.0 {
                    *p
                } else {
                    LinearRgb::new(p.r + u[0] * tau, p.g + u[1] * tau, p.b + u[2] * tau)
                }
            })
            .collect();
        let cost = scalar_delta_bit_cost(&adjusted);
        let case = if common_plane {
            AdjustmentCase::CommonPlane
        } else {
            AdjustmentCase::NoCommonPlane
        };
        if best.as_ref().map_or(true, |(c, _, _)| cost < *c) {
            best = Some((cost, case, adjusted));
        }
    }
    let (cost, case, adjusted) = best.expect("at least one axis");
    Some(if cost >= original_cost {
        (case, pixels.to_vec())
    } else {
        (case, adjusted)
    })
}

/// Fails unless every adjusted non-foveal pixel of `adjusted` lies inside
/// the ellipsoid `model` gives its original pixel in `frame`, within
/// `1e-6` of the normalized ellipsoid equation.
fn assert_inside_ellipsoids(
    model: &dyn DiscriminationModel,
    config: &EncoderConfig,
    frame: &LinearFrame,
    map: &EccentricityMap,
    adjusted: &LinearFrame,
    label: &str,
) {
    let grid = TileGrid::new(frame.dimensions(), config.tile_size);
    for tile in grid.tiles().filter(|&tile| !map.is_foveal_tile(tile)) {
        let ecc = map.tile_eccentricity(tile);
        let originals = frame.tile_pixels(tile);
        let moved = adjusted.tile_pixels(tile);
        for (&original, &pixel) in originals.iter().zip(&moved) {
            assert!(
                model.ellipsoid(original, ecc).contains_rgb(pixel, 1e-6),
                "{label}: {pixel:?} left the ellipsoid of {original:?} at {ecc}°"
            );
        }
    }
}

/// Every channel of every pixel as raw bits, with every NaN mapped to one
/// canonical NaN.
fn frame_bits(frame: &LinearFrame) -> Vec<[u64; 3]> {
    let bits = |x: f64| {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    };
    frame
        .pixels()
        .iter()
        .map(|p| [bits(p.r), bits(p.g), bits(p.b)])
        .collect()
}

/// A scene frame with a sprinkling of values outside the renderer's range:
/// NaN, ±∞, ±0.0 and out-of-gamut channels.
fn poisoned(mut frame: LinearFrame) -> LinearFrame {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -0.3, 1.7];
    for (i, p) in frame.pixels_mut().iter_mut().enumerate().step_by(37) {
        let v = specials[i % specials.len()];
        match i % 3 {
            0 => p.r = v,
            1 => p.g = v,
            _ => p.b = v,
        }
    }
    frame
}

/// [`check_frame_path_on`] on the strip kernel's baseline compilation and
/// on its AVX2 clone (where the CPU has AVX2).
fn check_frame_path<M: DiscriminationModel + Clone>(model: M) {
    on_each_kernel_path(|path| check_frame_path_on(&model, path));
}

fn check_frame_path_on<M: DiscriminationModel + Clone>(model: &M, path: &str) {
    let dims = Dimensions::new(70, 45);
    let display = DisplayGeometry::quest2_like(dims);
    let gazes = [GazePoint::center_of(dims), GazePoint::new(9.0, 38.0)];
    // One scratch and one output frame across every run: the frame path
    // must not depend on what a previous frame left in them.
    let mut scratch = AdjustScratch::new();
    let mut out = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
    for scene in SceneId::ALL {
        let rendered = SceneRenderer::new(scene, SceneConfig::new(dims)).render_linear(3);
        for (frame, is_poisoned) in [(rendered.clone(), false), (poisoned(rendered), true)] {
            for tile_size in [4, 8] {
                let config = EncoderConfig::default().with_tile_size(tile_size);
                let encoder = PerceptualEncoder::new(model.clone(), config.clone());
                let grid = TileGrid::new(dims, tile_size);
                for gaze in gazes {
                    let map = EccentricityMap::per_tile(&display, &grid, gaze, config.fovea);
                    let stats =
                        encoder.adjust_frame_with_map_into(&frame, &map, &mut scratch, &mut out);
                    let (want, want_stats) = aos_adjust_frame(model, &config, &frame, &map);
                    let label = format!(
                        "{} scene {scene:?}, tile {tile_size}, gaze {gaze:?}, {path} kernel",
                        model.name()
                    );
                    assert_eq!(stats, want_stats, "{label}");
                    assert_eq!(out.dimensions(), want.dimensions(), "{label}");
                    assert!(frame_bits(&out) == frame_bits(&want), "{label}");
                    if !is_poisoned {
                        assert_inside_ellipsoids(model, &config, &frame, &map, &out, &label);
                    }
                }
            }
        }
    }
}

#[test]
fn synthetic_frame_path_matches_the_per_tile_aos_composition() {
    check_frame_path(SyntheticDiscriminationModel::default());
}

#[test]
fn rbf_frame_path_matches_the_per_tile_aos_composition() {
    let reference = SyntheticDiscriminationModel::default();
    let rbf = RbfDiscriminationModel::fit_to(&reference, Default::default()).expect("rbf fit");
    check_frame_path(rbf);
}
