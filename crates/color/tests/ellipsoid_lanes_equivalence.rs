//! Bit-for-bit pin: [`DiscriminationModel::ellipsoid_lanes`] fills every
//! lane with exactly the bits the per-pixel [`DiscriminationModel::ellipsoid`]
//! produces.
//!
//! "Exactly" counts every NaN as one value. Rust leaves the sign and
//! payload of a NaN produced by arithmetic unspecified, and an optimized
//! build does produce different ones: a center row that adds a NaN
//! channel to `0.0 · ∞` keeps whichever NaN the (possibly vectorized,
//! possibly commuted) add picks. No consumer reads those bits: the sRGB
//! quantizer, the min/max reductions and every comparison treat all NaNs
//! alike.
//!
//! Both models run the trait's per-pixel default today (the synthetic
//! model's frame path takes its fixed-shape closed form instead, and
//! builds ellipsoid lanes only for the tiles that form does not cover).
//! Both are called directly, through `&T`, `Arc<T>` and `Arc<dyn _>`, so
//! a future override whose expression order drifts shows up as a bit
//! difference whichever way the encoder holds the model. Pixels and
//! eccentricities include the values the clamps and the `max(1e-9)` floor
//! treat specially: NaN, ±0.0, negatives, values above 1 and ±∞.

use pvc_color::{
    DiscriminationModel, EllipsoidLanes, LinearRgb, RbfDiscriminationModel,
    SyntheticDiscriminationModel, SyntheticModelParams,
};
use std::sync::Arc;

/// Channel values the lane build must treat exactly like the scalar path.
const SPECIAL_CHANNELS: [f64; 13] = [
    f64::NAN,
    0.0,
    -0.0,
    -f64::MIN_POSITIVE,
    -0.25,
    0.2,
    0.5,
    0.9,
    1.0,
    1.5,
    7.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Eccentricities around every clamp of the models: NaN, negative, 0,
/// inside the range, above the synthetic saturation (40°), above the
/// 55° model limit, and ±∞.
const ECCENTRICITIES: [f64; 9] = [
    f64::NAN,
    -3.0,
    0.0,
    12.5,
    44.0,
    70.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.01,
];

/// Deterministic LCG stream, so every run checks identical tiles.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// Mostly ordinary in-gamut values; one channel in four is special.
    fn channel(&mut self) -> f64 {
        if self.next() % 4 == 0 {
            SPECIAL_CHANNELS[self.next() as usize % SPECIAL_CHANNELS.len()]
        } else {
            (self.next() % 1_000_001) as f64 / 1_000_000.0
        }
    }
}

/// One tile's channel lanes of length `len`.
fn tile(stream: &mut Stream, len: usize) -> [Vec<f64>; 3] {
    let mut lanes = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..len {
        for lane in &mut lanes {
            lane.push(stream.channel());
        }
    }
    lanes
}

/// Requires `out` to hold, slot by slot, the bits of the per-pixel
/// ellipsoids of `model`.
fn assert_lanes_match_per_pixel(
    model: &dyn DiscriminationModel,
    [r, g, b]: &[Vec<f64>; 3],
    eccentricity: f64,
    out: &EllipsoidLanes,
    label: &str,
) {
    assert_eq!(out.len(), r.len(), "{label}: lane length");
    for i in 0..r.len() {
        let expected = model.ellipsoid(LinearRgb::new(r[i], g[i], b[i]), eccentricity);
        let center = expected.center_dkl();
        let axes = expected.axes();
        let want = [center.k1, center.k2, center.k3, axes.a, axes.b, axes.c];
        let got = [
            out.k1[i], out.k2[i], out.k3[i], out.a[i], out.b[i], out.c[i],
        ];
        for (lane, (want, got)) in ["k1", "k2", "k3", "a", "b", "c"]
            .iter()
            .zip(want.iter().zip(&got))
        {
            assert_eq!(
                canonical_bits(*got),
                canonical_bits(*want),
                "{label}: lane {lane}, slot {i}, pixel ({}, {}, {}), ecc {eccentricity}: \
                 lane {got} vs per-pixel {want}",
                r[i],
                g[i],
                b[i],
            );
        }
    }
}

/// The bits of `x`, with every NaN mapped to one canonical NaN.
fn canonical_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Runs every tile length and eccentricity through `model`'s lane build,
/// called directly, through the `&T` and `Arc<T>` forwarding impls, and
/// through `Arc<dyn DiscriminationModel>`, reusing one dirty output
/// buffer.
fn check_model<M: DiscriminationModel + Clone + 'static>(model: M, seed: u64) {
    let by_ref = &model;
    let by_arc = Arc::new(model.clone());
    let by_arc_dyn: Arc<dyn DiscriminationModel> = Arc::new(model.clone());
    let callers: [(&str, &dyn DiscriminationModel); 4] = [
        ("direct", &model),
        ("&T", &by_ref),
        ("Arc<T>", &by_arc),
        ("Arc<dyn>", &by_arc_dyn),
    ];
    let mut stream = Stream(seed);
    let mut out = EllipsoidLanes::new();
    // Lengths up and back down, so the buffer is both grown and reused
    // with stale slots beyond the new length.
    let lengths = (1..=65usize).chain((1..=65usize).rev().step_by(7));
    for len in lengths {
        let lanes = tile(&mut stream, len);
        let [r, g, b] = &lanes;
        for &ecc in &ECCENTRICITIES {
            for (label, caller) in callers {
                caller.ellipsoid_lanes(r, g, b, ecc, &mut out);
                assert_lanes_match_per_pixel(&model, &lanes, ecc, &out, label);
            }
        }
    }
}

#[test]
fn synthetic_default_lanes_match_per_pixel_bits() {
    check_model(SyntheticDiscriminationModel::default(), 0x5eed_0001);
}

#[test]
fn synthetic_small_scale_lanes_match_per_pixel_bits() {
    check_model(SyntheticDiscriminationModel::with_scale(0.25), 0x5eed_0002);
}

#[test]
fn synthetic_large_scale_lanes_match_per_pixel_bits() {
    check_model(SyntheticDiscriminationModel::with_scale(4.0), 0x5eed_0003);
}

#[test]
fn rbf_default_lane_build_matches_per_pixel_bits() {
    let reference = SyntheticDiscriminationModel::default();
    let rbf = RbfDiscriminationModel::fit_to(&reference, Default::default()).expect("rbf fit");
    check_model(rbf, 0x5eed_0004);
}

/// A model whose extents overflow to +∞ for dark colors.
fn overflowing_model() -> SyntheticDiscriminationModel {
    SyntheticDiscriminationModel::new(SyntheticModelParams {
        foveal_extent: f64::MAX,
        ..SyntheticModelParams::default()
    })
}

#[test]
#[should_panic(expected = "positive and finite")]
fn per_pixel_path_rejects_infinite_semi_axes() {
    let _ = overflowing_model().ellipsoid(LinearRgb::BLACK, 0.0);
}

#[test]
#[should_panic(expected = "positive and finite")]
fn lane_path_rejects_infinite_semi_axes() {
    let mut out = EllipsoidLanes::new();
    overflowing_model().ellipsoid_lanes(&[0.5, 0.0], &[0.5, 0.0], &[0.5, 0.0], 0.0, &mut out);
}

#[test]
fn both_paths_panic_with_the_same_message() {
    // The lane path reports the first offending pixel, which is the pixel
    // the per-pixel path panics on.
    let model = overflowing_model();
    let (r, g, b) = ([0.3, 0.0, 0.0], [0.6, 0.1, 0.0], [0.2, 0.0, 0.0]);
    let message = |result: std::thread::Result<()>| {
        let payload = result.expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic message")
    };
    let per_pixel = message(std::panic::catch_unwind(|| {
        for i in 0..r.len() {
            let _ = model.ellipsoid(LinearRgb::new(r[i], g[i], b[i]), 5.0);
        }
    }));
    let lanes = message(std::panic::catch_unwind(|| {
        model.ellipsoid_lanes(&r, &g, &b, 5.0, &mut EllipsoidLanes::new());
    }));
    assert_eq!(lanes, per_pixel);
    assert!(lanes.contains("positive and finite"), "{lanes}");
}

#[test]
#[should_panic(expected = "equal lengths")]
fn mismatched_channel_lanes_panic() {
    let model = SyntheticDiscriminationModel::default();
    model.ellipsoid_lanes(
        &[0.1, 0.2],
        &[0.1],
        &[0.1, 0.2],
        10.0,
        &mut EllipsoidLanes::new(),
    );
}
