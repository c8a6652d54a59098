//! Property-based tests for the color substrate.

use proptest::prelude::*;
use pvc_color::{
    linear_to_srgb, linear_to_srgb8, srgb8_to_linear, srgb_to_linear, DiscriminationEllipsoid,
    DiscriminationModel, DklColor, EllipsoidAxes, LinearRgb, Mat3, RgbAxis, Srgb8,
    SyntheticDiscriminationModel, Vec3,
};

fn arb_unit() -> impl Strategy<Value = f64> {
    0.0..=1.0f64
}

fn arb_linear_rgb() -> impl Strategy<Value = LinearRgb> {
    (arb_unit(), arb_unit(), arb_unit()).prop_map(|(r, g, b)| LinearRgb::new(r, g, b))
}

proptest! {
    #[test]
    fn srgb_transfer_roundtrip(x in arb_unit()) {
        let rt = srgb_to_linear(linear_to_srgb(x));
        prop_assert!((rt - x).abs() < 1e-9);
    }

    #[test]
    fn srgb_transfer_is_bounded(x in -2.0..3.0f64) {
        let y = linear_to_srgb(x);
        prop_assert!((0.0..=1.0).contains(&y));
        let z = srgb_to_linear(x);
        prop_assert!((0.0..=1.0).contains(&z));
    }

    #[test]
    fn srgb8_code_roundtrip(v in 0u8..=255) {
        prop_assert_eq!(linear_to_srgb8(srgb8_to_linear(v)), v);
    }

    #[test]
    fn srgb8_packing_roundtrip(r in 0u8..=255, g in 0u8..=255, b in 0u8..=255) {
        let c = Srgb8::new(r, g, b);
        prop_assert_eq!(Srgb8::from_packed(c.to_packed()), c);
    }

    #[test]
    fn dkl_roundtrip(c in arb_linear_rgb()) {
        let back = DklColor::from_linear_rgb(c).to_linear_rgb();
        prop_assert!(back.max_channel_distance(c) < 1e-7);
    }

    #[test]
    fn mat3_inverse_roundtrip(
        m in proptest::array::uniform3(proptest::array::uniform3(-2.0..2.0f64))
    ) {
        let mat = Mat3::from_rows(m);
        if mat.determinant().abs() > 1e-3 {
            let inv = mat.inverse().unwrap();
            prop_assert!((mat * inv).distance(&Mat3::identity()) < 1e-6);
        }
    }

    #[test]
    fn vec3_cross_orthogonality(
        a in proptest::array::uniform3(-5.0..5.0f64),
        b in proptest::array::uniform3(-5.0..5.0f64),
    ) {
        let a = Vec3::from_array(a);
        let b = Vec3::from_array(b);
        let c = a.cross(b);
        prop_assert!(c.dot(a).abs() < 1e-6 * (1.0 + a.norm() * b.norm()));
        prop_assert!(c.dot(b).abs() < 1e-6 * (1.0 + a.norm() * b.norm()));
    }

    #[test]
    fn ellipsoid_extrema_are_on_surface_and_ordered(
        c in arb_linear_rgb(),
        e in 0.0..40.0f64,
    ) {
        let model = SyntheticDiscriminationModel::default();
        let ellipsoid = model.ellipsoid(c, e);
        for axis in RgbAxis::ALL {
            let ext = ellipsoid.extrema_along_axis(axis);
            prop_assert!(ext.high_value() >= ext.low_value());
            prop_assert!((ellipsoid.normalized_distance_rgb(ext.high) - 1.0).abs() < 1e-6);
            prop_assert!((ellipsoid.normalized_distance_rgb(ext.low) - 1.0).abs() < 1e-6);
        }
    }

    /// Three routes to the extrema agree: the DKL closed form the general
    /// route runs, the paper's quadric route, and the fixed-shape closed
    /// form `c ± s · e_axis` the frame path runs for the synthetic model.
    #[test]
    fn ellipsoid_extrema_quadric_route_agrees(
        c in arb_linear_rgb(),
        e in 0.0..=55.0f64,
    ) {
        let model = SyntheticDiscriminationModel::default();
        let ellipsoid = model.ellipsoid(c, e);
        let shape = model.fixed_shape().expect("the synthetic model has a fixed shape");
        let mut scale = Vec::new();
        shape.scales_into(&[c.r], &[c.g], &[c.b], e, &mut scale);
        prop_assert!(shape.holds_at(scale[0]));
        for axis in RgbAxis::ALL {
            let dkl = ellipsoid.extrema_along_axis(axis);
            let quadric = ellipsoid.extrema_along_axis_via_quadric(axis);
            let offset = shape.extremum_offset(axis) * scale[0];
            let high = LinearRgb::from_vec3(c.to_vec3() + offset);
            let low = LinearRgb::from_vec3(c.to_vec3() - offset);
            prop_assert!(high.max_channel_distance(dkl.high) < 1e-12);
            prop_assert!(low.max_channel_distance(dkl.low) < 1e-12);
            prop_assert!(dkl.high.max_channel_distance(quadric.high) < 1e-6);
            prop_assert!(dkl.low.max_channel_distance(quadric.low) < 1e-6);
            prop_assert!(high.max_channel_distance(quadric.high) < 1e-6);
            prop_assert!(low.max_channel_distance(quadric.low) < 1e-6);
        }
    }

    #[test]
    fn discrimination_axes_monotone_in_eccentricity(
        c in arb_linear_rgb(),
        e1 in 0.0..40.0f64,
        e2 in 0.0..40.0f64,
    ) {
        let model = SyntheticDiscriminationModel::default();
        let (lo, hi) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        let near = model.ellipsoid_axes(c, lo);
        let far = model.ellipsoid_axes(c, hi);
        prop_assert!(far.a >= near.a - 1e-12);
        prop_assert!(far.b >= near.b - 1e-12);
        prop_assert!(far.c >= near.c - 1e-12);
    }

    #[test]
    fn ellipsoid_contains_points_sampled_inside(
        c in arb_linear_rgb(),
        u in proptest::array::uniform3(-1.0..1.0f64),
    ) {
        let ellipsoid = DiscriminationEllipsoid::from_rgb_center(
            c,
            EllipsoidAxes::new(0.01, 0.02, 0.03),
        );
        // Scale the offset so it is strictly inside the unit ball.
        let v = Vec3::from_array(u) * 0.57;
        let point = DklColor::from_vec3(
            ellipsoid.center_dkl().to_vec3()
                + Vec3::new(v.x * 0.01, v.y * 0.02, v.z * 0.03),
        );
        prop_assert!(ellipsoid.contains_dkl(point, 1e-9));
    }
}
