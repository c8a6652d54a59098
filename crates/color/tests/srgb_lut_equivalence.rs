//! Dense-sweep pin: the LUT-backed sRGB quantizer is bit-identical to the
//! `powf` reference.
//!
//! Two layers of evidence:
//!
//! 1. **Every representable 8-bit boundary.** For each code `v` we bisect (in
//!    this test, independently of the production table builder) the smallest
//!    `f64` whose reference code is `v`, then check the LUT agrees with the
//!    reference at that boundary, one ULP below it, and one ULP above it.
//! 2. **One million uniform samples** across `[-0.25, 1.25]` (covering the
//!    clamped out-of-gamut ranges) plus special values.
//!
//! It also pins the quantizer's monotonicity, which the Δ-bit costing in
//! `pvc_core::adjust` rests on: that costing quantizes only each channel's
//! smallest and largest value, which gives the smallest and largest code
//! only because `linear_to_srgb8` never decreases.
//!
//! Every probe goes through both entry points: the scalar
//! `linear_to_srgb8` and the slice kernel `linear_to_srgb8_slice`, whose
//! straight-line clamp-then-lookup form the encoder's strip quantization
//! runs.

use pvc_color::{
    linear_to_srgb8, linear_to_srgb8_reference, linear_to_srgb8_slice, srgb8_to_linear,
    srgb8_to_linear_reference,
};

/// Smallest non-negative f64 whose reference code is at least `v`, found by
/// bit-pattern bisection (order-preserving for non-negative doubles).
fn boundary_for_code(v: u8) -> f64 {
    if v == 0 {
        return 0.0;
    }
    let mut lo = 0.0f64.to_bits();
    let mut hi = 1.0f64.to_bits();
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if linear_to_srgb8_reference(f64::from_bits(mid)) >= v {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

/// The slice kernel's codes for `inputs`.
fn slice_codes(inputs: &[f64]) -> Vec<u8> {
    let mut codes = vec![0u8; inputs.len()];
    linear_to_srgb8_slice(inputs, &mut codes);
    codes
}

/// Asserts that the scalar quantizer and the slice kernel both give the
/// reference code for every input.
fn assert_both_match_reference(inputs: &[f64], what: &str) {
    for (&x, &code) in inputs.iter().zip(&slice_codes(inputs)) {
        let reference = linear_to_srgb8_reference(x);
        assert_eq!(linear_to_srgb8(x), reference, "scalar LUT, {what} {x:e}");
        assert_eq!(code, reference, "slice kernel, {what} {x:e}");
    }
}

fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn next_down(x: f64) -> f64 {
    assert!(x > 0.0);
    f64::from_bits(x.to_bits() - 1)
}

#[test]
fn every_code_boundary_is_bit_exact() {
    for v in 0..=255u8 {
        let boundary = boundary_for_code(v);
        let mut probes = vec![boundary, next_up(boundary)];
        if boundary > 0.0 {
            probes.push(next_down(boundary));
        }
        assert_both_match_reference(&probes, &format!("boundary probe (code {v})"));
        // The boundary really is the decision point for code v.
        assert_eq!(linear_to_srgb8_reference(boundary), v);
        if boundary > 0.0 {
            assert_eq!(linear_to_srgb8_reference(next_down(boundary)), v - 1);
        }
    }
}

/// One million uniform samples across `[-0.25, 1.25]`.
fn uniform_samples() -> Vec<f64> {
    // splitmix64: deterministic, dependency-free uniform sampler.
    let mut state = 0x0DDB1A5E55ED5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..1_000_000)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            u * 1.5 - 0.25
        })
        .collect()
}

/// The doubles within `ulps` of `x`, in increasing order (`x > 0`).
fn ulp_neighbourhood(x: f64, ulps: u64) -> Vec<f64> {
    let bits = x.to_bits();
    (bits - ulps..=bits + ulps).map(f64::from_bits).collect()
}

/// Asserts `linear_to_srgb8` never decreases along an ascending sequence,
/// and that the slice kernel gives the same codes.
fn assert_non_decreasing(ascending: &[f64]) {
    for pair in ascending.windows(2) {
        assert!(pair[0] <= pair[1], "probe sequence is not sorted");
        assert!(
            linear_to_srgb8(pair[0]) <= linear_to_srgb8(pair[1]),
            "quantizer decreases from {:e} to {:e}",
            pair[0],
            pair[1]
        );
    }
    for (&x, &code) in ascending.iter().zip(&slice_codes(ascending)) {
        assert_eq!(code, linear_to_srgb8(x), "slice kernel diverges at {x:e}");
    }
}

#[test]
fn quantizer_never_decreases_across_a_decision_threshold() {
    for v in 1..=255u8 {
        let neighbourhood = ulp_neighbourhood(boundary_for_code(v), 4);
        assert_non_decreasing(&neighbourhood);
        assert_both_match_reference(&neighbourhood, &format!("threshold {v} ±4 ulp"));
    }
}

#[test]
fn quantizer_never_decreases_across_a_guess_bin_edge() {
    // The encode LUT guesses a code per 1/8192-wide bin and corrects it by
    // at most one; a bin edge is where a wrong guess would show.
    const GUESS_BINS: u32 = 8192;
    for bin in 1..GUESS_BINS {
        let neighbourhood = ulp_neighbourhood(f64::from(bin) / f64::from(GUESS_BINS), 4);
        assert_non_decreasing(&neighbourhood);
        assert_both_match_reference(&neighbourhood, &format!("bin edge {bin} ±4 ulp"));
    }
}

#[test]
fn quantizer_never_decreases_over_a_sorted_million_sample_sweep() {
    let mut samples = uniform_samples();
    samples.sort_by(f64::total_cmp);
    assert_non_decreasing(&samples);
}

#[test]
fn quantizer_saturates_outside_the_unit_interval() {
    for x in [
        f64::NAN,
        -0.0,
        0.0,
        -f64::MIN_POSITIVE,
        -0.5,
        -1.0,
        f64::MIN,
        f64::NEG_INFINITY,
    ] {
        assert_eq!(linear_to_srgb8(x), 0, "{x:e} must map to code 0");
        assert_eq!(slice_codes(&[x]), [0], "slice kernel: {x:e} must map to 0");
    }
    for x in [1.0, next_up(1.0), 1.5, 2.0, f64::MAX, f64::INFINITY] {
        assert_eq!(linear_to_srgb8(x), 255, "{x:e} must map to code 255");
        assert_eq!(
            slice_codes(&[x]),
            [255],
            "slice kernel: {x:e} must map to 255"
        );
    }
}

#[test]
fn one_million_uniform_samples_are_bit_exact() {
    let inputs = uniform_samples();
    let mut lut_codes = vec![0u8; inputs.len()];
    linear_to_srgb8_slice(&inputs, &mut lut_codes);
    for (x, code) in inputs.iter().zip(&lut_codes) {
        let reference = linear_to_srgb8_reference(*x);
        assert_eq!(*code, reference, "slice kernel diverges at {x:e}");
        assert_eq!(
            linear_to_srgb8(*x),
            reference,
            "scalar LUT diverges at {x:e}"
        );
    }
}

#[test]
fn special_values_are_bit_exact() {
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1.0,
        next_down(1.0),
        next_up(1.0),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ];
    assert_both_match_reference(&specials, "special value");
    // Every special in every position of a full lane group and of the
    // remainder tail.
    for offset in 0..specials.len() {
        let mut rotated = specials.to_vec();
        rotated.rotate_left(offset);
        rotated.extend_from_slice(&specials[..offset]);
        assert_both_match_reference(&rotated, "special value (rotated)");
    }
}

#[test]
fn decode_lut_matches_reference_for_every_code() {
    for v in 0..=255u8 {
        assert_eq!(
            srgb8_to_linear(v).to_bits(),
            srgb8_to_linear_reference(v).to_bits()
        );
    }
}
