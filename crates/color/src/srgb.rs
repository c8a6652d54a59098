//! Linear RGB ↔ sRGB conversions (gamma encoding, Eq. 1 of the paper).
//!
//! The rendering pipeline produces colors in *linear* RGB where each channel
//! is a real number in `[0, 1]`. The framebuffer stores *sRGB* where each
//! channel is an 8-bit integer in `[0, 255]` produced by the non-linear gamma
//! transfer function `f_s2r`. The Base+Delta codec and therefore the bit-cost
//! objective of the perceptual encoder operate on the sRGB representation.

use crate::lanes::LANE_WIDTH;
use crate::math::Vec3;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The linear-RGB threshold below which the sRGB transfer function is linear.
pub const SRGB_LINEAR_THRESHOLD: f64 = 0.003_130_8;

/// The sRGB-encoded threshold corresponding to [`SRGB_LINEAR_THRESHOLD`].
pub const SRGB_ENCODED_THRESHOLD: f64 = 0.040_45;

/// Gamma transfer function `f_s2r` mapping a linear RGB channel in `[0, 1]`
/// to the continuous sRGB domain `[0, 1]` (Eq. 1, before the `⌊·⌋` to 8 bits).
///
/// Values outside `[0, 1]` are clamped first, so the function is total.
///
/// # Examples
///
/// ```
/// use pvc_color::srgb::linear_to_srgb;
/// assert_eq!(linear_to_srgb(0.0), 0.0);
/// assert!((linear_to_srgb(1.0) - 1.0).abs() < 1e-12);
/// ```
#[inline]
pub fn linear_to_srgb(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    if x <= SRGB_LINEAR_THRESHOLD {
        12.92 * x
    } else {
        1.055 * x.powf(1.0 / 2.4) - 0.055
    }
}

/// Inverse gamma transfer function mapping a continuous sRGB channel in
/// `[0, 1]` back to linear RGB in `[0, 1]`.
#[inline]
pub fn srgb_to_linear(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    if x <= SRGB_ENCODED_THRESHOLD {
        x / 12.92
    } else {
        ((x + 0.055) / 1.055).powf(2.4)
    }
}

/// Scalar `powf`-based reference for [`linear_to_srgb8`].
///
/// This is the full `f_s2r` of Eq. 1 including the integer quantization,
/// written exactly as the paper states it. The production quantizer
/// ([`linear_to_srgb8`]) is an exact-by-construction LUT whose decision
/// thresholds are bisected against *this* function at startup; the dense-sweep
/// equivalence suite pins the two bit-identical.
#[inline]
pub fn linear_to_srgb8_reference(x: f64) -> u8 {
    (linear_to_srgb(x) * 255.0).round().clamp(0.0, 255.0) as u8
}

/// Scalar `powf`-based reference for [`srgb8_to_linear`].
#[inline]
pub fn srgb8_to_linear_reference(v: u8) -> f64 {
    srgb_to_linear(f64::from(v) / 255.0)
}

/// Number of bins in the coarse code-guess table of the encode LUT.
///
/// The quantizer's steepest slope is `12.92 * 255 ≈ 3295` codes per unit of
/// linear input, so consecutive code decision thresholds are at least
/// `1/3295 ≈ 3.03e-4` apart. With 8192 bins each bin spans
/// `1/8192 ≈ 1.22e-4 < 3.03e-4`, so at most one threshold falls inside any
/// bin and a guessed code needs at most a single `+1` correction. The table
/// builder asserts this invariant rather than trusting the arithmetic.
const ENCODE_GUESS_BINS: usize = 8192;

/// Exact sRGB8 encode tables: 256 bisected decision thresholds plus a coarse
/// per-bin code guess. Built once per process from the `powf` reference.
struct EncodeTables {
    /// `thresholds[v]` is the smallest `f64` in `[0, 1]` whose reference code
    /// is at least `v`; `thresholds[256]` is `INFINITY` so the `+1` lookup is
    /// always in bounds.
    thresholds: [f64; 257],
    /// Code of each bin's left edge; the true code of any `x` in the bin is
    /// `guess` or `guess + 1` (asserted at build time).
    guess: [u8; ENCODE_GUESS_BINS],
}

fn encode_tables() -> &'static EncodeTables {
    static TABLES: OnceLock<EncodeTables> = OnceLock::new();
    TABLES.get_or_init(build_encode_tables)
}

fn build_encode_tables() -> EncodeTables {
    let mut thresholds = [0.0f64; 257];
    for v in 1..=255u16 {
        // Bisect on the bit pattern: for non-negative f64 the integer order
        // of the bits matches the numeric order, so this finds the exact
        // smallest representable x whose reference code reaches v.
        let mut lo = 0.0f64.to_bits();
        let mut hi = 1.0f64.to_bits();
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if u16::from(linear_to_srgb8_reference(f64::from_bits(mid))) >= v {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        thresholds[v as usize] = f64::from_bits(hi);
    }
    thresholds[256] = f64::INFINITY;

    let mut guess = [0u8; ENCODE_GUESS_BINS];
    for (bin, slot) in guess.iter_mut().enumerate() {
        *slot = linear_to_srgb8_reference(bin as f64 / ENCODE_GUESS_BINS as f64);
    }
    for bin in 0..ENCODE_GUESS_BINS - 1 {
        assert!(
            guess[bin + 1] <= guess[bin].saturating_add(1),
            "sRGB encode LUT bin {bin} spans more than one code boundary"
        );
    }
    assert!(
        guess[ENCODE_GUESS_BINS - 1] >= 254,
        "sRGB encode LUT final bin is too far from code 255"
    );
    EncodeTables { thresholds, guess }
}

fn decode_table() -> &'static [f64; 256] {
    static TABLE: OnceLock<[f64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0f64; 256];
        for (v, slot) in table.iter_mut().enumerate() {
            *slot = srgb8_to_linear_reference(v as u8);
        }
        table
    })
}

/// Quantizes a linear RGB channel in `[0, 1]` to an 8-bit sRGB code value.
///
/// This is the full `f_s2r` of Eq. 1 including the integer quantization; the
/// paper's bit-cost objective is defined over these 8-bit values. The
/// implementation is a `powf`-free exact LUT: a coarse bin lookup yields a
/// code guess, and a single compare against the bisected decision threshold
/// applies the at-most-one `+1` correction. Output is bit-identical to
/// [`linear_to_srgb8_reference`] for every `f64` input including NaN and
/// infinities (NaN maps to 0, like the reference's saturating cast).
#[inline]
pub fn linear_to_srgb8(x: f64) -> u8 {
    encode_one(encode_tables(), x)
}

/// Expands an 8-bit sRGB code value into a linear RGB channel in `[0, 1]`.
///
/// LUT-backed: the 256 entries are computed once per process with
/// [`srgb8_to_linear_reference`], so the result is trivially bit-identical.
#[inline]
pub fn srgb8_to_linear(v: u8) -> f64 {
    decode_table()[v as usize]
}

/// Applies [`linear_to_srgb`] element-wise with a branch-free select.
///
/// Both sides of the piecewise transfer function are evaluated and the
/// result is chosen with a mask-select, so the loop body has no data-dependent
/// branch and autovectorizes. Bit-identical to the scalar function: both
/// branch expressions are pure, so evaluating the untaken one cannot change
/// the selected value.
///
/// # Panics
///
/// Panics if `input` and `out` have different lengths.
pub fn linear_to_srgb_slice(input: &[f64], out: &mut [f64]) {
    assert_eq!(input.len(), out.len(), "slice kernel length mismatch");
    for (&x, slot) in input.iter().zip(out.iter_mut()) {
        let x = x.clamp(0.0, 1.0);
        let linear = 12.92 * x;
        let power = 1.055 * x.powf(1.0 / 2.4) - 0.055;
        *slot = if x <= SRGB_LINEAR_THRESHOLD {
            linear
        } else {
            power
        };
    }
}

/// Applies [`srgb_to_linear`] element-wise with a branch-free select.
///
/// Same mask-select construction (and the same bit-identity argument) as
/// [`linear_to_srgb_slice`].
///
/// # Panics
///
/// Panics if `input` and `out` have different lengths.
pub fn srgb_to_linear_slice(input: &[f64], out: &mut [f64]) {
    assert_eq!(input.len(), out.len(), "slice kernel length mismatch");
    for (&x, slot) in input.iter().zip(out.iter_mut()) {
        let x = x.clamp(0.0, 1.0);
        let linear = x / 12.92;
        let power = ((x + 0.055) / 1.055).powf(2.4);
        *slot = if x <= SRGB_ENCODED_THRESHOLD {
            linear
        } else {
            power
        };
    }
}

/// Quantizes a slice of linear channel values to 8-bit sRGB codes in
/// [`LANE_WIDTH`]-wide groups.
///
/// This is the hot gamma/quantization kernel: per element it is the same
/// LUT lookup as [`linear_to_srgb8`], arranged in explicit 8-wide lanes with
/// a scalar tail for the remainder. The lookup has no early return (see
/// `encode_one`), so the loop body is straight-line code the compiler can
/// vectorize, while every element remains bit-identical to the scalar call.
///
/// # Panics
///
/// Panics if `input` and `out` have different lengths.
pub fn linear_to_srgb8_slice(input: &[f64], out: &mut [u8]) {
    assert_eq!(input.len(), out.len(), "slice kernel length mismatch");
    let tables = encode_tables();
    let mut in_chunks = input.chunks_exact(LANE_WIDTH);
    let mut out_chunks = out.chunks_exact_mut(LANE_WIDTH);
    for (chunk, slots) in (&mut in_chunks).zip(&mut out_chunks) {
        for i in 0..LANE_WIDTH {
            slots[i] = encode_one(tables, chunk[i]);
        }
    }
    for (&x, slot) in in_chunks
        .remainder()
        .iter()
        .zip(out_chunks.into_remainder().iter_mut())
    {
        *slot = encode_one(tables, x);
    }
}

/// Expands a slice of 8-bit sRGB codes to linear values in
/// [`LANE_WIDTH`]-wide groups. Bit-identical to [`srgb8_to_linear`] per
/// element.
///
/// # Panics
///
/// Panics if `input` and `out` have different lengths.
pub fn srgb8_to_linear_slice(input: &[u8], out: &mut [f64]) {
    assert_eq!(input.len(), out.len(), "slice kernel length mismatch");
    let table = decode_table();
    let mut in_chunks = input.chunks_exact(LANE_WIDTH);
    let mut out_chunks = out.chunks_exact_mut(LANE_WIDTH);
    for (chunk, slots) in (&mut in_chunks).zip(&mut out_chunks) {
        for i in 0..LANE_WIDTH {
            slots[i] = table[chunk[i] as usize];
        }
    }
    for (&v, slot) in in_chunks
        .remainder()
        .iter()
        .zip(out_chunks.into_remainder().iter_mut())
    {
        *slot = table[v as usize];
    }
}

/// The exact LUT quantizer, branch-free: clamp, bin lookup, one `+1`
/// correction.
///
/// The clamp selects `0.0` for every input the reference sends to code 0
/// (NaN, ±0.0 and negatives, since `x > 0.0` is false for them) and `1.0`
/// for every input at or above 1.0, the reference's code 255. Code 0's
/// threshold is above 0.0, and code 255's is below 1.0 while its bin guess
/// is at least 254 (asserted in `build_encode_tables`), so the lookup then
/// lands on the saturated codes with no early return.
#[inline(always)]
fn encode_one(tables: &EncodeTables, x: f64) -> u8 {
    let x = if x > 0.0 { x } else { 0.0 };
    let x = if x < 1.0 { x } else { 1.0 };
    // Multiplying by a power of two is exact, so the cast is an exact floor
    // and x lies in [bin / BINS, (bin + 1) / BINS); x = 1.0 takes the last
    // bin.
    let bin = ((x * ENCODE_GUESS_BINS as f64) as usize).min(ENCODE_GUESS_BINS - 1);
    let code = tables.guess[bin];
    code + u8::from(x >= tables.thresholds[code as usize + 1])
}

/// A color in the linear RGB working space, each channel in `[0, 1]`.
///
/// Channel order is `(r, g, b)`. The type is deliberately a thin, `Copy`
/// value type; bulk pixel storage lives in `pvc-frame`.
///
/// # Examples
///
/// ```
/// use pvc_color::LinearRgb;
/// let c = LinearRgb::new(0.25, 0.5, 0.75);
/// let s = c.to_srgb8();
/// let back = LinearRgb::from_srgb8(s);
/// assert!((back.r - c.r).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LinearRgb {
    /// Red channel in `[0, 1]`.
    pub r: f64,
    /// Green channel in `[0, 1]`.
    pub g: f64,
    /// Blue channel in `[0, 1]`.
    pub b: f64,
}

impl LinearRgb {
    /// Black (all channels zero).
    pub const BLACK: LinearRgb = LinearRgb {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };
    /// White (all channels one).
    pub const WHITE: LinearRgb = LinearRgb {
        r: 1.0,
        g: 1.0,
        b: 1.0,
    };

    /// Creates a linear RGB color. Channels are *not* clamped; use
    /// [`LinearRgb::clamped`] to force the color into gamut.
    #[inline]
    pub const fn new(r: f64, g: f64, b: f64) -> Self {
        LinearRgb { r, g, b }
    }

    /// Creates a gray color with all channels equal to `v`.
    #[inline]
    pub const fn gray(v: f64) -> Self {
        LinearRgb { r: v, g: v, b: v }
    }

    /// Converts from a [`Vec3`] interpreted as `(r, g, b)`.
    #[inline]
    pub const fn from_vec3(v: Vec3) -> Self {
        LinearRgb {
            r: v.x,
            g: v.y,
            b: v.z,
        }
    }

    /// Converts to a [`Vec3`] as `(r, g, b)`.
    #[inline]
    pub const fn to_vec3(self) -> Vec3 {
        Vec3::new(self.r, self.g, self.b)
    }

    /// Returns the channel selected by `index` (0 → r, 1 → g, 2 → b).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn channel(self, index: usize) -> f64 {
        self.to_vec3().component(index)
    }

    /// Returns a copy with the channel at `index` replaced by `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn with_channel(self, index: usize, value: f64) -> LinearRgb {
        LinearRgb::from_vec3(self.to_vec3().with_component(index, value))
    }

    /// Returns a copy with every channel clamped to `[0, 1]`.
    #[inline]
    pub fn clamped(self) -> LinearRgb {
        LinearRgb {
            r: self.r.clamp(0.0, 1.0),
            g: self.g.clamp(0.0, 1.0),
            b: self.b.clamp(0.0, 1.0),
        }
    }

    /// True when every channel already lies in `[0, 1]` (within `tol`).
    #[inline]
    pub fn in_gamut(self, tol: f64) -> bool {
        let ok = |v: f64| v >= -tol && v <= 1.0 + tol;
        ok(self.r) && ok(self.g) && ok(self.b)
    }

    /// Quantizes to 8-bit sRGB.
    #[inline]
    pub fn to_srgb8(self) -> Srgb8 {
        Srgb8 {
            r: linear_to_srgb8(self.r),
            g: linear_to_srgb8(self.g),
            b: linear_to_srgb8(self.b),
        }
    }

    /// Expands an 8-bit sRGB color into linear RGB.
    #[inline]
    pub fn from_srgb8(s: Srgb8) -> Self {
        LinearRgb {
            r: srgb8_to_linear(s.r),
            g: srgb8_to_linear(s.g),
            b: srgb8_to_linear(s.b),
        }
    }

    /// Relative luminance (Rec. 709 weights) of the linear color.
    #[inline]
    pub fn luminance(self) -> f64 {
        0.2126 * self.r + 0.7152 * self.g + 0.0722 * self.b
    }

    /// Linear interpolation between `self` and `other` (`t` in `[0, 1]`).
    #[inline]
    pub fn lerp(self, other: LinearRgb, t: f64) -> LinearRgb {
        LinearRgb {
            r: self.r + (other.r - self.r) * t,
            g: self.g + (other.g - self.g) * t,
            b: self.b + (other.b - self.b) * t,
        }
    }

    /// Maximum absolute per-channel difference from `other`.
    #[inline]
    pub fn max_channel_distance(self, other: LinearRgb) -> f64 {
        (self.to_vec3() - other.to_vec3()).max_abs_component()
    }
}

impl From<Vec3> for LinearRgb {
    fn from(v: Vec3) -> Self {
        LinearRgb::from_vec3(v)
    }
}

impl From<LinearRgb> for Vec3 {
    fn from(c: LinearRgb) -> Self {
        c.to_vec3()
    }
}

/// A color in the 8-bit sRGB encoding used by the framebuffer.
///
/// # Examples
///
/// ```
/// use pvc_color::Srgb8;
/// let c = Srgb8::new(0xF0, 0x60, 0x77);
/// assert_eq!(c.to_array(), [0xF0, 0x60, 0x77]);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Srgb8 {
    /// Red code value.
    pub r: u8,
    /// Green code value.
    pub g: u8,
    /// Blue code value.
    pub b: u8,
}

impl Srgb8 {
    /// Creates an sRGB color from its code values.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Srgb8 { r, g, b }
    }

    /// Returns the code values as `[r, g, b]`.
    #[inline]
    pub const fn to_array(self) -> [u8; 3] {
        [self.r, self.g, self.b]
    }

    /// Creates an sRGB color from `[r, g, b]`.
    #[inline]
    pub const fn from_array(a: [u8; 3]) -> Self {
        Srgb8 {
            r: a[0],
            g: a[1],
            b: a[2],
        }
    }

    /// Returns the code value of channel `index` (0 → r, 1 → g, 2 → b).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn channel(self, index: usize) -> u8 {
        match index {
            0 => self.r,
            1 => self.g,
            2 => self.b,
            _ => panic!("Srgb8 channel index out of range: {index}"),
        }
    }

    /// Packs the color into the low 24 bits of a `u32` as `0x00RRGGBB`.
    #[inline]
    pub const fn to_packed(self) -> u32 {
        ((self.r as u32) << 16) | ((self.g as u32) << 8) | self.b as u32
    }

    /// Unpacks a color from the low 24 bits of a `u32` (`0x00RRGGBB`).
    #[inline]
    pub const fn from_packed(v: u32) -> Self {
        Srgb8 {
            r: ((v >> 16) & 0xFF) as u8,
            g: ((v >> 8) & 0xFF) as u8,
            b: (v & 0xFF) as u8,
        }
    }

    /// Expands into the linear RGB working space.
    #[inline]
    pub fn to_linear(self) -> LinearRgb {
        LinearRgb::from_srgb8(self)
    }
}

impl std::fmt::Display for Srgb8 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:02X}{:02X}{:02X}", self.r, self.g, self.b)
    }
}

impl From<[u8; 3]> for Srgb8 {
    fn from(a: [u8; 3]) -> Self {
        Srgb8::from_array(a)
    }
}

impl From<Srgb8> for [u8; 3] {
    fn from(c: Srgb8) -> Self {
        c.to_array()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_function_endpoints() {
        assert_eq!(linear_to_srgb(0.0), 0.0);
        assert!((linear_to_srgb(1.0) - 1.0).abs() < 1e-9);
        assert_eq!(srgb_to_linear(0.0), 0.0);
        assert!((srgb_to_linear(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_function_is_monotonic() {
        let mut prev = -1.0;
        for i in 0..=1000 {
            let x = f64::from(i) / 1000.0;
            let y = linear_to_srgb(x);
            assert!(y >= prev, "non-monotonic at {x}");
            prev = y;
        }
    }

    #[test]
    fn transfer_function_continuous_at_threshold() {
        let below = linear_to_srgb(SRGB_LINEAR_THRESHOLD - 1e-9);
        let above = linear_to_srgb(SRGB_LINEAR_THRESHOLD + 1e-9);
        assert!((below - above).abs() < 1e-4);
    }

    #[test]
    fn roundtrip_linear_srgb_continuous() {
        for i in 0..=200 {
            let x = f64::from(i) / 200.0;
            let rt = srgb_to_linear(linear_to_srgb(x));
            assert!((rt - x).abs() < 1e-9, "roundtrip failed at {x}: {rt}");
        }
    }

    #[test]
    fn roundtrip_8bit_codes_are_exact() {
        // Every 8-bit code must decode and re-encode to itself.
        for v in 0..=255u8 {
            let lin = srgb8_to_linear(v);
            assert_eq!(linear_to_srgb8(lin), v, "code {v} did not roundtrip");
        }
    }

    #[test]
    fn quantization_clamps_out_of_range() {
        assert_eq!(linear_to_srgb8(-0.5), 0);
        assert_eq!(linear_to_srgb8(2.0), 255);
    }

    #[test]
    fn lut_quantizer_matches_reference_on_grid_and_specials() {
        for i in 0..=20_000 {
            let x = f64::from(i) / 20_000.0;
            assert_eq!(
                linear_to_srgb8(x),
                linear_to_srgb8_reference(x),
                "mismatch at {x}"
            );
        }
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.0 - f64::EPSILON,
        ] {
            assert_eq!(
                linear_to_srgb8(x),
                linear_to_srgb8_reference(x),
                "mismatch at special {x}"
            );
        }
    }

    #[test]
    fn decode_lut_matches_reference_for_all_codes() {
        for v in 0..=255u8 {
            assert_eq!(
                srgb8_to_linear(v).to_bits(),
                srgb8_to_linear_reference(v).to_bits()
            );
        }
    }

    #[test]
    fn slice_kernels_match_scalar_for_all_remainder_lengths() {
        let mut state = 0x853C49E6748FEA9Bu64;
        for len in 0..=33usize {
            let input: Vec<f64> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 1.4 - 0.2
                })
                .collect();
            let mut encoded = vec![0.0; len];
            linear_to_srgb_slice(&input, &mut encoded);
            for (x, y) in input.iter().zip(&encoded) {
                assert_eq!(y.to_bits(), linear_to_srgb(*x).to_bits());
            }
            let mut decoded = vec![0.0; len];
            srgb_to_linear_slice(&input, &mut decoded);
            for (x, y) in input.iter().zip(&decoded) {
                assert_eq!(y.to_bits(), srgb_to_linear(*x).to_bits());
            }
            let mut codes = vec![0u8; len];
            linear_to_srgb8_slice(&input, &mut codes);
            for (x, c) in input.iter().zip(&codes) {
                assert_eq!(*c, linear_to_srgb8_reference(*x));
            }
            let mut expanded = vec![0.0; len];
            srgb8_to_linear_slice(&codes, &mut expanded);
            for (c, y) in codes.iter().zip(&expanded) {
                assert_eq!(y.to_bits(), srgb8_to_linear_reference(*c).to_bits());
            }
        }
    }

    #[test]
    fn linear_rgb_channel_accessors() {
        let c = LinearRgb::new(0.1, 0.2, 0.3);
        assert_eq!(c.channel(0), 0.1);
        assert_eq!(c.channel(2), 0.3);
        assert_eq!(c.with_channel(1, 0.9), LinearRgb::new(0.1, 0.9, 0.3));
    }

    #[test]
    fn linear_rgb_gamut() {
        assert!(LinearRgb::new(0.0, 0.5, 1.0).in_gamut(0.0));
        assert!(!LinearRgb::new(-0.1, 0.5, 1.0).in_gamut(1e-6));
        assert_eq!(
            LinearRgb::new(-0.1, 0.5, 1.2).clamped(),
            LinearRgb::new(0.0, 0.5, 1.0)
        );
    }

    #[test]
    fn linear_rgb_luminance_weights_green_highest() {
        let r = LinearRgb::new(1.0, 0.0, 0.0).luminance();
        let g = LinearRgb::new(0.0, 1.0, 0.0).luminance();
        let b = LinearRgb::new(0.0, 0.0, 1.0).luminance();
        assert!(g > r && r > b);
        assert!((r + g + b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_rgb_lerp_endpoints() {
        let a = LinearRgb::new(0.0, 0.2, 0.4);
        let b = LinearRgb::new(1.0, 0.8, 0.6);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert!((mid.r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn srgb8_packing_roundtrip() {
        let c = Srgb8::new(0x12, 0xAB, 0xEF);
        assert_eq!(Srgb8::from_packed(c.to_packed()), c);
        assert_eq!(c.to_packed(), 0x0012ABEF);
    }

    #[test]
    fn srgb8_display_is_hex() {
        assert_eq!(Srgb8::new(0xF0, 0x60, 0x77).to_string(), "#F06077");
    }

    #[test]
    fn srgb8_channel_accessor() {
        let c = Srgb8::new(1, 2, 3);
        assert_eq!(c.channel(0), 1);
        assert_eq!(c.channel(1), 2);
        assert_eq!(c.channel(2), 3);
    }

    #[test]
    fn figure_1_colors_are_close_in_linear_space() {
        // The four colors of Fig. 1 differ in sRGB code values but are within
        // a couple of code values of each other on every channel.
        let colors = [
            Srgb8::new(0xF0, 0x60, 0x77),
            Srgb8::new(0xF2, 0x60, 0x77),
            Srgb8::new(0xF2, 0x5E, 0x77),
            Srgb8::new(0xF2, 0x60, 0x75),
        ];
        for a in &colors {
            for b in &colors {
                let d = a.to_linear().max_channel_distance(b.to_linear());
                assert!(d < 0.02, "{a} vs {b}: {d}");
            }
        }
    }
}
