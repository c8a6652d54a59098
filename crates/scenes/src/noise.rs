//! Deterministic value noise used by the scene generators.

/// The most octaves a [`FractalNoise`] may have. A [`NoiseCursor`] keeps
/// one cached lattice cell per octave in a fixed-size array of this
/// length, so it never allocates. In-tree scenes use 3–5 octaves; at 8 the
/// finest octave of the finest in-tree call site is already far below a
/// pixel.
pub const MAX_OCTAVES: u32 = 8;

/// Fractal (multi-octave) value noise over a 2-D lattice.
///
/// Lattice values are derived from a seed with an integer hash, so the noise
/// field is fully deterministic and requires no stored tables.
///
/// # Examples
///
/// ```
/// use pvc_scenes::FractalNoise;
/// let noise = FractalNoise::new(42, 4, 0.5);
/// let v = noise.sample(1.5, 2.25, 8.0);
/// assert!((0.0..=1.0).contains(&v));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FractalNoise {
    seed: u64,
    octaves: u32,
    /// Per-octave amplitude falloff numerator of a rational persistence
    /// (stored ×1000 to keep the type `Eq`-friendly).
    persistence_milli: u32,
}

impl FractalNoise {
    /// Creates a noise field.
    ///
    /// # Panics
    ///
    /// Panics if `octaves` is zero or above [`MAX_OCTAVES`], or if
    /// `persistence` is outside `(0, 1]`.
    pub fn new(seed: u64, octaves: u32, persistence: f64) -> Self {
        assert!(octaves > 0, "octave count must be non-zero");
        assert!(
            octaves <= MAX_OCTAVES,
            "octave count must be at most {MAX_OCTAVES}"
        );
        assert!(
            persistence > 0.0 && persistence <= 1.0,
            "persistence must be in (0, 1]"
        );
        FractalNoise {
            seed,
            octaves,
            persistence_milli: (persistence * 1000.0).round() as u32,
        }
    }

    /// Samples the fractal noise at `(x, y)`, where `scale` is the base
    /// lattice frequency (larger → finer detail). The result is in `[0, 1]`.
    ///
    /// Equivalent to a fresh [`Self::cursor`]'s first sample; callers that
    /// sample many nearby points should keep a cursor instead.
    pub fn sample(&self, x: f64, y: f64, scale: f64) -> f64 {
        self.cursor().sample(x, y, scale)
    }

    /// A sampling cursor that remembers the last lattice cell of every
    /// octave, so neighbouring samples reuse its hashed corner values.
    pub fn cursor(&self) -> NoiseCursor<'_> {
        NoiseCursor {
            noise: self,
            cells: [LatticeCell::EMPTY; MAX_OCTAVES as usize],
        }
    }

    fn lattice_value(&self, x: i64, y: i64, octave: u32) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h = splitmix(h ^ (x as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        h = splitmix(h ^ (y as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        h = splitmix(h ^ u64::from(octave).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A [`FractalNoise`] sampler with a one-cell lattice cache per octave.
///
/// Lattice values are a pure function of the cell, so reusing them cannot
/// change a bit: every sample is identical to [`FractalNoise::sample`] at
/// the same point, in any order. The cache pays off when consecutive
/// samples land in the same cell (all four corners reused) or in its
/// right-hand neighbour (two reused, two hashed) — the common case when
/// one call site is walked across a scanline. Keep one cursor per call
/// site so sites sampling at different scales do not evict each other.
///
/// # Examples
///
/// ```
/// use pvc_scenes::FractalNoise;
/// let noise = FractalNoise::new(42, 4, 0.5);
/// let mut cursor = noise.cursor();
/// for i in 0..64 {
///     let x = f64::from(i) / 64.0;
///     assert_eq!(cursor.sample(x, 0.5, 8.0), noise.sample(x, 0.5, 8.0));
/// }
/// ```
#[derive(Debug)]
pub struct NoiseCursor<'a> {
    noise: &'a FractalNoise,
    cells: [LatticeCell; MAX_OCTAVES as usize],
}

impl NoiseCursor<'_> {
    /// Samples the fractal noise at `(x, y)` with base lattice frequency
    /// `scale`; bit-identical to [`FractalNoise::sample`].
    pub fn sample(&mut self, x: f64, y: f64, scale: f64) -> f64 {
        let noise = self.noise;
        let persistence = f64::from(noise.persistence_milli) / 1000.0;
        let mut amplitude = 1.0;
        let mut frequency = scale;
        let mut total = 0.0;
        let mut max_total = 0.0;
        for (octave, cell) in (0..noise.octaves).zip(&mut self.cells) {
            total += amplitude * cell.sample(noise, x * frequency, y * frequency, octave);
            max_total += amplitude;
            amplitude *= persistence;
            frequency *= 2.0;
        }
        (total / max_total).clamp(0.0, 1.0)
    }
}

/// The last lattice cell one octave sampled and its corner values.
#[derive(Debug, Clone, Copy)]
struct LatticeCell {
    /// `(x0, y0)` of the cached cell; `None` until the first sample.
    origin: Option<(i64, i64)>,
    /// Corner values `[v00, v10, v01, v11]`.
    corners: [f64; 4],
}

impl LatticeCell {
    const EMPTY: LatticeCell = LatticeCell {
        origin: None,
        corners: [0.0; 4],
    };

    /// Bilinearly interpolates the smoothstepped lattice at `(x, y)`,
    /// hashing only the corners the cached cell cannot supply.
    fn sample(&mut self, noise: &FractalNoise, x: f64, y: f64, octave: u32) -> f64 {
        let x0 = x.floor();
        let y0 = y.floor();
        let fx = smoothstep(x - x0);
        let fy = smoothstep(y - y0);
        // The casts saturate for out-of-range coordinates, so the `+ 1`
        // neighbours wrap rather than overflow.
        let x0 = x0 as i64;
        let y0 = y0 as i64;
        if self.origin != Some((x0, y0)) {
            let x1 = x0.wrapping_add(1);
            let y1 = y0.wrapping_add(1);
            let [v00, v01] = match self.origin {
                Some(origin) if origin == (x0.wrapping_sub(1), y0) => {
                    [self.corners[1], self.corners[3]]
                }
                _ => [
                    noise.lattice_value(x0, y0, octave),
                    noise.lattice_value(x0, y1, octave),
                ],
            };
            self.corners = [
                v00,
                noise.lattice_value(x1, y0, octave),
                v01,
                noise.lattice_value(x1, y1, octave),
            ];
            self.origin = Some((x0, y0));
        }
        let [v00, v10, v01, v11] = self.corners;
        let top = v00 + (v10 - v00) * fx;
        let bottom = v01 + (v11 - v01) * fx;
        top + (bottom - top) * fy
    }
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_in_unit_range() {
        let noise = FractalNoise::new(7, 5, 0.5);
        for i in 0..200 {
            let x = f64::from(i) * 0.37;
            let y = f64::from(i) * 0.91;
            let v = noise.sample(x, y, 4.0);
            assert!((0.0..=1.0).contains(&v), "sample {v} out of range");
        }
    }

    #[test]
    fn noise_is_deterministic_for_a_seed() {
        let a = FractalNoise::new(123, 4, 0.6);
        let b = FractalNoise::new(123, 4, 0.6);
        assert_eq!(a.sample(3.2, 1.1, 8.0), b.sample(3.2, 1.1, 8.0));
    }

    #[test]
    fn different_seeds_give_different_fields() {
        let a = FractalNoise::new(1, 4, 0.5);
        let b = FractalNoise::new(2, 4, 0.5);
        let differing = (0..50)
            .filter(|&i| {
                let x = f64::from(i) * 0.71;
                (a.sample(x, x, 6.0) - b.sample(x, x, 6.0)).abs() > 1e-6
            })
            .count();
        assert!(differing > 40);
    }

    #[test]
    fn noise_is_smooth_at_fine_steps() {
        let noise = FractalNoise::new(9, 3, 0.5);
        let mut max_step: f64 = 0.0;
        let mut prev = noise.sample(0.0, 0.5, 2.0);
        for i in 1..500 {
            let v = noise.sample(f64::from(i) * 0.002, 0.5, 2.0);
            max_step = max_step.max((v - prev).abs());
            prev = v;
        }
        assert!(
            max_step < 0.05,
            "noise jumps by {max_step} between close samples"
        );
    }

    #[test]
    #[should_panic]
    fn zero_octaves_panics() {
        let _ = FractalNoise::new(1, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_octaves_panics() {
        let _ = FractalNoise::new(1, MAX_OCTAVES + 1, 0.5);
    }

    #[test]
    fn huge_coordinates_do_not_overflow_the_lattice() {
        // The saturating `as i64` cast puts these on the edge of the
        // lattice, where the `+ 1` neighbours must wrap in debug builds
        // too; the expected bits are those of release-build arithmetic.
        let noise = FractalNoise::new(1, 4, 0.5);
        for (x, y, bits) in [
            (1e19, 0.5, 0x3FD5_44CF_548F_C520_u64),
            (-1e19, 0.5, 0x3FE4_C597_D650_EEE4),
            (0.5, 1e19, 0x3FE3_4AD9_D68A_5AA2),
        ] {
            assert_eq!(noise.sample(x, y, 1.0).to_bits(), bits, "({x}, {y})");
        }
    }

    #[test]
    #[should_panic]
    fn invalid_persistence_panics() {
        let _ = FractalNoise::new(1, 3, 1.5);
    }
}
