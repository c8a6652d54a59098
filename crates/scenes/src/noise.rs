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
        let persistence = f64::from(self.persistence_milli) / 1000.0;
        let mut amplitudes = [0.0; MAX_OCTAVES as usize];
        let mut amplitude = 1.0;
        let mut amplitude_sum = 0.0;
        for slot in &mut amplitudes[..self.octaves as usize] {
            *slot = amplitude;
            amplitude_sum += amplitude;
            amplitude *= persistence;
        }
        NoiseCursor {
            noise: self,
            amplitudes,
            amplitude_sum,
            cells: [LatticeCell::EMPTY; MAX_OCTAVES as usize],
        }
    }

    /// The x half of a sample at `x` with base lattice frequency `scale`:
    /// per octave, the lattice column, its smoothstepped weight and the
    /// hashing round that depends on the column alone. A caller sampling a
    /// grid computes it once per column and passes it to
    /// [`NoiseCursor::sample_axis`] with the same `scale` on every row.
    pub fn axis(&self, x: f64, scale: f64) -> NoiseAxis {
        let mut axis = NoiseAxis::default();
        let mut frequency = scale;
        for octave in &mut axis.octaves[..self.octaves as usize] {
            let split = LatticeSplit::at(x * frequency);
            *octave = AxisOctave {
                split,
                column_hashes: [
                    self.column_hash(split.cell),
                    self.column_hash(split.cell.wrapping_add(1)),
                ],
            };
            frequency *= 2.0;
        }
        axis
    }

    /// The first of the three lattice hashing rounds, which depends only on
    /// the lattice column `x`.
    fn column_hash(&self, x: i64) -> u64 {
        let h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        splitmix(h ^ (x as u64).wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// The lattice value at column hash `column_hash` (of `x`), row `y`.
    fn lattice_value(column_hash: u64, y: i64, octave: u32) -> f64 {
        let mut h = splitmix(column_hash ^ (y as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        h = splitmix(h ^ u64::from(octave).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // `h >> 11` is below 2⁵³, so the signed conversion (one instruction,
        // unlike the unsigned one) is exact.
        (h >> 11) as i64 as f64 / (1u64 << 53) as f64
    }
}

/// The x half of a [`FractalNoise`] sample, made by [`FractalNoise::axis`]:
/// per octave, the lattice column `x` falls in, its smoothstepped
/// interpolation weight and the column hashes of the cell's two lattice
/// columns. It lives on the stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoiseAxis {
    octaves: [AxisOctave; MAX_OCTAVES as usize],
}

/// One octave of a [`NoiseAxis`]: the split of `x` and the column hashes
/// of its cell's two lattice columns.
#[derive(Debug, Clone, Copy, Default)]
struct AxisOctave {
    split: LatticeSplit,
    column_hashes: [u64; 2],
}

/// A [`FractalNoise`] sampler with a one-cell lattice cache per octave.
///
/// Lattice values are a pure function of the cell, so reusing them cannot
/// change a bit: every sample is identical to [`FractalNoise::sample`] at
/// the same point, in any order. The cache pays off when consecutive
/// samples land in the same cell (all four corners reused) or in its
/// right-hand neighbour (two reused, two hashed) — the common case when
/// one call site is walked across a scanline. Each octave also remembers
/// the split of the last row coordinate it saw, so samples along one row
/// floor and smoothstep `y` once per octave. Keep one cursor per call site
/// so sites sampling at different scales do not evict each other.
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
    /// Per-octave amplitudes `persistence^octave`, by repeated products.
    amplitudes: [f64; MAX_OCTAVES as usize],
    /// The sum of `amplitudes`, accumulated in octave order.
    amplitude_sum: f64,
    cells: [LatticeCell; MAX_OCTAVES as usize],
}

impl NoiseCursor<'_> {
    /// Samples the fractal noise at `(x, y)` with base lattice frequency
    /// `scale`; bit-identical to [`FractalNoise::sample`].
    pub fn sample(&mut self, x: f64, y: f64, scale: f64) -> f64 {
        self.sample_axis(&self.noise.axis(x, scale), y, scale)
    }

    /// Samples the fractal noise at `(x, y)`, where `axis` is
    /// [`FractalNoise::axis`]`(x, scale)` of this cursor's noise;
    /// bit-identical to [`Self::sample`]`(x, y, scale)`.
    pub fn sample_axis(&mut self, axis: &NoiseAxis, y: f64, scale: f64) -> f64 {
        let octaves = self.noise.octaves as usize;
        let layers = (self.cells[..octaves].iter_mut())
            .zip(&axis.octaves)
            .zip(&self.amplitudes);
        let mut frequency = scale;
        let mut total = 0.0;
        for (octave, ((cell, column), amplitude)) in (0..).zip(layers) {
            total += amplitude * cell.sample(column, y * frequency, octave);
            frequency *= 2.0;
        }
        (total / self.amplitude_sum).clamp(0.0, 1.0)
    }
}

/// A lattice coordinate split into its cell and the smoothstepped
/// position inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct LatticeSplit {
    /// `floor(t)`, saturated to the `i64` range (0 for NaN).
    cell: i64,
    /// `smoothstep(t - floor(t))`.
    weight: f64,
}

impl LatticeSplit {
    fn at(t: f64) -> Self {
        // Below 2⁵² every float truncates exactly to an `i64`, and stepping
        // down once for negative non-integers gives the floor; the
        // truncation is one instruction where `f64::floor` is a libm call.
        // Larger magnitudes, ±∞ and NaN take `f64::floor`. (For -0.0 the
        // float floor here is +0.0, which leaves the cell and the weight
        // unchanged.)
        let (cell, floor) = if t.abs() < 4_503_599_627_370_496.0 {
            let cell = t as i64;
            let floor = cell as f64;
            if floor > t {
                (cell - 1, floor - 1.0)
            } else {
                (cell, floor)
            }
        } else {
            let floor = t.floor();
            // The cast saturates, so the `+ 1` neighbours wrap rather than
            // overflow.
            (floor as i64, floor)
        };
        LatticeSplit {
            cell,
            weight: smoothstep(t - floor),
        }
    }
}

/// The last lattice cell one octave sampled and its corner values.
#[derive(Debug, Clone, Copy)]
struct LatticeCell {
    /// `(x0, y0)` of the cached cell; `None` until the first sample.
    origin: Option<(i64, i64)>,
    /// Corner values `[v00, v10, v01, v11]`.
    corners: [f64; 4],
    /// `to_bits` of the last row coordinate, and its split.
    row_key: u64,
    row: LatticeSplit,
}

impl LatticeCell {
    /// Starts with the split of `y = 0.0`, which is exactly
    /// `LatticeSplit::at(0.0)`, so the row memo needs no empty state.
    const EMPTY: LatticeCell = LatticeCell {
        origin: None,
        corners: [0.0; 4],
        row_key: 0,
        row: LatticeSplit {
            cell: 0,
            weight: 0.0,
        },
    };

    /// Bilinearly interpolates the smoothstepped lattice at `(x, y)`, given
    /// the split of `x`, hashing only the corners the cached cell cannot
    /// supply.
    fn sample(&mut self, column: &AxisOctave, y: f64, octave: u32) -> f64 {
        if y.to_bits() != self.row_key {
            self.row_key = y.to_bits();
            self.row = LatticeSplit::at(y);
        }
        let (x0, fx) = (column.split.cell, column.split.weight);
        let (y0, fy) = (self.row.cell, self.row.weight);
        if self.origin != Some((x0, y0)) {
            let y1 = y0.wrapping_add(1);
            let [h0, h1] = column.column_hashes;
            let [v00, v01] = match self.origin {
                Some(origin) if origin == (x0.wrapping_sub(1), y0) => {
                    [self.corners[1], self.corners[3]]
                }
                _ => [
                    FractalNoise::lattice_value(h0, y0, octave),
                    FractalNoise::lattice_value(h0, y1, octave),
                ],
            };
            self.corners = [
                v00,
                FractalNoise::lattice_value(h1, y0, octave),
                v01,
                FractalNoise::lattice_value(h1, y1, octave),
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
    fn the_empty_row_memo_is_the_split_of_zero() {
        assert_eq!(LatticeCell::EMPTY.row_key, 0.0f64.to_bits());
        assert_eq!(LatticeCell::EMPTY.row, LatticeSplit::at(0.0));
    }

    #[test]
    #[should_panic]
    fn invalid_persistence_panics() {
        let _ = FractalNoise::new(1, 3, 1.5);
    }
}
