//! `FractalNoise::sample`, a reused `NoiseCursor` and its `sample_axis`
//! must all be bit-identical to a plain reference of the noise at every
//! point of any walk: the cursor's per-octave lattice and row caches, the
//! per-column axis and the cheap floor may only save work, never change a
//! value.
//!
//! The reference shares no code with the crate. Per sample it recomputes
//! the persistence and the amplitude sum, and per octave it calls
//! `f64::floor`, hashes all four lattice corners afresh and converts the
//! hash with `u64 as f64`.

use proptest::prelude::*;
use pvc_scenes::{FractalNoise, MAX_OCTAVES};

/// The noise field exactly as specified, with nothing cached or hoisted.
struct Reference {
    seed: u64,
    octaves: u32,
    persistence: f64,
}

impl Reference {
    fn new(seed: u64, octaves: u32, persistence: f64) -> Self {
        Reference {
            seed,
            octaves,
            persistence,
        }
    }

    fn sample(&self, x: f64, y: f64, scale: f64) -> f64 {
        // `FractalNoise` stores the persistence in thousandths.
        let persistence = f64::from((self.persistence * 1000.0).round() as u32) / 1000.0;
        let mut amplitude = 1.0;
        let mut frequency = scale;
        let mut total = 0.0;
        let mut max_total = 0.0;
        for octave in 0..self.octaves {
            total += amplitude * self.octave(x * frequency, y * frequency, octave);
            max_total += amplitude;
            amplitude *= persistence;
            frequency *= 2.0;
        }
        (total / max_total).clamp(0.0, 1.0)
    }

    /// Bilinear interpolation of the smoothstepped lattice at `(x, y)`.
    fn octave(&self, x: f64, y: f64, octave: u32) -> f64 {
        let (x0, y0) = (x.floor(), y.floor());
        let fx = smoothstep(x - x0);
        let fy = smoothstep(y - y0);
        // Saturating casts; the `+ 1` neighbours wrap.
        let (x0, y0) = (x0 as i64, y0 as i64);
        let (x1, y1) = (x0.wrapping_add(1), y0.wrapping_add(1));
        let v00 = self.lattice(x0, y0, octave);
        let v10 = self.lattice(x1, y0, octave);
        let v01 = self.lattice(x0, y1, octave);
        let v11 = self.lattice(x1, y1, octave);
        let top = v00 + (v10 - v00) * fx;
        let bottom = v01 + (v11 - v01) * fx;
        top + (bottom - top) * fy
    }

    fn lattice(&self, x: i64, y: i64, octave: u32) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h = splitmix(h ^ (x as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        h = splitmix(h ^ (y as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
        h = splitmix(h ^ u64::from(octave).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        (h >> 11) as f64 / (1u64 << 53) as f64
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

/// One noise field sampled three ways, each checked against the
/// reference: fresh `FractalNoise::sample`, a reused cursor's `sample`,
/// and a second reused cursor's `sample_axis`.
struct Samplers {
    noise: FractalNoise,
    reference: Reference,
}

impl Samplers {
    fn new(seed: u64, octaves: u32, persistence: f64) -> Self {
        Samplers {
            noise: FractalNoise::new(seed, octaves, persistence),
            reference: Reference::new(seed, octaves, persistence),
        }
    }

    /// Walks `points`, returning a description of the first sample that
    /// differs from the reference.
    fn check_walk(&self, scale: f64, points: &[(f64, f64)]) -> Result<(), String> {
        let mut cursor = self.noise.cursor();
        let mut axis_cursor = self.noise.cursor();
        for &(x, y) in points {
            let want = self.reference.sample(x, y, scale);
            let got = [
                ("FractalNoise::sample", self.noise.sample(x, y, scale)),
                ("cursor sample", cursor.sample(x, y, scale)),
                (
                    "cursor sample_axis",
                    axis_cursor.sample_axis(&self.noise.axis(x, scale), y, scale),
                ),
            ];
            for (what, value) in got {
                // Rust leaves the sign and payload of a NaN result
                // unspecified, so any NaN matches a NaN.
                if value.to_bits() != want.to_bits() && !(value.is_nan() && want.is_nan()) {
                    return Err(format!(
                        "{what} at ({x:e}, {y:e}) scale {scale} is {value} ({:#018X}), \
                         reference {want} ({:#018X})",
                        value.to_bits(),
                        want.to_bits()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One move of the walk, in units of the base lattice cell `1 / scale`.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Stay put or move within a fraction of a cell: mostly cache hits.
    Nudge(f64),
    /// Move exactly one base cell to the right: the neighbour-reuse path
    /// at the base octave, larger jumps at the finer ones.
    NextCell,
    /// Jump backwards by up to a few cells.
    Back(f64),
    /// Start a new scanline: back to the walk's start column, one row
    /// further down.
    NewRow(f64),
    /// Swap to the other of two rows, as a renderer does when one strip
    /// row ends and the next begins: the row memo must re-key each time.
    OtherRow,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..6, 0.0..1.0f64).prop_map(|(kind, t)| match kind {
        0 => Step::Nudge(0.0),
        1 => Step::Nudge(t * 0.3),
        2 => Step::NextCell,
        3 => Step::Back(t * 4.0),
        4 => Step::NewRow(t),
        _ => Step::OtherRow,
    })
}

/// Coordinates where the floor, the saturating casts or the row memo's
/// initial key could go wrong.
const EDGES: [f64; 20] = [
    0.0,
    -0.0,
    0.5,
    -0.5,
    -1.0,
    -2.0,
    -7.0,
    -1e-17,
    4_503_599_627_370_495.0,  // 2⁵² - 1
    4_503_599_627_370_495.5,  // 2⁵² - 0.5, the last non-integer
    4_503_599_627_370_497.0,  // 2⁵² + 1
    -4_503_599_627_370_495.5, // -(2⁵² - 0.5)
    -4_503_599_627_370_497.0, // -(2⁵² + 1)
    4_503_599_627_370_496.0,  // 2⁵²
    1e19,
    -1e19,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MAX,
];

#[test]
fn edge_coordinates_match_the_reference() {
    let points: Vec<(f64, f64)> = EDGES
        .iter()
        .flat_map(|&x| EDGES.iter().map(move |&y| (x, y)))
        .collect();
    for octaves in [1, 4, MAX_OCTAVES] {
        let samplers = Samplers::new(0xED6E, octaves, 0.55);
        for scale in [1.0, 0.5, 3.0] {
            if let Err(message) = samplers.check_walk(scale, &points) {
                panic!("{octaves} octaves: {message}");
            }
        }
    }
}

proptest! {
    #[test]
    fn samplers_match_the_reference_over_random_walks(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES,
        persistence in 0.05..=1.0f64,
        scale in 0.25..32.0f64,
        start in (-40.0..40.0f64, -40.0..40.0f64),
        other_row in -3.0..3.0f64,
        steps in proptest::collection::vec(arb_step(), 1..160),
    ) {
        let cell = 1.0 / scale;
        let (mut x, mut y) = start;
        let mut other_y = start.1 + other_row * cell;
        let mut points = Vec::with_capacity(steps.len());
        for step in steps {
            match step {
                Step::Nudge(dx) => x += dx * cell,
                Step::NextCell => x += cell,
                Step::Back(dx) => x -= dx * cell,
                Step::NewRow(dy) => {
                    x = start.0;
                    y += dy * cell;
                }
                Step::OtherRow => std::mem::swap(&mut y, &mut other_y),
            }
            points.push((x, y));
        }
        let samplers = Samplers::new(seed, octaves, persistence);
        if let Err(message) = samplers.check_walk(scale, &points) {
            prop_assert!(false, "{}", message);
        }
    }

    #[test]
    fn samplers_on_lattice_lines_match_the_reference(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES,
        start in (0u32..80).prop_map(|x| f64::from(x) - 40.0),
        moves in proptest::collection::vec(0u8..5, 1..96),
    ) {
        // Integer coordinates sit exactly on cell boundaries, where the
        // floor decides the cell and the interpolation weight is zero.
        let (mut x, mut y) = (start, -1.0);
        let mut points = Vec::with_capacity(moves.len());
        for step in moves {
            match step {
                0 => {}
                1 => x += 1.0,
                2 => x -= 3.0,
                3 => y = -y,
                _ => (x, y) = (start, y + 1.0),
            }
            points.push((x, y));
        }
        let samplers = Samplers::new(seed, octaves, 0.5);
        if let Err(message) = samplers.check_walk(1.0, &points) {
            prop_assert!(false, "{}", message);
        }
    }
}
