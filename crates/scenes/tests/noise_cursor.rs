//! A reused `NoiseCursor` must be bit-identical to `FractalNoise::sample`
//! at every point of any walk: its per-octave lattice cache may only save
//! hashing, never change a value.

use proptest::prelude::*;
use pvc_scenes::{FractalNoise, MAX_OCTAVES};

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
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..5, 0.0..1.0f64).prop_map(|(kind, t)| match kind {
        0 => Step::Nudge(0.0),
        1 => Step::Nudge(t * 0.3),
        2 => Step::NextCell,
        3 => Step::Back(t * 4.0),
        _ => Step::NewRow(t),
    })
}

proptest! {
    #[test]
    fn reused_cursor_matches_fresh_samples_over_random_walks(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES,
        persistence in 0.05..=1.0f64,
        scale in 0.25..32.0f64,
        start in (-40.0..40.0f64, -40.0..40.0f64),
        steps in proptest::collection::vec(arb_step(), 1..160),
    ) {
        let noise = FractalNoise::new(seed, octaves, persistence);
        let mut cursor = noise.cursor();
        let cell = 1.0 / scale;
        let (mut x, mut y) = start;
        for step in steps {
            match step {
                Step::Nudge(dx) => x += dx * cell,
                Step::NextCell => x += cell,
                Step::Back(dx) => x -= dx * cell,
                Step::NewRow(dy) => {
                    x = start.0;
                    y += dy * cell;
                }
            }
            let cached = cursor.sample(x, y, scale);
            let fresh = noise.sample(x, y, scale);
            prop_assert_eq!(
                cached.to_bits(),
                fresh.to_bits(),
                "cursor sample at ({}, {}) scale {} drifted: {} vs {}",
                x,
                y,
                scale,
                cached,
                fresh
            );
        }
    }

    #[test]
    fn cursor_on_lattice_lines_matches_fresh_samples(
        seed in any::<u64>(),
        octaves in 1u32..=MAX_OCTAVES,
        start in (0u32..80).prop_map(|x| f64::from(x) - 40.0),
        moves in proptest::collection::vec(0u8..4, 1..96),
    ) {
        // Integer coordinates sit exactly on cell boundaries, where `floor`
        // decides the cell and the interpolation weight is zero.
        let noise = FractalNoise::new(seed, octaves, 0.5);
        let mut cursor = noise.cursor();
        let (mut x, mut y) = (start, -1.0);
        for step in moves {
            match step {
                0 => {}
                1 => x += 1.0,
                2 => x -= 3.0,
                _ => (x, y) = (start, y + 1.0),
            }
            prop_assert_eq!(
                cursor.sample(x, y, 1.0).to_bits(),
                noise.sample(x, y, 1.0).to_bits(),
                "({}, {})",
                x,
                y
            );
        }
    }
}
