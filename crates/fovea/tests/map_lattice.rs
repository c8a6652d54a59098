//! `EccentricityMap::per_tile` against the five-point oracle.
//!
//! The map evaluates each tile corner once, on a shared
//! `(tiles_x + 1) × (tiles_y + 1)` lattice whose last column and row sit
//! on the frame's far edge, with the projection hoisted out of the loop.
//! The oracle below is the plain per-tile loop it replaces: the tile
//! center and its four corners, each through
//! `DisplayGeometry::eccentricity_deg`. For every tile, the map's
//! eccentricity must have the oracle's exact bits and its foveal flag must
//! equal the oracle's, over:
//!
//! * odd frame sizes with partial edge tiles (37×29, 45×19, 1×1) and a
//!   whole-tile 64×48, at every tile size 1–16;
//! * bypass radii 0, 5, 40, 179, 179.8, 200, 300 and ∞ degrees (past 180°
//!   a cosine no longer orders eccentricities), on a Quest-2 field of
//!   view, a narrow one, a 170° one and a 179.9° one, where a gaze far
//!   off one side puts corners within a degree of 180°;
//! * gazes on-screen, off-screen (up to 10⁴ frames away), fractional and
//!   at integer positions;
//! * radii set to a corner's own eccentricity and the next float above it,
//!   where a corner's foveal flag turns on the last bit of `acos`;
//! * a seeded sweep of random sizes, tile sizes, gazes and radii.

use pvc_fovea::{DisplayGeometry, EccentricityMap, FoveaConfig, GazePoint};
use pvc_frame::{Dimensions, TileGrid};

/// Per-tile eccentricities and foveal flags, as the map computed them
/// before the corner lattice: five independent eccentricities per tile.
fn oracle(
    display: &DisplayGeometry,
    grid: &TileGrid,
    gaze: GazePoint,
    fovea: FoveaConfig,
) -> Vec<(f64, bool)> {
    grid.tiles()
        .map(|tile| {
            let (cx, cy) = tile.center();
            let center_ecc = display.eccentricity_deg(cx, cy, gaze);
            let corners = [
                (f64::from(tile.x), f64::from(tile.y)),
                (f64::from(tile.x + tile.width), f64::from(tile.y)),
                (f64::from(tile.x), f64::from(tile.y + tile.height)),
                (
                    f64::from(tile.x + tile.width),
                    f64::from(tile.y + tile.height),
                ),
            ];
            let any_foveal = fovea.is_foveal(center_ecc)
                || corners
                    .iter()
                    .any(|&(x, y)| fovea.is_foveal(display.eccentricity_deg(x, y, gaze)));
            (center_ecc, any_foveal)
        })
        .collect()
}

/// Builds the map and compares every tile with the oracle; returns the
/// number of foveal tiles so callers can check a case is not vacuous.
fn assert_matches_oracle(
    display: &DisplayGeometry,
    tile_size: u32,
    gaze: GazePoint,
    radius: f64,
) -> usize {
    let grid = TileGrid::new(display.dimensions(), tile_size);
    let fovea = FoveaConfig {
        bypass_radius_deg: radius,
    };
    let map = EccentricityMap::per_tile(display, &grid, gaze, fovea);
    let expected = oracle(display, &grid, gaze, fovea);
    assert_eq!(map.tiles_x(), grid.tiles_x());
    assert_eq!(map.tiles_y(), grid.tiles_y());
    let mut foveal = 0;
    for (tile, &(ecc, is_foveal)) in grid.tiles().zip(&expected) {
        let case = || {
            format!(
                "{:?} tile {tile_size} gaze {gaze:?} radius {radius} tile {tile:?}",
                display.dimensions()
            )
        };
        assert_eq!(
            map.tile_eccentricity(tile).to_bits(),
            ecc.to_bits(),
            "eccentricity of {}",
            case()
        );
        assert_eq!(
            map.is_foveal_tile(tile),
            is_foveal,
            "foveal flag of {}",
            case()
        );
        foveal += usize::from(is_foveal);
    }
    foveal
}

fn gazes(dims: Dimensions) -> Vec<GazePoint> {
    let (w, h) = (f64::from(dims.width), f64::from(dims.height));
    vec![
        GazePoint::center_of(dims),
        GazePoint::new(0.0, 0.0),
        GazePoint::new(w, h),
        GazePoint::new((w / 3.0).floor(), (h / 2.0).floor()),
        GazePoint::new(w - 1.0, 1.0),
        GazePoint::new(w * 0.37, h * 0.61),
        GazePoint::new(-20.0, -7.0),
        GazePoint::new(w + 30.0, h * 0.5),
        GazePoint::new(w * 0.5, -3.0 * h),
        GazePoint::new(-1e4 * w, h * 0.5),
    ]
}

#[test]
fn partial_edge_tiles_every_tile_size_radius_and_gaze() {
    let sizes = [(37, 29), (45, 19), (1, 1), (64, 48)];
    let radii = [0.0, 5.0, 40.0, 179.0, 179.8, 200.0, 300.0, f64::INFINITY];
    let mut foveal = 0;
    let mut maps = 0;
    for &(w, h) in &sizes {
        let dims = Dimensions::new(w, h);
        for display in [
            DisplayGeometry::quest2_like(dims),
            DisplayGeometry::new(dims, 30.0, 20.0),
            DisplayGeometry::new(dims, 170.0, 170.0),
            DisplayGeometry::new(dims, 179.9, 90.0),
        ] {
            for tile_size in 1..=16 {
                for &gaze in &gazes(dims) {
                    for &radius in &radii {
                        foveal += assert_matches_oracle(&display, tile_size, gaze, radius);
                        maps += 1;
                    }
                }
            }
        }
    }
    assert_eq!(maps, 4 * 4 * 16 * 10 * 8);
    assert!(foveal > 0, "no case marked a tile foveal");
}

/// A radius equal to a corner's own eccentricity leaves that corner just
/// outside the bypass region, and the next float above it puts it just
/// inside: the foveal flag then depends on the last bit of the corner's
/// `acos`, so any shortcut that decides a corner without it shows here.
#[test]
fn radii_on_a_corner_eccentricity() {
    for (w, h, tile_size) in [(45, 19, 4), (37, 29, 5), (64, 48, 16)] {
        let dims = Dimensions::new(w, h);
        let display = DisplayGeometry::quest2_like(dims);
        let grid = TileGrid::new(dims, tile_size);
        let xs: Vec<u32> = (0..grid.tiles_x())
            .map(|tx| tx * tile_size)
            .chain([w])
            .collect();
        let ys: Vec<u32> = (0..grid.tiles_y())
            .map(|ty| ty * tile_size)
            .chain([h])
            .collect();
        for &gaze in &gazes(dims) {
            for &y in &ys {
                for &x in &xs {
                    let e = display.eccentricity_deg(f64::from(x), f64::from(y), gaze);
                    for radius in [e, e.next_up()] {
                        assert_matches_oracle(&display, tile_size, gaze, radius);
                    }
                }
            }
        }
    }
}

/// Random sizes up to 300×170, tile sizes 1–16, gazes up to a frame
/// beyond every edge and radii 0–60°, from a fixed seed.
#[test]
fn seeded_random_maps() {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % n
    };
    for _ in 0..300 {
        let dims = Dimensions::new(1 + next(300) as u32, 1 + next(170) as u32);
        let tile_size = 1 + next(16) as u32;
        let (w, h) = (f64::from(dims.width), f64::from(dims.height));
        let gaze = GazePoint::new(
            (next(3001) as f64 / 1000.0 - 1.0) * w,
            (next(3001) as f64 / 1000.0 - 1.0) * h,
        );
        let radius = next(601) as f64 / 10.0;
        assert_matches_oracle(&DisplayGeometry::quest2_like(dims), tile_size, gaze, radius);
    }
}
