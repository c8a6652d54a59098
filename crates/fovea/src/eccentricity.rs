//! Cached eccentricity maps and the foveal-bypass configuration.

use crate::geometry::{angle_deg, cos_between, unit_direction, DisplayGeometry, GazePoint};
use pvc_frame::{TileGrid, TileRect};
use serde::{Deserialize, Serialize};

/// Configuration of the foveal bypass region.
///
/// Following the paper's methodology (Sec. 5.1), pixels in the central
/// region around fixation are not adjusted: foveal color discrimination is
/// too precise to exploit safely. The default radius corresponds to the
/// central 10° field of view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FoveaConfig {
    /// Eccentricity (degrees) below which pixels are left untouched.
    pub bypass_radius_deg: f64,
}

impl Default for FoveaConfig {
    fn default() -> Self {
        // Central 10° FoV → 5° radius around fixation.
        FoveaConfig {
            bypass_radius_deg: 5.0,
        }
    }
}

impl FoveaConfig {
    /// Creates a configuration with an explicit bypass radius.
    ///
    /// # Panics
    ///
    /// Panics if the radius is negative.
    pub fn new(bypass_radius_deg: f64) -> Self {
        assert!(
            bypass_radius_deg >= 0.0,
            "bypass radius must be non-negative"
        );
        FoveaConfig { bypass_radius_deg }
    }

    /// A configuration that disables the bypass entirely (every pixel is
    /// eligible for adjustment). Useful for ablation studies.
    pub fn disabled() -> Self {
        FoveaConfig {
            bypass_radius_deg: 0.0,
        }
    }

    /// True if a pixel at the given eccentricity must be left untouched.
    #[inline]
    pub fn is_foveal(&self, eccentricity_deg: f64) -> bool {
        eccentricity_deg < self.bypass_radius_deg
    }
}

/// Per-tile eccentricities for one frame and gaze position.
///
/// The encoder only needs one eccentricity per tile (the discrimination
/// thresholds vary slowly across a 4×4 block), so the map is computed at
/// tile centers. The map also records, per tile, whether the tile's center
/// or any of its four corners falls inside the foveal bypass region; a tile
/// so marked is left unadjusted.
///
/// That is a five-point sample of the tile, not an exact overlap test: the
/// edge of the bypass region can reach a covered pixel between two corners
/// without reaching either. At 256×256 with the default 5° radius, 22 of
/// 4,000 random gazes left a pixel center inside 5° in an unmarked 8-pixel
/// tile; with 4-pixel tiles none did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EccentricityMap {
    tiles_x: u32,
    tiles_y: u32,
    tile_size: u32,
    eccentricity_deg: Vec<f64>,
    foveal: Vec<bool>,
}

impl EccentricityMap {
    /// Computes the per-tile eccentricity map for `grid` as seen on `display`
    /// while the user fixates `gaze`.
    ///
    /// # Panics
    ///
    /// Panics if the grid does not match the display dimensions.
    pub fn per_tile(
        display: &DisplayGeometry,
        grid: &TileGrid,
        gaze: GazePoint,
        fovea: FoveaConfig,
    ) -> Self {
        assert_eq!(
            grid.dimensions(),
            display.dimensions(),
            "tile grid and display dimensions must match"
        );
        let tiles_x = grid.tiles_x();
        let tiles_y = grid.tiles_y();
        let tile_size = grid.tile_size();
        let dimensions = grid.dimensions();
        let projection = display.projection();
        let gaze_direction = unit_direction(projection.dx(gaze.x), projection.dy(gaze.y));
        let cos_to_gaze = |dx: f64, dy: f64| cos_between(unit_direction(dx, dy), gaze_direction);

        // The projection is separable: `dx` depends only on the column and
        // `dy` only on the row, so both are computed once per lattice line.
        // Lattice line `i` is tile `i`'s near edge; the last one is the
        // frame's far edge, where a partial edge tile ends.
        let edges = |tiles: u32, extent: u32| {
            (0..tiles)
                .map(move |i| f64::from(i * tile_size))
                .chain(std::iter::once(f64::from(extent)))
        };
        let corner_dx: Vec<f64> = edges(tiles_x, dimensions.width)
            .map(|x| projection.dx(x))
            .collect();
        let corner_dy: Vec<f64> = edges(tiles_y, dimensions.height)
            .map(|y| projection.dy(y))
            .collect();
        let center_dx: Vec<f64> = (0..tiles_x)
            .map(|tx| projection.dx(grid.tile(tx, 0).center().0))
            .collect();
        let center_dy: Vec<f64> = (0..tiles_y)
            .map(|ty| projection.dy(grid.tile(0, ty).center().1))
            .collect();

        // Each corner is shared by up to four tiles, so the lattice tests it
        // once. A corner whose cosine to the gaze is below cos(radius + 1°)
        // lies more than a degree outside the bypass region, far beyond any
        // rounding, and needs no `acos`. The cosine stops falling at 180°,
        // where the cut is -1 and every corner takes the exact test.
        let cos_cut = (fovea.bypass_radius_deg + 1.0)
            .min(180.0)
            .to_radians()
            .cos();
        let stride = corner_dx.len();
        let mut corner_foveal = Vec::with_capacity(stride * corner_dy.len());
        for &dy in &corner_dy {
            for &dx in &corner_dx {
                let cos = cos_to_gaze(dx, dy);
                corner_foveal.push(cos >= cos_cut && fovea.is_foveal(angle_deg(cos)));
            }
        }

        let mut eccentricity_deg = Vec::with_capacity(grid.tile_count());
        let mut foveal = Vec::with_capacity(grid.tile_count());
        for (ty, &dy) in center_dy.iter().enumerate() {
            let top = &corner_foveal[ty * stride..(ty + 1) * stride];
            let bottom = &corner_foveal[(ty + 1) * stride..(ty + 2) * stride];
            for (tx, &dx) in center_dx.iter().enumerate() {
                let center_ecc = angle_deg(cos_to_gaze(dx, dy));
                eccentricity_deg.push(center_ecc);
                foveal.push(
                    fovea.is_foveal(center_ecc)
                        || top[tx]
                        || top[tx + 1]
                        || bottom[tx]
                        || bottom[tx + 1],
                );
            }
        }
        EccentricityMap {
            tiles_x,
            tiles_y,
            tile_size: grid.tile_size(),
            eccentricity_deg,
            foveal,
        }
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// The tile size the map was built for.
    #[inline]
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Eccentricity (degrees) of the tile whose top-left corner is the given
    /// tile rectangle.
    ///
    /// # Panics
    ///
    /// Panics if the tile does not belong to the grid the map was built for.
    pub fn tile_eccentricity(&self, tile: TileRect) -> f64 {
        self.eccentricity_deg[self.index_of(tile)]
    }

    /// True if the tile's center or one of its corners lies inside the
    /// foveal bypass region, so the tile must be left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the tile does not belong to the grid the map was built for.
    pub fn is_foveal_tile(&self, tile: TileRect) -> bool {
        self.foveal[self.index_of(tile)]
    }

    /// Fraction of tiles that are foveal (bypassed).
    pub fn foveal_fraction(&self) -> f64 {
        if self.foveal.is_empty() {
            return 0.0;
        }
        self.foveal.iter().filter(|&&f| f).count() as f64 / self.foveal.len() as f64
    }

    fn index_of(&self, tile: TileRect) -> usize {
        assert_eq!(
            tile.x % self.tile_size,
            0,
            "tile is not aligned to the map's grid"
        );
        assert_eq!(
            tile.y % self.tile_size,
            0,
            "tile is not aligned to the map's grid"
        );
        let tx = tile.x / self.tile_size;
        let ty = tile.y / self.tile_size;
        assert!(
            tx < self.tiles_x && ty < self.tiles_y,
            "tile outside the map"
        );
        (ty * self.tiles_x + tx) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_frame::Dimensions;

    fn setup() -> (DisplayGeometry, TileGrid) {
        let dims = Dimensions::new(256, 224);
        (DisplayGeometry::quest2_like(dims), TileGrid::new(dims, 4))
    }

    #[test]
    fn foveal_config_defaults_to_five_degrees() {
        let f = FoveaConfig::default();
        assert!(f.is_foveal(4.9));
        assert!(!f.is_foveal(5.1));
        assert!(!FoveaConfig::disabled().is_foveal(0.0));
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        let _ = FoveaConfig::new(-1.0);
    }

    #[test]
    fn map_has_one_entry_per_tile() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        assert_eq!(map.tiles_x(), grid.tiles_x());
        assert_eq!(map.tiles_y(), grid.tiles_y());
        assert_eq!(map.tile_size(), 4);
    }

    #[test]
    fn central_tiles_are_foveal_corner_tiles_are_not() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        let center_tile = grid.tile(grid.tiles_x() / 2, grid.tiles_y() / 2);
        let corner_tile = grid.tile(0, 0);
        assert!(map.is_foveal_tile(center_tile));
        assert!(!map.is_foveal_tile(corner_tile));
        assert!(map.tile_eccentricity(corner_tile) > map.tile_eccentricity(center_tile));
    }

    #[test]
    fn foveal_fraction_is_small_for_wide_fov() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        let frac = map.foveal_fraction();
        assert!(frac > 0.0 && frac < 0.15, "foveal fraction {frac}");
    }

    #[test]
    fn disabled_fovea_bypasses_nothing() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::disabled());
        assert_eq!(map.foveal_fraction(), 0.0);
    }

    #[test]
    #[should_panic]
    fn misaligned_tile_lookup_panics() {
        let (display, grid) = setup();
        let gaze = GazePoint::center_of(display.dimensions());
        let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
        let bogus = TileRect {
            x: 2,
            y: 0,
            width: 4,
            height: 4,
        };
        let _ = map.tile_eccentricity(bogus);
    }
}
