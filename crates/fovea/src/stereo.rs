//! Stereo (per-eye) frame layout.
//!
//! VR frames are rendered as two side-by-side sub-frames, one per eye
//! (Sec. 5.1 of the paper). Each eye has its own optical center and its own
//! gaze position; the eccentricity of a pixel is computed with respect to
//! the sub-frame it belongs to.

use crate::eccentricity::{EccentricityMap, FoveaConfig};
use crate::geometry::{DisplayGeometry, GazePoint};
use pvc_frame::{Dimensions, TileGrid};
use serde::{Deserialize, Serialize};

/// One of the two eyes of a stereo frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Eye {
    /// The left half of the frame.
    Left,
    /// The right half of the frame.
    Right,
}

impl Eye {
    /// Both eyes in left-to-right order.
    pub const BOTH: [Eye; 2] = [Eye::Left, Eye::Right];
}

/// The geometry of a stereo frame: two equally sized sub-frames side by
/// side, each covering the same monocular field of view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StereoGeometry {
    full: Dimensions,
    per_eye: DisplayGeometry,
}

impl StereoGeometry {
    /// Creates a stereo geometry for a full frame of the given dimensions
    /// with a per-eye field of view.
    ///
    /// # Panics
    ///
    /// Panics if the frame width is not even (each eye must get the same
    /// number of columns) or if the field of view is invalid.
    pub fn new(full: Dimensions, horizontal_fov_deg: f64, vertical_fov_deg: f64) -> Self {
        assert!(full.width % 2 == 0, "stereo frame width must be even");
        let per_eye = DisplayGeometry::new(
            Dimensions::new(full.width / 2, full.height),
            horizontal_fov_deg,
            vertical_fov_deg,
        );
        StereoGeometry { full, per_eye }
    }

    /// A stereo geometry with a Quest-2-like per-eye field of view.
    pub fn quest2_like(full: Dimensions) -> Self {
        StereoGeometry::new(full, 104.0, 98.0)
    }

    /// The monocular display geometry of one eye.
    #[inline]
    pub fn eye_geometry(&self) -> DisplayGeometry {
        self.per_eye
    }

    /// The eye a full-frame pixel column belongs to.
    #[inline]
    pub fn eye_of_column(&self, x: u32) -> Eye {
        if x < self.full.width / 2 {
            Eye::Left
        } else {
            Eye::Right
        }
    }

    /// Converts a full-frame pixel coordinate to the coordinate within its
    /// eye's sub-frame.
    #[inline]
    pub fn to_eye_coordinates(&self, x: f64, y: f64) -> (Eye, f64, f64) {
        let half = f64::from(self.full.width / 2);
        if x < half {
            (Eye::Left, x, y)
        } else {
            (Eye::Right, x - half, y)
        }
    }

    /// Eccentricity of a full-frame pixel given per-eye gaze positions
    /// (expressed in each eye's sub-frame coordinates).
    pub fn eccentricity_deg(
        &self,
        x: f64,
        y: f64,
        gaze_left: GazePoint,
        gaze_right: GazePoint,
    ) -> f64 {
        let (eye, ex, ey) = self.to_eye_coordinates(x, y);
        let gaze = match eye {
            Eye::Left => gaze_left,
            Eye::Right => gaze_right,
        };
        self.per_eye.eccentricity_deg(ex, ey, gaze)
    }

    /// Builds the per-tile eccentricity map of one eye's sub-frame.
    pub fn eye_eccentricity_map(
        &self,
        eye: Eye,
        tile_size: u32,
        gaze: GazePoint,
        fovea: FoveaConfig,
    ) -> EccentricityMap {
        let _ = eye; // both eyes share the same monocular geometry
        let grid = TileGrid::new(self.per_eye.dimensions(), tile_size);
        EccentricityMap::per_tile(&self.per_eye, &grid, gaze, fovea)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eye_split_by_column() {
        let s = StereoGeometry::quest2_like(Dimensions::new(800, 400));
        assert_eq!(s.eye_of_column(0), Eye::Left);
        assert_eq!(s.eye_of_column(399), Eye::Left);
        assert_eq!(s.eye_of_column(400), Eye::Right);
        assert_eq!(s.eye_of_column(799), Eye::Right);
    }

    #[test]
    fn eye_coordinates_are_local() {
        let s = StereoGeometry::quest2_like(Dimensions::new(800, 400));
        assert_eq!(s.to_eye_coordinates(100.0, 50.0), (Eye::Left, 100.0, 50.0));
        assert_eq!(s.to_eye_coordinates(500.0, 50.0), (Eye::Right, 100.0, 50.0));
    }

    #[test]
    fn mirrored_pixels_have_equal_eccentricity_for_central_gaze() {
        let s = StereoGeometry::quest2_like(Dimensions::new(800, 400));
        let gaze = GazePoint::center_of(s.eye_geometry().dimensions());
        let left = s.eccentricity_deg(120.0, 200.0, gaze, gaze);
        let right = s.eccentricity_deg(520.0, 200.0, gaze, gaze);
        assert!((left - right).abs() < 1e-9);
    }

    #[test]
    fn eye_maps_have_expected_tile_counts() {
        let s = StereoGeometry::quest2_like(Dimensions::new(256, 128));
        let gaze = GazePoint::center_of(s.eye_geometry().dimensions());
        let map = s.eye_eccentricity_map(Eye::Left, 4, gaze, FoveaConfig::default());
        assert_eq!(map.tiles_x(), 32);
        assert_eq!(map.tiles_y(), 32);
    }

    #[test]
    #[should_panic]
    fn odd_width_panics() {
        let _ = StereoGeometry::quest2_like(Dimensions::new(801, 400));
    }
}
