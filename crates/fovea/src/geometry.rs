//! Pinhole display geometry and gaze.

use pvc_frame::Dimensions;
use serde::{Deserialize, Serialize};

/// A gaze (fixation) position in pixel coordinates of a frame or sub-frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GazePoint {
    /// Horizontal pixel coordinate.
    pub x: f64,
    /// Vertical pixel coordinate.
    pub y: f64,
}

impl GazePoint {
    /// Creates a gaze point.
    pub const fn new(x: f64, y: f64) -> Self {
        GazePoint { x, y }
    }

    /// The gaze point at the geometric center of a frame.
    pub fn center_of(dimensions: Dimensions) -> Self {
        GazePoint {
            x: f64::from(dimensions.width) * 0.5,
            y: f64::from(dimensions.height) * 0.5,
        }
    }
}

/// A flat display seen through a pinhole with a given field of view.
///
/// Pixels are mapped to viewing directions with the usual perspective
/// projection; the eccentricity of a pixel is the angle between its viewing
/// direction and the gaze direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisplayGeometry {
    dimensions: Dimensions,
    horizontal_fov_deg: f64,
    vertical_fov_deg: f64,
}

impl DisplayGeometry {
    /// Creates a display geometry.
    ///
    /// # Panics
    ///
    /// Panics if either field of view is not in the open interval (0°, 180°).
    pub fn new(dimensions: Dimensions, horizontal_fov_deg: f64, vertical_fov_deg: f64) -> Self {
        assert!(
            horizontal_fov_deg > 0.0 && horizontal_fov_deg < 180.0,
            "horizontal FoV must be in (0, 180) degrees"
        );
        assert!(
            vertical_fov_deg > 0.0 && vertical_fov_deg < 180.0,
            "vertical FoV must be in (0, 180) degrees"
        );
        DisplayGeometry {
            dimensions,
            horizontal_fov_deg,
            vertical_fov_deg,
        }
    }

    /// A geometry with the ~104°×98° per-eye field of view of an immersive
    /// VR headset such as the Quest 2.
    pub fn quest2_like(dimensions: Dimensions) -> Self {
        DisplayGeometry::new(dimensions, 104.0, 98.0)
    }

    /// The pixel dimensions of the display (or sub-frame).
    #[inline]
    pub fn dimensions(&self) -> Dimensions {
        self.dimensions
    }

    /// Horizontal field of view in degrees.
    #[inline]
    pub fn horizontal_fov_deg(&self) -> f64 {
        self.horizontal_fov_deg
    }

    /// Vertical field of view in degrees.
    #[inline]
    pub fn vertical_fov_deg(&self) -> f64 {
        self.vertical_fov_deg
    }

    /// The projection constants of this display, for callers that map
    /// many coordinates at once.
    pub(crate) fn projection(&self) -> Projection {
        Projection {
            half_w: f64::from(self.dimensions.width) * 0.5,
            half_h: f64::from(self.dimensions.height) * 0.5,
            tan_h: (self.horizontal_fov_deg.to_radians() * 0.5).tan(),
            tan_v: (self.vertical_fov_deg.to_radians() * 0.5).tan(),
        }
    }

    /// The unit viewing direction of a (possibly fractional) pixel
    /// coordinate, in a camera frame where +z looks into the scene.
    pub fn view_direction(&self, x: f64, y: f64) -> [f64; 3] {
        let projection = self.projection();
        unit_direction(projection.dx(x), projection.dy(y))
    }

    /// The retinal eccentricity (degrees) of the pixel at `(x, y)` when the
    /// user fixates `gaze`.
    pub fn eccentricity_deg(&self, x: f64, y: f64, gaze: GazePoint) -> f64 {
        let a = self.view_direction(x, y);
        let b = self.view_direction(gaze.x, gaze.y);
        angle_deg(cos_between(a, b))
    }

    /// Fraction of the display's pixels whose eccentricity exceeds
    /// `threshold_deg` for a given gaze, estimated on a subsampled grid.
    ///
    /// The paper motivates the approach by noting that, for a centrally
    /// fixated wide-FoV display, over 90% of pixels lie beyond 20°.
    pub fn fraction_beyond(&self, threshold_deg: f64, gaze: GazePoint) -> f64 {
        let step = (self.dimensions.width.max(self.dimensions.height) / 256).max(1);
        let mut total = 0usize;
        let mut beyond = 0usize;
        let mut y = 0;
        while y < self.dimensions.height {
            let mut x = 0;
            while x < self.dimensions.width {
                total += 1;
                if self.eccentricity_deg(f64::from(x) + 0.5, f64::from(y) + 0.5, gaze)
                    > threshold_deg
                {
                    beyond += 1;
                }
                x += step;
            }
            y += step;
        }
        beyond as f64 / total as f64
    }
}

/// The pinhole projection of one display, split so that the horizontal
/// and vertical image-plane coordinates of a pixel can be computed
/// separately: `dx` depends only on the column and `dy` only on the row.
///
/// Every eccentricity in the crate goes through these helpers, in this
/// operation order, so a map that precomputes `dx` per column and `dy` per
/// row gets the same bits as [`DisplayGeometry::eccentricity_deg`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Projection {
    half_w: f64,
    half_h: f64,
    tan_h: f64,
    tan_v: f64,
}

impl Projection {
    /// Horizontal image-plane coordinate (at unit depth) of column `x`.
    #[inline]
    pub(crate) fn dx(&self, x: f64) -> f64 {
        (x - self.half_w) / self.half_w * self.tan_h
    }

    /// Vertical image-plane coordinate (at unit depth) of row `y`.
    #[inline]
    pub(crate) fn dy(&self, y: f64) -> f64 {
        (y - self.half_h) / self.half_h * self.tan_v
    }
}

/// The unit direction through the image-plane point `(dx, dy, 1)`.
#[inline]
pub(crate) fn unit_direction(dx: f64, dy: f64) -> [f64; 3] {
    let norm = (dx * dx + dy * dy + 1.0).sqrt();
    [dx / norm, dy / norm, 1.0 / norm]
}

/// The cosine of the angle between two unit directions, clamped to
/// `[-1, 1]` against rounding.
#[inline]
pub(crate) fn cos_between(a: [f64; 3], b: [f64; 3]) -> f64 {
    (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]).clamp(-1.0, 1.0)
}

/// The angle (degrees) whose cosine is `cos`.
#[inline]
pub(crate) fn angle_deg(cos: f64) -> f64 {
    cos.acos().to_degrees()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display() -> DisplayGeometry {
        DisplayGeometry::quest2_like(Dimensions::new(1832, 1920))
    }

    #[test]
    fn gaze_center_has_zero_eccentricity() {
        let d = display();
        let gaze = GazePoint::center_of(d.dimensions());
        assert!(d.eccentricity_deg(gaze.x, gaze.y, gaze) < 1e-9);
    }

    #[test]
    fn eccentricity_grows_away_from_gaze() {
        let d = display();
        let gaze = GazePoint::center_of(d.dimensions());
        let mut prev = -1.0;
        for i in 0..10 {
            let x = gaze.x + f64::from(i) * 90.0;
            let e = d.eccentricity_deg(x, gaze.y, gaze);
            assert!(e > prev, "eccentricity must grow with distance from gaze");
            prev = e;
        }
    }

    #[test]
    fn horizontal_edge_is_half_the_fov() {
        let d = display();
        let gaze = GazePoint::center_of(d.dimensions());
        let e = d.eccentricity_deg(f64::from(d.dimensions().width), gaze.y, gaze);
        assert!(
            (e - d.horizontal_fov_deg() * 0.5).abs() < 1.0,
            "edge eccentricity {e}"
        );
    }

    #[test]
    fn most_pixels_are_peripheral_for_central_gaze() {
        // Paper Sec. 1: above 90% of a frame's pixels are outside 20°.
        let d = display();
        let gaze = GazePoint::center_of(d.dimensions());
        let frac = d.fraction_beyond(20.0, gaze);
        assert!(frac > 0.75, "peripheral fraction only {frac}");
    }

    #[test]
    fn off_center_gaze_shifts_eccentricity() {
        let d = display();
        let gaze = GazePoint::new(200.0, 300.0);
        let near = d.eccentricity_deg(210.0, 310.0, gaze);
        let far = d.eccentricity_deg(1700.0, 1800.0, gaze);
        assert!(near < 2.0);
        assert!(far > 40.0);
    }

    #[test]
    fn view_directions_are_unit_length() {
        let d = display();
        for &(x, y) in &[(0.0, 0.0), (100.0, 1900.0), (1832.0, 0.0), (916.0, 960.0)] {
            let v = d.view_direction(x, y);
            let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_fov_panics() {
        let _ = DisplayGeometry::new(Dimensions::new(10, 10), 0.0, 90.0);
    }
}
