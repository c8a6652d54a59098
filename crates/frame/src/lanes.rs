//! Structure-of-arrays tile buffers for the vectorized hot path.
//!
//! The tile kernels (perceptual adjust, gamma quantization, Base+Delta
//! packing) process one channel at a time, so gathering a tile as three
//! contiguous per-channel lanes lets the compiler autovectorize the inner
//! loops instead of chasing `(r, g, b)` structs. Lane buffers reuse their
//! capacity across tiles: a tile loop that recycles one buffer performs no
//! steady-state allocation.
//!
//! Pixel order inside each lane is exactly the row-major order of
//! [`tile_pixels_into`](crate::SrgbFrame::tile_pixels_into), so transposing
//! back yields the identical pixel sequence.

use crate::frame::{LinearFrame, SrgbFrame};
use crate::tile::TileRect;
use pvc_color::{LinearRgb, Srgb8};

/// A tile's pixels as three per-channel `u8` lanes (8-bit sRGB codes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SrgbTileLanes {
    /// Red code values, row-major tile order.
    pub r: Vec<u8>,
    /// Green code values, row-major tile order.
    pub g: Vec<u8>,
    /// Blue code values, row-major tile order.
    pub b: Vec<u8>,
}

impl SrgbTileLanes {
    /// Creates empty lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pixels currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// True when no pixels are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// Clears all three lanes, keeping their capacity.
    pub fn clear(&mut self) {
        self.r.clear();
        self.g.clear();
        self.b.clear();
    }

    /// The lane for channel `index` (0 → r, 1 → g, 2 → b).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn channel(&self, index: usize) -> &[u8] {
        match index {
            0 => &self.r,
            1 => &self.g,
            2 => &self.b,
            _ => panic!("tile lane channel index out of range: {index}"),
        }
    }

    /// The three lanes as slices, in channel order (r, g, b).
    #[inline]
    pub fn as_slices(&self) -> [&[u8]; 3] {
        [&self.r, &self.g, &self.b]
    }

    /// The three lanes as mutable slices, in channel order (r, g, b).
    #[inline]
    pub fn as_mut_slices(&mut self) -> [&mut [u8]; 3] {
        [&mut self.r, &mut self.g, &mut self.b]
    }

    /// Transposes an AoS pixel slice into the three lanes, clearing them
    /// first.
    pub fn fill_from_pixels(&mut self, pixels: &[Srgb8]) {
        self.clear();
        self.reserve(pixels.len());
        for p in pixels {
            self.r.push(p.r);
            self.g.push(p.g);
            self.b.push(p.b);
        }
    }

    /// Transposes the lanes back into an AoS pixel buffer, clearing it first.
    pub fn scatter_into(&self, out: &mut Vec<Srgb8>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(Srgb8::new(self.r[i], self.g[i], self.b[i]));
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.r.reserve(additional);
        self.g.reserve(additional);
        self.b.reserve(additional);
    }
}

/// A tile's pixels as three per-channel `f64` lanes (linear RGB).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinearTileLanes {
    /// Red channel values, row-major tile order.
    pub r: Vec<f64>,
    /// Green channel values, row-major tile order.
    pub g: Vec<f64>,
    /// Blue channel values, row-major tile order.
    pub b: Vec<f64>,
}

impl LinearTileLanes {
    /// Creates empty lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pixels currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// True when no pixels are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// Clears all three lanes, keeping their capacity.
    pub fn clear(&mut self) {
        self.r.clear();
        self.g.clear();
        self.b.clear();
    }

    /// The lane for channel `index` (0 → r, 1 → g, 2 → b).
    ///
    /// # Panics
    ///
    /// Panics if `index > 2`.
    #[inline]
    pub fn channel(&self, index: usize) -> &[f64] {
        match index {
            0 => &self.r,
            1 => &self.g,
            2 => &self.b,
            _ => panic!("tile lane channel index out of range: {index}"),
        }
    }

    /// Transposes an AoS pixel slice into the three lanes, clearing them
    /// first.
    pub fn fill_from_pixels(&mut self, pixels: &[LinearRgb]) {
        self.clear();
        self.reserve(pixels.len());
        for p in pixels {
            self.r.push(p.r);
            self.g.push(p.g);
            self.b.push(p.b);
        }
    }

    /// Transposes the lanes back into an AoS pixel buffer, clearing it first.
    pub fn scatter_into(&self, out: &mut Vec<LinearRgb>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(LinearRgb::new(self.r[i], self.g[i], self.b[i]));
        }
    }

    fn reserve(&mut self, additional: usize) {
        self.r.reserve(additional);
        self.g.reserve(additional);
        self.b.reserve(additional);
    }
}

impl SrgbFrame {
    /// Gathers a tile directly into per-channel lanes (SoA), clearing the
    /// lanes first. The pixel order matches
    /// [`tile_pixels_into`](Self::tile_pixels_into) exactly.
    ///
    /// # Panics
    ///
    /// Panics if the tile extends outside the frame.
    pub fn tile_lanes_into(&self, tile: TileRect, out: &mut SrgbTileLanes) {
        out.clear();
        out.reserve(tile.pixel_count());
        self.for_each_tile_row(tile, |row| {
            for p in row {
                out.r.push(p.r);
                out.g.push(p.g);
                out.b.push(p.b);
            }
        });
    }
}

impl LinearFrame {
    /// Gathers a tile directly into per-channel lanes (SoA), clearing the
    /// lanes first. The pixel order matches
    /// [`tile_pixels_into`](Self::tile_pixels_into) exactly.
    ///
    /// # Panics
    ///
    /// Panics if the tile extends outside the frame.
    pub fn tile_lanes_into(&self, tile: TileRect, out: &mut LinearTileLanes) {
        out.clear();
        out.reserve(tile.pixel_count());
        self.for_each_tile_row(tile, |row| {
            for p in row {
                out.r.push(p.r);
                out.g.push(p.g);
                out.b.push(p.b);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Dimensions;
    use crate::tile::TileGrid;

    fn checkerboard(d: Dimensions) -> SrgbFrame {
        let mut f = SrgbFrame::filled(d, Srgb8::default());
        for (i, p) in f.pixels_mut().iter_mut().enumerate() {
            *p = Srgb8::new((i % 251) as u8, (i * 3 % 256) as u8, (i * 7 % 256) as u8);
        }
        f
    }

    #[test]
    fn srgb_lane_gather_matches_aos_gather() {
        let d = Dimensions::new(13, 9);
        let f = checkerboard(d);
        let grid = TileGrid::new(d, 4);
        let mut lanes = SrgbTileLanes::new();
        let mut aos = Vec::new();
        for tile in grid.tiles() {
            f.tile_lanes_into(tile, &mut lanes);
            f.tile_pixels_into(tile, &mut aos);
            assert_eq!(lanes.len(), aos.len());
            for (i, p) in aos.iter().enumerate() {
                assert_eq!((lanes.r[i], lanes.g[i], lanes.b[i]), (p.r, p.g, p.b));
            }
            let mut scattered = Vec::new();
            lanes.scatter_into(&mut scattered);
            assert_eq!(scattered, aos);
        }
    }

    #[test]
    fn linear_lane_gather_matches_aos_gather() {
        let d = Dimensions::new(7, 5);
        let mut f = LinearFrame::filled(d, LinearRgb::BLACK);
        for (i, p) in f.pixels_mut().iter_mut().enumerate() {
            let t = i as f64 / 34.0;
            *p = LinearRgb::new(t, 1.0 - t, 0.5 * t);
        }
        let grid = TileGrid::new(d, 4);
        let mut lanes = LinearTileLanes::new();
        let mut aos = Vec::new();
        for tile in grid.tiles() {
            f.tile_lanes_into(tile, &mut lanes);
            f.tile_pixels_into(tile, &mut aos);
            let mut scattered = Vec::new();
            lanes.scatter_into(&mut scattered);
            assert_eq!(scattered, aos);
        }
    }

    #[test]
    fn fill_from_pixels_round_trips() {
        let pixels: Vec<Srgb8> = (0..19u8).map(|i| Srgb8::new(i, i + 1, i + 2)).collect();
        let mut lanes = SrgbTileLanes::new();
        lanes.fill_from_pixels(&pixels);
        assert_eq!(lanes.channel(1)[3], 4);
        let mut back = Vec::new();
        lanes.scatter_into(&mut back);
        assert_eq!(back, pixels);
    }

    #[test]
    fn lane_buffers_reuse_capacity() {
        let d = Dimensions::new(16, 16);
        let f = checkerboard(d);
        let grid = TileGrid::new(d, 4);
        let mut lanes = SrgbTileLanes::new();
        for tile in grid.tiles() {
            f.tile_lanes_into(tile, &mut lanes);
        }
        let capacity = lanes.r.capacity();
        for tile in grid.tiles() {
            f.tile_lanes_into(tile, &mut lanes);
        }
        assert_eq!(lanes.r.capacity(), capacity);
    }
}
