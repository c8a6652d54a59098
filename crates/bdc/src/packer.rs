//! The crate's one frame packer: a header, then one record per tile in
//! grid order.
//!
//! Every encode path packs through [`FramePacker`].
//! [`BdEncoder::encode_frame_into`](crate::BdEncoder::encode_frame_into)
//! and [`encode_temporal_frame_into`](crate::encode_temporal_frame_into)
//! gather each tile out of a whole sRGB frame; the serving encode in
//! `pvc_core` hands over each tile straight from its adjust and quantize
//! steps, with no frame in between. Both therefore share one intra tile
//! packer ([`FramePacker::intra_tile`]) and one temporal tile coder
//! ([`FramePacker::predicted_tile`]), and emit the same bits for the same
//! tiles.

use crate::bitstream::BitWriter;
use crate::stats::{CompressionStats, SizeBreakdown};
use crate::temporal::{zigzag, TemporalFrameStats, MODE_BITS, MODE_DELTA, MODE_INTRA, MODE_SKIP};
use crate::tile_codec::{bits_for_range, BASE_BITS, METADATA_BITS};
use pvc_color::lanes::min_max_u8;
use pvc_frame::Dimensions;

/// Bits of the intra frame header: width, height and tile size.
pub(crate) const INTRA_HEADER_BITS: u64 = 48;

/// Appends the intra frame header (width, height, tile size — 16 bits
/// each).
pub(crate) fn write_intra_header(writer: &mut BitWriter, dimensions: Dimensions, tile_size: u32) {
    writer.write_bits(dimensions.width, 16);
    writer.write_bits(dimensions.height, 16);
    writer.write_bits(tile_size, 16);
}

/// Exact bit cost of one BD channel record covering `pixels` samples with
/// the given value range.
#[inline]
fn channel_cost(range: u8, pixels: u64) -> u64 {
    BASE_BITS + METADATA_BITS + u64::from(bits_for_range(range)) * pixels
}

/// One frame's bitstream under construction in a caller's [`BitWriter`].
///
/// Open it as an intra keyframe ([`Self::intra`]) or as a predicted frame
/// ([`Self::predicted`]), hand it every tile of the frame's grid in grid
/// order as three per-channel `u8` lanes, then [`Self::finish`] it for the
/// frame's statistics. A tile's lanes hold its pixels in row-major tile
/// order (the order of `SrgbFrame::tile_lanes_into`). The packer keeps no
/// buffer of its own, so a warm writer packs a frame without allocating.
#[derive(Debug)]
pub struct FramePacker<'w> {
    writer: &'w mut BitWriter,
    pixel_count: usize,
    breakdown: SizeBreakdown,
    stats: TemporalFrameStats,
}

impl<'w> FramePacker<'w> {
    /// Clears `writer` and starts an intra frame: the 48-bit header, then
    /// one [`Self::intra_tile`] per tile.
    pub fn intra(writer: &'w mut BitWriter, dimensions: Dimensions, tile_size: u32) -> Self {
        writer.clear();
        write_intra_header(writer, dimensions, tile_size);
        FramePacker {
            writer,
            pixel_count: dimensions.pixel_count(),
            breakdown: SizeBreakdown::ZERO,
            stats: TemporalFrameStats {
                keyframe: true,
                ..TemporalFrameStats::default()
            },
        }
    }

    /// Clears `writer` and starts a predicted frame: the 64-bit temporal
    /// header (see [`crate::temporal`]), then one [`Self::predicted_tile`]
    /// per tile.
    pub fn predicted(writer: &'w mut BitWriter, dimensions: Dimensions, tile_size: u32) -> Self {
        writer.clear();
        writer.write_bits(0, 16);
        write_intra_header(writer, dimensions, tile_size);
        FramePacker {
            writer,
            pixel_count: dimensions.pixel_count(),
            breakdown: SizeBreakdown::ZERO,
            stats: TemporalFrameStats {
                keyframe: false,
                intra_bits: INTRA_HEADER_BITS,
                ..TemporalFrameStats::default()
            },
        }
    }

    /// Packs one tile of an intra frame: per channel, `base (8) |
    /// delta_bits (4) | deltas`, the range reduced with the 8-wide lane
    /// kernel ([`min_max_u8`]).
    ///
    /// # Panics
    ///
    /// Panics if the packer was opened as a predicted frame.
    pub fn intra_tile(&mut self, lanes: [&[u8]; 3]) {
        assert!(self.stats.keyframe, "intra tile in a predicted frame");
        self.stats.intra_tiles += 1;
        for lane in lanes {
            let (min, max) = min_max_u8(lane);
            self.pack_channel(lane, min, max);
        }
    }

    /// Codes one tile of a predicted frame against its reference tile, as
    /// a Skip, Delta or Intra record (the mode decision of
    /// [`crate::temporal`]).
    ///
    /// The zigzag residuals `current − reference` overwrite `reference` in
    /// place, for every tile. A caller that keeps the reference tile in
    /// its history must copy `current` over it afterwards, Skip tiles
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if the packer was opened as an intra frame, or if the six
    /// lanes differ in length.
    pub fn predicted_tile(&mut self, current: [&[u8]; 3], mut reference: [&mut [u8]; 3]) {
        assert!(!self.stats.keyframe, "predicted tile in an intra frame");
        let len = current[0].len();
        assert!(
            current.iter().all(|lane| lane.len() == len)
                && reference.iter().all(|lane| lane.len() == len),
            "current and reference tile lanes must have one length"
        );
        let pixels = len as u64;

        // The intra baseline is accounted for every tile, including the
        // ones that end up skipped, so `intra_bits` is exactly what an
        // intra-only frame would have cost.
        let mut intra_cost = MODE_BITS;
        let intra_ranges = current.map(min_max_u8);
        for &(min, max) in &intra_ranges {
            intra_cost += channel_cost(max - min, pixels);
        }
        self.stats.intra_bits += intra_cost - MODE_BITS;

        // Zigzag residuals overwrite the reference tile. Each channel is a
        // contiguous u8 lane, so the wrapping subtract + zigzag loop
        // vectorizes.
        for (prev, cur) in reference.iter_mut().zip(current) {
            for (p, &c) in prev.iter_mut().zip(cur) {
                *p = zigzag(c.wrapping_sub(*p));
            }
        }
        let residuals = reference.map(|lane| &*lane);
        let delta_ranges = residuals.map(min_max_u8);

        // Only a zero residual zigzags to code 0, so a tile equals its
        // reference exactly when every residual lane's maximum is 0.
        if delta_ranges.iter().all(|&(_, max)| max == 0) {
            self.writer.write_bits(MODE_SKIP, 2);
            self.breakdown.metadata_bits += MODE_BITS;
            self.stats.skip_tiles += 1;
            return;
        }
        let mut delta_cost = MODE_BITS;
        for &(min, max) in &delta_ranges {
            delta_cost += channel_cost(max - min, pixels);
        }
        let (mode, lanes, ranges) = if delta_cost < intra_cost {
            self.stats.delta_tiles += 1;
            (MODE_DELTA, residuals, delta_ranges)
        } else {
            self.stats.intra_tiles += 1;
            (MODE_INTRA, current, intra_ranges)
        };
        self.writer.write_bits(mode, 2);
        self.breakdown.metadata_bits += MODE_BITS;
        for (lane, (min, max)) in lanes.into_iter().zip(ranges) {
            self.pack_channel(lane, min, max);
        }
    }

    fn pack_channel(&mut self, lane: &[u8], min: u8, max: u8) {
        let delta_bits = bits_for_range(max - min);
        self.writer
            .write_channel_record(min, delta_bits, lane.iter().map(|&v| v - min));
        self.breakdown += SizeBreakdown {
            base_bits: BASE_BITS,
            metadata_bits: METADATA_BITS,
            delta_bits: u64::from(delta_bits) * lane.len() as u64,
        };
    }

    /// Ends the frame: its temporal statistics (`bits` is the whole
    /// frame, header included; on a keyframe `intra_bits` equals it) and
    /// the [`CompressionStats`] of its records, which exclude the header.
    pub fn finish(self) -> (TemporalFrameStats, CompressionStats) {
        let mut stats = self.stats;
        stats.bits = self.writer.bits_written();
        if stats.keyframe {
            stats.intra_bits = stats.bits;
        }
        (
            stats,
            CompressionStats::from_breakdown(self.pixel_count, self.breakdown),
        )
    }
}
