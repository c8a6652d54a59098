//! Base+Delta (BD) framebuffer compression.
//!
//! Modern mobile SoCs compress every frame going in and out of DRAM with a
//! lightweight Base+Delta scheme (e.g. Arm Frame Buffer Compression). For
//! each small pixel tile and each color channel, a *base* value is stored
//! and every pixel is encoded as an offset (Δ) from the base; the offsets
//! need fewer bits than full 8-bit values whenever the tile is locally
//! smooth (Fig. 4 of the paper).
//!
//! This crate implements the BD codec the paper assumes (after Zhang et
//! al.), both as the state-of-the-art baseline and as the numerically
//! lossless back-end that the perceptual color adjustment feeds into:
//!
//! * [`encode_tile`] / [`decode_tile`] — the per-tile, per-channel codec,
//! * [`BdEncoder`] — whole-frame encoding with per-tile size accounting
//!   (base vs. metadata vs. delta bits, the split of Fig. 11),
//! * [`FramePacker`] — the one packer behind every encode path: intra
//!   records and the temporal Skip/Delta/Intra tile coder, fed one tile
//!   at a time,
//! * [`bitstream`] and [`BdDecoder`] — an actual serialized bitstream and
//!   its one decoder, so compressed sizes are measured on real bits rather
//!   than estimated.
//!
//! The codec is numerically lossless: `decode(encode(frame)) == frame`.
//!
//! # Examples
//!
//! ```
//! use pvc_bdc::{BdConfig, BdEncoder};
//! use pvc_color::Srgb8;
//! use pvc_frame::{Dimensions, SrgbFrame};
//!
//! let frame = SrgbFrame::filled(Dimensions::new(16, 16), Srgb8::new(120, 130, 140));
//! let encoder = BdEncoder::new(BdConfig::default());
//! let encoded = encoder.encode_frame(&frame);
//! assert_eq!(encoded.decode(), frame);
//! // A flat frame compresses extremely well.
//! assert!(encoded.stats().compressed_bits < frame.uncompressed_bytes() as u64 * 8 / 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod decoder;
pub mod frame_codec;
pub mod packer;
pub mod stats;
pub mod temporal;
pub mod tile_codec;

pub use bitstream::{BitReader, BitWriter, BitstreamError};
pub use decoder::{BdDecoder, DEFAULT_MAX_PIXELS};
pub use frame_codec::{BdConfig, BdEncodedFrame, BdEncoder};
pub use packer::FramePacker;
pub use stats::{CompressionStats, SizeBreakdown};
pub use temporal::{
    encode_temporal_frame_into, is_temporal_bitstream, FrameKind, TemporalFrameStats,
};
pub use tile_codec::{channel_range, decode_tile, encode_tile, ChannelEncoding, TileEncoding};
