//! Bit-granular serialization of encoded frames.
//!
//! The size accounting in [`crate::stats`] is exact, but to make the codec
//! honest the encoded frame can also be packed into an actual byte stream
//! and decoded back.
//!
//! The contract of the bit I/O: a field of `count` bits is the low `count`
//! bits of its value, written most significant bit first; fields follow
//! each other with no alignment; the partial final byte is zero-padded, and
//! [`BitWriter::as_bytes`] shows it so at every point. Both ends move whole
//! words: the writer builds each write in a `u64` together with the used
//! bits of the partial byte and appends whole bytes, and the reader shifts
//! each read out of one 8-byte big-endian window.
//!
//! Every BD channel record, `base (8) | delta_bits (4) | deltas`, is
//! written by one crate-private packer, `BitWriter::write_channel_record`,
//! and read by one unpacker, `BitReader::read_channel_record`, whichever
//! frame kind carries it.

use crate::tile_codec::{BASE_BITS, METADATA_BITS};
use pvc_color::Srgb8;
use pvc_frame::TileRect;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Errors produced while reading a bitstream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BitstreamError {
    /// The reader ran past the end of the stream.
    UnexpectedEnd {
        /// Number of bits that were requested.
        requested: u32,
        /// Number of bits remaining in the stream.
        remaining: u64,
    },
    /// A header field held an invalid value.
    InvalidHeader {
        /// Description of the offending field.
        field: &'static str,
    },
    /// The header describes a payload that cannot fit in the remaining
    /// input (detected up front, before any allocation).
    InsufficientInput {
        /// Minimum number of bits the declared geometry requires.
        required_bits: u64,
        /// Number of bits actually remaining in the stream.
        remaining_bits: u64,
    },
    /// The header declares a frame larger than the decoder's pixel budget.
    FrameTooLarge {
        /// Number of pixels the header declares.
        pixels: u64,
        /// The decoder's configured pixel budget.
        max_pixels: u64,
    },
    /// A predicted (temporal) frame arrived but the decoder holds no valid
    /// reference frame — the stream is unreconstructable until the next
    /// keyframe.
    MissingReference,
    /// A predicted (temporal) frame's dimensions disagree with the
    /// decoder's reference frame.
    ReferenceMismatch {
        /// Width the predicted frame declares.
        width: u32,
        /// Height the predicted frame declares.
        height: u32,
        /// Width of the decoder's reference frame.
        ref_width: u32,
        /// Height of the decoder's reference frame.
        ref_height: u32,
    },
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::UnexpectedEnd {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "unexpected end of bitstream: requested {requested} bits, {remaining} remain"
                )
            }
            BitstreamError::InvalidHeader { field } => {
                write!(f, "invalid bitstream header field: {field}")
            }
            BitstreamError::InsufficientInput {
                required_bits,
                remaining_bits,
            } => {
                write!(
                    f,
                    "bitstream header declares a payload of at least {required_bits} bits \
                     but only {remaining_bits} remain"
                )
            }
            BitstreamError::FrameTooLarge { pixels, max_pixels } => {
                write!(
                    f,
                    "bitstream header declares {pixels} pixels, \
                     over the decoder budget of {max_pixels}"
                )
            }
            BitstreamError::MissingReference => {
                write!(
                    f,
                    "predicted frame without a valid reference: \
                     unreconstructable until the next keyframe"
                )
            }
            BitstreamError::ReferenceMismatch {
                width,
                height,
                ref_width,
                ref_height,
            } => {
                write!(
                    f,
                    "predicted frame is {width}x{height} but the reference \
                     frame is {ref_width}x{ref_height}"
                )
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// Pending bits at which [`BitWriter::write_channel_record`] flushes its
/// accumulator: below 56 pending bits one more field of up to 8 bits
/// still fits the `u64`.
const FLUSH_BITS: u32 = 56;

/// An MSB-first bit writer backed by a growable byte buffer.
///
/// # Examples
///
/// ```
/// use pvc_bdc::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(8).unwrap(), 0xFF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of bits already used in the final byte (0–7).
    bit_pos: u8,
    bits_written: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `count` bits of `value`, most significant first.
    /// Bits of `value` above `count` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        if count == 0 {
            return;
        }
        let (partial, used) = self.take_partial_byte();
        let value = u64::from(value) & ((1 << count) - 1);
        self.append(partial << count | value, used + count);
        self.bits_written += u64::from(count);
    }

    /// Appends one BD channel record, `base (8) | delta_bits (4) | offsets
    /// (delta_bits each)`, the same bits as writing each field with
    /// [`Self::write_bits`].
    ///
    /// Every field goes through one `u64` accumulator that starts with the
    /// partial final byte and is flushed a run of whole bytes at a time.
    /// This is the only writer of channel records: the intra encoders, the
    /// materialized frame's bitstream and the temporal encoder's Delta and
    /// Intra tiles all call it.
    pub(crate) fn write_channel_record(
        &mut self,
        base: u8,
        delta_bits: u8,
        offsets: impl IntoIterator<Item = u8>,
    ) {
        let width = u32::from(delta_bits);
        if width > 8 {
            // Only a hand-built `ChannelEncoding` is this wide; the field
            // would not fit the accumulator's flush margin.
            self.write_bits(u32::from(base), BASE_BITS as u32);
            self.write_bits(width, METADATA_BITS as u32);
            for offset in offsets {
                self.write_bits(u32::from(offset), width);
            }
            return;
        }
        let (partial, used) = self.take_partial_byte();
        let header_bits = (BASE_BITS + METADATA_BITS) as u32;
        let mut acc = partial << header_bits | u64::from(base) << METADATA_BITS | u64::from(width);
        let mut pending = used + header_bits;
        let mut written = u64::from(header_bits);
        if width > 0 {
            let mask = (1 << width) - 1;
            for offset in offsets {
                acc = acc << width | (u64::from(offset) & mask);
                pending += width;
                written += u64::from(width);
                if pending >= FLUSH_BITS {
                    let whole = pending / 8;
                    self.bytes.extend_from_slice(
                        &(acc << (64 - pending)).to_be_bytes()[..whole as usize],
                    );
                    pending -= whole * 8;
                }
            }
        }
        self.append(acc, pending);
        self.bits_written += written;
    }

    /// Removes a partial final byte, returning its used bits right-aligned
    /// and their count, so the next write can rebuild it whole.
    fn take_partial_byte(&mut self) -> (u64, u32) {
        let used = u32::from(self.bit_pos);
        if used == 0 {
            return (0, 0);
        }
        let byte = self.bytes.pop().expect("a used bit lives in a stored byte");
        (u64::from(byte >> (8 - used)), used)
    }

    /// Appends the low `len` bits of `acc` (at most 64) as big-endian
    /// bytes, zero-padding the last one.
    fn append(&mut self, acc: u64, len: u32) {
        self.bit_pos = (len % 8) as u8;
        if len == 0 {
            return;
        }
        let bytes = len.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&(acc << (64 - len)).to_be_bytes()[..bytes]);
    }

    /// Total number of bits written so far.
    pub fn bits_written(&self) -> u64 {
        self.bits_written
    }

    /// The packed bytes written so far (the final byte is zero-padded).
    ///
    /// Together with [`Self::clear`] this lets one writer serve a whole
    /// stream of frames: clear, write, read the bytes, repeat — no
    /// per-frame buffer allocation.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Empties the writer for reuse, keeping the byte buffer's capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bit_pos = 0;
        self.bits_written = 0;
    }

    /// Finishes the stream and returns the packed bytes (the final byte is
    /// zero-padded).
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// An MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_index: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            bit_index: 0,
        }
    }

    /// Number of unread bits remaining (including any final padding bits).
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.bit_index)
    }

    /// Reads `count` bits, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::UnexpectedEnd`] if fewer than `count` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, BitstreamError> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if u64::from(count) > self.remaining_bits() {
            return Err(BitstreamError::UnexpectedEnd {
                requested: count,
                remaining: self.remaining_bits(),
            });
        }
        if count == 0 {
            return Ok(0);
        }
        let value = (self.window() >> (64 - count)) as u32;
        self.bit_index += u64::from(count);
        Ok(value)
    }

    /// Reads one BD channel record, `base (8) | delta_bits (4) | deltas`,
    /// covering `tile` of a frame `stride` pixels wide, and hands each
    /// pixel's channel-`channel` slot and its code `base + delta` to
    /// `store`, in tile row-major order.
    ///
    /// This is the only reader of channel records: the intra decoder and
    /// the temporal decoder's Delta and Intra tiles call it, and differ
    /// only in `store`. A width over 8 is rejected, and the whole delta
    /// payload must fit the remaining input before any of it is read.
    pub(crate) fn read_channel_record(
        &mut self,
        tile: TileRect,
        stride: usize,
        pixels: &mut [Srgb8],
        channel: usize,
        store: impl Fn(&mut u8, u8),
    ) -> Result<(), BitstreamError> {
        let base = self.read_bits(BASE_BITS as u32)? as u8;
        let delta_bits = self.read_bits(METADATA_BITS as u32)? as u8;
        if delta_bits > 8 {
            return Err(BitstreamError::InvalidHeader {
                field: "delta bit length",
            });
        }
        check_delta_payload(self, tile.pixel_count(), delta_bits)?;
        let (x, width) = (tile.x as usize, tile.width as usize);
        let rows = (tile.y as usize..(tile.y + tile.height) as usize)
            .map(|y| y * stride + x..y * stride + x + width);
        match channel {
            0 => self.unpack_deltas(base, delta_bits, rows, pixels, |p| &mut p.r, store),
            1 => self.unpack_deltas(base, delta_bits, rows, pixels, |p| &mut p.g, store),
            _ => self.unpack_deltas(base, delta_bits, rows, pixels, |p| &mut p.b, store),
        }
        Ok(())
    }

    /// The delta loop of [`Self::read_channel_record`], after its checks:
    /// one 8-byte window load serves `56 / delta_bits` deltas.
    fn unpack_deltas(
        &mut self,
        base: u8,
        delta_bits: u8,
        rows: impl Iterator<Item = Range<usize>>,
        pixels: &mut [Srgb8],
        slot: impl Fn(&mut Srgb8) -> &mut u8,
        store: impl Fn(&mut u8, u8),
    ) {
        let width = u32::from(delta_bits);
        if width == 0 {
            for row in rows {
                for pixel in &mut pixels[row] {
                    store(slot(pixel), base);
                }
            }
            return;
        }
        // A window shifted by up to 7 bits keeps at least 57 valid bits.
        let per_window = 56 / width;
        let (mut window, mut left) = (0u64, 0);
        for row in rows {
            for pixel in &mut pixels[row] {
                if left == 0 {
                    window = self.window();
                    left = per_window;
                }
                let delta = (window >> (64 - width)) as u8;
                window <<= width;
                left -= 1;
                self.bit_index += u64::from(width);
                store(slot(pixel), base.wrapping_add(delta));
            }
        }
    }

    /// The next 64 bits from the read position, MSB-first. Where fewer than
    /// 8 bytes remain, the bytes past the end read as zero. The read
    /// position must be inside the stream.
    fn window(&self) -> u64 {
        let byte = (self.bit_index / 8) as usize;
        let word = match self.bytes.get(byte..byte + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("an 8-byte slice")),
            None => {
                let rest = &self.bytes[byte..];
                let mut tail = [0; 8];
                tail[..rest.len()].copy_from_slice(rest);
                u64::from_be_bytes(tail)
            }
        };
        word << (self.bit_index % 8)
    }
}

/// Checks that a channel's declared delta payload fits the remaining input
/// before any of it is read.
fn check_delta_payload(
    r: &BitReader<'_>,
    pixel_count: usize,
    delta_bits: u8,
) -> Result<(), BitstreamError> {
    let required_bits = pixel_count as u64 * u64::from(delta_bits);
    if required_bits > r.remaining_bits() {
        return Err(BitstreamError::InsufficientInput {
            required_bits,
            remaining_bits: r.remaining_bits(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let fields: Vec<(u32, u32)> = vec![
            (0b1, 1),
            (0b10, 2),
            (0xABC, 12),
            (0, 5),
            (0xFFFF_FFFF, 32),
            (42, 7),
        ];
        let mut w = BitWriter::new();
        for &(v, c) in &fields {
            w.write_bits(v, c);
        }
        let total: u32 = fields.iter().map(|&(_, c)| c).sum();
        assert_eq!(w.bits_written(), u64::from(total));
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &fields {
            let mask = if c == 32 { u32::MAX } else { (1u32 << c) - 1 };
            assert_eq!(r.read_bits(c).unwrap(), v & mask);
        }
    }

    #[test]
    fn zero_bit_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bits_written(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn reading_past_end_errors() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        // 5 padding bits remain in the byte; asking for 8 must fail.
        let err = r.read_bits(8).unwrap_err();
        assert!(matches!(
            err,
            BitstreamError::UnexpectedEnd { requested: 8, .. }
        ));
        assert!(err.to_string().contains("unexpected end"));
    }

    #[test]
    fn cleared_writer_produces_identical_bytes_without_reallocating() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        w.write_bits(0b101, 3);
        let first = w.as_bytes().to_vec();
        assert_eq!(w.finish(), first);

        let mut reused = BitWriter::new();
        for _ in 0..3 {
            reused.clear();
            reused.write_bits(0xABCD, 16);
            reused.write_bits(0b101, 3);
            assert_eq!(reused.as_bytes(), first.as_slice());
            assert_eq!(reused.bits_written(), 19);
        }
    }

    #[test]
    fn padding_is_zero() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn channel_records_match_field_by_field_writes() {
        // Widths over 8 only come from a hand-built `ChannelEncoding`; the
        // offsets carry junk above the width, which must be dropped.
        let offsets: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(97) ^ 0xA5).collect();
        for prefix in 0..8 {
            for width in 0..=12u8 {
                let mut packed = BitWriter::new();
                let mut fields = BitWriter::new();
                packed.write_bits(0x2B, prefix);
                fields.write_bits(0x2B, prefix);
                packed.write_channel_record(0xC3, width, offsets.iter().copied());
                fields.write_bits(0xC3, 8);
                fields.write_bits(u32::from(width), 4);
                for &offset in &offsets {
                    fields.write_bits(u32::from(offset), u32::from(width));
                }
                assert_eq!(packed.as_bytes(), fields.as_bytes(), "{prefix} {width}");
                assert_eq!(packed.bits_written(), fields.bits_written());
            }
        }
    }

    #[test]
    #[should_panic]
    fn oversized_write_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0, 33);
    }
}
