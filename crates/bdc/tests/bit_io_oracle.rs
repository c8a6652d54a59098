//! Bit I/O against the bit-at-a-time oracle.
//!
//! `BitWriter` and `BitReader` move whole words, and every BD channel
//! record goes through one word-at-a-time packer and one unpacker. The
//! oracle below is the plain loop they replace: one iteration per bit, a
//! byte pushed whenever a new one starts. Whatever the writer, the reader
//! or the decoders do must match it exactly:
//!
//! * after every write, `as_bytes()` and `bits_written()` equal the
//!   oracle's, for counts 0–32, values with bits set above the count, and
//!   channel records of widths 0–8 starting at every bit offset;
//! * every read returns the oracle's value, or its exact
//!   `UnexpectedEnd { requested, remaining }`, at every bit offset,
//!   including the last 8 bytes, where the reader's window runs past the
//!   end of the input;
//! * the intra and temporal decoders return the oracle decoders' frame or
//!   error on valid, truncated and bit-flipped streams.

use proptest::prelude::*;
use pvc_bdc::{
    encode_temporal_frame_into, BdConfig, BdDecoder, BdEncodedFrame, BdEncoder, BitReader,
    BitWriter, BitstreamError,
};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame, SrgbTileLanes, TileGrid};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The reference writer: one loop iteration per bit.
#[derive(Debug, Default)]
struct OracleWriter {
    bytes: Vec<u8>,
    bit_pos: u8,
    bits_written: u64,
}

impl OracleWriter {
    fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32);
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (bit as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
            self.bits_written += 1;
        }
    }

    /// The layout of `BdEncodedFrame::write_bitstream`, field by field.
    fn write_bitstream(&mut self, encoded: &BdEncodedFrame) {
        self.write_bits(encoded.dimensions().width, 16);
        self.write_bits(encoded.dimensions().height, 16);
        self.write_bits(encoded.tile_size(), 16);
        for tile in encoded.tiles() {
            for channel in &tile.channels {
                self.write_bits(u32::from(channel.base), 8);
                self.write_bits(u32::from(channel.delta_bits), 4);
                for &d in &channel.deltas {
                    self.write_bits(u32::from(d), u32::from(channel.delta_bits));
                }
            }
        }
    }
}

/// The reference reader: one loop iteration per bit.
#[derive(Debug, Clone)]
struct OracleReader<'a> {
    bytes: &'a [u8],
    bit_index: u64,
}

impl<'a> OracleReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        OracleReader {
            bytes,
            bit_index: 0,
        }
    }

    fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.bit_index)
    }

    fn read_bits(&mut self, count: u32) -> Result<u32, BitstreamError> {
        assert!(count <= 32);
        if u64::from(count) > self.remaining_bits() {
            return Err(BitstreamError::UnexpectedEnd {
                requested: count,
                remaining: self.remaining_bits(),
            });
        }
        let mut value = 0u32;
        for _ in 0..count {
            let byte = self.bytes[(self.bit_index / 8) as usize];
            let bit = (byte >> (7 - (self.bit_index % 8))) & 1;
            value = (value << 1) | u32::from(bit);
            self.bit_index += 1;
        }
        Ok(value)
    }
}

/// The header checks both decoders share, read through the oracle.
fn oracle_header(
    r: &mut OracleReader<'_>,
    max_pixels: u64,
    tile_floor_bits: u64,
) -> Result<(Dimensions, u32), BitstreamError> {
    let width = r.read_bits(16)?;
    let height = r.read_bits(16)?;
    let tile_size = r.read_bits(16)?;
    if width == 0 || height == 0 {
        return Err(BitstreamError::InvalidHeader {
            field: "dimensions",
        });
    }
    if tile_size == 0 {
        return Err(BitstreamError::InvalidHeader { field: "tile size" });
    }
    let pixels = u64::from(width) * u64::from(height);
    if pixels > max_pixels {
        return Err(BitstreamError::FrameTooLarge { pixels, max_pixels });
    }
    let tile_count = u64::from(width.div_ceil(tile_size)) * u64::from(height.div_ceil(tile_size));
    let required_bits = tile_count * tile_floor_bits;
    if required_bits > r.remaining_bits() {
        return Err(BitstreamError::InsufficientInput {
            required_bits,
            remaining_bits: r.remaining_bits(),
        });
    }
    Ok((Dimensions::new(width, height), tile_size))
}

/// Reads one channel record per pixel, as the decoders did before the
/// unpacker: base, width, the two checks, then one `read_bits` per delta.
/// `store` gets the pixel's channel slot and its code.
fn oracle_channel_record(
    r: &mut OracleReader<'_>,
    frame: &mut SrgbFrame,
    tile: pvc_frame::TileRect,
    channel: usize,
    store: impl Fn(&mut u8, u8),
) -> Result<(), BitstreamError> {
    let base = r.read_bits(8)? as u8;
    let delta_bits = r.read_bits(4)? as u8;
    if delta_bits > 8 {
        return Err(BitstreamError::InvalidHeader {
            field: "delta bit length",
        });
    }
    let required_bits = tile.pixel_count() as u64 * u64::from(delta_bits);
    if required_bits > r.remaining_bits() {
        return Err(BitstreamError::InsufficientInput {
            required_bits,
            remaining_bits: r.remaining_bits(),
        });
    }
    let width = frame.dimensions().width as usize;
    let pixels = frame.pixels_mut();
    for y in tile.y..tile.y + tile.height {
        for x in tile.x..tile.x + tile.width {
            let delta = r.read_bits(u32::from(delta_bits))? as u8;
            let pixel = &mut pixels[y as usize * width + x as usize];
            let slot = match channel {
                0 => &mut pixel.r,
                1 => &mut pixel.g,
                _ => &mut pixel.b,
            };
            store(slot, base.wrapping_add(delta));
        }
    }
    Ok(())
}

/// The reference intra decoder.
fn oracle_decode_intra(bytes: &[u8], max_pixels: u64) -> Result<SrgbFrame, BitstreamError> {
    let mut r = OracleReader::new(bytes);
    let (dims, tile_size) = oracle_header(&mut r, max_pixels, 3 * 12)?;
    let mut frame = SrgbFrame::filled(dims, Srgb8::default());
    for tile in TileGrid::new(dims, tile_size).tiles() {
        for channel in 0..3 {
            oracle_channel_record(&mut r, &mut frame, tile, channel, |slot, code| *slot = code)?;
        }
    }
    Ok(frame)
}

/// Inverse of the temporal encoder's zigzag residual map.
fn unzigzag(code: u8) -> u8 {
    (code >> 1) ^ (code & 1).wrapping_neg()
}

/// The reference temporal decoder, applied to a valid `reference`.
fn oracle_apply_temporal(
    bytes: &[u8],
    max_pixels: u64,
    reference: &SrgbFrame,
) -> Result<SrgbFrame, BitstreamError> {
    let mut r = OracleReader::new(bytes);
    if r.read_bits(16)? != 0 {
        return Err(BitstreamError::InvalidHeader {
            field: "temporal marker",
        });
    }
    let (dims, tile_size) = oracle_header(&mut r, max_pixels, 2)?;
    if reference.dimensions() != dims {
        return Err(BitstreamError::ReferenceMismatch {
            width: dims.width,
            height: dims.height,
            ref_width: reference.dimensions().width,
            ref_height: reference.dimensions().height,
        });
    }
    let mut frame = reference.clone();
    for tile in TileGrid::new(dims, tile_size).tiles() {
        match r.read_bits(2)? {
            0 => {}
            1 => {
                for channel in 0..3 {
                    oracle_channel_record(&mut r, &mut frame, tile, channel, |slot, code| {
                        *slot = slot.wrapping_add(unzigzag(code));
                    })?;
                }
            }
            2 => {
                for channel in 0..3 {
                    oracle_channel_record(&mut r, &mut frame, tile, channel, |slot, code| {
                        *slot = code;
                    })?;
                }
            }
            _ => return Err(BitstreamError::InvalidHeader { field: "tile mode" }),
        }
    }
    Ok(frame)
}

/// A frame whose channel `c` holds `base_c + offset`, each offset below
/// `2^widths[c]`. The first pixel takes offset 0 and the last the largest,
/// so a single-tile frame of two or more pixels packs channel `c` at
/// exactly `widths[c]` bits.
fn lane_frame(width: u32, height: u32, widths: [u8; 3], seed: u64) -> SrgbFrame {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dims = Dimensions::new(width, height);
    let masks = widths.map(|w| ((1u16 << w) - 1) as u8);
    let bases = masks.map(|m| (rng.gen::<u16>() % (256 - u16::from(m))) as u8);
    let last = dims.pixel_count() - 1;
    let pixels = (0..dims.pixel_count())
        .map(|i| {
            let [r, g, b] = std::array::from_fn(|c| {
                let offset = match i {
                    0 => 0,
                    _ if i == last => masks[c],
                    _ => rng.gen::<u8>() & masks[c],
                };
                bases[c] + offset
            });
            Srgb8::new(r, g, b)
        })
        .collect();
    SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
}

fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let dims = Dimensions::new(width, height);
    let pixels = (0..dims.pixel_count())
        .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
}

fn assert_same_writes(writer: &BitWriter, oracle: &OracleWriter, context: &str) {
    assert_eq!(writer.as_bytes(), oracle.bytes.as_slice(), "{context}");
    assert_eq!(writer.bits_written(), oracle.bits_written, "{context}");
}

/// Every channel-record width 0–8, starting at every bit offset, over lanes
/// short enough to stay in one flush and long enough to need many.
#[test]
fn channel_records_match_the_oracle_at_every_width_and_offset() {
    for offset in 0..8u32 {
        for width in 0..=8u8 {
            let widths = [width, (width + 3) % 9, (width + 7) % 9];
            for (w, h, tile_size) in [(2, 1, 2), (3, 5, 8), (8, 8, 8), (16, 16, 16), (13, 7, 16)] {
                let frame = lane_frame(w, h, widths, u64::from(offset * 9 + u32::from(width)));
                let encoded =
                    BdEncoder::new(BdConfig::with_tile_size(tile_size)).encode_frame(&frame);
                assert_eq!(
                    encoded.tiles()[0].channels[0].delta_bits,
                    width,
                    "the fixture must pack the first lane at the chosen width"
                );
                let mut writer = BitWriter::new();
                let mut oracle = OracleWriter::default();
                writer.write_bits(0x5A5A_5A5A, offset);
                oracle.write_bits(0x5A5A_5A5A, offset);
                encoded.write_bitstream(&mut writer);
                oracle.write_bitstream(&encoded);
                let context =
                    format!("offset {offset}, widths {widths:?}, {w}x{h} tile {tile_size}");
                assert_same_writes(&writer, &oracle, &context);
            }
        }
    }
}

/// Reads of every count 0–32 from every bit offset of inputs 0–17 bytes
/// long: values and `UnexpectedEnd` errors match the oracle exactly.
#[test]
fn reads_match_the_oracle_at_every_offset_and_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    for len in 0..=17usize {
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let mut at = BitReader::new(&bytes);
        let mut oracle_at = OracleReader::new(&bytes);
        for start in 0..=len * 8 {
            for count in 0..=32 {
                let (mut reader, mut oracle) = (at.clone(), oracle_at.clone());
                assert_eq!(
                    reader.read_bits(count),
                    oracle.read_bits(count),
                    "{len} bytes, offset {start}, count {count}"
                );
                assert_eq!(reader.remaining_bits(), oracle.remaining_bits());
            }
            if start < len * 8 {
                at.read_bits(1).expect("inside the input");
                oracle_at.read_bits(1).expect("inside the input");
            }
        }
    }
}

/// Round trip through an intra stream, a temporal stream against it, and a
/// truncation and a bit flip of each: the decoders return exactly what the
/// oracle decoders return.
fn assert_decoders_match(
    key: &SrgbFrame,
    next: &SrgbFrame,
    tile_size: u32,
    cut: usize,
    flip: usize,
) {
    let key_bytes = BdEncoder::new(BdConfig::with_tile_size(tile_size))
        .encode_frame(key)
        .to_bitstream();
    let mut writer = BitWriter::new();
    let (mut a, mut b) = (SrgbTileLanes::new(), SrgbTileLanes::new());
    encode_temporal_frame_into(tile_size, next, key, &mut writer, &mut a, &mut b);
    let predicted_bytes = writer.finish();
    let max_pixels = pvc_bdc::DEFAULT_MAX_PIXELS;

    let mut intra_inputs = vec![
        key_bytes.clone(),
        key_bytes[..cut % key_bytes.len()].to_vec(),
    ];
    let mut flipped = key_bytes.clone();
    flipped[flip / 8 % key_bytes.len()] ^= 1 << (flip % 8);
    intra_inputs.push(flipped);
    for (case, bytes) in intra_inputs.iter().enumerate() {
        assert_eq!(
            BdDecoder::new().decode_bitstream(bytes),
            oracle_decode_intra(bytes, max_pixels),
            "intra input {case}"
        );
    }

    let mut predicted_inputs = vec![
        predicted_bytes.clone(),
        predicted_bytes[..cut % predicted_bytes.len()].to_vec(),
    ];
    let mut flipped = predicted_bytes.clone();
    // Keep the 16-bit marker so the flip lands in the temporal parser.
    let at = 2 + flip / 8 % (predicted_bytes.len() - 2);
    flipped[at] ^= 1 << (flip % 8);
    predicted_inputs.push(flipped);
    for (case, bytes) in predicted_inputs.iter().enumerate() {
        let mut decoder = BdDecoder::new();
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        decoder
            .decode_frame_into(&key_bytes, &mut out)
            .expect("the keyframe decodes");
        let decoded = decoder.decode_frame_into(bytes, &mut out).map(|_| out);
        assert_eq!(
            decoded,
            oracle_apply_temporal(bytes, max_pixels, key),
            "temporal input {case}"
        );
        if case == 0 {
            assert_eq!(decoded.as_ref(), Ok(next), "the clean stream round-trips");
        }
    }
}

proptest! {
    /// Random sequences of writes: raw fields of 0–32 bits with junk above
    /// the count, and whole frames' channel records at whatever offset the
    /// sequence left. The writer's bytes and bit count equal the oracle's
    /// after every operation.
    #[test]
    fn random_write_sequences_match_the_oracle(
        ops in proptest::collection::vec((0u8..4, any::<u32>(), 0u32..=32, any::<u64>()), 1..24)
    ) {
        let mut writer = BitWriter::new();
        let mut oracle = OracleWriter::default();
        for (step, &(kind, value, count, seed)) in ops.iter().enumerate() {
            if kind < 3 {
                writer.write_bits(value, count);
                oracle.write_bits(value, count);
            } else {
                let widths = [value % 9, value / 9 % 9, value / 81 % 9].map(|w| w as u8);
                let (w, h) = (1 + count % 11, 1 + (seed % 9) as u32);
                let tile_size = 1 + (seed >> 8) as u32 % 8;
                let encoded = BdEncoder::new(BdConfig::with_tile_size(tile_size))
                    .encode_frame(&lane_frame(w, h, widths, seed));
                encoded.write_bitstream(&mut writer);
                oracle.write_bitstream(&encoded);
            }
            assert_same_writes(&writer, &oracle, &format!("step {step} of {ops:?}"));
        }
    }

    /// Random reads of random input: every value, error and remaining-bit
    /// count equals the oracle's, reads past the end included (a failed
    /// read consumes nothing, so the sequence goes on).
    #[test]
    fn random_read_sequences_match_the_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        counts in proptest::collection::vec(0u32..=32, 1..40)
    ) {
        let mut reader = BitReader::new(&bytes);
        let mut oracle = OracleReader::new(&bytes);
        for &count in &counts {
            prop_assert_eq!(reader.read_bits(count), oracle.read_bits(count));
            prop_assert_eq!(reader.remaining_bits(), oracle.remaining_bits());
        }
    }

    /// The decoders against the oracle decoders, on streams the encoders
    /// wrote and on damaged copies of them.
    #[test]
    fn decoders_match_the_oracle_decoders(
        dims in (1u32..24, 1u32..24),
        tile_size in 1u32..10,
        seed in any::<u64>(),
        damage in (any::<u16>().prop_map(usize::from), any::<u16>().prop_map(usize::from))
    ) {
        let (width, height) = dims;
        let key = random_frame(width, height, seed);
        // Unchanged, nudged and replaced pixels, so Skip, Delta and Intra
        // tiles all occur.
        let mut next = key.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37);
        for pixel in next.pixels_mut().iter_mut() {
            match rng.gen::<u8>() % 4 {
                0 => {}
                1 => pixel.r = pixel.r.wrapping_add(rng.gen::<u8>() % 5),
                2 => pixel.g = pixel.g.wrapping_sub(rng.gen::<u8>() % 3),
                _ => *pixel = Srgb8::new(rng.gen(), rng.gen(), rng.gen()),
            }
        }
        let (cut, flip) = damage;
        assert_decoders_match(&key, &next, tile_size, cut, flip);
    }
}
