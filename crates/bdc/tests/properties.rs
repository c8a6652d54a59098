//! Property-based tests for the Base+Delta codec.

use proptest::prelude::*;
use pvc_bdc::{decode_tile, encode_tile, BdConfig, BdDecoder, BdEncoder};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame};

fn arb_pixel() -> impl Strategy<Value = Srgb8> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Srgb8::new(r, g, b))
}

proptest! {
    #[test]
    fn tile_roundtrip_is_lossless(pixels in proptest::collection::vec(arb_pixel(), 1..64)) {
        let tile = encode_tile(&pixels);
        prop_assert_eq!(decode_tile(&tile), pixels);
    }

    #[test]
    fn tile_size_is_bounded_by_uncompressed_plus_overhead(
        pixels in proptest::collection::vec(arb_pixel(), 1..64)
    ) {
        let tile = encode_tile(&pixels);
        let size = tile.size();
        // Worst case: 8 delta bits per channel per pixel, plus 36 bits of
        // base+metadata overhead.
        prop_assert!(size.total_bits() <= pixels.len() as u64 * 24 + 36);
        // And never less than the base+metadata overhead itself.
        prop_assert!(size.total_bits() >= 36);
    }

    #[test]
    fn frame_roundtrip_is_lossless(
        width in 1u32..40,
        height in 1u32..40,
        tile_size in 1u32..9,
        seed in any::<u64>(),
    ) {
        let dims = Dimensions::new(width, height);
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pixels = (0..dims.pixel_count())
            .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let frame = SrgbFrame::from_pixels(dims, pixels).unwrap();
        let encoded = BdEncoder::new(BdConfig::with_tile_size(tile_size)).encode_frame(&frame);
        prop_assert_eq!(encoded.decode(), frame);
    }

    #[test]
    fn bitstream_roundtrip_reconstructs_the_frame(
        width in 1u32..24,
        height in 1u32..24,
        seed in any::<u64>(),
    ) {
        let dims = Dimensions::new(width, height);
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pixels = (0..dims.pixel_count())
            .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let frame = SrgbFrame::from_pixels(dims, pixels).unwrap();
        let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
        let decoded = BdDecoder::new().decode_bitstream(&encoded.to_bitstream()).unwrap();
        prop_assert_eq!(decoded, frame);
    }
}
