//! End-to-end bitstream round-trip pin for the perceptual encoder:
//!
//! ```text
//! encode_frame_stream_into → bytes → BdDecoder == adjusted frame
//! ```
//!
//! The serving path's bytes must equal the figure path's
//! (`encode_frame(..).encoded.to_bitstream()`), and because BD is
//! numerically lossless they must reconstruct the *adjusted* frame
//! bit-for-bit — across arbitrary dimensions (including non-tile-multiple
//! edges) and every resolution tier's effective tile size (4 for the
//! Quest-class tiers, 8 for the Vision-class override).

use proptest::prelude::*;
use pvc_bdc::BdDecoder;
use pvc_color::{Srgb8, SyntheticDiscriminationModel};
use pvc_core::{EncoderConfig, PerceptualEncoder, StreamScratch, TemporalHistory};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, SrgbFrame, TileGrid};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

/// The effective per-tier encoder tile sizes: Quest2 and QuestPro use the
/// default (4), VisionClass overrides to 8 (`ResolutionTier::tile_size`).
const TIER_TILE_SIZES: [u32; 3] = [4, 4, 8];

fn roundtrip(width: u32, height: u32, tile_size: u32, seed: u64) {
    let dims = Dimensions::new(width, height);
    let renderer = SceneRenderer::new(SceneId::by_index(seed as usize), {
        SceneConfig::new(dims).with_seed(seed)
    });
    let frame = renderer.render_linear((seed % 7) as u32);
    let config = EncoderConfig::default().with_tile_size(tile_size);
    let encoder = PerceptualEncoder::new(SyntheticDiscriminationModel::default(), config);
    let display = DisplayGeometry::quest2_like(dims);
    let gaze = GazePoint::new(
        (seed % u64::from(width)) as f64,
        (seed % u64::from(height)) as f64,
    );
    let figure = encoder.encode_frame(&frame, &display, gaze);

    let grid = TileGrid::new(dims, tile_size);
    let map = EccentricityMap::per_tile(&display, &grid, gaze, encoder.config().fovea);
    let mut bytes = Vec::new();
    encoder.encode_frame_stream_into(
        &frame,
        &map,
        &mut TemporalHistory::new(),
        0,
        &mut StreamScratch::new(),
        &mut bytes,
    );
    assert_eq!(
        bytes,
        figure.encoded.to_bitstream(),
        "the serving bytes must equal the figure path's"
    );

    let mut decoded = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    BdDecoder::new()
        .decode_bitstream_into(&bytes, &mut decoded)
        .expect("the encoder's bytes are valid");
    assert_eq!(
        decoded, figure.adjusted,
        "decoded pixels must equal the adjusted frame (BD is lossless)"
    );
}

proptest! {
    /// Arbitrary frame geometry × tier tile sizes.
    #[test]
    fn stream_bytes_reconstruct_the_adjusted_frame(
        width in 5u32..48,
        height in 5u32..48,
        tier in 0u32..3,
        seed in any::<u64>(),
    ) {
        roundtrip(width, height, TIER_TILE_SIZES[tier as usize], seed);
    }
}

/// Deterministic edge pins: dimensions that are not multiples of the tile
/// size (ragged right/bottom tiles), single-pixel rows/columns, and a
/// tile larger than the frame — for every tier tile size.
#[test]
fn non_tile_multiple_edges_roundtrip() {
    for &(width, height) in &[(13, 9), (9, 13), (1, 17), (17, 1), (5, 5), (33, 31)] {
        for &tile_size in &TIER_TILE_SIZES {
            roundtrip(width, height, tile_size, 11);
        }
    }
}
