//! Cross-crate integration tests: the full pipeline from scene rendering
//! through perceptual adjustment, BD encoding, bitstream serialization and
//! decoding.

use perceptual_vr_encoding::prelude::*;

fn encode_scene(scene: SceneId, dims: Dimensions) -> (PerceptualEncodeResult, LinearFrame) {
    let frame = SceneRenderer::new(scene, SceneConfig::new(dims)).render_linear(0);
    let encoder = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
    );
    let display = DisplayGeometry::quest2_like(dims);
    let result = encoder.encode_frame(&frame, &display, GazePoint::center_of(dims));
    (result, frame)
}

#[test]
fn full_pipeline_roundtrips_through_the_bitstream() {
    let (result, _) = encode_scene(SceneId::Office, Dimensions::new(128, 96));
    let bytes = result.encoded.to_bitstream();
    let decoded = BdDecoder::new()
        .decode_bitstream(&bytes)
        .expect("valid stream");
    assert_eq!(decoded, result.adjusted);
    // The serialized stream is (slightly) larger than the accounted payload
    // because of the stream header, but never smaller.
    assert!(bytes.len() as u64 * 8 >= result.our_stats().compressed_bits);
}

#[test]
fn perceptual_encoding_beats_bd_which_beats_nocom() {
    for scene in SceneId::ALL {
        let (result, _) = encode_scene(scene, Dimensions::new(160, 128));
        let nocom = nocom_stats(Dimensions::new(160, 128));
        let bd = result.bd_stats();
        let ours = result.our_stats();
        assert!(
            bd.compressed_bits < nocom.compressed_bits,
            "{scene}: BD must beat NoCom"
        );
        assert!(
            ours.compressed_bits <= bd.compressed_bits,
            "{scene}: ours must not lose to BD"
        );
    }
}

#[test]
fn adjusted_frames_are_perceptually_bounded_but_numerically_lossy() {
    let dims = Dimensions::new(160, 128);
    let (result, original) = encode_scene(SceneId::Thai, dims);
    // Numerically lossy relative to the original...
    let quality = QualityReport::compare(&result.original, &result.adjusted).unwrap();
    assert!(
        quality.changed_pixel_fraction > 0.05,
        "adjustment should touch peripheral pixels"
    );
    assert!(quality.psnr_db > 20.0, "the adjustment must stay bounded");
    // ...but every change stays within the discrimination ellipsoid of the
    // original color at that location's eccentricity. The constraint is
    // checked on the pre-quantization adjustment (8-bit quantization adds up
    // to half a code value on top, which near the fovea can exceed the tiny
    // foveal thresholds on its own).
    let model = SyntheticDiscriminationModel::default();
    let display = DisplayGeometry::quest2_like(dims);
    let grid = TileGrid::new(dims, 4);
    let gaze = GazePoint::center_of(dims);
    let map = EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default());
    let encoder = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
    );
    let (adjusted_linear, _) = encoder.adjust_frame(&original, &display, gaze);
    for tile in grid.tiles() {
        let ecc = map.tile_eccentricity(tile);
        for (orig, adj) in original
            .tile_pixels(tile)
            .iter()
            .zip(adjusted_linear.tile_pixels(tile))
        {
            let ellipsoid = model.ellipsoid(*orig, ecc);
            assert!(
                ellipsoid.contains_rgb(adj, 1e-6),
                "{scene:?}: adjusted pixel strayed outside its ellipsoid",
                scene = SceneId::Thai
            );
        }
    }
}

#[test]
fn gaze_position_changes_where_bits_are_spent() {
    let dims = Dimensions::new(160, 128);
    let frame = SceneRenderer::new(SceneId::Fortnite, SceneConfig::new(dims)).render_linear(0);
    let encoder = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
    );
    let display = DisplayGeometry::quest2_like(dims);
    let center = encoder.encode_frame(&frame, &display, GazePoint::center_of(dims));
    let corner = encoder.encode_frame(&frame, &display, GazePoint::new(0.0, 0.0));
    // Different fixations protect different tiles, so the adjusted frames
    // differ even though the input is identical.
    assert_ne!(center.adjusted, corner.adjusted);
    assert!(center.stats.foveal_tiles > 0);
    assert!(corner.stats.foveal_tiles > 0);
    assert!(corner.stats.foveal_tiles < center.stats.foveal_tiles * 2);
}

#[test]
fn rbf_model_yields_similar_compression_to_the_synthetic_model() {
    let dims = Dimensions::new(128, 96);
    let frame = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims)).render_linear(0);
    let display = DisplayGeometry::quest2_like(dims);
    let gaze = GazePoint::center_of(dims);
    let synthetic = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
    )
    .encode_frame(&frame, &display, gaze);
    let rbf_model = RbfDiscriminationModel::fit_to(
        &SyntheticDiscriminationModel::default(),
        Default::default(),
    )
    .expect("fit succeeds");
    let rbf = PerceptualEncoder::new(rbf_model, EncoderConfig::default())
        .encode_frame(&frame, &display, gaze);
    let a = synthetic.our_stats().bits_per_pixel();
    let b = rbf.our_stats().bits_per_pixel();
    assert!((a - b).abs() / a < 0.15, "synthetic {a} bpp vs rbf {b} bpp");
}

#[test]
fn per_user_calibration_scales_compression() {
    // Sec. 6.5: a per-user model simply scales the ellipsoids; a more
    // sensitive user (smaller ellipsoids) must compress no better than the
    // population model, a less sensitive one at least as well.
    let dims = Dimensions::new(128, 96);
    let frame = SceneRenderer::new(SceneId::Skyline, SceneConfig::new(dims)).render_linear(0);
    let display = DisplayGeometry::quest2_like(dims);
    let gaze = GazePoint::center_of(dims);
    let encode_with_scale = |scale: f64| {
        PerceptualEncoder::new(
            SyntheticDiscriminationModel::with_scale(scale),
            EncoderConfig::default(),
        )
        .encode_frame(&frame, &display, gaze)
        .our_stats()
        .compressed_bits
    };
    let sensitive = encode_with_scale(0.5);
    let average = encode_with_scale(1.0);
    let tolerant = encode_with_scale(2.0);
    assert!(sensitive >= average);
    assert!(tolerant <= average);
}
