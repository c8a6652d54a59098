//! The full-frame perceptual encoder.

use crate::adjust::AdjustScratch;
use crate::config::EncoderConfig;
use crate::stats::AdjustmentStats;
use crate::strip::{ClosedForm, StripCodes};
use pvc_bdc::{
    BdConfig, BdEncodedFrame, BdEncoder, BitWriter, CompressionStats, FramePacker,
    TemporalFrameStats,
};
use pvc_color::{DiscriminationModel, LinearRgb};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, TileGrid};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The color perception-aware frame encoder (Fig. 7 of the paper).
///
/// The encoder sits between the rendering pipeline (which produces linear
/// RGB pixels and, per prior work, per-pixel discrimination ellipsoids) and
/// the existing BD framebuffer compressor. It adjusts pixel colors inside
/// their discrimination ellipsoids so that the BD Δs become cheaper, then
/// hands the adjusted frame to an unmodified BD encoder. Decoding is
/// untouched.
#[derive(Debug, Clone)]
pub struct PerceptualEncoder<M> {
    model: M,
    config: EncoderConfig,
    /// The BD back-end, built once at construction rather than per frame.
    bd: BdEncoder,
}

impl<M: DiscriminationModel> PerceptualEncoder<M> {
    /// Creates an encoder from a discrimination model and a configuration.
    pub fn new(model: M, config: EncoderConfig) -> Self {
        let bd = BdEncoder::new(BdConfig::with_tile_size(config.tile_size));
        PerceptualEncoder { model, config, bd }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The discrimination model used to build per-pixel ellipsoids.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Adjusts the colors of a linear-RGB frame for a given display and gaze
    /// position, returning the adjusted frame and the per-tile statistics.
    ///
    /// Tiles overlapping the foveal bypass region are copied through
    /// unchanged; every other tile is adjusted along the configured axes and
    /// the cheaper result is kept.
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn adjust_frame(
        &self,
        frame: &LinearFrame,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> (LinearFrame, AdjustmentStats) {
        assert_eq!(
            frame.dimensions(),
            display.dimensions(),
            "frame and display dimensions must match"
        );
        let grid = TileGrid::new(frame.dimensions(), self.config.tile_size);
        let eccentricity = EccentricityMap::per_tile(display, &grid, gaze, self.config.fovea);
        let mut adjusted = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
        let stats = self.adjust_frame_with_map_into(
            frame,
            &eccentricity,
            &mut AdjustScratch::new(),
            &mut adjusted,
        );
        (adjusted, stats)
    }

    /// The single implementation of the adjustment: like
    /// [`Self::adjust_frame`], but reuses a prebuilt eccentricity map,
    /// writes the adjusted frame into a caller-provided buffer and runs the
    /// tile machinery out of a caller-provided [`AdjustScratch`].
    ///
    /// The map only depends on the display geometry, tile grid, gaze and
    /// fovea configuration — not on pixel data — so a session encoding many
    /// frames at the same gaze (see [`crate::BatchEncoder`]) can build it
    /// once and amortise its cost across the stream. Each tile row is
    /// adjusted in the scratch's strip and scattered into `out`, so once
    /// the scratch's buffers are warm the adjustment performs no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the map does not match the frame and encoder
    /// configuration.
    pub fn adjust_frame_with_map_into(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        scratch: &mut AdjustScratch,
        out: &mut LinearFrame,
    ) -> AdjustmentStats {
        let grid = self.checked_grid(frame, eccentricity);
        out.clone_from(frame);
        let mut stats = AdjustmentStats::default();
        let closed_form = self.closed_form();
        for ty in 0..grid.tiles_y() {
            stats.merge(&self.adjust_strip(frame, eccentricity, ty, closed_form.as_ref(), scratch));
            scratch.strip.scatter_into(out);
        }
        stats
    }

    /// The closed form's constants for this frame, when the model has a
    /// fixed shape: built once per frame and shared by every strip.
    fn closed_form(&self) -> Option<ClosedForm<'_>> {
        self.model.fixed_shape().and_then(ClosedForm::new)
    }

    /// Adjusts tile row `ty` into the scratch's strip.
    fn adjust_strip(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        ty: u32,
        closed_form: Option<&ClosedForm<'_>>,
        scratch: &mut AdjustScratch,
    ) -> AdjustmentStats {
        scratch.adjust_strip(
            frame,
            eccentricity,
            ty,
            &self.model,
            closed_form,
            &self.config.axes,
        )
    }

    /// The frame's tile grid, after checking that `eccentricity` was built
    /// for this grid and this encoder's tile size.
    fn checked_grid(&self, frame: &LinearFrame, eccentricity: &EccentricityMap) -> TileGrid {
        let grid = TileGrid::new(frame.dimensions(), self.config.tile_size);
        assert_eq!(
            eccentricity.tile_size(),
            self.config.tile_size,
            "eccentricity map tile size must match the encoder configuration"
        );
        assert_eq!(
            (eccentricity.tiles_x(), eccentricity.tiles_y()),
            (grid.tiles_x(), grid.tiles_y()),
            "eccentricity map must cover the frame's tile grid"
        );
        grid
    }

    /// Runs the complete pipeline of Fig. 7: adjust colors, gamma-encode to
    /// sRGB and compress with the existing BD encoder. The result can also
    /// produce the BD encoding of the *unadjusted* frame on demand
    /// ([`PerceptualEncodeResult::baseline`]) so callers can compare against
    /// the state-of-the-art baseline directly; that second BD pass is
    /// evaluated lazily and costs nothing until asked for.
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn encode_frame(
        &self,
        frame: &LinearFrame,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> PerceptualEncodeResult {
        let (adjusted_linear, stats) = self.adjust_frame(frame, display, gaze);
        self.bd_encode(frame, adjusted_linear, stats)
    }

    /// Like [`Self::encode_frame`], but reuses a prebuilt eccentricity map
    /// (see [`Self::adjust_frame_with_map_into`]).
    ///
    /// # Panics
    ///
    /// Panics if the map does not match the frame and encoder configuration.
    pub(crate) fn encode_frame_with_map(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
    ) -> PerceptualEncodeResult {
        let mut adjusted = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
        let stats = self.adjust_frame_with_map_into(
            frame,
            eccentricity,
            &mut AdjustScratch::new(),
            &mut adjusted,
        );
        self.bd_encode(frame, adjusted, stats)
    }

    /// The serving encode: adjusts, quantizes and BD-packs the frame one
    /// tile at a time, straight into `out`, returning only the per-frame
    /// statistics. The payload is either an intra keyframe — bit-identical
    /// to [`Self::encode_frame`]'s `encoded.to_bitstream()` at the same
    /// gaze — or, with temporal coding enabled, a predicted frame of
    /// per-tile Skip / Delta / Intra records against `history`.
    ///
    /// Each tile row is adjusted in the scratch's strip (foveal tiles pass
    /// through unchanged) and its winning lanes are quantized to sRGB8
    /// codes with the exact LUT; then each of its tiles, in grid order, is
    /// handed to the BD [`FramePacker`]. No frame-sized intermediate
    /// exists: the bytes equal the layered composition
    /// [`Self::adjust_frame_with_map_into`] → [`LinearFrame::to_srgb_into`]
    /// → [`BdEncoder::encode_frame_into`] (or
    /// [`pvc_bdc::encode_temporal_frame_into`] against the previous
    /// adjusted sRGB frame) bit for bit, which the `fused_encode` test
    /// pins.
    ///
    /// A frame is a keyframe when temporal coding is disabled, when its
    /// absolute `frame_index` is a multiple of
    /// `TemporalConfig::keyframe_interval`, when `history` is invalid
    /// (fresh encoder, or an explicit reset at a handoff boundary) or when
    /// it was laid out for another frame size or tile size. With temporal
    /// coding enabled, each tile is written into `history` once coded, so
    /// feeding consecutive frame indices reproduces exactly the stream a
    /// decoder can follow; intra-only sessions leave it untouched.
    ///
    /// Every per-tile buffer and the bit writer live in `scratch`, so once
    /// they are warm the encoder performs **zero** steady-state allocation
    /// per frame. This is the per-frame hot path of a streaming session
    /// (`pvc_stream` shard workers call it through
    /// `BatchEncoder::encode_frame_stream_into`).
    ///
    /// # Panics
    ///
    /// Panics if the map does not match the frame and encoder configuration.
    pub fn encode_frame_stream_into(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        history: &mut TemporalHistory,
        frame_index: u32,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        let started = Instant::now();
        let grid = self.checked_grid(frame, eccentricity);
        let (dimensions, tile_size) = (frame.dimensions(), self.config.tile_size);
        let temporal = self.config.temporal;
        let keyframe = !temporal.enabled
            || frame_index % temporal.keyframe_interval.max(1) == 0
            || history.layout != Some((dimensions, tile_size));
        if temporal.enabled && keyframe {
            history.lay_out(dimensions, tile_size);
        }
        let mut packer = if keyframe {
            FramePacker::intra(&mut scratch.writer, dimensions, tile_size)
        } else {
            FramePacker::predicted(&mut scratch.writer, dimensions, tile_size)
        };
        let mut adjustment = AdjustmentStats::default();
        let closed_form = self.closed_form();
        // Where the tile starts in the history's tile-major planes.
        let mut offset = 0;
        for ty in 0..grid.tiles_y() {
            let strip_stats = self.adjust_strip(
                frame,
                eccentricity,
                ty,
                closed_form.as_ref(),
                &mut scratch.adjust,
            );
            adjustment.merge(&strip_stats);
            let strip = &scratch.adjust.strip;
            strip.quantize_into(&mut scratch.codes);
            for t in 0..strip.tile_count() {
                let current = strip.tile_codes(t, &scratch.codes);
                let pixels = offset..offset + current[0].len();
                offset = pixels.end;
                if keyframe {
                    packer.intra_tile(current);
                } else {
                    packer.predicted_tile(current, history.tile_mut(pixels.clone()));
                }
                if temporal.enabled {
                    history.store(pixels, current);
                }
            }
        }
        let (temporal_stats, compression) = packer.finish();
        out.clear();
        out.extend_from_slice(scratch.writer.as_bytes());
        // Reading the clock is a vDSO call, not an allocation, so the
        // timing rides along without disturbing the zero-alloc pin on
        // this path.
        scratch.timing = started.elapsed();
        StreamFrameStats {
            adjustment,
            compression,
            temporal: temporal_stats,
        }
    }

    fn bd_encode(
        &self,
        frame: &LinearFrame,
        adjusted_linear: LinearFrame,
        stats: AdjustmentStats,
    ) -> PerceptualEncodeResult {
        let original = frame.to_srgb();
        let adjusted = adjusted_linear.to_srgb();
        let encoded = self.bd.encode_frame(&adjusted);
        PerceptualEncodeResult {
            original,
            adjusted,
            encoded,
            baseline: OnceLock::new(),
            stats,
        }
    }
}

/// Reusable state for the serving encode path
/// ([`PerceptualEncoder::encode_frame_stream_into`] /
/// `BatchEncoder::encode_frame_stream_into`): the adjustment buffers (one
/// tile-row strip and one tile's general-route lanes), the strip's sRGB8
/// codes and the bitstream writer. It holds no frame-sized buffer: the
/// encode works one tile row at a time.
///
/// Buffers grow on the first frame and are reused verbatim afterwards, so
/// session lifetime — not frame count — bounds the allocations. One
/// scratch may serve sessions of different frame sizes and tile sizes
/// back to back (a shard worker does exactly that): nothing in it is
/// bit-relevant across frames, and the strip buffers simply warm up to the
/// largest tile row seen.
#[derive(Debug, Clone, Default)]
pub struct StreamScratch {
    adjust: AdjustScratch,
    /// The current strip's winning lanes, quantized to sRGB8 codes.
    codes: StripCodes,
    writer: BitWriter,
    timing: Duration,
}

impl StreamScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        StreamScratch::default()
    }

    /// Wall-clock time of the most recent
    /// [`PerceptualEncoder::encode_frame_stream_into`] call through this
    /// scratch (zero before the first encode): adjust, quantize and pack
    /// as one span, since they run tile by tile in one loop, plus the
    /// copy into the caller's output buffer. Lives on the scratch rather
    /// than in [`StreamFrameStats`] so the stats stay a pure function of
    /// the pixels — tests compare them across runs.
    pub fn last_timing(&self) -> Duration {
        self.timing
    }
}

/// Per-frame telemetry of the scratch stream-encode path: everything a
/// serving pipeline records about a frame, with the payload bytes
/// delivered separately through the caller's output buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamFrameStats {
    /// Per-tile adjustment statistics (the paper's case distribution).
    pub adjustment: AdjustmentStats,
    /// Compression statistics of the emitted BD bitstream.
    pub compression: CompressionStats,
    /// Temporal coding statistics. Intra-only encodes report a keyframe
    /// whose `bits == intra_bits`, so accumulating this field is always
    /// meaningful regardless of the temporal configuration.
    pub temporal: TemporalFrameStats,
}

/// The encoder side of a temporal session's GOP state: the previous
/// adjusted frame that the next predicted frame encodes against, as three
/// tile-major sRGB8 planes (one per channel).
///
/// Tile-major means the planes hold the frame's tiles one after another in
/// grid order, each tile's pixels in row-major tile order, so the
/// reference of the tile being coded is one contiguous slice per channel.
/// That order depends on the tile size as well as the frame size, so the
/// history records the `(dimensions, tile_size)` it was laid out for, and
/// an encode with any other layout is forced to a keyframe.
///
/// Owned per *session* (each [`crate::BatchEncoder`] embeds one), never
/// shared through [`StreamScratch`]: the previous frame is bit-relevant
/// state, while the scratch is explicitly documented as shareable across
/// sessions on a shard. [`Self::reset`] drops the reference, forcing the
/// next frame to be an intra keyframe — the handoff-boundary refresh the
/// migration/shed determinism pins rely on.
#[derive(Debug, Clone, Default)]
pub struct TemporalHistory {
    planes: [Vec<u8>; 3],
    /// The layout the planes hold a reference frame for; `None` when they
    /// hold none.
    layout: Option<(Dimensions, u32)>,
}

impl TemporalHistory {
    /// Creates an empty (invalid) history: the first encode through it is
    /// forced to a keyframe.
    pub fn new() -> Self {
        TemporalHistory::default()
    }

    /// Drops the reference frame, forcing the next frame to be an intra
    /// keyframe.
    pub fn reset(&mut self) {
        self.layout = None;
    }

    /// Whether the history holds a usable reference frame.
    pub fn is_valid(&self) -> bool {
        self.layout.is_some()
    }

    /// Sizes the planes for a keyframe of the given layout, which then
    /// writes every tile of them.
    fn lay_out(&mut self, dimensions: Dimensions, tile_size: u32) {
        for plane in &mut self.planes {
            plane.resize(dimensions.pixel_count(), 0);
        }
        self.layout = Some((dimensions, tile_size));
    }

    /// The reference tile at `pixels` of the tile-major planes.
    fn tile_mut(&mut self, pixels: Range<usize>) -> [&mut [u8]; 3] {
        let [r, g, b] = &mut self.planes;
        [
            &mut r[pixels.clone()],
            &mut g[pixels.clone()],
            &mut b[pixels],
        ]
    }

    /// Writes a coded tile's sRGB8 lanes over its reference tile.
    fn store(&mut self, pixels: Range<usize>, tile: [&[u8]; 3]) {
        for (reference, lane) in self.tile_mut(pixels).into_iter().zip(tile) {
            reference.copy_from_slice(lane);
        }
    }
}

/// Everything produced by one invocation of the perceptual encoder.
///
/// The BD encoding of the *unadjusted* frame (the paper's "BD" baseline) is
/// computed lazily on first access through [`Self::baseline`] /
/// [`Self::bd_stats`]; callers that never compare against the baseline —
/// streaming sessions, ablations over our own numbers — no longer pay a
/// second BD pass per frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptualEncodeResult {
    /// The unadjusted frame, gamma-encoded (what BD alone would compress).
    pub original: SrgbFrame,
    /// The perceptually adjusted frame, gamma-encoded.
    pub adjusted: SrgbFrame,
    /// BD encoding of the adjusted frame — "ours" in the paper's figures.
    pub encoded: BdEncodedFrame,
    /// Lazily computed BD encoding of `original` — the "BD" baseline.
    /// Skipped by serde (real serde has no `OnceLock` impls; the cache is
    /// rebuilt on first access after a round-trip anyway).
    #[serde(skip)]
    baseline: OnceLock<BdEncodedFrame>,
    /// Per-tile adjustment statistics.
    pub stats: AdjustmentStats,
}

/// Equality ignores whether the lazy baseline has been materialized: two
/// results from the same inputs are equal regardless of which accessors
/// have been called on them.
impl PartialEq for PerceptualEncodeResult {
    fn eq(&self, other: &Self) -> bool {
        self.original == other.original
            && self.adjusted == other.adjusted
            && self.encoded == other.encoded
            && self.stats == other.stats
    }
}

impl Eq for PerceptualEncodeResult {}

impl PerceptualEncodeResult {
    /// BD encoding of the original frame — the "BD" baseline the paper's
    /// figures compare against.
    ///
    /// Computed on first access (one extra BD pass, using the same tile
    /// size as the perceptual encoding) and cached for the lifetime of the
    /// result.
    pub fn baseline(&self) -> &BdEncodedFrame {
        self.baseline.get_or_init(|| {
            BdEncoder::new(BdConfig::with_tile_size(self.encoded.tile_size()))
                .encode_frame(&self.original)
        })
    }

    /// Compression statistics of the perceptual encoding.
    pub fn our_stats(&self) -> CompressionStats {
        self.encoded.stats()
    }

    /// Compression statistics of the plain BD baseline (materializes the
    /// lazy baseline encoding on first call).
    pub fn bd_stats(&self) -> CompressionStats {
        self.baseline().stats()
    }

    /// Traffic reduction of the perceptual encoding over plain BD, percent.
    pub fn reduction_over_bd_percent(&self) -> f64 {
        self.our_stats().reduction_over(&self.bd_stats())
    }

    /// Traffic reduction of the perceptual encoding over uncompressed
    /// frames, percent (the main number of Fig. 10).
    pub fn reduction_over_uncompressed_percent(&self) -> f64 {
        self.our_stats().bandwidth_reduction_percent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::{DiscriminationModel, SyntheticDiscriminationModel};
    use pvc_fovea::FoveaConfig;
    use pvc_frame::Dimensions;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    fn test_frame(scene: SceneId) -> LinearFrame {
        SceneRenderer::new(scene, SceneConfig::new(Dimensions::new(128, 96))).render_linear(0)
    }

    fn encoder() -> PerceptualEncoder<SyntheticDiscriminationModel> {
        PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
        )
    }

    #[test]
    fn adjusted_frame_beats_bd_on_every_scene() {
        for scene in SceneId::ALL {
            let frame = test_frame(scene);
            let display = DisplayGeometry::quest2_like(frame.dimensions());
            let gaze = GazePoint::center_of(frame.dimensions());
            let result = encoder().encode_frame(&frame, &display, gaze);
            assert!(
                result.reduction_over_bd_percent() > 0.0,
                "{scene}: ours must not be larger than BD"
            );
            assert!(
                result.reduction_over_uncompressed_percent()
                    > result.bd_stats().bandwidth_reduction_percent(),
                "{scene}: ours must beat BD vs uncompressed too"
            );
        }
    }

    #[test]
    fn adjustment_respects_perceptual_constraints() {
        // Every adjusted pixel must stay within the discrimination ellipsoid
        // of its original color at that tile's eccentricity.
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let (adjusted, _) = enc.adjust_frame(&frame, &display, gaze);
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
        let model = SyntheticDiscriminationModel::default();
        for tile in grid.tiles() {
            let ecc = map.tile_eccentricity(tile);
            for (orig, adj) in frame
                .tile_pixels(tile)
                .iter()
                .zip(adjusted.tile_pixels(tile))
            {
                let ellipsoid = model.ellipsoid(*orig, ecc);
                assert!(
                    ellipsoid.contains_rgb(adj, 1e-6),
                    "adjusted pixel escaped its ellipsoid"
                );
            }
        }
    }

    #[test]
    fn foveal_tiles_are_bit_exact() {
        let frame = test_frame(SceneId::Thai);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let (adjusted, stats) = enc.adjust_frame(&frame, &display, gaze);
        assert!(
            stats.foveal_tiles > 0,
            "a centrally-fixated frame must have foveal tiles"
        );
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
        for tile in grid.tiles() {
            if map.is_foveal_tile(tile) {
                assert_eq!(frame.tile_pixels(tile), adjusted.tile_pixels(tile));
            }
        }
    }

    #[test]
    fn decoding_reconstructs_the_adjusted_frame_exactly() {
        // Our scheme is numerically lossy w.r.t. the original frame but the
        // BD stage stays lossless: decode(encode(adjusted)) == adjusted.
        let frame = test_frame(SceneId::Skyline);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let result = encoder().encode_frame(&frame, &display, gaze);
        assert_eq!(result.encoded.decode(), result.adjusted);
        assert_eq!(result.baseline().decode(), result.original);
        assert_ne!(
            result.adjusted, result.original,
            "adjustment must change peripheral pixels"
        );
    }

    #[test]
    fn statistics_account_for_every_tile() {
        let frame = test_frame(SceneId::Fortnite);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let result = encoder().encode_frame(&frame, &display, gaze);
        let s = result.stats;
        assert_eq!(s.total_tiles, s.foveal_tiles + s.adjusted_tiles());
        assert!(s.case2_tiles > 0, "smooth scenes should exercise case 2");
    }

    /// Runs the serving path once, intra-only, on a fresh history.
    fn serve(
        enc: &PerceptualEncoder<SyntheticDiscriminationModel>,
        frame: &LinearFrame,
        display: &DisplayGeometry,
        gaze: GazePoint,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let map = EccentricityMap::per_tile(display, &grid, gaze, enc.config().fovea);
        let mut history = TemporalHistory::new();
        enc.encode_frame_stream_into(frame, &map, &mut history, 0, scratch, out)
    }

    #[test]
    fn serving_encode_is_bit_identical_to_the_figure_path() {
        let enc = encoder();
        let mut scratch = StreamScratch::new();
        let mut bitstream = Vec::new();
        // One scratch across scenes and gazes, arriving dirty each time.
        for (scene, gaze) in [
            (SceneId::Office, GazePoint::new(40.0, 30.0)),
            (SceneId::Skyline, GazePoint::new(-5.0, 200.0)),
            (SceneId::Dumbo, GazePoint::new(64.0, 48.0)),
        ] {
            let frame = test_frame(scene);
            let display = DisplayGeometry::quest2_like(frame.dimensions());
            let expected = enc.encode_frame(&frame, &display, gaze);
            let stats = serve(&enc, &frame, &display, gaze, &mut scratch, &mut bitstream);
            assert_eq!(bitstream, expected.encoded.to_bitstream());
            assert_eq!(stats.adjustment, expected.stats);
            assert_eq!(stats.compression, expected.our_stats());
            assert!(stats.temporal.keyframe);
        }
    }

    #[test]
    fn intra_only_sessions_never_fill_the_history() {
        // With temporal coding off every frame is a keyframe, whatever its
        // index, and the history is never written: the intra serving path
        // pays no reference-frame copy.
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        assert!(!enc.config().temporal.enabled);
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
        let mut history = TemporalHistory::new();
        let mut scratch = StreamScratch::new();
        let mut out = Vec::new();
        for index in 0..5 {
            let stats = enc.encode_frame_stream_into(
                &frame,
                &map,
                &mut history,
                index,
                &mut scratch,
                &mut out,
            );
            assert!(stats.temporal.keyframe, "frame {index}");
            assert!(!history.is_valid(), "frame {index}");
        }
    }

    #[test]
    fn lazy_baseline_matches_an_eager_bd_pass() {
        let frame = test_frame(SceneId::Skyline);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let result = enc.encode_frame(&frame, &display, gaze);
        let eager = BdEncoder::new(BdConfig::with_tile_size(enc.config().tile_size))
            .encode_frame(&frame.to_srgb());
        // First access materializes; second reuses the same encoding.
        assert_eq!(*result.baseline(), eager);
        assert_eq!(result.bd_stats(), eager.stats());
        assert!(std::ptr::eq(result.baseline(), result.baseline()));
    }

    #[test]
    fn equality_ignores_baseline_materialization_state() {
        let frame = test_frame(SceneId::Thai);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let touched = enc.encode_frame(&frame, &display, gaze);
        let untouched = enc.encode_frame(&frame, &display, gaze);
        let _ = touched.bd_stats();
        assert_eq!(touched, untouched);
    }

    #[test]
    fn disabling_the_fovea_adjusts_every_tile() {
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default().with_fovea(FoveaConfig::disabled()),
        );
        let (_, stats) = enc.adjust_frame(&frame, &display, gaze);
        assert_eq!(stats.foveal_tiles, 0);
        assert_eq!(stats.adjusted_tiles(), stats.total_tiles);
    }

    #[test]
    fn off_center_gaze_shifts_the_protected_region() {
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let corner_gaze = GazePoint::new(8.0, 8.0);
        let enc = encoder();
        let (adjusted, _) = enc.adjust_frame(&frame, &display, corner_gaze);
        // The corner tile is now foveal and must be untouched...
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let corner = grid.tile(0, 0);
        assert_eq!(frame.tile_pixels(corner), adjusted.tile_pixels(corner));
        // ... while the frame as a whole still changed.
        assert_ne!(frame.to_srgb(), adjusted.to_srgb());
    }

    #[test]
    fn peripheral_gain_exceeds_foveal_gain() {
        // A model with larger thresholds in the periphery should let tiles
        // far from the gaze compress better than the same content near the
        // gaze. Use a uniform-gradient frame so content is comparable.
        let dims = Dimensions::new(160, 96);
        let mut frame = LinearFrame::filled(dims, LinearRgb::BLACK);
        for y in 0..dims.height {
            for x in 0..dims.width {
                let t = f64::from(x) / f64::from(dims.width);
                let s = f64::from(y) / f64::from(dims.height);
                frame.set_pixel(
                    x,
                    y,
                    LinearRgb::new(0.3 + 0.05 * t, 0.4 + 0.04 * s, 0.35 + 0.06 * t),
                );
            }
        }
        let display = DisplayGeometry::quest2_like(dims);
        let enc = encoder();
        let center = enc.encode_frame(&frame, &display, GazePoint::center_of(dims));
        let off_screen_gaze = GazePoint::new(-2000.0, -2000.0);
        let all_peripheral = enc.encode_frame(&frame, &display, off_screen_gaze);
        assert!(
            all_peripheral.our_stats().compressed_bits <= center.our_stats().compressed_bits,
            "fully peripheral frame should compress at least as well"
        );
    }
}
