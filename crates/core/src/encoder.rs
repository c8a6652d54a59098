//! The full-frame perceptual encoder.

use crate::adjust::{adjust_frame_tile, AdjustScratch, ClosedForm, TileAdjustOutcome};
use crate::config::EncoderConfig;
use crate::stats::AdjustmentStats;
use pvc_bdc::{
    BdConfig, BdEncodedFrame, BdEncoder, BitWriter, CompressionStats, TemporalFrameStats,
};
use pvc_color::{DiscriminationModel, LinearRgb, Srgb8};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, SrgbTileLanes, TileGrid, TileRect};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::Instant;

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
    /// per-tile machinery out of a caller-provided [`AdjustScratch`].
    ///
    /// The map only depends on the display geometry, tile grid, gaze and
    /// fovea configuration — not on pixel data — so a session encoding many
    /// frames at the same gaze (see [`crate::BatchEncoder`]) can build it
    /// once and amortise its cost across the stream. Every tile is adjusted
    /// in place through the scratch, so once its buffers are warm the
    /// adjustment performs no allocation.
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
        out.clone_from(frame);
        let mut stats = AdjustmentStats {
            total_tiles: grid.tile_count(),
            ..Default::default()
        };
        // The closed form's constants: once per frame, shared by every tile.
        let closed_form = self.model.fixed_shape().and_then(ClosedForm::new);
        let closed_form = closed_form.as_ref();
        // Adjust straight through the caller's scratch and write each
        // winning tile's lanes into `out` — no per-tile allocation.
        for tile in grid.tiles() {
            if eccentricity.is_foveal_tile(tile) {
                stats.foveal_tiles += 1;
                continue;
            }
            let outcome =
                self.adjust_tile_into_scratch(frame, eccentricity, tile, closed_form, scratch);
            stats.record_case(outcome.case);
            out.write_tile_lanes(tile, scratch.winner(&outcome));
        }
        stats
    }

    /// Gathers one (non-foveal) tile straight into the scratch's lanes and
    /// adjusts it, through the closed form when it covers the tile; the
    /// winning pixels stay in the scratch ([`AdjustScratch::winner`]).
    fn adjust_tile_into_scratch(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        tile: TileRect,
        closed_form: Option<&ClosedForm<'_>>,
        scratch: &mut AdjustScratch,
    ) -> TileAdjustOutcome {
        let ecc = eccentricity.tile_eccentricity(tile);
        adjust_frame_tile(
            scratch,
            frame,
            tile,
            &self.model,
            closed_form,
            ecc,
            &self.config.axes,
        )
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

    /// The serving encode: adjusts the frame, gamma-encodes it and packs
    /// the BD payload straight into `out`, returning only the per-frame
    /// statistics. The payload is either an intra keyframe — bit-identical
    /// to [`Self::encode_frame`]'s `encoded.to_bitstream()` at the same
    /// gaze — or, with temporal coding enabled, a predicted frame of
    /// per-tile Skip / Delta / Intra records against `history`.
    ///
    /// A frame is a keyframe when temporal coding is disabled, when its
    /// absolute `frame_index` is a multiple of
    /// `TemporalConfig::keyframe_interval`, when `history` is invalid
    /// (fresh encoder, or an explicit reset at a handoff boundary) or when
    /// the frame size changed. With temporal coding enabled, `history` is
    /// updated to this frame's adjusted pixels on return, so feeding
    /// consecutive frame indices reproduces exactly the stream a decoder
    /// can follow; intra-only sessions leave it untouched and pay no frame
    /// copy for it.
    ///
    /// Every intermediate (adjusted frame, sRGB frame, tile buffers, bit
    /// packing) lives in `scratch`, so once the buffers are warm the
    /// encoder performs **zero** steady-state allocation per frame. This is
    /// the per-frame hot path of a streaming session (`pvc_stream` shard
    /// workers call it through `BatchEncoder::encode_frame_stream_into`).
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
        let adjustment = self.adjust_frame_with_map_into(
            frame,
            eccentricity,
            &mut scratch.adjust,
            &mut scratch.adjusted,
        );
        let after_adjust = Instant::now();
        scratch.adjusted.to_srgb_into(&mut scratch.srgb);
        let after_gamma = Instant::now();
        let temporal = self.config.temporal;
        let keyframe = !temporal.enabled
            || frame_index % temporal.keyframe_interval.max(1) == 0
            || !history.valid
            || history.prev.dimensions() != scratch.srgb.dimensions();
        let (temporal_stats, compression) = if keyframe {
            let compression =
                self.bd
                    .encode_frame_into(&scratch.srgb, &mut scratch.writer, &mut scratch.gather);
            let bits = scratch.writer.bits_written();
            (
                intra_frame_stats(adjustment.total_tiles as u64, bits),
                compression,
            )
        } else {
            pvc_bdc::encode_temporal_frame_into(
                self.config.tile_size,
                &scratch.srgb,
                &history.prev,
                &mut scratch.writer,
                &mut scratch.gather,
                &mut scratch.reference_gather,
            )
        };
        if temporal.enabled {
            history.prev.clone_from(&scratch.srgb);
            history.valid = true;
        }
        out.clear();
        out.extend_from_slice(scratch.writer.as_bytes());
        // Reading the clock is a vDSO call, not an allocation, so the
        // sub-stage timing rides along without disturbing the zero-alloc
        // pin on this path.
        scratch.timing = StageNanos {
            adjust: after_adjust.duration_since(started).as_nanos() as u64,
            gamma: after_gamma.duration_since(after_adjust).as_nanos() as u64,
            bd_encode: after_gamma.elapsed().as_nanos() as u64,
        };
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

/// Reusable per-session state for the serving encode path
/// ([`PerceptualEncoder::encode_frame_stream_into`] /
/// `BatchEncoder::encode_frame_stream_into`): the tile adjustment
/// buffers, the adjusted frame in both color spaces, the BD tile gather
/// buffer and the bitstream writer.
///
/// Buffers grow to the session's frame size on the first frame and are
/// reused verbatim afterwards, so session lifetime — not frame count —
/// bounds the allocations. One scratch may serve sessions of different
/// frame sizes back to back (a shard worker does exactly that); buffers
/// simply warm up to the largest size seen.
#[derive(Debug, Clone)]
pub struct StreamScratch {
    adjust: AdjustScratch,
    adjusted: LinearFrame,
    srgb: SrgbFrame,
    writer: BitWriter,
    gather: SrgbTileLanes,
    /// Reference-tile gather lanes for temporal encodes. Pure scratch —
    /// the bit-relevant previous frame lives in [`TemporalHistory`], so a
    /// shard worker can keep sharing one scratch across all its sessions.
    reference_gather: SrgbTileLanes,
    timing: StageNanos,
}

impl Default for StreamScratch {
    fn default() -> Self {
        StreamScratch {
            adjust: AdjustScratch::new(),
            // Placeholder frames; the first encode resizes them.
            adjusted: LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK),
            srgb: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            writer: BitWriter::new(),
            gather: SrgbTileLanes::new(),
            reference_gather: SrgbTileLanes::new(),
            timing: StageNanos::default(),
        }
    }
}

impl StreamScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        StreamScratch::default()
    }

    /// Wall-clock breakdown of the most recent
    /// [`PerceptualEncoder::encode_frame_stream_into`] call
    /// through this scratch (all zeros before the first encode). Lives on
    /// the scratch rather than in [`StreamFrameStats`] so the stats stay a
    /// pure function of the pixels — tests compare them across runs.
    pub fn last_timing(&self) -> StageNanos {
        self.timing
    }
}

/// Wall-clock nanoseconds spent in each sub-stage of one scratch
/// stream-encode: the per-frame breakdown a tracing worker turns into
/// adjust / gamma / BD-encode spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Eccentricity-guided tile adjustment.
    pub adjust: u64,
    /// Linear → sRGB gamma conversion.
    pub gamma: u64,
    /// BD entropy encode plus the copy into the caller's output buffer.
    pub bd_encode: u64,
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

/// Builds the [`TemporalFrameStats`] of an intra (key) frame: every tile
/// is an intra record and the temporal mode saves nothing.
fn intra_frame_stats(tiles: u64, bits: u64) -> TemporalFrameStats {
    TemporalFrameStats {
        keyframe: true,
        intra_tiles: tiles,
        bits,
        intra_bits: bits,
        ..TemporalFrameStats::default()
    }
}

/// The encoder side of a temporal session's GOP state: the previous
/// adjusted frame that the next predicted frame encodes against.
///
/// Owned per *session* (each [`crate::BatchEncoder`] embeds one), never
/// shared through [`StreamScratch`]: the previous frame is bit-relevant
/// state, while the scratch is explicitly documented as shareable across
/// sessions on a shard. [`Self::reset`] drops the reference, forcing the
/// next frame to be an intra keyframe — the handoff-boundary refresh the
/// migration/shed determinism pins rely on.
#[derive(Debug, Clone)]
pub struct TemporalHistory {
    prev: SrgbFrame,
    valid: bool,
}

impl Default for TemporalHistory {
    fn default() -> Self {
        TemporalHistory::new()
    }
}

impl TemporalHistory {
    /// Creates an empty (invalid) history: the first encode through it is
    /// forced to a keyframe.
    pub fn new() -> Self {
        TemporalHistory {
            prev: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            valid: false,
        }
    }

    /// Drops the reference frame, forcing the next frame to be an intra
    /// keyframe.
    pub fn reset(&mut self) {
        self.valid = false;
    }

    /// Whether the history holds a usable reference frame.
    pub fn is_valid(&self) -> bool {
        self.valid
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
