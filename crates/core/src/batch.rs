//! A session API for encoding gaze-streams of frames.
//!
//! A VR runtime does not encode one frame in isolation: it serves a stream
//! of frames for one headset (fixed display geometry) whose gaze moves in
//! fixations — long runs of frames share the same (or a re-sent) gaze
//! sample. Everything the perceptual encoder derives from the gaze alone is
//! therefore reusable across the stream: the per-tile [`EccentricityMap`]
//! walks every tile of the grid and evaluates five eccentricities per tile,
//! which for a Quest-2-sized frame is millions of trigonometric evaluations
//! that [`PerceptualEncoder::encode_frame`] would redo per frame.
//!
//! [`BatchEncoder`] owns the display geometry and a small most-recently-used
//! cache of eccentricity maps keyed by the exact gaze sample, and feeds the
//! cached map into the encoder's one adjustment implementation,
//! [`PerceptualEncoder::adjust_frame_with_map_into`]. Cache hits change
//! *where the map comes from*, never its contents, so the encoded stream is
//! bit-identical to calling the one-shot encoder per frame.

use crate::config::EncoderConfig;
use crate::encoder::{
    PerceptualEncodeResult, PerceptualEncoder, StreamFrameStats, StreamScratch, TemporalHistory,
};
use pvc_color::DiscriminationModel;
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{LinearFrame, TileGrid};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Default number of distinct gazes the session keeps maps for.
pub const DEFAULT_GAZE_CACHE_CAPACITY: usize = 8;

/// Hit/miss counters of a session's eccentricity-map cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchCacheStats {
    /// Frames that reused a cached eccentricity map.
    pub hits: u64,
    /// Frames that had to build a fresh eccentricity map.
    pub misses: u64,
    /// Number of maps currently cached.
    pub entries: usize,
}

impl BatchCacheStats {
    /// Fraction of frames served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A per-stream encoding session that amortises gaze-dependent setup
/// across frames.
///
/// # Examples
///
/// ```
/// use pvc_color::SyntheticDiscriminationModel;
/// use pvc_core::{BatchEncoder, EncoderConfig};
/// use pvc_fovea::{DisplayGeometry, GazePoint};
/// use pvc_frame::{Dimensions, LinearFrame};
/// use pvc_color::LinearRgb;
///
/// let dims = Dimensions::new(64, 64);
/// let display = DisplayGeometry::quest2_like(dims);
/// let mut session = BatchEncoder::new(
///     SyntheticDiscriminationModel::default(),
///     EncoderConfig::default(),
///     display,
/// );
///
/// // Three frames of a fixation: one map build, two cache hits.
/// let gaze = GazePoint::center_of(dims);
/// for shade in [0.3, 0.4, 0.5] {
///     let frame = LinearFrame::filled(dims, LinearRgb::new(shade, 0.5, 0.4));
///     let result = session.encode(&frame, gaze);
///     assert!(result.our_stats().compressed_bits <= result.bd_stats().compressed_bits);
/// }
/// assert_eq!(session.cache_stats().hits, 2);
/// assert_eq!(session.cache_stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BatchEncoder<M> {
    encoder: PerceptualEncoder<M>,
    display: DisplayGeometry,
    /// Most-recently-used first; keys are the exact gaze bit patterns so a
    /// hit can never change the encoded output.
    cache: Vec<((u64, u64), Arc<EccentricityMap>)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    /// GOP state for temporal coding: the previous adjusted frame. Stays
    /// an untouched placeholder when temporal coding is disabled.
    history: TemporalHistory,
    /// Absolute index of the next frame fed through
    /// [`Self::encode_frame_stream_into`]; drives the keyframe schedule.
    next_frame_index: u32,
}

impl<M: DiscriminationModel> BatchEncoder<M> {
    /// Creates a session for one display from a discrimination model and an
    /// encoder configuration.
    pub fn new(model: M, config: EncoderConfig, display: DisplayGeometry) -> Self {
        BatchEncoder {
            encoder: PerceptualEncoder::new(model, config),
            display,
            cache: Vec::new(),
            capacity: DEFAULT_GAZE_CACHE_CAPACITY,
            hits: 0,
            misses: 0,
            history: TemporalHistory::new(),
            next_frame_index: 0,
        }
    }

    /// Returns the session positioned at absolute frame `index` — the
    /// builder form of [`Self::set_next_frame_index`].
    pub fn with_start_frame(mut self, index: u32) -> Self {
        self.set_next_frame_index(index);
        self
    }

    /// Repositions the session at absolute frame `index` and drops the
    /// temporal reference, forcing the next frame to be a keyframe.
    ///
    /// This is the handoff-boundary primitive: a runtime rebuilding a
    /// session's encoder mid-stream (migration resume, shed/retier) seeds
    /// the counter with the frames already streamed, so the keyframe
    /// schedule stays a pure function of the absolute frame index and the
    /// stream re-aligns bit-exactly with a solo run from the next
    /// interval multiple.
    pub fn set_next_frame_index(&mut self, index: u32) {
        self.next_frame_index = index;
        self.history.reset();
    }

    /// Absolute index of the next frame
    /// [`Self::encode_frame_stream_into`] will encode.
    pub fn next_frame_index(&self) -> u32 {
        self.next_frame_index
    }

    /// Returns the session with a different gaze-cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be non-zero");
        self.capacity = capacity;
        self.cache.truncate(capacity);
        self
    }

    /// The underlying one-shot encoder.
    pub fn encoder(&self) -> &PerceptualEncoder<M> {
        &self.encoder
    }

    /// The display geometry this session encodes for.
    pub fn display(&self) -> &DisplayGeometry {
        &self.display
    }

    /// Cache hit/miss counters for the frames encoded so far.
    pub fn cache_stats(&self) -> BatchCacheStats {
        BatchCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.cache.len(),
        }
    }

    /// Encodes the next frame of the stream, viewed under `gaze`.
    ///
    /// Bit-identical to `PerceptualEncoder::encode_frame` on the same
    /// inputs; the session only saves the eccentricity-map construction when
    /// the gaze repeats.
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn encode(&mut self, frame: &LinearFrame, gaze: GazePoint) -> PerceptualEncodeResult {
        assert_eq!(
            frame.dimensions(),
            self.display.dimensions(),
            "frame and display dimensions must match"
        );
        let map = self.map_for(gaze);
        self.encoder.encode_frame_with_map(frame, &map)
    }

    /// Serving encode of the next frame: the BD payload is packed straight
    /// into `out` and every intermediate lives in `scratch`. An intra
    /// frame's bytes are bit-identical to [`Self::encode`]'s
    /// `encoded.to_bitstream()`; with temporal coding enabled the session's
    /// own history and frame counter drive the keyframe schedule (see
    /// [`PerceptualEncoder::encode_frame_stream_into`]).
    ///
    /// On a cache-hitting gaze this is the allocation-free serving path: a
    /// session that keeps one [`StreamScratch`] and one output buffer
    /// across its stream allocates nothing per steady-state frame (pinned
    /// by the `alloc_regression` tier-2 test).
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn encode_frame_stream_into(
        &mut self,
        frame: &LinearFrame,
        gaze: GazePoint,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        assert_eq!(
            frame.dimensions(),
            self.display.dimensions(),
            "frame and display dimensions must match"
        );
        let map = self.map_for(gaze);
        let frame_index = self.next_frame_index;
        self.next_frame_index = self.next_frame_index.wrapping_add(1);
        self.encoder.encode_frame_stream_into(
            frame,
            &map,
            &mut self.history,
            frame_index,
            scratch,
            out,
        )
    }

    /// Returns the eccentricity map for `gaze`, building and caching it on
    /// a miss and refreshing its recency on a hit.
    fn map_for(&mut self, gaze: GazePoint) -> Arc<EccentricityMap> {
        let key = (gaze.x.to_bits(), gaze.y.to_bits());
        if let Some(position) = self.cache.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            let entry = self.cache.remove(position);
            self.cache.insert(0, entry);
            return Arc::clone(&self.cache[0].1);
        }
        self.misses += 1;
        let config = self.encoder.config();
        let grid = TileGrid::new(self.display.dimensions(), config.tile_size);
        let map = Arc::new(EccentricityMap::per_tile(
            &self.display,
            &grid,
            gaze,
            config.fovea,
        ));
        self.cache.insert(0, (key, Arc::clone(&map)));
        self.cache.truncate(self.capacity);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::SyntheticDiscriminationModel;
    use pvc_frame::Dimensions;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    fn session(dims: Dimensions) -> BatchEncoder<SyntheticDiscriminationModel> {
        BatchEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
            DisplayGeometry::quest2_like(dims),
        )
    }

    fn frames(dims: Dimensions, count: u32) -> Vec<LinearFrame> {
        let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims));
        (0..count).map(|t| renderer.render_linear(t)).collect()
    }

    #[test]
    fn batch_output_matches_one_shot_encoder() {
        let dims = Dimensions::new(96, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let one_shot = PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
        );
        let mut batch = session(dims);
        let gazes = [
            GazePoint::center_of(dims),
            GazePoint::new(10.0, 12.0),
            GazePoint::center_of(dims),
        ];
        for (frame, gaze) in frames(dims, 3).iter().zip(gazes) {
            let expected = one_shot.encode_frame(frame, &display, gaze);
            let got = batch.encode(frame, gaze);
            assert_eq!(got.encoded, expected.encoded);
            assert_eq!(got.baseline(), expected.baseline());
            assert_eq!(got.adjusted, expected.adjusted);
            assert_eq!(got.stats, expected.stats);
        }
    }

    #[test]
    fn repeated_gaze_hits_the_cache() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let gaze = GazePoint::center_of(dims);
        for frame in frames(dims, 4) {
            let _ = batch.encode(&frame, gaze);
        }
        let stats = batch.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cache_evicts_least_recently_used_gaze() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims).with_cache_capacity(2);
        let frame = &frames(dims, 1)[0];
        let g1 = GazePoint::new(1.0, 1.0);
        let g2 = GazePoint::new(2.0, 2.0);
        let g3 = GazePoint::new(3.0, 3.0);
        let _ = batch.encode(frame, g1);
        let _ = batch.encode(frame, g2);
        let _ = batch.encode(frame, g3); // evicts g1
        let _ = batch.encode(frame, g2); // hit
        let _ = batch.encode(frame, g1); // rebuilt
        let stats = batch.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn touching_an_entry_refreshes_its_recency() {
        // MRU semantics: with capacity 2, re-touching g1 right before g3
        // arrives must make g2 — not g1 — the eviction victim.
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims).with_cache_capacity(2);
        let frame = &frames(dims, 1)[0];
        let g1 = GazePoint::new(1.0, 1.0);
        let g2 = GazePoint::new(2.0, 2.0);
        let g3 = GazePoint::new(3.0, 3.0);
        let _ = batch.encode(frame, g1); // miss: [g1]
        let _ = batch.encode(frame, g2); // miss: [g2, g1]
        let _ = batch.encode(frame, g1); // hit, refresh: [g1, g2]
        let _ = batch.encode(frame, g3); // miss, evicts LRU g2: [g3, g1]
        assert_eq!(
            batch.cache_stats(),
            BatchCacheStats {
                hits: 1,
                misses: 3,
                entries: 2
            }
        );
        let _ = batch.encode(frame, g1); // still cached
        assert_eq!(batch.cache_stats().hits, 2);
        let _ = batch.encode(frame, g2); // was evicted, rebuilt
        let stats = batch.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn eviction_at_capacity_removes_only_the_least_recently_used() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims).with_cache_capacity(3);
        let frame = &frames(dims, 1)[0];
        let gazes: Vec<GazePoint> = (0..3).map(|i| GazePoint::new(i as f64, 0.0)).collect();
        for &g in &gazes {
            let _ = batch.encode(frame, g); // fill: [g2, g1, g0]
        }
        let newcomer = GazePoint::new(99.0, 0.0);
        let _ = batch.encode(frame, newcomer); // evicts g0: [new, g2, g1]
                                               // g1 and g2 survived ...
        let _ = batch.encode(frame, gazes[1]);
        let _ = batch.encode(frame, gazes[2]);
        assert_eq!(batch.cache_stats().hits, 2);
        // ... and only g0 has to be rebuilt.
        let _ = batch.encode(frame, gazes[0]);
        assert_eq!(
            batch.cache_stats(),
            BatchCacheStats {
                hits: 2,
                misses: 5,
                entries: 3
            }
        );
    }

    #[test]
    fn serving_session_is_bit_identical_to_the_figure_session() {
        let dims = Dimensions::new(96, 64);
        let mut figure = session(dims);
        let mut serving = session(dims);
        let mut scratch = StreamScratch::new();
        let mut bitstream = Vec::new();
        let gazes = [
            GazePoint::center_of(dims),
            GazePoint::new(10.0, 12.0),
            GazePoint::center_of(dims),
        ];
        for (frame, gaze) in frames(dims, 3).iter().zip(gazes) {
            let expected = figure.encode(frame, gaze);
            let stats = serving.encode_frame_stream_into(frame, gaze, &mut scratch, &mut bitstream);
            assert_eq!(bitstream, expected.encoded.to_bitstream());
            assert_eq!(stats.adjustment, expected.stats);
            assert_eq!(stats.compression, expected.our_stats());
        }
        // Both paths drive the same gaze cache.
        assert_eq!(serving.cache_stats(), figure.cache_stats());
        assert_eq!(serving.cache_stats().hits, 1);
    }

    #[test]
    fn temporal_streams_decode_to_the_adjusted_frames() {
        use crate::config::TemporalConfig;
        use pvc_bdc::{BdDecoder, FrameKind};

        let dims = Dimensions::new(96, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let config = EncoderConfig::default().with_temporal(TemporalConfig::every(3));
        let mut temporal =
            BatchEncoder::new(SyntheticDiscriminationModel::default(), config, display);
        let mut intra = session(dims);
        let mut scratch = StreamScratch::new();
        let mut payload = Vec::new();
        let mut decoder = BdDecoder::new();
        let mut decoded =
            pvc_frame::SrgbFrame::filled(Dimensions::new(1, 1), pvc_color::Srgb8::default());
        let gaze = GazePoint::new(10.0, 12.0);
        let mut saved = 0i64;
        for (index, frame) in frames(dims, 7).iter().enumerate() {
            let expected = intra.encode(frame, gaze);
            let stats = temporal.encode_frame_stream_into(frame, gaze, &mut scratch, &mut payload);
            let expected_key = index % 3 == 0;
            assert_eq!(stats.temporal.keyframe, expected_key, "frame {index}");
            if expected_key {
                // Keyframes are the exact intra bitstream.
                assert_eq!(payload, expected.encoded.to_bitstream(), "frame {index}");
                assert_eq!(stats.temporal.bits, stats.temporal.intra_bits);
            } else {
                assert!(pvc_bdc::is_temporal_bitstream(&payload), "frame {index}");
            }
            // The temporal stats account every tile and the whole payload.
            let tiles =
                stats.temporal.skip_tiles + stats.temporal.delta_tiles + stats.temporal.intra_tiles;
            assert_eq!(tiles, stats.adjustment.total_tiles as u64, "frame {index}");
            assert_eq!(
                stats.temporal.bits.div_ceil(8) as usize,
                payload.len(),
                "frame {index}"
            );
            saved += stats.temporal.intra_bits as i64 - stats.temporal.bits as i64;
            // Decoding reconstructs the adjusted frame bit-exactly.
            let kind = decoder.decode_frame_into(&payload, &mut decoded).unwrap();
            assert_eq!(
                kind,
                if expected_key {
                    FrameKind::Key
                } else {
                    FrameKind::Predicted
                }
            );
            assert_eq!(decoded, expected.adjusted, "frame {index}");
        }
        assert!(saved > 0, "an animated fixation must save bits");
    }

    #[test]
    fn keyframe_interval_one_is_byte_identical_to_intra_only() {
        use crate::config::TemporalConfig;
        let dims = Dimensions::new(64, 64);
        let display = DisplayGeometry::quest2_like(dims);
        // An interval of 1 keys every frame; a disabled temporal config
        // keys every frame whatever its interval says.
        for temporal_config in [
            TemporalConfig::every(1),
            TemporalConfig {
                enabled: false,
                keyframe_interval: 5,
            },
        ] {
            let mut temporal = BatchEncoder::new(
                SyntheticDiscriminationModel::default(),
                EncoderConfig::default().with_temporal(temporal_config),
                display,
            );
            let mut intra = session(dims);
            let mut scratch = StreamScratch::new();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let gaze = GazePoint::center_of(dims);
            for (index, frame) in frames(dims, 7).iter().enumerate() {
                let t = temporal.encode_frame_stream_into(frame, gaze, &mut scratch, &mut a);
                let i = intra.encode_frame_stream_into(frame, gaze, &mut scratch, &mut b);
                assert_eq!(a, b, "{temporal_config:?} frame {index}");
                assert_eq!(t, i, "{temporal_config:?} frame {index}");
                assert!(t.temporal.keyframe);
            }
        }
    }

    #[test]
    fn reseeded_session_realigns_with_the_solo_stream_at_the_next_keyframe() {
        use crate::config::TemporalConfig;
        let dims = Dimensions::new(64, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let config = EncoderConfig::default().with_temporal(TemporalConfig::every(3));
        let make = || {
            BatchEncoder::new(
                SyntheticDiscriminationModel::default(),
                config.clone(),
                display,
            )
        };
        let gaze = GazePoint::center_of(dims);
        let rendered = frames(dims, 9);
        let mut scratch = StreamScratch::new();

        let mut solo = make();
        let solo_payloads: Vec<Vec<u8>> = rendered
            .iter()
            .map(|frame| {
                let mut out = Vec::new();
                solo.encode_frame_stream_into(frame, gaze, &mut scratch, &mut out);
                out
            })
            .collect();

        // A handoff at frame 4: the resumed encoder starts mid-GOP.
        let mut resumed = make().with_start_frame(4);
        assert_eq!(resumed.next_frame_index(), 4);
        for (index, frame) in rendered.iter().enumerate().skip(4) {
            let mut out = Vec::new();
            let stats = resumed.encode_frame_stream_into(frame, gaze, &mut scratch, &mut out);
            if index == 4 {
                // Forced refresh: the history is invalid after the seed.
                assert!(stats.temporal.keyframe);
            }
            if index >= 6 {
                // From the next interval multiple the stream is bit-equal
                // to the solo run again.
                assert_eq!(out, solo_payloads[index], "frame {index}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_frame_dimensions_panic() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let wrong = LinearFrame::filled(Dimensions::new(32, 32), pvc_color::LinearRgb::BLACK);
        let _ = batch.encode(&wrong, GazePoint::center_of(dims));
    }

    #[test]
    fn empty_session_has_zero_hit_rate() {
        let stats = BatchCacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn sessions_can_move_to_worker_threads() {
        // One session per stream on its own thread is the serving shape;
        // pin the Send bound so the cache never regresses to !Send.
        fn assert_send<T: Send>() {}
        assert_send::<BatchEncoder<SyntheticDiscriminationModel>>();

        let dims = Dimensions::new(32, 32);
        let mut moved = session(dims);
        let handle = std::thread::spawn(move || {
            let frame = LinearFrame::filled(dims, pvc_color::LinearRgb::BLACK);
            moved.encode(&frame, GazePoint::center_of(dims)).stats
        });
        let stats = handle.join().expect("worker thread");
        assert_eq!(stats.total_tiles, 64);
    }
}
