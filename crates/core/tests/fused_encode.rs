//! Pin: the fused serving encode equals the layered composition.
//!
//! `PerceptualEncoder::encode_frame_stream_into` adjusts, quantizes and
//! BD-packs each tile in one loop, with no frame-sized intermediate, and
//! keeps a temporal session's reference in tile-major planes. The oracle
//! here composes the public layer calls instead:
//!
//! ```text
//! adjust_frame_with_map_into → to_srgb_into → encode_frame_into
//!                                           | encode_temporal_frame_into(previous adjusted sRGB frame)
//! ```
//!
//! with its own keyframe policy: intra when temporal coding is off, on
//! every `keyframe_interval`-th frame index, with no previous frame, or
//! when the previous frame had another size or tile size. For every frame
//! the payload bytes and the whole `StreamFrameStats` must be equal.
//!
//! The cases cover tile sizes 4 and 8, edges that are not a tile
//! multiple, foveal tiles, all three temporal tile modes (a repeated
//! frame makes every tile a Skip), one scratch shared by two interleaved
//! sessions of different sizes, a `reset()`, and one history used at a
//! second tile size, which must force a keyframe. Every case runs on the
//! strip kernel's baseline compilation and on its AVX2 clone (where the
//! CPU has AVX2).

use pvc_bdc::{BdConfig, BdEncoder, BitWriter, TemporalFrameStats};
use pvc_color::{LinearRgb, Srgb8, SyntheticDiscriminationModel};
use pvc_core::{
    on_each_kernel_path, AdjustScratch, EncoderConfig, PerceptualEncoder, StreamFrameStats,
    StreamScratch, TemporalConfig, TemporalHistory,
};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, SrgbTileLanes, TileGrid};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

type Encoder = PerceptualEncoder<SyntheticDiscriminationModel>;

fn encoder(tile_size: u32, temporal: Option<u32>) -> Encoder {
    let mut config = EncoderConfig::default().with_tile_size(tile_size);
    if let Some(interval) = temporal {
        config = config.with_temporal(TemporalConfig::every(interval));
    }
    PerceptualEncoder::new(SyntheticDiscriminationModel::default(), config)
}

fn map(encoder: &Encoder, dims: Dimensions, gaze: GazePoint) -> EccentricityMap {
    let grid = TileGrid::new(dims, encoder.config().tile_size);
    let display = DisplayGeometry::quest2_like(dims);
    EccentricityMap::per_tile(&display, &grid, gaze, encoder.config().fovea)
}

/// The previous adjusted sRGB frame of one oracle session, with the tile
/// size it was coded at.
type Previous = Option<(SrgbFrame, u32)>;

/// The layered composition, with buffers of its own.
struct Layered {
    adjust: AdjustScratch,
    adjusted: LinearFrame,
    srgb: SrgbFrame,
    writer: BitWriter,
    gather: SrgbTileLanes,
    reference_gather: SrgbTileLanes,
}

impl Layered {
    fn new() -> Self {
        Layered {
            adjust: AdjustScratch::new(),
            adjusted: LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK),
            srgb: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            writer: BitWriter::new(),
            gather: SrgbTileLanes::new(),
            reference_gather: SrgbTileLanes::new(),
        }
    }

    fn encode(
        &mut self,
        encoder: &Encoder,
        frame: &LinearFrame,
        map: &EccentricityMap,
        previous: &mut Previous,
        frame_index: u32,
    ) -> (Vec<u8>, StreamFrameStats) {
        let config = encoder.config();
        let adjustment =
            encoder.adjust_frame_with_map_into(frame, map, &mut self.adjust, &mut self.adjusted);
        self.adjusted.to_srgb_into(&mut self.srgb);
        let temporal = config.temporal;
        let reference = previous.as_ref().filter(|(reference, tile_size)| {
            temporal.enabled
                && frame_index % temporal.keyframe_interval != 0
                && reference.dimensions() == self.srgb.dimensions()
                && *tile_size == config.tile_size
        });
        let (temporal_stats, compression) = match reference {
            Some((reference, _)) => pvc_bdc::encode_temporal_frame_into(
                config.tile_size,
                &self.srgb,
                reference,
                &mut self.writer,
                &mut self.gather,
                &mut self.reference_gather,
            ),
            None => {
                let compression = BdEncoder::new(BdConfig::with_tile_size(config.tile_size))
                    .encode_frame_into(&self.srgb, &mut self.writer, &mut self.gather);
                let bits = self.writer.bits_written();
                let intra = TemporalFrameStats {
                    keyframe: true,
                    intra_tiles: adjustment.total_tiles as u64,
                    bits,
                    intra_bits: bits,
                    ..TemporalFrameStats::default()
                };
                (intra, compression)
            }
        };
        if temporal.enabled {
            *previous = Some((self.srgb.clone(), config.tile_size));
        }
        let stats = StreamFrameStats {
            adjustment,
            compression,
            temporal: temporal_stats,
        };
        (self.writer.as_bytes().to_vec(), stats)
    }
}

/// One session on both paths: the fused encode with its history, and
/// the layered oracle with its previous frame.
struct Session {
    encoder: Encoder,
    renderer: SceneRenderer,
    history: TemporalHistory,
    previous: Previous,
    layered: Layered,
}

impl Session {
    fn new(encoder: Encoder, scene: SceneId, dims: Dimensions, seed: u64) -> Self {
        Session {
            encoder,
            renderer: SceneRenderer::new(scene, SceneConfig::new(dims).with_seed(seed)),
            history: TemporalHistory::new(),
            previous: None,
            layered: Layered::new(),
        }
    }

    fn dims(&self) -> Dimensions {
        self.renderer.config().dimensions
    }

    /// Encodes the scene's frame `time` as frame `frame_index` on both
    /// paths and asserts they agree; returns the fused stats.
    fn check(
        &mut self,
        scratch: &mut StreamScratch,
        time: u32,
        frame_index: u32,
        gaze: GazePoint,
    ) -> StreamFrameStats {
        let frame = self.renderer.render_linear(time);
        let map = map(&self.encoder, self.dims(), gaze);
        let mut fused = Vec::new();
        let stats = self.encoder.encode_frame_stream_into(
            &frame,
            &map,
            &mut self.history,
            frame_index,
            scratch,
            &mut fused,
        );
        let (bytes, expected) =
            self.layered
                .encode(&self.encoder, &frame, &map, &mut self.previous, frame_index);
        let context = format!(
            "{:?} tile {} frame {frame_index}",
            self.dims(),
            self.encoder.config().tile_size
        );
        assert_eq!(stats, expected, "stats differ: {context}");
        assert!(fused == bytes, "payload bytes differ: {context}");
        stats
    }

    fn reset(&mut self) {
        self.history.reset();
        self.previous = None;
    }
}

/// Sums the temporal modes and foveal tiles a run exercised.
#[derive(Default, Debug)]
struct Coverage {
    keyframes: u64,
    predicted: u64,
    skip: u64,
    delta: u64,
    intra_in_predicted: u64,
    foveal: u64,
}

impl Coverage {
    fn add(&mut self, stats: &StreamFrameStats) {
        let t = stats.temporal;
        if t.keyframe {
            self.keyframes += 1;
        } else {
            self.predicted += 1;
            self.intra_in_predicted += t.intra_tiles;
        }
        self.skip += t.skip_tiles;
        self.delta += t.delta_tiles;
        self.foveal += stats.adjustment.foveal_tiles as u64;
    }
}

/// The scene times of one run: consecutive frames, with one repeated so
/// a whole predicted frame is Skip tiles.
const TIMES: [u32; 9] = [0, 1, 2, 2, 3, 4, 5, 6, 7];

#[test]
fn fused_frames_equal_the_layered_composition() {
    on_each_kernel_path(|path| {
        eprintln!("fused_frames_equal_the_layered_composition: {path} kernel");
        fused_frames_equal_the_layered_composition_once();
    });
}

fn fused_frames_equal_the_layered_composition_once() {
    let mut scratch = StreamScratch::new();
    let mut coverage = Coverage::default();
    for (dims, scene) in [
        (Dimensions::new(64, 48), SceneId::Office),
        (Dimensions::new(37, 29), SceneId::Skyline),
        (Dimensions::new(45, 19), SceneId::Dumbo),
    ] {
        for tile_size in [4, 8] {
            for temporal in [None, Some(4)] {
                let mut session = Session::new(encoder(tile_size, temporal), scene, dims, 7);
                for (frame_index, &time) in TIMES.iter().enumerate() {
                    // Pursuit across the frame: the foveal tiles move,
                    // and a gaze off the left edge leaves none.
                    let gaze = GazePoint::new(
                        f64::from(dims.width) * (frame_index as f64 / 6.0 - 0.2),
                        f64::from(dims.height) / 2.0,
                    );
                    let stats = session.check(&mut scratch, time, frame_index as u32, gaze);
                    coverage.add(&stats);
                }
            }
        }
    }
    assert!(
        coverage.keyframes > 0 && coverage.predicted > 0,
        "{coverage:?}"
    );
    assert!(
        coverage.skip > 0 && coverage.delta > 0 && coverage.intra_in_predicted > 0,
        "every temporal tile mode must be covered: {coverage:?}"
    );
    assert!(coverage.foveal > 0, "foveal tiles must be covered");
}

#[test]
fn one_scratch_serves_interleaved_sessions_of_different_sizes() {
    on_each_kernel_path(|path| {
        eprintln!("one_scratch_serves_interleaved_sessions_of_different_sizes: {path} kernel");
        one_scratch_serves_interleaved_sessions_of_different_sizes_once();
    });
}

fn one_scratch_serves_interleaved_sessions_of_different_sizes_once() {
    let mut scratch = StreamScratch::new();
    let mut small = Session::new(
        encoder(4, Some(5)),
        SceneId::Thai,
        Dimensions::new(27, 21),
        3,
    );
    let mut large = Session::new(
        encoder(8, Some(3)),
        SceneId::Fortnite,
        Dimensions::new(70, 41),
        4,
    );
    let mut coverage = Coverage::default();
    for frame_index in 0..10u32 {
        // The small session repeats every other frame, so its history
        // must hold the Skip tiles' pixels too.
        let gaze = GazePoint::new(13.0, 10.0);
        coverage.add(&small.check(&mut scratch, frame_index / 2, frame_index, gaze));
        // A handoff refresh mid-GOP (7 is no multiple of the interval 3)
        // must force a keyframe.
        if frame_index == 7 {
            large.reset();
        }
        let stats = large.check(&mut scratch, frame_index, frame_index, gaze);
        assert_eq!(
            stats.temporal.keyframe,
            frame_index % 3 == 0 || frame_index == 7,
            "frame {frame_index}"
        );
        coverage.add(&stats);
    }
    assert!(coverage.skip > 0 && coverage.predicted > 0, "{coverage:?}");
}

#[test]
fn a_history_used_at_another_tile_size_forces_a_keyframe() {
    on_each_kernel_path(|path| {
        eprintln!("a_history_used_at_another_tile_size_forces_a_keyframe: {path} kernel");
        a_history_used_at_another_tile_size_forces_a_keyframe_once();
    });
}

fn a_history_used_at_another_tile_size_forces_a_keyframe_once() {
    let dims = Dimensions::new(40, 24);
    let encoders = [encoder(4, Some(100)), encoder(8, Some(100))];
    let mut session = Session::new(encoders[0].clone(), SceneId::Monkey, dims, 9);
    let mut scratch = StreamScratch::new();
    let gaze = GazePoint::center_of(dims);
    // Tile sizes per frame: one history, switched between the two.
    let schedule = [0, 0, 1, 1, 1, 0, 0];
    for (frame_index, &which) in schedule.iter().enumerate() {
        session.encoder = encoders[which].clone();
        let stats = session.check(&mut scratch, frame_index as u32, frame_index as u32, gaze);
        let switched = frame_index > 0 && schedule[frame_index - 1] != which;
        assert_eq!(
            stats.temporal.keyframe,
            frame_index == 0 || switched,
            "frame {frame_index}: only the first frame and a tile-size switch are keyframes"
        );
    }
}
