//! The two headset workloads: one headset, one thread, a closed loop that
//! submits the next frame only after the previous one has been decoded.
//!
//! The GPU side encodes each rendered frame into the compressed
//! framebuffer (`BatchEncoder::encode_frame_stream_into`) and the display
//! side reads it back (`BdDecoder::decode_frame_into`). Frames are
//! rendered outside the timed interval. A pass is 24 frames of each of the
//! six catalogue scenes, viewed under one seeded gaze trace; every pass
//! starts a fresh session, so each pass emits the same bytes.
//!
//! Before measuring, a reference pass composes the same frames from the
//! public layer calls (map build, adjust, gamma, BD or temporal encode,
//! decode) and checks that each decoded frame equals the adjusted sRGB
//! frame. Its per-frame digests are the oracle every measured frame is
//! checked against. The traced run times that composition, span by span.

use crate::report::{fnv1a, mean, peak_rss_mb, quantile, Outcome, FNV_OFFSET_BASIS};
use crate::spans::Spans;
use crate::Args;
use pvc_bdc::{BdConfig, BdDecoder, BdEncoder, BitWriter};
use pvc_color::{LinearRgb, Srgb8, SyntheticDiscriminationModel};
use pvc_core::{
    AdjustScratch, AdjustmentStats, BatchCacheStats, BatchEncoder, EncoderConfig,
    PerceptualEncoder, StreamScratch, TemporalConfig, DEFAULT_GAZE_CACHE_CAPACITY,
};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, SrgbTileLanes, TileGrid};
use pvc_metrics::TemporalTotals;
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
use pvc_stream::{GazeModel, GazeTrace};
use std::time::{Duration, Instant};

/// Per-eye frame size: Quest-2 scaled down to 256×256.
pub const SIZE: u32 = 256;
/// Consecutive frames of one scene within a pass.
pub const FRAMES_PER_SCENE: usize = 24;
/// Frames per pass: every catalogue scene once.
pub const PASS_FRAMES: usize = FRAMES_PER_SCENE * SceneId::ALL.len();
/// Pursuit speed of `headset_pursuit_temporal`, in pixels per frame.
pub const PURSUIT_PX_PER_FRAME: f64 = 1.5;
/// Set-ups per run; the run reports their median.
const SETUP_REPEATS: usize = 15;

/// Which headset workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixation/saccade gaze, intra-only coding.
    Fixation,
    /// Smooth-pursuit gaze, temporal coding at the default keyframe
    /// interval.
    PursuitTemporal,
}

impl Kind {
    fn gaze_model(self, dims: Dimensions) -> GazeModel {
        match self {
            Kind::Fixation => GazeModel::default_for(dims),
            Kind::PursuitTemporal => GazeModel::pursuit(PURSUIT_PX_PER_FRAME),
        }
    }

    fn encoder_config(self) -> EncoderConfig {
        match self {
            Kind::Fixation => EncoderConfig::default(),
            Kind::PursuitTemporal => EncoderConfig::default().with_temporal(TemporalConfig::every(
                TemporalConfig::default().keyframe_interval,
            )),
        }
    }

    /// The workload parameters recorded with every result.
    pub fn params(self) -> String {
        let config = self.encoder_config();
        format!(
            "{{\"frame\": \"{SIZE}x{SIZE}\", \"pass_frames\": {PASS_FRAMES}, \"frames_per_scene\": {FRAMES_PER_SCENE}, \"gaze\": \"{}\", \"temporal\": {}, \"keyframe_interval\": {}, \"tile_size\": {}, \"threads\": 1}}",
            match self {
                Kind::Fixation => "fixation-saccade".to_string(),
                Kind::PursuitTemporal => format!("pursuit {PURSUIT_PX_PER_FRAME} px/frame"),
            },
            config.temporal.enabled,
            config.temporal.keyframe_interval,
            config.tile_size
        )
    }
}

fn dims() -> Dimensions {
    Dimensions::new(SIZE, SIZE)
}

/// Everything built before the first frame: the session template, the
/// per-layer composer, the scene renderers, the gaze trace, and the
/// serving buffers, warmed by one flat frame through encode and decode.
struct Setup {
    session: BatchEncoder<SyntheticDiscriminationModel>,
    composer: Composer,
    renderers: Vec<SceneRenderer>,
    gaze: Vec<GazePoint>,
    /// Rotates which scene comes first in a pass.
    scene_offset: usize,
    scratch: StreamScratch,
    payload: Vec<u8>,
    decoded: SrgbFrame,
}

impl Setup {
    fn new(kind: Kind, seed: u64) -> Setup {
        let dims = dims();
        let display = DisplayGeometry::quest2_like(dims);
        let config = kind.encoder_config();
        let session = BatchEncoder::new(
            SyntheticDiscriminationModel::default(),
            config.clone(),
            display,
        );
        let composer = Composer::new(config, display);
        let renderers = SceneId::ALL
            .iter()
            .map(|&scene| SceneRenderer::new(scene, SceneConfig::new(dims).with_seed(seed)))
            .collect();
        let gaze = GazeTrace::synthesize(&kind.gaze_model(dims), dims, seed, PASS_FRAMES)
            .samples()
            .to_vec();
        // Lazy set-up (the sRGB tables, buffer growth) happens on the
        // first frame; pay it here, on a throwaway copy of the session.
        let mut scratch = StreamScratch::new();
        let mut payload = Vec::new();
        let mut decoded = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        let warm = LinearFrame::filled(dims, LinearRgb::new(0.18, 0.18, 0.18));
        session
            .clone()
            .encode_frame_stream_into(&warm, gaze[0], &mut scratch, &mut payload);
        // A decode failure here shows up again, counted, in the first pass.
        let _ = BdDecoder::new().decode_frame_into(&payload, &mut decoded);
        Setup {
            session,
            composer,
            renderers,
            gaze,
            scene_offset: (seed % SceneId::ALL.len() as u64) as usize,
            scratch,
            payload,
            decoded,
        }
    }

    /// Renders frame `index` of a pass into `frame`, returning the time
    /// it took.
    fn render(&self, index: usize, frame: &mut LinearFrame) -> Duration {
        let scene = (index / FRAMES_PER_SCENE + self.scene_offset) % self.renderers.len();
        let started = Instant::now();
        self.renderers[scene].render_linear_into(index as u32, frame);
        started.elapsed()
    }
}

/// What the composition produced for one frame.
struct Composed {
    payload_digest: u64,
    decoded_digest: u64,
    /// The frame decoded and equals the adjusted sRGB frame.
    decoded_ok: bool,
}

/// One frame composed from the public layer calls, the way
/// `BatchEncoder::encode_frame_stream_into` composes them: an MRU
/// eccentricity-map cache keyed by the exact gaze, adjust, gamma, then an
/// intra keyframe or a temporal frame against the previous adjusted
/// frame, then the display-side decode.
struct Composer {
    encoder: PerceptualEncoder<SyntheticDiscriminationModel>,
    bd: BdEncoder,
    display: DisplayGeometry,
    grid: TileGrid,
    keyframe_interval: Option<u32>,
    maps: Vec<((u64, u64), EccentricityMap)>,
    adjust: AdjustScratch,
    adjusted: LinearFrame,
    srgb: SrgbFrame,
    previous: Option<SrgbFrame>,
    writer: BitWriter,
    gather: SrgbTileLanes,
    reference_gather: SrgbTileLanes,
    decoder: BdDecoder,
    decoded: SrgbFrame,
}

impl Composer {
    fn new(config: EncoderConfig, display: DisplayGeometry) -> Composer {
        let grid = TileGrid::new(display.dimensions(), config.tile_size);
        let keyframe_interval = config
            .temporal
            .enabled
            .then_some(config.temporal.keyframe_interval);
        Composer {
            bd: BdEncoder::new(BdConfig::with_tile_size(config.tile_size)),
            encoder: PerceptualEncoder::new(SyntheticDiscriminationModel::default(), config),
            display,
            grid,
            keyframe_interval,
            maps: Vec::new(),
            adjust: AdjustScratch::new(),
            adjusted: LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK),
            srgb: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            previous: None,
            writer: BitWriter::new(),
            gather: SrgbTileLanes::new(),
            reference_gather: SrgbTileLanes::new(),
            decoder: BdDecoder::new(),
            decoded: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
        }
    }

    /// Starts a fresh session: no cached maps, no temporal reference.
    fn start_pass(&mut self) {
        self.maps.clear();
        self.previous = None;
        self.decoder.invalidate_reference();
    }

    /// Composes frame `index` of the pass. With `spans`, each layer call
    /// is recorded as a child of a frame span.
    fn frame(
        &mut self,
        index: u32,
        frame: &LinearFrame,
        gaze: GazePoint,
        spans: Option<&mut Spans>,
    ) -> Composed {
        let mut laps = Laps::open(spans, index);
        let key = (gaze.x.to_bits(), gaze.y.to_bits());
        match self.maps.iter().position(|(k, _)| *k == key) {
            Some(hit) => {
                let entry = self.maps.remove(hit);
                self.maps.insert(0, entry);
                laps.restart();
            }
            None => {
                let fovea = self.encoder.config().fovea;
                let map = EccentricityMap::per_tile(&self.display, &self.grid, gaze, fovea);
                laps.lap("pvc_fovea.map");
                self.maps.insert(0, (key, map));
                self.maps.truncate(DEFAULT_GAZE_CACHE_CAPACITY);
                laps.restart();
            }
        }
        self.encoder.adjust_frame_with_map_into(
            frame,
            &self.maps[0].1,
            &mut self.adjust,
            &mut self.adjusted,
        );
        laps.lap("pvc_core.adjust");
        self.adjusted.to_srgb_into(&mut self.srgb);
        laps.lap("pvc_frame.gamma");
        let keyframe = self
            .keyframe_interval
            .map_or(true, |interval| index % interval == 0);
        match (&self.previous, keyframe) {
            (Some(previous), false) => {
                pvc_bdc::encode_temporal_frame_into(
                    self.grid.tile_size(),
                    &self.srgb,
                    previous,
                    &mut self.writer,
                    &mut self.gather,
                    &mut self.reference_gather,
                );
            }
            _ => {
                self.bd
                    .encode_frame_into(&self.srgb, &mut self.writer, &mut self.gather);
            }
        }
        laps.lap("pvc_bdc.encode");
        let decoded = self
            .decoder
            .decode_frame_into(self.writer.as_bytes(), &mut self.decoded);
        laps.lap("pvc_bdc.decode");
        laps.close();

        if self.keyframe_interval.is_some() {
            match &mut self.previous {
                Some(previous) => previous.clone_from(&self.srgb),
                None => self.previous = Some(self.srgb.clone()),
            }
        }
        Composed {
            payload_digest: fnv1a(FNV_OFFSET_BASIS, self.writer.as_bytes()),
            decoded_digest: frame_digest(&self.decoded),
            decoded_ok: decoded.is_ok() && self.decoded == self.srgb,
        }
    }

    /// Bits plain BD spends on the unadjusted frame.
    fn baseline_bits(&mut self, frame: &LinearFrame, original: &mut SrgbFrame) -> u64 {
        frame.to_srgb_into(original);
        self.bd
            .encode_frame_into(original, &mut self.writer, &mut self.gather);
        self.writer.bits_written()
    }
}

/// Back-to-back child spans of one frame span; does nothing untraced.
struct Laps<'a> {
    spans: Option<(&'a mut Spans, usize)>,
    started: Instant,
}

impl<'a> Laps<'a> {
    fn open(spans: Option<&'a mut Spans>, frame: u32) -> Laps<'a> {
        let spans = spans.map(|spans| {
            let root = spans.open("frame", u64::from(frame));
            (spans, root)
        });
        Laps {
            spans,
            started: Instant::now(),
        }
    }

    /// Records the time since the last lap as a `layer` span.
    fn lap(&mut self, layer: &'static str) {
        if let Some((spans, root)) = self.spans.as_mut() {
            spans.record(layer, *root, self.started);
            self.started = Instant::now();
        }
    }

    /// Leaves the time since the last lap to the frame span itself.
    fn restart(&mut self) {
        if self.spans.is_some() {
            self.started = Instant::now();
        }
    }

    fn close(self) {
        if let Some((spans, root)) = self.spans {
            spans.close(root);
        }
    }
}

/// FNV-1a over a frame's pixels.
fn frame_digest(frame: &SrgbFrame) -> u64 {
    frame
        .pixels()
        .iter()
        .fold(FNV_OFFSET_BASIS, |hash, p| fnv1a(hash, &[p.r, p.g, p.b]))
}

/// Expected digests of every frame of a pass, plus the plain-BD bits of
/// the unadjusted pass.
struct Reference {
    payload: Vec<u64>,
    decoded: Vec<u64>,
    baseline_bits: u64,
}

fn reference_pass(
    setup: &mut Setup,
    frame: &mut LinearFrame,
    render_ms: &mut Vec<f64>,
    outcome: &mut Outcome,
) -> Reference {
    let mut reference = Reference {
        payload: Vec::with_capacity(PASS_FRAMES),
        decoded: Vec::with_capacity(PASS_FRAMES),
        baseline_bits: 0,
    };
    let mut original = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    setup.composer.start_pass();
    for index in 0..PASS_FRAMES {
        render_ms.push(setup.render(index, frame).as_secs_f64() * 1e3);
        let composed = setup
            .composer
            .frame(index as u32, frame, setup.gaze[index], None);
        outcome.count(composed.decoded_ok);
        reference.payload.push(composed.payload_digest);
        reference.decoded.push(composed.decoded_digest);
        reference.baseline_bits += setup.composer.baseline_bits(frame, &mut original);
    }
    reference
}

/// What the untraced serving passes measured.
#[derive(Debug, Default)]
struct Measured {
    /// Per pass, the encode+decode time of each frame. Every pass does
    /// the same work, so the run reports the median pass: it is robust to
    /// a burst of load on the machine.
    pass_frame_ms: Vec<Vec<f64>>,
    passes: u64,
    /// Map-cache counters of one pass (every pass emits the same bytes).
    cache: BatchCacheStats,
    /// Adjustment statistics of one pass.
    adjustment: AdjustmentStats,
    /// Temporal statistics, emitted bits included, of one pass.
    temporal: TemporalTotals,
}

/// One pass of the serving path: a fresh session encodes every frame,
/// a fresh decoder reads it back, and each frame is checked against the
/// reference.
fn untraced_pass(
    setup: &mut Setup,
    reference: &Reference,
    corrupt: Option<u64>,
    frame: &mut LinearFrame,
    render_ms: &mut Vec<f64>,
    measured: &mut Measured,
    outcome: &mut Outcome,
) {
    let first = measured.passes == 0;
    let mut frame_ms = Vec::with_capacity(PASS_FRAMES);
    let mut session = setup.session.clone();
    let mut decoder = BdDecoder::new();
    for index in 0..PASS_FRAMES {
        render_ms.push(setup.render(index, frame).as_secs_f64() * 1e3);
        let gaze = setup.gaze[index];
        let t0 = Instant::now();
        let stats =
            session.encode_frame_stream_into(frame, gaze, &mut setup.scratch, &mut setup.payload);
        let encode = t0.elapsed();
        let payload = &mut setup.payload;
        if corrupt == Some(measured.passes * PASS_FRAMES as u64 + index as u64) {
            let middle = payload.len() / 2;
            payload[middle] ^= 0x10;
        }
        let t1 = Instant::now();
        let decode = decoder.decode_frame_into(payload, &mut setup.decoded);
        let elapsed = encode + t1.elapsed();

        outcome.count(
            decode.is_ok()
                && fnv1a(FNV_OFFSET_BASIS, payload) == reference.payload[index]
                && frame_digest(&setup.decoded) == reference.decoded[index],
        );
        frame_ms.push(elapsed.as_secs_f64() * 1e3);
        if first {
            measured.adjustment.merge(&stats.adjustment);
            let t = stats.temporal;
            measured.temporal.record_frame(
                t.keyframe,
                t.skip_tiles,
                t.delta_tiles,
                t.intra_tiles,
                t.bits,
                t.intra_bits,
            );
        }
    }
    if first {
        measured.cache = session.cache_stats();
    }
    measured.pass_frame_ms.push(frame_ms);
    measured.passes += 1;
}

/// One pass of the traced composition, checked like the serving path.
fn traced_pass(
    setup: &mut Setup,
    reference: &Reference,
    frame: &mut LinearFrame,
    render_ms: &mut Vec<f64>,
    spans: &mut Spans,
    outcome: &mut Outcome,
) {
    setup.composer.start_pass();
    for index in 0..PASS_FRAMES {
        render_ms.push(setup.render(index, frame).as_secs_f64() * 1e3);
        let composed = setup
            .composer
            .frame(index as u32, frame, setup.gaze[index], Some(spans));
        outcome.count(
            composed.decoded_ok
                && composed.payload_digest == reference.payload[index]
                && composed.decoded_digest == reference.decoded[index],
        );
    }
}

/// Runs one headset workload and returns its outcome.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let mut frame = LinearFrame::filled(dims(), LinearRgb::BLACK);
    let mut render_ms = Vec::new();
    let mut setup = Setup::new(kind, args.seed);
    let reference = reference_pass(&mut setup, &mut frame, &mut render_ms, &mut outcome);
    // Set-up is timed after the reference pass has woken the machine up;
    // the last of the repeats serves the run.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        setup = Setup::new(kind, args.seed);
        setup_s.push(started.elapsed().as_secs_f64());
    }

    // A traced run alternates untraced and traced passes, so that both
    // see the same machine and the ladder compares like with like.
    let mut measured = Measured::default();
    let mut spans = Spans::new();
    let budget_s = if args.trace { 2.0 } else { 1.0 } * args.seconds;
    let started = Instant::now();
    while measured.passes == 0 || started.elapsed().as_secs_f64() < budget_s {
        untraced_pass(
            &mut setup,
            &reference,
            args.corrupt,
            &mut frame,
            &mut render_ms,
            &mut measured,
            &mut outcome,
        );
        if args.trace {
            traced_pass(
                &mut setup,
                &reference,
                &mut frame,
                &mut render_ms,
                &mut spans,
                &mut outcome,
            );
        }
    }

    if !args.trace {
        let pass_pixels = (PASS_FRAMES as u64 * u64::from(SIZE * SIZE)) as f64;
        outcome.set("setup_s", quantile(&setup_s, 0.5));
        let median_pass = |figure: &dyn Fn(&[f64]) -> f64| {
            let per_pass: Vec<f64> = measured.pass_frame_ms.iter().map(|p| figure(p)).collect();
            quantile(&per_pass, 0.5)
        };
        outcome.set(
            "throughput_mpx_s",
            median_pass(&|ms| pass_pixels / ms.iter().sum::<f64>() / 1e3),
        );
        outcome.set("frame_ms_p50", median_pass(&|ms| quantile(ms, 0.5)));
        outcome.set("frame_ms_p90", median_pass(&|ms| quantile(ms, 0.9)));
        let pass_bits = measured.temporal.bits as f64;
        outcome.set("bits_per_pixel", pass_bits / pass_pixels);
        outcome.set(
            "reduction_vs_bd_pct",
            100.0 * (1.0 - pass_bits / reference.baseline_bits as f64),
        );
        outcome.set("frames_ok_pct", 100.0 * (1.0 - outcome.error_rate()));
        outcome.set("peak_rss_mb", peak_rss_mb());
        return outcome;
    }

    if let Some(path) = &args.spans_out {
        spans
            .write_jsonl(path)
            .unwrap_or_else(|err| panic!("writing spans to {}: {err}", path.display()));
    }
    let layers = spans.layer_times();
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
    let untraced_frame_ms = mean(&measured.pass_frame_ms.concat());
    let cache = measured.cache;
    outcome.set("pvc_scenes.render_ms_mean", mean(&render_ms));
    outcome.set("pvc_fovea.map_builds", cache.misses as f64);
    outcome.set("pvc_fovea.map_ms_mean", layer_ms("pvc_fovea.map"));
    outcome.set("pvc_core.map_hit_rate", cache.hit_rate());
    outcome.set("pvc_core.adjust_ms_mean", layer_ms("pvc_core.adjust"));
    outcome.set(
        "pvc_core.case1_tiles",
        measured.adjustment.case1_tiles as f64,
    );
    outcome.set(
        "pvc_core.case2_tiles",
        measured.adjustment.case2_tiles as f64,
    );
    outcome.set(
        "pvc_core.foveal_tiles",
        measured.adjustment.foveal_tiles as f64,
    );
    outcome.set("pvc_frame.gamma_ms_mean", layer_ms("pvc_frame.gamma"));
    outcome.set("pvc_bdc.encode_ms_mean", layer_ms("pvc_bdc.encode"));
    outcome.set("pvc_bdc.decode_ms_mean", layer_ms("pvc_bdc.decode"));
    let temporal = measured.temporal;
    outcome.set("pvc_bdc.keyframes", temporal.keyframes as f64);
    outcome.set("pvc_bdc.intra_tiles", temporal.intra_tiles as f64);
    outcome.set("pvc_bdc.skip_tiles", temporal.skip_tiles as f64);
    outcome.set("pvc_bdc.delta_tiles", temporal.delta_tiles as f64);
    outcome.set(
        "ladder.residual_pct",
        100.0 * (untraced_frame_ms - spans.child_ms_per_root()) / untraced_frame_ms,
    );
    outcome.set("error_rate", outcome.error_rate());
    outcome
}
