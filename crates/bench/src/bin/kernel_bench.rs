//! Per-kernel microbenchmarks for the vectorized tile hot path.
//!
//! The stream benches measure the whole service; this binary isolates the
//! SoA lane kernels the tile pipeline is built from — the per-tile axis
//! adjustment, the ellipsoid build under both discrimination models, the
//! sRGB quantizer in both directions, the Base+Delta frame pack and
//! decode, the per-tile eccentricity map, and the scene render that feeds
//! the serving path — and reports each one's pixel rate, so a regression
//! in a single kernel is visible without re-deriving it from end-to-end
//! numbers.
//!
//! The whole suite runs five times (three with `--quick`), and every row
//! reports the median rate with its quartiles over those runs. `--json
//! PATH` writes the same numbers, plus a `host` object (cores, usable
//! cores, commit, `rustc --version`, build profile), as a `BENCH_*.json`
//! ledger entry for cross-PR comparison.
//!
//! The `ellipsoid_build` rows time the general route's ellipsoid build,
//! which the frame encoder runs for models without a fixed shape (RBF) and
//! for the tiles the fixed-shape closed form does not cover.

use pvc_bdc::{BdConfig, BdDecoder, BdEncoder, BitWriter};
use pvc_bench::cli::{exit_with_usage, ArgSpec};
use pvc_bench::json::{host_json, object, write_json, Json};
use pvc_color::{
    linear_to_srgb8_slice, srgb8_to_linear_slice, DiscriminationEllipsoid, DiscriminationModel,
    EllipsoidLanes, LinearRgb, RbfConfig, RbfDiscriminationModel, RgbAxis, Srgb8,
    SyntheticDiscriminationModel,
};
use pvc_core::{adjust_tile_with, AdjustScratch};
use pvc_frame::{Dimensions, LinearTileLanes, SrgbFrame, SrgbTileLanes};
use std::hint::black_box;
use std::time::Instant;

/// One kernel's measurement: pixels processed and wall time.
struct KernelResult {
    kernel: &'static str,
    pixels: u64,
    wall_seconds: f64,
}

impl KernelResult {
    fn megapixels_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.pixels as f64 / 1e6 / self.wall_seconds
    }
}

/// Deterministic pseudo-random stream (SplitMix64), so every run benches
/// identical data.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform sample in `[0, 1)`.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Times `iters` repetitions of `body`, which must return a value that
/// depends on the work so the optimizer cannot drop it.
fn time<T>(iters: u32, mut body: impl FnMut() -> T) -> f64 {
    // One untimed repetition warms caches and one-time tables (the sRGB
    // LUTs build on first use).
    black_box(body());
    let started = Instant::now();
    for _ in 0..iters {
        black_box(body());
    }
    started.elapsed().as_secs_f64()
}

/// sRGB quantization, linear lanes → 8-bit codes (three channel lanes per
/// pixel, as the gamma stage runs it).
fn bench_srgb_encode(pixels_per_iter: usize, iters: u32, seed: &mut u64) -> KernelResult {
    let lanes: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..pixels_per_iter).map(|_| unit_f64(seed)).collect())
        .collect();
    let mut out = vec![0u8; pixels_per_iter];
    let wall_seconds = time(iters, || {
        let mut sum = 0u64;
        for lane in &lanes {
            linear_to_srgb8_slice(lane, &mut out);
            sum += u64::from(out[pixels_per_iter / 2]);
        }
        sum
    });
    KernelResult {
        kernel: "srgb_encode",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// sRGB expansion, 8-bit codes → linear lanes.
fn bench_srgb_decode(pixels_per_iter: usize, iters: u32, seed: &mut u64) -> KernelResult {
    let lanes: Vec<Vec<u8>> = (0..3)
        .map(|_| {
            (0..pixels_per_iter)
                .map(|_| (splitmix64(seed) & 0xff) as u8)
                .collect()
        })
        .collect();
    let mut out = vec![0.0f64; pixels_per_iter];
    let wall_seconds = time(iters, || {
        let mut sum = 0.0f64;
        for lane in &lanes {
            srgb8_to_linear_slice(lane, &mut out);
            sum += out[pixels_per_iter / 2];
        }
        sum
    });
    KernelResult {
        kernel: "srgb_decode",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// One synthetic tile: smooth colors with a deterministic jitter, the
/// shape the adjustment sees from rendered content.
fn synthetic_tile(pixels_per_tile: usize, seed: &mut u64) -> Vec<LinearRgb> {
    let base = LinearRgb::new(
        0.15 + 0.7 * unit_f64(seed),
        0.15 + 0.7 * unit_f64(seed),
        0.15 + 0.7 * unit_f64(seed),
    );
    (0..pixels_per_tile)
        .map(|_| {
            LinearRgb::new(
                (base.r + 0.02 * unit_f64(seed)).clamp(0.0, 1.0),
                (base.g + 0.02 * unit_f64(seed)).clamp(0.0, 1.0),
                (base.b + 0.02 * unit_f64(seed)).clamp(0.0, 1.0),
            )
        })
        .collect()
}

/// Discrimination-ellipsoid construction as the frame encoder runs it:
/// the model fills a tile's six ellipsoid lanes straight from its
/// (pre-transposed) channel lanes.
fn bench_ellipsoid_build(
    kernel: &'static str,
    model: &impl DiscriminationModel,
    tiles: &[Vec<LinearRgb>],
    iters: u32,
) -> KernelResult {
    let pixels_per_iter: usize = tiles.iter().map(Vec::len).sum();
    let tile_lanes: Vec<LinearTileLanes> = tiles
        .iter()
        .map(|tile| {
            let mut lanes = LinearTileLanes::new();
            lanes.fill_from_pixels(tile);
            lanes
        })
        .collect();
    let mut ellipsoids = EllipsoidLanes::new();
    let wall_seconds = time(iters, || {
        let mut sum = 0.0f64;
        for lanes in &tile_lanes {
            model.ellipsoid_lanes(&lanes.r, &lanes.g, &lanes.b, 12.0, &mut ellipsoids);
            sum += ellipsoids.a[0];
        }
        sum
    });
    KernelResult {
        kernel,
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The per-tile axis adjustment (extrema, HL/LH reduction, lane moves and
/// Δ-bit costing over both candidate axes), with ellipsoids prebuilt.
fn bench_adjust_axis(
    tiles: &[Vec<LinearRgb>],
    ellipsoids: &[Vec<DiscriminationEllipsoid>],
    iters: u32,
) -> KernelResult {
    let pixels_per_iter: usize = tiles.iter().map(Vec::len).sum();
    let mut scratch = AdjustScratch::new();
    let wall_seconds = time(iters, || {
        let mut sum = 0u64;
        for (tile, tile_ellipsoids) in tiles.iter().zip(ellipsoids) {
            scratch.pixels.clear();
            scratch.pixels.extend_from_slice(tile);
            scratch.ellipsoids.clear();
            scratch.ellipsoids.extend_from_slice(tile_ellipsoids);
            let outcome = adjust_tile_with(&mut scratch, &RgbAxis::OPTIMIZED);
            sum += outcome.adjusted_cost;
        }
        sum
    });
    KernelResult {
        kernel: "adjust_axis",
        pixels: pixels_per_iter as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The input frame of the `bd_pack` and `bd_decode` rows.
fn bd_frame(dimensions: Dimensions, seed: &mut u64) -> SrgbFrame {
    let pixels: Vec<Srgb8> = (0..dimensions.pixel_count())
        .map(|_| {
            let v = splitmix64(seed);
            // Locally smooth values: BD's typical input.
            let base = (v & 0x3f) as u8 + 96;
            Srgb8::new(base, base.wrapping_add(((v >> 8) & 3) as u8), base / 2)
        })
        .collect();
    SrgbFrame::from_pixels(dimensions, pixels).expect("pixel count matches")
}

/// Whole-frame Base+Delta pack: SoA tile gather, per-channel range over
/// lanes, word-at-a-time channel-record packing.
fn bench_bd_pack(frame: &SrgbFrame, iters: u32) -> KernelResult {
    let encoder = BdEncoder::new(BdConfig::default());
    let mut writer = BitWriter::new();
    let mut gather = SrgbTileLanes::new();
    let wall_seconds = time(iters, || {
        let stats = encoder.encode_frame_into(frame, &mut writer, &mut gather);
        stats.compressed_bits
    });
    KernelResult {
        kernel: "bd_pack",
        pixels: frame.dimensions().pixel_count() as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// Whole-frame Base+Delta decode of the `bd_pack` frame's bitstream into a
/// reused output frame, as the display side runs it.
fn bench_bd_decode(frame: &SrgbFrame, iters: u32) -> KernelResult {
    let bytes = BdEncoder::new(BdConfig::default())
        .encode_frame(frame)
        .to_bitstream();
    let decoder = BdDecoder::new();
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let wall_seconds = time(iters, || {
        decoder
            .decode_bitstream_into(&bytes, &mut out)
            .expect("the encoder's bytes decode");
        out.pixels()[0]
    });
    KernelResult {
        kernel: "bd_decode",
        pixels: frame.dimensions().pixel_count() as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The whole serving frame encode (`stream_frame`: adjust → quantize →
/// BD pack tile by tile, through
/// `PerceptualEncoder::encode_frame_stream_into` with the default intra
/// configuration) on one rendered scene frame: the end-to-end number the
/// service benches see per shard, minus queueing and rendering. The split
/// times the three layered public calls the fused loop is pinned against,
/// on the same frame: `stream_adjust`
/// (`PerceptualEncoder::adjust_frame_with_map_into`), `stream_gamma`
/// (`LinearFrame::to_srgb_into`) and `stream_bd`
/// (`BdEncoder::encode_frame_into`).
fn bench_stream_frame(dimensions: Dimensions, iters: u32) -> Vec<KernelResult> {
    use pvc_core::{EncoderConfig, PerceptualEncoder, StreamScratch, TemporalHistory};
    use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
    use pvc_frame::{LinearFrame, TileGrid};
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dimensions));
    let frame = renderer.render_linear(0);
    let config = EncoderConfig::default();
    let display = DisplayGeometry::quest2_like(dimensions);
    let grid = TileGrid::new(dimensions, config.tile_size);
    let map = EccentricityMap::per_tile(
        &display,
        &grid,
        GazePoint::center_of(dimensions),
        config.fovea,
    );
    let bd = BdEncoder::new(BdConfig::with_tile_size(config.tile_size));
    let encoder = PerceptualEncoder::new(SyntheticDiscriminationModel::default(), config);
    let mut history = TemporalHistory::new();
    let mut scratch = StreamScratch::new();
    let mut out = Vec::new();
    let mut frame_index = 0u32;
    let fused = time(iters, || {
        let stats = encoder.encode_frame_stream_into(
            &frame,
            &map,
            &mut history,
            frame_index,
            &mut scratch,
            &mut out,
        );
        frame_index += 1;
        stats.compression.compressed_bits
    });

    let mut adjust = AdjustScratch::new();
    let mut adjusted = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
    let adjust_seconds = time(iters, || {
        encoder
            .adjust_frame_with_map_into(&frame, &map, &mut adjust, &mut adjusted)
            .case2_tiles
    });
    let mut srgb = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let gamma_seconds = time(iters, || {
        adjusted.to_srgb_into(&mut srgb);
        srgb.pixels()[0].g
    });
    let (mut writer, mut gather) = (BitWriter::new(), SrgbTileLanes::new());
    let bd_seconds = time(iters, || {
        bd.encode_frame_into(&srgb, &mut writer, &mut gather)
            .compressed_bits
    });

    let pixels = dimensions.pixel_count() as u64 * u64::from(iters);
    [
        ("stream_frame", fused),
        ("stream_adjust", adjust_seconds),
        ("stream_gamma", gamma_seconds),
        ("stream_bd", bd_seconds),
    ]
    .into_iter()
    .map(|(kernel, wall_seconds)| KernelResult {
        kernel,
        pixels,
        wall_seconds,
    })
    .collect()
}

/// The per-tile eccentricity map (`EccentricityMap::per_tile`, default
/// 5° bypass, Quest-2 field of view) with a gaze that moves on every
/// repetition, as under smooth pursuit, where the map cache never hits.
fn bench_map_build(dimensions: Dimensions, tile_size: u32, iters: u32) -> KernelResult {
    use pvc_fovea::{DisplayGeometry, EccentricityMap, FoveaConfig, GazePoint};
    use pvc_frame::TileGrid;

    let display = DisplayGeometry::quest2_like(dimensions);
    let grid = TileGrid::new(dimensions, tile_size);
    let center = GazePoint::center_of(dimensions);
    let mut step = 0u32;
    let wall_seconds = time(iters, || {
        // 1.5 px per repetition around a circle of a quarter frame width.
        let angle = f64::from(step) * 1.5 / (center.x * 0.5);
        let gaze = GazePoint::new(
            center.x + center.x * 0.5 * angle.cos(),
            center.y + center.x * 0.5 * angle.sin(),
        );
        step += 1;
        EccentricityMap::per_tile(&display, &grid, gaze, FoveaConfig::default()).foveal_fraction()
    });
    KernelResult {
        kernel: "map_build",
        pixels: dimensions.pixel_count() as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The stand-in renderer the serving path's producers run:
/// `SceneRenderer::render_linear_into` over all six scenes, each frame
/// rendered into one recycled buffer as the producer's frame pool does.
fn bench_render(dimensions: Dimensions, iters: u32) -> KernelResult {
    use pvc_frame::LinearFrame;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    let renderers =
        SceneId::ALL.map(|scene| SceneRenderer::new(scene, SceneConfig::new(dimensions)));
    let mut frame = LinearFrame::filled(dimensions, LinearRgb::BLACK);
    let mut index = 0u32;
    let wall_seconds = time(iters, || {
        for renderer in &renderers {
            renderer.render_linear_into(index, &mut frame);
        }
        index += 1;
        frame.pixel(0, 0).r
    });
    KernelResult {
        kernel: "render",
        pixels: (dimensions.pixel_count() * renderers.len()) as u64 * u64::from(iters),
        wall_seconds,
    }
}

/// The `q`-quantile of `sorted` (ascending, non-empty), interpolating
/// linearly between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// One kernel's rate over every run of the suite.
struct KernelSummary {
    kernel: &'static str,
    /// Pixels processed per run.
    pixels: u64,
    /// Mpx/s of each run, ascending.
    rates: Vec<f64>,
}

impl KernelSummary {
    /// `(q1, median, q3)` of the per-run rates.
    fn quartiles(&self) -> (f64, f64, f64) {
        let r = &self.rates;
        (quantile(r, 0.25), quantile(r, 0.5), quantile(r, 0.75))
    }
}

/// One run of every kernel, in table order.
fn run_suite(quick: bool) -> Vec<KernelResult> {
    let (srgb_iters, adjust_iters, pack_iters, render_iters) = if quick {
        (40, 20, 20, 2)
    } else {
        (400, 200, 200, 10)
    };
    let srgb_pixels = 1 << 16;
    let tile_count = 1024;
    let pixels_per_tile = 16;
    let pack_dimensions = Dimensions::new(256, 256);

    let mut seed = 0x5eed_c0de_u64;
    let tiles: Vec<Vec<LinearRgb>> = (0..tile_count)
        .map(|_| synthetic_tile(pixels_per_tile, &mut seed))
        .collect();
    let model = SyntheticDiscriminationModel::default();
    let rbf = RbfDiscriminationModel::fit_to(&model, RbfConfig::default())
        .expect("the default RBF configuration fits");
    let ellipsoids: Vec<Vec<DiscriminationEllipsoid>> = tiles
        .iter()
        .map(|tile| tile.iter().map(|&p| model.ellipsoid(p, 12.0)).collect())
        .collect();

    let mut results = vec![
        bench_adjust_axis(&tiles, &ellipsoids, adjust_iters),
        bench_ellipsoid_build("ellipsoid_build", &model, &tiles, adjust_iters),
        // The RBF network is ~100x slower per pixel; a tenth of the
        // repetitions keeps its row from dominating the run.
        bench_ellipsoid_build("ellipsoid_build_rbf", &rbf, &tiles, adjust_iters / 10),
        bench_srgb_encode(srgb_pixels, srgb_iters, &mut seed),
        bench_srgb_decode(srgb_pixels, srgb_iters, &mut seed),
    ];
    let pack_frame = bd_frame(pack_dimensions, &mut seed);
    results.push(bench_bd_pack(&pack_frame, pack_iters));
    results.push(bench_bd_decode(&pack_frame, pack_iters));
    results.extend(bench_stream_frame(
        Dimensions::new(96, 96),
        adjust_iters * 4,
    ));
    results.push(bench_map_build(pack_dimensions, 4, pack_iters));
    // Last, with few repetitions: a heavy row depresses the rows timed
    // after it.
    results.push(bench_render(Dimensions::new(256, 256), render_iters));
    results
}

fn main() {
    const SPEC: ArgSpec = ArgSpec {
        flags: &["--quick"],
        options: &["--json"],
    };
    let parsed = match SPEC.parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(err) => exit_with_usage(&err, "[--quick] [--json PATH]"),
    };
    let quick = parsed.has("--quick");
    let runs = if quick { 3 } else { 5 };

    // Whole-suite runs, so each row's samples are spread over the run.
    let mut summaries: Vec<KernelSummary> = Vec::new();
    for run in 0..runs {
        for (i, result) in run_suite(quick).into_iter().enumerate() {
            if run == 0 {
                summaries.push(KernelSummary {
                    kernel: result.kernel,
                    pixels: result.pixels,
                    rates: Vec::with_capacity(runs),
                });
            }
            summaries[i].rates.push(result.megapixels_per_second());
        }
    }
    for summary in &mut summaries {
        summary.rates.sort_by(f64::total_cmp);
    }

    println!(
        "kernel_bench: {} mode, median and quartiles of {runs} runs",
        if quick { "quick" } else { "full" }
    );
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "Mpx/run", "Mpx/s", "q1", "q3", "ns/px"
    );
    for summary in &summaries {
        let (q1, median, q3) = summary.quartiles();
        println!(
            "{:<20} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.1}",
            summary.kernel,
            summary.pixels as f64 / 1e6,
            median,
            q1,
            q3,
            1e3 / median
        );
    }

    if let Some(path) = parsed.value("--json") {
        let kernels: Vec<Json> = summaries
            .iter()
            .map(|summary| {
                let (q1, median, q3) = summary.quartiles();
                object([
                    ("kernel", summary.kernel.into()),
                    ("pixels_per_run", summary.pixels.into()),
                    (
                        "megapixels_per_second",
                        object([
                            ("median", median.into()),
                            ("q1", q1.into()),
                            ("q3", q3.into()),
                            (
                                "runs",
                                Json::Array(summary.rates.iter().map(|&r| r.into()).collect()),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let json = object([
            ("bench", "kernel_bench".into()),
            ("host", host_json()),
            (
                "parameters",
                object([("quick", quick.into()), ("runs", runs.into())]),
            ),
            ("kernels", Json::Array(kernels)),
        ]);
        match write_json(std::path::Path::new(path), &json) {
            Ok(()) => println!("(json written to {path})"),
            Err(err) => {
                eprintln!("error: could not write json to {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}
