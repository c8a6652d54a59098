//! The six synthetic VR scenes and their renderer.

use crate::noise::{FractalNoise, NoiseAxis, NoiseCursor};
use pvc_color::LinearRgb;
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame};
use serde::{Deserialize, Serialize};

/// Identifier of one of the six evaluation scenes.
///
/// The names follow the paper's Fig. 10–15 so results can be compared
/// side by side; the content is synthetic (DESIGN.md, substitution S2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SceneId {
    /// Smooth indoor office: mid luminance, large flat surfaces.
    Office,
    /// Bright, saturated outdoor scene dominated by greens.
    Fortnite,
    /// High-contrast city skyline with fine structure.
    Skyline,
    /// Dark night-time scene with sparse lights.
    Dumbo,
    /// Warm, textured temple interior.
    Thai,
    /// Dark, densely textured jungle scene.
    Monkey,
}

impl SceneId {
    /// All six scenes in the order the paper plots them.
    pub const ALL: [SceneId; 6] = [
        SceneId::Office,
        SceneId::Fortnite,
        SceneId::Skyline,
        SceneId::Dumbo,
        SceneId::Thai,
        SceneId::Monkey,
    ];

    /// The scene at `index` modulo the catalogue size, in [`Self::ALL`]
    /// order. Multi-session workloads use this to deal distinct scene
    /// content to an arbitrary number of concurrent sessions.
    pub fn by_index(index: usize) -> SceneId {
        SceneId::ALL[index % SceneId::ALL.len()]
    }

    /// Lower-case scene name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Office => "office",
            SceneId::Fortnite => "fortnite",
            SceneId::Skyline => "skyline",
            SceneId::Dumbo => "dumbo",
            SceneId::Thai => "thai",
            SceneId::Monkey => "monkey",
        }
    }

    /// True for the scenes the paper characterizes as dark (dumbo, monkey).
    pub fn is_dark(self) -> bool {
        matches!(self, SceneId::Dumbo | SceneId::Monkey)
    }

    /// Per-scene base RNG seed so every scene has distinct content.
    fn seed(self) -> u64 {
        match self {
            SceneId::Office => 0x0FF1CE,
            SceneId::Fortnite => 0xF047,
            SceneId::Skyline => 0x5C71,
            SceneId::Dumbo => 0xD0B0,
            SceneId::Thai => 0x7A41,
            SceneId::Monkey => 0x303C,
        }
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SceneId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SceneId::ALL
            .into_iter()
            .find(|id| id.name() == s.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown scene '{s}'"))
    }
}

/// Configuration of a scene rendering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Full frame dimensions (both eyes when `stereo` is true).
    pub dimensions: Dimensions,
    /// Whether to render two side-by-side per-eye sub-frames.
    pub stereo: bool,
    /// Extra seed mixed into the scene's own seed, for generating
    /// independent sequences.
    pub seed: u64,
}

impl SceneConfig {
    /// Creates a monoscopic configuration of the given size.
    pub fn new(dimensions: Dimensions) -> Self {
        SceneConfig {
            dimensions,
            stereo: false,
            seed: 0,
        }
    }

    /// Creates a stereo configuration (two per-eye sub-frames side by side).
    ///
    /// # Panics
    ///
    /// Panics if the width is odd.
    pub fn stereo(dimensions: Dimensions) -> Self {
        assert!(
            dimensions.width % 2 == 0,
            "stereo frames need an even width"
        );
        SceneConfig {
            dimensions,
            stereo: true,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Renders frames of one synthetic scene.
///
/// # Examples
///
/// ```
/// use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
/// use pvc_frame::Dimensions;
/// let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(Dimensions::new(64, 32)));
/// let a = renderer.render_srgb(0);
/// let b = renderer.render_srgb(1);
/// assert_ne!(a, b, "animation must change the frame");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SceneRenderer {
    scene: SceneId,
    config: SceneConfig,
}

impl SceneRenderer {
    /// Creates a renderer for a scene.
    pub fn new(scene: SceneId, config: SceneConfig) -> Self {
        SceneRenderer { scene, config }
    }

    /// The scene being rendered.
    pub fn scene(&self) -> SceneId {
        self.scene
    }

    /// The rendering configuration.
    pub fn config(&self) -> SceneConfig {
        self.config
    }

    /// Renders frame `index` of the animation in linear RGB.
    pub fn render_linear(&self, index: u32) -> LinearFrame {
        let mut frame = LinearFrame::filled(self.config.dimensions, LinearRgb::BLACK);
        self.render_linear_into(index, &mut frame);
        frame
    }

    /// Renders frame `index` into a caller-provided frame, resizing it to
    /// the renderer's dimensions and overwriting every pixel.
    ///
    /// Bit-identical to [`Self::render_linear`]; the buffer's capacity is
    /// reused, so a producer recycling frames through a pool renders
    /// without per-frame allocation.
    pub fn render_linear_into(&self, index: u32, frame: &mut LinearFrame) {
        let dims = self.config.dimensions;
        // The loop below overwrites every pixel, so the fill only matters
        // when the buffer changes size — skipping it otherwise saves a
        // full-frame memset per recycled frame.
        if frame.dimensions() != dims {
            frame.reset(dims, LinearRgb::BLACK);
        }
        let noise = FractalNoise::new(self.scene.seed() ^ self.config.seed, 4, 0.55);
        let detail = FractalNoise::new(
            (self.scene.seed() ^ self.config.seed).wrapping_mul(0x2545_F491_4F6C_DD1D),
            5,
            0.5,
        );
        let time = f64::from(index) * 0.06;
        // One cursor per noise call site: each site walks its own lattice
        // cells along a strip row, and sites at different scales would
        // only evict each other from a shared cache. Every 2-D site takes
        // the x half of its samples from the scene's column values.
        match self.scene {
            SceneId::Office => {
                let (mut screen, mut ambient) = (detail.cursor(), noise.cursor());
                self.fill(
                    frame,
                    time,
                    |u| column_office(u, &noise, &detail),
                    |column, u, v| shade_office(column, u, v, &mut screen, &mut ambient),
                );
            }
            SceneId::Fortnite => {
                let mut horizon = noise.cursor();
                let (mut clouds, mut meadow) = (noise.cursor(), noise.cursor());
                let mut canopy = detail.cursor();
                self.fill(
                    frame,
                    time,
                    |u| column_fortnite(u, time, &mut horizon, &noise, &detail),
                    |column, _, v| shade_fortnite(column, v, &mut clouds, &mut meadow, &mut canopy),
                );
            }
            SceneId::Skyline => {
                let (mut skyline, mut windows) = (noise.cursor(), detail.cursor());
                self.fill(
                    frame,
                    time,
                    |u| column_skyline(u, &mut skyline, &detail),
                    |column, _, v| shade_skyline(column, v, &mut windows),
                );
            }
            SceneId::Dumbo => {
                let lamps = lamp_positions(time);
                let (mut deck, mut street) = (noise.cursor(), detail.cursor());
                self.fill(
                    frame,
                    time,
                    |u| column_dumbo(u, &lamps, &noise, &detail),
                    |column, _, v| shade_dumbo(column, v, &mut deck, &mut street),
                );
            }
            SceneId::Thai => {
                let (mut ornament, mut shadow) = (detail.cursor(), noise.cursor());
                self.fill(
                    frame,
                    time,
                    |u| column_thai(u, &noise, &detail),
                    |column, _, v| shade_thai(column, v, &mut ornament, &mut shadow),
                );
            }
            SceneId::Monkey => {
                let (mut leaves, mut shafts) = (detail.cursor(), noise.cursor());
                self.fill(
                    frame,
                    time,
                    |u| column_monkey(u, &mut shafts, &detail),
                    |column, _, v| shade_monkey(column, v, &mut leaves),
                );
            }
        }
    }

    /// Renders frame `index` and gamma-encodes it to 8-bit sRGB (what the
    /// framebuffer would hold).
    pub fn render_srgb(&self, index: u32) -> SrgbFrame {
        self.render_linear(index).to_srgb()
    }

    /// Shades every pixel of an already-sized `frame`, given each pixel's
    /// per-eye scene coordinates `(u, v)`.
    ///
    /// The frame is walked in column strips of [`STRIP`] pixels whose
    /// column values live on the stack: `column(u)` runs once per column of
    /// a strip, then `shade(&column_value, u, v)` runs row by row across
    /// the strip. Work that depends only on `u` therefore runs once per
    /// column rather than once per pixel.
    fn fill<C: Copy + Default>(
        &self,
        frame: &mut LinearFrame,
        time: f64,
        mut column: impl FnMut(f64) -> C,
        mut shade: impl FnMut(&C, f64, f64) -> LinearRgb,
    ) {
        let dims = self.config.dimensions;
        let width = dims.width as usize;
        let eye_width = if self.config.stereo {
            dims.width / 2
        } else {
            dims.width
        };
        let drift = time * 0.05;
        let pixels = frame.pixels_mut();
        let mut columns = [(0.0, C::default()); STRIP];
        for strip_start in (0..width).step_by(STRIP) {
            let strip = &mut columns[..STRIP.min(width - strip_start)];
            for (x, (u, value)) in (strip_start as u32..).zip(strip.iter_mut()) {
                // Per-eye coordinates normalized to [0, 1]; the right eye is
                // shifted slightly to mimic stereo parallax.
                let (ex, parallax) = if self.config.stereo && x >= eye_width {
                    (x - eye_width, 0.012)
                } else {
                    (x, 0.0)
                };
                *u = (f64::from(ex) + 0.5) / f64::from(eye_width) + parallax + drift;
                *value = column(*u);
            }
            for y in 0..dims.height {
                let v = (f64::from(y) + 0.5) / f64::from(dims.height);
                let start = y as usize * width + strip_start;
                let row = &mut pixels[start..start + strip.len()];
                for (pixel, (u, value)) in row.iter_mut().zip(strip.iter()) {
                    *pixel = shade(value, *u, v).clamped();
                }
            }
        }
    }
}

/// Width in pixels of the column strips [`SceneRenderer::fill`] walks. At
/// 32, fortnite's column values (three `NoiseAxis` each) take about 25 KB
/// of stack and stay in L1; 16 measured slower and 64 no faster.
const STRIP: usize = 32;

fn mix(a: LinearRgb, b: LinearRgb, t: f64) -> LinearRgb {
    a.lerp(b, t.clamp(0.0, 1.0))
}

/// Office's per-column values: the x halves of its two noise sites.
#[derive(Clone, Copy, Default)]
struct OfficeColumn {
    screen: NoiseAxis,
    ambient: NoiseAxis,
}

fn column_office(u: f64, noise: &FractalNoise, detail: &FractalNoise) -> OfficeColumn {
    OfficeColumn {
        screen: detail.axis(u, 24.0),
        ambient: noise.axis(u, 3.0),
    }
}

fn shade_office(
    column: &OfficeColumn,
    u: f64,
    v: f64,
    screen: &mut NoiseCursor,
    ambient: &mut NoiseCursor,
) -> LinearRgb {
    // Smooth beige walls with a darker floor, a window and a desk rectangle.
    let wall = LinearRgb::new(0.55, 0.5, 0.42);
    let floor = LinearRgb::new(0.28, 0.22, 0.18);
    let mut color = mix(wall, floor, ((v - 0.62) * 8.0).clamp(0.0, 1.0));
    // Window: a bright rectangle on the left wall.
    if (0.08..0.3).contains(&u) && (0.12..0.45).contains(&v) {
        let sky = LinearRgb::new(0.65, 0.75, 0.9);
        color = mix(color, sky, 0.9);
    }
    // Desk and monitor: darker rectangles with a slightly emissive screen.
    if (0.45..0.85).contains(&u) && (0.55..0.62).contains(&v) {
        color = LinearRgb::new(0.32, 0.2, 0.12);
    }
    if (0.55..0.72).contains(&u) && (0.35..0.52).contains(&v) {
        color = LinearRgb::new(0.12, 0.2, 0.3);
        color = mix(
            color,
            LinearRgb::new(0.3, 0.5, 0.7),
            screen.sample_axis(&column.screen, v, 24.0) * 0.4,
        );
    }
    // Gentle ambient-occlusion-like shading and very mild texture.
    let shade = 0.92 + 0.08 * ambient.sample_axis(&column.ambient, v, 3.0);
    LinearRgb::new(color.r * shade, color.g * shade, color.b * shade)
}

/// Fortnite's per-column values: the horizon height and the x halves of
/// its three 2-D noise sites.
#[derive(Clone, Copy, Default)]
struct FortniteColumn {
    horizon: f64,
    clouds: NoiseAxis,
    meadow: NoiseAxis,
    canopy: NoiseAxis,
}

fn column_fortnite(
    u: f64,
    time: f64,
    horizon: &mut NoiseCursor,
    noise: &FractalNoise,
    detail: &FractalNoise,
) -> FortniteColumn {
    FortniteColumn {
        horizon: 0.42 + 0.04 * horizon.sample(u * 0.5 + time * 0.02, 0.3, 3.0),
        clouds: noise.axis(u + time * 0.1, 5.0),
        meadow: noise.axis(u * 2.0, 6.0),
        canopy: detail.axis(u * 1.5, 10.0),
    }
}

fn shade_fortnite(
    column: &FortniteColumn,
    v: f64,
    clouds: &mut NoiseCursor,
    meadow_noise: &mut NoiseCursor,
    canopy_noise: &mut NoiseCursor,
) -> LinearRgb {
    // Bright sky over rolling green terrain with saturated foliage.
    let sky_top = LinearRgb::new(0.35, 0.6, 0.95);
    let sky_bottom = LinearRgb::new(0.75, 0.85, 0.98);
    let horizon = column.horizon;
    if v < horizon {
        let t = (v / horizon).clamp(0.0, 1.0);
        let mut sky = mix(sky_top, sky_bottom, t);
        // Puffy clouds.
        let cloud = clouds.sample_axis(&column.clouds, v * 2.0, 5.0);
        if cloud > 0.62 {
            sky = mix(sky, LinearRgb::new(0.95, 0.96, 0.98), (cloud - 0.62) * 2.2);
        }
        sky
    } else {
        let grass = LinearRgb::new(0.18, 0.62, 0.16);
        let meadow = LinearRgb::new(0.32, 0.72, 0.2);
        let blend = meadow_noise.sample_axis(&column.meadow, v * 2.0, 6.0);
        let mut ground = mix(grass, meadow, blend);
        // Tree canopies: saturated dark green blobs.
        let canopy = canopy_noise.sample_axis(&column.canopy, v * 1.5, 10.0);
        if canopy > 0.6 {
            ground = mix(ground, LinearRgb::new(0.08, 0.4, 0.1), (canopy - 0.6) * 2.0);
        }
        // Keep the scene bright overall.
        let sun = 0.9 + 0.1 * (1.0 - v);
        LinearRgb::new(ground.r * sun, ground.g * sun, ground.b * sun)
    }
}

/// Skyline's per-column values: the building height and the x half of the
/// window noise.
#[derive(Clone, Copy, Default)]
struct SkylineColumn {
    building_height: f64,
    windows: NoiseAxis,
}

fn column_skyline(u: f64, skyline: &mut NoiseCursor, detail: &FractalNoise) -> SkylineColumn {
    // Building height field: blocky function of u.
    let column = (u * 14.0).floor();
    let wx = (u * 140.0).floor();
    SkylineColumn {
        building_height: 0.35 + 0.45 * skyline.sample(column * 0.173 + 0.31, 0.5, 1.0),
        windows: detail.axis(wx * 0.37, 1.0),
    }
}

fn shade_skyline(column: &SkylineColumn, v: f64, windows: &mut NoiseCursor) -> LinearRgb {
    // Dusk sky behind high-contrast building silhouettes with lit windows.
    if v > column.building_height {
        // Facade: dark with bright window speckles (high-frequency detail).
        let mut facade = LinearRgb::new(0.05, 0.05, 0.08);
        let wy = (v * 90.0).floor();
        let window = windows.sample_axis(&column.windows, wy * 0.73, 1.0);
        if window > 0.78 {
            facade = LinearRgb::new(0.9, 0.8, 0.45);
        } else if window > 0.7 {
            facade = LinearRgb::new(0.35, 0.3, 0.2);
        }
        facade
    } else {
        let sky_top = LinearRgb::new(0.18, 0.2, 0.45);
        let sky_low = LinearRgb::new(0.85, 0.45, 0.25);
        mix(sky_top, sky_low, v.powf(1.5))
    }
}

/// Horizontal positions of Dumbo's four street lamps at `time`; they
/// drift slightly over time.
fn lamp_positions(time: f64) -> [f64; 4] {
    [0.0, 1.0, 2.0, 3.0].map(|lamp: f64| 0.15 + 0.23 * lamp + 0.01 * (time + lamp).sin())
}

/// Dumbo's per-column values: the x halves of its two noise sites and the
/// squared horizontal distance to each lamp.
#[derive(Clone, Copy, Default)]
struct DumboColumn {
    deck: NoiseAxis,
    street: NoiseAxis,
    lamp_dx2: [f64; 4],
}

fn column_dumbo(
    u: f64,
    lamps: &[f64; 4],
    noise: &FractalNoise,
    detail: &FractalNoise,
) -> DumboColumn {
    DumboColumn {
        deck: noise.axis(u * 2.0, 8.0),
        street: detail.axis(u * 3.0, 12.0),
        lamp_dx2: lamps.map(|lx| (u - lx).powi(2)),
    }
}

fn shade_dumbo(
    column: &DumboColumn,
    v: f64,
    deck_noise: &mut NoiseCursor,
    street_noise: &mut NoiseCursor,
) -> LinearRgb {
    // Dark night-time street under a bridge: low luminance, sparse lights.
    let night = LinearRgb::new(0.012, 0.015, 0.03);
    // Bridge deck: a very dark band across the top; street below with faint
    // reflections.
    let mut color = if v < 0.3 {
        let deck = LinearRgb::new(0.02, 0.018, 0.02);
        mix(
            deck,
            LinearRgb::new(0.05, 0.045, 0.05),
            deck_noise.sample_axis(&column.deck, v * 4.0, 8.0),
        )
    } else {
        let street = LinearRgb::new(0.03, 0.03, 0.045);
        let base = mix(night, street, ((v - 0.3) * 2.0).clamp(0.0, 1.0));
        mix(
            base,
            LinearRgb::new(0.06, 0.05, 0.07),
            street_noise.sample_axis(&column.street, v * 3.0, 12.0) * 0.5,
        )
    };
    // Street lamps: small warm glows.
    let ly = 0.42;
    for &dx2 in &column.lamp_dx2 {
        let d2 = dx2 + (v - ly).powi(2);
        let glow = (-d2 * 800.0).exp();
        color = mix(color, LinearRgb::new(0.85, 0.6, 0.3), glow * 0.9);
    }
    color
}

/// Thai's per-column values: the x halves of its two noise sites and
/// whether the column lies on a pillar.
#[derive(Clone, Copy, Default)]
struct ThaiColumn {
    ornament: NoiseAxis,
    shadow: NoiseAxis,
    pillar: bool,
}

fn column_thai(u: f64, noise: &FractalNoise, detail: &FractalNoise) -> ThaiColumn {
    // Pillars: vertical bright bands.
    let pillar = ((u * 6.0).fract() - 0.5).abs();
    ThaiColumn {
        ornament: detail.axis(u * 3.0, 18.0),
        shadow: noise.axis(u, 3.0),
        pillar: pillar < 0.12,
    }
}

fn shade_thai(
    column: &ThaiColumn,
    v: f64,
    ornament_noise: &mut NoiseCursor,
    shadow: &mut NoiseCursor,
) -> LinearRgb {
    // Warm temple interior: gold and red ornamented surfaces, medium-high
    // spatial detail.
    let wall = LinearRgb::new(0.5, 0.22, 0.1);
    let gold = LinearRgb::new(0.75, 0.55, 0.18);
    let ornament = ornament_noise.sample_axis(&column.ornament, v * 3.0, 18.0);
    let mut color = mix(wall, gold, (ornament - 0.35) * 1.6);
    if column.pillar {
        color = mix(color, LinearRgb::new(0.8, 0.62, 0.3), 0.7);
    }
    // Ceiling shadow gradient and candle-like warmth near the floor.
    let shade = 0.55 + 0.45 * shadow.sample_axis(&column.shadow, v, 3.0);
    let warmth = 1.0 + 0.2 * (1.0 - v);
    LinearRgb::new(
        color.r * shade * warmth,
        color.g * shade,
        color.b * shade * 0.9,
    )
}

/// Monkey's per-column values: the x half of the leaf noise and the
/// moonlight shaft strength.
#[derive(Clone, Copy, Default)]
struct MonkeyColumn {
    leaves: NoiseAxis,
    shaft: f64,
}

fn column_monkey(u: f64, shafts: &mut NoiseCursor, detail: &FractalNoise) -> MonkeyColumn {
    MonkeyColumn {
        leaves: detail.axis(u * 2.5, 16.0),
        shaft: shafts.sample(u * 1.2, 0.4, 2.0),
    }
}

fn shade_monkey(column: &MonkeyColumn, v: f64, leaf_noise: &mut NoiseCursor) -> LinearRgb {
    // Dark jungle: dense foliage texture at low luminance.
    let canopy_dark = LinearRgb::new(0.01, 0.03, 0.012);
    let canopy_mid = LinearRgb::new(0.03, 0.09, 0.03);
    let leaves = leaf_noise.sample_axis(&column.leaves, v * 2.5, 16.0);
    let mut color = mix(canopy_dark, canopy_mid, leaves);
    // Occasional shafts of moonlight.
    let shaft = column.shaft;
    if shaft > 0.72 {
        let strength = (shaft - 0.72) * 1.5 * (1.0 - v);
        color = mix(color, LinearRgb::new(0.12, 0.18, 0.14), strength);
    }
    // Ground mist near the bottom.
    if v > 0.8 {
        color = mix(color, LinearRgb::new(0.05, 0.07, 0.06), (v - 0.8) * 2.0);
    }
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statistics::SceneStatistics;

    fn small_config() -> SceneConfig {
        SceneConfig::new(Dimensions::new(96, 64))
    }

    #[test]
    fn scene_names_roundtrip_through_fromstr() {
        for scene in SceneId::ALL {
            let parsed: SceneId = scene.name().parse().expect("parse scene name");
            assert_eq!(parsed, scene);
        }
        assert!("nonexistent".parse::<SceneId>().is_err());
    }

    #[test]
    fn by_index_cycles_through_the_catalogue() {
        assert_eq!(SceneId::by_index(0), SceneId::Office);
        assert_eq!(SceneId::by_index(5), SceneId::Monkey);
        assert_eq!(SceneId::by_index(6), SceneId::Office);
        for i in 0..SceneId::ALL.len() {
            assert_eq!(SceneId::by_index(i), SceneId::ALL[i]);
            assert_eq!(SceneId::by_index(i + SceneId::ALL.len()), SceneId::ALL[i]);
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = SceneRenderer::new(SceneId::Skyline, small_config());
        assert_eq!(r.render_srgb(3), r.render_srgb(3));
    }

    #[test]
    fn render_into_a_recycled_buffer_matches_a_fresh_render() {
        // The frame pool hands producers buffers of arbitrary prior size
        // and content; rendering into them must be bit-identical to a
        // fresh render.
        let r = SceneRenderer::new(SceneId::Thai, small_config());
        let mut recycled =
            LinearFrame::filled(Dimensions::new(7, 3), LinearRgb::new(0.9, 0.1, 0.5));
        for index in [0, 4] {
            r.render_linear_into(index, &mut recycled);
            assert_eq!(recycled, r.render_linear(index));
        }
    }

    #[test]
    fn different_scenes_produce_different_frames() {
        let a = SceneRenderer::new(SceneId::Office, small_config()).render_srgb(0);
        let b = SceneRenderer::new(SceneId::Thai, small_config()).render_srgb(0);
        assert_ne!(a, b);
    }

    #[test]
    fn animation_changes_the_frame() {
        let r = SceneRenderer::new(SceneId::Dumbo, small_config());
        assert_ne!(r.render_srgb(0), r.render_srgb(5));
    }

    #[test]
    fn fortnite_is_bright_and_green() {
        let frame = SceneRenderer::new(SceneId::Fortnite, small_config()).render_linear(0);
        let stats = SceneStatistics::of_linear(&frame);
        assert!(
            stats.mean_luminance > 0.25,
            "luminance {}",
            stats.mean_luminance
        );
        assert!(
            stats.green_dominant_fraction > 0.4,
            "green {}",
            stats.green_dominant_fraction
        );
    }

    #[test]
    fn dark_scenes_are_dark() {
        for scene in [SceneId::Dumbo, SceneId::Monkey] {
            let frame = SceneRenderer::new(scene, small_config()).render_linear(0);
            let stats = SceneStatistics::of_linear(&frame);
            assert!(
                stats.mean_luminance < 0.1,
                "{scene}: {}",
                stats.mean_luminance
            );
            assert!(scene.is_dark());
        }
        assert!(!SceneId::Office.is_dark());
    }

    #[test]
    fn office_is_smoother_than_skyline() {
        let office = SceneRenderer::new(SceneId::Office, small_config()).render_linear(0);
        let skyline = SceneRenderer::new(SceneId::Skyline, small_config()).render_linear(0);
        let o = SceneStatistics::of_linear(&office);
        let s = SceneStatistics::of_linear(&skyline);
        assert!(o.mean_local_contrast < s.mean_local_contrast);
    }

    #[test]
    fn stereo_halves_differ_only_slightly() {
        let dims = Dimensions::new(128, 64);
        let frame = SceneRenderer::new(SceneId::Office, SceneConfig::stereo(dims)).render_linear(0);
        // Compare a pixel in the left half with its partner in the right half:
        // the parallax shift keeps them close but not identical everywhere.
        let mut identical = 0;
        let mut total = 0;
        for y in (0..64).step_by(8) {
            for x in (0..64).step_by(8) {
                let l = frame.pixel(x, y);
                let r = frame.pixel(x + 64, y);
                if l.max_channel_distance(r) < 1e-9 {
                    identical += 1;
                }
                total += 1;
            }
        }
        assert!(
            identical < total,
            "stereo halves must not be pixel-identical"
        );
    }

    #[test]
    fn all_scenes_render_in_gamut() {
        for scene in SceneId::ALL {
            let frame = SceneRenderer::new(scene, small_config()).render_linear(0);
            assert!(
                frame.pixels().iter().all(|p| p.in_gamut(1e-9)),
                "{scene} out of gamut"
            );
        }
    }

    #[test]
    fn seeded_configs_differ() {
        let base = SceneRenderer::new(SceneId::Monkey, small_config()).render_srgb(0);
        let seeded =
            SceneRenderer::new(SceneId::Monkey, small_config().with_seed(99)).render_srgb(0);
        assert_ne!(base, seeded);
    }
}
