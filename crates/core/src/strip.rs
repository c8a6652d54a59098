//! The strip closed form: the fixed-shape axis search over one tile row
//! (a *strip*) at a time, one SIMD lane per tile.
//!
//! A model with a [`FixedShape`] has the extrema `p ± s · e_axis` at every
//! pixel `p` of scale `s` (see `ClosedForm`), so one axis attempt on a
//! tile is a handful of multiply-adds per pixel and a few per-tile
//! reductions. On a single 4×4 tile every reduction ends in a horizontal
//! fold, so wide registers gain nothing. The strip instead holds a whole
//! tile row in `[slot][tile]` lanes: slot `k` of every tile of the row lies
//! in one contiguous run of `tiles` values, each lane of a SIMD register
//! holds a different tile, and every per-tile min or max becomes a vertical
//! min or max across tiles.
//!
//! The kernel runs in phases, each a plain `for slot { for tile { … } }`
//! loop over re-borrowed row slices, the form the compiler vectorizes:
//!
//! 1. the coverage check (every channel finite, every scale in the shape's
//!    range) and each tile's sanitized per-channel min/max of the original
//!    pixels, which give the original Δ-bit cost;
//! 2. per axis, in the configured order: the HL/LH planes, the move, the
//!    per-channel min/max of the moved values, and each tile's cost;
//! 3. the per-tile selection, with the per-tile search's semantics: the
//!    first attempt strictly cheaper than every earlier one wins, and a
//!    winner that does not beat the original cost keeps the original
//!    pixels (while its case is still the one recorded);
//! 4. the final select of each tile's winning pixels.
//!
//! The two reductions that run once per attempt, the sanitized min/max and
//! the HL/LH planes, walk the strip in register blocks instead: one block
//! of `BLOCK` = 8 tiles (two 256-bit registers of `f64`s) at a time over
//! all slots, with the accumulators in local arrays stored once per block,
//! and the last `tiles % BLOCK` tiles in the plain loop. A strip's lanes
//! (about 88 KB at 256² with 4×4 tiles) outrun L1, and a per-slot-row
//! accumulator in memory compiled to masked stores in the AVX2 clone.
//!
//! Every per-pixel expression is the per-tile closed form's, in the same
//! order, and every reduction is an exact min or max over values that are
//! never NaN or −0.0 on a covered tile, so a covered tile's pixels, case
//! and costs are bit-identical to adjusting it alone. A clipped edge tile
//! repeats its first pixel in its spare slots, which changes none of its
//! minima, maxima or planes. The kernel never calls `mul_add`, so no
//! instruction set can fuse a product into a sum.
//!
//! The kernel is compiled twice from one `#[inline(always)]` body: once for
//! the build's baseline target and once as an AVX2 clone, picked once per
//! process by `std::is_x86_feature_detected!` (see [`kernel_path`]).
//! Enabling AVX2 adds wider registers and blends, not fused multiply-adds
//! (that is the separate `fma` feature), so both compile the same IEEE
//! operations. An AVX-512 clone was measured and left out: on an Emerald
//! Rapids Xeon its end-to-end gain over the AVX2 clone (×1.035 in the
//! median frame rate) stayed inside the AVX2 build's own run-to-run
//! spread.
//!
//! The sRGB8 quantizer of the costs and of the winner lanes
//! (`linear_to_srgb8_slice`) stays in `pvc_color`, compiled for the
//! baseline target: on the same Xeon, quantizing 196,608 random-walk
//! values took 1.5 ns per value as baseline code and 1.7–1.8 inlined into
//! an AVX2 function.
//!
//! Foveal tiles pass through unchanged. A non-foveal tile the closed form
//! does not cover (a non-finite channel, or a scale outside the shape's
//! range), and every tile of a model without a fixed shape, takes the
//! per-tile general route ([`crate::adjust`]), whose winning pixels are
//! written back into the strip.

use crate::adjust::{adjust_frame_tile, AdjustScratch, AdjustmentCase};
use crate::stats::AdjustmentStats;
use pvc_bdc::tile_codec::bits_for_range;
use pvc_color::{linear_to_srgb8_slice, DiscriminationModel, FixedShape, LinearRgb, RgbAxis};
use pvc_fovea::EccentricityMap;
use pvc_frame::{LinearFrame, LinearTileLanes, TileGrid, TileRect};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// The per-frame constants of the closed-form axis search for a model
/// with a [`FixedShape`]. Built once per frame and shared by every strip
/// of it.
///
/// For a pixel `p` of scale `s`, the extrema along axis `A` are
/// `p ± s · e`, where `e` is the shape's extremum offset, oriented so that
/// `e_A ≥ 0`. Moving a pixel along its extrema vector until its `A`
/// channel has moved by `τ` moves it by `τ · u`, with the constant
/// direction `u = e / e_A`. So one axis attempt over a tile reads each
/// pixel's three channels and its scale, and nothing else.
pub(crate) struct ClosedForm<'a> {
    shape: FixedShape<'a>,
    steps: [AxisStep; 3],
}

/// One axis's constants of the closed form.
#[derive(Debug, Clone, Copy, Default)]
struct AxisStep {
    /// `e_A`: the unit shape's half chord along the axis (positive).
    reach: f64,
    /// `u = e / e_A` per channel; `u_A` is exactly 1.
    dir: [f64; 3],
    /// Per channel, `(bound, 1 / d)` for a move along `+u`
    /// ([`gamut_room`]).
    up: [(f64, f64); 3],
    /// The same for a move along `−u`.
    down: [(f64, f64); 3],
}

/// `(bound, 1 / d)` for a channel that moves by `d` per unit step: from a
/// channel value `o` the step can grow to `(bound − o) · (1 / d)` before
/// the channel leaves `[0, 1]`. `(∞, 1)` for a channel that does not move,
/// so its room is infinite.
fn gamut_room(d: f64) -> (f64, f64) {
    if d > 0.0 {
        (1.0, 1.0 / d)
    } else if d < 0.0 {
        (0.0, 1.0 / d)
    } else {
        (f64::INFINITY, 1.0)
    }
}

impl<'a> ClosedForm<'a> {
    /// The constants of `shape`, or `None` when an extremum offset is not
    /// finite or has no extent along its own axis.
    pub(crate) fn new(shape: FixedShape<'a>) -> Option<Self> {
        let mut steps = [AxisStep::default(); 3];
        for axis in RgbAxis::ALL {
            let e = shape.extremum_offset(axis);
            let reach = e.component(axis.index());
            if !(reach > 0.0 && e.is_finite()) {
                return None;
            }
            let dir = e.to_array().map(|c| c / reach);
            steps[axis.index()] = AxisStep {
                reach,
                dir,
                up: dir.map(gamut_room),
                down: dir.map(|d| gamut_room(-d)),
            };
        }
        Some(ClosedForm { shape, steps })
    }
}

/// One lane per color channel (r, g, b).
type Channels = [Vec<f64>; 3];

/// One tile row of a frame in `[slot][tile]` lanes, with the pixels each
/// tile keeps after the adjustment. Owned by [`AdjustScratch`]; every
/// buffer is resized in place and never shrunk, so once warm a strip
/// performs no allocation. It holds one tile row, never a whole frame.
#[derive(Debug, Clone, Default)]
pub(crate) struct Strip {
    /// The row's tiles, left to right.
    tiles: Vec<TileRect>,
    /// Slots per tile: the pixel count of the row's first (widest) tile.
    slots: usize,
    /// Per tile: inside the foveal bypass region.
    foveal: Vec<bool>,
    /// Per tile: its eccentricity in degrees.
    eccentricity: Vec<f64>,
    /// Per tile: adjusted by the closed form (else by the general route,
    /// or foveal).
    covered: Vec<bool>,
    /// Per tile: the closed form's chosen case.
    case: Vec<AdjustmentCase>,
    /// The original pixels.
    pixels: Channels,
    /// The pixels each tile keeps.
    winner: Channels,
    kernel: KernelLanes,
}

/// The closed form's working buffers: per-lane ones (`[slot][tile]`) and
/// per-tile ones.
#[derive(Debug, Clone, Default)]
struct KernelLanes {
    /// Each lane's tile eccentricity, the input of the scale lane.
    eccentricity: Vec<f64>,
    scales: Vec<f64>,
    /// The current attempt's moved pixels (the first attempt moves
    /// straight into the strip's winner lanes).
    moved: Channels,
    /// Per tile: pixel count.
    count: Vec<u64>,
    hl: Vec<f64>,
    lh: Vec<f64>,
    /// Per tile and channel: the sanitized min and max, then their codes.
    min: Channels,
    max: Channels,
    low_code: [Vec<u8>; 3],
    high_code: [Vec<u8>; 3],
    original_cost: Vec<u64>,
    cost: Vec<u64>,
    chosen_cost: Vec<u64>,
    /// Per tile: all ones when the current attempt replaces the chosen
    /// one, else zero ([`blend`]).
    take: Vec<u64>,
    /// Per tile: all ones when the tile keeps its original pixels.
    keep: Vec<u64>,
}

impl Strip {
    /// Number of tiles in the strip.
    pub(crate) fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Gathers tile row `ty` of `frame` into `[slot][tile]` lanes, with
    /// each tile's foveal flag and eccentricity from `map`.
    fn gather(&mut self, frame: &LinearFrame, map: &EccentricityMap, ty: u32) {
        let grid = TileGrid::new(frame.dimensions(), map.tile_size());
        self.tiles.clear();
        self.tiles
            .extend((0..grid.tiles_x()).map(|tx| grid.tile(tx, ty)));
        self.foveal.clear();
        self.foveal
            .extend(self.tiles.iter().map(|&tile| map.is_foveal_tile(tile)));
        self.eccentricity.clear();
        self.eccentricity
            .extend(self.tiles.iter().map(|&tile| map.tile_eccentricity(tile)));
        let tiles = self.tiles.len();
        self.slots = self.tiles[0].pixel_count();
        let lanes = self.slots * tiles;
        let [r, g, b] = &mut self.pixels;
        for channel in [&mut *r, &mut *g, &mut *b] {
            channel.resize(lanes, 0.0);
        }
        let width = frame.width() as usize;
        let pixels = frame.pixels();
        let first = self.tiles[0];
        let (w, y) = (first.width as usize, first.y as usize);
        // Every tile but the last is as wide as the first: read their
        // pixels one frame row at a time, a contiguous run per tile.
        let full = if self.tiles[tiles - 1].width == first.width {
            tiles
        } else {
            tiles - 1
        };
        for dy in 0..first.height as usize {
            let start = (y + dy) * width;
            let row = &pixels[start..start + full * w];
            for (t, run) in row.chunks_exact(w).enumerate() {
                for (dx, p) in run.iter().enumerate() {
                    let lane = (dy * w + dx) * tiles + t;
                    r[lane] = p.r;
                    g[lane] = p.g;
                    b[lane] = p.b;
                }
            }
        }
        if let Some(&tile) = self.tiles.get(full) {
            // The clipped last tile, lane `t`.
            let t = full;
            let tw = tile.width as usize;
            for dy in 0..tile.height as usize {
                let start = (tile.y as usize + dy) * width + tile.x as usize;
                for (dx, p) in pixels[start..start + tw].iter().enumerate() {
                    let lane = (dy * tw + dx) * tiles + t;
                    r[lane] = p.r;
                    g[lane] = p.g;
                    b[lane] = p.b;
                }
            }
            // A clipped tile repeats its first pixel in its spare slots:
            // its minima, maxima and planes stay what they were.
            for slot in tile.pixel_count()..self.slots {
                let lane = slot * tiles + t;
                r[lane] = r[t];
                g[lane] = g[t];
                b[lane] = b[t];
            }
        }
    }

    /// Runs the closed form over the gathered strip: fills `covered`,
    /// `case` and the winner lanes of every covered tile.
    fn closed_form(&mut self, form: &ClosedForm<'_>, axes: &[RgbAxis]) {
        let tiles = self.tiles.len();
        let k = &mut self.kernel;
        k.eccentricity.clear();
        for _ in 0..self.slots {
            k.eccentricity.extend_from_slice(&self.eccentricity);
        }
        let [r, g, b] = &self.pixels;
        form.shape
            .scales_into(r, g, b, &k.eccentricity, &mut k.scales);
        k.count.clear();
        k.count
            .extend(self.tiles.iter().map(|tile| tile.pixel_count() as u64));
        for per_tile in [&mut k.hl, &mut k.lh] {
            per_tile.resize(tiles, 0.0);
        }
        for per_tile in [
            &mut k.original_cost,
            &mut k.cost,
            &mut k.chosen_cost,
            &mut k.take,
            &mut k.keep,
        ] {
            per_tile.resize(tiles, 0);
        }
        for c in 0..3 {
            k.min[c].resize(tiles, 0.0);
            k.max[c].resize(tiles, 0.0);
            k.low_code[c].resize(tiles, 0);
            k.high_code[c].resize(tiles, 0);
            k.moved[c].resize(self.pixels[c].len(), 0.0);
            self.winner[c].resize(self.pixels[c].len(), 0.0);
        }
        self.covered.clear();
        self.covered.resize(tiles, true);
        self.case.clear();
        self.case.resize(tiles, AdjustmentCase::NoCommonPlane);
        run_kernel(self, form, axes);
    }

    /// Marks every tile uncovered and keeps the original pixels: the
    /// starting point when the model has no closed form.
    fn keep_original(&mut self) {
        self.covered.clear();
        self.covered.resize(self.tiles.len(), false);
        for (winner, pixels) in self.winner.iter_mut().zip(&self.pixels) {
            winner.clone_from(pixels);
        }
    }

    /// Writes a tile's winning lanes (tile-local row-major order, as
    /// [`LinearFrame::tile_lanes_into`] gathers them) into the strip.
    fn write_tile(&mut self, t: usize, lanes: &LinearTileLanes) {
        let tiles = self.tiles.len();
        for (winner, lane) in self.winner.iter_mut().zip([&lanes.r, &lanes.g, &lanes.b]) {
            for (slot, &value) in lane.iter().enumerate() {
                winner[slot * tiles + t] = value;
            }
        }
    }

    /// Writes every tile's winning pixels into `frame` at the strip's
    /// position.
    pub(crate) fn scatter_into(&self, frame: &mut LinearFrame) {
        let tiles = self.tiles.len();
        let width = frame.width() as usize;
        let pixels = frame.pixels_mut();
        let [r, g, b] = &self.winner;
        for (t, tile) in self.tiles.iter().enumerate() {
            let w = tile.width as usize;
            for dy in 0..tile.height as usize {
                let start = (tile.y as usize + dy) * width + tile.x as usize;
                for (dx, p) in pixels[start..start + w].iter_mut().enumerate() {
                    let lane = (dy * w + dx) * tiles + t;
                    *p = LinearRgb::new(r[lane], g[lane], b[lane]);
                }
            }
        }
    }

    /// Quantizes every winning lane to sRGB8 codes into `codes`, which
    /// then holds them tile-major ([`Self::tile_codes`]).
    pub(crate) fn quantize_into(&self, codes: &mut StripCodes) {
        let (tiles, slots) = (self.tiles.len(), self.slots);
        let StripCodes {
            strip_order,
            tile_major,
        } = codes;
        for ((quantized, transposed), winner) in
            strip_order.iter_mut().zip(tile_major).zip(&self.winner)
        {
            quantized.resize(winner.len(), 0);
            linear_to_srgb8_slice(winner, quantized);
            transposed.resize(winner.len(), 0);
            for slot in 0..slots {
                let row = &quantized[slot * tiles..(slot + 1) * tiles];
                for (t, &code) in row.iter().enumerate() {
                    transposed[t * slots + slot] = code;
                }
            }
        }
    }

    /// Tile `t`'s codes from the last [`Self::quantize_into`], per channel,
    /// in tile-local row-major order.
    pub(crate) fn tile_codes<'a>(&self, t: usize, codes: &'a StripCodes) -> [&'a [u8]; 3] {
        let start = t * self.slots;
        let pixels = start..start + self.tiles[t].pixel_count();
        let [r, g, b] = &codes.tile_major;
        [&r[pixels.clone()], &g[pixels.clone()], &b[pixels]]
    }
}

/// A strip's winning lanes as sRGB8 codes ([`Strip::quantize_into`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct StripCodes {
    /// As quantized, in strip order.
    strip_order: [Vec<u8>; 3],
    /// Tile-major: tile `t`'s codes start at `t * slots`, one contiguous
    /// run per channel.
    tile_major: [Vec<u8>; 3],
}

impl AdjustScratch {
    /// Adjusts tile row `ty` of `frame` into the strip's winner lanes and
    /// returns the row's statistics: the closed form over the whole strip
    /// when `closed_form` (built from `model`'s [`FixedShape`]) is given,
    /// then the per-tile general route for every non-foveal tile it did
    /// not cover.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is empty or `map` was not built for `frame`'s grid.
    pub(crate) fn adjust_strip<M: DiscriminationModel + ?Sized>(
        &mut self,
        frame: &LinearFrame,
        map: &EccentricityMap,
        ty: u32,
        model: &M,
        closed_form: Option<&ClosedForm<'_>>,
        axes: &[RgbAxis],
    ) -> AdjustmentStats {
        assert!(
            !axes.is_empty(),
            "at least one optimization axis is required"
        );
        let strip = &mut self.strip;
        strip.gather(frame, map, ty);
        match closed_form {
            Some(form) => strip.closed_form(form, axes),
            None => strip.keep_original(),
        }
        let mut stats = AdjustmentStats {
            total_tiles: strip.tile_count(),
            ..Default::default()
        };
        for t in 0..strip.tile_count() {
            if strip.foveal[t] {
                stats.foveal_tiles += 1;
            } else if strip.covered[t] {
                stats.record_case(strip.case[t]);
            } else {
                let outcome = adjust_frame_tile(
                    &mut self.lanes,
                    frame,
                    strip.tiles[t],
                    model,
                    strip.eccentricity[t],
                    axes,
                );
                stats.record_case(outcome.case);
                strip.write_tile(t, self.lanes.winner(&outcome));
            }
        }
        stats
    }
}

/// Set by [`on_each_kernel_path`] while it runs its baseline pass.
static FORCE_BASELINE: AtomicBool = AtomicBool::new(false);

/// Whether this CPU runs the AVX2 clone, detected once per process.
fn avx2_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            std::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether the strip kernel runs as the AVX2 clone.
fn avx2_selected() -> bool {
    avx2_detected() && !FORCE_BASELINE.load(Ordering::Relaxed)
}

/// The instruction set the strip closed form runs on in this process:
/// `"avx2"` when the CPU has AVX2, else `"baseline"` (the build's target
/// features). Both give bit-identical results.
pub fn kernel_path() -> &'static str {
    if avx2_selected() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Runs `run` twice: with the strip closed form forced onto its baseline
/// compilation, then on the detected path, passing [`kernel_path`] each
/// time. A hook for the tests and benchmarks that pin or time both paths;
/// it never changes a result.
///
/// The choice is process-wide, so calls are serialized by a lock, and an
/// encode on another thread (a runtime shard worker, say) runs on the
/// forced path too. An encode outside any call may run on either path
/// while a call is in its baseline pass.
#[doc(hidden)]
pub fn on_each_kernel_path(mut run: impl FnMut(&'static str)) {
    static LOCK: Mutex<()> = Mutex::new(());
    // The lock guards no data, so a panic in another call leaves nothing
    // to repair.
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for force in [true, false] {
        FORCE_BASELINE.store(force, Ordering::Relaxed);
        run(kernel_path());
    }
}

/// Runs [`closed_form_kernel`] compiled for the selected instruction set.
#[allow(unsafe_code)]
fn run_kernel(strip: &mut Strip, form: &ClosedForm<'_>, axes: &[RgbAxis]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_selected() {
        /// The AVX2 clone of the kernel.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(strip: &mut Strip, form: &ClosedForm<'_>, axes: &[RgbAxis]) {
            closed_form_kernel(strip, form, axes);
        }
        // SAFETY: `avx2_selected` holds only when
        // `std::is_x86_feature_detected!("avx2")` found AVX2 on this CPU.
        unsafe { avx2(strip, form, axes) };
        return;
    }
    closed_form_kernel(strip, form, axes);
}

/// The closed-form phases over a gathered strip whose scale lane is
/// filled (see the module documentation).
#[inline(always)]
fn closed_form_kernel(strip: &mut Strip, form: &ClosedForm<'_>, axes: &[RgbAxis]) {
    let (tiles, slots) = (strip.tiles.len(), strip.slots);
    let Strip {
        foveal,
        covered,
        case,
        pixels,
        winner,
        kernel: k,
        ..
    } = strip;
    coverage(pixels, &k.scales, &form.shape, slots, covered);
    sanitized_min_max(pixels, slots, &mut k.min, &mut k.max);
    tile_costs(k, tiles);
    std::mem::swap(&mut k.original_cost, &mut k.cost);
    for (attempt, &axis) in axes.iter().enumerate() {
        let step = &form.steps[axis.index()];
        planes(
            &pixels[axis.index()],
            &k.scales,
            step.reach,
            slots,
            &mut k.hl,
            &mut k.lh,
        );
        let out = if attempt == 0 {
            &mut *winner
        } else {
            &mut k.moved
        };
        shift(
            pixels,
            axis.index(),
            &k.scales,
            step,
            (&k.hl, &k.lh),
            slots,
            out,
        );
        sanitized_min_max(out, slots, &mut k.min, &mut k.max);
        tile_costs(k, tiles);
        for (t, case) in case.iter_mut().enumerate() {
            // Strict `<` keeps the first minimal attempt.
            let take = attempt == 0 || k.cost[t] < k.chosen_cost[t];
            k.take[t] = mask(take);
            if take {
                k.chosen_cost[t] = k.cost[t];
                *case = if k.hl[t] <= k.lh[t] {
                    AdjustmentCase::CommonPlane
                } else {
                    AdjustmentCase::NoCommonPlane
                };
            }
        }
        if attempt > 0 {
            select(&k.take, &k.moved, slots, winner);
        }
    }
    // Never regress: a tile whose chosen attempt does not beat its
    // original cost keeps its original pixels, as does a foveal tile.
    for (t, &foveal) in foveal.iter().enumerate() {
        k.keep[t] = mask(foveal || k.chosen_cost[t] >= k.original_cost[t]);
    }
    select(&k.keep, pixels, slots, winner);
}

/// Per tile: every channel finite and every scale inside the shape's
/// range. A NaN pixel makes a NaN scale, and an infinite one breaks
/// `p ± s · e`, so either leaves the tile to the general route.
#[inline(always)]
fn coverage(
    pixels: &Channels,
    scales: &[f64],
    shape: &FixedShape<'_>,
    slots: usize,
    covered: &mut [bool],
) {
    let tiles = covered.len();
    for slot in 0..slots {
        let row = slot * tiles..(slot + 1) * tiles;
        let (r, g, b) = (
            &pixels[0][row.clone()],
            &pixels[1][row.clone()],
            &pixels[2][row.clone()],
        );
        let s = &scales[row];
        for t in 0..tiles {
            let ok = r[t].is_finite() & g[t].is_finite() & b[t].is_finite() & shape.holds_at(s[t]);
            covered[t] &= ok;
        }
    }
}

/// Per tile and channel, the `(min, max)` of the lanes as the sRGB
/// quantizer sees them: every value read through `x > 0 ? x : 0` first,
/// which maps exactly the inputs the quantizer sends to code 0 (NaN, ±0.0
/// and negatives) to `0.0`. The sanitized values are never NaN or −0.0, so
/// the select-form min and max are exact in any order.
///
/// Each block of [`BLOCK`] tiles keeps its accumulators in registers over
/// all slots and stores them once; the last `tiles % BLOCK` tiles take the
/// plain slot-row loop.
#[inline(always)]
fn sanitized_min_max(lanes: &Channels, slots: usize, min: &mut Channels, max: &mut Channels) {
    for c in 0..3 {
        let (values, min, max) = (&lanes[c][..], &mut min[c][..], &mut max[c][..]);
        let tiles = min.len();
        let max = &mut max[..tiles];
        let rest = tiles - tiles % BLOCK;
        for start in (0..rest).step_by(BLOCK) {
            let mut lo = [f64::INFINITY; BLOCK];
            let mut hi = [f64::NEG_INFINITY; BLOCK];
            for slot in 0..slots {
                let v = block(values, slot * tiles + start);
                for i in 0..BLOCK {
                    let x = sanitized(v[i]);
                    lo[i] = min_of(x, lo[i]);
                    hi[i] = max_of(x, hi[i]);
                }
            }
            min[start..start + BLOCK].copy_from_slice(&lo);
            max[start..start + BLOCK].copy_from_slice(&hi);
        }
        let (min, max) = (&mut min[rest..], &mut max[rest..]);
        min.fill(f64::INFINITY);
        max.fill(f64::NEG_INFINITY);
        for slot in 0..slots {
            let v = &values[slot * tiles + rest..(slot + 1) * tiles];
            for t in 0..min.len() {
                let x = sanitized(v[t]);
                min[t] = min_of(x, min[t]);
                max[t] = max_of(x, max[t]);
            }
        }
    }
}

/// Each tile's Δ-bit cost from its per-channel min and max: the bit
/// length of the quantized range, times the tile's pixel count, summed
/// over the channels. The quantizer never decreases, so the extremes'
/// codes are the channel's smallest and largest code.
#[inline(always)]
fn tile_costs(k: &mut KernelLanes, tiles: usize) {
    for c in 0..3 {
        linear_to_srgb8_slice(&k.min[c], &mut k.low_code[c]);
        linear_to_srgb8_slice(&k.max[c], &mut k.high_code[c]);
    }
    let (low, high) = (&k.low_code, &k.high_code);
    for t in 0..tiles {
        let bits: u64 = (0..3)
            .map(|c| u64::from(bits_for_range(high[c][t] - low[c][t])))
            .sum();
        k.cost[t] = bits * k.count[t];
    }
}

/// `HL = max(p_A − s·e_A)` and `LH = min(p_A + s·e_A)` per tile. On a
/// covered tile the values are finite, so the select-form max and min
/// return the exact extremes in any order. Blocked like
/// [`sanitized_min_max`].
#[inline(always)]
fn planes(
    values: &[f64],
    scales: &[f64],
    reach: f64,
    slots: usize,
    hl: &mut [f64],
    lh: &mut [f64],
) {
    let tiles = hl.len();
    let lh = &mut lh[..tiles];
    let rest = tiles - tiles % BLOCK;
    for start in (0..rest).step_by(BLOCK) {
        let mut high_low = [f64::NEG_INFINITY; BLOCK];
        let mut low_high = [f64::INFINITY; BLOCK];
        for slot in 0..slots {
            let lane = slot * tiles + start;
            let (v, s) = (block(values, lane), block(scales, lane));
            for i in 0..BLOCK {
                let r = s[i] * reach;
                high_low[i] = max_of(v[i] - r, high_low[i]);
                low_high[i] = min_of(v[i] + r, low_high[i]);
            }
        }
        hl[start..start + BLOCK].copy_from_slice(&high_low);
        lh[start..start + BLOCK].copy_from_slice(&low_high);
    }
    let (hl, lh) = (&mut hl[rest..], &mut lh[rest..]);
    hl.fill(f64::NEG_INFINITY);
    lh.fill(f64::INFINITY);
    for slot in 0..slots {
        let row = slot * tiles + rest..(slot + 1) * tiles;
        let (v, s) = (&values[row.clone()], &scales[row]);
        for t in 0..hl.len() {
            let r = s[t] * reach;
            hl[t] = max_of(v[t] - r, hl[t]);
            lh[t] = min_of(v[t] + r, lh[t]);
        }
    }
}

/// The closed-form Color Shift along axis `axis`: every pixel moves by
/// `τ · u`, where `τ` is the axis move toward its tile's target plane,
/// clamped to the chord `±s·e_A` and then shortened to the gamut.
///
/// The gamut step keeps the general route's `clamp_step_to_gamut`
/// contract: `τ` keeps its sign, never grows, and is zero when the pixel
/// already lies outside the cube in the direction it would move. Unmoved
/// pixels (`τ == 0`) keep their original bits. Every step is a
/// compare-select, so the loop is branch-free.
#[inline(always)]
fn shift(
    pixels: &Channels,
    axis: usize,
    scales: &[f64],
    step: &AxisStep,
    (hl, lh): (&[f64], &[f64]),
    slots: usize,
    out: &mut Channels,
) {
    let tiles = hl.len();
    let lh = &lh[..tiles];
    let [ux, uy, uz] = step.dir;
    let [or_, og, ob] = out;
    for slot in 0..slots {
        let row = slot * tiles..(slot + 1) * tiles;
        let (px, py, pz) = (
            &pixels[0][row.clone()],
            &pixels[1][row.clone()],
            &pixels[2][row.clone()],
        );
        let cur = &pixels[axis][row.clone()];
        let s = &scales[row.clone()];
        let (ox, oy, oz) = (&mut or_[row.clone()], &mut og[row.clone()], &mut ob[row]);
        for t in 0..tiles {
            let (hl, lh) = (hl[t], lh[t]);
            let value = cur[t];
            let reach = s[t] * step.reach;
            let target = if hl <= lh {
                0.5 * (hl + lh)
            } else if value > hl {
                hl
            } else if value < lh {
                lh
            } else {
                value
            };
            let want = target - value;
            let tau0 = if want > reach {
                reach
            } else if want < -reach {
                -reach
            } else {
                want
            };
            // The gamut room both ways, then the one `τ` moves in: the
            // smallest room over the channels, floored at zero, caps `|τ|`.
            // That is `clamp_step_to_gamut`'s chained limit, reordered: min
            // and max are exact, so the order of the comparisons cannot
            // change it.
            let up = tau0 > 0.0;
            let mut room_up = f64::INFINITY;
            let mut room_down = f64::INFINITY;
            for (c, o) in [px[t], py[t], pz[t]].into_iter().enumerate() {
                let (bound, inv) = step.up[c];
                let room = (bound - o) * inv;
                room_up = if room < room_up { room } else { room_up };
                let (bound, inv) = step.down[c];
                let room = (bound - o) * inv;
                room_down = if room < room_down { room } else { room_down };
            }
            let room = if up { room_up } else { room_down };
            let room = if room > 0.0 { room } else { 0.0 };
            let magnitude = tau0.abs();
            let limit = if room < magnitude { room } else { magnitude };
            let tau = if up { limit } else { -limit };
            let moved = tau != 0.0;
            ox[t] = if moved { px[t] + ux * tau } else { px[t] };
            oy[t] = if moved { py[t] + uy * tau } else { py[t] };
            oz[t] = if moved { pz[t] + uz * tau } else { pz[t] };
        }
    }
}

/// `into = pick ? from : into`, lane-wise, with one [`mask`] per tile.
#[inline(always)]
fn select(pick: &[u64], from: &Channels, slots: usize, into: &mut Channels) {
    let tiles = pick.len();
    for (from, into) in from.iter().zip(into.iter_mut()) {
        for slot in 0..slots {
            let row = slot * tiles..(slot + 1) * tiles;
            let (from, into) = (&from[row.clone()], &mut into[row]);
            for t in 0..tiles {
                into[t] = blend(pick[t], from[t], into[t]);
            }
        }
    }
}

/// Tiles per register block of [`sanitized_min_max`] and [`planes`]: two
/// 256-bit registers of `f64`s.
const BLOCK: usize = 8;

/// The [`BLOCK`] lanes of `values` from `start` on.
#[inline(always)]
fn block(values: &[f64], start: usize) -> &[f64; BLOCK] {
    values[start..start + BLOCK]
        .try_into()
        .expect("the range is BLOCK long")
}

/// `x` as the sRGB quantizer sees it: `0.0` for NaN, ±0.0 and negatives.
#[inline(always)]
fn sanitized(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// The select-form min: `x` if it is below `acc`, else `acc`. Exact on
/// values that are never NaN or −0.0.
#[inline(always)]
fn min_of(x: f64, acc: f64) -> f64 {
    if x < acc {
        x
    } else {
        acc
    }
}

/// The select-form max, like [`min_of`].
#[inline(always)]
fn max_of(x: f64, acc: f64) -> f64 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// All ones for `true`, zero for `false`.
#[inline(always)]
fn mask(flag: bool) -> u64 {
    u64::from(flag).wrapping_neg()
}

/// The bits of `a` where `mask` is set, else those of `b`. A select on a
/// per-tile `bool` does not vectorize on the baseline target; the bitwise
/// form does, and moves the chosen value's bits unchanged.
#[inline(always)]
fn blend(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}
