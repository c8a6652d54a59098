//! The Color Adjustment Unit (CAU) hardware model.

use pvc_color::lanes::LANE_WIDTH;
use pvc_frame::Dimensions;
use serde::{Deserialize, Serialize};

/// Parameters of the GPU the CAU is co-designed with (Adreno 650 in the
/// Oculus Quest 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of shader cores.
    pub shader_cores: u32,
    /// Nominal clock frequency in MHz.
    pub frequency_mhz: f64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        // Adreno 650: 512 shader cores at a nominal 441 MHz (Sec. 6.1).
        GpuConfig {
            shader_cores: 512,
            frequency_mhz: 441.0,
        }
    }
}

/// Post-synthesis parameters of the CAU (TSMC 7 nm numbers from Sec. 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CauConfig {
    /// Cycle time of the CAU in nanoseconds.
    pub cycle_time_ns: f64,
    /// Number of processing elements (each adjusts one tile).
    pub pe_count: u32,
    /// Number of pipeline phases a tile occupies a PE for before the next
    /// tile can be issued to it (extrema → planes → shift).
    pub phases_per_tile: u32,
    /// Pixels per tile (tile side squared; 16 for 4×4 tiles).
    pub pixels_per_tile: u32,
    /// Area of one PE in mm².
    pub pe_area_mm2: f64,
    /// Power of one PE plus its pending buffer, in microwatts.
    pub pe_power_uw: f64,
    /// Total pending-buffer capacity in KiB (double-buffered tiles).
    pub pending_buffer_kib: f64,
    /// Total pending-buffer area in mm².
    pub buffer_area_mm2: f64,
}

impl Default for CauConfig {
    fn default() -> Self {
        CauConfig {
            cycle_time_ns: 6.0,
            pe_count: 96,
            phases_per_tile: 3,
            // A 4×4 tile holds exactly two software lane groups, so the
            // hardware PE width stays in lockstep with the SoA kernels.
            pixels_per_tile: (2 * LANE_WIDTH) as u32,
            pe_area_mm2: 0.022,
            pe_power_uw: 2.1,
            pending_buffer_kib: 36.0,
            buffer_area_mm2: 0.03,
        }
    }
}

/// The analytical CAU model derived from a [`CauConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CauModel {
    config: CauConfig,
}

impl CauModel {
    /// Creates a model from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(config: CauConfig) -> Self {
        assert!(config.cycle_time_ns > 0.0, "cycle time must be positive");
        assert!(config.pe_count > 0, "PE count must be non-zero");
        assert!(config.phases_per_tile > 0, "phase count must be non-zero");
        assert!(config.pixels_per_tile > 0, "tile size must be non-zero");
        assert!(
            config.pixels_per_tile as usize % LANE_WIDTH == 0,
            "CAU tile width must be a whole number of software lane groups"
        );
        assert!(
            config.pe_area_mm2 > 0.0 && config.pe_power_uw > 0.0,
            "PE cost must be positive"
        );
        CauModel { config }
    }

    /// The configuration the model was built from.
    pub fn config(&self) -> CauConfig {
        self.config
    }

    /// CAU clock frequency in MHz (~166.7 MHz for a 6 ns cycle).
    pub fn frequency_mhz(&self) -> f64 {
        1e3 / self.config.cycle_time_ns
    }

    /// Number of PEs required so that the CAU keeps up with the GPU's peak
    /// pixel rate (Sec. 6.1): the GPU produces `shader_cores ×
    /// ⌈cau_cycle/gpu_cycle⌉` pixels per CAU cycle; one PE is provisioned
    /// per tile of that burst.
    pub fn required_pe_count(&self, gpu: &GpuConfig) -> u32 {
        let gpu_cycle_ns = 1e3 / gpu.frequency_mhz;
        let gpu_cycles_per_cau_cycle = (self.config.cycle_time_ns / gpu_cycle_ns).ceil();
        let pixels_per_cau_cycle = f64::from(gpu.shader_cores) * gpu_cycles_per_cau_cycle;
        (pixels_per_cau_cycle / f64::from(self.config.pixels_per_tile)).ceil() as u32
    }

    /// Sustained tile throughput per CAU cycle: each PE accepts a new tile
    /// every [`CauConfig::phases_per_tile`] cycles.
    pub fn tiles_per_cycle(&self) -> f64 {
        f64::from(self.config.pe_count) / f64::from(self.config.phases_per_tile)
    }

    /// Number of tiles in a frame of the given dimensions.
    pub fn tiles_per_frame(&self, dimensions: Dimensions) -> u64 {
        (dimensions.pixel_count() as u64).div_ceil(u64::from(self.config.pixels_per_tile))
    }

    /// Latency added by compressing one frame, in microseconds (Sec. 6.1
    /// reports 173.4 µs for 5408×2736).
    pub fn frame_latency_us(&self, dimensions: Dimensions) -> f64 {
        let cycles = self.tiles_per_frame(dimensions) as f64 / self.tiles_per_cycle();
        cycles * self.config.cycle_time_ns * 1e-3
    }

    /// True when the added compression latency fits in the frame budget of
    /// the given refresh rate.
    pub fn meets_frame_budget(&self, dimensions: Dimensions, fps: f64) -> bool {
        self.frame_latency_us(dimensions) < 1e6 / fps
    }

    /// Total area of the PE array plus pending buffers, in mm².
    pub fn total_area_mm2(&self) -> f64 {
        f64::from(self.config.pe_count) * self.config.pe_area_mm2 + self.config.buffer_area_mm2
    }

    /// Total CAU power in milliwatts (the encoding overhead charged against
    /// the DRAM savings).
    pub fn total_power_mw(&self) -> f64 {
        f64::from(self.config.pe_count) * self.config.pe_power_uw * 1e-3
    }

    /// Area as a fraction of a reference mobile SoC die (default: the 83.54
    /// mm² Snapdragon 865 the paper cites).
    pub fn area_fraction_of_soc(&self, soc_area_mm2: f64) -> f64 {
        self.total_area_mm2() / soc_area_mm2
    }
}

impl Default for CauModel {
    fn default() -> Self {
        CauModel::new(CauConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_width_is_lane_aligned() {
        // The paper's 4×4 tile is exactly two software lane groups; the
        // shared constant keeps the hardware model and the SoA kernels in
        // lockstep, and `new` rejects any PE width that breaks parity.
        assert_eq!(
            CauConfig::default().pixels_per_tile as usize,
            2 * LANE_WIDTH
        );
    }

    #[test]
    #[should_panic]
    fn lane_misaligned_pe_width_panics() {
        let _ = CauModel::new(CauConfig {
            pixels_per_tile: (LANE_WIDTH + 1) as u32,
            ..CauConfig::default()
        });
    }

    #[test]
    fn frequency_matches_paper() {
        let cau = CauModel::default();
        assert!((cau.frequency_mhz() - 166.666).abs() < 0.1);
    }

    #[test]
    fn pe_count_sizing_matches_paper() {
        // 512 shader cores × 3 pixels per CAU cycle = 96 tiles → 96 PEs.
        let cau = CauModel::default();
        assert_eq!(cau.required_pe_count(&GpuConfig::default()), 96);
    }

    #[test]
    fn frame_latency_matches_paper_headline() {
        // Sec. 6.1: compressing a 5408×2736 frame adds 173.4 µs.
        let cau = CauModel::default();
        let latency = cau.frame_latency_us(Dimensions::QUEST2_HIGH);
        assert!((latency - 173.4).abs() < 1.0, "latency {latency} µs");
    }

    #[test]
    fn latency_fits_every_quest2_frame_budget() {
        let cau = CauModel::default();
        for fps in [72.0, 80.0, 90.0, 120.0] {
            assert!(
                cau.meets_frame_budget(Dimensions::QUEST2_HIGH, fps),
                "misses budget at {fps}"
            );
        }
    }

    #[test]
    fn area_matches_paper() {
        // 96 PEs × 0.022 mm² ≈ 2.1 mm², plus 0.03 mm² of buffers.
        let cau = CauModel::default();
        assert!((cau.total_area_mm2() - 2.142).abs() < 0.01);
        // Negligible compared to a mobile SoC die.
        assert!(cau.area_fraction_of_soc(83.54) < 0.03);
    }

    #[test]
    fn power_matches_paper() {
        // 96 PEs × 2.1 µW ≈ 201.6 µW.
        let cau = CauModel::default();
        assert!((cau.total_power_mw() - 0.2016).abs() < 1e-6);
    }

    #[test]
    fn more_pes_reduce_latency() {
        let small = CauModel::new(CauConfig {
            pe_count: 32,
            ..CauConfig::default()
        });
        let large = CauModel::new(CauConfig {
            pe_count: 192,
            ..CauConfig::default()
        });
        let d = Dimensions::QUEST2_LOW;
        assert!(large.frame_latency_us(d) < small.frame_latency_us(d));
        assert!(large.total_area_mm2() > small.total_area_mm2());
    }

    #[test]
    fn larger_frames_take_longer() {
        let cau = CauModel::default();
        assert!(
            cau.frame_latency_us(Dimensions::QUEST2_HIGH)
                > cau.frame_latency_us(Dimensions::QUEST2_LOW)
        );
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let _ = CauModel::new(CauConfig {
            pe_count: 0,
            ..CauConfig::default()
        });
    }
}
