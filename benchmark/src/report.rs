//! The metric schema, the result line and the small statistics helpers
//! every workload shares.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`), in
/// this order. `BENCHMARK.json` lists the same names and units; the
/// contract test pins the two together.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mpx_s", "Mpx/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("bits_per_pixel", "bit/px"),
    ("reduction_vs_bd_pct", "%"),
    ("frames_ok_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`), in this
/// order. A layer a workload bypasses reads 0 there. Counts are per pass
/// (headset) or per round (fleet), so they do not depend on run length.
/// The headset workloads time layers with the benchmark's own spans; the
/// fleet's stage times come from the runtime's tracer, as `pvc_trace.*`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pvc_scenes.render_ms_mean", "ms"),
    ("pvc_scenes.render_utilization", "ratio"),
    ("pvc_fovea.map_builds", "count"),
    ("pvc_fovea.map_ms_mean", "ms"),
    ("pvc_core.map_hit_rate", "ratio"),
    ("pvc_core.adjust_ms_mean", "ms"),
    ("pvc_core.case1_tiles", "count"),
    ("pvc_core.case2_tiles", "count"),
    ("pvc_core.foveal_tiles", "count"),
    ("pvc_frame.gamma_ms_mean", "ms"),
    ("pvc_bdc.encode_ms_mean", "ms"),
    ("pvc_bdc.decode_ms_mean", "ms"),
    ("pvc_bdc.keyframes", "count"),
    ("pvc_bdc.intra_tiles", "count"),
    ("pvc_bdc.skip_tiles", "count"),
    ("pvc_bdc.delta_tiles", "count"),
    ("pvc_stream.start_ms", "ms"),
    ("pvc_stream.admit_us_mean", "us"),
    ("pvc_stream.retire_wait_ms_mean", "ms"),
    ("pvc_stream.shutdown_ms", "ms"),
    ("pvc_stream.worker_utilization", "ratio"),
    ("pvc_parallel.queue_stalls", "count"),
    ("pvc_parallel.queue_peak_depth", "count"),
    ("pvc_client.decode_ms_mean", "ms"),
    ("pvc_client.frames_decoded", "count"),
    ("pvc_trace.render_ms_mean", "ms"),
    ("pvc_trace.queue_wait_ms_mean", "ms"),
    ("pvc_trace.adjust_ms_mean", "ms"),
    ("pvc_trace.gamma_ms_mean", "ms"),
    ("pvc_trace.bd_encode_ms_mean", "ms"),
    ("pvc_trace.wire_emit_ms_mean", "ms"),
    ("pvc_trace.overhead_pct", "%"),
    ("ladder.residual_pct", "%"),
    ("error_rate", "ratio"),
];

/// Frames attempted and failed, plus the metric values of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; its name must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the schema"
        );
        self.values.insert(name, value);
    }

    /// Counts a frame, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Names of `schema` no workload code has set.
    pub fn missing(&self, schema: &[(&'static str, &str)]) -> Vec<&'static str> {
        schema
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.values.contains_key(name))
            .collect()
    }

    /// Share of attempted frames that failed.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of `schema`, by name with its unit. Metrics of the schema the
    /// workload never set read 0 (a bypassed layer).
    ///
    /// # Panics
    ///
    /// Panics if a metric is not a finite number.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is {value}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

/// Linear-interpolated `q`-quantile of `samples` (`0 <= q <= 1`); 0 when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Seed value of the FNV-1a digest chain (the same chain
/// `SessionReport::stream_digest` uses).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a digest.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&samples, 0.5), 2.5);
    }

    #[test]
    fn schema_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_the_whole_schema() {
        let mut outcome = Outcome::default();
        outcome.count(true);
        outcome.set("setup_s", 0.25);
        let line = outcome.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    }
}
