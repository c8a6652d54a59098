//! Minimal JSON emission for machine-readable bench reports.
//!
//! The bench binaries print human-readable tables; CI and cross-PR
//! trend tracking want the same numbers as structured data (`--json
//! <path>`, captured as `BENCH_*.json` artifacts). The environment has no
//! `serde_json`, so this module provides the few pieces actually needed:
//! a [`Json`] value tree, a strict renderer (escaped strings, non-finite
//! floats as `null`), a file writer, and encoders for the metric types
//! the fleet drivers report (their document is assembled in
//! [`crate::fleet_report`]).

use pvc_metrics::{SampleSummary, TemporalTotals, ThroughputReport};
use pvc_stream::{SessionReport, ShardReport};

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every counter the benches emit).
    U64(u64),
    /// A floating-point number; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_string())
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::U64(value)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::U64(value as u64)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Json {
        Json::F64(value)
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

/// Builds a [`Json::Object`] from `(key, value)` pairs.
pub fn object<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

impl Json {
    /// Renders the value as a compact JSON document (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::U64(value) => out.push_str(&value.to_string()),
            Json::F64(value) => {
                if value.is_finite() {
                    out.push_str(&value.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(value) => write_escaped(value, out),
            Json::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (index, (key, value)) in entries.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn throughput_json(throughput: &ThroughputReport) -> Json {
    object([
        ("frames", throughput.frames.into()),
        ("pixels", throughput.pixels.into()),
        ("bytes_in", throughput.bytes_in.into()),
        ("bytes_out", throughput.bytes_out.into()),
        ("wall_seconds", throughput.wall_seconds.into()),
        ("frames_per_second", throughput.frames_per_second().into()),
        (
            "megapixels_per_second",
            throughput.megapixels_per_second().into(),
        ),
        (
            "output_megabits_per_second",
            throughput.output_megabits_per_second().into(),
        ),
        (
            "bandwidth_reduction_percent",
            throughput.bandwidth_reduction_percent().into(),
        ),
    ])
}

/// Renders a [`TemporalTotals`] as the `temporal` JSON section: frame and
/// per-mode tile counts plus the emitted-vs-intra bit accounting.
pub fn temporal_json(totals: &TemporalTotals) -> Json {
    object([
        ("keyframes", totals.keyframes.into()),
        ("predicted_frames", totals.predicted_frames.into()),
        ("skip_tiles", totals.skip_tiles.into()),
        ("delta_tiles", totals.delta_tiles.into()),
        ("intra_tiles", totals.intra_tiles.into()),
        ("bits", totals.bits.into()),
        ("intra_bits", totals.intra_bits.into()),
        ("bits_saved", totals.bits_saved().into()),
        (
            "reduction_over_intra_percent",
            totals.reduction_over_intra_percent().into(),
        ),
    ])
}

pub(crate) fn summary_json(summary: Option<SampleSummary>) -> Json {
    match summary {
        None => Json::Null,
        Some(summary) => object([
            ("mean", summary.mean.into()),
            ("min", summary.min.into()),
            ("max", summary.max.into()),
            ("spread", (summary.max - summary.min).into()),
        ]),
    }
}

pub(crate) fn shard_json(shard: &ShardReport) -> Json {
    object([
        ("shard", shard.shard.into()),
        ("sessions", shard.sessions.into()),
        ("frames", shard.frames.into()),
        ("pixels", shard.pixels.into()),
        ("utilization", shard.utilization().into()),
        (
            "megapixels_per_second",
            shard.megapixels_per_second().into(),
        ),
        ("render_seconds", shard.render_seconds.into()),
        ("render_utilization", shard.render_utilization().into()),
        ("queue_stalls", shard.queue_stalls.into()),
        ("queue_enqueued", shard.queue_enqueued.into()),
        ("queue_peak_depth", shard.queue_peak_depth.into()),
    ])
}

pub(crate) fn session_json(session: &SessionReport) -> Json {
    object([
        ("session", session.session.into()),
        ("scene", session.scene.name().into()),
        ("tier", session.tier.name().into()),
        ("shard", session.shard.into()),
        ("cancelled", session.cancelled.into()),
        (
            "downgraded_from",
            session
                .downgraded_from
                .map_or(Json::Null, |tier| tier.name().into()),
        ),
        ("frames", session.throughput.frames.into()),
        ("bytes_out", session.throughput.bytes_out.into()),
        (
            "frames_per_second",
            session.throughput.frames_per_second().into(),
        ),
        (
            "megapixels_per_second",
            session.throughput.megapixels_per_second().into(),
        ),
        ("cache_hit_rate", session.cache.hit_rate().into()),
    ])
}

/// Appends a field to a [`Json::Object`] document (e.g. the optional
/// `link` section a fleet run adds under `--link`).
///
/// # Panics
///
/// Panics when `json` is not an object.
pub fn with_field(mut json: Json, key: &str, value: Json) -> Json {
    match &mut json {
        Json::Object(entries) => entries.push((key.to_string(), value)),
        other => panic!("with_field needs an object, got {other:?}"),
    }
    json
}

/// The machine and build a bench ran on, for a `BENCH_*.json` ledger
/// entry: total and usable cores, the commit (when the source checkout is
/// a git repository; suffixed `-dirty` when the tree has uncommitted
/// changes), `rustc --version` and the build profile. A value that cannot
/// be read is `null`.
pub fn host_json() -> Json {
    let usable = std::thread::available_parallelism().map_or(Json::Null, |n| n.get().into());
    // Linux lists the online CPUs as ranges, e.g. "0-3,6".
    let cores = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|list| {
            list.trim().split(',').try_fold(0usize, |total, range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                let (lo, hi) = (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?);
                Some(total + hi.checked_sub(lo)? + 1)
            })
        })
        .map_or(Json::Null, Json::from);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or(Json::Null, |text| Json::Str(text.trim().to_string()))
    };
    let commit = if root.join(".git").exists() {
        output("git", &["describe", "--always", "--dirty", "--abbrev=40"])
    } else {
        Json::Null
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    object([
        ("cores", cores),
        ("usable_cores", usable),
        ("commit", commit),
        ("rustc", output("rustc", &["--version"])),
        ("profile", profile.into()),
        ("kernel_path", pvc_core::kernel_path().into()),
    ])
}

/// Writes a rendered JSON document (with a trailing newline) to `path`,
/// creating parent directories as needed.
///
/// # Errors
///
/// Returns the underlying I/O error if a directory or the file cannot be
/// written.
pub fn write_json(path: &std::path::Path, value: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, value.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json_literals() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".to_string()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn arrays_and_objects_nest() {
        let value = object([
            ("name", "stream".into()),
            (
                "values",
                Json::Array(vec![1u64.into(), 2u64.into(), Json::Null]),
            ),
            ("nested", object([("ok", true.into())])),
        ]);
        assert_eq!(
            value.render(),
            r#"{"name":"stream","values":[1,2,null],"nested":{"ok":true}}"#
        );
    }

    #[test]
    fn write_json_creates_parent_directories() {
        let dir = std::env::temp_dir().join("pvc_json_test");
        let path = dir.join("nested").join("report.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_json(&path, &object([("ok", true.into())])).expect("write succeeds");
        let written = std::fs::read_to_string(&path).expect("file exists");
        assert_eq!(written, "{\"ok\":true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
