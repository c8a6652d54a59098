//! The benchmark's own tracer: spans recorded in memory around each call
//! into a layer, aggregated into per-layer times and written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span (the frame).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub frame: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.calls as f64 / 1e6
    }
}

/// All spans of one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Opens a span that encloses others; close it with [`Self::close`].
    pub fn open(&mut self, layer: &'static str, frame: u64) -> usize {
        let now = self.nanos(Instant::now());
        self.spans.push(Span {
            layer,
            frame,
            parent: None,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.nanos(Instant::now());
    }

    /// Records a finished child span of `parent` that began at `started`.
    pub fn record(&mut self, layer: &'static str, parent: usize, started: Instant) {
        let end_ns = self.nanos(Instant::now());
        self.spans.push(Span {
            layer,
            frame: self.spans[parent].frame,
            parent: Some(parent),
            start_ns: self.nanos(started),
            end_ns,
        });
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Self time per layer: a span's duration minus its children's.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.nanos();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry(span.layer).or_default();
            layer.self_ns += span.nanos().saturating_sub(children);
            layer.calls += 1;
        }
        layers
    }

    /// Mean over root spans of the summed duration of their children:
    /// the time the traced layers account for per frame, in ms.
    pub fn child_ms_per_root(&self) -> f64 {
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        if roots == 0 {
            return 0.0;
        }
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .map(Span::nanos)
            .sum();
        children as f64 / roots as f64 / 1e6
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{}\", \"frame\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.layer, span.frame, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let frame = spans.open("frame", 0);
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.record("adjust", frame, started);
        spans.close(frame);
        let layers = spans.layer_times();
        let adjust = layers["adjust"];
        let total = spans.spans[frame].nanos();
        assert_eq!(adjust.calls, 1);
        assert!(adjust.self_ns >= 2_000_000);
        assert_eq!(layers["frame"].self_ns, total - adjust.self_ns);
        assert!((spans.child_ms_per_root() - adjust.self_ns as f64 / 1e6).abs() < 1e-9);
    }
}
