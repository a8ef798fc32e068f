//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, the span that caused it, and the
//! request it belongs to. Spans stay in memory during the run and are written
//! out as JSON lines at the end. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span (its index in the recorder).
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. A disabled recorder records nothing and costs one branch
/// per call, so timed code can be written once for both modes.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns `None` when
    /// tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let result = f();
        self.end(id);
        result
    }

    /// Records a span whose interval was measured elsewhere (a request timed
    /// on a load-generator thread), given as offsets from `origin`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) {
        if self.enabled {
            let offset = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: offset(start),
                end_ns: offset(end),
                parent,
                request,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: Option<SpanId>) -> Option<&Span> {
        id.map(|id| &self.spans[id])
    }

    /// Self time of every span, in seconds: its duration minus the union of
    /// its children's intervals (clipped to the parent).
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, intervals)| {
                intervals.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = span.start_ns;
                for &(start, end) in intervals.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
                span.end_ns
                    .saturating_sub(span.start_ns)
                    .saturating_sub(covered) as f64
                    * 1e-9
            })
            .collect()
    }

    /// Durations (seconds) of every span with this name.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Writes the spans as JSON lines, with their self times.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_s\":{self_s}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new(true);
        let origin = tracer.origin;
        let at = |ns: u64| origin + std::time::Duration::from_nanos(ns);
        tracer.record("parent", at(0), at(100), None, 1);
        tracer.record("a", at(10), at(40), Some(0), 1);
        tracer.record("b", at(30), at(50), Some(0), 1);
        tracer.record("c", at(90), at(120), Some(0), 1);
        let times = tracer.self_times();
        // Children cover [10, 50) and [90, 100): 50 ns of 100.
        assert!((times[0] - 50e-9).abs() < 1e-12);
        assert!((times[1] - 30e-9).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.time("work", None, 0, || 7);
        assert_eq!(value, 7);
        assert!(tracer.spans().is_empty());
    }
}
