//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer; nothing inside the program is instrumented. A span holds a
//! name, start, end, parent span and request id. Spans stay in memory and
//! are written out when the run ends. A layer's self time is its span
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `dsp.detector.detect`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request (or shadow operation) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread. A disabled recorder records
/// nothing and costs one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (share one epoch between
    /// threads so their spans line up).
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.ns(Instant::now());
        self.spans[idx].end_ns = end;
        out
    }

    /// Records an interval measured elsewhere (e.g. a request's send and
    /// receive instants in the load generator) as a root span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                request,
            };
            self.spans.push(span);
        }
    }

    /// Takes the recorded spans out of the recorder.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span, nanoseconds: its duration minus the union of
/// its direct children's intervals, each clipped to the span. Children may
/// overlap one another (work on other threads, pipelined requests); the
/// covered time is counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per-layer totals over a span set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStats {
    /// Spans of this layer.
    pub count: usize,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times, nanoseconds.
    pub self_ns: u64,
    /// Every span duration, nanoseconds (for percentiles).
    pub durations_ns: Vec<u64>,
}

impl LayerStats {
    /// Mean span duration in microseconds (0 when the layer did no work).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time in microseconds.
    pub fn self_mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Nearest-rank percentile of the span durations, microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let v: Vec<f64> = self.durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
        crate::stats::nearest_rank(&crate::stats::sorted(&v), q)
    }
}

/// Groups spans by layer name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
        e.durations_ns.push(s.duration_ns());
    }
    out
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 10, 50, None)];
        assert_eq!(self_times(&spans), vec![40]);
    }

    #[test]
    fn nested_children_count_only_against_their_direct_parent() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,40) and [30,70) overlap on [30,40): covered = 60.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 35, 38, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("root", 50, 100, None),
            span("early", 0, 60, Some(0)),
            span("late", 90, 200, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn fully_covered_span_has_zero_self_time() {
        let spans = [
            span("root", 0, 10, None),
            span("a", 0, 6, Some(0)),
            span("b", 4, 10, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn recorder_links_parents_and_summarizes() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box(1 + 1));
            t.span("inner", 7, |_| ());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let summary = summarize(&spans);
        assert_eq!(summary["inner"].count, 2);
        let outer = &summary["outer"];
        assert!(outer.self_ns <= outer.total_ns);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let v = t.span("x", 0, |_| 5);
        t.record("y", 0, Instant::now(), Instant::now());
        assert_eq!(v, 5);
        assert!(t.take().is_empty());
    }
}
