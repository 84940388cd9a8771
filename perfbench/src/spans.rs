//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's layers — never inside the program — and kept in memory
//! until the run ends, when [`Tracer::write_jsonl`] dumps them. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover ([`Tracer::summary`]).
//!
//! A disabled tracer reads no clock and records nothing, so the untraced
//! run pays only a branch per span site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.simulate.run_trace`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start: u64,
    /// End, ns since the tracer origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus child coverage), ns.
    pub self_ns: u64,
}

/// Records nested spans. Open spans form a stack; a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and otherwise costs
    /// nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span called `name` as a child of the innermost open span;
    /// pass the returned handle to [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes a span opened by [`Tracer::open`] (spans close innermost
    /// first).
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(index) = handle {
            debug_assert_eq!(
                self.open.last(),
                Some(&index),
                "spans close innermost first"
            );
            self.open.pop();
            self.spans[index].end = self.now();
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let handle = self.open(name);
        let out = f(self);
        self.close(handle);
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (used for spans measured on other threads or read from
    /// the program's own event journal).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total time and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children) {
            let total = span.end.saturating_sub(span.start);
            let covered = covered_ns(span.start, span.end, kids);
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered.min(total);
        }
        out
    }

    /// Self time of every span called `name`, in ns (0 when none).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.summary().get(name).map_or(0, |t| t.self_ns)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `intervals` (which may overlap each other or stick out of the range).
pub fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_clips_and_merges() {
        assert_eq!(covered_ns(0, 100, vec![]), 0);
        assert_eq!(covered_ns(0, 100, vec![(10, 20), (30, 40)]), 20);
        // Overlapping children count once.
        assert_eq!(covered_ns(0, 100, vec![(10, 50), (40, 60)]), 50);
        // Children sticking out of the parent are clipped.
        assert_eq!(covered_ns(10, 20, vec![(0, 15), (18, 30)]), 7);
        // A child nested inside another adds nothing.
        assert_eq!(covered_ns(0, 100, vec![(10, 90), (20, 30)]), 80);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "outer",
                start: 0,
                end: 1000,
                parent: None,
            },
            Span {
                name: "inner",
                start: 100,
                end: 400,
                parent: Some(0),
            },
            Span {
                name: "inner",
                start: 300,
                end: 600,
                parent: Some(0),
            },
            Span {
                name: "leaf",
                start: 150,
                end: 200,
                parent: Some(1),
            },
        ];
        let s = t.summary();
        assert_eq!(
            s["outer"],
            SpanTotals {
                count: 1,
                total_ns: 1000,
                self_ns: 500
            }
        );
        // inner #1: 300 - 50 (leaf); inner #2: 300.
        assert_eq!(
            s["inner"],
            SpanTotals {
                count: 2,
                total_ns: 600,
                self_ns: 550
            }
        );
        assert_eq!(s["leaf"].self_ns, 50);
        assert_eq!(t.self_ns("missing"), 0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        let v = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("a", |t| t.record("b", Instant::now(), Instant::now()));
        assert!(t.spans().is_empty());
    }
}
