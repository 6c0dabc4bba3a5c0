//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each span has a name, start, end, parent and statement id. Spans stay
//! in memory and are summarised when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `wal.append`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The statement this span belongs to (0 outside statements).
    pub stmt: u64,
}

/// Per-name summary of the recorded spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// Duration of every span of the name, in nanoseconds.
    pub durations: Vec<u64>,
    /// Total self time (duration minus child coverage), in nanoseconds.
    pub self_ns: u64,
}

/// Records spans. Open spans form a stack; a span opened while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; time starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), stmt: 0 }
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Set the statement id stamped on spans opened from now on.
    pub fn set_stmt(&mut self, stmt: u64) {
        self.stmt = stmt;
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            stmt: self.stmt,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("close without an open span");
        self.spans[idx].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Record an already-finished span (used by tests and by callers that
    /// time on another thread).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Summarise per span name: durations and total self time.
    pub fn summarise(&self) -> BTreeMap<&'static str, SpanSummary> {
        assert!(self.open.is_empty(), "summarising with open spans");
        summarise(&self.spans)
    }
}

/// Summarise spans per name. A span's self time is its duration minus the
/// part of its interval that its children cover (overlapping children
/// are counted once).
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_within(&mut children[i], s.start, s.end);
        let entry = out.entry(s.name).or_default();
        entry.durations.push(s.end - s.start);
        entry.self_ns += (s.end - s.start) - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, stmt: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // stmt [0,100) ⊃ parse [10,20), apply [30,90) ⊃ wal [40,50), live [60,80)
        let spans = vec![
            span("stmt", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("apply", 30, 90, Some(0)),
            span("wal", 40, 50, Some(2)),
            span("live", 60, 80, Some(2)),
        ];
        let s = summarise(&spans);
        assert_eq!(s["stmt"].self_ns, 100 - 10 - 60);
        assert_eq!(s["apply"].self_ns, 60 - 10 - 20);
        assert_eq!(s["wal"].self_ns, 10);
        assert_eq!(s["live"].durations, vec![20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children on other threads may overlap each other or overhang
        // the parent; only the covered part of the parent is subtracted.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a", 30, 70, Some(0)),
            span("b", 90, 130, Some(0)),
        ];
        let s = summarise(&spans);
        assert_eq!(s["root"].self_ns, 100 - 60 - 10);
        assert_eq!(s["a"].self_ns, 40 + 40);
        assert_eq!(s["a"].durations, vec![40, 40]);
    }

    #[test]
    fn same_name_spans_aggregate_and_tracer_nests_by_stack() {
        let mut t = Tracer::new();
        t.set_stmt(7);
        t.span("outer", || {});
        t.open("outer");
        t.span("inner", || std::hint::black_box(()));
        t.close();
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.stmt == 7));
        let s = t.summarise();
        assert_eq!(s["outer"].durations.len(), 2);
        let outer_total: u64 = s["outer"].durations.iter().sum();
        assert_eq!(s["outer"].self_ns, outer_total - s["inner"].durations[0]);
    }
}
