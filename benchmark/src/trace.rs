//! In-memory spans for the traced run, written out as JSON lines when the
//! run ends.
//!
//! Nothing inside the program is instrumented yet, so a traced operation
//! is *shadowed*: its root span times the same real call the untraced run
//! makes, and right after it the harness calls each layer's public
//! function on the same input under a child span. A child therefore lies
//! after its parent in time, not inside it, and a span's self time is its
//! duration minus the durations of its direct children — the root's
//! residue is what no shadowed layer accounts for.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The operation (action or statement) this span belongs to.
    pub op: u64,
    /// Layer entry point, e.g. `transform` or `sql.parse`.
    pub name: &'static str,
    /// Index of the parent span in the same trace, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's own length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls, total time and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Number of spans.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The spans and counts of one traced run (or of one of its threads).
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    /// Spans in the order they were recorded.
    pub spans: Vec<Span>,
    /// Exact counts taken at the same boundaries (rows out, bytes, ...).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// An empty trace whose clock starts at `origin`; threads of one run
    /// share the origin so their spans merge onto one time line.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f` under a new span and returns its result with the span's
    /// index (for hanging children off it).
    pub fn time<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        (out, self.record(op, name, parent, start, end))
    }

    /// Adds `n` to a named count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Appends another thread's trace, re-basing its parent links.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.counts {
            self.count(k, v);
        }
    }

    /// Per-name totals, with self times.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span, then one per count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (k, v) in &self.counts {
            writeln!(w, "{{\"count\":\"{k}\",\"value\":{v}}}")?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations, never below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100; shadow children recorded after it; a grandchild
        // comes off its own parent only.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 100, 130),
            span("b", Some(0), 130, 150),
            span("b.inner", Some(2), 150, 155),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 15, 5]);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span("root", None, 0, 10), span("a", Some(0), 10, 40)];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn merge_rebases_parents_and_sums_counts() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        let root = a.record(1, "root", None, origin, origin);
        a.record(1, "child", Some(root), origin, origin);
        a.count("rows", 2);
        let mut b = Trace::new(origin);
        let root = b.record(2, "root", None, origin, origin);
        b.record(2, "child", Some(root), origin, origin);
        b.count("rows", 3);
        a.merge(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.counts["rows"], 5);
        assert_eq!(a.totals()["child"].calls, 2);
    }
}
