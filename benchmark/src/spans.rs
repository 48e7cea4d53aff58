//! In-memory span recorder for the traced run.
//!
//! Every span carries its name, start and end (nanoseconds since the
//! recorder was created), the index of its parent span and the id of the
//! operation it belongs to. Spans stay in memory until the run ends and
//! are then summarised (and optionally written out as JSON lines).
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover. Children may overlap (work done on several
//! threads) or have zero length; the covered part is the union of the
//! children's intervals, clipped to the parent's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s value and the index of the new span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, usize) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (value, index)
    }

    /// Add a span with explicit bounds.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn seconds(&self, index: usize) -> f64 {
        self.spans[index].duration_ns() as f64 / 1e9
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| {
                span.duration_ns()
                    .saturating_sub(covered_ns(span.start_ns, span.end_ns, kids))
            })
            .collect()
    }

    pub fn self_ns(&self, index: usize) -> u64 {
        self.self_times_ns()[index]
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        out
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
        }
        out
    }

    /// A per-name table of counts, total and self seconds.
    pub fn render_totals(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_s", "self_s"
        );
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{name:<28} {:>8} {:>12.6} {:>12.6}",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let s = s.clamp(start, end).max(reach);
        let e = e.clamp(start, end);
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
    fn nested_children_subtract_only_direct_children() {
        let mut r = Recorder::new();
        let root = r.record("root", 0, 100, None);
        let child = r.record("child", 10, 30, Some(root));
        let grandchild = r.record("grandchild", 15, 20, Some(child));
        let self_ns = r.self_times_ns();
        assert_eq!(self_ns[root], 80);
        assert_eq!(self_ns[child], 15);
        assert_eq!(self_ns[grandchild], 5);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        let mut r = Recorder::new();
        let root = r.record("root", 0, 100, None);
        r.record("a", 20, 50, Some(root));
        r.record("b", 40, 70, Some(root));
        r.record("c", 45, 48, Some(root));
        assert_eq!(r.self_ns(root), 50);
    }

    #[test]
    fn zero_length_children_cover_nothing() {
        let mut r = Recorder::new();
        let root = r.record("root", 0, 100, None);
        let empty = r.record("empty", 10, 10, Some(root));
        r.record("empty", 100, 100, Some(root));
        assert_eq!(r.self_ns(root), 100);
        assert_eq!(r.self_ns(empty), 0);
        assert_eq!(r.totals()["empty"].count, 2);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut r = Recorder::new();
        let root = r.record("root", 50, 100, None);
        r.record("early", 0, 60, Some(root));
        r.record("late", 90, 150, Some(root));
        assert_eq!(r.self_ns(root), 30);
    }

    #[test]
    fn live_spans_nest_and_carry_the_op_id() {
        let mut r = Recorder::new();
        let op = r.next_op();
        let ((_, inner), outer) = r.span("outer", |r| r.span("inner", |_| ()));
        assert_eq!(r.spans()[inner].parent, Some(outer));
        assert_eq!(r.spans()[outer].parent, None);
        assert!(r.spans().iter().all(|s| s.op == op));
        let totals = r.totals();
        assert_eq!(totals["outer"].total_ns, r.spans()[outer].duration_ns());
        assert!(totals["outer"].self_ns <= totals["outer"].total_ns);
        assert_eq!(r.to_jsonl().lines().count(), 2);
    }
}
