//! In-memory span recorder with a self-time fold.
//!
//! A span is one timed call into a layer: its name, start and end (ns since
//! the recorder's origin), the span that was open when it started (its
//! parent), and the run it belongs to. Spans stay in memory while a run is
//! measured and are written out as JSON lines once it ends.
//!
//! A span's *self time* is its duration minus the part of its interval that
//! its children cover. Children may nest, sit back to back, or overlap (spans
//! recorded from events of parallel threads), so the covered part is the
//! length of the union of the children's intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `blocking.ingest`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one run.
    pub run: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// Records spans in memory. Spans entered while another is open become its
/// children, so nesting follows the call structure.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts a new run: spans recorded from now on carry a fresh run id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` in ns since the origin (0 for instants before it).
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Times `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Adds a span measured elsewhere (e.g. from a pipeline event that
    /// reports its duration) as a child of `parent`.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<Open>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: parent.map(|p| p.0),
            run: self.run,
        });
    }

    /// Duration of a closed span, seconds.
    pub fn duration_s(&self, span: Open) -> f64 {
        self.spans[span.0].duration_ns() as f64 * 1e-9
    }

    /// Every span recorded so far, in start order of their `enter`.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over the spans of `run` (every run when `None`).
    pub fn totals(&self, run: Option<u32>) -> BTreeMap<&'static str, NameTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            if run.is_some_and(|r| r != span.run) {
                continue;
            }
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_s += span.duration_ns() as f64 * 1e-9;
            t.self_s += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (id, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{own}}}",
                span.run, span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, in ns: its duration minus the length of the
/// union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            span.duration_ns() - covered
        })
        .collect()
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
            run: 1,
        }
    }

    #[test]
    fn nested_children_count_once() {
        // root [0,100] ⊃ child [10,60] ⊃ grandchild [20,40].
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 40, Some(1)),
        ];
        // The grandchild is covered by the child already; the root loses
        // only the child's 50 ns, not 50 + 20.
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn back_to_back_children_cover_their_sum() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 70, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 40, 30]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two children from parallel threads overlap on [40,50].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 20, 50, Some(0)),
            span("b", 40, 80, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        // Union covered inside the root: [20,80] + [90,100] = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_folds_per_name() {
        let mut rec = Recorder::new(Instant::now());
        rec.next_run();
        let outer = rec.enter("outer");
        for _ in 0..2 {
            let inner = rec.enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.exit(inner);
        }
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 1));

        let totals = rec.totals(Some(1));
        let inner = totals["inner"];
        let outer = totals["outer"];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_s, inner.total_s);
        assert!(inner.total_s >= 0.004);
        // The outer span's self time excludes both inner spans exactly.
        let expected = outer.total_s - inner.total_s;
        assert!((outer.self_s - expected).abs() < 1e-9);
        assert!(rec.totals(Some(2)).is_empty());
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut rec = Recorder::new(Instant::now());
        rec.next_run();
        rec.time("a", || ());
        rec.record("b", 5, 3, None);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":0,\"run\":1,\"name\":\"a\""));
        // A span recorded with end < start is clamped to zero length.
        assert!(lines[1].contains("\"start_ns\":5,\"end_ns\":5"));
    }
}
