//! Benchmark-owned spans, recorded around calls into the engine's public
//! functions (the engine's own telemetry stays off). Spans are kept in
//! memory and written out when the run ends; a span's self time is its
//! duration minus the part of it that its child spans cover.

use std::cell::RefCell;
use std::time::Instant;

use serde::Value;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the workspace crate that owns the call.
    pub name: &'static str,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share `(session, iteration)`.
    pub session: u32,
    pub iteration: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log of one client thread.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, spans: RefCell::new(Vec::new()) }
    }

    /// Nanoseconds since the epoch, now.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; [`SpanLog::close`] ends it.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        session: u32,
        iteration: u32,
    ) -> SpanId {
        let now = self.now_ns();
        self.push(Span { name, start_ns: now, end_ns: now, parent, session, iteration })
    }

    /// Ends span `id` now and returns its duration in nanoseconds.
    pub fn close(&self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_ns = now;
        spans[id].duration_ns()
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() - 1
    }

    pub fn get(&self, id: SpanId) -> Span {
        self.spans.borrow()[id]
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span, so a child that overhangs or two
/// children that overlap are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if hi > lo {
                children[parent].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(frontier);
                if hi > lo {
                    covered += hi - lo;
                    frontier = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The spans of one client as a JSON array (ids are array positions).
pub fn spans_to_value(client: usize, spans: &[Span]) -> Value {
    let self_ns = self_times_ns(spans);
    Value::Array(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, own)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("client".into(), Value::UInt(client as u64)),
                    ("session".into(), Value::UInt(u64::from(s.session))),
                    ("iteration".into(), Value::UInt(u64::from(s.iteration))),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    ("self_ns".into(), Value::UInt(own)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, session: 0, iteration: 0 }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 40, Some(0)), // 1: child, with its own child
            span(40, 70, Some(0)), // 2: adjacent to 1, no gap
            span(15, 25, Some(1)), // 3: nested grandchild
            span(80, 90, Some(0)), // 4: after a gap
        ];
        // Root: 100 − (30 + 30 + 10); the grandchild is subtracted from its
        // parent only, never from the root as well.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(100, 200, None),
            span(110, 160, Some(0)),
            span(150, 180, Some(0)), // overlaps the previous child by 10
            span(190, 250, Some(0)), // overhangs the parent's end by 50
            span(0, 50, Some(0)),    // entirely outside: ignored
        ];
        // Covered: [110, 180) ∪ [190, 200) = 80.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn log_records_parent_links_and_durations() {
        let log = SpanLog::new(Instant::now());
        let root = log.open("explore.step", None, 2, 7);
        let child = log.open("index.rescore", Some(root), 2, 7);
        let child_ns = log.close(child);
        let root_ns = log.close(root);
        assert!(root_ns >= child_ns);
        let spans = log.into_spans();
        assert_eq!(spans[child].parent, Some(root));
        assert_eq!((spans[child].session, spans[child].iteration), (2, 7));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
    }
}
