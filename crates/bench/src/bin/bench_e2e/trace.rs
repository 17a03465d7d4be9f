//! The harness's span recorder. Spans are taken from *outside* the
//! library crates — around calls into their public functions — kept in a
//! preallocated vector while the run measures, and written out as JSON
//! lines when it ends.

use std::time::Instant;

use crate::json::{object, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Linear-layer index for per-layer spans (`round`, `serve.*`, replay
    /// stages).
    pub layer: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one session (or one replay) share this identifier.
    pub session: u32,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::open`]; `None` while tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<usize>,
    session: u32,
    enabled: bool,
}

impl Tracer {
    /// A recorder with room for `capacity` spans, switched off: the
    /// untraced sessions of a run go through the same code path and pay
    /// one branch per boundary.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            session: 0,
            enabled: false,
        }
    }

    /// Switches recording on or off; switching on starts a new session
    /// identifier.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if enabled {
            self.session += 1;
        }
    }

    pub fn open(&mut self, name: &'static str, layer: Option<usize>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            session: self.session,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and, should an error path have skipped their own
    /// close, every span opened inside it.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every closed span with this name and layer.
    pub fn durations_ms(&self, name: &str, layer: Option<usize>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.layer == layer)
            .map(Span::duration_ms)
            .collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::new();
        for (id, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let opt = |v: Option<usize>| v.map_or(Value::Null, |v| Value::Num(v as f64));
            let line = object([
                ("id", Value::Num(id as f64)),
                ("name", Value::Str(span.name.to_string())),
                ("layer", opt(span.layer)),
                ("session", Value::Num(f64::from(span.session))),
                ("parent", opt(span.parent)),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                ("self_ns", Value::Num(self_ns as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent,
/// and overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: None,
            start_ns,
            end_ns,
            parent,
            session: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // 0: root
            span(10, 40, Some(0)), // 1: child
            span(40, 70, Some(0)), // 2: adjacent child, shares the boundary
            span(15, 25, Some(1)), // 3: grandchild — must not count against the root
            span(80, 90, Some(0)), // 4: later child after a gap
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 160, Some(0)), // overlaps the previous child by 10
            span(190, 250, Some(0)), // overhangs the parent's end
        ];
        // covered = [110,160) + [190,200) = 60
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::with_capacity(4);
        let id = t.open("x", None);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn records_parents_sessions_and_closes_abandoned_children() {
        let mut t = Tracer::with_capacity(8);
        t.set_enabled(true);
        let outer = t.open("session", None);
        let _abandoned = t.open("serve.process_upload", Some(1));
        t.close(outer);
        t.set_enabled(true);
        let next = t.open("session", None);
        t.close(next);

        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer, Some(1));
        assert_eq!(spans[1].end_ns, spans[0].end_ns);
        assert_eq!((spans[0].session, spans[2].session), (1, 2));
        assert_eq!(spans[2].parent, None);
        assert_eq!(t.durations_ms("session", None).len(), 2);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
