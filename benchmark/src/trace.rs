//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A span is `{id, parent, request, name, start_ns, end_ns}`; ids start at 1 and
//! parent 0 means "no parent". Spans stay in memory while the workload runs and
//! are written out afterwards. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A tracer that records nothing: `span` just runs its closure. The untraced
    /// pass uses it so both passes share one code path.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts the next request; spans recorded until the next call share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Records `f` as a span named `name`, a child of the span open around it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: duration minus the union of the
/// direct children's intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self times in the unit's scale (`ns_per_unit` nanoseconds each) of every span
/// called `name`.
pub fn self_times_of(spans: &[Span], self_ns: &[u64], name: &str, ns_per_unit: f64) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t as f64 / ns_per_unit)
        .collect()
}

/// The span file: totals plus at most `limit` spans, so a serve trace of a
/// million spans does not become a hundred-megabyte file.
pub fn spans_to_json(spans: &[Span], limit: usize) -> Json {
    let written: Vec<Json> = spans
        .iter()
        .take(limit)
        .map(|s| {
            Json::object([
                ("id", Json::from(s.id)),
                ("parent", Json::from(s.parent)),
                ("request", Json::from(s.request)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
        })
        .collect();
    Json::object([
        ("spans_total", Json::Num(spans.len() as f64)),
        ("spans_written", Json::Num(written.len() as f64)),
        ("spans", Json::Arr(written)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_parent_minus_child_coverage() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 90),
            span(4, 3, 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 120)];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        t.next_request();
        t.span("outer", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        t.next_request();
        t.span("next", |_| ());
        let s = t.spans();
        let parents: Vec<u32> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 1, 3, 0]);
        let requests: Vec<u32> = s.iter().map(|s| s.request).collect();
        assert_eq!(requests, [1, 1, 1, 1, 2]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("x", |t| t.span("y", |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
