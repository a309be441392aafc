//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self-time arithmetic over them.

use deepcsi_obs::SpanEvent;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded call: a named interval, the span that caused it, and
/// the request (a report or a round) it served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `"bfi.reconstruct"`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The report or round the call served (a batch call carries its
    /// first report).
    pub request: u64,
    /// Recording thread lane: 0 for the serial pass, 1 for the calls
    /// that feed the engine.
    pub lane: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder: spans nest by call order.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    lane: u32,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, lane: u32) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            lane,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened
    /// by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            request,
            lane: self.lane,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span of `trace` when one is given, bare otherwise.
pub fn in_span<R>(
    trace: Option<&mut Trace>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.span(name, request, |_| f()),
        None => f(),
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children. Children that overlap each other are
/// merged first, so a covered nanosecond is subtracted exactly once;
/// child time outside the parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.dur_ns() - covered(kids))
        .collect()
}

/// Total length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_insert(0) += own;
    }
    by_name
}

/// Writes spans as JSON lines with their parent and request ids.
pub fn write_jsonl<W: Write>(mut w: W, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"lane\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.lane
        )?;
    }
    w.flush()
}

/// The spans as Chrome trace events, one timeline row per lane.
pub fn chrome_events(spans: &[Span]) -> Vec<SpanEvent> {
    spans
        .iter()
        .map(|s| SpanEvent {
            name: s.name,
            tid: s.lane,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns(),
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
            request: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a on [30, 40)
            span("c", 55, 70, Some(0)), // overlaps b on [55, 60)
            span("d", 80, 90, Some(0)),
        ];
        let own = self_times(&spans);
        // Children cover [10, 70) and [80, 90): 70 ns of the root's 100.
        assert_eq!(own[0], 30);
        assert_eq!(&own[1..], &[30, 30, 15, 10]);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 0, 50, Some(0)),
            span("leaf", 10, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
    }

    #[test]
    fn self_time_ignores_child_time_outside_the_parent() {
        let spans = [span("root", 10, 20, None), span("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn nested_recording_links_parents_and_sums_by_name() {
        let mut trace = Trace::new(Instant::now(), 0);
        trace.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 8, |_| ());
        });
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].request, 8);
        let by_name = self_time_by_name(spans);
        let total: u64 = by_name.values().sum();
        assert_eq!(total, spans[0].dur_ns());
    }
}
