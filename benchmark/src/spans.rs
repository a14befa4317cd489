//! The benchmark's own spans: recorded from outside the program, around
//! the calls into each layer, kept in memory, and written as Chrome
//! trace JSON when the run ends. One `SpanLog` belongs to one thread; a
//! span's parent is whichever span of that log was open when it began.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One finished (or still open) span. Times are nanoseconds since the
/// run's epoch, shared by every log of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
}

/// Spans one log keeps. The smallest workload finishes an operation in
/// under 100 µs and would otherwise write tens of megabytes of trace per
/// run; spans past the cap are counted, not kept.
pub const MAX_SPANS: usize = 50_000;

/// A thread's span recorder.
pub struct SpanLog {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

impl SpanLog {
    /// A log for thread `tid`, timing against the run-wide `epoch`.
    /// A log that is not `enabled` records nothing and reads no clock:
    /// the untraced pass runs the same code with one branch per span.
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            tid,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the span open
    /// on this log, if any.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return f(self);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Spans not kept because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (me.end_ns - me.start_ns).saturating_sub(covered)
}

/// Per span name: `(count, total ns, self ns)` over every log.
pub fn totals_by_name(logs: &[SpanLog]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_time_ns(&log.spans, i);
        }
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, `pid` = the workload's index, `tid` = the
/// recording thread, and the parent span's index and the workload name
/// in `args`.
pub fn chrome_trace(logs: &[SpanLog], workload: &str, workload_id: u32) -> Json {
    let mut events = Vec::new();
    for log in logs {
        for (i, s) in log.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(f64::from(workload_id))),
                ("tid", Json::Num(f64::from(log.tid))),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("workload", Json::str(workload)),
                        ("span", Json::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),  // overlaps the previous child by 10
            span(90, 120, Some(0)), // runs past the parent: clipped at 100
            span(12, 18, Some(1)),  // grandchild: not the parent's concern
        ];
        // Children cover [10,50) and [90,100): 50 of 100.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 14);
        assert_eq!(self_time_ns(&spans, 4), 6);
    }

    #[test]
    fn nesting_follows_the_open_span() {
        let mut log = SpanLog::new(Instant::now(), 0, true);
        log.span("outer", |log| {
            log.span("inner", |_| ());
            log.span("inner", |_| ());
        });
        log.span("next", |_| ());
        let parents: Vec<_> = log.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        let totals = totals_by_name(&[log]);
        assert_eq!(totals["inner"].0, 2);
        assert!(totals["outer"].1 >= totals["inner"].1);
    }

    #[test]
    fn a_full_log_counts_what_it_drops_and_a_disabled_one_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), 0, true);
        for _ in 0..MAX_SPANS + 3 {
            log.span("s", |_| ());
        }
        assert_eq!((log.spans.len(), log.dropped()), (MAX_SPANS, 3));
        let mut off = SpanLog::new(Instant::now(), 0, false);
        assert_eq!(off.span("s", |_| 7), 7);
        assert_eq!((off.spans.len(), off.dropped()), (0, 0));
    }
}
