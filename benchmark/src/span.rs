//! Spans recorded by the benchmark around every call into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the request (or burst of requests) it belongs to. Spans are
//! kept in memory and written out as JSON lines when the run ends. A
//! span's self time is its duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its log, plus one; 0 means "no span".
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Request or burst id shared by every span of one request.
    pub op: u64,
    /// Logical units the call handled (messages in a frame, events in a
    /// simulator slice); per-unit costs divide by this.
    pub units: u64,
}

pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub units: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn self_ns_per_unit(&self) -> f64 {
        self.self_ns as f64 / self.units.max(1) as f64
    }
}

impl SpanLog {
    /// A disabled log runs the wrapped calls without reading the clock:
    /// the same code path, untraced.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Switches recording on or off; returns the previous state.
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `units` may depend on the result (a
    /// decoder learns the message count by decoding).
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce() -> R,
        units: impl FnOnce(&R) -> u64,
    ) -> (R, SpanId) {
        if !self.enabled {
            return (f(), 0);
        }
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            units: units(&result),
        });
        (result, self.spans.len() as SpanId)
    }

    /// Opens a span that encloses later ones; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            units: 1,
        });
        self.spans.len() as SpanId
    }

    pub fn close(&mut self, id: SpanId, units: u64) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.units = units;
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = by_name.entry(span.name).or_default();
            t.spans += 1;
            t.units += span.units;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        by_name
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"units\":{}}}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                s.units
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the span's own interval. A
/// child that ran after its cause returned (a message handled later)
/// covers nothing and takes nothing away.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 30, 1),
            // Overlaps `a`: the union 10..40 counts once.
            span("b", 20, 40, 1),
            span("c", 60, 70, 1),
            // Grandchild: comes off `c`, not off the root.
            span("d", 62, 66, 4),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 10 - 4, 4]);
    }

    #[test]
    fn a_child_outside_its_cause_takes_nothing_away() {
        let spans = vec![
            span("send", 0, 10, 0),
            // Caused by `send`, handled after it returned.
            span("handle", 15, 25, 1),
            // Straddles the end: only 8..10 is covered.
            span("tail", 8, 20, 1),
        ];
        assert_eq!(self_times(&spans), vec![8, 10, 12]);
    }

    #[test]
    fn a_disabled_log_runs_the_call_and_records_nothing() {
        let mut log = SpanLog::new(false);
        let (v, id) = log.record("x", 0, 1, || 7, |_| 1);
        assert_eq!((v, id), (7, 0));
        let open = log.open("y", 0, 1);
        log.close(open, 3);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn totals_group_by_name_and_divide_by_units() {
        let mut log = SpanLog::new(true);
        let root = log.open("burst", 0, 9);
        let (_, a) = log.record("kv.encode", root, 9, || std::hint::black_box(1), |_| 4);
        let (_, _) = log.record("kv.encode", a, 9, || std::hint::black_box(2), |_| 6);
        log.close(root, 1);
        let totals = log.totals_by_name();
        let enc = totals["kv.encode"];
        assert_eq!((enc.spans, enc.units), (2, 10));
        assert_eq!(enc.self_ns, enc.total_ns);
        assert_eq!(enc.self_ns_per_unit(), enc.self_ns as f64 / 10.0);
        assert!(totals["burst"].total_ns >= enc.total_ns);
    }
}
