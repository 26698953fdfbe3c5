//! Deterministic time-series metrics: bounded per-node sample rings.
//!
//! A [`Timeline`] holds the last N [`TimelinePoint`]s a node sampled —
//! one point per metrics-sweep instant, each carrying the counter
//! *deltas* accumulated since the previous sweep plus interval latency
//! quantiles diffed from histogram snapshots
//! ([`crate::LatencyHist::interval_quantiles`]). Cumulative counters say
//! what a run cost; the delta series says *when* — a burst of alerts, a
//! handoff stall, a throughput sag are all invisible in totals.
//!
//! Like [`crate::TraceRing`], the ring is preallocated once at
//! construction, points are fixed-size `Copy` structs, capacity 0
//! disables sampling entirely, and overwritten points are accounted in
//! [`Timeline::dropped`] so a truncated series is never mistaken for a
//! complete one. On the simulator every sample instant is virtual time
//! driven by a deterministic engine sweep, so merged timelines are
//! byte-identical at any thread count; on the real transport the clock
//! is wall time.

/// One interval sample: counter deltas since the previous sweep, plus
/// interval latency quantiles. 80 bytes, `Copy`, no heap.
///
/// Membership-only nodes leave the KV fields (`ops`, `handoff_bytes`,
/// `repair_bytes`) at zero; `p50_ms`/`p99_ms` are the interval quantiles
/// of the node's primary latency histogram (detection→install for
/// membership nodes, leader op latency for KV nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Clock reading of the sweep that produced this point (ms).
    pub t_ms: u64,
    /// Wire messages sent this interval (host network accounting).
    pub msgs: u64,
    /// Bytes sent this interval (host network accounting).
    pub bytes: u64,
    /// Alerts applied to the cut detector this interval.
    pub alerts: u64,
    /// View changes installed this interval.
    pub view_changes: u64,
    /// KV client ops acked this interval (puts acked + gets served).
    pub ops: u64,
    /// Handoff payload bytes moved this interval.
    pub handoff_bytes: u64,
    /// Anti-entropy repair bytes moved this interval.
    pub repair_bytes: u64,
    /// Interval p50 of the node's primary latency histogram (ms).
    pub p50_ms: u64,
    /// Interval p99 of the node's primary latency histogram (ms).
    pub p99_ms: u64,
}

impl TimelinePoint {
    /// Folds another point's counters into this one (for cluster-wide
    /// per-instant aggregation). Counter fields add; the interval
    /// quantiles keep the worst (maximum) across nodes.
    pub fn absorb(&mut self, other: &TimelinePoint) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.alerts += other.alerts;
        self.view_changes += other.view_changes;
        self.ops += other.ops;
        self.handoff_bytes += other.handoff_bytes;
        self.repair_bytes += other.repair_bytes;
        self.p50_ms = self.p50_ms.max(other.p50_ms);
        self.p99_ms = self.p99_ms.max(other.p99_ms);
    }
}

/// Default per-node timeline capacity used by hosts that enable
/// sampling: at the usual 1 s cadence this retains the most recent
/// ~34 minutes of virtual/wall time (~160 KB per node), with older
/// points accounted in [`Timeline::dropped`].
pub const DEFAULT_TIMELINE_CAP: usize = 2048;

/// A bounded per-node ring of [`TimelinePoint`]s.
///
/// The buffer is allocated once at construction; sampling never
/// allocates. Capacity 0 disables the timeline: `push` returns
/// immediately and the ring dumps empty.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    buf: Vec<TimelinePoint>,
    cap: usize,
    /// Next write position in `buf`.
    head: usize,
    /// Total points ever pushed (not capped at `cap`).
    pushed: u64,
}

impl Timeline {
    /// A ring holding the last `cap` points (0 = sampling disabled).
    pub fn new(cap: usize) -> Timeline {
        Timeline {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            pushed: 0,
        }
    }

    /// Whether this timeline records anything.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Total points ever pushed, including overwritten ones.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Points lost to ring wrap-around (see [`crate::TraceRing::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.pushed.saturating_sub(self.cap as u64)
    }

    /// Number of points currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records a point, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, p: TimelinePoint) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(p);
        } else {
            self.buf[self.head] = p;
        }
        self.head = (self.head + 1) % self.cap;
        self.pushed += 1;
    }

    /// The held points, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &TimelinePoint> {
        let split = if self.buf.len() < self.cap { 0 } else { self.head };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

/// Renders one timeline point as a JSONL object, fields in fixed order.
/// `node` is the owning node's printable identity (e.g. `"node-3"` or
/// `"127.0.0.1:4003"`). The same shape is used by the scenario
/// `--metrics` export and the bench `--timeline` dumps.
pub fn timeline_jsonl(node: &str, p: &TimelinePoint) -> String {
    format!(
        "{{\"t\":{},\"node\":\"{node}\",\"msgs\":{},\"bytes\":{},\"alerts\":{},\"view_changes\":{},\"ops\":{},\"handoff_bytes\":{},\"repair_bytes\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
        p.t_ms,
        p.msgs,
        p.bytes,
        p.alerts,
        p.view_changes,
        p.ops,
        p.handoff_bytes,
        p.repair_bytes,
        p.p50_ms,
        p.p99_ms
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t: u64, msgs: u64) -> TimelinePoint {
        TimelinePoint {
            t_ms: t,
            msgs,
            ..TimelinePoint::default()
        }
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut tl = Timeline::new(0);
        assert!(!tl.enabled());
        tl.push(point(1, 1));
        assert_eq!(tl.len(), 0);
        assert_eq!(tl.pushed(), 0);
        assert_eq!(tl.dropped(), 0);
        assert!(tl.iter_in_order().next().is_none());
    }

    #[test]
    fn ring_keeps_the_last_cap_points_and_counts_drops() {
        let mut tl = Timeline::new(3);
        for i in 0..7u64 {
            tl.push(point(i * 1000, i));
        }
        assert_eq!(tl.pushed(), 7);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.dropped(), 4);
        let ts: Vec<u64> = tl.iter_in_order().map(|p| p.t_ms).collect();
        assert_eq!(ts, vec![4000, 5000, 6000]);
    }

    #[test]
    fn absorb_adds_counters_and_maxes_quantiles() {
        let mut a = TimelinePoint {
            t_ms: 1000,
            msgs: 3,
            bytes: 100,
            alerts: 1,
            view_changes: 0,
            ops: 2,
            handoff_bytes: 10,
            repair_bytes: 0,
            p50_ms: 2,
            p99_ms: 9,
        };
        let b = TimelinePoint {
            t_ms: 1000,
            msgs: 4,
            bytes: 50,
            alerts: 0,
            view_changes: 1,
            ops: 1,
            handoff_bytes: 0,
            repair_bytes: 7,
            p50_ms: 5,
            p99_ms: 6,
        };
        a.absorb(&b);
        assert_eq!(a.msgs, 7);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.view_changes, 1);
        assert_eq!(a.ops, 3);
        assert_eq!(a.handoff_bytes, 10);
        assert_eq!(a.repair_bytes, 7);
        assert_eq!((a.p50_ms, a.p99_ms), (5, 9));
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let p = TimelinePoint {
            t_ms: 2000,
            msgs: 12,
            bytes: 3400,
            alerts: 1,
            view_changes: 0,
            ops: 5,
            handoff_bytes: 0,
            repair_bytes: 0,
            p50_ms: 2,
            p99_ms: 8,
        };
        assert_eq!(
            timeline_jsonl("node-3", &p),
            "{\"t\":2000,\"node\":\"node-3\",\"msgs\":12,\"bytes\":3400,\"alerts\":1,\"view_changes\":0,\"ops\":5,\"handoff_bytes\":0,\"repair_bytes\":0,\"p50_ms\":2,\"p99_ms\":8}"
        );
    }
}
