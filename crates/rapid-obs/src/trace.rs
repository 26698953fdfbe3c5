//! Bounded flight-recorder trace rings.
//!
//! Every node keeps a fixed-capacity ring of [`TraceEvent`]s — the last
//! N protocol steps it took, timestamped on whatever clock drives it
//! (virtual ms in the simulator, wall-clock ms on the real transport).
//! Events are small `Copy` structs; pushing one is a bounds-checked
//! store plus two counter bumps, and a ring built with capacity 0 turns
//! `push` into a single early-return branch, so the tracing-off hot
//! path stays allocation- and work-free.
//!
//! Rendering to JSONL happens only at dump time via [`event_jsonl`].

/// What happened. The discriminant order follows the protocol's causal
/// chain (probe → alert → proposal → decision → view) and then the KV
/// plane's op/handoff/repair lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Failure detector gave up on a subject (`a` = subject endpoint id).
    ProbeTimeout = 0,
    /// This node originated REMOVE/JOIN alerts about one subject, one
    /// event per gossip item (`a` = subject, `b` = 1 if join).
    AlertOriginated = 1,
    /// New alerts about one subject reached this node's cut detector, one
    /// event per gossip item or unicast alert (`a` = subject, `b` = 1 if
    /// join).
    AlertApplied = 2,
    /// Cut detector implicated subjects implicitly (`a` = how many).
    ImplicitAlert = 3,
    /// This node echoed an alert it agreed with (`a` = subject).
    Reinforce = 4,
    /// Cut detector emitted a stable multi-node proposal (`a` = config id, `b` = cut size).
    CutProposal = 5,
    /// Fast-path (Fast Paxos) consensus decided (`a` = config id, `b` = cut size).
    FastDecision = 6,
    /// Classic-round fallback decided (`a` = config id, `b` = cut size).
    ClassicDecision = 7,
    /// A new view was installed (`a` = new config id, `b` = membership size).
    ViewInstall = 8,
    /// This node learned it was removed (`a` = config id).
    Kicked = 9,
    /// This node completed a join (`a` = config id).
    Joined = 10,
    /// KV leader accepted a client op (`a` = req id, `b` = 1 if put).
    KvOpStart = 11,
    /// KV op resolved back to the client (`a` = req id, `b` = latency ms).
    KvOpDone = 12,
    /// Partition started awaiting a handoff (`a` = partition).
    HandoffStart = 13,
    /// Handoff settled the partition (`a` = partition, `b` = duration ms).
    HandoffDone = 14,
    /// Repair pull was triggered (`a` = partition).
    RepairStart = 15,
    /// A settled repair push unblocked the partition (`a` = partition, `b` = duration ms).
    RepairDone = 16,
}

impl EventKind {
    /// Stable wire name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::ProbeTimeout => "probe_timeout",
            EventKind::AlertOriginated => "alert_originated",
            EventKind::AlertApplied => "alert_applied",
            EventKind::ImplicitAlert => "implicit_alert",
            EventKind::Reinforce => "reinforce",
            EventKind::CutProposal => "cut_proposal",
            EventKind::FastDecision => "fast_decision",
            EventKind::ClassicDecision => "classic_decision",
            EventKind::ViewInstall => "view_install",
            EventKind::Kicked => "kicked",
            EventKind::Joined => "joined",
            EventKind::KvOpStart => "kv_op_start",
            EventKind::KvOpDone => "kv_op_done",
            EventKind::HandoffStart => "handoff_start",
            EventKind::HandoffDone => "handoff_done",
            EventKind::RepairStart => "repair_start",
            EventKind::RepairDone => "repair_done",
        }
    }
}

/// One recorded protocol step. 32 bytes, `Copy`, no heap.
///
/// `seq` is the node-local record order — together with the node's
/// identity it causally orders events that share a timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock reading when the event was recorded (ms).
    pub t_ms: u64,
    /// Node-local sequence number (total pushes so far, including
    /// events the ring has since overwritten).
    pub seq: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload — see [`EventKind`] for the meaning per kind.
    pub a: u64,
    /// Second payload — see [`EventKind`].
    pub b: u64,
}

/// A bounded per-node ring of [`TraceEvent`]s.
///
/// The buffer is allocated once at construction; recording never
/// allocates. Capacity 0 disables the ring: `push` returns immediately
/// and the ring dumps empty.
#[derive(Clone, Debug, Default)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position in `buf`.
    head: usize,
    /// Total events ever pushed (not capped at `cap`).
    pushed: u64,
}

impl TraceRing {
    /// A ring holding the last `cap` events (0 = tracing disabled).
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            pushed: 0,
        }
    }

    /// Whether this ring records anything.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to ring wrap-around: pushes beyond capacity overwrite
    /// the oldest entry, so a dump holding `cap` events out of `pushed`
    /// recorded ones is missing `pushed - cap`. Dumps surface this so a
    /// truncated flight record is never mistaken for a complete one.
    pub fn dropped(&self) -> u64 {
        self.pushed.saturating_sub(self.cap as u64)
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records an event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, t_ms: u64, kind: EventKind, a: u64, b: u64) {
        if self.cap == 0 {
            return;
        }
        let ev = TraceEvent {
            t_ms,
            seq: self.pushed as u32,
            kind,
            a,
            b,
        };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
        }
        self.head = (self.head + 1) % self.cap;
        self.pushed += 1;
    }

    /// The held events, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.buf.len() < self.cap { 0 } else { self.head };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Drops all held events (capacity is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// Renders one event as a JSONL object. `node` is the owning node's
/// printable identity (e.g. `"n3"` or `"127.0.0.1:4003"`); `plane`
/// distinguishes co-hosted state machines on one node (`"m"` for the
/// membership protocol, `"kv"` for the data plane).
pub fn event_jsonl(node: &str, plane: &str, ev: &TraceEvent) -> String {
    format!(
        "{{\"t\":{},\"node\":\"{node}\",\"plane\":\"{plane}\",\"seq\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
        ev.t_ms,
        ev.seq,
        ev.kind.as_str(),
        ev.a,
        ev.b
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_is_disabled() {
        let mut r = TraceRing::new(0);
        assert!(!r.enabled());
        r.push(1, EventKind::ViewInstall, 1, 2);
        assert_eq!(r.len(), 0);
        assert_eq!(r.pushed(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.iter_in_order().next().is_none());
    }

    #[test]
    fn dropped_counts_overwritten_events() {
        let mut r = TraceRing::new(4);
        for i in 0..3u64 {
            r.push(i, EventKind::AlertApplied, i, 0);
        }
        assert_eq!(r.dropped(), 0, "no wrap yet");
        for i in 3..10u64 {
            r.push(i, EventKind::AlertApplied, i, 0);
        }
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.dropped(), 6, "10 pushed into a 4-slot ring");
    }

    #[test]
    fn ring_keeps_the_last_cap_events_in_order() {
        let mut r = TraceRing::new(4);
        for i in 0..10u64 {
            r.push(i, EventKind::AlertApplied, i, 0);
        }
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.len(), 4);
        let got: Vec<u64> = r.iter_in_order().map(|e| e.t_ms).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        let seqs: Vec<u32> = r.iter_in_order().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_ring_dumps_everything() {
        let mut r = TraceRing::new(8);
        r.push(5, EventKind::ProbeTimeout, 42, 0);
        r.push(6, EventKind::AlertOriginated, 42, 0);
        let got: Vec<&TraceEvent> = r.iter_in_order().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, EventKind::ProbeTimeout);
        assert_eq!(got[1].kind, EventKind::AlertOriginated);
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let ev = TraceEvent {
            t_ms: 1500,
            seq: 7,
            kind: EventKind::FastDecision,
            a: 3,
            b: 2,
        };
        assert_eq!(
            event_jsonl("n4", "m", &ev),
            "{\"t\":1500,\"node\":\"n4\",\"plane\":\"m\",\"seq\":7,\"kind\":\"fast_decision\",\"a\":3,\"b\":2}"
        );
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut r = TraceRing::new(2);
        r.push(1, EventKind::Joined, 0, 0);
        r.clear();
        assert!(r.is_empty());
        r.push(2, EventKind::Kicked, 0, 0);
        assert_eq!(r.len(), 1);
    }
}
