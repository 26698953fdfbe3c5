//! The smart-client plane: view-subscribed, zero-hop, flow-controlled.
//!
//! [`KvClient`] is a sans-io state machine, the client-side twin of
//! [`crate::kv::KvNode`]: it consumes wire messages and ticks and emits
//! [`KvOut`] actions (sends plus op completions). The same state machine
//! runs co-hosted in the deterministic simulator
//! ([`crate::sim::KvSimActor`]) and over real TCP
//! ([`crate::real::KvClientRuntime`]).
//!
//! The design leans on the paper's core property: membership views are
//! strongly consistent, so *any pure function of the view is agreed by
//! every member with zero coordination*. The client subscribes to view
//! pushes ([`KvMsg::Sub`]), reconstructs the exact server-side
//! [`Configuration`] from each push (same id, same seq, same member
//! order) and caches the placement function's output — so its routing
//! table is byte-for-byte the servers' (pinned by a proptest), and every
//! attempt goes **directly to the partition leader** of the client's
//! view. Only leaders serve, and no node forwards: a node that does not
//! lead the key's partition answers [`CRESP_NOT_LEADER`] with its view
//! seq. The client re-routes at once when its own view names another
//! leader. Otherwise the node leads the key in the client's view, so the
//! two views differ: the op parks until a push of the newer view
//! arrives, and the client subscribes to that node with one
//! [`KvMsg::Sub`]. A node ahead of the client answers with its view; a
//! node behind it pushes the client's view once it installs it.
//!
//! Flow control is a bounded in-flight window: at most `window` ops on
//! the wire per client, the rest queue client-side. Overload verdicts
//! ([`CRESP_OVERLOADED`], the wire form of
//! [`KvError::Overloaded`](crate::kv::KvError::Overloaded))
//! re-queue the op after the node's suggested backoff instead of
//! failing it — a burst degrades to queuing latency plus explicit
//! retries, and the op only fails at its own deadline.
//!
//! A view push also settles the waits it makes hopeless: every op in
//! flight to a process the new view removed goes back to the front of
//! the queue and is re-sent, under the same request id, to its leader
//! in the new view — a crashed leader costs the detection time, not the
//! op timeout. A retryable verdict that arrives afterwards from the
//! superseded target is dropped (the re-sent attempt owns the op); an
//! ack or a found from it still completes the op.

use std::collections::VecDeque;
use std::sync::Arc;

use rapid_core::config::{ConfigId, Configuration, Member};
use rapid_core::hash::{DetHashMap, StableHasher};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::obs::LatencyHist;
use rapid_core::outbox::Outbox;

use crate::kv::{
    ClientOp, KvMsg, KvOut, KvOutcome, CRESP_ACKED, CRESP_FOUND, CRESP_MISSING, CRESP_NOT_LEADER,
    CRESP_OVERLOADED,
};
use crate::placement::{partition_of, Placement, PlacementCache, PlacementConfig};

/// Client-observed counters. All plain sums; [`ClientStats::absorb`]
/// folds one client's counters into a fleet aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Ops submitted.
    pub submitted: u64,
    /// Writes acked.
    pub acked: u64,
    /// Reads that found the key.
    pub found: u64,
    /// Reads that completed with the key absent.
    pub missing: u64,
    /// Ops that failed at their deadline.
    pub failed: u64,
    /// Typed `Overloaded` verdicts received (each re-queues the op after
    /// the node's suggested backoff).
    pub shed: u64,
    /// Re-sends after a retryable verdict (`NotLeader`, leader
    /// mid-handoff, overload backoff expiring) or after an adopted view
    /// removed the process the op was in flight to.
    pub retries: u64,
    /// Data-plane messages this client put on the wire.
    pub msgs_sent: u64,
    /// Wire frames (`<= msgs_sent`; the outbox coalesces).
    pub frames_sent: u64,
    /// View pushes adopted.
    pub views_adopted: u64,
}

impl ClientStats {
    /// Folds another client's counters into this one.
    pub fn absorb(&mut self, other: &ClientStats) {
        self.submitted += other.submitted;
        self.acked += other.acked;
        self.found += other.found;
        self.missing += other.missing;
        self.failed += other.failed;
        self.shed += other.shed;
        self.retries += other.retries;
        self.msgs_sent += other.msgs_sent;
        self.frames_sent += other.frames_sent;
        self.views_adopted += other.views_adopted;
    }
}

/// Deterministic overload-backoff jitter in `[0, retry_after_ms / 2]`,
/// seeded from the client's identity and the op's request id: every
/// client (and every op) desynchronizes differently, yet a replay of
/// the same client is bit-identical.
fn backoff_jitter(me: Endpoint, req: u64, retry_after_ms: u64) -> u64 {
    StableHasher::new("kv-client-backoff-jitter")
        .write_u64(me.digest())
        .write_u64(req)
        .finish()
        % (retry_after_ms / 2 + 1)
}

/// Where a queued-or-flying op currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpPhase {
    /// In the client-side queue, not yet sent.
    Queued,
    /// On the wire, awaiting a verdict.
    InFlight,
    /// Waiting out a backoff (overload hint or retryable failure);
    /// re-queued when `due` passes.
    Backoff {
        /// When the op may be re-sent.
        due: u64,
    },
    /// Answered `NotLeader` by the leader of the client's view, whose
    /// own view differs; re-queued when a view push with at least this
    /// seq arrives.
    Parked {
        /// The newer of the two views' seqs.
        seq: u64,
    },
}

struct OpState {
    key: String,
    /// `Some` for puts.
    val: Option<String>,
    /// When submission happened (drives the latency histogram).
    started: u64,
    deadline: u64,
    /// Whether an attempt went out already: every later send counts in
    /// [`ClientStats::retries`].
    sent: bool,
    phase: OpPhase,
    /// Where the latest attempt was sent (`None` until the first send).
    target: Option<Endpoint>,
}

/// A view-subscribed smart client with a bounded in-flight window.
pub struct KvClient {
    me: Endpoint,
    spec: PlacementConfig,
    cache: PlacementCache,
    view: Option<(Arc<Configuration>, Arc<Placement>)>,
    /// Cluster endpoints to (re)subscribe through, rotated on each
    /// attempt so a dead seed cannot wedge the client.
    seeds: Vec<Endpoint>,
    seed_cursor: usize,
    next_sub_at: u64,
    /// The node and view seq the last `NotLeader` [`KvMsg::Sub`] went
    /// out for: one view request per pair, however many ops it parks.
    asked: Option<(Endpoint, u64)>,
    window: usize,
    op_timeout_ms: u64,
    next_req: u64,
    /// Submission order of ops still in [`OpPhase::Queued`].
    queue: VecDeque<u64>,
    ops: DetHashMap<u64, OpState>,
    inflight: usize,
    /// Client-side read-your-writes floors, carried on [`KvMsg::CGet`]
    /// so they hold across leader changes.
    floors: DetHashMap<String, u64>,
    stats: ClientStats,
    /// Latency of definitive completions (acked/found/missing), ms.
    op_hist: LatencyHist,
    outbox: Outbox<KvMsg>,
    now: u64,
}

impl KvClient {
    /// Creates a client identified by `me`, routing with `spec` (must
    /// match the cluster's), subscribing through `seeds`.
    pub fn new(
        me: Endpoint,
        spec: PlacementConfig,
        seeds: Vec<Endpoint>,
        window: usize,
        op_timeout_ms: u64,
    ) -> KvClient {
        KvClient {
            me,
            spec,
            cache: PlacementCache::new(),
            view: None,
            seeds,
            seed_cursor: 0,
            next_sub_at: 0,
            asked: None,
            window: window.max(1),
            op_timeout_ms,
            next_req: 1,
            queue: VecDeque::new(),
            ops: DetHashMap::default(),
            inflight: 0,
            floors: DetHashMap::default(),
            stats: ClientStats::default(),
            op_hist: LatencyHist::new(),
            outbox: Outbox::new(true),
            now: 0,
        }
    }

    /// This client's endpoint.
    pub fn me(&self) -> Endpoint {
        self.me
    }

    /// Counters so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Client-observed latency of definitive op completions (ms).
    pub fn op_hist(&self) -> &LatencyHist {
        &self.op_hist
    }

    /// The adopted view's sequence number, if any view arrived yet.
    pub fn view_seq(&self) -> Option<u64> {
        self.view.as_ref().map(|(c, _)| c.seq())
    }

    /// The cached placement (the routing table), if a view was adopted.
    pub fn placement(&self) -> Option<&Arc<Placement>> {
        self.view.as_ref().map(|(_, p)| p)
    }

    /// Ops neither completed nor failed yet (queued + flying + backoff).
    pub fn pending(&self) -> usize {
        self.ops.len()
    }

    /// Submits a burst with one outbox flush: ops routed to the same
    /// leader share a wire frame (the pipelined fast path). Returns one
    /// request id per op, in order; each result arrives later as
    /// [`KvOut::Done`] under its id.
    pub fn submit_ops(&mut self, ops: &[ClientOp<'_>], now: u64, out: &mut Vec<KvOut>) -> Vec<u64> {
        self.now = self.now.max(now);
        let reqs = ops.iter().map(|op| self.enqueue(*op, now)).collect();
        self.pump();
        self.flush(out);
        reqs
    }

    fn enqueue(&mut self, op: ClientOp<'_>, now: u64) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let (key, val) = match op {
            ClientOp::Put { key, val } => (key.to_string(), Some(val.to_string())),
            ClientOp::Get { key } => (key.to_string(), None),
        };
        self.ops.insert(
            req,
            OpState {
                key,
                val,
                started: now,
                deadline: now + self.op_timeout_ms,
                sent: false,
                phase: OpPhase::Queued,
                target: None,
            },
        );
        self.queue.push_back(req);
        self.stats.submitted += 1;
        req
    }

    /// Handles a wire message (a view push or an op verdict) from
    /// `from`. Verdicts are keyed by request id and views by sequence;
    /// the sender only tells a verdict of the op's current attempt from
    /// a late one answering an attempt a view change superseded.
    pub fn on_message(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        self.now = self.now.max(now);
        self.handle_msg(from, msg, now, out);
        self.pump();
        self.flush(out);
    }

    fn handle_msg(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        match msg {
            KvMsg::Batch(msgs) => {
                for m in msgs {
                    self.handle_msg(from, m, now, out);
                }
            }
            KvMsg::View {
                config_id,
                seq,
                members,
            } => self.on_view_push(config_id, seq, members),
            KvMsg::CResp {
                req,
                code,
                val,
                version,
            } => self.on_verdict(from, req, code, val, version, now, out),
            _ => {} // Node-plane traffic; clients ignore.
        }
    }

    /// Handles a view push: re-queues every op parked for a view this
    /// new, and adopts the view if it is newer than the current one —
    /// reconstructing the exact server-side configuration so the cached
    /// placement is identical to every node's — re-sending every op in
    /// flight to a process the new view removed.
    fn on_view_push(&mut self, config_id: u64, seq: u64, members: Vec<(u128, Endpoint)>) {
        if members.is_empty() {
            return;
        }
        let adopt = self.view.as_ref().is_none_or(|(cfg, _)| seq > cfg.seq());
        let config = adopt.then(|| {
            let members: Vec<Member> = members
                .into_iter()
                .map(|(id, ep)| Member::new(NodeId::from_u128(id), ep))
                .collect();
            Configuration::from_parts(ConfigId(config_id), seq, members)
        });
        // No answer can come from a removed process: put its flyers back
        // at the front of the queue, oldest first, for `pump` to send to
        // their leaders in the new view under the same request ids. Ops
        // parked for a view this new go with them. Flyers to surviving
        // processes still answer, with `NotLeader` if the view moved
        // their partition.
        let mut resend: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, op)| match op.phase {
                OpPhase::InFlight => config.as_ref().is_some_and(|cfg| {
                    op.target.is_some_and(|t| !cfg.contains_addr(&t))
                }),
                OpPhase::Parked { seq: wanted } => wanted <= seq,
                _ => false,
            })
            .map(|(&req, _)| req)
            .collect();
        resend.sort_unstable();
        for &req in resend.iter().rev() {
            let op = self.ops.get_mut(&req).expect("collected above");
            if op.phase == OpPhase::InFlight {
                self.inflight = self.inflight.saturating_sub(1);
            }
            op.phase = OpPhase::Queued;
            op.target = None;
            self.queue.push_front(req);
        }
        if let Some(config) = config {
            let placement = self.cache.get(&config, &self.spec);
            self.view = Some((config, placement));
            self.stats.views_adopted += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_verdict(
        &mut self,
        from: Endpoint,
        req: u64,
        code: u8,
        val: String,
        version: u64,
        now: u64,
        out: &mut Vec<KvOut>,
    ) {
        let Some(op) = self.ops.get_mut(&req) else {
            return; // Already failed at its deadline.
        };
        // Client-side read-your-writes: once this client acked a write
        // for the key, a value below that floor is stale (mid-repair) and
        // Missing is a stale replica mid-handoff. Retry, never return.
        let completes = match code {
            CRESP_ACKED => true,
            CRESP_FOUND | CRESP_MISSING => {
                let floor = self.floors.get(&op.key).copied().unwrap_or(0);
                floor == 0 || (code == CRESP_FOUND && version >= floor)
            }
            _ => false,
        };
        if !completes && op.target != Some(from) {
            return; // A late retry verdict for an attempt a view superseded.
        }
        if op.phase == OpPhase::InFlight {
            self.inflight = self.inflight.saturating_sub(1);
        }
        match code {
            CRESP_ACKED => {
                // Looked up first: a key already present costs no clone.
                match self.floors.get_mut(&op.key) {
                    Some(floor) => *floor = (*floor).max(version),
                    None => {
                        self.floors.insert(op.key.clone(), version);
                    }
                }
                self.stats.acked += 1;
                self.complete(req, KvOutcome::Acked { version }, now, out);
            }
            CRESP_FOUND if completes => {
                self.stats.found += 1;
                self.complete(req, KvOutcome::Found { val, version }, now, out);
            }
            CRESP_MISSING if completes => {
                self.stats.missing += 1;
                self.complete(req, KvOutcome::Missing, now, out);
            }
            CRESP_OVERLOADED => {
                // The typed overload error: KvError::Overloaded on the
                // wire. Count it and wait out the node's hint, stretched
                // by a deterministic per-(client, op) jitter of up to
                // half the hint: a whole fleet shed at the same instant
                // must not retry in one synchronized herd, but replaying
                // the same client still backs off identically.
                let retry_after_ms = version.max(1);
                let jitter = backoff_jitter(self.me, req, retry_after_ms);
                self.stats.shed += 1;
                self.backoff(req, retry_after_ms + jitter, now);
            }
            CRESP_NOT_LEADER => self.on_not_leader(from, req, version),
            _ => {
                // CRESP_FAILED, unknown, or a stale read: retryable until
                // the deadline.
                self.backoff(req, self.retry_delay(), now);
            }
        }
    }

    /// Re-routes op `req` after its target `from` answered that it does
    /// not lead the op's partition in its view `seq`. When this client's
    /// view names another leader, the op goes there at once. Otherwise
    /// `from` leads the partition in the client's view, so the two views
    /// differ: the op parks until a push of the newer one arrives, and
    /// `from` is asked for its view with one [`KvMsg::Sub`]. A node ahead
    /// of the client answers with the newer view; a node behind it pushes
    /// the client's view to its subscribers once it installs it.
    fn on_not_leader(&mut self, from: Endpoint, req: u64, seq: u64) {
        let (cfg, pl) = self.view.as_ref().expect("an op went out, so a view exists");
        let op = self.ops.get_mut(&req).expect("checked by the caller");
        let partition = partition_of(&op.key, self.spec.partitions);
        let leader = cfg.members()[pl.leader(partition) as usize].addr;
        if leader != from {
            op.phase = OpPhase::Queued;
            self.queue.push_front(req);
            return;
        }
        let wanted = seq.max(cfg.seq());
        op.phase = OpPhase::Parked { seq: wanted };
        if self.asked != Some((from, wanted)) {
            self.asked = Some((from, wanted));
            self.send(from, KvMsg::Sub);
        }
    }

    fn retry_delay(&self) -> u64 {
        (self.op_timeout_ms / 8).max(1)
    }

    fn complete(&mut self, req: u64, outcome: KvOutcome, now: u64, out: &mut Vec<KvOut>) {
        if let Some(op) = self.ops.remove(&req) {
            if !matches!(outcome, KvOutcome::Failed) {
                self.op_hist.record(now.saturating_sub(op.started));
            }
            out.push(KvOut::Done(req, outcome));
        }
    }

    fn backoff(&mut self, req: u64, delay: u64, now: u64) {
        if let Some(op) = self.ops.get_mut(&req) {
            op.phase = OpPhase::Backoff {
                due: now + delay,
            };
        }
    }

    /// Advances time: (re)subscribes until a view arrives (and refreshes
    /// the subscription against seed churn), expires deadlines, releases
    /// due backoffs, and fills the in-flight window from the queue.
    pub fn on_tick(&mut self, now: u64, out: &mut Vec<KvOut>) {
        self.now = self.now.max(now);
        if !self.seeds.is_empty() && now >= self.next_sub_at {
            let seed = self.seeds[self.seed_cursor % self.seeds.len()];
            self.seed_cursor += 1;
            self.send(seed, KvMsg::Sub);
            // Aggressive until the first view lands, then a slow refresh
            // so a crashed push source cannot leave us stale forever.
            self.next_sub_at = now
                + if self.view.is_some() {
                    self.op_timeout_ms.max(1)
                } else {
                    200
                };
        }
        // Expire deadlines (sorted for determinism).
        let mut expired: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, op)| op.deadline <= now)
            .map(|(&req, _)| req)
            .collect();
        expired.sort_unstable();
        for req in expired {
            let op = self.ops.remove(&req).expect("collected above");
            if op.phase == OpPhase::InFlight {
                self.inflight = self.inflight.saturating_sub(1);
            }
            self.stats.failed += 1;
            out.push(KvOut::Done(req, KvOutcome::Failed));
        }
        self.queue.retain(|req| self.ops.contains_key(req));
        // Release due backoffs back into the queue, oldest first.
        let mut due: Vec<u64> = self
            .ops
            .iter()
            .filter(|(_, op)| matches!(op.phase, OpPhase::Backoff { due } if due <= now))
            .map(|(&req, _)| req)
            .collect();
        due.sort_unstable();
        for req in due {
            self.ops.get_mut(&req).expect("collected above").phase = OpPhase::Queued;
            self.queue.push_back(req);
        }
        self.pump();
        self.flush(out);
    }

    /// Fills the in-flight window from the queue. Every attempt goes to
    /// the key's partition leader in the client's current view.
    fn pump(&mut self) {
        if self.view.is_none() {
            return; // Nothing to route with until the first view push.
        }
        while self.inflight < self.window {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            let Some(op) = self.ops.get(&req) else {
                continue; // Expired while queued.
            };
            if op.phase != OpPhase::Queued {
                continue;
            }
            let partition = partition_of(&op.key, self.spec.partitions);
            let (cfg, pl) = self.view.as_ref().expect("checked above");
            let target = cfg.members()[pl.leader(partition) as usize].addr;
            let msg = match &op.val {
                Some(val) => KvMsg::CPut {
                    req,
                    key: op.key.clone(),
                    val: val.clone(),
                },
                None => KvMsg::CGet {
                    req,
                    key: op.key.clone(),
                    floor: self.floors.get(&op.key).copied().unwrap_or(0),
                },
            };
            if op.sent {
                self.stats.retries += 1;
            }
            let op = self.ops.get_mut(&req).expect("present");
            op.sent = true;
            op.phase = OpPhase::InFlight;
            op.target = Some(target);
            self.inflight += 1;
            self.send(target, msg);
        }
    }

    fn send(&mut self, to: Endpoint, msg: KvMsg) {
        self.outbox.push(to, msg);
    }

    fn flush(&mut self, out: &mut Vec<KvOut>) {
        let KvClient { outbox, stats, .. } = self;
        outbox.flush(|to, msg| {
            out.push(KvOut::Send(to, msg));
        });
        let s = outbox.stats();
        stats.msgs_sent = s.msgs;
        stats.frames_sent = s.frames;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::CRESP_FAILED;

    fn cluster(n: usize) -> (Arc<Configuration>, Vec<Endpoint>) {
        let members: Vec<Member> = (0..n)
            .map(|i| {
                Member::new(
                    NodeId::from_u128(i as u128 + 1),
                    Endpoint::new(format!("kv-{i}"), 7100),
                )
            })
            .collect();
        let eps = members.iter().map(|m| m.addr).collect();
        (Configuration::bootstrap(members), eps)
    }

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 16,
            replication: 3,
        }
    }

    fn view_msg_of(cfg: &Arc<Configuration>) -> KvMsg {
        KvMsg::View {
            config_id: cfg.id().0,
            seq: cfg.seq(),
            members: cfg
                .members()
                .iter()
                .map(|m| (m.id.as_u128(), m.addr))
                .collect(),
        }
    }

    fn new_client(seeds: Vec<Endpoint>, window: usize) -> KvClient {
        KvClient::new(Endpoint::new("client-0", 9000), spec(), seeds, window, 2_000)
    }

    fn sends(out: &[KvOut]) -> Vec<(Endpoint, KvMsg)> {
        let mut v = Vec::new();
        for item in out {
            if let KvOut::Send(to, msg) = item {
                match msg {
                    KvMsg::Batch(inner) => {
                        v.extend(inner.iter().cloned().map(|m| (*to, m)))
                    }
                    other => v.push((*to, other.clone())),
                }
            }
        }
        v
    }

    #[test]
    fn subscribes_until_a_view_arrives_then_routes_to_leaders() {
        let (cfg, eps) = cluster(5);
        let mut c = new_client(eps.clone(), 8);
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        assert!(
            sends(&out).iter().any(|(_, m)| *m == KvMsg::Sub),
            "first tick must subscribe: {out:?}"
        );
        // No view yet: submissions queue, nothing hits the wire.
        let mut out = Vec::new();
        let req = c.submit_ops(&[ClientOp::Put { key: "k", val: "v" }], 10, &mut out)[0];
        assert!(sends(&out).is_empty(), "no view, no routing: {out:?}");
        assert_eq!(c.pending(), 1);

        // The view arrives; the queued op goes straight to the leader.
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&cfg), 20, &mut out);
        let wire = sends(&out);
        assert_eq!(wire.len(), 1, "{wire:?}");
        let pl = c.placement().unwrap().clone();
        let leader = cfg.members()[pl.leader(partition_of("k", spec().partitions)) as usize].addr;
        assert_eq!(wire[0].0, leader, "attempt 0 must hit the leader");
        assert!(matches!(&wire[0].1, KvMsg::CPut { req: r, .. } if *r == req));
        assert_eq!(c.stats().views_adopted, 1);
    }

    #[test]
    fn window_bounds_inflight_and_completions_refill() {
        let (cfg, eps) = cluster(5);
        let mut c = new_client(eps.clone(), 2);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&cfg), 0, &mut out);
        let ops: Vec<ClientOp<'_>> = (0..5)
            .map(|i| ClientOp::Get {
                key: ["a", "b", "c", "d", "e"][i],
            })
            .collect();
        let mut out = Vec::new();
        let reqs = c.submit_ops(&ops, 0, &mut out);
        assert_eq!(sends(&out).len(), 2, "window of 2 caps the burst");
        // One verdict frees one slot.
        let mut out = Vec::new();
        c.on_message(
            eps[0],
            KvMsg::CResp {
                req: reqs[0],
                code: CRESP_MISSING,
                val: String::new(),
                version: 0,
            },
            5,
            &mut out,
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, KvOut::Done(r, KvOutcome::Missing) if *r == reqs[0])));
        assert_eq!(sends(&out).len(), 1, "freed slot refills from the queue");
        assert_eq!(c.stats().missing, 1);
    }

    #[test]
    fn overload_verdicts_requeue_after_backoff_and_count_shed() {
        let (cfg, eps) = cluster(4);
        let mut c = new_client(eps.clone(), 4);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&cfg), 0, &mut out);
        let mut out = Vec::new();
        let req = c.submit_ops(&[ClientOp::Put { key: "k", val: "v" }], 0, &mut out)[0];
        assert_eq!(sends(&out).len(), 1);
        let mut out = Vec::new();
        c.on_message(
            eps[0],
            KvMsg::CResp {
                req,
                code: CRESP_OVERLOADED,
                val: String::new(),
                version: 100,
            },
            1,
            &mut out,
        );
        assert!(
            !out.iter().any(|o| matches!(o, KvOut::Done(..))),
            "overload is not a completion: {out:?}"
        );
        assert!(sends(&out).is_empty(), "backing off, not hammering");
        assert_eq!(c.stats().shed, 1);
        // The backoff is the node's hint plus a deterministic
        // per-(client, op) jitter in [0, hint/2]; recompute it the same
        // way to pin the exact release tick.
        let jitter = super::backoff_jitter(Endpoint::new("client-0", 9000), req, 100);
        assert!(jitter <= 50, "jitter bounded by half the hint: {jitter}");
        // Before the jittered hint expires: still quiet.
        let mut out = Vec::new();
        c.on_tick(100 + jitter, &mut out);
        assert!(sends(&out).iter().all(|(_, m)| *m == KvMsg::Sub));
        // After: the op retries.
        let mut out = Vec::new();
        c.on_tick(101 + jitter, &mut out);
        assert!(
            sends(&out)
                .iter()
                .any(|(_, m)| matches!(m, KvMsg::CPut { req: r, .. } if *r == req)),
            "backoff expiry must re-send: {out:?}"
        );
        assert_eq!(c.stats().retries, 1);
        // And the op still completes normally on an ack.
        let mut out = Vec::new();
        c.on_message(
            eps[0],
            KvMsg::CResp {
                req,
                code: CRESP_ACKED,
                val: String::new(),
                version: 7,
            },
            110,
            &mut out,
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, KvOut::Done(r, KvOutcome::Acked { version: 7 }) if *r == req)));
    }

    #[test]
    fn stale_views_are_ignored_and_retries_go_to_the_leader() {
        let (cfg, eps) = cluster(5);
        let mut c = new_client(eps.clone(), 4);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&cfg), 0, &mut out);
        assert_eq!(c.view_seq(), Some(cfg.seq()));
        // A stale (same-seq) push is a no-op.
        let mut out = Vec::new();
        c.on_message(eps[1], view_msg_of(&cfg), 1, &mut out);
        assert_eq!(c.stats().views_adopted, 1);

        let mut out = Vec::new();
        let req = c.submit_ops(&[ClientOp::Get { key: "rot" }], 0, &mut out)[0];
        let first = sends(&out)[0].0;
        let p = partition_of("rot", spec().partitions);
        let pl = c.placement().unwrap().clone();
        assert_eq!(first, cfg.members()[pl.leader(p) as usize].addr);
        // A Failed verdict retries after the retry delay, at the leader
        // again: no attempt goes to a follower.
        let mut out = Vec::new();
        c.on_message(
            first,
            KvMsg::CResp {
                req,
                code: CRESP_FAILED,
                val: String::new(),
                version: 0,
            },
            1,
            &mut out,
        );
        let mut out = Vec::new();
        c.on_tick(2_000 / 8 + 2, &mut out);
        let retry_targets: Vec<Endpoint> = sends(&out)
            .iter()
            .filter(|(_, m)| matches!(m, KvMsg::CGet { req: r, .. } if *r == req))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(retry_targets, vec![first], "{out:?}");
        assert_eq!(c.stats().retries, 1);
    }

    #[test]
    fn deadlines_fail_ops_and_reads_honour_client_floors() {
        let (cfg, eps) = cluster(4);
        let mut c = new_client(eps.clone(), 4);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&cfg), 0, &mut out);
        // Ack a write at version 9: the floor is recorded client-side.
        let mut out = Vec::new();
        let w = c.submit_ops(&[ClientOp::Put { key: "f", val: "v" }], 0, &mut out)[0];
        let mut out = Vec::new();
        c.on_message(
            eps[0],
            KvMsg::CResp {
                req: w,
                code: CRESP_ACKED,
                val: String::new(),
                version: 9,
            },
            1,
            &mut out,
        );
        // A read now carries the floor on the wire…
        let mut out = Vec::new();
        let r = c.submit_ops(&[ClientOp::Get { key: "f" }], 2, &mut out)[0];
        assert!(
            sends(&out)
                .iter()
                .any(|(_, m)| matches!(m, KvMsg::CGet { floor: 9, .. })),
            "CGet must carry the acked floor: {out:?}"
        );
        // …and a stale Found below it is retried, not returned.
        let mut out = Vec::new();
        c.on_message(
            eps[0],
            KvMsg::CResp {
                req: r,
                code: CRESP_FOUND,
                val: "old".into(),
                version: 3,
            },
            3,
            &mut out,
        );
        assert!(
            !out.iter().any(|o| matches!(o, KvOut::Done(..))),
            "below-floor answers never complete: {out:?}"
        );
        // An op that never resolves fails exactly at its deadline
        // (submitted at 2, timeout 2000 → due at 2002).
        let mut out = Vec::new();
        c.on_tick(2_002, &mut out);
        assert!(
            out.iter()
                .any(|o| matches!(o, KvOut::Done(rr, KvOutcome::Failed) if *rr == r)),
            "deadline must fail the read: {out:?}"
        );
        assert_eq!(c.stats().failed, 1);
        assert_eq!(c.pending(), 0);
    }

    /// The view `cfg` with the member at `addr` removed.
    fn without(cfg: &Configuration, addr: Endpoint) -> Arc<Configuration> {
        let rest: Vec<Member> = cfg
            .members()
            .iter()
            .filter(|m| m.addr != addr)
            .cloned()
            .collect();
        Configuration::from_parts(ConfigId(cfg.id().0 + 1), cfg.seq() + 1, rest)
    }

    fn leader_of(cfg: &Configuration, key: &str) -> Endpoint {
        let pl = Placement::compute(cfg, &spec());
        cfg.members()[pl.leader(partition_of(key, spec().partitions)) as usize].addr
    }

    /// A client with view `cfg`, one get in flight to a key `victim`
    /// leads and one to a key another member leads. Returns the client,
    /// both reqs, and the keys.
    fn two_flyers(
        cfg: &Arc<Configuration>,
        eps: &[Endpoint],
        victim: Endpoint,
    ) -> (KvClient, [(u64, String); 2]) {
        let key_led_by = |pred: &dyn Fn(Endpoint) -> bool| {
            (0..500)
                .map(|i| format!("vk-{i}"))
                .find(|k| pred(leader_of(cfg, k)))
                .expect("some key")
        };
        let gone = key_led_by(&|l| l == victim);
        let kept = key_led_by(&|l| l != victim);
        let mut c = new_client(eps.to_vec(), 8);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(cfg), 0, &mut out);
        let mut out = Vec::new();
        let r_gone = c.submit_ops(&[ClientOp::Get { key: &gone }], 1, &mut out)[0];
        let r_kept = c.submit_ops(&[ClientOp::Get { key: &kept }], 1, &mut out)[0];
        assert_eq!(sends(&out).len(), 2);
        (c, [(r_gone, gone), (r_kept, kept)])
    }

    /// The client rule: adopting a view that removes an op's target
    /// re-sends the op at once, with the same req, to its leader in the
    /// new view; an op whose target stayed is left alone.
    #[test]
    fn ops_in_flight_to_a_removed_leader_are_resent_at_adoption() {
        let (cfg, eps) = cluster(5);
        let victim = eps[2];
        let (mut c, [(r_gone, gone), (r_kept, _)]) = two_flyers(&cfg, &eps, victim);
        let v2 = without(&cfg, victim);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&v2), 10, &mut out);
        let wire = sends(&out);
        assert_eq!(
            wire,
            vec![(
                leader_of(&v2, &gone),
                KvMsg::CGet {
                    req: r_gone,
                    key: gone.clone(),
                    floor: 0,
                }
            )],
            "only the orphaned op is re-sent, to the new leader"
        );
        assert!(!wire.iter().any(|(_, m)| matches!(m, KvMsg::CGet { req, .. } if *req == r_kept)));
        assert_eq!(c.stats().retries, 1);
        assert_eq!(c.pending(), 2);
    }

    /// A late retryable verdict from the superseded target neither fails
    /// nor backs off the re-sent op; the new target's answer completes
    /// it.
    #[test]
    fn a_late_failure_from_the_old_target_is_dropped() {
        let (cfg, eps) = cluster(5);
        let victim = eps[2];
        let (mut c, [(r_gone, gone), _]) = two_flyers(&cfg, &eps, victim);
        let v2 = without(&cfg, victim);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&v2), 10, &mut out);
        let late = KvMsg::CResp {
            req: r_gone,
            code: CRESP_FAILED,
            val: String::new(),
            version: 0,
        };
        let mut out = Vec::new();
        c.on_message(victim, late, 11, &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Were the op backing off, it would be re-sent after the retry
        // delay; it is still in flight to the new leader instead.
        let mut out = Vec::new();
        c.on_tick(11 + 2_000 / 8 + 1, &mut out);
        assert!(
            !sends(&out)
                .iter()
                .any(|(_, m)| matches!(m, KvMsg::CGet { req, .. } if *req == r_gone)),
            "{out:?}"
        );
        let mut out = Vec::new();
        c.on_message(
            leader_of(&v2, &gone),
            KvMsg::CResp {
                req: r_gone,
                code: CRESP_MISSING,
                val: String::new(),
                version: 0,
            },
            300,
            &mut out,
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, KvOut::Done(r, KvOutcome::Missing) if *r == r_gone)));
        assert_eq!(c.stats().retries, 1);
        assert_eq!(c.stats().failed, 0);
    }

    /// `NotLeader { seq }` for op `req`.
    fn not_leader(req: u64, seq: u64) -> KvMsg {
        KvMsg::CResp {
            req,
            code: CRESP_NOT_LEADER,
            val: String::new(),
            version: seq,
        }
    }

    /// A client on view `cfg` with one get in flight to `key`'s leader.
    fn one_flyer(cfg: &Arc<Configuration>, eps: &[Endpoint], key: &str) -> (KvClient, u64) {
        let mut c = new_client(eps.to_vec(), 8);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(cfg), 0, &mut out);
        let mut out = Vec::new();
        let req = c.submit_ops(&[ClientOp::Get { key }], 1, &mut out)[0];
        assert_eq!(sends(&out)[0].0, leader_of(cfg, key));
        (c, req)
    }

    /// A key `victim` leads in `cfg`, so removing `victim` moves it.
    fn key_led_by(cfg: &Configuration, victim: Endpoint) -> String {
        (0..500)
            .map(|i| format!("nl-{i}"))
            .find(|k| leader_of(cfg, k) == victim)
            .expect("some key")
    }

    /// `NotLeader` from the op's target after the client adopted a view
    /// naming another leader: the op goes out again at once, to that
    /// leader, with no back-off.
    #[test]
    fn not_leader_requeues_at_once_when_the_clients_view_names_another_leader() {
        let (all, _) = cluster(6);
        let joiner = all.members()[5].clone();
        let cfg = Configuration::bootstrap(all.members()[..5].to_vec());
        let eps: Vec<Endpoint> = cfg.members().iter().map(|m| m.addr).collect();
        // A view that adds a member leading the key; the old leader stays.
        let v2 = Configuration::from_parts(
            ConfigId(cfg.id().0 + 1),
            cfg.seq() + 1,
            all.members().to_vec(),
        );
        let key = (0..500)
            .map(|i| format!("nl-{i}"))
            .find(|k| leader_of(&v2, k) == joiner.addr)
            .expect("the joiner leads some key");
        let (mut c, req) = one_flyer(&cfg, &eps, &key);
        let old_leader = leader_of(&cfg, &key);
        let mut out = Vec::new();
        c.on_message(eps[0], view_msg_of(&v2), 2, &mut out);
        assert!(sends(&out).is_empty(), "the old leader stayed: {out:?}");
        let mut out = Vec::new();
        c.on_message(old_leader, not_leader(req, v2.seq()), 3, &mut out);
        let get = KvMsg::CGet {
            req,
            key,
            floor: 0,
        };
        assert_eq!(sends(&out), vec![(joiner.addr, get)]);
        assert_eq!(c.stats().retries, 1);
    }

    /// `NotLeader` from a node whose view is newer than the client's: the
    /// op parks, the client asks that node for its view with one `Sub`
    /// (one per node and seq, however many ops park), and adopting the view
    /// re-sends the op to its leader there.
    #[test]
    fn not_leader_from_a_newer_view_parks_until_the_client_adopts_it() {
        let (cfg, eps) = cluster(5);
        let victim = eps[2];
        let key = key_led_by(&cfg, victim);
        let (mut c, req) = one_flyer(&cfg, &eps, &key);
        let mut out = Vec::new();
        let other = c.submit_ops(&[ClientOp::Get { key: &key }], 1, &mut out)[0];
        let v2 = without(&cfg, victim);
        let mut out = Vec::new();
        c.on_message(victim, not_leader(req, v2.seq()), 2, &mut out);
        assert_eq!(sends(&out), vec![(victim, KvMsg::Sub)], "one view request");
        let mut out = Vec::new();
        c.on_message(victim, not_leader(other, v2.seq()), 2, &mut out);
        assert!(sends(&out).is_empty(), "one Sub per node and seq: {out:?}");
        // Parked, not backing off: the retry delay passes quietly.
        let mut out = Vec::new();
        c.on_tick(2 + 2_000 / 8 + 1, &mut out);
        assert!(
            !sends(&out).iter().any(|(_, m)| matches!(m, KvMsg::CGet { .. })),
            "{out:?}"
        );
        let mut out = Vec::new();
        c.on_message(victim, view_msg_of(&v2), 300, &mut out);
        let get = |req| KvMsg::CGet {
            req,
            key: key.clone(),
            floor: 0,
        };
        let to = leader_of(&v2, &key);
        assert_eq!(sends(&out), vec![(to, get(req)), (to, get(other))]);
        assert_eq!(c.stats().retries, 2);
        assert_eq!(c.stats().failed, 0);
    }

    /// `NotLeader` from the leader of the client's view with an older
    /// seq: the node is behind, so the op parks instead of looping and
    /// the node is asked for its view. Its answer, the old view, releases
    /// nothing; its push of the client's view, once it installs it, sends
    /// the op back to it.
    #[test]
    fn not_leader_from_a_node_behind_the_client_waits_for_its_push() {
        let (v0, eps) = cluster(5);
        // The client's view: the same members, one configuration later.
        let members = v0.members().to_vec();
        let cfg = Configuration::from_parts(ConfigId(v0.id().0 + 1), v0.seq() + 1, members);
        let key = "behind";
        let (mut c, req) = one_flyer(&cfg, &eps, key);
        let leader = leader_of(&cfg, key);
        let mut out = Vec::new();
        c.on_message(leader, not_leader(req, v0.seq()), 2, &mut out);
        assert_eq!(sends(&out), vec![(leader, KvMsg::Sub)], "no hot loop: {out:?}");
        let mut out = Vec::new();
        c.on_message(leader, view_msg_of(&v0), 3, &mut out);
        c.on_tick(2 + 2_000 / 8, &mut out);
        let resent = sends(&out)
            .into_iter()
            .any(|(_, m)| matches!(m, KvMsg::CGet { .. }));
        assert!(!resent, "the old view and the retry delay release nothing: {out:?}");
        let mut out = Vec::new();
        c.on_message(leader, view_msg_of(&cfg), 4, &mut out);
        let get = KvMsg::CGet {
            req,
            key: key.into(),
            floor: 0,
        };
        assert_eq!(sends(&out), vec![(leader, get)]);
        assert_eq!(c.stats().retries, 1);
        assert_eq!(c.stats().views_adopted, 1, "the push re-sends, it adopts nothing");
    }
}
