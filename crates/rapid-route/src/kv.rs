//! The replicated in-memory KV data plane.
//!
//! [`KvNode`] is a sans-io state machine, like the membership node it
//! rides on: it consumes view changes, peer messages, client operations
//! and ticks, and emits [`KvOut`] actions (sends and client results).
//! The same state machine runs under the deterministic simulator
//! ([`crate::sim::KvSimActor`]) and the real TCP transport
//! ([`crate::real::KvRuntime`]).
//!
//! Protocol (all placement-driven, zero coordination messages):
//!
//! * **Routing** — any node accepts a client op, computes the partition's
//!   leader from its placement, and forwards. Leaders are a pure function
//!   of the view, so there is no leader election and no lease.
//! * **Writes** — the leader versions the write, applies it locally, and
//!   replicates to every other replica; the client is acked only after
//!   every replica of the current view confirmed, so an acked write
//!   survives any failure that leaves at least one replica alive. A view
//!   change re-targets a round in flight: replicas the view removed stop
//!   being waited for, replicas it added get the same write, and a
//!   leader that lost the partition fails the round (retryable).
//! * **Reads** — served by the leader (which holds every acked write).
//! * **Rebalance** — on a view change every node recomputes placement,
//!   diffs it against the previous one ([`RebalancePlan`]) and the
//!   deterministically chosen surviving source pushes each moved
//!   partition to its new replicas. Gets on a partition awaiting handoff
//!   fail (retryable) rather than serving an empty store, until the
//!   handoff lands or anti-entropy repair confirms the partition.
//! * **Repair** — replicas periodically exchange compact
//!   [`PartitionDigest`]s, detect divergence (or a handoff that never
//!   arrived because its push source crashed) and re-pull missing
//!   entries from a replica chosen by rendezvous rank. There is no
//!   "serve empty after a grace period" escape hatch: an awaiting
//!   partition keeps failing reads retryably until a settled replica
//!   confirms its contents.
//! * **Read-your-writes** — each coordinator remembers the highest
//!   version it acked per key and refuses to complete a read below that
//!   floor: a stale leader answer (mid-repair) is retried, not returned.
//! * **Departures** — no answer can come from a process a view removed,
//!   so installing the view settles what waits on one at once: a read a
//!   coordinator forwarded to it goes to the new leader, a forwarded
//!   write fails retryably (the client re-sends it), and replication
//!   rounds re-target as above.

use std::sync::Arc;

use rapid_core::config::{Configuration, Member};
use rapid_core::hash::{DetHashMap, DetHashSet};
use rapid_core::id::Endpoint;
use rapid_core::obs::{EventKind, LatencyHist, TraceRing};
use rapid_core::outbox::Outbox;

use crate::placement::{
    partition_of, Placement, PlacementCache, PlacementConfig, RebalancePlan, ReplicaMove,
};
use crate::store::Store;
pub use crate::store::{digest_of, Entry, PartitionDigest};
// The wire vocabulary and its codec live in `codec.rs`.
pub use crate::codec::{
    decode, encode, encoded_len, KvMsg, CRESP_ACKED, CRESP_FAILED, CRESP_FOUND, CRESP_MISSING,
    CRESP_OVERLOADED,
};

/// Typed data-plane errors surfaced to clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvError {
    /// The node's client inbox is over its admission bound (or interval
    /// p99 breached the shedding threshold); retry after the hinted
    /// delay. The op was dropped before any state changed.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms} ms")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client-visible results and stats
// ---------------------------------------------------------------------------

/// The final result of a client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOutcome {
    /// The write reached every replica of the current view.
    Acked {
        /// Version assigned to the write.
        version: u64,
    },
    /// The read found the key.
    Found {
        /// The value.
        val: String,
        /// The value's version.
        version: u64,
    },
    /// The read completed and the key does not exist.
    Missing,
    /// The operation failed or timed out (retryable).
    Failed,
}

/// An action the host must perform for the KV node.
#[derive(Clone, Debug)]
pub enum KvOut {
    /// Transmit a data-plane message.
    Send(Endpoint, KvMsg),
    /// A client operation completed.
    Done(u64, KvOutcome),
}

/// One client operation, for batched submission through
/// [`KvNode::client_ops`]: a whole burst shares one outbox flush, so ops
/// routed to the same leader share a wire frame.
#[derive(Clone, Copy, Debug)]
pub enum ClientOp<'a> {
    /// A write.
    Put {
        /// Key.
        key: &'a str,
        /// Value.
        val: &'a str,
    },
    /// A read.
    Get {
        /// Key.
        key: &'a str,
    },
}

/// Data-plane counters.
///
/// `puts_*`/`gets_*`/`handoffs_*`/`bytes_moved`/`partitions_moved` are
/// per-node and sum across a cluster; `rebalances`, `partitions_lost`
/// and `leader_changes` are plan-level (every node computes the same
/// plan) and aggregate by max — [`KvStats::absorb`] applies those rules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Writes acked to clients by this coordinator.
    pub puts_acked: u64,
    /// Writes failed/timed out at this coordinator.
    pub puts_failed: u64,
    /// Reads completed (found or missing) at this coordinator.
    pub gets_ok: u64,
    /// Reads failed/timed out at this coordinator.
    pub gets_failed: u64,
    /// View changes processed by the data plane.
    pub rebalances: u64,
    /// Handoff messages this node pushed as a rebalance source.
    pub handoffs_sent: u64,
    /// Handoff messages applied.
    pub handoffs_applied: u64,
    /// Encoded bytes of handoff traffic this node pushed.
    pub bytes_moved: u64,
    /// Distinct partition copies this node pushed.
    pub partitions_moved: u64,
    /// Partitions whose whole replica set vanished in one view change.
    pub partitions_lost: u64,
    /// Partitions whose leader moved across all rebalances.
    pub leader_changes: u64,
    /// Repair pulls this node issued (one per partition per round that
    /// detected divergence or an unconfirmed handoff).
    pub repairs_triggered: u64,
    /// Encoded bytes of repair-push traffic this node served.
    pub repair_bytes: u64,
    /// Client ops this node refused under admission control (each one
    /// answered with a typed `Overloaded` error, never silently dropped
    /// and never acked).
    pub ops_shed: u64,
    /// Logical data-plane messages this node emitted.
    pub msgs_sent: u64,
    /// Wire frames this node emitted (`<= msgs_sent`; the per-peer
    /// outbox coalesces multi-message runs into one batch frame).
    pub frames_sent: u64,
    /// Encoded bytes of every emitted wire frame (batch framing
    /// included), as metered by [`encoded_len`].
    pub wire_bytes: u64,
}

impl KvStats {
    /// Folds another node's counters into this one (cluster aggregate).
    pub fn absorb(&mut self, other: &KvStats) {
        self.puts_acked += other.puts_acked;
        self.puts_failed += other.puts_failed;
        self.gets_ok += other.gets_ok;
        self.gets_failed += other.gets_failed;
        self.handoffs_sent += other.handoffs_sent;
        self.handoffs_applied += other.handoffs_applied;
        self.bytes_moved += other.bytes_moved;
        self.partitions_moved += other.partitions_moved;
        self.repairs_triggered += other.repairs_triggered;
        self.repair_bytes += other.repair_bytes;
        self.ops_shed += other.ops_shed;
        self.msgs_sent += other.msgs_sent;
        self.frames_sent += other.frames_sent;
        self.wire_bytes += other.wire_bytes;
        self.rebalances = self.rebalances.max(other.rebalances);
        self.partitions_lost = self.partitions_lost.max(other.partitions_lost);
        self.leader_changes = self.leader_changes.max(other.leader_changes);
    }
}

// ---------------------------------------------------------------------------
// The state machine
// ---------------------------------------------------------------------------

/// Who to tell when a pending client op resolves: the local host (the
/// legacy via-coordinator path, completed as [`KvOut::Done`]) or a
/// remote smart client (completed as a [`KvMsg::CResp`] wire message).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientOrigin {
    /// Submitted by this process's host; `req` is the host-visible id.
    Local,
    /// Submitted over the wire by a smart client.
    Remote {
        /// The client's endpoint.
        ep: Endpoint,
        /// The client's own request id (node-local ids can collide
        /// across clients).
        req: u64,
    },
}

/// A client op in flight at its coordinator, keyed by request id in
/// [`KvNode::pending_client`] so completions are O(1) instead of a scan.
struct PendingClient {
    deadline: u64,
    is_put: bool,
    /// Where the verdict goes.
    origin: ClientOrigin,
    /// The key, kept for read retries and for recording acked floors.
    key: String,
    /// Read-your-writes floor captured when the get began: the highest
    /// version this coordinator has acked for the key. A leader answer
    /// below it is stale (mid-repair) and is retried, never returned.
    floor: u64,
    /// Set when a retryable/stale answer arrived; the next tick
    /// re-forwards the read to the (possibly new) leader.
    retry: bool,
    /// The leader the op was last forwarded to (this node until it
    /// forwards one). A view that removes it settles the op at once.
    leader: Endpoint,
}

struct PendingPut {
    origin: Endpoint,
    /// The coordinator's request id (leader-side replication waits are
    /// keyed by a *leader-local* id — coordinator ids from different
    /// origins can collide).
    client_req: u64,
    /// The written key: a view change re-sends the write to replicas it
    /// added to the key's partition.
    key: String,
    /// Replicas whose ack is still outstanding, by identity — a
    /// duplicated RepAck (the simulator's `duplicate` fault) must not
    /// satisfy the quorum early.
    waiting: Vec<Endpoint>,
    version: u64,
    deadline: u64,
}

/// The per-process replicated-KV state machine.
pub struct KvNode {
    me: Member,
    spec: PlacementConfig,
    op_timeout_ms: u64,
    /// Anti-entropy cadence; 0 disables repair (not recommended — an
    /// awaiting partition then clears only when its handoff arrives).
    repair_interval_ms: u64,
    next_repair_at: u64,
    /// When the last repair round ran — bounds how far view changes may
    /// keep deferring the next one.
    last_repair_at: u64,
    /// Monotone per-repair-round counter rotating the pull-source choice
    /// through the rendezvous rank order, so a permanently-unsettled
    /// first choice cannot starve repair.
    repair_round: u64,
    cache: Option<PlacementCache>,
    view: Option<(Arc<Configuration>, Arc<Placement>)>,
    store: Store,
    /// Partitions this node was assigned whose handoff has not arrived:
    /// reads fail retryably instead of serving emptiness, until the
    /// handoff lands or repair confirms the contents from a settled
    /// replica. There is deliberately no time-based escape hatch.
    awaiting: DetHashSet<u32>,
    /// Highest acked version per key at this coordinator — the
    /// read-your-writes floor.
    acked_floors: DetHashMap<String, u64>,
    /// Set on processes that join an *established* cluster: their first
    /// view must treat every owned partition as awaiting handoff (the
    /// cluster may hold data), unlike a fresh static/seed start where no
    /// data exists anywhere.
    expect_initial_handoffs: bool,
    /// Handoffs that arrived *before* the first view installed (sources
    /// push as soon as they install the new view, which can race the
    /// joiner's own install) — these partitions are already served.
    early_handoffs: DetHashSet<u32>,
    pending_client: DetHashMap<u64, PendingClient>,
    pending_rep: DetHashMap<u64, PendingPut>,
    seqs: DetHashMap<u32, u64>,
    next_req: u64,
    stats: KvStats,
    /// Per-peer coalescing send buffer: every public entry point flushes
    /// at most one wire frame per destination on return.
    outbox: Outbox<KvMsg>,
    /// Latest clock reading seen by any public entry point. Internal
    /// paths (client resolution, repair rounds) read this instead of
    /// threading `now` through every call chain.
    now: u64,
    /// Latency of *successful* client ops (acked puts + completed gets),
    /// coordinator-side, ms on whatever clock drives this node.
    op_hist: LatencyHist,
    /// How long partitions spent awaiting a rebalance handoff before the
    /// handoff landed.
    handoff_hist: LatencyHist,
    /// How long awaiting partitions spent until a *settled* repair push
    /// confirmed them (the handoff-source-crashed path).
    repair_hist: LatencyHist,
    /// When each awaiting partition started waiting (feeds the two
    /// duration histograms above).
    awaiting_since: DetHashMap<u32, u64>,
    /// Flight recorder for the KV op/handoff/repair lifecycle
    /// (capacity 0 = off).
    trace: TraceRing,
    /// Smart clients subscribed to view pushes, sorted for deterministic
    /// push order. Bounded by [`MAX_SUBS`].
    subs: Vec<Endpoint>,
    /// Admission bound on `pending_client` entries with a remote origin;
    /// 0 = unbounded (the pre-client-plane behaviour).
    inbox_limit: usize,
    /// Soft-shed threshold: when the last sampled interval's op p99
    /// exceeded this *and* the inbox is more than half full, new client
    /// ops are shed early. 0 disables.
    shed_p99_ms: u64,
    /// The last interval op p99 reported by the host's metrics sweep
    /// ([`KvNode::note_interval`]) — the PR 8 timeline signal the
    /// shedding decision keys off.
    last_interval_p99: u64,
    /// Remote-origin entries currently in `pending_client` (tracked so
    /// `inbox_depth` is O(1), not a scan).
    remote_pending: usize,
}

/// Cap on subscribed clients per node; later subscriptions are refused
/// (the client retries against another seed).
pub const MAX_SUBS: usize = 1_024;

impl KvNode {
    /// Creates the data plane for process `me`. `cache` lets co-hosted
    /// nodes (the simulator) share placement computations.
    pub fn new(
        me: Member,
        spec: PlacementConfig,
        op_timeout_ms: u64,
        cache: Option<PlacementCache>,
    ) -> KvNode {
        KvNode {
            me,
            spec,
            op_timeout_ms,
            repair_interval_ms: op_timeout_ms,
            next_repair_at: 0,
            last_repair_at: 0,
            repair_round: 0,
            cache,
            view: None,
            store: Store::default(),
            awaiting: DetHashSet::default(),
            acked_floors: DetHashMap::default(),
            expect_initial_handoffs: false,
            early_handoffs: DetHashSet::default(),
            pending_client: DetHashMap::default(),
            pending_rep: DetHashMap::default(),
            seqs: DetHashMap::default(),
            next_req: 1,
            stats: KvStats::default(),
            outbox: Outbox::new(true),
            now: 0,
            op_hist: LatencyHist::new(),
            handoff_hist: LatencyHist::new(),
            repair_hist: LatencyHist::new(),
            awaiting_since: DetHashMap::default(),
            trace: TraceRing::new(0),
            subs: Vec::new(),
            inbox_limit: 0,
            shed_p99_ms: 0,
            last_interval_p99: 0,
            remote_pending: 0,
        }
    }

    /// Sets the flight-recorder ring capacity (`Settings::obs_ring`;
    /// 0 = off, the default). Latency histograms are always maintained —
    /// they are fixed-size inline state with one-increment recording.
    pub fn with_obs(mut self, ring: usize) -> KvNode {
        self.trace = TraceRing::new(ring);
        self
    }

    /// Overrides the anti-entropy cadence (defaults to the op timeout;
    /// 0 disables repair).
    pub fn with_repair_interval(mut self, ms: u64) -> KvNode {
        self.repair_interval_ms = ms;
        self
    }

    /// Configures admission control for remote client ops: a hard bound
    /// of `inbox` coordinator-pending ops (0 = unbounded), plus an
    /// optional latency-keyed soft shed — when the last metrics-interval
    /// op p99 (fed by [`KvNode::note_interval`]) exceeds `shed_p99_ms`
    /// and the inbox is more than half full, arrivals are shed early.
    /// Shed ops are answered with [`KvError::Overloaded`] (as a
    /// [`CRESP_OVERLOADED`] wire verdict) before any state changes, so a
    /// shed op can never be acked.
    pub fn with_admission(mut self, inbox: usize, shed_p99_ms: u64) -> KvNode {
        self.inbox_limit = inbox;
        self.shed_p99_ms = shed_p99_ms;
        self
    }

    /// Feeds the latest metrics-interval op quantiles (the PR 8 timeline
    /// signal) into the shedding decision. Hosts call this from the same
    /// sweep that records the timeline sample.
    pub fn note_interval(&mut self, _p50_ms: u64, p99_ms: u64) {
        self.last_interval_p99 = p99_ms;
    }

    /// Remote client ops currently pending at this coordinator.
    pub fn inbox_depth(&self) -> usize {
        self.remote_pending
    }

    /// Smart clients currently subscribed to view pushes.
    pub fn client_conns(&self) -> usize {
        self.subs.len()
    }

    /// Marks this node as joining an established cluster: its first
    /// installed view treats every partition it owns as awaiting a
    /// handoff, so it cannot serve reads from its (empty) store while
    /// the plan-chosen sources are still pushing. Sources push even for
    /// empty partitions, so the guard clears promptly; if a source died
    /// mid-push, anti-entropy repair confirms the partition from a
    /// surviving replica instead.
    pub fn expect_initial_handoffs(mut self) -> KvNode {
        self.expect_initial_handoffs = true;
        self
    }

    /// This node's identity.
    pub fn me(&self) -> &Member {
        &self.me
    }

    /// Counters so far.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Coordinator-side latency of successful client ops (ms).
    pub fn op_hist(&self) -> &LatencyHist {
        &self.op_hist
    }

    /// Time partitions spent awaiting handoffs that eventually landed (ms).
    pub fn handoff_hist(&self) -> &LatencyHist {
        &self.handoff_hist
    }

    /// Time awaiting partitions spent until settled repair confirmed them (ms).
    pub fn repair_hist(&self) -> &LatencyHist {
        &self.repair_hist
    }

    /// The KV-plane flight-recorder ring (empty unless built `with_obs`).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The current placement, if a view was installed.
    pub fn placement(&self) -> Option<&Arc<Placement>> {
        self.view.as_ref().map(|(_, p)| p)
    }

    /// Number of keys currently stored locally (all partitions).
    pub fn local_keys(&self) -> usize {
        self.store.key_count()
    }

    /// Whether any partition is still awaiting a rebalance handoff.
    pub fn rebalance_settled(&self) -> bool {
        self.awaiting.is_empty()
    }

    fn placement_for(&self, config: &Arc<Configuration>) -> Arc<Placement> {
        match &self.cache {
            Some(c) => c.get(config, &self.spec),
            None => Arc::new(Placement::compute(config, &self.spec)),
        }
    }

    /// Installs a new membership view — the subscription hook the whole
    /// subsystem hangs off. Recomputes placement, diffs, and pushes the
    /// handoffs this node deterministically owns as a source (coalesced
    /// per receiver: one wire frame however many partitions move).
    pub fn on_view(&mut self, config: Arc<Configuration>, now: u64, out: &mut Vec<KvOut>) {
        self.now = self.now.max(now);
        self.handle_view(config, now, out);
        self.flush(out);
    }

    fn handle_view(&mut self, config: Arc<Configuration>, now: u64, out: &mut Vec<KvOut>) {
        let placement = self.placement_for(&config);
        if self.view.is_none() && self.expect_initial_handoffs {
            // First view after joining an established cluster: everything
            // this node now owns may hold data elsewhere.
            if let Some(my_rank) = config.rank_of(self.me.id) {
                for p in 0..placement.partitions() {
                    if placement.replicas(p).contains(&(my_rank as u32))
                        && !self.early_handoffs.contains(&p)
                    {
                        self.awaiting.insert(p);
                        self.awaiting_since.entry(p).or_insert(now);
                        self.trace.push(now, EventKind::HandoffStart, p as u64, 0);
                    }
                }
            }
            self.early_handoffs = DetHashSet::default();
        }
        // The plan's moves (one per replica the view added to a
        // partition), kept to re-target replication rounds once the view
        // is installed.
        let mut moves = None;
        if let Some((old_cfg, old_pl)) = self.view.take() {
            if old_cfg.id() == config.id() {
                self.view = Some((old_cfg, old_pl));
                return;
            }
            let plan = RebalancePlan::diff(&old_pl, &old_cfg, &placement, &config);
            self.stats.rebalances += 1;
            self.stats.partitions_lost += plan.lost.len() as u64;
            self.stats.leader_changes += plan.leader_changes as u64;
            let mut last_partition = None;
            for mv in &plan.moves {
                // Never push a partition this node is itself still
                // awaiting: the plan cannot see local handoff progress,
                // and pushing an empty store would clear the receiver's
                // guard with wrong (missing) data. The receiver repairs
                // from a settled replica instead.
                if mv.source == self.me.addr && !self.awaiting.contains(&mv.partition) {
                    let msg = KvMsg::Handoff {
                        partition: mv.partition,
                        entries: self.store.sorted_entries(mv.partition),
                    };
                    self.stats.handoffs_sent += 1;
                    self.stats.bytes_moved += encoded_len(&msg) as u64;
                    if last_partition != Some(mv.partition) {
                        self.stats.partitions_moved += 1;
                        last_partition = Some(mv.partition);
                    }
                    self.send(mv.to, msg);
                }
                if mv.to == self.me.addr {
                    // Expect data; until it lands — or repair confirms
                    // the partition from a settled replica — reads on it
                    // fail retryably. No time budget: a mid-push source
                    // crash must never let an empty store serve Missing
                    // for an acked key.
                    if self.awaiting.insert(mv.partition) {
                        self.awaiting_since.entry(mv.partition).or_insert(now);
                        self.trace
                            .push(now, EventKind::HandoffStart, mv.partition as u64, 0);
                    }
                }
            }
            // Drop partitions this node no longer replicates.
            if let Some(my_rank) = config.rank_of(self.me.id) {
                let keep: DetHashSet<u32> = (0..placement.partitions())
                    .filter(|&p| placement.replicas(p).contains(&(my_rank as u32)))
                    .collect();
                self.store.retain(|p| keep.contains(&p));
                self.awaiting.retain(|p| keep.contains(p));
                self.awaiting_since.retain(|p, _| keep.contains(p));
            } else {
                // Not in the view at all (kicked/left): nothing to serve.
                self.store.clear();
                self.awaiting.clear();
                self.awaiting_since.clear();
            }
            moves = Some(plan.moves);
        }
        self.view = Some((config, placement));
        // Push the new view to every subscribed smart client so their
        // cached placement tracks the cluster with zero client polling.
        if !self.subs.is_empty() {
            let msg = self.view_msg();
            for i in 0..self.subs.len() {
                self.send(self.subs[i], msg.clone());
            }
        }
        // Give the plan-chosen handoffs one full interval to land before
        // the next repair round can second-guess them with pulls — but
        // never defer more than a few intervals past the last round, or
        // sustained view churn would starve repair of the very windows
        // it exists to cover.
        let deferral_cap = self.last_repair_at + 4 * self.repair_interval_ms;
        self.next_repair_at = (now + self.repair_interval_ms).min(deferral_cap);
        if let Some(moves) = moves {
            self.retarget_rounds(&moves, out);
            self.reroute_orphans(out);
        }
    }

    /// Re-targets every replication round this node leads at the view
    /// just installed, whose rebalance `moves` name the replicas it added
    /// to each partition: departed replicas are no longer waited for,
    /// added ones get the same write under the same round, and the put
    /// acks once every replica of the current view holds it. A round on
    /// a partition this node no longer leads fails (retryable).
    fn retarget_rounds(&mut self, moves: &[ReplicaMove], out: &mut Vec<KvOut>) {
        let cfg = Arc::clone(&self.view.as_ref().expect("installed by the caller").0);
        let mut reps: Vec<u64> = self.pending_rep.keys().copied().collect();
        reps.sort_unstable();
        for rep in reps {
            let partition = partition_of(&self.pending_rep[&rep].key, self.spec.partitions);
            if !self.is_leader(partition) {
                let p = self.pending_rep.remove(&rep).expect("collected above");
                self.put_fail(p.client_req, p.origin, out);
                continue;
            }
            let added: Vec<Endpoint> = moves
                .iter()
                .filter(|mv| mv.partition == partition)
                .map(|mv| mv.to)
                .collect();
            let p = self.pending_rep.get_mut(&rep).expect("collected above");
            p.waiting.retain(|r| cfg.contains_addr(r));
            p.waiting.extend_from_slice(&added);
            if p.waiting.is_empty() {
                let p = self.pending_rep.remove(&rep).expect("collected above");
                self.put_ack(p.client_req, p.origin, p.version, out);
                continue;
            }
            if added.is_empty() {
                continue;
            }
            // The write as this leader holds it now: the round's own
            // version, or a later write to the key that supersedes it.
            let key = p.key.clone();
            let Some((val, version)) = self.store.get(partition, &key).cloned() else {
                let p = self.pending_rep.remove(&rep).expect("collected above");
                self.put_fail(p.client_req, p.origin, out);
                continue;
            };
            for to in added {
                self.send(
                    to,
                    KvMsg::Replicate {
                        partition,
                        req: rep,
                        leader: self.me.addr,
                        key: key.clone(),
                        val: val.clone(),
                        version,
                    },
                );
            }
        }
    }

    /// Settles every pending client op this node forwarded to a leader
    /// the view just installed removed: reads go to the new leader,
    /// writes fail retryably (the client re-sends them; the value is not
    /// kept here).
    fn reroute_orphans(&mut self, out: &mut Vec<KvOut>) {
        let (cfg, _) = self.view.as_ref().expect("installed by the caller");
        let mut orphans: Vec<(u64, bool)> = self
            .pending_client
            .iter()
            .filter(|(_, pc)| !cfg.contains_addr(&pc.leader))
            .map(|(&req, pc)| (req, pc.is_put))
            .collect();
        orphans.sort_unstable();
        for (req, is_put) in orphans {
            if is_put {
                self.resolve_client(req, KvOutcome::Failed, out);
            } else {
                let key = self.pending_client[&req].key.clone();
                self.forward_get(req, &key, out);
            }
        }
    }

    /// The current view as a client push message.
    fn view_msg(&self) -> KvMsg {
        let (cfg, _) = self.view.as_ref().expect("view installed");
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

    fn leader_addr(&self, partition: u32) -> Option<Endpoint> {
        let (cfg, pl) = self.view.as_ref()?;
        let rank = pl.leader(partition) as usize;
        Some(cfg.members()[rank].addr)
    }

    fn is_leader(&self, partition: u32) -> bool {
        let Some((cfg, pl)) = self.view.as_ref() else {
            return false;
        };
        cfg.rank_of(self.me.id) == Some(pl.leader(partition) as usize)
    }

    fn replica_addrs_except_me(&self, partition: u32) -> Vec<Endpoint> {
        let Some((cfg, pl)) = self.view.as_ref() else {
            return Vec::new();
        };
        pl.replicas(partition)
            .iter()
            .map(|&i| cfg.members()[i as usize].addr)
            .filter(|a| *a != self.me.addr)
            .collect()
    }

    /// Queues a data-plane message through the per-peer outbox.
    fn send(&mut self, to: Endpoint, msg: KvMsg) {
        self.outbox.push(to, msg);
    }

    /// Drains the outbox into `out`, one `KvOut::Send` per wire frame,
    /// metering frame sizes into the stats.
    fn flush(&mut self, out: &mut Vec<KvOut>) {
        let KvNode { outbox, stats, .. } = self;
        outbox.flush(|to, msg| {
            stats.wire_bytes += encoded_len(&msg) as u64;
            out.push(KvOut::Send(to, msg));
        });
        let s = outbox.stats();
        stats.msgs_sent = s.msgs;
        stats.frames_sent = s.frames;
    }

    fn resolve_client(&mut self, req: u64, outcome: KvOutcome, out: &mut Vec<KvOut>) {
        let Some(pc) = self.pending_client.remove(&req) else {
            return; // Already timed out.
        };
        if matches!(pc.origin, ClientOrigin::Remote { .. }) {
            self.remote_pending = self.remote_pending.saturating_sub(1);
        }
        // The op started `op_timeout_ms` before its deadline; `self.now`
        // was refreshed by whichever entry point led here.
        let latency = self
            .now
            .saturating_sub(pc.deadline.saturating_sub(self.op_timeout_ms));
        if !matches!(outcome, KvOutcome::Failed) {
            self.op_hist.record(latency);
        }
        self.trace.push(self.now, EventKind::KvOpDone, req, latency);
        match (&outcome, pc.is_put) {
            (KvOutcome::Acked { version }, _) => {
                self.stats.puts_acked += 1;
                // Record the read-your-writes floor for this coordinator.
                let floor = self.acked_floors.entry(pc.key).or_insert(0);
                *floor = (*floor).max(*version);
            }
            (KvOutcome::Failed, true) => self.stats.puts_failed += 1,
            (KvOutcome::Failed, false) => self.stats.gets_failed += 1,
            (_, false) => self.stats.gets_ok += 1,
            _ => {}
        }
        match pc.origin {
            ClientOrigin::Local => out.push(KvOut::Done(req, outcome)),
            ClientOrigin::Remote { ep, req: creq } => {
                let (code, val, version) = match outcome {
                    KvOutcome::Acked { version } => (CRESP_ACKED, String::new(), version),
                    KvOutcome::Found { val, version } => (CRESP_FOUND, val, version),
                    KvOutcome::Missing => (CRESP_MISSING, String::new(), 0),
                    KvOutcome::Failed => (CRESP_FAILED, String::new(), 0),
                };
                self.send(
                    ep,
                    KvMsg::CResp {
                        req: creq,
                        code,
                        val,
                        version,
                    },
                );
            }
        }
    }

    /// Begins a client write through this node as coordinator; the result
    /// arrives later as [`KvOut::Done`] with the returned request id.
    pub fn client_put(&mut self, key: &str, val: &str, now: u64, out: &mut Vec<KvOut>) -> u64 {
        self.now = self.now.max(now);
        let req = self.begin_put(key, val, now, out);
        self.flush(out);
        req
    }

    /// Begins a client read through this node as coordinator. The read
    /// completes only at a version at or above every write this
    /// coordinator has acked for the key (read-your-writes): stale or
    /// retryable leader answers are retried until the op deadline.
    pub fn client_get(&mut self, key: &str, now: u64, out: &mut Vec<KvOut>) -> u64 {
        self.now = self.now.max(now);
        let req = self.begin_get(key, now, out);
        self.flush(out);
        req
    }

    /// Begins a burst of client operations with a single outbox flush:
    /// operations routed to the same leader leave in one wire frame (the
    /// pipelined-client fast path). Returns one request id per op, in
    /// order.
    pub fn client_ops(&mut self, ops: &[ClientOp<'_>], now: u64, out: &mut Vec<KvOut>) -> Vec<u64> {
        self.now = self.now.max(now);
        let reqs = ops
            .iter()
            .map(|op| match *op {
                ClientOp::Put { key, val } => self.begin_put(key, val, now, out),
                ClientOp::Get { key } => self.begin_get(key, now, out),
            })
            .collect();
        self.flush(out);
        reqs
    }

    fn begin_put(&mut self, key: &str, val: &str, now: u64, out: &mut Vec<KvOut>) -> u64 {
        self.begin_put_from(key, val, now, ClientOrigin::Local, out)
    }

    fn begin_put_from(
        &mut self,
        key: &str,
        val: &str,
        now: u64,
        origin: ClientOrigin,
        out: &mut Vec<KvOut>,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.trace.push(now, EventKind::KvOpStart, req, 1);
        if matches!(origin, ClientOrigin::Remote { .. }) {
            self.remote_pending += 1;
        }
        let partition = partition_of(key, self.spec.partitions);
        let leader = self.leader_addr(partition);
        self.pending_client.insert(
            req,
            PendingClient {
                deadline: now + self.op_timeout_ms,
                is_put: true,
                origin,
                key: key.to_string(),
                floor: 0,
                retry: false,
                leader: leader.unwrap_or(self.me.addr),
            },
        );
        match leader {
            None => self.resolve_client(req, KvOutcome::Failed, out),
            Some(leader) if leader == self.me.addr => {
                self.leader_put(req, self.me.addr, key, val, now, out);
            }
            Some(leader) => self.send(
                leader,
                KvMsg::Put {
                    req,
                    origin: self.me.addr,
                    key: key.to_string(),
                    val: val.to_string(),
                },
            ),
        }
        req
    }

    fn begin_get(&mut self, key: &str, now: u64, out: &mut Vec<KvOut>) -> u64 {
        self.begin_get_from(key, 0, now, ClientOrigin::Local, out)
    }

    fn begin_get_from(
        &mut self,
        key: &str,
        floor_min: u64,
        now: u64,
        origin: ClientOrigin,
        out: &mut Vec<KvOut>,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.trace.push(now, EventKind::KvOpStart, req, 0);
        if matches!(origin, ClientOrigin::Remote { .. }) {
            self.remote_pending += 1;
        }
        // Read-your-writes across coordinators: honour both this node's
        // acked floor and the one the client carried in.
        let floor = self
            .acked_floors
            .get(key)
            .copied()
            .unwrap_or(0)
            .max(floor_min);
        self.pending_client.insert(
            req,
            PendingClient {
                deadline: now + self.op_timeout_ms,
                is_put: false,
                origin,
                key: key.to_string(),
                floor,
                retry: false,
                leader: self.me.addr,
            },
        );
        self.forward_get(req, key, out);
        req
    }

    /// Admission decision for one arriving client op: `Err` when it must
    /// be shed. Pure check — counting and answering happen at the call
    /// site.
    fn admit_client_op(&self) -> Result<(), KvError> {
        let retry_after_ms = (self.op_timeout_ms / 4).max(1);
        if self.inbox_limit > 0 && self.remote_pending >= self.inbox_limit {
            return Err(KvError::Overloaded { retry_after_ms });
        }
        if self.shed_p99_ms > 0
            && self.last_interval_p99 > self.shed_p99_ms
            && self.inbox_limit > 0
            && self.remote_pending > self.inbox_limit / 2
        {
            return Err(KvError::Overloaded { retry_after_ms });
        }
        Ok(())
    }

    /// Handles one client-plane op arriving over the wire: shed under
    /// overload (typed, counted, never acked) or coordinate it exactly
    /// like a local submission with a remote completion route. When this
    /// node leads the key's partition — the smart client's common case —
    /// the op is zero-hop: no coordinator forward ever hits the wire.
    #[allow(clippy::too_many_arguments)]
    fn on_client_op(
        &mut self,
        from: Endpoint,
        creq: u64,
        key: &str,
        val: Option<&str>,
        floor: u64,
        now: u64,
        out: &mut Vec<KvOut>,
    ) {
        if let Err(KvError::Overloaded { retry_after_ms }) = self.admit_client_op() {
            self.stats.ops_shed += 1;
            self.send(
                from,
                KvMsg::CResp {
                    req: creq,
                    code: CRESP_OVERLOADED,
                    val: String::new(),
                    version: retry_after_ms,
                },
            );
            return;
        }
        let origin = ClientOrigin::Remote { ep: from, req: creq };
        match val {
            Some(v) => {
                self.begin_put_from(key, v, now, origin, out);
            }
            None => {
                self.begin_get_from(key, floor, now, origin, out);
            }
        }
    }

    /// Routes (or re-routes) a pending read to the key's current leader.
    fn forward_get(&mut self, req: u64, key: &str, out: &mut Vec<KvOut>) {
        let partition = partition_of(key, self.spec.partitions);
        match self.leader_addr(partition) {
            None => self.resolve_client(req, KvOutcome::Failed, out),
            Some(leader) if leader == self.me.addr => {
                let resp = self.leader_get_resp(req, key);
                self.finish_get(resp, out);
            }
            Some(leader) => {
                if let Some(pc) = self.pending_client.get_mut(&req) {
                    pc.leader = leader;
                }
                self.send(
                    leader,
                    KvMsg::Get {
                        req,
                        origin: self.me.addr,
                        key: key.to_string(),
                    },
                )
            }
        }
    }

    fn put_fail(&mut self, req: u64, origin: Endpoint, out: &mut Vec<KvOut>) {
        if origin == self.me.addr {
            self.resolve_client(req, KvOutcome::Failed, out);
        } else {
            self.send(
                origin,
                KvMsg::PutAck {
                    req,
                    ok: false,
                    version: 0,
                },
            );
        }
    }

    fn put_ack(&mut self, req: u64, origin: Endpoint, version: u64, out: &mut Vec<KvOut>) {
        if origin == self.me.addr {
            self.resolve_client(req, KvOutcome::Acked { version }, out);
        } else {
            self.send(
                origin,
                KvMsg::PutAck {
                    req,
                    ok: true,
                    version,
                },
            );
        }
    }

    fn leader_put(
        &mut self,
        req: u64,
        origin: Endpoint,
        key: &str,
        val: &str,
        now: u64,
        out: &mut Vec<KvOut>,
    ) {
        let partition = partition_of(key, self.spec.partitions);
        if !self.is_leader(partition) {
            return self.put_fail(req, origin, out);
        }
        let config_seq = self.view.as_ref().map(|(c, _)| c.seq()).unwrap_or(0);
        // Versions are (config seq, per-partition counter); the counter
        // saturates rather than wrapping into the seq bits, so an absurd
        // write volume stalls (newer writes refused as stale) instead of
        // silently regressing versions.
        let seq = self.seqs.entry(partition).or_insert(0);
        if *seq < u32::MAX as u64 {
            *seq += 1;
        }
        let version = (config_seq << 32) | *seq;
        self.store
            .put(partition, key.to_string(), val.to_string(), version);
        let others = self.replica_addrs_except_me(partition);
        if others.is_empty() {
            return self.put_ack(req, origin, version, out);
        }
        // Leader-local id for the replication round: coordinator request
        // ids are only unique per origin, and two origins can race the
        // same leader.
        let rep = self.next_req;
        self.next_req += 1;
        for &r in &others {
            self.send(
                r,
                KvMsg::Replicate {
                    partition,
                    req: rep,
                    leader: self.me.addr,
                    key: key.to_string(),
                    val: val.to_string(),
                    version,
                },
            );
        }
        self.pending_rep.insert(
            rep,
            PendingPut {
                origin,
                client_req: req,
                key: key.to_string(),
                waiting: others,
                version,
                deadline: now + self.op_timeout_ms,
            },
        );
    }

    fn leader_get_resp(&self, req: u64, key: &str) -> KvMsg {
        let partition = partition_of(key, self.spec.partitions);
        if !self.is_leader(partition) || self.awaiting.contains(&partition) {
            return KvMsg::GetResp {
                req,
                ok: false,
                found: false,
                val: String::new(),
                version: 0,
            };
        }
        match self.store.get(partition, key) {
            Some((val, version)) => KvMsg::GetResp {
                req,
                ok: true,
                found: true,
                val: val.clone(),
                version: *version,
            },
            None => KvMsg::GetResp {
                req,
                ok: true,
                found: false,
                val: String::new(),
                version: 0,
            },
        }
    }

    fn finish_get(&mut self, resp: KvMsg, out: &mut Vec<KvOut>) {
        let KvMsg::GetResp {
            req,
            ok,
            found,
            val,
            version,
        } = resp
        else {
            unreachable!("finish_get only consumes GetResp");
        };
        let Some(pc) = self.pending_client.get_mut(&req) else {
            return; // Already timed out.
        };
        // A retryable failure (leader mid-handoff, stale route) or an
        // answer below this coordinator's acked floor is never returned:
        // the next tick re-forwards, and the op fails only at its
        // deadline. The floor check is what makes acked-then-read safe
        // while repair is still converging a new leader.
        let below_floor = pc.floor > 0 && version < pc.floor;
        if !ok || below_floor {
            pc.retry = true;
            return;
        }
        let outcome = if found {
            KvOutcome::Found { val, version }
        } else {
            KvOutcome::Missing
        };
        self.resolve_client(req, outcome, out);
    }

    /// Handles a data-plane message from a peer. Everything the message
    /// triggers is flushed through the per-peer outbox on return: one
    /// wire frame per destination, however many messages the frame
    /// carried.
    pub fn on_message(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        self.now = self.now.max(now);
        self.handle_msg(from, msg, now, out);
        self.flush(out);
    }

    fn handle_msg(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        match msg {
            KvMsg::Batch(msgs) => {
                for m in msgs {
                    self.handle_msg(from, m, now, out);
                }
            }
            KvMsg::Put {
                req,
                origin,
                key,
                val,
            } => self.leader_put(req, origin, &key, &val, now, out),
            KvMsg::PutAck { req, ok, version } => {
                let outcome = if ok {
                    KvOutcome::Acked { version }
                } else {
                    KvOutcome::Failed
                };
                self.resolve_client(req, outcome, out);
            }
            KvMsg::Get { req, origin, key } => {
                let resp = self.leader_get_resp(req, &key);
                self.send(origin, resp);
            }
            resp @ KvMsg::GetResp { .. } => self.finish_get(resp, out),
            KvMsg::Replicate {
                partition,
                req,
                leader,
                key,
                val,
                version,
            } => {
                self.store.merge(partition, key, val, version);
                self.send(leader, KvMsg::RepAck { req });
            }
            KvMsg::RepAck { req } => {
                let done = match self.pending_rep.get_mut(&req) {
                    Some(p) => {
                        p.waiting.retain(|r| *r != from);
                        p.waiting.is_empty()
                    }
                    None => false,
                };
                if done {
                    let p = self.pending_rep.remove(&req).expect("checked above");
                    self.put_ack(p.client_req, p.origin, p.version, out);
                }
            }
            KvMsg::Handoff { partition, entries } => {
                for (k, v, ver) in entries {
                    self.store.merge(partition, k, v, ver);
                }
                if self.awaiting.remove(&partition) {
                    if let Some(t0) = self.awaiting_since.remove(&partition) {
                        let waited = now.saturating_sub(t0);
                        self.handoff_hist.record(waited);
                        self.trace
                            .push(now, EventKind::HandoffDone, partition as u64, waited);
                    }
                }
                if self.view.is_none() {
                    self.early_handoffs.insert(partition);
                }
                self.stats.handoffs_applied += 1;
            }
            KvMsg::Sub => {
                if let Err(i) = self.subs.binary_search(&from) {
                    if self.subs.len() < MAX_SUBS {
                        self.subs.insert(i, from);
                    }
                }
                if self.view.is_some() {
                    let view = self.view_msg();
                    self.send(from, view);
                }
            }
            KvMsg::View { .. } => {} // Client-plane message; nodes ignore.
            KvMsg::CResp { .. } => {} // Client-plane verdict; nodes ignore.
            KvMsg::CPut { req, key, val } => {
                self.on_client_op(from, req, &key, Some(&val), 0, now, out)
            }
            KvMsg::CGet { req, key, floor } => {
                self.on_client_op(from, req, &key, None, floor, now, out)
            }
            KvMsg::DigestReq { digests } => self.on_digest_req(from, digests, out),
            KvMsg::DigestResp { digests } => self.on_digest_resp(from, digests, out),
            KvMsg::RepairPull { partitions } => self.on_repair_pull(from, partitions, out),
            KvMsg::RepairPush {
                partition,
                settled,
                entries,
            } => {
                if self.replicates(partition) {
                    for (k, v, ver) in entries {
                        self.store.merge(partition, k, v, ver);
                    }
                    // Only a settled sender vouches for completeness; a
                    // push from a replica that is itself awaiting merges
                    // partial data but must not clear the guard.
                    if settled && self.awaiting.remove(&partition) {
                        if let Some(t0) = self.awaiting_since.remove(&partition) {
                            let waited = now.saturating_sub(t0);
                            self.repair_hist.record(waited);
                            self.trace
                                .push(now, EventKind::RepairDone, partition as u64, waited);
                        }
                    }
                }
            }
        }
    }

    /// Whether this node replicates `partition` under its current view.
    fn replicates(&self, partition: u32) -> bool {
        let Some((cfg, pl)) = self.view.as_ref() else {
            return false;
        };
        match cfg.rank_of(self.me.id) {
            Some(rank) => pl.replicas(partition).contains(&(rank as u32)),
            None => false,
        }
    }

    /// Digest of one partition's local store (empty store = zero digest).
    pub fn partition_digest(&self, partition: u32) -> PartitionDigest {
        self.store.digest(partition)
    }

    /// `(partition, digest, settled)` for every partition this node
    /// currently replicates — the raw material of the scenario-level
    /// `kv_converged` sweep.
    pub fn digest_snapshot(&self) -> Vec<(u32, PartitionDigest, bool)> {
        let Some((cfg, pl)) = self.view.as_ref() else {
            return Vec::new();
        };
        let Some(my_rank) = cfg.rank_of(self.me.id) else {
            return Vec::new();
        };
        (0..pl.partitions())
            .filter(|&p| pl.replicas(p).contains(&(my_rank as u32)))
            .map(|p| (p, self.partition_digest(p), !self.awaiting.contains(&p)))
            .collect()
    }

    /// One anti-entropy round: for every owned partition, pick this
    /// round's peer replica by rendezvous rank (rotating each round) and
    /// either pull outright (partition still awaiting its handoff) or
    /// offer a digest for divergence detection. Messages are batched per
    /// peer.
    fn run_repair(&mut self, _out: &mut Vec<KvOut>) {
        let Some((cfg, pl)) = self.view.clone() else {
            return;
        };
        let Some(my_rank) = cfg.rank_of(self.me.id) else {
            return;
        };
        let round = self.repair_round as usize;
        self.repair_round += 1;
        // Batches keyed by peer member-rank so emission order below is
        // index-sorted — deterministic for the simulator's traces.
        let mut pulls: DetHashMap<u32, Vec<u32>> = DetHashMap::default();
        let mut offers: DetHashMap<u32, Vec<(u32, PartitionDigest)>> = DetHashMap::default();
        for p in 0..pl.partitions() {
            if !pl.replicas(p).contains(&(my_rank as u32)) {
                continue;
            }
            let others: Vec<u32> = pl
                .replicas_by_rank(p, &cfg)
                .into_iter()
                .filter(|&r| r as usize != my_rank)
                .collect();
            let Some(&peer) = others.get(round % others.len().max(1)) else {
                // RF = 1: no peer holds this partition, so an awaiting
                // guard can never be confirmed — nor can it protect
                // anything (there is no surviving copy to diverge from).
                self.awaiting.remove(&p);
                self.awaiting_since.remove(&p);
                continue;
            };
            if self.awaiting.contains(&p) {
                pulls.entry(peer).or_default().push(p);
            } else {
                offers.entry(peer).or_default().push((p, self.partition_digest(p)));
            }
        }
        let mut pull_peers: Vec<u32> = pulls.keys().copied().collect();
        pull_peers.sort_unstable();
        for rank in pull_peers {
            let mut partitions = pulls.remove(&rank).expect("keyed above");
            partitions.sort_unstable();
            self.stats.repairs_triggered += partitions.len() as u64;
            for &p in &partitions {
                self.trace.push(self.now, EventKind::RepairStart, p as u64, 0);
            }
            self.send(cfg.members()[rank as usize].addr, KvMsg::RepairPull { partitions });
        }
        let mut offer_peers: Vec<u32> = offers.keys().copied().collect();
        offer_peers.sort_unstable();
        for rank in offer_peers {
            let mut digests = offers.remove(&rank).expect("keyed above");
            digests.sort_unstable_by_key(|&(p, _)| p);
            self.send(cfg.members()[rank as usize].addr, KvMsg::DigestReq { digests });
        }
    }

    fn on_digest_req(
        &mut self,
        from: Endpoint,
        digests: Vec<(u32, PartitionDigest)>,
        _out: &mut Vec<KvOut>,
    ) {
        let mut mismatched = Vec::new();
        let mut pull = Vec::new();
        for (p, theirs) in digests {
            if !self.replicates(p) {
                continue; // Stale sender view; ignore.
            }
            let mine = self.partition_digest(p);
            if mine == theirs {
                continue;
            }
            // Answer with our digest so the offerer can decide to pull…
            mismatched.push((p, mine));
            // …and pull ourselves if the offerer may hold entries we
            // lack. Merging is by version, so an unnecessary pull (we
            // were strictly ahead) is wasted bytes, never wrong data —
            // and after one symmetric exchange both sides hold the
            // union, digests match, and the chatter stops.
            if theirs.count > 0 {
                pull.push(p);
            }
        }
        if !mismatched.is_empty() {
            self.send(from, KvMsg::DigestResp { digests: mismatched });
        }
        if !pull.is_empty() {
            self.stats.repairs_triggered += pull.len() as u64;
            for &p in &pull {
                self.trace.push(self.now, EventKind::RepairStart, p as u64, 0);
            }
            self.send(from, KvMsg::RepairPull { partitions: pull });
        }
    }

    fn on_digest_resp(
        &mut self,
        from: Endpoint,
        digests: Vec<(u32, PartitionDigest)>,
        _out: &mut Vec<KvOut>,
    ) {
        let mut pull = Vec::new();
        for (p, theirs) in digests {
            if !self.replicates(p) {
                continue;
            }
            if theirs.count > 0 && self.partition_digest(p) != theirs {
                pull.push(p);
            }
        }
        if !pull.is_empty() {
            self.stats.repairs_triggered += pull.len() as u64;
            for &p in &pull {
                self.trace.push(self.now, EventKind::RepairStart, p as u64, 0);
            }
            self.send(from, KvMsg::RepairPull { partitions: pull });
        }
    }

    fn on_repair_pull(&mut self, from: Endpoint, partitions: Vec<u32>, _out: &mut Vec<KvOut>) {
        for p in partitions {
            if !self.replicates(p) {
                continue;
            }
            let msg = KvMsg::RepairPush {
                partition: p,
                settled: !self.awaiting.contains(&p),
                entries: self.store.sorted_entries(p),
            };
            self.stats.repair_bytes += encoded_len(&msg) as u64;
            self.send(from, msg);
        }
    }

    /// Advances time: expires client ops and replication waits, retries
    /// reads that last saw a retryable or below-floor answer, and runs
    /// the anti-entropy repair cadence. The old "awaiting budget" (serve
    /// whatever arrived after two op timeouts) is gone: an unconfirmed
    /// partition stays guarded until a handoff or a settled repair push
    /// clears it.
    pub fn on_tick(&mut self, now: u64, out: &mut Vec<KvOut>) {
        self.now = self.now.max(now);
        let mut expired: Vec<u64> = self
            .pending_client
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&req, _)| req)
            .collect();
        expired.sort_unstable();
        for req in expired {
            self.resolve_client(req, KvOutcome::Failed, out);
        }
        let mut rep_expired: Vec<u64> = self
            .pending_rep
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&req, _)| req)
            .collect();
        rep_expired.sort_unstable();
        for req in rep_expired {
            if let Some(p) = self.pending_rep.remove(&req) {
                self.put_fail(p.client_req, p.origin, out);
            }
        }
        // One retry round per tick for reads whose last answer was
        // retryable or stale — bounded traffic, no hot loops.
        let mut retries: Vec<(u64, String)> = self
            .pending_client
            .iter()
            .filter(|(_, p)| p.retry && !p.is_put)
            .map(|(&req, p)| (req, p.key.clone()))
            .collect();
        retries.sort_unstable();
        for (req, key) in retries {
            if let Some(p) = self.pending_client.get_mut(&req) {
                p.retry = false;
            }
            self.forward_get(req, &key, out);
        }
        if self.repair_interval_ms > 0 && now >= self.next_repair_at {
            self.next_repair_at = now + self.repair_interval_ms;
            self.last_repair_at = now;
            self.run_repair(out);
        }
        self.flush(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::config::ConfigId;
    use rapid_core::id::NodeId;

    fn members(n: usize) -> Vec<Member> {
        (0..n)
            .map(|i| {
                Member::new(
                    NodeId::from_u128(i as u128 + 1),
                    Endpoint::new(format!("kv-{i}"), 7100),
                )
            })
            .collect()
    }

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 16,
            replication: 2,
        }
    }

    /// A little in-process cluster harness delivering KV messages
    /// synchronously, for unit-testing the state machine without a
    /// simulator. Nodes in `crashed` silently eat every message — the
    /// harness-level model of a dead process.
    struct Mesh {
        nodes: Vec<KvNode>,
        config: Arc<Configuration>,
        crashed: Vec<usize>,
    }

    impl Mesh {
        fn new(n: usize) -> Mesh {
            Mesh::with_spec(n, spec())
        }

        fn with_spec(n: usize, sp: PlacementConfig) -> Mesh {
            let ms = members(n);
            let config = Configuration::bootstrap(ms.clone());
            let cache = PlacementCache::new();
            let mut nodes: Vec<KvNode> = ms
                .into_iter()
                .map(|m| KvNode::new(m, sp, 1_000, Some(cache.clone())))
                .collect();
            let mut out = Vec::new();
            for node in &mut nodes {
                node.on_view(Arc::clone(&config), 0, &mut out);
            }
            assert!(out.is_empty(), "initial view must not emit traffic");
            Mesh {
                nodes,
                config,
                crashed: Vec::new(),
            }
        }

        fn idx_of(&self, addr: Endpoint) -> usize {
            self.nodes
                .iter()
                .position(|n| n.me().addr == addr)
                .expect("addressed node exists")
        }

        /// Runs the message pump to quiescence, returning client results.
        /// `origin` is the node whose outputs seeded the queue (the real
        /// hosts know the sender of every frame; RepAck quorums depend
        /// on it).
        fn pump_from(&mut self, origin: usize, seed: Vec<KvOut>) -> Vec<(u64, KvOutcome)> {
            let origin_addr = self.nodes[origin].me().addr;
            let mut queue: Vec<(Endpoint, KvOut)> =
                seed.into_iter().map(|item| (origin_addr, item)).collect();
            let mut done = Vec::new();
            let mut hops = 0;
            while let Some((from, item)) = queue.pop() {
                hops += 1;
                assert!(hops < 10_000, "message storm");
                match item {
                    KvOut::Done(req, outcome) => done.push((req, outcome)),
                    KvOut::Send(to, msg) => {
                        let idx = self.idx_of(to);
                        if self.crashed.contains(&idx) {
                            continue; // Dead processes receive nothing.
                        }
                        let mut out = Vec::new();
                        self.nodes[idx].on_message(from, msg, 0, &mut out);
                        queue.extend(out.into_iter().map(|item| (to, item)));
                    }
                }
            }
            done
        }

        /// Ticks every live node at `now` and pumps the resulting
        /// traffic (repair rounds included).
        fn tick_all(&mut self, now: u64) -> Vec<(u64, KvOutcome)> {
            let mut done = Vec::new();
            for i in 0..self.nodes.len() {
                if self.crashed.contains(&i) {
                    continue;
                }
                let mut out = Vec::new();
                self.nodes[i].on_tick(now, &mut out);
                done.extend(self.pump_from(i, out));
            }
            done
        }
    }

    #[test]
    fn put_then_get_roundtrip_through_any_coordinator() {
        let mut mesh = Mesh::new(4);
        let mut out = Vec::new();
        let req = mesh.nodes[0].client_put("user:7", "v1", 0, &mut out);
        let results = mesh.pump_from(0, out);
        // The ack may have routed back through node 0's inbox; collect it.
        let acked = results
            .iter()
            .any(|(r, o)| *r == req && matches!(o, KvOutcome::Acked { .. }));
        assert!(acked, "put must ack: {results:?}");

        // Read through a different coordinator.
        let mut out = Vec::new();
        let req = mesh.nodes[3].client_get("user:7", 0, &mut out);
        let results = mesh.pump_from(3, out);
        assert!(
            results.iter().any(|(r, o)| *r == req
                && matches!(o, KvOutcome::Found { val, .. } if val == "v1")),
            "get must find the value: {results:?}"
        );

        // A missing key reads as Missing, not Failed.
        let mut out = Vec::new();
        let req = mesh.nodes[2].client_get("user:unseen", 0, &mut out);
        let results = mesh.pump_from(2, out);
        assert!(results
            .iter()
            .any(|(r, o)| *r == req && *o == KvOutcome::Missing));
    }

    #[test]
    fn acked_writes_reach_every_replica() {
        let mut mesh = Mesh::new(5);
        let mut out = Vec::new();
        mesh.nodes[1].client_put("k", "v", 0, &mut out);
        let results = mesh.pump_from(1, out);
        let version = match &results[..] {
            [(_, KvOutcome::Acked { version })] => *version,
            other => panic!("expected one ack, got {other:?}"),
        };
        let partition = partition_of("k", spec().partitions);
        let placement = mesh.nodes[0].placement().unwrap().clone();
        for &rank in placement.replicas(partition) {
            let node = &mesh.nodes[mesh.idx_of(mesh.config.members()[rank as usize].addr)];
            let entry = node
                .store
                .get(partition, "k")
                .unwrap_or_else(|| panic!("replica rank {rank} missing the write"));
            assert_eq!(entry, &("v".to_string(), version));
        }
    }

    #[test]
    fn overwrites_bump_versions_monotonically() {
        let mut mesh = Mesh::new(3);
        let mut versions = Vec::new();
        for i in 0..4 {
            let mut out = Vec::new();
            mesh.nodes[0].client_put("key", &format!("v{i}"), 0, &mut out);
            for (_, o) in mesh.pump_from(0, out) {
                if let KvOutcome::Acked { version } = o {
                    versions.push(version);
                }
            }
        }
        assert_eq!(versions.len(), 4);
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "{versions:?}");
    }

    #[test]
    fn ops_without_a_view_fail_fast() {
        let m = members(1).remove(0);
        let mut kv = KvNode::new(m, spec(), 1_000, None);
        let mut out = Vec::new();
        let req = kv.client_put("k", "v", 0, &mut out);
        assert!(matches!(&out[..], [KvOut::Done(r, KvOutcome::Failed)] if *r == req));
        let mut out = Vec::new();
        let req = kv.client_get("k", 0, &mut out);
        assert!(matches!(&out[..], [KvOut::Done(r, KvOutcome::Failed)] if *r == req));
        assert_eq!(kv.stats().puts_failed, 1);
        assert_eq!(kv.stats().gets_failed, 1);
    }

    #[test]
    fn client_ops_time_out() {
        // A coordinator whose leader never answers (we just don't deliver
        // the forward) fails the op at its deadline.
        let mut mesh = Mesh::new(3);
        let mut out = Vec::new();
        // Find a key whose leader is NOT node 0 so the op stays pending.
        let key = (0..100)
            .map(|i| format!("probe-{i}"))
            .find(|k| {
                let p = partition_of(k, spec().partitions);
                mesh.nodes[0].leader_addr(p) != Some(mesh.nodes[0].me().addr)
            })
            .expect("some key routes away from node 0");
        let req = mesh.nodes[0].client_put(&key, "v", 0, &mut out);
        assert!(matches!(&out[..], [KvOut::Send(..)]));
        let mut tick_out = Vec::new();
        mesh.nodes[0].on_tick(999, &mut tick_out);
        assert!(
            !tick_out.iter().any(|o| matches!(o, KvOut::Done(..))),
            "not expired yet: {tick_out:?}"
        );
        tick_out.clear();
        mesh.nodes[0].on_tick(1_000, &mut tick_out);
        let dones: Vec<_> = tick_out
            .iter()
            .filter(|o| matches!(o, KvOut::Done(..)))
            .collect();
        assert!(
            matches!(&dones[..], [KvOut::Done(r, KvOutcome::Failed)] if *r == req),
            "{tick_out:?}"
        );
    }

    /// Satellite pin for the pending-client map: every client op is
    /// accounted exactly once in the coordinator counters, with no O(n)
    /// scan resolving them.
    #[test]
    fn pending_client_map_keeps_stats_parity() {
        let mut mesh = Mesh::new(4);
        let (mut puts, mut gets) = (0u64, 0u64);
        for i in 0..40 {
            let key = format!("par-{i}");
            let mut out = Vec::new();
            mesh.nodes[i % 4].client_put(&key, "v", 0, &mut out);
            puts += 1;
            mesh.pump_from(i % 4, out);
            let mut out = Vec::new();
            mesh.nodes[(i + 1) % 4].client_get(&key, 0, &mut out);
            gets += 1;
            mesh.pump_from((i + 1) % 4, out);
        }
        // A read of a key that never existed also completes (Missing).
        let mut out = Vec::new();
        mesh.nodes[2].client_get("par-unseen", 0, &mut out);
        gets += 1;
        mesh.pump_from(2, out);
        let mut totals = KvStats::default();
        for n in &mesh.nodes {
            totals.absorb(n.stats());
        }
        assert_eq!(totals.puts_acked + totals.puts_failed, puts);
        assert_eq!(totals.gets_ok + totals.gets_failed, gets);
        assert_eq!(totals.puts_acked, puts, "healthy mesh acks everything");
        assert_eq!(totals.gets_ok, gets, "healthy mesh completes every read");
        for n in &mesh.nodes {
            assert!(n.pending_client.is_empty(), "nothing may linger");
        }
    }

    /// Flattens batch frames and returns every message addressed to `to`.
    fn msgs_to(out: &[KvOut], to: Endpoint) -> Vec<KvMsg> {
        let mut v = Vec::new();
        for item in out {
            if let KvOut::Send(dest, msg) = item {
                if *dest != to {
                    continue;
                }
                match msg {
                    KvMsg::Batch(inner) => v.extend(inner.iter().cloned()),
                    other => v.push(other.clone()),
                }
            }
        }
        v
    }

    /// The admission-control pin (satellite): ops over the inbox bound —
    /// or over the timeline-keyed p99 threshold — are answered with a
    /// typed `Overloaded` verdict before any state changes, so a shed op
    /// can never be acked, and `no_lost_acked_writes` is vacuously safe
    /// under shedding.
    #[test]
    fn shed_ops_are_typed_and_never_acked() {
        let ms = members(3);
        let config = Configuration::bootstrap(ms.clone());
        let sp = spec();
        let cache = PlacementCache::new();
        let mut node = KvNode::new(ms[0].clone(), sp, 1_000, Some(cache.clone()))
            .with_admission(2, 0);
        let mut out = Vec::new();
        node.on_view(Arc::clone(&config), 0, &mut out);
        assert!(out.is_empty());
        let client = Endpoint::new("client-x", 9000);
        // Keys this node leads: replication needs RepAcks we never
        // deliver, so admitted ops stay pending and fill the inbox.
        let led: Vec<String> = (0..200)
            .map(|i| format!("shed-{i}"))
            .filter(|k| node.is_leader(partition_of(k, sp.partitions)))
            .take(3)
            .collect();
        assert_eq!(led.len(), 3, "enough keys led by node 0");
        let mut answers = Vec::new();
        for (i, key) in led.iter().enumerate() {
            let mut out = Vec::new();
            node.on_message(
                client,
                KvMsg::CPut {
                    req: i as u64,
                    key: key.clone(),
                    val: "v".into(),
                },
                0,
                &mut out,
            );
            answers.extend(msgs_to(&out, client));
        }
        assert_eq!(node.inbox_depth(), 2, "two admitted, one shed");
        assert_eq!(node.stats().ops_shed, 1);
        assert_eq!(
            answers,
            vec![KvMsg::CResp {
                req: 2,
                code: CRESP_OVERLOADED,
                val: String::new(),
                version: 250, // op_timeout / 4
            }],
            "the shed op gets a typed verdict immediately"
        );
        assert!(
            node.store
                .get(partition_of(&led[2], spec().partitions), &led[2])
                .is_none(),
            "a shed op must not touch the store"
        );
        // Drive the admitted ops to their deadline: they fail (their
        // RepAcks never arrive), the shed op stays shed — no CResp for
        // req 2 ever says Acked.
        let mut out = Vec::new();
        node.on_tick(1_000, &mut out);
        answers.extend(msgs_to(&out, client));
        assert_eq!(node.inbox_depth(), 0, "deadline clears the inbox");
        assert!(
            !answers
                .iter()
                .any(|m| matches!(m, KvMsg::CResp { code, .. } if *code == CRESP_ACKED)),
            "nothing was acked: {answers:?}"
        );
        assert_eq!(
            answers
                .iter()
                .filter(|m| matches!(m, KvMsg::CResp { code, .. } if *code == CRESP_FAILED))
                .count(),
            2,
            "both admitted ops fail at their deadline: {answers:?}"
        );

        // The latency-keyed soft shed: under the hard bound but past the
        // interval-p99 threshold with a half-full inbox, arrivals shed.
        let mut soft = KvNode::new(ms[0].clone(), sp, 1_000, Some(cache))
            .with_admission(4, 10);
        let mut out = Vec::new();
        soft.on_view(Arc::clone(&config), 0, &mut out);
        for (i, key) in led.iter().enumerate() {
            let mut out = Vec::new();
            soft.on_message(
                client,
                KvMsg::CPut {
                    req: i as u64,
                    key: key.clone(),
                    val: "v".into(),
                },
                0,
                &mut out,
            );
            assert!(msgs_to(&out, client).is_empty(), "under both thresholds");
        }
        assert_eq!(soft.inbox_depth(), 3);
        soft.note_interval(5, 50); // timeline interval p99 breaches 10ms
        let mut out = Vec::new();
        soft.on_message(
            client,
            KvMsg::CPut {
                req: 99,
                key: led[0].clone(),
                val: "v2".into(),
            },
            0,
            &mut out,
        );
        assert!(
            matches!(
                &msgs_to(&out, client)[..],
                [KvMsg::CResp { req: 99, code, .. }] if *code == CRESP_OVERLOADED
            ),
            "p99 over threshold with a half-full inbox must shed"
        );
        assert_eq!(soft.stats().ops_shed, 1);
    }

    /// Subscribed clients get the current view immediately and every
    /// later install pushed, and the node reports them in
    /// `client_conns`.
    #[test]
    fn subscriptions_push_views_to_clients() {
        use rapid_core::membership::Proposal;

        let mut mesh = Mesh::new(4);
        let client = Endpoint::new("client-sub", 9000);
        let mut out = Vec::new();
        mesh.nodes[1].on_message(client, KvMsg::Sub, 0, &mut out);
        let pushed = msgs_to(&out, client);
        match &pushed[..] {
            [KvMsg::View { config_id, seq, members }] => {
                assert_eq!(*config_id, mesh.config.id().0);
                assert_eq!(*seq, mesh.config.seq());
                assert_eq!(members.len(), 4);
            }
            other => panic!("expected an immediate view push, got {other:?}"),
        }
        assert_eq!(mesh.nodes[1].client_conns(), 1);
        assert_eq!(mesh.nodes[0].client_conns(), 0);

        // A view change pushes the new view to the subscriber.
        let removal = Proposal::from_items(
            mesh.config.id(),
            vec![mesh.config.removal_item(3)],
        );
        let new_cfg = mesh.config.apply(&removal);
        let mut out = Vec::new();
        mesh.nodes[1].on_view(Arc::clone(&new_cfg), 1_000, &mut out);
        let pushed = msgs_to(&out, client);
        assert!(
            pushed
                .iter()
                .any(|m| matches!(m, KvMsg::View { seq, .. } if *seq == new_cfg.seq())),
            "install must push the new view: {pushed:?}"
        );
    }
    /// `scenarios/kv_repair.toml` pin): a rebalance source that
    /// crashes mid-push must never let the new replica serve `Missing`
    /// for an acked key. The old code expired the awaiting guard after
    /// two op timeouts and served the (empty) store; now the guard holds
    /// until anti-entropy repair confirms the partition from a settled
    /// replica — and repair then actually recovers the data from the
    /// surviving replicas.
    #[test]
    fn mid_push_source_crash_never_serves_missing_and_repair_recovers() {
        use rapid_core::membership::Proposal;

        let sp = PlacementConfig {
            partitions: 16,
            replication: 3,
        };
        let mut mesh = Mesh::with_spec(6, sp);
        let key = "repair-key";
        let partition = partition_of(key, sp.partitions);

        // Placement is a pure function of the view, so the whole failure
        // can be planned up front: remove one replica of the key's
        // partition, read off the plan's source and receiver, and pick a
        // coordinator that survives both crashes.
        let old_cfg = Arc::clone(&mesh.config);
        let old_pl = Placement::compute(&old_cfg, &sp);
        let victim_rank = old_pl.replicas(partition)[0] as usize;
        let victim_idx = mesh.idx_of(old_cfg.members()[victim_rank].addr);
        let removal =
            Proposal::from_items(old_cfg.id(), vec![old_cfg.removal_item(victim_rank)]);
        let new_cfg = old_cfg.apply(&removal);
        let new_pl = Placement::compute(&new_cfg, &sp);
        let plan = RebalancePlan::diff(&old_pl, &old_cfg, &new_pl, &new_cfg);
        let mv = plan
            .moves
            .iter()
            .find(|m| m.partition == partition)
            .expect("removing a replica must move the partition");
        let source_idx = mesh.idx_of(mv.source);
        let receiver_idx = mesh.idx_of(mv.to);
        let coordinator = (0..mesh.nodes.len())
            .find(|&i| i != victim_idx && i != source_idx)
            .expect("someone survives");

        // Ack a write through the surviving coordinator.
        let mut out = Vec::new();
        let req = mesh.nodes[coordinator].client_put(key, "precious", 0, &mut out);
        let results = mesh.pump_from(coordinator, out);
        let acked_version = results
            .iter()
            .find_map(|(r, o)| match o {
                KvOutcome::Acked { version } if *r == req => Some(*version),
                _ => None,
            })
            .expect("healthy mesh must ack");

        // Install the new view everywhere that is alive — but the source
        // crashes mid-push: none of its handoffs ever leave the host.
        mesh.crashed = vec![victim_idx, source_idx];
        let mut outs: Vec<(usize, Vec<KvOut>)> = Vec::new();
        for i in 0..mesh.nodes.len() {
            if i == victim_idx {
                continue;
            }
            let mut out = Vec::new();
            mesh.nodes[i].on_view(Arc::clone(&new_cfg), 1_000, &mut out);
            if i != source_idx {
                outs.push((i, out));
            } // The source's pushes die with it.
        }
        for (i, out) in outs {
            mesh.pump_from(i, out);
        }
        assert!(
            mesh.nodes[receiver_idx].awaiting.contains(&partition),
            "receiver must be guarding the unarrived handoff"
        );

        // The old-bug pin: far past the retired two-op-timeout budget,
        // with the receiver's repair traffic lost too, the guard must
        // still hold — time alone never clears it.
        let mut lost = Vec::new();
        mesh.nodes[receiver_idx].on_tick(10_000, &mut lost);
        drop(lost);
        assert!(
            mesh.nodes[receiver_idx].awaiting.contains(&partition),
            "the awaiting guard must not expire on a timer"
        );
        // And a client read of the acked key must never answer Missing.
        let mut out = Vec::new();
        let req = mesh.nodes[coordinator].client_get(key, 10_000, &mut out);
        let results = mesh.pump_from(coordinator, out);
        assert!(
            !results
                .iter()
                .any(|(r, o)| *r == req && *o == KvOutcome::Missing),
            "acked key reported Missing: {results:?}"
        );

        // Now let anti-entropy run: each round rotates the pull source,
        // so the receiver reaches a live, settled replica within a few
        // rounds and recovers the partition.
        for round in 0..6 {
            mesh.tick_all(11_000 + round * 1_000);
        }
        assert!(
            !mesh.nodes[receiver_idx].awaiting.contains(&partition),
            "repair must settle the receiver"
        );
        let entry = mesh.nodes[receiver_idx]
            .store
            .get(partition, key)
            .expect("repair must recover the acked key");
        assert_eq!(entry.0, "precious");
        assert!(entry.1 >= acked_version, "version went backwards");
        let mut totals = KvStats::default();
        for (i, n) in mesh.nodes.iter().enumerate() {
            if !mesh.crashed.contains(&i) {
                totals.absorb(n.stats());
            }
        }
        assert!(totals.repairs_triggered >= 1, "repair must have fired");
        assert!(totals.repair_bytes > 0, "repair must have moved bytes");

        // Remove the dead source from the view too; the cluster heals
        // fully and the acked key reads back at or above its version
        // through the original coordinator (read-your-writes floor).
        let src_rank = new_cfg
            .rank_of_addr(&mv.source)
            .expect("source was in the view");
        let removal2 =
            Proposal::from_items(new_cfg.id(), vec![new_cfg.removal_item(src_rank)]);
        let final_cfg = new_cfg.apply(&removal2);
        let mut outs: Vec<(usize, Vec<KvOut>)> = Vec::new();
        for i in 0..mesh.nodes.len() {
            if mesh.crashed.contains(&i) {
                continue;
            }
            let mut out = Vec::new();
            mesh.nodes[i].on_view(Arc::clone(&final_cfg), 20_000, &mut out);
            outs.push((i, out));
        }
        for (i, out) in outs {
            mesh.pump_from(i, out);
        }
        for round in 0..6 {
            mesh.tick_all(21_000 + round * 1_000);
        }
        let mut out = Vec::new();
        let req = mesh.nodes[coordinator].client_get(key, 30_000, &mut out);
        let mut results = mesh.pump_from(coordinator, out);
        // A first answer may have been stale/retryable; drive retries.
        for extra in 1..=5 {
            if results.iter().any(|(r, _)| *r == req) {
                break;
            }
            results.extend(mesh.tick_all(30_000 + extra * 100));
        }
        let outcome = results
            .iter()
            .find(|(r, _)| *r == req)
            .map(|(_, o)| o.clone())
            .expect("read must complete");
        match outcome {
            KvOutcome::Found { val, version } => {
                assert_eq!(val, "precious");
                assert!(version >= acked_version);
            }
            other => panic!("acked key must read back Found, got {other:?}"),
        }
    }

    /// The view `config` with the member at `addr` removed.
    fn without(config: &Configuration, addr: Endpoint) -> Arc<Configuration> {
        let rest: Vec<Member> = config
            .members()
            .iter()
            .filter(|m| m.addr != addr)
            .cloned()
            .collect();
        Configuration::from_parts(ConfigId(config.id().0 + 1), config.seq() + 1, rest)
    }

    fn replica_addrs(config: &Configuration, pl: &Placement, partition: u32) -> Vec<Endpoint> {
        pl.replicas(partition)
            .iter()
            .map(|&r| config.members()[r as usize].addr)
            .collect()
    }

    /// The leader rule: a replication round waiting on `[A, B]` where A
    /// has acked and B departs is re-targeted at the replica the new
    /// view added, with the same write, and acks once that replica
    /// confirms — not at the round's deadline.
    #[test]
    fn a_departed_replica_is_replaced_in_the_round_and_the_put_acks() {
        let sp = PlacementConfig {
            partitions: 16,
            replication: 3,
        };
        let cache = PlacementCache::new();
        let v1 = Configuration::bootstrap(members(6));
        let pl1 = cache.get(&v1, &sp);
        // A key whose leader L keeps the partition when follower B
        // departs, while follower A stays and some C is added.
        let (key, leader, a, b, c) = (0..500)
            .map(|i| format!("rt-{i}"))
            .find_map(|key| {
                let p = partition_of(&key, sp.partitions);
                let old = replica_addrs(&v1, &pl1, p);
                let leader = v1.members()[pl1.leader(p) as usize].addr;
                let (a, b) = (old[1], old[2]);
                let v2 = without(&v1, b);
                let pl2 = cache.get(&v2, &sp);
                let new = replica_addrs(&v2, &pl2, p);
                let still_leads = v2.members()[pl2.leader(p) as usize].addr == leader;
                let c = new.iter().copied().find(|r| !old.contains(r))?;
                (still_leads && new.contains(&a)).then_some((key, leader, a, b, c))
            })
            .expect("some key keeps its leader and one follower");
        let me = v1.member_by_addr(&leader).unwrap().clone();
        let mut node = KvNode::new(me, sp, 1_000, Some(cache.clone()));
        let mut out = Vec::new();
        node.on_view(Arc::clone(&v1), 0, &mut out);
        let mut out = Vec::new();
        let req = node.client_put(&key, "val", 0, &mut out);
        let sent = msgs_to(&out, a);
        let [KvMsg::Replicate { req: rep, version, .. }] = sent[..] else {
            panic!("one Replicate to A: {out:?}");
        };
        assert_eq!(msgs_to(&out, b).len(), 1, "B is waited for too");
        let mut out = Vec::new();
        node.on_message(a, KvMsg::RepAck { req: rep }, 1, &mut out);
        assert!(out.is_empty(), "still waiting on B: {out:?}");

        let mut out = Vec::new();
        node.on_view(without(&v1, b), 2, &mut out);
        assert!(
            !out.iter().any(|o| matches!(o, KvOut::Done(..))),
            "C does not hold the write yet: {out:?}"
        );
        // (Alongside C's rebalance handoff, which the leader may also
        // be the source of.)
        let replicates: Vec<KvMsg> = msgs_to(&out, c)
            .into_iter()
            .filter(|m| matches!(m, KvMsg::Replicate { .. }))
            .collect();
        assert_eq!(
            replicates,
            vec![KvMsg::Replicate {
                partition: partition_of(&key, sp.partitions),
                req: rep,
                leader,
                key: key.clone(),
                val: "val".into(),
                version,
            }],
            "the same write goes to the added replica"
        );
        let mut out = Vec::new();
        node.on_message(c, KvMsg::RepAck { req: rep }, 3, &mut out);
        assert!(
            matches!(
                &out[..],
                [KvOut::Done(r, KvOutcome::Acked { version: v })] if *r == req && *v == version
            ),
            "{out:?}"
        );
        assert_eq!(node.stats().puts_acked, 1);
    }

    /// The coordinator rule: a get forwarded to a leader the new view
    /// removes is forwarded again, at once, to the new leader; a
    /// forwarded put fails retryably instead of waiting out its deadline.
    #[test]
    fn ops_forwarded_to_a_departed_leader_are_settled_at_the_view_change() {
        let cache = PlacementCache::new();
        let v1 = Configuration::bootstrap(members(5));
        let pl1 = cache.get(&v1, &spec());
        let coord = v1.members()[0].addr;
        let leader_in = |cfg: &Configuration, pl: &Placement, key: &str| {
            cfg.members()[pl.leader(partition_of(key, spec().partitions)) as usize].addr
        };
        // A key led by someone else, whose next leader is not the
        // coordinator either (so the retry crosses the wire too).
        let (key, old_leader, new_leader) = (0..500)
            .map(|i| format!("fw-{i}"))
            .find_map(|key| {
                let x = leader_in(&v1, &pl1, &key);
                let v2 = without(&v1, x);
                let y = leader_in(&v2, &cache.get(&v2, &spec()), &key);
                (x != coord && y != coord).then_some((key, x, y))
            })
            .expect("some key is led away from the coordinator twice");
        let mut node = KvNode::new(v1.members()[0].clone(), spec(), 1_000, Some(cache.clone()));
        let mut out = Vec::new();
        node.on_view(Arc::clone(&v1), 0, &mut out);
        let mut out = Vec::new();
        let get = node.client_get(&key, 0, &mut out);
        let put = node.client_put(&key, "v", 0, &mut out);
        assert_eq!(msgs_to(&out, old_leader).len(), 2, "{out:?}");

        let mut out = Vec::new();
        node.on_view(without(&v1, old_leader), 5, &mut out);
        assert!(
            msgs_to(&out, new_leader)
                .iter()
                .any(|m| matches!(m, KvMsg::Get { req, key: k, .. } if *req == get && *k == key)),
            "the get is re-forwarded to the new leader: {out:?}"
        );
        assert!(
            out.iter()
                .any(|o| matches!(o, KvOut::Done(r, KvOutcome::Failed) if *r == put)),
            "the put fails retryably: {out:?}"
        );
        let mut out = Vec::new();
        node.on_message(
            new_leader,
            KvMsg::GetResp {
                req: get,
                ok: true,
                found: false,
                val: String::new(),
                version: 0,
            },
            6,
            &mut out,
        );
        assert!(
            matches!(&out[..], [KvOut::Done(r, KvOutcome::Missing)] if *r == get),
            "{out:?}"
        );
    }
}
