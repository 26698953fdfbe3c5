//! The replicated in-memory KV data plane.
//!
//! [`KvNode`] is a sans-io state machine, like the membership node it
//! rides on: it consumes view changes, peer messages and ticks, and emits
//! [`KvOut::Send`] actions. Client operations arrive as wire messages
//! too — a smart client's [`KvMsg::CPut`]/[`KvMsg::CGet`] — and are
//! answered with a [`KvMsg::CResp`].
//! The same state machine runs under the deterministic simulator
//! ([`crate::sim::KvSimActor`]) and the real TCP transport
//! ([`crate::real::KvRuntime`]).
//!
//! Protocol (all placement-driven, zero coordination messages):
//!
//! * **Routing** — only the leader of a key's partition serves an op on
//!   it. Leaders are a pure function of the view, so there is no leader
//!   election and no lease, and a node that does not lead the partition
//!   in its view answers [`CRESP_NOT_LEADER`] with its view seq at once,
//!   keeping no state: the client re-routes with its own view, or waits
//!   for one at least that new. No node relays an op to another.
//! * **Writes** — the leader versions the write, applies it locally, and
//!   replicates to every other replica; the client is acked only after
//!   every replica of the current view confirmed, so an acked write
//!   survives any failure that leaves at least one replica alive. A view
//!   change re-targets a round in flight: replicas the view removed stop
//!   being waited for, replicas it added get the same write, and a
//!   leader that lost the partition answers the round's client
//!   [`CRESP_NOT_LEADER`].
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
//! * **Read-your-writes** — each leader remembers the highest version it
//!   acked per key and refuses to answer a read below that floor (or
//!   below the floor the client carried in): a stale answer (mid-repair)
//!   is retried, not returned.
//! * **Departures** — no answer can come from a process a view removed,
//!   so installing the view settles what waits on one at once:
//!   replication rounds re-target as above, and the client re-sends its
//!   ops in flight to a removed leader to the new one.

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
    CRESP_NOT_LEADER, CRESP_OVERLOADED,
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
    /// A client operation completed. Only a
    /// [`KvClient`](crate::client::KvClient) emits it: a `KvNode` answers
    /// its clients on the wire, as [`KvMsg::CResp`].
    Done(u64, KvOutcome),
}

/// One client operation, for batched submission through
/// [`KvClient::submit_ops`](crate::client::KvClient::submit_ops): a whole
/// burst shares one outbox flush, so ops routed to the same leader share
/// a wire frame.
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
    /// Writes this node acked to clients as their partition's leader.
    pub puts_acked: u64,
    /// Writes this node admitted as leader that failed, timed out, or
    /// lost their partition to a view change.
    pub puts_failed: u64,
    /// Reads this node completed (found or missing) as leader.
    pub gets_ok: u64,
    /// Reads this node admitted as leader that failed, timed out, or
    /// lost their partition to a view change.
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

/// The client side of an op this node serves as leader.
struct ClientReq {
    /// The smart client that sent the op and its own request id, which
    /// the [`KvMsg::CResp`] verdict goes back under (node-local ids can
    /// collide across clients).
    client: (Endpoint, u64),
    /// The key: it picks the partition, and a view change re-sends a
    /// write to the replicas it added there.
    key: String,
    deadline: u64,
}

/// A write's replication round, the only pending entry a put has.
struct PendingPut {
    op: ClientReq,
    /// Replicas whose ack is still outstanding, by identity — a
    /// duplicated RepAck (the simulator's `duplicate` fault) must not
    /// satisfy the quorum early.
    waiting: Vec<Endpoint>,
    version: u64,
}

/// A read waiting on a retry: the partition is awaiting its handoff, or
/// the store is below the read's floor. Each tick retries it.
struct PendingGet {
    op: ClientReq,
    /// Read-your-writes floor: the highest version this leader acked for
    /// the key, or the client's own floor if higher. An answer below it
    /// is stale (mid-repair) and is retried, never returned.
    floor: u64,
}

/// A verdict [`KvNode::resolve`] sends a client.
enum Verdict {
    /// The op's final result.
    Done(KvOutcome),
    /// This node no longer leads the op's partition; the client
    /// re-routes.
    NotLeader,
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
    /// Highest version this node acked per key as leader — the
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
    /// Gets waiting on a retry, keyed by request id.
    pending_gets: DetHashMap<u64, PendingGet>,
    /// Puts' replication rounds, keyed by request id.
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
    /// leader-side, ms on whatever clock drives this node.
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
    /// Admission bound on [`KvNode::inbox_depth`]; 0 = unbounded.
    inbox_limit: usize,
    /// Soft-shed threshold: when the last sampled interval's op p99
    /// exceeded this *and* the inbox is more than half full, new client
    /// ops are shed early. 0 disables.
    shed_p99_ms: u64,
    /// The last interval op p99 reported by the host's metrics sweep
    /// ([`KvNode::note_interval`]) — the PR 8 timeline signal the
    /// shedding decision keys off.
    last_interval_p99: u64,
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
            pending_gets: DetHashMap::default(),
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

    /// Configures admission control for client ops: a hard bound of
    /// `inbox` pending ops (0 = unbounded), plus an
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
    pub fn note_interval(&mut self, p99_ms: u64) {
        self.last_interval_p99 = p99_ms;
    }

    /// Client ops currently pending at this leader: replication rounds
    /// plus gets waiting on a retry.
    pub fn inbox_depth(&self) -> usize {
        self.pending_rep.len() + self.pending_gets.len()
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

    /// Leader-side latency of successful client ops (ms).
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
        self.handle_view(config, now);
        self.flush(out);
    }

    fn handle_view(&mut self, config: Arc<Configuration>, now: u64) {
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
            self.retarget_rounds(&moves);
        }
    }

    /// Re-targets every replication round this node leads at the view
    /// just installed, whose rebalance `moves` name the replicas it added
    /// to each partition: departed replicas are no longer waited for,
    /// added ones get the same write under the same round, and the put
    /// acks once every replica of the current view holds it. A round on
    /// a partition this node no longer leads answers its client
    /// [`CRESP_NOT_LEADER`].
    fn retarget_rounds(&mut self, moves: &[ReplicaMove]) {
        let cfg = Arc::clone(&self.view.as_ref().expect("installed by the caller").0);
        let mut reps: Vec<u64> = self.pending_rep.keys().copied().collect();
        reps.sort_unstable();
        for rep in reps {
            let partition = partition_of(&self.pending_rep[&rep].op.key, self.spec.partitions);
            if !self.is_leader(partition) {
                let p = self.pending_rep.remove(&rep).expect("collected above");
                self.resolve(rep, p.op, true, Verdict::NotLeader);
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
                let version = p.version;
                self.resolve(rep, p.op, true, Verdict::Done(KvOutcome::Acked { version }));
                continue;
            }
            if added.is_empty() {
                continue;
            }
            // The write as this leader holds it now: the round's own
            // version, or a later write to the key that supersedes it.
            let key = p.op.key.clone();
            let Some((val, version)) = self.store.get(partition, &key).cloned() else {
                let p = self.pending_rep.remove(&rep).expect("collected above");
                self.resolve(rep, p.op, true, Verdict::Done(KvOutcome::Failed));
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

    /// The installed view's seq (0 before the first view).
    fn view_seq(&self) -> u64 {
        self.view.as_ref().map_or(0, |(cfg, _)| cfg.seq())
    }

    /// Settles client op `req`, already taken off its pending map:
    /// records its latency and counters and queues its verdict to the
    /// client.
    fn resolve(&mut self, req: u64, op: ClientReq, is_put: bool, verdict: Verdict) {
        let (code, val, version) = match verdict {
            Verdict::Done(KvOutcome::Acked { version }) => (CRESP_ACKED, String::new(), version),
            Verdict::Done(KvOutcome::Found { val, version }) => (CRESP_FOUND, val, version),
            Verdict::Done(KvOutcome::Missing) => (CRESP_MISSING, String::new(), 0),
            Verdict::Done(KvOutcome::Failed) => (CRESP_FAILED, String::new(), 0),
            Verdict::NotLeader => (CRESP_NOT_LEADER, String::new(), self.view_seq()),
        };
        let ok = matches!(code, CRESP_ACKED | CRESP_FOUND | CRESP_MISSING);
        // The op started `op_timeout_ms` before its deadline; `self.now`
        // was refreshed by whichever entry point led here.
        let latency = self
            .now
            .saturating_sub(op.deadline.saturating_sub(self.op_timeout_ms));
        if ok {
            self.op_hist.record(latency);
        }
        self.trace.push(self.now, EventKind::KvOpDone, req, latency);
        match (is_put, ok) {
            (true, true) => {
                self.stats.puts_acked += 1;
                // Record the read-your-writes floor for this leader.
                let floor = self.acked_floors.entry(op.key).or_insert(0);
                *floor = (*floor).max(version);
            }
            (true, false) => self.stats.puts_failed += 1,
            (false, true) => self.stats.gets_ok += 1,
            (false, false) => self.stats.gets_failed += 1,
        }
        let (ep, creq) = op.client;
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

    /// Admission decision for one arriving client op: `Err` when it must
    /// be shed. Pure check — counting and answering happen at the call
    /// site.
    fn admit_client_op(&self) -> Result<(), KvError> {
        let retry_after_ms = (self.op_timeout_ms / 4).max(1);
        let depth = self.inbox_depth();
        if self.inbox_limit > 0 && depth >= self.inbox_limit {
            return Err(KvError::Overloaded { retry_after_ms });
        }
        if self.shed_p99_ms > 0
            && self.last_interval_p99 > self.shed_p99_ms
            && self.inbox_limit > 0
            && depth > self.inbox_limit / 2
        {
            return Err(KvError::Overloaded { retry_after_ms });
        }
        Ok(())
    }

    /// Handles one client-plane op arriving over the wire. A node that
    /// does not lead the key's partition in its view answers
    /// [`CRESP_NOT_LEADER`] with its view seq and keeps nothing. The
    /// leader sheds the op under overload (typed, counted, never acked)
    /// or serves it, answering the client with a [`KvMsg::CResp`]. Before
    /// the first view every op fails.
    fn on_client_op(
        &mut self,
        from: Endpoint,
        creq: u64,
        key: String,
        val: Option<String>,
        floor: u64,
        now: u64,
    ) {
        if self.view.is_some() && !self.is_leader(partition_of(&key, self.spec.partitions)) {
            let msg = KvMsg::CResp {
                req: creq,
                code: CRESP_NOT_LEADER,
                val: String::new(),
                version: self.view_seq(),
            };
            return self.send(from, msg);
        }
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
        let req = self.next_req;
        self.next_req += 1;
        self.trace
            .push(now, EventKind::KvOpStart, req, val.is_some() as u64);
        let op = ClientReq {
            client: (from, creq),
            key,
            deadline: now + self.op_timeout_ms,
        };
        if self.view.is_none() {
            let is_put = val.is_some();
            return self.resolve(req, op, is_put, Verdict::Done(KvOutcome::Failed));
        }
        match val {
            Some(val) => self.leader_put(req, op, val),
            None => {
                // Read-your-writes across leaders: honour both this
                // node's acked floor and the one the client carried in.
                let floor = self
                    .acked_floors
                    .get(&op.key)
                    .copied()
                    .unwrap_or(0)
                    .max(floor);
                self.serve_get(req, PendingGet { op, floor });
            }
        }
    }

    /// Serves a client write as the key's leader: versions it, applies it
    /// here and replicates it to every other replica. Its replication
    /// round, under the op's own request id, answers the client once
    /// every replica confirmed.
    fn leader_put(&mut self, req: u64, op: ClientReq, val: String) {
        let config_seq = self.view_seq();
        let partition = partition_of(&op.key, self.spec.partitions);
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
            .put(partition, op.key.clone(), val.clone(), version);
        let others = self.replica_addrs_except_me(partition);
        if others.is_empty() {
            return self.resolve(req, op, true, Verdict::Done(KvOutcome::Acked { version }));
        }
        for &r in &others {
            self.send(
                r,
                KvMsg::Replicate {
                    partition,
                    req,
                    leader: self.me.addr,
                    key: op.key.clone(),
                    val: val.clone(),
                    version,
                },
            );
        }
        self.pending_rep.insert(
            req,
            PendingPut {
                op,
                waiting: others,
                version,
            },
        );
    }

    /// Serves a client read as the key's leader, or keeps it for the next
    /// tick's retry while the partition awaits its handoff or the store
    /// is below the read's floor: a stale answer (mid-repair) is never
    /// returned. A read whose partition a view moved away answers
    /// [`CRESP_NOT_LEADER`].
    fn serve_get(&mut self, req: u64, get: PendingGet) {
        let partition = partition_of(&get.op.key, self.spec.partitions);
        if !self.is_leader(partition) {
            return self.resolve(req, get.op, false, Verdict::NotLeader);
        }
        let outcome = match self.store.get(partition, &get.op.key) {
            _ if self.awaiting.contains(&partition) => None,
            Some((val, version)) if *version >= get.floor => Some(KvOutcome::Found {
                val: val.clone(),
                version: *version,
            }),
            None if get.floor == 0 => Some(KvOutcome::Missing),
            _ => None,
        };
        match outcome {
            Some(outcome) => self.resolve(req, get.op, false, Verdict::Done(outcome)),
            None => {
                self.pending_gets.insert(req, get);
            }
        }
    }

    /// Handles a data-plane message from a peer. Everything the message
    /// triggers is flushed through the per-peer outbox on return: one
    /// wire frame per destination, however many messages the frame
    /// carried.
    pub fn on_message(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        self.now = self.now.max(now);
        self.handle_msg(from, msg, now);
        self.flush(out);
    }

    fn handle_msg(&mut self, from: Endpoint, msg: KvMsg, now: u64) {
        match msg {
            KvMsg::Batch(msgs) => {
                for m in msgs {
                    self.handle_msg(from, m, now);
                }
            }
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
                    let version = p.version;
                    self.resolve(req, p.op, true, Verdict::Done(KvOutcome::Acked { version }));
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
            KvMsg::View { .. } => {}  // Client-plane message; nodes ignore.
            KvMsg::CResp { .. } => {} // Client-plane verdict; nodes ignore.
            KvMsg::CPut { req, key, val } => self.on_client_op(from, req, key, Some(val), 0, now),
            KvMsg::CGet { req, key, floor } => self.on_client_op(from, req, key, None, floor, now),
            KvMsg::DigestReq { digests } => self.on_digest_req(from, digests),
            KvMsg::DigestResp { digests } => self.on_digest_resp(from, digests),
            KvMsg::RepairPull { partitions } => self.on_repair_pull(from, partitions),
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
    fn run_repair(&mut self) {
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

    fn on_digest_req(&mut self, from: Endpoint, digests: Vec<(u32, PartitionDigest)>) {
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

    fn on_digest_resp(&mut self, from: Endpoint, digests: Vec<(u32, PartitionDigest)>) {
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

    fn on_repair_pull(&mut self, from: Endpoint, partitions: Vec<u32>) {
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
        // Expire client ops in request order, whichever map holds them.
        let mut expired: Vec<u64> = self
            .pending_gets
            .iter()
            .filter(|(_, g)| g.op.deadline <= now)
            .map(|(&req, _)| req)
            .chain(
                self.pending_rep
                    .iter()
                    .filter(|(_, p)| p.op.deadline <= now)
                    .map(|(&req, _)| req),
            )
            .collect();
        expired.sort_unstable();
        for req in expired {
            let failed = Verdict::Done(KvOutcome::Failed);
            if let Some(g) = self.pending_gets.remove(&req) {
                self.resolve(req, g.op, false, failed);
            } else if let Some(p) = self.pending_rep.remove(&req) {
                self.resolve(req, p.op, true, failed);
            }
        }
        // One retry round per tick for reads waiting on a handoff or a
        // floor — bounded traffic, no hot loops.
        let mut retries: Vec<u64> = self.pending_gets.keys().copied().collect();
        retries.sort_unstable();
        for req in retries {
            let get = self.pending_gets.remove(&req).expect("collected above");
            self.serve_get(req, get);
        }
        if self.repair_interval_ms > 0 && now >= self.next_repair_at {
            self.next_repair_at = now + self.repair_interval_ms;
            self.last_repair_at = now;
            self.run_repair();
        }
        self.flush(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{members, Flight, Mesh};
    use rapid_core::config::ConfigId;

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 16,
            replication: 2,
        }
    }

    /// The smart client every test op comes from.
    fn client() -> Endpoint {
        Endpoint::new("client-mesh", 9000)
    }

    /// `op` as the wire `CPut`/`CGet` [`client`] sends under request id
    /// `req`; reads carry no floor.
    fn wire(req: u64, op: ClientOp<'_>) -> KvMsg {
        match op {
            ClientOp::Put { key, val } => KvMsg::CPut {
                req,
                key: key.into(),
                val: val.into(),
            },
            ClientOp::Get { key } => KvMsg::CGet {
                req,
                key: key.into(),
                floor: 0,
            },
        }
    }

    /// Sends `op` to its key's leader as [`client`]'s request `req`, runs
    /// the mesh to quiescence and returns the verdicts [`client`] got.
    fn op(mesh: &mut Mesh, req: u64, op: ClientOp<'_>) -> Vec<(u64, KvOutcome)> {
        let key = match op {
            ClientOp::Put { key, .. } | ClientOp::Get { key } => key,
        };
        let leader = mesh.nodes[mesh.leader_of(key)].me().addr;
        mesh.send(client(), leader, wire(req, op));
        mesh.run_to_quiescence();
        verdicts(mesh)
    }

    /// The verdicts delivered to [`client`] since the last call; every
    /// op here goes to its key's leader, so none is `NotLeader`.
    fn verdicts(mesh: &mut Mesh) -> Vec<(u64, KvOutcome)> {
        let replies = mesh.take_replies(client()).into_iter();
        replies.map(|(req, v)| (req, v.expect("the leader serves"))).collect()
    }

    /// The messages in `flights` addressed to `to`, batch frames flattened.
    fn sent_to(flights: &[Flight], to: Endpoint) -> Vec<KvMsg> {
        flights
            .iter()
            .filter(|(_, dest, _)| *dest == to)
            .flat_map(|(_, _, msg)| match msg {
                KvMsg::Batch(inner) => inner.clone(),
                other => vec![other.clone()],
            })
            .collect()
    }

    #[test]
    fn put_then_get_roundtrip_at_the_leader() {
        let mut mesh = Mesh::new(4, spec());
        let put = ClientOp::Put {
            key: "user:7",
            val: "v1",
        };
        let results = op(&mut mesh, 1, put);
        let acked = results
            .iter()
            .any(|(r, o)| *r == 1 && matches!(o, KvOutcome::Acked { .. }));
        assert!(acked, "put must ack: {results:?}");

        let results = op(&mut mesh, 2, ClientOp::Get { key: "user:7" });
        assert!(
            results
                .iter()
                .any(|(r, o)| *r == 2 && matches!(o, KvOutcome::Found { val, .. } if val == "v1")),
            "get must find the value: {results:?}"
        );

        // A missing key reads as Missing, not Failed.
        let results = op(&mut mesh, 3, ClientOp::Get { key: "user:unseen" });
        assert_eq!(results, vec![(3, KvOutcome::Missing)]);
    }

    #[test]
    fn acked_writes_reach_every_replica() {
        let mut mesh = Mesh::new(5, spec());
        let results = op(&mut mesh, 1, ClientOp::Put { key: "k", val: "v" });
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
        let mut mesh = Mesh::new(3, spec());
        let mut versions = Vec::new();
        for i in 0..4 {
            let val = format!("v{i}");
            let put = ClientOp::Put {
                key: "key",
                val: &val,
            };
            for (_, o) in op(&mut mesh, i, put) {
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
        let mut mesh = Mesh::new(1, spec());
        let me = mesh.nodes[0].me().clone();
        let addr = me.addr;
        mesh.nodes[0] = KvNode::new(me, spec(), 1_000, None); // No view installed.
        let ops = [(1, ClientOp::Put { key: "k", val: "v" }), (2, ClientOp::Get { key: "k" })];
        for (req, op) in ops {
            mesh.send(client(), addr, wire(req, op));
            mesh.deliver(0);
            assert_eq!(mesh.pending().len(), 1, "{:?}", mesh.pending());
            mesh.run_to_quiescence();
            assert_eq!(verdicts(&mut mesh), vec![(req, KvOutcome::Failed)]);
        }
        let kv = &mesh.nodes[0];
        assert_eq!(kv.stats().puts_failed, 1);
        assert_eq!(kv.stats().gets_failed, 1);
    }

    /// A node that does not lead the key's partition answers at once
    /// with `NotLeader` and its view seq, relays nothing to the leader
    /// and keeps no state for the op.
    #[test]
    fn a_non_leader_answers_not_leader_and_keeps_nothing() {
        let mut mesh = Mesh::new(3, spec());
        let key = (0..100)
            .map(|i| format!("probe-{i}"))
            .find(|k| mesh.leader_of(k) != 0)
            .expect("some key is led away from node 0");
        let to = mesh.nodes[0].me().addr;
        mesh.send(client(), to, wire(7, ClientOp::Put { key: &key, val: "v" }));
        mesh.send(client(), to, wire(8, ClientOp::Get { key: &key }));
        mesh.deliver(0);
        mesh.deliver(0);
        let seq = mesh.config.seq();
        let not_leader = |req| KvMsg::CResp {
            req,
            code: CRESP_NOT_LEADER,
            val: String::new(),
            version: seq,
        };
        assert_eq!(sent_to(mesh.pending(), client()), vec![not_leader(7), not_leader(8)]);
        assert!(
            mesh.pending().iter().all(|(_, to, _)| *to == client()),
            "nothing goes to another node: {:?}",
            mesh.pending()
        );
        let node = &mesh.nodes[0];
        assert_eq!(node.inbox_depth(), 0);
        let counted = KvStats {
            msgs_sent: 0,
            frames_sent: 0,
            wire_bytes: 0,
            ..*node.stats()
        };
        assert_eq!(counted, KvStats::default(), "the op is not counted here");
        assert_eq!(
            node.store.get(partition_of(&key, spec().partitions), &key),
            None,
            "a non-leader never applies the write"
        );
    }

    /// Every client op is accounted exactly once in the leaders'
    /// counters, and nothing lingers in either pending map.
    #[test]
    fn pending_maps_keep_stats_parity() {
        let mut mesh = Mesh::new(4, spec());
        let (mut puts, mut gets) = (0u64, 0u64);
        for i in 0..40 {
            let key = format!("par-{i}");
            let put = ClientOp::Put {
                key: &key,
                val: "v",
            };
            op(&mut mesh, puts + gets, put);
            puts += 1;
            op(&mut mesh, puts + gets, ClientOp::Get { key: &key });
            gets += 1;
        }
        // A read of a key that never existed also completes (Missing).
        op(&mut mesh, puts + gets, ClientOp::Get { key: "par-unseen" });
        gets += 1;
        let mut totals = KvStats::default();
        for n in &mesh.nodes {
            totals.absorb(n.stats());
        }
        assert_eq!(totals.puts_acked + totals.puts_failed, puts);
        assert_eq!(totals.gets_ok + totals.gets_failed, gets);
        assert_eq!(totals.puts_acked, puts, "healthy mesh acks everything");
        assert_eq!(totals.gets_ok, gets, "healthy mesh completes every read");
        for n in &mesh.nodes {
            assert!(n.pending_gets.is_empty() && n.pending_rep.is_empty());
            assert_eq!(n.inbox_depth(), 0, "a quiet mesh has an empty inbox");
        }
    }

    /// The admission-control pin (satellite): ops over the inbox bound —
    /// or over the timeline-keyed p99 threshold — are answered with a
    /// typed `Overloaded` verdict before any state changes, so a shed op
    /// can never be acked, and `no_lost_acked_writes` is vacuously safe
    /// under shedding.
    #[test]
    fn shed_ops_are_typed_and_never_acked() {
        let sp = spec();
        let mut mesh = Mesh::with(3, sp, |node| node.with_admission(2, 0));
        let n0 = mesh.nodes[0].me().addr;
        let client = Endpoint::new("client-x", 9000);
        // Keys node 0 leads: replication needs RepAcks, and the
        // Replicates stay in flight, so admitted ops stay pending and
        // fill the inbox.
        let led: Vec<String> = (0..200)
            .map(|i| format!("shed-{i}"))
            .filter(|k| mesh.nodes[0].is_leader(partition_of(k, sp.partitions)))
            .take(3)
            .collect();
        assert_eq!(led.len(), 3, "enough keys led by node 0");
        for (i, key) in led.iter().enumerate() {
            mesh.send(client, n0, wire(i as u64, ClientOp::Put { key, val: "v" }));
            mesh.deliver(mesh.pending().len() - 1);
        }
        let node = &mesh.nodes[0];
        assert_eq!(node.inbox_depth(), 2, "two admitted, one shed");
        assert_eq!(node.stats().ops_shed, 1);
        assert_eq!(
            sent_to(mesh.pending(), client),
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
        mesh.tick(1_000);
        let answers = sent_to(mesh.pending(), client);
        assert_eq!(mesh.nodes[0].inbox_depth(), 0, "deadline clears the inbox");
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
        let mut soft = Mesh::with(3, sp, |node| node.with_admission(4, 10));
        for (i, key) in led.iter().enumerate() {
            soft.send(client, n0, wire(i as u64, ClientOp::Put { key, val: "v" }));
            soft.deliver(soft.pending().len() - 1);
            assert!(sent_to(soft.pending(), client).is_empty(), "under both thresholds");
        }
        assert_eq!(soft.nodes[0].inbox_depth(), 3);
        soft.nodes[0].note_interval(50); // timeline interval p99 breaches 10ms
        soft.send(client, n0, wire(99, ClientOp::Put { key: &led[0], val: "v2" }));
        soft.deliver(soft.pending().len() - 1);
        assert!(
            matches!(
                &sent_to(soft.pending(), client)[..],
                [KvMsg::CResp { req: 99, code, .. }] if *code == CRESP_OVERLOADED
            ),
            "p99 over threshold with a half-full inbox must shed"
        );
        assert_eq!(soft.nodes[0].stats().ops_shed, 1);
    }

    /// A leader at its `kv_inbox` bound sheds a `CPut` whoever sends it,
    /// and no other message starts a replication round: every write a
    /// leader serves passed admission.
    #[test]
    fn a_leader_at_its_bound_sheds_and_nothing_bypasses_admission() {
        let ms = members(3);
        let mut mesh = Mesh::with(3, spec(), |node| node.with_admission(2, 0));
        let me = ms[0].addr;
        let led: Vec<String> = (0..200)
            .map(|i| format!("bound-{i}"))
            .filter(|k| mesh.nodes[0].is_leader(partition_of(k, spec().partitions)))
            .take(3)
            .collect();
        // Two rounds wait on RepAcks that never come (their Replicates
        // stay in flight): the inbox is full.
        for (req, key) in led[..2].iter().enumerate() {
            mesh.send(client(), me, wire(req as u64, ClientOp::Put { key, val: "v" }));
            mesh.deliver(mesh.pending().len() - 1);
        }
        assert_eq!(mesh.nodes[0].inbox_depth(), 2);
        let partition = partition_of(&led[2], spec().partitions);
        let peer = ms[1].addr;
        // The client's op, the same op relayed by a peer, and every
        // peer-plane message a follower sends its leader.
        let arrivals = [
            (client(), wire(10, ClientOp::Put { key: &led[2], val: "v" })),
            (peer, wire(11, ClientOp::Put { key: &led[2], val: "v" })),
            (peer, KvMsg::RepAck { req: 99 }),
            (
                peer,
                KvMsg::Replicate {
                    partition,
                    req: 12,
                    leader: peer,
                    key: "stray".into(),
                    val: "v".into(),
                    version: 1,
                },
            ),
            (
                peer,
                KvMsg::Handoff {
                    partition,
                    entries: Vec::new(),
                },
            ),
        ];
        let mut shed = Vec::new();
        for (from, msg) in arrivals {
            let held = mesh.pending().len();
            mesh.send(from, me, msg);
            mesh.deliver(held);
            let out = &mesh.pending()[held..];
            shed.extend(sent_to(out, from).into_iter().filter_map(|m| match m {
                KvMsg::CResp { req, code, .. } => Some((req, code)),
                _ => None,
            }));
            let replicated = ms[1..]
                .iter()
                .flat_map(|m| sent_to(out, m.addr))
                .any(|m| matches!(m, KvMsg::Replicate { .. }));
            assert!(!replicated, "no new round: {out:?}");
        }
        assert_eq!(shed, vec![(10, CRESP_OVERLOADED), (11, CRESP_OVERLOADED)]);
        let node = &mesh.nodes[0];
        assert_eq!(node.stats().ops_shed, 2);
        assert_eq!(node.inbox_depth(), 2, "nothing started a round");
        assert_eq!(node.store.get(partition, &led[2]), None, "the shed write never applied");
    }

    /// Subscribed clients get the current view immediately and every
    /// later install pushed, and the node reports them in
    /// `client_conns`.
    #[test]
    fn subscriptions_push_views_to_clients() {
        use rapid_core::membership::Proposal;

        let mut mesh = Mesh::new(4, spec());
        let client = Endpoint::new("client-sub", 9000);
        mesh.send(client, mesh.nodes[1].me().addr, KvMsg::Sub);
        mesh.deliver(0);
        let pushed = sent_to(mesh.pending(), client);
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
        mesh.run_to_quiescence();
        let removal = Proposal::from_items(
            mesh.config.id(),
            vec![mesh.config.removal_item(3)],
        );
        let new_cfg = mesh.config.apply(&removal);
        mesh.install(Arc::clone(&new_cfg), &[1]);
        let pushed = sent_to(mesh.pending(), client);
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
        let mut mesh = Mesh::new(6, sp);
        let key = "repair-key";
        let partition = partition_of(key, sp.partitions);

        // Placement is a pure function of the view, so the whole failure
        // can be planned up front: remove one replica of the key's
        // partition and read off the plan's source and receiver.
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

        // Ack a write at the key's leader.
        let put = ClientOp::Put {
            key,
            val: "precious",
        };
        let results = op(&mut mesh, 1, put);
        let acked_version = results
            .iter()
            .find_map(|(r, o)| match o {
                KvOutcome::Acked { version } if *r == 1 => Some(*version),
                _ => None,
            })
            .expect("healthy mesh must ack");

        // Install the new view everywhere that is alive — but the source
        // crashes mid-push: none of its handoffs ever leave the host.
        mesh.crash(victim_idx);
        mesh.install(Arc::clone(&new_cfg), &mesh.live());
        mesh.crash(source_idx);
        while let Some(i) = mesh.pending().iter().position(|(from, ..)| *from == mv.source) {
            mesh.drop(i);
        }
        mesh.run_to_quiescence();
        assert!(
            mesh.nodes[receiver_idx].awaiting.contains(&partition),
            "receiver must be guarding the unarrived handoff"
        );

        // The old-bug pin: far past the retired two-op-timeout budget,
        // with the receiver's repair traffic lost too, the guard must
        // still hold — time alone never clears it.
        mesh.tick(10_000);
        while !mesh.pending().is_empty() {
            mesh.drop(0);
        }
        assert!(
            mesh.nodes[receiver_idx].awaiting.contains(&partition),
            "the awaiting guard must not expire on a timer"
        );
        // And a client read of the acked key must never answer Missing.
        let results = op(&mut mesh, 2, ClientOp::Get { key });
        assert!(
            !results
                .iter()
                .any(|(r, o)| *r == 2 && *o == KvOutcome::Missing),
            "acked key reported Missing: {results:?}"
        );

        // Now let anti-entropy run: each round rotates the pull source,
        // so the receiver reaches a live, settled replica within a few
        // rounds and recovers the partition.
        for round in 0..6 {
            mesh.tick(11_000 + round * 1_000);
            mesh.run_to_quiescence();
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
        for i in mesh.live() {
            totals.absorb(mesh.nodes[i].stats());
        }
        assert!(totals.repairs_triggered >= 1, "repair must have fired");
        assert!(totals.repair_bytes > 0, "repair must have moved bytes");

        // Remove the dead source from the view too; the cluster heals
        // fully and the acked key reads back at or above its version at
        // its leader (read-your-writes floor).
        let src_rank = new_cfg
            .rank_of_addr(&mv.source)
            .expect("source was in the view");
        let removal2 =
            Proposal::from_items(new_cfg.id(), vec![new_cfg.removal_item(src_rank)]);
        let final_cfg = new_cfg.apply(&removal2);
        mesh.install(Arc::clone(&final_cfg), &mesh.live());
        mesh.run_to_quiescence();
        for round in 0..6 {
            mesh.tick(21_000 + round * 1_000);
            mesh.run_to_quiescence();
        }
        let req = 3;
        let mut results = op(&mut mesh, req, ClientOp::Get { key });
        // A first answer may have been stale/retryable; drive retries.
        for extra in 1..=5 {
            if results.iter().any(|(r, _)| *r == req) {
                break;
            }
            mesh.tick(30_000 + extra * 100);
            mesh.run_to_quiescence();
            results.extend(verdicts(&mut mesh));
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
        let mut mesh = Mesh::new(6, sp);
        let v1 = Arc::clone(&mesh.config);
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
        let req = 1;
        mesh.send(client(), leader, wire(req, ClientOp::Put { key: &key, val: "val" }));
        mesh.deliver(0);
        let sent = sent_to(mesh.pending(), a);
        let [KvMsg::Replicate { req: rep, version, .. }] = sent[..] else {
            panic!("one Replicate to A: {:?}", mesh.pending());
        };
        assert_eq!(sent_to(mesh.pending(), b).len(), 1, "B is waited for too");
        // A applies the write and acks; B's copy stays in flight, so its
        // RepAck is held back.
        let to_a = mesh.pending().iter().position(|(_, to, _)| *to == a);
        mesh.deliver(to_a.expect("A's copy in flight"));
        let held = mesh.pending().len();
        mesh.deliver(held - 1); // A's RepAck.
        assert_eq!(mesh.pending().len(), held - 1, "still waiting on B: {:?}", mesh.pending());

        mesh.crash(mesh.idx_of(b));
        mesh.install(without(&v1, b), &[mesh.idx_of(leader)]);
        assert!(
            sent_to(mesh.pending(), client()).is_empty(),
            "C does not hold the write yet: {:?}",
            mesh.pending()
        );
        // (Alongside C's rebalance handoff, which the leader may also
        // be the source of.)
        let replicates: Vec<KvMsg> = sent_to(mesh.pending(), c)
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
        let to_c = mesh.pending().iter().position(|(_, to, _)| *to == c);
        mesh.deliver(to_c.expect("C's copy in flight"));
        let held = mesh.pending().len();
        mesh.deliver(held - 1); // C's RepAck.
        assert_eq!(mesh.pending().len(), held, "one frame out: {:?}", mesh.pending());
        mesh.deliver(held - 1);
        assert_eq!(verdicts(&mut mesh), vec![(req, KvOutcome::Acked { version })]);
        assert_eq!(mesh.nodes[mesh.idx_of(leader)].stats().puts_acked, 1);
    }

    /// A leader that loses a partition at a view change answers the
    /// client of its replication round there with `NotLeader` and the
    /// new view's seq at once, and a get it kept for a retry at its next
    /// tick. Nothing waits on the partition afterwards.
    #[test]
    fn a_leader_that_loses_a_partition_answers_not_leader() {
        let cache = PlacementCache::new();
        let all = members(6);
        let mut mesh = Mesh::new(5, spec());
        let v1 = Arc::clone(&mesh.config);
        let v2 = Configuration::from_parts(ConfigId(v1.id().0 + 1), v1.seq() + 1, all.clone());
        let (pl1, pl2) = (cache.get(&v1, &spec()), cache.get(&v2, &spec()));
        let leader_in = |cfg: &Configuration, pl: &Placement, key: &str| {
            cfg.members()[pl.leader(partition_of(key, spec().partitions)) as usize].addr
        };
        // A key whose partition the joiner takes over from its leader.
        let joiner = all[5].addr;
        let (key, leader) = (0..500)
            .map(|i| format!("lose-{i}"))
            .find_map(|key| {
                let old = leader_in(&v1, &pl1, &key);
                (leader_in(&v2, &pl2, &key) == joiner).then_some((key, old))
            })
            .expect("the joiner leads some key");
        let l = mesh.idx_of(leader);
        // The put waits on RepAcks held back in flight; the get carries
        // a floor no write reaches, so it waits for a retry.
        let (put, get) = (1, 2);
        mesh.send(client(), leader, wire(put, ClientOp::Put { key: &key, val: "v" }));
        mesh.deliver(0);
        assert!(sent_to(mesh.pending(), client()).is_empty(), "{:?}", mesh.pending());
        let read = KvMsg::CGet {
            req: get,
            key: key.clone(),
            floor: u64::MAX,
        };
        mesh.send(client(), leader, read);
        mesh.deliver(mesh.pending().len() - 1);
        assert!(sent_to(mesh.pending(), client()).is_empty(), "{:?}", mesh.pending());
        assert_eq!(mesh.nodes[l].inbox_depth(), 2, "the round and the get wait");

        let not_leader = |req| KvMsg::CResp {
            req,
            code: CRESP_NOT_LEADER,
            val: String::new(),
            version: v2.seq(),
        };
        let held = mesh.pending().len();
        mesh.install(Arc::clone(&v2), &[l]);
        let out = &mesh.pending()[held..];
        assert_eq!(sent_to(out, client()), vec![not_leader(put)], "the round answers at once");
        let held = mesh.pending().len();
        mesh.tick(6);
        let out = &mesh.pending()[held..];
        assert_eq!(sent_to(out, client()), vec![not_leader(get)], "the get at its retry");
        let node = &mesh.nodes[l];
        assert_eq!(node.inbox_depth(), 0, "nothing waits once both settle");
        assert_eq!((node.stats().puts_failed, node.stats().gets_failed), (1, 1));
    }
}
