//! The Rapid protocol state machine (paper §4, Figure 3).
//!
//! [`Node`] wires the three components together: the expander monitoring
//! overlay feeds edge alerts into multi-process cut detection, whose output
//! seeds the leaderless view-change consensus. The node is **sans-io**: it
//! consumes [`Event`]s and emits [`Action`]s, and the host (simulator or
//! real transport) owns sockets and the clock. Hosts must deliver a
//! [`Event::Tick`] every `Settings::tick_interval_ms`.
//!
//! Lifecycle: a node is constructed as a *seed* (bootstrapping a fresh
//! one-node cluster), as a *static member* (tests, ensembles), or as a
//! *joiner* (two-phase join through a seed, §4.1). An active node leaves
//! voluntarily via [`Node::leave`] or is removed by its peers, in which
//! case it observes [`Action::Kicked`] and may rejoin with a fresh
//! identifier.

use std::collections::BTreeMap;
use std::sync::Arc;

use rapid_obs::{EventKind, TraceRing};

use crate::alert::{ring_mask, Alert, EdgeStatus, GossipItem};
use crate::broadcast::{BroadcastMode, Disseminator};
use crate::config::{ConfigId, Configuration, Member};
use crate::cut::CutDetector;
use crate::fd::{EdgeFailureDetector, ProbeFailureDetector};
use crate::hash::DetHashSet;
use crate::id::{Endpoint, NodeId};
use crate::membership::{Proposal, ProposalHash, ViewChange};
use crate::metrics::NodeMetrics;
use crate::outbox::Outbox;
use crate::paxos::classic::{ClassicPaxos, CoordinatorStep, Promise};
use crate::paxos::fast::FastRound;
use crate::ring::{Topology, TopologyCache};
use crate::rng::Xoshiro256;
use crate::settings::Settings;
use crate::wire::{ConfigSnapshot, JoinStatus, Message};

/// Lifecycle state of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Executing the two-phase join protocol.
    Joining,
    /// A full member of the current configuration.
    Active,
    /// Departed voluntarily.
    Left,
    /// Removed from the membership by its peers.
    Kicked,
}

/// An input to the state machine.
#[derive(Clone, Debug)]
pub enum Event {
    /// The clock advanced; hosts deliver one per `tick_interval_ms`.
    Tick {
        /// Monotone milliseconds.
        now_ms: u64,
    },
    /// A message arrived.
    Receive {
        /// Sender address.
        from: Endpoint,
        /// The message.
        msg: Message,
    },
}

/// An output of the state machine.
#[derive(Clone, Debug)]
pub enum Action {
    /// Transmit a message.
    Send {
        /// Destination address.
        to: Endpoint,
        /// The message.
        msg: Message,
    },
    /// A view change was decided and installed (the paper's
    /// `VIEW-CHANGE-CALLBACK`).
    View(ViewChange),
    /// This node completed its join and is now active.
    Joined {
        /// The configuration it joined into.
        config: Arc<Configuration>,
    },
    /// This node was removed from the membership; it must rejoin with a
    /// fresh identifier to participate again.
    Kicked,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JoinPhase {
    Idle,
    AwaitPreJoin,
    AwaitConfirm,
}

#[derive(Debug)]
struct JoinState {
    seeds: Vec<Endpoint>,
    attempt: u32,
    phase: JoinPhase,
    deadline: u64,
}

/// The Rapid membership state machine for one process.
pub struct Node {
    settings: Settings,
    me: Member,
    status: NodeStatus,
    cache: TopologyCache,
    rng: Xoshiro256,
    now: u64,

    config: Arc<Configuration>,
    topology: Arc<Topology>,
    my_rank: u32,
    cut: CutDetector,
    fast: FastRound,
    classic: ClassicPaxos,
    fd: Box<dyn EdgeFailureDetector>,
    diss: Disseminator,

    consensus_deadline: Option<u64>,
    classic_round: u32,
    classic_deadline: Option<u64>,
    reinforced: DetHashSet<NodeId>,
    body_requested: DetHashSet<ProposalHash>,
    /// Ordered so join confirmations go out in identical order every run.
    pending_joiners: BTreeMap<NodeId, Member>,

    join: Option<JoinState>,
    metrics: NodeMetrics,
    view_log: Vec<ConfigId>,
    /// Per-peer coalescing send buffer: every component (failure
    /// detector, disseminator, paxos, join protocol) pushes logical
    /// messages here, and each `handle` call flushes at most one wire
    /// frame per destination.
    outbox: Outbox<Message>,
    /// Flight recorder: the last `settings.obs_ring` protocol events
    /// (capacity 0 = recording off). Filled on this node's own event
    /// stream, which is identical across `threads` values.
    trace: TraceRing,
    /// When the first alert of the current configuration was applied —
    /// the origin of `metrics.detect_to_install`.
    first_alert_at: Option<u64>,
}

impl Node {
    /// Creates a seed node bootstrapping a fresh one-node cluster.
    pub fn new_seed(me: Member, settings: Settings) -> Node {
        let cfg = Configuration::bootstrap(vec![me.clone()]);
        Self::with_parts(me, settings, NodeStatus::Active, cfg, None, None, None, None)
    }

    /// Creates a joiner that will execute the two-phase join protocol
    /// against the given seed addresses.
    pub fn new_joiner(me: Member, settings: Settings, seeds: Vec<Endpoint>) -> Node {
        assert!(!seeds.is_empty(), "at least one seed required");
        let cfg = Configuration::bootstrap(Vec::new());
        Self::with_parts(
            me,
            settings,
            NodeStatus::Joining,
            cfg,
            Some(seeds),
            None,
            None,
            None,
        )
    }

    /// Fully parameterised constructor used by simulations: custom failure
    /// detector, shared topology cache and deterministic RNG seed.
    #[allow(clippy::too_many_arguments)]
    pub fn with_parts(
        me: Member,
        settings: Settings,
        status: NodeStatus,
        config: Arc<Configuration>,
        seeds: Option<Vec<Endpoint>>,
        fd: Option<Box<dyn EdgeFailureDetector>>,
        cache: Option<TopologyCache>,
        rng_seed: Option<u64>,
    ) -> Node {
        settings.validate().expect("invalid settings");
        let cache = cache.unwrap_or_default();
        let seed = rng_seed.unwrap_or_else(|| me.id.digest());
        let fd = fd.unwrap_or_else(|| Box::new(ProbeFailureDetector::from_settings(&settings)));
        let diss = Disseminator::new(&settings, seed ^ 0xD155);
        let mut node = Node {
            me,
            status,
            cache,
            rng: Xoshiro256::seed_from_u64(seed),
            now: 0,
            topology: Arc::new(Topology::build(&config, settings.k)),
            my_rank: 0,
            cut: CutDetector::new(config.id(), settings.k, settings.h, settings.l),
            fast: FastRound::new(config.len().max(1), 0),
            classic: ClassicPaxos::new(config.len().max(1), 0),
            fd,
            diss,
            consensus_deadline: None,
            classic_round: 0,
            classic_deadline: None,
            reinforced: DetHashSet::default(),
            body_requested: DetHashSet::default(),
            pending_joiners: BTreeMap::new(),
            join: seeds.map(|seeds| JoinState {
                seeds,
                attempt: 0,
                phase: JoinPhase::Idle,
                deadline: 0,
            }),
            metrics: NodeMetrics::default(),
            view_log: Vec::new(),
            outbox: Outbox::new(true),
            trace: TraceRing::new(settings.obs_ring),
            first_alert_at: None,
            config: Arc::clone(&config),
            settings,
        };
        if node.status == NodeStatus::Active {
            node.install(config);
        }
        node
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.me.id
    }

    /// This node's listen address.
    pub fn addr(&self) -> &Endpoint {
        &self.me.addr
    }

    /// Current lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.status
    }

    /// The current configuration view.
    pub fn configuration(&self) -> Arc<Configuration> {
        Arc::clone(&self.config)
    }

    /// The sequence of configuration identifiers this node installed.
    pub fn view_history(&self) -> &[ConfigId] {
        &self.view_log
    }

    /// Protocol counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// The current monitoring topology (for tests and analysis).
    pub fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology)
    }

    /// The protocol settings.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// The flight-recorder ring (empty unless `Settings::obs_ring > 0`).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Feeds one event into the state machine, appending actions to `out`.
    /// All sends of the event are flushed through the per-peer outbox at
    /// the end: at most one wire frame per destination per event.
    pub fn handle(&mut self, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::Tick { now_ms } => {
                self.now = self.now.max(now_ms);
                match self.status {
                    NodeStatus::Joining => self.tick_join(out),
                    NodeStatus::Active => self.tick_active(out),
                    NodeStatus::Left | NodeStatus::Kicked => {}
                }
            }
            Event::Receive { from, msg } => {
                self.metrics.msgs_received += 1;
                self.on_message(from, msg, out);
            }
        }
        self.flush(out);
    }

    /// Announces a voluntary departure to this node's observers (§3: a
    /// process that departs and returns rejoins with a new identifier).
    pub fn leave(&mut self, out: &mut Vec<Action>) {
        if self.status != NodeStatus::Active {
            return;
        }
        for e in self.topology.observers_of(self.my_rank) {
            let to = self.config.member_at(e.rank as usize).addr;
            self.send(out, to, Message::Leave { subject: self.me.id });
        }
        self.status = NodeStatus::Left;
        self.flush(out);
    }

    fn send(&mut self, _out: &mut Vec<Action>, to: Endpoint, msg: Message) {
        self.outbox.push(to, msg);
    }

    /// Drains the outbox into `out`, one `Action::Send` per wire frame.
    fn flush(&mut self, out: &mut Vec<Action>) {
        self.outbox.flush(|to, msg| out.push(Action::Send { to, msg }));
        let s = self.outbox.stats();
        self.metrics.msgs_sent = s.msgs;
        self.metrics.frames_sent = s.frames;
    }

    /// Sends one message per peer of the current view, resolving addresses
    /// by rank straight from the shared configuration (no peer list is
    /// materialised; `make` typically clones `Arc` payloads).
    fn send_all_peers(&mut self, out: &mut Vec<Action>, mut make: impl FnMut() -> Message) {
        let cfg = Arc::clone(&self.config);
        for (rank, m) in cfg.members().iter().enumerate() {
            if rank as u32 != self.my_rank {
                self.send(out, m.addr, make());
            }
        }
    }

    // ------------------------------------------------------------------
    // Join client (§4.1)
    // ------------------------------------------------------------------

    fn tick_join(&mut self, out: &mut Vec<Action>) {
        let Some(join) = &mut self.join else {
            return;
        };
        let due = join.phase == JoinPhase::Idle || self.now >= join.deadline;
        if !due {
            return;
        }
        let seed = join.seeds[join.attempt as usize % join.seeds.len()];
        join.attempt += 1;
        join.phase = JoinPhase::AwaitPreJoin;
        join.deadline = self.now + self.settings.join_timeout_ms;
        let me = self.me.clone();
        self.send(out, seed, Message::PreJoinReq { joiner: me });
    }

    fn on_pre_join_resp(
        &mut self,
        status: JoinStatus,
        config_id: ConfigId,
        observers: Vec<Endpoint>,
        snapshot: Option<ConfigSnapshot>,
        out: &mut Vec<Action>,
    ) {
        if self.status != NodeStatus::Joining {
            return;
        }
        let Some(join) = &mut self.join else {
            return;
        };
        if join.phase != JoinPhase::AwaitPreJoin {
            return;
        }
        match status {
            JoinStatus::SafeToJoin => {
                join.phase = JoinPhase::AwaitConfirm;
                join.deadline = self.now + self.settings.join_timeout_ms;
                let me = self.me.clone();
                for (ring, obs) in observers.into_iter().enumerate() {
                    self.send(
                        out,
                        obs,
                        Message::JoinReq {
                            joiner: me.clone(),
                            config_id,
                            ring: ring as u8,
                        },
                    );
                }
            }
            JoinStatus::AlreadyMember => {
                if let Some(s) = snapshot {
                    self.complete_join(s, out);
                }
            }
            JoinStatus::ConfigChanged | JoinStatus::NotReady => {
                join.phase = JoinPhase::Idle;
                join.deadline = self.now + self.settings.join_timeout_ms / 4;
            }
        }
    }

    fn on_join_resp(
        &mut self,
        status: JoinStatus,
        snapshot: Option<ConfigSnapshot>,
        out: &mut Vec<Action>,
    ) {
        if self.status != NodeStatus::Joining {
            return;
        }
        match (status, snapshot) {
            (JoinStatus::SafeToJoin | JoinStatus::AlreadyMember, Some(s)) => {
                self.complete_join(s, out);
            }
            _ => {
                if let Some(join) = &mut self.join {
                    join.phase = JoinPhase::Idle;
                    join.deadline = self.now;
                }
            }
        }
    }

    fn complete_join(&mut self, snapshot: ConfigSnapshot, out: &mut Vec<Action>) {
        let cfg = self.cache.from_snapshot(&snapshot);
        if !cfg.contains(self.me.id) {
            return; // Defensive: a confirmation must include us.
        }
        self.status = NodeStatus::Active;
        self.join = None;
        self.install(Arc::clone(&cfg));
        self.trace.push(self.now, EventKind::Joined, cfg.id().0, 0);
        out.push(Action::Joined { config: cfg });
    }

    // ------------------------------------------------------------------
    // Active-node periodic work
    // ------------------------------------------------------------------

    fn tick_active(&mut self, out: &mut Vec<Action>) {
        // 1. Drive the edge failure detector (probes coalesce with the
        //    rest of this tick's traffic through the shared outbox).
        self.fd.tick(self.now, &mut self.outbox);
        for (id, addr) in self.fd.take_faulty() {
            self.trace.push(self.now, EventKind::ProbeTimeout, id.digest(), 0);
            self.originate_remove_alerts(id, addr);
        }

        // 2. Reinforcement rule (§4.2): echo REMOVEs for subjects stuck in
        //    the unstable region past the timeout.
        self.reinforce();

        // 3. Cut detection / voting / decisions.
        self.post_process(out);

        // 4. Consensus fallback management.
        self.drive_classic_fallback(out);

        // 5. Dissemination round.
        let votes = if self.diss.mode() == BroadcastMode::Gossip {
            self.fast.vote_states()
        } else {
            Vec::new()
        };
        self.diss.tick(self.now, &votes, &mut self.outbox);
    }

    /// Queues REMOVE alerts for a faulty subject on every ring this node
    /// observes it on.
    fn originate_remove_alerts(&mut self, id: NodeId, addr: Endpoint) {
        let Some(rank) = self.config.rank_of(id) else {
            return;
        };
        let rings = self.topology.rings_observing(self.my_rank, rank as u32);
        self.originate(GossipItem {
            subject_id: id,
            subject_addr: addr,
            status: EdgeStatus::Down,
            rings: rings.iter().fold(0, |m, &r| m | 1 << r),
            metadata: crate::metadata::Metadata::new(),
        });
    }

    /// Applies and queues for dissemination this node's own alerts about
    /// one subject. Returns whether any of its rings was new.
    fn originate(&mut self, item: GossipItem) -> bool {
        if !self.admissible(&item) {
            return false;
        }
        let fresh = self.cut.record_mask(&item, self.now);
        if fresh == 0 {
            return false;
        }
        self.metrics.alerts_originated += fresh.count_ones() as u64;
        self.trace.push(
            self.now,
            EventKind::AlertOriginated,
            item.subject_id.digest(),
            (item.status == EdgeStatus::Up) as u64,
        );
        self.note_applied(item.subject_id, item.status, fresh);
        let me = self.me.id;
        self.diss.originate(me, GossipItem { rings: fresh, ..item });
        true
    }

    fn reinforce(&mut self) {
        let timeout = self.settings.reinforce_timeout_ms;
        let candidates: Vec<_> = self
            .cut
            .unstable_subjects()
            .into_iter()
            .filter(|s| {
                self.now.saturating_sub(s.since) >= timeout && !self.reinforced.contains(&s.id)
            })
            .collect();
        for s in candidates {
            self.reinforced.insert(s.id);
            let my_rings: Vec<u8> = match self.config.rank_of(s.id) {
                Some(rank) => self.topology.rings_observing(self.my_rank, rank as u32),
                None => self
                    .topology
                    .joiner_observers(self.config.id(), s.id)
                    .into_iter()
                    .filter(|e| e.rank == self.my_rank)
                    .map(|e| e.ring)
                    .collect(),
            };
            let rings = my_rings.iter().fold(0u64, |m, &r| m | 1 << r) & s.missing;
            if rings == 0 {
                continue;
            }
            let metadata = match s.status {
                EdgeStatus::Up => self.cut.metadata(s.id),
                EdgeStatus::Down => crate::metadata::Metadata::new(),
            };
            let echoed = self.originate(GossipItem {
                subject_id: s.id,
                subject_addr: s.addr,
                status: s.status,
                rings,
                metadata,
            });
            if echoed {
                self.metrics.reinforcements += 1;
                self.trace.push(self.now, EventKind::Reinforce, s.id.digest(), 0);
            }
        }
    }

    /// Whether a gossip item may be applied in the current configuration:
    /// its mask names at least one ring and only rings `< K`, and its
    /// status matches the subject's membership (JOIN for a non-member,
    /// REMOVE for a member).
    ///
    /// Nothing here checks who alerted. An item names no observer, and
    /// neither check would stop a forger: before items, an alert's
    /// `observer` was only checked to be a member, so any member could
    /// forge any alert, and a ring index `< K` is no weaker.
    fn admissible(&self, item: &GossipItem) -> bool {
        let subject_is_member = self.config.contains(item.subject_id);
        item.rings != 0
            && item.rings & !ring_mask(self.settings.k) == 0
            && subject_is_member == (item.status == EdgeStatus::Down)
    }

    /// Validates and records one alert of a unicast `AlertBatch`.
    fn apply_alert(&mut self, alert: &Alert) {
        if alert.config_id != self.config.id() {
            return;
        }
        if !self.config.contains(alert.observer) {
            return;
        }
        let subject_is_member = self.config.contains(alert.subject_id);
        let valid = match alert.status {
            EdgeStatus::Up => !subject_is_member,
            EdgeStatus::Down => subject_is_member,
        };
        if !valid {
            return;
        }
        if self.cut.record(alert, self.now) {
            self.note_applied(alert.subject_id, alert.status, 1);
        }
    }

    /// Counts the `fresh` rings about `subject` the cut detector just
    /// applied.
    fn note_applied(&mut self, subject: NodeId, status: EdgeStatus, fresh: u64) {
        self.metrics.alerts_applied += fresh.count_ones() as u64;
        self.first_alert_at.get_or_insert(self.now);
        self.trace.push(
            self.now,
            EventKind::AlertApplied,
            subject.digest(),
            (status == EdgeStatus::Up) as u64,
        );
    }

    /// Implicit alerts, proposal emission, fast-path voting, and decision
    /// application. Called after every batch of state changes.
    fn post_process(&mut self, out: &mut Vec<Action>) {
        if self.status != NodeStatus::Active {
            return;
        }
        // Implicit alerts (§4.2 liveness rule 1).
        if self.cut.unstable_count() > 0 {
            let topo = Arc::clone(&self.topology);
            let cfg = Arc::clone(&self.config);
            let applied = self.cut.apply_implicit_alerts(
                move |s| {
                    let edges = match cfg.rank_of(s) {
                        Some(rank) => topo.observers_of(rank as u32),
                        None => topo.joiner_observers(cfg.id(), s),
                    };
                    edges
                        .into_iter()
                        .map(|e| (e.ring, cfg.member_at(e.rank as usize).id))
                        .collect()
                },
                self.now,
            );
            self.metrics.implicit_alerts += applied as u64;
            if applied > 0 {
                self.trace.push(self.now, EventKind::ImplicitAlert, applied as u64, 0);
            }
        }

        // Propose and cast the (single) fast-path vote.
        if self.fast.my_vote().is_none() {
            if let Some(p) = self.cut.proposal() {
                let p = self.cap_bootstrap_proposal(p);
                self.metrics.proposals += 1;
                self.trace
                    .push(self.now, EventKind::CutProposal, self.config.id().0, p.len() as u64);
                let shared = Arc::new(p.clone());
                let state = self.fast.vote(p).expect("first vote must be accepted");
                self.classic.record_fast_vote(Arc::clone(&shared));
                self.arm_consensus_deadline();
                if self.diss.mode() == BroadcastMode::UnicastAll {
                    let state = Arc::new(state);
                    let body = Some(shared);
                    let config_id = self.config.id();
                    self.send_all_peers(out, || Message::Vote {
                        config_id,
                        state: Arc::clone(&state),
                        body: body.clone(),
                    });
                }
            }
        }

        // Apply a fast decision (or fetch its body).
        if let Some(hash) = self.fast.decided_hash() {
            if let Some(p) = self.fast.decision() {
                self.decide(p, true, out);
            } else if self.body_requested.insert(hash) {
                let config_id = self.config.id();
                for to in self.diss.random_peers(2) {
                    self.send(out, to, Message::NeedProposal { config_id, hash });
                }
            }
        }
    }

    /// The very first view change of a fresh cluster admits only a small
    /// batch so a Paxos quorum forms quickly (paper §7, Figure 7:
    /// 1 -> 5 -> N).
    fn cap_bootstrap_proposal(&self, p: Proposal) -> Proposal {
        if self.config.len() > 1 || p.len() <= self.settings.bootstrap_batch {
            return p;
        }
        let items = p.items()[..self.settings.bootstrap_batch].to_vec();
        Proposal::from_items(p.config_id(), items)
    }

    fn arm_consensus_deadline(&mut self) {
        if self.consensus_deadline.is_none() {
            let jitter = self
                .rng
                .gen_range(self.settings.consensus_fallback_jitter_ms.max(1));
            self.consensus_deadline =
                Some(self.now + self.settings.consensus_fallback_base_ms + jitter);
        }
    }

    // ------------------------------------------------------------------
    // Classic Paxos fallback (§4.3)
    // ------------------------------------------------------------------

    fn drive_classic_fallback(&mut self, out: &mut Vec<Action>) {
        if self.status != NodeStatus::Active || self.fast.decided_hash().is_some() {
            return;
        }
        let due = match (self.classic_round, self.consensus_deadline, self.classic_deadline) {
            (0, Some(d), _) => self.now >= d || self.fast.fast_path_impossible(),
            (r, _, Some(d)) if r > 0 => self.now >= d,
            _ => false,
        };
        if !due {
            return;
        }
        self.classic_round += 1;
        let jitter = self.rng.gen_range(1000);
        self.classic_deadline =
            Some(self.now + self.settings.classic_round_timeout_ms + jitter);
        let coord = ClassicPaxos::coordinator_of(self.config.len(), self.classic_round);
        if coord != self.my_rank {
            return;
        }
        let rank = self.classic.start_round(self.classic_round);
        let config_id = self.config.id();
        self.send_all_peers(out, || Message::Phase1a { config_id, rank });
        // Self-promise.
        if let Some(promise) = self.classic.on_phase1a(rank) {
            self.coordinator_on_promise(rank, promise, out);
        }
    }

    fn coordinator_on_promise(
        &mut self,
        rank: crate::paxos::Rank,
        promise: Promise,
        out: &mut Vec<Action>,
    ) {
        let fallback = self
            .fast
            .my_vote_body()
            .or_else(|| self.cut.proposal().map(Arc::new));
        match self.classic.on_promise(rank, promise, fallback) {
            CoordinatorStep::SendPhase2a(value) => {
                let config_id = self.config.id();
                self.send_all_peers(out, || Message::Phase2a {
                    config_id,
                    rank,
                    value: Arc::clone(&value),
                });
                // Self-accept.
                if self.classic.on_phase2a(rank, Arc::clone(&value)) {
                    self.fast.learn_body(&value);
                    self.coordinator_on_phase2b(rank, self.my_rank, out);
                }
            }
            CoordinatorStep::Decided(_) | CoordinatorStep::Idle => {}
        }
    }

    fn coordinator_on_phase2b(
        &mut self,
        rank: crate::paxos::Rank,
        sender: u32,
        out: &mut Vec<Action>,
    ) {
        if let CoordinatorStep::Decided(value) = self.classic.on_phase2b(rank, sender) {
            let config_id = self.config.id();
            self.send_all_peers(out, || Message::Decision {
                config_id,
                proposal: Arc::clone(&value),
            });
            self.decide(value, false, out);
        }
    }

    // ------------------------------------------------------------------
    // Decision and view installation
    // ------------------------------------------------------------------

    fn decide(&mut self, proposal: Arc<Proposal>, fast_path: bool, out: &mut Vec<Action>) {
        if proposal.config_id() != self.config.id() || self.status != NodeStatus::Active {
            return;
        }
        let prev = self.config.id();
        let new_cfg = self.cache.apply(&self.config, &proposal);
        let (joined, removed) = proposal.partition_ids();
        if fast_path {
            self.metrics.fast_decisions += 1;
            self.trace
                .push(self.now, EventKind::FastDecision, prev.0, proposal.len() as u64);
        } else {
            self.metrics.classic_decisions += 1;
            self.trace
                .push(self.now, EventKind::ClassicDecision, prev.0, proposal.len() as u64);
        }
        self.metrics.view_changes += 1;
        let pending = std::mem::take(&mut self.pending_joiners);
        if removed.contains(&self.me.id) {
            self.status = NodeStatus::Kicked;
            self.trace.push(self.now, EventKind::Kicked, prev.0, 0);
            out.push(Action::Kicked);
            return;
        }
        self.install(Arc::clone(&new_cfg));
        out.push(Action::View(ViewChange {
            previous_id: prev,
            configuration: Arc::clone(&new_cfg),
            joined,
            removed,
        }));
        // Confirm or bounce the joiners that contacted this node.
        let snapshot = ConfigSnapshot::of(&self.config);
        for (jid, member) in pending {
            let msg = if new_cfg.contains(jid) {
                Message::JoinResp {
                    status: JoinStatus::SafeToJoin,
                    snapshot: Some(snapshot.clone()),
                }
            } else {
                Message::JoinResp {
                    status: JoinStatus::ConfigChanged,
                    snapshot: None,
                }
            };
            self.send(out, member.addr, msg);
        }
    }

    fn install(&mut self, cfg: Arc<Configuration>) {
        self.my_rank = cfg
            .rank_of(self.me.id)
            .expect("install requires membership") as u32;
        self.topology = self.cache.get(&cfg, self.settings.k);
        self.cut.reset(cfg.id());
        self.fast = FastRound::new(cfg.len(), self.my_rank);
        self.classic = ClassicPaxos::new(cfg.len(), self.my_rank);
        self.consensus_deadline = None;
        self.classic_round = 0;
        self.classic_deadline = None;
        self.reinforced.clear();
        self.body_requested.clear();
        let subjects = self
            .topology
            .subjects_of(self.my_rank)
            .into_iter()
            .map(|e| {
                let m = cfg.member_at(e.rank as usize);
                (m.id, m.addr)
            })
            .collect();
        self.fd.set_subjects(subjects, self.now);
        self.diss.set_view(&cfg, &self.me.addr);
        self.view_log.push(cfg.id());
        if let Some(t0) = self.first_alert_at.take() {
            self.metrics
                .detect_to_install
                .record(self.now.saturating_sub(t0));
        }
        self.trace
            .push(self.now, EventKind::ViewInstall, cfg.id().0, cfg.len() as u64);
        self.config = cfg;
    }

    fn install_snapshot(&mut self, snapshot: ConfigSnapshot, out: &mut Vec<Action>) {
        if snapshot.seq <= self.config.seq() {
            return;
        }
        let cfg = self.cache.from_snapshot(&snapshot);
        if !cfg.contains(self.me.id) {
            // The cluster moved on without us: logically depart (§4.3).
            self.status = NodeStatus::Kicked;
            self.trace.push(self.now, EventKind::Kicked, self.config.id().0, 0);
            out.push(Action::Kicked);
            return;
        }
        let prev = self.config.id();
        let old = Arc::clone(&self.config);
        let joined = cfg
            .members()
            .iter()
            .filter(|m| !old.contains(m.id))
            .map(|m| m.id)
            .collect();
        let removed = old
            .members()
            .iter()
            .filter(|m| !cfg.contains(m.id))
            .map(|m| m.id)
            .collect();
        self.metrics.view_changes += 1;
        self.install(Arc::clone(&cfg));
        out.push(Action::View(ViewChange {
            previous_id: prev,
            configuration: cfg,
            joined,
            removed,
        }));
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    fn on_message(&mut self, from: Endpoint, msg: Message, out: &mut Vec<Action>) {
        match msg {
            // ---- Batched frames: unpack in order ----
            Message::Batch { msgs } => {
                // `msgs_received` counts logical messages; the frame
                // itself was already counted once by `handle`.
                self.metrics.msgs_received += msgs.len().saturating_sub(1) as u64;
                for m in msgs {
                    self.on_message(from, m, out);
                }
            }

            // ---- Join protocol, member side ----
            Message::PreJoinReq { joiner } => self.on_pre_join_req(from, joiner, out),
            Message::JoinReq {
                joiner,
                config_id,
                ring,
            } => self.on_join_req(from, joiner, config_id, ring, out),

            // ---- Join protocol, joiner side ----
            Message::PreJoinResp {
                status,
                config_id,
                observers,
                snapshot,
            } => self.on_pre_join_resp(status, config_id, observers, snapshot, out),
            Message::JoinResp { status, snapshot } => self.on_join_resp(status, snapshot, out),

            // ---- Dissemination ----
            Message::AlertBatch { config_id, alerts } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    for a in alerts.iter() {
                        self.apply_alert(a);
                    }
                    self.post_process(out);
                }
            }
            Message::Gossip {
                config_id,
                config_seq,
                items,
                votes,
            } => self.on_gossip(from, config_id, config_seq, &items, &votes, out),
            Message::Vote {
                config_id,
                state,
                body,
            } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    self.fast.merge(state.hash, &state.bitmap, body.as_deref());
                    self.arm_consensus_deadline();
                    self.post_process(out);
                }
            }
            Message::NeedProposal { config_id, hash } => {
                if config_id == self.config.id() {
                    if let Some(p) = self.fast.body_of(hash) {
                        self.send(
                            out,
                            from,
                            Message::ProposalBody {
                                config_id,
                                proposal: p,
                            },
                        );
                    }
                }
            }
            Message::ProposalBody {
                config_id,
                proposal,
            } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    self.fast.learn_body(&proposal);
                    self.post_process(out);
                }
            }

            // ---- Classic Paxos ----
            Message::Phase1a { config_id, rank } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    if let Some(promise) = self.classic.on_phase1a(rank) {
                        let coord = self
                            .config
                            .member_at(rank.coordinator as usize)
                            .addr;
                        self.send(
                            out,
                            coord,
                            Message::Phase1b {
                                config_id,
                                rank,
                                sender: promise.sender,
                                vrnd: promise.vrnd,
                                vval: promise.vval,
                            },
                        );
                    }
                }
            }
            Message::Phase1b {
                config_id,
                rank,
                sender,
                vrnd,
                vval,
            } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    let promise = Promise { sender, vrnd, vval };
                    self.coordinator_on_promise(rank, promise, out);
                }
            }
            Message::Phase2a {
                config_id,
                rank,
                value,
            } => {
                if self.status == NodeStatus::Active && config_id == self.config.id()
                    && self.classic.on_phase2a(rank, Arc::clone(&value)) {
                        self.fast.learn_body(&value);
                        let coord = self
                            .config
                            .member_at(rank.coordinator as usize)
                            .addr;
                        self.send(out, coord, Message::Phase2b { config_id, rank, sender: self.my_rank });
                    }
            }
            Message::Phase2b {
                config_id,
                rank,
                sender,
            } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    self.coordinator_on_phase2b(rank, sender, out);
                }
            }
            Message::Decision {
                config_id,
                proposal,
            } => {
                if self.status == NodeStatus::Active && config_id == self.config.id() {
                    self.decide(proposal, false, out);
                }
            }

            // ---- Failure detection ----
            Message::Probe { seq } => {
                let config_seq = self.config.seq();
                self.send(out, from, Message::ProbeAck { seq, config_seq });
            }
            Message::ProbeAck { seq, config_seq } => {
                if self.status == NodeStatus::Active {
                    self.fd.on_probe_ack(&from, seq, self.now);
                    if config_seq > self.config.seq() {
                        let have_seq = self.config.seq();
                        self.send(out, from, Message::ConfigPull { have_seq });
                    }
                }
            }

            // ---- Voluntary departure ----
            Message::Leave { subject } => {
                if self.status == NodeStatus::Active {
                    if let Some(member) = self.config.member_by_id(subject) {
                        let addr = member.addr;
                        self.originate_remove_alerts(subject, addr);
                        self.post_process(out);
                    }
                }
            }

            // ---- Configuration catch-up ----
            Message::ConfigPull { have_seq } => {
                if self.status == NodeStatus::Active && self.config.seq() > have_seq {
                    let snapshot = ConfigSnapshot::of(&self.config);
                    self.send(out, from, Message::ConfigPush { snapshot });
                }
            }
            Message::ConfigPush { snapshot } => {
                if self.status == NodeStatus::Active {
                    if snapshot.seq <= self.config.seq() {
                        self.metrics.config_pushes_stale += 1;
                    }
                    self.install_snapshot(snapshot, out);
                }
            }
        }
    }

    fn on_pre_join_req(&mut self, from: Endpoint, joiner: Member, out: &mut Vec<Action>) {
        if self.status != NodeStatus::Active {
            self.send(
                out,
                from,
                Message::PreJoinResp {
                    status: JoinStatus::NotReady,
                    config_id: ConfigId::NONE,
                    observers: Vec::new(),
                    snapshot: None,
                },
            );
            return;
        }
        if self.config.contains_addr(&joiner.addr) || self.config.contains(joiner.id) {
            let snapshot = ConfigSnapshot::of(&self.config);
            self.send(
                out,
                from,
                Message::PreJoinResp {
                    status: JoinStatus::AlreadyMember,
                    config_id: self.config.id(),
                    observers: Vec::new(),
                    snapshot: Some(snapshot),
                },
            );
            return;
        }
        let observers: Vec<Endpoint> = self
            .topology
            .joiner_observers(self.config.id(), joiner.id)
            .into_iter()
            .map(|e| self.config.member_at(e.rank as usize).addr)
            .collect();
        let config_id = self.config.id();
        self.send(
            out,
            from,
            Message::PreJoinResp {
                status: JoinStatus::SafeToJoin,
                config_id,
                observers,
                snapshot: None,
            },
        );
    }

    fn on_join_req(
        &mut self,
        from: Endpoint,
        joiner: Member,
        config_id: ConfigId,
        ring: u8,
        out: &mut Vec<Action>,
    ) {
        if self.status != NodeStatus::Active {
            self.send(
                out,
                from,
                Message::JoinResp {
                    status: JoinStatus::NotReady,
                    snapshot: None,
                },
            );
            return;
        }
        if self.config.contains_addr(&joiner.addr) {
            let snapshot = ConfigSnapshot::of(&self.config);
            self.send(
                out,
                from,
                Message::JoinResp {
                    status: JoinStatus::AlreadyMember,
                    snapshot: Some(snapshot),
                },
            );
            return;
        }
        if config_id != self.config.id() {
            self.send(
                out,
                from,
                Message::JoinResp {
                    status: JoinStatus::ConfigChanged,
                    snapshot: None,
                },
            );
            return;
        }
        self.pending_joiners.insert(joiner.id, joiner.clone());
        self.originate(GossipItem {
            subject_id: joiner.id,
            subject_addr: joiner.addr,
            status: EdgeStatus::Up,
            rings: 1u64.checked_shl(ring as u32).unwrap_or(0),
            metadata: joiner.metadata.clone(),
        });
        self.post_process(out);
    }

    fn on_gossip(
        &mut self,
        from: Endpoint,
        config_id: ConfigId,
        config_seq: u64,
        items: &[Arc<GossipItem>],
        votes: &[crate::paxos::VoteState],
        out: &mut Vec<Action>,
    ) {
        if self.status != NodeStatus::Active {
            return;
        }
        if config_id != self.config.id() {
            // Heal laggards in either direction (§4.3 hand-off).
            if config_seq > self.config.seq() {
                let have_seq = self.config.seq();
                self.send(out, from, Message::ConfigPull { have_seq });
            } else if config_seq < self.config.seq() {
                let snapshot = ConfigSnapshot::of(&self.config);
                self.send(out, from, Message::ConfigPush { snapshot });
            }
            return;
        }
        // An item's rings this node had not heard are both what it applies
        // and what makes it relay the item; a malformed item is neither
        // applied nor relayed.
        for item in items {
            if !self.admissible(item) {
                self.metrics.gossip_items_refused += 1;
                continue;
            }
            let fresh = self.cut.record_mask(item, self.now);
            if fresh != 0 {
                self.note_applied(item.subject_id, item.status, fresh);
                self.diss.relay(item);
            }
        }
        if !votes.is_empty() {
            for v in votes {
                self.fast.merge(v.hash, &v.bitmap, None);
            }
            self.arm_consensus_deadline();
        }
        self.post_process(out);
    }
}

// ---------------------------------------------------------------------------
// Tests: an in-memory instant-delivery harness exercising whole clusters.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    const TICK: u64 = 100;

    struct Harness {
        nodes: Vec<Node>,
        by_addr: HashMap<Endpoint, usize>,
        /// Crashed node indices: messages to/from them vanish.
        crashed: HashSet<usize>,
        now: u64,
        queue: VecDeque<(Endpoint, Endpoint, Message)>, // (from, to, msg)
        events: Vec<(usize, Action)>,
    }

    fn member(i: u128) -> Member {
        Member::new(NodeId::from_u128(i), Endpoint::new(format!("n{i}"), 1))
    }

    impl Harness {
        fn static_cluster(n: u128, settings: Settings) -> Harness {
            let members: Vec<Member> = (1..=n).map(member).collect();
            let cfg = Configuration::bootstrap(members.clone());
            let cache = TopologyCache::new();
            let nodes: Vec<Node> = members
                .iter()
                .map(|m| {
                    Node::with_parts(
                        m.clone(),
                        settings.clone(),
                        NodeStatus::Active,
                        Arc::clone(&cfg),
                        None,
                        None,
                        Some(cache.clone()),
                        Some(m.id.digest()),
                    )
                })
                .collect();
            let by_addr = nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (*n.addr(), i))
                .collect();
            Harness {
                nodes,
                by_addr,
                crashed: HashSet::new(),
                now: 0,
                queue: VecDeque::new(),
                events: Vec::new(),
            }
        }

        fn add_joiner(&mut self, m: Member, seeds: Vec<Endpoint>, settings: Settings) {
            let node = Node::new_joiner(m, settings, seeds);
            self.by_addr.insert(*node.addr(), self.nodes.len());
            self.nodes.push(node);
        }

        fn dispatch(&mut self, i: usize, actions: Vec<Action>) {
            let from = *self.nodes[i].addr();
            for a in actions {
                match a {
                    Action::Send { to, msg } => {
                        self.queue.push_back((from, to, msg));
                    }
                    other => self.events.push((i, other)),
                }
            }
        }

        fn drain(&mut self) {
            while let Some((from, to, msg)) = self.queue.pop_front() {
                let Some(&dst) = self.by_addr.get(&to) else {
                    continue;
                };
                if self.crashed.contains(&dst) {
                    continue;
                }
                if let Some(&src) = self.by_addr.get(&from) {
                    if self.crashed.contains(&src) {
                        continue;
                    }
                }
                let mut actions = Vec::new();
                self.nodes[dst].handle(Event::Receive { from, msg }, &mut actions);
                self.dispatch(dst, actions);
            }
        }

        fn step(&mut self) {
            self.now += TICK;
            for i in 0..self.nodes.len() {
                if self.crashed.contains(&i) {
                    continue;
                }
                let mut actions = Vec::new();
                self.nodes[i].handle(Event::Tick { now_ms: self.now }, &mut actions);
                self.dispatch(i, actions);
            }
            self.drain();
        }

        fn run_until(&mut self, max_ms: u64, mut pred: impl FnMut(&Harness) -> bool) -> bool {
            let deadline = self.now + max_ms;
            while self.now < deadline {
                self.step();
                if pred(self) {
                    return true;
                }
            }
            false
        }
    }

    fn settings() -> Settings {
        Settings {
            // Speed up tests.
            consensus_fallback_base_ms: 2_000,
            consensus_fallback_jitter_ms: 500,
            reinforce_timeout_ms: 5_000,
            ..Settings::default()
        }
    }

    /// An active node of a four-member view at sequence 3, and that view.
    fn node_of_seq_3_view() -> (Node, Arc<Configuration>) {
        let cfg = Configuration::from_parts(ConfigId(0xC0F), 3, (1..=4).map(member).collect());
        let me = cfg.member_at(0).clone();
        let node = Node::with_parts(
            me,
            settings(),
            NodeStatus::Active,
            Arc::clone(&cfg),
            None,
            None,
            None,
            None,
        );
        (node, cfg)
    }

    /// The snapshot carried by the one message `node` answers `msg` with.
    fn answered_snapshot(node: &mut Node, msg: Message) -> ConfigSnapshot {
        let mut out = Vec::new();
        let from = Endpoint::new("peer", 1);
        node.handle(Event::Receive { from, msg }, &mut out);
        match out.as_slice() {
            [Action::Send {
                msg:
                    Message::ConfigPush { snapshot }
                    | Message::PreJoinResp {
                        snapshot: Some(snapshot),
                        ..
                    }
                    | Message::JoinResp {
                        snapshot: Some(snapshot),
                        ..
                    },
                ..
            }] => snapshot.clone(),
            other => panic!("expected one snapshot-carrying send, got {other:?}"),
        }
    }

    #[test]
    fn catch_up_snapshots_share_the_view_members() {
        // A laggard's gossip and a ConfigPull are answered with the
        // sender's member list, not a copy of it.
        let (mut node, cfg) = node_of_seq_3_view();
        let gossip = Message::Gossip {
            config_id: ConfigId(0xB0B),
            config_seq: 1,
            items: Vec::new().into(),
            votes: Vec::new().into(),
        };
        for msg in [gossip, Message::ConfigPull { have_seq: 2 }] {
            let snapshot = answered_snapshot(&mut node, msg);
            assert_eq!((snapshot.id, snapshot.seq), (cfg.id(), 3));
            assert!(Arc::ptr_eq(&snapshot.members, cfg.shared_members()));
        }
    }

    fn gossip_item(subject: u128, status: EdgeStatus, rings: u64) -> Arc<GossipItem> {
        Arc::new(GossipItem {
            subject_id: NodeId::from_u128(subject),
            subject_addr: Endpoint::new(format!("n{subject}"), 1),
            status,
            rings,
            metadata: crate::metadata::Metadata::new(),
        })
    }

    /// Delivers one gossip message in `cfg` carrying `items` to `node`.
    fn deliver_items(node: &mut Node, cfg: &Configuration, items: Vec<Arc<GossipItem>>) {
        let msg = Message::Gossip {
            config_id: cfg.id(),
            config_seq: cfg.seq(),
            items: items.into(),
            votes: Vec::new().into(),
        };
        let from = Endpoint::new("n2", 1);
        node.handle(Event::Receive { from, msg }, &mut Vec::new());
    }

    /// The gossip items `node` sends on a tick at `now_ms`.
    fn relayed_items(node: &mut Node, now_ms: u64) -> Vec<Arc<GossipItem>> {
        let mut out = Vec::new();
        node.handle(Event::Tick { now_ms }, &mut out);
        let mut items = Vec::new();
        let mut note = |m: &Message| {
            if let Message::Gossip { items: sent, .. } = m {
                items.extend(sent.iter().cloned());
            }
        };
        for a in &out {
            match a {
                Action::Send { msg: Message::Batch { msgs }, .. } => msgs.iter().for_each(&mut note),
                Action::Send { msg, .. } => note(msg),
                _ => {}
            }
        }
        items
    }

    #[test]
    fn malformed_gossip_items_are_refused_counted_and_never_relayed() {
        let (mut node, cfg) = node_of_seq_3_view();
        let k = node.settings().k;
        let refused = vec![
            gossip_item(2, EdgeStatus::Down, 0),      // no ring
            gossip_item(2, EdgeStatus::Down, 1 << k), // a ring >= K
            gossip_item(3, EdgeStatus::Up, 0b1),      // JOIN for a member
            gossip_item(99, EdgeStatus::Down, 0b1),   // REMOVE for a non-member
        ];
        deliver_items(&mut node, &cfg, refused);
        assert_eq!(node.metrics().gossip_items_refused, 4);
        assert_eq!(node.metrics().alerts_applied, 0);
        assert!(relayed_items(&mut node, 0).is_empty(), "a refused item is not relayed");

        // A well-formed item is applied and relayed as received.
        let good = gossip_item(2, EdgeStatus::Down, 0b101);
        deliver_items(&mut node, &cfg, vec![Arc::clone(&good)]);
        assert_eq!(node.metrics().alerts_applied, 2);
        assert_eq!(node.metrics().gossip_items_refused, 4);
        let relayed = relayed_items(&mut node, 1_000);
        assert!(!relayed.is_empty() && relayed.iter().all(|i| Arc::ptr_eq(i, &good)));
    }

    #[test]
    fn duplicate_rings_are_neither_applied_nor_relayed_again() {
        let (mut node, cfg) = node_of_seq_3_view();
        deliver_items(&mut node, &cfg, vec![gossip_item(2, EdgeStatus::Down, 0b011)]);
        let _ = relayed_items(&mut node, 0);
        // Only ring 2 is new: the entry gains it, ring 0 and 1 are not
        // applied twice.
        deliver_items(&mut node, &cfg, vec![gossip_item(2, EdgeStatus::Down, 0b110)]);
        assert_eq!(node.metrics().alerts_applied, 3);
        let relayed = relayed_items(&mut node, 1_000);
        assert!(relayed.iter().all(|i| i.rings == 0b111));
    }

    #[test]
    fn config_pushes_at_or_behind_the_view_are_counted() {
        let (mut node, cfg) = node_of_seq_3_view();
        let push = |seq: u64| Message::ConfigPush {
            snapshot: ConfigSnapshot {
                id: ConfigId(0xC0F + seq),
                seq,
                members: Arc::clone(cfg.shared_members()),
            },
        };
        for seq in [2, 3, 4, 4] {
            let from = Endpoint::new("n2", 1);
            node.handle(Event::Receive { from, msg: push(seq) }, &mut Vec::new());
        }
        // seq 2 and 3 reach a node at seq 3; seq 4 installs once, then is
        // stale itself.
        assert_eq!(node.metrics().config_pushes_stale, 3);
        assert_eq!(node.configuration().seq(), 4);
        assert_eq!(node.view_history().len(), 2);
    }

    #[test]
    fn already_member_snapshots_share_the_view_members() {
        let (mut node, cfg) = node_of_seq_3_view();
        let pre_join = Message::PreJoinReq { joiner: member(2) };
        let join = Message::JoinReq {
            joiner: member(3),
            config_id: cfg.id(),
            ring: 0,
        };
        for msg in [pre_join, join] {
            let snapshot = answered_snapshot(&mut node, msg);
            assert!(Arc::ptr_eq(&snapshot.members, cfg.shared_members()));
        }
    }

    #[test]
    fn crashed_node_is_removed_and_views_agree() {
        let mut h = Harness::static_cluster(8, settings());
        // Let FDs settle.
        h.run_until(3_000, |_| false);
        h.crashed.insert(3);
        let crashed_id = NodeId::from_u128(4);
        let ok = h.run_until(60_000, |h| {
            (0..h.nodes.len())
                .filter(|i| !h.crashed.contains(i))
                .all(|i| {
                    h.nodes[i].configuration().len() == 7
                        && !h.nodes[i].configuration().contains(crashed_id)
                })
        });
        assert!(ok, "all survivors must converge to a 7-node view");
        // Consistency: identical final configuration ids and view history.
        let views: Vec<_> = (0..h.nodes.len())
            .filter(|i| !h.crashed.contains(i))
            .map(|i| h.nodes[i].configuration().id())
            .collect();
        assert!(views.windows(2).all(|w| w[0] == w[1]));
        let histories: Vec<_> = (0..h.nodes.len())
            .filter(|i| !h.crashed.contains(i))
            .map(|i| h.nodes[i].view_history().to_vec())
            .collect();
        assert!(histories.windows(2).all(|w| w[0] == w[1]));
        // Exactly one view change beyond the initial install.
        assert_eq!(histories[0].len(), 2);
    }

    #[test]
    fn multiple_simultaneous_crashes_removed_in_one_cut() {
        let mut h = Harness::static_cluster(12, settings());
        h.run_until(3_000, |_| false);
        for i in [2usize, 5, 9] {
            h.crashed.insert(i);
        }
        let ok = h.run_until(90_000, |h| {
            (0..h.nodes.len())
                .filter(|i| !h.crashed.contains(i))
                .all(|i| h.nodes[i].configuration().len() == 9)
        });
        assert!(ok, "survivors must converge to 9");
        // The multi-process cut should land in a single view change.
        let survivor = (0..h.nodes.len()).find(|i| !h.crashed.contains(i)).unwrap();
        assert_eq!(
            h.nodes[survivor].view_history().len(),
            2,
            "one cut, not three"
        );
    }

    #[test]
    fn joiner_joins_via_seed() {
        let seed_member = member(1);
        let s = settings();
        let mut h = Harness {
            nodes: vec![Node::new_seed(seed_member.clone(), s.clone())],
            by_addr: HashMap::new(),
            crashed: HashSet::new(),
            now: 0,
            queue: VecDeque::new(),
            events: Vec::new(),
        };
        h.by_addr.insert(seed_member.addr, 0);
        for i in 2..=4 {
            h.add_joiner(member(i), vec![seed_member.addr], s.clone());
        }
        let ok = h.run_until(60_000, |h| {
            h.nodes
                .iter()
                .all(|n| n.status() == NodeStatus::Active && n.configuration().len() == 4)
        });
        assert!(ok, "all joiners must become active with a 4-node view");
        let ids: Vec<_> = h.nodes.iter().map(|n| n.configuration().id()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        // The joiners observed Joined actions.
        let joined = h
            .events
            .iter()
            .filter(|(_, a)| matches!(a, Action::Joined { .. }))
            .count();
        assert_eq!(joined, 3);
    }

    #[test]
    fn join_and_crash_mix() {
        let mut h = Harness::static_cluster(6, settings());
        h.run_until(2_000, |_| false);
        h.add_joiner(member(100), vec![*h.nodes[0].addr()], settings());
        h.crashed.insert(2);
        let ok = h.run_until(90_000, |h| {
            (0..h.nodes.len()).filter(|i| !h.crashed.contains(i)).all(|i| {
                let cfg = h.nodes[i].configuration();
                h.nodes[i].status() == NodeStatus::Active
                    && cfg.len() == 6
                    && cfg.contains(NodeId::from_u128(100))
                    && !cfg.contains(NodeId::from_u128(3))
            })
        });
        assert!(ok, "join and removal must both land");
    }

    #[test]
    fn voluntary_leave_removes_node() {
        let mut h = Harness::static_cluster(8, settings());
        h.run_until(2_000, |_| false);
        let mut actions = Vec::new();
        h.nodes[5].leave(&mut actions);
        h.dispatch(5, actions);
        h.drain();
        assert_eq!(h.nodes[5].status(), NodeStatus::Left);
        h.crashed.insert(5); // The leaver shuts down.
        let ok = h.run_until(60_000, |h| {
            (0..h.nodes.len())
                .filter(|i| !h.crashed.contains(i))
                .all(|i| h.nodes[i].configuration().len() == 7)
        });
        assert!(ok, "leaver must be removed");
    }

    #[test]
    fn unicast_mode_also_converges() {
        let mut s = settings();
        s.use_gossip_broadcast = false;
        let mut h = Harness::static_cluster(8, s);
        h.run_until(2_000, |_| false);
        h.crashed.insert(1);
        let ok = h.run_until(60_000, |h| {
            (0..h.nodes.len())
                .filter(|i| !h.crashed.contains(i))
                .all(|i| h.nodes[i].configuration().len() == 7)
        });
        assert!(ok);
    }

    #[test]
    fn view_change_actions_report_cut() {
        let mut h = Harness::static_cluster(8, settings());
        h.run_until(2_000, |_| false);
        h.crashed.insert(7);
        h.run_until(60_000, |h| {
            (0..7).all(|i| h.nodes[i].configuration().len() == 7)
        });
        let views: Vec<&ViewChange> = h
            .events
            .iter()
            .filter_map(|(_, a)| match a {
                Action::View(v) => Some(v),
                _ => None,
            })
            .collect();
        assert!(!views.is_empty());
        for v in views {
            assert_eq!(v.removed, vec![NodeId::from_u128(8)]);
            assert!(v.joined.is_empty());
            assert_eq!(v.configuration.len(), 7);
        }
    }
}
