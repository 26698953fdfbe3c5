//! Logically centralized deployment mode, "Rapid-C" (paper §5).
//!
//! A small auxiliary ensemble `S` records the membership of a managed
//! cluster `C`, the way applications use ZooKeeper. Only three changes are
//! made to the decentralized protocol:
//!
//! 1. members of `C` keep monitoring each other over the K-ring topology,
//!    but report alerts only to the nodes of `S`;
//! 2. nodes of `S` run cut detection as before but execute the view-change
//!    consensus only among themselves;
//! 3. members of `C` learn of changes through notifications from `S` or by
//!    probing it periodically (the paper polls every 5 s).
//!
//! The resulting service inherits the stability and agreement properties of
//! the decentralized protocol with the reduced resiliency of any
//! centralized design: progress requires a majority of `S`.
//!
//! Two roles are provided: [`EnsembleNode`] (a member of `S`) and
//! [`EdgeAgent`] (a member of `C`).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::alert::{Alert, EdgeStatus};
use crate::config::{ConfigId, Configuration, Member};
use crate::cut::CutDetector;
use crate::fd::{EdgeFailureDetector, ProbeFailureDetector};
use crate::id::{Endpoint, NodeId};
use crate::membership::{Proposal, ViewChange};
use crate::metrics::NodeMetrics;
use crate::node::{Action, Event};
use crate::outbox::Outbox;
use crate::paxos::classic::{ClassicPaxos, CoordinatorStep, Promise};
use crate::paxos::fast::FastRound;
use crate::ring::{Topology, TopologyCache};
use crate::rng::Xoshiro256;
use crate::settings::Settings;
use crate::wire::{ConfigSnapshot, JoinStatus, Message};

// ===========================================================================
// Ensemble node
// ===========================================================================

/// A member of the auxiliary ensemble `S`: aggregates alerts about the
/// managed cluster `C`, runs cut detection, and drives view changes by
/// consensus **among the ensemble only**.
pub struct EnsembleNode {
    settings: Settings,
    me: Member,
    ensemble: Arc<Configuration>,
    my_rank: u32,
    managed: Arc<Configuration>,
    managed_topology: Arc<Topology>,
    cache: TopologyCache,
    cut: CutDetector,
    fast: FastRound,
    classic: ClassicPaxos,
    consensus_deadline: Option<u64>,
    classic_round: u32,
    classic_deadline: Option<u64>,
    /// Ordered so join confirmations go out in identical order every run.
    pending_joiners: BTreeMap<NodeId, Member>,
    rng: Xoshiro256,
    now: u64,
    metrics: NodeMetrics,
    /// Per-peer coalescing send buffer (one wire frame per destination
    /// per handled event).
    outbox: Outbox<Message>,
}

impl EnsembleNode {
    /// Creates an ensemble node. `ensemble` lists all members of `S`
    /// (including this one); the managed cluster starts empty.
    pub fn new(me: Member, ensemble: Vec<Member>, settings: Settings) -> Self {
        settings.validate().expect("invalid settings");
        let ensemble = Configuration::bootstrap(ensemble);
        let my_rank = ensemble
            .rank_of(me.id)
            .expect("ensemble node must be in the ensemble") as u32;
        let managed = Configuration::bootstrap(Vec::new());
        let cache = TopologyCache::new();
        let managed_topology = cache.get(&managed, settings.k);
        let cut = CutDetector::new(managed.id(), settings.k, settings.h, settings.l);
        let fast = FastRound::new(ensemble.len(), my_rank);
        let classic = ClassicPaxos::new(ensemble.len(), my_rank);
        let rng = Xoshiro256::seed_from_u64(me.id.digest() ^ 0xC3);
        EnsembleNode {
            outbox: Outbox::new(true),
            settings,
            me,
            my_rank,
            managed,
            managed_topology,
            cache,
            cut,
            fast,
            classic,
            consensus_deadline: None,
            classic_round: 0,
            classic_deadline: None,
            pending_joiners: BTreeMap::new(),
            rng,
            now: 0,
            metrics: NodeMetrics::default(),
            ensemble,
        }
    }

    /// The managed cluster's current configuration.
    pub fn managed_configuration(&self) -> Arc<Configuration> {
        Arc::clone(&self.managed)
    }

    /// Protocol counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
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

    /// Sends one message per ensemble peer, resolving addresses by rank
    /// (no peer list is materialised).
    fn send_ensemble_peers(&mut self, out: &mut Vec<Action>, mut make: impl FnMut() -> Message) {
        let ensemble = Arc::clone(&self.ensemble);
        for m in ensemble.members() {
            if m.id != self.me.id {
                self.send(out, m.addr, make());
            }
        }
    }

    /// Feeds one event into the ensemble state machine.
    pub fn handle(&mut self, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::Tick { now_ms } => {
                self.now = self.now.max(now_ms);
                self.post_process(out);
                self.drive_classic_fallback(out);
            }
            Event::Receive { from, msg } => {
                self.metrics.msgs_received += 1;
                self.on_message(from, msg, out);
            }
        }
        self.flush(out);
    }

    fn on_message(&mut self, from: Endpoint, msg: Message, out: &mut Vec<Action>) {
        match msg {
            Message::Batch { msgs } => {
                self.metrics.msgs_received += msgs.len().saturating_sub(1) as u64;
                for m in msgs {
                    self.on_message(from, m, out);
                }
            }
            Message::AlertBatch { config_id, alerts }
                if config_id == self.managed.id() => {
                    for a in alerts.iter() {
                        self.apply_alert(a);
                    }
                    self.post_process(out);
                }
            Message::PreJoinReq { joiner } => self.on_pre_join_req(from, joiner, out),
            Message::JoinReq {
                joiner,
                config_id,
                ring,
            } => self.on_join_req(from, joiner, config_id, ring, out),
            Message::Vote {
                config_id,
                state,
                body,
            }
                if config_id == self.managed.id() => {
                    self.fast.merge(state.hash, &state.bitmap, body.as_deref());
                    self.arm_consensus_deadline();
                    self.post_process(out);
                }
            Message::Phase1a { config_id, rank }
                if config_id == self.managed.id() => {
                    if let Some(p) = self.classic.on_phase1a(rank) {
                        let coord = self
                            .ensemble
                            .member_at(rank.coordinator as usize)
                            .addr;
                        self.send(
                            out,
                            coord,
                            Message::Phase1b {
                                config_id,
                                rank,
                                sender: p.sender,
                                vrnd: p.vrnd,
                                vval: p.vval,
                            },
                        );
                    }
                }
            Message::Phase1b {
                config_id,
                rank,
                sender,
                vrnd,
                vval,
            }
                if config_id == self.managed.id() => {
                    self.coordinator_on_promise(rank, Promise { sender, vrnd, vval }, out);
                }
            Message::Phase2a {
                config_id,
                rank,
                value,
            }
                if config_id == self.managed.id() && self.classic.on_phase2a(rank, Arc::clone(&value)) => {
                    self.fast.learn_body(&value);
                    let coord = self
                        .ensemble
                        .member_at(rank.coordinator as usize)
                        .addr;
                    self.send(
                        out,
                        coord,
                        Message::Phase2b {
                            config_id,
                            rank,
                            sender: self.my_rank,
                        },
                    );
                }
            Message::Phase2b {
                config_id,
                rank,
                sender,
            }
                if config_id == self.managed.id() => {
                    self.coordinator_on_phase2b(rank, sender, out);
                }
            Message::Decision {
                config_id,
                proposal,
            }
                if config_id == self.managed.id() => {
                    self.decide(proposal, false, out);
                }
            Message::ConfigPull { have_seq }
                if self.managed.seq() > have_seq => {
                    let snapshot = ConfigSnapshot::of(&self.managed);
                    self.send(out, from, Message::ConfigPush { snapshot });
                }
            Message::Probe { seq } => {
                let config_seq = self.managed.seq();
                self.send(out, from, Message::ProbeAck { seq, config_seq });
            }
            Message::Leave { subject } => {
                if let Some(m) = self.managed.member_by_id(subject) {
                    let addr = m.addr;
                    let rank = self.managed.rank_of(subject).unwrap() as u32;
                    // Synthesize REMOVE alerts on every ring (the leaver
                    // asked to go; observers need not time out first).
                    for ring in 0..self.settings.k as u8 {
                        let _ = rank;
                        let alert = Alert::remove(
                            self.me.id,
                            subject,
                            addr,
                            self.managed.id(),
                            ring,
                        );
                        self.apply_alert(&alert);
                        self.share_alert(&alert, out);
                    }
                    self.post_process(out);
                }
            }
            _ => {}
        }
    }

    fn on_pre_join_req(&mut self, from: Endpoint, joiner: Member, out: &mut Vec<Action>) {
        if self.managed.contains_addr(&joiner.addr) || self.managed.contains(joiner.id) {
            let snapshot = ConfigSnapshot::of(&self.managed);
            self.send(
                out,
                from,
                Message::PreJoinResp {
                    status: JoinStatus::AlreadyMember,
                    config_id: self.managed.id(),
                    observers: Vec::new(),
                    snapshot: Some(snapshot),
                },
            );
            return;
        }
        // Observers come from the managed cluster when it has members,
        // otherwise the ensemble bootstraps the first joiners itself.
        let observers: Vec<Endpoint> = if self.managed.is_empty() {
            (0..self.settings.k)
                .map(|r| {
                    self.ensemble
                        .member_at(r % self.ensemble.len())
                        .addr
                })
                .collect()
        } else {
            self.managed_topology
                .joiner_observers(self.managed.id(), joiner.id)
                .into_iter()
                .map(|e| self.managed.member_at(e.rank as usize).addr)
                .collect()
        };
        let config_id = self.managed.id();
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

    /// JoinReq reaches the ensemble directly only while the managed cluster
    /// is empty (bootstrap); afterwards joiners contact members of `C`.
    fn on_join_req(
        &mut self,
        from: Endpoint,
        joiner: Member,
        config_id: ConfigId,
        ring: u8,
        out: &mut Vec<Action>,
    ) {
        if self.managed.contains_addr(&joiner.addr) {
            let snapshot = ConfigSnapshot::of(&self.managed);
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
        if config_id != self.managed.id() {
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
        let alert = Alert::join(
            self.me.id,
            joiner.id,
            joiner.addr,
            config_id,
            ring,
            joiner.metadata.clone(),
        );
        self.apply_alert(&alert);
        self.share_alert(&alert, out);
        self.post_process(out);
    }

    /// Forwards an alert this ensemble node originated to its peers in `S`.
    fn share_alert(&mut self, alert: &Alert, out: &mut Vec<Action>) {
        let batch: Arc<[Alert]> = vec![alert.clone()].into();
        let config_id = self.managed.id();
        self.send_ensemble_peers(out, || Message::AlertBatch {
            config_id,
            alerts: Arc::clone(&batch),
        });
    }

    /// Validates and records one alert about the managed cluster. The
    /// observer may be a member of `C` *or* of `S` (bootstrap joins).
    fn apply_alert(&mut self, alert: &Alert) {
        if alert.config_id != self.managed.id() {
            return;
        }
        let observer_ok =
            self.managed.contains(alert.observer) || self.ensemble.contains(alert.observer);
        if !observer_ok {
            return;
        }
        let subject_is_member = self.managed.contains(alert.subject_id);
        let valid = match alert.status {
            EdgeStatus::Up => !subject_is_member,
            EdgeStatus::Down => subject_is_member,
        };
        if valid && self.cut.record(alert, self.now) {
            self.metrics.alerts_applied += 1;
        }
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

    fn post_process(&mut self, out: &mut Vec<Action>) {
        // Implicit alerts against the managed topology.
        if self.cut.unstable_count() > 0 && !self.managed.is_empty() {
            let topo = Arc::clone(&self.managed_topology);
            let cfg = Arc::clone(&self.managed);
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
        }
        if self.fast.my_vote().is_none() {
            if let Some(p) = self.cut.proposal() {
                self.metrics.proposals += 1;
                let shared = Arc::new(p.clone());
                let state = self.fast.vote(p).expect("first vote");
                self.classic.record_fast_vote(Arc::clone(&shared));
                self.arm_consensus_deadline();
                let state = Arc::new(state);
                let body = Some(shared);
                let config_id = self.managed.id();
                self.send_ensemble_peers(out, || Message::Vote {
                    config_id,
                    state: Arc::clone(&state),
                    body: body.clone(),
                });
            }
        }
        if let Some(p) = self.fast.decision() {
            self.decide(p, true, out);
        }
    }

    fn drive_classic_fallback(&mut self, out: &mut Vec<Action>) {
        if self.fast.decided_hash().is_some() {
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
        self.classic_deadline = Some(
            self.now + self.settings.classic_round_timeout_ms + self.rng.gen_range(1000),
        );
        let coord = ClassicPaxos::coordinator_of(self.ensemble.len(), self.classic_round);
        if coord != self.my_rank {
            return;
        }
        let rank = self.classic.start_round(self.classic_round);
        let config_id = self.managed.id();
        self.send_ensemble_peers(out, || Message::Phase1a { config_id, rank });
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
        if let CoordinatorStep::SendPhase2a(value) = self.classic.on_promise(rank, promise, fallback)
        {
            let config_id = self.managed.id();
            self.send_ensemble_peers(out, || Message::Phase2a {
                config_id,
                rank,
                value: Arc::clone(&value),
            });
            if self.classic.on_phase2a(rank, Arc::clone(&value)) {
                self.fast.learn_body(&value);
                self.coordinator_on_phase2b(rank, self.my_rank, out);
            }
        }
    }

    fn coordinator_on_phase2b(
        &mut self,
        rank: crate::paxos::Rank,
        sender: u32,
        out: &mut Vec<Action>,
    ) {
        if let CoordinatorStep::Decided(value) = self.classic.on_phase2b(rank, sender) {
            let config_id = self.managed.id();
            self.send_ensemble_peers(out, || Message::Decision {
                config_id,
                proposal: Arc::clone(&value),
            });
            self.decide(value, false, out);
        }
    }

    fn decide(&mut self, proposal: Arc<Proposal>, fast_path: bool, out: &mut Vec<Action>) {
        if proposal.config_id() != self.managed.id() {
            return;
        }
        let prev = self.managed.id();
        let new_cfg = self.cache.apply(&self.managed, &proposal);
        let (joined, removed) = proposal.partition_ids();
        if fast_path {
            self.metrics.fast_decisions += 1;
        } else {
            self.metrics.classic_decisions += 1;
        }
        self.metrics.view_changes += 1;
        self.managed_topology = self.cache.get(&new_cfg, self.settings.k);
        self.cut.reset(new_cfg.id());
        self.fast = FastRound::new(self.ensemble.len(), self.my_rank);
        self.classic = ClassicPaxos::new(self.ensemble.len(), self.my_rank);
        self.consensus_deadline = None;
        self.classic_round = 0;
        self.classic_deadline = None;
        self.managed = Arc::clone(&new_cfg);
        out.push(Action::View(ViewChange {
            previous_id: prev,
            configuration: Arc::clone(&new_cfg),
            joined,
            removed,
        }));
        // Notify the managed cluster (§5: "notifications from S").
        let snapshot = ConfigSnapshot::of(&new_cfg);
        for m in new_cfg.members() {
            self.send(
                out,
                m.addr,
                Message::ConfigPush {
                    snapshot: snapshot.clone(),
                },
            );
        }
        // Confirm or bounce bootstrap joiners that contacted this node.
        let pending = std::mem::take(&mut self.pending_joiners);
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
}

// ===========================================================================
// Edge agent
// ===========================================================================

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AgentPhase {
    PreJoin,
    AwaitPreJoin,
    AwaitConfirm,
    Member,
    Kicked,
}

/// A member of the managed cluster `C`: monitors its K-ring subjects,
/// reports alerts to the ensemble, and polls for configuration updates.
pub struct EdgeAgent {
    settings: Settings,
    me: Member,
    ensemble_addrs: Vec<Endpoint>,
    managed: Arc<Configuration>,
    topology: Arc<Topology>,
    cache: TopologyCache,
    my_rank: u32,
    fd: Box<dyn EdgeFailureDetector>,
    phase: AgentPhase,
    /// Ordered so join confirmations go out in identical order every run.
    pending_joiners: BTreeMap<NodeId, Member>,
    next_poll_at: u64,
    join_deadline: u64,
    attempt: u32,
    rng: Xoshiro256,
    now: u64,
    metrics: NodeMetrics,
    /// Per-peer coalescing send buffer (one wire frame per destination
    /// per handled event).
    outbox: Outbox<Message>,
}

impl EdgeAgent {
    /// Creates an agent that will join the managed cluster through the
    /// given ensemble.
    pub fn new(me: Member, ensemble_addrs: Vec<Endpoint>, settings: Settings) -> Self {
        Self::with_cache(me, ensemble_addrs, settings, TopologyCache::new())
    }

    /// Creates an agent with a shared topology cache (simulations).
    pub fn with_cache(
        me: Member,
        ensemble_addrs: Vec<Endpoint>,
        settings: Settings,
        cache: TopologyCache,
    ) -> Self {
        settings.validate().expect("invalid settings");
        assert!(!ensemble_addrs.is_empty());
        let managed = Configuration::bootstrap(Vec::new());
        let topology = cache.get(&managed, settings.k);
        let fd = Box::new(ProbeFailureDetector::from_settings(&settings));
        let rng = Xoshiro256::seed_from_u64(me.id.digest() ^ 0xA6);
        EdgeAgent {
            me,
            ensemble_addrs,
            managed,
            topology,
            cache,
            my_rank: 0,
            fd,
            phase: AgentPhase::PreJoin,
            pending_joiners: BTreeMap::new(),
            next_poll_at: 0,
            join_deadline: 0,
            attempt: 0,
            rng,
            now: 0,
            metrics: NodeMetrics::default(),
            outbox: Outbox::new(true),
            settings,
        }
    }

    /// Whether this agent is an active member of the managed cluster.
    pub fn is_member(&self) -> bool {
        self.phase == AgentPhase::Member
    }

    /// The agent's local view of the managed configuration.
    pub fn configuration(&self) -> Arc<Configuration> {
        Arc::clone(&self.managed)
    }

    /// Protocol counters.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
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

    fn random_ensemble(&mut self) -> Endpoint {
        let i = self.rng.gen_index(self.ensemble_addrs.len());
        self.ensemble_addrs[i]
    }

    /// Feeds one event into the agent state machine.
    pub fn handle(&mut self, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::Tick { now_ms } => {
                self.now = self.now.max(now_ms);
                self.tick(out);
            }
            Event::Receive { from, msg } => {
                self.metrics.msgs_received += 1;
                self.on_message(from, msg, out);
            }
        }
        self.flush(out);
    }

    fn tick(&mut self, out: &mut Vec<Action>) {
        match self.phase {
            AgentPhase::PreJoin => {
                self.attempt += 1;
                self.phase = AgentPhase::AwaitPreJoin;
                self.join_deadline = self.now + self.settings.join_timeout_ms;
                let seed = self.random_ensemble();
                let me = self.me.clone();
                self.send(out, seed, Message::PreJoinReq { joiner: me });
            }
            AgentPhase::AwaitPreJoin | AgentPhase::AwaitConfirm => {
                if self.now >= self.join_deadline {
                    self.phase = AgentPhase::PreJoin;
                }
            }
            AgentPhase::Member => {
                // Monitor subjects and report faults to the ensemble.
                self.fd.tick(self.now, &mut self.outbox);
                for (id, addr) in self.fd.take_faulty() {
                    self.report_remove(id, addr, out);
                }
                // Poll the ensemble for configuration updates.
                if self.now >= self.next_poll_at {
                    self.next_poll_at = self.now + self.settings.centralized_poll_interval_ms;
                    let have_seq = self.managed.seq();
                    let target = self.random_ensemble();
                    self.send(out, target, Message::ConfigPull { have_seq });
                }
            }
            AgentPhase::Kicked => {}
        }
    }

    fn report_remove(&mut self, id: NodeId, addr: Endpoint, out: &mut Vec<Action>) {
        let Some(rank) = self.managed.rank_of(id) else {
            return;
        };
        let mut alerts = Vec::new();
        for ring in self.topology.rings_observing(self.my_rank, rank as u32) {
            alerts.push(Alert::remove(
                self.me.id,
                id,
                addr,
                self.managed.id(),
                ring,
            ));
        }
        if alerts.is_empty() {
            return;
        }
        self.metrics.alerts_originated += alerts.len() as u64;
        let batch: Arc<[Alert]> = alerts.into();
        let config_id = self.managed.id();
        for i in 0..self.ensemble_addrs.len() {
            let to = self.ensemble_addrs[i];
            self.send(
                out,
                to,
                Message::AlertBatch {
                    config_id,
                    alerts: Arc::clone(&batch),
                },
            );
        }
    }

    fn on_message(&mut self, from: Endpoint, msg: Message, out: &mut Vec<Action>) {
        match msg {
            Message::Batch { msgs } => {
                self.metrics.msgs_received += msgs.len().saturating_sub(1) as u64;
                for m in msgs {
                    self.on_message(from, m, out);
                }
            }
            Message::Probe { seq } => {
                let config_seq = self.managed.seq();
                self.send(out, from, Message::ProbeAck { seq, config_seq });
            }
            Message::ProbeAck { seq, .. } => {
                self.fd.on_probe_ack(&from, seq, self.now);
            }
            Message::PreJoinResp {
                status,
                config_id,
                observers,
                snapshot,
            } => {
                if self.phase != AgentPhase::AwaitPreJoin {
                    return;
                }
                match status {
                    JoinStatus::SafeToJoin => {
                        self.phase = AgentPhase::AwaitConfirm;
                        self.join_deadline = self.now + self.settings.join_timeout_ms;
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
                            self.install(s, out);
                        }
                    }
                    _ => self.phase = AgentPhase::PreJoin,
                }
            }
            Message::JoinResp { status, snapshot } => {
                if self.phase == AgentPhase::Member {
                    return;
                }
                match (status, snapshot) {
                    (JoinStatus::SafeToJoin | JoinStatus::AlreadyMember, Some(s)) => {
                        self.install(s, out);
                    }
                    _ => self.phase = AgentPhase::PreJoin,
                }
            }
            Message::JoinReq {
                joiner,
                config_id,
                ring,
            } => {
                // Another process joining through us as temporary observer.
                if self.phase != AgentPhase::Member {
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
                if self.managed.contains_addr(&joiner.addr) {
                    let snapshot = ConfigSnapshot::of(&self.managed);
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
                if config_id != self.managed.id() {
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
                let alert = Alert::join(
                    self.me.id,
                    joiner.id,
                    joiner.addr,
                    config_id,
                    ring,
                    joiner.metadata.clone(),
                );
                self.metrics.alerts_originated += 1;
                let batch: Arc<[Alert]> = vec![alert].into();
                for i in 0..self.ensemble_addrs.len() {
                    let to = self.ensemble_addrs[i];
                    self.send(
                        out,
                        to,
                        Message::AlertBatch {
                            config_id,
                            alerts: Arc::clone(&batch),
                        },
                    );
                }
            }
            Message::ConfigPush { snapshot }
                if snapshot.seq > self.managed.seq() => {
                    self.install(snapshot, out);
                }
            _ => {}
        }
    }

    fn install(&mut self, snapshot: ConfigSnapshot, out: &mut Vec<Action>) {
        let cfg = self.cache.from_snapshot(&snapshot);
        let was_member = self.phase == AgentPhase::Member;
        if !cfg.contains(self.me.id) {
            if was_member {
                self.phase = AgentPhase::Kicked;
                out.push(Action::Kicked);
            }
            return;
        }
        let prev = self.managed.id();
        let old = Arc::clone(&self.managed);
        self.my_rank = cfg.rank_of(self.me.id).unwrap() as u32;
        self.topology = self.cache.get(&cfg, self.settings.k);
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
        self.managed = Arc::clone(&cfg);
        self.metrics.view_changes += 1;
        if was_member {
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
            out.push(Action::View(ViewChange {
                previous_id: prev,
                configuration: Arc::clone(&cfg),
                joined,
                removed,
            }));
        } else {
            self.phase = AgentPhase::Member;
            self.next_poll_at = self.now + self.settings.centralized_poll_interval_ms;
            out.push(Action::Joined {
                config: Arc::clone(&cfg),
            });
        }
        // Confirm joiners that reached us and made it into the view.
        let snapshot = ConfigSnapshot::of(&cfg);
        let pending = std::mem::take(&mut self.pending_joiners);
        for (jid, member) in pending {
            let msg = if cfg.contains(jid) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet, VecDeque};

    const TICK: u64 = 100;

    enum Proc {
        Ensemble(Box<EnsembleNode>),
        Agent(Box<EdgeAgent>),
    }

    struct Harness {
        procs: Vec<Proc>,
        by_addr: HashMap<Endpoint, usize>,
        crashed: HashSet<usize>,
        queue: VecDeque<(Endpoint, Endpoint, Message)>,
        now: u64,
    }

    fn member(i: u128) -> Member {
        Member::new(NodeId::from_u128(i), Endpoint::new(format!("n{i}"), 1))
    }

    fn settings() -> Settings {
        Settings {
            consensus_fallback_base_ms: 2_000,
            consensus_fallback_jitter_ms: 500,
            centralized_poll_interval_ms: 1_000,
            ..Settings::default()
        }
    }

    impl Harness {
        fn new(n_ensemble: u128, n_agents: u128) -> Harness {
            let ensemble_members: Vec<Member> = (1..=n_ensemble).map(member).collect();
            let ensemble_addrs: Vec<Endpoint> =
                ensemble_members.iter().map(|m| m.addr).collect();
            let mut procs = Vec::new();
            let mut by_addr = HashMap::new();
            for m in &ensemble_members {
                by_addr.insert(m.addr, procs.len());
                procs.push(Proc::Ensemble(Box::new(EnsembleNode::new(
                    m.clone(),
                    ensemble_members.clone(),
                    settings(),
                ))));
            }
            for i in 0..n_agents {
                let m = member(100 + i);
                by_addr.insert(m.addr, procs.len());
                procs.push(Proc::Agent(Box::new(EdgeAgent::new(
                    m,
                    ensemble_addrs.clone(),
                    settings(),
                ))));
            }
            Harness {
                procs,
                by_addr,
                crashed: HashSet::new(),
                queue: VecDeque::new(),
                now: 0,
            }
        }

        fn deliver(&mut self, i: usize, ev: Event) {
            let mut actions = Vec::new();
            match &mut self.procs[i] {
                Proc::Ensemble(e) => e.handle(ev, &mut actions),
                Proc::Agent(a) => a.handle(ev, &mut actions),
            }
            let from = match &self.procs[i] {
                Proc::Ensemble(e) => e.me.addr,
                Proc::Agent(a) => a.me.addr,
            };
            for act in actions {
                if let Action::Send { to, msg } = act {
                    self.queue.push_back((from, to, msg));
                }
            }
        }

        fn step(&mut self) {
            self.now += TICK;
            for i in 0..self.procs.len() {
                if !self.crashed.contains(&i) {
                    self.deliver(i, Event::Tick { now_ms: self.now });
                }
            }
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
                self.deliver(dst, Event::Receive { from, msg });
            }
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

        fn agent_view_sizes(&self) -> Vec<usize> {
            self.procs
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.crashed.contains(i))
                .filter_map(|(_, p)| match p {
                    Proc::Agent(a) if a.is_member() => Some(a.configuration().len()),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn agents_bootstrap_through_ensemble() {
        let mut h = Harness::new(3, 10);
        let ok = h.run_until(120_000, |h| {
            let sizes = h.agent_view_sizes();
            sizes.len() == 10 && sizes.iter().all(|&s| s == 10)
        });
        assert!(ok, "all 10 agents must become members and see size 10");
        // Ensemble views agree.
        let ids: Vec<ConfigId> = h
            .procs
            .iter()
            .filter_map(|p| match p {
                Proc::Ensemble(e) => Some(e.managed_configuration().id()),
                _ => None,
            })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn ensemble_pushes_share_the_managed_members() {
        let mut h = Harness::new(3, 6);
        assert!(h.run_until(120_000, |h| {
            let sizes = h.agent_view_sizes();
            sizes.len() == 6 && sizes.iter().all(|&s| s == 6)
        }));
        let managed: Vec<Arc<Configuration>> = h
            .procs
            .iter()
            .filter_map(|p| match p {
                Proc::Ensemble(e) => Some(e.managed_configuration()),
                _ => None,
            })
            .collect();
        // Each agent installed a pushed view without copying its members.
        for p in &h.procs {
            if let Proc::Agent(a) = p {
                let view = a.configuration();
                assert!(managed
                    .iter()
                    .any(|m| Arc::ptr_eq(view.shared_members(), m.shared_members())));
            }
        }
        // Catch-up and `AlreadyMember` answers share them too.
        let Proc::Ensemble(e) = &mut h.procs[0] else {
            unreachable!("the ensemble comes first");
        };
        let agent = managed[0].member_at(0).clone();
        let pull = Message::ConfigPull { have_seq: 0 };
        let pre_join = Message::PreJoinReq {
            joiner: agent.clone(),
        };
        for msg in [pull, pre_join] {
            let mut out = Vec::new();
            e.handle(
                Event::Receive {
                    from: agent.addr,
                    msg,
                },
                &mut out,
            );
            let snapshots: Vec<&ConfigSnapshot> = out
                .iter()
                .filter_map(|a| match a {
                    Action::Send {
                        msg:
                            Message::ConfigPush { snapshot }
                            | Message::PreJoinResp {
                                snapshot: Some(snapshot),
                                ..
                            },
                        ..
                    } => Some(snapshot),
                    _ => None,
                })
                .collect();
            assert_eq!(snapshots.len(), 1);
            assert!(Arc::ptr_eq(
                &snapshots[0].members,
                managed[0].shared_members()
            ));
        }
    }

    #[test]
    fn crashed_agent_is_removed_via_ensemble() {
        let mut h = Harness::new(3, 8);
        assert!(h.run_until(120_000, |h| {
            let sizes = h.agent_view_sizes();
            sizes.len() == 8 && sizes.iter().all(|&s| s == 8)
        }));
        // Crash one agent (index 3 + 3 ensemble = procs[6]).
        h.crashed.insert(6);
        let ok = h.run_until(120_000, |h| {
            let sizes = h.agent_view_sizes();
            sizes.len() == 7 && sizes.iter().all(|&s| s == 7)
        });
        assert!(ok, "survivors must converge to 7 via the ensemble");
    }
}
