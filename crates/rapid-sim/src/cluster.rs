//! Harnesses assembling whole Rapid deployments inside the simulator.
//!
//! Two deployment shapes from the paper:
//!
//! * **Decentralized** (§4): a seed plus N−1 joiners (bootstrap
//!   experiments, Figures 5–7), or a pre-formed static cluster (failure
//!   experiments, Figures 8–10 start from a stable steady state).
//! * **Logically centralized, "Rapid-C"** (§5): a small ensemble `S`
//!   manages the membership of `C`.

use std::sync::Arc;

use rapid_core::centralized::{EdgeAgent, EnsembleNode};
use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::ViewChange;
use rapid_core::metrics::NodeMetrics;
use rapid_core::node::{Action, Event, Node, NodeStatus};
use rapid_core::obs::{
    event_jsonl, timeline_jsonl, LatencyHist, Timeline, TimelinePoint, TraceRing,
    DEFAULT_TIMELINE_CAP,
};
use rapid_core::ring::TopologyCache;
use rapid_core::settings::Settings;
use rapid_core::wire::{self, Message};

use crate::engine::{Actor, NetSample, Outbox, Simulation};

/// Application-visible protocol events recorded per actor.
#[derive(Clone, Debug, Default)]
pub struct ActorLog {
    /// View changes delivered, with virtual timestamps.
    pub views: Vec<(u64, ViewChange)>,
    /// When the actor completed its join.
    pub joined_at: Option<u64>,
    /// When the actor learned it was removed.
    pub kicked_at: Option<u64>,
}

/// The per-process metrics sampler behind every simulated Rapid host.
///
/// Each sweep pushes the *deltas* of the cumulative counters since the
/// previous sweep plus the interval quantiles of one latency histogram.
/// The ring is allocated lazily on the first sweep (sweeps only fire when
/// `Settings::obs_sample_ms > 0`), so runs without sampling carry an
/// empty disabled one.
#[derive(Default)]
pub struct TimelineSampler {
    timeline: Timeline,
    /// Cumulative counter values as of the last sweep, in point layout:
    /// the next sweep's deltas are `current - cursor`.
    cursor: TimelinePoint,
    /// The histogram as of the last sweep (inline buckets — cloning never
    /// allocates).
    prev_hist: LatencyHist,
}

impl TimelineSampler {
    /// The sampled metrics timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Cumulative counters as of the last sweep, in point layout. The sum
    /// of all emitted point deltas equals this exactly (as long as the
    /// ring never wrapped) — the property the delta-sampling tests pin.
    pub fn totals(&self) -> &TimelinePoint {
        &self.cursor
    }

    /// Records the sweep at `now_ms` and returns its interval `(p50,
    /// p99)` of `hist`. `net` and `m` give the membership counters;
    /// `data` gives the data-plane ones (`ops`, `handoff_bytes`,
    /// `repair_bytes`; its other fields are ignored) and is all zero on a
    /// membership-only host.
    pub fn record(
        &mut self,
        now_ms: u64,
        net: NetSample,
        m: &NodeMetrics,
        data: TimelinePoint,
        hist: &LatencyHist,
    ) -> (u64, u64) {
        if !self.timeline.enabled() {
            self.timeline = Timeline::new(DEFAULT_TIMELINE_CAP);
        }
        let (_, p50, p99) = hist.interval_quantiles(&self.prev_hist);
        let now = TimelinePoint {
            t_ms: now_ms,
            msgs: net.msgs_out,
            bytes: net.bytes_out,
            alerts: m.alerts_applied,
            view_changes: m.view_changes,
            p50_ms: 0,
            p99_ms: 0,
            ..data
        };
        let c = &self.cursor;
        self.timeline.push(TimelinePoint {
            t_ms: now_ms,
            msgs: now.msgs - c.msgs,
            bytes: now.bytes - c.bytes,
            alerts: now.alerts - c.alerts,
            view_changes: now.view_changes - c.view_changes,
            ops: now.ops - c.ops,
            handoff_bytes: now.handoff_bytes - c.handoff_bytes,
            repair_bytes: now.repair_bytes - c.repair_bytes,
            p50_ms: p50,
            p99_ms: p99,
        });
        self.cursor = now;
        self.prev_hist = hist.clone();
        (p50, p99)
    }
}

/// A simulated process hosting Rapid, as the cluster-wide queries and
/// the dump mergers read it: the membership-only [`RapidActor`], or a
/// host that co-locates an application with the membership node (the KV
/// data plane, whose smart-client processes run no node at all).
pub trait RapidHost: Actor {
    /// The decentralized membership node, if this process runs one.
    fn rapid_node(&self) -> Option<&Node>;

    /// Recorded protocol events.
    fn log(&self) -> &ActorLog;

    /// The metrics sampler (empty unless `Settings::obs_sample_ms > 0`).
    fn sampler(&self) -> &TimelineSampler;

    /// The process's flight-recorder rings with their plane labels, in
    /// merge order: `"m"` (membership) first, then any application plane.
    fn traces(&self) -> impl Iterator<Item = (&'static str, &TraceRing)>;

    /// Announces a voluntary departure (scenario `leave` workloads).
    fn leave(&mut self, now: u64, out: &mut Outbox<Self::Msg>);
}

enum Inner {
    Node(Box<Node>),
    Ensemble(Box<EnsembleNode>),
    Agent(Box<EdgeAgent>),
}

/// A simulated process hosting one Rapid protocol instance.
pub struct RapidActor {
    inner: Inner,
    /// Recorded protocol events.
    pub log: ActorLog,
    /// Reusable action buffer handed to the node on every event, so the
    /// steady-state delivery path allocates nothing in the harness.
    actions: Vec<Action>,
    sampler: TimelineSampler,
}

impl RapidActor {
    fn wrap(inner: Inner) -> Self {
        RapidActor {
            inner,
            log: ActorLog::default(),
            actions: Vec::new(),
            sampler: TimelineSampler::default(),
        }
    }

    /// Wraps a decentralized node.
    pub fn node(node: Node) -> Self {
        Self::wrap(Inner::Node(Box::new(node)))
    }

    /// Wraps a Rapid-C ensemble node.
    pub fn ensemble(node: EnsembleNode) -> Self {
        Self::wrap(Inner::Ensemble(Box::new(node)))
    }

    /// Wraps a Rapid-C edge agent.
    pub fn agent(agent: EdgeAgent) -> Self {
        Self::wrap(Inner::Agent(Box::new(agent)))
    }

    /// The wrapped decentralized node, if this actor is one.
    pub fn as_node(&self) -> Option<&Node> {
        match &self.inner {
            Inner::Node(n) => Some(n),
            _ => None,
        }
    }

    /// The wrapped ensemble node, if this actor is one.
    pub fn as_ensemble(&self) -> Option<&EnsembleNode> {
        match &self.inner {
            Inner::Ensemble(e) => Some(e),
            _ => None,
        }
    }

    fn dispatch(&mut self, event: Event, now: u64, out: &mut Outbox<Message>) {
        let mut actions = std::mem::take(&mut self.actions);
        match &mut self.inner {
            Inner::Node(n) => n.handle(event, &mut actions),
            Inner::Ensemble(e) => e.handle(event, &mut actions),
            Inner::Agent(a) => a.handle(event, &mut actions),
        }
        self.apply_actions(actions, now, out);
    }

    fn apply_actions(&mut self, mut actions: Vec<Action>, now: u64, out: &mut Outbox<Message>) {
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => out.send(to, msg),
                Action::View(v) => self.log.views.push((now, v)),
                Action::Joined { .. } => self.log.joined_at = Some(now),
                Action::Kicked => self.log.kicked_at = Some(now),
            }
        }
        self.actions = actions;
    }
}

impl RapidHost for RapidActor {
    fn rapid_node(&self) -> Option<&Node> {
        self.as_node()
    }

    fn log(&self) -> &ActorLog {
        &self.log
    }

    fn sampler(&self) -> &TimelineSampler {
        &self.sampler
    }

    fn traces(&self) -> impl Iterator<Item = (&'static str, &TraceRing)> {
        self.as_node().map(|n| ("m", n.trace())).into_iter()
    }

    /// Only meaningful for decentralized nodes; other roles ignore it.
    fn leave(&mut self, now: u64, out: &mut Outbox<Message>) {
        let mut actions = std::mem::take(&mut self.actions);
        if let Inner::Node(n) = &mut self.inner {
            n.leave(&mut actions);
        }
        self.apply_actions(actions, now, out);
    }
}

impl Actor for RapidActor {
    type Msg = Message;

    fn on_tick(&mut self, now: u64, out: &mut Outbox<Message>) {
        self.dispatch(Event::Tick { now_ms: now }, now, out);
    }

    fn on_message(&mut self, from: Endpoint, msg: Message, now: u64, out: &mut Outbox<Message>) {
        self.dispatch(Event::Receive { from, msg }, now, out);
    }

    fn msg_size(msg: &Message) -> usize {
        wire::encoded_len(msg)
    }

    fn same_size(a: &Message, b: &Message) -> bool {
        // A broadcast fan-out emits the same Arc'd payload once per peer,
        // back to back; every non-payload field of these variants is
        // fixed-size, so shared payload pointers imply identical wire
        // sizes and the engine can skip re-measuring K-1 of K copies.
        use std::sync::Arc;
        match (a, b) {
            (
                Message::AlertBatch { alerts: x, .. },
                Message::AlertBatch { alerts: y, .. },
            ) => std::ptr::eq(x.as_ptr(), y.as_ptr()),
            (
                Message::Gossip { items: xa, votes: xv, .. },
                Message::Gossip { items: ya, votes: yv, .. },
            ) => std::ptr::eq(xa.as_ptr(), ya.as_ptr()) && std::ptr::eq(xv.as_ptr(), yv.as_ptr()),
            (Message::Phase1a { .. }, Message::Phase1a { .. })
            | (Message::Phase2b { .. }, Message::Phase2b { .. })
            | (Message::Probe { .. }, Message::Probe { .. })
            | (Message::ProbeAck { .. }, Message::ProbeAck { .. })
            | (Message::Leave { .. }, Message::Leave { .. })
            | (Message::ConfigPull { .. }, Message::ConfigPull { .. }) => true,
            (
                Message::Vote { state: xs, body: xb, .. },
                Message::Vote { state: ys, body: yb, .. },
            ) => {
                Arc::ptr_eq(xs, ys)
                    && match (xb, yb) {
                        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                        (None, None) => true,
                        _ => false,
                    }
            }
            (Message::Phase2a { value: x, .. }, Message::Phase2a { value: y, .. })
            | (Message::Decision { proposal: x, .. }, Message::Decision { proposal: y, .. })
            | (
                Message::ProposalBody { proposal: x, .. },
                Message::ProposalBody { proposal: y, .. },
            ) => Arc::ptr_eq(x, y),
            (Message::ConfigPush { snapshot: x }, Message::ConfigPush { snapshot: y }) => {
                Arc::ptr_eq(&x.members, &y.members)
            }
            _ => false,
        }
    }

    fn sample(&self) -> Option<f64> {
        match &self.inner {
            Inner::Node(n) => {
                (n.status() == NodeStatus::Active).then(|| n.configuration().len() as f64)
            }
            Inner::Agent(a) => a.is_member().then(|| a.configuration().len() as f64),
            // The paper's plots show cluster processes, not the auxiliary
            // ensemble.
            Inner::Ensemble(_) => None,
        }
    }

    fn on_metrics_sample(&mut self, now_ms: u64, net: NetSample) {
        // Cluster processes only, matching `sample`: the auxiliary
        // ensemble is not part of the measured deployment.
        let m = match &self.inner {
            Inner::Node(n) => n.metrics(),
            Inner::Agent(a) => a.metrics(),
            Inner::Ensemble(_) => return,
        };
        let no_data = TimelinePoint::default();
        self.sampler
            .record(now_ms, net, m, no_data, &m.detect_to_install);
    }
}

/// Builds the canonical member identity for simulated process `i`.
pub fn sim_member(i: usize) -> Member {
    Member::new(
        NodeId::from_u128(i as u128 + 1),
        Endpoint::new(format!("node-{i}"), 4000),
    )
}

/// Builder for simulated Rapid deployments.
pub struct RapidClusterBuilder {
    /// Number of cluster processes (excluding any ensemble).
    pub n: usize,
    /// Protocol settings applied to every node.
    pub settings: Settings,
    /// Simulation seed (network + per-node RNG streams).
    pub seed: u64,
    /// Delay before the joiner group is spawned (the paper spawns the
    /// N−1 group ten seconds after the seed).
    pub join_delay_ms: u64,
}

impl RapidClusterBuilder {
    /// A builder with the paper's defaults.
    pub fn new(n: usize) -> Self {
        RapidClusterBuilder {
            n,
            settings: Settings::default(),
            seed: 1,
            join_delay_ms: 10_000,
        }
    }

    /// Overrides the protocol settings.
    pub fn settings(mut self, settings: Settings) -> Self {
        self.settings = settings;
        self
    }

    /// Overrides the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn simulation<A: Actor>(&self) -> Simulation<A> {
        let mut sim = Simulation::new(self.seed, self.settings.tick_interval_ms);
        sim.set_threads(self.settings.threads);
        sim.set_metrics_interval(self.settings.obs_sample_ms);
        sim
    }

    /// Decentralized bootstrap: actor 0 is the seed; actors `1..n` join
    /// through it after `join_delay_ms` (Figures 5–7).
    pub fn build_bootstrap(&self) -> Simulation<RapidActor> {
        self.build_bootstrap_with(|_, node| RapidActor::node(node))
    }

    /// [`RapidClusterBuilder::build_bootstrap`] with each process's
    /// membership node handed to `host`, with the process index, to wrap
    /// into the simulated process (an application co-hosted with Rapid).
    pub fn build_bootstrap_with<A: Actor>(
        &self,
        mut host: impl FnMut(usize, Node) -> A,
    ) -> Simulation<A> {
        let mut sim = self.simulation();
        let cache = TopologyCache::new();
        let seed_member = sim_member(0);
        let seed_node = Node::with_parts(
            seed_member.clone(),
            self.settings.clone(),
            NodeStatus::Active,
            Configuration::bootstrap(vec![seed_member.clone()]),
            None,
            None,
            Some(cache.clone()),
            Some(self.seed ^ 0xBEEF),
        );
        sim.add_actor(seed_member.addr, host(0, seed_node));
        for i in 1..self.n {
            let m = sim_member(i);
            let node = Node::with_parts(
                m.clone(),
                self.settings.clone(),
                NodeStatus::Joining,
                Configuration::bootstrap(Vec::new()),
                Some(vec![seed_member.addr]),
                None,
                Some(cache.clone()),
                Some(self.seed.wrapping_add(i as u64)),
            );
            sim.add_actor_at(m.addr, host(i, node), self.join_delay_ms);
        }
        sim
    }

    /// Decentralized steady state: all `n` processes start as members of
    /// one static configuration (failure experiments, Figures 8–10).
    pub fn build_static(&self) -> Simulation<RapidActor> {
        self.build_static_with(|_, node| RapidActor::node(node))
    }

    /// [`RapidClusterBuilder::build_static`] with each membership node
    /// handed to `host` (see [`RapidClusterBuilder::build_bootstrap_with`]).
    pub fn build_static_with<A: Actor>(
        &self,
        mut host: impl FnMut(usize, Node) -> A,
    ) -> Simulation<A> {
        let mut sim = self.simulation();
        let members: Vec<Member> = (0..self.n).map(sim_member).collect();
        let cfg = Configuration::bootstrap(members.clone());
        let cache = TopologyCache::new();
        for (i, m) in members.iter().enumerate() {
            let node = Node::with_parts(
                m.clone(),
                self.settings.clone(),
                NodeStatus::Active,
                Arc::clone(&cfg),
                None,
                None,
                Some(cache.clone()),
                Some(self.seed.wrapping_add(i as u64)),
            );
            sim.add_actor(m.addr, host(i, node));
        }
        sim
    }

    /// Rapid-C: `ensemble_size` ensemble nodes (actors `0..s`) manage `n`
    /// agents (actors `s..s+n`) that join after `join_delay_ms`.
    ///
    /// Returns the simulation and the index of the first agent.
    pub fn build_centralized(&self, ensemble_size: usize) -> (Simulation<RapidActor>, usize) {
        let mut sim = self.simulation();
        let ensemble_members: Vec<Member> =
            (0..ensemble_size).map(|i| {
                Member::new(
                    NodeId::from_u128(900_000 + i as u128),
                    Endpoint::new(format!("ensemble-{i}"), 4000),
                )
            })
            .collect();
        for m in &ensemble_members {
            let e = EnsembleNode::new(m.clone(), ensemble_members.clone(), self.settings.clone());
            sim.add_actor(m.addr, RapidActor::ensemble(e));
        }
        let ensemble_addrs: Vec<Endpoint> =
            ensemble_members.iter().map(|m| m.addr).collect();
        let cache = TopologyCache::new();
        for i in 0..self.n {
            let m = sim_member(i);
            let agent = EdgeAgent::with_cache(
                m.clone(),
                ensemble_addrs.clone(),
                self.settings.clone(),
                cache.clone(),
            );
            sim.add_actor_at(m.addr, RapidActor::agent(agent), self.join_delay_ms);
        }
        (sim, ensemble_size)
    }
}

/// Whether every non-crashed, active actor currently reports cluster size
/// `target` (actors that report no sample — the Rapid-C ensemble, smart
/// clients — are skipped).
pub fn all_report<A: Actor>(sim: &Simulation<A>, target: usize) -> bool {
    let mut reporters = 0;
    for i in 0..sim.len() {
        if sim.net.is_crashed(i) {
            continue;
        }
        match sim.actor(i).sample() {
            Some(v) if (v - target as f64).abs() < 0.5 => reporters += 1,
            Some(_) => return false,
            None => {}
        }
    }
    reporters > 0
}

/// Merged flight-recorder dump across every actor and plane: one JSONL
/// line per held trace event, ordered by `(t, actor index, plane,
/// node-local seq)`, where the plane is the ring's position in
/// [`RapidHost::traces`].
///
/// Each ring is filled on its own process's event stream, which the
/// engine keeps identical across `Settings::threads` values, and this
/// merge order is a pure function of ring contents — so the dump is
/// byte-identical across thread counts (pinned by golden tests).
/// Empty unless the cluster was built with `Settings::obs_ring > 0`.
pub fn trace_lines<A: RapidHost>(sim: &Simulation<A>) -> Vec<String> {
    let mut tagged: Vec<(u64, usize, usize, u32, String)> = Vec::new();
    for i in 0..sim.len() {
        let label = sim.addr_of(i).host();
        for (plane, (name, ring)) in sim.actor(i).traces().enumerate() {
            for ev in ring.iter_in_order() {
                tagged.push((ev.t_ms, i, plane, ev.seq, event_jsonl(label, name, ev)));
            }
        }
    }
    tagged.sort_by_key(|a| (a.0, a.1, a.2, a.3));
    let mut lines: Vec<String> = tagged.into_iter().map(|(.., line)| line).collect();
    // Ring wrap-around loses the oldest events; the trailer keeps a
    // truncated dump from reading as a complete record. Per-ring push
    // counts are thread-count-independent, so emitting it never breaks
    // the byte-identity golden.
    let dropped = trace_dropped(sim);
    if dropped > 0 {
        lines.push(format!("{{\"dropped\":{dropped}}}"));
    }
    lines
}

/// Total trace events lost to ring wrap-around across all actors and
/// planes.
pub fn trace_dropped<A: RapidHost>(sim: &Simulation<A>) -> u64 {
    (0..sim.len())
        .flat_map(|i| sim.actor(i).traces())
        .map(|(_, ring)| ring.dropped())
        .sum()
}

/// Merged metrics timeline across every actor: one `(t, actor index,
/// point)` triple per held sample, ordered by `(t, actor index)` — at
/// most one point per actor per sweep instant, so no per-node sequence
/// number is needed. Sweeps are deterministic engine events, so the
/// merge is byte-identical across `Settings::threads` values. Empty
/// unless the cluster ran with `Settings::obs_sample_ms > 0`.
pub fn timeline_points<A: RapidHost>(sim: &Simulation<A>) -> Vec<(u64, usize, TimelinePoint)> {
    let mut tagged: Vec<(u64, usize, TimelinePoint)> = Vec::new();
    for i in 0..sim.len() {
        for p in sim.actor(i).sampler().timeline().iter_in_order() {
            tagged.push((p.t_ms, i, *p));
        }
    }
    tagged.sort_by_key(|a| (a.0, a.1));
    tagged
}

/// Total timeline points lost to ring wrap-around across all actors.
pub fn timeline_dropped<A: RapidHost>(sim: &Simulation<A>) -> u64 {
    (0..sim.len())
        .map(|i| sim.actor(i).sampler().timeline().dropped())
        .sum()
}

/// [`timeline_points`] rendered as JSONL (the `--metrics` /
/// `--timeline` dump format), with a `{"dropped":N}` trailer when any
/// ring wrapped.
pub fn timeline_lines<A: RapidHost>(sim: &Simulation<A>) -> Vec<String> {
    let mut lines: Vec<String> = timeline_points(sim)
        .iter()
        .map(|(_, i, p)| timeline_jsonl(sim.addr_of(*i).host(), p))
        .collect();
    let dropped = timeline_dropped(sim);
    if dropped > 0 {
        lines.push(format!("{{\"dropped\":{dropped}}}"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Fault;

    fn quick_settings() -> Settings {
        Settings {
            consensus_fallback_base_ms: 3_000,
            consensus_fallback_jitter_ms: 1_000,
            ..Settings::default()
        }
    }

    /// The number of non-crashed actors that are active members.
    fn active_members(sim: &Simulation<RapidActor>) -> usize {
        (0..sim.len())
            .filter(|&i| !sim.net.is_crashed(i) && sim.actor(i).sample().is_some())
            .count()
    }

    #[test]
    fn bootstrap_small_cluster_converges() {
        let mut sim = RapidClusterBuilder::new(20)
            .settings(quick_settings())
            .seed(11)
            .build_bootstrap();
        let t = sim.run_until_pred(180_000, |s| all_report(s, 20) && active_members(s) == 20);
        assert!(t.is_some(), "20-node bootstrap must converge");
    }

    #[test]
    fn static_cluster_removes_crashed_nodes() {
        let mut sim = RapidClusterBuilder::new(30)
            .settings(quick_settings())
            .seed(12)
            .build_static();
        sim.run_until(5_000);
        for i in [3usize, 17, 25] {
            sim.schedule_fault(5_000, Fault::Crash(i));
        }
        let t = sim.run_until_pred(120_000, |s| all_report(s, 27));
        assert!(t.is_some(), "survivors must converge to 27");
        // Every survivor decided the same single view change.
        let mut hists = Vec::new();
        for i in 0..30 {
            if !sim.net.is_crashed(i) {
                hists.push(sim.actor(i).as_node().unwrap().view_history().to_vec());
            }
        }
        assert!(hists.windows(2).all(|w| w[0] == w[1]), "histories must agree");
    }

    #[test]
    fn centralized_cluster_bootstraps_and_heals() {
        let builder = RapidClusterBuilder::new(12)
            .settings(quick_settings())
            .seed(13);
        let (mut sim, first_agent) = builder.build_centralized(3);
        let t = sim.run_until_pred(240_000, |s| all_report(s, 12));
        assert!(t.is_some(), "Rapid-C bootstrap must converge");
        sim.schedule_fault(sim.now() + 1_000, Fault::Crash(first_agent + 2));
        let t = sim.run_until_pred(sim.now() + 120_000, |s| all_report(s, 11));
        assert!(t.is_some(), "Rapid-C must remove the crashed agent");
    }

    #[test]
    fn timeline_deltas_sum_to_cumulative_and_merge_is_thread_stable() {
        let run = |threads: usize| {
            let mut sim = RapidClusterBuilder::new(12)
                .settings(Settings {
                    obs_sample_ms: 1_000,
                    threads,
                    ..quick_settings()
                })
                .seed(15)
                .build_static();
            sim.schedule_fault(5_000, crate::engine::Fault::Crash(3));
            sim.run_until(30_000);
            sim
        };
        let seq = run(1);
        let lines = timeline_lines(&seq);
        assert!(!lines.is_empty(), "sampling on: points must exist");
        // Delta-sampling sums exactly back to the cumulative counters at
        // the last sweep (the ring never wraps in 30 virtual seconds).
        for i in 0..seq.len() {
            let a = seq.actor(i).sampler();
            assert_eq!(a.timeline().dropped(), 0);
            let (mut msgs, mut bytes, mut alerts, mut views) = (0u64, 0u64, 0u64, 0u64);
            for p in a.timeline().iter_in_order() {
                msgs += p.msgs;
                bytes += p.bytes;
                alerts += p.alerts;
                views += p.view_changes;
            }
            let tot = a.totals();
            assert_eq!(
                (msgs, bytes, alerts, views),
                (tot.msgs, tot.bytes, tot.alerts, tot.view_changes),
                "actor {i}"
            );
        }
        // The merged dump is byte-identical across thread counts.
        for threads in [2usize, 4] {
            assert_eq!(timeline_lines(&run(threads)), lines, "{threads} threads");
        }
    }

    #[test]
    fn timeline_disabled_by_default() {
        let mut sim = RapidClusterBuilder::new(8)
            .settings(quick_settings())
            .seed(16)
            .build_static();
        sim.run_until(10_000);
        assert!(timeline_points(&sim).is_empty());
        assert_eq!(timeline_dropped(&sim), 0);
    }

    #[test]
    fn bootstrap_timeseries_shows_few_unique_sizes() {
        let mut sim = RapidClusterBuilder::new(25)
            .settings(quick_settings())
            .seed(14)
            .build_bootstrap();
        sim.run_until_pred(180_000, |s| all_report(s, 25));
        let uniques = crate::series::unique_values(sim.samples());
        // Paper Table 1: Rapid reports ~4-8 unique sizes; seed-phase sizes
        // (1, bootstrap batch, N) should dominate here.
        assert!(uniques <= 6, "expected few unique sizes, got {uniques}");
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    /// Paper-scale smoke test; run explicitly with
    /// `cargo test -p rapid-sim --release -- --ignored scale`.
    #[test]
    #[ignore = "paper-scale; run in release"]
    fn scale_bootstrap_1000() {
        let mut sim = RapidClusterBuilder::new(1000).seed(42).build_bootstrap();
        let t = sim.run_until_pred(600_000, |s| all_report(s, 1000));
        eprintln!(
            "bootstrap(1000): converged at {:?} ms, {} events",
            t,
            sim.events_processed()
        );
        assert!(t.is_some(), "1000-node bootstrap must converge");
    }
}
