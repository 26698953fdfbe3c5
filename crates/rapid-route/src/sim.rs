//! Hosting the KV data plane inside the deterministic simulator.
//!
//! [`KvSimActor`] co-hosts one Rapid membership [`Node`] and one
//! [`KvNode`] per simulated process; membership and data-plane traffic
//! share the simulated network (and its fault injection) through the
//! combined [`RouteMsg`] message type. View changes flow from the
//! membership node straight into the data plane via the action stream —
//! the paper's view-change callback, wired to placement.
//!
//! This is a thin host on top of `rapid_sim::cluster`: the membership
//! nodes come from [`RapidClusterBuilder`], the metrics sweep is its
//! [`TimelineSampler`], and [`KvSimActor`] implements [`RapidHost`], so
//! the cluster-wide queries and the trace/timeline mergers there serve
//! both hosts (the data plane's ring is the `"kv"` trace plane).
//!
//! The same actor type also hosts the smart-client plane: a client
//! actor wraps a [`KvClient`] instead of a node pair, sharing the
//! simulated network (and its faults) with the cluster it drives. Client
//! actors report no membership sample, keep empty trace/timeline rings,
//! and ignore membership traffic, so adding them never perturbs
//! convergence predicates or metrics artifacts.

use std::sync::Arc;

use rapid_core::id::Endpoint;
use rapid_core::node::{Action, Event, Node, NodeStatus};
use rapid_core::obs::{TimelinePoint, TraceRing};
use rapid_core::settings::Settings;
use rapid_core::wire::{self, Message};
use rapid_sim::cluster::{
    sim_member, ActorLog, RapidActor, RapidClusterBuilder, RapidHost, TimelineSampler,
};
use rapid_sim::engine::NetSample;
use rapid_sim::{Actor, Outbox, Simulation};

use crate::client::{ClientStats, KvClient};
use crate::kv::{self, ClientOp, KvMsg, KvNode, KvOut, KvOutcome, KvStats};
use crate::placement::{PlacementCache, PlacementConfig};

/// The combined wire vocabulary of a routed deployment: membership
/// control traffic plus KV data traffic on one network.
#[derive(Clone, Debug)]
pub enum RouteMsg {
    /// Rapid membership protocol.
    Rapid(Message),
    /// KV data plane.
    Kv(KvMsg),
}

/// What one simulated process runs: a full cluster member (membership
/// node + KV data plane) or a smart client driving the cluster from
/// outside the membership.
enum Plane {
    // Boxed: a full member is ~10 KB of protocol state, a client a few
    // hundred bytes; unboxed, every client actor would pay the member
    // footprint.
    Node { node: Box<Node>, kv: Box<KvNode> },
    Client(Box<KvClient>),
}

/// A simulated process running membership + KV, or a co-hosted smart
/// client.
pub struct KvSimActor {
    plane: Plane,
    /// Protocol events recorded for measurements (same shape as the
    /// membership-only actor's log). Always empty for clients.
    pub log: ActorLog,
    /// Completed operations of the hosted smart client, drained by the
    /// scenario driver. Always empty for cluster members.
    pub completed: Vec<(u64, KvOutcome)>,
    actions: Vec<Action>,
    kv_out: Vec<KvOut>,
    sampler: TimelineSampler,
}

impl KvSimActor {
    fn new(plane: Plane) -> KvSimActor {
        KvSimActor {
            plane,
            log: ActorLog::default(),
            completed: Vec::new(),
            actions: Vec::new(),
            kv_out: Vec::new(),
            sampler: TimelineSampler::default(),
        }
    }

    /// Whether this actor hosts a smart client rather than a cluster
    /// member. Cluster-wide sweeps (stats, traffic, convergence) must
    /// skip client actors.
    pub fn is_client(&self) -> bool {
        matches!(self.plane, Plane::Client(_))
    }

    /// The hosted smart client, if this is a client actor.
    pub fn client(&self) -> Option<&KvClient> {
        match &self.plane {
            Plane::Client(c) => Some(c),
            Plane::Node { .. } => None,
        }
    }

    /// Client-observed counters, if this is a client actor.
    pub fn client_stats(&self) -> Option<&ClientStats> {
        self.client().map(|c| c.stats())
    }

    /// Submits a burst of ops through the hosted smart client (panics on
    /// node actors); results land in [`KvSimActor::completed`].
    pub fn client_submit_ops(
        &mut self,
        ops: &[ClientOp<'_>],
        now: u64,
        out: &mut Outbox<RouteMsg>,
    ) -> Vec<u64> {
        let Plane::Client(client) = &mut self.plane else {
            panic!("client_submit_ops on a node actor");
        };
        let mut kv_out = std::mem::take(&mut self.kv_out);
        let reqs = client.submit_ops(ops, now, &mut kv_out);
        self.drain_kv(kv_out, out);
        reqs
    }

    /// The data plane. Panics on client actors — gate call sites with
    /// [`KvSimActor::is_client`].
    pub fn kv(&self) -> &KvNode {
        match &self.plane {
            Plane::Node { kv, .. } => kv,
            Plane::Client(_) => panic!("client actor has no KV node"),
        }
    }

    /// Data-plane counters (panics on client actors).
    pub fn kv_stats(&self) -> &KvStats {
        self.kv().stats()
    }

    fn drain_kv(&mut self, mut kv_out: Vec<KvOut>, out: &mut Outbox<RouteMsg>) {
        for item in kv_out.drain(..) {
            match item {
                KvOut::Send(to, msg) => out.send(to, RouteMsg::Kv(msg)),
                KvOut::Done(req, outcome) => self.completed.push((req, outcome)),
            }
        }
        self.kv_out = kv_out;
    }

    fn apply_actions(&mut self, mut actions: Vec<Action>, now: u64, out: &mut Outbox<RouteMsg>) {
        let Plane::Node { kv, .. } = &mut self.plane else {
            debug_assert!(actions.is_empty(), "client actors emit no actions");
            self.actions = actions;
            return;
        };
        let mut kv_out = std::mem::take(&mut self.kv_out);
        for a in actions.drain(..) {
            match a {
                Action::Send { to, msg } => out.send(to, RouteMsg::Rapid(msg)),
                Action::View(v) => {
                    kv.on_view(Arc::clone(&v.configuration), now, &mut kv_out);
                    self.log.views.push((now, v));
                }
                Action::Joined { config } => {
                    kv.on_view(config, now, &mut kv_out);
                    self.log.joined_at = Some(now);
                }
                Action::Kicked => self.log.kicked_at = Some(now),
            }
        }
        self.actions = actions;
        self.drain_kv(kv_out, out);
    }
}

impl RapidHost for KvSimActor {
    fn rapid_node(&self) -> Option<&Node> {
        match &self.plane {
            Plane::Node { node, .. } => Some(node),
            Plane::Client(_) => None,
        }
    }

    fn log(&self) -> &ActorLog {
        &self.log
    }

    fn sampler(&self) -> &TimelineSampler {
        &self.sampler
    }

    fn traces(&self) -> impl Iterator<Item = (&'static str, &TraceRing)> {
        let rings = match &self.plane {
            Plane::Node { node, kv } => Some([("m", node.trace()), ("kv", kv.trace())]),
            Plane::Client(_) => None,
        };
        rings.into_iter().flatten()
    }

    /// Panics on client actors.
    fn leave(&mut self, now: u64, out: &mut Outbox<RouteMsg>) {
        let mut actions = std::mem::take(&mut self.actions);
        match &mut self.plane {
            Plane::Node { node, .. } => node.leave(&mut actions),
            Plane::Client(_) => panic!("client actor cannot leave the membership"),
        }
        self.apply_actions(actions, now, out);
    }
}

impl Actor for KvSimActor {
    type Msg = RouteMsg;

    fn on_tick(&mut self, now: u64, out: &mut Outbox<RouteMsg>) {
        if let Plane::Client(client) = &mut self.plane {
            let mut kv_out = std::mem::take(&mut self.kv_out);
            client.on_tick(now, &mut kv_out);
            self.drain_kv(kv_out, out);
            return;
        }
        let mut actions = std::mem::take(&mut self.actions);
        if let Plane::Node { node, .. } = &mut self.plane {
            node.handle(Event::Tick { now_ms: now }, &mut actions);
        }
        self.apply_actions(actions, now, out);
        let mut kv_out = std::mem::take(&mut self.kv_out);
        if let Plane::Node { kv, .. } = &mut self.plane {
            kv.on_tick(now, &mut kv_out);
        }
        self.drain_kv(kv_out, out);
    }

    fn on_message(&mut self, from: Endpoint, msg: RouteMsg, now: u64, out: &mut Outbox<RouteMsg>) {
        match msg {
            RouteMsg::Rapid(m) => {
                // Clients are outside the membership; control traffic
                // addressed to them (e.g. a stale probe) is dropped.
                let mut actions = std::mem::take(&mut self.actions);
                if let Plane::Node { node, .. } = &mut self.plane {
                    node.handle(Event::Receive { from, msg: m }, &mut actions);
                }
                self.apply_actions(actions, now, out);
            }
            RouteMsg::Kv(m) => {
                let mut kv_out = std::mem::take(&mut self.kv_out);
                match &mut self.plane {
                    Plane::Node { kv, .. } => kv.on_message(from, m, now, &mut kv_out),
                    Plane::Client(client) => client.on_message(from, m, now, &mut kv_out),
                }
                self.drain_kv(kv_out, out);
            }
        }
    }

    fn msg_size(msg: &RouteMsg) -> usize {
        match msg {
            RouteMsg::Rapid(m) => wire::encoded_len(m),
            RouteMsg::Kv(m) => kv::encoded_len(m),
        }
    }

    fn same_size(a: &RouteMsg, b: &RouteMsg) -> bool {
        match (a, b) {
            (RouteMsg::Rapid(x), RouteMsg::Rapid(y)) => RapidActor::same_size(x, y),
            _ => false,
        }
    }

    fn sample(&self) -> Option<f64> {
        // Clients never report: convergence predicates see members only.
        let Plane::Node { node, .. } = &self.plane else {
            return None;
        };
        (node.status() == NodeStatus::Active).then(|| node.configuration().len() as f64)
    }

    fn on_metrics_sample(&mut self, now_ms: u64, net: NetSample) {
        // Client actors keep empty timelines: the metrics artifacts stay
        // byte-identical whether or not clients are co-hosted.
        let Plane::Node { node, kv } = &mut self.plane else {
            return;
        };
        let s = kv.stats();
        let data = TimelinePoint {
            ops: s.puts_acked + s.gets_ok,
            handoff_bytes: s.bytes_moved,
            repair_bytes: s.repair_bytes,
            ..TimelinePoint::default()
        };
        // KV actors report leader-side op latency as the interval
        // quantiles (the data-plane signal); membership-only actors
        // report detection→install instead. The same interval p99 feeds
        // the admission controller's shedding threshold.
        let (_, p99) = self
            .sampler
            .record(now_ms, net, node.metrics(), data, kv.op_hist());
        kv.note_interval(p99);
    }
}

/// Builder for simulated routed (membership + KV) deployments: a
/// [`RapidClusterBuilder`] whose every membership node is wrapped with
/// its data plane ([`KvClusterBuilder::member`]), plus the smart-client
/// actors appended after the members.
pub struct KvClusterBuilder {
    inner: RapidClusterBuilder,
    route: PlacementConfig,
    op_timeout_ms: u64,
    repair_interval_ms: Option<u64>,
    clients: usize,
    /// Shared by every member: placement is a pure function of the view,
    /// the cache only memoizes it.
    cache: PlacementCache,
}

/// The simulated endpoint of smart client `i` (clients live outside the
/// membership namespace, so they never collide with `sim_member`).
fn client_endpoint(i: usize) -> Endpoint {
    Endpoint::new(format!("client-{i}"), 9000)
}

impl KvClusterBuilder {
    /// A builder with membership defaults and the given placement shape.
    pub fn new(n: usize, route: PlacementConfig) -> KvClusterBuilder {
        KvClusterBuilder {
            inner: RapidClusterBuilder::new(n),
            route,
            op_timeout_ms: 2_500,
            repair_interval_ms: None,
            clients: 0,
            cache: PlacementCache::new(),
        }
    }

    /// Co-hosts `clients` smart-client actors after the cluster members
    /// (actor indices `n..n+clients`), each seeded with every member
    /// endpoint and windowed per `Settings::client_window`.
    pub fn clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Overrides the protocol settings.
    pub fn settings(mut self, settings: Settings) -> Self {
        self.inner.settings = settings;
        self
    }

    /// Overrides the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Overrides the client-op timeout.
    pub fn op_timeout_ms(mut self, ms: u64) -> Self {
        self.op_timeout_ms = ms;
        self
    }

    /// Overrides the anti-entropy repair cadence (defaults to the op
    /// timeout; 0 disables repair).
    pub fn repair_interval_ms(mut self, ms: u64) -> Self {
        self.repair_interval_ms = Some(ms);
        self
    }

    /// Wraps process `i`'s membership node with its data plane. An active
    /// node's configuration is the data plane's first view; a joining
    /// node's data plane waits for the initial handoffs. Runtime joiners
    /// are built here too, so every member is configured alike.
    pub fn member(&self, i: usize, node: Node) -> KvSimActor {
        let settings = &self.inner.settings;
        let mut kv = KvNode::new(
            sim_member(i),
            self.route,
            self.op_timeout_ms,
            Some(self.cache.clone()),
        )
        .with_obs(settings.obs_ring)
        .with_admission(settings.kv_inbox, settings.kv_shed_p99_ms);
        if let Some(ms) = self.repair_interval_ms {
            kv = kv.with_repair_interval(ms);
        }
        if node.status() == NodeStatus::Active {
            let mut out = Vec::new();
            kv.on_view(node.configuration(), 0, &mut out);
            debug_assert!(out.is_empty(), "initial view emits nothing");
        } else {
            kv = kv.expect_initial_handoffs();
        }
        KvSimActor::new(Plane::Node {
            node: Box::new(node),
            kv: Box::new(kv),
        })
    }

    /// Appends the configured client actors (sharing the members'
    /// placement cache is deliberately avoided: clients must *derive*
    /// the same placement independently, which the proptest pins).
    fn with_clients(&self, mut sim: Simulation<KvSimActor>) -> Simulation<KvSimActor> {
        let seeds: Vec<Endpoint> = (0..self.inner.n).map(|i| sim_member(i).addr).collect();
        for c in 0..self.clients {
            let ep = client_endpoint(c);
            let client = KvClient::new(
                ep,
                self.route,
                seeds.clone(),
                self.inner.settings.client_window,
                self.op_timeout_ms,
            );
            sim.add_actor(ep, KvSimActor::new(Plane::Client(Box::new(client))));
        }
        sim
    }

    /// All `n` processes pre-formed into one static configuration, data
    /// plane live from t=0 (the failure experiments' starting state).
    pub fn build_static(&self) -> Simulation<KvSimActor> {
        self.with_clients(self.inner.build_static_with(|i, node| self.member(i, node)))
    }

    /// Seed at t=0, the rest joining at t=10 s; the data plane on each
    /// process activates when its join completes.
    pub fn build_bootstrap(&self) -> Simulation<KvSimActor> {
        self.with_clients(
            self.inner
                .build_bootstrap_with(|i, node| self.member(i, node)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::partition_of;
    use rapid_sim::cluster::{all_report, timeline_lines, timeline_points, trace_lines};
    use rapid_sim::Fault;

    fn quick_settings() -> Settings {
        Settings {
            consensus_fallback_base_ms: 3_000,
            consensus_fallback_jitter_ms: 1_000,
            ..Settings::default()
        }
    }

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 16,
            replication: 3,
        }
    }

    /// Issues a put through the cluster's smart client (the last actor,
    /// from `.clients(1)`) and runs until it completes.
    fn put(sim: &mut Simulation<KvSimActor>, key: &str, val: &str) -> KvOutcome {
        run_op(sim, ClientOp::Put { key, val })
    }

    fn get(sim: &mut Simulation<KvSimActor>, key: &str) -> KvOutcome {
        run_op(sim, ClientOp::Get { key })
    }

    fn run_op(sim: &mut Simulation<KvSimActor>, op: ClientOp<'_>) -> KvOutcome {
        let client = sim.len() - 1;
        let now = sim.now();
        let req = sim.with_actor(client, |a, out| a.client_submit_ops(&[op], now, out))[0];
        let deadline = sim.now() + 5_000;
        while sim.now() < deadline {
            sim.run_until(sim.now() + 100);
            if let Some(pos) = sim
                .actor(client)
                .completed
                .iter()
                .position(|(r, _)| *r == req)
            {
                return sim.actor_mut(client).completed.swap_remove(pos).1;
            }
        }
        panic!("op {req} never completed");
    }

    #[test]
    fn static_kv_cluster_serves_puts_and_gets() {
        let mut sim = KvClusterBuilder::new(8, spec())
            .settings(quick_settings())
            .seed(21)
            .clients(1)
            .build_static();
        sim.run_until(1_000);
        for i in 0..10 {
            let outcome = put(&mut sim, &format!("key-{i}"), &format!("val-{i}"));
            assert!(matches!(outcome, KvOutcome::Acked { .. }), "{outcome:?}");
        }
        for i in 0..10 {
            let outcome = get(&mut sim, &format!("key-{i}"));
            assert!(
                matches!(&outcome, KvOutcome::Found { val, .. } if val == &format!("val-{i}")),
                "{outcome:?}"
            );
        }
        assert!(matches!(get(&mut sim, "nope"), KvOutcome::Missing));
    }

    #[test]
    fn crash_rebalances_and_acked_writes_survive() {
        let mut sim = KvClusterBuilder::new(10, spec())
            .settings(quick_settings())
            .seed(22)
            .clients(1)
            .build_static();
        sim.run_until(1_000);
        let mut acked = Vec::new();
        for i in 0..24 {
            let key = format!("k{i}");
            if let KvOutcome::Acked { version } = put(&mut sim, &key, &format!("v{i}")) {
                acked.push((key, format!("v{i}"), version));
            }
        }
        assert_eq!(acked.len(), 24, "healthy cluster must ack everything");

        // Crash two processes (< RF), wait for the view change + handoff.
        sim.schedule_fault(sim.now() + 100, Fault::Crash(2));
        sim.schedule_fault(sim.now() + 100, Fault::Crash(7));
        let t = sim.run_until_pred(sim.now() + 120_000, |s| all_report(s, 8));
        assert!(t.is_some(), "membership must converge to 8");
        sim.run_until(sim.now() + 10_000); // handoff settle

        for (key, val, version) in &acked {
            match get(&mut sim, key) {
                KvOutcome::Found { val: v, version: ver } => {
                    assert_eq!(&v, val, "value for {key}");
                    assert!(ver >= *version, "version went backwards for {key}");
                }
                other => panic!("acked key {key} lost: {other:?}"),
            }
        }
        // A rebalance actually happened and moved bytes.
        let mut stats = KvStats::default();
        for i in 0..10 {
            if !sim.net.is_crashed(i) {
                stats.absorb(sim.actor(i).kv_stats());
            }
        }
        assert!(stats.rebalances >= 1);
        assert!(stats.bytes_moved > 0, "handoffs must move data");
        assert_eq!(stats.partitions_lost, 0, "RF=3 survives 2 crashes");
    }

    #[test]
    fn bootstrap_kv_cluster_comes_up_through_joins() {
        let mut sim = KvClusterBuilder::new(6, spec())
            .settings(quick_settings())
            .seed(23)
            .clients(1)
            .build_bootstrap();
        let t = sim.run_until_pred(240_000, |s| all_report(s, 6));
        assert!(t.is_some(), "bootstrap must converge");
        sim.run_until(sim.now() + 10_000);
        let outcome = put(&mut sim, "boot-key", "boot-val");
        assert!(matches!(outcome, KvOutcome::Acked { .. }), "{outcome:?}");
        let outcome = get(&mut sim, "boot-key");
        assert!(
            matches!(&outcome, KvOutcome::Found { val, .. } if val == "boot-val"),
            "{outcome:?}"
        );
    }

    #[test]
    fn kv_timeline_tracks_ops_and_is_thread_stable() {
        let run = |threads: usize| {
            let mut sim = KvClusterBuilder::new(6, spec())
                .settings(Settings {
                    obs_sample_ms: 1_000,
                    threads,
                    ..quick_settings()
                })
                .seed(41)
                .clients(1)
                .build_static();
            sim.run_until(1_000);
            for i in 0..12 {
                put(&mut sim, &format!("k{i}"), "v");
            }
            sim.run_until(20_000);
            sim
        };
        let seq = run(1);
        let lines = timeline_lines(&seq);
        assert!(!lines.is_empty(), "sampling on: points must exist");
        let total_ops: u64 = timeline_points(&seq).iter().map(|(_, _, p)| p.ops).sum();
        assert!(total_ops >= 12, "op deltas must cover the workload, got {total_ops}");
        // Delta-sampling sums exactly back to the cumulative counters.
        for i in 0..seq.len() {
            let a = seq.actor(i).sampler();
            let (mut ops, mut hb, mut rb) = (0u64, 0u64, 0u64);
            for p in a.timeline().iter_in_order() {
                ops += p.ops;
                hb += p.handoff_bytes;
                rb += p.repair_bytes;
            }
            let tot = a.totals();
            assert_eq!(
                (ops, hb, rb),
                (tot.ops, tot.handoff_bytes, tot.repair_bytes),
                "actor {i}"
            );
        }
        assert_eq!(timeline_lines(&run(2)), lines, "2 threads");
    }

    #[test]
    fn smart_clients_route_ops_through_the_simulated_network() {
        let mut sim = KvClusterBuilder::new(6, spec())
            .settings(quick_settings())
            .seed(77)
            .clients(2)
            .build_static();
        assert_eq!(sim.len(), 8, "6 members + 2 client actors");
        assert!(sim.actor(6).is_client() && sim.actor(7).is_client());
        // Clients stay invisible to convergence predicates.
        assert!(sim.actor(6).sample().is_none());
        sim.run_until(2_000); // subscription + view push settle
        assert!(
            sim.actor(6).client().unwrap().view_seq().is_some(),
            "client must have adopted a view by now"
        );
        let now = sim.now();
        let keys: Vec<String> = (0..8).map(|i| format!("ck{i}")).collect();
        let ops: Vec<ClientOp<'_>> = keys
            .iter()
            .map(|k| ClientOp::Put { key: k, val: "cv" })
            .collect();
        let reqs = sim.with_actor(6, |a, out| a.client_submit_ops(&ops, now, out));
        let deadline = sim.now() + 10_000;
        while sim.now() < deadline && sim.actor(6).completed.len() < reqs.len() {
            sim.run_until(sim.now() + 100);
        }
        let completed = &sim.actor(6).completed;
        assert_eq!(completed.len(), reqs.len(), "{completed:?}");
        assert!(
            completed
                .iter()
                .all(|(_, o)| matches!(o, KvOutcome::Acked { .. })),
            "healthy cluster acks everything: {completed:?}"
        );
        // Reads through the *other* client see the writes.
        let now = sim.now();
        let gets: Vec<ClientOp<'_>> = keys.iter().map(|k| ClientOp::Get { key: k }).collect();
        let greqs = sim.with_actor(7, |a, out| a.client_submit_ops(&gets, now, out));
        let deadline = sim.now() + 10_000;
        while sim.now() < deadline && sim.actor(7).completed.len() < greqs.len() {
            sim.run_until(sim.now() + 100);
        }
        assert!(
            sim.actor(7)
                .completed
                .iter()
                .all(|(_, o)| matches!(o, KvOutcome::Found { val, .. } if val == "cv")),
            "{:?}",
            sim.actor(7).completed
        );
        let cs = sim.actor(6).client_stats().unwrap();
        assert_eq!(cs.acked, 8);
        assert_eq!(cs.shed, 0);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut sim = KvClusterBuilder::new(6, spec())
                .settings(quick_settings())
                .seed(31)
                .clients(1)
                .build_static();
            sim.run_until(1_000);
            for i in 0..8 {
                put(&mut sim, &format!("k{i}"), "v");
            }
            sim.schedule_fault(sim.now() + 50, Fault::Crash(1));
            sim.run_until(sim.now() + 60_000);
            let mut fp = rapid_core::hash::StableHasher::new("kv-trace");
            fp.write_u64(sim.events_processed());
            for i in 0..sim.len() {
                let t = sim.traffic(i);
                fp.write_u64(t.msgs_in).write_u64(t.msgs_out);
                fp.write_u64(t.bytes_in).write_u64(t.bytes_out);
            }
            fp.finish()
        };
        assert_eq!(run(), run(), "KV trace must be deterministic");
    }

    /// The two-plane dump pin: 6 members + 2 client actors, small trace
    /// rings (so the `dropped` trailer is part of the bytes), sampling
    /// on, client traffic and one crash. The merged trace and timeline
    /// each fold to a recorded fingerprint at one shard and at two.
    #[test]
    fn kv_trace_and_timeline_dumps_are_pinned() {
        const GOLDEN_TRACE: u64 = 0x0af7_9a95_5f56_a33e;
        const GOLDEN_TIMELINE: u64 = 0x9740_045f_3633_64ec;
        let fold = |lines: Vec<String>| {
            assert!(!lines.is_empty());
            let mut fp = rapid_core::hash::StableHasher::new("kv-dump");
            for l in &lines {
                fp.write_bytes(l.as_bytes()).write_bytes(b"\n");
            }
            fp.finish()
        };
        let run = |threads: usize| {
            let mut sim = KvClusterBuilder::new(6, spec())
                .settings(Settings {
                    obs_ring: 64,
                    obs_sample_ms: 1_000,
                    threads,
                    ..quick_settings()
                })
                .seed(53)
                .clients(2)
                .build_static();
            sim.run_until(2_000);
            let keys: Vec<String> = (0..128).map(|i| format!("pk{i}")).collect();
            let ops: Vec<ClientOp<'_>> = keys
                .iter()
                .map(|k| ClientOp::Put { key: k, val: "pv" })
                .collect();
            let now = sim.now();
            sim.with_actor(6, |a, out| a.client_submit_ops(&ops, now, out));
            sim.schedule_fault(now + 500, Fault::Crash(2));
            sim.run_until(now + 30_000);
            let gets: Vec<ClientOp<'_>> = keys.iter().map(|k| ClientOp::Get { key: k }).collect();
            let now = sim.now();
            sim.with_actor(7, |a, out| a.client_submit_ops(&gets, now, out));
            sim.run_until(now + 5_000);
            let trace = trace_lines(&sim);
            assert!(trace.iter().any(|l| l.contains("\"plane\":\"kv\"")));
            assert!(trace.last().is_some_and(|l| l.starts_with("{\"dropped\":")));
            (fold(trace), fold(timeline_lines(&sim)))
        };
        let one = run(1);
        assert_eq!(
            one,
            (GOLDEN_TRACE, GOLDEN_TIMELINE),
            "kv dumps moved: trace {:#018x}, timeline {:#018x}",
            one.0,
            one.1
        );
        assert_eq!(run(2), one, "two shards");
    }

    /// The crash tail, end to end: a client streams puts and gets every
    /// 10 ms across the crash of a member that leads some of the keys'
    /// partitions. Every op that waited on the victim — in flight to it
    /// as leader, or replicating to it — settles when
    /// the removal view lands, so none fails and the slowest one takes
    /// about the detection time, far below the (long) op timeout.
    #[test]
    fn a_leader_crash_costs_the_detection_time_not_the_op_timeout() {
        const OP_TIMEOUT_MS: u64 = 30_000;
        let mut sim = KvClusterBuilder::new(5, spec())
            .settings(quick_settings())
            .seed(61)
            .op_timeout_ms(OP_TIMEOUT_MS)
            .clients(1)
            .build_static();
        sim.run_until(2_000);
        let client = 5;
        let keys: Vec<String> = (0..64).map(|i| format!("ct{i}")).collect();
        let victim = 2;
        let victim_led = sim.actor(client).client().unwrap().placement().unwrap().clone();
        let victim_led = keys
            .iter()
            .filter(|k| victim_led.leader(partition_of(k, spec().partitions)) as usize == victim)
            .count();
        assert!(victim_led > 0, "the victim leads some of the keys");
        sim.schedule_fault(5_000, Fault::Crash(victim));
        let mut submitted = std::collections::HashMap::new();
        let mut slowest = 0;
        let mut outcomes = Vec::new();
        let mut i = 0;
        while sim.now() < 25_000 || submitted.len() > outcomes.len() {
            assert!(sim.now() < 25_000 + OP_TIMEOUT_MS, "ops never completed");
            let now = sim.now();
            if now < 25_000 {
                let key = &keys[(i / 2) % keys.len()];
                let op = if i % 2 == 0 {
                    ClientOp::Put { key, val: "cv" }
                } else {
                    ClientOp::Get { key }
                };
                let reqs = sim.with_actor(client, |a, out| a.client_submit_ops(&[op], now, out));
                submitted.insert(reqs[0], now);
                i += 1;
            }
            sim.run_until(now + 10);
            let done_at = sim.now();
            for (req, outcome) in sim.actor_mut(client).completed.drain(..) {
                slowest = slowest.max(done_at - submitted[&req]);
                outcomes.push(outcome);
            }
        }
        let cs = *sim.actor(client).client_stats().unwrap();
        assert_eq!(cs.failed, 0, "{cs:?}");
        assert!(!outcomes.contains(&KvOutcome::Failed));
        assert!(cs.found > 0, "gets read the puts back: {cs:?}");
        assert!(cs.retries > 0, "some ops waited on the victim: {cs:?}");
        assert!(
            slowest < OP_TIMEOUT_MS / 2,
            "slowest op took {slowest} ms against a {OP_TIMEOUT_MS} ms timeout"
        );
    }
}
