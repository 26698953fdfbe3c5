//! Simulated multi-system deployments behind one interface.
//!
//! [`World`] hosts any of the compared membership systems — Rapid
//! (decentralized), Rapid-C (logically centralized), Memberlist (SWIM),
//! ZooKeeper-like, and Akka-like — on the identical simulated network, so
//! cross-system scenarios share fault injection and measurement code.

use central_config::world::{build_world as build_zk, ZkProc};
use gossip_member::{AkkaConfig, AkkaNode};
use rapid_core::config::ConfigId;
use rapid_core::id::Endpoint;
use rapid_core::node::{Node, NodeStatus};
use rapid_core::obs::{LatencyHist, TimelinePoint};
use rapid_core::settings::Settings;
use rapid_route::sim::{KvClusterBuilder, KvSimActor};
use rapid_route::{ClientStats, KvOutcome, KvStats};
use rapid_sim::cluster::{self, sim_member, RapidActor, RapidClusterBuilder, RapidHost};
use rapid_sim::{Actor, Fault, Sample, Simulation};
use swim_member::{SwimConfig, SwimNode};

use crate::model::{KvSpec, Topology};

/// The membership systems compared in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// Decentralized Rapid (§4).
    Rapid,
    /// Logically centralized Rapid (§5), 3-node ensemble.
    RapidC,
    /// Memberlist / SWIM.
    Memberlist,
    /// ZooKeeper-like central configuration service, 3-node ensemble.
    ZooKeeper,
    /// Akka-Cluster-like epidemic membership.
    AkkaLike,
}

impl SystemKind {
    /// Short label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Rapid => "rapid",
            SystemKind::RapidC => "rapid-c",
            SystemKind::Memberlist => "memberlist",
            SystemKind::ZooKeeper => "zookeeper",
            SystemKind::AkkaLike => "akka",
        }
    }

    /// Parses a label back into a kind.
    pub fn parse(s: &str) -> Option<SystemKind> {
        Some(match s {
            "rapid" => SystemKind::Rapid,
            "rapid-c" => SystemKind::RapidC,
            "memberlist" => SystemKind::Memberlist,
            "zookeeper" => SystemKind::ZooKeeper,
            "akka" => SystemKind::AkkaLike,
            _ => return None,
        })
    }

    /// The systems compared in the bootstrap experiments (Figs. 5–7).
    pub fn bootstrap_set() -> [SystemKind; 4] {
        [
            SystemKind::ZooKeeper,
            SystemKind::Memberlist,
            SystemKind::RapidC,
            SystemKind::Rapid,
        ]
    }
}

const ENSEMBLE: usize = 3;

/// Aggregate traffic counters over all cluster processes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficTotals {
    /// Total bytes received.
    pub bytes_in: u64,
    /// Total bytes sent.
    pub bytes_out: u64,
    /// Messages received.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
}

impl std::ops::Sub for TrafficTotals {
    type Output = TrafficTotals;
    fn sub(self, rhs: TrafficTotals) -> TrafficTotals {
        TrafficTotals {
            bytes_in: self.bytes_in - rhs.bytes_in,
            bytes_out: self.bytes_out - rhs.bytes_out,
            msgs_in: self.msgs_in - rhs.msgs_in,
            msgs_out: self.msgs_out - rhs.msgs_out,
        }
    }
}

/// Whether every live observation equals `target` — THE "converged"
/// predicate, shared by [`World::all_report`], the real driver's poll
/// loop, and the runner's `all_report` expectation so the definition
/// cannot drift between backends.
pub fn obs_all_report(obs: &[Option<f64>], target: usize) -> bool {
    !obs.is_empty()
        && obs
            .iter()
            .all(|o| matches!(o, Some(v) if (v - target as f64).abs() < 0.5))
}

/// One KV client operation submitted through a world/driver batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KvOp {
    /// The key.
    pub key: String,
    /// `Some(value)` = put, `None` = get.
    pub put_val: Option<String>,
}

/// A Rapid deployment with the `rapid-route` KV data plane co-hosted on
/// every cluster process. The simulation additionally hosts
/// `spec.clients` smart-client actors at actor indices `n0..n0+clients`
/// (joiners land after them); clients are excluded from every
/// cluster-process measurement.
pub struct KvWorld {
    /// The underlying simulation (public for post-run analysis).
    pub sim: Simulation<KvSimActor>,
    /// What built the members; runtime joiners are built by it too.
    builder: Box<KvClusterBuilder>,
    spec: KvSpec,
    /// Cluster processes at build time — the client actors' offset.
    n0: usize,
}

/// A simulated deployment of one membership system with `n` cluster
/// processes (plus a 3-node auxiliary ensemble for the centralized ones).
pub enum World {
    /// Decentralized Rapid.
    Rapid(Simulation<RapidActor>),
    /// Decentralized Rapid with the KV data plane attached.
    RapidKv(KvWorld),
    /// Rapid-C (ensemble actors `0..3`).
    RapidC(Simulation<RapidActor>),
    /// SWIM.
    Swim(Simulation<SwimNode>),
    /// ZooKeeper-like (server actors `0..3`).
    Zk(Simulation<ZkProc>),
    /// Akka-like.
    Akka(Simulation<AkkaNode>),
}

/// Evaluates `$body` with `$s` bound to the world's simulation, whatever
/// actor type it hosts (by reference or mutably, following `$world`).
macro_rules! each_sim {
    ($world:expr, $s:ident => $body:expr) => {
        match $world {
            World::Rapid($s) | World::RapidC($s) => $body,
            World::RapidKv(KvWorld { sim: $s, .. }) => $body,
            World::Swim($s) => $body,
            World::Zk($s) => $body,
            World::Akka($s) => $body,
        }
    };
}

fn swim_ep(i: usize) -> Endpoint {
    Endpoint::new(format!("node-{i}"), 7000)
}

fn akka_ep(i: usize) -> Endpoint {
    Endpoint::new(format!("node-{i}"), 2552)
}

impl World {
    /// Builds the KV-hosting Rapid world both `*_cfg` constructors share.
    fn kv_world(
        kind: SystemKind,
        n: usize,
        seed: u64,
        settings: Option<Settings>,
        spec: KvSpec,
        topology: Topology,
    ) -> Result<World, String> {
        if kind != SystemKind::Rapid {
            return Err(format!(
                "the [kv] data plane requires system \"rapid\", not {:?}",
                kind.label()
            ));
        }
        let builder = KvClusterBuilder::new(n, spec.placement())
            .seed(seed)
            .op_timeout_ms(spec.op_timeout_ms())
            .repair_interval_ms(spec.repair_interval_ms)
            .clients(spec.clients)
            .settings(settings.unwrap_or_default());
        let sim = match topology {
            Topology::Bootstrap => builder.build_bootstrap(),
            Topology::Static => builder.build_static(),
        };
        Ok(World::RapidKv(KvWorld {
            sim,
            builder: Box::new(builder),
            spec,
            n0: n,
        }))
    }

    /// Builds a bootstrap deployment with settings overrides and/or the
    /// KV data plane attached. Protocol overrides apply to the
    /// Rapid-protocol systems; the baselines run their own native
    /// configurations and take only the engine's `threads`. The KV data
    /// plane requires decentralized Rapid.
    pub fn bootstrap_cfg(
        kind: SystemKind,
        n: usize,
        seed: u64,
        settings: Option<Settings>,
        kv: Option<KvSpec>,
    ) -> Result<World, String> {
        if let Some(spec) = kv {
            return Self::kv_world(kind, n, seed, settings, spec, Topology::Bootstrap);
        }
        match (kind, settings) {
            (_, None) => Ok(World::bootstrap(kind, n, seed)),
            (SystemKind::Rapid, Some(s)) => Ok(World::Rapid(
                RapidClusterBuilder::new(n).seed(seed).settings(s).build_bootstrap(),
            )),
            (SystemKind::RapidC, Some(s)) => {
                let (sim, _) = RapidClusterBuilder::new(n)
                    .seed(seed)
                    .settings(s)
                    .build_centralized(ENSEMBLE);
                Ok(World::RapidC(sim))
            }
            (other, Some(s)) => World::bootstrap(other, n, seed).with_baseline_settings(&s),
        }
    }

    /// Builds a static deployment with protocol-settings overrides and/or
    /// the KV data plane attached (see [`World::bootstrap_cfg`] for the
    /// support matrix, [`World::static_cluster`] for topology limits).
    pub fn static_cfg(
        kind: SystemKind,
        n: usize,
        seed: u64,
        settings: Option<Settings>,
        kv: Option<KvSpec>,
    ) -> Result<World, String> {
        if let Some(spec) = kv {
            return Self::kv_world(kind, n, seed, settings, spec, Topology::Static);
        }
        match (kind, settings) {
            (_, None) => World::static_cluster(kind, n, seed),
            (SystemKind::Rapid, Some(s)) => Ok(World::Rapid(
                RapidClusterBuilder::new(n).seed(seed).settings(s).build_static(),
            )),
            // The centralized systems reject static topology regardless;
            // surface that diagnostic rather than a settings complaint.
            (SystemKind::RapidC | SystemKind::ZooKeeper, Some(_)) => {
                World::static_cluster(kind, n, seed)
            }
            (other, Some(s)) => World::static_cluster(other, n, seed)?.with_baseline_settings(&s),
        }
    }

    /// Applies explicit settings to a baseline deployment. `threads` is
    /// an engine setting and applies to every simulation; every other
    /// field is a Rapid-protocol parameter the baselines do not run, so
    /// an override of one is refused.
    fn with_baseline_settings(mut self, settings: &Settings) -> Result<World, String> {
        let engine_only = Settings {
            threads: settings.threads,
            ..Settings::default()
        };
        if *settings != engine_only {
            return Err(format!(
                "[settings] overrides Rapid-protocol parameters; system {:?} runs its \
                 own native configuration (only `threads` applies to it)",
                self.kind_label()
            ));
        }
        each_sim!(&mut self, s => s.set_threads(settings.threads));
        Ok(self)
    }

    /// Builds a bootstrap deployment: cluster process 0 (or the auxiliary
    /// ensemble) starts at t=0; the remaining processes start joining at
    /// t=10 s, as in the paper's bootstrap experiments.
    pub fn bootstrap(kind: SystemKind, n: usize, seed: u64) -> World {
        match kind {
            SystemKind::Rapid => {
                World::Rapid(RapidClusterBuilder::new(n).seed(seed).build_bootstrap())
            }
            SystemKind::RapidC => {
                let (sim, _) = RapidClusterBuilder::new(n).seed(seed).build_centralized(ENSEMBLE);
                World::RapidC(sim)
            }
            SystemKind::Memberlist => {
                let mut sim = Simulation::new(seed, 100);
                sim.add_actor(
                    swim_ep(0),
                    SwimNode::new(swim_ep(0), vec![], SwimConfig::default(), seed),
                );
                for i in 1..n {
                    sim.add_actor_at(
                        swim_ep(i),
                        SwimNode::new(
                            swim_ep(i),
                            vec![swim_ep(0)],
                            SwimConfig::default(),
                            seed + i as u64,
                        ),
                        10_000,
                    );
                }
                World::Swim(sim)
            }
            SystemKind::ZooKeeper => World::Zk(build_zk(ENSEMBLE, n, 6_000, 10_000, seed)),
            SystemKind::AkkaLike => {
                let mut sim = Simulation::new(seed, 100);
                sim.add_actor(
                    akka_ep(0),
                    AkkaNode::new(akka_ep(0), vec![], AkkaConfig::default(), seed),
                );
                for i in 1..n {
                    sim.add_actor_at(
                        akka_ep(i),
                        AkkaNode::new(
                            akka_ep(i),
                            vec![akka_ep(0)],
                            AkkaConfig::default(),
                            seed + i as u64,
                        ),
                        10_000,
                    );
                }
                World::Akka(sim)
            }
        }
    }

    /// Builds a steady-state deployment: all `n` processes start as
    /// members of one static configuration (the paper's failure
    /// experiments start from here). Supported by the decentralized
    /// systems (Rapid, Memberlist, Akka-like); the centralized ones
    /// cannot teleport an ensemble plus registered clients into
    /// existence and reject with a diagnostic.
    pub fn static_cluster(kind: SystemKind, n: usize, seed: u64) -> Result<World, String> {
        match kind {
            SystemKind::Rapid => {
                Ok(World::Rapid(RapidClusterBuilder::new(n).seed(seed).build_static()))
            }
            SystemKind::Memberlist => {
                let all: Vec<Endpoint> = (0..n).map(swim_ep).collect();
                let mut sim = Simulation::new(seed, 100);
                for (i, &ep) in all.iter().enumerate() {
                    sim.add_actor(
                        ep,
                        SwimNode::new_static(
                            ep,
                            all.iter().copied(),
                            SwimConfig::default(),
                            seed + i as u64,
                        ),
                    );
                }
                Ok(World::Swim(sim))
            }
            SystemKind::AkkaLike => {
                let all: Vec<Endpoint> = (0..n).map(akka_ep).collect();
                let mut sim = Simulation::new(seed, 100);
                for (i, &ep) in all.iter().enumerate() {
                    sim.add_actor(
                        ep,
                        AkkaNode::new_static(
                            ep,
                            all.iter().copied(),
                            AkkaConfig::default(),
                            seed + i as u64,
                        ),
                    );
                }
                Ok(World::Akka(sim))
            }
            other @ (SystemKind::ZooKeeper | SystemKind::RapidC) => Err(format!(
                "scenario field `topology = \"static\"` is not supported for system {:?} \
                 ({}): its auxiliary ensemble must elect a leader and register every \
                 client session, which cannot be teleported into a steady state — use \
                 `topology = \"bootstrap\"` (the real driver always bootstraps anyway)",
                other.label(),
                other.label()
            )),
        }
    }

    /// Index offset of cluster process 0 in actor space (the auxiliary
    /// ensembles occupy the first indices in centralized systems).
    pub fn cluster_offset(&self) -> usize {
        match self {
            World::Rapid(_) | World::RapidKv(_) | World::Swim(_) | World::Akka(_) => 0,
            World::RapidC(_) | World::Zk(_) => ENSEMBLE,
        }
    }

    /// Actor index of cluster process `p`: past any auxiliary ensemble,
    /// and past the smart-client actors, which sit between the initial
    /// members and any later joiners.
    fn actor_index(&self, p: usize) -> usize {
        match self {
            World::RapidKv(w) if p >= w.n0 => p + w.spec.clients,
            _ => p + self.cluster_offset(),
        }
    }

    /// Actor indices of the cluster processes, in order: everything but
    /// the auxiliary ensemble and the smart clients.
    fn cluster_actors(&self) -> impl Iterator<Item = usize> {
        let clients = match self {
            World::RapidKv(w) => w.n0..w.n0 + w.spec.clients,
            _ => 0..0,
        };
        (self.cluster_offset()..self.actors()).filter(move |i| !clients.contains(i))
    }

    /// Number of actors (including auxiliary ensembles).
    pub fn actors(&self) -> usize {
        each_sim!(self, s => s.len())
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        each_sim!(self, s => s.now())
    }

    /// Runs until virtual time `until_ms`.
    pub fn run_until(&mut self, until_ms: u64) {
        each_sim!(self, s => s.run_until(until_ms))
    }

    /// Schedules a fault on a *cluster process index* (auxiliary ensembles
    /// are shielded, as in the paper, which injects faults only on cluster
    /// processes — and client actors likewise cannot be targeted).
    pub fn schedule_cluster_fault(&mut self, at: u64, fault: Fault) {
        let m = |p: usize| self.actor_index(p);
        let shifted = match fault {
            Fault::Crash(i) => Fault::Crash(m(i)),
            Fault::IngressDrop(i, p) => Fault::IngressDrop(m(i), p),
            Fault::EgressDrop(i, p) => Fault::EgressDrop(m(i), p),
            Fault::BlackholePair(a, b) => Fault::BlackholePair(m(a), m(b)),
            Fault::ClearBlackholePair(a, b) => Fault::ClearBlackholePair(m(a), m(b)),
            Fault::Partition(g) => Fault::Partition(g.into_iter().map(m).collect()),
            Fault::LinkLoss(a, b, p) => Fault::LinkLoss(m(a), m(b), p),
            Fault::SlowNode(i, f) => Fault::SlowNode(m(i), f),
            other @ (Fault::Duplicate(_) | Fault::Reorder(_, _) | Fault::Latency(_)) => other,
        };
        each_sim!(self, s => s.schedule_fault(at, shifted))
    }

    /// The current cluster-size observation of each live cluster process
    /// (`None` while a process has no view). Client actors never report a
    /// size and must not hold up convergence predicates, so they are not
    /// cluster processes.
    pub fn observations(&self) -> Vec<Option<f64>> {
        let procs = self.cluster_actors();
        each_sim!(self, s => procs
            .filter(|&i| !s.net.is_crashed(i))
            .map(|i| s.actor(i).sample())
            .collect())
    }

    /// Whether every live cluster process currently reports exactly
    /// `target` members.
    pub fn all_report(&self, target: usize) -> bool {
        obs_all_report(&self.observations(), target)
    }

    /// Runs until every live cluster process reports `target`, checking
    /// once per virtual second. Returns the convergence time.
    pub fn converge(&mut self, target: usize, max_ms: u64) -> Option<u64> {
        let deadline = self.now() + max_ms;
        while self.now() < deadline {
            let next = (self.now() + 1_000).min(deadline);
            self.run_until(next);
            if self.all_report(target) {
                return Some(self.now());
            }
        }
        None
    }

    /// All per-second cluster-size samples collected so far (actor indices
    /// are raw; subtract [`World::cluster_offset`] for process numbering).
    pub fn samples(&self) -> &[Sample] {
        each_sim!(self, s => s.samples())
    }

    /// Per-second `(bytes_in, bytes_out)` rates of every cluster process,
    /// skipping each process' first `skip_secs` seconds (e.g. to exclude
    /// bootstrap traffic from a steady-state measurement).
    pub fn per_second_rates(&self, skip_secs: usize) -> Vec<(u64, u64)> {
        let procs = self.cluster_actors();
        each_sim!(self, s => procs
            .flat_map(|i| s.traffic(i).per_second.iter().skip(skip_secs).copied())
            .collect())
    }

    /// Per-process convergence times: the first instant each cluster
    /// process reported `target` (relative to experiment start).
    pub fn per_process_convergence(&self, target: usize) -> Vec<f64> {
        let off = self.cluster_offset();
        let mut first: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for s in self.samples() {
            if s.actor >= off && (s.value - target as f64).abs() < 0.5 {
                first.entry(s.actor).or_insert(s.t_ms);
            }
        }
        first.values().map(|&t| t as f64 / 1_000.0).collect()
    }

    /// Distinct cluster sizes reported across all samples (Table 1).
    pub fn unique_sizes(&self) -> usize {
        rapid_sim::series::unique_values(self.samples())
    }

    /// Aggregate traffic counters over all cluster processes (phase
    /// deltas come from subtracting two snapshots). What smart clients
    /// send is reported through the client plane, not the node totals.
    pub fn traffic_totals(&self) -> TrafficTotals {
        let procs = self.cluster_actors();
        each_sim!(self, s => procs.fold(TrafficTotals::default(), |mut t, i| {
            let tr = s.traffic(i);
            t.bytes_in += tr.bytes_in;
            t.bytes_out += tr.bytes_out;
            t.msgs_in += tr.msgs_in;
            t.msgs_out += tr.msgs_out;
            t
        }))
    }

    /// The maximum number of view changes any live Rapid node has
    /// installed (`None` for systems without strongly consistent views).
    pub fn view_changes(&self) -> Option<u64> {
        fn max_view_changes<A: RapidHost>(s: &Simulation<A>) -> u64 {
            live_nodes(s)
                .map(|n| n.metrics().view_changes)
                .max()
                .unwrap_or(0)
        }
        match self {
            World::Rapid(s) => Some(max_view_changes(s)),
            World::RapidKv(w) => Some(max_view_changes(&w.sim)),
            _ => None,
        }
    }

    /// Whether every active Rapid node installed the same view-change
    /// sequence, prefix-wise (`None` for systems without view histories).
    pub fn consistent_histories(&self) -> Option<bool> {
        fn consistent<A: RapidHost>(s: &Simulation<A>) -> bool {
            let histories: Vec<&[ConfigId]> = live_nodes(s)
                .filter(|node| node.status() == NodeStatus::Active)
                .map(|node| node.view_history())
                .collect();
            one_chain(&histories)
        }
        match self {
            World::Rapid(s) => Some(consistent(s)),
            World::RapidKv(w) => Some(consistent(&w.sim)),
            _ => None,
        }
    }

    /// Voluntary departure of cluster process `idx` (decentralized Rapid
    /// only).
    pub fn leave(&mut self, idx: usize) -> Result<(), String> {
        fn leave_at<A: RapidHost>(s: &mut Simulation<A>, idx: usize) {
            let now = s.now();
            s.with_actor(idx, |a, out| a.leave(now, out));
            // The departed process terminates: its announcements are
            // already in flight, and a terminated process must not keep
            // ticking or block convergence checks.
            s.net.crash(idx);
        }
        let idx = self.actor_index(idx);
        match self {
            World::Rapid(s) => leave_at(s, idx),
            World::RapidKv(w) => leave_at(&mut w.sim, idx),
            other => {
                return Err(format!(
                    "leave workload is not implemented for {}",
                    other.kind_label()
                ))
            }
        }
        Ok(())
    }

    /// Starts `count` fresh processes that join through cluster process 0
    /// (decentralized Rapid only). `settings` must match what the running
    /// cluster uses — a scenario's `[settings]` overrides apply to
    /// joiners too, not just the initial membership.
    pub fn join_cfg(&mut self, count: usize, settings: Option<Settings>) -> Result<(), String> {
        fn join_with<A: Actor>(
            s: &mut Simulation<A>,
            count: usize,
            settings: &Settings,
            mut host: impl FnMut(usize, Node) -> A,
        ) {
            let seed_addr = sim_member(0).addr;
            let base = s.len();
            for i in base..base + count {
                let m = sim_member(i);
                let node = Node::new_joiner(m.clone(), settings.clone(), vec![seed_addr]);
                s.add_actor(m.addr, host(i, node));
            }
        }
        let settings = settings.unwrap_or_default();
        match self {
            World::Rapid(s) => join_with(s, count, &settings, |_, node| RapidActor::node(node)),
            World::RapidKv(w) => join_with(&mut w.sim, count, &settings, |i, node| {
                w.builder.member(i, node)
            }),
            other => {
                return Err(format!(
                    "join workload is not implemented for {}",
                    other.kind_label()
                ))
            }
        }
        Ok(())
    }

    /// Starts `count` fresh processes with default protocol settings
    /// (see [`World::join_cfg`]).
    pub fn join(&mut self, count: usize) -> Result<(), String> {
        self.join_cfg(count, None)
    }

    /// Runs a batch of KV client operations: all ops are submitted at
    /// once, the simulation advances one op-window, and unresolved ops
    /// score as failed. Requires the KV-hosting world.
    ///
    /// The batch goes through one smart-client actor (`via` picks which,
    /// modulo `[kv] clients`), which routes each op straight to its
    /// partition leader from the cached placement.
    pub fn kv_batch(&mut self, via: Option<usize>, ops: &[KvOp]) -> Result<Vec<KvOutcome>, String> {
        let World::RapidKv(w) = self else {
            return Err(format!(
                "kv workloads need the [kv] data plane; this world hosts {} without it",
                self.kind_label()
            ));
        };
        let now = w.sim.now();
        let burst: Vec<rapid_route::ClientOp<'_>> = ops
            .iter()
            .map(|op| match &op.put_val {
                Some(v) => rapid_route::ClientOp::Put { key: &op.key, val: v },
                None => rapid_route::ClientOp::Get { key: &op.key },
            })
            .collect();
        let submitter = w.n0 + via.unwrap_or(0) % w.spec.clients;
        // One pipelined submission: the submitter's outbox coalesces ops
        // sharing a destination into single wire frames.
        let reqs: Vec<u64> = w
            .sim
            .with_actor(submitter, |a, out| a.client_submit_ops(&burst, now, out));
        w.sim.run_until(now + w.spec.op_window_ms);
        let completed = std::mem::take(&mut w.sim.actor_mut(submitter).completed);
        Ok(reqs
            .iter()
            .map(|req| {
                completed
                    .iter()
                    .find(|(r, _)| r == req)
                    .map(|(_, o)| o.clone())
                    .unwrap_or(KvOutcome::Failed)
            })
            .collect())
    }

    /// Aggregate smart-client counters across all client actors (`None`
    /// when this world hosts no client plane).
    pub fn kv_client_stats(&self) -> Option<ClientStats> {
        let World::RapidKv(w) = self else { return None };
        if w.spec.clients == 0 {
            return None;
        }
        let mut stats = ClientStats::default();
        for i in w.n0..w.n0 + w.spec.clients {
            if let Some(cs) = w.sim.actor(i).client_stats() {
                stats.absorb(cs);
            }
        }
        Some(stats)
    }

    /// Merged client-observed op-latency histogram across all client
    /// actors (`None` when this world hosts no client plane).
    pub fn kv_client_hist(&self) -> Option<LatencyHist> {
        let World::RapidKv(w) = self else { return None };
        if w.spec.clients == 0 {
            return None;
        }
        let mut hist = LatencyHist::new();
        for i in w.n0..w.n0 + w.spec.clients {
            if let Some(c) = w.sim.actor(i).client() {
                hist.merge(c.op_hist());
            }
        }
        Some(hist)
    }

    /// Aggregate data-plane counters over all processes (including
    /// crashed ones, whose handoffs already happened), where hosted.
    pub fn kv_stats(&self) -> Option<KvStats> {
        let World::RapidKv(w) = self else { return None };
        let mut stats = KvStats::default();
        for i in 0..w.sim.len() {
            if w.sim.actor(i).is_client() {
                continue;
            }
            stats.absorb(w.sim.actor(i).kv_stats());
        }
        Some(stats)
    }

    /// Per-live-process `(partition, digest, settled)` snapshots, the
    /// raw material of the `kv_converged` expectation. `None` when this
    /// world hosts no KV data plane.
    pub fn kv_digest_snapshots(
        &self,
    ) -> Option<Vec<Vec<(u32, rapid_route::PartitionDigest, bool)>>> {
        let World::RapidKv(w) = self else { return None };
        Some(
            (0..w.sim.len())
                .filter(|&i| !w.sim.net.is_crashed(i) && !w.sim.actor(i).is_client())
                .map(|i| w.sim.actor(i).kv().digest_snapshot())
                .collect(),
        )
    }

    /// Per-live-process driver time of the *last* view install, in actor
    /// order (`None` for systems without strongly consistent views). The
    /// runner subtracts the fault-injection instant from these to get the
    /// paper's convergence-latency samples.
    pub fn view_install_times(&self) -> Option<Vec<u64>> {
        fn install_times<A: RapidHost>(s: &Simulation<A>) -> Vec<u64> {
            (0..s.len())
                .filter(|&i| !s.net.is_crashed(i))
                .filter_map(|i| s.actor(i).log().views.last().map(|(t, _)| *t))
                .collect()
        }
        match self {
            World::Rapid(s) | World::RapidC(s) => Some(install_times(s)),
            World::RapidKv(w) => Some(install_times(&w.sim)),
            _ => None,
        }
    }

    /// The merged flight-recorder trace of every process, as JSONL lines
    /// in global causal order (empty for worlds without trace rings).
    /// Deterministic: a pure function of per-node ring contents, which
    /// the sharded engine keeps bit-identical across thread counts.
    pub fn flight_dump(&self) -> Vec<String> {
        match self {
            World::Rapid(s) | World::RapidC(s) => cluster::trace_lines(s),
            World::RapidKv(w) => cluster::trace_lines(&w.sim),
            _ => Vec::new(),
        }
    }

    /// The merged metrics timeline of every process, as JSONL lines in
    /// `(t, node)` order (empty for worlds without samplers, or when
    /// `obs_sample_ms` is 0). Deterministic: sweeps are engine events,
    /// bit-identical across thread counts.
    pub fn metrics_dump(&self) -> Vec<String> {
        match self {
            World::Rapid(s) | World::RapidC(s) => cluster::timeline_lines(s),
            World::RapidKv(w) => cluster::timeline_lines(&w.sim),
            _ => Vec::new(),
        }
    }

    /// Every held timeline point across the cluster as
    /// `(t_ms, actor_index, point)` in `(t, actor)` order.
    pub fn timeline_points(&self) -> Vec<(u64, usize, TimelinePoint)> {
        match self {
            World::Rapid(s) | World::RapidC(s) => cluster::timeline_points(s),
            World::RapidKv(w) => cluster::timeline_points(&w.sim),
            _ => Vec::new(),
        }
    }

    /// Total events lost to bounded observability rings wrapping (trace
    /// rings + timelines), across all processes.
    pub fn obs_dropped(&self) -> u64 {
        fn dropped<A: RapidHost>(s: &Simulation<A>) -> u64 {
            cluster::trace_dropped(s) + cluster::timeline_dropped(s)
        }
        match self {
            World::Rapid(s) | World::RapidC(s) => dropped(s),
            World::RapidKv(w) => dropped(&w.sim),
            _ => 0,
        }
    }

    /// The system kind hosted by this world.
    pub fn kind_label(&self) -> &'static str {
        match self {
            World::Rapid(_) => "rapid",
            World::RapidKv(_) => "rapid",
            World::RapidC(_) => "rapid-c",
            World::Swim(_) => "memberlist",
            World::Zk(_) => "zookeeper",
            World::Akka(_) => "akka",
        }
    }
}

/// The membership nodes of the live processes of a Rapid-hosting
/// simulation (smart clients and the Rapid-C roles run none).
fn live_nodes<A: RapidHost>(s: &Simulation<A>) -> impl Iterator<Item = &Node> {
    (0..s.len())
        .filter(|&i| !s.net.is_crashed(i))
        .filter_map(|i| s.actor(i).rapid_node())
}

/// Whether every history is a contiguous window of one global
/// configuration chain, which is what strong consistency means for view
/// histories: a laggard's window ends early, a late joiner's starts
/// late. Every history is checked against the longest one.
fn one_chain(histories: &[&[ConfigId]]) -> bool {
    let reference = histories.iter().copied().max_by_key(|h| h.len()).unwrap_or_default();
    histories
        .iter()
        .all(|h| h.is_empty() || reference.windows(h.len()).any(|w| w == *h))
}

/// Aggregates a sample timeseries into per-second rows of
/// `(t_s, min, median, max, distinct)` over cluster processes.
pub fn aggregate_timeseries(samples: &[Sample], offset: usize) -> Vec<(u64, f64, f64, f64, usize)> {
    use std::collections::BTreeMap;
    let mut by_t: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in samples {
        if s.actor >= offset {
            by_t.entry(s.t_ms / 1_000).or_default().push(s.value);
        }
    }
    by_t.into_iter()
        .map(|(t, mut vs)| {
            vs.sort_by(|a, b| a.total_cmp(b));
            let distinct = {
                let mut d = vs.iter().map(|v| v.round() as i64).collect::<Vec<_>>();
                d.dedup();
                d.len()
            };
            (t, vs[0], vs[vs.len() / 2], vs[vs.len() - 1], distinct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_bootstrap_small() {
        for kind in [
            SystemKind::Rapid,
            SystemKind::Memberlist,
            SystemKind::AkkaLike,
        ] {
            let mut w = World::bootstrap(kind, 15, 3);
            let t = w.converge(15, 180_000);
            assert!(t.is_some(), "{} must converge", kind.label());
            let tt = w.traffic_totals();
            assert!(tt.msgs_out > 0 && tt.bytes_out > 0);
        }
    }

    #[test]
    fn centralized_worlds_bootstrap_small() {
        for kind in [SystemKind::ZooKeeper, SystemKind::RapidC] {
            let mut w = World::bootstrap(kind, 10, 4);
            let t = w.converge(10, 240_000);
            assert!(t.is_some(), "{} must converge", kind.label());
            assert_eq!(w.cluster_offset(), 3);
        }
    }

    #[test]
    fn cluster_fault_indices_are_offset() {
        let mut w = World::bootstrap(SystemKind::ZooKeeper, 8, 5);
        w.converge(8, 240_000).expect("bootstrap");
        // Crash cluster process 0 (actor 3).
        w.schedule_cluster_fault(w.now() + 100, Fault::Crash(0));
        let t = w.converge(7, 120_000);
        assert!(t.is_some(), "crashed client must be expired");
    }

    #[test]
    fn static_rapid_world_and_consistency_probe() {
        let mut w = World::static_cluster(SystemKind::Rapid, 20, 6).unwrap();
        w.run_until(5_000);
        assert!(w.all_report(20));
        assert_eq!(w.view_changes(), Some(0));
        assert_eq!(w.consistent_histories(), Some(true));
    }

    #[test]
    fn static_baseline_worlds_start_converged_and_detect_crashes() {
        for kind in [SystemKind::Memberlist, SystemKind::AkkaLike] {
            let mut w = World::static_cluster(kind, 15, 9).unwrap();
            w.run_until(3_000);
            assert!(
                w.all_report(15),
                "{} static cluster must report full size immediately",
                kind.label()
            );
            w.schedule_cluster_fault(w.now() + 100, Fault::Crash(7));
            let t = w.converge(14, 120_000);
            assert!(t.is_some(), "{} must expire the crashed member", kind.label());
        }
    }

    #[test]
    fn centralized_static_topology_is_rejected_with_a_diagnostic() {
        for kind in [SystemKind::ZooKeeper, SystemKind::RapidC] {
            let err = match World::static_cluster(kind, 10, 1) {
                Err(e) => e,
                Ok(_) => panic!("{} static topology must be rejected", kind.label()),
            };
            assert!(
                err.contains("topology = \"static\"") && err.contains(kind.label()),
                "diagnostic must name the field and the system, got: {err}"
            );
            assert!(err.contains("bootstrap"), "diagnostic must point at the fix: {err}");
        }
    }

    #[test]
    fn leave_and_join_workloads_on_rapid() {
        let mut w = World::static_cluster(SystemKind::Rapid, 12, 7).unwrap();
        w.run_until(5_000);
        w.leave(5).unwrap();
        assert!(w.converge(11, 120_000).is_some(), "leaver must be removed");
        w.join(2).unwrap();
        assert!(w.converge(13, 240_000).is_some(), "joiners must be admitted");
        assert_eq!(w.consistent_histories(), Some(true));
    }

    #[test]
    fn runtime_kv_joiners_record_a_kv_trace() {
        let settings = Settings { obs_ring: 256, ..Settings::default() };
        let spec = KvSpec { partitions: 16, ..KvSpec::default() };
        let mut w = World::static_cfg(SystemKind::Rapid, 5, 3, Some(settings.clone()), Some(spec))
            .unwrap();
        w.run_until(2_000);
        w.join_cfg(1, Some(settings)).unwrap();
        assert!(w.converge(6, 240_000).is_some(), "joiner must be admitted");
        let ops: Vec<KvOp> = (0..32)
            .map(|i| KvOp { key: format!("j{i}"), put_val: Some("v".into()) })
            .collect();
        w.kv_batch(None, &ops).unwrap();
        // The joiner is actor 6: after the five members and the client.
        let joiner_kv = "\"node\":\"node-6\",\"plane\":\"kv\"";
        assert!(
            w.flight_dump().iter().any(|l| l.contains(joiner_kv)),
            "a joined process records data-plane trace events"
        );
    }

    #[test]
    fn one_chain_accepts_windows_and_rejects_forks() {
        let ids = |v: &[u64]| v.iter().map(|&i| ConfigId(i)).collect::<Vec<_>>();
        let (full, laggard, joiner) = (ids(&[1, 2, 3, 4]), ids(&[1, 2]), ids(&[3, 4]));
        let fresh: &[ConfigId] = &[];
        assert!(one_chain(&[full.as_slice(), laggard.as_slice(), joiner.as_slice(), fresh]));
        let fork = ids(&[1, 2, 5]);
        assert!(!one_chain(&[full.as_slice(), fork.as_slice()]));
        let gap = ids(&[1, 3]);
        assert!(!one_chain(&[laggard.as_slice(), gap.as_slice()]));
    }

    #[test]
    fn baselines_take_the_engine_thread_count_and_refuse_protocol_overrides() {
        let samples = |threads: usize| {
            let settings = Settings { threads, ..Settings::default() };
            let mut w = World::static_cfg(SystemKind::Memberlist, 15, 9, Some(settings), None)
                .expect("threads is accepted");
            w.schedule_cluster_fault(2_000, Fault::Crash(7));
            w.run_until(30_000);
            w.samples().to_vec()
        };
        let one = samples(1);
        assert!(!one.is_empty());
        assert_eq!(samples(2), one, "memberlist samples must not depend on the shard count");
        let k = Settings { k: 8, h: 7, threads: 2, ..Settings::default() };
        for kind in [SystemKind::Memberlist, SystemKind::AkkaLike, SystemKind::ZooKeeper] {
            let err = World::bootstrap_cfg(kind, 5, 1, Some(k.clone()), None)
                .err()
                .expect("a K override is refused");
            assert!(err.contains("native configuration"), "{}: {err}", kind.label());
        }
    }

    #[test]
    fn aggregate_timeseries_shapes() {
        let samples = vec![
            Sample { t_ms: 1_000, actor: 0, value: 3.0 },
            Sample { t_ms: 1_200, actor: 1, value: 5.0 },
            Sample { t_ms: 2_000, actor: 0, value: 5.0 },
        ];
        let rows = aggregate_timeseries(&samples, 0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (1, 3.0, 5.0, 5.0, 2));
    }
}
