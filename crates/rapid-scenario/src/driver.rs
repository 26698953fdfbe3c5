//! Scenario execution backends.
//!
//! One [`Driver`] trait, two implementations:
//!
//! * [`SimDriver`] — the deterministic discrete-event simulator
//!   ([`crate::world::World`]), hosting any compared system. Time is
//!   virtual; runs are pure functions of the seed.
//! * [`RealDriver`] — a multi-threaded [`rapid_transport::Runtime`]
//!   cluster on loopback TCP. Time is wall-clock; only fault kinds a real
//!   process can experience (crashes, voluntary leaves, joins) are
//!   supported, and timing-derived report fields vary run to run.
//!
//! The runner treats `Err(Unsupported)` from a driver as a scenario
//! authoring error — a scenario meant for both drivers must stick to the
//! shared vocabulary (see `docs/SCENARIOS.md`).

use std::time::{Duration, Instant};

use rapid_core::id::Endpoint;
use rapid_core::node::NodeStatus;
use rapid_core::obs::LatencyHist;
use rapid_core::settings::Settings;
use rapid_route::real::KvClientRuntime;
use rapid_route::{ClientStats, KvOutcome, KvRuntime, KvStats};
use rapid_sim::Fault;
use rapid_transport::{AppEvent, Runtime};

use crate::model::{KvSpec, Scenario, Topology};
use crate::world::{KvOp, SystemKind, TrafficTotals, World};

/// A workload action with targets resolved to cluster-process indices.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolvedWorkload {
    /// Start `count` fresh joiners.
    Join(usize),
    /// Voluntary departure of these processes.
    Leave(Vec<usize>),
}

/// Why a driver refused an action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported(pub String);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An execution backend for scenarios. All indices are in cluster-process
/// space (`0..n`); auxiliary ensembles are the driver's business.
pub trait Driver {
    /// Display label (`sim:rapid`, `real:rapid`, ...).
    fn label(&self) -> String;

    /// Current driver time in ms (virtual or wall-clock since start).
    fn now_ms(&self) -> u64;

    /// Runs until driver time `t_ms` (no-op if already past).
    fn run_until(&mut self, t_ms: u64);

    /// Schedules a fault at absolute driver time `at_ms`.
    fn schedule_fault(&mut self, at_ms: u64, fault: Fault) -> Result<(), Unsupported>;

    /// Applies a workload action now.
    fn apply_workload(&mut self, w: &ResolvedWorkload) -> Result<(), Unsupported>;

    /// Cluster-size observation of each live process.
    fn observations(&self) -> Vec<Option<f64>>;

    /// Runs until every live process reports `target` (checked once per
    /// second of driver time); returns the convergence instant.
    fn converge(&mut self, target: usize, within_ms: u64) -> Option<u64>;

    /// Cumulative view changes, where tracked.
    fn view_changes(&self) -> Option<u64>;

    /// Aggregate traffic counters, where metered.
    fn traffic_totals(&self) -> Option<TrafficTotals>;

    /// Whether all view histories agree, where inspectable.
    fn consistent_histories(&self) -> Option<bool>;

    /// Runs a batch of KV client operations through smart client `via`
    /// (modulo the hosted client count; `None` = client 0) and returns
    /// one outcome per op. Only drivers hosting the `[kv]` data plane
    /// support this.
    fn kv_batch(&mut self, via: Option<usize>, ops: &[KvOp]) -> Result<Vec<KvOutcome>, Unsupported> {
        let _ = (via, ops);
        Err(Unsupported(
            "this driver hosts no KV data plane (scenario lacks [kv], or the system \
             is not rapid)"
                .into(),
        ))
    }

    /// Aggregate data-plane counters, where hosted.
    fn kv_stats(&self) -> Option<KvStats> {
        None
    }

    /// Smart-client plane counters and the merged client-observed
    /// op-latency histogram (`None` when no client plane is hosted).
    fn kv_client_stats(&self) -> Option<(ClientStats, LatencyHist)> {
        None
    }

    /// Polls (up to `within_ms`) until anti-entropy has converged: every
    /// live replica of every partition reports the same digest and none
    /// is still awaiting a handoff. `None` = the driver hosts no KV data
    /// plane (recorded as a skip).
    fn kv_converged(&mut self, within_ms: u64) -> Option<bool> {
        let _ = within_ms;
        None
    }

    /// Driver time of each live process's *last* view install, where the
    /// driver records per-process view logs (`None` = untracked). Feeds
    /// the per-phase fault→install convergence samples in the report.
    fn view_install_times(&self) -> Option<Vec<u64>> {
        None
    }

    /// Flight-recorder dump: every held trace event across the cluster,
    /// merged into deterministic JSONL order. Empty when recording is
    /// off or the driver doesn't capture traces.
    fn flight_dump(&self) -> Vec<String> {
        Vec::new()
    }

    /// Metrics-timeline dump: every held sample across the cluster as
    /// JSONL lines in `(t, node)` order. Empty when `obs_sample_ms` is 0
    /// or the driver doesn't sample.
    fn metrics_dump(&self) -> Vec<String> {
        Vec::new()
    }

    /// Every held timeline point as `(t_ms, process_index, point)` in
    /// `(t, process)` order, for report aggregation.
    fn timeline_points(&self) -> Vec<(u64, usize, rapid_core::obs::TimelinePoint)> {
        Vec::new()
    }

    /// Total events lost to bounded observability rings wrapping.
    fn obs_dropped(&self) -> u64 {
        0
    }
}

/// Whether one poll of `(partition, digest, settled)` snapshots (one
/// vector per live process) shows a fully converged data plane: no
/// partition awaited anywhere, and all replicas of a partition agree on
/// its digest. Shared by both drivers so the definition cannot drift.
pub(crate) fn digest_snapshots_converged(
    snapshots: &[Vec<(u32, rapid_route::PartitionDigest, bool)>],
) -> bool {
    let mut per_part: rapid_core::hash::DetHashMap<u32, rapid_route::PartitionDigest> =
        rapid_core::hash::DetHashMap::default();
    let mut saw_any = false;
    for snap in snapshots {
        for &(p, d, settled) in snap {
            if !settled {
                return false;
            }
            saw_any = true;
            match per_part.get(&p) {
                None => {
                    per_part.insert(p, d);
                }
                Some(prev) if *prev != d => return false,
                Some(_) => {}
            }
        }
    }
    saw_any
}

// ---------------------------------------------------------------------------
// Simulator driver
// ---------------------------------------------------------------------------

/// Runs scenarios on the deterministic simulator.
pub struct SimDriver {
    world: World,
    /// The scenario's applied `[settings]` overrides, if any — joiners
    /// spawned by `join` workloads must run the same parameters as the
    /// rest of the cluster.
    settings: Option<Settings>,
}

impl SimDriver {
    /// Default per-node flight-recorder capacity for rapid-family sim
    /// runs (a failed expectation then dumps recent protocol history).
    /// Scenarios opt out with an explicit `obs_ring = 0` override.
    pub const DEFAULT_OBS_RING: usize = 256;

    /// Builds the world a scenario describes, hosting `kind` — with the
    /// scenario's `[settings]` overrides and `[kv]` data plane applied.
    pub fn new(kind: SystemKind, scenario: &Scenario) -> Result<SimDriver, String> {
        let mut settings = if scenario.settings.is_empty() {
            None
        } else {
            Some(scenario.settings.apply(Settings::default())?)
        };
        // Baselines refuse every explicit setting but `threads`, so the
        // recorder default applies only to the rapid family.
        if matches!(kind, SystemKind::Rapid | SystemKind::RapidC)
            && scenario.settings.obs_ring.is_none()
        {
            let mut s = settings.take().unwrap_or_default();
            s.obs_ring = Self::DEFAULT_OBS_RING;
            settings = Some(s);
        }
        let world = match scenario.topology {
            Topology::Bootstrap => World::bootstrap_cfg(
                kind,
                scenario.n,
                scenario.seed,
                settings.clone(),
                scenario.kv,
            )?,
            Topology::Static => {
                World::static_cfg(kind, scenario.n, scenario.seed, settings.clone(), scenario.kv)?
            }
        };
        Ok(SimDriver { world, settings })
    }

    /// The underlying world (post-run analysis: samples, rates, ...).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Consumes the driver, returning the world.
    pub fn into_world(self) -> World {
        self.world
    }
}

impl Driver for SimDriver {
    fn label(&self) -> String {
        format!("sim:{}", self.world.kind_label())
    }

    fn now_ms(&self) -> u64 {
        self.world.now()
    }

    fn run_until(&mut self, t_ms: u64) {
        self.world.run_until(t_ms);
    }

    fn schedule_fault(&mut self, at_ms: u64, fault: Fault) -> Result<(), Unsupported> {
        self.world.schedule_cluster_fault(at_ms, fault);
        Ok(())
    }

    fn apply_workload(&mut self, w: &ResolvedWorkload) -> Result<(), Unsupported> {
        match w {
            ResolvedWorkload::Join(count) => self
                .world
                .join_cfg(*count, self.settings.clone())
                .map_err(Unsupported),
            ResolvedWorkload::Leave(idxs) => {
                for &i in idxs {
                    self.world.leave(i).map_err(Unsupported)?;
                }
                Ok(())
            }
        }
    }

    fn observations(&self) -> Vec<Option<f64>> {
        self.world.observations()
    }

    fn converge(&mut self, target: usize, within_ms: u64) -> Option<u64> {
        self.world.converge(target, within_ms)
    }

    fn view_changes(&self) -> Option<u64> {
        self.world.view_changes()
    }

    fn traffic_totals(&self) -> Option<TrafficTotals> {
        Some(self.world.traffic_totals())
    }

    fn consistent_histories(&self) -> Option<bool> {
        self.world.consistent_histories()
    }

    fn view_install_times(&self) -> Option<Vec<u64>> {
        self.world.view_install_times()
    }

    fn flight_dump(&self) -> Vec<String> {
        self.world.flight_dump()
    }

    fn metrics_dump(&self) -> Vec<String> {
        self.world.metrics_dump()
    }

    fn timeline_points(&self) -> Vec<(u64, usize, rapid_core::obs::TimelinePoint)> {
        self.world.timeline_points()
    }

    fn obs_dropped(&self) -> u64 {
        self.world.obs_dropped()
    }

    fn kv_batch(&mut self, via: Option<usize>, ops: &[KvOp]) -> Result<Vec<KvOutcome>, Unsupported> {
        self.world.kv_batch(via, ops).map_err(Unsupported)
    }

    fn kv_stats(&self) -> Option<KvStats> {
        self.world.kv_stats()
    }

    fn kv_client_stats(&self) -> Option<(ClientStats, LatencyHist)> {
        Some((self.world.kv_client_stats()?, self.world.kv_client_hist()?))
    }

    fn kv_converged(&mut self, within_ms: u64) -> Option<bool> {
        self.world.kv_digest_snapshots()?;
        let deadline = self.world.now() + within_ms;
        loop {
            let snaps = self.world.kv_digest_snapshots()?;
            if digest_snapshots_converged(&snaps) {
                return Some(true);
            }
            if self.world.now() >= deadline {
                return Some(false);
            }
            let next = (self.world.now() + 500).min(deadline);
            self.world.run_until(next);
        }
    }
}

// ---------------------------------------------------------------------------
// Real-transport driver
// ---------------------------------------------------------------------------

/// Cap on real processes per scenario: each one is a thread cluster with
/// a listener, and a scenario asking for hundreds is a mistake, not a
/// load test.
const MAX_REAL_NODES: usize = 64;

/// Poll cadence for the wall-clock event loop.
const POLL: Duration = Duration::from_millis(20);

/// One real process: a bare membership runtime, or one with the KV data
/// plane attached (scenarios with a `[kv]` table).
enum Proc {
    Plain(Runtime),
    Kv(KvRuntime),
}

impl Proc {
    fn status(&self) -> NodeStatus {
        match self {
            Proc::Plain(rt) => rt.status(),
            Proc::Kv(rt) => rt.status(),
        }
    }

    fn view_len(&self) -> usize {
        match self {
            Proc::Plain(rt) => rt.view().len(),
            Proc::Kv(rt) => rt.view_len(),
        }
    }

    fn leave(self) {
        match self {
            Proc::Plain(rt) => rt.leave(),
            Proc::Kv(rt) => rt.leave(),
        }
    }

    fn shutdown_now(self) {
        match self {
            Proc::Plain(rt) => rt.shutdown_now(),
            Proc::Kv(rt) => rt.shutdown_now(),
        }
    }
}

/// Runs scenarios on a real multi-threaded TCP cluster (loopback).
///
/// Process `i` of the scenario maps to the `i`-th runtime; the seed is
/// process 0. Whatever the scenario's topology, the cluster *bootstraps*
/// (a real deployment cannot start pre-converged) — scenarios meant for
/// both drivers begin with a `converge` expectation, which absorbs the
/// difference. Time budgets are wall-clock upper bounds; a healthy
/// cluster converges far sooner.
pub struct RealDriver {
    nodes: Vec<Option<Proc>>,
    view_counts: Vec<u64>,
    start: Instant,
    pending: Vec<(u64, usize)>, // (due_ms, process) crash schedule
    settings: Settings,
    kv: Option<KvSpec>,
    /// Counters of KV processes that have since crashed or left — their
    /// handoffs happened; the cumulative aggregate must not shrink.
    retired_kv_stats: KvStats,
    seed_addr: Endpoint,
    /// The smart client every KV batch goes through, started on first
    /// use (one per driver: real scenarios submit batches sequentially,
    /// so one window-bounded client is representative).
    client: Option<KvClientRuntime>,
}

impl RealDriver {
    /// Starts `scenario.n` real processes on loopback, with the
    /// scenario's `[settings]` overrides and `[kv]` data plane applied.
    pub fn new(scenario: &Scenario) -> Result<RealDriver, String> {
        let settings = scenario.settings.apply(Self::default_settings())?;
        Self::with_settings(scenario, settings)
    }

    /// Protocol settings tuned for wall-clock scenario runs (sub-second
    /// probe cadence, seconds-scale consensus fallback).
    pub fn default_settings() -> Settings {
        Settings {
            tick_interval_ms: 20,
            fd_probe_interval_ms: 200,
            fd_probe_timeout_ms: 200,
            consensus_fallback_base_ms: 1_500,
            consensus_fallback_jitter_ms: 500,
            join_timeout_ms: 1_000,
            gossip_interval_ms: 50,
            ..Settings::default()
        }
    }

    /// Starts the cluster with explicit protocol settings.
    pub fn with_settings(scenario: &Scenario, settings: Settings) -> Result<RealDriver, String> {
        let n = scenario.n;
        if n == 0 || n > MAX_REAL_NODES {
            return Err(format!(
                "real driver supports 1..={MAX_REAL_NODES} processes, scenario wants {n}"
            ));
        }
        let kv = scenario.kv;
        let start_seed = || -> Result<Proc, String> {
            Ok(match kv {
                None => Proc::Plain(
                    Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone())
                        .map_err(|e| format!("seed start failed: {e}"))?,
                ),
                Some(spec) => Proc::Kv(
                    KvRuntime::start_seed(
                        Endpoint::new("127.0.0.1", 0),
                        settings.clone(),
                        spec.placement(),
                        spec.op_timeout_ms(),
                        spec.repair_interval_ms,
                    )
                    .map_err(|e| format!("seed start failed: {e}"))?,
                ),
            })
        };
        let seed = start_seed()?;
        let seed_addr = match &seed {
            Proc::Plain(rt) => *rt.addr(),
            Proc::Kv(rt) => rt.addr(),
        };
        let mut nodes = vec![Some(seed)];
        for i in 1..n {
            nodes.push(Some(Self::start_joiner_proc(
                seed_addr,
                &settings,
                kv,
                &format!("{i}"),
            )?));
        }
        Ok(RealDriver {
            view_counts: vec![0; nodes.len()],
            nodes,
            start: Instant::now(),
            pending: Vec::new(),
            settings,
            kv,
            retired_kv_stats: KvStats::default(),
            seed_addr,
            client: None,
        })
    }

    fn start_joiner_proc(
        seed_addr: Endpoint,
        settings: &Settings,
        kv: Option<KvSpec>,
        tag: &str,
    ) -> Result<Proc, String> {
        let metadata = rapid_core::Metadata::with_entry("proc", tag);
        Ok(match kv {
            None => Proc::Plain(
                Runtime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    metadata,
                )
                .map_err(|e| format!("joiner {tag} start failed: {e}"))?,
            ),
            Some(spec) => Proc::Kv(
                KvRuntime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    metadata,
                    spec.placement(),
                    spec.op_timeout_ms(),
                    spec.repair_interval_ms,
                )
                .map_err(|e| format!("joiner {tag} start failed: {e}"))?,
            ),
        })
    }

    fn poll(&mut self) {
        let now = self.now_ms();
        // Fire due crashes.
        let mut due = Vec::new();
        self.pending.retain(|&(at, i)| {
            if at <= now {
                due.push(i);
                false
            } else {
                true
            }
        });
        for i in due {
            if let Some(rt) = self.nodes[i].take() {
                if let Proc::Kv(kv) = &rt {
                    self.retired_kv_stats.absorb(&kv.stats());
                }
                rt.shutdown_now();
            }
        }
        // View-change accounting: plain runtimes surface events here; KV
        // runtimes consume their own event stream and publish a counter.
        for (i, slot) in self.nodes.iter().enumerate() {
            match slot {
                Some(Proc::Plain(rt)) => {
                    while let Ok(ev) = rt.events().try_recv() {
                        if matches!(ev, AppEvent::View(_)) {
                            self.view_counts[i] += 1;
                        }
                    }
                }
                Some(Proc::Kv(rt)) => self.view_counts[i] = rt.view_count(),
                None => {}
            }
        }
    }

    /// Tears every process down (also runs on drop).
    pub fn shutdown(&mut self) {
        if let Some(c) = self.client.take() {
            c.shutdown_now();
        }
        for slot in &mut self.nodes {
            if let Some(rt) = slot.take() {
                rt.shutdown_now();
            }
        }
    }
}

impl Drop for RealDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Driver for RealDriver {
    fn label(&self) -> String {
        "real:rapid".to_string()
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn run_until(&mut self, t_ms: u64) {
        while self.now_ms() < t_ms {
            self.poll();
            let remaining = t_ms.saturating_sub(self.now_ms());
            std::thread::sleep(POLL.min(Duration::from_millis(remaining.max(1))));
        }
        self.poll();
    }

    fn schedule_fault(&mut self, at_ms: u64, fault: Fault) -> Result<(), Unsupported> {
        match fault {
            Fault::Crash(i) => {
                if i >= self.nodes.len() {
                    return Err(Unsupported(format!("crash target {i} out of range")));
                }
                self.pending.push((at_ms, i));
                Ok(())
            }
            other => Err(Unsupported(format!(
                "the real driver cannot inject {other:?}; only process crashes, \
                 leaves, and joins exist outside the simulator"
            ))),
        }
    }

    fn apply_workload(&mut self, w: &ResolvedWorkload) -> Result<(), Unsupported> {
        match w {
            ResolvedWorkload::Join(count) => {
                for k in 0..*count {
                    let joiner = Self::start_joiner_proc(
                        self.seed_addr,
                        &self.settings,
                        self.kv,
                        &format!("j{k}"),
                    )
                    .map_err(Unsupported)?;
                    self.nodes.push(Some(joiner));
                    self.view_counts.push(0);
                }
                Ok(())
            }
            ResolvedWorkload::Leave(idxs) => {
                for &i in idxs {
                    if let Some(rt) = self.nodes.get_mut(i).and_then(Option::take) {
                        if let Proc::Kv(kv) = &rt {
                            self.retired_kv_stats.absorb(&kv.stats());
                        }
                        rt.leave();
                    }
                }
                Ok(())
            }
        }
    }

    fn observations(&self) -> Vec<Option<f64>> {
        self.nodes
            .iter()
            .flatten()
            .map(|rt| {
                (rt.status() == NodeStatus::Active).then(|| rt.view_len() as f64)
            })
            .collect()
    }

    fn converge(&mut self, target: usize, within_ms: u64) -> Option<u64> {
        let deadline = self.now_ms() + within_ms;
        loop {
            self.poll();
            if crate::world::obs_all_report(&self.observations(), target) {
                return Some(self.now_ms());
            }
            if self.now_ms() >= deadline {
                return None;
            }
            std::thread::sleep(POLL);
        }
    }

    fn view_changes(&self) -> Option<u64> {
        self.view_counts.iter().copied().max()
    }

    fn traffic_totals(&self) -> Option<TrafficTotals> {
        None
    }

    fn consistent_histories(&self) -> Option<bool> {
        None
    }

    fn kv_batch(&mut self, _via: Option<usize>, ops: &[KvOp]) -> Result<Vec<KvOutcome>, Unsupported> {
        let Some(spec) = self.kv else {
            return Err(Unsupported(
                "this scenario has no [kv] table; the real driver hosts no data plane"
                    .into(),
            ));
        };
        // One smart client serves every batch, whatever `via` says:
        // subscribe once, then route every op directly to its partition
        // leader.
        if self.client.is_none() {
            let seeds: Vec<Endpoint> = self
                .nodes
                .iter()
                .flatten()
                .filter_map(|p| match p {
                    Proc::Kv(rt) => Some(rt.addr()),
                    Proc::Plain(_) => None,
                })
                .collect();
            let client = KvClientRuntime::start(
                seeds,
                spec.placement(),
                self.settings.client_window,
                spec.op_timeout_ms(),
            )
            .map_err(|e| Unsupported(format!("smart client start failed: {e}")))?;
            self.client = Some(client);
        }
        let rt = self.client.as_ref().expect("started above");
        let rxs: Vec<_> = ops
            .iter()
            .map(|op| match &op.put_val {
                Some(v) => rt.begin_put(&op.key, v),
                None => rt.begin_get(&op.key),
            })
            .collect();
        // Collect one outcome per submitted op within the op window.
        let deadline = Instant::now() + Duration::from_millis(spec.op_window_ms);
        let outcomes = rxs
            .into_iter()
            .map(|rx| {
                let budget = deadline.saturating_duration_since(Instant::now());
                rx.recv_timeout(budget.max(Duration::from_millis(1)))
                    .unwrap_or(KvOutcome::Failed)
            })
            .collect();
        self.poll();
        Ok(outcomes)
    }

    fn kv_client_stats(&self) -> Option<(ClientStats, LatencyHist)> {
        self.client.as_ref().map(|c| (c.stats(), c.op_hist()))
    }

    fn kv_stats(&self) -> Option<KvStats> {
        self.kv?;
        // Start from the retired processes' counters so cumulative
        // fields (bytes_moved, rebalances, ...) never shrink when a
        // contributor crashes — mirroring the sim world's aggregation.
        let mut stats = self.retired_kv_stats;
        for slot in self.nodes.iter().flatten() {
            if let Proc::Kv(rt) = slot {
                stats.absorb(&rt.stats());
            }
        }
        Some(stats)
    }

    fn metrics_dump(&self) -> Vec<String> {
        // Wall-clock sampling: each KV worker publishes its own series.
        // Points are merged in (t, process) order like the simulator's
        // dump, but timestamps are per-worker wall clocks — comparable
        // within a process, only roughly across them.
        let mut lines = Vec::new();
        for (t, i, p) in self.timeline_points() {
            let _ = t;
            let addr = match self.nodes.get(i).and_then(Option::as_ref) {
                Some(Proc::Kv(rt)) => rt.addr().to_string(),
                _ => format!("proc-{i}"),
            };
            lines.push(rapid_core::obs::timeline_jsonl(&addr, &p));
        }
        lines
    }

    fn timeline_points(&self) -> Vec<(u64, usize, rapid_core::obs::TimelinePoint)> {
        let mut points = Vec::new();
        for (i, slot) in self.nodes.iter().enumerate() {
            if let Some(Proc::Kv(rt)) = slot {
                for p in rt.timeline() {
                    points.push((p.t_ms, i, p));
                }
            }
        }
        points.sort_by_key(|&(t, i, _)| (t, i));
        points
    }

    fn obs_dropped(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(|p| match p {
                Proc::Kv(rt) => rt.timeline_dropped(),
                Proc::Plain(_) => 0,
            })
            .sum()
    }

    fn kv_converged(&mut self, within_ms: u64) -> Option<bool> {
        self.kv?;
        let deadline = self.now_ms() + within_ms;
        loop {
            self.poll();
            let snaps: Vec<_> = self
                .nodes
                .iter()
                .flatten()
                .filter_map(|p| match p {
                    Proc::Kv(rt) => Some(rt.digest_snapshot()),
                    Proc::Plain(_) => None,
                })
                .collect();
            if digest_snapshots_converged(&snaps) {
                return Some(true);
            }
            if self.now_ms() >= deadline {
                return Some(false);
            }
            std::thread::sleep(POLL);
        }
    }
}
