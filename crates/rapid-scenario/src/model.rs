//! The declarative scenario model.
//!
//! A [`Scenario`] is a cluster description (size, topology, named node
//! groups) plus a timeline of [`Phase`]s. Each phase schedules fault
//! [`Inject`]ions and [`Workload`] actions at offsets from the phase
//! start, optionally runs for a fixed duration, and then evaluates
//! [`Expect`]ations. The same scenario value drives the simulator or a
//! real transport cluster (see [`crate::driver`]).
//!
//! Scenarios are built in code ([`Scenario::build`]) or loaded from TOML
//! ([`Scenario::from_toml`]); both produce identical values, and the
//! shipped `scenarios/*.toml` files are the canonical examples.

use rapid_core::settings::Settings;
use rapid_route::PlacementConfig;
use rapid_sim::LatencyDist;

/// Configuration of the replicated KV data plane (`[kv]` TOML table).
/// Present on a scenario ⇒ every cluster process hosts a
/// `rapid-route` KV node next to its membership node, and `put`
/// workloads / `kv_available` / `no_lost_acked_writes` expectations
/// become available.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvSpec {
    /// Number of fixed partitions.
    pub partitions: u32,
    /// Replication factor.
    pub replication: usize,
    /// How long the driver lets a batch of client operations run before
    /// scoring unresolved ones as failed (virtual ms on the simulator,
    /// wall-clock on the real driver).
    pub op_window_ms: u64,
    /// Anti-entropy repair cadence of every KV node (0 disables repair —
    /// then a lost handoff guards its partition forever).
    pub repair_interval_ms: u64,
    /// Minimum encoded size of `put` workload values: small payloads are
    /// padded to this many bytes so `bytes_moved`/`repair_bytes` measure
    /// something real. 0 keeps the natural few-byte values. Individual
    /// `put` workloads can override it.
    pub value_size: usize,
    /// Number of smart-client processes ([`rapid_route::KvClient`])
    /// attached to the simulated cluster; every workload op goes through
    /// one of them. The real driver hosts one `KvClientRuntime`.
    pub clients: usize,
}

impl Default for KvSpec {
    fn default() -> Self {
        KvSpec {
            partitions: 32,
            replication: 3,
            op_window_ms: 5_000,
            repair_interval_ms: 1_000,
            value_size: 0,
            clients: 1,
        }
    }
}

impl KvSpec {
    /// The placement parameters this spec induces.
    pub fn placement(&self) -> PlacementConfig {
        PlacementConfig {
            partitions: self.partitions,
            replication: self.replication,
        }
    }

    /// Per-operation timeout inside the data plane: half the batch
    /// window (so one retry round fits), clamped to a sane range.
    pub fn op_timeout_ms(&self) -> u64 {
        (self.op_window_ms / 2).clamp(500, 2_500)
    }
}

/// Per-scenario overrides of the protocol defaults (`[settings]` TOML
/// table): only the named fields change, everything else stays at the
/// driver's baseline (paper defaults on the simulator, wall-clock-tuned
/// defaults on the real driver). `None` everywhere ⇒ no override.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SettingsPatch {
    /// Monitoring rings (paper `K`).
    pub k: Option<usize>,
    /// High watermark (paper `H`).
    pub h: Option<usize>,
    /// Low watermark (paper `L`).
    pub l: Option<usize>,
    /// Host tick interval.
    pub tick_interval_ms: Option<u64>,
    /// Edge failure detector probe period.
    pub fd_probe_interval_ms: Option<u64>,
    /// Edge failure detector probe timeout.
    pub fd_probe_timeout_ms: Option<u64>,
    /// Edge failure detector window size.
    pub fd_window: Option<usize>,
    /// Edge failure detector failure fraction.
    pub fd_fail_fraction: Option<f64>,
    /// Unstable-mode reinforcement timeout.
    pub reinforce_timeout_ms: Option<u64>,
    /// Fast-path abandonment base delay.
    pub consensus_fallback_base_ms: Option<u64>,
    /// Fast-path abandonment jitter.
    pub consensus_fallback_jitter_ms: Option<u64>,
    /// Classic-round takeover timeout.
    pub classic_round_timeout_ms: Option<u64>,
    /// Gossip fan-out per round.
    pub gossip_fanout: Option<usize>,
    /// Gossip round interval.
    pub gossip_interval_ms: Option<u64>,
    /// Join phase retry timeout.
    pub join_timeout_ms: Option<u64>,
    /// First-view bootstrap batch.
    pub bootstrap_batch: Option<usize>,
    /// Gossip vs unicast-to-all broadcaster.
    pub use_gossip_broadcast: Option<bool>,
    /// Simulator shards (`1` = one shard on the driving thread; traces
    /// are bit-identical at any count). The one key the baseline systems
    /// accept too. Ignored by the real driver.
    pub threads: Option<usize>,
    /// Per-node flight-recorder ring capacity (`0` = off). Rapid-family
    /// sim runs default this on (see `SimDriver::new`) so a failed
    /// expectation can dump the recent protocol history; set explicitly
    /// to override.
    pub obs_ring: Option<usize>,
    /// Metrics timeline sampling cadence in ms (`0` = off, the
    /// default). When on, every report phase carries a `timeline`
    /// object and `--metrics FILE` exports the merged per-node series.
    pub obs_sample_ms: Option<u64>,
    /// Smart-client in-flight op window.
    pub client_window: Option<usize>,
    /// KV node remote-op inbox bound (admission control hard limit).
    pub kv_inbox: Option<usize>,
    /// Soft-shed threshold on the last interval's op p99 (`0` = off).
    pub kv_shed_p99_ms: Option<u64>,
    /// Per-peer decode quota: frames per interval (`0` = off).
    pub peer_quota_frames: Option<u64>,
    /// Per-peer decode quota: bytes per interval (`0` = off).
    pub peer_quota_bytes: Option<u64>,
    /// Per-peer decode quota window length.
    pub peer_quota_interval_ms: Option<u64>,
}

impl SettingsPatch {
    /// Whether the patch changes anything.
    pub fn is_empty(&self) -> bool {
        *self == SettingsPatch::default()
    }

    /// Applies the overrides to a baseline, validating the result (a
    /// scenario demanding `H > K` should fail at load, not corrupt a
    /// run).
    pub fn apply(&self, mut base: Settings) -> Result<Settings, String> {
        macro_rules! set {
            ($($field:ident),*) => {
                $(if let Some(v) = self.$field { base.$field = v; })*
            };
        }
        set!(
            k, h, l, tick_interval_ms, fd_probe_interval_ms, fd_probe_timeout_ms,
            fd_window, fd_fail_fraction, reinforce_timeout_ms, consensus_fallback_base_ms,
            consensus_fallback_jitter_ms, classic_round_timeout_ms, gossip_fanout,
            gossip_interval_ms, join_timeout_ms, bootstrap_batch, use_gossip_broadcast,
            threads, obs_ring, obs_sample_ms, client_window, kv_inbox,
            kv_shed_p99_ms, peer_quota_frames, peer_quota_bytes, peer_quota_interval_ms
        );
        base.validate()
            .map_err(|e| format!("[settings] produces an invalid combination: {e}"))?;
        Ok(base)
    }
}

/// How the cluster comes to exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One seed at t=0; the other `n−1` processes join at t=10 s (the
    /// paper's bootstrap experiments).
    Bootstrap,
    /// All `n` processes start as members of one static configuration
    /// (the paper's failure experiments). Simulator-only: a real cluster
    /// cannot teleport into a steady state, so the real driver bootstraps
    /// and converges first instead.
    Static,
}

/// A named set of cluster-process indices, resolved against `n` at run
/// time so one scenario file scales from laptop to paper size.
#[derive(Clone, Debug, PartialEq)]
pub enum Group {
    /// Explicit indices.
    Nodes(Vec<usize>),
    /// `first, first+1, ..., first+count-1`.
    Range {
        /// First index.
        first: usize,
        /// Number of indices.
        count: usize,
    },
    /// `first, first+step, ...` — `count` indices.
    Stride {
        /// First index.
        first: usize,
        /// Gap between indices.
        step: usize,
        /// Number of indices.
        count: usize,
    },
    /// `count` victims spread evenly across the id space:
    /// `first + i*(n/count − 1)`.
    Spread {
        /// First index.
        first: usize,
        /// Number of indices.
        count: usize,
    },
    /// The first `max(round(n*pct/100), min)` indices — "1% of the
    /// cluster" in the paper's scenarios.
    Percent {
        /// Percentage of `n`.
        pct: f64,
        /// Lower bound on the resolved size.
        min: usize,
    },
}

impl Group {
    /// Resolves to concrete cluster-process indices for a cluster of `n`.
    pub fn resolve(&self, n: usize) -> Vec<usize> {
        match self {
            Group::Nodes(v) => v.clone(),
            Group::Range { first, count } => (*first..first + count).collect(),
            Group::Stride { first, step, count } => {
                (0..*count).map(|i| first + i * step).collect()
            }
            Group::Spread { first, count } => {
                let stride = (n / count.max(&1)).saturating_sub(1).max(1);
                (0..*count).map(|i| first + i * stride).collect()
            }
            Group::Percent { pct, min } => {
                let count = ((n as f64 * pct / 100.0).round() as usize).max(*min);
                (0..count).collect()
            }
        }
    }
}

/// Either a named group or inline indices, used by faults and workloads.
#[derive(Clone, Debug, PartialEq)]
pub enum Target {
    /// A named group declared on the scenario.
    Group(String),
    /// Inline indices.
    Nodes(Vec<usize>),
}

impl Target {
    /// A named-group target.
    pub fn group(name: &str) -> Target {
        Target::Group(name.to_string())
    }

    /// A single-node target.
    pub fn node(i: usize) -> Target {
        Target::Nodes(vec![i])
    }
}

/// A fault to inject, in cluster-process index space.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Crash every node of the target.
    Crash(Target),
    /// Set the ingress packet-drop probability of every target node.
    IngressDrop(Target, f64),
    /// Set the egress packet-drop probability of every target node.
    EgressDrop(Target, f64),
    /// Partition the target from the rest of the cluster.
    Partition(Target),
    /// Bidirectional blackhole between two nodes.
    BlackholePair(usize, usize),
    /// Remove the bidirectional blackhole between two nodes.
    ClearBlackholePair(usize, usize),
    /// One-way loss probability on a single link.
    LinkLoss(usize, usize, f64),
    /// Latency multiplier on every link touching the target nodes.
    SlowNode(Target, f64),
    /// Global packet-duplication probability.
    Duplicate(f64),
    /// Probabilistic extra delay (reordering).
    Reorder(f64, u64),
    /// Replace the latency model.
    Latency(LatencyDist),
}

/// Repetition of an injection: fire `count` times, `period_ms` apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Repeat {
    /// Gap between firings.
    pub period_ms: u64,
    /// Total number of firings (including the first).
    pub count: u32,
}

/// One scheduled fault injection within a phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Inject {
    /// Offset from the phase start.
    pub at_ms: u64,
    /// The fault.
    pub fault: FaultSpec,
    /// Optional repetition (flip-flop schedules).
    pub repeat: Option<Repeat>,
}

impl Inject {
    /// An injection at `at_ms` after the phase starts.
    pub fn at(at_ms: u64, fault: FaultSpec) -> Inject {
        Inject {
            at_ms,
            fault,
            repeat: None,
        }
    }

    /// Repeats the injection `count` times, `period_ms` apart.
    pub fn every(mut self, period_ms: u64, count: u32) -> Inject {
        self.repeat = Some(Repeat { period_ms, count });
        self
    }
}

/// An application-level action within a phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Offset from the phase start.
    pub at_ms: u64,
    /// The action.
    pub action: WorkloadAction,
}

/// How a `put` workload draws keys from its `kv-NNNNN` keyspace
/// (`key_dist` in TOML).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum KeyDist {
    /// One write per key, in order (`kv-00000 .. kv-{count-1}`) — the
    /// uniform default every pre-existing scenario uses.
    #[default]
    Sequential,
    /// `count` writes drawn Zipf-distributed over the same `count`-key
    /// space: rank `k` carries weight `1/(k+1)^s`, so a few hot keys
    /// absorb most writes and one partition's shard becomes the
    /// hotspot. Sampling is seeded from the scenario seed — identical
    /// runs draw identical keys.
    Zipfian {
        /// Skew exponent (`zipf_s` in TOML, must be `> 0`; larger =
        /// hotter head; ~1.1 approximates web-cache traces).
        s: f64,
    },
}

/// The kinds of workload actions.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadAction {
    /// Start `count` fresh processes that join the cluster.
    Join {
        /// Number of joiners.
        count: usize,
    },
    /// Voluntary departure of every target node.
    Leave(Target),
    /// Write `count` keys (`kv-00000`, `kv-00001`, ...) through the KV
    /// data plane; repeated `put` workloads overwrite the same keys with
    /// fresh values, exercising version monotonicity. Requires `[kv]`.
    Put {
        /// Number of keys written.
        count: usize,
        /// Which smart client submits the batch: client `via` modulo
        /// `[kv] clients` (`None` = client 0). Ignored by the real
        /// driver, which hosts one `KvClientRuntime`.
        via: Option<usize>,
        /// Minimum value size in bytes for this workload, overriding the
        /// `[kv]` table's `value_size` (`None` = inherit).
        value_size: Option<usize>,
        /// Key distribution (sequential sweep by default, or a seeded
        /// zipfian hot-key draw).
        key_dist: KeyDist,
    },
}

/// A cluster-size expression, resolved against `n` and the scenario's
/// groups: `n`, `n - 3`, or `n - <group>`.
#[derive(Clone, Debug, PartialEq)]
pub struct SizeExpr {
    /// Fixed subtrahend.
    pub minus: usize,
    /// Subtract the resolved size of this group.
    pub minus_group: Option<String>,
    /// Absolute size instead of `n`-relative (used when the expression
    /// was a plain integer).
    pub absolute: Option<usize>,
}

impl SizeExpr {
    /// The full cluster: `n`.
    pub fn n() -> SizeExpr {
        SizeExpr {
            minus: 0,
            minus_group: None,
            absolute: None,
        }
    }

    /// `n - k`.
    pub fn n_minus(k: usize) -> SizeExpr {
        SizeExpr {
            minus: k,
            ..SizeExpr::n()
        }
    }

    /// `n - |group|`.
    pub fn n_minus_group(name: &str) -> SizeExpr {
        SizeExpr {
            minus_group: Some(name.to_string()),
            ..SizeExpr::n()
        }
    }

    /// A fixed size.
    pub fn abs(v: usize) -> SizeExpr {
        SizeExpr {
            absolute: Some(v),
            ..SizeExpr::n()
        }
    }

    /// Parses `"n"`, `"n - 10"`, `"n - groupname"`, or `"42"`.
    pub fn parse(s: &str) -> Result<SizeExpr, String> {
        let s = s.trim();
        if let Ok(v) = s.parse::<usize>() {
            return Ok(SizeExpr::abs(v));
        }
        let Some(rest) = s.strip_prefix('n') else {
            return Err(format!("bad size expression {s:?}"));
        };
        let rest = rest.trim();
        if rest.is_empty() {
            return Ok(SizeExpr::n());
        }
        let Some(sub) = rest.strip_prefix('-') else {
            return Err(format!("bad size expression {s:?}"));
        };
        let sub = sub.trim();
        if let Ok(k) = sub.parse::<usize>() {
            Ok(SizeExpr::n_minus(k))
        } else if !sub.is_empty() {
            Ok(SizeExpr::n_minus_group(sub))
        } else {
            Err(format!("bad size expression {s:?}"))
        }
    }

    /// Resolves against the scenario.
    pub fn resolve(&self, scenario: &Scenario) -> Result<usize, String> {
        if let Some(v) = self.absolute {
            return Ok(v);
        }
        let mut v = scenario.n.saturating_sub(self.minus);
        if let Some(g) = &self.minus_group {
            v = v.saturating_sub(scenario.resolve_group_name(g)?.len());
        }
        Ok(v)
    }

    /// Renders the expression for report labels.
    pub fn describe(&self) -> String {
        if let Some(v) = self.absolute {
            return v.to_string();
        }
        match (&self.minus_group, self.minus) {
            (Some(g), 0) => format!("n-{g}"),
            (Some(g), k) => format!("n-{g}-{k}"),
            (None, 0) => "n".to_string(),
            (None, k) => format!("n-{k}"),
        }
    }
}

/// An expectation evaluated during or after a phase.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Run (up to `within_ms`) until every live process reports exactly
    /// the target size; record the convergence instant.
    Converge {
        /// Target cluster size.
        to: SizeExpr,
        /// Budget from the evaluation point.
        within_ms: u64,
        /// Budget override under `--full` scale.
        within_full_ms: Option<u64>,
    },
    /// Instantaneous: every live process reports exactly this size.
    AllReport(SizeExpr),
    /// Instantaneous: no live process reports more than this size.
    MaxSize(SizeExpr),
    /// Every active Rapid node installed the same view-change sequence
    /// (strong consistency). Unsupported drivers record a skip.
    ConsistentHistories,
    /// The phase added at most `at_most` view changes: the increase, over
    /// the phase, of the cumulative `view_changes` in the report (the
    /// paper's "ten concurrent crashes, one view change"). Drivers that
    /// do not track view changes record a skip.
    ViewChanges {
        /// Largest number of view changes the phase may add.
        at_most: u64,
    },
    /// Every key acked so far is currently readable (a `Found` answer)
    /// through a live coordinator. Requires `[kv]`.
    KvAvailable,
    /// Every key acked so far reads back at a version at least as new as
    /// its last acked write — no acknowledged write was lost to churn or
    /// rebalancing. Requires `[kv]`.
    NoLostAckedWrites,
    /// Anti-entropy has converged: every live replica of every partition
    /// reports the same digest and none is still awaiting a handoff.
    /// Polls until `within_ms` elapses. Requires `[kv]`.
    KvConverged {
        /// Budget from the evaluation point (virtual ms on the
        /// simulator, wall-clock on the real driver).
        within_ms: u64,
    },
    /// Admission control fired: the cluster shed at least `min` remote
    /// ops with a typed overload error so far. Requires `[kv]`.
    ShedObserved {
        /// Minimum cumulative shed count across all KV nodes.
        min: u64,
    },
    /// The data plane recovered after an overload burst: within the last
    /// `within_samples` merged timeline samples, at least one sample
    /// shows op throughput at or above `min_ops`.
    /// Requires `[kv]` and `obs_sample_ms > 0`.
    OpsRecover {
        /// How many trailing timeline samples to inspect.
        within_samples: usize,
        /// Ops/sample floor that counts as recovered.
        min_ops: u64,
    },
}

/// One phase of the timeline.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Phase {
    /// Phase name (report key).
    pub name: String,
    /// Fault injections, at offsets from the phase start.
    pub injects: Vec<Inject>,
    /// Workload actions, at offsets from the phase start.
    pub workloads: Vec<Workload>,
    /// If set, run until `phase_start + run_ms` before evaluating
    /// expectations.
    pub run_ms: Option<u64>,
    /// Expectations, evaluated in order after `run_ms` elapses.
    pub expects: Vec<Expect>,
}

impl Phase {
    /// A named, empty phase.
    pub fn new(name: &str) -> Phase {
        Phase {
            name: name.to_string(),
            ..Phase::default()
        }
    }

    /// Adds a fault injection.
    pub fn inject(mut self, i: Inject) -> Phase {
        self.injects.push(i);
        self
    }

    /// Adds a workload action.
    pub fn workload(mut self, at_ms: u64, action: WorkloadAction) -> Phase {
        self.workloads.push(Workload { at_ms, action });
        self
    }

    /// Sets the fixed run duration.
    pub fn run_for(mut self, ms: u64) -> Phase {
        self.run_ms = Some(ms);
        self
    }

    /// Adds an expectation.
    pub fn expect(mut self, e: Expect) -> Phase {
        self.expects.push(e);
        self
    }
}

/// Overrides applied when a scenario is run at `--full` (paper) scale.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FullOverrides {
    /// Cluster size at full scale.
    pub n: Option<usize>,
}

/// A complete declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (report key).
    pub name: String,
    /// Cluster size (cluster processes; auxiliary ensembles excluded).
    pub n: usize,
    /// Master seed (simulator determinism).
    pub seed: u64,
    /// How the cluster forms.
    pub topology: Topology,
    /// Named node groups.
    pub groups: Vec<(String, Group)>,
    /// The timeline.
    pub phases: Vec<Phase>,
    /// `--full` scale overrides.
    pub full: FullOverrides,
    /// Protocol-settings overrides (empty patch = driver defaults).
    pub settings: SettingsPatch,
    /// KV data-plane configuration; `Some` attaches a `rapid-route` KV
    /// node to every cluster process.
    pub kv: Option<KvSpec>,
}

impl Scenario {
    /// Starts building a scenario.
    pub fn build(name: &str, n: usize) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.to_string(),
                n,
                seed: 1,
                topology: Topology::Bootstrap,
                groups: Vec::new(),
                phases: Vec::new(),
                full: FullOverrides::default(),
                settings: SettingsPatch::default(),
                kv: None,
            },
        }
    }

    /// Resolves a named group.
    pub fn resolve_group_name(&self, name: &str) -> Result<Vec<usize>, String> {
        self.groups
            .iter()
            .find(|(g, _)| g == name)
            .map(|(_, g)| g.resolve(self.n))
            .ok_or_else(|| format!("unknown group {name:?}"))
    }

    /// Resolves a target to indices.
    pub fn resolve_target(&self, t: &Target) -> Result<Vec<usize>, String> {
        match t {
            Target::Group(name) => self.resolve_group_name(name),
            Target::Nodes(v) => Ok(v.clone()),
        }
    }

    /// Applies the `[full]` overrides (paper-scale run).
    pub fn apply_full(&mut self) {
        if let Some(n) = self.full.n {
            self.n = n;
        }
        for p in &mut self.phases {
            for e in &mut p.expects {
                if let Expect::Converge {
                    within_ms,
                    within_full_ms: Some(full),
                    ..
                } = e
                {
                    *within_ms = *full;
                }
            }
        }
    }

    /// Parses a scenario from TOML text (see `docs/SCENARIOS.md` for the
    /// schema; the shipped `scenarios/*.toml` are canonical examples).
    pub fn from_toml(text: &str) -> Result<Scenario, String> {
        let root = crate::toml::parse(text)?;
        crate::load::scenario_from_value(&root)
    }
}

/// Builder for [`Scenario`].
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Sets the topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.scenario.topology = t;
        self
    }

    /// Declares a named group.
    pub fn group(mut self, name: &str, g: Group) -> Self {
        self.scenario.groups.push((name.to_string(), g));
        self
    }

    /// Appends a phase.
    pub fn phase(mut self, p: Phase) -> Self {
        self.scenario.phases.push(p);
        self
    }

    /// Sets the full-scale cluster size.
    pub fn full_n(mut self, n: usize) -> Self {
        self.scenario.full.n = Some(n);
        self
    }

    /// Applies protocol-settings overrides.
    pub fn settings(mut self, patch: SettingsPatch) -> Self {
        self.scenario.settings = patch;
        self
    }

    /// Attaches the KV data plane.
    pub fn kv(mut self, spec: KvSpec) -> Self {
        self.scenario.kv = Some(spec);
        self
    }

    /// Finishes the build.
    pub fn finish(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_resolve_against_n() {
        assert_eq!(Group::Nodes(vec![3, 9]).resolve(100), vec![3, 9]);
        assert_eq!(Group::Range { first: 2, count: 3 }.resolve(100), vec![2, 3, 4]);
        assert_eq!(
            Group::Stride { first: 2, step: 5, count: 3 }.resolve(100),
            vec![2, 7, 12]
        );
        // fig08's victim spread: 1 + i*(n/10 - 1).
        assert_eq!(
            Group::Spread { first: 1, count: 10 }.resolve(200)[..3],
            [1, 20, 39]
        );
        // fig09's "1% of processes, at least 2".
        assert_eq!(Group::Percent { pct: 1.0, min: 2 }.resolve(200), vec![0, 1]);
        assert_eq!(
            Group::Percent { pct: 1.0, min: 2 }.resolve(1000).len(),
            10
        );
    }

    #[test]
    fn size_expressions_parse_and_resolve() {
        let s = Scenario::build("t", 50)
            .group("victims", Group::Range { first: 0, count: 3 })
            .finish();
        assert_eq!(SizeExpr::parse("n").unwrap().resolve(&s).unwrap(), 50);
        assert_eq!(SizeExpr::parse("n - 10").unwrap().resolve(&s).unwrap(), 40);
        assert_eq!(SizeExpr::parse("n-victims").unwrap().resolve(&s).unwrap(), 47);
        assert_eq!(SizeExpr::parse("42").unwrap().resolve(&s).unwrap(), 42);
        assert!(SizeExpr::parse("m - 1").is_err());
        assert!(
            SizeExpr::parse("n - nosuch").unwrap().resolve(&s).is_err(),
            "unknown group must fail at resolve time"
        );
    }

    #[test]
    fn full_overrides_apply() {
        let mut s = Scenario::build("t", 200)
            .full_n(1000)
            .phase(Phase::new("boot").expect(Expect::Converge {
                to: SizeExpr::n(),
                within_ms: 600_000,
                within_full_ms: Some(1_200_000),
            }))
            .finish();
        s.apply_full();
        assert_eq!(s.n, 1000);
        match &s.phases[0].expects[0] {
            Expect::Converge { within_ms, .. } => assert_eq!(*within_ms, 1_200_000),
            _ => unreachable!(),
        }
    }
}
