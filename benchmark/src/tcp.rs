//! The TCP workloads: a loopback cluster of `KvRuntime`s driven by one
//! generator thread through one `KvClientRuntime`.
//!
//! Everything here goes through the repo's public surface only. TCP is
//! the host's loopback interface and no delay is injected, so latencies
//! are processor and wake-up time, not network time.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use rapid_core::config::{ConfigId, Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::settings::Settings;
use rapid_core::Metadata;
use rapid_route::client::ClientStats;
use rapid_route::kv::{self, KvMsg, KvOutcome, KvStats};
use rapid_route::placement::{partition_of, Placement, PlacementConfig};
use rapid_route::real::{KvClientRuntime, KvRuntime};
use rapid_transport::AppPeer;

use crate::gen::{due_time, Inputs, Op};
use crate::proc::{self, CpuMeter};

/// Placement every TCP workload uses.
pub const ROUTE: PlacementConfig = PlacementConfig {
    partitions: 64,
    replication: 3,
};
/// Per-op deadline inside the program (client and nodes).
pub const OP_TIMEOUT_MS: u64 = 2_000;
/// Anti-entropy cadence of every node.
pub const REPAIR_INTERVAL_MS: u64 = 500;
/// Client in-flight window; above the deepest closed loop so the
/// client never queues on its own.
pub const CLIENT_WINDOW: usize = 8_192;
/// An open-loop op is on time when it succeeds within this of its due
/// time.
pub const SLO: Duration = Duration::from_millis(50);
/// On-time successes in a row that end the unavailable period.
pub const RECOVERY_RUN: usize = 50;

/// Protocol timers of the wall-clock driver, written out (they equal
/// `RealDriver::default_settings()` at the commit that added the
/// benchmark) so that a later change of defaults shows as a change of
/// the program, not of the benchmark. One data-plane shard; the
/// admission inbox is raised so it never sheds.
pub fn settings() -> Settings {
    Settings {
        tick_interval_ms: 20,
        fd_probe_interval_ms: 200,
        fd_probe_timeout_ms: 200,
        consensus_fallback_base_ms: 1_500,
        consensus_fallback_jitter_ms: 500,
        join_timeout_ms: 1_000,
        gossip_interval_ms: 50,
        kv_shards: 1,
        kv_inbox: 1 << 20,
        ..Settings::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Each of `outstanding` logical callers issues its next op when the
    /// previous one completes: a slow system receives less load.
    Closed { outstanding: usize },
    /// Ops are issued on a fixed schedule of `rate` per second whatever
    /// the system does, and timed from the instant they were due.
    Open { rate: u64 },
}

#[derive(Clone, Copy, Debug)]
pub struct TcpWorkload {
    pub name: &'static str,
    pub nodes: usize,
    pub keys: usize,
    pub value_bytes: usize,
    pub put_permille: u64,
    pub load: Load,
    /// Node `nodes - 1` is hard-stopped after this share of the timed
    /// window.
    pub crash_at: Option<f64>,
}

pub struct RunCfg {
    pub seed: u64,
    /// Length of the timed window of one round.
    pub seconds: f64,
    pub warmup_s: f64,
    /// How many times a cluster is formed and preloaded: one round each.
    /// `setup_s` is the median over rounds.
    pub rounds: usize,
    /// How many of the rounds carry load (the first ones); the rest are
    /// torn down after the set-up. Every cluster draws its own node
    /// identities and ports, so its placement and the phases of its
    /// polling loops differ: pooling rounds averages over that.
    pub measured: usize,
    /// Per-layer extras (submit timing, queue-depth sampling, idle CPU).
    pub instrument: bool,
    /// Self-test of the checker: expect a version no put was given, so
    /// the read-back must report a lost write.
    pub break_check: bool,
}

/// One timed-window op of an open loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpRec {
    /// Due time from the start of the timed window.
    pub due: Duration,
    pub key: u32,
    /// Due time to success; `None` if it never succeeded.
    pub latency: Option<Duration>,
}

#[derive(Default)]
pub struct CrashFacts {
    /// Crash instant from the start of the timed window.
    pub at: Duration,
    pub unavail_ms: Option<f64>,
    /// Crash until every survivor reports the smaller view, wall clock.
    pub view_change_wall_ms: Option<f64>,
    /// Views a survivor installed from the crash to the end, the maximum
    /// over survivors.
    pub view_changes: u64,
}

/// What one round (one cluster) measured.
#[derive(Default)]
pub struct TcpRun {
    pub setup_s: f64,
    /// Whether the round carried load; if not, only `setup_s` is set.
    pub measured: bool,
    pub window_s: f64,
    /// Latency of every op completed (closed) or due (open) in the timed
    /// window that succeeded, in microseconds, in time order: the first
    /// `per_second[0]` entries belong to second 0, and so on.
    pub lat_us: Vec<f64>,
    /// Successful completions per whole second of the timed window.
    pub per_second: Vec<u64>,
    /// Ops completed or given up on in the timed window (closed), or
    /// due in it (open).
    pub attempted: u64,
    /// Of those, ops that never succeeded.
    pub failed: u64,
    /// Attempts that came back `Failed` or were dropped by the runtime
    /// and were issued again.
    pub failed_attempts: u64,
    /// Attempts, retries included.
    pub attempts: u64,
    /// Successes within [`SLO`] of the due time (open loop).
    pub on_time: u64,
    pub cpu_ns: u64,
    /// `(process CPU ns, successful ops)` per whole second of the window.
    pub cpu_per_second: Vec<(u64, u64)>,
    pub gen_cpu_ns: u64,
    pub peak_rss_mib: f64,
    pub kv: KvStats,
    pub client: ClientStats,
    /// How late the open-loop generator issued ops, microseconds, ascending.
    pub late_us: Vec<f64>,
    pub crash: Option<CrashFacts>,
    pub submit_ns: Option<f64>,
    pub inbox_depth_max: u64,
    pub shard_depth_max: u64,
    pub quota_dropped: u64,
    pub idle_cpu_pct: Option<f64>,
    /// Ops issued before the timed window closed, warm-up included: the
    /// prefix of the seeded stream a replay has to cover.
    pub stream_len: u64,
    pub violations: Vec<String>,
}

impl TcpRun {
    pub fn completed(&self) -> u64 {
        self.lat_us.len() as u64
    }
}

// ---------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------

struct Cluster {
    nodes: Vec<Option<KvRuntime>>,
    addrs: Vec<Endpoint>,
    client: KvClientRuntime,
}

fn wait_for(what: &str, timeout: Duration, mut f: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    while !f() {
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

impl Cluster {
    /// Seed plus `n - 1` concurrent joiners, then one subscribed client.
    fn form(n: usize) -> Result<Cluster, String> {
        let io = |e: std::io::Error| format!("starting a process: {e}");
        let any = Endpoint::new("127.0.0.1", 0);
        let seed = KvRuntime::start_seed(any, settings(), ROUTE, OP_TIMEOUT_MS, REPAIR_INTERVAL_MS)
            .map_err(io)?;
        let seed_addr = seed.addr();
        let mut nodes = vec![seed];
        for _ in 1..n {
            nodes.push(
                KvRuntime::start_joiner(
                    any,
                    vec![seed_addr],
                    settings(),
                    Metadata::new(),
                    ROUTE,
                    OP_TIMEOUT_MS,
                    REPAIR_INTERVAL_MS,
                )
                .map_err(io)?,
            );
        }
        wait_for("the cluster to form", Duration::from_secs(60), || {
            nodes.iter().all(|p| p.view_len() == n)
        })?;
        let addrs: Vec<Endpoint> = nodes.iter().map(|p| p.addr()).collect();
        let client = KvClientRuntime::start(addrs.clone(), ROUTE, CLIENT_WINDOW, OP_TIMEOUT_MS)
            .map_err(io)?;
        wait_for("the client's first view", Duration::from_secs(20), || {
            client.view_seq().is_some()
        })?;
        Ok(Cluster {
            nodes: nodes.into_iter().map(Some).collect(),
            addrs,
            client,
        })
    }

    fn live(&self) -> impl Iterator<Item = &KvRuntime> {
        self.nodes.iter().flatten()
    }

    fn kv_stats(&self) -> KvStats {
        let mut total = KvStats::default();
        for p in self.live() {
            total.absorb(&p.stats());
        }
        total
    }

    fn shutdown(self) {
        self.client.shutdown_now();
        for p in self.nodes.into_iter().flatten() {
            p.shutdown_now();
        }
    }
}

/// A membership view as a node pushes it to a subscriber.
pub struct PushedView {
    pub config_id: u64,
    pub seq: u64,
    pub members: Vec<(u128, Endpoint)>,
}

/// Subscribes to each address over its own `AppPeer` and returns the
/// view each one answers with — the only way to read a configuration id
/// from outside the process.
pub fn pushed_views(addrs: &[Endpoint]) -> Result<Vec<PushedView>, String> {
    let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let mut sub = Vec::new();
    kv::encode(&KvMsg::Sub, &mut sub);
    let views = addrs
        .iter()
        .map(|&addr| {
            peer.send_app(addr, sub.clone());
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match peer.events().recv_timeout(Duration::from_millis(50)) {
                    Ok((from, bytes)) if from == addr => {
                        if let Ok(KvMsg::View {
                            config_id,
                            seq,
                            members,
                        }) = kv::decode(&bytes)
                        {
                            return Ok(PushedView {
                                config_id,
                                seq,
                                members,
                            });
                        }
                    }
                    Ok(_) => {}
                    Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
                    Err(_) => return Err(format!("{addr} pushed no view")),
                }
            }
        })
        .collect();
    peer.shutdown_now();
    views
}

/// The placement the servers computed for a pushed view; the same
/// reconstruction the smart client performs.
pub fn placement_of(view: &PushedView) -> (Arc<Configuration>, Placement) {
    let members = view
        .members
        .iter()
        .map(|&(id, ep)| Member::new(NodeId::from_u128(id), ep))
        .collect();
    let config = Configuration::from_parts(ConfigId(view.config_id), view.seq, members);
    let placement = Placement::compute(&config, &ROUTE);
    (config, placement)
}

// ---------------------------------------------------------------------
// Correctness ledger
// ---------------------------------------------------------------------

/// What the bench knows about every put it issued, enough to judge any
/// value the store later returns.
struct Ledger {
    /// Key of put number `seq`; `u32::MAX` for gets.
    key_of_put: Vec<u32>,
    /// Highest acked `(version, seq)` per key.
    best: Vec<(u64, u64)>,
    /// Puts with an attempt that was not acked: they may still have been
    /// applied, so their value is a legal final value.
    unacked: HashSet<u64>,
    violations: Vec<String>,
}

impl Ledger {
    fn new(keys: usize) -> Ledger {
        Ledger {
            key_of_put: Vec::new(),
            best: vec![(0, 0); keys],
            unacked: HashSet::new(),
            violations: Vec::new(),
        }
    }

    fn issued(&mut self, op: Op) {
        debug_assert_eq!(op.seq as usize, self.key_of_put.len());
        self.key_of_put
            .push(if op.is_put { op.key } else { u32::MAX });
    }

    fn violation(&mut self, text: String) {
        if self.violations.len() < 20 {
            self.violations.push(text);
        }
    }

    fn writer_of(&self, key: u32, val: &str) -> Option<u64> {
        let seq = Inputs::seq_of_value(val)?;
        (self.key_of_put.get(seq as usize) == Some(&key)).then_some(seq)
    }

    /// Judges an outcome; `true` when the op succeeded.
    fn outcome(&mut self, op: Op, outcome: &KvOutcome) -> bool {
        match (op.is_put, outcome) {
            (true, KvOutcome::Acked { version }) => {
                let best = &mut self.best[op.key as usize];
                if *version > best.0 {
                    *best = (*version, op.seq);
                }
                true
            }
            (false, KvOutcome::Found { val, .. }) => {
                if self.writer_of(op.key, val).is_none() {
                    self.violation(format!(
                        "get of key {} returned a value no put wrote",
                        op.key
                    ));
                }
                true
            }
            (false, KvOutcome::Missing) => {
                self.violation(format!("get of preloaded key {} found nothing", op.key));
                true
            }
            (_, KvOutcome::Failed) => {
                if op.is_put {
                    self.unacked.insert(op.seq);
                }
                false
            }
            (is_put, other) => {
                self.violation(format!("op (put={is_put}) completed as {other:?}"));
                true
            }
        }
    }

    /// Judges the value a key holds after the load stopped.
    fn final_value(&mut self, inputs: &Inputs, key: u32, outcome: &KvOutcome) {
        let (acked_version, acked_seq) = self.best[key as usize];
        let KvOutcome::Found { val, version } = outcome else {
            self.violation(format!("read-back of key {key}: {outcome:?}"));
            return;
        };
        let Some(writer) = self.writer_of(key, val) else {
            self.violation(format!("read-back of key {key}: value no put wrote"));
            return;
        };
        if *val != inputs.value(writer) {
            self.violation(format!(
                "read-back of key {key}: value of put {writer} is corrupt"
            ));
        }
        let ok = match version.cmp(&acked_version) {
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => writer == acked_seq,
            // Newer than anything acked: only an unacked put may have
            // written it.
            std::cmp::Ordering::Greater => self.unacked.contains(&writer),
        };
        if !ok {
            self.violation(format!(
                "lost acked write on key {key}: acked put {acked_seq} at version {acked_version}, \
                 store holds put {writer} at version {version}"
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------

struct Pending {
    rx: Receiver<KvOutcome>,
    op: Op,
    /// Issue time (closed loop) or due time (open loop) of the first
    /// attempt; latency is taken from here across retries.
    from: Instant,
    timed: bool,
}

struct Generator<'a> {
    client: &'a KvClientRuntime,
    inputs: Inputs,
    ledger: Ledger,
    submit_timing: Option<(u64, u64)>,
    attempts: u64,
    failed_attempts: u64,
}

impl Generator<'_> {
    fn submit(&mut self, op: Op) -> Receiver<KvOutcome> {
        let key = self.inputs.key(op.key);
        let t = self.submit_timing.is_some().then(Instant::now);
        let rx = if op.is_put {
            self.client.begin_put(key, &self.inputs.value(op.seq))
        } else {
            self.client.begin_get(key)
        };
        if let (Some(t), Some((sum, n))) = (t, self.submit_timing.as_mut()) {
            *sum += t.elapsed().as_nanos() as u64;
            *n += 1;
        }
        self.attempts += 1;
        rx
    }

    fn next(&mut self) -> Op {
        let op = self.inputs.next_op();
        self.ledger.issued(op);
        op
    }

    /// `Some(succeeded)` once the attempt has an outcome.
    fn poll(&mut self, p: &Pending, wait: Option<Duration>) -> Option<bool> {
        let outcome = match wait {
            Some(d) => match p.rx.recv_timeout(d) {
                Ok(o) => o,
                Err(RecvTimeoutError::Timeout) => return None,
                // The runtime dropped the op without an answer.
                Err(RecvTimeoutError::Disconnected) => KvOutcome::Failed,
            },
            None => match p.rx.try_recv() {
                Ok(o) => o,
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => KvOutcome::Failed,
            },
        };
        let ok = self.ledger.outcome(p.op, &outcome);
        if !ok {
            self.failed_attempts += 1;
        }
        Some(ok)
    }

    /// Runs `ops` to completion `width` at a time, retrying failures;
    /// used for the preload and the read-back, outside the timed window.
    fn run_all(
        &mut self,
        ops: &[Op],
        width: usize,
        mut done: impl FnMut(&mut Ledger, Op, &KvOutcome),
    ) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut next = 0;
        let mut pending: VecDeque<(Op, Receiver<KvOutcome>)> = VecDeque::new();
        while next < ops.len() || !pending.is_empty() {
            while pending.len() < width && next < ops.len() {
                pending.push_back((ops[next], self.submit(ops[next])));
                next += 1;
            }
            let (op, rx) = pending.pop_front().expect("non-empty");
            let outcome = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or(KvOutcome::Failed);
            if outcome == KvOutcome::Failed {
                self.failed_attempts += 1;
                if op.is_put {
                    self.ledger.unacked.insert(op.seq);
                }
                if Instant::now() >= deadline {
                    return Err(format!("op on key {} kept failing", op.key));
                }
                pending.push_back((op, self.submit(op)));
            } else {
                done(&mut self.ledger, op, &outcome);
            }
        }
        Ok(())
    }
}

/// Forms the cluster and preloads every key; returns the set-up time.
fn set_up(w: &TcpWorkload, seed: u64) -> Result<(Cluster, Inputs, Ledger, f64), String> {
    let t = Instant::now();
    let cluster = Cluster::form(w.nodes)?;
    let mut inputs = Inputs::new(seed, w.keys, w.value_bytes, w.put_permille);
    let mut ledger = Ledger::new(w.keys);
    let preload = inputs.preload();
    for &op in &preload {
        ledger.issued(op);
    }
    let mut gen = Generator {
        client: &cluster.client,
        inputs,
        ledger,
        submit_timing: None,
        attempts: 0,
        failed_attempts: 0,
    };
    gen.run_all(&preload, 256, |ledger, op, outcome| {
        ledger.outcome(op, outcome);
    })?;
    let Generator { inputs, ledger, .. } = gen;
    Ok((cluster, inputs, ledger, t.elapsed().as_secs_f64()))
}

/// Runs one TCP workload as `cfg.rounds` rounds, one cluster each.
pub fn run(w: &TcpWorkload, cfg: &RunCfg) -> Result<Vec<TcpRun>, String> {
    (0..cfg.rounds.max(1))
        .map(|i| round(w, cfg, i as u64, i < cfg.measured.max(1)))
        .collect()
}

/// One round: set-up, then (if `measured`) warm-up, the timed window,
/// drain, read-back and agreement checks.
fn round(w: &TcpWorkload, cfg: &RunCfg, index: u64, measured: bool) -> Result<TcpRun, String> {
    let mut out = TcpRun::default();
    // Round 0 runs the stream of `--seed`; later rounds draw their own.
    let seed = cfg.seed.wrapping_add(index.wrapping_mul(0x9E37_79B9));
    let (mut cluster, inputs, ledger, secs) = set_up(w, seed)?;
    out.setup_s = secs;
    if !measured {
        cluster.shutdown();
        return Ok(out);
    }
    out.measured = true;

    let meter = Arc::new(Mutex::new(CpuMeter::new()));
    if cfg.instrument {
        // A formed, preloaded cluster with no client load.
        let c0 = meter.lock().expect("meter").sample();
        let t = Instant::now();
        std::thread::sleep(Duration::from_millis(1_500));
        let c1 = meter.lock().expect("meter").sample();
        out.idle_cpu_pct = Some((c1 - c0) as f64 / t.elapsed().as_nanos() as f64 * 100.0);
    }

    // Which keys the victim leads, from the view the servers push.
    let victim = w.crash_at.map(|_| w.nodes - 1);
    let victim_led: Vec<bool> = match victim {
        Some(v) => {
            let view = pushed_views(&cluster.addrs[..1])?.remove(0);
            let (config, placement) = placement_of(&view);
            (0..w.keys as u32)
                .map(|k| {
                    let leader = placement.leader(partition_of(inputs.key(k), ROUTE.partitions));
                    config.member_at(leader as usize).addr == cluster.addrs[v]
                })
                .collect()
        }
        None => Vec::new(),
    };

    let start = Instant::now();
    let t0 = start + Duration::from_secs_f64(cfg.warmup_s);
    let t_end = t0 + Duration::from_secs_f64(cfg.seconds);
    out.window_s = cfg.seconds;
    out.per_second = vec![0; cfg.seconds.floor() as usize];

    let crash_at = w
        .crash_at
        .map(|share| t0 + Duration::from_secs_f64(cfg.seconds * share));
    // The victim leaves the cluster's books now, so every counter read
    // from here on covers the survivors only.
    let injector = victim.map(|v| {
        let node = cluster.nodes[v].take().expect("victim is live");
        let at = crash_at.expect("crash workloads have a crash time");
        let meter = Arc::clone(&meter);
        std::thread::spawn(move || {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            // The victim's threads are about to exit; bank their CPU.
            meter.lock().expect("meter").sample();
            let crashed = Instant::now();
            node.shutdown_now();
            crashed
        })
    });
    let views_before: Vec<u64> = cluster.live().map(|p| p.view_count()).collect();

    let mut gen = Generator {
        client: &cluster.client,
        inputs,
        ledger,
        submit_timing: cfg.instrument.then_some((0, 0)),
        attempts: 0,
        failed_attempts: 0,
    };
    let mut window = Window {
        start,
        t0,
        t_end,
        cluster: &cluster,
        meter: &meter,
        stats0: None,
        cpu0: None,
        cpu1: None,
        gen_cpu0: 0,
        gen_cpu1: 0,
        second_mark: (0, 0),
        next_second: t0 + Duration::from_secs(1),
        next_sample: start,
        instrument: cfg.instrument,
    };
    let mut recs: Vec<OpRec> = Vec::new();
    let mut view_changed_at = None;
    match w.load {
        Load::Closed { outstanding } => closed_loop(&mut window, &mut gen, outstanding, &mut out),
        Load::Open { rate } => {
            let total = ((cfg.warmup_s + cfg.seconds) * rate as f64) as u64;
            let shrunk = crash_at.map(|at| (at, w.nodes - 1));
            (recs, view_changed_at) =
                open_loop(&mut window, &mut gen, rate, total, shrunk, &mut out);
        }
    }
    window.observe(Instant::now(), out.lat_us.len() as u64, &mut out);
    out.cpu_ns = window
        .cpu1
        .unwrap_or(0)
        .saturating_sub(window.cpu0.unwrap_or(0));
    out.gen_cpu_ns = window.gen_cpu1.saturating_sub(window.gen_cpu0);
    out.attempts = gen.attempts;
    out.failed_attempts = gen.failed_attempts;
    if let Some((sum, n)) = gen.submit_timing {
        out.submit_ns = Some(sum as f64 / n.max(1) as f64);
    }

    // Counters over the timed window plus the drain: what the cluster
    // counted before the window opened (preload, warm-up) comes off.
    let (kv0, client0) = window.stats0.unwrap_or_default();
    out.kv = kv_since(cluster.kv_stats(), &kv0);
    out.client = client_since(cluster.client.stats(), &client0);
    out.quota_dropped = cluster.live().map(|p| p.quota_dropped()).sum();

    if let Some(handle) = injector {
        let crashed = handle
            .join()
            .map_err(|_| "the crash injector panicked".to_string())?;
        let at = crashed.saturating_duration_since(t0);
        let view_changes = cluster
            .live()
            .zip(&views_before)
            .map(|(p, before)| p.view_count() - before)
            .max()
            .unwrap_or(0);
        out.crash = Some(CrashFacts {
            at,
            unavail_ms: unavailable_ms(&recs, &victim_led, at),
            view_change_wall_ms: view_changed_at
                .map(|t: Instant| t.saturating_duration_since(crashed).as_secs_f64() * 1e3),
            view_changes,
        });
    }

    // Read every key back and judge it against the ledger.
    let readback: Vec<Op> = (0..w.keys as u32)
        .map(|key| Op {
            seq: u64::MAX,
            key,
            is_put: false,
        })
        .collect();
    let mut finals: Vec<(u32, KvOutcome)> = Vec::with_capacity(w.keys);
    gen.run_all(&readback, 64, |_, op, outcome| {
        finals.push((op.key, outcome.clone()))
    })?;
    let Generator {
        inputs, mut ledger, ..
    } = gen;
    if cfg.break_check {
        ledger.best[0].0 = u64::MAX;
    }
    for (key, outcome) in &finals {
        ledger.final_value(&inputs, *key, outcome);
    }

    // Survivors must agree on one configuration of the right size.
    let live_addrs: Vec<Endpoint> = cluster.live().map(|p| p.addr()).collect();
    let views = pushed_views(&live_addrs)?;
    let ids: HashSet<u64> = views.iter().map(|v| v.config_id).collect();
    if ids.len() != 1 {
        ledger.violation(format!("survivors hold {} configuration ids", ids.len()));
    }
    if views.iter().any(|v| v.members.len() != live_addrs.len()) {
        ledger.violation("a survivor's view is not the set of survivors".to_string());
    }
    out.violations = ledger.violations;
    out.peak_rss_mib = proc::peak_rss_mib();
    cluster.shutdown();
    Ok(out)
}

/// Closed loop: keeps `outstanding` ops in flight until the window
/// closes, then drains. Blocks on the oldest op and takes what else is
/// ready in issue order, so one thread can hold thousands of ops.
fn closed_loop(window: &mut Window, gen: &mut Generator, outstanding: usize, out: &mut TcpRun) {
    let (t0, t_end) = (window.t0, window.t_end);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(outstanding);
    loop {
        let now = Instant::now();
        window.observe(now, out.lat_us.len() as u64, out);
        if now < t_end {
            while pending.len() < outstanding {
                let op = gen.next();
                let from = Instant::now();
                out.stream_len += 1;
                pending.push_back(Pending {
                    rx: gen.submit(op),
                    op,
                    from,
                    timed: from >= t0,
                });
            }
        } else if pending.is_empty() || now >= t_end + Duration::from_millis(2 * OP_TIMEOUT_MS) {
            break;
        }
        let mut wait = Some(Duration::from_millis(5));
        while let Some(front) = pending.front() {
            let Some(ok) = gen.poll(front, wait.take()) else {
                break;
            };
            let p = pending.pop_front().expect("front exists");
            let done = Instant::now();
            if !ok {
                if done < t_end {
                    pending.push_back(Pending {
                        rx: gen.submit(p.op),
                        ..p
                    });
                } else if p.timed {
                    out.attempted += 1;
                    out.failed += 1;
                }
            } else if p.timed && done < t_end {
                // Ops that finish in the drain are neither timed nor
                // counted: the window holds completions only.
                out.attempted += 1;
                out.lat_us.push((done - p.from).as_nanos() as f64 / 1e3);
                let sec = (done - t0).as_secs() as usize;
                if let Some(slot) = out.per_second.get_mut(sec) {
                    *slot += 1;
                }
            }
        }
    }
    let stuck = pending.iter().filter(|p| p.timed).count() as u64;
    out.attempted += stuck;
    out.failed += stuck;
}

/// Open loop: issues op `i` when `due_time(i, rate)` has passed,
/// whatever the system does, sweeps every op in flight each pass, and
/// retries failures until the drain ends. Returns one record per op due
/// in the window, in due order, and — when told the crash time and the
/// survivors' count — the instant every survivor reported the smaller
/// view.
fn open_loop(
    window: &mut Window,
    gen: &mut Generator,
    rate: u64,
    total: u64,
    shrunk: Option<(Instant, usize)>,
    out: &mut TcpRun,
) -> (Vec<OpRec>, Option<Instant>) {
    let (start, t0, t_end) = (window.start, window.t0, window.t_end);
    let mut pending: Vec<Pending> = Vec::new();
    let mut retry: Vec<Pending> = Vec::new();
    let mut recs: Vec<OpRec> = Vec::new();
    let mut view_changed_at = None;
    let mut next_i = 0u64;
    let mut succeeded = 0u64;
    loop {
        let now = Instant::now();
        window.observe(now, succeeded, out);
        if let (Some((at, survivors)), None) = (shrunk, view_changed_at) {
            if now >= at && window.cluster.live().all(|p| p.view_len() == survivors) {
                view_changed_at = Some(now);
            }
        }
        while next_i < total && start + due_time(next_i, rate) <= now {
            let due = start + due_time(next_i, rate);
            next_i += 1;
            let op = gen.next();
            let timed = due >= t0;
            out.attempted += timed as u64;
            out.stream_len += 1;
            if timed {
                out.late_us
                    .push((Instant::now() - due).as_nanos() as f64 / 1e3);
            }
            pending.push(Pending {
                rx: gen.submit(op),
                op,
                from: due,
                timed,
            });
        }
        for p in retry.drain(..) {
            pending.push(Pending {
                rx: gen.submit(p.op),
                ..p
            });
        }
        let mut i = 0;
        while i < pending.len() {
            let Some(ok) = gen.poll(&pending[i], None) else {
                i += 1;
                continue;
            };
            let p = pending.swap_remove(i);
            let done = Instant::now();
            let draining = done >= t_end + Duration::from_millis(OP_TIMEOUT_MS);
            if !ok && !draining {
                retry.push(p);
            } else if p.timed {
                succeeded += ok as u64;
                recs.push(OpRec {
                    due: p.from - t0,
                    key: p.op.key,
                    latency: ok.then(|| done - p.from),
                });
            }
        }
        let drained = pending.is_empty() && retry.is_empty();
        if next_i >= total && (drained || now >= t_end + Duration::from_millis(3 * OP_TIMEOUT_MS)) {
            break;
        }
        let nap = if next_i < total {
            (start + due_time(next_i, rate)).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(1)
        };
        std::thread::sleep(nap.min(Duration::from_micros(500)));
    }
    for p in pending.iter().chain(&retry).filter(|p| p.timed) {
        recs.push(OpRec {
            due: p.from - t0,
            key: p.op.key,
            latency: None,
        });
    }
    recs.sort_by_key(|r| r.due);
    for r in &recs {
        match r.latency {
            Some(l) => {
                out.lat_us.push(l.as_nanos() as f64 / 1e3);
                out.on_time += (l <= SLO) as u64;
                // Credit the second the op was due in.
                if let Some(slot) = out.per_second.get_mut(r.due.as_secs() as usize) {
                    *slot += 1;
                }
            }
            None => out.failed += 1,
        }
    }
    crate::stats::sorted(&mut out.late_us);
    (recs, view_changed_at)
}

/// The clocks of one timed window and the readings taken at its edges:
/// cluster counters and CPU when it opens, CPU per whole second, CPU
/// when it closes and, when instrumented, queue depths every 100 ms.
struct Window<'a> {
    start: Instant,
    t0: Instant,
    t_end: Instant,
    cluster: &'a Cluster,
    meter: &'a Mutex<CpuMeter>,
    /// Cluster counters when the window opened.
    stats0: Option<(KvStats, ClientStats)>,
    cpu0: Option<u64>,
    cpu1: Option<u64>,
    gen_cpu0: u64,
    gen_cpu1: u64,
    /// Reading at the last whole-second boundary: `(cpu, ops so far)`.
    second_mark: (u64, u64),
    next_second: Instant,
    next_sample: Instant,
    instrument: bool,
}

impl Window<'_> {
    /// Called once per pass of a load loop; `done` is the number of
    /// successful timed ops so far.
    fn observe(&mut self, now: Instant, done: u64, out: &mut TcpRun) {
        if self.cpu0.is_none() && now >= self.t0 {
            self.stats0 = Some((self.cluster.kv_stats(), self.cluster.client.stats()));
            let cpu = self.meter.lock().expect("meter").sample();
            self.cpu0 = Some(cpu);
            self.gen_cpu0 = proc::thread_cpu_ns();
            self.second_mark = (cpu, done);
        }
        if self.cpu1.is_none() && now >= self.next_second && self.next_second <= self.t_end {
            let cpu = self.meter.lock().expect("meter").sample();
            out.cpu_per_second
                .push((cpu - self.second_mark.0, done - self.second_mark.1));
            self.second_mark = (cpu, done);
            self.next_second += Duration::from_secs(1);
        }
        if self.cpu1.is_none() && now >= self.t_end {
            self.cpu1 = Some(self.meter.lock().expect("meter").sample());
            self.gen_cpu1 = proc::thread_cpu_ns();
        }
        if self.instrument && now >= self.next_sample {
            self.next_sample = now + Duration::from_millis(100);
            for p in self.cluster.live() {
                out.inbox_depth_max = out.inbox_depth_max.max(p.inbox_depth() as u64);
                let deepest = p.shard_depths().into_iter().max().unwrap_or(0);
                out.shard_depth_max = out.shard_depth_max.max(deepest);
            }
        }
    }
}

/// The counters the report uses, as grown since `then`.
fn kv_since(now: KvStats, then: &KvStats) -> KvStats {
    KvStats {
        repairs_triggered: now.repairs_triggered - then.repairs_triggered,
        ops_shed: now.ops_shed - then.ops_shed,
        msgs_sent: now.msgs_sent - then.msgs_sent,
        frames_sent: now.frames_sent - then.frames_sent,
        wire_bytes: now.wire_bytes - then.wire_bytes,
        ..now
    }
}

fn client_since(now: ClientStats, then: &ClientStats) -> ClientStats {
    ClientStats {
        shed: now.shed - then.shed,
        retries: now.retries - then.retries,
        msgs_sent: now.msgs_sent - then.msgs_sent,
        frames_sent: now.frames_sent - then.frames_sent,
        ..now
    }
}

/// Crash instant to the due time of the first op on a victim-led key
/// that starts [`RECOVERY_RUN`] on-time successes in a row on
/// victim-led keys. `recs` is in due order; `crash` and the due times
/// count from the start of the timed window.
pub fn unavailable_ms(recs: &[OpRec], victim_led: &[bool], crash: Duration) -> Option<f64> {
    let after: Vec<&OpRec> = recs
        .iter()
        .filter(|r| r.due >= crash && victim_led[r.key as usize])
        .collect();
    let on_time = |r: &OpRec| r.latency.is_some_and(|l| l <= SLO);
    let mut run_start = 0;
    for (i, r) in after.iter().enumerate() {
        if !on_time(r) {
            run_start = i + 1;
        } else if i + 1 - run_start == RECOVERY_RUN {
            return Some((after[run_start].due - crash).as_secs_f64() * 1e3);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due_ms: u64, key: u32, latency_ms: Option<u64>) -> OpRec {
        OpRec {
            due: Duration::from_millis(due_ms),
            key,
            latency: latency_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn unavailability_ends_where_the_on_time_run_starts() {
        let led = [true, false];
        let mut recs = vec![rec(900, 0, Some(5))];
        // Crash at 1000 ms: two slow ops and a failure on the victim's
        // key, fast ops on the other key throughout.
        recs.push(rec(1_000, 0, Some(700)));
        recs.push(rec(1_010, 1, Some(5)));
        recs.push(rec(1_200, 0, None));
        recs.push(rec(1_400, 0, Some(51)));
        for i in 0..60 {
            recs.push(rec(1_500 + 10 * i, 0, Some(20)));
        }
        let got = unavailable_ms(&recs, &led, Duration::from_millis(1_000));
        assert_eq!(got, Some(500.0));
        // A late op inside the run restarts it.
        recs[30] = rec(recs[30].due.as_millis() as u64, 0, Some(80));
        let restart = recs[31].due.as_millis() as f64 - 1_000.0;
        assert_eq!(
            unavailable_ms(&recs, &led, Duration::from_millis(1_000)),
            None
        );
        for i in 0..30 {
            recs.push(rec(2_100 + 10 * i, 0, Some(20)));
        }
        assert_eq!(
            unavailable_ms(&recs, &led, Duration::from_millis(1_000)),
            Some(restart)
        );
    }

    #[test]
    fn ledger_accepts_the_last_acked_value_and_rejects_a_lost_write() {
        let mut inputs = Inputs::new(1, 2, 32, 1000);
        let mut ledger = Ledger::new(2);
        let ops = inputs.preload();
        for &op in &ops {
            ledger.issued(op);
        }
        assert!(ledger.outcome(ops[0], &KvOutcome::Acked { version: 7 }));
        // One more put to key 0, issued before `held` borrows the inputs.
        let later = Op {
            key: 0,
            ..inputs.next_op()
        };
        let held = |seq: u64, version: u64| KvOutcome::Found {
            val: inputs.value(seq),
            version,
        };
        ledger.final_value(&inputs, 0, &held(0, 7));
        assert!(ledger.violations.is_empty(), "{:?}", ledger.violations);
        // An older version than the acked one is a lost write.
        ledger.final_value(&inputs, 0, &held(0, 6));
        assert_eq!(ledger.violations.len(), 1);
        // A value written by a put to another key is never legal.
        ledger.final_value(&inputs, 0, &held(1, 7));
        assert_eq!(ledger.violations.len(), 2);
        // A newer version is legal only from a put that was not acked.
        ledger.issued(later);
        ledger.final_value(&inputs, 0, &held(later.seq, 9));
        assert_eq!(ledger.violations.len(), 3);
        assert!(!ledger.outcome(later, &KvOutcome::Failed));
        ledger.final_value(&inputs, 0, &held(later.seq, 9));
        assert_eq!(ledger.violations.len(), 3);
        ledger.final_value(&inputs, 0, &KvOutcome::Missing);
        assert_eq!(ledger.violations.len(), 4);
    }
}
