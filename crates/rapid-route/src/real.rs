//! Hosting the KV data plane on the real TCP transport.
//!
//! [`KvRuntime`] owns a [`rapid_transport::Runtime`] and drives the KV
//! data plane from its event stream: view changes feed placement, app
//! frames carry [`KvMsg`](crate::kv::KvMsg)s, and client operations
//! arrive over channels and resolve through per-op reply channels. The
//! data plane is the same state machine the simulator runs — only the
//! clock and the wires differ.
//!
//! Every process has one shape. A *membership pump* owns the transport:
//! it fans each view adoption out to all shards over their FIFO input
//! channels, splits inbound frames by owning shard with
//! [`kv::shard_route`], and merges the shards' published snapshots into
//! the process-level state the accessors read. Behind it run
//! `Settings::kv_shards = W` shard threads, each hosting a [`KvNode`]
//! restricted (via [`KvNode::with_shard`]) to the partitions
//! [`shard_of`](crate::placement::shard_of) assigns it; `W = 1` (the
//! default) is simply one shard that owns every partition. Shards share
//! no mutable state; each sends through its own clone of the transport's
//! [`AppSender`](rapid_transport::AppSender), which feeds the per-peer
//! writer threads.
//!
//! A shard and a [`KvClientRuntime`] are the same host loop, [`pump`],
//! around a different sans-io core ([`KvNode`], [`KvClient`]): wait for
//! input until the next timer is due, take the queued client ops plus
//! one wire input, submit the ops as one burst, tick, publish, encode
//! and dispatch.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use rapid_core::config::{Configuration, Member};
use rapid_core::hash::DetHashMap;
use rapid_core::id::Endpoint;
use rapid_core::membership::ViewChange;
use rapid_core::node::NodeStatus;
use rapid_core::obs::{LatencyHist, Timeline, TimelinePoint, DEFAULT_TIMELINE_CAP};
use rapid_core::settings::Settings;
use rapid_transport::{AppEvent, AppPeer, AppSender, Runtime};

use crate::client::{ClientStats, KvClient};
use crate::kv::{self, ClientOp, KvMsg, KvNode, KvOut, KvOutcome, KvStats, PartitionDigest};
use crate::placement::{partition_of, shard_of, PlacementConfig};

/// Slots in a host pump's input channel.
const CHAN_CAP: usize = 16 * 1024;

/// Host timer cadence: the cores' `on_tick`, the shards' snapshot
/// publication and the membership pump's merge.
const TICK: Duration = Duration::from_millis(20);

/// How long [`KvRuntime::digest_snapshot`] waits for the shards to
/// answer. A live shard answers as soon as it reaches the request in its
/// FIFO input channel (at worst a channel's worth of inputs away).
const DIGEST_WAIT: Duration = Duration::from_secs(1);

/// `(partition, digest, settled)` rows, as [`KvNode::digest_snapshot`]
/// returns them.
type Digests = Vec<(u32, PartitionDigest, bool)>;

/// A client operation submitted to a host pump: a put when `val` is
/// present, a get otherwise.
struct RealOp {
    key: String,
    val: Option<String>,
    reply: Sender<KvOutcome>,
}

impl RealOp {
    /// The op plus the channel its outcome arrives on.
    fn new(key: &str, val: Option<&str>) -> (RealOp, Receiver<KvOutcome>) {
        let (reply, rx) = bounded(1);
        let op = RealOp {
            key: key.to_string(),
            val: val.map(str::to_string),
            reply,
        };
        (op, rx)
    }
}

/// Queues an op on a host pump's input channel; the outcome arrives on
/// the returned channel. A full channel completes the op right here with
/// the retryable [`KvOutcome::Failed`], so overload is a typed outcome
/// the caller can count; only a stopped pump leaves the channel
/// disconnected.
fn begin_op(tx: &Sender<PumpIn>, key: &str, val: Option<&str>) -> Receiver<KvOutcome> {
    let (op, rx) = RealOp::new(key, val);
    if let Err(TrySendError::Full(PumpIn::Op(op))) = tx.try_send(PumpIn::Op(op)) {
        let _ = op.reply.try_send(KvOutcome::Failed);
    }
    rx
}

/// Asks every shard for its [`KvNode::digest_snapshot`] over its input
/// channel and concatenates the answers in partition order. The request
/// queues like a frame does (behind a full channel it waits for the pump
/// to drain a slot); a shard whose pump has returned, or that does not
/// answer within [`DIGEST_WAIT`], contributes nothing.
fn ask_digests(shards: &[Sender<PumpIn>]) -> Digests {
    let deadline = Instant::now() + DIGEST_WAIT;
    // Ask everyone before waiting on anyone: the shards answer in parallel.
    let asked: Vec<Receiver<Digests>> = shards
        .iter()
        .filter_map(|tx| {
            let (reply, rx) = bounded(1);
            tx.send(PumpIn::Digests(reply)).ok().map(|()| rx)
        })
        .collect();
    let mut digests: Digests = asked
        .iter()
        .filter_map(|rx| {
            let budget = deadline.saturating_duration_since(Instant::now());
            rx.recv_timeout(budget).ok()
        })
        .flatten()
        .collect();
    digests.sort_unstable_by_key(|&(p, _, _)| p);
    digests
}

enum RealCtl {
    Leave,
    Shutdown,
}

/// One per-shard observability sample, taken on the `obs_sample_ms`
/// cadence by the membership pump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardPoint {
    /// Sample time on the process wall clock (ms since start).
    pub t_ms: u64,
    /// Remote client ops pending in the shard's admission inbox.
    pub depth: u64,
    /// Successful client ops the shard completed during the interval.
    pub ops: u64,
}

/// Input to a host pump. A shard has one FIFO channel of these, fed by
/// the membership pump (views, frames, the latency signal, stop) and by
/// [`KvRuntime::begin_put`]/[`KvRuntime::begin_get`] (ops) and
/// [`KvRuntime::digest_snapshot`] (digest requests), so it
/// sleeps on a single receive and wakes for whichever comes first. The
/// FIFO order also guarantees every shard adopts views in the same
/// order, so all shards recompute the identical placement.
enum PumpIn {
    View(Arc<Configuration>),
    /// An app frame as it came off the wire; the pump decodes it.
    Frame(Endpoint, Vec<u8>),
    /// The part of a decoded frame that [`kv::shard_route`] assigned to
    /// this shard.
    Msg(Endpoint, KvMsg),
    /// The merged interval quantiles, fed back as the admission
    /// controller's latency signal (the simulator's metrics sweep does
    /// the same).
    NoteInterval(u64, u64),
    Op(RealOp),
    /// A request for the core's digest snapshot, answered on the enclosed
    /// channel ([`KvRuntime::digest_snapshot`]).
    Digests(Sender<Digests>),
    Stop,
}

/// What [`pump`] needs of a sans-io core.
trait Core {
    fn on_message(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>);
    /// Submits a burst through one outbox flush; one request id per op.
    fn submit(&mut self, ops: &[ClientOp<'_>], now: u64, out: &mut Vec<KvOut>) -> Vec<u64>;
    fn on_tick(&mut self, now: u64, out: &mut Vec<KvOut>);
    /// Membership-fed inputs. Only a [`KvNode`] is sent them: a client
    /// learns views from the wire and has no admission controller.
    fn on_view(&mut self, _config: Arc<Configuration>, _now: u64, _out: &mut Vec<KvOut>) {}
    fn note_interval(&mut self, _p50_ms: u64, _p99_ms: u64) {}
    /// Only a [`KvNode`] holds partitions to digest.
    fn digest_snapshot(&self) -> Digests {
        Vec::new()
    }
}

impl Core for KvNode {
    fn on_message(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        KvNode::on_message(self, from, msg, now, out)
    }
    fn submit(&mut self, ops: &[ClientOp<'_>], now: u64, out: &mut Vec<KvOut>) -> Vec<u64> {
        self.client_ops(ops, now, out)
    }
    fn on_tick(&mut self, now: u64, out: &mut Vec<KvOut>) {
        KvNode::on_tick(self, now, out)
    }
    fn on_view(&mut self, config: Arc<Configuration>, now: u64, out: &mut Vec<KvOut>) {
        KvNode::on_view(self, config, now, out)
    }
    fn note_interval(&mut self, p50_ms: u64, p99_ms: u64) {
        KvNode::note_interval(self, p50_ms, p99_ms)
    }
    fn digest_snapshot(&self) -> Digests {
        KvNode::digest_snapshot(self)
    }
}

impl Core for KvClient {
    fn on_message(&mut self, from: Endpoint, msg: KvMsg, now: u64, out: &mut Vec<KvOut>) {
        KvClient::on_message(self, from, msg, now, out)
    }
    fn submit(&mut self, ops: &[ClientOp<'_>], now: u64, out: &mut Vec<KvOut>) -> Vec<u64> {
        self.submit_ops(ops, now, out)
    }
    fn on_tick(&mut self, now: u64, out: &mut Vec<KvOut>) {
        KvClient::on_tick(self, now, out)
    }
}

/// The one host loop: drives `core` until [`PumpIn::Stop`].
///
/// `next(budget)` blocks up to `budget` for an input (`None` on
/// timeout); `send` queues an encoded frame on the transport;
/// `publish(core, ticked)` runs every pass, after the timers and before
/// any outcome is delivered, so whoever receives an outcome already
/// finds it in the published counters.
fn pump<C: Core>(
    mut core: C,
    mut next: impl FnMut(Duration) -> Option<PumpIn>,
    send: impl Fn(Endpoint, Vec<u8>),
    mut publish: impl FnMut(&C, bool),
) {
    let mut out: Vec<KvOut> = Vec::new();
    let mut replies: DetHashMap<u64, Sender<KvOutcome>> = DetHashMap::default();
    let mut burst: Vec<RealOp> = Vec::new();
    // The core's clock: ms since this pump started.
    let start = Instant::now();
    let mut next_tick = start;
    loop {
        // Sleep until an input arrives or the tick is due. A pass takes
        // the queued client ops (at most a channel's worth, so a flood
        // cannot starve the timers) and one wire input: its outputs leave
        // before the next is handled, so peers are not fed in waves.
        let first = next(next_tick.saturating_duration_since(Instant::now()));
        // Read the clock after the wait: inputs are stamped with when
        // they are handled, not with when the pump went to sleep.
        let now = start.elapsed().as_millis() as u64;
        let rest = std::iter::from_fn(|| next(Duration::ZERO));
        for input in first.into_iter().chain(rest).take(CHAN_CAP) {
            match input {
                PumpIn::Op(op) => {
                    burst.push(op);
                    continue;
                }
                PumpIn::View(config) => core.on_view(config, now, &mut out),
                // Corrupt peer payloads are dropped, like the transport does.
                PumpIn::Frame(from, bytes) => {
                    if let Ok(msg) = kv::decode(&bytes) {
                        core.on_message(from, msg, now, &mut out);
                    }
                }
                PumpIn::Msg(from, msg) => core.on_message(from, msg, now, &mut out),
                PumpIn::NoteInterval(p50, p99) => core.note_interval(p50, p99),
                // Hashes only the partitions written since they were last
                // read; the asker may have given up waiting.
                PumpIn::Digests(reply) => {
                    let _ = reply.try_send(core.digest_snapshot());
                }
                PumpIn::Stop => return,
            }
            break;
        }
        // Client submissions go in as one burst through a single outbox
        // flush: ops sharing a leader leave in one app frame.
        if !burst.is_empty() {
            let ops: Vec<ClientOp<'_>> = burst
                .iter()
                .map(|op| match &op.val {
                    Some(val) => ClientOp::Put { key: &op.key, val },
                    None => ClientOp::Get { key: &op.key },
                })
                .collect();
            let reqs = core.submit(&ops, now, &mut out);
            for (req, op) in reqs.into_iter().zip(burst.drain(..)) {
                replies.insert(req, op.reply);
            }
        }
        let ticked = Instant::now() >= next_tick;
        if ticked {
            core.on_tick(now, &mut out);
        }
        publish(&core, ticked);
        if ticked {
            // Due `TICK` after this tick's work ended: a long tick (a
            // repair round rehashing freshly written partitions) stretches
            // the period instead of eating into the next one.
            next_tick = Instant::now() + TICK;
        }
        for item in out.drain(..) {
            match item {
                KvOut::Send(to, msg) => {
                    let mut frame = Vec::with_capacity(kv::encoded_len(&msg));
                    kv::encode(&msg, &mut frame);
                    send(to, frame);
                }
                KvOut::Done(req, outcome) => {
                    if let Some(reply) = replies.remove(&req) {
                        let _ = reply.try_send(outcome);
                    }
                }
            }
        }
    }
}

/// A data-plane snapshot: what a shard publishes on its tick, and —
/// merged over the shards by the membership pump — what the process
/// reports.
#[derive(Clone, Debug, Default)]
struct KvSnapshot {
    stats: KvStats,
    /// Remote client ops currently pending in the admission-controlled
    /// inbox.
    inbox_depth: usize,
    /// Subscribed smart clients.
    client_conns: usize,
    /// Coordinator-side latency histogram of successful client ops, on
    /// the process wall clock (ms).
    op_hist: LatencyHist,
}

/// A running shard thread: its input channel, published snapshot and
/// join handle.
struct Shard {
    tx: Sender<PumpIn>,
    slot: Arc<Mutex<KvSnapshot>>,
    handle: JoinHandle<()>,
}

/// A data-plane shard: [`pump`] around one partition-filtered [`KvNode`],
/// fed from its input channel, sending through its own transport handle.
fn shard_pump(kv: KvNode, rx: Receiver<PumpIn>, sender: AppSender, slot: Arc<Mutex<KvSnapshot>>) {
    pump(
        kv,
        |budget| match rx.recv_timeout(budget) {
            Ok(input) => Some(input),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(PumpIn::Stop),
        },
        |to, frame| sender.send_app(to, frame),
        |kv, ticked| {
            // On the tick cadence only: the merge reads no faster.
            if ticked {
                let snapshot = KvSnapshot {
                    stats: *kv.stats(),
                    inbox_depth: kv.inbox_depth(),
                    client_conns: kv.client_conns(),
                    op_hist: kv.op_hist().clone(),
                };
                *slot.lock() = snapshot;
            }
        },
    );
}

/// Pump-published view of the node, for the scenario driver's polls.
#[derive(Clone, Debug)]
struct Mirror {
    status: NodeStatus,
    view_len: usize,
    view_count: u64,
    /// The shards' snapshots merged, refreshed on the merge cadence.
    kv: KvSnapshot,
    /// Inbound frames dropped by the transport's per-peer quota.
    quota_dropped: u64,
    /// Sampled metrics timeline (interval deltas on the wall clock),
    /// republished in full on every sweep. Empty when `obs_sample_ms`
    /// is 0.
    timeline: Vec<TimelinePoint>,
    /// Sweeps lost to the bounded timeline ring wrapping.
    timeline_dropped: u64,
    /// Latest `(admission-inbox depth, cumulative successful ops)` per
    /// shard.
    per_shard: Vec<(u64, u64)>,
    /// Per-shard sampled series on the timeline cadence, oldest first.
    shard_series: Vec<VecDeque<ShardPoint>>,
}

impl Mirror {
    /// Membership changes are published as they are handled, not on the
    /// merge cadence: callers poll `view_len()` to learn a cluster formed.
    fn publish_membership(&mut self, rt: &Runtime, view_count: u64) {
        self.status = rt.status();
        self.view_len = rt.view().len();
        self.view_count = view_count;
    }
}

/// A real process running membership + the KV data plane.
pub struct KvRuntime {
    addr: Endpoint,
    /// One sender per data-plane shard, a clone of the shard's input
    /// channel; ops route by `shard_of(partition_of(key))`, so the shard
    /// that allocates a request id is the shard that completes it.
    ops_txs: Vec<Sender<PumpIn>>,
    partitions: u32,
    ctl_tx: Sender<RealCtl>,
    mirror: Arc<Mutex<Mirror>>,
    handle: Option<JoinHandle<()>>,
    introspect_addr: Option<std::net::SocketAddr>,
}

impl KvRuntime {
    /// Starts a seed process with the data plane attached.
    /// `repair_interval_ms` sets the anti-entropy cadence (0 disables).
    pub fn start_seed(
        listen: Endpoint,
        settings: Settings,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
    ) -> std::io::Result<KvRuntime> {
        Self::check_shards(&settings, route)?;
        let rt = Runtime::start_seed(listen, settings.clone())?;
        Ok(Self::wrap(
            rt,
            &settings,
            route,
            op_timeout_ms,
            repair_interval_ms,
            false,
        ))
    }

    /// Starts a joining process with the data plane attached.
    pub fn start_joiner(
        listen: Endpoint,
        seeds: Vec<Endpoint>,
        settings: Settings,
        metadata: rapid_core::Metadata,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
    ) -> std::io::Result<KvRuntime> {
        Self::check_shards(&settings, route)?;
        let rt = Runtime::start_joiner(listen, seeds, settings.clone(), metadata)?;
        Ok(Self::wrap(
            rt,
            &settings,
            route,
            op_timeout_ms,
            repair_interval_ms,
            true,
        ))
    }

    /// A shard with no partitions could never serve an op, so more
    /// shards than partitions is a configuration error, caught before
    /// any socket is bound.
    fn check_shards(settings: &Settings, route: PlacementConfig) -> std::io::Result<()> {
        if settings.kv_shards > route.partitions as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "kv_shards = {} exceeds the {} KV partitions; every shard must \
                     own at least one partition (lower kv_shards or raise partitions)",
                    settings.kv_shards, route.partitions
                ),
            ));
        }
        Ok(())
    }

    fn wrap(
        mut rt: Runtime,
        settings: &Settings,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
        joiner: bool,
    ) -> KvRuntime {
        let w = settings.kv_shards.max(1);
        let addr = *rt.addr();
        let me: Member = rt.member().clone();
        let (ctl_tx, ctl_rx) = bounded::<RealCtl>(16);
        let mirror = Arc::new(Mutex::new(Mirror {
            status: rt.status(),
            view_len: rt.view().len(),
            view_count: 0,
            kv: KvSnapshot::default(),
            quota_dropped: 0,
            timeline: Vec::new(),
            timeline_dropped: 0,
            per_shard: vec![(0, 0); w],
            shard_series: vec![VecDeque::new(); w],
        }));
        // Opt-in live introspection: with `RAPID_INTROSPECT=1` the
        // transport serves a one-line JSON status on a loopback side
        // listener, and the KV layer appends its published data-plane
        // counters, op-latency quantiles, and per-shard depth/ops to
        // that line.
        let introspect_addr = if std::env::var("RAPID_INTROSPECT").as_deref() == Ok("1") {
            let probe_mirror = Arc::clone(&mirror);
            rt.serve_introspection(move |line| {
                let m = probe_mirror.lock();
                let (p50, p99) = (
                    m.kv.op_hist.quantile_ppm(500_000),
                    m.kv.op_hist.quantile_ppm(990_000),
                );
                let join = |pick: fn(&(u64, u64)) -> u64| {
                    let picked: Vec<String> =
                        m.per_shard.iter().map(|s| pick(s).to_string()).collect();
                    picked.join(",")
                };
                line.push_str(&format!(
                    ",\"puts_acked\":{},\"gets_ok\":{},\"bytes_moved\":{},\"repair_bytes\":{},\"op_p50_ms\":{},\"op_p99_ms\":{},\"inbox_depth\":{},\"shed_ops\":{},\"client_conns\":{},\"quota_dropped\":{},\"shards\":{},\"shard_depth\":[{}],\"shard_ops\":[{}]",
                    m.kv.stats.puts_acked, m.kv.stats.gets_ok, m.kv.stats.bytes_moved,
                    m.kv.stats.repair_bytes, p50, p99,
                    m.kv.inbox_depth, m.kv.stats.ops_shed, m.kv.client_conns, m.quota_dropped,
                    m.per_shard.len(), join(|s| s.0), join(|s| s.1),
                ));
            })
            .ok()
        } else {
            None
        };
        // W shard threads own the data plane; the membership pump owns
        // the transport event stream and fans views/frames out to them.
        // A seed's one-member view is installed already: queue it ahead
        // of any op, so every shard subscribes before it serves.
        let initial = (rt.status() == NodeStatus::Active)
            .then(|| ViewChange::initial(rt.view()).configuration);
        let shards: Vec<Shard> = (0..w)
            .map(|i| {
                let mut kv = KvNode::new(me.clone(), route, op_timeout_ms, None)
                    .with_shard(i, w)
                    .with_repair_interval(repair_interval_ms)
                    .with_obs(settings.obs_ring)
                    // Split the admission budget so the process-level
                    // bound stays put (exact at W = 1).
                    .with_admission(settings.kv_inbox.div_ceil(w), settings.kv_shed_p99_ms);
                if joiner {
                    kv = kv.expect_initial_handoffs();
                }
                let (tx, rx) = bounded::<PumpIn>(CHAN_CAP);
                if let Some(config) = &initial {
                    let _ = tx.send(PumpIn::View(Arc::clone(config)));
                }
                let slot = Arc::new(Mutex::new(KvSnapshot::default()));
                let (sender, shard_slot) = (rt.app_sender(), Arc::clone(&slot));
                let handle = std::thread::spawn(move || shard_pump(kv, rx, sender, shard_slot));
                Shard { tx, slot, handle }
            })
            .collect();
        let ops_txs = shards.iter().map(|s| s.tx.clone()).collect();
        let pump_mirror = Arc::clone(&mirror);
        let (partitions, obs_sample_ms) = (route.partitions, settings.obs_sample_ms);
        let handle = std::thread::spawn(move || {
            membership_pump(rt, shards, ctl_rx, pump_mirror, partitions, obs_sample_ms);
        });
        KvRuntime {
            addr,
            ops_txs,
            partitions,
            ctl_tx,
            mirror,
            handle: Some(handle),
            introspect_addr,
        }
    }

    /// The node's listen address.
    pub fn addr(&self) -> Endpoint {
        self.addr
    }

    /// Latest published lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.mirror.lock().status
    }

    /// Latest published view size.
    pub fn view_len(&self) -> usize {
        self.mirror.lock().view_len
    }

    /// View changes observed so far.
    pub fn view_count(&self) -> u64 {
        self.mirror.lock().view_count
    }

    /// Latest published data-plane counters.
    pub fn stats(&self) -> KvStats {
        self.mirror.lock().kv.stats
    }

    /// Latest published admission-inbox depth (remote client ops pending
    /// on this coordinator).
    pub fn inbox_depth(&self) -> usize {
        self.mirror.lock().kv.inbox_depth
    }

    /// Latest published subscribed-client count.
    pub fn client_conns(&self) -> usize {
        self.mirror.lock().kv.client_conns
    }

    /// Latest published per-peer-quota drop count from the transport.
    pub fn quota_dropped(&self) -> u64 {
        self.mirror.lock().quota_dropped
    }

    /// Latest published successful-op latency histogram (wall-clock ms).
    pub fn op_hist(&self) -> LatencyHist {
        self.mirror.lock().kv.op_hist.clone()
    }

    /// `(partition, digest, settled)` for every partition this process
    /// replicates, in partition order — computed on demand by the shards
    /// (the scenario driver's `kv_converged` sweep compares these across
    /// processes). Shards that do not answer in time are left out, so a
    /// stopped process reports nothing.
    pub fn digest_snapshot(&self) -> Vec<(u32, PartitionDigest, bool)> {
        ask_digests(&self.ops_txs)
    }

    /// Latest published metrics timeline: one interval-delta point per
    /// elapsed `obs_sample_ms` on the process wall clock, oldest first.
    /// Empty when sampling is disabled (`obs_sample_ms == 0`).
    pub fn timeline(&self) -> Vec<TimelinePoint> {
        self.mirror.lock().timeline.clone()
    }

    /// Timeline sweeps lost to the bounded ring wrapping.
    pub fn timeline_dropped(&self) -> u64 {
        self.mirror.lock().timeline_dropped
    }

    /// Number of data-plane shard threads.
    pub fn shards(&self) -> usize {
        self.ops_txs.len()
    }

    /// Latest published per-shard admission-inbox depths, one entry per
    /// shard.
    pub fn shard_depths(&self) -> Vec<u64> {
        self.mirror.lock().per_shard.iter().map(|s| s.0).collect()
    }

    /// Latest published per-shard sampled series: one
    /// `(t_ms, depth, ops)` point per elapsed `obs_sample_ms`, oldest
    /// first, one series per shard. Rides the same cadence as
    /// [`Self::timeline`] but is never part of any report schema.
    pub fn shard_timeline(&self) -> Vec<Vec<ShardPoint>> {
        let m = self.mirror.lock();
        m.shard_series
            .iter()
            .map(|series| series.iter().copied().collect())
            .collect()
    }

    /// The loopback introspection listener's address, when enabled via
    /// `RAPID_INTROSPECT=1` at startup.
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect_addr
    }

    /// Hands an op to the shard that coordinates `key`: the same
    /// rendezvous function placement uses, over the key's partition.
    fn begin(&self, key: &str, val: Option<&str>) -> Receiver<KvOutcome> {
        let shard = shard_of(partition_of(key, self.partitions), self.ops_txs.len());
        begin_op(&self.ops_txs[shard], key, val)
    }

    /// Begins a write through this process; the outcome arrives on the
    /// returned channel (dropped channel = op abandoned).
    pub fn begin_put(&self, key: &str, val: &str) -> Receiver<KvOutcome> {
        self.begin(key, Some(val))
    }

    /// Begins a read through this process.
    pub fn begin_get(&self, key: &str) -> Receiver<KvOutcome> {
        self.begin(key, None)
    }

    /// Announces a voluntary departure and stops the process.
    pub fn leave(mut self) {
        self.stop(RealCtl::Leave);
    }

    /// Hard-stops the process (a crash, as far as the cluster knows).
    pub fn shutdown_now(mut self) {
        self.stop(RealCtl::Shutdown);
    }

    /// Asks the membership pump to wind the process down and waits for
    /// it; a no-op once it has stopped.
    fn stop(&mut self, ctl: RealCtl) {
        if let Some(h) = self.handle.take() {
            let _ = self.ctl_tx.send(ctl);
            let _ = h.join();
        }
    }
}

impl Drop for KvRuntime {
    fn drop(&mut self) {
        self.stop(RealCtl::Shutdown);
    }
}

/// Appends a shard sample, bounding the series like the timeline ring.
fn push_shard_point(series: &mut VecDeque<ShardPoint>, pt: ShardPoint) {
    if series.len() >= DEFAULT_TIMELINE_CAP {
        series.pop_front();
    }
    series.push_back(pt);
}

/// The membership plane of a process: owns the transport, fans view
/// adoptions out to every shard, splits inbound app frames by owning
/// shard with [`kv::shard_route`], and merges the shards' published
/// snapshots into the process-level [`Mirror`] (plus the metrics
/// timeline and per-shard depth/ops series on the sample cadence).
fn membership_pump(
    rt: Runtime,
    shards: Vec<Shard>,
    ctl_rx: Receiver<RealCtl>,
    mirror: Arc<Mutex<Mirror>>,
    partitions: u32,
    obs_sample_ms: u64,
) {
    let w = shards.len();
    let start = Instant::now();
    let fan_out = |config: &Arc<Configuration>| {
        for s in &shards {
            let _ = s.tx.send(PumpIn::View(Arc::clone(config)));
        }
    };
    let mut view_count = 0u64;
    // Metrics timeline: the same delta sampler the simulator runs, on
    // the wall clock. Capacity 0 (`obs_sample_ms == 0`) disables it.
    let mut timeline = Timeline::new(if obs_sample_ms > 0 {
        DEFAULT_TIMELINE_CAP
    } else {
        0
    });
    // Cumulative totals as of the previous sample.
    let mut cursor = TimelinePoint::default();
    let mut shard_ops_cursor = vec![0u64; w];
    let mut prev_hist = LatencyHist::new();
    let mut next_sample = Instant::now() + Duration::from_millis(obs_sample_ms.max(1));
    let mut next_merge = Instant::now();
    loop {
        if let Ok(ctl) = ctl_rx.try_recv() {
            for s in shards {
                let _ = s.tx.send(PumpIn::Stop);
                let _ = s.handle.join();
            }
            match ctl {
                RealCtl::Leave => {
                    rt.leave();
                    mirror.lock().status = NodeStatus::Left;
                }
                RealCtl::Shutdown => rt.shutdown_now(),
            }
            return;
        }
        // Wake for a transport event or for the merge, whichever is due
        // first; a stop request is seen on the next wake.
        let budget = next_merge.saturating_duration_since(Instant::now());
        let membership_changed = match rt.events().recv_timeout(budget) {
            Ok(AppEvent::App(from, bytes)) => {
                // Sends block on a full shard channel — data frames are
                // never silently dropped here. A lone shard needs no
                // routing and decodes the frame itself: handing decoded
                // 1 KiB-value batches across threads cost ~10 % of put
                // throughput in the benchmark.
                if w == 1 {
                    let _ = shards[0].tx.send(PumpIn::Frame(from, bytes));
                } else if let Ok(msg) = kv::decode(&bytes) {
                    for (idx, part) in kv::shard_route(msg, partitions, w) {
                        let _ = shards[idx].tx.send(PumpIn::Msg(from, part));
                    }
                }
                false
            }
            Ok(AppEvent::View(vc)) => {
                view_count += 1;
                fan_out(&vc.configuration);
                true
            }
            Ok(AppEvent::Joined(config)) => {
                fan_out(&config);
                true
            }
            Ok(AppEvent::Kicked) => true,
            Err(_) => false,
        };
        if membership_changed {
            mirror.lock().publish_membership(&rt, view_count);
        }
        if Instant::now() < next_merge {
            continue;
        }
        next_merge = Instant::now() + TICK;
        let mut kv = KvSnapshot::default();
        // (depth, cumulative ops) per shard.
        let mut per_shard: Vec<(u64, u64)> = Vec::with_capacity(w);
        for s in &shards {
            let p = s.slot.lock();
            kv.stats.absorb(&p.stats);
            kv.inbox_depth += p.inbox_depth;
            kv.client_conns += p.client_conns;
            kv.op_hist.merge(&p.op_hist);
            per_shard.push((p.inbox_depth as u64, p.stats.puts_acked + p.stats.gets_ok));
        }
        // Metrics sweep: record the deltas since the previous sample.
        // Membership wire counters live on the transport's driver
        // thread, so the real-driver timeline carries the data plane
        // (ops, handoff/repair bytes, view changes) — the simulator
        // fills the network columns.
        let sampled = timeline.enabled() && Instant::now() >= next_sample;
        if sampled {
            let (_, p50, p99) = kv.op_hist.interval_quantiles(&prev_hist);
            // Every shard's admission controller sees the same
            // process-level latency signal.
            for s in &shards {
                let _ = s.tx.send(PumpIn::NoteInterval(p50, p99));
            }
            let total = TimelinePoint {
                t_ms: start.elapsed().as_millis() as u64,
                view_changes: view_count,
                ops: kv.stats.puts_acked + kv.stats.gets_ok,
                handoff_bytes: kv.stats.bytes_moved,
                repair_bytes: kv.stats.repair_bytes,
                ..TimelinePoint::default()
            };
            timeline.push(TimelinePoint {
                view_changes: total.view_changes - cursor.view_changes,
                ops: total.ops - cursor.ops,
                handoff_bytes: total.handoff_bytes - cursor.handoff_bytes,
                repair_bytes: total.repair_bytes - cursor.repair_bytes,
                p50_ms: p50,
                p99_ms: p99,
                ..total
            });
            cursor = total;
            prev_hist = kv.op_hist.clone();
            next_sample += Duration::from_millis(obs_sample_ms);
        }
        let mut m = mirror.lock();
        m.publish_membership(&rt, view_count);
        m.kv = kv;
        m.quota_dropped = rt.quota_dropped();
        if sampled {
            m.timeline = timeline.iter_in_order().copied().collect();
            m.timeline_dropped = timeline.dropped();
            for (i, &(depth, ops)) in per_shard.iter().enumerate() {
                // Series carry interval deltas, like the timeline.
                let pt = ShardPoint {
                    t_ms: cursor.t_ms,
                    depth,
                    ops: ops.saturating_sub(shard_ops_cursor[i]),
                };
                shard_ops_cursor[i] = ops;
                push_shard_point(&mut m.shard_series[i], pt);
            }
        }
        m.per_shard = per_shard;
    }
}

/// A smart client hosted on the real transport: a [`KvClient`] state
/// machine driven from an [`AppPeer`]'s event stream on a dedicated
/// pump thread. The `AppPeer` keeps one pooled TCP stream per
/// destination, so steady-state traffic holds exactly one connection per
/// partition leader — the per-leader connection pooling the client plane
/// promises. The client never joins the membership; it learns views
/// purely from `Sub`/`View` push frames.
pub struct KvClientRuntime {
    addr: Endpoint,
    ops_tx: Sender<PumpIn>,
    ctl_tx: Sender<RealCtl>,
    published: Arc<Mutex<(ClientStats, LatencyHist, Option<u64>)>>,
    handle: Option<JoinHandle<()>>,
}

impl KvClientRuntime {
    /// Starts a client pump subscribing through `seeds` (cluster
    /// listen addresses), with placement spec `route` (must match the
    /// cluster's), an in-flight window, and a per-op deadline.
    pub fn start(
        seeds: Vec<Endpoint>,
        route: PlacementConfig,
        window: usize,
        op_timeout_ms: u64,
    ) -> std::io::Result<KvClientRuntime> {
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0))?;
        let addr = *peer.addr();
        let client = KvClient::new(addr, route, seeds, window, op_timeout_ms);
        let (ops_tx, ops_rx) = bounded::<PumpIn>(CHAN_CAP);
        let (ctl_tx, ctl_rx) = bounded::<RealCtl>(16);
        let published = Arc::new(Mutex::new((
            ClientStats::default(),
            LatencyHist::new(),
            None,
        )));
        let pump_pub = Arc::clone(&published);
        let handle =
            std::thread::spawn(move || client_pump(peer, client, ops_rx, ctl_rx, pump_pub));
        Ok(KvClientRuntime {
            addr,
            ops_tx,
            ctl_tx,
            published,
            handle: Some(handle),
        })
    }

    /// The client's listen address (what nodes see as the subscriber).
    pub fn addr(&self) -> Endpoint {
        self.addr
    }

    /// Latest published client-observed counters.
    pub fn stats(&self) -> ClientStats {
        self.published.lock().0
    }

    /// Latest published client-observed op-latency histogram (ms).
    pub fn op_hist(&self) -> LatencyHist {
        self.published.lock().1.clone()
    }

    /// The adopted view's sequence, once the first push landed.
    pub fn view_seq(&self) -> Option<u64> {
        self.published.lock().2
    }

    fn begin(&self, key: &str, val: Option<&str>) -> Receiver<KvOutcome> {
        begin_op(&self.ops_tx, key, val)
    }

    /// Begins a write through the smart client; the outcome arrives on
    /// the returned channel.
    pub fn begin_put(&self, key: &str, val: &str) -> Receiver<KvOutcome> {
        self.begin(key, Some(val))
    }

    /// Begins a read through the smart client.
    pub fn begin_get(&self, key: &str) -> Receiver<KvOutcome> {
        self.begin(key, None)
    }

    /// Stops the pump and the peer's sockets.
    pub fn shutdown_now(self) {
        drop(self);
    }
}

impl Drop for KvClientRuntime {
    fn drop(&mut self) {
        let _ = self.ctl_tx.try_send(RealCtl::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The smart client's host: [`pump`] around a [`KvClient`], fed from the
/// peer's inbound frames and the submission channel.
fn client_pump(
    peer: AppPeer,
    client: KvClient,
    ops_rx: Receiver<PumpIn>,
    ctl_rx: Receiver<RealCtl>,
    published: Arc<Mutex<(ClientStats, LatencyHist, Option<u64>)>>,
) {
    pump(
        client,
        |budget| {
            if ctl_rx.try_recv().is_ok() {
                return Some(PumpIn::Stop);
            }
            if let Ok(op) = ops_rx.try_recv() {
                return Some(op);
            }
            // Three sources and no select: wait on the wire (view pushes
            // and verdicts) in short slices, so a submission or a stop
            // queued meanwhile is picked up within one.
            let slice = budget.min(Duration::from_millis(5));
            let (from, bytes) = peer.events().recv_timeout(slice).ok()?;
            Some(PumpIn::Frame(from, bytes))
        },
        |to, frame| peer.send_app(to, frame),
        |client, _ticked| {
            let mut p = published.lock();
            p.0 = *client.stats();
            p.1 = client.op_hist().clone();
            p.2 = client.view_seq();
        },
    );
    peer.shutdown_now();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_settings() -> Settings {
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

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 8,
            replication: 2,
        }
    }

    fn wait_for<F: FnMut() -> bool>(mut f: F, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }

    #[test]
    fn real_timeline_samples_ops_and_introspection_reports_them() {
        // The env gate is read once at startup; set it before the
        // runtime exists. Harmless to the other test in this module
        // (it would merely also serve a status socket).
        std::env::set_var("RAPID_INTROSPECT", "1");
        let settings = Settings {
            obs_sample_ms: 100,
            ..fast_settings()
        };
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings,
            spec(),
            2_000,
            500,
        )
        .unwrap();
        std::env::remove_var("RAPID_INTROSPECT");
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        for i in 0..8 {
            let rx = seed.begin_put(&format!("tk{i}"), "tv");
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(KvOutcome::Acked { .. })
            ));
        }
        // Wall-clock sweeps land on the 100 ms cadence; the delta sums
        // must recover the cumulative op count.
        assert!(
            wait_for(
                || seed.timeline().iter().map(|p| p.ops).sum::<u64>() >= 8,
                Duration::from_secs(10)
            ),
            "timeline deltas must sum to the acked ops: {:?}",
            seed.timeline()
        );
        assert_eq!(seed.timeline_dropped(), 0);
        let probe = seed.introspect_addr().expect("introspection enabled by env");
        let mut conn = std::net::TcpStream::connect(probe).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut body = String::new();
        use std::io::Read as _;
        conn.read_to_string(&mut body).unwrap();
        assert!(body.contains("\"status\":\"Active\""), "{body:?}");
        assert!(body.contains("\"puts_acked\":8"), "{body:?}");
        assert!(body.contains("\"op_p99_ms\":"), "{body:?}");
        // Client-plane overload observability rides the same line.
        assert!(body.contains("\"inbox_depth\":"), "{body:?}");
        assert!(body.contains("\"shed_ops\":0"), "{body:?}");
        assert!(body.contains("\"client_conns\":"), "{body:?}");
        assert!(body.contains("\"quota_dropped\":0"), "{body:?}");
        // The default process is one shard behind the membership pump.
        assert!(body.contains("\"shards\":1"), "{body:?}");
        seed.shutdown_now();
    }

    #[test]
    fn real_smart_client_subscribes_routes_and_completes_ops() {
        let settings = fast_settings();
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let joiner = KvRuntime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        assert!(
            wait_for(
                || seed.view_len() == 2 && joiner.view_len() == 2,
                Duration::from_secs(30)
            ),
            "2-node cluster must form"
        );
        let client = KvClientRuntime::start(vec![seed_addr], spec(), 64, 5_000).unwrap();
        assert!(
            wait_for(|| client.view_seq().is_some(), Duration::from_secs(10)),
            "client must adopt a pushed view"
        );
        for i in 0..10 {
            let rx = client.begin_put(&format!("sk{i}"), &format!("sv{i}"));
            assert!(
                matches!(rx.recv_timeout(Duration::from_secs(10)), Ok(KvOutcome::Acked { .. })),
                "client put {i} must ack"
            );
        }
        for i in 0..10 {
            let rx = client.begin_get(&format!("sk{i}"));
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(KvOutcome::Found { val, .. }) => assert_eq!(val, format!("sv{i}")),
                other => panic!("client get {i}: {other:?}"),
            }
        }
        let cs = client.stats();
        assert_eq!(cs.acked, 10, "{cs:?}");
        assert_eq!(cs.found, 10, "{cs:?}");
        assert_eq!(cs.shed, 0, "{cs:?}");
        assert!(cs.views_adopted >= 1);
        let (p50, p99, _) = client.op_hist().percentiles();
        assert!(p50 <= p99, "client-observed quantiles sane");
        // The subscription is visible server-side.
        assert!(
            wait_for(|| seed.client_conns() >= 1, Duration::from_secs(5)),
            "seed must count the subscribed client"
        );
        client.shutdown_now();
        joiner.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn real_kv_cluster_serves_and_survives_a_crash() {
        let settings = fast_settings();
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let mut joiners = Vec::new();
        for i in 0..3 {
            joiners.push(
                KvRuntime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    rapid_core::Metadata::with_entry("proc", format!("{i}")),
                    spec(),
                    2_000,
                    500,
                )
                .unwrap(),
            );
        }
        assert!(
            wait_for(
                || seed.view_len() == 4 && joiners.iter().all(|j| j.view_len() == 4),
                Duration::from_secs(30)
            ),
            "4-node KV cluster must form, seed sees {}",
            seed.view_len()
        );

        // Write through different coordinators, read through others.
        let mut acked = Vec::new();
        for i in 0..12 {
            let via = if i % 2 == 0 { &seed } else { &joiners[i % 3] };
            let rx = via.begin_put(&format!("rk{i}"), &format!("rv{i}"));
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(KvOutcome::Acked { version }) => acked.push((format!("rk{i}"), version)),
                other => panic!("put {i} failed: {other:?}"),
            }
        }

        // Crash one joiner; the survivors rebalance and keep serving.
        let victim = joiners.pop().unwrap();
        victim.shutdown_now();
        assert!(
            wait_for(
                || seed.view_len() == 3 && joiners.iter().all(|j| j.view_len() == 3),
                Duration::from_secs(60)
            ),
            "crashed node must be removed everywhere"
        );
        // Give handoffs a moment, then verify every acked write.
        std::thread::sleep(Duration::from_millis(500));
        for (key, version) in &acked {
            let got = (|| {
                for _ in 0..40 {
                    let rx = joiners[0].begin_get(key);
                    match rx.recv_timeout(Duration::from_secs(5)) {
                        Ok(KvOutcome::Found { val, version: v }) => return Some((val, v)),
                        _ => std::thread::sleep(Duration::from_millis(250)),
                    }
                }
                None
            })();
            match got {
                Some((val, v)) => {
                    assert!(val.starts_with("rv"), "garbage value for {key}");
                    assert!(v >= *version, "version went backwards for {key}");
                }
                None => {
                    eprintln!("seed stats: {:?}", seed.stats());
                    for (i, j) in joiners.iter().enumerate() {
                        eprintln!("joiner{i} stats: {:?}", j.stats());
                    }
                    panic!("acked key {key} lost after crash");
                }
            }
        }
        let stats = seed.stats();
        assert!(stats.rebalances >= 1, "seed must have rebalanced: {stats:?}");
        for j in joiners {
            j.shutdown_now();
        }
        seed.shutdown_now();
    }

    #[test]
    fn start_seed_rejects_more_shards_than_partitions() {
        let settings = Settings {
            kv_shards: 9,
            ..fast_settings()
        };
        let err =
            match KvRuntime::start_seed(Endpoint::new("127.0.0.1", 0), settings, spec(), 2_000, 0)
            {
                Err(e) => e,
                Ok(_) => panic!("9 shards cannot cover 8 partitions"),
            };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("kv_shards"), "{err}");
    }

    #[test]
    fn real_sharded_runtime_serves_ops_and_publishes_per_shard_series() {
        // W = 1 and W = 2 run the same pumps; only the shard count differs.
        for w in [1, 2] {
            sharded_runtime_serves_ops_and_publishes_per_shard_series(w);
        }
    }

    fn sharded_runtime_serves_ops_and_publishes_per_shard_series(w: usize) {
        let settings = Settings {
            kv_shards: w,
            obs_sample_ms: 100,
            ..fast_settings()
        };
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let joiner = KvRuntime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        assert_eq!(seed.shards(), w);
        assert!(
            wait_for(
                || seed.view_len() == 2 && joiner.view_len() == 2,
                Duration::from_secs(30)
            ),
            "2-node cluster of {w}-shard processes must form"
        );
        // Writes through both coordinators, reads through the other.
        for i in 0..16 {
            let via = if i % 2 == 0 { &seed } else { &joiner };
            let rx = via.begin_put(&format!("shk{i}"), &format!("shv{i}"));
            assert!(
                matches!(
                    rx.recv_timeout(Duration::from_secs(5)),
                    Ok(KvOutcome::Acked { .. })
                ),
                "W={w}: put {i} must ack"
            );
        }
        for i in 0..16 {
            let rx = joiner.begin_get(&format!("shk{i}"));
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(KvOutcome::Found { val, .. }) => assert_eq!(val, format!("shv{i}")),
                other => panic!("W={w}: get {i} failed: {other:?}"),
            }
        }
        // Merged stats must cover every acked op across both processes.
        assert!(
            wait_for(
                || seed.stats().puts_acked + joiner.stats().puts_acked >= 16,
                Duration::from_secs(5)
            ),
            "merged per-shard stats must cover all acked puts"
        );
        assert_eq!(seed.shard_depths().len(), w);
        assert!(
            wait_for(
                || {
                    let series = seed.shard_timeline();
                    series.len() == w
                        && series.iter().all(|s| !s.is_empty())
                        && series.iter().flatten().map(|p| p.ops).sum::<u64>() >= 1
                },
                Duration::from_secs(10)
            ),
            "W={w}: every shard's series must fill and record completed ops"
        );
        // Asked on demand, the shards together list each partition once
        // (RF = 2 over two members: both replicate all eight), and the
        // written ones hash to something.
        let d = seed.digest_snapshot();
        let parts: Vec<u32> = d.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(parts, (0..8).collect::<Vec<u32>>(), "W={w}: {d:?}");
        assert_eq!(
            d.iter().map(|&(_, digest, _)| digest.count).sum::<u64>(),
            16,
            "W={w}: the 16 written keys must show in the digests: {d:?}"
        );
        joiner.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn a_full_input_channel_fails_the_op_instead_of_dropping_it() {
        // A pump that stopped draining: the receiver is alive, the
        // channel is full.
        let (tx, _rx) = bounded::<PumpIn>(CHAN_CAP);
        for _ in 0..CHAN_CAP {
            tx.try_send(PumpIn::NoteInterval(0, 0)).unwrap();
        }
        let rx = begin_op(&tx, "k", Some("v"));
        assert_eq!(rx.try_recv(), Ok(KvOutcome::Failed));
    }

    #[test]
    fn digest_requests_to_a_stopped_or_stalled_shard_come_back_empty() {
        // The shard's pump has returned: its receiver is gone.
        let (tx, rx) = bounded::<PumpIn>(CHAN_CAP);
        drop(rx);
        let asked = Instant::now();
        assert!(ask_digests(&[tx]).is_empty());
        assert!(
            asked.elapsed() < DIGEST_WAIT,
            "a stopped shard costs no wait"
        );
        // The request is queued but never served: the wait is bounded.
        let (tx, _rx) = bounded::<PumpIn>(CHAN_CAP);
        let asked = Instant::now();
        assert!(ask_digests(&[tx]).is_empty());
        assert!(asked.elapsed() < 2 * DIGEST_WAIT);
    }

    #[test]
    fn shard_series_stays_at_the_cap_and_keeps_the_newest_points() {
        let mut series = VecDeque::new();
        let total = DEFAULT_TIMELINE_CAP as u64 + 10;
        for t_ms in 0..total {
            push_shard_point(
                &mut series,
                ShardPoint {
                    t_ms,
                    ..ShardPoint::default()
                },
            );
        }
        assert_eq!(series.len(), DEFAULT_TIMELINE_CAP);
        assert_eq!(
            series.front().map(|p| p.t_ms),
            Some(10),
            "oldest dropped first"
        );
        assert_eq!(series.back().map(|p| p.t_ms), Some(total - 1));
    }
}
