//! Hosting the KV data plane on the real TCP transport.
//!
//! [`KvRuntime`] runs a [`rapid_transport::Runtime`] with a KV
//! [`Host`]: view changes feed placement, app frames carry
//! [`KvMsg`](crate::kv::KvMsg)s, and client operations arrive over
//! channels and resolve through per-op reply channels. The data plane is
//! the same state machine the simulator runs — only the clock and the
//! wires differ.
//!
//! Every process runs one [`KvNode`] on one host thread, fed over one
//! FIFO channel: the transport's readers hand it app frames, the
//! transport's node loop queues each installed view before it takes its
//! next input, and [`KvRuntime`] queues client ops and digest requests. On
//! its tick the host publishes the node's counters and, on the
//! `obs_sample_ms` cadence, samples the metrics timeline and feeds the
//! interval quantiles back to the node's admission controller. It sends
//! straight into the writer queues through its [`AppSender`].
//!
//! The KV host and a [`KvClientRuntime`] are the same host loop, [`pump`],
//! around a different sans-io core ([`KvNode`], [`KvClient`]): wait for
//! input until the next timer is due, take the queued client ops plus
//! one wire input, submit the ops as one burst, tick, publish, encode
//! and dispatch.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use rapid_core::config::Configuration;
use rapid_core::hash::DetHashMap;
use rapid_core::id::Endpoint;
use rapid_core::membership::ViewChange;
use rapid_core::node::{Node, NodeStatus};
use rapid_core::obs::{LatencyHist, Timeline, TimelinePoint, DEFAULT_TIMELINE_CAP};
use rapid_core::settings::Settings;
use rapid_transport::{AppEvent, AppPeer, AppSender, Host, Runtime};

use crate::client::{ClientStats, KvClient};
use crate::kv::{self, ClientOp, KvMsg, KvNode, KvOut, KvOutcome, KvStats, PartitionDigest};
use crate::placement::PlacementConfig;

/// Slots in a host pump's input channel.
const CHAN_CAP: usize = 16 * 1024;

/// Host timer cadence: the cores' `on_tick` and the KV host's snapshot
/// publication.
const TICK: Duration = Duration::from_millis(20);

/// How long [`KvRuntime::digest_snapshot`] waits for the KV host to
/// answer. A live host answers as soon as it reaches the request in its
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

/// Asks the KV host for its [`KvNode::digest_snapshot`] over its input
/// channel. The request queues like a frame does (behind a full channel
/// it waits for the pump to drain a slot); a host whose pump has
/// returned, or that does not answer within [`DIGEST_WAIT`], reports
/// nothing.
fn ask_digests(host: &Sender<PumpIn>) -> Digests {
    let (reply, rx) = bounded(1);
    if host.send(PumpIn::Digests(reply)).is_err() {
        return Vec::new();
    }
    rx.recv_timeout(DIGEST_WAIT).unwrap_or_default()
}

/// Input to a host pump. The KV host has one FIFO channel of these, fed
/// by the transport's readers (frames), the node loop (views),
/// [`KvRuntime::begin_put`]/[`KvRuntime::begin_get`] (ops),
/// [`KvRuntime::digest_snapshot`] (digest requests) and the stop, so it
/// sleeps on a single receive and wakes for whichever comes first.
enum PumpIn {
    View(Arc<Configuration>),
    /// An app frame as it came off the wire; the pump decodes it.
    Frame(Endpoint, Vec<u8>),
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

/// The one host loop: drives `core` from its input channel until
/// [`PumpIn::Stop`] (or until every sender is gone), pushing each frame
/// it emits straight into the destination's writer queue.
///
/// `publish(core, ticked)` runs every pass, after the timers and before
/// any outcome is delivered, so whoever receives an outcome already
/// finds it in the published counters.
fn pump<C: Core>(
    mut core: C,
    inputs: Receiver<PumpIn>,
    sender: AppSender,
    mut publish: impl FnMut(&mut C, bool),
) {
    let next = |budget| match inputs.recv_timeout(budget) {
        Ok(input) => Some(input),
        Err(RecvTimeoutError::Timeout) => None,
        Err(RecvTimeoutError::Disconnected) => Some(PumpIn::Stop),
    };
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
        publish(&mut core, ticked);
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
                    sender.send_app(to, frame);
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

/// A data-plane snapshot: what the KV host publishes on its tick.
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

/// The process's published data-plane state, for the scenario driver's
/// polls. Membership status and view come from the transport's
/// [`Runtime`].
#[derive(Clone, Debug, Default)]
struct Mirror {
    /// View changes observed so far, counted on the node loop.
    view_count: u64,
    /// The KV host's snapshot, refreshed on its tick.
    kv: KvSnapshot,
    /// Sampled metrics timeline (interval deltas on the wall clock),
    /// republished in full on every sweep. Empty when `obs_sample_ms`
    /// is 0.
    timeline: Vec<TimelinePoint>,
    /// Sweeps lost to the bounded timeline ring wrapping.
    timeline_dropped: u64,
}

/// A real process running membership + the KV data plane.
pub struct KvRuntime {
    addr: Endpoint,
    /// The transport (sockets and node loop); taken on stop.
    rt: Option<Runtime>,
    /// The KV host's input channel.
    host_tx: Sender<PumpIn>,
    /// The KV host's pump thread; taken on stop.
    host: Option<JoinHandle<()>>,
    mirror: Arc<Mutex<Mirror>>,
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
        let metadata = rapid_core::Metadata::new();
        let (timeout, repair) = (op_timeout_ms, repair_interval_ms);
        Self::start_joiner(listen, Vec::new(), settings, metadata, route, timeout, repair)
    }

    /// Starts a joining process with the data plane attached (a seed when
    /// `seeds` is empty). Invalid `settings` are an
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) error, returned
    /// before any socket is bound.
    pub fn start_joiner(
        listen: Endpoint,
        seeds: Vec<Endpoint>,
        settings: Settings,
        metadata: rapid_core::Metadata,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
    ) -> std::io::Result<KvRuntime> {
        let joiner = !seeds.is_empty();
        let (host_tx, inputs) = bounded(CHAN_CAP);
        let mirror = Arc::new(Mutex::new(Mirror::default()));
        let host = |node: &Node| kv_host(node, &host_tx, &mirror);
        let mut rt = Runtime::start_hosted(listen, settings.clone(), seeds, metadata, host)?;
        // Opt-in live introspection: with `RAPID_INTROSPECT=1` the
        // transport serves a one-line JSON status on a loopback side
        // listener, and the KV layer appends its published data-plane
        // counters and op-latency quantiles to that line.
        let introspect_addr = if std::env::var("RAPID_INTROSPECT").as_deref() == Ok("1") {
            let probe_mirror = Arc::clone(&mirror);
            rt.serve_introspection(move |line| {
                let m = probe_mirror.lock();
                let kv = &m.kv;
                let (p50, p99) = (
                    kv.op_hist.quantile_ppm(500_000),
                    kv.op_hist.quantile_ppm(990_000),
                );
                line.push_str(&format!(
                    ",\"puts_acked\":{},\"gets_ok\":{},\"bytes_moved\":{},\"repair_bytes\":{},\"op_p50_ms\":{},\"op_p99_ms\":{},\"inbox_depth\":{},\"shed_ops\":{},\"client_conns\":{}",
                    kv.stats.puts_acked, kv.stats.gets_ok, kv.stats.bytes_moved,
                    kv.stats.repair_bytes, p50, p99,
                    kv.inbox_depth, kv.stats.ops_shed, kv.client_conns,
                ));
            })
            .ok()
        } else {
            None
        };
        let mut kv = KvNode::new(rt.member().clone(), route, op_timeout_ms, None)
            .with_repair_interval(repair_interval_ms)
            .with_obs(settings.obs_ring)
            .with_admission(settings.kv_inbox, settings.kv_shed_p99_ms);
        if joiner {
            kv = kv.expect_initial_handoffs();
        }
        let sender = rt.app_sender();
        let publish = publisher(Arc::clone(&mirror), settings.obs_sample_ms);
        let host = std::thread::spawn(move || pump(kv, inputs, sender, publish));
        Ok(KvRuntime {
            addr: *rt.addr(),
            rt: Some(rt),
            host_tx,
            host: Some(host),
            mirror,
            introspect_addr,
        })
    }

    /// The node's listen address.
    pub fn addr(&self) -> Endpoint {
        self.addr
    }

    /// Latest published lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.rt.as_ref().map_or(NodeStatus::Left, Runtime::status)
    }

    /// Latest published view size.
    pub fn view_len(&self) -> usize {
        self.rt.as_ref().map_or(0, |rt| rt.view().len())
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

    /// Inbound frames the transport's per-peer quota dropped so far.
    pub fn quota_dropped(&self) -> u64 {
        self.rt.as_ref().map_or(0, Runtime::quota_dropped)
    }

    /// Outbound frames the transport dropped so far on a full per-peer
    /// writer queue.
    pub fn send_dropped(&self) -> u64 {
        self.rt.as_ref().map_or(0, Runtime::send_dropped)
    }

    /// Events the transport dropped on a full `events()` channel: always
    /// 0 here, where every frame goes straight to the KV host.
    pub fn event_dropped(&self) -> u64 {
        self.rt.as_ref().map_or(0, Runtime::event_dropped)
    }

    /// Latest published successful-op latency histogram (wall-clock ms).
    pub fn op_hist(&self) -> LatencyHist {
        self.mirror.lock().kv.op_hist.clone()
    }

    /// `(partition, digest, settled)` for every partition this process
    /// replicates, in partition order — computed on demand by the KV host
    /// (the scenario driver's `kv_converged` sweep compares these across
    /// processes). Empty when the host does not answer in time, so a
    /// stopped process reports nothing.
    pub fn digest_snapshot(&self) -> Vec<(u32, PartitionDigest, bool)> {
        ask_digests(&self.host_tx)
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

    /// [`Self::inbox_depth`] as a one-entry list, the shape the
    /// benchmark harness reads.
    pub fn shard_depths(&self) -> Vec<u64> {
        vec![self.inbox_depth() as u64]
    }

    /// The loopback introspection listener's address, when enabled via
    /// `RAPID_INTROSPECT=1` at startup.
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect_addr
    }

    /// Begins a write through this process; the outcome arrives on the
    /// returned channel (dropped channel = op abandoned).
    pub fn begin_put(&self, key: &str, val: &str) -> Receiver<KvOutcome> {
        begin_op(&self.host_tx, key, Some(val))
    }

    /// Begins a read through this process.
    pub fn begin_get(&self, key: &str) -> Receiver<KvOutcome> {
        begin_op(&self.host_tx, key, None)
    }

    /// Announces a voluntary departure and stops the process.
    pub fn leave(mut self) {
        self.stop(true);
    }

    /// Hard-stops the process (a crash, as far as the cluster knows).
    pub fn shutdown_now(mut self) {
        self.stop(false);
    }

    /// Stops the transport (sockets and node loop), then the KV host; a
    /// no-op once stopped.
    fn stop(&mut self, leave: bool) {
        let Some(rt) = self.rt.take() else { return };
        if leave {
            rt.leave();
        } else {
            rt.shutdown_now();
        }
        // No reader or node loop is left to queue anything behind this.
        let _ = self.host_tx.send(PumpIn::Stop);
        if let Some(host) = self.host.take() {
            let _ = host.join();
        }
    }
}

impl Drop for KvRuntime {
    fn drop(&mut self) {
        self.stop(false);
    }
}

/// The process's transport hooks: readers hand app frames straight to
/// the KV host, and the node loop queues every installed view to it and
/// counts view changes.
fn kv_host(node: &Node, host: &Sender<PumpIn>, mirror: &Arc<Mutex<Mirror>>) -> Host {
    // A seed's one-member view is installed already: queue it ahead of
    // any frame or op, so the host subscribes before it serves.
    if node.status() == NodeStatus::Active {
        let _ = host.send(PumpIn::View(node.configuration()));
    }
    // Sends block on a full channel — neither a data frame nor a view is
    // ever silently dropped here; a reader pushes back on its connection.
    let frames = host.clone();
    let app = move |from: Endpoint, bytes: Vec<u8>| {
        let _ = frames.send(PumpIn::Frame(from, bytes));
    };
    let (views, mirror) = (host.clone(), Arc::clone(mirror));
    let membership = move |_: &Node, event: AppEvent| {
        if let AppEvent::View(ViewChange { configuration, .. }) | AppEvent::Joined(configuration) =
            &event
        {
            let _ = views.send(PumpIn::View(Arc::clone(configuration)));
        }
        if matches!(event, AppEvent::View(_)) {
            mirror.lock().view_count += 1;
        }
    };
    Host {
        app: Box::new(app),
        membership: Box::new(membership),
    }
}

/// The KV host's publish step: on each tick it writes the node's
/// snapshot into the [`Mirror`] and, on the `obs_sample_ms` cadence,
/// records the metrics timeline and feeds the interval quantiles back to
/// the node's admission controller (the simulator's metrics sweep does
/// the same).
fn publisher(mirror: Arc<Mutex<Mirror>>, obs_sample_ms: u64) -> impl FnMut(&mut KvNode, bool) {
    let start = Instant::now();
    // Metrics timeline: the same delta sampler the simulator runs, on
    // the wall clock. Capacity 0 (`obs_sample_ms == 0`) disables it.
    let mut timeline = Timeline::new(if obs_sample_ms > 0 {
        DEFAULT_TIMELINE_CAP
    } else {
        0
    });
    // Cumulative totals as of the previous sample.
    let mut cursor = TimelinePoint::default();
    let mut prev_hist = LatencyHist::new();
    let mut next_sample = start + Duration::from_millis(obs_sample_ms.max(1));
    move |kv, ticked| {
        if !ticked {
            return;
        }
        let snapshot = KvSnapshot {
            stats: *kv.stats(),
            inbox_depth: kv.inbox_depth(),
            client_conns: kv.client_conns(),
            op_hist: kv.op_hist().clone(),
        };
        let mut m = mirror.lock();
        // Metrics sweep: record the deltas since the previous sample. The
        // real-driver timeline carries the data plane (ops, handoff/repair
        // bytes, view changes) — the simulator fills the network columns.
        if timeline.enabled() && Instant::now() >= next_sample {
            let (_, p50, p99) = snapshot.op_hist.interval_quantiles(&prev_hist);
            kv.note_interval(p50, p99);
            let stats = &snapshot.stats;
            let total = TimelinePoint {
                t_ms: start.elapsed().as_millis() as u64,
                view_changes: m.view_count,
                ops: stats.puts_acked + stats.gets_ok,
                handoff_bytes: stats.bytes_moved,
                repair_bytes: stats.repair_bytes,
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
            prev_hist = snapshot.op_hist.clone();
            next_sample += Duration::from_millis(obs_sample_ms);
            m.timeline = timeline.iter_in_order().copied().collect();
            m.timeline_dropped = timeline.dropped();
        }
        m.kv = snapshot;
    }
}

/// A smart client hosted on the real transport: a [`KvClient`] state
/// machine on a dedicated pump thread, fed straight by an [`AppPeer`]'s
/// readers. The `AppPeer` keeps one pooled TCP stream per destination,
/// so steady-state traffic holds exactly one connection per partition
/// leader — the per-leader connection pooling the client plane promises.
/// The client never joins the membership; it learns views purely from
/// `Sub`/`View` push frames.
pub struct KvClientRuntime {
    addr: Endpoint,
    ops_tx: Sender<PumpIn>,
    published: Arc<Mutex<(ClientStats, LatencyHist, Option<u64>)>>,
    /// The client's sockets and its pump thread; taken when it stops.
    running: Option<(AppPeer, JoinHandle<()>)>,
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
        let (ops_tx, inputs) = bounded::<PumpIn>(CHAN_CAP);
        let frames = ops_tx.clone();
        // A full pump channel pushes back on the connection.
        let peer = AppPeer::start_with(Endpoint::new("127.0.0.1", 0), move |from, bytes| {
            let _ = frames.send(PumpIn::Frame(from, bytes));
        })?;
        let addr = *peer.addr();
        let client = KvClient::new(addr, route, seeds, window, op_timeout_ms);
        let published = Arc::new(Mutex::new((
            ClientStats::default(),
            LatencyHist::new(),
            None,
        )));
        let pump_pub = Arc::clone(&published);
        let sender = peer.app_sender();
        let handle = std::thread::spawn(move || {
            pump(client, inputs, sender, |client, _ticked| {
                let mut p = pump_pub.lock();
                p.0 = *client.stats();
                p.1 = client.op_hist().clone();
                p.2 = client.view_seq();
            })
        });
        Ok(KvClientRuntime {
            addr,
            ops_tx,
            published,
            running: Some((peer, handle)),
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

    /// Stops the peer's sockets and the pump.
    pub fn shutdown_now(self) {
        drop(self);
    }
}

impl Drop for KvClientRuntime {
    fn drop(&mut self) {
        if let Some((peer, pump)) = self.running.take() {
            peer.shutdown_now();
            let _ = self.ops_tx.send(PumpIn::Stop);
            let _ = pump.join();
        }
    }
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
        assert!(body.contains("\"gets_ok\":0"), "{body:?}");
        assert!(body.contains("\"op_p99_ms\":"), "{body:?}");
        // Client-plane overload observability rides the same line.
        assert!(body.contains("\"inbox_depth\":"), "{body:?}");
        assert!(body.contains("\"shed_ops\":0"), "{body:?}");
        assert!(body.contains("\"client_conns\":"), "{body:?}");
        assert!(body.contains("\"quota_dropped\":0"), "{body:?}");
        // The transport's drop counters ride the same line.
        assert!(body.contains("\"send_dropped\":0"), "{body:?}");
        assert!(body.contains("\"event_dropped\":0"), "{body:?}");
        assert_eq!((seed.send_dropped(), seed.event_dropped()), (0, 0));
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

    /// The crash tail over real TCP: a smart client streams puts and
    /// gets while one of four processes is hard-stopped. Ops in flight
    /// to it (as leader, or waiting on it as a replica) settle when the
    /// removal view lands, so none fails and none comes near the 4 s op
    /// timeout.
    #[test]
    fn real_leader_crash_settles_in_flight_ops_at_the_view_change() {
        const OP_TIMEOUT_MS: u64 = 4_000;
        // 32 partitions over 4 processes: the victim leads some of them.
        let route = PlacementConfig {
            partitions: 32,
            replication: 2,
        };
        let settings = fast_settings();
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            route,
            OP_TIMEOUT_MS,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let mut joiners: Vec<KvRuntime> = (0..3)
            .map(|i| {
                KvRuntime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    rapid_core::Metadata::with_entry("proc", format!("{i}")),
                    route,
                    OP_TIMEOUT_MS,
                    500,
                )
                .unwrap()
            })
            .collect();
        assert!(
            wait_for(
                || seed.view_len() == 4 && joiners.iter().all(|j| j.view_len() == 4),
                Duration::from_secs(30)
            ),
            "4-node KV cluster must form"
        );
        let client = KvClientRuntime::start(vec![seed_addr], route, 64, OP_TIMEOUT_MS).unwrap();
        assert!(wait_for(|| client.view_seq().is_some(), Duration::from_secs(10)));

        let mut victim = joiners.pop();
        let started = Instant::now();
        let mut pending: Vec<(Instant, Receiver<KvOutcome>)> = Vec::new();
        let mut latencies = Vec::new();
        let mut i = 0;
        while started.elapsed() < Duration::from_millis(4_000) || !pending.is_empty() {
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "{} ops never completed",
                pending.len()
            );
            if started.elapsed() >= Duration::from_millis(500) {
                if let Some(v) = victim.take() {
                    v.shutdown_now();
                }
            }
            if started.elapsed() < Duration::from_millis(4_000) {
                let key = format!("ck{}", (i / 2) % 64);
                let rx = if i % 2 == 0 {
                    client.begin_put(&key, "cv")
                } else {
                    client.begin_get(&key)
                };
                pending.push((Instant::now(), rx));
                i += 1;
            }
            pending.retain(|(at, rx)| match rx.try_recv() {
                Ok(outcome) => {
                    latencies.push((at.elapsed(), outcome));
                    false
                }
                Err(_) => true,
            });
            std::thread::sleep(Duration::from_millis(5));
        }
        let cs = client.stats();
        assert!(
            latencies.iter().all(|(_, o)| *o != KvOutcome::Failed),
            "no op may fail: {cs:?}"
        );
        let slowest = latencies.iter().map(|(l, _)| *l).max().unwrap();
        assert!(slowest < Duration::from_secs(3), "slowest op {slowest:?}: {cs:?}");
        client.shutdown_now();
        for j in joiners {
            j.shutdown_now();
        }
        seed.shutdown_now();
    }

    #[test]
    fn start_seed_rejects_more_than_one_kv_shard() {
        let settings = Settings {
            kv_shards: 2,
            ..fast_settings()
        };
        let err =
            match KvRuntime::start_seed(Endpoint::new("127.0.0.1", 0), settings, spec(), 2_000, 0)
            {
                Err(e) => e,
                Ok(_) => panic!("a process runs one KV host loop"),
            };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("kv_shards"), "{err}");
    }

    #[test]
    fn real_two_process_runtime_serves_ops_and_lists_each_partition_once() {
        let settings = Settings {
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
        assert!(
            wait_for(
                || seed.view_len() == 2 && joiner.view_len() == 2,
                Duration::from_secs(30)
            ),
            "2-node cluster must form"
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
                "put {i} must ack"
            );
        }
        for i in 0..16 {
            let rx = joiner.begin_get(&format!("shk{i}"));
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(KvOutcome::Found { val, .. }) => assert_eq!(val, format!("shv{i}")),
                other => panic!("get {i} failed: {other:?}"),
            }
        }
        // Published stats must cover every acked op across both processes.
        assert!(
            wait_for(
                || seed.stats().puts_acked + joiner.stats().puts_acked >= 16,
                Duration::from_secs(5)
            ),
            "published stats must cover all acked puts"
        );
        // Asked on demand, the host lists each partition once (RF = 2
        // over two members: both replicate all eight), and the written
        // ones hash to something.
        let d = seed.digest_snapshot();
        let parts: Vec<u32> = d.iter().map(|&(p, _, _)| p).collect();
        assert_eq!(parts, (0..8).collect::<Vec<u32>>(), "{d:?}");
        assert_eq!(
            d.iter().map(|&(_, digest, _)| digest.count).sum::<u64>(),
            16,
            "the 16 written keys must show in the digests: {d:?}"
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
            tx.try_send(PumpIn::Stop).unwrap();
        }
        let rx = begin_op(&tx, "k", Some("v"));
        assert_eq!(rx.try_recv(), Ok(KvOutcome::Failed));
    }

    #[test]
    fn digest_requests_to_a_stopped_or_stalled_host_come_back_empty() {
        // The host's pump has returned: its receiver is gone.
        let (tx, rx) = bounded::<PumpIn>(CHAN_CAP);
        drop(rx);
        let asked = Instant::now();
        assert!(ask_digests(&tx).is_empty());
        assert!(
            asked.elapsed() < DIGEST_WAIT,
            "a stopped host costs no wait"
        );
        // The request is queued but never served: the wait is bounded.
        let (tx, _rx) = bounded::<PumpIn>(CHAN_CAP);
        let asked = Instant::now();
        assert!(ask_digests(&tx).is_empty());
        assert!(asked.elapsed() < 2 * DIGEST_WAIT);
    }
}
