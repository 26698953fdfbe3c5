//! A real-network host for `rapid-core` nodes.
//!
//! The paper's implementation runs over gRPC/Netty; this crate provides the
//! equivalent plumbing with `std::net` TCP and threads, with no async
//! runtime dependency. It is a socket layer ([`AppPeer`]): one accept
//! loop spawning a reader thread per inbound connection, and one writer
//! thread per peer fed by a bounded queue behind one cloneable handle
//! ([`AppSender`]), so a slow or dead peer backs up only its own queue.
//! A reader hands each frame straight to its consumer and every sender
//! pushes straight into the peer's queue. A [`Runtime`] adds the node
//! loop, which drives the sans-io [`Node`]: readers give it membership
//! frames, and app payloads go to the sink chosen at start (a [`Host`]
//! or `events()`). Only the node loop wakes on a timer; stopping is
//! channel disconnect plus `TcpStream::shutdown`, and queued frames are
//! discarded rather than drained to a stalled peer.
//!
//! Framing: every message is `[u32 total_len][u16 host_len][host bytes]
//! [u16 port][rapid_core::wire body]`, where `host:port` is the *logical*
//! listen address of the sender (connections are unidirectional and
//! ephemeral; the protocol addresses peers by listen address). The header
//! endpoint is written and read by [`rapid_core::codec`], under the same
//! host-length and distinct-hosts caps as every endpoint in a body.
//!
//! Delivery is best effort, like the UDP the paper uses for gossip: a
//! failed connect or write simply drops the message — Rapid's dissemination
//! and failure detection are built to tolerate exactly that. A frame
//! dropped on a full queue is counted (`send_dropped`, `event_dropped`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use rapid_core::codec::{self, DecodeError, DecodeLimits, Reader};
use rapid_core::config::Configuration;
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::ViewChange;
use rapid_core::node::{Action, Event, Node, NodeStatus};
use rapid_core::rng::Xoshiro256;
use rapid_core::settings::Settings;
use rapid_core::wire::{self, Message, PeerQuota, QuotaTracker};
use rapid_core::Member;

/// Application-visible events surfaced by the runtime.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// A view change was installed (the paper's view-change callback).
    View(ViewChange),
    /// This node completed its join.
    Joined(Arc<Configuration>),
    /// This node was removed from the membership.
    Kicked,
    /// An opaque application payload arrived from a peer (sent with
    /// [`Runtime::send_app`]) — the hook data planes (e.g. `rapid-route`'s
    /// replicated KV) build on without the transport knowing their wire
    /// format.
    App(Endpoint, Vec<u8>),
}

/// Maximum accepted frame size (a full 5000-member snapshot fits well
/// within this).
const MAX_FRAME: u32 = 32 * 1024 * 1024;

/// First body byte of an application-payload frame. The membership codec
/// owns the low tag space (see `rapid_core::wire`); this value is far
/// outside it, so a protocol frame can never be mistaken for an app frame
/// or vice versa.
const APP_FRAME_TAG: u8 = 0xA5;

/// Depth of each per-peer send queue — the backpressure bound. At the
/// default tick cadence this is several seconds of protocol traffic;
/// overflowing it means the peer is effectively unreachable, so further
/// frames are dropped exactly as a write timeout would have dropped
/// them.
const PEER_QUEUE_DEPTH: usize = 4 * 1024;

/// Slots in the node loop's input channel, all allocated up front. It
/// carries membership frames only, so one peer queue's worth is ample.
const NODE_QUEUE_DEPTH: usize = PEER_QUEUE_DEPTH;

/// How long a connect, and one frame's write, may take before the frame
/// is dropped.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// One frame's body: a membership-protocol message or an opaque
/// application payload. Queued per peer on the way out, decoded on the
/// way in.
enum Frame {
    Proto(Message),
    App(Vec<u8>),
}

/// Encodes `[u32 len][sender endpoint][body]` into `buf` (cleared first),
/// except an app payload: that is returned to be written from its own
/// buffer, so the writer's `buf` never grows to the largest payload.
fn encode_head<'f>(from: &Endpoint, frame: &'f Frame, buf: &mut Vec<u8>) -> &'f [u8] {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]); // Length placeholder, patched below.
    codec::put_endpoint(buf, from);
    let tail: &[u8] = match frame {
        Frame::Proto(msg) => {
            wire::encode(msg, buf);
            &[]
        }
        Frame::App(payload) => {
            buf.push(APP_FRAME_TAG);
            payload
        }
    };
    let total = (buf.len() - 4 + tail.len()) as u32;
    buf[..4].copy_from_slice(&total.to_le_bytes());
    tail
}

/// Writes one frame, head and payload in one `writev` when they fit.
fn write_frame(
    stream: &mut TcpStream,
    from: &Endpoint,
    frame: &Frame,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    let tail = encode_head(from, frame, buf);
    let mut parts = [IoSlice::new(buf), IoSlice::new(tail)];
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match stream.write_vectored(left) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Decodes one frame read off the socket (everything after the length
/// prefix): the sender endpoint from the header, then the body. An app
/// payload is the frame's own buffer with the header drained off, so it
/// is never copied into a second allocation. The sender's host is
/// borrowed from the frame and interned only after the body decoded, so
/// a frame refused for its body never grows the interner.
fn decode_frame(
    mut frame: Vec<u8>,
    limits: DecodeLimits,
) -> Result<(Endpoint, Frame), DecodeError> {
    let mut r = Reader::new(&frame, limits);
    let (host, port) = r.host_port()?;
    let body = r.rest();
    let proto = match body.first() {
        Some(&APP_FRAME_TAG) => None,
        _ => Some(wire::decode_with_limits(body, limits)?),
    };
    let from = r.intern(host, port)?;
    let decoded = match proto {
        Some(msg) => Frame::Proto(msg),
        None => {
            let header = frame.len() - body.len() + 1;
            frame.drain(..header);
            Frame::App(frame)
        }
    };
    Ok((from, decoded))
}

/// Reads one frame, returning the sender, the decoded body, and the
/// frame's wire size in bytes (header included — the unit the per-peer
/// byte quota meters).
fn read_frame(stream: &mut TcpStream) -> std::io::Result<(Endpoint, Frame, u64)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut frame = vec![0u8; len as usize];
    stream.read_exact(&mut frame)?;
    let (from, decoded) = decode_frame(frame, DecodeLimits::default())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok((from, decoded, 4 + len as u64))
}

/// Frames dropped: by the decode quota, on a full writer queue, on a
/// full `events()` channel.
#[derive(Default)]
struct Drops {
    quota: AtomicU64,
    send: AtomicU64,
    event: AtomicU64,
}

/// Queues without blocking; a full channel drops the item and counts it.
fn offer<T>(tx: &Sender<T>, item: T, dropped: &AtomicU64) {
    if tx.try_send(item).is_err() {
        dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-peer writer queues behind one cloneable handle, which every
/// sender of a process pushes into. A push never blocks: the first frame
/// to a peer spawns its writer thread, and a full queue drops the frame
/// and counts it — the same best-effort contract as a failed write.
#[derive(Clone)]
pub struct AppSender(Arc<Writers>);

struct Writers {
    me: Endpoint,
    drops: Arc<Drops>,
    /// `None` once the process stopped: later frames are discarded.
    peers: Mutex<Option<HashMap<Endpoint, Writer>>>,
}

/// One peer's queue, a clone of its writer's current stream (so a stop
/// can shut the socket down under a blocked write), and the writer.
struct Writer {
    queue: Sender<Frame>,
    stream: Option<TcpStream>,
    thread: JoinHandle<()>,
}

impl AppSender {
    /// Queues an app payload for best-effort delivery to `to`.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.send(to, Frame::App(payload));
    }

    fn send(&self, to: Endpoint, frame: Frame) {
        let mut peers = self.0.peers.lock();
        let Some(peers) = peers.as_mut() else { return };
        let writer = peers.entry(to).or_insert_with(|| {
            let (queue, frames) = bounded(PEER_QUEUE_DEPTH);
            let writers = Arc::clone(&self.0);
            let thread = std::thread::spawn(move || write_loop(&writers, to, frames));
            Writer {
                queue,
                stream: None,
                thread,
            }
        });
        offer(&writer.queue, frame, &self.0.drops.send);
    }

    /// Stops every writer without draining its queue, and joins them.
    fn close(&self) {
        let peers = self.0.peers.lock().take().unwrap_or_default();
        for stream in peers.values().filter_map(|w| w.stream.as_ref()) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for writer in peers.into_values() {
            drop(writer.queue);
            let _ = writer.thread.join();
        }
    }
}

/// Connects to a peer's listen address; `None` when it is unreachable
/// right now.
fn connect(to: &Endpoint) -> Option<TcpStream> {
    let addr = format!("{to}").to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    Some(stream)
}

/// One peer's writer: connects lazily; an error drops the frame and the
/// stream, and the next frame reconnects. Returns when the queue
/// disconnects, or at its first connect or failed write after a stop.
fn write_loop(writers: &Writers, to: Endpoint, frames: Receiver<Frame>) {
    let mut stream: Option<TcpStream> = None;
    let mut buf = Vec::new();
    while let Ok(frame) = frames.recv() {
        if stream.is_none() {
            stream = connect(&to);
            let mut peers = writers.peers.lock();
            let Some(writer) = peers.as_mut().and_then(|p| p.get_mut(&to)) else {
                return;
            };
            writer.stream = stream.as_ref().and_then(|s| s.try_clone().ok());
        }
        let Some(s) = stream.as_mut() else { continue };
        if write_frame(s, &writers.me, &frame, &mut buf).is_err() {
            stream = None;
            if writers.peers.lock().is_none() {
                return;
            }
        }
    }
}

/// The accept loop, a thread blocked in `accept`. Stopping drops `stop`
/// and connects once, so `accept` returns and sees the disconnect.
struct Acceptor {
    wake: SocketAddr,
    stop: Sender<()>,
    thread: JoinHandle<()>,
}

impl Acceptor {
    fn spawn(
        listener: TcpListener,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<Acceptor> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(Ipv4Addr::LOCALHOST.into());
        }
        // Never sent on: only its disconnect matters.
        let (stop, stopped) = bounded::<()>(0);
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                match (stopped.try_recv(), conn) {
                    (Err(TryRecvError::Empty), Ok(stream)) => on_conn(stream),
                    _ => return,
                }
            }
        });
        Ok(Acceptor { wake, stop, thread })
    }

    fn stop(self) {
        drop(self.stop);
        // If even a loopback connect fails, leave the thread blocked in
        // `accept` rather than hang the caller.
        if TcpStream::connect_timeout(&self.wake, CONNECT_TIMEOUT).is_ok() {
            let _ = self.thread.join();
        }
    }
}

/// Where a reader hands each frame, with its sender and wire size.
type Deliver = dyn Fn(Endpoint, Frame, u64) + Send + Sync;

/// [`Host::membership`]: a hook run on the node loop.
pub type MembershipHook = Box<dyn FnMut(&Node, AppEvent) + Send>;

/// [`Host::timer`]: a hook run on the node loop.
pub type TimerHook = Box<dyn FnMut(&Node) + Send>;

/// What a process runs beside its membership node, in place of the
/// `events()` channel ([`Runtime::start_hosted`]).
pub struct Host {
    /// Takes each app payload that passed the quota, on the reader thread
    /// that read it; blocking here pushes back on that one connection.
    pub app: Box<dyn Fn(Endpoint, Vec<u8>) + Send + Sync>,
    /// Runs on the node loop for each view change, join and kick, before
    /// the loop takes its next input.
    pub membership: MembershipHook,
    /// Runs on the node loop every `.0` after its previous run ended.
    pub timer: Option<(Duration, TimerHook)>,
}

/// The node loop's input.
enum NodeIn {
    Receive(Endpoint, Message),
    Leave,
}

/// A running Rapid node bound to a real TCP socket: the socket layer (an
/// [`AppPeer`]) plus the node loop.
pub struct Runtime {
    me: Member,
    events_rx: Receiver<AppEvent>,
    view: Arc<Mutex<Arc<Configuration>>>,
    status: Arc<Mutex<NodeStatus>>,
    peer: AppPeer,
    /// Dropped after the readers, it stops the node loop.
    node_tx: Sender<NodeIn>,
    node_loop: JoinHandle<()>,
    introspection: Vec<Acceptor>,
}

impl Runtime {
    /// Starts a seed node bootstrapping a fresh cluster on `listen`.
    pub fn start_seed(listen: Endpoint, settings: Settings) -> std::io::Result<Runtime> {
        Self::start_joiner(listen, Vec::new(), settings, rapid_core::Metadata::new())
    }

    /// Starts a node that joins an existing cluster through `seeds` (a
    /// seed when `seeds` is empty).
    pub fn start_joiner(
        listen: Endpoint,
        seeds: Vec<Endpoint>,
        settings: Settings,
        metadata: rapid_core::Metadata,
    ) -> std::io::Result<Runtime> {
        Self::start(listen, settings, seeds, metadata, None::<fn(&Node) -> Host>)
    }

    /// Starts a node (a seed when `seeds` is empty) whose payloads and
    /// membership events go to the [`Host`] that `host` builds, not to
    /// [`Runtime::events`]. `host` runs before any frame is read, so what
    /// it queues comes first.
    pub fn start_hosted(
        listen: Endpoint,
        settings: Settings,
        seeds: Vec<Endpoint>,
        metadata: rapid_core::Metadata,
        host: impl FnOnce(&Node) -> Host,
    ) -> std::io::Result<Runtime> {
        Self::start(listen, settings, seeds, metadata, Some(host))
    }

    fn start(
        listen: Endpoint,
        settings: Settings,
        seeds: Vec<Endpoint>,
        metadata: rapid_core::Metadata,
        host: Option<impl FnOnce(&Node) -> Host>,
    ) -> std::io::Result<Runtime> {
        let listener = TcpListener::bind(format!("{listen}"))?;
        let actual: SocketAddr = listener.local_addr()?;
        let me_ep = Endpoint::new(listen.host(), actual.port());
        // Fresh logical id per join, seeded from OS entropy via the
        // address of a stack local + time (no extra dependencies).
        let seed_entropy = Instant::now().elapsed().as_nanos() as u64
            ^ std::process::id() as u64
            ^ me_ep.digest();
        let mut rng = Xoshiro256::seed_from_u64(seed_entropy);
        let id = NodeId::random(&mut rng);
        let me = Member::with_metadata(id, me_ep, metadata);

        let node = if seeds.is_empty() {
            Node::new_seed(me.clone(), settings.clone())
        } else {
            Node::new_joiner(me.clone(), settings.clone(), seeds)
        };

        let drops = Arc::new(Drops::default());
        let (host, events_rx) = match host {
            Some(make) => (make(&node), bounded(0).1),
            // A plain runtime: everything goes to `events()`.
            None => {
                let (tx, rx) = bounded::<AppEvent>(16 * 1024);
                let (app_tx, d1, d2) = (tx.clone(), Arc::clone(&drops), Arc::clone(&drops));
                let host = Host {
                    app: Box::new(move |from, p| offer(&app_tx, AppEvent::App(from, p), &d1.event)),
                    membership: Box::new(move |_, event| offer(&tx, event, &d2.event)),
                    timer: None,
                };
                (host, rx)
            }
        };
        let view = Arc::new(Mutex::new(node.configuration()));
        let status = Arc::new(Mutex::new(node.status()));
        let (node_tx, node_rx) = bounded::<NodeIn>(NODE_QUEUE_DEPTH);
        let quota = PeerQuota {
            frames_per_interval: settings.peer_quota_frames,
            bytes_per_interval: settings.peer_quota_bytes,
            interval_ms: settings.peer_quota_interval_ms,
        };
        let quotas = (!quota.is_unlimited()).then(|| Mutex::new(QuotaTracker::new(quota)));
        let (clock, counted) = (Instant::now(), Arc::clone(&drops));
        let (app, to_node) = (host.app, node_tx.clone());
        // The reader hand-off: the per-peer quota (keyed by sender, across
        // connections), then membership frames to the node loop.
        let deliver = move |from: Endpoint, frame: Frame, size: u64| {
            if let Some(quotas) = &quotas {
                let now_ms = clock.elapsed().as_millis() as u64;
                if quotas.lock().admit(from, size as usize, now_ms).is_err() {
                    counted.quota.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            match frame {
                Frame::Proto(msg) => {
                    let _ = to_node.send(NodeIn::Receive(from, msg));
                }
                Frame::App(payload) => app(from, payload),
            }
        };
        let peer = AppPeer::serve(listener, me_ep, drops, bounded(0).1, Arc::new(deliver))?;
        let node_loop = {
            let shared = (Arc::clone(&view), Arc::clone(&status));
            let tick = Duration::from_millis(settings.tick_interval_ms);
            let (out, membership, timer) = (peer.app_sender(), host.membership, host.timer);
            std::thread::spawn(move || {
                run_node(node, node_rx, tick, out, shared, membership, timer)
            })
        };
        Ok(Runtime {
            me,
            events_rx,
            view,
            status,
            peer,
            node_tx,
            node_loop,
            introspection: Vec::new(),
        })
    }

    /// Inbound frames dropped by the per-peer decode quota so far
    /// (`Settings::peer_quota_frames` / `peer_quota_bytes`; 0 when
    /// quotas are disabled).
    pub fn quota_dropped(&self) -> u64 {
        self.peer.drops.quota.load(Ordering::Relaxed)
    }

    /// Outbound frames dropped so far because their peer's writer queue
    /// was full.
    pub fn send_dropped(&self) -> u64 {
        self.peer.send_dropped()
    }

    /// Events and app payloads dropped so far because [`Self::events`]
    /// was full (always 0 for a hosted runtime).
    pub fn event_dropped(&self) -> u64 {
        self.peer.event_dropped()
    }

    /// This node's identity.
    pub fn member(&self) -> &Member {
        &self.me
    }

    /// The node's listen address (with the actual bound port).
    pub fn addr(&self) -> &Endpoint {
        &self.me.addr
    }

    /// The latest installed configuration.
    pub fn view(&self) -> Arc<Configuration> {
        Arc::clone(&self.view.lock())
    }

    /// The node's lifecycle status.
    pub fn status(&self) -> NodeStatus {
        *self.status.lock()
    }

    /// The stream of application events (view changes, join, kick, app
    /// payloads).
    pub fn events(&self) -> &Receiver<AppEvent> {
        &self.events_rx
    }

    /// Sends an opaque application payload to a peer runtime, best
    /// effort, via the peer's writer queue. The peer surfaces it as
    /// [`AppEvent::App`] (or hands it to its [`Host`]).
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.peer.send_app(to, payload);
    }

    /// A cloneable handle for sending app payloads from threads that do
    /// not own the runtime (e.g. KV shard workers).
    pub fn app_sender(&self) -> AppSender {
        self.peer.app_sender()
    }

    /// Starts a loopback introspection listener and returns its bound
    /// address.
    ///
    /// Every accepted connection receives exactly one line of JSON —
    /// `{"node":"host:port","status":"Active","view_id":<u64>,
    /// "members":<n>,"quota_dropped":<n>,"send_dropped":<n>,
    /// "event_dropped":<n>, ...}` — and is then closed, so
    /// `nc 127.0.0.1 PORT` or a scraper can poll liveness without
    /// speaking the membership protocol. The `extra` hook appends
    /// data-plane fields (the caller writes `,"key":value` pairs into the
    /// line) so hosts like `rapid-route` can expose KV stats and
    /// op-latency quantiles through the same socket.
    ///
    /// The listener binds `127.0.0.1:0` (loopback only, ephemeral port),
    /// blocks in `accept` on its own thread, and stops with the runtime.
    pub fn serve_introspection<F>(&mut self, extra: F) -> std::io::Result<SocketAddr>
    where
        F: Fn(&mut String) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let bound = listener.local_addr()?;
        let me = self.me.addr;
        let view = Arc::clone(&self.view);
        let status = Arc::clone(&self.status);
        let drops = Arc::clone(&self.peer.drops);
        self.introspection.push(Acceptor::spawn(listener, move |mut stream| {
            let (view_id, members) = {
                let v = view.lock();
                (v.id().0, v.len())
            };
            let st = *status.lock();
            let mut line = format!(
                "{{\"node\":\"{me}\",\"status\":\"{st:?}\",\"view_id\":{view_id},\"members\":{members},\"quota_dropped\":{},\"send_dropped\":{},\"event_dropped\":{}",
                drops.quota.load(Ordering::Relaxed),
                drops.send.load(Ordering::Relaxed),
                drops.event.load(Ordering::Relaxed),
            );
            extra(&mut line);
            line.push_str("}\n");
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let _ = stream.write_all(line.as_bytes());
            let _ = stream.shutdown(Shutdown::Both);
        })?);
        Ok(bound)
    }

    /// Announces a voluntary departure, then shuts the runtime down.
    pub fn leave(self) {
        let _ = self.node_tx.send(NodeIn::Leave);
        std::thread::sleep(Duration::from_millis(200));
        self.shutdown_now();
    }

    /// Stops all threads without announcing departure (a crash, as far as
    /// the cluster is concerned).
    pub fn shutdown_now(self) {
        for listener in self.introspection {
            listener.stop();
        }
        self.peer.shutdown_now();
        // The readers held the node loop's other input senders.
        drop(self.node_tx);
        let _ = self.node_loop.join();
    }
}

/// The node loop: drives the [`Node`] from its input channel and its
/// tick, queues what it sends, publishes view and status, and runs the
/// host's hooks. Returns once every input sender is gone.
fn run_node(
    mut node: Node,
    inputs: Receiver<NodeIn>,
    tick: Duration,
    out: AppSender,
    (view, status): (Arc<Mutex<Arc<Configuration>>>, Arc<Mutex<NodeStatus>>),
    mut membership: MembershipHook,
    mut timer: Option<(Duration, TimerHook)>,
) {
    let start = Instant::now();
    let mut next_tick = start;
    let mut next_timer = timer.as_ref().map(|(every, _)| start + *every);
    let mut actions = Vec::new();
    loop {
        let due = next_timer.map_or(next_tick, |t| t.min(next_tick));
        match inputs.recv_timeout(due.saturating_duration_since(Instant::now())) {
            Ok(NodeIn::Receive(from, msg)) => {
                node.handle(Event::Receive { from, msg }, &mut actions)
            }
            Ok(NodeIn::Leave) => node.leave(&mut actions),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        if Instant::now() >= next_tick {
            let now_ms = start.elapsed().as_millis() as u64;
            node.handle(Event::Tick { now_ms }, &mut actions);
            next_tick += tick;
        }
        for action in actions.drain(..) {
            let event = match action {
                Action::Send { to, msg } => {
                    out.send(to, Frame::Proto(msg));
                    continue;
                }
                Action::View(vc) => {
                    *view.lock() = Arc::clone(&vc.configuration);
                    AppEvent::View(vc)
                }
                Action::Joined { config } => {
                    *view.lock() = Arc::clone(&config);
                    AppEvent::Joined(config)
                }
                Action::Kicked => AppEvent::Kicked,
            };
            *status.lock() = node.status();
            membership(&node, event);
        }
        *status.lock() = node.status();
        if let (Some((every, run)), Some(at)) = (timer.as_mut(), next_timer) {
            if Instant::now() >= at {
                run(&node);
                next_timer = Some(Instant::now() + *every);
            }
        }
    }
}

/// A standalone application-frame endpoint for processes *outside* the
/// membership — the smart-client plane's transport, and the socket layer
/// under every [`Runtime`]. It speaks only the opaque app-frame subset of
/// the wire format (inbound protocol frames are ignored), sends through
/// the per-peer writer queues, and surfaces every received app payload
/// as `(sender, payload)` on [`AppPeer::events`] or to the sink given to
/// [`AppPeer::start_with`].
///
/// Unlike [`Runtime`], an `AppPeer` never joins, probes, or votes — it
/// holds no `Node` at all. A `rapid-route` smart client built on it
/// learns the membership purely from view pushes over app frames.
pub struct AppPeer {
    me: Endpoint,
    events_rx: Receiver<(Endpoint, Vec<u8>)>,
    drops: Arc<Drops>,
    out: AppSender,
    acceptor: Acceptor,
    readers: Arc<Readers>,
}

/// One reader per accepted connection: a clone of its stream, to shut the
/// socket down under the blocking read, and its thread.
type Readers = Mutex<Vec<(TcpStream, JoinHandle<()>)>>;

impl AppPeer {
    /// Binds `listen` (port 0 for ephemeral) and starts the accept loop;
    /// inbound payloads arrive on [`Self::events`].
    pub fn start(listen: Endpoint) -> std::io::Result<AppPeer> {
        let (tx, events_rx) = bounded(64 * 1024);
        let drops = Arc::new(Drops::default());
        let counted = Arc::clone(&drops);
        Self::bind(listen, drops, events_rx, move |from, payload| {
            offer(&tx, (from, payload), &counted.event)
        })
    }

    /// Binds `listen` and hands every inbound payload to `app`, on the
    /// reader's thread, instead of to [`Self::events`].
    pub fn start_with(
        listen: Endpoint,
        app: impl Fn(Endpoint, Vec<u8>) + Send + Sync + 'static,
    ) -> std::io::Result<AppPeer> {
        Self::bind(listen, Arc::default(), bounded(0).1, app)
    }

    fn bind(
        listen: Endpoint,
        drops: Arc<Drops>,
        events_rx: Receiver<(Endpoint, Vec<u8>)>,
        app: impl Fn(Endpoint, Vec<u8>) + Send + Sync + 'static,
    ) -> std::io::Result<AppPeer> {
        let listener = TcpListener::bind(format!("{listen}"))?;
        let me = Endpoint::new(listen.host(), listener.local_addr()?.port());
        // Membership traffic aimed at a client is a peer bug; drop it.
        let deliver = move |from, frame, _| {
            if let Frame::App(payload) = frame {
                app(from, payload);
            }
        };
        Self::serve(listener, me, drops, events_rx, Arc::new(deliver))
    }

    /// Starts the accept loop, whose readers hand frames to `deliver`.
    fn serve(
        listener: TcpListener,
        me: Endpoint,
        drops: Arc<Drops>,
        events_rx: Receiver<(Endpoint, Vec<u8>)>,
        deliver: Arc<Deliver>,
    ) -> std::io::Result<AppPeer> {
        let readers: Arc<Readers> = Arc::default();
        let registry = Arc::clone(&readers);
        let acceptor = Acceptor::spawn(listener, move |mut stream| {
            let Ok(handle) = stream.try_clone() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let deliver = Arc::clone(&deliver);
            // Blocks with no timeout: a stop shuts the socket down.
            let reader = std::thread::spawn(move || {
                while let Ok((from, frame, size)) = read_frame(&mut stream) {
                    deliver(from, frame, size);
                }
            });
            let mut readers = registry.lock();
            // Join finished readers, so reconnects do not pile them up.
            let (done, live) = std::mem::take(&mut *readers)
                .into_iter()
                .partition(|(_, t)| t.is_finished());
            *readers = live;
            for (_, t) in done {
                let _ = t.join();
            }
            readers.push((handle, reader));
        })?;
        let out = AppSender(Arc::new(Writers {
            me,
            drops: Arc::clone(&drops),
            peers: Mutex::new(Some(HashMap::new())),
        }));
        Ok(AppPeer {
            me,
            events_rx,
            drops,
            out,
            acceptor,
            readers,
        })
    }

    /// The bound listen address (what peers see as the sender).
    pub fn addr(&self) -> &Endpoint {
        &self.me
    }

    /// Inbound app payloads, as `(sender, payload)`.
    pub fn events(&self) -> &Receiver<(Endpoint, Vec<u8>)> {
        &self.events_rx
    }

    /// Queues an app payload for best-effort delivery over the pooled
    /// per-peer stream.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.out.send_app(to, payload);
    }

    /// A cloneable handle for sending from other threads.
    pub fn app_sender(&self) -> AppSender {
        self.out.clone()
    }

    /// Outbound frames dropped so far because their peer's writer queue
    /// was full.
    pub fn send_dropped(&self) -> u64 {
        self.drops.send.load(Ordering::Relaxed)
    }

    /// Inbound payloads dropped so far because [`Self::events`] was full.
    pub fn event_dropped(&self) -> u64 {
        self.drops.event.load(Ordering::Relaxed)
    }

    /// Stops all threads: writers first, then the accept loop and readers.
    pub fn shutdown_now(self) {
        self.out.close();
        self.acceptor.stop();
        let readers = std::mem::take(&mut *self.readers.lock());
        for (stream, reader) in readers {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole frame in one buffer, as the wire carries it.
    fn encode_frame(from: &Endpoint, frame: &Frame, buf: &mut Vec<u8>) {
        let tail = encode_head(from, frame, buf);
        buf.extend_from_slice(tail);
    }

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
    fn per_peer_writers_preserve_order_across_interleaved_destinations() {
        // Frames to one peer stay FIFO through its dedicated writer even
        // when the sender interleaves them with frames for other peers
        // (and for a dead endpoint, whose connect attempts block only
        // that peer's own writer thread).
        let a = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let b = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let c = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let dead = {
            // A port that was just bound and released: nothing listens.
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let port = l.local_addr().unwrap().port();
            drop(l);
            Endpoint::new("127.0.0.1", port)
        };
        for i in 0..50u8 {
            a.send_app(*b.addr(), vec![0, i]);
            a.send_app(dead, vec![9, i]);
            a.send_app(*c.addr(), vec![1, i]);
        }
        let drain = |p: &AppPeer, tag: u8| {
            let mut got = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while got.len() < 50 && Instant::now() < deadline {
                if let Ok((from, payload)) = p.events().recv_timeout(Duration::from_millis(100)) {
                    assert_eq!(from, *a.addr());
                    assert_eq!(payload[0], tag);
                    got.push(payload[1]);
                }
            }
            got
        };
        assert_eq!(drain(&b, 0), (0..50).collect::<Vec<_>>());
        assert_eq!(drain(&c, 1), (0..50).collect::<Vec<_>>());
        a.shutdown_now();
        b.shutdown_now();
        c.shutdown_now();
    }

    #[test]
    fn frame_roundtrip_over_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut stream,
                &Endpoint::new("me", 42),
                &Frame::Proto(Message::Probe { seq: 7 }),
                &mut Vec::new(),
            )
            .unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = read_frame(&mut conn).unwrap();
        assert_eq!(from, Endpoint::new("me", 42));
        assert!(matches!(inbound, Frame::Proto(Message::Probe { seq: 7 })));
        sender.join().unwrap();
    }

    #[test]
    fn batch_frame_roundtrips_as_one_tcp_write() {
        // A coalesced outbox flush is one frame — and therefore exactly
        // one `write_all` on the stream — carrying every message in
        // order.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut stream,
                &Endpoint::new("me", 44),
                &Frame::Proto(Message::Batch {
                    msgs: vec![
                        Message::Probe { seq: 1 },
                        Message::ProbeAck { seq: 2, config_seq: 3 },
                        Message::ConfigPull { have_seq: 4 },
                    ],
                }),
                &mut Vec::new(),
            )
            .unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = read_frame(&mut conn).unwrap();
        assert_eq!(from, Endpoint::new("me", 44));
        match inbound {
            Frame::Proto(Message::Batch { msgs }) => {
                assert_eq!(msgs.len(), 3);
                assert!(matches!(msgs[0], Message::Probe { seq: 1 }));
                assert!(matches!(msgs[1], Message::ProbeAck { seq: 2, .. }));
                assert!(matches!(msgs[2], Message::ConfigPull { have_seq: 4 }));
            }
            _ => panic!("batch frame must decode as one protocol message"),
        }
        sender.join().unwrap();
    }

    #[test]
    fn app_frame_roundtrip_over_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut stream,
                &Endpoint::new("me", 43),
                &Frame::App(b"kv: hello".to_vec()),
                &mut Vec::new(),
            )
            .unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = read_frame(&mut conn).unwrap();
        assert_eq!(from, Endpoint::new("me", 43));
        match inbound {
            Frame::App(payload) => assert_eq!(payload, b"kv: hello"),
            Frame::Proto(_) => panic!("app frame decoded as protocol frame"),
        }
        sender.join().unwrap();
    }

    /// The frame header parse is a pure function of the bytes read off a
    /// socket; these properties pin it without one.
    mod frame_header {
        use super::*;
        use proptest::prelude::*;

        /// A frame as `read_frame` hands it to `decode_frame`: what
        /// `encode_frame` wrote, length prefix stripped.
        fn framed(from: &Endpoint, frame: &Frame) -> Vec<u8> {
            let mut buf = Vec::new();
            encode_frame(from, frame, &mut buf);
            buf.split_off(4)
        }

        /// No headroom for fresh hosts: garbage can never intern one.
        fn no_fresh_hosts() -> DecodeLimits {
            DecodeLimits {
                max_distinct_hosts: 0,
                ..DecodeLimits::default()
            }
        }

        proptest! {
            /// Arbitrary bytes, bare or behind a valid header, never panic.
            #[test]
            fn garbage_never_panics(
                bytes in prop::collection::vec(any::<u8>(), 0..512),
                app in any::<bool>(),
            ) {
                let _ = decode_frame(bytes.clone(), no_fresh_hosts());
                let mut framed = Vec::new();
                codec::put_endpoint(&mut framed, &Endpoint::new("frame-garbage", 1));
                if app {
                    framed.push(APP_FRAME_TAG);
                }
                framed.extend_from_slice(&bytes);
                let _ = decode_frame(framed, no_fresh_hosts());
            }

            /// `encode_frame` output decodes to the same sender and body.
            #[test]
            fn encoded_header_roundtrips(
                host in 0u8..8,
                port in any::<u16>(),
                payload in prop::collection::vec(any::<u8>(), 0..256),
                seq in any::<u64>(),
            ) {
                let from = Endpoint::new(format!("frame-host-{host}"), port);
                let app = framed(&from, &Frame::App(payload.clone()));
                match decode_frame(app, DecodeLimits::default()) {
                    Ok((got, Frame::App(body))) => {
                        prop_assert_eq!(got, from);
                        prop_assert_eq!(body, payload);
                    }
                    _ => prop_assert!(false, "app frame must decode as an app payload"),
                }
                let probe = framed(&from, &Frame::Proto(Message::Probe { seq }));
                match decode_frame(probe, DecodeLimits::default()) {
                    Ok((got, Frame::Proto(Message::Probe { seq: s }))) => {
                        prop_assert_eq!(got, from);
                        prop_assert_eq!(s, seq);
                    }
                    _ => prop_assert!(false, "protocol frame must decode as a probe"),
                }
            }
        }

        #[test]
        fn host_over_255_bytes_is_refused() {
            let app = Frame::App(Vec::new());
            let ok = Endpoint::new("h".repeat(codec::MAX_WIRE_HOST_LEN), 1);
            assert!(decode_frame(framed(&ok, &app), DecodeLimits::default()).is_ok());
            let long = Endpoint::new("h".repeat(256), 1);
            assert!(matches!(
                decode_frame(framed(&long, &app), DecodeLimits::default()),
                Err(DecodeError::HostTooLong { len: 256 })
            ));
        }

        #[test]
        fn fresh_host_beyond_the_cap_is_refused_after_the_body() {
            // Hand-encoded, so the test itself never interns the host.
            let fresh = |body: u8| {
                let mut frame = Vec::new();
                codec::put_str16(&mut frame, "frame-never-interned");
                frame.extend_from_slice(&1u16.to_le_bytes());
                frame.push(body);
                frame
            };
            assert!(matches!(
                decode_frame(fresh(APP_FRAME_TAG), no_fresh_hosts()),
                Err(DecodeError::TooManyHosts { cap: 0, .. })
            ));
            // A body that does not decode is refused first: the host is
            // interned only once the rest of the frame is known good.
            assert_eq!(
                decode_frame(fresh(250), no_fresh_hosts()).err(),
                Some(DecodeError::UnknownTag(250))
            );
            let known = Endpoint::new("frame-known", 2);
            let app = Frame::App(Vec::new());
            assert!(decode_frame(framed(&known, &app), no_fresh_hosts()).is_ok());
        }
    }

    #[test]
    fn app_payloads_flow_between_runtimes() {
        let settings = fast_settings();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone()).unwrap();
        let seed_addr = *seed.addr();
        let j = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
        )
        .unwrap();
        assert!(wait_for(|| seed.view().len() == 2, Duration::from_secs(30)));
        j.send_app(seed_addr, b"ping-42".to_vec());
        let got = wait_for(
            || {
                while let Ok(ev) = seed.events().try_recv() {
                    if let AppEvent::App(from, payload) = ev {
                        assert_eq!(from, *j.addr());
                        assert_eq!(payload, b"ping-42");
                        return true;
                    }
                }
                false
            },
            Duration::from_secs(10),
        );
        assert!(got, "app payload must arrive at the seed");
        j.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn introspection_endpoint_serves_one_json_line() {
        let settings = fast_settings();
        let mut seed =
            Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone()).unwrap();
        let probe_addr =
            seed.serve_introspection(|line| line.push_str(",\"probe\":1")).unwrap();
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        // Poll twice: each connection gets exactly one line and a close.
        for _ in 0..2 {
            let mut conn = TcpStream::connect(probe_addr).unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            assert!(body.ends_with("}\n"), "one newline-terminated line: {body:?}");
            assert!(body.starts_with("{\"node\":\"127.0.0.1:"), "{body:?}");
            assert!(body.contains("\"status\":\"Active\""), "{body:?}");
            assert!(body.contains("\"members\":1"), "{body:?}");
            assert!(body.contains(",\"probe\":1"), "extra hook must run: {body:?}");
        }
        seed.shutdown_now();
    }

    #[test]
    fn cluster_forms_and_removes_crashed_node_over_tcp() {
        let settings = fast_settings();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone()).unwrap();
        let seed_addr = *seed.addr();
        let mut joiners = Vec::new();
        for _ in 0..3 {
            joiners.push(
                Runtime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    rapid_core::Metadata::with_entry("role", "test"),
                )
                .unwrap(),
            );
        }
        assert!(
            wait_for(
                || seed.view().len() == 4 && joiners.iter().all(|j| j.view().len() == 4),
                Duration::from_secs(30)
            ),
            "4-node cluster must form over TCP, seed sees {}",
            seed.view().len()
        );
        // All views agree.
        let id = seed.view().id();
        assert!(joiners.iter().all(|j| j.view().id() == id));
        // Hard-kill one joiner; the survivors must remove it.
        let victim = joiners.pop().unwrap();
        let victim_id = victim.member().id;
        victim.shutdown_now();
        assert!(
            wait_for(
                || seed.view().len() == 3 && !seed.view().contains(victim_id),
                Duration::from_secs(60)
            ),
            "crashed node must be removed, seed sees {}",
            seed.view().len()
        );
        for j in joiners {
            j.shutdown_now();
        }
        seed.shutdown_now();
    }

    #[test]
    fn voluntary_leave_is_faster_than_crash_detection() {
        let settings = fast_settings();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone()).unwrap();
        let seed_addr = *seed.addr();
        let j1 = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings.clone(),
            rapid_core::Metadata::new(),
        )
        .unwrap();
        let j2 = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
        )
        .unwrap();
        assert!(wait_for(
            || seed.view().len() == 3,
            Duration::from_secs(30)
        ));
        let t0 = Instant::now();
        j2.leave();
        assert!(
            wait_for(|| seed.view().len() == 2, Duration::from_secs(30)),
            "leaver must be removed"
        );
        // A leave announcement skips the probe timeout path.
        assert!(t0.elapsed() < Duration::from_secs(25));
        j1.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn app_peer_exchanges_payloads_with_a_runtime() {
        // The client plane's transport: an AppPeer (no membership)
        // talking app frames with a full runtime, both directions.
        let settings = fast_settings();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings).unwrap();
        let seed_addr = *seed.addr();
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let peer_addr = *peer.addr();
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        peer.send_app(seed_addr, b"sub".to_vec());
        let got = wait_for(
            || {
                while let Ok(ev) = seed.events().try_recv() {
                    if let AppEvent::App(from, payload) = ev {
                        assert_eq!(from, peer_addr);
                        assert_eq!(payload, b"sub");
                        return true;
                    }
                }
                false
            },
            Duration::from_secs(10),
        );
        assert!(got, "app frame from the peer must reach the runtime");
        // And the runtime can answer the peer at its listen address.
        seed.send_app(peer_addr, b"view".to_vec());
        let got = wait_for(
            || {
                if let Ok((from, payload)) = peer.events().try_recv() {
                    assert_eq!(from, seed_addr);
                    assert_eq!(payload, b"view");
                    return true;
                }
                false
            },
            Duration::from_secs(10),
        );
        assert!(got, "app frame from the runtime must reach the peer");
        peer.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn peer_quota_drops_flooding_frames() {
        // A tight per-peer frame budget: a flood from one AppPeer must
        // trip the quota and be counted as dropped.
        let settings = Settings {
            peer_quota_frames: 2,
            peer_quota_interval_ms: 60_000,
            ..fast_settings()
        };
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings).unwrap();
        let seed_addr = *seed.addr();
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        assert_eq!(seed.quota_dropped(), 0);
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        for i in 0..20 {
            peer.send_app(seed_addr, format!("flood-{i}").into_bytes());
        }
        assert!(
            wait_for(|| seed.quota_dropped() > 0, Duration::from_secs(10)),
            "flood must trip the per-peer quota"
        );
        // Within one interval, at most the budget got through.
        let mut delivered = 0;
        while let Ok(ev) = seed.events().try_recv() {
            if matches!(ev, AppEvent::App(..)) {
                delivered += 1;
            }
        }
        assert!(delivered <= 2, "budget of 2 frames, {delivered} delivered");
        peer.shutdown_now();
        seed.shutdown_now();
    }

    /// A listen address whose connections complete (the kernel accepts
    /// them into the backlog) but are never read from.
    fn stalled_peer() -> (TcpListener, Endpoint) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        (listener, Endpoint::new("127.0.0.1", port))
    }

    fn app_frame(from: &Endpoint, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(from, &Frame::App(payload.to_vec()), &mut buf);
        buf
    }

    #[test]
    fn a_pause_inside_a_frame_does_not_desynchronise_the_stream() {
        // A sender that stalls half way through a frame: the reader must
        // keep waiting for the rest, not parse the next length from the
        // middle of the body.
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let from = Endpoint::new("127.0.0.1", 9);
        let first = app_frame(&from, b"first-payload");
        let mut conn = TcpStream::connect(format!("{}", peer.addr())).unwrap();
        let half = first.len() / 2;
        conn.write_all(&first[..half]).unwrap();
        std::thread::sleep(Duration::from_millis(400));
        conn.write_all(&first[half..]).unwrap();
        conn.write_all(&app_frame(&from, b"second")).unwrap();
        for want in [&b"first-payload"[..], b"second"] {
            let got = peer.events().recv_timeout(Duration::from_secs(5));
            assert_eq!(got, Ok((from, want.to_vec())));
        }
        peer.shutdown_now();
    }

    #[test]
    fn finished_readers_are_joined_as_new_connections_arrive() {
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let from = Endpoint::new("127.0.0.1", 9);
        for i in 0..50u8 {
            let mut conn = TcpStream::connect(format!("{}", peer.addr())).unwrap();
            conn.write_all(&app_frame(&from, &[i])).unwrap();
            // Its reader is running once the frame arrives; dropping the
            // connection then ends it.
            assert_eq!(
                peer.events().recv_timeout(Duration::from_secs(5)),
                Ok((from, vec![i]))
            );
        }
        let live = peer.readers.lock().len();
        assert!(live <= 5, "{live} reader handles held after 50 connections");
        peer.shutdown_now();
    }

    #[test]
    fn a_full_writer_queue_counts_its_drops() {
        let (_listener, stalled) = stalled_peer();
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        assert_eq!(peer.send_dropped(), 0);
        for _ in 0..3 * PEER_QUEUE_DEPTH {
            peer.send_app(stalled, vec![0; 1024]);
        }
        assert!(
            peer.send_dropped() > 0,
            "a queue past its depth must count drops"
        );
        assert_eq!(peer.event_dropped(), 0);
        peer.shutdown_now();
    }

    #[test]
    fn an_app_frame_leaves_without_waiting_for_a_tick() {
        let settings = Settings {
            tick_interval_ms: 5_000,
            ..fast_settings()
        };
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings).unwrap();
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        // Past the node loop's first tick; the next one is 5 s away and
        // nothing arrives meanwhile.
        std::thread::sleep(Duration::from_millis(100));
        let sent = Instant::now();
        seed.send_app(*peer.addr(), b"now".to_vec());
        let got = peer.events().recv_timeout(Duration::from_secs(10));
        let waited = sent.elapsed();
        assert_eq!(got, Ok((*seed.addr(), b"now".to_vec())));
        assert!(waited < Duration::from_millis(200), "waited {waited:?}");
        peer.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn shutdown_does_not_drain_a_queue_towards_a_stalled_peer() {
        let (listener, stalled) = stalled_peer();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), fast_settings()).unwrap();
        // More than the socket buffers hold: the writer blocks in a write
        // with most of its queue still behind it.
        for _ in 0..PEER_QUEUE_DEPTH {
            seed.send_app(stalled, vec![0; 4096]);
        }
        std::thread::sleep(Duration::from_millis(100));
        let stopping = Instant::now();
        seed.shutdown_now();
        let took = stopping.elapsed();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
        // A stopped writer never reconnects to push the rest of its queue.
        listener.set_nonblocking(true).unwrap();
        let conns = std::iter::from_fn(|| listener.accept().ok()).count();
        assert_eq!(conns, 1, "the writer reconnected after the stop");
    }
}
