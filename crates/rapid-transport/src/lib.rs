//! A real-network host for `rapid-core` nodes.
//!
//! The paper's implementation runs over gRPC/Netty; this crate provides the
//! equivalent plumbing with `std::net` TCP and threads, with no async
//! runtime dependency. The sans-io [`rapid_core::node::Node`] is driven by
//! a single driver thread that multiplexes inbound frames (from a
//! listener + per-connection reader threads) with periodic ticks, and
//! queues outbound frames to one writer thread per peer socket (bounded
//! per-peer queues over a lazily connected stream each), so a slow or
//! dead peer backs up only its own queue instead of head-of-line
//! blocking every destination.
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
//! and failure detection are built to tolerate exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
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

/// Listener idle-poll backoff bounds. The non-blocking accept loop
/// sleeps `min` after the first empty poll and doubles up to `max`, so a
/// bursty joiner wave is accepted with ~1 ms latency while an idle
/// listener wakes only ten times a second instead of fifty.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// One frame's body: a membership-protocol message or an opaque
/// application payload. Queued per peer on the way out, decoded on the
/// way in.
enum Frame {
    Proto(Message),
    App(Vec<u8>),
}

/// Encodes `[u32 len][sender endpoint][body]` into `buf` (cleared first),
/// so the steady-state send path reuses one scratch buffer.
fn encode_frame(from: &Endpoint, frame: &Frame, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]); // Length placeholder, patched below.
    codec::put_endpoint(buf, from);
    match frame {
        Frame::Proto(msg) => wire::encode(msg, buf),
        Frame::App(payload) => {
            buf.push(APP_FRAME_TAG);
            buf.extend_from_slice(payload);
        }
    }
    let total = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&total.to_le_bytes());
}

/// Writes one frame in a single `write_all`.
fn write_frame(
    stream: &mut TcpStream,
    from: &Endpoint,
    frame: &Frame,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    encode_frame(from, frame, buf);
    stream.write_all(buf)
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

/// A lazily connected pool of outbound streams.
struct StreamPool {
    me: Endpoint,
    streams: std::collections::HashMap<Endpoint, TcpStream>,
    connect_timeout: Duration,
    /// Reused frame-encode buffer (see [`encode_frame`]).
    encode_buf: Vec<u8>,
}

impl StreamPool {
    fn new(me: Endpoint, connect_timeout: Duration) -> Self {
        StreamPool {
            me,
            streams: std::collections::HashMap::new(),
            connect_timeout,
            encode_buf: Vec::new(),
        }
    }

    /// Connects lazily; `false` means the peer is unreachable right now.
    fn ensure(&mut self, to: &Endpoint) -> bool {
        if self.streams.contains_key(to) {
            return true;
        }
        let addr = match format!("{to}").to_socket_addrs() {
            Ok(mut addrs) => addrs.next(),
            Err(_) => None,
        };
        let Some(addr) = addr else { return false };
        let Ok(stream) = TcpStream::connect_timeout(&addr, self.connect_timeout) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        self.streams.insert(*to, stream);
        true
    }

    /// Best-effort send; drops the frame (and the stream) on any error.
    fn send(&mut self, to: &Endpoint, frame: &Frame) {
        if !self.ensure(to) {
            return;
        }
        let stream = self.streams.get_mut(to).expect("just inserted");
        if write_frame(stream, &self.me, frame, &mut self.encode_buf).is_err() {
            if let Some(s) = self.streams.remove(to) {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Depth of each per-peer send queue — the backpressure bound. At the
/// default tick cadence this is several seconds of protocol traffic;
/// overflowing it means the peer is effectively unreachable, so further
/// frames are dropped exactly as a write timeout would have dropped
/// them.
const PEER_QUEUE_DEPTH: usize = 4 * 1024;

/// One writer thread per peer socket, fed by bounded per-peer queues.
///
/// The dispatcher (the runtime's driver thread, or an [`AppPeer`]'s
/// queue drain) never blocks on the network: enqueueing to a full peer
/// queue drops the frame — the same best-effort semantics as a failed
/// write. A peer whose socket stalls (slow reader, connect timeout to a
/// dead host) backs up only its own queue; it can no longer
/// head-of-line-block frames bound for every other destination, which
/// is what the old single shared writer serialized on.
struct PeerWriters {
    me: Endpoint,
    connect_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    peers: std::collections::HashMap<Endpoint, Sender<Frame>>,
    handles: Vec<JoinHandle<()>>,
}

impl PeerWriters {
    fn new(me: Endpoint, connect_timeout: Duration, shutdown: Arc<AtomicBool>) -> PeerWriters {
        PeerWriters {
            me,
            connect_timeout,
            shutdown,
            peers: std::collections::HashMap::new(),
            handles: Vec::new(),
        }
    }

    /// The peer's queue, spawning its writer thread on first use. Each
    /// writer owns a single-entry [`StreamPool`], so connect/write
    /// blocking stays on that thread.
    fn queue_for(&mut self, to: Endpoint) -> &Sender<Frame> {
        if !self.peers.contains_key(&to) {
            let (tx, rx) = bounded::<Frame>(PEER_QUEUE_DEPTH);
            let me = self.me;
            let connect_timeout = self.connect_timeout;
            let stop = Arc::clone(&self.shutdown);
            self.handles.push(std::thread::spawn(move || {
                let mut pool = StreamPool::new(me, connect_timeout);
                while !stop.load(Ordering::Relaxed) {
                    match rx.recv_timeout(Duration::from_millis(100)) {
                        Ok(frame) => pool.send(&to, &frame),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
            }));
            self.peers.insert(to, tx);
        }
        self.peers.get(&to).expect("just inserted")
    }

    /// Best-effort send: queued to the peer's writer, dropped when its
    /// queue is full.
    fn send(&mut self, to: Endpoint, frame: Frame) {
        let _ = self.queue_for(to).try_send(frame);
    }

    /// Drops every queue (each writer drains frames it already accepted,
    /// then sees the disconnect) and joins the writer threads.
    fn join_all(&mut self) {
        self.peers.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A running Rapid node bound to a real TCP socket.
pub struct Runtime {
    me: Member,
    events_rx: Receiver<AppEvent>,
    view: Arc<Mutex<Arc<Configuration>>>,
    status: Arc<Mutex<NodeStatus>>,
    shutdown: Arc<AtomicBool>,
    control_tx: Sender<Control>,
    quota_dropped: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

enum Control {
    Leave,
    SendApp(Endpoint, Vec<u8>),
}

impl Runtime {
    /// Starts a seed node bootstrapping a fresh cluster on `listen`.
    pub fn start_seed(listen: Endpoint, settings: Settings) -> std::io::Result<Runtime> {
        Self::start(listen, settings, Vec::new(), rapid_core::Metadata::new())
    }

    /// Starts a node that joins an existing cluster through `seeds`.
    pub fn start_joiner(
        listen: Endpoint,
        seeds: Vec<Endpoint>,
        settings: Settings,
        metadata: rapid_core::Metadata,
    ) -> std::io::Result<Runtime> {
        Self::start(listen, settings, seeds, metadata)
    }

    fn start(
        listen: Endpoint,
        settings: Settings,
        seeds: Vec<Endpoint>,
        metadata: rapid_core::Metadata,
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

        let (inbound_tx, inbound_rx) = bounded::<(Endpoint, Frame, u64)>(64 * 1024);
        let (events_tx, events_rx) = bounded::<AppEvent>(16 * 1024);
        let (control_tx, control_rx) = bounded::<Control>(4 * 1024);
        let shutdown = Arc::new(AtomicBool::new(false));
        let view = Arc::new(Mutex::new(node.configuration()));
        let status = Arc::new(Mutex::new(node.status()));

        let mut threads = Vec::new();

        // Listener thread: accept connections, spawn frame readers.
        {
            let inbound_tx = inbound_tx.clone();
            let shutdown = Arc::clone(&shutdown);
            listener.set_nonblocking(true)?;
            threads.push(std::thread::spawn(move || {
                let mut readers: Vec<JoinHandle<()>> = Vec::new();
                // Idle-poll backoff: start fast so a fresh connection is
                // picked up promptly, back off exponentially while the
                // socket stays quiet so an idle node does not spin at a
                // fixed cadence, and reset on every accepted connection.
                let mut backoff = ACCEPT_BACKOFF_MIN;
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            backoff = ACCEPT_BACKOFF_MIN;
                            let tx = inbound_tx.clone();
                            let stop = Arc::clone(&shutdown);
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                            readers.push(std::thread::spawn(move || {
                                let mut stream = stream;
                                while !stop.load(Ordering::Relaxed) {
                                    match read_frame(&mut stream) {
                                        Ok((from, msg, size)) => {
                                            if tx.send((from, msg, size)).is_err() {
                                                break;
                                            }
                                        }
                                        Err(e)
                                            if e.kind() == std::io::ErrorKind::WouldBlock
                                                || e.kind() == std::io::ErrorKind::TimedOut =>
                                        {
                                            continue
                                        }
                                        Err(_) => break,
                                    }
                                }
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                        }
                        Err(_) => break,
                    }
                }
                for r in readers {
                    let _ = r.join();
                }
            }));
        }

        // Driver thread: ticks + message dispatch.
        let quota_dropped = Arc::new(AtomicU64::new(0));
        {
            let shutdown = Arc::clone(&shutdown);
            let view = Arc::clone(&view);
            let status = Arc::clone(&status);
            let tick = Duration::from_millis(settings.tick_interval_ms);
            let me_ep2 = me_ep;
            let quota_dropped = Arc::clone(&quota_dropped);
            let quota = PeerQuota {
                frames_per_interval: settings.peer_quota_frames,
                bytes_per_interval: settings.peer_quota_bytes,
                interval_ms: settings.peer_quota_interval_ms,
            };
            threads.push(std::thread::spawn(move || {
                let mut node = node;
                let mut writers =
                    PeerWriters::new(me_ep2, Duration::from_millis(250), Arc::clone(&shutdown));
                let mut quotas = QuotaTracker::new(quota);
                let start = Instant::now();
                let mut next_tick = Instant::now();
                let mut actions = Vec::new();
                loop {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    // Control commands.
                    while let Ok(cmd) = control_rx.try_recv() {
                        match cmd {
                            Control::Leave => node.leave(&mut actions),
                            Control::SendApp(to, payload) => writers.send(to, Frame::App(payload)),
                        }
                    }
                    // Inbound frames until the next tick is due.
                    let budget = next_tick.saturating_duration_since(Instant::now());
                    match inbound_rx.recv_timeout(budget) {
                        Ok((from, inbound, size)) => {
                            let now_ms = start.elapsed().as_millis() as u64;
                            // Per-peer rate limit: a peer over its frame
                            // or byte budget for this interval has the
                            // frame dropped before any decode dispatch.
                            if quotas.admit(from, size as usize, now_ms).is_err() {
                                quota_dropped.store(quotas.dropped(), Ordering::Relaxed);
                            } else {
                                match inbound {
                                    Frame::Proto(msg) => {
                                        node.handle(Event::Receive { from, msg }, &mut actions);
                                    }
                                    Frame::App(payload) => {
                                        let _ = events_tx.try_send(AppEvent::App(from, payload));
                                    }
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            let now_ms = start.elapsed().as_millis() as u64;
                            node.handle(Event::Tick { now_ms }, &mut actions);
                            next_tick += tick;
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                    // Dispatch actions.
                    for action in actions.drain(..) {
                        match action {
                            Action::Send { to, msg } => writers.send(to, Frame::Proto(msg)),
                            Action::View(vc) => {
                                *view.lock() = Arc::clone(&vc.configuration);
                                *status.lock() = node.status();
                                let _ = events_tx.try_send(AppEvent::View(vc));
                            }
                            Action::Joined { config } => {
                                *view.lock() = Arc::clone(&config);
                                *status.lock() = node.status();
                                let _ = events_tx.try_send(AppEvent::Joined(config));
                            }
                            Action::Kicked => {
                                *status.lock() = NodeStatus::Kicked;
                                let _ = events_tx.try_send(AppEvent::Kicked);
                            }
                        }
                    }
                    *status.lock() = node.status();
                }
                writers.join_all();
            }));
        }

        Ok(Runtime {
            me,
            events_rx,
            view,
            status,
            shutdown,
            control_tx,
            quota_dropped,
            threads,
        })
    }

    /// Inbound frames dropped by the per-peer decode quota so far
    /// (`Settings::peer_quota_frames` / `peer_quota_bytes`; 0 when
    /// quotas are disabled).
    pub fn quota_dropped(&self) -> u64 {
        self.quota_dropped.load(Ordering::Relaxed)
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
    /// effort, via the peer's writer thread. The peer surfaces it as
    /// [`AppEvent::App`].
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        let _ = self.control_tx.try_send(Control::SendApp(to, payload));
    }

    /// A cloneable handle for queueing app payloads from any thread —
    /// the hook sharded data planes use so every shard worker can emit
    /// frames without owning the runtime.
    pub fn app_sender(&self) -> AppSender {
        AppSender(self.control_tx.clone())
    }

    /// Starts a loopback introspection listener and returns its bound
    /// address.
    ///
    /// Every accepted connection receives exactly one line of JSON —
    /// `{"node":"host:port","status":"Active","view_id":<u64>,
    /// "members":<n>, ...}` — and is then closed, so `nc 127.0.0.1 PORT`
    /// or a scraper can poll liveness without speaking the membership
    /// protocol. The `extra` hook appends data-plane fields (the caller
    /// writes `,"key":value` pairs into the line) so hosts like
    /// `rapid-route` can expose KV stats and op-latency quantiles
    /// through the same socket.
    ///
    /// The listener binds `127.0.0.1:0` (loopback only, ephemeral port),
    /// runs on its own thread with the same idle-poll backoff as the
    /// main accept loop, and stops with the runtime's shutdown flag.
    pub fn serve_introspection<F>(&mut self, extra: F) -> std::io::Result<SocketAddr>
    where
        F: Fn(&mut String) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let me = self.me.addr;
        let view = Arc::clone(&self.view);
        let status = Arc::clone(&self.status);
        let shutdown = Arc::clone(&self.shutdown);
        self.threads.push(std::thread::spawn(move || {
            let mut backoff = ACCEPT_BACKOFF_MIN;
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        let (view_id, members) = {
                            let v = view.lock();
                            (v.id().0, v.len())
                        };
                        let st = *status.lock();
                        let mut line = format!(
                            "{{\"node\":\"{me}\",\"status\":\"{st:?}\",\"view_id\":{view_id},\"members\":{members}"
                        );
                        extra(&mut line);
                        line.push_str("}\n");
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    }
                    Err(_) => break,
                }
            }
        }));
        Ok(bound)
    }

    /// Announces a voluntary departure, then shuts the runtime down.
    pub fn leave(self) {
        let _ = self.control_tx.send(Control::Leave);
        std::thread::sleep(Duration::from_millis(200));
        self.shutdown_now();
    }

    /// Stops all threads without announcing departure (a crash, as far as
    /// the cluster is concerned).
    pub fn shutdown_now(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A cloneable handle for [`Runtime::send_app`]-style sends from threads
/// that do not own the [`Runtime`] (e.g. KV shard workers). Delivery is
/// best effort: the payload is dropped if the control queue is full.
#[derive(Clone)]
pub struct AppSender(Sender<Control>);

impl AppSender {
    /// Queues an app payload for best-effort delivery to `to`.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        let _ = self.0.try_send(Control::SendApp(to, payload));
    }
}

/// A standalone application-frame endpoint for processes *outside* the
/// membership — the smart-client plane's transport. It speaks only the
/// opaque app-frame subset of the wire format: inbound protocol frames
/// are ignored, outbound sends go through its own lazily connected
/// per-peer [`StreamPool`] (one pooled TCP stream per leader), and every
/// received app payload is surfaced as `(sender, payload)`.
///
/// Unlike [`Runtime`], an `AppPeer` never joins, probes, or votes — it
/// holds no `Node` at all. A `rapid-route` smart client built on it
/// learns the membership purely from view pushes over app frames.
pub struct AppPeer {
    me: Endpoint,
    events_rx: Receiver<(Endpoint, Vec<u8>)>,
    control_tx: Sender<(Endpoint, Vec<u8>)>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl AppPeer {
    /// Binds `listen` (port 0 for ephemeral) and starts the accept and
    /// writer threads.
    pub fn start(listen: Endpoint) -> std::io::Result<AppPeer> {
        let listener = TcpListener::bind(format!("{listen}"))?;
        let actual: SocketAddr = listener.local_addr()?;
        let me = Endpoint::new(listen.host(), actual.port());
        let (events_tx, events_rx) = bounded::<(Endpoint, Vec<u8>)>(64 * 1024);
        let (control_tx, control_rx) = bounded::<(Endpoint, Vec<u8>)>(64 * 1024);
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        // Accept loop: same reader-thread-per-connection pattern as the
        // runtime's listener, app frames only.
        {
            let shutdown = Arc::clone(&shutdown);
            listener.set_nonblocking(true)?;
            threads.push(std::thread::spawn(move || {
                let mut readers: Vec<JoinHandle<()>> = Vec::new();
                let mut backoff = ACCEPT_BACKOFF_MIN;
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            backoff = ACCEPT_BACKOFF_MIN;
                            let tx = events_tx.clone();
                            let stop = Arc::clone(&shutdown);
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                            readers.push(std::thread::spawn(move || {
                                let mut stream = stream;
                                while !stop.load(Ordering::Relaxed) {
                                    match read_frame(&mut stream) {
                                        Ok((from, Frame::App(payload), _)) => {
                                            if tx.send((from, payload)).is_err() {
                                                break;
                                            }
                                        }
                                        // Membership traffic aimed at a
                                        // client is a peer bug; drop it.
                                        Ok((_, Frame::Proto(_), _)) => continue,
                                        Err(e)
                                            if e.kind() == std::io::ErrorKind::WouldBlock
                                                || e.kind() == std::io::ErrorKind::TimedOut =>
                                        {
                                            continue
                                        }
                                        Err(_) => break,
                                    }
                                }
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                        }
                        Err(_) => break,
                    }
                }
                for r in readers {
                    let _ = r.join();
                }
            }));
        }

        // Dispatcher thread: fans queued sends out to one writer thread
        // per peer, so one stalled leader connection cannot delay
        // frames bound for the others.
        {
            let shutdown = Arc::clone(&shutdown);
            let me2 = me;
            threads.push(std::thread::spawn(move || {
                let mut writers =
                    PeerWriters::new(me2, Duration::from_millis(250), Arc::clone(&shutdown));
                loop {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    match control_rx.recv_timeout(Duration::from_millis(100)) {
                        Ok((to, payload)) => writers.send(to, Frame::App(payload)),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
                writers.join_all();
            }));
        }

        Ok(AppPeer {
            me,
            events_rx,
            control_tx,
            shutdown,
            threads,
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
        let _ = self.control_tx.try_send((to, payload));
    }

    /// Stops all threads.
    pub fn shutdown_now(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
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
        // when the dispatcher interleaves them with frames for other
        // peers (and for a dead endpoint, whose connect attempts now
        // block only that peer's own writer thread).
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
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
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
}
