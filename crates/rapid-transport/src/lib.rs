//! A real-network host for `rapid-core` nodes.
//!
//! The paper's implementation runs over gRPC/Netty; this crate provides the
//! equivalent plumbing with `std::net` TCP and threads, with no async
//! runtime dependency. It is a socket layer ([`AppPeer`]): one accept
//! loop spawning a reader thread per inbound connection, and one lane per
//! peer behind one cloneable handle ([`AppSender`]), so a slow or dead
//! peer backs up only its own lane. A reader cuts frames out of a 64 KiB
//! buffer and hands each straight to its consumer. A sender writes its
//! frame itself, with one nonblocking `writev`, when the peer's lane is
//! idle (connected, nothing queued, its writer not draining); otherwise
//! the frame joins the lane's bounded queue, and the peer's writer thread
//! connects and drains it, many frames to a `writev`. A [`Runtime`] adds
//! the node loop, which drives the sans-io [`Node`]: readers give it
//! membership frames, and app payloads go to the sink chosen at start (a
//! [`Host`] or `events()`). Only the node loop wakes on a timer; stopping
//! is channel disconnect plus `TcpStream::shutdown`, and queued frames
//! are discarded rather than drained to a stalled peer.
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
//! Neither a connect nor a write ever blocks a sender's thread: connects
//! happen on the writer, and an inline write that the socket takes only
//! part of leaves the rest at the head of the lane for the writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::io::{IoSlice, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
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

/// Depth of each per-peer lane (frames queued plus the frames its writer
/// holds) — the backpressure bound. At the default tick cadence this is
/// several seconds of protocol traffic; overflowing it means the peer is
/// effectively unreachable, so further frames are dropped exactly as a
/// write timeout would have dropped them.
const PEER_QUEUE_DEPTH: usize = 4 * 1024;

/// Slots in the node loop's input channel, all allocated up front. It
/// carries membership frames only, so one peer queue's worth is ample.
const NODE_QUEUE_DEPTH: usize = PEER_QUEUE_DEPTH;

/// How long a writer's connect, and one of its writes that makes no
/// progress, may take before the frames it carries are dropped.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// One frame's body: a membership-protocol message or an opaque
/// application payload. Queued per peer on the way out, decoded on the
/// way in.
enum Frame {
    Proto(Message),
    App(Vec<u8>),
}

/// The part of a frame written from the frame's own buffer: an app
/// payload. A membership message is encoded whole into its head.
fn payload(frame: &Frame) -> &[u8] {
    match frame {
        Frame::Proto(_) => &[],
        Frame::App(payload) => payload,
    }
}

/// Appends `[u32 len][sender endpoint][body]` to `buf`, less the
/// [`payload`]: that is written from its own buffer, so `buf` never grows
/// to the largest payload.
fn encode_head(from: &Endpoint, frame: &Frame, buf: &mut Vec<u8>) {
    let start = buf.len();
    buf.extend_from_slice(&[0u8; 4]); // Length placeholder, patched below.
    codec::put_endpoint(buf, from);
    match frame {
        Frame::Proto(msg) => wire::encode(msg, buf),
        Frame::App(_) => buf.push(APP_FRAME_TAG),
    }
    let total = (buf.len() - start - 4 + payload(frame).len()) as u32;
    buf[start..start + 4].copy_from_slice(&total.to_le_bytes());
}

/// Frames per `writev` batch: two slices each stay within Linux's
/// `IOV_MAX` of 1024.
const FRAMES_PER_WRITE: usize = 512;

/// Writes `frames` in order on a blocking stream, in as few `writev`
/// calls as fit, less the first `sent` bytes (already on the wire). The
/// heads of a batch are encoded back to back into `heads`.
fn write_frames(
    mut stream: &TcpStream,
    from: &Endpoint,
    frames: &[Frame],
    mut sent: usize,
    heads: &mut Vec<u8>,
) -> std::io::Result<()> {
    for batch in frames.chunks(FRAMES_PER_WRITE) {
        heads.clear();
        for frame in batch {
            encode_head(from, frame, heads);
        }
        let mut slices = Vec::with_capacity(2 * batch.len());
        // Walk the heads by their length prefixes; a run of heads with no
        // payload between them goes out as one slice.
        let (mut run, mut at) = (0, 0);
        for frame in batch {
            let total = u32::from_le_bytes(heads[at..at + 4].try_into().expect("4 bytes")) as usize;
            let tail = payload(frame);
            at += 4 + total - tail.len();
            if !tail.is_empty() {
                slices.push(IoSlice::new(&heads[run..at]));
                slices.push(IoSlice::new(tail));
                run = at;
            }
        }
        if run < at {
            slices.push(IoSlice::new(&heads[run..at]));
        }
        let mut left = &mut slices[..];
        IoSlice::advance_slices(&mut left, std::mem::take(&mut sent));
        while !left.is_empty() {
            match stream.write_vectored(left) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// One `writev` of one frame on a nonblocking stream: `None` when it took
/// the whole frame, else how many bytes it took (none on `WouldBlock`).
fn write_once(
    mut stream: &TcpStream,
    from: &Endpoint,
    frame: &Frame,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<usize>> {
    buf.clear();
    encode_head(from, frame, buf);
    let tail = payload(frame);
    loop {
        match stream.write_vectored(&[IoSlice::new(buf), IoSlice::new(tail)]) {
            Ok(n) if n == buf.len() + tail.len() => return Ok(None),
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(Some(0)),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
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

/// Bytes a reader asks the socket for at once.
const READ_BUF: usize = 64 * 1024;

/// A connection's read side. Frames are cut out of one buffer, so a burst
/// of small frames costs one `read`, and each frame is copied once, into
/// an allocation of exactly its length.
struct FrameReader<R> {
    stream: R,
    buf: Box<[u8]>,
    /// The bytes read but not yet parsed: `buf[start..end]`.
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    fn new(stream: R) -> FrameReader<R> {
        FrameReader {
            stream,
            buf: vec![0; READ_BUF].into_boxed_slice(),
            start: 0,
            end: 0,
        }
    }

    /// Moves the unparsed bytes to the front and reads more behind them.
    fn fill(&mut self) -> std::io::Result<()> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads one frame, returning the sender, the decoded body, and the
    /// frame's wire size in bytes (header included — the unit the
    /// per-peer byte quota meters).
    fn read_frame(&mut self) -> std::io::Result<(Endpoint, Frame, u64)> {
        while self.end - self.start < 4 {
            self.fill()?;
        }
        let prefix = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame too large",
            ));
        }
        self.start += 4;
        let mut frame = Vec::with_capacity(len as usize);
        while frame.len() < len as usize {
            if self.start == self.end {
                self.fill()?;
            }
            let n = (len as usize - frame.len()).min(self.end - self.start);
            frame.extend_from_slice(&self.buf[self.start..self.start + n]);
            self.start += n;
        }
        let (from, decoded) = decode_frame(frame, DecodeLimits::default())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok((from, decoded, 4 + len as u64))
    }
}

/// Frames dropped: by the decode quota, on a full lane, on a
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

/// The per-peer lanes behind one cloneable handle, which every sender of
/// a process sends through. A send never blocks on a peer. When the
/// peer's lane is idle (connected, nothing queued, its writer thread not
/// draining) the frame is written on the caller's thread with one
/// nonblocking `writev`; otherwise it joins the lane's bounded queue,
/// which the peer's writer thread connects for and drains. A full queue
/// drops the frame and counts it — the same best-effort contract as a
/// failed write.
#[derive(Clone)]
pub struct AppSender(Arc<Writers>);

struct Writers {
    me: Endpoint,
    drops: Arc<Drops>,
    /// `None` once the process stopped: later frames are discarded. Held
    /// only to look a lane up, never across a write.
    peers: Mutex<Option<HashMap<Endpoint, Writer>>>,
}

/// One peer's lane and the writer thread that serves it.
struct Writer {
    lane: Arc<Mutex<Lane>>,
    thread: JoinHandle<()>,
}

/// One peer's outbound side. While `busy` is false the lane is idle: the
/// queue is empty, the writer holds no frame, and the stream (if any) is
/// nonblocking, so a sender may write to it. While `busy` is true the
/// writer owns the lane, and senders only queue. A frame is written
/// inline only under this lock and only when the lane is idle, and the
/// writer takes its backlog under the same lock: frames leave in the
/// order they were sent.
#[derive(Default)]
struct Lane {
    stream: Option<Arc<TcpStream>>,
    queue: VecDeque<Frame>,
    /// Bytes of `queue`'s first frame already on the wire: an inline
    /// write that the socket took only part of.
    sent: usize,
    /// Frames the writer took and has not finished writing; they count
    /// against `PEER_QUEUE_DEPTH` with the queue.
    held: usize,
    busy: bool,
    stopped: bool,
    writer: Option<Thread>,
    /// Encoding scratch for inline writes.
    buf: Vec<u8>,
}

impl Lane {
    /// Hands the lane to its writer.
    fn hand_over(&mut self) {
        self.busy = true;
        if let Some(writer) = &self.writer {
            writer.unpark();
        }
    }
}

impl AppSender {
    /// Sends an app payload, best effort, to `to`.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.send(to, Frame::App(payload));
    }

    fn send(&self, to: Endpoint, frame: Frame) {
        let lane = {
            let mut peers = self.0.peers.lock();
            let Some(peers) = peers.as_mut() else { return };
            let writer = peers.entry(to).or_insert_with(|| {
                let lane = Arc::new(Mutex::new(Lane::default()));
                let (me, served) = (self.0.me, Arc::clone(&lane));
                let thread = std::thread::spawn(move || write_loop(&served, me, to));
                lane.lock().writer = Some(thread.thread().clone());
                Writer { lane, thread }
            });
            Arc::clone(&writer.lane)
        };
        let mut lane = lane.lock();
        let lane = &mut *lane;
        if lane.stopped {
            return;
        }
        if let (false, Some(stream)) = (lane.busy, &lane.stream) {
            match write_once(stream, &self.0.me, &frame, &mut lane.buf) {
                Ok(None) => {}
                // The socket is full: the rest waits for the writer.
                Ok(Some(sent)) => {
                    lane.sent = sent;
                    lane.queue.push_back(frame);
                    lane.hand_over();
                }
                // The frame goes with the stream; the next one reconnects.
                Err(_) => lane.stream = None,
            }
            return;
        }
        if lane.queue.len() + lane.held >= PEER_QUEUE_DEPTH {
            self.0.drops.send.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lane.queue.push_back(frame);
        if !lane.busy {
            lane.hand_over();
        }
    }

    /// Stops every writer without draining its queue, and joins them.
    fn close(&self) {
        let peers = self.0.peers.lock().take().unwrap_or_default();
        for writer in peers.values() {
            let mut lane = writer.lane.lock();
            lane.stopped = true;
            if let Some(stream) = &lane.stream {
                let _ = stream.shutdown(Shutdown::Both);
            }
            if let Some(thread) = &lane.writer {
                thread.unpark();
            }
        }
        for writer in peers.into_values() {
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

/// One peer's writer. Parked while its lane is idle; once handed the lane
/// it connects if it must, then writes the whole backlog on a blocking
/// stream, and when nothing is left it makes the stream nonblocking again
/// and marks the lane idle. A failed connect or write drops the frames
/// it was writing (and the stream); the next frame reconnects. Returns
/// once the lane is stopped.
fn write_loop(lane: &Mutex<Lane>, me: Endpoint, to: Endpoint) {
    let mut backlog = VecDeque::new();
    let mut heads = Vec::new();
    // Whether the lane's stream is in blocking mode.
    let mut blocking = false;
    loop {
        let (stream, sent) = {
            let mut guard = lane.lock();
            guard.held = 0;
            while guard.stopped || guard.queue.is_empty() {
                if guard.stopped {
                    return;
                }
                if guard.busy {
                    if let Some(stream) = guard.stream.as_ref().filter(|_| blocking) {
                        if stream.set_nonblocking(true).is_err() {
                            guard.stream = None;
                        }
                        blocking = false;
                    }
                    guard.busy = false;
                }
                drop(guard);
                std::thread::park();
                guard = lane.lock();
            }
            std::mem::swap(&mut guard.queue, &mut backlog);
            guard.held = backlog.len();
            (guard.stream.clone(), std::mem::take(&mut guard.sent))
        };
        let stream = match stream {
            Some(stream) => stream,
            None => match connect(&to) {
                Some(stream) => {
                    let stream = Arc::new(stream);
                    let mut guard = lane.lock();
                    if guard.stopped {
                        return;
                    }
                    guard.stream = Some(Arc::clone(&stream));
                    blocking = true;
                    stream
                }
                None => {
                    backlog.clear();
                    continue;
                }
            },
        };
        blocking = blocking || stream.set_nonblocking(false).is_ok();
        let written = blocking
            && write_frames(&stream, &me, backlog.make_contiguous(), sent, &mut heads).is_ok();
        backlog.clear();
        if !written {
            let mut guard = lane.lock();
            if guard.stopped {
                return;
            }
            guard.stream = None;
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

/// What a process runs beside its membership node, in place of the
/// `events()` channel ([`Runtime::start_hosted`]).
pub struct Host {
    /// Takes each app payload that passed the quota, on the reader thread
    /// that read it; blocking here pushes back on that one connection.
    pub app: Box<dyn Fn(Endpoint, Vec<u8>) + Send + Sync>,
    /// Runs on the node loop for each view change, join and kick, before
    /// the loop takes its next input.
    pub membership: MembershipHook,
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
        // Checked before anything is bound: `Node` panics on invalid
        // settings, and a caller's bad configuration is an error here.
        settings
            .validate()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(format!("{listen}"))?;
        let actual: SocketAddr = listener.local_addr()?;
        let me_ep = Endpoint::new(listen.host(), actual.port());
        let me = Member::with_metadata(fresh_id(&me_ep), me_ep, metadata);

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
            let (out, membership) = (peer.app_sender(), host.membership);
            std::thread::spawn(move || run_node(node, node_rx, tick, out, shared, membership))
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

    /// Outbound frames dropped so far because their peer's lane queue
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

    /// The latest installed configuration, published once the [`Host`]
    /// (or [`Self::events`]) has been handed the change.
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
    /// effort, through the peer's lane. The peer surfaces it as
    /// [`AppEvent::App`] (or hands it to its [`Host`]).
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.peer.send_app(to, payload);
    }

    /// A cloneable handle for sending app payloads from threads that do
    /// not own the runtime (e.g. a KV host loop).
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

/// A fresh logical id for a node starting on `addr`, seeded from OS
/// entropy: `RandomState` keys are drawn from the OS and differ on every
/// call, so runtimes started together in one process never share an id.
/// (A seed of clock, process id and port can repeat: the port enters the
/// endpoint digest by XOR, and two ports that differ only where the
/// clock's nanoseconds differ gave two nodes one id, so the second could
/// never join.)
fn fresh_id(addr: &Endpoint) -> NodeId {
    let mut entropy = RandomState::new().build_hasher();
    entropy.write_u64(addr.digest());
    NodeId::random(&mut Xoshiro256::seed_from_u64(entropy.finish()))
}

/// The node loop: drives the [`Node`] from its input channel and its
/// tick, sends what it emits, runs the host's membership hook and then
/// publishes view and status. Returns once every input sender is gone.
fn run_node(
    mut node: Node,
    inputs: Receiver<NodeIn>,
    tick: Duration,
    out: AppSender,
    (view, status): (Arc<Mutex<Arc<Configuration>>>, Arc<Mutex<NodeStatus>>),
    mut membership: MembershipHook,
) {
    let start = Instant::now();
    let mut next_tick = start;
    let mut actions = Vec::new();
    loop {
        match inputs.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
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
                Action::View(vc) => AppEvent::View(vc),
                Action::Joined { config } => AppEvent::Joined(config),
                Action::Kicked => AppEvent::Kicked,
            };
            let installed = match &event {
                AppEvent::View(ViewChange { configuration, .. })
                | AppEvent::Joined(configuration) => Some(Arc::clone(configuration)),
                _ => None,
            };
            // Published after the hook: whoever reads the new view or
            // status finds the event already handed to the host.
            membership(&node, event);
            if let Some(config) = installed {
                *view.lock() = config;
            }
        }
        *status.lock() = node.status();
    }
}

/// A standalone application-frame endpoint for processes *outside* the
/// membership — the smart-client plane's transport, and the socket layer
/// under every [`Runtime`]. It speaks only the opaque app-frame subset of
/// the wire format (inbound protocol frames are ignored), sends through
/// the per-peer lanes, and surfaces every received app payload
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
        let acceptor = Acceptor::spawn(listener, move |stream| {
            let Ok(handle) = stream.try_clone() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let deliver = Arc::clone(&deliver);
            // Blocks with no timeout: a stop shuts the socket down.
            let reader = std::thread::spawn(move || {
                let mut frames = FrameReader::new(stream);
                while let Ok((from, frame, size)) = frames.read_frame() {
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

    /// Sends an app payload, best effort, over the pooled per-peer
    /// stream.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.out.send_app(to, payload);
    }

    /// A cloneable handle for sending from other threads.
    pub fn app_sender(&self) -> AppSender {
        self.out.clone()
    }

    /// Outbound frames dropped so far because their peer's lane queue
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
        encode_head(from, frame, buf);
        buf.extend_from_slice(payload(frame));
    }

    /// Writes one frame on a blocking stream.
    fn write_frame(stream: &TcpStream, from: &Endpoint, frame: Frame) -> std::io::Result<()> {
        write_frames(stream, from, &[frame], 0, &mut Vec::new())
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
    fn invalid_settings_are_an_error_not_a_panic() {
        let bad = Settings::with_watermarks(10, 11, 3);
        let err = match Runtime::start_seed(Endpoint::new("127.0.0.1", 0), bad) {
            Err(e) => e,
            Ok(_) => panic!("H > K must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("watermarks"), "{err}");
    }

    #[test]
    fn ids_drawn_for_one_address_never_repeat() {
        let addr = Endpoint::new("127.0.0.1", 40_000);
        let ids: std::collections::HashSet<NodeId> = (0..1_000).map(|_| fresh_id(&addr)).collect();
        assert_eq!(ids.len(), 1_000);
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
            let stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &stream,
                &Endpoint::new("me", 42),
                Frame::Proto(Message::Probe { seq: 7 }),
            )
            .unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = FrameReader::new(conn).read_frame().unwrap();
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
            let stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &stream,
                &Endpoint::new("me", 44),
                Frame::Proto(Message::Batch {
                    msgs: vec![
                        Message::Probe { seq: 1 },
                        Message::ProbeAck { seq: 2, config_seq: 3 },
                        Message::ConfigPull { have_seq: 4 },
                    ],
                }),
            )
            .unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = FrameReader::new(conn).read_frame().unwrap();
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
            let stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &stream,
                &Endpoint::new("me", 43),
                Frame::App(b"kv: hello".to_vec()),
            )
            .unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = FrameReader::new(conn).read_frame().unwrap();
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

        /// A frame as `FrameReader` hands it to `decode_frame`: what
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

    /// `peer`'s lane to `to` (created by the first send to `to`).
    fn lane_to(peer: &AppPeer, to: Endpoint) -> Arc<Mutex<Lane>> {
        let peers = peer.out.0.peers.lock();
        Arc::clone(&peers.as_ref().unwrap()[&to].lane)
    }

    /// Idle: connected, nothing queued, the writer not draining — the
    /// state in which the next send is written inline.
    fn idle(lane: &Mutex<Lane>) -> bool {
        let lane = lane.lock();
        !lane.busy && lane.queue.is_empty() && lane.stream.is_some()
    }

    /// A payload of `len` bytes that starts with its sequence number.
    fn numbered(i: u32, len: usize) -> Vec<u8> {
        let mut payload = vec![0xAB; len];
        payload[..4].copy_from_slice(&i.to_le_bytes());
        payload
    }

    /// The sequence number of the next app frame read from `frames`.
    fn next_number(frames: &mut FrameReader<TcpStream>) -> u32 {
        match frames.read_frame().unwrap() {
            (_, Frame::App(payload), _) => u32::from_le_bytes(payload[..4].try_into().unwrap()),
            (_, Frame::Proto(_), _) => panic!("expected an app frame"),
        }
    }

    #[test]
    fn a_lane_keeps_fifo_from_inline_through_its_queue_and_back() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let to = Endpoint::new("127.0.0.1", listener.local_addr().unwrap().port());
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        // The first frame connects, on the writer.
        peer.send_app(to, numbered(0, 64));
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frames = FrameReader::new(conn);
        assert_eq!(next_number(&mut frames), 0);
        let lane = lane_to(&peer, to);
        assert!(wait_for(|| idle(&lane), Duration::from_secs(5)));
        // An idle lane: the frame is written before `send_app` returns.
        peer.send_app(to, numbered(1, 64));
        assert!(idle(&lane), "a send on an idle lane is written inline");
        assert_eq!(next_number(&mut frames), 1);
        // The peer stops reading: the socket fills, an inline write comes
        // up short or would block, and the rest queues for the writer.
        // One queue's worth never overflows it.
        let burst = PEER_QUEUE_DEPTH as u32;
        let mut queued = false;
        for i in 2..2 + burst {
            peer.send_app(to, numbered(i, 2048));
            queued |= lane.lock().busy;
        }
        assert!(queued, "the full socket must hand the lane to its writer");
        // The peer resumes: every frame arrives once, in order.
        for i in 2..2 + burst {
            assert_eq!(next_number(&mut frames), i);
        }
        assert_eq!(peer.send_dropped(), 0);
        // Drained, the lane is idle again and writes inline again.
        assert!(wait_for(|| idle(&lane), Duration::from_secs(5)));
        for i in 2 + burst..2 + burst + 8 {
            peer.send_app(to, numbered(i, 64));
            assert!(idle(&lane), "a drained lane writes inline again");
            assert_eq!(next_number(&mut frames), i);
        }
        peer.shutdown_now();
    }

    #[test]
    fn sends_to_a_stalled_peer_return_at_once_and_count_what_overflows() {
        let (listener, stalled) = stalled_peer();
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let sends = 3 * PEER_QUEUE_DEPTH as u32;
        let mut slowest = Duration::ZERO;
        for i in 0..sends {
            let payload = numbered(i, 1024);
            let sent = Instant::now();
            peer.send_app(stalled, payload);
            slowest = slowest.max(sent.elapsed());
        }
        assert!(
            slowest < Duration::from_millis(10),
            "a send took {slowest:?}"
        );
        let dropped = peer.send_dropped();
        assert!(
            dropped > 0,
            "frames beyond the queue's depth must be dropped"
        );
        // The peer reads at last: each frame that was not counted as
        // dropped arrives, in order.
        let (conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut frames = FrameReader::new(conn);
        let delivered = sends - dropped as u32;
        let mut last = None;
        for _ in 0..delivered {
            let i = next_number(&mut frames);
            assert!(last < Some(i), "frame {i} after {last:?}");
            last = Some(i);
        }
        peer.shutdown_now();
    }

    #[test]
    fn a_peer_restarted_on_its_port_is_reconnected() {
        let sender = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let first = AppPeer::start(Endpoint::new("127.0.0.1", 0)).unwrap();
        let to = *first.addr();
        let recv = |p: &AppPeer| p.events().recv_timeout(Duration::from_secs(5));
        sender.send_app(to, b"connect".to_vec());
        assert_eq!(recv(&first), Ok((*sender.addr(), b"connect".to_vec())));
        let lane = lane_to(&sender, to);
        assert!(wait_for(|| idle(&lane), Duration::from_secs(5)));
        sender.send_app(to, b"inline".to_vec());
        assert_eq!(recv(&first), Ok((*sender.addr(), b"inline".to_vec())));
        // The peer restarts on the same port. The old stream is dead: an
        // inline write on it fails (the kernel may still take the first
        // one), and a later frame reconnects through the writer.
        first.shutdown_now();
        let second = AppPeer::start(to).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut arrived = None;
        for i in 0u8.. {
            assert!(
                Instant::now() < deadline,
                "no frame reached the restarted peer"
            );
            sender.send_app(to, vec![i]);
            if let Ok((_, payload)) = second.events().recv_timeout(Duration::from_millis(50)) {
                arrived = Some(payload[0]);
                break;
            }
        }
        let arrived = arrived.unwrap();
        // Later frames follow on the new stream, in order.
        for i in arrived + 1..arrived + 4 {
            sender.send_app(to, vec![i]);
        }
        for i in arrived + 1..arrived + 4 {
            let (_, payload) = recv(&second).unwrap();
            assert_eq!(payload, vec![i]);
        }
        sender.shutdown_now();
        second.shutdown_now();
    }

    /// Hands out `data` at most `step` bytes per `read`.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_split_across_and_packed_within_one_buffered_read_decode() {
        let from = Endpoint::new("127.0.0.1", 7);
        let head = {
            let mut buf = Vec::new();
            encode_frame(&from, &Frame::App(Vec::new()), &mut buf);
            buf.len()
        };
        // A frame that ends two bytes short of the read buffer, so that
        // the next length prefix straddles its end; tiny frames packed
        // many to a read; one frame larger than the buffer.
        let sizes: Vec<usize> = [READ_BUF - 2 - head]
            .into_iter()
            .chain((0..300).map(|i| 4 + i % 9))
            .chain([READ_BUF + READ_BUF / 2])
            .chain((0..300).map(|i| 4 + i % 5))
            .collect();
        let mut wire = Vec::new();
        for (i, &len) in sizes.iter().enumerate() {
            encode_frame(&from, &Frame::App(numbered(i as u32, len)), &mut wire);
        }
        for step in [1, 3, 7, 4096, usize::MAX] {
            let mut frames = FrameReader::new(Trickle { data: &wire, step });
            for (i, &len) in sizes.iter().enumerate() {
                let (got, frame, size) = frames.read_frame().unwrap();
                assert_eq!(got, from);
                match frame {
                    Frame::App(payload) => assert_eq!(payload, numbered(i as u32, len)),
                    Frame::Proto(_) => panic!("frame {i} decoded as a protocol frame"),
                }
                assert_eq!(size, (head + len) as u64);
            }
            let end = frames.read_frame().map(|_| ()).unwrap_err();
            assert_eq!(
                end.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "reads of {step}"
            );
        }
    }
}
