//! The discrete-event engine.
//!
//! A [`Simulation`] hosts a set of [`Actor`]s addressed by
//! [`Endpoint`], delivers their messages through the
//! [`NetworkModel`](crate::net::NetworkModel), ticks them at a fixed
//! cadence, applies scheduled [`Fault`]s, and samples each actor's
//! observed cluster size once per (virtual) second — reproducing exactly
//! the measurement methodology of the paper's Figures 1 and 7–10.

use std::collections::{BinaryHeap, VecDeque};

use rapid_core::hash::DetHashMap;

use rapid_core::id::Endpoint;

use crate::net::NetworkModel;
use crate::series::Sample;

/// A protocol instance hosted by the simulator.
///
/// Baselines (SWIM, ZooKeeper-like, Akka-like) and Rapid itself implement
/// this trait, so every system runs on the identical substrate.
pub trait Actor {
    /// The wire message type exchanged by this protocol.
    type Msg: Clone;

    /// Called every tick interval.
    fn on_tick(&mut self, now: u64, out: &mut Outbox<Self::Msg>);

    /// Called for each delivered message.
    fn on_message(&mut self, from: Endpoint, msg: Self::Msg, now: u64, out: &mut Outbox<Self::Msg>);

    /// Encoded size of a message in bytes, for bandwidth accounting.
    fn msg_size(msg: &Self::Msg) -> usize;

    /// Whether two messages are guaranteed to have identical encoded
    /// sizes (e.g. they share the same `Arc`'d payload). The engine uses
    /// this to measure a broadcast fan-out once instead of once per peer.
    /// The default is conservative.
    fn same_size(_a: &Self::Msg, _b: &Self::Msg) -> bool {
        false
    }

    /// The actor's current observation of the cluster size (`None` while
    /// it is not an active member). Sampled once per second.
    fn sample(&self) -> Option<f64>;

    /// Called on every metrics sweep (cadence set via
    /// [`Simulation::set_metrics_interval`]; never called when sampling
    /// is disabled). `net` carries the engine's cumulative network
    /// counters for this actor — hosts diff them against their previous
    /// sweep to produce timeline deltas. Sweeps are ordinary
    /// deterministic engine events, identical across thread counts.
    fn on_metrics_sample(&mut self, _now_ms: u64, _net: NetSample) {}
}

/// Snapshot of an actor's cumulative engine-side network counters,
/// handed to [`Actor::on_metrics_sample`]. Needed because byte/message
/// accounting lives in the engine's [`Traffic`] table, not in the actor
/// (a `NodeMetrics`-style host counter is unfilled in simulation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSample {
    /// Total bytes received so far.
    pub bytes_in: u64,
    /// Total bytes sent so far.
    pub bytes_out: u64,
    /// Total messages received so far.
    pub msgs_in: u64,
    /// Total messages sent so far.
    pub msgs_out: u64,
}

/// Messages an actor wants transmitted.
pub struct Outbox<M> {
    /// `(destination, message, extra delay before hitting the wire)`.
    pub msgs: Vec<(Endpoint, M, u64)>,
}

impl<M> Outbox<M> {
    /// Queues a message for sending.
    pub fn send(&mut self, to: Endpoint, msg: M) {
        self.msgs.push((to, msg, 0));
    }

    /// Queues a message that leaves the process after `delay_ms` (models
    /// server-side service time, e.g. a ZooKeeper leader serialising
    /// full-membership reads during a watch herd).
    pub fn send_delayed(&mut self, to: Endpoint, msg: M, delay_ms: u64) {
        self.msgs.push((to, msg, delay_ms));
    }
}

/// A scheduled fault-injection action.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Crash an actor (no further sends, receives, or ticks).
    Crash(usize),
    /// Set an actor's ingress packet drop probability.
    IngressDrop(usize, f64),
    /// Set an actor's egress packet drop probability.
    EgressDrop(usize, f64),
    /// Install a bidirectional blackhole between two actors.
    BlackholePair(usize, usize),
    /// Remove the bidirectional blackhole between two actors.
    ClearBlackholePair(usize, usize),
    /// Partition `group` from the rest of the cluster.
    Partition(Vec<usize>),
    /// Set the one-way loss probability of the `src -> dst` link
    /// (`0.0` clears it).
    LinkLoss(usize, usize, f64),
    /// Multiply the latency of every link touching an actor
    /// (`<= 1.0` clears it).
    SlowNode(usize, f64),
    /// Set the global packet-duplication probability.
    Duplicate(f64),
    /// With probability `.0`, hold a delivered packet back an extra
    /// `U[0, .1)` ms so later sends overtake it (reordering).
    Reorder(f64, u64),
    /// Replace the latency model for every link.
    Latency(crate::net::LatencyDist),
}

/// Per-actor traffic counters.
#[derive(Clone, Debug, Default)]
pub struct Traffic {
    /// Total bytes received.
    pub bytes_in: u64,
    /// Total bytes sent (counted at the sender even if dropped en route,
    /// like NIC counters).
    pub bytes_out: u64,
    /// Messages received.
    pub msgs_in: u64,
    /// Messages sent.
    pub msgs_out: u64,
    /// Per-second `(bytes_in, bytes_out)` rates, index = virtual second.
    pub per_second: Vec<(u64, u64)>,
    cur_sec: u64,
    sec_in: u64,
    sec_out: u64,
}

impl Traffic {
    fn roll_to(&mut self, sec: u64) {
        while self.cur_sec < sec {
            self.per_second.push((self.sec_in, self.sec_out));
            self.sec_in = 0;
            self.sec_out = 0;
            self.cur_sec += 1;
        }
    }
}

struct Slot<A> {
    actor: A,
    addr: Endpoint,
    started: bool,
    traffic: Traffic,
}

#[derive(Debug)]
enum Entry<M> {
    /// A message in flight. Source and destination are actor slot indices
    /// and the wire size is computed once, all at send time; the sender's
    /// endpoint is looked up at delivery, so queue entries carry no
    /// endpoint payload and delivery re-measures nothing.
    Deliver { dst: u32, src: u32, size: u32, msg: M },
    Tick { idx: usize },
    Start { idx: usize },
    Fault(Fault),
    SampleAll,
    /// Fixed-cadence metrics sweep (timeline sampling). A boundary event
    /// like `SampleAll`: it touches every slot, so the engine runs it
    /// alone on the driving thread, between epochs.
    MetricsSweep,
}

/// Heap item ordered by `(time, seq)` only — `BinaryHeap` is a max-heap,
/// so the ordering is reversed to pop the earliest event first.
struct QueueItem<M> {
    key: (u64, u64),
    entry: Entry<M>,
}

impl<M> PartialEq for QueueItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for QueueItem<M> {}
impl<M> PartialOrd for QueueItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueueItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// Timing-wheel horizon in virtual milliseconds. Tick cadences, probe
/// intervals, sample periods and message latencies all land well inside
/// it; anything further (delayed joiner starts, far-future fault
/// schedules) waits in a small overflow heap and migrates into the wheel
/// as the cursor approaches.
const WHEEL_SLOTS: u64 = 4_096;

/// A drained bucket keeps a buffer of up to this many entries in place;
/// a larger one is handed back when the cursor leaves the bucket.
const RECYCLE_MIN_CAP: usize = 64;

/// Most handed-back bucket buffers the wheel keeps for reuse.
const MAX_SPARE_BUCKETS: usize = 4;

/// The event queue: a calendar/timing wheel over virtual milliseconds.
///
/// The engine processes events in exactly `(time, seq)` order, where
/// `seq` is global push order — the same total order the previous
/// `BinaryHeap` implementation produced (the trace-equivalence golden
/// pins this bit-for-bit). A binary heap pays `O(log n)` comparisons
/// *and element moves* per push/pop, and a queue entry carrying an inline
/// message is ~100 bytes, so heap churn dominated the per-event cost at
/// N ≥ 1024. The wheel makes push and pop O(1): one bucket per virtual
/// millisecond within the horizon, each a FIFO (push order within one
/// millisecond *is* seq order).
///
/// Three tiers:
/// * `buckets[t % WHEEL_SLOTS]` — events inside the horizon. Only one
///   time value occupies a bucket at once (the horizon equals the wheel
///   size), so a bucket is a plain FIFO.
/// * `overflow` — events at `t >= cursor + WHEEL_SLOTS`, in a (time,
///   seq) heap; migrated into the wheel as the cursor reaches
///   `t - WHEEL_SLOTS + 1`. Always small (joiner starts, fault
///   schedules).
/// * `overdue` — events scheduled at or before an already-drained
///   millisecond (e.g. `schedule_fault(now)` between two `run_until`
///   calls), in a (time, seq) heap popped before anything else. The old
///   heap served these first for the same reason.
///
/// Bucket buffers are recycled, so the wheel's memory follows the events
/// in flight rather than the largest burst each slot has ever held (a
/// burst lands on a new slot as the wheel turns, so retained capacity
/// would keep growing for as long as a run lasts). When the cursor
/// leaves a drained bucket whose buffer has grown past
/// [`RECYCLE_MIN_CAP`], the buffer moves to `spare` (at most
/// [`MAX_SPARE_BUCKETS`] of them; any further one is freed), and a bucket
/// that fills while holding no buffer takes one from `spare` first.
/// Recycling moves buffers, never entries, so the pop order is untouched.
struct EventQueue<M> {
    /// Next millisecond to drain; every event at `t < cursor` has been
    /// delivered (or sits in `overdue`).
    cursor: u64,
    buckets: Vec<VecDeque<Entry<M>>>,
    /// Events currently in `buckets`.
    in_wheel: usize,
    overflow: BinaryHeap<QueueItem<M>>,
    overdue: BinaryHeap<QueueItem<M>>,
    /// Empty bucket buffers given back by drained buckets.
    spare: Vec<VecDeque<Entry<M>>>,
    seq: u64,
}

impl<M> EventQueue<M> {
    fn new() -> EventQueue<M> {
        EventQueue {
            cursor: 0,
            buckets: (0..WHEEL_SLOTS).map(|_| VecDeque::new()).collect(),
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            overdue: BinaryHeap::new(),
            spare: Vec::new(),
            seq: 0,
        }
    }

    /// The bucket of time `at`, about to receive an event: a bucket that
    /// holds no buffer takes a recycled one, if any.
    fn bucket(&mut self, at: u64) -> &mut VecDeque<Entry<M>> {
        let bucket = &mut self.buckets[(at % WHEEL_SLOTS) as usize];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket
    }

    /// Moves the cursor to `to` (> cursor) and migrates what the move
    /// brought inside the horizon. The bucket the cursor leaves is
    /// drained; its buffer is recycled if it has grown past
    /// [`RECYCLE_MIN_CAP`].
    fn advance(&mut self, to: u64) {
        let left = &mut self.buckets[(self.cursor % WHEEL_SLOTS) as usize];
        debug_assert!(left.is_empty(), "the cursor leaves only drained buckets");
        if left.capacity() > RECYCLE_MIN_CAP {
            let buf = std::mem::take(left);
            if self.spare.len() < MAX_SPARE_BUCKETS {
                self.spare.push(buf);
            }
        }
        self.cursor = to;
        self.migrate();
    }

    fn push(&mut self, at: u64, entry: Entry<M>) {
        self.seq += 1;
        if at < self.cursor {
            self.overdue.push(QueueItem {
                key: (at, self.seq),
                entry,
            });
        } else if at < self.cursor + WHEEL_SLOTS {
            self.bucket(at).push_back(entry);
            self.in_wheel += 1;
        } else {
            self.overflow.push(QueueItem {
                key: (at, self.seq),
                entry,
            });
        }
    }

    /// Moves every overflow event now inside the horizon into its
    /// bucket. Heap order is (time, seq), so same-time events append in
    /// seq order — and any direct push to those buckets can only happen
    /// after this gate (the wheel admits a time only once the cursor is
    /// within the horizon), so FIFO order stays seq order.
    fn migrate(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.key.0 >= self.cursor + WHEEL_SLOTS {
                break;
            }
            let item = self.overflow.pop().expect("peeked");
            self.bucket(item.key.0).push_back(item.entry);
            self.in_wheel += 1;
        }
    }

    /// Pops the next event with `time <= until`, if any, returning its
    /// virtual time and the tier it came from, so
    /// [`unpop`](Self::unpop) can restore it exactly.
    fn pop(&mut self, until: u64) -> Option<(u64, Entry<M>, PopSrc)> {
        // Overdue events first: their times precede every wheel bucket
        // (`at < cursor`), exactly as the old global heap ordered them.
        if let Some(top) = self.overdue.peek() {
            if top.key.0 <= until {
                let item = self.overdue.pop().expect("peeked");
                return Some((item.key.0, item.entry, PopSrc::Overdue(item.key.1)));
            }
            return None;
        }
        while self.cursor <= until {
            if let Some(entry) = self.buckets[(self.cursor % WHEEL_SLOTS) as usize].pop_front()
            {
                self.in_wheel -= 1;
                return Some((self.cursor, entry, PopSrc::Wheel));
            }
            if self.in_wheel == 0 {
                // Nothing inside the horizon: jump straight to the next
                // overflow time instead of sweeping empty milliseconds.
                let top = self.overflow.peek()?;
                if top.key.0 > until {
                    return None;
                }
                self.advance(top.key.0);
                continue;
            }
            self.advance(self.cursor + 1);
        }
        None
    }

    /// Restores the most recently popped event unchanged: the next pop
    /// returns it again in the same global `(time, seq)` position. Used
    /// when epoch collection overshoots onto a boundary event (fault,
    /// sample sweep).
    fn unpop(&mut self, at: u64, entry: Entry<M>, src: PopSrc) {
        match src {
            // A wheel pop leaves the cursor at the popped time, so
            // putting the entry back at the bucket's front restores the
            // exact FIFO (= seq) position.
            PopSrc::Wheel => {
                self.buckets[(at % WHEEL_SLOTS) as usize].push_front(entry);
                self.in_wheel += 1;
            }
            PopSrc::Overdue(seq) => self.overdue.push(QueueItem {
                key: (at, seq),
                entry,
            }),
        }
    }
}

/// Which tier of the [`EventQueue`] a popped event came from (see
/// [`EventQueue::unpop`]).
enum PopSrc {
    /// The timing wheel: bucket order is positional, no key needed.
    Wheel,
    /// The overdue heap, keyed by the event's original sequence number.
    Overdue(u64),
}

/// The simulation: actors + network + event queue.
pub struct Simulation<A: Actor> {
    slots: Vec<Slot<A>>,
    by_addr: DetHashMap<Endpoint, usize>,
    /// The network model (public for scenario-specific tweaking).
    pub net: NetworkModel,
    queue: EventQueue<A::Msg>,
    now: u64,
    tick_interval_ms: u64,
    sample_interval_ms: u64,
    /// Metrics-sweep cadence; 0 (the default) schedules no sweeps.
    metrics_interval_ms: u64,
    samples: Vec<Sample>,
    events_processed: u64,
    /// Shards `run_until` splits the actors into (capped at the actor
    /// count). Every count runs the same epoch engine and yields the
    /// same trace, bit for bit.
    threads: usize,
    /// Minimum epoch batch size before the engine fans out to worker
    /// threads; smaller epochs run the identical shard code on the
    /// driving thread (spawn overhead would dominate).
    par_batch_min: usize,
    /// Per-shard epoch buffers, retained across epochs and runs so the
    /// steady state allocates nothing. Never empty: shard 0's buffers
    /// also route [`with_actor`](Self::with_actor)'s outbox.
    shards: Vec<ShardBufs<A::Msg>>,
    /// The owning shard of each event of the current epoch, in global
    /// `(time, seq)` order (retained like `shards`).
    shard_order: Vec<u32>,
}

impl<A: Actor> Simulation<A> {
    /// Creates an empty simulation with the given seed and tick cadence.
    pub fn new(seed: u64, tick_interval_ms: u64) -> Self {
        let mut sim = Simulation {
            slots: Vec::new(),
            by_addr: DetHashMap::default(),
            net: NetworkModel::lan(seed),
            queue: EventQueue::new(),
            now: 0,
            tick_interval_ms,
            sample_interval_ms: 1_000,
            metrics_interval_ms: 0,
            samples: Vec::new(),
            events_processed: 0,
            threads: 1,
            par_batch_min: 192,
            shards: vec![ShardBufs::default()],
            shard_order: Vec::new(),
        };
        sim.push(1_000, Entry::SampleAll);
        sim
    }

    /// Sets how many shards `run_until` splits the actors into. `1` (the
    /// default) is one shard on the driving thread; a higher count runs
    /// large epochs' shards on that many threads. The trace (same
    /// events, same RNG stream, same counters) is bit-identical at every
    /// count — parallelism is purely a wall-clock optimisation.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Enables fixed-cadence metrics sweeps: every `ms` virtual
    /// milliseconds each live actor gets an
    /// [`Actor::on_metrics_sample`] callback carrying its cumulative
    /// network counters. `0` (the default) leaves sweeps off — no event
    /// is scheduled, so disabled runs replay byte-identically to builds
    /// that predate the timeline. Call at most once, before running.
    pub fn set_metrics_interval(&mut self, ms: u64) {
        self.metrics_interval_ms = ms;
        if ms > 0 {
            self.push(self.now + ms, Entry::MetricsSweep);
        }
    }

    /// Sets the minimum epoch batch size at which the engine fans out to
    /// OS threads (below it the same shard code runs on the driving
    /// thread). Results are identical at any value; exposed so tests can
    /// force the cross-thread path on small clusters.
    pub fn set_parallel_batch_min(&mut self, events: usize) {
        self.par_batch_min = events.max(1);
    }

    fn push(&mut self, at: u64, entry: Entry<A::Msg>) {
        self.queue.push(at, entry);
    }

    /// Adds an actor that starts ticking at `start_at`. Returns its index.
    pub fn add_actor_at(&mut self, addr: Endpoint, actor: A, start_at: u64) -> usize {
        let idx = self.slots.len();
        self.by_addr.insert(addr, idx);
        self.slots.push(Slot {
            actor,
            addr,
            started: false,
            traffic: Traffic::default(),
        });
        // Stagger the tick phase so thousands of actors do not tick in
        // lockstep (the paper's processes start at arbitrary phases too).
        let phase = (idx as u64).wrapping_mul(7919) % self.tick_interval_ms.max(1);
        self.push(start_at + phase, Entry::Start { idx });
        idx
    }

    /// Adds an actor that starts immediately.
    pub fn add_actor(&mut self, addr: Endpoint, actor: A) -> usize {
        self.add_actor_at(addr, actor, self.now)
    }

    /// Schedules a fault at an absolute virtual time.
    pub fn schedule_fault(&mut self, at: u64, fault: Fault) {
        self.push(at, Entry::Fault(fault));
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of actors.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the simulation hosts no actors.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Immutable access to an actor.
    pub fn actor(&self, idx: usize) -> &A {
        &self.slots[idx].actor
    }

    /// Mutable access to an actor (e.g. to invoke `leave`).
    pub fn actor_mut(&mut self, idx: usize) -> &mut A {
        &mut self.slots[idx].actor
    }

    /// The address of an actor.
    pub fn addr_of(&self, idx: usize) -> &Endpoint {
        &self.slots[idx].addr
    }

    /// Traffic counters of an actor.
    pub fn traffic(&self, idx: usize) -> &Traffic {
        &self.slots[idx].traffic
    }

    /// All collected per-second cluster-size samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Total events processed (for performance reporting).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Lets an actor interact with the outside world (application-level
    /// sends, voluntary leave): runs `f` with the actor and an outbox, then
    /// routes the produced messages exactly as an event's outbox is
    /// routed.
    pub fn with_actor<R>(&mut self, idx: usize, f: impl FnOnce(&mut A, &mut Outbox<A::Msg>) -> R) -> R {
        let mut bufs = std::mem::take(&mut self.shards[0]);
        let mut out = Outbox {
            msgs: std::mem::take(&mut bufs.outbox),
        };
        let r = f(&mut self.slots[idx].actor, &mut out);
        let slot = &mut self.slots[idx];
        record_outbox::<A>(slot, idx, self.now, out, NO_TICK, &self.by_addr, &mut bufs);
        self.replay(&mut bufs);
        self.shards[0] = bufs;
        r
    }

    /// Phase (b) for one processed event: pops `bufs`' next record and
    /// replays its route/duplicate draws and queue pushes, then its tick
    /// reschedule. Called in global `(time, seq)` order, this is the
    /// sequence one-event-at-a-time processing would produce, so the RNG
    /// stream and the seq assignment — hence the whole trace — are the
    /// same at every shard count.
    fn replay(&mut self, bufs: &mut ShardBufs<A::Msg>) {
        let rec = bufs.recs.pop_front().expect("one record per processed event");
        let src = rec.actor as usize;
        for m in bufs.msgs.drain(..rec.n_msgs as usize) {
            let Some(latency) = self.net.route(src, m.dst as usize) else {
                continue;
            };
            // A duplicated packet is a *network* artifact: the sender
            // paid for one transmission (already counted), the receiver
            // sees two deliveries. Duplicate first, original second.
            if let Some(dup_latency) = self.net.maybe_duplicate(src, m.dst as usize) {
                let dup = Entry::Deliver {
                    dst: m.dst,
                    src: rec.actor,
                    size: m.size,
                    msg: m.msg.clone(),
                };
                self.push(rec.at + m.delay + dup_latency, dup);
            }
            let original = Entry::Deliver {
                dst: m.dst,
                src: rec.actor,
                size: m.size,
                msg: m.msg,
            };
            self.push(rec.at + m.delay + latency, original);
        }
        if rec.next_tick != NO_TICK {
            self.push(rec.next_tick, Entry::Tick { idx: src });
        }
    }

    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(i) => self.net.crash(i),
            Fault::IngressDrop(i, p) => self.net.set_ingress_drop(i, p),
            Fault::EgressDrop(i, p) => self.net.set_egress_drop(i, p),
            Fault::BlackholePair(a, b) => self.net.blackhole_pair(a, b),
            Fault::ClearBlackholePair(a, b) => {
                self.net.clear_blackhole(a, b);
                self.net.clear_blackhole(b, a);
            }
            Fault::Partition(group) => {
                let n = self.slots.len();
                self.net.partition(&group, n);
            }
            Fault::LinkLoss(src, dst, p) => self.net.set_link_loss(src, dst, p),
            Fault::SlowNode(i, f) => self.net.set_slow_node(i, f),
            Fault::Duplicate(p) => self.net.set_duplication(p),
            Fault::Reorder(p, extra) => self.net.set_reordering(p, extra),
            Fault::Latency(dist) => self.net.set_latency(dist),
        }
    }

    /// Samples every live actor's observed cluster size (in slot order)
    /// and schedules the next sweep. Expects `self.now` to be the sweep
    /// time.
    fn sample_all(&mut self) {
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.started && !self.net.is_crashed(idx) {
                if let Some(v) = slot.actor.sample() {
                    self.samples.push(Sample {
                        t_ms: self.now,
                        actor: idx,
                        value: v,
                    });
                }
            }
        }
        let next = self.now + self.sample_interval_ms;
        self.push(next, Entry::SampleAll);
    }

    /// Delivers the metrics-sweep callback to every live actor (in slot
    /// order, like `sample_all`) and schedules the next sweep. Expects
    /// `self.now` to be the sweep time.
    fn metrics_sweep(&mut self) {
        for idx in 0..self.slots.len() {
            if !self.slots[idx].started || self.net.is_crashed(idx) {
                continue;
            }
            let slot = &mut self.slots[idx];
            let net = NetSample {
                bytes_in: slot.traffic.bytes_in,
                bytes_out: slot.traffic.bytes_out,
                msgs_in: slot.traffic.msgs_in,
                msgs_out: slot.traffic.msgs_out,
            };
            slot.actor.on_metrics_sample(self.now, net);
        }
        let next = self.now + self.metrics_interval_ms;
        self.push(next, Entry::MetricsSweep);
    }
}

impl<A: Actor + Send> Simulation<A>
where
    A::Msg: Send,
{
    /// Runs the simulation until virtual time `until_ms`.
    ///
    /// The run advances in epochs. Each epoch drains every queued
    /// actor event in the window `[T, T + H)`, where `T` is the next
    /// event time and the lookahead `H` is the minimum one-way link
    /// latency ([`NetworkModel::min_latency_ms`], clipped to the tick
    /// interval and floored at 1 ms): nothing processed inside the
    /// window can schedule new work before `T + H`, so the window's
    /// event set is closed and can execute out of order. Events are
    /// bucketed by owning shard (a contiguous block partition of slot
    /// indices into `threads` shards, one by default) and each shard
    /// replays its bucket — on its own core when the epoch is large
    /// enough — running actor callbacks, per-actor traffic counters and
    /// message sizing, and recording what it did. The driving thread
    /// then merges the records back in exact global `(time, seq)`
    /// order, replaying every RNG draw (`route`, `maybe_duplicate`) and
    /// queue push in the sequence one-event-at-a-time processing would
    /// use, so the trace — every delivery, RNG draw, counter and sample
    /// — is bit-identical at every shard count.
    ///
    /// Fault applications and sample sweeps touch global state (the
    /// RNG, the fault tables, every slot), so they bound epochs and run
    /// alone on the driving thread.
    pub fn run_until(&mut self, until_ms: u64) {
        let nshards = self.threads.min(self.slots.len()).max(1);
        let mut bufs = std::mem::take(&mut self.shards);
        bufs.resize_with(nshards, ShardBufs::default);
        let mut shard_order = std::mem::take(&mut self.shard_order);
        while let Some((at, entry, _)) = self.queue.pop(until_ms) {
            match entry {
                Entry::Fault(f) => {
                    self.now = at;
                    self.events_processed += 1;
                    self.apply_fault(f);
                }
                Entry::SampleAll => {
                    self.now = at;
                    self.events_processed += 1;
                    self.sample_all();
                }
                Entry::MetricsSweep => {
                    self.now = at;
                    self.events_processed += 1;
                    self.metrics_sweep();
                }
                first => {
                    let last_at = self.collect_epoch(at, first, until_ms, &mut bufs, &mut shard_order);
                    self.execute_epoch(&mut bufs, &shard_order);
                    self.events_processed += shard_order.len() as u64;
                    self.now = last_at;
                }
            }
        }
        self.shards = bufs;
        self.shard_order = shard_order;
        self.now = self.now.max(until_ms);
    }

    /// Runs until `until_ms`, checking `pred` every virtual second;
    /// returns the virtual time at which the predicate first held.
    pub fn run_until_pred(
        &mut self,
        until_ms: u64,
        mut pred: impl FnMut(&Simulation<A>) -> bool,
    ) -> Option<u64> {
        let mut t = self.now;
        while t < until_ms {
            t = (t + 1_000).min(until_ms);
            self.run_until(t);
            if pred(self) {
                return Some(self.now);
            }
        }
        None
    }

    /// Collects one epoch's batch: every queued actor event in
    /// `[at0, at0 + H)` (clipped to `until_ms`), in global `(time, seq)`
    /// order. A fault or sample sweep inside the window ends the batch
    /// early (it is put back for the next iteration). Returns the last
    /// batched event time.
    fn collect_epoch(
        &mut self,
        at0: u64,
        first: Entry<A::Msg>,
        until_ms: u64,
        bufs: &mut [ShardBufs<A::Msg>],
        shard_order: &mut Vec<u32>,
    ) -> u64 {
        // With a zero minimum latency the window degenerates to a single
        // millisecond; that still closes the batch, because anything a
        // batched event generates at the same time gets a higher seq
        // than the whole batch (it is pushed later) and lands in the
        // *next* epoch — the same relative order one-event-at-a-time
        // processing produces.
        let lookahead = self.net.min_latency_ms().min(self.tick_interval_ms).max(1);
        let limit = (at0 + lookahead - 1).min(until_ms);
        shard_order.clear();
        self.stage(at0, first, bufs, shard_order);
        let mut last_at = at0;
        while let Some((at, entry, src)) = self.queue.pop(limit) {
            match entry {
                e @ (Entry::Fault(_) | Entry::SampleAll | Entry::MetricsSweep) => {
                    self.queue.unpop(at, e, src);
                    break;
                }
                e => {
                    self.stage(at, e, bufs, shard_order);
                    last_at = at;
                }
            }
        }
        last_at
    }

    /// Routes one popped event to its owning shard's bucket, resolving
    /// everything the shard cannot look up itself (the sender's
    /// endpoint lives in another shard's slot).
    fn stage(
        &self,
        at: u64,
        entry: Entry<A::Msg>,
        bufs: &mut [ShardBufs<A::Msg>],
        shard_order: &mut Vec<u32>,
    ) {
        let (idx, kind) = match entry {
            Entry::Start { idx } => (idx, EventKind::Start),
            Entry::Tick { idx } => (idx, EventKind::Tick),
            Entry::Deliver { dst, src, size, msg } => {
                let from = self.slots[src as usize].addr;
                (dst as usize, EventKind::Deliver { from, size, msg })
            }
            Entry::Fault(_) | Entry::SampleAll | Entry::MetricsSweep => {
                unreachable!("boundary events are never staged")
            }
        };
        let shard = shard_of(self.slots.len(), bufs.len(), idx);
        bufs[shard].events.push(ShardEvent { idx, at, kind });
        shard_order.push(shard as u32);
    }

    /// Executes one collected epoch: phase (a) runs every shard's actor
    /// callbacks (on worker threads when there are several shards and
    /// the batch is large enough to pay for the fan-out), phase (b)
    /// merges the shard records on the driving thread in global order,
    /// replaying RNG draws and queue pushes.
    fn execute_epoch(&mut self, bufs: &mut [ShardBufs<A::Msg>], shard_order: &[u32]) {
        let nshards = bufs.len();
        let inline = nshards == 1 || shard_order.len() < self.par_batch_min;
        let len = self.slots.len();
        let Simulation {
            slots,
            net,
            by_addr,
            tick_interval_ms,
            ..
        } = self;
        let net: &NetworkModel = net;
        let by_addr: &DetHashMap<Endpoint, usize> = by_addr;
        let tick = *tick_interval_ms;
        // Phase (a): actor callbacks, disjoint state per shard, no RNG.
        if inline {
            // One shard, or a small epoch where thread fan-out would cost
            // more than the work. Same code, same results (shards are
            // independent in this phase), run on the driving thread —
            // the whole slice stands in for every shard's block with
            // `first = 0`.
            for b in bufs.iter_mut() {
                process_shard_events(slots, 0, net, by_addr, tick, b);
            }
        } else {
            // Split the slot array into per-shard blocks (shard s owns
            // `shard_of(i) == s`, a contiguous range).
            let mut blocks: Vec<(usize, &mut [Slot<A>])> = Vec::with_capacity(nshards);
            let mut rest: &mut [Slot<A>] = slots.as_mut_slice();
            let mut start = 0usize;
            for s in 0..nshards {
                let span = shard_span(len, nshards, s);
                let (head, tail) = rest.split_at_mut(span);
                blocks.push((start, head));
                start += span;
                rest = tail;
            }
            std::thread::scope(|scope| {
                let mut parts = blocks.into_iter().zip(bufs.iter_mut());
                let (my_block, my_bufs) = parts.next().expect("shard 0 exists");
                for ((first, block), b) in parts {
                    scope.spawn(move || process_shard_events(block, first, net, by_addr, tick, b));
                }
                // The driving thread is shard 0's worker.
                process_shard_events(my_block.1, my_block.0, net, by_addr, tick, my_bufs);
            });
        }

        // Phase (b): merge in global (time, seq) order.
        for &sh in shard_order {
            self.replay(&mut bufs[sh as usize]);
        }
    }
}

/// `EventRec::next_tick` sentinel: the event schedules no tick.
const NO_TICK: u64 = u64::MAX;

/// One event routed to a shard: the queue's `Entry` for actor `idx` at
/// time `at`, with everything the owning shard cannot resolve itself
/// (the sender's endpoint lives in another shard's slot) already looked
/// up.
struct ShardEvent<M> {
    idx: usize,
    at: u64,
    kind: EventKind<M>,
}

/// What happens to a [`ShardEvent`]'s actor.
enum EventKind<M> {
    /// First activation.
    Start,
    /// Periodic tick.
    Tick,
    /// Message delivery.
    Deliver { from: Endpoint, size: u32, msg: M },
}

/// What one event did during phase (a), recorded for the merge:
/// `n_msgs` routable messages appended to the shard's message queue,
/// plus an optional tick reschedule.
#[derive(Clone, Copy)]
struct EventRec {
    /// Slot index of the actor that processed the event.
    actor: u32,
    /// Virtual time of the event.
    at: u64,
    /// Messages appended to the shard's `msgs` list by this event.
    n_msgs: u32,
    /// Absolute time of the next tick to schedule, or [`NO_TICK`].
    next_tick: u64,
}

impl EventRec {
    /// A record for an event that was gated off (crashed or unstarted
    /// recipient): nothing to replay.
    fn inert(actor: usize, at: u64) -> EventRec {
        EventRec {
            actor: actor as u32,
            at,
            n_msgs: 0,
            next_tick: NO_TICK,
        }
    }
}

/// One message produced during phase (a): destination slot and wire
/// size already resolved, latency (an RNG draw) deliberately not.
struct OutMsg<M> {
    dst: u32,
    size: u32,
    delay: u64,
    msg: M,
}

/// Per-shard reusable buffers: the epoch's input events and the
/// recorded outputs, which the merge consumes front to back. All are
/// retained across epochs, so the steady state allocates nothing.
struct ShardBufs<M> {
    events: Vec<ShardEvent<M>>,
    recs: VecDeque<EventRec>,
    msgs: VecDeque<OutMsg<M>>,
    sizes: Vec<u32>,
    outbox: Vec<(Endpoint, M, u64)>,
}

impl<M> Default for ShardBufs<M> {
    fn default() -> Self {
        ShardBufs {
            events: Vec::new(),
            recs: VecDeque::new(),
            msgs: VecDeque::new(),
            sizes: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// Size of shard `s`'s contiguous slot block under an even split of
/// `len` slots into `nshards` blocks (the first `len % nshards` blocks
/// take the remainder).
fn shard_span(len: usize, nshards: usize, s: usize) -> usize {
    len / nshards + usize::from(s < len % nshards)
}

/// The shard owning slot `idx` — the inverse of the [`shard_span`]
/// block layout. Deterministic in `(len, nshards, idx)` only.
fn shard_of(len: usize, nshards: usize, idx: usize) -> usize {
    let base = len / nshards;
    let rem = len % nshards;
    let cut = (base + 1) * rem;
    if idx < cut {
        idx / (base + 1)
    } else {
        rem + (idx - cut) / base
    }
}

/// Phase (a) of an epoch, one shard's worth: runs the actor callbacks
/// for every staged event, in stage order, mutating only this shard's
/// slots (`slots[idx - first]`), and records everything the merge must
/// replay. Draws no randomness — the network model is read only for
/// crash gating, so concurrent shards observe identical state.
fn process_shard_events<A: Actor>(
    slots: &mut [Slot<A>],
    first: usize,
    net: &NetworkModel,
    by_addr: &DetHashMap<Endpoint, usize>,
    tick_interval_ms: u64,
    bufs: &mut ShardBufs<A::Msg>,
) {
    let mut events = std::mem::take(&mut bufs.events);
    for ShardEvent { idx, at, kind } in events.drain(..) {
        let slot = &mut slots[idx - first];
        // A start activates its actor; every other event needs it active
        // already. A crashed actor does nothing, and its tick chain dies
        // (no reschedule).
        let live = !net.is_crashed(idx) && (slot.started || matches!(kind, EventKind::Start));
        if !live {
            bufs.recs.push_back(EventRec::inert(idx, at));
            continue;
        }
        let mut out = Outbox {
            msgs: std::mem::take(&mut bufs.outbox),
        };
        let next_tick = match kind {
            EventKind::Start | EventKind::Tick => {
                slot.started = true;
                slot.actor.on_tick(at, &mut out);
                at + tick_interval_ms
            }
            EventKind::Deliver { from, size, msg } => {
                let t = &mut slot.traffic;
                t.roll_to(at / 1_000);
                t.bytes_in += size as u64;
                t.msgs_in += 1;
                t.sec_in += size as u64;
                slot.actor.on_message(from, msg, at, &mut out);
                NO_TICK
            }
        };
        record_outbox::<A>(slot, idx, at, out, next_tick, by_addr, bufs);
    }
    bufs.events = events;
}

/// The shard-local half of routing an outbox: sizes the messages
/// (adjacent fan-out copies sharing a payload are measured once),
/// accounts the sender's egress traffic, resolves destinations, and
/// queues `OutMsg`s for the merge. The RNG half
/// ([`Simulation::replay`]) runs later on the driving thread, in global
/// order.
fn record_outbox<A: Actor>(
    slot: &mut Slot<A>,
    actor: usize,
    at: u64,
    mut out: Outbox<A::Msg>,
    next_tick: u64,
    by_addr: &DetHashMap<Endpoint, usize>,
    bufs: &mut ShardBufs<A::Msg>,
) {
    bufs.sizes.clear();
    for i in 0..out.msgs.len() {
        let size = if i > 0 && A::same_size(&out.msgs[i - 1].1, &out.msgs[i].1) {
            bufs.sizes[i - 1]
        } else {
            A::msg_size(&out.msgs[i].1) as u32
        };
        bufs.sizes.push(size);
    }
    let mut n_msgs = 0u32;
    for (i, (to, msg, delay)) in out.msgs.drain(..).enumerate() {
        let size = bufs.sizes[i] as u64;
        {
            // Senders pay for every transmission, deliverable or not.
            let t = &mut slot.traffic;
            t.roll_to(at / 1_000);
            t.bytes_out += size;
            t.msgs_out += 1;
            t.sec_out += size;
        }
        let Some(&dst) = by_addr.get(&to) else {
            continue; // Unknown destination: dropped, no RNG consumed.
        };
        bufs.msgs.push_back(OutMsg {
            dst: dst as u32,
            size: size as u32,
            delay,
            msg,
        });
        n_msgs += 1;
    }
    bufs.outbox = out.msgs;
    bufs.recs.push_back(EventRec {
        actor: actor as u32,
        at,
        n_msgs,
        next_tick,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial ping-counting actor for engine tests.
    struct Counter {
        peers: Vec<Endpoint>,
        pings_sent: u64,
        pings_got: u64,
    }

    impl Actor for Counter {
        type Msg = u64;

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u64>) {
            for p in &self.peers {
                out.send(*p, 1);
            }
            self.pings_sent += self.peers.len() as u64;
        }

        fn on_message(&mut self, _from: Endpoint, msg: u64, _now: u64, _out: &mut Outbox<u64>) {
            self.pings_got += msg;
        }

        fn msg_size(_msg: &u64) -> usize {
            8
        }

        fn sample(&self) -> Option<f64> {
            Some(self.pings_got as f64)
        }
    }

    fn ep(i: usize) -> Endpoint {
        Endpoint::new(format!("c{i}"), 1)
    }

    fn two_counters(seed: u64) -> Simulation<Counter> {
        let mut sim = Simulation::new(seed, 100);
        for i in 0..2 {
            let peers = vec![ep(1 - i)];
            sim.add_actor(
                ep(i),
                Counter {
                    peers,
                    pings_sent: 0,
                    pings_got: 0,
                },
            );
        }
        sim
    }

    /// Pushes event `id` at `at` onto a queue whose messages are ids.
    fn push_id(q: &mut EventQueue<u64>, at: u64, id: u64) {
        q.push(
            at,
            Entry::Deliver {
                dst: 0,
                src: 0,
                size: 0,
                msg: id,
            },
        );
    }

    fn id_of(entry: &Entry<u64>) -> u64 {
        match entry {
            Entry::Deliver { msg, .. } => *msg,
            _ => unreachable!("the queue under test holds only ids"),
        }
    }

    /// Entries the wheel's bucket buffers can hold, spare list included.
    fn wheel_capacity<M>(q: &EventQueue<M>) -> usize {
        q.buckets.iter().chain(&q.spare).map(VecDeque::capacity).sum()
    }

    #[test]
    fn event_queue_pops_in_time_seq_order_across_recycled_buffers() {
        // Bursts above the recycling threshold land on shifting slots, so
        // buckets keep trading buffers through the spare list; scattered
        // pushes fall behind the cursor (overdue), inside the horizon and
        // beyond it (overflow), and some pops are undone and redone. The
        // queue must match a global (time, seq) order throughout.
        let mut rng = rapid_core::rng::Xoshiro256::seed_from_u64(11);
        let mut q = EventQueue::new();
        let mut model = std::collections::BTreeSet::new();
        let mut seq = 0u64;
        let mut push = |q: &mut EventQueue<u64>, model: &mut std::collections::BTreeSet<_>, at| {
            seq += 1;
            push_id(q, at, seq);
            model.insert((at, seq));
        };
        let mut now = 0u64;
        let mut recycled = 0usize;
        while now < 4 * WHEEL_SLOTS {
            let burst_at = now + rng.gen_range(2 * WHEEL_SLOTS);
            for _ in 0..2 * RECYCLE_MIN_CAP {
                push(&mut q, &mut model, burst_at);
            }
            for _ in 0..50 {
                let at = (now + rng.gen_range(3 * WHEEL_SLOTS)).saturating_sub(20);
                push(&mut q, &mut model, at);
            }
            now += 1 + rng.gen_range(1_500);
            while let Some((at, entry, src)) = q.pop(now) {
                if rng.gen_bool(0.125) {
                    q.unpop(at, entry, src);
                    continue;
                }
                let expected = model.pop_first().expect("the model holds the event");
                assert_eq!((at, id_of(&entry)), expected);
            }
            assert!(model.first().is_none_or(|&(at, _)| at > now));
            recycled = recycled.max(q.spare.len());
        }
        assert!(recycled > 0, "the run must exercise the spare list");
        while let Some((at, entry, _)) = q.pop(u64::MAX) {
            assert_eq!(Some((at, id_of(&entry))), model.pop_first());
        }
        assert!(model.is_empty());
    }

    #[test]
    fn wheel_capacity_follows_what_is_in_flight() {
        // 5,000-event bursts, one at a time, on a slot that shifts by 97
        // ms each burst, for more than three revolutions: without
        // recycling every slot would keep its burst's buffer.
        const BURST: u64 = 5_000;
        let bound = (MAX_SPARE_BUCKETS + 1) * (BURST as usize).next_power_of_two();
        let mut q = EventQueue::new();
        let mut id = 0u64;
        let mut at = 0u64;
        while at < 3 * WHEEL_SLOTS + 97 {
            for _ in 0..BURST {
                id += 1;
                push_id(&mut q, at, id);
            }
            let mut next = id - BURST + 1;
            while let Some((t, entry, _)) = q.pop(at) {
                assert_eq!((t, id_of(&entry)), (at, next));
                next += 1;
            }
            assert_eq!(next, id + 1, "the burst drained");
            let capacity = wheel_capacity(&q);
            assert!(
                capacity <= bound,
                "{capacity} entries of bucket capacity at {at} ms, bound {bound}"
            );
            at += 97;
        }
    }

    #[test]
    fn messages_flow_and_are_counted() {
        let mut sim = two_counters(1);
        sim.run_until(10_000);
        // ~100 ticks each; allow the tail in flight.
        for i in 0..2 {
            assert!(sim.actor(i).pings_got >= 95, "got {}", sim.actor(i).pings_got);
            assert_eq!(sim.traffic(i).bytes_out, sim.actor(i).pings_sent * 8);
            assert!(sim.traffic(i).msgs_in >= 95);
        }
    }

    #[test]
    fn crash_stops_receiving_and_sending() {
        let mut sim = two_counters(2);
        sim.schedule_fault(5_000, Fault::Crash(1));
        sim.run_until(20_000);
        let got0 = sim.actor(0).pings_got;
        assert!(got0 <= 52, "node 0 must stop hearing from crashed peer, got {got0}");
        let got1 = sim.actor(1).pings_got;
        assert!(got1 <= 52, "crashed node must not receive, got {got1}");
    }

    #[test]
    fn delayed_start_defers_first_tick() {
        let mut sim: Simulation<Counter> = Simulation::new(3, 100);
        sim.add_actor(
            ep(0),
            Counter {
                peers: vec![ep(1)],
                pings_sent: 0,
                pings_got: 0,
            },
        );
        sim.add_actor_at(
            ep(1),
            Counter {
                peers: vec![],
                pings_sent: 0,
                pings_got: 0,
            },
            5_000,
        );
        sim.run_until(1_000);
        assert_eq!(sim.actor(1).pings_got, 0, "not started: drops deliveries");
        sim.run_until(10_000);
        assert!(sim.actor(1).pings_got > 0, "receives after start");
    }

    #[test]
    fn sampling_collects_one_sample_per_second_per_actor() {
        let mut sim = two_counters(4);
        sim.run_until(10_500);
        // Samples at t=1000..10000: 10 instants x 2 actors.
        assert_eq!(sim.samples().len(), 20);
        assert!(sim.samples().windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }

    #[test]
    fn per_second_traffic_rates_roll() {
        let mut sim = two_counters(5);
        sim.run_until(10_000);
        let t = sim.traffic(0);
        assert!(t.per_second.len() >= 9);
        // Each full second carries ~10 ticks x 8 bytes out.
        let (_, out_rate) = t.per_second[5];
        assert!((64..=96).contains(&out_rate), "rate {out_rate}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = two_counters(seed);
            sim.net.set_ingress_drop(0, 0.3);
            sim.run_until(20_000);
            (sim.actor(0).pings_got, sim.actor(1).pings_got, sim.events_processed())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn ingress_drop_thins_delivery() {
        let mut sim = two_counters(8);
        sim.schedule_fault(0, Fault::IngressDrop(0, 0.8));
        sim.run_until(50_000);
        let got = sim.actor(0).pings_got as f64;
        assert!(got < 0.35 * 500.0, "80% drop must thin traffic, got {got}");
        assert!(got > 0.05 * 500.0, "some packets survive");
    }

    #[test]
    fn duplication_inflates_deliveries_not_sends() {
        let mut plain = two_counters(10);
        plain.run_until(20_000);
        let mut dup = two_counters(10);
        dup.schedule_fault(0, Fault::Duplicate(0.5));
        dup.run_until(20_000);
        assert_eq!(
            dup.traffic(0).msgs_out,
            plain.traffic(0).msgs_out,
            "senders transmit once either way"
        );
        let (got, base) = (dup.traffic(0).msgs_in, plain.traffic(0).msgs_in);
        assert!(
            got as f64 > base as f64 * 1.3 && (got as f64) < base as f64 * 1.7,
            "~50% duplicates expected: {got} vs {base}"
        );
    }

    #[test]
    fn scheduled_latency_swap_changes_delivery_profile() {
        let mut sim = two_counters(11);
        sim.schedule_fault(
            0,
            Fault::Latency(crate::net::LatencyDist::Pareto {
                base_ms: 10.0,
                scale_ms: 5.0,
                alpha: 1.2,
            }),
        );
        sim.run_until(10_000);
        // 10ms floor on every link: strictly fewer deliveries than the
        // sub-2ms LAN default would produce, but traffic still flows.
        assert!(sim.actor(0).pings_got > 0);
        assert!(sim.traffic(0).msgs_in >= 50);
    }

    #[test]
    fn shard_layout_is_a_partition() {
        for len in [1usize, 2, 5, 64, 257] {
            for nshards in 1..=8usize.min(len) {
                let mut start = 0;
                for s in 0..nshards {
                    let span = shard_span(len, nshards, s);
                    assert!(span >= 1, "empty shard {s} of {nshards} over {len}");
                    for idx in start..start + span {
                        assert_eq!(shard_of(len, nshards, idx), s, "len {len} shards {nshards}");
                    }
                    start += span;
                }
                assert_eq!(start, len, "blocks must cover all slots");
            }
        }
    }

    /// Order-sensitive fingerprint of a counter sim's full trace: event
    /// count, per-actor `(pings_sent, pings_got)`, traffic totals and
    /// per-second rates, and every sample.
    fn counter_trace(sim: &Simulation<Counter>) -> u64 {
        let mut h = rapid_core::hash::StableHasher::new("engine-counter-trace");
        h.write_u64(sim.events_processed());
        for i in 0..sim.len() {
            let (a, t) = (sim.actor(i), sim.traffic(i));
            h.write_u64(a.pings_sent)
                .write_u64(a.pings_got)
                .write_u64(t.msgs_in)
                .write_u64(t.msgs_out)
                .write_u64(t.bytes_in)
                .write_u64(t.bytes_out)
                .write_u64(t.per_second.len() as u64);
            for &(b_in, b_out) in &t.per_second {
                h.write_u64(b_in).write_u64(b_out);
            }
        }
        for s in sim.samples() {
            h.write_u64(s.t_ms)
                .write_u64(s.actor as u64)
                .write_u64(s.value.to_bits());
        }
        h.finish()
    }

    /// A 6-counter ring with a fault schedule touching every RNG-drawing
    /// fault class, run to 30 s.
    fn faulted_ring(seed: u64, threads: usize, force_fanout: bool) -> Simulation<Counter> {
        let mut sim: Simulation<Counter> = Simulation::new(seed, 100);
        for i in 0..6 {
            let peers = vec![ep((i + 1) % 6), ep((i + 2) % 6)];
            sim.add_actor(ep(i), Counter { peers, pings_sent: 0, pings_got: 0 });
        }
        sim.set_threads(threads);
        if force_fanout {
            sim.set_parallel_batch_min(1);
        }
        sim.schedule_fault(2_000, Fault::IngressDrop(0, 0.4));
        sim.schedule_fault(4_000, Fault::Duplicate(0.3));
        sim.schedule_fault(6_000, Fault::SlowNode(3, 5.0));
        sim.schedule_fault(8_000, Fault::Reorder(0.5, 30));
        sim.schedule_fault(10_000, Fault::Crash(5));
        sim.schedule_fault(12_000, Fault::LinkLoss(1, 2, 0.6));
        sim.schedule_fault(
            14_000,
            Fault::Latency(crate::net::LatencyDist::Exponential { base_ms: 2.0, mean_ms: 3.0 }),
        );
        sim.run_until(30_000);
        sim
    }

    /// `counter_trace(&faulted_ring(91, ..))`, recorded while
    /// `threads = 1` still ran a separate one-event-at-a-time loop.
    const GOLDEN_FAULTED_RING: u64 = 0x1889_22f1_e64a_c55c;

    #[test]
    fn faulted_ring_trace_is_pinned_at_every_shard_count() {
        for threads in 1..=4usize {
            // Inline path (small epochs stay on the driving thread)...
            let inline = counter_trace(&faulted_ring(91, threads, false));
            assert_eq!(inline, GOLDEN_FAULTED_RING, "{threads} threads, inline");
            // ...and the cross-thread fan-out path must agree too.
            let fanout = counter_trace(&faulted_ring(91, threads, true));
            assert_eq!(fanout, GOLDEN_FAULTED_RING, "{threads} threads, fan-out");
        }
    }

    #[test]
    fn parallel_engine_handles_mid_run_joiners() {
        let run = |threads: usize| {
            let mut sim: Simulation<Counter> = Simulation::new(17, 100);
            for i in 0..4 {
                let peers = vec![ep((i + 1) % 4)];
                sim.add_actor(ep(i), Counter { peers, pings_sent: 0, pings_got: 0 });
            }
            sim.set_threads(threads);
            sim.set_parallel_batch_min(1);
            sim.run_until(5_000);
            // A joiner added between runs, starting 2 s later.
            sim.add_actor_at(ep(4), Counter { peers: vec![ep(0)], pings_sent: 0, pings_got: 0 }, 7_000);
            sim.with_actor(0, |a, _| a.peers.push(ep(4)));
            sim.run_until(20_000);
            counter_trace(&sim)
        };
        assert_eq!(run(1), run(3));
    }

    /// An actor that records every metrics sweep it receives.
    struct Sweeper {
        peer: Option<Endpoint>,
        sweeps: Vec<(u64, NetSample)>,
    }

    impl Actor for Sweeper {
        type Msg = u64;

        fn on_tick(&mut self, _now: u64, out: &mut Outbox<u64>) {
            if let Some(p) = self.peer {
                out.send(p, 1);
            }
        }

        fn on_message(&mut self, _from: Endpoint, _msg: u64, _now: u64, _out: &mut Outbox<u64>) {}

        fn msg_size(_msg: &u64) -> usize {
            8
        }

        fn sample(&self) -> Option<f64> {
            None
        }

        fn on_metrics_sample(&mut self, now_ms: u64, net: NetSample) {
            self.sweeps.push((now_ms, net));
        }
    }

    fn sweeper_pair(threads: usize) -> Simulation<Sweeper> {
        let mut sim: Simulation<Sweeper> = Simulation::new(21, 100);
        sim.add_actor(ep(0), Sweeper { peer: Some(ep(1)), sweeps: Vec::new() });
        sim.add_actor(ep(1), Sweeper { peer: None, sweeps: Vec::new() });
        sim.set_threads(threads);
        if threads > 1 {
            sim.set_parallel_batch_min(1);
        }
        sim.set_metrics_interval(1_000);
        sim.run_until(10_500);
        sim
    }

    #[test]
    fn metrics_sweeps_fire_on_cadence_with_cumulative_counters() {
        let sim = sweeper_pair(1);
        for i in 0..2 {
            let sweeps = &sim.actor(i).sweeps;
            assert_eq!(sweeps.len(), 10, "sweeps at t=1000..10000");
            assert!(sweeps.iter().enumerate().all(|(k, s)| s.0 == (k as u64 + 1) * 1_000));
            // Counters are cumulative, hence monotone, and never exceed
            // the engine's final traffic totals.
            assert!(sweeps.windows(2).all(|w| w[0].1.msgs_out <= w[1].1.msgs_out));
            let last = sweeps.last().unwrap().1;
            assert!(last.msgs_out <= sim.traffic(i).msgs_out);
            assert!(last.bytes_in <= sim.traffic(i).bytes_in);
        }
        assert!(sim.actor(1).sweeps.last().unwrap().1.msgs_in > 0, "receiver saw traffic");
    }

    #[test]
    fn metrics_sweeps_are_identical_across_thread_counts() {
        let one = sweeper_pair(1);
        for threads in [2usize, 4] {
            let par = sweeper_pair(threads);
            for i in 0..2 {
                assert_eq!(par.actor(i).sweeps, one.actor(i).sweeps, "{threads} threads, actor {i}");
            }
        }
    }

    #[test]
    fn metrics_sweeps_default_off() {
        let mut sim: Simulation<Sweeper> = Simulation::new(22, 100);
        sim.add_actor(ep(0), Sweeper { peer: None, sweeps: Vec::new() });
        sim.run_until(5_000);
        assert!(sim.actor(0).sweeps.is_empty());
    }

    #[test]
    fn with_actor_routes_side_effect_messages() {
        let mut sim = two_counters(9);
        sim.run_until(1_000); // Let both actors start.
        sim.with_actor(0, |_a, out| out.send(ep(1), 100));
        sim.run_until(2_000);
        assert!(sim.actor(1).pings_got >= 100);
    }
}
