//! The per-layer ledger: one small measurement per mechanism, each
//! through the layer's public functions, run in the traced pass only.
//!
//! Every timing is the median of several repetitions of a loop long
//! enough to dwarf the clock read, with inputs and results passed
//! through `black_box`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;
use rapid_core::alert::Alert;
use rapid_core::config::{ConfigId, Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::obs::LatencyHist;
use rapid_core::outbox::Outbox;
use rapid_core::wire::{self, Message};
use rapid_route::kv::{KvMsg, KvNode, KvOut};
use rapid_route::placement::{partition_of, Placement};
use rapid_sim::cluster::all_report;
use rapid_sim::engine::{Actor, Outbox as SimOutbox};
use rapid_sim::{RapidClusterBuilder, Simulation};
use rapid_transport::AppPeer;

use crate::gen::Rng;
use crate::stats;
use crate::tcp::ROUTE;

/// Named results, in ledger order.
pub type Ledger = Vec<(&'static str, f64)>;

const REPS: usize = 5;

/// Median over [`REPS`] of the nanoseconds one call of `f` takes, each
/// repetition timing `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let mut reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    stats::median(stats::sorted(&mut reps))
}

fn members(n: usize) -> Vec<Member> {
    (0..n)
        .map(|i| {
            Member::new(
                NodeId::from_u128(i as u128 + 1),
                Endpoint::new(format!("ledger-{i}"), 7_100),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fixed kernels: how fast is the machine right now
// ---------------------------------------------------------------------

/// Millions of xorshift steps per second: pure ALU, no memory.
pub fn calib_compute_mops() -> f64 {
    let steps = 40_000_000u64;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    steps as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Millions of dependent loads per second over a 32 MiB cycle: memory
/// latency, which shared caches and noisy neighbours move.
pub fn calib_memwalk_mops() -> f64 {
    let n = 4 << 20;
    let mut next: Vec<u32> = (0..n as u32).collect();
    // Sattolo's shuffle: one cycle through every slot.
    let mut rng = Rng::new(0xCA11B);
    for i in (1..n).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let steps = 4_000_000u64;
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..steps {
        at = next[at as usize];
    }
    black_box(at);
    steps as f64 / t.elapsed().as_secs_f64() / 1e6
}

// ---------------------------------------------------------------------
// kv, placement, core, obs
// ---------------------------------------------------------------------

/// `kv.tick_ns`, `kv.digest_snapshot_us` on a node whose store holds the
/// workload's keys (the replayed mesh's node 0).
pub fn kv_store_costs(node: &mut KvNode, ledger: &mut Ledger) {
    let mut out: Vec<KvOut> = Vec::new();
    let mut now = 10_000_000u64;
    let tick = ns_per_call(200, || {
        now += 20;
        node.on_tick(now, &mut out);
        out.clear();
    });
    ledger.push(("kv.tick_ns", tick));
    let digest = ns_per_call(50, || {
        black_box(node.digest_snapshot());
    });
    ledger.push(("kv.digest_snapshot_us", digest / 1e3));
}

pub fn placement_costs(keys: &[&str], ledger: &mut Ledger) {
    let small = Configuration::bootstrap(members(5));
    let large = Configuration::bootstrap(members(1024));
    let n5 = ns_per_call(200, || {
        black_box(Placement::compute(black_box(&small), &ROUTE));
    });
    let n1024 = ns_per_call(3, || {
        black_box(Placement::compute(black_box(&large), &ROUTE));
    });
    ledger.push(("placement.compute_n5_us", n5 / 1e3));
    ledger.push(("placement.compute_n1024_us", n1024 / 1e3));
    let placement = Placement::compute(&small, &ROUTE);
    let mut i = 0;
    let lookup = ns_per_call(200_000, || {
        let key = keys[i % keys.len()];
        i += 1;
        black_box(placement.leader(partition_of(black_box(key), ROUTE.partitions)));
    });
    ledger.push(("placement.lookup_ns", lookup));
}

pub fn core_outbox_costs(value_bytes: usize, ledger: &mut Ledger) {
    let peers: Vec<Endpoint> = members(3).iter().map(|m| m.addr).collect();
    let msg = KvMsg::CPut {
        req: 1,
        key: "k00000000-000000".to_string(),
        val: "v".repeat(value_bytes),
    };
    for (name, per_peer) in [
        ("core.outbox_push_flush_1_ns", 1usize),
        ("core.outbox_push_flush_64_ns", 64),
    ] {
        let mut outbox: Outbox<KvMsg> = Outbox::new(true);
        // Messages are built outside the timed region; cloning a 1 KiB
        // value would otherwise swamp the outbox's own work.
        let per_round = (per_peer * peers.len()) as f64;
        let rounds = (20_000 / per_peer) as u64;
        let mut reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let mut batches: Vec<Vec<KvMsg>> = (0..rounds)
                    .map(|_| vec![msg.clone(); per_peer * peers.len()])
                    .collect();
                let t = Instant::now();
                for batch in batches.drain(..) {
                    for (i, m) in batch.into_iter().enumerate() {
                        outbox.push(peers[i % peers.len()], m);
                    }
                    outbox.flush(|to, m| {
                        black_box((to, m));
                    });
                }
                t.elapsed().as_nanos() as f64 / (rounds as f64 * per_round)
            })
            .collect();
        ledger.push((name, stats::median(stats::sorted(&mut reps))));
    }
}

pub fn core_wire_costs(ledger: &mut Ledger) {
    let ms = members(12);
    let probe = Message::Probe { seq: 123_456 };
    let alerts: Vec<Alert> = (0..10)
        .map(|i| Alert::remove(ms[i].id, ms[11].id, ms[11].addr, ConfigId(77), i as u8))
        .collect();
    let batch = Message::AlertBatch {
        config_id: ConfigId(77),
        alerts: Arc::from(alerts),
    };
    for (enc_name, dec_name, msg, iters) in [
        (
            "core.wire_encode_probe_ns",
            "core.wire_decode_probe_ns",
            &probe,
            200_000u64,
        ),
        (
            "core.wire_encode_alert_ns",
            "core.wire_decode_alert_ns",
            &batch,
            50_000,
        ),
    ] {
        let mut buf = Vec::new();
        let enc = ns_per_call(iters, || {
            buf.clear();
            wire::encode(black_box(msg), &mut buf);
            black_box(&buf);
        });
        let dec = ns_per_call(iters, || {
            black_box(wire::decode(black_box(&buf)).expect("own encoding decodes"));
        });
        ledger.push((enc_name, enc));
        ledger.push((dec_name, dec));
    }
}

pub fn obs_costs(ledger: &mut Ledger) {
    let mut hist = LatencyHist::new();
    let mut v = 1u64;
    let record = ns_per_call(2_000_000, || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(black_box(v >> 44));
    });
    black_box(hist.count());
    ledger.push(("obs.hist_record_ns", record));
}

// ---------------------------------------------------------------------
// transport and the hosts' channel hop
// ---------------------------------------------------------------------

fn start_peer() -> Result<AppPeer, String> {
    AppPeer::start(Endpoint::new("127.0.0.1", 0)).map_err(|e| format!("starting an AppPeer: {e}"))
}

/// `AppPeer` ↔ `AppPeer` over loopback: echo round trips with one frame
/// outstanding, a one-way flood, first-contact latency and the cost of
/// sending to a listener that is gone.
pub fn transport_costs(ledger: &mut Ledger) -> Result<(), String> {
    let a = start_peer()?;
    let b = start_peer()?;
    let b_addr = *b.addr();
    let wait = Duration::from_secs(5);
    // The echo side owns `b`: frames starting with 'e' go straight back,
    // an empty frame says stop.
    let echo = std::thread::spawn(move || {
        while let Ok((from, payload)) = b.events().recv_timeout(Duration::from_secs(20)) {
            match payload.first() {
                None => break,
                Some(b'e') => b.send_app(from, payload),
                Some(_) => {}
            }
        }
        b.shutdown_now();
    });
    let measured = (|| -> Result<(), String> {
        for (p50_name, p99_name, size) in [
            (
                "transport.hop_64b_p50_us",
                "transport.hop_64b_p99_us",
                64usize,
            ),
            ("transport.hop_1k_p50_us", "transport.hop_1k_p99_us", 1024),
        ] {
            let frame = vec![b'e'; size];
            let mut hops = Vec::new();
            let started = Instant::now();
            // At least 1100 trips so the 99th percentile has ten samples
            // beyond it, unless hops are so slow that 1.5 s pass first.
            while started.elapsed() < Duration::from_millis(1_500)
                && (hops.len() < 1_100 || started.elapsed() < Duration::from_millis(300))
            {
                let t = Instant::now();
                a.send_app(b_addr, frame.clone());
                a.events()
                    .recv_timeout(wait)
                    .map_err(|_| "echo frame lost")?;
                hops.push(t.elapsed().as_nanos() as f64 / 2e3);
            }
            stats::sorted(&mut hops);
            ledger.push((p50_name, stats::percentile(&hops, 50.0).unwrap_or(0.0)));
            ledger.push((p99_name, stats::percentile(&hops, 99.0).unwrap_or(0.0)));
        }
        // One-way flood of 1 KiB frames. A peer's send queue holds 4096
        // frames and drops beyond that, so the flood goes out in windows
        // of 1024, each closed by a frame the far side echoes; the next
        // window but one waits for that echo. Two windows stay in
        // flight, so the pipe never drains.
        let (windows, per_window) = (32u64, 1024u64);
        let frame = vec![b'f'; 1024];
        let t = Instant::now();
        for w in 0..windows {
            for _ in 0..per_window {
                a.send_app(b_addr, frame.clone());
            }
            a.send_app(b_addr, vec![b'e'; 8]);
            if w >= 1 {
                a.events()
                    .recv_timeout(wait)
                    .map_err(|_| "flood window not acknowledged")?;
            }
        }
        a.events()
            .recv_timeout(wait)
            .map_err(|_| "flood window not acknowledged")?;
        ledger.push((
            "transport.stream_frames_per_s",
            (windows * per_window) as f64 / t.elapsed().as_secs_f64(),
        ));

        // First contact: connect, spawn the writer, deliver one frame.
        let mut firsts = Vec::new();
        for _ in 0..5 {
            let fresh = start_peer()?;
            let t = Instant::now();
            a.send_app(*fresh.addr(), vec![b'c'; 64]);
            let got = fresh.events().recv_timeout(wait);
            firsts.push(t.elapsed().as_nanos() as f64 / 1e3);
            fresh.shutdown_now();
            got.map_err(|_| "first frame to a fresh peer lost")?;
        }
        ledger.push((
            "transport.connect_us",
            stats::median(stats::sorted(&mut firsts)),
        ));

        // A listener that is gone: how long a `send_app` holds its caller.
        let gone = start_peer()?;
        let gone_addr = *gone.addr();
        gone.shutdown_now();
        let mut worst = 0f64;
        for _ in 0..20 {
            let t = Instant::now();
            a.send_app(gone_addr, vec![b'd'; 64]);
            worst = worst.max(t.elapsed().as_secs_f64() * 1e3);
            std::thread::sleep(Duration::from_millis(5));
        }
        ledger.push(("transport.dead_peer_send_ms", worst));
        Ok(())
    })();
    a.send_app(b_addr, Vec::new());
    let joined = echo.join();
    a.shutdown_now();
    measured?;
    joined.map_err(|_| "the echo thread panicked".to_string())
}

/// The hop the real hosts pay between threads: a send on the shim
/// channel until a `recv_timeout(5 ms)` on the other side returns.
pub fn chan_hop_us() -> f64 {
    let (to_tx, to_rx) = bounded::<Instant>(16);
    let (back_tx, back_rx) = bounded::<f64>(16);
    std::thread::scope(|s| {
        s.spawn(move || loop {
            match to_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(sent) => {
                    if back_tx
                        .send(sent.elapsed().as_nanos() as f64 / 1e3)
                        .is_err()
                    {
                        return;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
        });
        let mut hops = Vec::new();
        for _ in 0..2_000 {
            // Let the receiver get back into its blocking receive.
            std::thread::sleep(Duration::from_micros(100));
            if to_tx.send(Instant::now()).is_err() {
                break;
            }
            match back_rx.recv_timeout(Duration::from_secs(1)) {
                Ok(us) => hops.push(us),
                Err(_) => break,
            }
        }
        drop(to_tx);
        stats::sorted(&mut hops);
        stats::percentile(&hops, 50.0).unwrap_or(0.0)
    })
}

// ---------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------

/// An actor that passes every token it receives to the next actor: the
/// engine's own cost per event with no protocol on top.
struct RingActor {
    next: Endpoint,
}

impl Actor for RingActor {
    type Msg = u64;

    fn on_tick(&mut self, _now: u64, _out: &mut SimOutbox<u64>) {}

    fn on_message(&mut self, _from: Endpoint, msg: u64, _now: u64, out: &mut SimOutbox<u64>) {
        out.send(self.next, msg + 1);
    }

    fn msg_size(_msg: &u64) -> usize {
        8
    }

    fn sample(&self) -> Option<f64> {
        None
    }
}

/// `sim.engine_ns_per_event`: a ring of `n` null actors with one token
/// per actor in flight.
pub fn sim_engine_ns_per_event(n: usize) -> f64 {
    let mut sim: Simulation<RingActor> = Simulation::new(7, 100);
    let addr = |i: usize| Endpoint::new(format!("ring-{i}"), 4_000);
    for i in 0..n {
        sim.add_actor(
            addr(i),
            RingActor {
                next: addr((i + 1) % n),
            },
        );
    }
    for i in 0..n {
        sim.with_actor(i, |a, out| out.send(a.next, 0));
    }
    sim.run_until(200);
    let events = sim.events_processed();
    let t = Instant::now();
    sim.run_until(sim.now() + 1_000);
    t.elapsed().as_nanos() as f64 / (sim.events_processed() - events).max(1) as f64
}

/// Wall nanoseconds per event of a converged Rapid cluster of `n` over
/// `virtual_ms` of steady state.
pub fn sim_rapid_ns_per_event(n: usize, virtual_ms: u64) -> Result<f64, String> {
    let mut sim = RapidClusterBuilder::new(n).seed(42).build_bootstrap();
    sim.run_until_pred(1_200_000, |s| all_report(s, n))
        .ok_or("ledger cluster did not converge")?;
    let events = sim.events_processed();
    let t = Instant::now();
    sim.run_until(sim.now() + virtual_ms);
    Ok(t.elapsed().as_nanos() as f64 / (sim.events_processed() - events).max(1) as f64)
}
