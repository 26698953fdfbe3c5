//! Benchmarks the `rapid-route` KV data plane on the simulator:
//! steady-state operation throughput plus the cost of a rebalance
//! (bytes moved, partitions copied, unavailability window) under crash
//! and partition faults, at N = 64 / 256 / 1024.
//!
//! ```text
//! cargo run --release -p bench --bin route_bench           # full sweep
//! cargo run --release -p bench --bin route_bench -- --quick
//! cargo run --release -p bench --bin route_bench -- --no-batch   # A/B: wire batching off
//! cargo run --release -p bench --bin route_bench -- --threads 4  # sharded sim engine
//! cargo run --release -p bench --bin route_bench -- --shards 4   # record kv_shards
//! cargo run --release -p bench --bin route_bench -- --bench-json > BENCH_route.json
//! cargo run --release -p bench --bin route_bench -- --quick --timeline t.jsonl
//! ```
//!
//! `--timeline FILE` turns on the deterministic metrics plane at a 1 s
//! cadence and writes each scale's per-node timeline (captured after
//! the steady workload, before fault injection) as JSONL, scales
//! concatenated in run order. Bit-identical at any `--threads` count.
//!
//! Throughput is wall-clock (how fast the engine pushes data-plane
//! operations end to end, membership traffic included); rebalance
//! metrics are virtual-time and deterministic for a given seed.
//!
//! Methodology note (changed with the smart-client work): all ops are
//! submitted through a co-hosted [`rapid_route::KvClient`] actor — a
//! view-subscribed client that routes each op directly to its partition
//! leader (zero forwarding hops). `steady_msgs_per_op_milli` (cluster +
//! client data-plane messages per completed op, x1000) is the routing-
//! efficiency headline.
//! Batches are pipelined (one outbox flush; ops sharing a leader share
//! a wire frame) and an op window ends as soon as every submitted op
//! resolved (capped at `OP_WINDOW_MS`). Latency percentiles are
//! *client-observed*. Numbers are not comparable to pre-client
//! BENCH_route.json files; A/B `--no-batch` on the same build instead.
//!
//! `--shards N` sets `Settings::kv_shards`, the thread-per-core shard
//! count of the *real* runtime's data plane, and stamps it into the
//! JSON so a report is comparable only against runs at the same count.
//! This bench hosts the sans-io actors on the deterministic simulator,
//! where every node is single-threaded by construction — the knob does
//! not change the numbers here, and on a single-core host it cannot
//! improve the real runtime either (see docs/PERF.md). It exists so
//! multi-core hosts can regenerate BENCH_route.json at their real
//! shard count without the diff tool flagging a config mismatch.

use std::time::Instant;

use rapid_core::obs::LatencyHist;
use rapid_core::settings::Settings;
use rapid_route::sim::{KvClusterBuilder, KvSimActor};
use rapid_route::{ClientOp, ClientStats, KvOutcome, KvStats, PlacementConfig};
use rapid_scenario::json::Json;
use rapid_sim::{Fault, Simulation};

const PARTITIONS: u32 = 256;
const REPLICATION: usize = 3;
const KEYS: usize = 1_000;
const OP_WINDOW_MS: u64 = 2_000;

struct FaultResult {
    faults: usize,
    detect_ms: u64,
    unavailability_ms: u64,
    bytes_moved: u64,
    partitions_moved: u64,
    handoffs: u64,
    lost: u64,
    repairs: u64,
    repair_bytes: u64,
    /// How long new owners waited for incoming partition state (virtual
    /// ms), merged across the cluster: p50/p99/max.
    handoff_wait: (u64, u64, u64),
}

fn spec() -> PlacementConfig {
    PlacementConfig {
        partitions: PARTITIONS,
        replication: REPLICATION,
    }
}

fn aggregate(sim: &Simulation<KvSimActor>) -> KvStats {
    let mut stats = KvStats::default();
    for i in 0..sim.len() {
        if sim.actor(i).is_client() {
            continue;
        }
        stats.absorb(sim.actor(i).kv_stats());
    }
    stats
}

/// The co-hosted client actor driving the workload.
fn client_idx(sim: &Simulation<KvSimActor>) -> usize {
    (0..sim.len())
        .find(|&i| sim.actor(i).is_client())
        .expect("bench clusters host a client")
}

fn client_stats(sim: &Simulation<KvSimActor>) -> ClientStats {
    *sim.actor(client_idx(sim)).client_stats().expect("client actor")
}

/// Runs a batch of ops through the client actor and returns the
/// outcomes. The batch is submitted pipelined (one outbox flush) and the
/// window ends as soon as every op resolved, capped at [`OP_WINDOW_MS`].
fn batch(sim: &mut Simulation<KvSimActor>, ops: &[(String, Option<String>)]) -> Vec<KvOutcome> {
    let via = client_idx(sim);
    let now = sim.now();
    let client_ops: Vec<ClientOp<'_>> = ops
        .iter()
        .map(|(key, val)| match val {
            Some(v) => ClientOp::Put { key, val: v },
            None => ClientOp::Get { key },
        })
        .collect();
    let reqs: Vec<u64> = sim.with_actor(via, |a, out| a.client_submit_ops(&client_ops, now, out));
    let min_req = reqs.first().copied().unwrap_or(0);
    let deadline = now + OP_WINDOW_MS;
    while sim.now() < deadline {
        let resolved = sim
            .actor(via)
            .completed
            .iter()
            .filter(|(r, _)| *r >= min_req)
            .count();
        if resolved >= reqs.len() {
            break;
        }
        let next = (sim.now() + 25).min(deadline);
        sim.run_until(next);
    }
    let completed = std::mem::take(&mut sim.actor_mut(via).completed);
    reqs.iter()
        .map(|req| {
            completed
                .iter()
                .find(|(r, _)| r == req)
                .map(|(_, o)| o.clone())
                .unwrap_or(KvOutcome::Failed)
        })
        .collect()
}

fn key(i: usize) -> String {
    format!("bench-{i:06}")
}

fn load_keys(sim: &mut Simulation<KvSimActor>, keys: usize) -> usize {
    let mut acked = 0;
    for chunk in (0..keys).collect::<Vec<_>>().chunks(500) {
        let ops: Vec<_> = chunk
            .iter()
            .map(|&i| (key(i), Some(format!("val-{i:06}"))))
            .collect();
        acked += batch(sim, &ops)
            .iter()
            .filter(|o| matches!(o, KvOutcome::Acked { .. }))
            .count();
    }
    acked
}

/// Members outside the faulted set all report `target` (a partitioned
/// minority cannot learn it was kicked, so it is excluded from the
/// detection predicate — the majority serving traffic is what matters).
fn converged(sim: &Simulation<KvSimActor>, target: usize, faulted: &[usize]) -> bool {
    use rapid_sim::Actor;
    let mut seen = 0;
    for i in 0..sim.len() {
        if sim.net.is_crashed(i) || faulted.contains(&i) {
            continue;
        }
        match sim.actor(i).sample() {
            Some(v) if (v - target as f64).abs() < 0.5 => seen += 1,
            Some(_) => return false,
            None => {}
        }
    }
    seen > 0
}

/// Injects a fault, then measures membership detection and the window
/// until every loaded key reads back `Found` again.
fn measure_fault(
    sim: &mut Simulation<KvSimActor>,
    keys: usize,
    survivors: usize,
    inject: impl FnOnce(&mut Simulation<KvSimActor>) -> Vec<usize>,
) -> FaultResult {
    let before = aggregate(sim);
    let fault_at = sim.now();
    let faulted = inject(sim);

    // Detection: run until the survivors converge on the shrunk view.
    let detect_deadline = fault_at + 600_000;
    while sim.now() < detect_deadline && !converged(sim, survivors, &faulted) {
        let next = (sim.now() + 1_000).min(detect_deadline);
        sim.run_until(next);
    }
    let detect_ms = sim.now() - fault_at;

    // Availability: sweep all keys until every one reads back.
    let avail_deadline = sim.now() + 600_000;
    let mut unavailability_ms = None;
    while sim.now() < avail_deadline {
        let ops: Vec<_> = (0..keys).map(|i| (key(i), None)).collect();
        let all_found = batch(sim, &ops)
            .iter()
            .all(|o| matches!(o, KvOutcome::Found { .. }));
        if all_found {
            unavailability_ms = Some(sim.now() - fault_at);
            break;
        }
    }
    let after = aggregate(sim);
    let mut handoff_hist = LatencyHist::new();
    for i in 0..sim.len() {
        if sim.actor(i).is_client() {
            continue;
        }
        handoff_hist.merge(sim.actor(i).kv().handoff_hist());
        handoff_hist.merge(sim.actor(i).kv().repair_hist());
    }
    let (h50, h99, _) = handoff_hist.percentiles();
    FaultResult {
        faults: faulted.len(),
        detect_ms,
        unavailability_ms: unavailability_ms.unwrap_or(u64::MAX),
        bytes_moved: after.bytes_moved - before.bytes_moved,
        partitions_moved: after.partitions_moved - before.partitions_moved,
        handoffs: after.handoffs_sent - before.handoffs_sent,
        lost: after.partitions_lost - before.partitions_lost,
        repairs: after.repairs_triggered - before.repairs_triggered,
        repair_bytes: after.repair_bytes - before.repair_bytes,
        handoff_wait: (h50, h99, handoff_hist.max()),
    }
}

fn fault_json(r: &FaultResult) -> Json {
    Json::obj(vec![
        ("faults", Json::uint(r.faults as u64)),
        ("detect_ms", Json::uint(r.detect_ms)),
        ("unavailability_ms", Json::uint(r.unavailability_ms)),
        ("bytes_moved", Json::uint(r.bytes_moved)),
        ("partitions_moved", Json::uint(r.partitions_moved)),
        ("handoffs", Json::uint(r.handoffs)),
        ("partitions_lost", Json::uint(r.lost)),
        ("repairs_triggered", Json::uint(r.repairs)),
        ("repair_bytes", Json::uint(r.repair_bytes)),
        ("handoff_wait_p50_ms", Json::uint(r.handoff_wait.0)),
        ("handoff_wait_p99_ms", Json::uint(r.handoff_wait.1)),
        ("handoff_wait_max_ms", Json::uint(r.handoff_wait.2)),
    ])
}

fn settings(batch_wire: bool, threads: usize, shards: usize, sample_ms: u64) -> Settings {
    Settings {
        batch_wire,
        threads,
        kv_shards: shards,
        obs_sample_ms: sample_ms,
        // Pipeline whole 500-op rounds: the bench measures the routing
        // fabric, not client-side queuing.
        client_window: 512,
        ..Settings::default()
    }
}

fn build(
    n: usize,
    seed: u64,
    batch_wire: bool,
    threads: usize,
    shards: usize,
    sample_ms: u64,
) -> Simulation<KvSimActor> {
    KvClusterBuilder::new(n, spec())
        .seed(seed)
        .settings(settings(batch_wire, threads, shards, sample_ms))
        .op_timeout_ms(OP_WINDOW_MS - 500)
        .clients(1)
        .build_static()
}

fn run_scale(
    n: usize,
    seed: u64,
    batch_wire: bool,
    threads: usize,
    shards: usize,
    sample_ms: u64,
) -> (Json, Vec<String>) {
    // Steady state + throughput.
    let mut sim = build(n, seed, batch_wire, threads, shards, sample_ms);
    sim.run_until(2_000);
    let acked = load_keys(&mut sim, KEYS);

    // Timed mixed workload: alternate get/overwrite batches. Snapshot
    // counters around it so the steady-state anti-entropy overhead
    // (digest chatter with no divergence to fix) is reported.
    let steady_before = aggregate(&sim);
    let client_before = client_stats(&sim);
    let t0 = Instant::now();
    let mut ops_done = 0usize;
    // 20 completion-bounded rounds (10k ops): long enough that wall
    // jitter on a shared box does not swamp the measurement.
    for round in 0..20 {
        let ops: Vec<_> = (0..500)
            .map(|i| {
                let k = key((round * 137 + i) % KEYS);
                if i % 2 == 0 {
                    (k, None)
                } else {
                    (k, Some(format!("re-{round}-{i}")))
                }
            })
            .collect();
        ops_done += batch(&mut sim, &ops).len();
    }
    let wall = t0.elapsed().as_secs_f64();
    let ops_per_sec = ops_done as f64 / wall.max(1e-9);
    // Per-op latency (virtual ms, *client-observed*: queuing, routing,
    // retries and backoffs included) over everything submitted so far.
    let ci = client_idx(&sim);
    let op_hist = sim.actor(ci).client().expect("client actor").op_hist().clone();
    let (op_p50, op_p99, op_p999) = op_hist.percentiles();
    // Timeline snapshot of the loaded, steady cluster — before fault
    // injection churns it. The workload above is completion-bounded and
    // spans well under one sample interval of virtual time, so idle the
    // sim to the next sample boundary first; otherwise the ops it just
    // pushed would sit in a never-sampled partial interval.
    let timeline = match sim.now().checked_div(sample_ms) {
        Some(intervals) => {
            sim.run_until((intervals + 1) * sample_ms);
            rapid_route::sim::timeline_lines(&sim)
        }
        None => Vec::new(),
    };
    let steady_after = aggregate(&sim);
    let client_after = client_stats(&sim);
    let steady_repairs = steady_after.repairs_triggered - steady_before.repairs_triggered;
    let steady_repair_bytes = steady_after.repair_bytes - steady_before.repair_bytes;
    let steady_msgs = steady_after.msgs_sent - steady_before.msgs_sent;
    let steady_frames = steady_after.frames_sent - steady_before.frames_sent;
    let steady_wire_bytes = steady_after.wire_bytes - steady_before.wire_bytes;
    let steady_client_msgs = client_after.msgs_sent - client_before.msgs_sent;
    let steady_client_shed = client_after.shed - client_before.shed;
    let steady_client_retries = client_after.retries - client_before.retries;
    // The routing-efficiency headline: every data-plane message the
    // steady window put on the wire (cluster forwards, replication,
    // verdicts, plus the client's own sends), per completed op.
    let steady_msgs_per_op_milli = ((steady_msgs + steady_client_msgs) * 1000)
        .checked_div(ops_done as u64)
        .unwrap_or(0);

    // Crash ~1.5% of the cluster (at least one, well under RF).
    let crash_count = (n / 64).max(1);
    let crash = measure_fault(&mut sim, KEYS, n - crash_count, |sim| {
        let at = sim.now() + 10;
        // Spread victims across the id space.
        let victims: Vec<usize> = (0..crash_count).map(|c| 1 + c * (n / crash_count)).collect();
        for &v in &victims {
            sim.schedule_fault(at, Fault::Crash(v));
        }
        sim.run_until(at + 1);
        victims
    });

    // Fresh cluster for the partition fault (a clean baseline).
    let mut sim = build(n, seed ^ 0x9E37, batch_wire, threads, shards, sample_ms);
    sim.run_until(2_000);
    load_keys(&mut sim, KEYS);
    let part_count = (n / 64).max(1);
    let partition = measure_fault(&mut sim, KEYS, n - part_count, |sim| {
        let group: Vec<usize> = (0..part_count).map(|c| 2 + c * 3).collect();
        let at = sim.now() + 10;
        sim.schedule_fault(at, Fault::Partition(group.clone()));
        sim.run_until(at + 1);
        group
    });

    let msgs_per_frame = steady_msgs as f64 / steady_frames.max(1) as f64;
    eprintln!(
        "n={n}: {acked}/{KEYS} loaded, {ops_per_sec:.0} ops/s wall, \
         op latency p50={op_p50} p99={op_p99} p999={op_p999} (virtual ms, client-observed), \
         {msgs_per_frame:.2} kv msgs/frame, {:.2} msgs/op, \
         shed={steady_client_shed} retries={steady_client_retries}, \
         crash: {}B moved / {}ms unavailable, partition: {}B moved / {}ms unavailable",
        steady_msgs_per_op_milli as f64 / 1000.0,
        crash.bytes_moved, crash.unavailability_ms, partition.bytes_moved,
        partition.unavailability_ms
    );

    let row = Json::obj(vec![
        ("n", Json::uint(n as u64)),
        ("load_acked", Json::uint(acked as u64)),
        ("steady_ops_per_sec_wall", Json::Float(ops_per_sec)),
        ("op_latency_count", Json::uint(op_hist.count())),
        ("op_latency_p50_ms", Json::uint(op_p50)),
        ("op_latency_p99_ms", Json::uint(op_p99)),
        ("op_latency_p999_ms", Json::uint(op_p999)),
        ("op_latency_max_ms", Json::uint(op_hist.max())),
        ("steady_repairs", Json::uint(steady_repairs)),
        ("steady_repair_bytes", Json::uint(steady_repair_bytes)),
        ("steady_kv_msgs", Json::uint(steady_msgs)),
        ("steady_kv_frames", Json::uint(steady_frames)),
        ("steady_kv_wire_bytes", Json::uint(steady_wire_bytes)),
        (
            "steady_kv_msgs_per_frame_milli",
            Json::uint((steady_msgs * 1000).checked_div(steady_frames).unwrap_or(0)),
        ),
        ("steady_client_msgs", Json::uint(steady_client_msgs)),
        ("steady_client_shed", Json::uint(steady_client_shed)),
        ("steady_client_retries", Json::uint(steady_client_retries)),
        ("steady_msgs_per_op_milli", Json::uint(steady_msgs_per_op_milli)),
        ("crash", fault_json(&crash)),
        ("partition", fault_json(&partition)),
    ]);
    (row, timeline)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_out = args.iter().any(|a| a == "--bench-json");
    let batch_wire = !args.iter().any(|a| a == "--no-batch");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .map(|pos| {
            args.get(pos + 1)
                .and_then(|s| s.parse().ok())
                .filter(|&t: &usize| t >= 1)
                .expect("--threads needs a positive integer")
        })
        .unwrap_or(1);
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .map(|pos| {
            args.get(pos + 1)
                .and_then(|s| s.parse().ok())
                .filter(|&t: &usize| t >= 1 && t <= PARTITIONS as usize)
                .expect("--shards needs a positive integer no larger than the partition count")
        })
        .unwrap_or(1);
    let timeline_path = args
        .iter()
        .position(|a| a == "--timeline")
        .map(|pos| {
            args.get(pos + 1)
                .cloned()
                .expect("--timeline needs a file path")
        });
    let sample_ms = if timeline_path.is_some() { 1_000 } else { 0 };
    let scales: &[usize] = if quick { &[64] } else { &[64, 256, 1024] };

    let mut results = Vec::new();
    let mut timeline = Vec::new();
    for (i, &n) in scales.iter().enumerate() {
        let (row, lines) = run_scale(n, 0xB0 + i as u64, batch_wire, threads, shards, sample_ms);
        results.push(row);
        timeline.extend(lines);
    }
    if let Some(path) = &timeline_path {
        let mut out = timeline.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        std::fs::write(path, out).expect("write timeline");
        eprintln!("wrote {path}");
    }
    let doc = Json::obj(vec![
        ("bench", Json::Str("route_bench".into())),
        ("batch_wire", Json::Bool(batch_wire)),
        ("threads", Json::uint(threads as u64)),
        ("shards", Json::uint(shards as u64)),
        ("partitions", Json::uint(PARTITIONS as u64)),
        ("replication", Json::uint(REPLICATION as u64)),
        ("keys", Json::uint(KEYS as u64)),
        ("op_window_ms", Json::uint(OP_WINDOW_MS)),
        ("results", Json::Array(results)),
    ]);
    if json_out {
        println!("{}", doc.to_pretty(2));
    }
}
