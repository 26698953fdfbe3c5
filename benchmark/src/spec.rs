//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each should
//! move. `BENCHMARK.json` at the repo root is generated from these
//! tables (`--spec`) and a unit test keeps the two equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The percentile `op_tail_us` reports on this workload: the 99th
    /// wherever a run holds the 1000 samples it needs.
    pub tail_pct: f64,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// How the value is estimated, per kind of workload.
    pub estimator: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What it measures and which end-to-end metric it should move, on
    /// which workload.
    pub moves: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 12;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "tcp_lat",
        why: "3 nodes, 1024 keys x 64 B, 50/50, closed loop with 1 outstanding: the latency floor, set by host-loop wake-ups and transport hops; codec and KvNode do almost nothing",
        tail_pct: 95.0,
    },
    Workload {
        name: "tcp_put_sat",
        why: "1024 keys x 1 KiB, all puts, closed loop with 4096 outstanding: CPU-bound, so codec, KvNode replication, outbox batching and socket writes dominate and polls amortise away",
        tail_pct: 99.0,
    },
    Workload {
        name: "tcp_get_sat",
        why: "same store, all gets, 4096 outstanding: 1 server message per op instead of 5 and no replication, so a put-path gain that taxes reads shows here",
        tail_pct: 99.0,
    },
    Workload {
        name: "tcp_put_bigstore",
        why: "as tcp_put_sat with 4096 keys x 1 KiB per replica: per-tick whole-store work (digest_snapshot, on_tick) dominates, which tcp_put_sat bypasses",
        tail_pct: 99.0,
    },
    Workload {
        name: "tcp_crash",
        why: "5 nodes, 50/50, open loop at 500 ops/s timed from due time, node 4 hard-stopped a third into the window: failure detection, cut, consensus, placement and client re-routing on real TCP",
        tail_pct: 99.0,
    },
    Workload {
        name: "sim_churn",
        why: "simulator: bootstrap 4096 nodes, steady 5 s virtual slices, crash 40 at once: join path, steady probe path and multi-node cut detection at the paper's scale",
        tail_pct: 99.0,
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: "median of 3 set-ups per run. TCP: form the cluster, subscribe the client, preload every key. sim_churn: build and bootstrap until all N report N",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        estimator: "saturated closed loops: median of the per-second counts of successful completions over the seconds of all three clusters. tcp_lat: successes / window. tcp_crash: ops that succeeded within 50 ms of their due time / window. sim_churn: median over the steady slices of events per wall second",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        estimator: "time from begin_put/begin_get (open loop: from the due time) to a successful outcome, retries included, on the bench's clock: median of the per-second medians on the saturated workloads, median of the pooled samples on tcp_lat and tcp_crash. sim_churn: median over survivors of virtual time from the crash to installing the survivors' view",
    },
    EndToEnd {
        name: "op_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        estimator: "99th percentile of the same samples by nearest rank (saturated workloads: median of the per-second 99th percentiles); on tcp_lat the 95th, because 12 s at one outstanding op hold about 500 samples and a percentile is reported only with 10 samples beyond it. On tcp_crash this is the stall an op in flight to the victim sees",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        estimator: "VmHWM of the benchmark process when the workload ends",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // Scenario metrics that only some workloads have; the contract wants
    // every end-to-end metric from every workload, so they live here.
    layer("failed_share", "ratio", Lower, "attempts that failed, timed out or were dropped / attempts; expected 0 outside tcp_crash"),
    layer("slo_miss_share", "ratio", Lower, "tcp_crash: ops failed or later than 50 ms from due / ops due -> ops_per_s on tcp_crash"),
    layer("unavail_ms", "ms", Lower, "tcp_crash: crash -> due time of the first op that starts 50 on-time successes in a row on victim-led keys -> op_tail_us, ops_per_s on tcp_crash"),
    layer("view_changes", "count", Lower, "views a survivor installed from the crash to the end, max over survivors; the paper's claim is exactly 1 (tcp_crash, sim_churn)"),
    layer("view_change_ms", "ms", Lower, "sim_churn: crash -> last survivor installs, virtual, exact for a seed -> op_tail_us on sim_churn"),
    layer("converge_ms", "ms", Lower, "sim_churn: bootstrap start -> all N report N, virtual, exact for a seed"),
    layer("sim_events_per_s", "1/s", Higher, "sim_churn: the value reported as ops_per_s, under the simulator's own name"),
    layer("wire_bytes_node_s", "B/s", Lower, "sim_churn: steady-window mean bytes sent per node per virtual second (paper table 2), exact"),
    // Every workload has it, but it holds no bound on this box: a timed
    // wake-up costs a light workload (tcp_lat, tcp_crash) half again as
    // much kernel time for some 15 s after a saturating run as it does
    // after a quiet one (baseline/cpu_carry_over.txt).
    layer("cpu_us_per_op", "us", Lower, "median over the seconds (sim_churn: steady slices) of the window of process CPU, summed over /proc/self/task/*/schedstat, per successful op (sim_churn: per event); servers, client and generator -> ops_per_s on the CPU-bound tcp_*_sat"),
    // client (rapid-route::client)
    layer("client.submit_ns", "ns", Lower, "KvClient::submit_ops self time per op -> cpu_us_per_op, ops_per_s on tcp_*_sat; nothing on tcp_lat"),
    layer("client.on_reply_ns", "ns", Lower, "KvClient::on_message self time per verdict -> cpu_us_per_op, ops_per_s on tcp_*_sat"),
    layer("client.msgs_per_op", "count", Lower, "client messages per successful op, expected 1.0 -> op_p50_us"),
    layer("client.retries_per_kop", "count", Lower, "client re-sends per 1000 ops -> op_tail_us, unavail_ms on tcp_crash"),
    layer("client.shed_per_kop", "count", Lower, "Overloaded verdicts per 1000 ops -> failed_share; expected 0, admission is raised"),
    // kv (rapid-route::kv)
    layer("kv.encode_ns", "ns", Lower, "kv::encode (with the host's buffer allocation) per logical message at the workload's value size -> ops_per_s, cpu_us_per_op on tcp_put_sat vs tcp_get_sat"),
    layer("kv.decode_ns", "ns", Lower, "kv::decode per logical message -> ops_per_s, cpu_us_per_op on tcp_*_sat"),
    layer("kv.leader_put_ns", "ns", Lower, "KvNode::on_message self time per CPut at the leader -> ops_per_s on tcp_put_sat; 0 on tcp_get_sat"),
    layer("kv.replica_put_ns", "ns", Lower, "KvNode::on_message self time per Replicate -> ops_per_s on tcp_put_sat"),
    layer("kv.ack_ns", "ns", Lower, "KvNode::on_message self time per RepAck at the leader -> ops_per_s on tcp_put_sat"),
    layer("kv.get_ns", "ns", Lower, "KvNode::on_message self time per CGet -> ops_per_s on tcp_get_sat; 0 on put-only workloads"),
    layer("kv.tick_ns", "ns", Lower, "KvNode::on_tick on a node holding the workload's store -> ops_per_s on tcp_put_bigstore, cpu_us_per_op on tcp_lat; no move on tcp_put_sat"),
    layer("kv.digest_snapshot_us", "us", Lower, "KvNode::digest_snapshot over the workload's store (the real host calls it every 20 ms) -> ops_per_s on tcp_put_bigstore"),
    layer("kv.msgs_per_op", "count", Lower, "server messages per successful op from KvStats (5 per put, 1 per get) -> cpu_us_per_op"),
    layer("kv.frames_per_op", "count", Lower, "server wire frames per successful op -> cpu_us_per_op on tcp_*_sat"),
    layer("kv.msgs_per_frame", "count", Higher, "outbox coalescing on the servers -> ops_per_s on tcp_*_sat; 1.0 on tcp_lat"),
    layer("kv.wire_bytes_per_op", "B", Lower, "server bytes on the wire per successful op"),
    layer("kv.shed_ops", "count", Lower, "ops refused by admission control; expected 0"),
    layer("kv.repairs", "count", Lower, "anti-entropy pulls triggered during the window -> ops_per_s on tcp_put_* (repair competes with writes)"),
    // placement
    layer("placement.compute_n5_us", "us", Lower, "Placement::compute, 5 members, 64 partitions -> unavail_ms on tcp_crash"),
    layer("placement.compute_n1024_us", "us", Lower, "Placement::compute, 1024 members -> view-change cost at scale"),
    layer("placement.lookup_ns", "ns", Lower, "partition_of + leader per key -> client.submit_ns"),
    // core (rapid-core)
    layer("core.outbox_push_flush_1_ns", "ns", Lower, "Outbox push + flush per message, 1 message per peer -> op_p50_us on tcp_lat"),
    layer("core.outbox_push_flush_64_ns", "ns", Lower, "Outbox push + flush per message, 64 per peer -> ops_per_s on tcp_*_sat"),
    layer("core.wire_encode_probe_ns", "ns", Lower, "wire::encode of a probe -> ops_per_s on sim_churn (sizing), idle CPU on TCP"),
    layer("core.wire_decode_probe_ns", "ns", Lower, "wire::decode of a probe"),
    layer("core.wire_encode_alert_ns", "ns", Lower, "wire::encode of a batch of 10 alerts -> view_change_ms wall cost"),
    layer("core.wire_decode_alert_ns", "ns", Lower, "wire::decode of a batch of 10 alerts"),
    layer("core.view_change_wall_ms", "ms", Lower, "tcp_crash: crash -> every survivor reports the smaller view, wall clock (0.7-0.9 s at the seed, too jittery for a bound) -> unavail_ms"),
    layer("core.detect_to_install_p50_ms", "ms", Lower, "sim_churn: median first alert -> install over survivors, virtual -> view_change_ms"),
    layer("core.classic_rounds", "count", Lower, "sim_churn: view changes decided by classic Paxos after the crash, max over survivors; 0 = fast path"),
    layer("core.msgs_per_node_s", "1/s", Lower, "sim_churn: steady messages sent per node per virtual second -> wire_bytes_node_s, ops_per_s"),
    // transport (rapid-transport, AppPeer <-> AppPeer)
    layer("transport.hop_64b_p50_us", "us", Lower, "echo round trip / 2, 64 B, 1 outstanding -> op_p50_us on tcp_lat (4 hops per put, 2 per get)"),
    layer("transport.hop_64b_p99_us", "us", Lower, "tail of the same -> op_tail_us on tcp_lat"),
    layer("transport.hop_1k_p50_us", "us", Lower, "echo round trip / 2, 1 KiB"),
    layer("transport.hop_1k_p99_us", "us", Lower, "tail of the same"),
    layer("transport.stream_frames_per_s", "1/s", Higher, "one-way flood of 1 KiB frames -> ops_per_s on tcp_*_sat"),
    layer("transport.connect_us", "us", Lower, "first frame to a never-contacted peer: connect, writer spawn, delivery -> setup_s, unavail_ms"),
    layer("transport.dead_peer_send_ms", "ms", Lower, "longest a send_app to a closed listener held its caller -> unavail_ms"),
    layer("transport.quota_dropped", "count", Lower, "frames dropped by the per-peer quota; expected 0"),
    // real (rapid-route::real)
    layer("real.submit_ns", "ns", Lower, "begin_put/begin_get on the calling thread -> bench.gen_cpu_share, ops_per_s on tcp_*_sat"),
    layer("real.chan_hop_us", "us", Lower, "shim channel send -> recv_timeout(5 ms) wake on another thread -> op_p50_us on tcp_lat"),
    layer("real.idle_cpu_pct", "%", Lower, "CPU of a formed, preloaded, idle cluster, percent of one core over 1.5 s -> cpu_us_per_op on tcp_lat and tcp_crash"),
    layer("real.inbox_depth_max", "count", Lower, "deepest admission inbox seen, sampled every 100 ms -> op_tail_us on tcp_*_sat"),
    layer("real.shard_depth_max", "count", Lower, "deepest per-shard inbox seen"),
    layer("real.host_wait_p50_us", "us", Lower, "residual: op_p50_us - blocking-path self times - hops x transport hop, on tcp_lat: what the host loops' polling adds. An event-driven host loop moves this and nothing else"),
    layer("real.host_cpu_us_per_op", "us", Lower, "residual: cpu_us_per_op - sans-io self times per op: what hosting costs in CPU. A codec win leaves it flat"),
    // sim (rapid-sim)
    layer("sim.engine_ns_per_event", "ns", Lower, "null actors in a ring of 4096: the engine alone -> ops_per_s on sim_churn"),
    layer("sim.rapid_ns_per_event_n256", "ns", Lower, "steady Rapid cluster of 256, wall per event"),
    layer("sim.rapid_ns_per_event_n4096", "ns", Lower, "steady Rapid cluster of 4096, wall per event (1e9 / ops_per_s)"),
    layer("sim.bootstrap_events", "count", Lower, "events until convergence, exact -> setup_s on sim_churn"),
    layer("sim.steady_events", "count", Lower, "events per 5 s virtual steady slice, exact"),
    layer("sim.crash_events", "count", Lower, "events from the crash until every survivor installed, exact"),
    layer("sim.build_s", "s", Lower, "building 4096 actors -> setup_s"),
    layer("sim.rss_kb_per_actor", "KiB", Lower, "peak RSS growth over bootstrap / N -> peak_rss_mb"),
    // obs
    layer("obs.hist_record_ns", "ns", Lower, "LatencyHist::record -> cpu_us_per_op (one per op on client and coordinator)"),
    // bench: the harness's own numbers
    layer("bench.late_p99_us", "us", Lower, "tcp_crash: how late the open-loop generator issued ops (99th percentile)"),
    layer("bench.gen_cpu_share", "ratio", Lower, "generator thread CPU / process CPU over the window"),
    layer("bench.trace_overhead_pct", "%", Lower, "replay wall time with spans on vs off"),
    layer("bench.calib_compute_mops", "1/s", Higher, "fixed ALU kernel, mean of before and after the workload: machine drift between two runs shows here"),
    layer("bench.calib_memwalk_mops", "1/s", Higher, "fixed dependent-load kernel over 32 MiB, mean of before and after"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, exactly as committed at the repo root.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n");
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    s += &format!(
        "  \"command\": [{}],\n",
        command
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(", ")
    );
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += &format!(
        "  \"workloads\": {},\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    json_str(w.name),
                    json_str(w.why)
                ))
                .collect()
        )
    );
    s += &format!(
        "  \"end_to_end\": {},\n",
        list(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str()),
                    m.bound
                ))
                .collect()
        )
    );
    s += &format!(
        "  \"per_layer\": {}\n",
        list(
            PER_LAYER
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.as_str())
                ))
                .collect()
        )
    );
    s += "}\n";
    s
}

/// The README's metric tables.
pub fn metric_tables() -> String {
    let mut s = String::from(
        "| end-to-end metric | unit | better | bound | estimator |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        s += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.estimator
        );
    }
    s += "\n| per-layer metric | unit | better | what it measures -> what it should move |\n|---|---|---|---|\n";
    for m in PER_LAYER {
        s += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // 4 + 22 runs per workload plus two builds must fit the cap.
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn readme_tables_are_generated_from_these_tables() {
        let readme = include_str!("../README.md");
        for table in metric_tables().split("\n\n") {
            assert!(
                readme.contains(table.trim()),
                "README.md is stale: run --metric-tables"
            );
        }
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        assert_eq!(include_str!("../../BENCHMARK.json"), benchmark_json());
    }
}
