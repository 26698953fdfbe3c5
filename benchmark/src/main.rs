//! One repeatable end-to-end and per-layer benchmark of the TCP KV
//! plane, crash recovery and the simulator. See `README.md`.
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one run, result JSON on the last line
//! benchmark --seed S [--trace] [--quick]                    every workload, each in a child process
//! benchmark --aa K [--seed S] [--quick]                     K runs per workload, spread against the bounds
//! benchmark --spec | --metric-tables                        BENCHMARK.json / the README's tables
//! ```

mod gen;
mod micro;
mod proc;
mod replay;
mod simw;
mod span;
mod spec;
mod stats;
mod tcp;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use simw::SimWorkload;
use span::SpanLog;
use spec::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use tcp::{Load, RunCfg, TcpRun, TcpWorkload};

/// Clusters a TCP run forms; the timed window is split among them.
const ROUNDS: usize = 3;

/// Ops the traced replay pushes through the mesh: enough for stable
/// per-message means, few enough that the span file stays small.
const REPLAY_OPS: u64 = 20_000;

#[derive(Clone, Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    break_check: bool,
    spec: bool,
    tables: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => args.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                args.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` for the driver, a bare `--trace` by hand.
                args.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--aa" => {
                args.aa = Some(
                    value(&mut i, flag)?
                        .parse()
                        .map_err(|_| "--aa takes a count")?,
                )
            }
            "--break-check" => args.break_check = true,
            "--spec" => args.spec = true,
            "--metric-tables" => args.tables = true,
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|x| x.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if matches!(args.aa, Some(k) if k < 2) {
        return Err("--aa needs at least 2 runs".to_string());
    }
    Ok(args)
}

fn tcp_workload(name: &str) -> Option<TcpWorkload> {
    let closed = |outstanding| Load::Closed { outstanding };
    let w = |name, nodes, keys, value_bytes, put_permille, load, crash_at| TcpWorkload {
        name,
        nodes,
        keys,
        value_bytes,
        put_permille,
        load,
        crash_at,
    };
    Some(match name {
        "tcp_lat" => w("tcp_lat", 3, 1024, 64, 500, closed(1), None),
        "tcp_put_sat" => w("tcp_put_sat", 3, 1024, 1024, 1000, closed(4096), None),
        "tcp_get_sat" => w("tcp_get_sat", 3, 1024, 1024, 0, closed(4096), None),
        "tcp_put_bigstore" => w("tcp_put_bigstore", 3, 4096, 1024, 1000, closed(4096), None),
        "tcp_crash" => w(
            "tcp_crash",
            5,
            1024,
            256,
            500,
            Load::Open { rate: 500 },
            Some(1.0 / 3.0),
        ),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// One run's result
// ---------------------------------------------------------------------

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    /// `name -> (value, samples behind it)`.
    metrics: BTreeMap<&'static str, (f64, u64)>,
    notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the spec"
        );
        // JSON has no NaN or infinity; a ratio over nothing reads 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name, (value, samples));
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }
}

/// The `pct` percentile, by the ten-beyond rule when the sample allows
/// it, else by plain nearest rank with a note (short `--quick` runs).
fn tail(out: &mut Outcome, sorted: &[f64], pct: f64, what: &str) -> f64 {
    if let Some(v) = stats::percentile(sorted, pct) {
        return v;
    }
    if sorted.is_empty() {
        return 0.0;
    }
    out.notes.push(format!(
        "{what}: only {} samples, fewer than 10 beyond p{pct}; read off by nearest rank",
        sorted.len()
    ));
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    stats::median(stats::sorted(&mut xs))
}

/// The two fixed kernels, `(compute, memwalk)` in Mops.
fn calibrate() -> (f64, f64) {
    (micro::calib_compute_mops(), micro::calib_memwalk_mops())
}

/// Runs the kernels again after the workload and reports the mean of
/// before and after; the printed pair shows drift inside the run.
fn set_calibration(workload: &str, before: (f64, f64), out: &mut Outcome) {
    let after = calibrate();
    println!(
        "# {workload}: calibration before/after: compute {:.1}/{:.1} Mops, memwalk {:.2}/{:.2} Mops",
        before.0, after.0, before.1, after.1
    );
    out.set("bench.calib_compute_mops", (before.0 + after.0) / 2.0, 2);
    out.set("bench.calib_memwalk_mops", (before.1 + after.1) / 2.0, 2);
}

fn out_dir() -> PathBuf {
    // The driver runs from the root of a checkout; by hand the binary
    // may run from anywhere, so fall back to where it was built.
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn tail_pct(workload: &str) -> f64 {
    WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or(99.0, |w| w.tail_pct)
}

/// Samples a percentile needs in every second before it is taken per
/// second: the 99th has ten samples beyond it from 1000 on.
const PER_SECOND_MIN: u64 = 1_000;

/// The end-to-end metrics of a TCP workload from its measured rounds.
///
/// When every whole second of every round holds at least
/// [`PER_SECOND_MIN`] samples, throughput and latency are medians over
/// those seconds, which a slow second cannot drag along. A workload
/// with few ops per second (`tcp_lat`) or one whose point is a single
/// event in the window (`tcp_crash`) pools the rounds' samples instead.
fn end_to_end_of_tcp(w: &TcpWorkload, rounds: &[TcpRun], out: &mut Outcome) {
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    out.set("setup_s", median_of(setups), rounds.len() as u64);
    let measured: Vec<&TcpRun> = rounds.iter().filter(|r| r.measured).collect();
    let pct = tail_pct(w.name);

    // One entry per whole second: the samples of that second, ascending.
    let mut seconds: Vec<Vec<f64>> = Vec::new();
    for r in &measured {
        let mut from = 0;
        for &count in &r.per_second {
            let mut slice = r.lat_us[from..from + count as usize].to_vec();
            stats::sorted(&mut slice);
            seconds.push(slice);
            from += count as usize;
        }
    }
    let n: u64 = measured.iter().map(|r| r.completed()).sum();
    let per_second = w.crash_at.is_none()
        && !seconds.is_empty()
        && seconds.iter().all(|s| s.len() as u64 >= PER_SECOND_MIN);
    if per_second {
        let k = seconds.len() as u64;
        out.set(
            "ops_per_s",
            median_of(seconds.iter().map(|s| s.len() as f64).collect()),
            k,
        );
        let of_seconds = |pct: f64| {
            median_of(
                seconds
                    .iter()
                    .filter_map(|s| stats::percentile(s, pct))
                    .collect(),
            )
        };
        out.set("op_p50_us", of_seconds(50.0), n);
        out.set("op_tail_us", of_seconds(pct), n);
    } else {
        let mut pooled: Vec<f64> = measured
            .iter()
            .flat_map(|r| r.lat_us.iter().copied())
            .collect();
        stats::sorted(&mut pooled);
        let window: f64 = measured.iter().map(|r| r.window_s).sum();
        let good: u64 = match w.load {
            Load::Closed { .. } => n,
            Load::Open { .. } => measured.iter().map(|r| r.on_time).sum(),
        };
        out.set("ops_per_s", good as f64 / window, n);
        let p50 = tail(out, &pooled, 50.0, "op_p50_us");
        out.set("op_p50_us", p50, n);
        let p_tail = tail(out, &pooled, pct, "op_tail_us");
        out.set("op_tail_us", p_tail, n);
    }
    let per_op: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.cpu_per_second.iter())
        .filter(|&&(_, ops)| ops > 0)
        .map(|&(cpu, ops)| cpu as f64 / 1e3 / ops as f64)
        .collect();
    let k = per_op.len() as u64;
    out.set("cpu_us_per_op", median_of(per_op), k);
    let rss = measured.iter().map(|r| r.peak_rss_mib).fold(0.0, f64::max);
    out.set("peak_rss_mb", rss, 1);
}

fn run_tcp(w: &TcpWorkload, args: &Args, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let calib_before = args.trace.then(calibrate);
    let rounds = if args.quick { 1 } else { ROUNDS };
    // A crash round needs its whole window: recovery takes about a
    // second and is judged over the half second after it. The traced
    // pass measures one round and spends the rest on replay and ledger.
    let measured = if w.crash_at.is_some() || args.trace {
        1
    } else {
        rounds
    };
    let per_round = if w.crash_at.is_some() {
        seconds.max(4.5)
    } else if args.trace {
        seconds / 2.0
    } else {
        seconds / rounds as f64
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: per_round,
        warmup_s: 0.5,
        rounds,
        measured,
        instrument: args.trace,
        break_check: args.break_check,
    };
    let all = tcp::run(w, &cfg)?;
    let m: Vec<&TcpRun> = all.iter().filter(|r| r.measured).collect();
    let sum = |f: fn(&TcpRun) -> u64| m.iter().map(|r| f(r)).sum::<u64>();
    out.attempted = sum(|r| r.attempted);
    out.failed = sum(|r| r.failed);
    out.violations = m
        .iter()
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    end_to_end_of_tcp(w, &all, &mut out);
    let (attempts, failed_attempts) = (sum(|r| r.attempts), sum(|r| r.failed_attempts));
    println!(
        "# {}: loopback TCP, no injected delay; {} nodes, {} keys x {} B, {:?}; {} clusters formed, {} measured for {} s each after {} s warm-up; {} ops, {} failed for good, {} of {} attempts failed",
        w.name, w.nodes, w.keys, w.value_bytes, w.load, rounds, measured, per_round, cfg.warmup_s,
        out.attempted, out.failed, failed_attempts, attempts
    );

    // Scenario metrics: cheap to derive, so computed on every run and
    // printed; the result JSON carries them on the traced run.
    out.set(
        "failed_share",
        failed_attempts as f64 / attempts.max(1) as f64,
        attempts,
    );
    if let Load::Open { .. } = w.load {
        let missed = out.attempted - sum(|r| r.on_time);
        out.set(
            "slo_miss_share",
            missed as f64 / out.attempted.max(1) as f64,
            out.attempted,
        );
        let late = &m[0].late_us;
        out.set(
            "bench.late_p99_us",
            stats::percentile(late, 99.0).unwrap_or(0.0),
            late.len() as u64,
        );
    }
    if let Some(c) = &m[0].crash {
        match c.unavail_ms {
            Some(ms) => out.set("unavail_ms", ms, 1),
            None => out
                .violations
                .push("service on the victim's keys never recovered".to_string()),
        }
        out.set("view_changes", c.view_changes as f64, 1);
        out.set(
            "core.view_change_wall_ms",
            c.view_change_wall_ms.unwrap_or(0.0),
            1,
        );
        println!(
            "# {}: node {} hard-stopped {:.3} s into the window",
            w.name,
            w.nodes - 1,
            c.at.as_secs_f64()
        );
    }
    let completed = sum(|r| r.completed());
    let ops = completed.max(1) as f64;
    let frames = sum(|r| r.kv.frames_sent);
    out.set(
        "client.msgs_per_op",
        sum(|r| r.client.msgs_sent) as f64 / ops,
        completed,
    );
    out.set(
        "client.retries_per_kop",
        sum(|r| r.client.retries) as f64 * 1e3 / ops,
        completed,
    );
    out.set(
        "client.shed_per_kop",
        sum(|r| r.client.shed) as f64 * 1e3 / ops,
        completed,
    );
    out.set(
        "kv.msgs_per_op",
        sum(|r| r.kv.msgs_sent) as f64 / ops,
        completed,
    );
    out.set("kv.frames_per_op", frames as f64 / ops, completed);
    out.set(
        "kv.msgs_per_frame",
        sum(|r| r.kv.msgs_sent) as f64 / frames.max(1) as f64,
        frames,
    );
    out.set(
        "kv.wire_bytes_per_op",
        sum(|r| r.kv.wire_bytes) as f64 / ops,
        completed,
    );
    out.set("kv.shed_ops", sum(|r| r.kv.ops_shed) as f64, 1);
    out.set("kv.repairs", sum(|r| r.kv.repairs_triggered) as f64, 1);
    out.set(
        "transport.quota_dropped",
        sum(|r| r.quota_dropped) as f64,
        1,
    );
    out.set(
        "bench.gen_cpu_share",
        sum(|r| r.gen_cpu_ns) as f64 / sum(|r| r.cpu_ns).max(1) as f64,
        1,
    );

    if args.trace {
        traced_tcp(w, args, m[0], calib_before.expect("taken above"), &mut out)?;
    }
    Ok(out)
}

/// The traced pass of a TCP workload: replay through the mesh with
/// spans off and on, the ledger, and the two residuals.
fn traced_tcp(
    w: &TcpWorkload,
    args: &Args,
    r: &TcpRun,
    calib_before: (f64, f64),
    out: &mut Outcome,
) -> Result<(), String> {
    out.set("real.submit_ns", r.submit_ns.unwrap_or(0.0), r.attempts);
    out.set("real.idle_cpu_pct", r.idle_cpu_pct.unwrap_or(0.0), 1);
    out.set("real.inbox_depth_max", r.inbox_depth_max as f64, 1);
    out.set("real.shard_depth_max", r.shard_depth_max as f64, 1);

    // Replay at the batching the real run showed: one op per client
    // frame means bursts of one.
    let per_frame = r.client.msgs_sent as f64 / r.client.frames_sent.max(1) as f64;
    let burst = (((per_frame - 1.0) * w.nodes as f64 + 1.0).round() as usize).clamp(1, 4096);
    let n_ops = r.stream_len.clamp(1, REPLAY_OPS) as usize;
    let untraced = replay::replay(w, args.seed, n_ops, burst, &mut SpanLog::new(false))?;
    let mut log = SpanLog::new(true);
    let mut traced = replay::replay(w, args.seed, n_ops, burst, &mut log)?;
    let overhead =
        (traced.wall_ns as f64 - untraced.wall_ns as f64) / untraced.wall_ns as f64 * 100.0;
    out.set("bench.trace_overhead_pct", overhead, n_ops as u64);
    let path = out_dir().join(format!("trace_{}.jsonl", w.name));
    log.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# {}: replayed {} ops in bursts of {} through the mesh: {:.2} us/op untraced, {:.2} us/op traced; {} spans -> {}",
        w.name, n_ops, burst,
        untraced.wall_ns as f64 / 1e3 / n_ops as f64,
        traced.wall_ns as f64 / 1e3 / n_ops as f64,
        log.len(), path.display()
    );

    let totals = log.totals_by_name();
    let per_unit = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns_per_unit());
    for (metric, span_name) in [
        ("client.submit_ns", "client.submit"),
        ("client.on_reply_ns", "client.on_reply"),
        ("kv.encode_ns", "kv.encode"),
        ("kv.decode_ns", "kv.decode"),
        ("kv.leader_put_ns", "kv.leader_put"),
        ("kv.replica_put_ns", "kv.replica_put"),
        ("kv.ack_ns", "kv.ack"),
        ("kv.get_ns", "kv.get"),
    ] {
        let units = totals.get(span_name).map_or(0, |t| t.units);
        out.set(metric, per_unit(span_name), units);
    }

    let mut ledger = micro::Ledger::new();
    micro::kv_store_costs(&mut traced.mesh.nodes[0], &mut ledger);
    let inputs = gen::Inputs::new(args.seed, w.keys, w.value_bytes, w.put_permille);
    let keys: Vec<&str> = (0..w.keys as u32).map(|k| inputs.key(k)).collect();
    micro::placement_costs(&keys, &mut ledger);
    micro::core_outbox_costs(w.value_bytes, &mut ledger);
    micro::obs_costs(&mut ledger);
    micro::transport_costs(&mut ledger)?;
    ledger.push(("real.chan_hop_us", micro::chan_hop_us()));
    for (name, value) in ledger {
        out.set(name, value, 1);
    }

    // Residuals. The blocking path of a put is client -> leader ->
    // replica (the replicas work in parallel) -> leader -> client: four
    // hops and five handler calls; a get is two hops and three.
    let codec = per_unit("kv.encode") + per_unit("kv.decode");
    let put_path = per_unit("client.submit")
        + per_unit("kv.leader_put")
        + per_unit("kv.replica_put")
        + per_unit("kv.ack")
        + per_unit("client.on_reply")
        + 4.0 * codec;
    let get_path =
        per_unit("client.submit") + per_unit("kv.get") + per_unit("client.on_reply") + 2.0 * codec;
    let puts = w.put_permille as f64 / 1e3;
    let hop = if w.value_bytes < 512 {
        out.get("transport.hop_64b_p50_us")
    } else {
        out.get("transport.hop_1k_p50_us")
    };
    let blocking_us = (puts * put_path + (1.0 - puts) * get_path) / 1e3;
    let hops = puts * 4.0 + (1.0 - puts) * 2.0;
    out.set(
        "real.host_wait_p50_us",
        out.get("op_p50_us") - blocking_us - hops * hop,
        1,
    );
    let sans_io_ns: u64 = totals
        .iter()
        .filter(|(name, _)| **name != "bench.replay_burst")
        .map(|(_, t)| t.self_ns)
        .sum();
    out.set(
        "real.host_cpu_us_per_op",
        out.get("cpu_us_per_op") - sans_io_ns as f64 / 1e3 / n_ops as f64,
        1,
    );

    set_calibration(w.name, calib_before, out);
    Ok(())
}

fn run_sim(args: &Args, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let calib_before = args.trace.then(calibrate);
    let w = if args.quick {
        SimWorkload {
            n: 1024,
            crashes: 10,
        }
    } else {
        SimWorkload {
            n: 4096,
            crashes: 40,
        }
    };
    let mut log = SpanLog::new(args.trace);
    let setups = if args.quick { 1 } else { ROUNDS };
    let r = simw::run(&w, args.seed, seconds, setups, args.break_check, &mut log)?;
    println!(
        "# sim_churn: N = {}, {} crashed at once; {} steady slices of {} virtual ms in {:.1} s wall; crash phase {:.1} s wall",
        w.n, w.crashes, r.slices.len(), simw::SLICE_MS, r.slices.iter().map(|s| s.1).sum::<f64>(), r.crash_wall_s
    );
    let mut rates: Vec<f64> = r.slices.iter().map(|&(e, wall)| e as f64 / wall).collect();
    stats::sorted(&mut rates);
    println!(
        "# sim_churn: events per wall second over the slices: min {:.0}, median {:.0}, max {:.0}",
        rates[0],
        stats::median(&rates),
        rates[rates.len() - 1]
    );
    out.attempted = r.install_us.len() as u64 + w.crashes as u64;
    out.violations = r.violations.clone();

    let slices = r.slices.len() as u64;
    let events_per_s = stats::median(&rates);
    out.set("setup_s", r.setup_s, r.setup_samples.len() as u64);
    out.set("ops_per_s", events_per_s, slices);
    let survivors = r.install_us.len() as u64;
    let p50 = tail(&mut out, &r.install_us, 50.0, "op_p50_us");
    out.set("op_p50_us", p50, survivors);
    let p_tail = tail(&mut out, &r.install_us, tail_pct("sim_churn"), "op_tail_us");
    out.set("op_tail_us", p_tail, survivors);
    out.set(
        "cpu_us_per_op",
        median_of(
            r.slice_cpu_ns
                .iter()
                .zip(&r.slices)
                .map(|(&cpu, &(e, _))| cpu as f64 / 1e3 / e as f64)
                .collect(),
        ),
        slices,
    );
    out.set("peak_rss_mb", r.peak_rss_mib, 1);

    out.set("view_changes", r.view_changes as f64, survivors);
    out.set(
        "view_change_ms",
        r.install_us.last().copied().unwrap_or(0.0) / 1e3,
        survivors,
    );
    out.set("converge_ms", r.converge_ms as f64, 1);
    out.set("sim_events_per_s", events_per_s, slices);
    out.set("wire_bytes_node_s", r.wire_bytes_node_s, slices);
    out.set(
        "core.detect_to_install_p50_ms",
        r.detect_to_install_p50_ms as f64,
        survivors,
    );
    out.set("core.classic_rounds", r.classic_decisions as f64, survivors);
    out.set("core.msgs_per_node_s", r.msgs_node_s, slices);
    out.set("sim.rapid_ns_per_event_n4096", 1e9 / events_per_s, slices);
    out.set("sim.bootstrap_events", r.bootstrap_events as f64, 1);
    out.set(
        "sim.steady_events",
        r.steady_events as f64 / slices as f64,
        slices,
    );
    out.set("sim.crash_events", r.crash_events as f64, 1);
    out.set("sim.build_s", r.build_s, 1);
    out.set("sim.rss_kb_per_actor", r.rss_kb_per_actor, 1);

    if args.trace {
        let path = out_dir().join("trace_sim_churn.jsonl");
        log.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# sim_churn: {} spans around run_until per phase and slice -> {}",
            log.len(),
            path.display()
        );
        // A span here is two clock reads around seconds of work: put a
        // number on it instead of running the workload twice.
        let mut probe = SpanLog::new(true);
        let t = std::time::Instant::now();
        for i in 0..100_000u64 {
            probe.record("probe", 0, i, || std::hint::black_box(i), |_| 1);
        }
        let ns_per_span = t.elapsed().as_nanos() as f64 / 1e5;
        let traced_wall_ns = (r.slices.iter().map(|s| s.1).sum::<f64>() + r.crash_wall_s) * 1e9;
        out.set(
            "bench.trace_overhead_pct",
            log.len() as f64 * ns_per_span / traced_wall_ns * 100.0,
            log.len() as u64,
        );

        let mut ledger = micro::Ledger::new();
        micro::core_wire_costs(&mut ledger);
        ledger.push((
            "sim.engine_ns_per_event",
            micro::sim_engine_ns_per_event(4096),
        ));
        ledger.push((
            "sim.rapid_ns_per_event_n256",
            micro::sim_rapid_ns_per_event(256, 20_000)?,
        ));
        for (name, value) in ledger {
            out.set(name, value, 1);
        }
        set_calibration("sim_churn", calib_before.expect("taken above"), &mut out);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Printing and parsing results
// ---------------------------------------------------------------------

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

/// The result line: every end-to-end metric untraced, every per-layer
/// metric traced (0 for a layer the workload does not touch).
fn result_json(out: &Outcome, trace: bool) -> String {
    let names: Vec<&'static str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                out.get(name),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Reads back a line written by [`result_json`].
fn parse_result(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\":{")? + 11..];
    let mut metrics = Vec::new();
    for part in body.split("\"},") {
        let name_end = part.find("\":{\"value\":")?;
        let name = part[..name_end].trim_start_matches('"');
        let rest = &part[name_end + 11..];
        let value = rest[..rest.find(',')?].parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn print_metrics(out: &Outcome) {
    for m in END_TO_END {
        if let Some(&(v, n)) = out.metrics.get(m.name) {
            println!(
                "metric {:<32} {:>16.4} {:<6} n={:<8} {} is better, bound {}",
                m.name,
                v,
                m.unit,
                n,
                m.better.as_str(),
                m.bound
            );
        }
    }
    for m in PER_LAYER {
        if let Some(&(v, n)) = out.metrics.get(m.name) {
            println!("layer  {:<32} {:>16.4} {:<6} n={:<8}", m.name, v, m.unit, n);
        }
    }
    for note in &out.notes {
        println!("note   {note}");
    }
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

fn seconds_of(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.quick {
        RUN_SECONDS as f64 / 5.0
    } else {
        RUN_SECONDS as f64
    })
}

/// One workload in this process; the result JSON is the last line.
fn single(name: &str, args: &Args) -> ExitCode {
    let seconds = seconds_of(args);
    let result = match tcp_workload(name) {
        Some(w) => run_tcp(&w, args, seconds),
        None => run_sim(args, seconds),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(2);
        }
    };
    print_metrics(&out);
    println!(
        "# {name}: {} attempted, {} failed, checks {}",
        out.attempted,
        out.failed,
        if out.violations.is_empty() {
            "passed"
        } else {
            "FAILED"
        }
    );
    for v in &out.violations {
        println!("violation: {v}");
    }
    println!("{}", result_json(&out, args.trace));
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process (fresh peak RSS, fresh ports)
/// and returns its parsed result line.
fn child(name: &str, args: &Args, seed: u64, trace: bool, echo: bool) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds_of(args).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if args.break_check {
        cmd.arg("--break-check");
    }
    let output = cmd.output().map_err(|e| format!("starting {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if echo {
        for line in stdout.lines().filter(|l| *l != last) {
            println!("{line}");
        }
    }
    let parsed =
        parse_result(last).ok_or(format!("{name} printed no result ({})", output.status))?;
    if !parsed.correct || !output.status.success() {
        return Err(format!(
            "{name}: correctness checks failed ({})",
            output.status
        ));
    }
    Ok(parsed)
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every workload once, untraced, then traced if asked.
fn suite(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in selected(args) {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            println!(
                "== {name} (seed {}, {} s, trace {}) ==",
                args.seed,
                seconds_of(args),
                trace as u8
            );
            if let Err(e) = child(name, args, args.seed, trace, true) {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// What the A/A runs of one workload gave.
#[derive(Default)]
struct Tally {
    /// `metric -> one value per run`.
    samples: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// A/A: `k` runs of the same code per workload, each with another
/// seed; per metric the median, the quartiles and their distance as a
/// share of the median, judged against the metric's bound.
fn aa(k: usize, args: &Args) -> ExitCode {
    println!(
        "A/A: {k} runs per workload, seeds {}..{}, {} s each",
        args.seed,
        args.seed + k as u64 - 1,
        seconds_of(args)
    );
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut ok = true;
    // Round by round through the workloads, as the driver runs them: a
    // run is then preceded by another workload, and what a saturating
    // run leaves behind on the box reaches the light one after it.
    let names = selected(args);
    let mut tallies: BTreeMap<&str, Tally> = BTreeMap::new();
    for i in 0..k {
        for &name in &names {
            match child(name, args, args.seed + i as u64, false, false) {
                Ok(parsed) => {
                    let tally = tallies.entry(name).or_default();
                    tally.attempted += parsed.attempted;
                    tally.failed += parsed.failed;
                    for (metric, v) in parsed.metrics {
                        tally.samples.entry(metric).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    for name in names {
        let Tally {
            mut samples,
            attempted,
            failed,
        } = tallies.remove(name).unwrap_or_default();
        for m in END_TO_END {
            let Some(values) = samples.get_mut(m.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            println!("#   {name} {} values: {values:?}", m.name);
            let sorted = stats::sorted(values);
            let (q1, q3) = stats::quartiles(sorted);
            let spread = stats::rel_spread(sorted);
            // The set-up time is judged on its median only.
            let inside = m.name == "setup_s" || spread <= m.bound;
            let verdict = match (inside, spread <= m.bound / 3.0) {
                (false, _) => "OUTSIDE",
                (true, true) => "steady",
                (true, false) => "inside",
            };
            ok &= inside;
            println!(
                "{:<18} {:<14} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>5.0}%  {verdict}",
                name,
                m.name,
                stats::median(sorted),
                q1,
                q3,
                spread * 100.0,
                m.bound * 100.0
            );
        }
        println!("#   {name}: {attempted} ops attempted over {k} runs, {failed} failed");
    }
    if ok {
        println!("A/A: every end-to-end metric stayed inside its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: FAILED");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--quick] [--aa K] [--spec] [--metric-tables]");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.tables {
        print!("{}", spec::metric_tables());
        return ExitCode::SUCCESS;
    }
    match (&args.aa, &args.workload) {
        (Some(k), _) => aa(*k, &args),
        // A full command line is the driver's (or a child's) single run.
        (None, Some(name)) if args.seconds.is_some() => single(name, &args),
        (None, _) => suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload tcp_lat --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("tcp_lat"), 7, Some(10.0), false)
        );
        let a = parse_args(&argv(
            "--workload sim_churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert!(a.trace);
        let a = parse_args(&argv("--seed 3 --trace --quick")).unwrap();
        assert!(a.trace && a.quick && a.workload.is_none());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--aa 1")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn every_workload_of_the_spec_is_runnable() {
        for w in WORKLOADS {
            assert!(
                w.name == "sim_churn" || tcp_workload(w.name).is_some(),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn the_result_line_round_trips_and_holds_exactly_the_asked_metrics() {
        let mut out = Outcome {
            attempted: 1000,
            failed: 2,
            ..Outcome::default()
        };
        out.set("setup_s", 0.8127, 3);
        out.set("ops_per_s", 43.5, 10);
        out.set("kv.encode_ns", 81.25, 5);
        let line = result_json(&out, false);
        let parsed = parse_result(&line).expect("own format");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 2));
        let names: Vec<&str> = parsed.metrics.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(parsed.metrics[0], ("setup_s".to_string(), 0.8127));
        assert_eq!(parsed.metrics[1], ("ops_per_s".to_string(), 43.5));

        out.violations.push("x".to_string());
        let traced = parse_result(&result_json(&out, true)).expect("own format");
        assert!(!traced.correct);
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        let encode = traced
            .metrics
            .iter()
            .find(|m| m.0 == "kv.encode_ns")
            .unwrap();
        assert_eq!(encode.1, 81.25);
        // A layer the workload does not touch reads 0.
        assert!(traced
            .metrics
            .iter()
            .any(|m| m.0 == "sim.build_s" && m.1 == 0.0));
    }

    fn round_of(per_second: &[(u64, f64)], window_s: f64) -> TcpRun {
        // Each second holds `count` samples of one latency.
        TcpRun {
            measured: true,
            window_s,
            setup_s: 0.5,
            lat_us: per_second
                .iter()
                .flat_map(|&(count, lat)| std::iter::repeat_n(lat, count as usize))
                .collect(),
            per_second: per_second.iter().map(|s| s.0).collect(),
            cpu_per_second: per_second.iter().map(|s| (s.0 * 2_000, s.0)).collect(),
            ..TcpRun::default()
        }
    }

    #[test]
    fn busy_workloads_take_medians_over_seconds_and_quiet_ones_pool() {
        let sat = tcp_workload("tcp_put_sat").unwrap();
        // One slow second among five, spread over two clusters.
        let rounds = [
            round_of(&[(2_000, 10.0), (1_000, 90.0), (2_100, 11.0)], 3.0),
            round_of(&[(1_900, 12.0), (2_050, 13.0)], 2.0),
            TcpRun {
                setup_s: 0.7,
                ..TcpRun::default()
            },
        ];
        let mut out = Outcome::default();
        end_to_end_of_tcp(&sat, &rounds, &mut out);
        assert_eq!(out.get("setup_s"), 0.5);
        assert_eq!(out.get("ops_per_s"), 2_000.0);
        assert_eq!(out.get("op_p50_us"), 12.0);
        assert_eq!(out.get("op_tail_us"), 12.0);
        assert_eq!(out.get("cpu_us_per_op"), 2.0);

        // Under 1000 samples a second: pooled samples, ops over window.
        let lat = tcp_workload("tcp_lat").unwrap();
        let rounds = [round_of(&[(40, 20.0), (50, 30.0)], 2.5)];
        let mut out = Outcome::default();
        end_to_end_of_tcp(&lat, &rounds, &mut out);
        assert_eq!(out.get("ops_per_s"), 90.0 / 2.5);
        assert_eq!(out.get("op_p50_us"), 30.0);
    }

    #[test]
    fn tail_falls_back_with_a_note_when_the_sample_is_short() {
        let mut out = Outcome::default();
        let long: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&mut out, &long, 95.0, "x"), 950.0);
        assert!(out.notes.is_empty());
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut out, &short, 95.0, "x"), 95.0);
        assert_eq!(out.notes.len(), 1);
        assert_eq!(tail(&mut out, &[], 95.0, "x"), 0.0);
    }
}
