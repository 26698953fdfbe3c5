//! Utility: measures wall-clock cost and event counts of bootstrapping
//! one system at one size (`scale_probe <n> <rapid|rc|zk|ml>`), for sizing
//! `--full` runs. The steady-state rate is metered over a 60 s-virtual
//! window *after* convergence, so the bootstrap join storm does not skew
//! it.
//!
//! `--threads N` runs the simulation on N shards (large
//! conservative-lookahead epochs fan out to N threads), for every
//! system. The trace — and therefore the event count — is bit-identical
//! at any thread count; only wall-clock changes.
//!
//! `--timeline FILE` turns on the deterministic metrics plane at a 1 s
//! cadence and writes the merged per-node timeline as JSONL — one line
//! per (sample instant, node) in `(t, node)` order, bit-identical at any
//! thread count (Rapid drivers only; the baselines keep no timeline).
use bench::{SystemKind, World};
use rapid_core::settings::Settings;

/// How much virtual time the steady-state window simulates after
/// convergence (failure-detector probes, batching flushes, no churn).
const STEADY_WINDOW_MS: u64 = 60_000;

struct Probe {
    /// Virtual convergence instant (`None` = did not converge).
    converged_at: Option<u64>,
    /// Events processed up to convergence (bootstrap included).
    boot_events: u64,
    /// Wall-clock seconds up to convergence.
    boot_wall: f64,
    /// Events processed during the post-convergence steady window.
    steady_events: u64,
    /// Wall-clock seconds of the steady window.
    steady_wall: f64,
}

fn events_of(w: &World) -> u64 {
    match w {
        World::Swim(s) => s.events_processed(),
        World::Zk(s) => s.events_processed(),
        World::Rapid(s) | World::RapidC(s) => s.events_processed(),
        World::RapidKv(kw) => kw.sim.events_processed(),
        World::Akka(s) => s.events_processed(),
    }
}

fn probe(n: usize, kind: SystemKind, threads: usize, sample_ms: u64) -> (Probe, Vec<String>) {
    let t0 = std::time::Instant::now();
    let sample_ms = if matches!(kind, SystemKind::Rapid | SystemKind::RapidC) {
        sample_ms
    } else {
        if sample_ms > 0 {
            eprintln!(
                "note: --timeline only affects the Rapid drivers; ignored for {}",
                kind.label()
            );
        }
        0
    };
    let settings = if threads <= 1 && sample_ms == 0 {
        None // Protocol defaults: identical construction path.
    } else {
        Some(Settings {
            threads,
            obs_sample_ms: sample_ms,
            ..Settings::default()
        })
    };
    let mut w = World::bootstrap_cfg(kind, n, 42, settings, None)
        .expect("bootstrap world");
    let converged_at = w.converge(n, 1_200_000);
    let boot_events = events_of(&w);
    let boot_wall = t0.elapsed().as_secs_f64();
    // Steady state, separately metered: the join storm skews the
    // bootstrap figure, so sizing `--full` runs (mostly steady time)
    // wants the post-convergence rate.
    let s0 = std::time::Instant::now();
    let now = w.now();
    w.run_until(now + STEADY_WINDOW_MS);
    let timeline = if sample_ms > 0 { w.metrics_dump() } else { Vec::new() };
    let p = Probe {
        converged_at,
        boot_events,
        boot_wall,
        steady_events: events_of(&w) - boot_events,
        steady_wall: s0.elapsed().as_secs_f64(),
    };
    (p, timeline)
}

/// Prints the usage line and exits with status 2.
fn usage() -> ! {
    eprintln!("usage: scale_probe <n> [rapid|rc|zk|ml] [--threads N] [--timeline FILE]");
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads = 1usize;
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        threads = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| usage());
        args.drain(pos..=pos + 1);
    }
    let mut timeline_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--timeline") {
        timeline_path = Some(args.get(pos + 1).cloned().unwrap_or_else(|| usage()));
        args.drain(pos..=pos + 1);
    }
    let (n, kind) = match args.as_slice() {
        [n] => (n, "rapid"),
        [n, kind] => (n, kind.as_str()),
        _ => usage(),
    };
    let n: usize = n.parse().unwrap_or_else(|_| usage());
    let kind = match kind {
        "rapid" => SystemKind::Rapid,
        "rc" => SystemKind::RapidC,
        "zk" => SystemKind::ZooKeeper,
        "ml" => SystemKind::Memberlist,
        _ => usage(),
    };
    let sample_ms = if timeline_path.is_some() { 1_000 } else { 0 };
    let (p, timeline) = probe(n, kind, threads, sample_ms);
    if let Some(path) = &timeline_path {
        let mut out = timeline.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        std::fs::write(path, out).expect("write timeline");
        eprintln!("wrote {path}");
    }
    eprintln!(
        "{} n={}: virtual={:?}s wall={:.4}s events={} steady={:.0} events/s threads={}",
        kind.label(),
        n,
        p.converged_at.map(|x| x / 1000),
        p.boot_wall,
        p.boot_events,
        p.steady_events as f64 / p.steady_wall.max(1e-9),
        threads
    );
}
