//! `sim_churn`: the paper's own regime on the deterministic simulator.
//!
//! Bootstrap N processes through one seed, hold the converged cluster
//! steady, then crash a batch at once and run until every survivor has
//! installed the smaller view. Virtual-time results are exact for a
//! seed; wall-clock results measure the engine.

use std::time::Instant;

use rapid_core::config::ConfigId;
use rapid_core::obs::LatencyHist;
use rapid_sim::cluster::all_report;
use rapid_sim::{Fault, RapidActor, RapidClusterBuilder, Simulation};

use crate::gen::Rng;
use crate::proc::{self, CpuMeter};
use crate::span::SpanLog;
use crate::stats;

/// Virtual length of one steady slice.
pub const SLICE_MS: u64 = 5_000;

#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    pub n: usize,
    pub crashes: usize,
}

#[derive(Default)]
pub struct SimRun {
    pub setup_s: f64,
    pub setup_samples: Vec<f64>,
    pub build_s: f64,
    /// Virtual ms from the start of the bootstrap until all N report N.
    pub converge_ms: u64,
    pub bootstrap_events: u64,
    /// `(events, wall seconds)` per steady slice.
    pub slices: Vec<(u64, f64)>,
    pub steady_events: u64,
    /// Process CPU per steady slice.
    pub slice_cpu_ns: Vec<u64>,
    /// Bytes sent per node per virtual second over the steady window.
    pub wire_bytes_node_s: f64,
    pub msgs_node_s: f64,
    pub crash_events: u64,
    pub crash_wall_s: f64,
    /// Virtual µs from the crash to each survivor's install of the final
    /// view, ascending.
    pub install_us: Vec<f64>,
    /// Views installed per survivor after the crash, maximum over survivors.
    pub view_changes: u64,
    pub classic_decisions: u64,
    pub detect_to_install_p50_ms: u64,
    pub peak_rss_mib: f64,
    pub rss_kb_per_actor: f64,
    pub violations: Vec<String>,
}

fn bootstrap(
    w: &SimWorkload,
    seed: u64,
    run: &mut SimRun,
) -> Result<Simulation<RapidActor>, String> {
    let t = Instant::now();
    let mut sim = RapidClusterBuilder::new(w.n).seed(seed).build_bootstrap();
    run.build_s = t.elapsed().as_secs_f64();
    let converged = sim.run_until_pred(1_200_000, |s| all_report(s, w.n));
    run.converge_ms = converged.ok_or("the simulated cluster did not converge")?;
    run.bootstrap_events = sim.events_processed();
    run.setup_samples.push(t.elapsed().as_secs_f64());
    Ok(sim)
}

/// Runs the workload, spending about `seconds` of wall clock on the
/// steady phase (at least three slices).
///
/// `break_check` is the checker's self-test: it expects a final view one
/// member larger than the survivors', so every survivor must fail it.
pub fn run(
    w: &SimWorkload,
    seed: u64,
    seconds: f64,
    setups: usize,
    break_check: bool,
    log: &mut SpanLog,
) -> Result<SimRun, String> {
    let mut run = SimRun::default();
    let rss_before = proc::peak_rss_mib();
    let root = log.open("sim.run", 0, seed);

    let mut sim = None;
    for _ in 0..setups.max(1) {
        drop(sim.take());
        let boot = log.open("sim.bootstrap", root, seed);
        sim = Some(bootstrap(w, seed, &mut run)?);
        log.close(boot, run.bootstrap_events);
    }
    let mut sim = sim.expect("at least one set-up");
    let mut samples = run.setup_samples.clone();
    run.setup_s = stats::median(stats::sorted(&mut samples));
    run.rss_kb_per_actor = (proc::peak_rss_mib() - rss_before) * 1024.0 / w.n as f64;

    // Steady: no churn, failure-detector probes and batching only.
    let sent = |sim: &Simulation<RapidActor>| {
        (0..sim.len()).fold((0u64, 0u64), |(b, m), i| {
            let t = sim.traffic(i);
            (b + t.bytes_out, m + t.msgs_out)
        })
    };
    let mut meter = CpuMeter::new();
    let (bytes0, msgs0) = sent(&sim);
    let steady_from = sim.now();
    let steady = Instant::now();
    while run.slices.len() < 3 || steady.elapsed().as_secs_f64() < seconds {
        let events = sim.events_processed();
        let slice = log.open("sim.steady_slice", root, seed);
        let cpu = meter.sample();
        let t = Instant::now();
        let until = sim.now() + SLICE_MS;
        sim.run_until(until);
        let wall = t.elapsed().as_secs_f64();
        run.slice_cpu_ns.push(meter.sample() - cpu);
        let done = sim.events_processed() - events;
        log.close(slice, done);
        run.slices.push((done, wall));
        run.steady_events += done;
    }
    let (bytes1, msgs1) = sent(&sim);
    let virtual_s = (sim.now() - steady_from) as f64 / 1e3;
    run.wire_bytes_node_s = (bytes1 - bytes0) as f64 / w.n as f64 / virtual_s;
    run.msgs_node_s = (msgs1 - msgs0) as f64 / w.n as f64 / virtual_s;

    // Crash a seeded batch at one instant.
    let mut rng = Rng::new(seed ^ 0xC4A5);
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < w.crashes {
        let v = rng.below(w.n as u64) as usize;
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    let survivor_ids: Vec<usize> = (0..sim.len()).filter(|i| !victims.contains(i)).collect();
    // Protocol counters accumulate from the bootstrap on; keep the
    // survivors' pre-crash state to report the crash phase alone.
    let mut hist_before = LatencyHist::new();
    let mut classic_before = Vec::with_capacity(survivor_ids.len());
    for &i in &survivor_ids {
        let m = sim
            .actor(i)
            .as_node()
            .expect("decentralized node")
            .metrics();
        hist_before.merge(&m.detect_to_install);
        classic_before.push(m.classic_decisions);
    }
    let crash_at = sim.now() + 1;
    for &v in &victims {
        sim.schedule_fault(crash_at, Fault::Crash(v));
    }
    let survivors = w.n - w.crashes;
    let events = sim.events_processed();
    let crash = log.open("sim.crash", root, seed);
    let t = Instant::now();
    let settled = sim.run_until_pred(crash_at + 300_000, |s| all_report(s, survivors));
    run.crash_wall_s = t.elapsed().as_secs_f64();
    run.crash_events = sim.events_processed() - events;
    log.close(crash, run.crash_events);
    log.close(root, sim.events_processed());
    if settled.is_none() {
        return Err("survivors did not all install the smaller view".to_string());
    }

    // Every survivor must have walked the same configurations since the
    // crash, ending in the view without the victims.
    let mut reference: Option<Vec<ConfigId>> = None;
    let mut hist = LatencyHist::new();
    for (&i, classic_before) in survivor_ids.iter().zip(classic_before) {
        let actor = sim.actor(i);
        let after: Vec<&(u64, rapid_core::membership::ViewChange)> = actor
            .log
            .views
            .iter()
            .filter(|(t, _)| *t >= crash_at)
            .collect();
        let history: Vec<ConfigId> = after.iter().map(|(_, v)| v.configuration.id()).collect();
        run.view_changes = run.view_changes.max(history.len() as u64);
        match after.last() {
            Some((t, v)) if v.configuration.len() == survivors + break_check as usize => {
                run.install_us.push((t - crash_at) as f64 * 1e3);
            }
            _ if run.violations.len() < 20 => {
                run.violations
                    .push(format!("survivor {i} did not end in the survivors' view"));
            }
            _ => {}
        }
        match &reference {
            None => reference = Some(history),
            Some(r) if *r != history => {
                if run.violations.len() < 20 {
                    run.violations
                        .push(format!("survivor {i} installed a different view history"));
                }
            }
            Some(_) => {}
        }
        let m = actor.as_node().expect("decentralized node").metrics();
        run.classic_decisions = run
            .classic_decisions
            .max(m.classic_decisions - classic_before);
        hist.merge(&m.detect_to_install);
    }
    stats::sorted(&mut run.install_us);
    run.detect_to_install_p50_ms = hist.interval_quantiles(&hist_before).1;
    run.peak_rss_mib = proc::peak_rss_mib();
    Ok(run)
}
