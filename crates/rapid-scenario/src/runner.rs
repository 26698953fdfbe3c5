//! Executes a [`Scenario`] against a [`Driver`] and produces a
//! [`Report`].
//!
//! The execution discipline per phase is fixed, so the same scenario is
//! comparable across drivers and runs:
//!
//! 1. All fault injections are scheduled up front at
//!    `phase_start + at_ms` (repeats expanded), mirroring how the
//!    original experiment binaries pre-scheduled their fault timelines —
//!    which keeps ported scenarios event-for-event identical to them.
//! 2. Workloads run at their offsets (time advances to each).
//! 3. If `run_ms` is set, time advances to `phase_start + run_ms`.
//! 4. Expectations evaluate in order; `converge` advances time itself.

use rapid_core::hash::{DetHashMap, StableHasher};
use rapid_core::obs::LatencyHist;
use rapid_core::rng::Xoshiro256;
use rapid_route::KvOutcome;
use rapid_sim::Fault;

use crate::driver::{Driver, ResolvedWorkload};
use crate::model::{Expect, FaultSpec, Inject, KeyDist, Phase, Scenario, WorkloadAction};
use crate::report::{
    ConvergenceReport, ExpectReport, KvClientPhase, KvPhaseReport, PhaseReport, Report,
    TimelineReport,
};
use crate::world::KvOp;

/// How many trailing trace lines a failed expectation dumps.
const FAILURE_DUMP_TAIL: usize = 64;

/// The client-side record of every acknowledged write: key → latest
/// acked `(value, version)`. The `no_lost_acked_writes` expectation is
/// exactly "every entry here reads back at `>=` its acked version".
#[derive(Default)]
struct KvLedger {
    acked: DetHashMap<String, (String, u64)>,
    /// Monotone value counter, so repeated `put` workloads overwrite
    /// keys with distinguishable fresh values.
    seq: u64,
}

/// How a ledger sweep judges a read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SweepKind {
    /// `kv_available`: the key must read back `Found`.
    Available,
    /// `no_lost_acked_writes`: the key must read back `Found` at a
    /// version at least as new as the last acked write (an equal version
    /// must carry the acked value).
    Durability,
}

/// Sweeps every acked key through the driver, retrying transient
/// failures (rebalance windows) a bounded number of times. Returns
/// `(total, failed_keys)`.
fn sweep_ledger(
    ledger: &KvLedger,
    driver: &mut dyn Driver,
    kind: SweepKind,
) -> Result<(usize, Vec<String>), String> {
    let mut pending: Vec<String> = ledger.acked.keys().cloned().collect();
    pending.sort();
    let total = pending.len();
    for _attempt in 0..3 {
        if pending.is_empty() {
            break;
        }
        let ops: Vec<KvOp> = pending
            .iter()
            .map(|k| KvOp {
                key: k.clone(),
                put_val: None,
            })
            .collect();
        let outcomes = driver
            .kv_batch(None, &ops)
            .map_err(|e| format!("kv sweep: {e}"))?;
        let mut still = Vec::new();
        for (key, outcome) in pending.into_iter().zip(outcomes) {
            let ok = match (&outcome, kind) {
                (KvOutcome::Found { .. }, SweepKind::Available) => true,
                (KvOutcome::Found { val, version }, SweepKind::Durability) => {
                    let (acked_val, acked_ver) = &ledger.acked[&key];
                    *version > *acked_ver || (*version == *acked_ver && val == acked_val)
                }
                _ => false,
            };
            if !ok {
                still.push(key);
            }
        }
        pending = still;
    }
    Ok((total, pending))
}

/// Expands one injection into concrete `(at_ms, Fault)` pairs (absolute
/// driver times), resolving group targets.
fn expand_inject(
    scenario: &Scenario,
    phase_start: u64,
    inject: &Inject,
) -> Result<Vec<(u64, Fault)>, String> {
    let times: Vec<u64> = match inject.repeat {
        None => vec![phase_start + inject.at_ms],
        Some(r) => (0..r.count as u64)
            .map(|k| phase_start + inject.at_ms + k * r.period_ms)
            .collect(),
    };
    let per_fire: Vec<Fault> = match &inject.fault {
        FaultSpec::Crash(t) => scenario
            .resolve_target(t)?
            .into_iter()
            .map(Fault::Crash)
            .collect(),
        FaultSpec::IngressDrop(t, p) => scenario
            .resolve_target(t)?
            .into_iter()
            .map(|i| Fault::IngressDrop(i, *p))
            .collect(),
        FaultSpec::EgressDrop(t, p) => scenario
            .resolve_target(t)?
            .into_iter()
            .map(|i| Fault::EgressDrop(i, *p))
            .collect(),
        FaultSpec::Partition(t) => vec![Fault::Partition(scenario.resolve_target(t)?)],
        FaultSpec::BlackholePair(a, b) => vec![Fault::BlackholePair(*a, *b)],
        FaultSpec::ClearBlackholePair(a, b) => vec![Fault::ClearBlackholePair(*a, *b)],
        FaultSpec::LinkLoss(a, b, p) => vec![Fault::LinkLoss(*a, *b, *p)],
        FaultSpec::SlowNode(t, f) => scenario
            .resolve_target(t)?
            .into_iter()
            .map(|i| Fault::SlowNode(i, *f))
            .collect(),
        FaultSpec::Duplicate(p) => vec![Fault::Duplicate(*p)],
        FaultSpec::Reorder(p, extra) => vec![Fault::Reorder(*p, *extra)],
        FaultSpec::Latency(d) => vec![Fault::Latency(*d)],
    };
    let mut out = Vec::with_capacity(times.len() * per_fire.len());
    for t in times {
        for f in &per_fire {
            out.push((t, f.clone()));
        }
    }
    Ok(out)
}

/// The key sequence of one `put` workload. Sequential sweeps write each
/// key of the `count`-key space once, in order; zipfian draws `count`
/// samples over the same space by inverse-CDF over weights `1/(k+1)^s`,
/// seeded from `(scenario seed, ledger position)` so every workload
/// invocation draws its own reproducible stream on both drivers.
fn draw_keys(dist: KeyDist, count: usize, seed: u64, seq: u64) -> Vec<String> {
    if count == 0 {
        return Vec::new();
    }
    match dist {
        KeyDist::Sequential => (0..count).map(|i| format!("kv-{i:05}")).collect(),
        KeyDist::Zipfian { s } => {
            let mut cdf = Vec::with_capacity(count);
            let mut total = 0.0f64;
            for k in 0..count {
                total += 1.0 / ((k + 1) as f64).powf(s);
                cdf.push(total);
            }
            let mut rng = Xoshiro256::seed_from_u64(
                StableHasher::new("kv-zipf-keys")
                    .write_u64(seed)
                    .write_u64(seq)
                    .finish(),
            );
            (0..count)
                .map(|_| {
                    let u = rng.gen_f64() * total;
                    let rank = cdf.partition_point(|&c| c < u).min(count - 1);
                    format!("kv-{rank:05}")
                })
                .collect()
        }
    }
}

fn run_phase(
    scenario: &Scenario,
    phase: &Phase,
    driver: &mut dyn Driver,
    ledger: &mut KvLedger,
) -> Result<PhaseReport, String> {
    let start = driver.now_ms();
    let traffic_before = driver.traffic_totals();
    let view_changes_before = driver.view_changes();
    let mut kv_puts = 0u64;
    let mut kv_acked = 0u64;

    // 1. Schedule every injection up front. The earliest firing is the
    // phase's convergence-latency origin (fault → last view install).
    let mut fault_at: Option<u64> = None;
    for inject in &phase.injects {
        for (at, fault) in expand_inject(scenario, start, inject)? {
            fault_at = Some(fault_at.map_or(at, |f| f.min(at)));
            driver
                .schedule_fault(at, fault)
                .map_err(|e| format!("phase {:?}: {e}", phase.name))?;
        }
    }

    // 2. Workloads at their offsets (stable-sorted: time cannot run
    // backwards to honor a later-declared, earlier-offset action).
    let mut workloads: Vec<_> = phase.workloads.iter().collect();
    workloads.sort_by_key(|w| w.at_ms);
    for w in workloads {
        let due = start + w.at_ms;
        if driver.now_ms() < due {
            driver.run_until(due);
        }
        let resolved = match &w.action {
            WorkloadAction::Join { count } => ResolvedWorkload::Join(*count),
            WorkloadAction::Leave(t) => ResolvedWorkload::Leave(scenario.resolve_target(t)?),
            WorkloadAction::Put {
                count,
                via,
                value_size,
                key_dist,
            } => {
                // Pad values to the workload's (or the [kv] table's)
                // value_size so data-motion metrics measure real bytes,
                // not 7-byte toys. The seq prefix keeps every written
                // value distinguishable for the durability sweep.
                let min_len = value_size
                    .or_else(|| {
                        scenario
                            .kv
                            .map(|k| k.value_size)
                            .filter(|&s| s > 0)
                    })
                    .unwrap_or(0);
                let keys = draw_keys(*key_dist, *count, scenario.seed, ledger.seq);
                let ops: Vec<KvOp> = keys
                    .into_iter()
                    .map(|key| {
                        ledger.seq += 1;
                        let mut val = format!("v{:06}", ledger.seq);
                        while val.len() < min_len {
                            val.push('x');
                        }
                        KvOp {
                            key,
                            put_val: Some(val),
                        }
                    })
                    .collect();
                let outcomes = driver
                    .kv_batch(*via, &ops)
                    .map_err(|e| format!("phase {:?}: {e}", phase.name))?;
                kv_puts += ops.len() as u64;
                for (op, outcome) in ops.into_iter().zip(outcomes) {
                    if let KvOutcome::Acked { version } = outcome {
                        kv_acked += 1;
                        ledger
                            .acked
                            .insert(op.key, (op.put_val.expect("puts carry values"), version));
                    }
                }
                continue;
            }
        };
        driver
            .apply_workload(&resolved)
            .map_err(|e| format!("phase {:?}: {e}", phase.name))?;
    }

    // 3. Fixed run window.
    if let Some(run_ms) = phase.run_ms {
        driver.run_until(start + run_ms);
    }

    // 4. Expectations.
    let mut expects = Vec::new();
    let mut converged_at_ms = None;
    for e in &phase.expects {
        let report = match e {
            Expect::Converge { to, within_ms, .. } => {
                let target = to.resolve(scenario)?;
                let at = driver.converge(target, *within_ms);
                if converged_at_ms.is_none() {
                    converged_at_ms = at;
                }
                ExpectReport {
                    desc: format!("converge({}={target}) within {within_ms}ms", to.describe()),
                    passed: Some(at.is_some()),
                }
            }
            Expect::AllReport(size) => {
                let target = size.resolve(scenario)?;
                let ok = crate::world::obs_all_report(&driver.observations(), target);
                ExpectReport {
                    desc: format!("all_report({}={target})", size.describe()),
                    passed: Some(ok),
                }
            }
            Expect::MaxSize(size) => {
                let target = size.resolve(scenario)?;
                let ok = driver
                    .observations()
                    .into_iter()
                    .flatten()
                    .all(|v| v <= target as f64 + 0.5);
                ExpectReport {
                    desc: format!("max_size({}={target})", size.describe()),
                    passed: Some(ok),
                }
            }
            Expect::ConsistentHistories => ExpectReport {
                desc: "consistent_histories".to_string(),
                passed: driver.consistent_histories(),
            },
            Expect::ViewChanges { at_most } => {
                // Saturating: the maximum is over live processes, so a
                // crash can take the highest count with it.
                match view_changes_before.zip(driver.view_changes()) {
                    Some((before, after)) => {
                        let added = after.saturating_sub(before);
                        ExpectReport {
                            desc: format!("view_changes({added}) at_most {at_most}"),
                            passed: Some(added <= *at_most),
                        }
                    }
                    None => ExpectReport {
                        desc: format!("view_changes at_most {at_most}"),
                        passed: None,
                    },
                }
            }
            Expect::KvAvailable => {
                let (total, failed) = sweep_ledger(ledger, driver, SweepKind::Available)
                    .map_err(|err| format!("phase {:?}: {err}", phase.name))?;
                ExpectReport {
                    desc: format!("kv_available({total} acked keys)"),
                    passed: Some(failed.is_empty()),
                }
            }
            Expect::NoLostAckedWrites => {
                let (total, failed) = sweep_ledger(ledger, driver, SweepKind::Durability)
                    .map_err(|err| format!("phase {:?}: {err}", phase.name))?;
                ExpectReport {
                    desc: format!("no_lost_acked_writes({total} acked keys)"),
                    passed: Some(failed.is_empty()),
                }
            }
            Expect::KvConverged { within_ms } => ExpectReport {
                desc: format!("kv_converged within {within_ms}ms"),
                passed: driver.kv_converged(*within_ms),
            },
            Expect::ShedObserved { min } => ExpectReport {
                desc: format!("shed_observed(min={min})"),
                passed: driver.kv_stats().map(|s| s.ops_shed >= *min),
            },
            Expect::OpsRecover {
                within_samples,
                min_ops,
            } => {
                // Fold the merged per-node series into per-bucket cluster
                // op counts, then ask whether any of the trailing
                // `within_samples` buckets carried at least `min_ops` —
                // i.e. throughput came back after the overload burst.
                let mut per_bucket: DetHashMap<u64, u64> = DetHashMap::default();
                for (_, _, p) in driver.timeline_points() {
                    *per_bucket.entry(p.t_ms).or_insert(0) += p.ops;
                }
                let mut buckets: Vec<(u64, u64)> = per_bucket.into_iter().collect();
                buckets.sort_unstable();
                let tail = buckets.len().saturating_sub(*within_samples);
                let recovered = buckets[tail..].iter().any(|&(_, ops)| ops >= *min_ops);
                ExpectReport {
                    desc: format!("ops_recover(within_samples={within_samples}, min_ops={min_ops})"),
                    passed: if buckets.is_empty() {
                        None
                    } else {
                        Some(recovered)
                    },
                }
            }
        };
        expects.push(report);
    }

    let end = driver.now_ms();
    let traffic = match (traffic_before, driver.traffic_totals()) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    };
    let kv = driver.kv_stats().map(|stats| KvPhaseReport {
        puts: kv_puts,
        acked: kv_acked,
        rebalances: stats.rebalances,
        bytes_moved: stats.bytes_moved,
        partitions_lost: stats.partitions_lost,
        repairs: stats.repairs_triggered,
        repair_bytes: stats.repair_bytes,
        msgs_sent: stats.msgs_sent,
        frames_sent: stats.frames_sent,
        wire_bytes: stats.wire_bytes,
        shed: stats.ops_shed,
        client: driver.kv_client_stats().map(|(cs, hist)| KvClientPhase {
            submitted: cs.submitted,
            completed: cs.acked + cs.found + cs.missing,
            failed: cs.failed,
            shed: cs.shed,
            retries: cs.retries,
            msgs_sent: cs.msgs_sent,
            p50_ms: hist.quantile_ppm(500_000),
            p99_ms: hist.quantile_ppm(990_000),
            p999_ms: hist.quantile_ppm(999_000),
        }),
    });
    // Convergence-latency samples: for each live process, how long after
    // the phase's first fault injection its final view install landed.
    // Installs predating the fault (e.g. bootstrap's) are excluded.
    let convergence = match (fault_at, driver.view_install_times()) {
        (Some(fault_at_ms), Some(installs)) => {
            let mut samples: Vec<u64> = installs
                .into_iter()
                .filter(|&t| t >= fault_at_ms)
                .map(|t| t - fault_at_ms)
                .collect();
            samples.sort_unstable();
            if samples.is_empty() {
                None
            } else {
                let mut hist = LatencyHist::new();
                for &s in &samples {
                    hist.record(s);
                }
                Some(ConvergenceReport {
                    fault_at_ms,
                    p50: hist.quantile_ppm(500_000),
                    p99: hist.quantile_ppm(990_000),
                    max: *samples.last().expect("non-empty"),
                    samples,
                })
            }
        }
        _ => None,
    };
    // Metrics plane: when sampling is on, fold this phase's window of the
    // merged per-node series into a cluster-wide timeline.
    let timeline = match scenario.settings.obs_sample_ms {
        Some(ms) if ms > 0 => Some(TimelineReport::aggregate(
            &driver.timeline_points(),
            start,
            end,
            ms,
            driver.obs_dropped(),
        )),
        _ => None,
    };
    // Flight recorder: a failed expectation dumps the tail of the merged
    // trace so the failure carries its causal history, not just a verdict.
    let failure_dump = if expects.iter().any(|e| e.passed == Some(false)) {
        let mut lines = driver.flight_dump();
        let keep = lines.len().saturating_sub(FAILURE_DUMP_TAIL);
        lines.drain(..keep);
        lines
    } else {
        Vec::new()
    };
    Ok(PhaseReport {
        name: phase.name.clone(),
        start_ms: start,
        end_ms: end,
        converged_at_ms,
        view_changes: driver.view_changes(),
        traffic,
        kv,
        convergence,
        timeline,
        failure_dump,
        expects,
    })
}

/// Every cluster-process index a fault touches, for validation.
fn fault_indices(scenario: &Scenario, fault: &FaultSpec) -> Result<Vec<usize>, String> {
    Ok(match fault {
        FaultSpec::Crash(t)
        | FaultSpec::IngressDrop(t, _)
        | FaultSpec::EgressDrop(t, _)
        | FaultSpec::Partition(t)
        | FaultSpec::SlowNode(t, _) => scenario.resolve_target(t)?,
        FaultSpec::BlackholePair(a, b) | FaultSpec::ClearBlackholePair(a, b) => vec![*a, *b],
        FaultSpec::LinkLoss(a, b, _) => vec![*a, *b],
        FaultSpec::Duplicate(_) | FaultSpec::Reorder(_, _) | FaultSpec::Latency(_) => Vec::new(),
    })
}

/// Fails fast on dangling group references and out-of-range indices —
/// including inline `nodes = [...]` targets, which would otherwise
/// surface as a mid-run panic (leave) or a silent no-op (crash).
fn validate(scenario: &Scenario) -> Result<(), String> {
    let check = |what: &str, idxs: &[usize]| -> Result<(), String> {
        if let Some(&bad) = idxs.iter().find(|&&i| i >= scenario.n) {
            return Err(format!(
                "{what} resolves to index {bad} outside 0..{}",
                scenario.n
            ));
        }
        Ok(())
    };
    for (name, g) in &scenario.groups {
        check(&format!("group {name:?}"), &g.resolve(scenario.n))?;
    }
    for phase in &scenario.phases {
        for inject in &phase.injects {
            check(
                &format!("phase {:?} inject", phase.name),
                &fault_indices(scenario, &inject.fault)?,
            )?;
        }
        for w in &phase.workloads {
            match &w.action {
                WorkloadAction::Leave(t) => check(
                    &format!("phase {:?} leave", phase.name),
                    &scenario.resolve_target(t)?,
                )?,
                // `via` needs no range check: it picks a smart client
                // modulo `[kv] clients`, not a cluster process.
                WorkloadAction::Put { .. } => {
                    if scenario.kv.is_none() {
                        return Err(format!(
                            "phase {:?}: put workload requires a [kv] table on the scenario",
                            phase.name
                        ));
                    }
                }
                WorkloadAction::Join { .. } => {}
            }
        }
        for e in &phase.expects {
            // Resolve size expressions now: a typo'd group name in a
            // late expectation must not abort a multi-minute run midway.
            if let Expect::Converge { to, .. } | Expect::AllReport(to) | Expect::MaxSize(to) = e {
                to.resolve(scenario)
                    .map_err(|err| format!("phase {:?} expect: {err}", phase.name))?;
            }
            if matches!(
                e,
                Expect::KvAvailable
                    | Expect::NoLostAckedWrites
                    | Expect::KvConverged { .. }
                    | Expect::ShedObserved { .. }
                    | Expect::OpsRecover { .. }
            ) && scenario.kv.is_none()
            {
                return Err(format!(
                    "phase {:?}: kv expectation requires a [kv] table on the scenario",
                    phase.name
                ));
            }
            if matches!(e, Expect::OpsRecover { .. })
                && scenario.settings.obs_sample_ms.is_none_or(|ms| ms == 0)
            {
                return Err(format!(
                    "phase {:?}: ops_recover requires obs_sample_ms > 0",
                    phase.name
                ));
            }
        }
    }
    if let (Some(shards), Some(kv)) = (scenario.settings.kv_shards, &scenario.kv) {
        if shards > kv.partitions as usize {
            return Err(format!(
                "kv_shards = {shards} exceeds the {} KV partitions; a shard with no \
                 partitions can never serve an op (lower kv_shards or raise partitions)",
                kv.partitions
            ));
        }
    }
    Ok(())
}

/// Runs a scenario to completion on a driver.
pub fn run(scenario: &Scenario, driver: &mut dyn Driver) -> Result<Report, String> {
    validate(scenario)?;
    let mut phases = Vec::new();
    let mut ledger = KvLedger::default();
    for phase in &scenario.phases {
        phases.push(run_phase(scenario, phase, driver, &mut ledger)?);
    }
    let passed = phases
        .iter()
        .flat_map(|p| &p.expects)
        .all(|e| e.passed != Some(false));
    Ok(Report {
        scenario: scenario.name.clone(),
        driver: driver.label(),
        n: scenario.n,
        seed: scenario.seed,
        passed,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SimDriver;
    use crate::model::{Group, Phase, SizeExpr, Target, Topology};
    use crate::world::SystemKind;

    fn crash_scenario() -> Scenario {
        Scenario::build("crash-three", 30)
            .seed(12)
            .topology(Topology::Static)
            .group("victims", Group::Nodes(vec![3, 17, 25]))
            .phase(Phase::new("steady").run_for(5_000).expect(Expect::AllReport(SizeExpr::n())))
            .phase(
                Phase::new("crash")
                    .inject(Inject::at(0, FaultSpec::Crash(Target::group("victims"))))
                    .expect(Expect::Converge {
                        to: SizeExpr::n_minus_group("victims"),
                        within_ms: 120_000,
                        within_full_ms: None,
                    })
                    .expect(Expect::ConsistentHistories),
            )
            .finish()
    }

    #[test]
    fn draw_keys_is_deterministic_and_skewed() {
        // Sequential is the exact legacy stream, untouched by seed or seq.
        let seq = draw_keys(KeyDist::Sequential, 3, 59, 7);
        assert_eq!(seq, vec!["kv-00000", "kv-00001", "kv-00002"]);

        // Same (seed, seq) reproduces the identical zipfian draw; a
        // different seq shifts it — each workload burst gets its own stream.
        let z = KeyDist::Zipfian { s: 1.2 };
        let a = draw_keys(z, 500, 59, 7);
        assert_eq!(a, draw_keys(z, 500, 59, 7));
        assert_ne!(a, draw_keys(z, 500, 59, 8));

        // All draws stay inside the rank space, and the head key dominates:
        // rank 0 must be the single most frequent key.
        let mut freq = DetHashMap::<String, usize>::default();
        for k in &a {
            assert!(k.as_str() >= "kv-00000" && k.as_str() < "kv-00500");
            *freq.entry(k.clone()).or_default() += 1;
        }
        let head = freq["kv-00000"];
        assert!(
            freq.iter().all(|(k, &n)| k == "kv-00000" || n <= head),
            "rank 0 should be the hottest key: {head} draws"
        );
        assert!(head >= 50, "s=1.2 head key should soak >10% of 500 draws, got {head}");
    }

    #[test]
    fn sim_run_produces_a_passing_report() {
        let s = crash_scenario();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        let report = run(&s, &mut driver).unwrap();
        assert!(report.passed, "failures: {:?}", report.failures());
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].start_ms, 0);
        assert_eq!(report.phases[0].end_ms, 5_000);
        assert!(report.phases[1].converged_at_ms.is_some());
        assert_eq!(report.phases[1].view_changes, Some(1), "one cut decision");
        let t = report.phases[1].traffic.unwrap();
        assert!(t.bytes_out > 0);
    }

    #[test]
    fn same_seed_same_report_json() {
        let s = crash_scenario();
        let run_once = || {
            let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
            run(&s, &mut driver).unwrap().to_json_string()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn failed_expectation_fails_the_report() {
        let s = Scenario::build("impossible", 10)
            .seed(3)
            .topology(Topology::Static)
            .phase(Phase::new("p").run_for(1_000).expect(Expect::AllReport(SizeExpr::abs(99))))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        let report = run(&s, &mut driver).unwrap();
        assert!(!report.passed);
        assert_eq!(report.failures().len(), 1);
    }

    #[test]
    fn out_of_range_groups_are_rejected() {
        let s = Scenario::build("bad", 5)
            .group("g", Group::Nodes(vec![7]))
            .phase(Phase::new("p"))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        assert!(run(&s, &mut driver).is_err());
    }

    #[test]
    fn out_of_range_inline_targets_are_rejected_up_front() {
        // Inline nodes never pass through a named group, so they need
        // their own validation — a leave at 99 would otherwise panic
        // mid-run, and a crash at 99 would silently do nothing.
        let crash = Scenario::build("bad-crash", 5)
            .topology(Topology::Static)
            .phase(Phase::new("p").inject(Inject::at(0, FaultSpec::Crash(Target::node(99)))))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &crash).unwrap();
        assert!(run(&crash, &mut driver).unwrap_err().contains("99"));

        let leave = Scenario::build("bad-leave", 5)
            .topology(Topology::Static)
            .phase(Phase::new("p").workload(0, crate::model::WorkloadAction::Leave(Target::node(99))))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &leave).unwrap();
        assert!(run(&leave, &mut driver).unwrap_err().contains("99"));

        let link = Scenario::build("bad-link", 5)
            .topology(Topology::Static)
            .phase(Phase::new("p").inject(Inject::at(0, FaultSpec::LinkLoss(0, 99, 0.5))))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &link).unwrap();
        assert!(run(&link, &mut driver).unwrap_err().contains("99"));
    }

    #[test]
    fn workloads_run_in_offset_order_not_declaration_order() {
        // A leave declared *after* a later-offset workload must still
        // fire at its own offset.
        let s = Scenario::build("order", 10)
            .seed(5)
            .topology(Topology::Static)
            .phase(
                Phase::new("p")
                    .workload(8_000, crate::model::WorkloadAction::Leave(Target::node(3)))
                    .workload(1_000, crate::model::WorkloadAction::Leave(Target::node(4)))
                    .run_for(10_000),
            )
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        run(&s, &mut driver).unwrap();
        let world = driver.world();
        assert_eq!(world.now(), 10_000);
        assert_eq!(world.observations().len(), 8, "both leavers terminated");
        // Node 4's departure was processed at t=1000, so the survivors'
        // first view change lands well before the t=8000 workload; under
        // declaration order both leaves would fire at 8000.
        let crate::world::World::Rapid(sim) = world else {
            unreachable!()
        };
        let first_view_at = sim.actor(0).log.views.first().map(|(t, _)| *t);
        assert!(
            first_view_at.is_some_and(|t| t < 8_000),
            "first view change must predate the later workload, got {first_view_at:?}"
        );
    }

    #[test]
    fn kv_scenario_survives_crashes_with_no_lost_acked_writes() {
        let s = Scenario::build("kv-crash", 8)
            .seed(41)
            .topology(Topology::Static)
            .kv(crate::model::KvSpec {
                partitions: 16,
                replication: 3,
                op_window_ms: 5_000,
                value_size: 64,
                ..crate::model::KvSpec::default()
            })
            .phase(
                Phase::new("load")
                    .workload(1_000, crate::model::WorkloadAction::Put { count: 20, via: None, value_size: None, key_dist: crate::model::KeyDist::Sequential })
                    .expect(Expect::KvAvailable),
            )
            .phase(
                Phase::new("crash")
                    .inject(Inject::at(0, FaultSpec::Crash(Target::Nodes(vec![2, 5]))))
                    .expect(Expect::Converge {
                        to: SizeExpr::n_minus(2),
                        within_ms: 120_000,
                        within_full_ms: None,
                    })
                    .expect(Expect::KvAvailable)
                    .expect(Expect::NoLostAckedWrites)
                    .expect(Expect::KvConverged { within_ms: 60_000 }),
            )
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        let report = run(&s, &mut driver).unwrap();
        assert!(report.passed, "failures: {:?}", report.failures());
        let load_kv = report.phases[0].kv.expect("kv metrics present");
        assert_eq!(load_kv.puts, 20);
        assert_eq!(load_kv.acked, 20, "healthy cluster must ack everything");
        let crash_kv = report.phases[1].kv.expect("kv metrics present");
        assert!(crash_kv.rebalances >= 1, "crash must trigger a rebalance");
        assert!(crash_kv.bytes_moved > 0, "rebalance must move data");
        assert_eq!(crash_kv.partitions_lost, 0, "RF=3 survives 2 crashes");
        // 20 keys padded to 64 bytes: a handoff of even one partition
        // outweighs the unpadded corpus, so the padding is visibly real.
        assert!(
            crash_kv.bytes_moved > 500,
            "value_size padding must show up in bytes_moved: {crash_kv:?}"
        );
        // Everything goes through a smart client, so client-observed
        // metrics must be present and account for at least the put
        // workload.
        let client = load_kv.client.expect("client metrics present");
        assert!(client.submitted >= 20, "client saw the puts: {client:?}");
        assert!(client.completed >= 20, "client completed the puts: {client:?}");
        // The kv object must appear in the JSON, and runs are byte-stable.
        let json = report.to_json_string();
        assert!(json.contains("\"kv\":{\"puts\":20"), "kv json missing: {json}");
        assert!(json.contains("\"repair_bytes\":"), "repair metrics missing: {json}");
        assert!(json.contains("\"client\":{\"submitted\":"), "client json missing: {json}");
    }

    #[test]
    fn put_via_picks_a_client_not_a_process() {
        // via = 6 names no process of a 5-node cluster, but it does name
        // smart client 6 of 8.
        let put = WorkloadAction::Put { count: 10, via: Some(6), value_size: None, key_dist: KeyDist::Sequential };
        let s = Scenario::build("kv-via", 5)
            .topology(Topology::Static)
            .kv(crate::model::KvSpec { partitions: 8, clients: 8, ..Default::default() })
            .phase(Phase::new("load").workload(1_000, put))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        let report = run(&s, &mut driver).unwrap();
        assert_eq!(report.phases[0].kv.expect("kv metrics").acked, 10);
        let crate::world::World::RapidKv(w) = driver.world() else { unreachable!() };
        let submitted = |c: usize| w.sim.actor(5 + c).client_stats().expect("client").submitted;
        assert_eq!((submitted(6), submitted(0)), (10, 0));
    }

    #[test]
    fn kv_workloads_without_kv_table_fail_validation() {
        let s = Scenario::build("kv-missing", 4)
            .topology(Topology::Static)
            .phase(Phase::new("p").workload(0, crate::model::WorkloadAction::Put {
                count: 1,
                via: None,
                value_size: None,
                key_dist: crate::model::KeyDist::Sequential,
            }))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        let err = run(&s, &mut driver).unwrap_err();
        assert!(err.contains("[kv]"), "got: {err}");

        let s = Scenario::build("kv-missing-expect", 4)
            .topology(Topology::Static)
            .phase(Phase::new("p").run_for(100).expect(Expect::KvAvailable))
            .finish();
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).unwrap();
        let err = run(&s, &mut driver).unwrap_err();
        assert!(err.contains("[kv]"), "got: {err}");
    }

    #[test]
    fn settings_overrides_change_protocol_behavior() {
        use crate::model::SettingsPatch;
        // A scenario that slashes the failure-detector cadence converges
        // on a crash much faster than the default configuration.
        let base = |patch: SettingsPatch| {
            Scenario::build("tuned", 12)
                .seed(17)
                .topology(Topology::Static)
                .settings(patch)
                .phase(
                    Phase::new("crash")
                        .inject(Inject::at(1_000, FaultSpec::Crash(Target::node(5))))
                        .expect(Expect::Converge {
                            to: SizeExpr::n_minus(1),
                            within_ms: 300_000,
                            within_full_ms: None,
                        }),
                )
                .finish()
        };
        let run_one = |s: &Scenario| {
            let mut driver = SimDriver::new(SystemKind::Rapid, s).unwrap();
            let report = run(s, &mut driver).unwrap();
            assert!(report.passed, "failures: {:?}", report.failures());
            report.phases[0].converged_at_ms.unwrap()
        };
        let slow = run_one(&base(SettingsPatch::default()));
        let fast = run_one(&base(SettingsPatch {
            fd_probe_interval_ms: Some(200),
            fd_probe_timeout_ms: Some(200),
            consensus_fallback_base_ms: Some(1_000),
            consensus_fallback_jitter_ms: Some(500),
            ..SettingsPatch::default()
        }));
        assert!(
            fast < slow,
            "5x faster probing must converge sooner: fast={fast}ms slow={slow}ms"
        );
    }

    #[test]
    fn settings_overrides_reject_baselines_and_bad_combinations() {
        use crate::model::SettingsPatch;
        let s = Scenario::build("t", 5)
            .settings(SettingsPatch {
                fd_probe_interval_ms: Some(500),
                ..SettingsPatch::default()
            })
            .phase(Phase::new("p").run_for(100))
            .finish();
        let err = SimDriver::new(SystemKind::Memberlist, &s).err().expect("must reject");
        assert!(err.contains("native configuration"), "got: {err}");
        // An invalid combination (H > K) is rejected up front.
        let bad = Scenario::build("t", 5)
            .settings(SettingsPatch {
                k: Some(4),
                h: Some(9),
                ..SettingsPatch::default()
            })
            .phase(Phase::new("p").run_for(100))
            .finish();
        let err = SimDriver::new(SystemKind::Rapid, &bad).err().expect("must reject");
        assert!(err.contains("invalid"), "got: {err}");
    }

    #[test]
    fn repeats_expand_into_flip_flop_schedules() {
        let s = Scenario::build("t", 50)
            .group("f", Group::Range { first: 0, count: 2 })
            .finish();
        let inject = Inject::at(
            10_000,
            FaultSpec::IngressDrop(Target::group("f"), 1.0),
        )
        .every(40_000, 3);
        let fires = expand_inject(&s, 100_000, &inject).unwrap();
        assert_eq!(fires.len(), 6, "3 firings x 2 nodes");
        assert_eq!(fires[0].0, 110_000);
        assert_eq!(fires[5].0, 190_000);
    }
}
