//! Determinism and cross-driver pins for the shipped scenario files.

use rapid_scenario::{runner, RealDriver, Scenario, SimDriver, SystemKind};

fn shipped(stem: &str) -> Scenario {
    let path = format!(
        "{}/../../scenarios/{stem}.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).expect("shipped scenario readable");
    Scenario::from_toml(&text).expect("shipped scenario valid")
}

/// Every shipped scenario file must parse, resolve its groups, and carry
/// at least one expectation or fixed run window per phase.
#[test]
fn all_shipped_scenarios_are_well_formed() {
    for stem in [
        "smoke_crash",
        "fig08_crashes",
        "fig09_flipflop",
        "fig10_packet_loss",
        "chaos_partition",
        "kv_churn",
        "kv_rebalance",
        "kv_repair",
        "kv_overload",
    ] {
        let s = shipped(stem);
        for (name, g) in &s.groups {
            let idxs = g.resolve(s.n);
            assert!(!idxs.is_empty(), "{stem}: group {name} resolves empty");
            assert!(
                idxs.iter().all(|&i| i < s.n),
                "{stem}: group {name} out of range"
            );
        }
        for p in &s.phases {
            assert!(
                p.run_ms.is_some() || !p.expects.is_empty(),
                "{stem}: phase {} neither runs nor expects",
                p.name
            );
        }
    }
}

/// The golden determinism pin: a shipped TOML scenario produces an
/// *identical* Report JSON across two runs of the same seed on the sim
/// driver.
#[test]
fn shipped_scenario_report_json_is_identical_across_runs() {
    let scenario = shipped("smoke_crash");
    let run_once = || {
        let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
        runner::run(&scenario, &mut driver)
            .expect("run")
            .to_json_string()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "same seed must give byte-identical reports");
    assert!(first.contains("\"passed\":true"), "smoke must pass: {first}");
}

/// A different seed must change the trace-derived fields (convergence
/// instants), i.e. the report is genuinely seed-dependent, not constant.
#[test]
fn different_seed_changes_the_report() {
    let scenario = shipped("smoke_crash");
    let mut reseeded = scenario.clone();
    reseeded.seed = scenario.seed + 1;
    let json = |s: &Scenario| {
        let mut driver = SimDriver::new(SystemKind::Rapid, s).expect("sim driver");
        runner::run(s, &mut driver).expect("run").to_json_string()
    };
    assert_ne!(json(&scenario), json(&reseeded));
}

/// The cross-driver contract: the same smoke scenario file runs
/// unmodified on the simulator and on a real TCP cluster, and passes on
/// both.
#[test]
fn smoke_scenario_passes_on_both_drivers() {
    let scenario = shipped("smoke_crash");

    let mut sim = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
    let sim_report = runner::run(&scenario, &mut sim).expect("sim run");
    assert!(
        sim_report.passed,
        "sim failures: {:?}",
        sim_report.failures()
    );
    assert_eq!(sim_report.driver, "sim:rapid");

    let mut real = RealDriver::new(&scenario).expect("real driver");
    let real_report = runner::run(&scenario, &mut real).expect("real run");
    assert!(
        real_report.passed,
        "real failures: {:?}",
        real_report.failures()
    );
    assert_eq!(real_report.driver, "real:rapid");
    assert!(
        real_report.phases[1].converged_at_ms.is_some(),
        "crash must be detected over real TCP"
    );
}

/// The KV determinism pin: `kv_churn` (placement, replication, handoff,
/// ledger sweeps and all) produces byte-identical report JSON across two
/// sim runs of the same seed — and the report carries the KV metrics.
#[test]
fn kv_churn_report_json_is_identical_across_sim_runs() {
    let scenario = shipped("kv_churn");
    let run_once = || {
        let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
        runner::run(&scenario, &mut driver)
            .expect("run")
            .to_json_string()
    };
    let first = run_once();
    assert_eq!(first, run_once(), "same seed must give byte-identical reports");
    assert!(first.contains("\"passed\":true"), "kv_churn must pass: {first}");
    assert!(first.contains("\"kv\":{"), "kv metrics must be reported: {first}");
    assert!(
        first.contains("no_lost_acked_writes"),
        "durability expectation must be present: {first}"
    );
}

/// The KV content pin: the sim report JSON of `kv_churn` and
/// `kv_rebalance` — every ledger count, verdict, traffic total and
/// convergence instant — hashes to a recorded fingerprint. A change
/// that moves a byte regenerates these with the report diff explained
/// (`scenario <file> --driver sim --json` prints the same report).
/// And per-peer batching must be visible in the traffic it pins:
/// fewer frames than messages.
#[test]
fn kv_churn_and_kv_rebalance_report_content_is_pinned() {
    use rapid_core::hash::StableHasher;
    for (stem, golden) in [
        ("kv_churn", 0x62e9_a406_ee0c_d8af_u64),
        ("kv_rebalance", 0x7e46_f14f_b62f_2cf5),
    ] {
        let scenario = shipped(stem);
        let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
        let report = runner::run(&scenario, &mut driver).expect("run");
        let json = report.to_json_string();
        let fingerprint = StableHasher::new("scenario-report")
            .write_bytes(json.as_bytes())
            .finish();
        assert_eq!(
            fingerprint, golden,
            "{stem} report content changed ({fingerprint:#018x}): {json}"
        );
        let last = report.phases.last().and_then(|p| p.kv).expect("kv");
        assert!(last.frames_sent < last.msgs_sent, "{stem} must coalesce: {last:?}");
    }
}

/// The KV cross-driver contract: the same `kv_churn` file runs
/// unmodified on a real TCP cluster and keeps every acked write.
#[test]
fn kv_churn_passes_on_the_real_driver() {
    let scenario = shipped("kv_churn");
    let mut real = RealDriver::new(&scenario).expect("real driver");
    let report = runner::run(&scenario, &mut real).expect("real run");
    assert!(report.passed, "real failures: {:?}", report.failures());
    let kv = report.phases[2].kv.expect("kv metrics on the churn phase");
    assert!(kv.rebalances >= 1, "crashes must trigger rebalancing");
    assert_eq!(kv.partitions_lost, 0, "RF=3 must survive two crashes");
}

/// `kv_repair` kills the deterministic handoff source inside the first
/// crash's detection window, so the removal view names an already-dead
/// push source. The run must pass with anti-entropy repair actually
/// exercised (pulls triggered, bytes served), every acked write intact,
/// and byte-identical report JSON across two sim runs of the seed.
#[test]
fn kv_repair_recovers_lost_handoffs_on_the_sim_driver() {
    let scenario = shipped("kv_repair");
    let run_once = || {
        let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
        runner::run(&scenario, &mut driver).expect("run")
    };
    let report = run_once();
    assert!(report.passed, "failures: {:?}", report.failures());
    let wound = report.phases[2].kv.expect("kv metrics on the wound phase");
    assert!(
        wound.repairs >= 1,
        "the staggered crash must trigger repair pulls: {wound:?}"
    );
    assert!(wound.repair_bytes > 0, "repair must serve bytes: {wound:?}");
    assert_eq!(wound.partitions_lost, 0, "RF=3 must survive two crashes");
    assert!(
        report.phases[2]
            .expects
            .iter()
            .any(|e| e.desc.starts_with("kv_converged") && e.passed == Some(true)),
        "digest sweep must confirm convergence"
    );
    assert_eq!(
        report.to_json_string(),
        run_once().to_json_string(),
        "same seed must give byte-identical reports"
    );
}

/// `[kv] repair_interval_ms` reaches every simulated data plane: with
/// repair disabled (0), `kv_repair` reports no repair pull in any phase.
#[test]
fn kv_repair_interval_zero_disables_repair_on_the_sim_driver() {
    let mut scenario = shipped("kv_repair");
    scenario.kv.as_mut().expect("[kv] table").repair_interval_ms = 0;
    let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
    let report = runner::run(&scenario, &mut driver).expect("run");
    for p in &report.phases {
        let kv = p.kv.expect("kv metrics");
        assert_eq!(kv.repairs, 0, "phase {}: {kv:?}", p.name);
    }
}

/// `kv_rebalance` exercises scale-out + scale-in handoff on the sim
/// driver and must keep every acked write through both.
#[test]
fn kv_rebalance_passes_and_moves_data() {
    let scenario = shipped("kv_rebalance");
    let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
    let report = runner::run(&scenario, &mut driver).expect("run");
    assert!(report.passed, "failures: {:?}", report.failures());
    let out = report.phases[1].kv.expect("kv metrics");
    assert!(out.bytes_moved > 0, "scale-out must hand partitions to joiners");
    let last = report.phases[2].kv.expect("kv metrics");
    assert!(last.bytes_moved > out.bytes_moved, "scale-in must move more data");
    assert_eq!(last.partitions_lost, 0, "graceful scaling loses nothing");
}

/// The flight-recorder determinism pin: on a shipped scenario the merged
/// trace JSONL is *byte-identical* across simulator thread counts — the
/// sharded engine keeps per-node event streams identical, and the dump
/// is a pure merge of ring contents.
#[test]
fn shipped_scenario_trace_is_identical_across_thread_counts() {
    use rapid_scenario::Driver;
    let base = shipped("smoke_crash");
    let trace_with = |threads: usize| {
        let mut s = base.clone();
        s.settings.threads = Some(threads);
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).expect("sim driver");
        runner::run(&s, &mut driver).expect("run");
        driver.flight_dump()
    };
    let t1 = trace_with(1);
    assert!(!t1.is_empty(), "sim runs record traces by default");
    assert!(
        t1.iter().any(|l| l.contains("\"kind\":\"view_install\"")),
        "crash scenario must trace view installs: {t1:?}"
    );
    for threads in [2, 4] {
        assert_eq!(
            t1,
            trace_with(threads),
            "trace must be byte-identical at {threads} threads"
        );
    }
}

/// A failed expectation captures the flight recorder's tail — the causal
/// history leading into the failure — while passing phases stay clean.
#[test]
fn failed_expectation_dumps_the_flight_recorder() {
    use rapid_scenario::model::{Expect, Phase, SizeExpr, Topology};
    let s = Scenario::build("fr-dump", 5)
        .seed(11)
        .topology(Topology::Static)
        .phase(Phase::new("ok").run_for(2_000).expect(Expect::AllReport(SizeExpr::n())))
        .phase(Phase::new("bad").run_for(1_000).expect(Expect::AllReport(SizeExpr::abs(99))))
        .finish();
    let mut driver = SimDriver::new(SystemKind::Rapid, &s).expect("sim driver");
    let report = runner::run(&s, &mut driver).expect("run");
    assert!(!report.passed);
    assert!(
        report.phases[0].failure_dump.is_empty(),
        "passing phases carry no dump"
    );
    let dump = &report.phases[1].failure_dump;
    assert!(!dump.is_empty(), "failed phase must dump trace events");
    assert!(dump.len() <= 64, "dump is a bounded tail, got {}", dump.len());
    assert!(
        dump.iter().all(|l| l.starts_with("{\"t\":") && l.ends_with('}')),
        "dump lines are JSONL: {dump:?}"
    );
    // The dump is diagnostics, not part of the comparable report bytes.
    assert!(!report.to_json_string().contains("failure_dump"));
}

/// The metrics-plane determinism pin: with sampling on, a shipped
/// scenario's merged `--metrics` JSONL and its report (now carrying
/// per-phase `timeline` objects) are *byte-identical* across simulator
/// thread counts — and with sampling off (the default), the report
/// carries no timeline at all, so prior report bytes are unchanged.
#[test]
fn shipped_scenario_metrics_are_identical_across_thread_counts() {
    use rapid_scenario::Driver;
    let base = shipped("smoke_crash");
    let run_with = |threads: usize, sample_ms: Option<u64>| {
        let mut s = base.clone();
        s.settings.threads = Some(threads);
        s.settings.obs_sample_ms = sample_ms;
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).expect("sim driver");
        let report = runner::run(&s, &mut driver).expect("run");
        (report, driver.metrics_dump(), driver.obs_dropped())
    };
    let (r1, m1, d1) = run_with(1, Some(1_000));
    assert!(!m1.is_empty(), "sampling must produce timeline lines");
    assert!(
        m1.iter().all(|l| l.starts_with("{\"t\":") && l.contains("\"node\":")),
        "metrics dump is JSONL: {m1:?}"
    );
    assert_eq!(d1, 0, "default ring must not drop at this scale");
    let tl = r1.phases[1].timeline.as_ref().expect("crash phase timeline");
    assert_eq!(tl.sample_ms, 1_000);
    assert!(!tl.series.is_empty(), "sampled phase must carry series rows");
    assert!(
        tl.series.iter().any(|p| p.msgs > 0),
        "cluster-wide rows must show traffic: {:?}",
        tl.series
    );
    assert!(
        r1.to_json_string().contains("\"timeline\":{"),
        "report JSON must carry the timeline object"
    );
    for threads in [2, 4] {
        let (r, m, _) = run_with(threads, Some(1_000));
        assert_eq!(m1, m, "metrics JSONL must be byte-identical at {threads} threads");
        assert_eq!(
            r1.to_json_string(),
            r.to_json_string(),
            "report must be byte-identical at {threads} threads"
        );
    }
    // Sampling off: no timeline anywhere in the report bytes.
    let (off, m_off, _) = run_with(1, None);
    assert!(m_off.is_empty(), "no sampling, no metrics lines");
    assert!(
        !off.to_json_string().contains("timeline"),
        "obs_sample_ms unset must leave report bytes free of timelines"
    );
}

/// The admission-control pin: `kv_overload` floods tiny leader
/// inboxes with a burst beyond capacity. The cluster must shed with
/// typed overload verdicts (never ack-then-drop: `no_lost_acked_writes`
/// holds while shedding), throughput must recover per the metrics-plane
/// timeline, the client plane must surface its shed/retry counters in
/// the report, and the report JSON must be byte-identical across
/// simulator thread counts.
#[test]
fn kv_overload_sheds_typed_keeps_acked_writes_and_recovers() {
    let base = shipped("kv_overload");
    let run_with = |threads: usize| {
        let mut s = base.clone();
        s.settings.threads = Some(threads);
        let mut driver = SimDriver::new(SystemKind::Rapid, &s).expect("sim driver");
        runner::run(&s, &mut driver).expect("run")
    };
    let report = run_with(1);
    assert!(report.passed, "failures: {:?}", report.failures());
    let burst = report.phases[1].kv.expect("kv metrics on the burst phase");
    assert!(burst.shed >= 1, "the burst must shed: {burst:?}");
    assert!(
        burst.acked < burst.puts,
        "an over-capacity burst cannot ack everything: {burst:?}"
    );
    let client = burst.client.expect("client metrics");
    assert!(client.shed >= 1, "client must see overload verdicts: {client:?}");
    assert!(client.retries >= 1, "shed ops re-queue: {client:?}");
    let json = report.to_json_string();
    assert!(json.contains("\"shed\":"), "shed must be reported: {json}");
    assert!(json.contains("\"client\":{"), "client plane must be reported: {json}");
    assert_eq!(
        json,
        run_with(2).to_json_string(),
        "report must be byte-identical across thread counts"
    );
}

/// Fault-injecting phases report per-process fault→view-install latency
/// samples, and those samples are deterministic across runs.
#[test]
fn crash_phase_reports_convergence_samples() {
    let scenario = shipped("smoke_crash");
    let run_once = || {
        let mut driver = SimDriver::new(SystemKind::Rapid, &scenario).expect("sim driver");
        runner::run(&scenario, &mut driver).expect("run")
    };
    let report = run_once();
    assert!(
        report.phases[0].convergence.is_none(),
        "no faults in the form phase"
    );
    let c = report.phases[1].convergence.as_ref().expect("crash phase converges");
    assert_eq!(c.samples.len(), 4, "four survivors install the view");
    assert!(c.samples.windows(2).all(|w| w[0] <= w[1]), "sorted ascending");
    assert!(*c.samples.last().unwrap() == c.max, "max is the last sample");
    assert!(c.p50 <= c.p99, "quantiles are monotone");
    assert!(c.p99 >= c.max || c.p99 * 5 >= c.max * 4, "p99 near max for 4 samples");
    assert_eq!(
        report.to_json_string(),
        run_once().to_json_string(),
        "convergence samples are deterministic"
    );
}

/// `view_changes = { at_most }` judges the phase's own increase in the
/// cumulative count. One crash adds one view change and passes; two
/// crashes far enough apart to be detected separately add two and fail
/// `at_most = 1`.
#[test]
fn view_changes_expectation_fails_a_two_change_phase() {
    use rapid_scenario::model::{Expect, FaultSpec, Inject, Phase, SizeExpr, Target, Topology};
    let one_change = |p: Phase| p.expect(Expect::ViewChanges { at_most: 1 });
    let s = Scenario::build("two-changes", 8)
        .seed(5)
        .topology(Topology::Static)
        .phase(Phase::new("steady").run_for(5_000))
        .phase(one_change(
            Phase::new("one-crash")
                .inject(Inject::at(0, FaultSpec::Crash(Target::node(1))))
                .run_for(60_000)
                .expect(Expect::AllReport(SizeExpr::abs(7))),
        ))
        .phase(one_change(
            Phase::new("two-crashes")
                .inject(Inject::at(0, FaultSpec::Crash(Target::node(2))))
                .inject(Inject::at(60_000, FaultSpec::Crash(Target::node(3))))
                .run_for(120_000)
                .expect(Expect::AllReport(SizeExpr::abs(5))),
        ))
        .finish();
    let mut driver = SimDriver::new(SystemKind::Rapid, &s).expect("sim driver");
    let report = runner::run(&s, &mut driver).expect("run");
    let verdict = |phase: usize| {
        let e = report.phases[phase].expects.last().expect("view_changes verdict");
        (e.desc.clone(), e.passed)
    };
    assert_eq!(
        verdict(1),
        ("view_changes(1) at_most 1".to_string(), Some(true))
    );
    assert_eq!(
        verdict(2),
        ("view_changes(2) at_most 1".to_string(), Some(false))
    );
    assert!(report.phases[2].expects[0].passed == Some(true), "both crashes removed");
    assert!(!report.passed);
}
