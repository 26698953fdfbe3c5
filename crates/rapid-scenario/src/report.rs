//! Structured scenario results.
//!
//! A [`Report`] is everything a scenario run measured: per-phase
//! convergence instants, expectation verdicts, view-change counts, and
//! traffic deltas. Serialization is deterministic (field order fixed, no
//! timestamps, no float formatting surprises), so two runs of the same
//! seed on the same driver produce byte-identical JSON — the golden tests
//! pin exactly that.

use rapid_core::obs::TimelinePoint;

use crate::json::Json;
use crate::world::TrafficTotals;

/// Verdict of one expectation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectReport {
    /// Human-readable label (`converge(n-victims) within 300000ms`).
    pub desc: String,
    /// `Some(true)`/`Some(false)` = evaluated; `None` = the driver does
    /// not support this expectation (skipped, does not fail the run).
    pub passed: Option<bool>,
}

/// KV data-plane measurements of one phase (present only when the
/// scenario carries a `[kv]` table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvPhaseReport {
    /// Writes attempted by this phase's `put` workloads.
    pub puts: u64,
    /// Writes acknowledged (fully replicated).
    pub acked: u64,
    /// View changes the data plane has rebalanced over (cumulative).
    pub rebalances: u64,
    /// Handoff bytes pushed so far (cumulative).
    pub bytes_moved: u64,
    /// Partitions whose whole replica set vanished at once (cumulative).
    pub partitions_lost: u64,
    /// Anti-entropy pulls triggered so far (cumulative).
    pub repairs: u64,
    /// Anti-entropy push bytes served so far (cumulative).
    pub repair_bytes: u64,
    /// Logical data-plane messages emitted so far (cumulative).
    pub msgs_sent: u64,
    /// Wire frames emitted so far (cumulative; `<= msgs_sent` — the gap
    /// is the per-peer batching win).
    pub frames_sent: u64,
    /// Encoded data-plane wire bytes emitted so far (cumulative).
    pub wire_bytes: u64,
    /// Remote ops shed by admission control so far (cumulative, typed
    /// overload errors — never silent drops).
    pub shed: u64,
    /// Smart-client plane measurements, present only when ops were
    /// submitted through view-subscribed clients.
    pub client: Option<KvClientPhase>,
}

impl KvPhaseReport {
    /// Mean logical messages per emitted wire frame, in thousandths
    /// (3500 = 3.5 msgs/frame) so report JSON stays float-free and
    /// byte-stable. 0 when nothing was sent.
    pub fn msgs_per_frame_milli(&self) -> u64 {
        (self.msgs_sent * 1000).checked_div(self.frames_sent).unwrap_or(0)
    }
}

/// Client-observed measurements of the smart-client plane (cumulative
/// across a run; integer-only so report JSON stays byte-stable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvClientPhase {
    /// Ops submitted through clients so far.
    pub submitted: u64,
    /// Ops completed with a server answer (acked writes + resolved
    /// reads) so far.
    pub completed: u64,
    /// Ops that failed at their client deadline so far.
    pub failed: u64,
    /// Typed overload verdicts clients received so far (each backs the
    /// op off and re-queues it).
    pub shed: u64,
    /// Op re-sends after retryable verdicts so far.
    pub retries: u64,
    /// Data-plane messages clients put on the wire so far.
    pub msgs_sent: u64,
    /// Client-observed op-latency p50 (histogram bucket bound, ms).
    pub p50_ms: u64,
    /// Client-observed op-latency p99 (ms).
    pub p99_ms: u64,
    /// Client-observed op-latency p99.9 (ms).
    pub p999_ms: u64,
}

impl KvClientPhase {
    /// Mean client wire messages per completed op, in thousandths (2000
    /// = 2 msgs/op: request + response) — the zero-hop routing headline.
    /// 0 when nothing completed.
    pub fn msgs_per_op_milli(&self) -> u64 {
        (self.msgs_sent * 1000).checked_div(self.completed).unwrap_or(0)
    }
}

/// View-change convergence of one phase's fault injection: how long each
/// live process took from the (first) injection instant to its final
/// view install of the phase. Present only on sim-driver phases that
/// inject at least one fault — unchanged scenarios and the real driver
/// keep their exact prior report bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Driver time of the phase's first fault injection.
    pub fault_at_ms: u64,
    /// Per-live-process `last view install − fault_at_ms`, sorted
    /// ascending (processes whose view predates the fault are excluded).
    pub samples: Vec<u64>,
    /// Histogram p50 of the samples (log-bucket upper bound, ms).
    pub p50: u64,
    /// Histogram p99 of the samples (ms).
    pub p99: u64,
    /// Exact maximum sample — the paper's headline metric: when the
    /// *last* process installed the agreed view.
    pub max: u64,
}

/// Cluster-aggregated metrics timeline of one phase: one row per sample
/// instant inside the phase window, counters summed and interval
/// quantiles maxed across processes. Present only when the scenario
/// samples (`obs_sample_ms > 0`) — every prior report keeps its exact
/// bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineReport {
    /// Sampling cadence the run used.
    pub sample_ms: u64,
    /// Samples lost cluster-wide to bounded rings wrapping (cumulative,
    /// not per-phase — a nonzero value means early points are gone).
    pub dropped: u64,
    /// Aggregated interval-delta rows, in time order.
    pub series: Vec<TimelinePoint>,
}

impl TimelineReport {
    /// Aggregates per-process points (already `(t, process)`-sorted)
    /// that fall inside `[start_ms, end_ms]` into one row per instant.
    pub fn aggregate(
        points: &[(u64, usize, TimelinePoint)],
        start_ms: u64,
        end_ms: u64,
        sample_ms: u64,
        dropped: u64,
    ) -> TimelineReport {
        let mut series: Vec<TimelinePoint> = Vec::new();
        for &(t, _, ref p) in points {
            if t < start_ms || t > end_ms {
                continue;
            }
            match series.last_mut() {
                Some(row) if row.t_ms == t => row.absorb(p),
                _ => series.push(*p),
            }
        }
        TimelineReport {
            sample_ms,
            dropped,
            series,
        }
    }
}

/// Results of one phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Phase name.
    pub name: String,
    /// Driver time when the phase began.
    pub start_ms: u64,
    /// Driver time when the phase ended.
    pub end_ms: u64,
    /// Absolute instant the first `converge` expectation held, if any.
    pub converged_at_ms: Option<u64>,
    /// View changes installed so far (cumulative), where the driver
    /// tracks them.
    pub view_changes: Option<u64>,
    /// Traffic during this phase, where the driver meters it.
    pub traffic: Option<TrafficTotals>,
    /// KV data-plane measurements, where hosted.
    pub kv: Option<KvPhaseReport>,
    /// Fault→view-install convergence samples, where tracked (sim
    /// driver, phases with at least one fault inject).
    pub convergence: Option<ConvergenceReport>,
    /// Cluster-aggregated metrics timeline of this phase's window,
    /// where sampled (`obs_sample_ms > 0`).
    pub timeline: Option<TimelineReport>,
    /// Flight-recorder tail captured when an expectation in this phase
    /// failed: the last N merged trace JSONL lines. Deliberately NOT
    /// part of the JSON report (diagnostics go to stderr; report bytes
    /// stay comparable across passing and failing runs' shapes).
    pub failure_dump: Vec<String>,
    /// Expectation verdicts, in scenario order.
    pub expects: Vec<ExpectReport>,
}

/// A complete scenario result.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Scenario name.
    pub scenario: String,
    /// Driver label (`sim:rapid`, `real:rapid`, ...).
    pub driver: String,
    /// Cluster size the run used.
    pub n: usize,
    /// Seed the run used.
    pub seed: u64,
    /// Whether every evaluated expectation passed.
    pub passed: bool,
    /// Per-phase results.
    pub phases: Vec<PhaseReport>,
}

impl Report {
    /// Whether any expectation was evaluated and failed.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.phases {
            for e in &p.expects {
                if e.passed == Some(false) {
                    out.push(format!("{}: {}", p.name, e.desc));
                }
            }
        }
        out
    }

    /// The report as a JSON tree.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::Str(self.scenario.clone())),
            ("driver", Json::Str(self.driver.clone())),
            ("n", Json::uint(self.n as u64)),
            ("seed", Json::uint(self.seed)),
            ("passed", Json::Bool(self.passed)),
            (
                "phases",
                Json::Array(self.phases.iter().map(phase_json).collect()),
            ),
        ])
    }

    /// Compact JSON string (byte-stable across runs of one seed).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

fn phase_json(p: &PhaseReport) -> Json {
    let mut fields = vec![
        ("name", Json::Str(p.name.clone())),
        ("start_ms", Json::uint(p.start_ms)),
        ("end_ms", Json::uint(p.end_ms)),
        (
            "converged_at_ms",
            Json::opt(p.converged_at_ms, Json::uint),
        ),
        ("view_changes", Json::opt(p.view_changes, Json::uint)),
        (
            "traffic",
            Json::opt(p.traffic, |t| {
                Json::obj(vec![
                    ("bytes_in", Json::uint(t.bytes_in)),
                    ("bytes_out", Json::uint(t.bytes_out)),
                    ("msgs_in", Json::uint(t.msgs_in)),
                    ("msgs_out", Json::uint(t.msgs_out)),
                ])
            }),
        ),
    ];
    // The kv object appears only on KV-hosting runs, so reports of
    // membership-only scenarios keep their exact pre-KV shape.
    if let Some(kv) = p.kv {
        let mut kv_fields = vec![
            ("puts", Json::uint(kv.puts)),
            ("acked", Json::uint(kv.acked)),
            ("rebalances", Json::uint(kv.rebalances)),
            ("bytes_moved", Json::uint(kv.bytes_moved)),
            ("partitions_lost", Json::uint(kv.partitions_lost)),
            ("repairs", Json::uint(kv.repairs)),
            ("repair_bytes", Json::uint(kv.repair_bytes)),
            ("msgs_sent", Json::uint(kv.msgs_sent)),
            ("frames_sent", Json::uint(kv.frames_sent)),
            ("wire_bytes", Json::uint(kv.wire_bytes)),
            ("msgs_per_frame_milli", Json::uint(kv.msgs_per_frame_milli())),
            ("shed", Json::uint(kv.shed)),
        ];
        // The client object appears once a client plane exists (the
        // real driver starts its client with the first batch).
        if let Some(c) = kv.client {
            kv_fields.push((
                "client",
                Json::obj(vec![
                    ("submitted", Json::uint(c.submitted)),
                    ("completed", Json::uint(c.completed)),
                    ("failed", Json::uint(c.failed)),
                    ("shed", Json::uint(c.shed)),
                    ("retries", Json::uint(c.retries)),
                    ("msgs_sent", Json::uint(c.msgs_sent)),
                    ("msgs_per_op_milli", Json::uint(c.msgs_per_op_milli())),
                    ("p50_ms", Json::uint(c.p50_ms)),
                    ("p99_ms", Json::uint(c.p99_ms)),
                    ("p999_ms", Json::uint(c.p999_ms)),
                ]),
            ));
        }
        fields.push(("kv", Json::obj(kv_fields)));
    }
    // Convergence samples appear only when a phase injected faults on a
    // driver that tracks per-process view installs; every other phase —
    // and every pre-existing scenario without injects — keeps its exact
    // prior shape. `failure_dump` never serializes (stderr-only).
    if let Some(c) = &p.convergence {
        fields.push((
            "convergence",
            Json::obj(vec![
                ("fault_at_ms", Json::uint(c.fault_at_ms)),
                (
                    "samples",
                    Json::Array(c.samples.iter().map(|&s| Json::uint(s)).collect()),
                ),
                ("p50", Json::uint(c.p50)),
                ("p99", Json::uint(c.p99)),
                ("max", Json::uint(c.max)),
            ]),
        ));
    }
    // The timeline object appears only when the run sampled
    // (obs_sample_ms > 0): reports of non-sampling runs keep their
    // exact prior bytes.
    if let Some(tl) = &p.timeline {
        fields.push((
            "timeline",
            Json::obj(vec![
                ("sample_ms", Json::uint(tl.sample_ms)),
                ("dropped", Json::uint(tl.dropped)),
                (
                    "series",
                    Json::Array(
                        tl.series
                            .iter()
                            .map(|pt| {
                                Json::obj(vec![
                                    ("t", Json::uint(pt.t_ms)),
                                    ("msgs", Json::uint(pt.msgs)),
                                    ("bytes", Json::uint(pt.bytes)),
                                    ("alerts", Json::uint(pt.alerts)),
                                    ("view_changes", Json::uint(pt.view_changes)),
                                    ("ops", Json::uint(pt.ops)),
                                    ("handoff_bytes", Json::uint(pt.handoff_bytes)),
                                    ("repair_bytes", Json::uint(pt.repair_bytes)),
                                    ("p50_ms", Json::uint(pt.p50_ms)),
                                    ("p99_ms", Json::uint(pt.p99_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    fields.extend([
        (
            "expects",
            Json::Array(
                p.expects
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("desc", Json::Str(e.desc.clone())),
                            ("passed", Json::opt(e.passed, Json::Bool)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_stable_and_complete() {
        let r = Report {
            scenario: "demo".into(),
            driver: "sim:rapid".into(),
            n: 50,
            seed: 7,
            passed: true,
            phases: vec![PhaseReport {
                name: "boot".into(),
                start_ms: 0,
                end_ms: 42_000,
                converged_at_ms: Some(41_000),
                view_changes: Some(3),
                traffic: Some(TrafficTotals {
                    bytes_in: 10,
                    bytes_out: 20,
                    msgs_in: 1,
                    msgs_out: 2,
                }),
                kv: Some(KvPhaseReport {
                    puts: 4,
                    acked: 4,
                    rebalances: 1,
                    bytes_moved: 128,
                    partitions_lost: 0,
                    repairs: 2,
                    repair_bytes: 64,
                    msgs_sent: 21,
                    frames_sent: 6,
                    wire_bytes: 512,
                    shed: 1,
                    client: Some(KvClientPhase {
                        submitted: 4,
                        completed: 4,
                        failed: 0,
                        shed: 1,
                        retries: 1,
                        msgs_sent: 9,
                        p50_ms: 3,
                        p99_ms: 7,
                        p999_ms: 7,
                    }),
                }),
                convergence: Some(ConvergenceReport {
                    fault_at_ms: 5_000,
                    samples: vec![1_800, 2_000, 2_400],
                    p50: 2_047,
                    p99: 2_559,
                    max: 2_400,
                }),
                timeline: Some(TimelineReport {
                    sample_ms: 1_000,
                    dropped: 0,
                    series: vec![TimelinePoint {
                        t_ms: 1_000,
                        msgs: 12,
                        bytes: 640,
                        alerts: 1,
                        view_changes: 0,
                        ops: 4,
                        handoff_bytes: 128,
                        repair_bytes: 0,
                        p50_ms: 3,
                        p99_ms: 7,
                    }],
                }),
                failure_dump: Vec::new(),
                expects: vec![
                    ExpectReport { desc: "converge(n)".into(), passed: Some(true) },
                    ExpectReport { desc: "histories".into(), passed: None },
                ],
            }],
        };
        let s = r.to_json_string();
        assert_eq!(s, r.to_json_string(), "serialization must be stable");
        assert!(s.starts_with(r#"{"scenario":"demo","driver":"sim:rapid","n":50,"seed":7,"passed":true"#));
        assert!(s.contains(r#""converged_at_ms":41000"#));
        assert!(s.contains(r#""passed":null"#));
        assert!(s.contains(r#""convergence":{"fault_at_ms":5000,"samples":[1800,2000,2400],"p50":2047,"p99":2559,"max":2400}"#));
        assert!(s.contains(
            r#""timeline":{"sample_ms":1000,"dropped":0,"series":[{"t":1000,"msgs":12,"bytes":640,"alerts":1,"view_changes":0,"ops":4,"handoff_bytes":128,"repair_bytes":0,"p50_ms":3,"p99_ms":7}]}"#
        ));
        assert!(s.contains(
            r#""shed":1,"client":{"submitted":4,"completed":4,"failed":0,"shed":1,"retries":1,"msgs_sent":9,"msgs_per_op_milli":2250,"p50_ms":3,"p99_ms":7,"p999_ms":7}"#
        ));
        assert!(r.failures().is_empty());
    }

    #[test]
    fn failures_list_failed_expectations() {
        let r = Report {
            scenario: "x".into(),
            driver: "d".into(),
            n: 1,
            seed: 1,
            passed: false,
            phases: vec![PhaseReport {
                name: "p".into(),
                start_ms: 0,
                end_ms: 1,
                converged_at_ms: None,
                view_changes: None,
                traffic: None,
                kv: None,
                convergence: None,
                timeline: None,
                failure_dump: Vec::new(),
                expects: vec![ExpectReport { desc: "boom".into(), passed: Some(false) }],
            }],
        };
        assert_eq!(r.failures(), vec!["p: boom"]);
    }
}
