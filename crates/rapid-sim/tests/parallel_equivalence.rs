//! Shard-count invariance of the epoch engine: a simulation must fold
//! to the same trace **bit-identically** at every thread count — same
//! per-second samples, same view-id chains, same event count, same
//! per-actor traffic counters (totals and per-second rates), same merged
//! metrics timeline (every run samples at a 1 s cadence and compares the
//! JSONL dump byte-for-byte).
//!
//! `threads = 1` is one shard on the driving thread. One fixed schedule
//! is pinned as a fingerprint recorded while that setting still ran a
//! separate one-event-at-a-time loop. Random schedules compare one shard
//! against 2 and 4, both through the inline small-epoch path and with
//! the cross-thread fan-out forced (`set_parallel_batch_min(1)`), so the
//! scoped-thread code itself is exercised even when the epochs are
//! small.

use proptest::prelude::*;

use rapid_core::config::ConfigId;
use rapid_core::hash::StableHasher;
use rapid_core::settings::Settings;
use rapid_sim::cluster::{RapidActor, RapidClusterBuilder};
use rapid_sim::{Fault, Sample, Simulation};

/// One raw generated fault: `(at_ms, kind, a, b, p)` decoded against the
/// cluster size. Covers every RNG-drawing fault class plus structural
/// ones (crashes, blackholes), so the schedule stresses both the
/// quiescent fast path and the full per-class gauntlet.
type RawFault = (u64, u8, usize, usize, f64);

fn decode(n: usize, (at, kind, a, b, p): RawFault) -> (u64, Fault) {
    let a = a % n;
    let other = (a + 1 + b % (n - 1)) % n;
    let fault = match kind % 8 {
        0 => Fault::Crash(a),
        1 => Fault::IngressDrop(a, p),
        2 => Fault::EgressDrop(a, p),
        3 => Fault::LinkLoss(a, other, p),
        4 => Fault::SlowNode(a, 1.0 + p * 4.0),
        5 => Fault::Duplicate(p * 0.4),
        6 => Fault::Reorder(p * 0.5, 10 + (b as u64 % 40)),
        _ => Fault::BlackholePair(a, other),
    };
    (at, fault)
}

/// The full observable trace, folded to comparable values: event count,
/// a fingerprint of every traffic counter (totals and per-second
/// rates), all per-second samples, every actor's view-id chain, and the
/// merged `(t, node)`-ordered timeline as JSONL bytes.
type Trace = (u64, u64, Vec<Sample>, Vec<Vec<ConfigId>>, Vec<String>);

fn trace(sim: &Simulation<RapidActor>) -> Trace {
    let mut h = StableHasher::new("parallel-equivalence");
    for i in 0..sim.len() {
        let t = sim.traffic(i);
        h.write_u64(t.msgs_in)
            .write_u64(t.msgs_out)
            .write_u64(t.bytes_in)
            .write_u64(t.bytes_out)
            .write_u64(t.per_second.len() as u64);
        for &(b_in, b_out) in &t.per_second {
            h.write_u64(b_in).write_u64(b_out);
        }
    }
    let views = (0..sim.len())
        .map(|i| {
            sim.actor(i)
                .as_node()
                .map(|node| node.view_history().to_vec())
                .unwrap_or_default()
        })
        .collect();
    (
        sim.events_processed(),
        h.finish(),
        sim.samples().to_vec(),
        views,
        rapid_sim::cluster::timeline_lines(sim),
    )
}

/// Builds an `n`-node static cluster, applies the schedule, runs to the
/// horizon on `threads` shards and returns the folded trace.
fn run(
    n: usize,
    seed: u64,
    schedule: &[RawFault],
    horizon: u64,
    threads: usize,
    force_fanout: bool,
) -> Trace {
    let settings = Settings {
        threads,
        obs_sample_ms: 1_000,
        ..Settings::default()
    };
    let mut sim = RapidClusterBuilder::new(n)
        .settings(settings)
        .seed(seed)
        .build_static();
    if force_fanout {
        sim.set_parallel_batch_min(1);
    }
    for &raw in schedule {
        let (at, fault) = decode(n, raw);
        sim.schedule_fault(at % horizon, fault);
    }
    sim.run_until(horizon);
    trace(&sim)
}

/// Order-sensitive fingerprint of a whole [`Trace`].
fn fingerprint((events, traffic, samples, views, timeline): &Trace) -> u64 {
    let mut h = StableHasher::new("parallel-equivalence-pin");
    h.write_u64(*events)
        .write_u64(*traffic)
        .write_u64(samples.len() as u64);
    for s in samples {
        h.write_u64(s.t_ms)
            .write_u64(s.actor as u64)
            .write_u64(s.value.to_bits());
    }
    for chain in views {
        h.write_u64(chain.len() as u64);
        for id in chain {
            h.write_u64(id.0);
        }
    }
    for line in timeline {
        h.write_bytes(line.as_bytes());
    }
    h.finish()
}

/// One fault from each of the eight `decode` classes, in class order:
/// crash, ingress drop, egress drop, link loss, slow node, duplication,
/// reordering, blackhole.
const PINNED_SCHEDULE: [RawFault; 8] = [
    (2_000, 0, 5, 0, 0.5),
    (3_000, 1, 9, 0, 0.3),
    (4_000, 2, 13, 0, 0.3),
    (5_000, 3, 17, 4, 0.6),
    (6_000, 4, 21, 0, 0.5),
    (7_000, 5, 0, 0, 0.5),
    (8_000, 6, 0, 7, 0.5),
    (9_000, 7, 29, 11, 0.5),
];

/// `fingerprint` of [`PINNED_SCHEDULE`] on 64 nodes, seed 77, to 20 s,
/// first recorded while `threads = 1` still ran a separate
/// one-event-at-a-time loop, and re-recorded when gossip began to carry
/// one ring-mask item per subject (the same events, samples and views;
/// only the timeline's byte counts moved).
const GOLDEN_PINNED_TRACE: u64 = 0x2db2_b9d2_60cd_0e5e;

#[test]
fn pinned_schedule_folds_to_its_golden_trace() {
    let pinned = |threads, force_fanout| {
        fingerprint(&run(
            64,
            77,
            &PINNED_SCHEDULE,
            20_000,
            threads,
            force_fanout,
        ))
    };
    assert_eq!(pinned(1, false), GOLDEN_PINNED_TRACE, "one shard");
    for threads in [2usize, 4] {
        assert_eq!(
            pinned(threads, false),
            GOLDEN_PINNED_TRACE,
            "{threads} threads, inline path"
        );
        assert_eq!(
            pinned(threads, true),
            GOLDEN_PINNED_TRACE,
            "{threads} threads, forced fan-out"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// N = 64: random schedules must fold to the one-shard trace at 2
    /// and 4 shards, inline and with the fan-out forced.
    #[test]
    fn random_schedules_are_thread_count_invariant_n64(
        seed in 1u64..1_000_000,
        schedule in prop::collection::vec(
            (500u64..20_000, 0u8..8, 0usize..64, 0usize..64, 0.05f64..0.9),
            1..6,
        ),
    ) {
        let horizon = 20_000;
        let one_shard = run(64, seed, &schedule, horizon, 1, false);
        for threads in [2usize, 4] {
            prop_assert_eq!(
                &run(64, seed, &schedule, horizon, threads, false),
                &one_shard,
                "{} threads, inline path, seed {}", threads, seed
            );
            prop_assert_eq!(
                &run(64, seed, &schedule, horizon, threads, true),
                &one_shard,
                "{} threads, forced fan-out, seed {}", threads, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// N = 256: same invariant at a size where every epoch spans many
    /// actors per shard (fewer cases — each run is ~256 nodes of
    /// protocol traffic).
    #[test]
    fn random_schedules_are_thread_count_invariant_n256(
        seed in 1u64..1_000_000,
        schedule in prop::collection::vec(
            (500u64..10_000, 0u8..8, 0usize..256, 0usize..256, 0.05f64..0.9),
            1..5,
        ),
    ) {
        let horizon = 10_000;
        let one_shard = run(256, seed, &schedule, horizon, 1, false);
        for threads in [2usize, 4] {
            prop_assert_eq!(
                &run(256, seed, &schedule, horizon, threads, true),
                &one_shard,
                "{} threads, forced fan-out, seed {}", threads, seed
            );
        }
    }
}
