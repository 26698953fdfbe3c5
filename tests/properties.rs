//! Property-based tests over the core protocol invariants, spanning
//! crates (proptest).

use proptest::prelude::*;

use rapid::core::alert::{Alert, EdgeStatus, GossipItem};
use rapid::core::config::{ConfigId, Configuration, Member};
use rapid::core::cut::CutDetector;
use rapid::core::membership::{Proposal, ProposalItem};
use rapid::core::ring::Topology;
use rapid::core::util::BitVec;
use rapid::core::wire;
use rapid::{Endpoint, Metadata, NodeId};

fn member(i: u128) -> Member {
    Member::new(NodeId::from_u128(i + 1), Endpoint::new(format!("m{i}"), 4000))
}

proptest! {
    /// The K-ring topology is always a valid permutation family: every
    /// process has exactly K observers and K subjects, and the relations
    /// are mutual duals.
    #[test]
    fn topology_invariants(n in 2usize..120, k in 1usize..12) {
        let cfg = Configuration::bootstrap((0..n as u128).map(member).collect());
        let topo = Topology::build(&cfg, k);
        for rank in 0..n as u32 {
            let obs = topo.observers_of(rank);
            let sub = topo.subjects_of(rank);
            prop_assert_eq!(obs.len(), k);
            prop_assert_eq!(sub.len(), k);
            for e in &obs {
                prop_assert!(e.rank != rank, "no self-monitoring for n >= 2");
                prop_assert!(topo
                    .subjects_of(e.rank)
                    .iter()
                    .any(|x| x.ring == e.ring && x.rank == rank));
            }
        }
    }

    /// Almost-everywhere agreement seed property: whatever order alerts
    /// arrive in, once the full alert set is ingested the proposal is
    /// identical (same hash) at every process — also when the same rings
    /// arrive as gossip items: random per-subject groupings, merged ring
    /// masks, and duplicates, in random order.
    #[test]
    fn cut_detection_is_order_independent(
        subjects in prop::collection::btree_set(0u128..50, 1..6),
        seed in 0u64..1_000,
    ) {
        let k = 10;
        let alerts: Vec<Alert> = subjects
            .iter()
            .flat_map(|&s| {
                (0..k as u8).map(move |ring| {
                    Alert::remove(
                        NodeId::from_u128(1_000 + ring as u128),
                        NodeId::from_u128(s + 1),
                        Endpoint::new(format!("m{s}"), 4000),
                        ConfigId(9),
                        ring,
                    )
                })
            })
            .collect();
        let mut rng = rapid::core::rng::Xoshiro256::seed_from_u64(seed);
        let mut a = alerts.clone();
        rng.shuffle(&mut a);
        let mut cd1 = CutDetector::new(ConfigId(9), k, 9, 3);
        for alert in &a {
            cd1.record(alert, 0);
        }
        let mut cd2 = CutDetector::new(ConfigId(9), k, 9, 3);
        for alert in alerts.iter().rev() {
            cd2.record(alert, 0);
        }
        // The same rings as items: each subject's K rings split into
        // random masks, some merged by OR before they arrive and some
        // sent twice.
        let mut items: Vec<GossipItem> = Vec::new();
        for &s in &subjects {
            let mut left = (1u64 << k) - 1;
            while left != 0 {
                let take = left & rng.next_u64();
                let rings = if take == 0 { left & left.wrapping_neg() } else { take };
                left &= !rings;
                items.push(GossipItem {
                    subject_id: NodeId::from_u128(s + 1),
                    subject_addr: Endpoint::new(format!("m{s}"), 4000),
                    status: EdgeStatus::Down,
                    rings,
                    metadata: Metadata::new(),
                });
            }
        }
        // A relay ORs masks: a merged item replaces both halves, so their
        // rings arrive only through the merge.
        let mut i = 0;
        while i + 1 < items.len() {
            if items[i].subject_id == items[i + 1].subject_id && rng.gen_bool(0.5) {
                items[i] = items[i].merged(&items[i + 1]);
                items.remove(i + 1);
            } else {
                i += 1;
            }
        }
        for i in 0..items.len() {
            if rng.gen_bool(0.3) {
                items.push(items[i].clone());
            }
        }
        rng.shuffle(&mut items);
        let mut cd3 = CutDetector::new(ConfigId(9), k, 9, 3);
        let mut fresh_total = 0;
        for item in &items {
            fresh_total += cd3.record_mask(item, 0).count_ones() as usize;
        }
        prop_assert_eq!(fresh_total, alerts.len(), "each ring is fresh exactly once");
        let p1 = cd1.proposal().expect("full tallies must propose");
        let p2 = cd2.proposal().expect("full tallies must propose");
        let p3 = cd3.proposal().expect("full tallies must propose");
        prop_assert_eq!(p1.hash(), p2.hash());
        prop_assert_eq!(p1.hash(), p3.hash());
        prop_assert_eq!(p1.len(), subjects.len());
    }

    /// Wire encoding round-trips arbitrary alert batches bit-exactly.
    #[test]
    fn wire_roundtrip_alert_batches(
        alerts in prop::collection::vec(
            (0u128..1_000, 0u128..1_000, 0u8..10, any::<bool>(), ".{0,12}"),
            0..40
        )
    ) {
        let alerts: Vec<Alert> = alerts
            .into_iter()
            .map(|(o, s, ring, join, role)| {
                if join {
                    Alert::join(
                        NodeId::from_u128(o),
                        NodeId::from_u128(s),
                        Endpoint::new(format!("m{s}"), 1),
                        ConfigId(5),
                        ring,
                        Metadata::with_entry("role", role),
                    )
                } else {
                    Alert::remove(
                        NodeId::from_u128(o),
                        NodeId::from_u128(s),
                        Endpoint::new(format!("m{s}"), 1),
                        ConfigId(5),
                        ring,
                    )
                }
            })
            .collect();
        let msg = wire::Message::AlertBatch {
            config_id: ConfigId(5),
            alerts: alerts.clone().into(),
        };
        let bytes = wire::encode_to_vec(&msg);
        match wire::decode(&bytes).unwrap() {
            wire::Message::AlertBatch { alerts: decoded, .. } => {
                prop_assert_eq!(&*decoded, &alerts[..]);
            }
            _ => prop_assert!(false, "wrong variant"),
        }
    }

    /// Applying a proposal is deterministic and produces the same id for
    /// the same (configuration, proposal) at any process.
    #[test]
    fn config_apply_deterministic(
        initial in prop::collection::btree_set(0u128..200, 2..40),
        joins in prop::collection::btree_set(200u128..300, 0..10),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let members: Vec<Member> = initial.iter().map(|&i| member(i)).collect();
        let cfg = Configuration::bootstrap(members.clone());
        let mut items: Vec<ProposalItem> = joins
            .iter()
            .map(|&j| ProposalItem::join(
                NodeId::from_u128(j + 1),
                Endpoint::new(format!("m{j}"), 4000),
                Metadata::new(),
            ))
            .collect();
        for idx in &removals {
            let m = idx.get(&members);
            items.push(ProposalItem::remove(m.id, m.addr));
        }
        let proposal = Proposal::from_items(cfg.id(), items);
        let a = cfg.apply(&proposal);
        let b = cfg.apply(&proposal);
        prop_assert_eq!(a.id(), b.id());
        prop_assert_eq!(a.len(), b.len());
        // Joins in, removals out.
        for &j in &joins {
            prop_assert!(a.contains(NodeId::from_u128(j + 1)));
        }
        // Sizes are consistent: |C'| = |C| + joins - distinct removals.
        let distinct_removed: std::collections::BTreeSet<_> =
            removals.iter().map(|i| i.get(&members).id).collect();
        prop_assert_eq!(a.len(), cfg.len() + joins.len() - distinct_removed.len());
    }

    /// Vote bitmaps: merging is commutative, associative and monotone.
    #[test]
    fn bitvec_merge_semilattice(
        n in 1usize..200,
        xs in prop::collection::vec(any::<u64>(), 1..4),
        ys in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let a = BitVec::from_words(n, xs);
        let b = BitVec::from_words(n, ys);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba, "commutative");
        let mut aa = ab.clone();
        aa.merge(&a);
        prop_assert_eq!(&aa, &ab, "idempotent / monotone");
        prop_assert!(ab.count_ones() >= a.count_ones().max(b.count_ones()));
    }
}
