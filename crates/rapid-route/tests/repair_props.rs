//! Property pins for the anti-entropy digest: equal stores always have
//! equal digests, and random unequal store pairs (mutated keys, values,
//! versions, insertions, deletions) never collide — which is what lets
//! repair treat digest equality as store equality at P = 256 without
//! Merkle trees. Plus the cache pin: the store's per-partition cached
//! digest always equals a from-scratch `digest_of`, whatever sequence of
//! writes, drops and reads led there.

use proptest::prelude::*;
use rapid_core::hash::DetHashMap;
use rapid_route::kv::{digest_of, Entry};
use rapid_route::store::Store;

/// Builds a store from `(key-index, value-index, version)` triples —
/// duplicate key indices overwrite, like real merges do.
fn store_from(triples: &[(u8, u8, u64)]) -> DetHashMap<String, Entry> {
    let mut m: DetHashMap<String, Entry> = DetHashMap::default();
    for &(k, v, ver) in triples {
        m.insert(format!("key-{k}"), (format!("val-{v}"), ver % 1_000));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Soundness: identical contents digest identically, regardless of
    /// construction order (the digest is an XOR over entries, so map
    /// iteration order cannot leak in).
    #[test]
    fn equal_stores_have_equal_digests(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..40),
    ) {
        let a = store_from(&triples);
        let mut reversed = triples.clone();
        reversed.reverse();
        // Reversal changes which duplicate wins, so rebuild from the
        // deduplicated map itself for a guaranteed-equal pair.
        let b_triples: Vec<(String, Entry)> =
            a.iter().map(|(k, e)| (k.clone(), e.clone())).collect();
        let mut b: DetHashMap<String, Entry> = DetHashMap::default();
        for (k, e) in b_triples.into_iter().rev() {
            b.insert(k, e);
        }
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(digest_of(&a), digest_of(&b));
    }

    /// Completeness: any single divergence — a bumped version, a changed
    /// value, a dropped entry, an extra entry — changes the digest. This
    /// is the direction repair relies on: digest match ⇒ nothing to pull.
    #[test]
    fn diverged_stores_have_different_digests(
        triples in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 1..40),
        pick in any::<prop::sample::Index>(),
        mutation in 0u8..4,
    ) {
        let a = store_from(&triples);
        let mut b = a.clone();
        let keys: Vec<String> = {
            let mut ks: Vec<String> = a.keys().cloned().collect();
            ks.sort();
            ks
        };
        let target = keys[pick.index(keys.len())].clone();
        match mutation {
            0 => {
                // Version bump (a replicate the other replica missed).
                let e = b.get_mut(&target).unwrap();
                e.1 += 1;
            }
            1 => {
                // Same version, different value (corruption).
                let e = b.get_mut(&target).unwrap();
                e.0.push('!');
            }
            2 => {
                // Entry missing entirely (a lost handoff slice).
                b.remove(&target);
            }
            _ => {
                // Extra entry the other side never saw.
                b.insert("key-extra-∉".to_string(), ("v".to_string(), 1));
            }
        }
        prop_assert_ne!(&a, &b, "mutation must actually diverge the stores");
        prop_assert_ne!(digest_of(&a), digest_of(&b));
    }

    /// Cache ≡ from-scratch: after every step of a random put / merge
    /// (older, equal and newer versions) / drop-partitions / clear
    /// sequence, every digest read equals `digest_of` over the entries
    /// held. Each step reads a random subset of the partitions, so a
    /// mutation meets both filled and emptied caches, and runs of
    /// mutations pile up on an unread partition.
    #[test]
    fn cached_digests_equal_from_scratch_digests(
        steps in prop::collection::vec(
            (0u8..8, 0u32..4, 0u8..6, any::<u8>(), 0u64..8, 0u8..16),
            1..60,
        ),
    ) {
        let mut store = Store::default();
        for (kind, p, k, v, version, read_mask) in steps {
            let (key, val) = (format!("key-{k}"), format!("val-{v}"));
            match kind {
                // Unconditional, so an overwrite can lower the max version.
                0 | 1 => store.put(p, key, val, version),
                2..=5 => store.merge(p, key, val, version),
                6 => store.retain(|p| v & (1 << p) != 0),
                _ => store.clear(),
            }
            assert_cache_matches(&store, read_mask);
        }
        assert_cache_matches(&store, 0b1111);
    }
}

/// Reads the digest of each of partitions 0..4 selected by `mask` and
/// requires it to equal `digest_of` over the entries held.
fn assert_cache_matches(store: &Store, mask: u8) {
    for p in (0..4).filter(|p| mask & (1 << p) != 0) {
        let scratch = store.entries(p).map(digest_of).unwrap_or_default();
        assert_eq!(store.digest(p), scratch, "partition {p}");
    }
}

/// `floor` is a max, so it is recomputed, never ratcheted: overwriting
/// the newest entry with an older version must lower it.
#[test]
fn an_overwrite_that_lowers_the_max_version_lowers_the_cached_floor() {
    let mut store = Store::default();
    store.put(0, "a".into(), "x".into(), 9);
    store.put(0, "b".into(), "y".into(), 4);
    assert_eq!(store.digest(0).floor, 9);
    store.put(0, "a".into(), "x".into(), 2);
    assert_eq!(store.digest(0).floor, 4);
    assert_eq!(store.digest(0), digest_of(store.entries(0).unwrap()));
}
