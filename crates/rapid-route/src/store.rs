//! The partition store: `partition → entries`, with each partition's
//! [`PartitionDigest`] cached beside its map.
//!
//! **Invariant (stated once, here):** a partition's cache is either
//! empty or equals [`digest_of`] over its entries. Every mutation goes
//! through a [`Store`] method and only *empties* the cache — a write
//! pays one flag store, never a hash. A read ([`Store::digest`])
//! recomputes an emptied cache from scratch with the unchanged
//! `digest_of`, so a partition is hashed at most once per change and
//! only when someone asks: a repair round, a digest exchange, a
//! `kv_converged` poll. On a quiescent node every digest read is O(1).
//!
//! Recomputing from scratch (rather than xoring the old entry hash out
//! and the new one in on the write path) is deliberate: `entry_hash` is
//! byte-serial over key and value, ≈ 1.2 µs per 1 KiB entry, which on
//! the write path would cost every replica write more than the whole
//! sans-io put costs today — and `floor` (a max) cannot be maintained
//! by subtraction when an overwrite lowers it.

use std::cell::Cell;

use rapid_core::hash::{DetHashMap, StableHasher};

/// One stored entry: value plus its replication version.
pub type Entry = (String, u64);

/// A compact, order-independent summary of one partition's contents.
///
/// Two replicas hold byte-identical partition stores iff their digests
/// match (up to the negligible collision probability of the 64-bit
/// entry hash — pinned by a proptest). Computing one hashes every byte
/// of the partition (≈ 1.2 ms per MiB), so the [`Store`] caches it per
/// partition and rehashes only partitions written since the last read;
/// no Merkle trees are needed at `P = 256`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionDigest {
    /// Highest entry version held ("leader version floor"): any replica
    /// that served every acked write is at least this new.
    pub floor: u64,
    /// Number of entries.
    pub count: u64,
    /// XOR of per-entry hashes over `(key, value, version)` —
    /// order-independent, so map iteration order cannot leak in.
    pub xor: u64,
}

fn entry_hash(key: &str, val: &str, version: u64) -> u64 {
    StableHasher::new("kv-repair-entry")
        .write_bytes(key.as_bytes())
        .write_bytes(val.as_bytes())
        .write_u64(version)
        .finish()
}

/// Digest of a raw partition map (shared by [`Store`] and tests).
pub fn digest_of(entries: &DetHashMap<String, Entry>) -> PartitionDigest {
    let mut d = PartitionDigest::default();
    for (k, (v, ver)) in entries {
        d.floor = d.floor.max(*ver);
        d.count += 1;
        d.xor ^= entry_hash(k, v, *ver);
    }
    d
}

#[derive(Default)]
struct Partition {
    entries: DetHashMap<String, Entry>,
    /// `None` = dirty. Interior, so digest reads take `&self`.
    digest: Cell<Option<PartitionDigest>>,
}

/// A node's local KV contents, by partition.
#[derive(Default)]
pub struct Store {
    parts: DetHashMap<u32, Partition>,
}

impl Store {
    /// Writes `key` unconditionally (the leader's versioned write).
    pub fn put(&mut self, partition: u32, key: String, val: String, version: u64) {
        let part = self.parts.entry(partition).or_default();
        part.entries.insert(key, (val, version));
        part.digest.set(None);
    }

    /// Writes `key` unless the held version is at least `version`
    /// (replication, handoff and repair: newest version wins).
    pub fn merge(&mut self, partition: u32, key: String, val: String, version: u64) {
        let part = self.parts.entry(partition).or_default();
        match part.entries.get(&key) {
            Some((_, held)) if *held >= version => {}
            _ => {
                part.entries.insert(key, (val, version));
                part.digest.set(None);
            }
        }
    }

    /// Drops every partition `keep` rejects.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.parts.retain(|&p, _| keep(p));
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.parts.clear();
    }

    /// The entry held for `key`, if any.
    pub fn get(&self, partition: u32, key: &str) -> Option<&Entry> {
        self.parts.get(&partition)?.entries.get(key)
    }

    /// The raw map of one partition, if it was ever written.
    pub fn entries(&self, partition: u32) -> Option<&DetHashMap<String, Entry>> {
        self.parts.get(&partition).map(|part| &part.entries)
    }

    /// One partition as `(key, value, version)` in key order — the
    /// payload of a handoff or repair push.
    pub fn sorted_entries(&self, partition: u32) -> Vec<(String, String, u64)> {
        let mut v: Vec<_> = self
            .entries(partition)
            .into_iter()
            .flatten()
            .map(|(k, (val, ver))| (k.clone(), val.clone(), *ver))
            .collect();
        v.sort();
        v
    }

    /// Number of keys held, over all partitions.
    pub fn key_count(&self) -> usize {
        self.parts.values().map(|part| part.entries.len()).sum()
    }

    /// Digest of one partition (empty partition = zero digest): the
    /// cached value, recomputed first if the partition changed since it
    /// was last read.
    pub fn digest(&self, partition: u32) -> PartitionDigest {
        let Some(part) = self.parts.get(&partition) else {
            return PartitionDigest::default();
        };
        match part.digest.get() {
            Some(d) => d,
            None => {
                let d = digest_of(&part.entries);
                part.digest.set(Some(d));
                d
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_order_independent_and_detect_divergence() {
        let mut a: DetHashMap<String, Entry> = DetHashMap::default();
        let mut b: DetHashMap<String, Entry> = DetHashMap::default();
        for i in 0..20 {
            a.insert(format!("k{i}"), (format!("v{i}"), i));
        }
        for i in (0..20).rev() {
            b.insert(format!("k{i}"), (format!("v{i}"), i));
        }
        assert_eq!(digest_of(&a), digest_of(&b), "insertion order must not matter");
        assert_eq!(digest_of(&a).floor, 19);
        assert_eq!(digest_of(&a).count, 20);
        b.insert("k3".into(), ("v3".into(), 99)); // one newer version
        assert_ne!(digest_of(&a), digest_of(&b));
        assert_eq!(digest_of(&b).floor, 99);
        b.remove("k3");
        assert_ne!(digest_of(&a), digest_of(&b), "a missing entry must show");
    }
}
