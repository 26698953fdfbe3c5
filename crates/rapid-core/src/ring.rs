//! The K-ring expander monitoring overlay (paper §4.1, Figure 2).
//!
//! Rapid arranges the membership into `K` pseudo-randomly generated rings,
//! each containing the full member list. A pair `(o, s)` forms an
//! observer/subject monitoring edge if `o` immediately precedes `s` in some
//! ring. Every process therefore monitors `K` subjects and is monitored by
//! `K` observers, and the union of rings is (with high probability) a
//! `2K`-regular expander graph — see the `spectral` crate for empirical
//! verification of the paper's λ/d < 0.45 claim.
//!
//! The topology is a **deterministic** function of the configuration: ring
//! permutations are seeded from the configuration identifier, so every
//! member derives the identical overlay locally with no coordination.

use std::sync::Arc;

use parking_lot::Mutex;
use crate::hash::DetHashMap;

use crate::config::{ConfigId, Configuration};
use crate::id::NodeId;
use crate::rng::{mix64, Xoshiro256};

/// Domain-separation salt for ring shuffles.
const RING_SALT: u64 = 0x52_41_50_49_44_52_4e_47; // "RAPIDRNG"
/// Domain-separation salt for joiner observer assignment.
const JOINER_SALT: u64 = 0x52_41_50_49_44_4a_4f_49; // "RAPIDJOI"

/// A monitoring edge endpoint: which ring, and the peer's rank in the
/// configuration's sorted membership.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingEdge {
    /// Ring index in `0..K`.
    pub ring: u8,
    /// The peer's membership rank.
    pub rank: u32,
}

/// The K-ring monitoring topology for one configuration.
#[derive(Debug)]
pub struct Topology {
    k: usize,
    n: usize,
    /// `rings[r][p]` = membership rank at position `p` of ring `r`.
    rings: Vec<Vec<u32>>,
    /// `pos[r][rank]` = position of `rank` within ring `r`.
    pos: Vec<Vec<u32>>,
}

impl Topology {
    /// Builds the deterministic K-ring topology for a configuration.
    ///
    /// Every process calling this with the same configuration obtains the
    /// identical topology (the shuffles are seeded from the configuration
    /// identifier).
    pub fn build(config: &Configuration, k: usize) -> Topology {
        let n = config.len();
        let mut rings = Vec::with_capacity(k);
        let mut pos = Vec::with_capacity(k);
        for r in 0..k {
            let seed = mix64(config.id().0 ^ RING_SALT.wrapping_add(r as u64));
            let mut ring: Vec<u32> = (0..n as u32).collect();
            let mut rng = Xoshiro256::seed_from_u64(seed);
            rng.shuffle(&mut ring);
            let mut p = vec![0u32; n];
            for (i, &rank) in ring.iter().enumerate() {
                p[rank as usize] = i as u32;
            }
            rings.push(ring);
            pos.push(p);
        }
        Topology { k, n, rings, pos }
    }

    /// Number of rings (`K`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of members.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The observers of `rank`: its predecessor in each ring.
    ///
    /// Duplicate peers are possible (paper §4.1: "Duplicate edges are
    /// allowed and will have a marginal effect on the behavior"); they are
    /// distinguished by ring index.
    pub fn observers_of(&self, rank: u32) -> Vec<RingEdge> {
        self.neighbors(rank, false)
    }

    /// The subjects of `rank`: its successor in each ring.
    pub fn subjects_of(&self, rank: u32) -> Vec<RingEdge> {
        self.neighbors(rank, true)
    }

    fn neighbors(&self, rank: u32, successor: bool) -> Vec<RingEdge> {
        assert!((rank as usize) < self.n, "rank out of range");
        let mut out = Vec::with_capacity(self.k);
        if self.n <= 1 {
            return out; // A solitary process has no peers to monitor.
        }
        for r in 0..self.k {
            let p = self.pos[r][rank as usize] as usize;
            let q = if successor {
                (p + 1) % self.n
            } else {
                (p + self.n - 1) % self.n
            };
            out.push(RingEdge {
                ring: r as u8,
                rank: self.rings[r][q],
            });
        }
        out
    }

    /// The rings on which `observer` monitors `subject` (empty if none).
    pub fn rings_observing(&self, observer: u32, subject: u32) -> Vec<u8> {
        self.subjects_of(observer)
            .into_iter()
            .filter(|e| e.rank == subject)
            .map(|e| e.ring)
            .collect()
    }

    /// Deterministically assigns the `K` *temporary observers* for a joiner
    /// (paper §4.1: "a list of K temporary observers obtained from a seed
    /// process (deterministically assigned for each joiner and C pair)").
    ///
    /// For each ring, the joiner is hashed to a position and the member at
    /// that position becomes its temporary observer on that ring.
    pub fn joiner_observers(&self, config_id: ConfigId, joiner: NodeId) -> Vec<RingEdge> {
        assert!(self.n > 0);
        let jd = joiner.digest();
        (0..self.k)
            .map(|r| {
                let h = mix64(config_id.0 ^ JOINER_SALT.wrapping_add(r as u64) ^ jd);
                RingEdge {
                    ring: r as u8,
                    rank: (h % self.n as u64) as u32,
                }
            })
            .collect()
    }

    /// Iterates over all `K·n` directed monitoring edges as
    /// `(ring, observer_rank, subject_rank)`, for analysis.
    pub fn edges(&self) -> impl Iterator<Item = (u8, u32, u32)> + '_ {
        (0..self.k).flat_map(move |r| {
            (0..self.n).map(move |p| {
                let o = self.rings[r][p];
                let s = self.rings[r][(p + 1) % self.n];
                (r as u8, o, s)
            })
        })
    }
}

/// A shared memo table: key to `Arc`'d value behind a mutex.
type Memo<K, V> = Arc<Mutex<DetHashMap<K, Arc<V>>>>;

/// A process-wide memo of topologies keyed by `(ConfigId, K)` and of
/// decided successor configurations keyed by `(ConfigId, proposal hash)`.
///
/// Building a topology is `O(K·n)` and applying a view-change proposal is
/// `O(n)` (sort + index maps); in simulations hosting thousands of nodes
/// in one process, every node derives the *identical* results, so sharing
/// one cache collapses that `O(n²)`-per-decision work to `O(n)`. Each real
/// deployment simply holds its own cache.
#[derive(Clone, Default)]
pub struct TopologyCache {
    inner: Memo<(ConfigId, usize), Topology>,
    configs: Memo<(ConfigId, crate::membership::ProposalHash), Configuration>,
    snapshots: Memo<(ConfigId, u64), Configuration>,
}

impl TopologyCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the memoised topology for `config`, building it on miss.
    pub fn get(&self, config: &Configuration, k: usize) -> Arc<Topology> {
        let key = (config.id(), k);
        let mut map = self.inner.lock();
        if let Some(t) = map.get(&key) {
            return Arc::clone(t);
        }
        let t = Arc::new(Topology::build(config, k));
        // Bound the memo: configurations are immutable and dead ones are
        // never revisited, so retain only a handful of recent entries.
        if map.len() > 64 {
            map.clear();
        }
        map.insert(key, Arc::clone(&t));
        t
    }

    /// Returns the memoised successor of `base` under `proposal`,
    /// computing it on miss. `Configuration::apply` is deterministic, so
    /// all nodes deciding the same proposal share one successor value.
    pub fn apply(
        &self,
        base: &Arc<Configuration>,
        proposal: &crate::membership::Proposal,
    ) -> Arc<Configuration> {
        let key = (base.id(), proposal.hash());
        let mut map = self.configs.lock();
        if let Some(c) = map.get(&key) {
            return Arc::clone(c);
        }
        let next = base.apply(proposal);
        if map.len() > 64 {
            map.clear();
        }
        map.insert(key, Arc::clone(&next));
        next
    }

    /// Returns the memoised configuration for a wire snapshot, building it
    /// on miss. Snapshot identifiers are the content hash chained over the
    /// view history and every receiver already trusts them as-is, so
    /// `(id, seq)` keys the memo; a join herd then reconstructs the new
    /// view once instead of once per joiner. The configuration adopts the
    /// snapshot's member list when it is sorted, so sender, snapshot and
    /// receiver hold one copy of it.
    pub fn from_snapshot(&self, snapshot: &crate::wire::ConfigSnapshot) -> Arc<Configuration> {
        let key = (snapshot.id, snapshot.seq);
        let mut map = self.snapshots.lock();
        if let Some(c) = map.get(&key) {
            return Arc::clone(c);
        }
        let cfg = Configuration::from_shared_parts(
            snapshot.id,
            snapshot.seq,
            Arc::clone(&snapshot.members),
        );
        if map.len() > 64 {
            map.clear();
        }
        map.insert(key, Arc::clone(&cfg));
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Member;
    use crate::id::Endpoint;

    fn config(n: u128) -> Arc<Configuration> {
        Configuration::bootstrap(
            (1..=n)
                .map(|i| Member::new(NodeId::from_u128(i), Endpoint::new(format!("n{i}"), 1)))
                .collect(),
        )
    }

    #[test]
    fn topology_is_deterministic() {
        let cfg = config(50);
        let a = Topology::build(&cfg, 10);
        let b = Topology::build(&cfg, 10);
        for rank in 0..50 {
            assert_eq!(a.observers_of(rank), b.observers_of(rank));
            assert_eq!(a.subjects_of(rank), b.subjects_of(rank));
        }
    }

    #[test]
    fn topology_differs_across_configs() {
        let a = Topology::build(&config(50), 10);
        let b = Topology::build(&config(51), 10);
        let diff = (0..50).any(|r| a.observers_of(r) != b.observers_of(r));
        assert!(diff);
    }

    #[test]
    fn every_node_has_k_observers_and_subjects() {
        let cfg = config(40);
        let t = Topology::build(&cfg, 7);
        for rank in 0..40 {
            assert_eq!(t.observers_of(rank).len(), 7);
            assert_eq!(t.subjects_of(rank).len(), 7);
        }
    }

    #[test]
    fn observer_subject_relations_are_duals() {
        let cfg = config(30);
        let t = Topology::build(&cfg, 5);
        for s in 0..30u32 {
            for e in t.observers_of(s) {
                let subj = t.subjects_of(e.rank);
                assert!(
                    subj.iter().any(|x| x.ring == e.ring && x.rank == s),
                    "observer edge must appear as subject edge on same ring"
                );
            }
        }
    }

    #[test]
    fn no_self_edges_for_n_at_least_two() {
        let cfg = config(2);
        let t = Topology::build(&cfg, 10);
        for rank in 0..2 {
            assert!(t.observers_of(rank).iter().all(|e| e.rank != rank));
        }
    }

    #[test]
    fn solitary_node_monitors_nobody() {
        let cfg = config(1);
        let t = Topology::build(&cfg, 10);
        assert!(t.observers_of(0).is_empty());
        assert!(t.subjects_of(0).is_empty());
    }

    #[test]
    fn joiner_observers_are_deterministic_and_cover_all_rings() {
        let cfg = config(20);
        let t = Topology::build(&cfg, 10);
        let j = NodeId::from_u128(999);
        let a = t.joiner_observers(cfg.id(), j);
        let b = t.joiner_observers(cfg.id(), j);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let rings: Vec<u8> = a.iter().map(|e| e.ring).collect();
        assert_eq!(rings, (0..10).collect::<Vec<u8>>());
        assert!(a.iter().all(|e| (e.rank as usize) < 20));
    }

    #[test]
    fn joiner_observers_differ_per_joiner() {
        let cfg = config(100);
        let t = Topology::build(&cfg, 10);
        let a = t.joiner_observers(cfg.id(), NodeId::from_u128(500));
        let b = t.joiner_observers(cfg.id(), NodeId::from_u128(501));
        assert_ne!(a, b);
    }

    #[test]
    fn edges_enumeration_matches_neighbor_queries() {
        let cfg = config(15);
        let t = Topology::build(&cfg, 4);
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), 4 * 15);
        for (ring, o, s) in edges {
            assert!(t
                .subjects_of(o)
                .iter()
                .any(|e| e.ring == ring && e.rank == s));
        }
    }

    #[test]
    fn rings_observing_reports_rings() {
        let cfg = config(10);
        let t = Topology::build(&cfg, 6);
        for s in 0..10u32 {
            for e in t.observers_of(s) {
                assert!(t.rings_observing(e.rank, s).contains(&e.ring));
            }
        }
    }

    #[test]
    fn cache_shares_instances() {
        let cache = TopologyCache::new();
        let cfg = config(10);
        let a = cache.get(&cfg, 10);
        let b = cache.get(&cfg, 10);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn view_from_a_sorted_snapshot_shares_its_members() {
        let snapshot = crate::wire::ConfigSnapshot::of(&config(8));
        let view = TopologyCache::new().from_snapshot(&snapshot);
        assert!(Arc::ptr_eq(view.shared_members(), &snapshot.members));
    }

    #[test]
    fn view_from_a_decoded_snapshot_is_sorted_and_deduplicated() {
        use crate::wire::{self, ConfigSnapshot, Message};
        let cfg = config(4);
        let m = |rank: usize| cfg.member_at(rank).clone();
        let msg = Message::ConfigPush {
            snapshot: ConfigSnapshot {
                id: cfg.id(),
                seq: 9,
                members: Arc::new(vec![m(3), m(0), m(2), m(0), m(1), m(3)]),
            },
        };
        let mut buf = Vec::new();
        wire::encode(&msg, &mut buf);
        let Ok(Message::ConfigPush { snapshot }) = wire::decode(&buf) else {
            panic!("expected a ConfigPush");
        };
        let view = TopologyCache::new().from_snapshot(&snapshot);
        assert_eq!(view.members(), cfg.members());
        assert_eq!(view.rank_of(cfg.member_at(3).id), Some(3));
        assert_eq!((view.id(), view.seq()), (cfg.id(), 9));
    }
}
