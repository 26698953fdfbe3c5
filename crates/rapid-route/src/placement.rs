//! Deterministic partition placement derived from a membership view.
//!
//! The paper's thesis is that a strongly consistent membership view is a
//! *sufficient* coordination primitive: because every process installs
//! the identical configuration sequence, any pure function of the view
//! is automatically agreed upon by all members with zero extra messages.
//! This module is that function for data placement: a balanced
//! rendezvous hash assigning `P` fixed partitions to `RF` replicas each,
//! plus a rank-derived per-partition leader.
//!
//! Properties (pinned by `tests/placement_props.rs`):
//!
//! * **Determinism** — any two processes holding the same
//!   [`Configuration`] compute byte-identical placements, regardless of
//!   the order they learned about members.
//! * **Balance** — per-node load is capped by the acceptance quota
//!   (~1.5× the ideal `P·RF/N`), plus a rare fill-through tail.
//! * **Minimal disruption** — a single join or leave moves
//!   `ceil(P/N)·RF` partitions *in expectation* and never more than
//!   twice that. (The strict per-event form of the bound is unattainable
//!   for any placement that is a pure function of the current view:
//!   balance forces ~`P·RF/N` slots onto the churned node, and hash
//!   variance pushes individual events past any bound at the mean —
//!   schemes that do guarantee it, e.g. AnchorHash, carry removal
//!   history, which a freshly joined member cannot reconstruct. See
//!   `docs/ROUTING.md`.)

use std::sync::Arc;

use parking_lot::Mutex;
use rapid_core::config::{ConfigId, Configuration, Member};
use rapid_core::hash::{DetHashMap, StableHasher};
use rapid_core::id::Endpoint;

/// Tunables of the placement function. Every node must use identical
/// values (they are part of the deterministic inputs, like the view).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Number of fixed partitions `P` the key space is split into.
    pub partitions: u32,
    /// Replication factor `RF` (clamped to the cluster size).
    pub replication: usize,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            partitions: 64,
            replication: 3,
        }
    }
}

/// The partition a key routes to: FNV over the key bytes, mod `P`.
pub fn partition_of(key: &str, partitions: u32) -> u32 {
    (rapid_core::hash::fnv1a(key.as_bytes()) % partitions as u64) as u32
}

/// Rendezvous score of `(partition, member)` — the per-pair coin flip
/// every node evaluates identically.
fn score(partition: u32, member: &Member) -> u64 {
    StableHasher::new("rapid-route-placement")
        .write_u64(partition as u64)
        .write_u128(member.id.as_u128())
        .finish()
}

/// A complete replica map for one configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    config_id: ConfigId,
    members: usize,
    spec: PlacementConfig,
    /// Per partition: replica member-ranks, ascending.
    replicas: Vec<Vec<u32>>,
    /// Per partition: the leader's member-rank (always one of the
    /// partition's replicas).
    leaders: Vec<u32>,
}

impl Placement {
    /// Computes the placement for a configuration — a pure function of
    /// `(config, spec)`, identical on every process that holds the view.
    ///
    /// Column-capped rendezvous. Two rules, both *load-independent*:
    ///
    /// 1. **Acceptance** — member `i` accepts exactly the `quota`
    ///    partitions it scores highest on, where
    ///    `quota = ceil(P·RF/N) + slack`. This depends only on `i`'s own
    ///    score column, never on what other members hold.
    /// 2. **Selection** — partition `p`'s replicas are the first `RF`
    ///    members of its descending score order that accept it; if fewer
    ///    than `RF` members accept `p` (hash-skew tail), the remaining
    ///    slots fall through to `p`'s next-best scorers regardless of
    ///    acceptance.
    ///
    /// Because no decision reads a load counter, membership churn cannot
    /// cascade: a join moves only slots the joiner itself wins, a leave
    /// re-homes only the leaver's slots, and the only second-order
    /// effects are the (rare) step of the quota value itself and shifts
    /// in the fill-through tail. That is the minimal-disruption property
    /// the proptests pin — one join/leave moves `ceil(P/N)·RF` partitions
    /// in expectation, at most twice that — while acceptance keeps
    /// per-member load within `quota` plus the fill-through tail.
    pub fn compute(config: &Configuration, spec: &PlacementConfig) -> Placement {
        let n = config.len();
        let p_total = spec.partitions;
        assert!(p_total > 0, "placement needs at least one partition");
        let rf = spec.replication.clamp(1, n.max(1));
        if n == 0 {
            return Placement {
                config_id: config.id(),
                members: 0,
                spec: *spec,
                replicas: vec![Vec::new(); p_total as usize],
                leaders: Vec::new(),
            };
        }
        // Slack widens each member's acceptance set ~50% past its
        // expected load, so partitions almost always find RF acceptors
        // and the acceptance margin (which shifts when the quota value
        // steps) almost never carries live slots.
        let tight = (p_total as usize * rf).div_ceil(n);
        let quota = (tight + tight.div_ceil(2) + 1).min(p_total as usize);

        // Per-member acceptance thresholds: the quota-th highest score in
        // the member's own column.
        let mut thresholds = vec![0u64; n];
        let mut column: Vec<u64> = Vec::with_capacity(p_total as usize);
        for (i, m) in config.members().iter().enumerate() {
            column.clear();
            column.extend((0..p_total).map(|p| score(p, m)));
            let k = quota - 1;
            column.select_nth_unstable_by(k, |a, b| b.cmp(a));
            thresholds[i] = column[k];
        }

        let mut replicas = Vec::with_capacity(p_total as usize);
        let mut leaders = Vec::with_capacity(p_total as usize);
        let mut ranked: Vec<(u64, u32)> = Vec::with_capacity(n);
        for p in 0..p_total {
            ranked.clear();
            ranked.extend(
                config
                    .members()
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (score(p, m), i as u32)),
            );
            // Highest score first; member rank is the deterministic
            // tie-break (scores are 64-bit, collisions are negligible but
            // must not produce divergent placements).
            ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut chosen: Vec<u32> = ranked
                .iter()
                .filter(|&&(s, i)| s >= thresholds[i as usize])
                .take(rf)
                .map(|&(_, i)| i)
                .collect();
            if chosen.len() < rf {
                // Fill-through: not enough acceptors — take the best
                // non-acceptors in score order (still load-independent).
                for &(_, i) in ranked.iter() {
                    if !chosen.contains(&i) {
                        chosen.push(i);
                        if chosen.len() == rf {
                            break;
                        }
                    }
                }
            }
            // Leader: the chosen replica ranked first by rendezvous
            // score — the partition's rank-0 replica. Leadership is
            // stable across unrelated churn (it moves only when the
            // replica set changes) and spreads uniformly, since every
            // member is rank-0 for ~1/N of the partitions.
            let leader = ranked
                .iter()
                .map(|&(_, i)| i)
                .find(|i| chosen.contains(i))
                .expect("rf >= 1");
            chosen.sort_unstable();
            replicas.push(chosen);
            leaders.push(leader);
        }
        Placement {
            config_id: config.id(),
            members: n,
            spec: *spec,
            replicas,
            leaders,
        }
    }

    /// The configuration this placement was derived from.
    pub fn config_id(&self) -> ConfigId {
        self.config_id
    }

    /// The placement parameters used.
    pub fn spec(&self) -> &PlacementConfig {
        &self.spec
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.spec.partitions
    }

    /// The replica member-ranks of a partition, ascending.
    pub fn replicas(&self, partition: u32) -> &[u32] {
        &self.replicas[partition as usize]
    }

    /// The leader member-rank of a partition.
    pub fn leader(&self, partition: u32) -> u32 {
        self.leaders[partition as usize]
    }

    /// The replicas of `partition` in rendezvous-rank order (highest
    /// score first, member rank as tie-break) — the leader is always the
    /// first entry. Anti-entropy repair walks this order to choose pull
    /// sources, so every replica agrees on who is asked first without
    /// coordination. `config` must be the configuration this placement
    /// was computed from.
    pub fn replicas_by_rank(&self, partition: u32, config: &Configuration) -> Vec<u32> {
        let mut ranked: Vec<(u64, u32)> = self.replicas[partition as usize]
            .iter()
            .map(|&i| (score(partition, &config.members()[i as usize]), i))
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        debug_assert_eq!(
            ranked.first().map(|&(_, i)| i),
            Some(self.leaders[partition as usize]),
            "rank-0 replica must be the leader"
        );
        ranked.into_iter().map(|(_, i)| i).collect()
    }

    /// Per-member total replica-slot counts (diagnostics, balance tests).
    pub fn loads(&self) -> Vec<u32> {
        let mut loads = vec![0u32; self.members];
        for set in &self.replicas {
            for &i in set {
                loads[i as usize] += 1;
            }
        }
        loads
    }

    /// A stable digest of the full replica map — two nodes agree on
    /// placement iff their digests match, which is what the determinism
    /// proptest pins byte-for-byte.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new("rapid-route-placement-digest");
        h.write_u64(self.config_id.0);
        h.write_u64(self.spec.partitions as u64);
        h.write_u64(self.spec.replication as u64);
        for (set, &leader) in self.replicas.iter().zip(&self.leaders) {
            h.write_u64(leader as u64);
            h.write_u64(set.len() as u64);
            for &i in set {
                h.write_u64(i as u64);
            }
        }
        h.finish()
    }
}

/// One replica handoff in a rebalance: `partition`'s data flows from a
/// surviving old replica to a newly assigned one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaMove {
    /// The partition being copied.
    pub partition: u32,
    /// Address of the surviving source replica (deterministically the
    /// lowest new-view rank among survivors, so exactly one node pushes).
    pub source: Endpoint,
    /// Address of the replica gaining the partition.
    pub to: Endpoint,
}

/// The minimal data-movement plan between two placements. Because every
/// node computes it from the same pair of views, the nodes named as
/// sources push without any coordination message ever being exchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Replica copies to perform.
    pub moves: Vec<ReplicaMove>,
    /// Partitions whose entire old replica set left the view: their data
    /// is gone and the new replicas start empty.
    pub lost: Vec<u32>,
    /// Partitions whose leader changed (an availability blip even when no
    /// data moves).
    pub leader_changes: u32,
}

impl RebalancePlan {
    /// Number of distinct partitions with at least one replica copy.
    pub fn partitions_moved(&self) -> usize {
        let mut parts: Vec<u32> = self.moves.iter().map(|m| m.partition).collect();
        parts.dedup();
        parts.len()
    }

    /// Diffs two placements (with the configurations they were computed
    /// from, for identity resolution — survival is judged by `NodeId`,
    /// not address, since a rejoining process is a new identity).
    pub fn diff(
        old: &Placement,
        old_config: &Configuration,
        new: &Placement,
        new_config: &Configuration,
    ) -> RebalancePlan {
        assert_eq!(
            old.spec, new.spec,
            "rebalance requires identical placement parameters"
        );
        let mut plan = RebalancePlan::default();
        for p in 0..new.partitions() {
            let old_set = old.replicas(p);
            let new_set = new.replicas(p);
            let old_members: Vec<&Member> = old_set
                .iter()
                .map(|&i| &old_config.members()[i as usize])
                .collect();
            // Source: an old replica still alive in the *new view* — it
            // need not be a replica of the partition any more (quota
            // reshuffling can displace it), it just has to hold the data.
            // Lowest new-view rank wins, deterministically.
            let survivor = old_members
                .iter()
                .filter_map(|om| new_config.rank_of(om.id))
                .min()
                .map(|rank| new_config.members()[rank].addr);
            let added: Vec<Endpoint> = new_set
                .iter()
                .map(|&i| &new_config.members()[i as usize])
                .filter(|m| !old_members.iter().any(|om| om.id == m.id))
                .map(|m| m.addr)
                .collect();
            if !added.is_empty() {
                match survivor {
                    Some(source) => {
                        for to in added {
                            plan.moves.push(ReplicaMove {
                                partition: p,
                                source,
                                to,
                            });
                        }
                    }
                    None => plan.lost.push(p),
                }
            }
            let old_leader = old_config.members()[old.leader(p) as usize].id;
            let new_leader = new_config.members()[new.leader(p) as usize].id;
            if old_leader != new_leader {
                plan.leader_changes += 1;
            }
        }
        plan
    }
}

/// Cache key: `(config id, partitions, replication)`.
type CacheKey = (u64, u32, u64);

/// A process-local memo of computed placements, keyed by configuration.
/// In the simulator every co-hosted node shares one cache, so a view
/// change costs one placement computation instead of `N` — the same trick
/// the membership layer plays with its `TopologyCache`.
#[derive(Clone, Default)]
pub struct PlacementCache {
    inner: Arc<Mutex<DetHashMap<CacheKey, Arc<Placement>>>>,
}

impl PlacementCache {
    /// An empty cache.
    pub fn new() -> PlacementCache {
        PlacementCache::default()
    }

    /// Returns the cached placement for `(config, spec)`, computing and
    /// memoizing it on first sight.
    pub fn get(&self, config: &Configuration, spec: &PlacementConfig) -> Arc<Placement> {
        let key = (
            config.id().0,
            spec.partitions,
            spec.replication as u64,
        );
        let mut map = self.inner.lock();
        if let Some(p) = map.get(&key) {
            return Arc::clone(p);
        }
        let placement = Arc::new(Placement::compute(config, spec));
        map.insert(key, Arc::clone(&placement));
        placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_core::id::NodeId;

    fn config(n: usize) -> Arc<Configuration> {
        Configuration::bootstrap(
            (0..n)
                .map(|i| {
                    Member::new(
                        NodeId::from_u128(i as u128 + 1),
                        Endpoint::new(format!("route-{i}"), 4000),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn every_partition_gets_rf_distinct_replicas_and_a_leader() {
        let cfg = config(10);
        let spec = PlacementConfig {
            partitions: 64,
            replication: 3,
        };
        let p = Placement::compute(&cfg, &spec);
        for part in 0..64 {
            let reps = p.replicas(part);
            assert_eq!(reps.len(), 3);
            let mut uniq = reps.to_vec();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct");
            assert!(reps.contains(&p.leader(part)), "leader must be a replica");
        }
    }

    #[test]
    fn replication_clamps_to_cluster_size() {
        let cfg = config(2);
        let spec = PlacementConfig {
            partitions: 8,
            replication: 3,
        };
        let p = Placement::compute(&cfg, &spec);
        for part in 0..8 {
            assert_eq!(p.replicas(part).len(), 2);
        }
    }

    #[test]
    fn loads_are_balanced_within_quota() {
        let cfg = config(7);
        let spec = PlacementConfig {
            partitions: 128,
            replication: 3,
        };
        let p = Placement::compute(&cfg, &spec);
        // Served load stays within the acceptance quota plus the rare
        // fill-through tail (bounded by RF per partition, negligible in
        // aggregate).
        let tight = (128usize * 3).div_ceil(7);
        let quota = (tight + tight.div_ceil(2) + 1) as u32;
        for (i, &l) in p.loads().iter().enumerate() {
            assert!(l <= quota + 3, "member {i} holds {l} slots > quota {quota}+3");
            assert!(l > 0, "member {i} holds nothing");
        }
    }

    #[test]
    fn leadership_is_spread_across_members() {
        let cfg = config(8);
        let spec = PlacementConfig {
            partitions: 64,
            replication: 3,
        };
        let p = Placement::compute(&cfg, &spec);
        let mut counts = vec![0u32; 8];
        for part in 0..64 {
            counts[p.leader(part) as usize] += 1;
        }
        let max = counts.iter().max().unwrap();
        assert!(
            counts.iter().all(|&c| c > 0),
            "every member should lead something: {counts:?}"
        );
        assert!(*max <= 64 / 2, "one member leads too much: {counts:?}");
    }

    #[test]
    fn cache_returns_shared_instances() {
        let cfg = config(5);
        let cache = PlacementCache::new();
        let spec = PlacementConfig::default();
        let a = cache.get(&cfg, &spec);
        let b = cache.get(&cfg, &spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.digest(), Placement::compute(&cfg, &spec).digest());
    }

    #[test]
    fn diff_names_one_source_per_added_replica_and_detects_loss() {
        let old_cfg = config(6);
        let spec = PlacementConfig {
            partitions: 32,
            replication: 2,
        };
        let old = Placement::compute(&old_cfg, &spec);
        // Remove member rank 0 via a proposal.
        let removal = rapid_core::membership::Proposal::from_items(
            old_cfg.id(),
            vec![old_cfg.removal_item(0)],
        );
        let new_cfg = old_cfg.apply(&removal);
        let new = Placement::compute(&new_cfg, &spec);
        let plan = RebalancePlan::diff(&old, &old_cfg, &new, &new_cfg);
        assert!(plan.lost.is_empty(), "RF=2 single leave must lose nothing");
        for m in &plan.moves {
            assert_ne!(m.source, m.to);
            // The source must be alive in the new view and must have been
            // a replica of the partition in the old placement.
            assert!(new_cfg.members().iter().any(|mem| mem.addr == m.source));
            assert!(old
                .replicas(m.partition)
                .iter()
                .any(|&i| old_cfg.members()[i as usize].addr == m.source));
        }
        // A same-placement diff is empty.
        let noop = RebalancePlan::diff(&new, &new_cfg, &new, &new_cfg);
        assert!(noop.moves.is_empty() && noop.lost.is_empty());
        assert_eq!(noop.leader_changes, 0);
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        assert_eq!(partition_of("user:42", 64), partition_of("user:42", 64));
        for k in 0..200 {
            assert!(partition_of(&format!("k{k}"), 16) < 16);
        }
    }
}
