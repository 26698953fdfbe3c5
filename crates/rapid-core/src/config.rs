//! Cluster configurations (paper §3).
//!
//! A *configuration* is an identifier plus a membership set. Rapid forms an
//! immutable sequence of configurations driven through consensus decisions;
//! each configuration may drive a single configuration-change decision, and
//! the next configuration is logically a new system (virtual synchrony).

use std::fmt;
use std::sync::Arc;

use crate::hash::{DetHashMap, DetHashSet, StableHasher};
use crate::id::{Endpoint, NodeId};
use crate::membership::{Proposal, ProposalItem};
use crate::metadata::Metadata;

/// A stable 64-bit configuration identifier.
///
/// Derived by hashing the previous configuration identifier together with
/// the sorted membership, so that any two processes that apply the same
/// view-change sequence compute the same identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId(pub u64);

impl ConfigId {
    /// The identifier used by processes that have no configuration yet.
    pub const NONE: ConfigId = ConfigId(0);
}

impl fmt::Debug for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConfigId({:016x})", self.0)
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One member of a configuration: logical identity, address, and metadata.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Member {
    /// The member's logical identifier, fresh per join.
    pub id: NodeId,
    /// The member's listen address.
    pub addr: Endpoint,
    /// Application metadata supplied at join time.
    pub metadata: Metadata,
}

impl Member {
    /// Creates a member with empty metadata.
    pub fn new(id: NodeId, addr: Endpoint) -> Self {
        Member {
            id,
            addr,
            metadata: Metadata::new(),
        }
    }

    /// Creates a member with metadata.
    pub fn with_metadata(id: NodeId, addr: Endpoint, metadata: Metadata) -> Self {
        Member { id, addr, metadata }
    }
}

/// An immutable membership view: configuration identifier + member list.
///
/// Members are stored sorted by [`NodeId`]; the index of a member in this
/// order is its *rank*, used for vote bitmaps and Paxos coordinator
/// rotation. `Configuration` values are shared via [`Arc`] because, at
/// N=2000, thousands of simulated nodes hold the same view; the member
/// list is an `Arc` of its own, so the snapshots a node sends
/// ([`ConfigSnapshot`](crate::wire::ConfigSnapshot)) and the views
/// rebuilt from received snapshots share it too instead of copying it.
#[derive(Clone, Debug)]
pub struct Configuration {
    id: ConfigId,
    /// Sequence number of this configuration (bootstrap = 0), for display.
    seq: u64,
    members: Arc<Vec<Member>>,
    by_id: DetHashMap<NodeId, usize>,
    by_addr: DetHashMap<Endpoint, usize>,
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Configuration {}

impl Configuration {
    /// Builds the bootstrap configuration `C0` from an initial member set.
    pub fn bootstrap(mut members: Vec<Member>) -> Arc<Self> {
        members.sort_by_key(|a| a.id);
        members.dedup_by(|a, b| a.id == b.id);
        Arc::new(Self::assemble(ConfigId::NONE, 0, members))
    }

    fn assemble(prev: ConfigId, seq: u64, members: Vec<Member>) -> Self {
        let mut hasher = StableHasher::new("rapid-config");
        hasher.write_u64(prev.0);
        for m in &members {
            hasher.write_u128(m.id.as_u128());
            hasher.write_bytes(m.addr.host().as_bytes());
            hasher.write_u64(m.addr.port() as u64);
            m.metadata.hash_into(&mut hasher);
        }
        let id = ConfigId(hasher.finish() | 1); // never collides with ConfigId::NONE
        Self::index(id, seq, Arc::new(members))
    }

    /// Builds the rank lookups over an already sorted, deduplicated list.
    fn index(id: ConfigId, seq: u64, members: Arc<Vec<Member>>) -> Self {
        debug_assert!(is_strictly_sorted(&members));
        let by_id = members.iter().enumerate().map(|(i, m)| (m.id, i)).collect();
        let by_addr = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.addr, i))
            .collect();
        Configuration {
            id,
            seq,
            members,
            by_id,
            by_addr,
        }
    }

    /// Applies a decided view-change proposal, producing the successor
    /// configuration. Joins are added, removals dropped; the result is a
    /// deterministic function of `(self, proposal)`.
    pub fn apply(&self, proposal: &Proposal) -> Arc<Configuration> {
        let mut members: Vec<Member> = Vec::with_capacity(self.members.len() + proposal.len());
        let removed: DetHashSet<NodeId> = proposal
            .items()
            .iter()
            .filter(|it| !it.join)
            .map(|it| it.id)
            .collect();
        members.extend(
            self.members
                .iter()
                .filter(|m| !removed.contains(&m.id))
                .cloned(),
        );
        for it in proposal.items() {
            if it.join && !self.by_id.contains_key(&it.id) {
                members.push(Member::with_metadata(
                    it.id,
                    it.addr,
                    it.metadata.clone(),
                ));
            }
        }
        members.sort_by_key(|a| a.id);
        members.dedup_by(|a, b| a.id == b.id);
        Arc::new(Self::assemble(self.id, self.seq + 1, members))
    }

    /// Reconstructs a configuration from a wire snapshot, trusting the
    /// carried identifier (it is the hash chained over the view history,
    /// which the receiver has not necessarily observed). The members are
    /// sorted and deduplicated by [`NodeId`].
    pub fn from_parts(id: ConfigId, seq: u64, members: Vec<Member>) -> Arc<Self> {
        Self::from_shared_parts(id, seq, Arc::new(members))
    }

    /// [`Configuration::from_parts`] over a shared member list: a list that
    /// is already strictly increasing by [`NodeId`] is adopted as is, so a
    /// view rebuilt from a received snapshot shares the snapshot's list;
    /// any other list (the wire is untrusted) is sorted and deduplicated in
    /// a private copy.
    pub(crate) fn from_shared_parts(
        id: ConfigId,
        seq: u64,
        mut members: Arc<Vec<Member>>,
    ) -> Arc<Self> {
        if !is_strictly_sorted(&members) {
            let list = Arc::make_mut(&mut members);
            list.sort_by_key(|a| a.id);
            list.dedup_by(|a, b| a.id == b.id);
        }
        Arc::new(Self::index(id, seq, members))
    }

    /// The configuration identifier.
    pub fn id(&self) -> ConfigId {
        self.id
    }

    /// Monotone sequence number of this configuration (bootstrap = 0).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the membership set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members, sorted by [`NodeId`].
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// The sorted member list itself, for handing the view on without
    /// copying it (snapshots clone this `Arc`).
    pub fn shared_members(&self) -> &Arc<Vec<Member>> {
        &self.members
    }

    /// The rank of `id` in the sorted membership, if present.
    pub fn rank_of(&self, id: NodeId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// The member with the given rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= len()`.
    pub fn member_at(&self, rank: usize) -> &Member {
        &self.members[rank]
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Whether some member listens on `addr`.
    pub fn contains_addr(&self, addr: &Endpoint) -> bool {
        self.by_addr.contains_key(addr)
    }

    /// Looks up a member by address.
    pub fn member_by_addr(&self, addr: &Endpoint) -> Option<&Member> {
        self.by_addr.get(addr).map(|&i| &self.members[i])
    }

    /// The rank of the member listening on `addr`, if present.
    pub fn rank_of_addr(&self, addr: &Endpoint) -> Option<usize> {
        self.by_addr.get(addr).copied()
    }

    /// Looks up a member by identifier.
    pub fn member_by_id(&self, id: NodeId) -> Option<&Member> {
        self.by_id.get(&id).map(|&i| &self.members[i])
    }

    /// Size of a Fast Paxos fast-path quorum: `N - floor(N/4)`, which equals
    /// `ceil(3N/4)` (paper §4.3: "three quarters of the membership set").
    pub fn fast_quorum(&self) -> usize {
        self.members.len() - self.members.len() / 4
    }

    /// Size of a classic Paxos majority quorum.
    pub fn majority_quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Builds the canonical proposal item describing the removal of `rank`.
    pub fn removal_item(&self, rank: usize) -> ProposalItem {
        let m = &self.members[rank];
        ProposalItem::remove(m.id, m.addr)
    }
}

fn is_strictly_sorted(members: &[Member]) -> bool {
    members.windows(2).all(|w| w[0].id < w[1].id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member(i: u128) -> Member {
        Member::new(NodeId::from_u128(i), Endpoint::new(format!("n{i}"), 1))
    }

    #[test]
    fn bootstrap_sorts_and_dedups() {
        let cfg = Configuration::bootstrap(vec![member(3), member(1), member(3), member(2)]);
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.member_at(0).id, NodeId::from_u128(1));
        assert_eq!(cfg.member_at(2).id, NodeId::from_u128(3));
        assert_eq!(cfg.seq(), 0);
    }

    #[test]
    fn shared_parts_adopt_a_sorted_list_and_sort_any_other() {
        let sorted = Arc::new(vec![member(1), member(2), member(5)]);
        let cfg = Configuration::from_shared_parts(ConfigId(7), 3, Arc::clone(&sorted));
        assert!(
            Arc::ptr_eq(cfg.shared_members(), &sorted),
            "copied a sorted list"
        );

        let messy = Arc::new(vec![member(5), member(1), member(5), member(2), member(1)]);
        let cfg = Configuration::from_shared_parts(ConfigId(7), 3, Arc::clone(&messy));
        let ids: Vec<NodeId> = cfg.members().iter().map(|m| m.id).collect();
        assert_eq!(ids, [1, 2, 5].map(NodeId::from_u128));
        assert_eq!(cfg.rank_of(NodeId::from_u128(5)), Some(2));
        assert_eq!(messy.len(), 5, "the caller's list is left as it was");

        let cfg = Configuration::from_parts(ConfigId(7), 3, vec![member(2), member(2)]);
        assert_eq!(cfg.len(), 1);
        assert_eq!((cfg.id(), cfg.seq()), (ConfigId(7), 3));
    }

    #[test]
    fn config_id_is_deterministic_and_membership_sensitive() {
        let a = Configuration::bootstrap(vec![member(1), member(2)]);
        let b = Configuration::bootstrap(vec![member(2), member(1)]);
        let c = Configuration::bootstrap(vec![member(1), member(3)]);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_ne!(a.id(), ConfigId::NONE);
    }

    #[test]
    fn apply_removal_and_join() {
        let cfg = Configuration::bootstrap(vec![member(1), member(2), member(3)]);
        let mut proposal = Proposal::new(cfg.id());
        proposal.push(ProposalItem::remove(
            NodeId::from_u128(2),
            Endpoint::new("n2", 1),
        ));
        proposal.push(ProposalItem::join(
            NodeId::from_u128(9),
            Endpoint::new("n9", 1),
            Metadata::new(),
        ));
        let next = cfg.apply(&proposal.canonical());
        assert_eq!(next.len(), 3);
        assert!(!next.contains(NodeId::from_u128(2)));
        assert!(next.contains(NodeId::from_u128(9)));
        assert_eq!(next.seq(), 1);
        assert_ne!(next.id(), cfg.id());
    }

    #[test]
    fn apply_is_deterministic_across_replicas() {
        let cfg = Configuration::bootstrap(vec![member(1), member(2), member(3)]);
        let mut p = Proposal::new(cfg.id());
        p.push(ProposalItem::join(
            NodeId::from_u128(7),
            Endpoint::new("n7", 1),
            Metadata::new(),
        ));
        let p = p.canonical();
        assert_eq!(cfg.apply(&p).id(), cfg.apply(&p).id());
    }

    #[test]
    fn ranks_and_lookups() {
        let cfg = Configuration::bootstrap(vec![member(10), member(20)]);
        assert_eq!(cfg.rank_of(NodeId::from_u128(10)), Some(0));
        assert_eq!(cfg.rank_of(NodeId::from_u128(20)), Some(1));
        assert_eq!(cfg.rank_of(NodeId::from_u128(30)), None);
        assert!(cfg.contains_addr(&Endpoint::new("n10", 1)));
        assert_eq!(
            cfg.member_by_addr(&Endpoint::new("n20", 1)).unwrap().id,
            NodeId::from_u128(20)
        );
    }

    #[test]
    fn quorum_sizes_match_paper() {
        // fast quorum = ceil(3N/4)
        for (n, expect) in [(3, 3), (4, 3), (5, 4), (6, 5), (7, 6), (8, 6), (1000, 750)] {
            let cfg = Configuration::bootstrap((1..=n as u128).map(member).collect());
            assert_eq!(cfg.fast_quorum(), expect, "n={n}");
            assert_eq!(cfg.majority_quorum(), n / 2 + 1);
        }
    }
}
