//! Classic single-decree Paxos: the recovery path (paper §4.3).
//!
//! When the fast path cannot decide — conflicting cut proposals or a
//! timeout — the protocol falls back to classic Paxos with rounds ≥ 1. The
//! coordinator of round `r` is the member with rank `r mod N`; coordinators
//! escalate rounds on timeout, staggered by per-node jitter.
//!
//! Safety with respect to the fast round uses Fast Paxos' value-selection
//! rule: a fast-round vote is modelled as an acceptance in round 0, and a
//! recovering coordinator that sees round 0 as the highest voted round
//! among a majority of phase-1b responses must pick any value reported by
//! **more than N/4** of them (any value a fast quorum could have decided
//! intersects every majority in more than N/4 acceptors).

use crate::hash::{DetHashMap, DetHashSet};
use std::sync::Arc;

use super::Rank;
use crate::membership::{Proposal, ProposalHash};

/// A phase-1b (promise) payload.
#[derive(Clone, Debug)]
pub struct Promise {
    /// The responding acceptor's rank.
    pub sender: u32,
    /// The acceptor's highest voted round (`vrnd`), if it voted.
    pub vrnd: Option<Rank>,
    /// The accepted value (`vval`), if it voted.
    pub vval: Option<Arc<Proposal>>,
}

/// Outputs the coordinator role may produce when fed protocol events.
#[derive(Clone, Debug, PartialEq)]
pub enum CoordinatorStep {
    /// Nothing to do yet.
    Idle,
    /// Broadcast phase-2a with this value.
    SendPhase2a(Arc<Proposal>),
    /// A majority accepted: the value is decided.
    Decided(Arc<Proposal>),
}

/// Classic Paxos state for one configuration: acceptor plus (when this
/// process coordinates a round) coordinator roles.
#[derive(Clone, Debug)]
pub struct ClassicPaxos {
    n: usize,
    my_rank: u32,
    majority: usize,
    // -------- Acceptor state --------
    /// Highest rank promised (`rnd`).
    promised: Rank,
    /// Highest rank voted in (`vrnd`) and the value (`vval`).
    accepted: Option<(Rank, Arc<Proposal>)>,
    // -------- Coordinator state --------
    /// The round this process is currently coordinating, if any.
    crnd: Option<Rank>,
    promises: DetHashMap<u32, Promise>,
    /// Value sent in phase 2a for `crnd`.
    cval: Option<Arc<Proposal>>,
    phase2b_acks: DetHashSet<u32>,
    decided: Option<Arc<Proposal>>,
}

impl ClassicPaxos {
    /// Creates classic-Paxos state for a membership of `n` processes.
    pub fn new(n: usize, my_rank: u32) -> Self {
        ClassicPaxos {
            n,
            my_rank,
            majority: n / 2 + 1,
            promised: Rank::FAST,
            accepted: None,
            crnd: None,
            promises: DetHashMap::default(),
            cval: None,
            phase2b_acks: DetHashSet::default(),
            decided: None,
        }
    }

    /// The coordinator rank of a classic round.
    pub fn coordinator_of(n: usize, round: u32) -> u32 {
        debug_assert!(round >= 1);
        (round as usize % n) as u32
    }

    /// Records this process' fast-round vote as an acceptance in round 0,
    /// so that recovery preserves a possibly-decided fast value.
    pub fn record_fast_vote(&mut self, proposal: Arc<Proposal>) {
        if self.accepted.is_none() {
            self.accepted = Some((Rank::FAST, proposal));
        }
    }

    /// Starts coordinating `round` (this process must be its coordinator).
    /// Returns the rank to carry in the phase-1a broadcast.
    pub fn start_round(&mut self, round: u32) -> Rank {
        let rank = Rank::classic(round, self.my_rank);
        self.crnd = Some(rank);
        self.promises.clear();
        self.cval = None;
        self.phase2b_acks.clear();
        rank
    }

    /// Acceptor: handles phase-1a. Returns the promise to send back, or
    /// `None` if the rank is not higher than what was already promised.
    pub fn on_phase1a(&mut self, rank: Rank) -> Option<Promise> {
        if rank <= self.promised {
            return None;
        }
        self.promised = rank;
        Some(Promise {
            sender: self.my_rank,
            vrnd: self.accepted.as_ref().map(|(r, _)| *r),
            vval: self.accepted.as_ref().map(|(_, v)| Arc::clone(v)),
        })
    }

    /// Coordinator: ingests a phase-1b promise for round `rank`.
    ///
    /// `fallback` is this process' own cut proposal (if any), used when no
    /// acceptor reports a prior vote. Returns [`CoordinatorStep::SendPhase2a`]
    /// exactly once, when a majority of promises is first assembled and a
    /// value can be chosen.
    pub fn on_promise(
        &mut self,
        rank: Rank,
        promise: Promise,
        fallback: Option<Arc<Proposal>>,
    ) -> CoordinatorStep {
        if self.crnd != Some(rank) || self.cval.is_some() {
            return CoordinatorStep::Idle;
        }
        self.promises.insert(promise.sender, promise);
        if self.promises.len() < self.majority {
            return CoordinatorStep::Idle;
        }
        let value = self.choose_recovery_value(fallback);
        match value {
            Some(v) => {
                self.cval = Some(Arc::clone(&v));
                CoordinatorStep::SendPhase2a(v)
            }
            // No acceptor voted and we have no proposal of our own yet:
            // wait (stay coordinator; a later promise or our own CD output
            // can retrigger via `retry_choose`).
            None => CoordinatorStep::Idle,
        }
    }

    /// Coordinator: retries value selection once a local proposal becomes
    /// available after a majority of empty promises was assembled.
    pub fn retry_choose(&mut self, fallback: Option<Arc<Proposal>>) -> CoordinatorStep {
        if self.crnd.is_none() || self.cval.is_some() || self.promises.len() < self.majority {
            return CoordinatorStep::Idle;
        }
        match self.choose_recovery_value(fallback) {
            Some(v) => {
                self.cval = Some(Arc::clone(&v));
                CoordinatorStep::SendPhase2a(v)
            }
            None => CoordinatorStep::Idle,
        }
    }

    /// The Fast Paxos coordinated-recovery rule (see module docs).
    fn choose_recovery_value(&self, fallback: Option<Arc<Proposal>>) -> Option<Arc<Proposal>> {
        let voted: Vec<&Promise> = self.promises.values().filter(|p| p.vrnd.is_some()).collect();
        let max_vrnd = voted.iter().filter_map(|p| p.vrnd).max();
        let Some(max_vrnd) = max_vrnd else {
            return fallback; // Nobody voted: free to propose our own cut.
        };
        let at_max: Vec<&Promise> = voted
            .into_iter()
            .filter(|p| p.vrnd == Some(max_vrnd))
            .collect();
        if max_vrnd.round >= 1 {
            // A classic round: all values voted in one classic round are
            // identical; any representative is safe.
            return at_max[0].vval.clone();
        }
        // Highest voted round is the fast round. A value that might have
        // been decided by a fast quorum appears in > N/4 of any majority of
        // promises; there can be at most one such value.
        let mut counts: DetHashMap<ProposalHash, (usize, Arc<Proposal>)> = DetHashMap::default();
        for p in &at_max {
            if let Some(v) = &p.vval {
                let e = counts
                    .entry(v.hash())
                    .or_insert_with(|| (0, Arc::clone(v)));
                e.0 += 1;
            }
        }
        if let Some((_, (_, v))) = counts.iter().find(|(_, (c, _))| *c > self.n / 4) {
            return Some(Arc::clone(v));
        }
        // No fast value could have been decided; pick the most common
        // reported value (deterministic tie-break by hash) to converge.
        counts
            .into_iter()
            .max_by_key(|(h, (c, _))| (*c, h.0))
            .map(|(_, (_, v))| v)
            .or(fallback)
    }

    /// Acceptor: handles phase-2a. Returns `true` if the value was accepted
    /// (and a phase-2b acknowledgement should be sent to the coordinator).
    pub fn on_phase2a(&mut self, rank: Rank, value: Arc<Proposal>) -> bool {
        if rank < self.promised || rank == Rank::FAST {
            return false;
        }
        self.promised = rank;
        self.accepted = Some((rank, value));
        true
    }

    /// Coordinator: ingests a phase-2b acknowledgement. Returns
    /// [`CoordinatorStep::Decided`] when a majority has accepted.
    pub fn on_phase2b(&mut self, rank: Rank, sender: u32) -> CoordinatorStep {
        if self.crnd != Some(rank) || self.cval.is_none() || self.decided.is_some() {
            return CoordinatorStep::Idle;
        }
        self.phase2b_acks.insert(sender);
        if self.phase2b_acks.len() >= self.majority {
            let v = self.cval.clone().expect("cval set when acks counted");
            self.decided = Some(Arc::clone(&v));
            CoordinatorStep::Decided(v)
        } else {
            CoordinatorStep::Idle
        }
    }

    /// The decided value, if this process coordinated a deciding round.
    pub fn decided(&self) -> Option<Arc<Proposal>> {
        self.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigId;
    use crate::id::{Endpoint, NodeId};
    use crate::membership::ProposalItem;

    fn proposal(tag: u128) -> Arc<Proposal> {
        Arc::new(Proposal::from_items(
            ConfigId(1),
            vec![ProposalItem::remove(
                NodeId::from_u128(tag),
                Endpoint::new(format!("n{tag}"), 1),
            )],
        ))
    }

    fn promise(sender: u32, vrnd: Option<Rank>, vval: Option<Arc<Proposal>>) -> Promise {
        Promise { sender, vrnd, vval }
    }

    /// Runs a full classic round among `n` fresh acceptors, where acceptor
    /// `i` has fast-voted `fast_votes[i]` (None = no vote).
    fn run_round(n: usize, fast_votes: Vec<Option<Arc<Proposal>>>, coord_fallback: Option<Arc<Proposal>>) -> Arc<Proposal> {
        let mut acceptors: Vec<ClassicPaxos> =
            (0..n).map(|i| ClassicPaxos::new(n, i as u32)).collect();
        for (i, v) in fast_votes.into_iter().enumerate() {
            if let Some(v) = v {
                acceptors[i].record_fast_vote(v);
            }
        }
        let coord_rank_idx = ClassicPaxos::coordinator_of(n, 1) as usize;
        let rank = acceptors[coord_rank_idx].start_round(1);
        // Phase 1: all acceptors promise.
        let promises: Vec<Promise> = (0..n)
            .filter_map(|i| {
                if i == coord_rank_idx {
                    // The coordinator is also an acceptor of its own 1a.
                    let mut me = acceptors[coord_rank_idx].clone();
                    let p = me.on_phase1a(rank);
                    acceptors[coord_rank_idx] = me;
                    p
                } else {
                    acceptors[i].on_phase1a(rank)
                }
            })
            .collect();
        let mut value = None;
        for p in promises {
            let step = acceptors[coord_rank_idx].on_promise(rank, p, coord_fallback.clone());
            if let CoordinatorStep::SendPhase2a(v) = step {
                value = Some(v);
                break;
            }
        }
        let value = value.expect("coordinator must choose a value");
        // Phase 2: all acceptors accept, coordinator counts.
        let mut decided = None;
        for i in 0..n {
            let accepted = acceptors[i].on_phase2a(rank, Arc::clone(&value));
            assert!(accepted);
            if let CoordinatorStep::Decided(v) =
                acceptors[coord_rank_idx].on_phase2b(rank, i as u32)
            {
                decided = Some(v);
                break;
            }
        }
        decided.expect("majority must decide")
    }

    #[test]
    fn decides_own_value_when_nobody_fast_voted() {
        let p = proposal(7);
        let d = run_round(5, vec![None; 5], Some(Arc::clone(&p)));
        assert_eq!(d.hash(), p.hash());
    }

    #[test]
    fn recovers_possibly_decided_fast_value() {
        // n=8: fast quorum 6. Six acceptors fast-voted p1 (possibly
        // decided); classic recovery MUST choose p1 even though the
        // coordinator's own proposal is p2.
        let p1 = proposal(1);
        let p2 = proposal(2);
        let votes: Vec<Option<Arc<Proposal>>> =
            (0..8).map(|i| if i < 6 { Some(Arc::clone(&p1)) } else { None }).collect();
        let d = run_round(8, votes, Some(p2));
        assert_eq!(d.hash(), p1.hash());
    }

    #[test]
    fn converges_on_majority_value_in_split_vote() {
        // n=8: 4 votes p1, 4 votes p2. Neither could have been fast-decided
        // (quorum 6); the rule picks the most common deterministically.
        let p1 = proposal(1);
        let p2 = proposal(2);
        let votes: Vec<Option<Arc<Proposal>>> = (0..8)
            .map(|i| {
                if i < 4 {
                    Some(Arc::clone(&p1))
                } else {
                    Some(Arc::clone(&p2))
                }
            })
            .collect();
        let d = run_round(8, votes, None);
        assert!(d.hash() == p1.hash() || d.hash() == p2.hash());
    }

    #[test]
    fn promise_refused_for_lower_rank() {
        let mut a = ClassicPaxos::new(3, 0);
        assert!(a.on_phase1a(Rank::classic(2, 2)).is_some());
        assert!(a.on_phase1a(Rank::classic(1, 1)).is_none());
        assert!(a.on_phase1a(Rank::classic(2, 2)).is_none(), "same rank refused");
        assert!(a.on_phase1a(Rank::classic(3, 0)).is_some());
    }

    #[test]
    fn phase2a_refused_below_promise() {
        let mut a = ClassicPaxos::new(3, 0);
        a.on_phase1a(Rank::classic(5, 2));
        assert!(!a.on_phase2a(Rank::classic(4, 1), proposal(1)));
        assert!(a.on_phase2a(Rank::classic(5, 2), proposal(1)));
    }

    #[test]
    fn classic_acceptance_overrides_fast_vote_in_promise() {
        let mut a = ClassicPaxos::new(5, 0);
        a.record_fast_vote(proposal(1));
        assert!(a.on_phase2a(Rank::classic(1, 1), proposal(9)));
        let pr = a.on_phase1a(Rank::classic(2, 2)).unwrap();
        assert_eq!(pr.vrnd, Some(Rank::classic(1, 1)));
        assert_eq!(pr.vval.unwrap().hash(), proposal(9).hash());
    }

    #[test]
    fn classic_round_value_beats_fast_votes_in_recovery() {
        // One acceptor voted in classic round 1 (value p9); others only
        // fast-voted p1. Recovery at round 2 must choose p9.
        let n = 5;
        let p1 = proposal(1);
        let p9 = proposal(9);
        let mut coord = ClassicPaxos::new(n, 2);
        let rank = coord.start_round(2);
        let steps = [
            coord.on_promise(rank, promise(0, Some(Rank::FAST), Some(Arc::clone(&p1))), None),
            coord.on_promise(rank, promise(1, Some(Rank::classic(1, 1)), Some(Arc::clone(&p9))), None),
            coord.on_promise(rank, promise(3, Some(Rank::FAST), Some(Arc::clone(&p1))), None),
        ];
        let chosen = steps
            .iter()
            .find_map(|s| match s {
                CoordinatorStep::SendPhase2a(v) => Some(v.hash()),
                _ => None,
            })
            .expect("2a sent at majority");
        assert_eq!(chosen, p9.hash());
    }

    #[test]
    fn coordinator_waits_without_any_value() {
        let n = 3;
        let mut coord = ClassicPaxos::new(n, 1);
        let rank = coord.start_round(1);
        assert_eq!(coord.on_promise(rank, promise(0, None, None), None), CoordinatorStep::Idle);
        assert_eq!(coord.on_promise(rank, promise(2, None, None), None), CoordinatorStep::Idle);
        // A proposal later becomes available locally.
        let p = proposal(3);
        match coord.retry_choose(Some(Arc::clone(&p))) {
            CoordinatorStep::SendPhase2a(v) => assert_eq!(v.hash(), p.hash()),
            other => panic!("expected SendPhase2a, got {other:?}"),
        }
    }

    #[test]
    fn decision_requires_majority_acks() {
        let n = 5;
        let p = proposal(1);
        let mut coord = ClassicPaxos::new(n, 1);
        let rank = coord.start_round(1);
        for s in [0u32, 2, 3] {
            coord.on_promise(rank, promise(s, None, None), Some(Arc::clone(&p)));
        }
        assert_eq!(coord.on_phase2b(rank, 0), CoordinatorStep::Idle);
        assert_eq!(coord.on_phase2b(rank, 1), CoordinatorStep::Idle);
        match coord.on_phase2b(rank, 2) {
            CoordinatorStep::Decided(v) => assert_eq!(v.hash(), p.hash()),
            other => panic!("expected decision, got {other:?}"),
        }
        assert!(coord.decided().is_some());
    }

    #[test]
    fn coordinator_rotation() {
        assert_eq!(ClassicPaxos::coordinator_of(5, 1), 1);
        assert_eq!(ClassicPaxos::coordinator_of(5, 5), 0);
        assert_eq!(ClassicPaxos::coordinator_of(5, 7), 2);
    }
}
