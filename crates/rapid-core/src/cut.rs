//! Multi-process cut detection (paper §4.2, Figure 4).
//!
//! Every process independently aggregates JOIN/REMOVE alerts until a stable
//! multi-process cut is detected. The key insight is a single rule: *defer
//! the decision on any process until the alert count of every process is
//! outside the unstable region* `[L, H)`. Subjects with at least `H`
//! distinct observer alerts are in **stable report mode** (high-fidelity,
//! permanent); subjects between `L` and `H` are **unstable**; fewer than
//! `L` alerts is noise. A configuration-change proposal consisting of *all*
//! stable subjects is emitted only when at least one subject is stable and
//! none are unstable. This yields unanimity almost everywhere (§8.2).
//!
//! Two liveness rules prevent a subject from being stuck unstable forever:
//!
//! * **Implicit alerts**: if an observer `o` of an unstable subject `s` is
//!   itself unstable, an implicit alert from `o` about `s` is applied (its
//!   observers are failing to report because they are failing too).
//! * **Reinforcement**: if `s` stays unstable past a timeout, each observer
//!   of `s` that has not yet alerted echoes a REMOVE (handled by
//!   [`crate::node::Node`], which owns the clock; this module exposes the
//!   unstable set with entry timestamps).

use std::collections::BTreeMap;

use crate::alert::{Alert, EdgeStatus};
use crate::config::ConfigId;
use crate::id::{Endpoint, NodeId};
use crate::membership::{Proposal, ProposalItem};
use crate::metadata::Metadata;

/// The report mode of a subject at some process (paper §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportMode {
    /// No alerts received.
    None,
    /// Fewer than `L` distinct alerts: treated as noise.
    Noise,
    /// At least `L` but fewer than `H` alerts: the unstable region.
    Unstable,
    /// At least `H` alerts: permanent, high-fidelity detection.
    Stable,
}

/// Per-subject aggregation state.
#[derive(Clone, Debug)]
struct Tracker {
    addr: Endpoint,
    status: EdgeStatus,
    metadata: Metadata,
    /// `slots[ring]` is set once an alert for that ring arrived.
    slots: Vec<bool>,
    tally: usize,
    /// Virtual time at which the subject entered the unstable region.
    unstable_since: Option<u64>,
}

/// A snapshot of one unstable subject, for the reinforcement rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnstableSubject {
    /// The subject's identifier.
    pub id: NodeId,
    /// The subject's address.
    pub addr: Endpoint,
    /// JOIN or REMOVE.
    pub status: EdgeStatus,
    /// When the subject entered the unstable region.
    pub since: u64,
    /// Rings whose alert slot is still unfilled.
    pub missing_rings: Vec<u8>,
}

/// The multi-process cut detector: integer tallies plus two thresholds.
#[derive(Clone, Debug)]
pub struct CutDetector {
    k: usize,
    h: usize,
    l: usize,
    config_id: ConfigId,
    trackers: BTreeMap<NodeId, Tracker>,
    unstable_count: usize,
    stable_count: usize,
    /// REMOVE-tracked subjects with `tally >= L`: the only processes that
    /// can act as *faulty observers* for the implicit-alert rule. Kept
    /// incrementally so the rule short-circuits to O(1) when none exist
    /// (the common case during join herds).
    faulty_observer_count: usize,
}

impl CutDetector {
    /// Creates a detector for one configuration with watermarks `H`, `L`
    /// over `K` rings.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= L <= H <= K` (paper §4.2).
    pub fn new(config_id: ConfigId, k: usize, h: usize, l: usize) -> Self {
        assert!(
            1 <= l && l <= h && h <= k,
            "watermarks must satisfy 1 <= L <= H <= K (K={k} H={h} L={l})"
        );
        CutDetector {
            k,
            h,
            l,
            config_id,
            trackers: BTreeMap::new(),
            unstable_count: 0,
            stable_count: 0,
            faulty_observer_count: 0,
        }
    }

    /// Resets all state for a new configuration (paper §4.2: "This state is
    /// reset after each configuration change").
    pub fn reset(&mut self, config_id: ConfigId) {
        self.config_id = config_id;
        self.trackers.clear();
        self.unstable_count = 0;
        self.stable_count = 0;
        self.faulty_observer_count = 0;
    }

    /// The configuration this detector is aggregating for.
    pub fn config_id(&self) -> ConfigId {
        self.config_id
    }

    /// Records one alert. Returns `true` if it filled a new `(subject,
    /// ring)` slot (duplicates, stale configurations, and out-of-range
    /// rings are ignored — alerts are irrevocable, so conflicting status
    /// for a known subject is also ignored).
    pub fn record(&mut self, alert: &Alert, now: u64) -> bool {
        if alert.config_id != self.config_id || alert.ring as usize >= self.k {
            return false;
        }
        let k = self.k;
        let tracker = self.trackers.entry(alert.subject_id).or_insert_with(|| Tracker {
            addr: alert.subject_addr,
            status: alert.status,
            metadata: alert.metadata.clone(),
            slots: vec![false; k],
            tally: 0,
            unstable_since: None,
        });
        if tracker.status != alert.status {
            // A subject cannot be both joining and being removed within one
            // configuration (§4.2); first status wins, later conflicting
            // alerts are dropped.
            return false;
        }
        if tracker.metadata.is_empty() && !alert.metadata.is_empty() {
            tracker.metadata = alert.metadata.clone();
        }
        let slot = &mut tracker.slots[alert.ring as usize];
        if *slot {
            return false;
        }
        *slot = true;
        let old = tracker.tally;
        tracker.tally += 1;
        let new = tracker.tally;
        // Region transitions. Note when L == H the unstable region is empty.
        let was_unstable = old >= self.l && old < self.h;
        let is_unstable = new >= self.l && new < self.h;
        if !was_unstable && is_unstable {
            self.unstable_count += 1;
            tracker.unstable_since = Some(now);
        } else if was_unstable && !is_unstable {
            self.unstable_count -= 1;
        }
        if old < self.h && new >= self.h {
            self.stable_count += 1;
        }
        if tracker.status == EdgeStatus::Down && old < self.l && new >= self.l {
            self.faulty_observer_count += 1;
        }
        true
    }

    /// The alert tally for a subject.
    pub fn tally(&self, subject: NodeId) -> usize {
        self.trackers.get(&subject).map_or(0, |t| t.tally)
    }

    /// The report mode of a subject.
    pub fn mode(&self, subject: NodeId) -> ReportMode {
        let tally = self.tally(subject);
        if tally == 0 {
            ReportMode::None
        } else if tally >= self.h {
            ReportMode::Stable
        } else if tally >= self.l {
            ReportMode::Unstable
        } else {
            ReportMode::Noise
        }
    }

    /// Number of subjects currently in the unstable region.
    pub fn unstable_count(&self) -> usize {
        self.unstable_count
    }

    /// Number of subjects in stable report mode.
    pub fn stable_count(&self) -> usize {
        self.stable_count
    }

    /// Whether the aggregation rule currently permits a proposal: at least
    /// one subject stable, none unstable.
    pub fn has_proposal(&self) -> bool {
        self.stable_count > 0 && self.unstable_count == 0
    }

    /// Returns the current proposal (all subjects in stable report mode) if
    /// the aggregation rule permits one.
    ///
    /// The proposal is canonical (sorted by subject id), so any two
    /// processes whose detectors saw the same stable set produce an
    /// identical proposal.
    pub fn proposal(&self) -> Option<Proposal> {
        if !self.has_proposal() {
            return None;
        }
        let mut p = Proposal::new(self.config_id);
        for (&id, t) in &self.trackers {
            if t.tally >= self.h {
                p.push(match t.status {
                    EdgeStatus::Up => ProposalItem::join(id, t.addr, t.metadata.clone()),
                    EdgeStatus::Down => ProposalItem::remove(id, t.addr),
                });
            }
        }
        Some(p.canonical())
    }

    /// Snapshot of all unstable subjects with their entry timestamps and
    /// unfilled ring slots, for the implicit-alert and reinforcement rules.
    pub fn unstable_subjects(&self) -> Vec<UnstableSubject> {
        self.trackers
            .iter()
            .filter(|(_, t)| t.tally >= self.l && t.tally < self.h)
            .map(|(&id, t)| UnstableSubject {
                id,
                addr: t.addr,
                status: t.status,
                since: t.unstable_since.unwrap_or(0),
                missing_rings: t
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, &filled)| !filled)
                    .map(|(r, _)| r as u8)
                    .collect(),
            })
            .collect()
    }

    /// Applies the implicit-alert rule (paper §4.2): for every observer `o`
    /// of an unstable subject `s`, if `o` is itself a faulty subject, an
    /// implicit alert from `o` about `s` is recorded. Iterates to a fixed
    /// point because newly *filled* slots can cascade.
    ///
    /// Deviation from the paper's letter: the paper applies the rule when
    /// `o` is *unstable*; we also apply it when `o` is already *stable*
    /// (tally ≥ H). A stable-mode faulty observer is strictly stronger
    /// evidence that its unreported edges are down, and without this the
    /// detection deadlocks when `o` reaches stable mode before `s` enters
    /// the unstable region (e.g. a partitioned minority whose members
    /// stabilise at different times).
    ///
    /// `observers_of` maps a subject to its `(ring, observer)` monitoring
    /// edges (in-configuration predecessors for removals, temporary
    /// observers for joiners).
    ///
    /// Returns the number of implicit alerts applied.
    pub fn apply_implicit_alerts<F>(&mut self, observers_of: F, now: u64) -> usize
    where
        F: Fn(NodeId) -> Vec<(u8, NodeId)>,
    {
        if self.faulty_observer_count == 0 {
            // No REMOVE-tracked subject has reached L: no observer can be
            // faulty, so no implicit alert can fire. Skipping the scan here
            // is exact (not an approximation) and keeps join herds O(1).
            return 0;
        }
        let mut applied = 0;
        loop {
            // An observer counts as "faulty" only for REMOVE tracking (a
            // joining process is not a member and observes nobody), and
            // qualifies from the unstable region onwards (see above).
            let unstable_observers: crate::hash::DetHashSet<NodeId> = self
                .trackers
                .iter()
                .filter(|(_, t)| t.status == EdgeStatus::Down && t.tally >= self.l)
                .map(|(&id, _)| id)
                .collect();
            let mut pending: Vec<Alert> = Vec::new();
            for s in self.unstable_subjects() {
                for (ring, o) in observers_of(s.id) {
                    if !unstable_observers.contains(&o) || !s.missing_rings.contains(&ring) {
                        continue;
                    }
                    pending.push(match s.status {
                        EdgeStatus::Down => {
                            Alert::remove(o, s.id, s.addr, self.config_id, ring)
                        }
                        EdgeStatus::Up => Alert::join(
                            o,
                            s.id,
                            s.addr,
                            self.config_id,
                            ring,
                            Metadata::new(),
                        ),
                    });
                }
            }
            let mut progressed = false;
            for a in &pending {
                progressed |= self.record(a, now);
            }
            applied += pending.len();
            if !progressed {
                return applied;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u128) -> Endpoint {
        Endpoint::new(format!("n{i}"), 1)
    }

    fn remove_alert(observer: u128, subject: u128, ring: u8) -> Alert {
        Alert::remove(
            NodeId::from_u128(observer),
            NodeId::from_u128(subject),
            ep(subject),
            ConfigId(7),
            ring,
        )
    }

    fn join_alert(observer: u128, subject: u128, ring: u8) -> Alert {
        Alert::join(
            NodeId::from_u128(observer),
            NodeId::from_u128(subject),
            ep(subject),
            ConfigId(7),
            ring,
            Metadata::new(),
        )
    }

    fn detector() -> CutDetector {
        // The paper's Figure 4 parameters.
        CutDetector::new(ConfigId(7), 10, 7, 2)
    }

    #[test]
    fn modes_track_watermarks() {
        let mut cd = detector();
        let s = NodeId::from_u128(50);
        assert_eq!(cd.mode(s), ReportMode::None);
        cd.record(&remove_alert(1, 50, 0), 0);
        assert_eq!(cd.mode(s), ReportMode::Noise);
        cd.record(&remove_alert(2, 50, 1), 0);
        assert_eq!(cd.mode(s), ReportMode::Unstable);
        for r in 2..7 {
            cd.record(&remove_alert(r as u128, 50, r), 0);
        }
        assert_eq!(cd.mode(s), ReportMode::Stable);
        assert_eq!(cd.tally(s), 7);
    }

    #[test]
    fn duplicates_and_stale_configs_ignored() {
        let mut cd = detector();
        assert!(cd.record(&remove_alert(1, 50, 0), 0));
        assert!(!cd.record(&remove_alert(1, 50, 0), 0), "same slot");
        assert!(!cd.record(&remove_alert(2, 50, 0), 0), "slot already filled");
        let mut stale = remove_alert(3, 50, 1);
        stale.config_id = ConfigId(99);
        assert!(!cd.record(&stale, 0));
        let mut bad_ring = remove_alert(3, 50, 1);
        bad_ring.ring = 100;
        assert!(!cd.record(&bad_ring, 0));
        assert_eq!(cd.tally(NodeId::from_u128(50)), 1);
    }

    #[test]
    fn conflicting_status_is_dropped() {
        let mut cd = detector();
        cd.record(&remove_alert(1, 50, 0), 0);
        assert!(!cd.record(&join_alert(2, 50, 1), 0));
        assert_eq!(cd.tally(NodeId::from_u128(50)), 1);
    }

    #[test]
    fn figure_4_scenario() {
        // q,r,s,t with K=10, H=7, L=2. While q is unstable no proposal is
        // emitted; once q reaches H the proposal contains all four.
        let mut cd = detector();
        for (subject, count) in [(101u128, 3usize), (102, 7), (103, 8), (104, 10)] {
            for r in 0..count {
                cd.record(&remove_alert(r as u128 + 1, subject, r as u8), 0);
            }
        }
        assert_eq!(cd.mode(NodeId::from_u128(101)), ReportMode::Unstable);
        assert_eq!(cd.stable_count(), 3);
        assert!(!cd.has_proposal(), "unstable q must defer the proposal");
        // q accrues the remaining alerts and becomes stable.
        for r in 3..7 {
            cd.record(&remove_alert(r as u128 + 1, 101, r), 0);
        }
        assert!(cd.has_proposal());
        let p = cd.proposal().unwrap();
        let ids: Vec<u128> = p.items().iter().map(|i| i.id.as_u128()).collect();
        assert_eq!(ids, vec![101, 102, 103, 104]);
    }

    #[test]
    fn noise_below_l_never_blocks_or_proposes() {
        let mut cd = detector();
        cd.record(&remove_alert(1, 50, 0), 0); // tally 1 < L=2: noise
        for r in 0..7 {
            cd.record(&remove_alert(r as u128, 60, r), 0);
        }
        assert!(cd.has_proposal(), "noise must not defer");
        let p = cd.proposal().unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.items()[0].id, NodeId::from_u128(60));
    }

    #[test]
    fn proposal_mixes_joins_and_removes() {
        let mut cd = detector();
        for r in 0..7 {
            cd.record(&remove_alert(r as u128, 60, r), 0);
        }
        for r in 0..7 {
            cd.record(&join_alert(r as u128, 70, r), 0);
        }
        let p = cd.proposal().unwrap();
        assert_eq!(p.len(), 2);
        let (joins, removes) = p.partition_ids();
        assert_eq!(joins, vec![NodeId::from_u128(70)]);
        assert_eq!(removes, vec![NodeId::from_u128(60)]);
    }

    #[test]
    fn proposal_is_order_insensitive() {
        // Deliver the same alert set in two different orders; proposals and
        // hashes must match (the almost-everywhere agreement property).
        let mut alerts = Vec::new();
        for subject in [60u128, 61, 62] {
            for r in 0..8u8 {
                alerts.push(remove_alert(r as u128, subject, r));
            }
        }
        let mut a = detector();
        for alert in &alerts {
            a.record(alert, 0);
        }
        let mut b = detector();
        for alert in alerts.iter().rev() {
            b.record(alert, 0);
        }
        assert_eq!(a.proposal().unwrap().hash(), b.proposal().unwrap().hash());
    }

    #[test]
    fn reset_clears_everything() {
        let mut cd = detector();
        for r in 0..7 {
            cd.record(&remove_alert(r as u128, 60, r), 0);
        }
        assert!(cd.has_proposal());
        cd.reset(ConfigId(8));
        assert!(!cd.has_proposal());
        assert_eq!(cd.tally(NodeId::from_u128(60)), 0);
        assert_eq!(cd.config_id(), ConfigId(8));
    }

    #[test]
    fn unstable_subjects_reports_missing_rings() {
        let mut cd = detector();
        cd.record(&remove_alert(1, 50, 0), 42);
        cd.record(&remove_alert(2, 50, 1), 43);
        let u = cd.unstable_subjects();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].id, NodeId::from_u128(50));
        assert_eq!(u[0].since, 43, "entered unstable at second alert");
        assert_eq!(u[0].missing_rings.len(), 8);
        assert!(!u[0].missing_rings.contains(&0));
        assert!(!u[0].missing_rings.contains(&1));
    }

    #[test]
    fn implicit_alerts_unblock_mutually_unstable_pair() {
        // Subjects 50 and 51 are both unstable; 51 observes 50 on several
        // rings. The implicit rule must fill those slots.
        let mut cd = detector();
        // 50: alerts on rings 0..4 (tally 4, unstable), missing 5..10 —
        // observed on the missing rings by 51.
        for r in 0..4u8 {
            cd.record(&remove_alert(r as u128 + 1, 50, r), 0);
        }
        // 51: tally 3, unstable.
        for r in 0..3u8 {
            cd.record(&remove_alert(r as u128 + 1, 51, r), 0);
        }
        let observers_of = |s: NodeId| -> Vec<(u8, NodeId)> {
            if s == NodeId::from_u128(50) {
                // 51 observes 50 on rings 4..10.
                (4..10).map(|r| (r as u8, NodeId::from_u128(51))).collect()
            } else {
                Vec::new()
            }
        };
        let applied = cd.apply_implicit_alerts(observers_of, 5);
        assert!(applied >= 3);
        assert_eq!(cd.mode(NodeId::from_u128(50)), ReportMode::Stable);
    }

    #[test]
    fn implicit_alerts_ignore_stable_and_noise_observers() {
        let mut cd = detector();
        for r in 0..3u8 {
            cd.record(&remove_alert(r as u128 + 1, 50, r), 0);
        }
        // Observer 51 has a single (noise) alert: not unstable, so no
        // implicit alert may be applied on its behalf.
        cd.record(&remove_alert(1, 51, 0), 0);
        let observers_of = |s: NodeId| -> Vec<(u8, NodeId)> {
            if s == NodeId::from_u128(50) {
                (3..10).map(|r| (r as u8, NodeId::from_u128(51))).collect()
            } else {
                Vec::new()
            }
        };
        assert_eq!(cd.apply_implicit_alerts(observers_of, 5), 0);
        assert_eq!(cd.mode(NodeId::from_u128(50)), ReportMode::Unstable);
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn rejects_invalid_watermarks() {
        CutDetector::new(ConfigId(1), 10, 11, 3);
    }
}
