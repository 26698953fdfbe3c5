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

use crate::alert::{ring_mask, Alert, EdgeStatus, GossipItem};
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

/// Per-subject aggregation state: the node's one record per subject in
/// the current configuration.
#[derive(Clone, Debug)]
struct Tracker {
    addr: Endpoint,
    status: EdgeStatus,
    /// JOIN metadata, boxed: most subjects are REMOVEs and carry none.
    metadata: Option<Box<Metadata>>,
    /// Ring slots filled by an alert this node heard or originated (bit
    /// `r` for ring `r`). It is the gossip dedup gate: only bits new to
    /// it are applied and relayed.
    heard: u64,
    /// Ring slots filled only by the implicit-alert rule. They count
    /// towards the tally but are never relayed, and they do not stop the
    /// real alert for the slot from being heard and relayed later.
    implicit: u64,
    /// Virtual time at which the subject last entered the unstable region
    /// (read only while it is unstable).
    unstable_since: u64,
}

impl Tracker {
    fn filled(&self) -> u64 {
        self.heard | self.implicit
    }

    fn tally(&self) -> usize {
        self.filled().count_ones() as usize
    }

    fn metadata(&self) -> Metadata {
        self.metadata.as_deref().cloned().unwrap_or_default()
    }
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
    /// Rings whose alert slot is still unfilled, one bit per ring.
    pub missing: u64,
}

/// How many subjects are in each region, kept incrementally as tallies
/// rise.
#[derive(Clone, Debug, Default)]
struct Regions {
    unstable: usize,
    stable: usize,
    /// REMOVE-tracked subjects with `tally >= L`: the only processes that
    /// can act as *faulty observers* for the implicit-alert rule. Kept
    /// incrementally so the rule short-circuits to O(1) when none exist
    /// (the common case during join herds).
    faulty_observers: usize,
}

impl Regions {
    /// Counts the watermarks `tracker`'s tally crossed on its way up from
    /// `old` (one item may cross several), and stamps when the subject
    /// entered the unstable region.
    fn rise(&mut self, tracker: &mut Tracker, old: usize, l: usize, h: usize, now: u64) {
        let new = tracker.tally();
        // Note when L == H the unstable region is empty.
        let was_unstable = old >= l && old < h;
        let is_unstable = new >= l && new < h;
        if !was_unstable && is_unstable {
            self.unstable += 1;
            tracker.unstable_since = now;
        } else if was_unstable && !is_unstable {
            self.unstable -= 1;
        }
        if old < h && new >= h {
            self.stable += 1;
        }
        if tracker.status == EdgeStatus::Down && old < l && new >= l {
            self.faulty_observers += 1;
        }
    }
}

/// The multi-process cut detector: integer tallies plus two thresholds.
#[derive(Clone, Debug)]
pub struct CutDetector {
    k: usize,
    h: usize,
    l: usize,
    config_id: ConfigId,
    trackers: BTreeMap<NodeId, Tracker>,
    regions: Regions,
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
            regions: Regions::default(),
        }
    }

    /// Resets all state for a new configuration (paper §4.2: "This state is
    /// reset after each configuration change").
    pub fn reset(&mut self, config_id: ConfigId) {
        self.config_id = config_id;
        self.trackers.clear();
        self.regions = Regions::default();
    }

    /// The configuration this detector is aggregating for.
    pub fn config_id(&self) -> ConfigId {
        self.config_id
    }

    /// Records one alert: the one-ring form of [`CutDetector::record_mask`].
    /// Returns `true` if the alert was new to this detector (alerts of
    /// other configurations and out-of-range rings are ignored).
    pub fn record(&mut self, alert: &Alert, now: u64) -> bool {
        if alert.config_id != self.config_id || alert.ring as usize >= self.k {
            return false;
        }
        let rings = 1 << alert.ring;
        let (id, addr, status) = (alert.subject_id, alert.subject_addr, alert.status);
        self.hear(id, addr, status, &alert.metadata, rings, now) != 0
    }

    /// Records the alerts of one gossip item (which the caller has scoped
    /// to this detector's configuration). Returns the item's *fresh*
    /// rings, those this detector had not heard yet: they are what the
    /// caller counts and relays, and `0` means the item is a duplicate.
    /// An item with a ring outside `0..K`, or whose status conflicts with
    /// the subject's first one (alerts are irrevocable, §4.2), records
    /// nothing and returns `0`.
    pub fn record_mask(&mut self, item: &GossipItem, now: u64) -> u64 {
        if item.rings & !ring_mask(self.k) != 0 {
            return 0;
        }
        let (id, addr, status) = (item.subject_id, item.subject_addr, item.status);
        self.hear(id, addr, status, &item.metadata, item.rings, now)
    }

    /// Marks `rings` of `subject` heard; returns the ones that were not.
    fn hear(
        &mut self,
        subject: NodeId,
        addr: Endpoint,
        status: EdgeStatus,
        metadata: &Metadata,
        rings: u64,
        now: u64,
    ) -> u64 {
        let tracker = self.trackers.entry(subject).or_insert_with(|| Tracker {
            addr,
            status,
            metadata: None,
            heard: 0,
            implicit: 0,
            unstable_since: 0,
        });
        if tracker.status != status {
            // A subject cannot be both joining and being removed within one
            // configuration (§4.2); first status wins, later conflicting
            // alerts are dropped.
            return 0;
        }
        if tracker.metadata.is_none() && !metadata.is_empty() {
            tracker.metadata = Some(Box::new(metadata.clone()));
        }
        let fresh = rings & !tracker.heard;
        let old = tracker.tally();
        tracker.heard |= fresh;
        self.regions.rise(tracker, old, self.l, self.h, now);
        fresh
    }

    /// The metadata recorded for a subject (empty if it is untracked or
    /// no alert carried any).
    pub fn metadata(&self, subject: NodeId) -> Metadata {
        self.trackers
            .get(&subject)
            .map_or_else(Metadata::new, Tracker::metadata)
    }

    /// The alert tally for a subject.
    pub fn tally(&self, subject: NodeId) -> usize {
        self.trackers.get(&subject).map_or(0, Tracker::tally)
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
        self.regions.unstable
    }

    /// Number of subjects in stable report mode.
    pub fn stable_count(&self) -> usize {
        self.regions.stable
    }

    /// Whether the aggregation rule currently permits a proposal: at least
    /// one subject stable, none unstable.
    pub fn has_proposal(&self) -> bool {
        self.regions.stable > 0 && self.regions.unstable == 0
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
            if t.tally() >= self.h {
                p.push(match t.status {
                    EdgeStatus::Up => ProposalItem::join(id, t.addr, t.metadata()),
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
            .filter(|(_, t)| (self.l..self.h).contains(&t.tally()))
            .map(|(&id, t)| UnstableSubject {
                id,
                addr: t.addr,
                status: t.status,
                since: t.unstable_since,
                missing: ring_mask(self.k) & !t.filled(),
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
    /// Implicit alerts fill slots locally and are never relayed (see
    /// `Tracker::implicit`). Returns the number of implicit alerts
    /// applied.
    pub fn apply_implicit_alerts<F>(&mut self, observers_of: F, now: u64) -> usize
    where
        F: Fn(NodeId) -> Vec<(u8, NodeId)>,
    {
        if self.regions.faulty_observers == 0 {
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
            let faulty_observers: crate::hash::DetHashSet<NodeId> = self
                .trackers
                .iter()
                .filter(|(_, t)| t.status == EdgeStatus::Down && t.tally() >= self.l)
                .map(|(&id, _)| id)
                .collect();
            let pending: Vec<(NodeId, u64)> = self
                .unstable_subjects()
                .into_iter()
                .map(|s| {
                    let rings = observers_of(s.id)
                        .into_iter()
                        .filter(|(_, o)| faulty_observers.contains(o))
                        .fold(0u64, |m, (ring, _)| m | 1u64.checked_shl(ring as u32).unwrap_or(0));
                    (s.id, rings & s.missing)
                })
                .filter(|&(_, rings)| rings != 0)
                .collect();
            if pending.is_empty() {
                return applied;
            }
            for (subject, rings) in pending {
                let tracker = self.trackers.get_mut(&subject).expect("unstable subject");
                let old = tracker.tally();
                tracker.implicit |= rings;
                applied += rings.count_ones() as usize;
                self.regions.rise(tracker, old, self.l, self.h, now);
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
        assert_eq!(u[0].missing, 0b11_1111_1100);
    }

    fn remove_item(subject: u128, rings: u64) -> GossipItem {
        GossipItem {
            subject_id: NodeId::from_u128(subject),
            subject_addr: ep(subject),
            status: EdgeStatus::Down,
            rings,
            metadata: Metadata::new(),
        }
    }

    #[test]
    fn record_mask_returns_the_fresh_rings() {
        let mut cd = detector();
        assert_eq!(cd.record_mask(&remove_item(50, 0b0011), 0), 0b0011);
        assert_eq!(cd.record_mask(&remove_item(50, 0b0110), 0), 0b0100);
        assert_eq!(cd.record_mask(&remove_item(50, 0b0110), 0), 0, "duplicate");
        assert!(!cd.record(&remove_alert(3, 50, 2), 0), "ring 2 arrived in a mask");
        assert_eq!(cd.tally(NodeId::from_u128(50)), 3);
        // Rings outside 0..K and conflicting statuses record nothing.
        assert_eq!(cd.record_mask(&remove_item(50, 1 << 10), 0), 0);
        let mut join = remove_item(50, 0b1000);
        join.status = EdgeStatus::Up;
        assert_eq!(cd.record_mask(&join, 0), 0);
        assert_eq!(cd.tally(NodeId::from_u128(50)), 3);
    }

    #[test]
    fn a_mask_may_cross_both_watermarks_at_once() {
        let mut cd = detector();
        cd.record_mask(&remove_item(50, 0b1), 0);
        assert_eq!(cd.mode(NodeId::from_u128(50)), ReportMode::Noise);
        cd.record_mask(&remove_item(50, 0b111_1111), 0);
        assert_eq!(cd.mode(NodeId::from_u128(50)), ReportMode::Stable);
        assert_eq!(cd.unstable_count(), 0);
        assert!(cd.has_proposal());
    }

    #[test]
    fn implicit_slots_count_but_leave_the_real_alert_fresh() {
        let mut cd = detector();
        for r in 0..4u8 {
            cd.record(&remove_alert(r as u128 + 1, 50, r), 0);
        }
        for r in 0..3u8 {
            cd.record(&remove_alert(r as u128 + 1, 51, r), 0);
        }
        let observers_of = |s: NodeId| -> Vec<(u8, NodeId)> {
            if s == NodeId::from_u128(50) {
                vec![(4, NodeId::from_u128(51))]
            } else {
                Vec::new()
            }
        };
        assert_eq!(cd.apply_implicit_alerts(observers_of, 5), 1);
        assert_eq!(cd.tally(NodeId::from_u128(50)), 5);
        // The real alert for ring 4 is still new (so it is relayed), but
        // it fills no slot twice.
        assert_eq!(cd.record_mask(&remove_item(50, 0b1_0000), 6), 0b1_0000);
        assert_eq!(cd.tally(NodeId::from_u128(50)), 5);
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
