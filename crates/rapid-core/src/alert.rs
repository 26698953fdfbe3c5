//! Edge alerts: the raw input of cut detection (paper §4.1).
//!
//! Observers broadcast `REMOVE` alerts when their edge-monitor declares a
//! subject unresponsive, and `JOIN` alerts when contacted by a joiner.
//! Alerts are **irrevocable** within a configuration: Rapid never spreads a
//! retraction, which is what prevents the accusation/refutation flapping of
//! gossip-based membership.
//!
//! The topology fixes the observer of each `(subject, ring)` pair, so the
//! K alerts about one subject in one configuration differ only in their
//! ring. Gossip therefore carries them as one [`GossipItem`] per subject
//! whose ring set is a K-bit mask (§6: "Rapid batches multiple alerts into
//! a single message"); items about the same subject merge by bitwise OR.

use crate::config::ConfigId;
use crate::id::{Endpoint, NodeId};
use crate::metadata::Metadata;

/// The direction of an edge alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeStatus {
    /// A JOIN alert: an edge to the subject is to be created; the subject
    /// is joining the cluster.
    Up,
    /// A REMOVE alert: the edge to the subject is faulty; the subject is
    /// suspected and should be removed.
    Down,
}

/// An alert broadcast by an `observer` about a `subject` on one ring.
///
/// A JOIN alert additionally carries the joiner's metadata so that every
/// member can construct the successor configuration locally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alert {
    /// The observer that generated the alert.
    pub observer: NodeId,
    /// The subject the alert is about.
    pub subject_id: NodeId,
    /// The subject's listen address.
    pub subject_addr: Endpoint,
    /// JOIN (`Up`) or REMOVE (`Down`).
    pub status: EdgeStatus,
    /// The configuration in which the alert was issued; alerts from other
    /// configurations are discarded.
    pub config_id: ConfigId,
    /// The ring this observer covers for the subject. Tallies are counted
    /// per ring slot, so duplicate observers still contribute K distinct
    /// slots.
    pub ring: u8,
    /// Joiner metadata (empty for REMOVE alerts).
    pub metadata: Metadata,
}

impl Alert {
    /// Creates a REMOVE alert.
    pub fn remove(
        observer: NodeId,
        subject_id: NodeId,
        subject_addr: Endpoint,
        config_id: ConfigId,
        ring: u8,
    ) -> Self {
        Alert {
            observer,
            subject_id,
            subject_addr,
            status: EdgeStatus::Down,
            config_id,
            ring,
            metadata: Metadata::new(),
        }
    }

    /// Creates a JOIN alert.
    pub fn join(
        observer: NodeId,
        subject_id: NodeId,
        subject_addr: Endpoint,
        config_id: ConfigId,
        ring: u8,
        metadata: Metadata,
    ) -> Self {
        Alert {
            observer,
            subject_id,
            subject_addr,
            status: EdgeStatus::Up,
            config_id,
            ring,
            metadata,
        }
    }
}

/// The alerts about one subject in one configuration, as gossip carries,
/// relays and merges them: bit `r` of `rings` stands for the alert of the
/// subject's observer on ring `r`.
///
/// An item names no observer and no configuration: the topology fixes the
/// observer of every `(subject, ring)` pair, and the enclosing
/// [`crate::wire::Message::Gossip`] header scopes every item it carries to
/// the sender's configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipItem {
    /// The subject the alerts are about.
    pub subject_id: NodeId,
    /// The subject's listen address.
    pub subject_addr: Endpoint,
    /// JOIN (`Up`) or REMOVE (`Down`).
    pub status: EdgeStatus,
    /// The rings whose alert this item carries, one bit per ring.
    pub rings: u64,
    /// Joiner metadata (empty for REMOVE items).
    pub metadata: Metadata,
}

impl GossipItem {
    /// Whether this item carries everything `other` does: every ring of
    /// `other`, and metadata whenever `other` has some.
    pub fn covers(&self, other: &GossipItem) -> bool {
        other.rings & !self.rings == 0 && (other.metadata.is_empty() || !self.metadata.is_empty())
    }

    /// The union of two items about the same subject: the OR of their
    /// rings, and `self`'s metadata unless only `other` has some.
    pub fn merged(&self, other: &GossipItem) -> GossipItem {
        debug_assert_eq!(self.subject_id, other.subject_id);
        GossipItem {
            rings: self.rings | other.rings,
            metadata: if self.metadata.is_empty() {
                other.metadata.clone()
            } else {
                self.metadata.clone()
            },
            ..self.clone()
        }
    }
}

/// The mask of the valid ring bits for `k` rings (`k <= 64`).
pub fn ring_mask(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1 << k) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep() -> Endpoint {
        Endpoint::new("s", 1)
    }

    #[test]
    fn join_alert_carries_metadata() {
        let md = Metadata::with_entry("role", "backend");
        let a = Alert::join(
            NodeId::from_u128(1),
            NodeId::from_u128(2),
            ep(),
            ConfigId(5),
            0,
            md.clone(),
        );
        assert_eq!(a.metadata, md);
        assert_eq!(a.status, EdgeStatus::Up);
    }

    fn item(rings: u64, metadata: Metadata) -> GossipItem {
        GossipItem {
            subject_id: NodeId::from_u128(2),
            subject_addr: ep(),
            status: EdgeStatus::Up,
            rings,
            metadata,
        }
    }

    #[test]
    fn items_merge_by_or_and_keep_metadata() {
        let md = Metadata::with_entry("role", "backend");
        let a = item(0b0011, Metadata::new());
        let b = item(0b0110, md.clone());
        let m = a.merged(&b);
        assert_eq!(m.rings, 0b0111);
        assert_eq!(m.metadata, md);
        assert!(m.covers(&a) && m.covers(&b));
        assert!(!a.covers(&b) && !b.covers(&a));
        assert!(!item(0b0110, Metadata::new()).covers(&b), "metadata counts");
        assert!(b.covers(&item(0b0100, Metadata::new())));
    }

    #[test]
    fn ring_mask_has_k_bits() {
        assert_eq!(ring_mask(0), 0);
        assert_eq!(ring_mask(1), 1);
        assert_eq!(ring_mask(10), 0x3ff);
        assert_eq!(ring_mask(64), u64::MAX);
    }
}
