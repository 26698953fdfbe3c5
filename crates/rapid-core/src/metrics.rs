//! Per-node protocol counters.
//!
//! Byte counts are filled in by the host (simulator or transport), which is
//! where encoding happens; protocol-event counters are maintained by the
//! node itself. Table 2 of the paper is regenerated from these counters.

use rapid_obs::LatencyHist;

/// Counters exposed by every Rapid node.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Logical messages handed to the host for sending.
    pub msgs_sent: u64,
    /// Wire frames handed to the host (`<= msgs_sent`; the per-peer
    /// outbox coalesces multi-message runs into one batch frame).
    pub frames_sent: u64,
    /// Messages received from the host.
    pub msgs_received: u64,
    /// Bytes sent (maintained by the host).
    pub bytes_sent: u64,
    /// Bytes received (maintained by the host).
    pub bytes_received: u64,
    /// Alerts this node originated (REMOVE + JOIN).
    pub alerts_originated: u64,
    /// Alerts applied to the cut detector (own + received).
    pub alerts_applied: u64,
    /// Gossip items refused at ingest and never relayed: an empty ring
    /// mask, a ring `>= K`, or a status contradicting the subject's
    /// membership (JOIN for a member, REMOVE for a non-member).
    pub gossip_items_refused: u64,
    /// `ConfigPush`es that reached this node when it already held their
    /// configuration or a later one (the push was wasted).
    pub config_pushes_stale: u64,
    /// Implicit alerts applied by the liveness rule.
    pub implicit_alerts: u64,
    /// Reinforcement echoes this node broadcast.
    pub reinforcements: u64,
    /// Cut-detection proposals this node voted for.
    pub proposals: u64,
    /// View changes decided on the fast (leaderless) path.
    pub fast_decisions: u64,
    /// View changes decided via classic Paxos recovery.
    pub classic_decisions: u64,
    /// Total view changes installed.
    pub view_changes: u64,
    /// Per-view latency from the first alert this node applied in a
    /// configuration to installing that configuration's successor, on
    /// the node's own clock (virtual ms in the simulator) — mergeable
    /// across nodes for a cluster-wide detection→install distribution.
    pub detect_to_install: LatencyHist,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let m = NodeMetrics::default();
        assert_eq!(m.msgs_sent, 0);
        assert_eq!(m.view_changes, 0);
    }
}
