//! Protocol tuning parameters.
//!
//! The paper's evaluation (§7) fixes `{K, H, L} = {10, 9, 3}`; Figure 11
//! explores the sensitivity to other choices. All time-valued parameters
//! are in milliseconds of protocol time (virtual in simulation, wall-clock
//! on a real transport).

/// All tunable parameters of a Rapid node.
#[derive(Clone, Debug, PartialEq)]
pub struct Settings {
    /// Number of monitoring rings / observers per subject (paper `K`).
    pub k: usize,
    /// High watermark: a subject with `tally >= H` is in stable report mode.
    pub h: usize,
    /// Low watermark: a subject with `L <= tally < H` is in unstable report
    /// mode; fewer than `L` alerts are treated as noise.
    pub l: usize,

    /// Interval between `Tick` events the host must deliver.
    pub tick_interval_ms: u64,

    /// Edge failure detector: probe period per subject.
    pub fd_probe_interval_ms: u64,
    /// Edge failure detector: probe response timeout.
    pub fd_probe_timeout_ms: u64,
    /// Edge failure detector: sliding window size (paper §6: last 10).
    pub fd_window: usize,
    /// Edge failure detector: minimum failed fraction of the window to mark
    /// an edge faulty (paper §6: 40%).
    pub fd_fail_fraction: f64,

    /// How long a subject may stay in unstable report mode before observers
    /// reinforce the detection by echoing REMOVE alerts (paper §4.2).
    pub reinforce_timeout_ms: u64,

    /// Base delay before a node abandons the Fast Paxos fast path and falls
    /// back to classic Paxos (paper §4.3).
    pub consensus_fallback_base_ms: u64,
    /// Random additional jitter added to the fallback delay, to stagger
    /// classic-round coordinators.
    pub consensus_fallback_jitter_ms: u64,
    /// Per-round timeout for the classic Paxos recovery path before the
    /// next-ranked coordinator takes over.
    pub classic_round_timeout_ms: u64,

    /// Gossip broadcaster: fan-out per round.
    pub gossip_fanout: usize,
    /// Gossip broadcaster: interval between rounds.
    pub gossip_interval_ms: u64,
    /// Gossip broadcaster: retransmission factor; each item is relayed for
    /// `ceil(retransmit_factor * log2(n + 1))` rounds.
    pub gossip_retransmit_factor: f64,

    /// Joiner: timeout before retrying a join phase.
    pub join_timeout_ms: u64,
    /// Maximum number of joiners admitted in the very first view change of
    /// a freshly seeded cluster, so that a Paxos quorum forms quickly
    /// (paper §7: the seed "bootstraps a cluster large enough to support a
    /// Paxos quorum"; Figure 7 shows 1 -> 5 -> N).
    pub bootstrap_batch: usize,

    /// Logically centralized mode: how often cluster members probe the
    /// ensemble for configuration updates (paper §7 uses 5 s).
    pub centralized_poll_interval_ms: u64,

    /// Use the epidemic gossip broadcaster instead of unicast-to-all.
    pub use_gossip_broadcast: bool,

    /// Simulator shards: the one epoch engine splits the actors into
    /// this many shards. `1` (the default) is one shard on the driving
    /// thread; `>= 2` runs large epochs' shards on that many cores under
    /// a conservative-lookahead barrier. The trace is bit-identical at
    /// every count, so this is purely a wall-clock knob. An engine
    /// setting, so it applies to every simulated system, baselines
    /// included. Ignored by the real (wall-clock) driver.
    pub threads: usize,

    /// Per-node flight-recorder capacity: each node keeps the last
    /// `obs_ring` protocol trace events in a preallocated ring buffer
    /// (probe timeouts, alerts, proposals, decisions, view installs).
    /// `0` (the default) disables recording entirely — the hot path
    /// reduces to one predictable branch, keeping benchmarks and the
    /// steady-state allocation guard unaffected. Recording happens per
    /// node on its own event stream, which is identical across
    /// `threads` values, so enabling it never perturbs determinism.
    pub obs_ring: usize,

    /// Metrics timeline sampling cadence: every `obs_sample_ms` the host
    /// sweeps each live node, recording the counter *deltas* since the
    /// previous sweep (messages, bytes, alerts, view changes, KV ops,
    /// handoff/repair bytes) plus interval histogram p50/p99 into a
    /// bounded preallocated `Timeline` ring. `0` (the default) disables
    /// sampling entirely — no sweep events are scheduled and all report
    /// bytes stay exactly as before. On the simulator the cadence is
    /// virtual time (sweeps are deterministic engine events, so merged
    /// timelines are bit-identical across `threads` values); on the real
    /// driver it is wall time.
    pub obs_sample_ms: u64,

    /// Retired: the real driver runs one KV host loop per process, so
    /// this must be `1` (the default). The field stays only because the
    /// out-of-workspace benchmark sets it; it goes with the next change
    /// to that benchmark.
    pub kv_shards: usize,

    /// Smart-client pipelined flow control: maximum ops a `KvClient`
    /// keeps in flight at once. Further submissions queue client-side.
    pub client_window: usize,

    /// KV admission control: maximum coordinator-pending client ops a
    /// node accepts before shedding new arrivals with a typed
    /// `Overloaded { retry_after_ms }` error. `0` disables the bound
    /// (the pre-client-plane behaviour).
    pub kv_inbox: usize,

    /// KV load shedding threshold keyed off the metrics timeline: when
    /// the last sampled interval's op p99 exceeds this and the inbox is
    /// more than half full, new client ops are shed early. `0` (the
    /// default) disables latency-keyed shedding; the hard `kv_inbox`
    /// bound still applies.
    pub kv_shed_p99_ms: u64,

    /// Per-peer decode quota: frames accepted from one peer per
    /// `peer_quota_interval_ms` window before further frames are dropped
    /// with a counted typed error. `0` disables the frame quota.
    pub peer_quota_frames: u64,

    /// Per-peer decode quota: payload bytes accepted from one peer per
    /// window before further frames are dropped. `0` disables the byte
    /// quota.
    pub peer_quota_bytes: u64,

    /// Width of the per-peer quota accounting window.
    pub peer_quota_interval_ms: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            k: 10,
            h: 9,
            l: 3,
            tick_interval_ms: 100,
            fd_probe_interval_ms: 1_000,
            fd_probe_timeout_ms: 1_000,
            fd_window: 10,
            fd_fail_fraction: 0.4,
            reinforce_timeout_ms: 10_000,
            consensus_fallback_base_ms: 4_000,
            consensus_fallback_jitter_ms: 2_000,
            classic_round_timeout_ms: 4_000,
            gossip_fanout: 8,
            gossip_interval_ms: 200,
            gossip_retransmit_factor: 1.0,
            join_timeout_ms: 5_000,
            bootstrap_batch: 4,
            centralized_poll_interval_ms: 5_000,
            use_gossip_broadcast: true,
            threads: 1,
            obs_ring: 0,
            obs_sample_ms: 0,
            kv_shards: 1,
            client_window: 64,
            kv_inbox: 4096,
            kv_shed_p99_ms: 0,
            peer_quota_frames: 0,
            peer_quota_bytes: 0,
            peer_quota_interval_ms: 1_000,
        }
    }
}

impl Settings {
    /// Validates the parameter combination, returning a description of the
    /// first violated constraint.
    ///
    /// The watermarks must satisfy `1 <= L <= H <= K` (paper §4.2).
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("K must be at least 1".into());
        }
        if !(1 <= self.l && self.l <= self.h && self.h <= self.k) {
            return Err(format!(
                "watermarks must satisfy 1 <= L <= H <= K, got K={} H={} L={}",
                self.k, self.h, self.l
            ));
        }
        if !(0.0..=1.0).contains(&self.fd_fail_fraction) {
            return Err("fd_fail_fraction must be within [0, 1]".into());
        }
        if self.fd_window == 0 {
            return Err("fd_window must be at least 1".into());
        }
        if self.gossip_fanout == 0 {
            return Err("gossip_fanout must be at least 1".into());
        }
        if self.tick_interval_ms == 0 {
            return Err("tick_interval_ms must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be at least 1".into());
        }
        if self.client_window == 0 {
            return Err("client_window must be at least 1".into());
        }
        if self.kv_shards != 1 {
            return Err(format!(
                "kv_shards must be 1 (one KV host loop per process), got {}",
                self.kv_shards
            ));
        }
        if self.peer_quota_interval_ms == 0
            && (self.peer_quota_frames > 0 || self.peer_quota_bytes > 0)
        {
            return Err("peer_quota_interval_ms must be positive when quotas are set".into());
        }
        Ok(())
    }

    /// Convenience constructor overriding the `{K, H, L}` watermarks.
    pub fn with_watermarks(k: usize, h: usize, l: usize) -> Self {
        Settings {
            k,
            h,
            l,
            ..Settings::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_configuration() {
        let s = Settings::default();
        assert_eq!((s.k, s.h, s.l), (10, 9, 3));
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_watermarks() {
        assert!(Settings::with_watermarks(10, 11, 3).validate().is_err());
        assert!(Settings::with_watermarks(10, 9, 0).validate().is_err());
        assert!(Settings::with_watermarks(10, 3, 9).validate().is_err());
        assert!(Settings::with_watermarks(0, 0, 0).validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_fd_fraction() {
        let s = Settings {
            fd_fail_fraction: 1.5,
            ..Settings::default()
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_threads() {
        let s = Settings {
            threads: 0,
            ..Settings::default()
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_zero_kv_shards() {
        for kv_shards in [0, 2] {
            let s = Settings {
                kv_shards,
                ..Settings::default()
            };
            let err = s.validate().unwrap_err();
            assert!(err.contains("kv_shards"), "diagnostic names the knob: {err}");
        }
    }

    #[test]
    fn watermark_constructor() {
        let s = Settings::with_watermarks(8, 7, 2);
        assert_eq!((s.k, s.h, s.l), (8, 7, 2));
        assert!(s.validate().is_ok());
    }
}
