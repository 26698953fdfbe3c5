//! Alert and vote dissemination (paper §4.3, §6).
//!
//! Two pluggable modes:
//!
//! * **Unicast-to-all** — the sender transmits each alert batch directly to
//!   every member (what the paper's Java implementation does for alerts by
//!   default). Simple, one hop, `O(n)` messages per broadcast.
//! * **Epidemic gossip** — alert items are relayed for `O(log n)` rounds to
//!   a random fan-out of peers, and fast-path vote bitmaps are piggybacked
//!   and *aggregated* along the way ("The counting protocol itself uses
//!   gossip to disseminate and aggregate a bitmap of votes for each unique
//!   proposal", §4.3). Robust to loss and cheap at large N.
//!
//! Alerts are batched per tick in both modes (§6: "Rapid batches multiple
//! alerts into a single message").

use std::collections::VecDeque;
use std::sync::Arc;

use crate::alert::Alert;
use crate::config::{ConfigId, Configuration};
use crate::hash::DetHashSet;
use crate::id::Endpoint;
use crate::outbox::Outbox;
use crate::paxos::VoteState;
use crate::rng::Xoshiro256;
use crate::settings::Settings;
use crate::wire::Message;

/// Dissemination strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastMode {
    /// Send each batch directly to every member.
    UnicastAll,
    /// Epidemic gossip with vote-bitmap aggregation.
    Gossip,
}

/// Maximum alert items carried by a single gossip message.
const MAX_ALERTS_PER_MESSAGE: usize = 2048;

/// The dissemination component owned by each node.
///
/// Peers are addressed by *rank* into the shared [`Configuration`] rather
/// than through a materialised `Vec<Endpoint>`: installing a view is O(1)
/// and each fan-out resolves endpoints straight from the configuration the
/// node already holds.
pub struct Disseminator {
    mode: BroadcastMode,
    fanout: usize,
    interval_ms: u64,
    retransmit_factor: f64,
    /// The current configuration (shared with the owning node).
    config: Arc<Configuration>,
    /// This node's rank in `config`, or `config.len()` when not a member.
    self_rank: usize,
    config_id: ConfigId,
    config_seq: u64,
    rng: Xoshiro256,
    /// Dedup filter over alert item keys for the current configuration.
    /// It is the gate of every queue: an alert enters `buffer` or
    /// `outbox` only on the first insert of its key here, and `set_view`
    /// resets `seen` and both queues together, so neither queue ever
    /// holds two alerts with the same key.
    seen: DetHashSet<u64>,
    /// Gossip relay buffer: `(alert, remaining transmissions)`, in queue
    /// order. The alert is the allocation its originator or the decoder
    /// made, shared with every batch that carries it, so a relay holds a
    /// pointer rather than a copy.
    buffer: VecDeque<(Arc<Alert>, u32)>,
    /// Alerts queued since the last flush (unicast mode).
    outbox: Vec<Arc<Alert>>,
    next_gossip_at: u64,
    retransmit_rounds: u32,
}

impl Disseminator {
    /// Creates a disseminator from the node settings.
    pub fn new(settings: &Settings, rng_seed: u64) -> Self {
        Disseminator {
            mode: if settings.use_gossip_broadcast {
                BroadcastMode::Gossip
            } else {
                BroadcastMode::UnicastAll
            },
            fanout: settings.gossip_fanout,
            interval_ms: settings.gossip_interval_ms,
            retransmit_factor: settings.gossip_retransmit_factor,
            config: Configuration::bootstrap(Vec::new()),
            self_rank: 0,
            config_id: ConfigId::NONE,
            config_seq: 0,
            rng: Xoshiro256::seed_from_u64(rng_seed),
            seen: DetHashSet::default(),
            buffer: VecDeque::new(),
            outbox: Vec::new(),
            next_gossip_at: 0,
            retransmit_rounds: 1,
        }
    }

    /// The active mode.
    pub fn mode(&self) -> BroadcastMode {
        self.mode
    }

    /// Installs a new configuration; all dissemination state is reset
    /// (alerts are scoped to one configuration). The relay buffer and
    /// the dedup set are released rather than cleared: they grow to a
    /// view change's alert count, which the next configuration seldom
    /// needs again.
    pub fn set_view(&mut self, config: &Arc<Configuration>, self_addr: &Endpoint) {
        self.self_rank = config.rank_of_addr(self_addr).unwrap_or(config.len());
        self.config = Arc::clone(config);
        self.config_id = config.id();
        self.config_seq = config.seq();
        self.seen = DetHashSet::default();
        self.buffer = VecDeque::new();
        self.outbox.clear();
        let n = config.len().max(2);
        self.retransmit_rounds =
            ((self.retransmit_factor * (n as f64).log2()).ceil() as u32).max(1);
    }

    /// Number of peers (members of the current view other than this node).
    pub fn peer_count(&self) -> usize {
        let n = self.config.len();
        if self.self_rank < n { n - 1 } else { n }
    }

    /// The `i`-th peer in rank order, skipping this node.
    fn peer_at(&self, i: usize) -> Endpoint {
        let rank = if i >= self.self_rank { i + 1 } else { i };
        self.config.member_at(rank).addr
    }

    /// Queues a locally originated alert for dissemination. Returns the
    /// queued alert, now shared with the queue, or `None` if the alert was
    /// already seen (and is therefore not re-queued).
    pub fn queue_alert(&mut self, alert: Alert) -> Option<Arc<Alert>> {
        if !self.seen.insert(alert.dedup_key()) {
            return None;
        }
        let alert = Arc::new(alert);
        match self.mode {
            BroadcastMode::UnicastAll => self.outbox.push(Arc::clone(&alert)),
            BroadcastMode::Gossip => self
                .buffer
                .push_back((Arc::clone(&alert), self.retransmit_rounds)),
        }
        Some(alert)
    }

    /// Filters received alerts to fresh ones (never seen before), marking
    /// them seen and scheduling them for relay in gossip mode. The index
    /// of each fresh alert is pushed into `fresh` (cleared first), so the
    /// caller applies fresh alerts straight from the received batch
    /// without cloning them.
    pub fn ingest_alerts(&mut self, alerts: &[Arc<Alert>], fresh: &mut Vec<u32>) {
        fresh.clear();
        for (i, a) in alerts.iter().enumerate() {
            if a.config_id != self.config_id {
                continue;
            }
            if self.seen.insert(a.dedup_key()) {
                if self.mode == BroadcastMode::Gossip {
                    self.buffer
                        .push_back((Arc::clone(a), self.retransmit_rounds));
                }
                fresh.push(i as u32);
            }
        }
    }

    /// Flushes queued alerts and (in gossip mode) runs one gossip round if
    /// due, piggybacking the supplied vote states. Messages go through the
    /// node's per-peer outbox, so a fan-out coalesces with anything else
    /// the node sends the same event.
    pub fn tick(&mut self, now: u64, votes: &[VoteState], out: &mut Outbox<Message>) {
        match self.mode {
            BroadcastMode::UnicastAll => {
                if self.outbox.is_empty() {
                    return;
                }
                // The queue holds the only reference by now (the node has
                // applied its alerts), so each alert moves into the batch.
                let alerts: Arc<[Alert]> =
                    self.outbox.drain(..).map(Arc::unwrap_or_clone).collect();
                for i in 0..self.peer_count() {
                    out.push(
                        self.peer_at(i),
                        Message::AlertBatch {
                            config_id: self.config_id,
                            alerts: Arc::clone(&alerts),
                        },
                    );
                }
            }
            BroadcastMode::Gossip => {
                let peer_count = self.peer_count();
                if now < self.next_gossip_at || peer_count == 0 {
                    return;
                }
                self.next_gossip_at = now + self.interval_ms;
                // Send up to a message worth of items from the front of the
                // queue, decrement their budgets, and drop exhausted ones;
                // the rest keep their place.
                let sent = self.buffer.len().min(MAX_ALERTS_PER_MESSAGE);
                if sent == 0 && votes.is_empty() {
                    return; // Quiescent: nothing to gossip.
                }
                let alerts: Arc<[Arc<Alert>]> = self
                    .buffer
                    .iter_mut()
                    .take(sent)
                    .map(|(alert, remaining)| {
                        *remaining -= 1;
                        Arc::clone(alert)
                    })
                    .collect();
                self.buffer.retain(|&(_, remaining)| remaining > 0);
                let votes: Arc<[VoteState]> = votes.to_vec().into();
                let fanout = self.fanout.min(peer_count);
                let picks = self.rng.choose_indices(peer_count, fanout);
                for i in picks {
                    out.push(
                        self.peer_at(i),
                        Message::Gossip {
                            config_id: self.config_id,
                            config_seq: self.config_seq,
                            alerts: Arc::clone(&alerts),
                            votes: Arc::clone(&votes),
                        },
                    );
                }
            }
        }
    }

    /// Picks `count` random peers (for vote unicast, body requests, etc.).
    pub fn random_peers(&mut self, count: usize) -> Vec<Endpoint> {
        let picks = self.rng.choose_indices(self.peer_count(), count);
        picks.into_iter().map(|i| self.peer_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Member;
    use crate::id::NodeId;

    fn config(n: u128) -> std::sync::Arc<Configuration> {
        Configuration::bootstrap(
            (1..=n)
                .map(|i| Member::new(NodeId::from_u128(i), Endpoint::new(format!("n{i}"), 1)))
                .collect(),
        )
    }

    fn alert(cfg: &Configuration, observer: u128, subject: u128, ring: u8) -> Alert {
        Alert::remove(
            NodeId::from_u128(observer),
            NodeId::from_u128(subject),
            Endpoint::new(format!("n{subject}"), 1),
            cfg.id(),
            ring,
        )
    }

    /// Ticks the disseminator through a fresh unbatched outbox,
    /// returning the emitted `(destination, message)` pairs in push order.
    fn tick_drain(d: &mut Disseminator, now: u64, votes: &[VoteState]) -> Vec<(Endpoint, Message)> {
        let mut ob = Outbox::new(false);
        d.tick(now, votes, &mut ob);
        let mut out = Vec::new();
        ob.flush(|to, m| out.push((to, m)));
        out
    }

    fn settings(gossip: bool) -> Settings {
        Settings {
            use_gossip_broadcast: gossip,
            gossip_fanout: 3,
            gossip_interval_ms: 100,
            ..Settings::default()
        }
    }

    #[test]
    fn unicast_sends_batch_to_all_peers() {
        let cfg = config(5);
        let mut d = Disseminator::new(&settings(false), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        assert!(d.queue_alert(alert(&cfg, 1, 2, 0)).is_some());
        assert!(d.queue_alert(alert(&cfg, 1, 2, 1)).is_some());
        let out = tick_drain(&mut d, 0, &[]);
        assert_eq!(out.len(), 4, "one batch per peer");
        match &out[0].1 {
            Message::AlertBatch { alerts, .. } => assert_eq!(alerts.len(), 2),
            other => panic!("expected AlertBatch, got {}", other.kind()),
        }
        let out = tick_drain(&mut d, 100, &[]);
        assert!(out.is_empty(), "outbox drained");
    }

    #[test]
    fn duplicate_alerts_not_requeued() {
        let cfg = config(3);
        let mut d = Disseminator::new(&settings(false), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        assert!(d.queue_alert(alert(&cfg, 1, 2, 0)).is_some());
        assert!(d.queue_alert(alert(&cfg, 1, 2, 0)).is_none());
    }

    #[test]
    fn gossip_respects_interval_and_fanout() {
        let cfg = config(10);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        d.queue_alert(alert(&cfg, 1, 2, 0));
        let out = tick_drain(&mut d, 0, &[]);
        assert_eq!(out.len(), 3, "fanout peers");
        let out = tick_drain(&mut d, 50, &[]);
        assert!(out.is_empty(), "interval not yet elapsed");
        let out = tick_drain(&mut d, 100, &[]);
        assert_eq!(out.len(), 3, "next round due");
    }

    #[test]
    fn gossip_quiescent_sends_nothing() {
        let cfg = config(10);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let out = tick_drain(&mut d, 0, &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn gossip_items_expire_after_budget() {
        let cfg = config(4); // retransmit_rounds = ceil(log2(4)) = 2
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        d.queue_alert(alert(&cfg, 1, 2, 0));
        let mut rounds_with_items = 0;
        for t in 0..10u64 {
            let out = tick_drain(&mut d, t * 100, &[]);
            if out
                .iter()
                .any(|(_, m)| matches!(m, Message::Gossip { alerts, .. } if !alerts.is_empty()))
            {
                rounds_with_items += 1;
            }
        }
        assert_eq!(rounds_with_items, 2, "budget of log2(n) rounds");
    }

    #[test]
    fn ingest_filters_fresh_and_requeues_for_relay() {
        let cfg = config(8);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let a = Arc::new(alert(&cfg, 1, 2, 0));
        let mut fresh = Vec::new();
        d.ingest_alerts(&[Arc::clone(&a), Arc::clone(&a)], &mut fresh);
        assert_eq!(fresh, vec![0], "first copy fresh, duplicate filtered");
        d.ingest_alerts(std::slice::from_ref(&a), &mut fresh);
        assert!(fresh.is_empty());
        // The fresh item is relayed on the next round.
        let out = tick_drain(&mut d, 0, &[]);
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, Message::Gossip { alerts, .. } if alerts.len() == 1)));
    }

    #[test]
    fn relayed_alerts_share_the_received_allocation() {
        // A relay forwards the alert it received, not a copy of it: the
        // queue and every batch it sends point at one allocation.
        let cfg = config(8);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let received: Arc<[Arc<Alert>]> = vec![
            Arc::new(alert(&cfg, 2, 3, 0)),
            Arc::new(alert(&cfg, 2, 3, 1)),
        ]
        .into();
        let mut fresh = Vec::new();
        d.ingest_alerts(&received, &mut fresh);
        assert_eq!(fresh, vec![0, 1]);
        let out = tick_drain(&mut d, 0, &[]);
        assert_eq!(out.len(), 3, "fanout peers");
        for (_, m) in &out {
            match m {
                Message::Gossip { alerts, .. } => {
                    assert_eq!(alerts.len(), 2);
                    for (sent, got) in alerts.iter().zip(received.iter()) {
                        assert!(Arc::ptr_eq(sent, got), "relayed a copy, not the alert");
                    }
                }
                other => panic!("expected Gossip, got {}", other.kind()),
            }
        }
    }

    #[test]
    fn originated_alert_is_the_queued_one() {
        let cfg = config(8);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let queued = d.queue_alert(alert(&cfg, 1, 2, 0)).expect("fresh");
        match &tick_drain(&mut d, 0, &[])[0].1 {
            Message::Gossip { alerts, .. } => assert!(Arc::ptr_eq(&alerts[0], &queued)),
            other => panic!("expected Gossip, got {}", other.kind()),
        }
    }

    #[test]
    fn ingest_rejects_other_configurations() {
        let cfg = config(8);
        let other = config(9);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let a = Arc::new(alert(&other, 1, 2, 0));
        let mut fresh = Vec::new();
        d.ingest_alerts(&[a], &mut fresh);
        assert!(fresh.is_empty());
    }

    #[test]
    fn relay_buffer_never_holds_duplicate_keys() {
        // Two alerts with the same dedup identity must never coexist in
        // the retransmit queue, whatever mix of entry points queued them.
        let cfg = config(8);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let a = alert(&cfg, 1, 2, 0);
        assert!(d.queue_alert(a.clone()).is_some());
        let mut fresh = Vec::new();
        d.ingest_alerts(&[Arc::new(a.clone())], &mut fresh);
        assert!(fresh.is_empty());
        // Count items carried by the first gossip round: exactly one copy.
        let out = tick_drain(&mut d, 0, &[]);
        match &out[0].1 {
            Message::Gossip { alerts, .. } => {
                assert_eq!(alerts.len(), 1, "one in-flight copy, not two")
            }
            other => panic!("expected Gossip, got {}", other.kind()),
        }
        // Only a fresh view (which resets dedup) may enqueue it again.
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        assert!(d.queue_alert(a).is_some(), "fresh after view reset");
    }

    /// Subjects of the alerts `d` relays in its next gossip round (at
    /// `now`), in batch order.
    fn round_subjects(d: &mut Disseminator, now: u64) -> Vec<u128> {
        match tick_drain(d, now, &[]).first() {
            Some((_, Message::Gossip { alerts, .. })) => {
                alerts.iter().map(|a| a.subject_id.as_u128()).collect()
            }
            Some((_, other)) => panic!("expected Gossip, got {}", other.kind()),
            None => Vec::new(),
        }
    }

    /// `(subject, remaining transmissions)` of every queued relay item.
    fn relay_queue(d: &Disseminator) -> Vec<(u128, u32)> {
        d.buffer
            .iter()
            .map(|(a, r)| (a.subject_id.as_u128(), *r))
            .collect()
    }

    #[test]
    fn rotation_past_one_message_keeps_the_two_deque_order() {
        // Two items more than a message carries, two transmissions each
        // (n = 4). The sequences below are what the rotation through a
        // second deque produced: each round sends the first
        // MAX_ALERTS_PER_MESSAGE items in queue order, and every item
        // keeps its place in the queue (sent ones with one transmission
        // fewer, expired ones dropped).
        assert_eq!(MAX_ALERTS_PER_MESSAGE, 2048, "the sequences below assume it");
        let cfg = config(4);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        for s in 0..2050 {
            assert!(d.queue_alert(alert(&cfg, 1, s, 0)).is_some());
        }

        assert_eq!(round_subjects(&mut d, 0), (0..2048).collect::<Vec<_>>());
        let after_one: Vec<(u128, u32)> = (0..2048)
            .map(|s| (s, 1))
            .chain([(2048, 2), (2049, 2)])
            .collect();
        assert_eq!(relay_queue(&d), after_one);

        // Items queued between rounds go behind the rotated ones.
        assert!(d.queue_alert(alert(&cfg, 1, 2050, 0)).is_some());
        assert_eq!(round_subjects(&mut d, 100), (0..2048).collect::<Vec<_>>());
        assert_eq!(relay_queue(&d), vec![(2048, 2), (2049, 2), (2050, 2)]);

        assert_eq!(round_subjects(&mut d, 200), vec![2048, 2049, 2050]);
        assert_eq!(relay_queue(&d), vec![(2048, 1), (2049, 1), (2050, 1)]);
        assert_eq!(round_subjects(&mut d, 300), vec![2048, 2049, 2050]);
        assert!(relay_queue(&d).is_empty());
        assert!(round_subjects(&mut d, 400).is_empty());
    }

    #[test]
    fn set_view_releases_the_relay_state() {
        let cfg = config(8);
        let me = Endpoint::new("n1", 1);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &me);
        for s in 0..100 {
            d.queue_alert(alert(&cfg, 1, s, 0));
        }
        let _ = tick_drain(&mut d, 0, &[]);
        assert!(d.buffer.capacity() > 0 && d.seen.capacity() > 0);
        d.set_view(&cfg, &me);
        assert_eq!(d.buffer.capacity(), 0);
        assert_eq!(d.seen.capacity(), 0);
    }

    #[test]
    fn set_view_resets_dedup() {
        let cfg = config(4);
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        let a = alert(&cfg, 1, 2, 0);
        assert!(d.queue_alert(a.clone()).is_some());
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        assert!(d.queue_alert(a).is_some(), "fresh after reset");
    }

    #[test]
    fn random_peers_excludes_self_and_bounds() {
        let cfg = config(5);
        let mut d = Disseminator::new(&settings(true), 1);
        let me = Endpoint::new("n1", 1);
        d.set_view(&cfg, &me);
        let peers = d.random_peers(10);
        assert_eq!(peers.len(), 4);
        assert!(!peers.contains(&me));
    }
}
