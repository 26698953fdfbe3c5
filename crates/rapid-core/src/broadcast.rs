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
//!
//! # One gossip item per subject
//!
//! Gossip carries a subject's alerts as one [`GossipItem`] whose ring mask
//! is the set of rings alerted so far, and the relay queue holds one
//! `(item, remaining rounds)` entry per subject. The node passes an item
//! on only when it brings rings the node had not heard (the cut detector's
//! per-subject mask is the dedup gate). The entry then takes the OR of
//! both masks, and its budget is reset to `retransmit_rounds`: a subject is
//! relayed for `retransmit_rounds` rounds after the round in which its
//! mask last gained a ring.
//!
//! This delivers every alert at least as often as relaying each alert on
//! its own for `retransmit_rounds` transmissions from its arrival would.
//! A budget counts the rounds in which its entry is sent (an entry past a
//! message's worth waits with its budget intact). Take any ring `r` a
//! node hears first in round `t`: its subject's entry then holds `r` with
//! a budget of exactly `retransmit_rounds`. From `t` on the entry's mask
//! only grows, so `r` stays in it, and the budget only falls by one per
//! round in which the entry, `r` included, is sent to `gossip_fanout`
//! random peers, or is reset to `retransmit_rounds` when a later ring
//! arrives. So `r` is sent in at least `retransmit_rounds` rounds, as its
//! own alert was, and often more: later rings extend earlier ones.
//!
//! On receipt, an entry adopts the received item itself when that item
//! covers the queued one (so relays forward the decoder's allocation), and
//! a merged item is allocated only when each side has a ring the other
//! lacks.

use std::sync::Arc;

use crate::alert::{Alert, GossipItem};
use crate::config::{ConfigId, Configuration};
use crate::id::{Endpoint, NodeId};
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

/// Maximum items carried by a single gossip message.
const MAX_ITEMS_PER_MESSAGE: usize = 2048;

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
    /// Gossip relay queue: one `(item, remaining transmissions)` per
    /// subject, sorted by subject id (the order items are sent in). The
    /// item is the allocation its originator or the decoder made, shared
    /// with every batch that carries it, until a merge needs a new one.
    relay: Vec<(Arc<GossipItem>, u32)>,
    /// Alerts queued since the last flush (unicast mode).
    outbox: Vec<Alert>,
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
            relay: Vec::new(),
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
    /// (alerts are scoped to one configuration). The relay queue is
    /// released rather than cleared: it grows to a view change's subject
    /// count, which the next configuration seldom needs again.
    pub fn set_view(&mut self, config: &Arc<Configuration>, self_addr: &Endpoint) {
        self.self_rank = config.rank_of_addr(self_addr).unwrap_or(config.len());
        self.config = Arc::clone(config);
        self.config_id = config.id();
        self.config_seq = config.seq();
        self.relay = Vec::new();
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

    /// Queues the alerts `observer` (this node) originates about one
    /// subject: in gossip mode as one item, in unicast mode as one
    /// [`Alert`] per ring. The caller passes only rings it had not heard.
    pub fn originate(&mut self, observer: NodeId, item: GossipItem) {
        match self.mode {
            BroadcastMode::Gossip => self.relay(&Arc::new(item)),
            BroadcastMode::UnicastAll => {
                let mut rings = item.rings;
                while rings != 0 {
                    let ring = rings.trailing_zeros() as u8;
                    rings &= rings - 1;
                    self.outbox.push(Alert {
                        observer,
                        subject_id: item.subject_id,
                        subject_addr: item.subject_addr,
                        status: item.status,
                        config_id: self.config_id,
                        ring,
                        metadata: item.metadata.clone(),
                    });
                }
            }
        }
    }

    /// Merges a gossip item into its subject's relay entry. If the item
    /// adds a ring (or the subject has no entry) the entry's budget is
    /// reset to `retransmit_rounds`; otherwise nothing changes.
    pub fn relay(&mut self, item: &Arc<GossipItem>) {
        let rounds = self.retransmit_rounds;
        match self
            .relay
            .binary_search_by(|(queued, _)| queued.subject_id.cmp(&item.subject_id))
        {
            Err(at) => self.relay.insert(at, (Arc::clone(item), rounds)),
            Ok(at) => {
                let (queued, remaining) = &mut self.relay[at];
                if item.rings & !queued.rings == 0 {
                    return;
                }
                *queued = if item.covers(queued) {
                    Arc::clone(item)
                } else {
                    Arc::new(queued.merged(item))
                };
                *remaining = rounds;
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
                let alerts: Arc<[Alert]> = self.outbox.drain(..).collect();
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
                // Send up to a message worth of items in subject order,
                // decrement their budgets, and drop exhausted ones.
                let sent = self.relay.len().min(MAX_ITEMS_PER_MESSAGE);
                if sent == 0 && votes.is_empty() {
                    return; // Quiescent: nothing to gossip.
                }
                let items: Arc<[Arc<GossipItem>]> = self
                    .relay
                    .iter_mut()
                    .take(sent)
                    .map(|(item, remaining)| {
                        *remaining -= 1;
                        Arc::clone(item)
                    })
                    .collect();
                self.relay.retain(|&(_, remaining)| remaining > 0);
                let votes: Arc<[VoteState]> = votes.to_vec().into();
                let fanout = self.fanout.min(peer_count);
                let picks = self.rng.choose_indices(peer_count, fanout);
                for i in picks {
                    out.push(
                        self.peer_at(i),
                        Message::Gossip {
                            config_id: self.config_id,
                            config_seq: self.config_seq,
                            items: Arc::clone(&items),
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
    use crate::alert::EdgeStatus;
    use crate::config::Member;
    use crate::metadata::Metadata;

    fn config(n: u128) -> std::sync::Arc<Configuration> {
        Configuration::bootstrap(
            (1..=n)
                .map(|i| Member::new(NodeId::from_u128(i), Endpoint::new(format!("n{i}"), 1)))
                .collect(),
        )
    }

    fn item(subject: u128, rings: u64) -> GossipItem {
        GossipItem {
            subject_id: NodeId::from_u128(subject),
            subject_addr: Endpoint::new(format!("n{subject}"), 1),
            status: EdgeStatus::Down,
            rings,
            metadata: Metadata::new(),
        }
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

    fn gossip(n: u128) -> Disseminator {
        let mut d = Disseminator::new(&settings(true), 1);
        d.set_view(&config(n), &Endpoint::new("n1", 1));
        d
    }

    /// The relay entry of `subject`.
    fn entry(d: &Disseminator, subject: u128) -> &(Arc<GossipItem>, u32) {
        let id = NodeId::from_u128(subject);
        d.relay.iter().find(|(i, _)| i.subject_id == id).expect("queued")
    }

    /// The items `d` relays in its next gossip round (at `now`).
    fn round_items(d: &mut Disseminator, now: u64) -> Vec<Arc<GossipItem>> {
        match tick_drain(d, now, &[]).first() {
            Some((_, Message::Gossip { items, .. })) => items.to_vec(),
            Some((_, other)) => panic!("expected Gossip, got {}", other.kind()),
            None => Vec::new(),
        }
    }

    #[test]
    fn unicast_sends_one_alert_per_ring_to_all_peers() {
        let cfg = config(5);
        let mut d = Disseminator::new(&settings(false), 1);
        d.set_view(&cfg, &Endpoint::new("n1", 1));
        d.originate(NodeId::from_u128(1), item(2, 0b101));
        let out = tick_drain(&mut d, 0, &[]);
        assert_eq!(out.len(), 4, "one batch per peer");
        match &out[0].1 {
            Message::AlertBatch { config_id, alerts } => {
                assert_eq!(*config_id, cfg.id());
                let rings: Vec<u8> = alerts.iter().map(|a| a.ring).collect();
                assert_eq!(rings, vec![0, 2]);
                assert!(alerts.iter().all(|a| a.observer == NodeId::from_u128(1)
                    && a.config_id == cfg.id()));
            }
            other => panic!("expected AlertBatch, got {}", other.kind()),
        }
        let out = tick_drain(&mut d, 100, &[]);
        assert!(out.is_empty(), "outbox drained");
    }

    #[test]
    fn gossip_respects_interval_and_fanout() {
        let mut d = gossip(10);
        d.originate(NodeId::from_u128(1), item(2, 1));
        let out = tick_drain(&mut d, 0, &[]);
        assert_eq!(out.len(), 3, "fanout peers");
        let out = tick_drain(&mut d, 50, &[]);
        assert!(out.is_empty(), "interval not yet elapsed");
        let out = tick_drain(&mut d, 100, &[]);
        assert_eq!(out.len(), 3, "next round due");
    }

    #[test]
    fn gossip_quiescent_sends_nothing() {
        let mut d = gossip(10);
        let out = tick_drain(&mut d, 0, &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn gossip_items_expire_after_budget() {
        let mut d = gossip(4); // retransmit_rounds = ceil(log2(4)) = 2
        d.originate(NodeId::from_u128(1), item(2, 1));
        let rounds_with_items = (0..10u64)
            .filter(|t| !round_items(&mut d, t * 100).is_empty())
            .count();
        assert_eq!(rounds_with_items, 2, "budget of log2(n) rounds");
    }

    #[test]
    fn one_entry_per_subject_carries_the_or_of_its_masks() {
        let mut d = gossip(8);
        d.relay(&Arc::new(item(3, 0b0001)));
        d.relay(&Arc::new(item(3, 0b0100)));
        d.relay(&Arc::new(item(4, 0b0010)));
        let sent = round_items(&mut d, 0);
        let got: Vec<(u128, u64)> =
            sent.iter().map(|i| (i.subject_id.as_u128(), i.rings)).collect();
        assert_eq!(got, vec![(3, 0b0101), (4, 0b0010)]);
    }

    #[test]
    fn relayed_item_is_the_received_allocation_when_it_covers_the_local_mask() {
        // A relay forwards the item it received, not a copy of it: the
        // queue and every batch it sends point at one allocation, also
        // when the received item replaces a smaller queued one.
        let mut d = gossip(8);
        d.relay(&Arc::new(item(3, 0b0001)));
        let received = Arc::new(item(3, 0b0011));
        d.relay(&received);
        let out = tick_drain(&mut d, 0, &[]);
        assert_eq!(out.len(), 3, "fanout peers");
        for (_, m) in &out {
            match m {
                Message::Gossip { items, .. } => {
                    assert_eq!(items.len(), 1);
                    assert!(Arc::ptr_eq(&items[0], &received), "relayed a copy");
                }
                other => panic!("expected Gossip, got {}", other.kind()),
            }
        }
    }

    #[test]
    fn a_merge_allocates_only_when_both_sides_add_a_ring() {
        let mut d = gossip(8);
        let queued = Arc::new(item(3, 0b0011));
        d.relay(&queued);
        // Covered by the queued item: nothing changes.
        d.relay(&Arc::new(item(3, 0b0001)));
        assert!(Arc::ptr_eq(&entry(&d, 3).0, &queued));
        // Each side has a ring the other lacks: a merged item.
        let other = Arc::new(item(3, 0b0100));
        d.relay(&other);
        let merged = &entry(&d, 3).0;
        assert!(!Arc::ptr_eq(merged, &queued) && !Arc::ptr_eq(merged, &other));
        assert_eq!(merged.rings, 0b0111);
    }

    #[test]
    fn a_mask_gaining_a_ring_gets_a_fresh_relay_budget() {
        let mut d = gossip(4); // two transmissions per budget
        d.relay(&Arc::new(item(3, 0b01)));
        assert_eq!(round_items(&mut d, 0).len(), 1);
        assert_eq!(entry(&d, 3).1, 1, "one transmission left");
        // A covered item changes nothing; a new ring resets the budget.
        d.relay(&Arc::new(item(3, 0b01)));
        assert_eq!(entry(&d, 3).1, 1);
        d.relay(&Arc::new(item(3, 0b10)));
        assert_eq!(entry(&d, 3).1, 2);
        let rings: Vec<u64> = (1..5u64)
            .map(|t| round_items(&mut d, t * 100).iter().map(|i| i.rings).sum())
            .collect();
        assert_eq!(rings, vec![0b11, 0b11, 0, 0], "both rings ride two more rounds");
    }

    #[test]
    fn originated_item_is_the_queued_one() {
        let mut d = gossip(8);
        d.originate(NodeId::from_u128(1), item(2, 0b10));
        let sent = round_items(&mut d, 0);
        assert_eq!(*sent[0], item(2, 0b10));
    }

    #[test]
    fn rotation_past_one_message_keeps_subject_order() {
        // Two subjects more than a message carries, two transmissions
        // each (n = 4): each round sends the first MAX_ITEMS_PER_MESSAGE
        // entries in subject order, and the rest wait for those to expire.
        assert_eq!(MAX_ITEMS_PER_MESSAGE, 2048, "the sequences below assume it");
        let mut d = gossip(4);
        for s in 0..2050 {
            d.relay(&Arc::new(item(s, 1)));
        }
        let subjects = |items: Vec<Arc<GossipItem>>| -> Vec<u128> {
            items.iter().map(|i| i.subject_id.as_u128()).collect()
        };
        assert_eq!(subjects(round_items(&mut d, 0)), (0..2048).collect::<Vec<_>>());
        assert_eq!(subjects(round_items(&mut d, 100)), (0..2048).collect::<Vec<_>>());
        assert_eq!(subjects(round_items(&mut d, 200)), vec![2048, 2049]);
        assert_eq!(subjects(round_items(&mut d, 300)), vec![2048, 2049]);
        assert!(round_items(&mut d, 400).is_empty());
    }

    #[test]
    fn set_view_releases_the_relay_queue() {
        let cfg = config(8);
        let me = Endpoint::new("n1", 1);
        let mut d = gossip(8);
        for s in 0..100 {
            d.relay(&Arc::new(item(s, 1)));
        }
        d.set_view(&cfg, &me);
        assert_eq!(d.relay.capacity(), 0, "released, not cleared");
        assert!(round_items(&mut d, 0).is_empty());
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
