//! Per-peer coalescing outbox: one wire frame per (peer, flush).
//!
//! Rapid's own design leans on aggregation — alerts are batched into
//! consensus proposals so traffic stays flat under churn (§4.2) — but a
//! naive host still emits one wire frame per logical message. The
//! [`Outbox`] closes that gap at the transport boundary: every protocol
//! layer pushes logical messages into it, and each flush emits **at most
//! one frame per destination**, wrapping multi-message runs in a batch
//! frame ([`crate::wire::Message::Batch`] for the membership plane; data
//! planes provide their own wrapper via [`BatchMessage`]).
//!
//! Ordering guarantees:
//!
//! * **Per-peer FIFO** — messages to one destination are flushed in push
//!   order, inside one frame, and the receiver unpacks them in order.
//!   Batching never reorders messages within a peer pair.
//! * **Deterministic flush order** — frames are emitted in first-touch
//!   order of their destinations (the order buffers were opened), which
//!   is itself a pure function of push order. Simulated traces stay
//!   bit-identical across runs.
//!
//! `Outbox::new(false)` degrades to a flat FIFO: every push is flushed
//! as its own frame in global push order. No host can select it — every
//! node, client and agent constructs `Outbox::new(true)`; the flat mode
//! is what the `fd.rs` / `broadcast.rs` unit tests drain through.
//!
//! Per-peer buffers are recycled across flushes (no steady-state
//! allocation for singleton flushes, per the zero-clone discipline of the
//! hot-path work in `docs/PERF.md`).

use crate::hash::DetHashMap;
use crate::id::Endpoint;

/// A message type that can wrap several of itself into one batch frame.
pub trait BatchMessage: Sized {
    /// Wraps `msgs` (always `len >= 2`) into a single batch message.
    fn batch(msgs: Vec<Self>) -> Self;

    /// Encoded size of this message, used to split oversized flush runs
    /// across several frames (see [`MAX_FRAME_BATCH_BYTES`]).
    fn encoded_size(&self) -> usize;
}

impl BatchMessage for crate::wire::Message {
    fn batch(msgs: Vec<Self>) -> Self {
        crate::wire::Message::Batch { msgs }
    }

    fn encoded_size(&self) -> usize {
        crate::wire::encoded_len(self)
    }
}

/// Soft byte ceiling of one emitted batch frame. A lane whose messages
/// would encode past this is split into several frames (order
/// preserved), so a flush can never assemble a frame the receiving side
/// refuses: it stays far below both the TCP transport's 32 MiB frame cap
/// and the decoder's [`crate::codec::MAX_BATCH_BYTES`]. A single message
/// larger than this still goes out alone — exactly what the unbatched
/// path would have done with it.
pub const MAX_FRAME_BATCH_BYTES: usize = 4 * 1024 * 1024;

/// Most recycled lane buffers an outbox keeps: above a node's steady
/// lane count per flush (gossip fan-out plus probes and their acks), so
/// steady flushes still allocate nothing, while a flush to every member
/// (unicast broadcast) does not leave one buffer per member behind.
const MAX_SPARE_LANES: usize = 64;

/// Cumulative traffic counters of one outbox.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutboxStats {
    /// Logical messages pushed.
    pub msgs: u64,
    /// Wire frames emitted by flushes (`<= msgs`; the gap is the
    /// coalescing win).
    pub frames: u64,
}

/// A per-destination coalescing send buffer.
pub struct Outbox<M> {
    enabled: bool,
    /// Disabled mode: plain FIFO, one frame per message.
    flat: Vec<(Endpoint, M)>,
    /// Enabled mode: destination -> index into `lanes`.
    index: DetHashMap<Endpoint, usize>,
    /// Per-destination buffers in first-touch order.
    lanes: Vec<(Endpoint, Vec<M>)>,
    /// Recycled lane buffers, at most [`MAX_SPARE_LANES`] (only
    /// singleton lanes return their buffer; a batched lane's buffer
    /// leaves inside the batch message).
    spare: Vec<Vec<M>>,
    stats: OutboxStats,
}

impl<M: BatchMessage> Outbox<M> {
    /// Creates an outbox; `enabled = false` degrades to an order-
    /// preserving flat FIFO (one frame per message).
    pub fn new(enabled: bool) -> Outbox<M> {
        Outbox {
            enabled,
            flat: Vec::new(),
            index: DetHashMap::default(),
            lanes: Vec::new(),
            spare: Vec::new(),
            stats: OutboxStats::default(),
        }
    }

    /// Whether coalescing is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Cumulative counters.
    pub fn stats(&self) -> OutboxStats {
        self.stats
    }

    /// Logical messages currently buffered.
    pub fn queued(&self) -> usize {
        if self.enabled {
            self.lanes.iter().map(|(_, l)| l.len()).sum()
        } else {
            self.flat.len()
        }
    }

    /// Queues one logical message for `to`.
    pub fn push(&mut self, to: Endpoint, msg: M) {
        self.stats.msgs += 1;
        if !self.enabled {
            self.flat.push((to, msg));
            return;
        }
        match self.index.get(&to) {
            Some(&i) => self.lanes[i].1.push(msg),
            None => {
                let mut lane = self.spare.pop().unwrap_or_default();
                lane.push(msg);
                self.index.insert(to, self.lanes.len());
                self.lanes.push((to, lane));
            }
        }
    }

    /// Emits one frame per buffered destination (or, disabled, one frame
    /// per message in push order) and clears the buffers. Returns the
    /// number of frames emitted.
    pub fn flush(&mut self, mut emit: impl FnMut(Endpoint, M)) -> usize {
        let mut frames = 0usize;
        if !self.enabled {
            frames = self.flat.len();
            for (to, msg) in self.flat.drain(..) {
                emit(to, msg);
            }
        } else {
            if self.lanes.is_empty() {
                return 0;
            }
            self.index.clear();
            for (to, mut lane) in self.lanes.drain(..) {
                if lane.len() == 1 {
                    // Singletons ride unwrapped: the common case keeps the
                    // pre-batching wire format and recycles its buffer.
                    frames += 1;
                    emit(to, lane.pop().expect("len checked"));
                    if self.spare.len() < MAX_SPARE_LANES {
                        self.spare.push(lane);
                    }
                } else {
                    frames += Self::emit_lane(to, lane, &mut emit);
                }
            }
        }
        self.stats.frames += frames as u64;
        frames
    }

    /// Emits one multi-message lane, splitting it into several batch
    /// frames wherever a single frame would exceed the byte ceiling or
    /// the decoder's per-batch message cap. Order within the lane is
    /// preserved across the split. Returns the number of frames emitted.
    fn emit_lane(to: Endpoint, lane: Vec<M>, emit: &mut impl FnMut(Endpoint, M)) -> usize {
        // The decoder refuses frames beyond this many messages (see
        // `codec::MAX_BATCH_MSGS`), and the batch count rides a u16 on the
        // membership wire — an honest sender must split first.
        const MAX_FRAME_MSGS: usize = crate::codec::MAX_BATCH_MSGS;
        let mut frames = 0usize;
        let mut run: Vec<M> = Vec::new();
        let mut run_bytes = 0usize;
        let mut flush_run = |run: &mut Vec<M>, frames: &mut usize| {
            match run.len() {
                0 => {}
                1 => {
                    *frames += 1;
                    emit(to, run.pop().expect("len checked"));
                }
                _ => {
                    *frames += 1;
                    emit(to, M::batch(std::mem::take(run)));
                }
            }
        };
        for msg in lane {
            let size = msg.encoded_size();
            if !run.is_empty()
                && (run.len() >= MAX_FRAME_MSGS || run_bytes + size > MAX_FRAME_BATCH_BYTES)
            {
                flush_run(&mut run, &mut frames);
                run_bytes = 0;
            }
            run_bytes += size;
            run.push(msg);
        }
        flush_run(&mut run, &mut frames);
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Message;

    fn ep(i: u16) -> Endpoint {
        Endpoint::new(format!("ob-{i}"), i)
    }

    fn flush_all(ob: &mut Outbox<Message>) -> Vec<(Endpoint, Message)> {
        let mut out = Vec::new();
        ob.flush(|to, m| out.push((to, m)));
        out
    }

    #[test]
    fn singletons_ride_unwrapped_and_runs_batch() {
        let mut ob = Outbox::new(true);
        ob.push(ep(1), Message::Probe { seq: 1 });
        ob.push(ep(2), Message::Probe { seq: 2 });
        ob.push(ep(1), Message::Probe { seq: 3 });
        let out = flush_all(&mut ob);
        assert_eq!(out.len(), 2, "one frame per destination");
        // First-touch order: ep(1) before ep(2).
        assert_eq!(out[0].0, ep(1));
        match &out[0].1 {
            Message::Batch { msgs } => {
                assert_eq!(msgs.len(), 2);
                assert!(matches!(msgs[0], Message::Probe { seq: 1 }));
                assert!(matches!(msgs[1], Message::Probe { seq: 3 }), "per-peer FIFO");
            }
            other => panic!("expected Batch, got {}", other.kind()),
        }
        assert!(
            matches!(out[1].1, Message::Probe { seq: 2 }),
            "singleton must not be wrapped"
        );
        let stats = ob.stats();
        assert_eq!((stats.msgs, stats.frames), (3, 2));
    }

    #[test]
    fn disabled_outbox_preserves_global_push_order() {
        let mut ob = Outbox::new(false);
        for seq in 0..6u64 {
            ob.push(ep((seq % 2) as u16), Message::Probe { seq });
        }
        let out = flush_all(&mut ob);
        assert_eq!(out.len(), 6, "one frame per message");
        for (seq, (to, msg)) in out.iter().enumerate() {
            assert_eq!(*to, ep((seq % 2) as u16));
            assert!(matches!(msg, Message::Probe { seq: s } if *s == seq as u64));
        }
        let stats = ob.stats();
        assert_eq!((stats.msgs, stats.frames), (6, 6));
    }

    #[test]
    fn oversized_lanes_split_at_the_message_cap_in_order() {
        // One event queueing more messages for a peer than a single
        // frame may carry must split into several decodable frames, in
        // order — not assemble one frame the receiver refuses.
        let mut ob = Outbox::new(true);
        let total = crate::codec::MAX_BATCH_MSGS + 10;
        for seq in 0..total as u64 {
            ob.push(ep(1), Message::Probe { seq });
        }
        let out = flush_all(&mut ob);
        assert_eq!(out.len(), 2, "one over-cap lane must split into two frames");
        let mut next = 0u64;
        for (_, frame) in &out {
            let Message::Batch { msgs } = frame else {
                panic!("expected Batch, got {}", frame.kind());
            };
            assert!(msgs.len() <= crate::codec::MAX_BATCH_MSGS);
            for m in msgs {
                assert!(
                    matches!(m, Message::Probe { seq } if *seq == next),
                    "order must survive the split"
                );
                next += 1;
            }
            // Every emitted frame must actually decode under default
            // limits (the point of splitting).
            assert!(
                crate::wire::decode(&crate::wire::encode_to_vec(frame)).is_ok(),
                "split frame must decode"
            );
        }
        assert_eq!(next, total as u64, "no message may be dropped");
        assert_eq!(ob.stats().frames, 2);
    }

    #[test]
    fn oversized_lanes_split_at_the_byte_ceiling() {
        use crate::alert::Alert;
        use crate::config::ConfigId;
        use crate::id::NodeId;
        use std::sync::Arc;
        // Two alert batches of ~2.6 MiB each: together they exceed the
        // frame byte ceiling, so they must leave as two frames.
        let alerts: Arc<[Alert]> = (0..45_000u64)
            .map(|i| {
                Alert::remove(
                    NodeId::from_u128(1),
                    NodeId::from_u128(2),
                    ep(3),
                    ConfigId(i),
                    0,
                )
            })
            .collect::<Vec<_>>()
            .into();
        let big = Message::AlertBatch {
            config_id: ConfigId(1),
            alerts,
        };
        assert!(
            crate::outbox::MAX_FRAME_BATCH_BYTES / 2 < crate::wire::encoded_len(&big)
                && crate::wire::encoded_len(&big) < crate::outbox::MAX_FRAME_BATCH_BYTES,
            "test payload must be between half and one frame ceiling"
        );
        let mut ob = Outbox::new(true);
        ob.push(ep(1), big.clone());
        ob.push(ep(1), big);
        let out = flush_all(&mut ob);
        assert_eq!(out.len(), 2, "byte ceiling must split the lane");
        assert!(
            out.iter().all(|(_, m)| matches!(m, Message::AlertBatch { .. })),
            "each split run of one message rides unwrapped"
        );
    }

    #[test]
    fn flush_to_every_member_keeps_a_bounded_spare_list() {
        // A unicast broadcast opens one lane per member; the flush must
        // not keep all of their buffers for the outbox's lifetime.
        let mut ob = Outbox::new(true);
        for i in 0..1_000u16 {
            ob.push(ep(i), Message::Probe { seq: i as u64 });
        }
        assert_eq!(flush_all(&mut ob).len(), 1_000);
        assert!(
            ob.spare.len() <= MAX_SPARE_LANES,
            "{} spare lanes kept, cap {MAX_SPARE_LANES}",
            ob.spare.len()
        );
        // The kept buffers still serve the next flush.
        ob.push(ep(1), Message::Probe { seq: 1 });
        assert_eq!(ob.spare.len(), MAX_SPARE_LANES - 1);
        assert_eq!(flush_all(&mut ob).len(), 1);
    }

    #[test]
    fn flush_resets_state_for_the_next_round() {
        let mut ob = Outbox::new(true);
        ob.push(ep(1), Message::Probe { seq: 1 });
        assert_eq!(ob.queued(), 1);
        assert_eq!(flush_all(&mut ob).len(), 1);
        assert_eq!(ob.queued(), 0);
        assert!(flush_all(&mut ob).is_empty(), "empty flush emits nothing");
        // A new round starts fresh first-touch order.
        ob.push(ep(9), Message::Probe { seq: 9 });
        ob.push(ep(1), Message::Probe { seq: 1 });
        let out = flush_all(&mut ob);
        assert_eq!(out[0].0, ep(9));
        assert_eq!(out[1].0, ep(1));
    }
}
