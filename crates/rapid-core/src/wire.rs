//! Wire messages and their binary codec.
//!
//! The paper's implementation uses gRPC/Netty for RPC and UDP for alert and
//! vote dissemination (§6). We define one [`Message`] enum covering the
//! whole protocol and a compact hand-rolled binary encoding (length-
//! prefixed, little-endian) built from the [`crate::codec`] kit, which
//! also owns the hostile-input rules the decoder applies. The same
//! encoding is used by the real TCP/UDP transport and by the simulator's
//! bandwidth accounting, so Table 2's byte counts reflect real message
//! sizes.
//!
//! Large payloads (alert batches, proposal bodies) are wrapped in [`Arc`]
//! so that broadcasting to thousands of simulated recipients clones a
//! pointer, not a vector.
//!
//! # Layouts of the alert-carrying messages
//!
//! Integers are little-endian; an endpoint is a `u16` host length, the
//! host bytes and a `u16` port; metadata is a `u16` entry count, then per
//! entry a `u16`-prefixed key and a `u32`-prefixed value.
//!
//! * `AlertBatch` (unicast mode): tag 5, `u64` config id, `u32` count,
//!   then per alert: `u128` observer, `u128` subject id, endpoint, `u8`
//!   status (1 = JOIN), `u64` config id, `u8` ring, metadata.
//! * `Gossip`: tag 6, `u64` config id, `u64` config seq, `u32` item
//!   count, then per [`GossipItem`]: `u128` subject id, endpoint (the
//!   subject's address), `u8` status (1 = JOIN), `u64` ring mask (bit `r`
//!   = the alert of the subject's ring-`r` observer), metadata; then a
//!   `u16` vote count and the vote states. An item carries no observer
//!   and no config id: the topology fixes the observer of each
//!   `(subject, ring)`, and the header's config id scopes every item. The
//!   decoder accepts any mask; the receiving node refuses an item whose
//!   mask is empty or names a ring `>= K` (it knows `K`, the codec does
//!   not).

use std::sync::Arc;

use bytes::BufMut;

use crate::alert::{Alert, EdgeStatus, GossipItem};
use crate::codec::{
    endpoint_len, put_bytes32, put_endpoint, put_str16, str16_len, DecodeError, DecodeLimits,
    Reader,
};
use crate::config::{ConfigId, Configuration, Member};
use crate::id::{Endpoint, NodeId};
use crate::membership::{Proposal, ProposalHash, ProposalItem};
use crate::metadata::Metadata;
use crate::paxos::{Rank, VoteState};
use crate::util::BitVec;

/// A configuration snapshot as carried on the wire (join confirmations,
/// centralized-mode pushes, laggard catch-up).
#[derive(Clone, Debug)]
pub struct ConfigSnapshot {
    /// The configuration identifier (trusted as-is by the receiver; it is
    /// the hash chained over the view history).
    pub id: ConfigId,
    /// The configuration sequence number.
    pub seq: u64,
    /// The sorted member list.
    pub members: Arc<Vec<Member>>,
}

impl ConfigSnapshot {
    /// The snapshot of `config`. It shares the configuration's member list
    /// instead of copying it.
    pub fn of(config: &Configuration) -> Self {
        ConfigSnapshot {
            id: config.id(),
            seq: config.seq(),
            members: Arc::clone(config.shared_members()),
        }
    }
}

/// Outcome of a join phase reported by a cluster member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStatus {
    /// The phase succeeded / may proceed.
    SafeToJoin,
    /// The configuration changed under the joiner; restart phase 1.
    ConfigChanged,
    /// The joiner's address is already a member (e.g. the join succeeded
    /// but the confirmation was lost); a snapshot is attached.
    AlreadyMember,
    /// The contacted process is itself not yet an active member.
    NotReady,
}

/// Every message exchanged by the Rapid protocol.
#[derive(Clone, Debug)]
pub enum Message {
    /// Join phase 1: joiner asks a seed for its temporary observers.
    PreJoinReq {
        /// The joining process (fresh id, address, metadata).
        joiner: Member,
    },
    /// Join phase 1 response.
    PreJoinResp {
        /// Phase outcome.
        status: JoinStatus,
        /// The configuration the observer list is valid for.
        config_id: ConfigId,
        /// The K temporary observers to contact in phase 2.
        observers: Vec<Endpoint>,
        /// Snapshot for `AlreadyMember` recovery.
        snapshot: Option<ConfigSnapshot>,
    },
    /// Join phase 2: joiner asks a temporary observer to announce it.
    JoinReq {
        /// The joining process.
        joiner: Member,
        /// Configuration the join targets.
        config_id: ConfigId,
        /// The ring this observer covers for the joiner.
        ring: u8,
    },
    /// Join confirmation (sent once the view change installs the joiner)
    /// or rejection.
    JoinResp {
        /// Join outcome.
        status: JoinStatus,
        /// The new configuration on success.
        snapshot: Option<ConfigSnapshot>,
    },
    /// A batch of alerts (unicast-to-all dissemination mode).
    AlertBatch {
        /// Configuration the alerts belong to.
        config_id: ConfigId,
        /// The alerts.
        alerts: Arc<[Alert]>,
    },
    /// One epidemic gossip round: the sender's live alert items, one per
    /// subject, plus its aggregated vote bitmaps.
    Gossip {
        /// Sender's configuration; it scopes every item.
        config_id: ConfigId,
        /// Sender's configuration sequence number (laggard detection).
        config_seq: u64,
        /// Relayed alert items, one per subject. Each is shared with the
        /// relay queues and batches that carry it, from the originating
        /// observer (or the decoder) on.
        items: Arc<[Arc<GossipItem>]>,
        /// Aggregated fast-path vote states.
        votes: Arc<[VoteState]>,
    },
    /// A fast-path vote state (unicast dissemination mode), carrying the
    /// proposal body so one hop suffices.
    Vote {
        /// Sender's configuration.
        config_id: ConfigId,
        /// The vote state (hash + bitmap), `Arc`'d so a unicast fan-out to
        /// N−1 peers clones a pointer instead of the bitmap.
        state: Arc<VoteState>,
        /// Proposal body, attached on the first send.
        body: Option<Arc<Proposal>>,
    },
    /// Request for an unknown proposal body.
    NeedProposal {
        /// Configuration of the vote.
        config_id: ConfigId,
        /// The wanted proposal hash.
        hash: ProposalHash,
    },
    /// Response carrying a proposal body.
    ProposalBody {
        /// Configuration of the vote.
        config_id: ConfigId,
        /// The proposal.
        proposal: Arc<Proposal>,
    },
    /// Classic Paxos phase 1a (prepare).
    Phase1a {
        /// Configuration being decided.
        config_id: ConfigId,
        /// Coordinator's ballot rank.
        rank: Rank,
    },
    /// Classic Paxos phase 1b (promise).
    Phase1b {
        /// Configuration being decided.
        config_id: ConfigId,
        /// Ballot rank being promised.
        rank: Rank,
        /// Responding acceptor's membership rank.
        sender: u32,
        /// Highest round the acceptor voted in, if any.
        vrnd: Option<Rank>,
        /// The value voted for, if any.
        vval: Option<Arc<Proposal>>,
    },
    /// Classic Paxos phase 2a (accept request).
    Phase2a {
        /// Configuration being decided.
        config_id: ConfigId,
        /// Ballot rank.
        rank: Rank,
        /// The chosen value.
        value: Arc<Proposal>,
    },
    /// Classic Paxos phase 2b (accepted).
    Phase2b {
        /// Configuration being decided.
        config_id: ConfigId,
        /// Ballot rank.
        rank: Rank,
        /// Accepting acceptor's membership rank.
        sender: u32,
    },
    /// A learned decision, broadcast by a deciding coordinator.
    Decision {
        /// Configuration the decision applies to.
        config_id: ConfigId,
        /// The decided cut.
        proposal: Arc<Proposal>,
    },
    /// Edge failure detector probe.
    Probe {
        /// Sequence number echoed by the ack.
        seq: u64,
    },
    /// Edge failure detector probe acknowledgement.
    ProbeAck {
        /// Echoed sequence number.
        seq: u64,
        /// Responder's configuration sequence (staleness hint).
        config_seq: u64,
    },
    /// Voluntary departure announcement to the leaver's observers.
    Leave {
        /// The departing process.
        subject: NodeId,
    },
    /// Request the peer's configuration if newer than `have_seq`.
    ConfigPull {
        /// The requester's configuration sequence number.
        have_seq: u64,
    },
    /// A configuration snapshot push (catch-up / centralized mode).
    ConfigPush {
        /// The snapshot.
        snapshot: ConfigSnapshot,
    },
    /// Several protocol messages for one destination, coalesced into a
    /// single wire frame by the per-peer [`crate::outbox::Outbox`]. The
    /// messages are delivered in order; batches never nest (the decoder
    /// rejects a batch inside a batch).
    Batch {
        /// The coalesced messages, in send order.
        msgs: Vec<Message>,
    },
}

impl Message {
    /// A short static label for logging and per-type metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::PreJoinReq { .. } => "PreJoinReq",
            Message::PreJoinResp { .. } => "PreJoinResp",
            Message::JoinReq { .. } => "JoinReq",
            Message::JoinResp { .. } => "JoinResp",
            Message::AlertBatch { .. } => "AlertBatch",
            Message::Gossip { .. } => "Gossip",
            Message::Vote { .. } => "Vote",
            Message::NeedProposal { .. } => "NeedProposal",
            Message::ProposalBody { .. } => "ProposalBody",
            Message::Phase1a { .. } => "Phase1a",
            Message::Phase1b { .. } => "Phase1b",
            Message::Phase2a { .. } => "Phase2a",
            Message::Phase2b { .. } => "Phase2b",
            Message::Decision { .. } => "Decision",
            Message::Probe { .. } => "Probe",
            Message::ProbeAck { .. } => "ProbeAck",
            Message::Leave { .. } => "Leave",
            Message::ConfigPull { .. } => "ConfigPull",
            Message::ConfigPush { .. } => "ConfigPush",
            Message::Batch { .. } => "Batch",
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_metadata(buf: &mut Vec<u8>, md: &Metadata) {
    buf.put_u16_le(md.len() as u16);
    for (k, v) in md.iter() {
        put_str16(buf, k);
        put_bytes32(buf, v);
    }
}

fn put_member(buf: &mut Vec<u8>, m: &Member) {
    buf.put_u128_le(m.id.as_u128());
    put_endpoint(buf, &m.addr);
    put_metadata(buf, &m.metadata);
}

fn put_alert(buf: &mut Vec<u8>, a: &Alert) {
    buf.put_u128_le(a.observer.as_u128());
    buf.put_u128_le(a.subject_id.as_u128());
    put_endpoint(buf, &a.subject_addr);
    buf.put_u8(matches!(a.status, EdgeStatus::Up) as u8);
    buf.put_u64_le(a.config_id.0);
    buf.put_u8(a.ring);
    put_metadata(buf, &a.metadata);
}

fn put_item(buf: &mut Vec<u8>, it: &GossipItem) {
    buf.put_u128_le(it.subject_id.as_u128());
    put_endpoint(buf, &it.subject_addr);
    buf.put_u8(matches!(it.status, EdgeStatus::Up) as u8);
    buf.put_u64_le(it.rings);
    put_metadata(buf, &it.metadata);
}

fn put_rank(buf: &mut Vec<u8>, r: Rank) {
    buf.put_u32_le(r.round);
    buf.put_u32_le(r.coordinator);
}

fn put_proposal(buf: &mut Vec<u8>, p: &Proposal) {
    buf.put_u64_le(p.config_id().0);
    buf.put_u32_le(p.len() as u32);
    for it in p.items() {
        buf.put_u128_le(it.id.as_u128());
        put_endpoint(buf, &it.addr);
        buf.put_u8(it.join as u8);
        put_metadata(buf, &it.metadata);
    }
}

fn put_bitvec(buf: &mut Vec<u8>, b: &BitVec) {
    buf.put_u32_le(b.len() as u32);
    for w in b.words() {
        buf.put_u64_le(*w);
    }
}

fn put_vote_state(buf: &mut Vec<u8>, v: &VoteState) {
    buf.put_u64_le(v.hash.0);
    put_bitvec(buf, &v.bitmap);
}

fn put_snapshot(buf: &mut Vec<u8>, s: &ConfigSnapshot) {
    buf.put_u64_le(s.id.0);
    buf.put_u64_le(s.seq);
    buf.put_u32_le(s.members.len() as u32);
    for m in s.members.iter() {
        put_member(buf, m);
    }
}

fn put_opt<T>(buf: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => buf.put_u8(0),
        Some(x) => {
            buf.put_u8(1);
            put(buf, x);
        }
    }
}

const TAG_PRE_JOIN_REQ: u8 = 1;
const TAG_PRE_JOIN_RESP: u8 = 2;
const TAG_JOIN_REQ: u8 = 3;
const TAG_JOIN_RESP: u8 = 4;
const TAG_ALERT_BATCH: u8 = 5;
const TAG_GOSSIP: u8 = 6;
const TAG_VOTE: u8 = 7;
const TAG_NEED_PROPOSAL: u8 = 8;
const TAG_PROPOSAL_BODY: u8 = 9;
const TAG_PHASE1A: u8 = 10;
const TAG_PHASE1B: u8 = 11;
const TAG_PHASE2A: u8 = 12;
const TAG_PHASE2B: u8 = 13;
const TAG_DECISION: u8 = 14;
const TAG_PROBE: u8 = 15;
const TAG_PROBE_ACK: u8 = 16;
const TAG_LEAVE: u8 = 17;
const TAG_CONFIG_PULL: u8 = 18;
const TAG_CONFIG_PUSH: u8 = 19;
const TAG_BATCH: u8 = 20;

fn join_status_to_u8(s: JoinStatus) -> u8 {
    match s {
        JoinStatus::SafeToJoin => 0,
        JoinStatus::ConfigChanged => 1,
        JoinStatus::AlreadyMember => 2,
        JoinStatus::NotReady => 3,
    }
}

fn join_status_from_u8(value: u8) -> Result<JoinStatus, DecodeError> {
    Ok(match value {
        0 => JoinStatus::SafeToJoin,
        1 => JoinStatus::ConfigChanged,
        2 => JoinStatus::AlreadyMember,
        3 => JoinStatus::NotReady,
        _ => {
            return Err(DecodeError::BadValue {
                field: "join status",
                value,
            })
        }
    })
}

/// Encodes a message, appending to `buf`.
pub fn encode(msg: &Message, buf: &mut Vec<u8>) {
    match msg {
        Message::PreJoinReq { joiner } => {
            buf.put_u8(TAG_PRE_JOIN_REQ);
            put_member(buf, joiner);
        }
        Message::PreJoinResp {
            status,
            config_id,
            observers,
            snapshot,
        } => {
            buf.put_u8(TAG_PRE_JOIN_RESP);
            buf.put_u8(join_status_to_u8(*status));
            buf.put_u64_le(config_id.0);
            buf.put_u16_le(observers.len() as u16);
            for o in observers {
                put_endpoint(buf, o);
            }
            put_opt(buf, snapshot, put_snapshot);
        }
        Message::JoinReq {
            joiner,
            config_id,
            ring,
        } => {
            buf.put_u8(TAG_JOIN_REQ);
            put_member(buf, joiner);
            buf.put_u64_le(config_id.0);
            buf.put_u8(*ring);
        }
        Message::JoinResp { status, snapshot } => {
            buf.put_u8(TAG_JOIN_RESP);
            buf.put_u8(join_status_to_u8(*status));
            put_opt(buf, snapshot, put_snapshot);
        }
        Message::AlertBatch { config_id, alerts } => {
            buf.put_u8(TAG_ALERT_BATCH);
            buf.put_u64_le(config_id.0);
            buf.put_u32_le(alerts.len() as u32);
            for a in alerts.iter() {
                put_alert(buf, a);
            }
        }
        Message::Gossip {
            config_id,
            config_seq,
            items,
            votes,
        } => {
            buf.put_u8(TAG_GOSSIP);
            buf.put_u64_le(config_id.0);
            buf.put_u64_le(*config_seq);
            buf.put_u32_le(items.len() as u32);
            for it in items.iter() {
                put_item(buf, it);
            }
            buf.put_u16_le(votes.len() as u16);
            for v in votes.iter() {
                put_vote_state(buf, v);
            }
        }
        Message::Vote {
            config_id,
            state,
            body,
        } => {
            buf.put_u8(TAG_VOTE);
            buf.put_u64_le(config_id.0);
            put_vote_state(buf, state);
            put_opt(buf, body, |b, p| put_proposal(b, p));
        }
        Message::NeedProposal { config_id, hash } => {
            buf.put_u8(TAG_NEED_PROPOSAL);
            buf.put_u64_le(config_id.0);
            buf.put_u64_le(hash.0);
        }
        Message::ProposalBody {
            config_id,
            proposal,
        } => {
            buf.put_u8(TAG_PROPOSAL_BODY);
            buf.put_u64_le(config_id.0);
            put_proposal(buf, proposal);
        }
        Message::Phase1a { config_id, rank } => {
            buf.put_u8(TAG_PHASE1A);
            buf.put_u64_le(config_id.0);
            put_rank(buf, *rank);
        }
        Message::Phase1b {
            config_id,
            rank,
            sender,
            vrnd,
            vval,
        } => {
            buf.put_u8(TAG_PHASE1B);
            buf.put_u64_le(config_id.0);
            put_rank(buf, *rank);
            buf.put_u32_le(*sender);
            put_opt(buf, vrnd, |b, r| put_rank(b, *r));
            put_opt(buf, vval, |b, p| put_proposal(b, p));
        }
        Message::Phase2a {
            config_id,
            rank,
            value,
        } => {
            buf.put_u8(TAG_PHASE2A);
            buf.put_u64_le(config_id.0);
            put_rank(buf, *rank);
            put_proposal(buf, value);
        }
        Message::Phase2b {
            config_id,
            rank,
            sender,
        } => {
            buf.put_u8(TAG_PHASE2B);
            buf.put_u64_le(config_id.0);
            put_rank(buf, *rank);
            buf.put_u32_le(*sender);
        }
        Message::Decision {
            config_id,
            proposal,
        } => {
            buf.put_u8(TAG_DECISION);
            buf.put_u64_le(config_id.0);
            put_proposal(buf, proposal);
        }
        Message::Probe { seq } => {
            buf.put_u8(TAG_PROBE);
            buf.put_u64_le(*seq);
        }
        Message::ProbeAck { seq, config_seq } => {
            buf.put_u8(TAG_PROBE_ACK);
            buf.put_u64_le(*seq);
            buf.put_u64_le(*config_seq);
        }
        Message::Leave { subject } => {
            buf.put_u8(TAG_LEAVE);
            buf.put_u128_le(subject.as_u128());
        }
        Message::ConfigPull { have_seq } => {
            buf.put_u8(TAG_CONFIG_PULL);
            buf.put_u64_le(*have_seq);
        }
        Message::ConfigPush { snapshot } => {
            buf.put_u8(TAG_CONFIG_PUSH);
            put_snapshot(buf, snapshot);
        }
        Message::Batch { msgs } => {
            debug_assert!(
                !msgs.iter().any(|m| matches!(m, Message::Batch { .. })),
                "batches must not nest"
            );
            debug_assert!(
                msgs.len() <= u16::MAX as usize,
                "batch count must fit the u16 wire field (the outbox splits at \
                 MAX_BATCH_MSGS, far below)"
            );
            buf.put_u8(TAG_BATCH);
            buf.put_u16_le(msgs.len() as u16);
            for m in msgs {
                encode(m, buf);
            }
        }
    }
}

/// Encodes a message into a fresh buffer.
pub fn encode_to_vec(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode(msg, &mut buf);
    buf
}

// ---------------------------------------------------------------------------
// Size accounting
// ---------------------------------------------------------------------------
//
// `encoded_len` mirrors the encoder arithmetically instead of serialising
// into a scratch buffer: the simulator calls it for every routed message,
// and a gossip batch can carry thousands of alerts, so measuring by
// actually encoding dominated the simulator's hot path. Each `*_len`
// function below must stay in lockstep with its `put_*` counterpart (the
// codec tests assert exact agreement over every message family).

fn metadata_len(md: &Metadata) -> usize {
    2 + md.iter().map(|(k, v)| str16_len(k) + 4 + v.len()).sum::<usize>()
}

fn member_len(m: &Member) -> usize {
    16 + endpoint_len(&m.addr) + metadata_len(&m.metadata)
}

fn alert_len(a: &Alert) -> usize {
    16 + 16 + endpoint_len(&a.subject_addr) + 1 + 8 + 1 + metadata_len(&a.metadata)
}

fn item_len(it: &GossipItem) -> usize {
    16 + endpoint_len(&it.subject_addr) + 1 + 8 + metadata_len(&it.metadata)
}

const RANK_LEN: usize = 8;

fn proposal_len(p: &Proposal) -> usize {
    8 + 4
        + p.items()
            .iter()
            .map(|it| 16 + endpoint_len(&it.addr) + 1 + metadata_len(&it.metadata))
            .sum::<usize>()
}

fn bitvec_len(b: &BitVec) -> usize {
    4 + 8 * b.words().len()
}

fn vote_state_len(v: &VoteState) -> usize {
    8 + bitvec_len(&v.bitmap)
}

fn snapshot_len(s: &ConfigSnapshot) -> usize {
    8 + 8 + 4 + s.members.iter().map(member_len).sum::<usize>()
}

fn opt_len<T>(v: &Option<T>, len: impl FnOnce(&T) -> usize) -> usize {
    1 + v.as_ref().map_or(0, len)
}

/// The encoded size of a message in bytes (plus the 4-byte length frame
/// used by the TCP transport). Used by the simulator's bandwidth
/// accounting so Table 2 reflects real wire sizes. Computed
/// arithmetically — nothing is serialised.
pub fn encoded_len(msg: &Message) -> usize {
    let body = match msg {
        Message::PreJoinReq { joiner } => member_len(joiner),
        Message::PreJoinResp {
            observers,
            snapshot,
            ..
        } => {
            1 + 8
                + 2
                + observers.iter().map(endpoint_len).sum::<usize>()
                + opt_len(snapshot, snapshot_len)
        }
        Message::JoinReq { joiner, .. } => member_len(joiner) + 8 + 1,
        Message::JoinResp { snapshot, .. } => 1 + opt_len(snapshot, snapshot_len),
        Message::AlertBatch { alerts, .. } => {
            8 + 4 + alerts.iter().map(alert_len).sum::<usize>()
        }
        Message::Gossip { items, votes, .. } => {
            8 + 8
                + 4
                + items.iter().map(|it| item_len(it)).sum::<usize>()
                + 2
                + votes.iter().map(vote_state_len).sum::<usize>()
        }
        Message::Vote { state, body, .. } => {
            8 + vote_state_len(state) + opt_len(body, |p| proposal_len(p))
        }
        Message::NeedProposal { .. } => 8 + 8,
        Message::ProposalBody { proposal, .. } => 8 + proposal_len(proposal),
        Message::Phase1a { .. } => 8 + RANK_LEN,
        Message::Phase1b { vrnd, vval, .. } => {
            8 + RANK_LEN + 4 + opt_len(vrnd, |_| RANK_LEN) + opt_len(vval, |p| proposal_len(p))
        }
        Message::Phase2a { value, .. } => 8 + RANK_LEN + proposal_len(value),
        Message::Phase2b { .. } => 8 + RANK_LEN + 4,
        Message::Decision { proposal, .. } => 8 + proposal_len(proposal),
        Message::Probe { .. } => 8,
        Message::ProbeAck { .. } => 8 + 8,
        Message::Leave { .. } => 16,
        Message::ConfigPull { .. } => 8,
        Message::ConfigPush { snapshot } => snapshot_len(snapshot),
        // Each nested message contributes its tag + body; the per-message
        // frame overhead (the `+ 4` below) is paid once for the batch.
        Message::Batch { msgs } => {
            2 + msgs.iter().map(|m| encoded_len(m) - 4).sum::<usize>()
        }
    };
    1 + body + 4
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode-side cap on repeated-item counts (alerts, members, proposal
/// items). A 5000-member deployment — 5× the paper's largest — stays an
/// order of magnitude below this; a count above it is hostile or corrupt.
pub const MAX_WIRE_ITEMS: usize = 65_536;

/// Per-peer decode budget per accounting interval, layered on top of
/// [`DecodeLimits`]: the static limits bound what one *frame* may carry,
/// the quota bounds how many frames (and payload bytes) one *peer* may
/// deliver per interval. `0` disables the corresponding bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerQuota {
    /// Frames accepted from one peer per interval.
    pub frames_per_interval: u64,
    /// Payload bytes accepted from one peer per interval.
    pub bytes_per_interval: u64,
    /// Width of the accounting window in milliseconds.
    pub interval_ms: u64,
}

impl PeerQuota {
    /// A quota with both bounds disabled — every frame is admitted.
    pub fn unlimited() -> Self {
        PeerQuota { frames_per_interval: 0, bytes_per_interval: 0, interval_ms: 1_000 }
    }

    /// True when neither bound is active.
    pub fn is_unlimited(&self) -> bool {
        self.frames_per_interval == 0 && self.bytes_per_interval == 0
    }
}

/// The typed error a frame over quota is dropped with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaExceeded {
    /// The peer sent more frames than its per-interval frame budget.
    Frames {
        /// The configured frame budget that was exhausted.
        limit: u64,
    },
    /// The peer sent more payload bytes than its per-interval byte budget.
    Bytes {
        /// The configured byte budget that was exhausted.
        limit: u64,
    },
}

/// Tracks per-peer frame/byte consumption against a [`PeerQuota`] on a
/// fixed-window schedule. Hosts call [`QuotaTracker::admit`] before
/// decoding each inbound frame; a `Err(QuotaExceeded)` means the frame
/// must be dropped (and is counted in [`QuotaTracker::dropped`]).
///
/// Windows are aligned to `now / interval_ms`, so admission is a pure
/// function of (peer, bytes, now) — deterministic on the simulator and
/// cheap (one map probe) on the real driver.
#[derive(Debug)]
pub struct QuotaTracker {
    quota: PeerQuota,
    /// peer -> (window index, frames used, bytes used)
    windows: crate::hash::DetHashMap<Endpoint, (u64, u64, u64)>,
    dropped: u64,
}

impl QuotaTracker {
    /// Creates a tracker enforcing `quota`.
    pub fn new(quota: PeerQuota) -> Self {
        QuotaTracker { quota, windows: crate::hash::DetHashMap::default(), dropped: 0 }
    }

    /// Charges one `bytes`-sized frame from `peer` at `now_ms` against the
    /// quota. Returns `Ok(())` when admitted; the typed error (counted)
    /// when the peer's current window budget is already exhausted.
    pub fn admit(
        &mut self,
        peer: Endpoint,
        bytes: usize,
        now_ms: u64,
    ) -> Result<(), QuotaExceeded> {
        if self.quota.is_unlimited() {
            return Ok(());
        }
        let window = now_ms / self.quota.interval_ms.max(1);
        let entry = self.windows.entry(peer).or_insert((window, 0, 0));
        if entry.0 != window {
            *entry = (window, 0, 0);
        }
        if self.quota.frames_per_interval > 0 && entry.1 >= self.quota.frames_per_interval {
            self.dropped += 1;
            return Err(QuotaExceeded::Frames { limit: self.quota.frames_per_interval });
        }
        if self.quota.bytes_per_interval > 0
            && entry.2.saturating_add(bytes as u64) > self.quota.bytes_per_interval
        {
            self.dropped += 1;
            return Err(QuotaExceeded::Bytes { limit: self.quota.bytes_per_interval });
        }
        entry.1 += 1;
        entry.2 += bytes as u64;
        Ok(())
    }

    /// Total frames dropped over quota since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drops accounting state for peers outside `live`, bounding the map
    /// under churn (call on view change).
    pub fn retain_peers(&mut self, live: &crate::hash::DetHashSet<Endpoint>) {
        self.windows.retain(|peer, _| live.contains(peer));
    }
}

// Domain readers: each assembles one protocol type from kit fields. The
// minimum item sizes handed to `items` are the smallest encoding of one
// item, so a forged count is refused before anything is reserved.

/// A membership list: at most [`MAX_WIRE_ITEMS`] items, each at least
/// `min_item_len` bytes on the wire.
fn items<'a, T>(
    r: &mut Reader<'a>,
    n: usize,
    min_item_len: usize,
    read: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    if n > MAX_WIRE_ITEMS {
        return Err(DecodeError::TooMany {
            count: n,
            cap: MAX_WIRE_ITEMS,
        });
    }
    r.list(n, min_item_len, read)
}

fn metadata(r: &mut Reader<'_>) -> Result<Metadata, DecodeError> {
    let count = r.u16()?;
    let mut md = Metadata::new();
    for _ in 0..count {
        let k = r.str16()?;
        md.insert(k, r.bytes32()?);
    }
    Ok(md)
}

fn member(r: &mut Reader<'_>) -> Result<Member, DecodeError> {
    let id = NodeId::from_u128(r.u128()?);
    let addr = r.endpoint()?;
    Ok(Member::with_metadata(id, addr, metadata(r)?))
}

fn alert(r: &mut Reader<'_>) -> Result<Alert, DecodeError> {
    Ok(Alert {
        observer: NodeId::from_u128(r.u128()?),
        subject_id: NodeId::from_u128(r.u128()?),
        subject_addr: r.endpoint()?,
        status: status(r)?,
        config_id: ConfigId(r.u64()?),
        ring: r.u8()?,
        metadata: metadata(r)?,
    })
}

fn status(r: &mut Reader<'_>) -> Result<EdgeStatus, DecodeError> {
    Ok(if r.u8()? == 1 {
        EdgeStatus::Up
    } else {
        EdgeStatus::Down
    })
}

fn gossip_item(r: &mut Reader<'_>) -> Result<GossipItem, DecodeError> {
    Ok(GossipItem {
        subject_id: NodeId::from_u128(r.u128()?),
        subject_addr: r.endpoint()?,
        status: status(r)?,
        rings: r.u64()?,
        metadata: metadata(r)?,
    })
}

fn rank(r: &mut Reader<'_>) -> Result<Rank, DecodeError> {
    Ok(Rank {
        round: r.u32()?,
        coordinator: r.u32()?,
    })
}

fn proposal(r: &mut Reader<'_>) -> Result<Proposal, DecodeError> {
    let config_id = ConfigId(r.u64()?);
    let n = r.u32()? as usize;
    // id + empty endpoint + flag + empty metadata
    let items = items(r, n, 23, |r| {
        Ok(ProposalItem {
            id: NodeId::from_u128(r.u128()?),
            addr: r.endpoint()?,
            join: r.u8()? == 1,
            metadata: metadata(r)?,
        })
    })?;
    Ok(Proposal::from_items(config_id, items))
}

fn bitvec(r: &mut Reader<'_>) -> Result<BitVec, DecodeError> {
    const MAX_BITS: usize = 1 << 24;
    let len = r.u32()? as usize;
    if len > MAX_BITS {
        return Err(DecodeError::TooMany {
            count: len,
            cap: MAX_BITS,
        });
    }
    let words = r.list(len.div_ceil(64), 8, Reader::u64)?;
    Ok(BitVec::from_words(len, words))
}

fn vote_state(r: &mut Reader<'_>) -> Result<VoteState, DecodeError> {
    Ok(VoteState {
        hash: ProposalHash(r.u64()?),
        bitmap: bitvec(r)?,
    })
}

fn snapshot(r: &mut Reader<'_>) -> Result<ConfigSnapshot, DecodeError> {
    let id = ConfigId(r.u64()?);
    let seq = r.u64()?;
    let n = r.u32()? as usize;
    // id + empty endpoint + empty metadata
    let members = items(r, n, 22, member)?;
    Ok(ConfigSnapshot {
        id,
        seq,
        members: Arc::new(members),
    })
}

/// Decodes one message from `buf` under [`DecodeLimits::default`].
pub fn decode(buf: &[u8]) -> Result<Message, DecodeError> {
    decode_with_limits(buf, DecodeLimits::default())
}

/// Decodes one message from `buf` under explicit resource limits.
pub fn decode_with_limits(buf: &[u8], limits: DecodeLimits) -> Result<Message, DecodeError> {
    decode_one(&mut Reader::new(buf, limits), false)
}

/// Decodes one message from the reader. `nested` is true inside a batch:
/// batches never nest, so a hostile frame cannot drive the decoder into
/// deep recursion.
fn decode_one(r: &mut Reader<'_>, nested: bool) -> Result<Message, DecodeError> {
    let msg = match r.u8()? {
        TAG_PRE_JOIN_REQ => Message::PreJoinReq { joiner: member(r)? },
        TAG_PRE_JOIN_RESP => {
            let status = join_status_from_u8(r.u8()?)?;
            let config_id = ConfigId(r.u64()?);
            let n = r.u16()? as usize;
            // empty host + port
            let observers = items(r, n, 4, Reader::endpoint)?;
            Message::PreJoinResp {
                status,
                config_id,
                observers,
                snapshot: r.opt(snapshot)?,
            }
        }
        TAG_JOIN_REQ => Message::JoinReq {
            joiner: member(r)?,
            config_id: ConfigId(r.u64()?),
            ring: r.u8()?,
        },
        TAG_JOIN_RESP => Message::JoinResp {
            status: join_status_from_u8(r.u8()?)?,
            snapshot: r.opt(snapshot)?,
        },
        TAG_ALERT_BATCH => {
            let config_id = ConfigId(r.u64()?);
            let n = r.u32()? as usize;
            // two ids + empty endpoint + status + config + ring + empty metadata
            let alerts = items(r, n, 48, alert)?;
            Message::AlertBatch {
                config_id,
                alerts: alerts.into(),
            }
        }
        TAG_GOSSIP => {
            let config_id = ConfigId(r.u64()?);
            let config_seq = r.u64()?;
            let n = r.u32()? as usize;
            // id + empty endpoint + status + mask + empty metadata
            let gossip_items = items(r, n, 31, |r| gossip_item(r).map(Arc::new))?;
            let n = r.u16()? as usize;
            // proposal hash + empty bitmap
            let votes = r.list(n, 12, vote_state)?;
            Message::Gossip {
                config_id,
                config_seq,
                items: gossip_items.into(),
                votes: votes.into(),
            }
        }
        TAG_VOTE => Message::Vote {
            config_id: ConfigId(r.u64()?),
            state: Arc::new(vote_state(r)?),
            body: r.opt(proposal)?.map(Arc::new),
        },
        TAG_NEED_PROPOSAL => Message::NeedProposal {
            config_id: ConfigId(r.u64()?),
            hash: ProposalHash(r.u64()?),
        },
        TAG_PROPOSAL_BODY => Message::ProposalBody {
            config_id: ConfigId(r.u64()?),
            proposal: Arc::new(proposal(r)?),
        },
        TAG_PHASE1A => Message::Phase1a {
            config_id: ConfigId(r.u64()?),
            rank: rank(r)?,
        },
        TAG_PHASE1B => Message::Phase1b {
            config_id: ConfigId(r.u64()?),
            rank: rank(r)?,
            sender: r.u32()?,
            vrnd: r.opt(rank)?,
            vval: r.opt(proposal)?.map(Arc::new),
        },
        TAG_PHASE2A => Message::Phase2a {
            config_id: ConfigId(r.u64()?),
            rank: rank(r)?,
            value: Arc::new(proposal(r)?),
        },
        TAG_PHASE2B => Message::Phase2b {
            config_id: ConfigId(r.u64()?),
            rank: rank(r)?,
            sender: r.u32()?,
        },
        TAG_DECISION => Message::Decision {
            config_id: ConfigId(r.u64()?),
            proposal: Arc::new(proposal(r)?),
        },
        TAG_PROBE => Message::Probe { seq: r.u64()? },
        TAG_PROBE_ACK => Message::ProbeAck {
            seq: r.u64()?,
            config_seq: r.u64()?,
        },
        TAG_LEAVE => Message::Leave {
            subject: NodeId::from_u128(r.u128()?),
        },
        TAG_CONFIG_PULL => Message::ConfigPull { have_seq: r.u64()? },
        TAG_CONFIG_PUSH => Message::ConfigPush {
            snapshot: snapshot(r)?,
        },
        TAG_BATCH => {
            let n = r.open_batch(nested, |r| r.u16().map(usize::from))?;
            // Every message encodes to at least 3 bytes (a tag plus the
            // smallest body, a snapshot-less JoinResp).
            let msgs = r.list(n, 3, |r| decode_one(r, true))?;
            Message::Batch { msgs }
        }
        tag => return Err(DecodeError::UnknownTag(tag)),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{MAX_BATCH_MSGS, MAX_WIRE_HOST_LEN};

    fn member(i: u128) -> Member {
        Member::with_metadata(
            NodeId::from_u128(i),
            Endpoint::new(format!("host-{i}"), (i % 65_535) as u16 + 1),
            Metadata::with_entry("role", format!("r{i}")),
        )
    }

    fn sample_proposal() -> Proposal {
        Proposal::from_items(
            ConfigId(77),
            vec![
                ProposalItem::join(
                    NodeId::from_u128(5),
                    Endpoint::new("a", 1),
                    Metadata::with_entry("x", "y"),
                ),
                ProposalItem::remove(NodeId::from_u128(6), Endpoint::new("b", 2)),
            ],
        )
    }

    /// The one-ring gossip item of an alert.
    fn item_of(a: &Alert) -> Arc<GossipItem> {
        Arc::new(GossipItem {
            subject_id: a.subject_id,
            subject_addr: a.subject_addr,
            status: a.status,
            rings: 1 << a.ring,
            metadata: a.metadata.clone(),
        })
    }

    fn roundtrip(msg: &Message) -> Message {
        let bytes = encode_to_vec(msg);
        decode(&bytes).expect("decode must succeed")
    }

    #[test]
    fn roundtrip_join_messages() {
        let m = roundtrip(&Message::PreJoinReq { joiner: member(1) });
        match m {
            Message::PreJoinReq { joiner } => assert_eq!(joiner, member(1)),
            _ => panic!("wrong variant"),
        }

        let resp = Message::PreJoinResp {
            status: JoinStatus::SafeToJoin,
            config_id: ConfigId(4),
            observers: vec![Endpoint::new("o1", 1), Endpoint::new("o2", 2)],
            snapshot: None,
        };
        match roundtrip(&resp) {
            Message::PreJoinResp {
                status, observers, ..
            } => {
                assert_eq!(status, JoinStatus::SafeToJoin);
                assert_eq!(observers.len(), 2);
            }
            _ => panic!("wrong variant"),
        }

        let jr = Message::JoinResp {
            status: JoinStatus::AlreadyMember,
            snapshot: Some(ConfigSnapshot {
                id: ConfigId(9),
                seq: 3,
                members: Arc::new(vec![member(1), member(2)]),
            }),
        };
        match roundtrip(&jr) {
            Message::JoinResp {
                status,
                snapshot: Some(s),
            } => {
                assert_eq!(status, JoinStatus::AlreadyMember);
                assert_eq!(s.seq, 3);
                assert_eq!(s.members.len(), 2);
                assert_eq!(s.members[1], member(2));
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn roundtrip_alert_batch() {
        let alerts: Arc<[Alert]> = vec![
            Alert::remove(
                NodeId::from_u128(1),
                NodeId::from_u128(2),
                Endpoint::new("s", 9),
                ConfigId(3),
                4,
            ),
            Alert::join(
                NodeId::from_u128(5),
                NodeId::from_u128(6),
                Endpoint::new("j", 9),
                ConfigId(3),
                7,
                Metadata::with_entry("role", "db"),
            ),
        ]
        .into();
        match roundtrip(&Message::AlertBatch {
            config_id: ConfigId(3),
            alerts: Arc::clone(&alerts),
        }) {
            Message::AlertBatch {
                alerts: decoded, ..
            } => assert_eq!(&*decoded, &*alerts),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn roundtrip_gossip_with_votes() {
        let p = sample_proposal();
        let mut bitmap = BitVec::new(100);
        bitmap.set(3);
        bitmap.set(99);
        let item = GossipItem {
            subject_id: NodeId::from_u128(6),
            subject_addr: Endpoint::new("j", 9),
            status: EdgeStatus::Up,
            rings: 1 << 7 | 1 << 63,
            metadata: Metadata::with_entry("role", "db"),
        };
        let msg = Message::Gossip {
            config_id: ConfigId(1),
            config_seq: 12,
            items: vec![Arc::new(item.clone())].into(),
            votes: vec![VoteState {
                hash: p.hash(),
                bitmap: bitmap.clone(),
            }]
            .into(),
        };
        match roundtrip(&msg) {
            Message::Gossip {
                config_seq,
                items,
                votes,
                ..
            } => {
                assert_eq!(config_seq, 12);
                assert_eq!(items.len(), 1);
                assert_eq!(*items[0], item);
                assert_eq!(votes[0].hash, p.hash());
                assert_eq!(votes[0].bitmap, bitmap);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn roundtrip_paxos_messages() {
        let p = Arc::new(sample_proposal());
        let m = Message::Phase1b {
            config_id: ConfigId(2),
            rank: Rank::classic(3, 1),
            sender: 17,
            vrnd: Some(Rank::FAST),
            vval: Some(Arc::clone(&p)),
        };
        match roundtrip(&m) {
            Message::Phase1b {
                rank,
                sender,
                vrnd,
                vval,
                ..
            } => {
                assert_eq!(rank, Rank::classic(3, 1));
                assert_eq!(sender, 17);
                assert_eq!(vrnd, Some(Rank::FAST));
                assert_eq!(vval.unwrap().hash(), p.hash());
            }
            _ => panic!("wrong variant"),
        }

        match roundtrip(&Message::Phase2a {
            config_id: ConfigId(2),
            rank: Rank::classic(1, 0),
            value: Arc::clone(&p),
        }) {
            Message::Phase2a { value, .. } => assert_eq!(value.hash(), p.hash()),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn roundtrip_small_messages() {
        for msg in [
            Message::Probe { seq: 7 },
            Message::ProbeAck {
                seq: 7,
                config_seq: 3,
            },
            Message::Leave {
                subject: NodeId::from_u128(42),
            },
            Message::ConfigPull { have_seq: 11 },
            Message::NeedProposal {
                config_id: ConfigId(1),
                hash: ProposalHash(0xdead),
            },
        ] {
            let decoded = roundtrip(&msg);
            assert_eq!(encode_to_vec(&decoded), encode_to_vec(&msg));
        }
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let bytes = encode_to_vec(&Message::PreJoinReq { joiner: member(1) });
        for cut in 1..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncated at {cut}");
        }
        assert!(decode(&[250, 0, 0]).is_err(), "unknown tag");
        assert!(decode(&[]).is_err(), "empty");
    }

    #[test]
    fn encoded_len_matches_encoding_plus_frame() {
        let msg = Message::Probe { seq: 1 };
        assert_eq!(encoded_len(&msg), encode_to_vec(&msg).len() + 4);
    }

    #[test]
    fn encoded_len_matches_for_every_message_family() {
        let p = Arc::new(sample_proposal());
        let snapshot = ConfigSnapshot {
            id: ConfigId(9),
            seq: 3,
            members: Arc::new(vec![member(1), member(2)]),
        };
        let alerts: Arc<[Alert]> = vec![
            Alert::remove(
                NodeId::from_u128(1),
                NodeId::from_u128(2),
                Endpoint::new("söme-hóst", 9),
                ConfigId(3),
                4,
            ),
            Alert::join(
                NodeId::from_u128(5),
                NodeId::from_u128(6),
                Endpoint::new("", 9),
                ConfigId(3),
                7,
                Metadata::with_entry("role", "db"),
            ),
        ]
        .into();
        let mut bitmap = BitVec::new(77);
        bitmap.set(5);
        let vote = VoteState {
            hash: ProposalHash(0xfeed),
            bitmap,
        };
        let msgs = vec![
            Message::PreJoinReq { joiner: member(1) },
            Message::PreJoinResp {
                status: JoinStatus::SafeToJoin,
                config_id: ConfigId(4),
                observers: vec![Endpoint::new("o1", 1), Endpoint::new("o2", 2)],
                snapshot: Some(snapshot.clone()),
            },
            Message::JoinReq {
                joiner: member(2),
                config_id: ConfigId(4),
                ring: 3,
            },
            Message::JoinResp {
                status: JoinStatus::AlreadyMember,
                snapshot: Some(snapshot.clone()),
            },
            Message::AlertBatch {
                config_id: ConfigId(3),
                alerts: Arc::clone(&alerts),
            },
            Message::Gossip {
                config_id: ConfigId(1),
                config_seq: 12,
                items: alerts.iter().map(item_of).collect(),
                votes: vec![vote.clone()].into(),
            },
            Message::Vote {
                config_id: ConfigId(1),
                state: Arc::new(vote),
                body: Some(Arc::clone(&p)),
            },
            Message::NeedProposal {
                config_id: ConfigId(1),
                hash: ProposalHash(0xdead),
            },
            Message::ProposalBody {
                config_id: ConfigId(1),
                proposal: Arc::clone(&p),
            },
            Message::Phase1a {
                config_id: ConfigId(2),
                rank: Rank::classic(3, 1),
            },
            Message::Phase1b {
                config_id: ConfigId(2),
                rank: Rank::classic(3, 1),
                sender: 17,
                vrnd: Some(Rank::FAST),
                vval: Some(Arc::clone(&p)),
            },
            Message::Phase2a {
                config_id: ConfigId(2),
                rank: Rank::classic(1, 0),
                value: Arc::clone(&p),
            },
            Message::Phase2b {
                config_id: ConfigId(2),
                rank: Rank::classic(1, 0),
                sender: 4,
            },
            Message::Decision {
                config_id: ConfigId(77),
                proposal: p,
            },
            Message::Probe { seq: 7 },
            Message::ProbeAck {
                seq: 7,
                config_seq: 3,
            },
            Message::Leave {
                subject: NodeId::from_u128(42),
            },
            Message::ConfigPull { have_seq: 11 },
            Message::ConfigPush { snapshot },
            Message::Batch {
                msgs: one_of_each_family(),
            },
        ];
        for msg in msgs {
            assert_eq!(
                encoded_len(&msg),
                encode_to_vec(&msg).len() + 4,
                "size accounting must mirror the encoder for {}",
                msg.kind()
            );
        }
    }

    #[test]
    fn decode_rejects_oversized_host_before_interning() {
        // An in-process Endpoint may carry hosts up to 64 KiB, but the
        // decoder must refuse to intern anything a peer sends above
        // MAX_WIRE_HOST_LEN.
        let long_host = "h".repeat(MAX_WIRE_HOST_LEN + 1);
        let msg = Message::PreJoinReq {
            joiner: Member::new(NodeId::from_u128(1), Endpoint::new(&long_host, 1)),
        };
        let bytes = encode_to_vec(&msg);
        let err = decode(&bytes).expect_err("oversized host must be rejected");
        assert_eq!(
            err,
            DecodeError::HostTooLong {
                len: MAX_WIRE_HOST_LEN + 1
            }
        );
        // The cap itself is accepted.
        let ok_host = "h".repeat(MAX_WIRE_HOST_LEN);
        let msg = Message::PreJoinReq {
            joiner: Member::new(NodeId::from_u128(1), Endpoint::new(&ok_host, 1)),
        };
        assert!(decode(&encode_to_vec(&msg)).is_ok());
    }

    /// Hand-encodes a `PreJoinReq` whose joiner lives at `host` — without
    /// ever constructing an `Endpoint`, which would intern the host on
    /// the *encode* side and defeat a decoder-interning test.
    fn raw_pre_join_req(host: &str) -> Vec<u8> {
        let mut bytes = vec![TAG_PRE_JOIN_REQ];
        bytes.extend_from_slice(&1u128.to_le_bytes()); // joiner id
        bytes.extend_from_slice(&(host.len() as u16).to_le_bytes());
        bytes.extend_from_slice(host.as_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes()); // port
        bytes.extend_from_slice(&0u16.to_le_bytes()); // empty metadata
        bytes
    }

    #[test]
    fn decode_rejects_a_flood_of_distinct_valid_hosts() {
        // Every host here is short and well-formed — the per-name length
        // cap cannot help. The distinct-hosts cap must stop the flood:
        // once the process-wide interner would exceed the limit, decoding
        // a message that introduces yet another fresh host fails.
        let limit = DecodeLimits {
            max_distinct_hosts: Endpoint::interned_hosts() + 8,
            ..DecodeLimits::default()
        };
        let mut refused = 0usize;
        for i in 0..64 {
            let bytes = raw_pre_join_req(&format!("flood-{i}.example"));
            if decode_with_limits(&bytes, limit).is_err() {
                refused += 1;
            }
        }
        // At most 8 fresh hosts fit under the cap; the rest of the flood
        // must be refused (other tests may intern concurrently, which
        // only tightens the headroom).
        assert!(refused >= 64 - 8, "only {refused}/64 flood hosts refused");

        // Already-interned hosts decode fine even at a zero-headroom cap:
        // the cap bounds growth, not membership.
        let _known = Endpoint::new("flood-known.example", 1);
        let tight = DecodeLimits {
            max_distinct_hosts: 0,
            ..DecodeLimits::default()
        };
        assert!(decode_with_limits(&raw_pre_join_req("flood-known.example"), tight).is_ok());
        let err = decode_with_limits(&raw_pre_join_req("flood-never-seen"), tight)
            .expect_err("fresh host must be refused at cap 0");
        assert!(
            matches!(err, DecodeError::TooManyHosts { cap: 0, .. }),
            "got: {err}"
        );
    }

    #[test]
    fn decode_rejects_absurd_counts_without_allocating() {
        // A forged AlertBatch claiming u32::MAX alerts in a tiny buffer.
        let mut bytes = vec![TAG_ALERT_BATCH];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // config_id
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let err = decode(&bytes).expect_err("absurd count must be rejected");
        assert_eq!(
            err,
            DecodeError::TooMany {
                count: u32::MAX as usize,
                cap: MAX_WIRE_ITEMS
            }
        );

        // A count under the cap but impossible for the remaining bytes is
        // rejected up front (truncation guard), not after a decode loop.
        let mut bytes = vec![TAG_ALERT_BATCH];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&1_000u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]); // far fewer than 1000 alerts
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeError::Truncated {
                need: 1_000 * 48,
                have: 32
            }
        );

        // Gossip item counts too, at 31 bytes per item (id, empty
        // endpoint, status, mask, empty metadata).
        let mut bytes = vec![TAG_GOSSIP];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // config_id
        bytes.extend_from_slice(&1u64.to_le_bytes()); // config_seq
        bytes.extend_from_slice(&1_000u32.to_le_bytes()); // item count
        bytes.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeError::Truncated {
                need: 1_000 * 31,
                have: 32
            }
        );

        // Snapshot member counts get the same treatment.
        let mut bytes = vec![TAG_CONFIG_PUSH];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // id
        bytes.extend_from_slice(&1u64.to_le_bytes()); // seq
        bytes.extend_from_slice(&(MAX_WIRE_ITEMS as u32 + 1).to_le_bytes());
        assert!(matches!(decode(&bytes), Err(DecodeError::TooMany { .. })));

        // A Gossip frame of a few dozen bytes claiming u16::MAX votes: at
        // 12 bytes per vote it is refused before ~2.6 MB is reserved.
        let mut bytes = vec![TAG_GOSSIP];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // config_id
        bytes.extend_from_slice(&1u64.to_le_bytes()); // config_seq
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no items
        bytes.extend_from_slice(&u16::MAX.to_le_bytes()); // vote count
        bytes.extend_from_slice(&[0u8; 12]); // one vote's worth
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeError::Truncated {
                need: u16::MAX as usize * 12,
                have: 12
            }
        );

        // A Vote whose bitmap claims 2^24 bits (262,144 words, 2 MiB) in
        // a frame that carries none of them.
        let mut bytes = vec![TAG_VOTE];
        bytes.extend_from_slice(&7u64.to_le_bytes()); // config_id
        bytes.extend_from_slice(&9u64.to_le_bytes()); // proposal hash
        bytes.extend_from_slice(&(1u32 << 24).to_le_bytes()); // bit length
        assert_eq!(
            decode(&bytes).unwrap_err(),
            DecodeError::Truncated {
                need: (1 << 24) / 64 * 8,
                have: 0
            }
        );
    }

    /// One message of every family, for batch nesting tests.
    fn one_of_each_family() -> Vec<Message> {
        let p = Arc::new(sample_proposal());
        let snapshot = ConfigSnapshot {
            id: ConfigId(9),
            seq: 3,
            members: Arc::new(vec![member(1), member(2)]),
        };
        let alerts: Arc<[Alert]> = vec![Alert::remove(
            NodeId::from_u128(1),
            NodeId::from_u128(2),
            Endpoint::new("s", 9),
            ConfigId(3),
            4,
        )]
        .into();
        let mut bitmap = BitVec::new(77);
        bitmap.set(5);
        let vote = VoteState {
            hash: ProposalHash(0xfeed),
            bitmap,
        };
        vec![
            Message::PreJoinReq { joiner: member(1) },
            Message::PreJoinResp {
                status: JoinStatus::SafeToJoin,
                config_id: ConfigId(4),
                observers: vec![Endpoint::new("o1", 1)],
                snapshot: Some(snapshot.clone()),
            },
            Message::JoinReq {
                joiner: member(2),
                config_id: ConfigId(4),
                ring: 3,
            },
            Message::JoinResp {
                status: JoinStatus::AlreadyMember,
                snapshot: None,
            },
            Message::AlertBatch {
                config_id: ConfigId(3),
                alerts: Arc::clone(&alerts),
            },
            Message::Gossip {
                config_id: ConfigId(1),
                config_seq: 12,
                items: alerts.iter().map(item_of).collect(),
                votes: vec![vote.clone()].into(),
            },
            Message::Vote {
                config_id: ConfigId(1),
                state: Arc::new(vote),
                body: Some(Arc::clone(&p)),
            },
            Message::NeedProposal {
                config_id: ConfigId(1),
                hash: ProposalHash(0xdead),
            },
            Message::ProposalBody {
                config_id: ConfigId(1),
                proposal: Arc::clone(&p),
            },
            Message::Phase1a {
                config_id: ConfigId(2),
                rank: Rank::classic(3, 1),
            },
            Message::Phase1b {
                config_id: ConfigId(2),
                rank: Rank::classic(3, 1),
                sender: 17,
                vrnd: Some(Rank::FAST),
                vval: Some(Arc::clone(&p)),
            },
            Message::Phase2a {
                config_id: ConfigId(2),
                rank: Rank::classic(1, 0),
                value: Arc::clone(&p),
            },
            Message::Phase2b {
                config_id: ConfigId(2),
                rank: Rank::classic(1, 0),
                sender: 4,
            },
            Message::Decision {
                config_id: ConfigId(77),
                proposal: p,
            },
            Message::Probe { seq: 7 },
            Message::ProbeAck {
                seq: 7,
                config_seq: 3,
            },
            Message::Leave {
                subject: NodeId::from_u128(42),
            },
            Message::ConfigPull { have_seq: 11 },
            Message::ConfigPush { snapshot },
        ]
    }

    #[test]
    fn batch_roundtrips_every_family_in_order() {
        let msgs = one_of_each_family();
        let batch = Message::Batch { msgs: msgs.clone() };
        let bytes = encode_to_vec(&batch);
        assert_eq!(
            encoded_len(&batch),
            bytes.len() + 4,
            "batch size accounting must mirror the encoder"
        );
        match decode(&bytes).expect("batch must decode") {
            Message::Batch { msgs: decoded } => {
                assert_eq!(decoded.len(), msgs.len());
                for (d, m) in decoded.iter().zip(&msgs) {
                    assert_eq!(
                        encode_to_vec(d),
                        encode_to_vec(m),
                        "batched {} must survive bit-exactly",
                        m.kind()
                    );
                }
            }
            other => panic!("expected Batch, got {}", other.kind()),
        }
    }

    #[test]
    fn batch_decode_rejects_nesting() {
        let inner = Message::Batch {
            msgs: vec![Message::Probe { seq: 1 }],
        };
        // Hand-encode the outer frame: the encoder debug-asserts against
        // nesting, so build the bytes manually.
        let mut bytes = vec![TAG_BATCH];
        bytes.extend_from_slice(&1u16.to_le_bytes());
        encode(&inner, &mut bytes);
        let err = decode(&bytes).expect_err("nested batch must be refused");
        assert_eq!(err, DecodeError::NestedBatch);
    }

    #[test]
    fn batch_decode_rejects_floods_without_allocating() {
        // A forged count far beyond the per-batch cap in a tiny buffer.
        let mut bytes = vec![TAG_BATCH];
        bytes.extend_from_slice(&u16::MAX.to_le_bytes());
        let err = decode(&bytes).expect_err("absurd batch count must be refused");
        assert_eq!(
            err,
            DecodeError::TooMany {
                count: u16::MAX as usize,
                cap: MAX_BATCH_MSGS
            }
        );

        // A count within the cap but impossible for the bytes present.
        let mut bytes = vec![TAG_BATCH];
        bytes.extend_from_slice(&1_000u16.to_le_bytes());
        bytes.extend_from_slice(&[TAG_PROBE; 16]);
        assert!(decode(&bytes).is_err(), "truncated batch must be refused");

        // A batch whose total bytes exceed the configured ceiling is
        // refused before decoding any nested message.
        let msgs: Vec<Message> = (0..4).map(|seq| Message::Probe { seq }).collect();
        let bytes = encode_to_vec(&Message::Batch { msgs });
        let tight = DecodeLimits {
            max_batch_bytes: 8,
            ..DecodeLimits::default()
        };
        let err = decode_with_limits(&bytes, tight)
            .expect_err("oversized batch bytes must be refused");
        assert!(
            matches!(err, DecodeError::BatchTooLarge { cap: 8, .. }),
            "got: {err}"
        );
        assert!(decode(&bytes).is_ok(), "default limits accept it");

        // The per-batch message cap applies even when the bytes fit.
        let small = DecodeLimits {
            max_batch_msgs: 3,
            ..DecodeLimits::default()
        };
        let err = decode_with_limits(&bytes, small)
            .expect_err("over-count batch must be refused");
        assert_eq!(err, DecodeError::TooMany { count: 4, cap: 3 });
    }

    #[test]
    fn proposal_roundtrip_preserves_hash() {
        let p = sample_proposal();
        let m = Message::Decision {
            config_id: ConfigId(77),
            proposal: Arc::new(p.clone()),
        };
        match roundtrip(&m) {
            Message::Decision { proposal, .. } => assert_eq!(proposal.hash(), p.hash()),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn quota_tracker_enforces_frame_budget_per_interval() {
        let peer = Endpoint::new("peer-1", 1);
        let other = Endpoint::new("peer-2", 1);
        let mut q = QuotaTracker::new(PeerQuota {
            frames_per_interval: 2,
            bytes_per_interval: 0,
            interval_ms: 1_000,
        });
        assert!(q.admit(peer, 10, 0).is_ok());
        assert!(q.admit(peer, 10, 500).is_ok());
        assert_eq!(
            q.admit(peer, 10, 900),
            Err(QuotaExceeded::Frames { limit: 2 }),
            "third frame in the window is over budget"
        );
        assert_eq!(q.dropped(), 1);
        // A different peer has its own budget.
        assert!(q.admit(other, 10, 900).is_ok());
        // The next window resets the count.
        assert!(q.admit(peer, 10, 1_000).is_ok());
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn quota_tracker_enforces_byte_budget_and_unlimited_passes() {
        let peer = Endpoint::new("peer-b", 1);
        let mut q = QuotaTracker::new(PeerQuota {
            frames_per_interval: 0,
            bytes_per_interval: 100,
            interval_ms: 1_000,
        });
        assert!(q.admit(peer, 60, 0).is_ok());
        assert_eq!(
            q.admit(peer, 60, 10),
            Err(QuotaExceeded::Bytes { limit: 100 }),
            "120 bytes exceed the 100-byte window budget"
        );
        assert!(q.admit(peer, 40, 20).is_ok(), "exactly filling the budget is fine");
        assert_eq!(q.dropped(), 1);

        let mut open = QuotaTracker::new(PeerQuota::unlimited());
        for i in 0..10_000u64 {
            assert!(open.admit(peer, 1 << 20, i).is_ok());
        }
        assert_eq!(open.dropped(), 0);
    }

    #[test]
    fn quota_tracker_retain_drops_departed_peers() {
        let a = Endpoint::new("qa", 1);
        let b = Endpoint::new("qb", 1);
        let mut q = QuotaTracker::new(PeerQuota {
            frames_per_interval: 1,
            bytes_per_interval: 0,
            interval_ms: 1_000,
        });
        assert!(q.admit(a, 1, 0).is_ok());
        assert!(q.admit(b, 1, 0).is_ok());
        let mut live = crate::hash::DetHashSet::default();
        live.insert(a);
        q.retain_peers(&live);
        assert_eq!(q.windows.len(), 1, "departed peer's window is reclaimed");
    }
}
