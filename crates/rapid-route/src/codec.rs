//! The KV data plane's wire format, reached through [`crate::kv`]: a
//! one-byte tag, then little-endian fields, `u32`-prefixed strings and
//! endpoints — all read and written by the [`rapid_core::codec`] kit,
//! which also owns the hostile-input rules.

use rapid_core::codec::{
    endpoint_len, put_endpoint, put_str32, str32_len, DecodeError, DecodeLimits, Reader,
};
use rapid_core::id::Endpoint;
use rapid_core::outbox::BatchMessage;

use crate::store::PartitionDigest;

/// Data-plane messages exchanged between KV nodes. On the real transport
/// these ride in opaque app frames; in the simulator they share the
/// simulated network with membership traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum KvMsg {
    /// Leader-to-replica write propagation.
    Replicate {
        /// Partition of the key.
        partition: u32,
        /// Leader-local request id.
        req: u64,
        /// The leader to confirm to.
        leader: Endpoint,
        /// Key.
        key: String,
        /// Value.
        val: String,
        /// Version assigned by the leader.
        version: u64,
    },
    /// Replica's write confirmation.
    RepAck {
        /// Leader-local request id.
        req: u64,
    },
    /// Bulk partition transfer during rebalance.
    Handoff {
        /// The partition being transferred.
        partition: u32,
        /// `(key, value, version)` triples; receivers merge by highest
        /// version, so handoffs commute with concurrent writes.
        entries: Vec<(String, String, u64)>,
    },
    /// Anti-entropy: the sender's digests for partitions both ends
    /// replicate (one batched message per peer per repair tick).
    DigestReq {
        /// `(partition, sender's digest)` pairs.
        digests: Vec<(u32, PartitionDigest)>,
    },
    /// Anti-entropy: the responder's digests for the subset of a
    /// [`KvMsg::DigestReq`] that did not match its own stores.
    DigestResp {
        /// `(partition, responder's digest)` pairs, mismatches only.
        digests: Vec<(u32, PartitionDigest)>,
    },
    /// Anti-entropy: request the full contents of these partitions from
    /// a replica believed to be ahead.
    RepairPull {
        /// Partitions to transfer back.
        partitions: Vec<u32>,
    },
    /// Anti-entropy: one partition's full contents, answering a
    /// [`KvMsg::RepairPull`]. Receivers merge by highest version (the
    /// version floor itself rides the digest messages, not the push).
    RepairPush {
        /// The partition.
        partition: u32,
        /// Whether the sender itself is *settled* (not awaiting a
        /// handoff) for this partition — only a settled sender's push
        /// clears the receiver's awaiting guard, since an unsettled
        /// sender may hold partial data.
        settled: bool,
        /// `(key, value, version)` triples.
        entries: Vec<(String, String, u64)>,
    },
    /// A smart client subscribing to view pushes from this node. The
    /// sender endpoint identifies the client; the node answers with the
    /// current [`KvMsg::View`] immediately and pushes every later one.
    Sub,
    /// A membership view pushed to a subscribed client: enough to
    /// reconstruct the exact server-side
    /// [`Configuration`](rapid_core::config::Configuration) (same id,
    /// same seq, same member order) so the client's cached placement is
    /// byte-for-byte the server's.
    View {
        /// The configuration id (trusted, as in wire snapshots).
        config_id: u64,
        /// Monotone view sequence number — clients adopt only newer.
        seq: u64,
        /// `(node id, address)` per member; metadata does not influence
        /// placement so it stays off the client wire.
        members: Vec<(u128, Endpoint)>,
    },
    /// A client write, sent to the key's partition leader in the
    /// client's view. Any other node answers [`CRESP_NOT_LEADER`].
    CPut {
        /// Client-local request id, echoed in [`KvMsg::CResp`].
        req: u64,
        /// Key.
        key: String,
        /// Value.
        val: String,
    },
    /// A client read, routed like [`KvMsg::CPut`]. Carries the client's
    /// acked-version floor so read-your-writes holds across leader
    /// changes.
    CGet {
        /// Client-local request id.
        req: u64,
        /// Key.
        key: String,
        /// Lowest version the client will accept for this key (0 = any).
        floor: u64,
    },
    /// The node's verdict on a client op, addressed to the client.
    CResp {
        /// The client's request id.
        req: u64,
        /// Outcome discriminant — see the `CRESP_*` constants.
        code: u8,
        /// The value (reads that found the key; empty otherwise).
        val: String,
        /// The version (acked writes / found reads), the suggested retry
        /// delay in ms when `code` is [`CRESP_OVERLOADED`], or the
        /// node's view seq when `code` is [`CRESP_NOT_LEADER`].
        version: u64,
    },
    /// Several data-plane messages for one destination, coalesced into a
    /// single wire frame by the per-peer outbox. Delivered in order;
    /// batches never nest.
    Batch(Vec<KvMsg>),
}

/// [`KvMsg::CResp`] code: write fully replicated; `version` is the
/// assigned version.
pub const CRESP_ACKED: u8 = 0;
/// [`KvMsg::CResp`] code: read found the key; `val`/`version` carry it.
pub const CRESP_FOUND: u8 = 1;
/// [`KvMsg::CResp`] code: read completed, key absent.
pub const CRESP_MISSING: u8 = 2;
/// [`KvMsg::CResp`] code: op failed or timed out (retryable).
pub const CRESP_FAILED: u8 = 3;
/// [`KvMsg::CResp`] code: shed by admission control before any work;
/// `version` carries the suggested retry delay in ms. Shed ops are
/// never applied, so they can never be acked.
pub const CRESP_OVERLOADED: u8 = 4;
/// [`KvMsg::CResp`] code: the node does not lead the key's partition in
/// its view, whose seq `version` carries; it kept no state for the op.
/// The client re-routes by its own view, or by one at least that new.
pub const CRESP_NOT_LEADER: u8 = 5;

impl BatchMessage for KvMsg {
    fn batch(msgs: Vec<KvMsg>) -> KvMsg {
        KvMsg::Batch(msgs)
    }

    fn encoded_size(&self) -> usize {
        encoded_len(self)
    }
}

// Tags 1–4 carried the retired coordinator forwards (`Put`, `PutAck`,
// `Get`, `GetResp`). They stay unassigned, so they decode to
// `DecodeError::UnknownTag`.
const TAG_REPLICATE: u8 = 5;
const TAG_REP_ACK: u8 = 6;
const TAG_HANDOFF: u8 = 7;
const TAG_DIGEST_REQ: u8 = 8;
const TAG_DIGEST_RESP: u8 = 9;
const TAG_REPAIR_PULL: u8 = 10;
const TAG_REPAIR_PUSH: u8 = 11;
const TAG_KV_BATCH: u8 = 12;
const TAG_SUB: u8 = 13;
const TAG_VIEW: u8 = 14;
const TAG_CPUT: u8 = 15;
const TAG_CGET: u8 = 16;
const TAG_CRESP: u8 = 17;

/// Encoded size of one `(partition, digest)` pair.
const DIGEST_PAIR_LEN: usize = 4 + 8 + 8 + 8;
/// Smallest `(key, value, version)` entry: two empty strings + version.
const MIN_ENTRY_LEN: usize = 4 + 4 + 8;
/// Smallest view member: id + empty host + port.
const MIN_MEMBER_LEN: usize = 16 + 2 + 2;

/// Encoded size of a message, for simulator bandwidth accounting and
/// rebalance byte metering — kept in lockstep with [`encode`].
pub fn encoded_len(msg: &KvMsg) -> usize {
    let entries_len = |entries: &[(String, String, u64)]| {
        4 + entries
            .iter()
            .map(|(k, v, _)| str32_len(k) + str32_len(v) + 8)
            .sum::<usize>()
    };
    1 + match msg {
        KvMsg::Replicate {
            leader, key, val, ..
        } => 4 + 8 + endpoint_len(leader) + str32_len(key) + str32_len(val) + 8,
        KvMsg::RepAck { .. } => 8,
        KvMsg::Handoff { entries, .. } => 4 + entries_len(entries),
        KvMsg::DigestReq { digests } | KvMsg::DigestResp { digests } => {
            4 + digests.len() * DIGEST_PAIR_LEN
        }
        KvMsg::RepairPull { partitions } => 4 + partitions.len() * 4,
        KvMsg::RepairPush { entries, .. } => 4 + 1 + entries_len(entries),
        KvMsg::Sub => 0,
        KvMsg::View { members, .. } => {
            8 + 8
                + 4
                + members
                    .iter()
                    .map(|(_, ep)| 16 + endpoint_len(ep))
                    .sum::<usize>()
        }
        KvMsg::CPut { key, val, .. } => 8 + str32_len(key) + str32_len(val),
        KvMsg::CGet { key, .. } => 8 + str32_len(key) + 8,
        KvMsg::CResp { val, .. } => 8 + 1 + str32_len(val) + 8,
        KvMsg::Batch(msgs) => 4 + msgs.iter().map(encoded_len).sum::<usize>(),
    }
}

fn put_entries(buf: &mut Vec<u8>, entries: &[(String, String, u64)]) {
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (k, v, ver) in entries {
        put_str32(buf, k);
        put_str32(buf, v);
        buf.extend_from_slice(&ver.to_le_bytes());
    }
}

fn put_digests(buf: &mut Vec<u8>, tag: u8, digests: &[(u32, PartitionDigest)]) {
    buf.push(tag);
    buf.extend_from_slice(&(digests.len() as u32).to_le_bytes());
    for (p, d) in digests {
        buf.extend_from_slice(&p.to_le_bytes());
        for word in [d.floor, d.count, d.xor] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }
}

/// Encodes a message into `buf` (appended).
pub fn encode(msg: &KvMsg, buf: &mut Vec<u8>) {
    match msg {
        KvMsg::Replicate {
            partition,
            req,
            leader,
            key,
            val,
            version,
        } => {
            buf.push(TAG_REPLICATE);
            buf.extend_from_slice(&partition.to_le_bytes());
            buf.extend_from_slice(&req.to_le_bytes());
            put_endpoint(buf, leader);
            put_str32(buf, key);
            put_str32(buf, val);
            buf.extend_from_slice(&version.to_le_bytes());
        }
        KvMsg::RepAck { req } => {
            buf.push(TAG_REP_ACK);
            buf.extend_from_slice(&req.to_le_bytes());
        }
        KvMsg::Handoff { partition, entries } => {
            buf.push(TAG_HANDOFF);
            buf.extend_from_slice(&partition.to_le_bytes());
            put_entries(buf, entries);
        }
        KvMsg::DigestReq { digests } => put_digests(buf, TAG_DIGEST_REQ, digests),
        KvMsg::DigestResp { digests } => put_digests(buf, TAG_DIGEST_RESP, digests),
        KvMsg::RepairPull { partitions } => {
            buf.push(TAG_REPAIR_PULL);
            buf.extend_from_slice(&(partitions.len() as u32).to_le_bytes());
            for p in partitions {
                buf.extend_from_slice(&p.to_le_bytes());
            }
        }
        KvMsg::RepairPush {
            partition,
            settled,
            entries,
        } => {
            buf.push(TAG_REPAIR_PUSH);
            buf.extend_from_slice(&partition.to_le_bytes());
            buf.push(*settled as u8);
            put_entries(buf, entries);
        }
        KvMsg::Sub => buf.push(TAG_SUB),
        KvMsg::View {
            config_id,
            seq,
            members,
        } => {
            buf.push(TAG_VIEW);
            buf.extend_from_slice(&config_id.to_le_bytes());
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(&(members.len() as u32).to_le_bytes());
            for (id, ep) in members {
                buf.extend_from_slice(&id.to_le_bytes());
                put_endpoint(buf, ep);
            }
        }
        KvMsg::CPut { req, key, val } => {
            buf.push(TAG_CPUT);
            buf.extend_from_slice(&req.to_le_bytes());
            put_str32(buf, key);
            put_str32(buf, val);
        }
        KvMsg::CGet { req, key, floor } => {
            buf.push(TAG_CGET);
            buf.extend_from_slice(&req.to_le_bytes());
            put_str32(buf, key);
            buf.extend_from_slice(&floor.to_le_bytes());
        }
        KvMsg::CResp {
            req,
            code,
            val,
            version,
        } => {
            buf.push(TAG_CRESP);
            buf.extend_from_slice(&req.to_le_bytes());
            buf.push(*code);
            put_str32(buf, val);
            buf.extend_from_slice(&version.to_le_bytes());
        }
        KvMsg::Batch(msgs) => {
            debug_assert!(
                !msgs.iter().any(|m| matches!(m, KvMsg::Batch(_))),
                "batches must not nest"
            );
            buf.push(TAG_KV_BATCH);
            buf.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
            for m in msgs {
                encode(m, buf);
            }
        }
    }
}

/// Decodes one message under the kit's default [`DecodeLimits`].
pub fn decode(bytes: &[u8]) -> Result<KvMsg, DecodeError> {
    decode_one(&mut Reader::new(bytes, DecodeLimits::default()), false)
}

fn string(r: &mut Reader<'_>) -> Result<String, DecodeError> {
    r.str32().map(str::to_owned)
}

fn entries(r: &mut Reader<'_>) -> Result<Vec<(String, String, u64)>, DecodeError> {
    let n = r.u32()? as usize;
    r.list(n, MIN_ENTRY_LEN, |r| Ok((string(r)?, string(r)?, r.u64()?)))
}

fn digests(r: &mut Reader<'_>) -> Result<Vec<(u32, PartitionDigest)>, DecodeError> {
    let n = r.u32()? as usize;
    r.list(n, DIGEST_PAIR_LEN, |r| {
        let p = r.u32()?;
        let d = PartitionDigest {
            floor: r.u64()?,
            count: r.u64()?,
            xor: r.u64()?,
        };
        Ok((p, d))
    })
}

/// Decodes one message from the reader; `nested` is true inside a batch
/// (batches never nest).
fn decode_one(r: &mut Reader<'_>, nested: bool) -> Result<KvMsg, DecodeError> {
    let msg = match r.u8()? {
        TAG_REPLICATE => KvMsg::Replicate {
            partition: r.u32()?,
            req: r.u64()?,
            leader: r.endpoint()?,
            key: string(r)?,
            val: string(r)?,
            version: r.u64()?,
        },
        TAG_REP_ACK => KvMsg::RepAck { req: r.u64()? },
        TAG_HANDOFF => KvMsg::Handoff {
            partition: r.u32()?,
            entries: entries(r)?,
        },
        TAG_DIGEST_REQ => KvMsg::DigestReq {
            digests: digests(r)?,
        },
        TAG_DIGEST_RESP => KvMsg::DigestResp {
            digests: digests(r)?,
        },
        TAG_REPAIR_PULL => {
            let n = r.u32()? as usize;
            KvMsg::RepairPull {
                partitions: r.list(n, 4, Reader::u32)?,
            }
        }
        TAG_REPAIR_PUSH => KvMsg::RepairPush {
            partition: r.u32()?,
            settled: r.u8()? == 1,
            entries: entries(r)?,
        },
        TAG_SUB => KvMsg::Sub,
        TAG_VIEW => {
            let config_id = r.u64()?;
            let seq = r.u64()?;
            let n = r.u32()? as usize;
            KvMsg::View {
                config_id,
                seq,
                members: r.list(n, MIN_MEMBER_LEN, |r| Ok((r.u128()?, r.endpoint()?)))?,
            }
        }
        TAG_CPUT => KvMsg::CPut {
            req: r.u64()?,
            key: string(r)?,
            val: string(r)?,
        },
        TAG_CGET => KvMsg::CGet {
            req: r.u64()?,
            key: string(r)?,
            floor: r.u64()?,
        },
        TAG_CRESP => KvMsg::CResp {
            req: r.u64()?,
            code: r.u8()?,
            val: string(r)?,
            version: r.u64()?,
        },
        TAG_KV_BATCH => {
            let n = r.open_batch(nested, |r| r.u32().map(|n| n as usize))?;
            // The smallest message is one byte (a bare `Sub` tag).
            KvMsg::Batch(r.list(n, 1, |r| decode_one(r, true))?)
        }
        tag => return Err(DecodeError::UnknownTag(tag)),
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips_and_sizes_match() {
        let msgs = vec![
            KvMsg::Replicate {
                partition: 3,
                req: 11,
                leader: Endpoint::new("kv-2", 7100),
                key: "k".into(),
                val: "v".into(),
                version: 78,
            },
            KvMsg::RepAck { req: 11 },
            KvMsg::Handoff {
                partition: 4,
                entries: vec![("a".into(), "1".into(), 5), ("b".into(), "2".into(), 6)],
            },
            KvMsg::DigestReq {
                digests: vec![(
                    3,
                    PartitionDigest {
                        floor: 9,
                        count: 2,
                        xor: 0xDEAD,
                    },
                )],
            },
            KvMsg::DigestResp {
                digests: vec![
                    (3, PartitionDigest::default()),
                    (
                        7,
                        PartitionDigest {
                            floor: 1,
                            count: 1,
                            xor: 42,
                        },
                    ),
                ],
            },
            KvMsg::RepairPull {
                partitions: vec![3, 7, 11],
            },
            KvMsg::RepairPush {
                partition: 7,
                settled: true,
                entries: vec![("k".into(), "v".into(), 12)],
            },
            KvMsg::Sub,
            KvMsg::View {
                config_id: 0xFEED,
                seq: 3,
                members: vec![
                    (1, Endpoint::new("kv-0", 7100)),
                    (2, Endpoint::new("kv-1", 7100)),
                ],
            },
            KvMsg::CPut {
                req: 21,
                key: "k".into(),
                val: "v".into(),
            },
            KvMsg::CGet {
                req: 22,
                key: "k".into(),
                floor: 5,
            },
            KvMsg::CResp {
                req: 21,
                code: CRESP_OVERLOADED,
                val: String::new(),
                version: 250,
            },
        ];
        // Every family also survives nested in one batch frame, in order.
        let batch = KvMsg::Batch(msgs.clone());
        let mut buf = Vec::new();
        encode(&batch, &mut buf);
        assert_eq!(buf.len(), encoded_len(&batch), "batch size mismatch");
        assert_eq!(decode(&buf).unwrap(), batch);
        for msg in msgs {
            let mut buf = Vec::new();
            encode(&msg, &mut buf);
            assert_eq!(buf.len(), encoded_len(&msg), "size mismatch for {msg:?}");
            assert_eq!(decode(&buf).unwrap(), msg);
        }
        assert_eq!(decode(&[99, 0, 0]), Err(DecodeError::UnknownTag(99)));
        assert!(matches!(decode(&[]), Err(DecodeError::Truncated { .. })));
        // Forged counts cannot out-size the buffer.
        let truncated = |bytes: &[u8]| matches!(decode(bytes), Err(DecodeError::Truncated { .. }));
        assert!(truncated(&[TAG_DIGEST_REQ, 255, 255, 255, 255]));
        assert!(truncated(&[TAG_REPAIR_PULL, 255, 255, 255, 255]));
        let mut forged_view = vec![TAG_VIEW];
        forged_view.extend_from_slice(&1u64.to_le_bytes());
        forged_view.extend_from_slice(&1u64.to_le_bytes());
        forged_view.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(
            truncated(&forged_view),
            "absurd view member count must be refused"
        );
        assert!(
            matches!(
                decode(&[TAG_KV_BATCH, 255, 255, 255, 255]),
                Err(DecodeError::TooMany { .. })
            ),
            "absurd batch count must be refused"
        );
        // Nested batches are refused.
        let inner = KvMsg::Batch(vec![KvMsg::RepAck { req: 1 }]);
        let mut nested = vec![TAG_KV_BATCH];
        nested.extend_from_slice(&1u32.to_le_bytes());
        encode(&inner, &mut nested);
        assert_eq!(decode(&nested), Err(DecodeError::NestedBatch));
    }
}
