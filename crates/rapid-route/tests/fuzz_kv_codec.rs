//! Robustness properties of the KV wire codec (the data-plane sibling of
//! `rapid-core/tests/fuzz_codec.rs`): decoding never panics on arbitrary
//! or mutated input, every message family round-trips exactly with
//! `encoded_len` in lockstep, batches never nest, the batch caps of
//! `DecodeLimits` apply before anything nested is decoded, and the tags
//! of the retired coordinator forwards decode to a typed error.

use proptest::prelude::*;

use rapid_core::codec::{DecodeError, DecodeLimits};
use rapid_core::id::Endpoint;
use rapid_core::rng::Xoshiro256;
use rapid_route::kv::{
    self, KvMsg, PartitionDigest, CRESP_ACKED, CRESP_FAILED, CRESP_FOUND, CRESP_MISSING,
    CRESP_NOT_LEADER, CRESP_OVERLOADED,
};

/// Non-batch message families `sample_message` cycles through.
const FAMILIES: u64 = 12;

/// Every `CResp` verdict code.
const CRESP_CODES: [u8; 6] = [
    CRESP_ACKED,
    CRESP_FOUND,
    CRESP_MISSING,
    CRESP_FAILED,
    CRESP_OVERLOADED,
    CRESP_NOT_LEADER,
];

fn encode_to_vec(msg: &KvMsg) -> Vec<u8> {
    let mut bytes = Vec::new();
    kv::encode(msg, &mut bytes);
    bytes
}

proptest! {
    /// Arbitrary byte soup never panics the decoder — nor does soup
    /// behind a plausible tag, which reaches the per-family readers.
    #[test]
    fn decode_never_panics_on_garbage(
        tag in 0u8..24,
        bytes in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let _ = kv::decode(&bytes);
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&bytes);
        let _ = kv::decode(&tagged);
    }

    /// Truncating or flipping a byte of a valid frame never panics.
    #[test]
    fn decode_survives_mutation(
        seeds in prop::collection::vec(0u64..100_000, 1..6),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut bytes = encode_to_vec(&sample_frame(&seeds));
        let _ = kv::decode(&bytes[..cut.index(bytes.len())]);
        let i = flip.index(bytes.len());
        bytes[i] ^= 0x55;
        let _ = kv::decode(&bytes);
    }

    /// Every message family round-trips to an equal message, and the
    /// arithmetic size accounting agrees with the real encoder.
    #[test]
    fn roundtrip_is_exact(seed in 0u64..100_000) {
        let msg = sample_message(seed);
        let bytes = encode_to_vec(&msg);
        prop_assert_eq!(kv::encoded_len(&msg), bytes.len());
        prop_assert_eq!(kv::decode(&bytes), Ok(msg));
    }

    /// Tags 1–4 carried the retired coordinator forwards (`Put`,
    /// `PutAck`, `Get`, `GetResp`) and stay unassigned: a frame starting
    /// with one, alone or inside a batch, is an unknown tag, whatever
    /// follows it.
    #[test]
    fn retired_tags_decode_to_a_typed_error(
        tag in 1u8..5,
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut frame = vec![tag];
        frame.extend_from_slice(&bytes);
        prop_assert_eq!(kv::decode(&frame), Err(DecodeError::UnknownTag(tag)));
        let mut batch = vec![batch_tag()];
        batch.extend_from_slice(&1u32.to_le_bytes());
        batch.extend_from_slice(&frame);
        prop_assert_eq!(kv::decode(&batch), Err(DecodeError::UnknownTag(tag)));
    }

    /// Any mix of families coalesced into one `Batch` frame round-trips
    /// in order — but a batch inside a batch is refused, never unpacked.
    #[test]
    fn batches_roundtrip_and_never_nest(seeds in prop::collection::vec(0u64..100_000, 1..24)) {
        let batch = KvMsg::Batch(seeds.iter().map(|&s| sample_message(s)).collect());
        let bytes = encode_to_vec(&batch);
        prop_assert_eq!(kv::encoded_len(&batch), bytes.len());
        prop_assert_eq!(kv::decode(&bytes), Ok(batch));
        // The encoder refuses to build a nested batch, so forge one: the
        // batch tag and a count of one, then the valid batch as the item.
        let mut nested = vec![bytes[0]];
        nested.extend_from_slice(&1u32.to_le_bytes());
        nested.extend_from_slice(&bytes);
        prop_assert_eq!(kv::decode(&nested), Err(DecodeError::NestedBatch));
    }
}

/// The batch tag, read off an honest encoding.
fn batch_tag() -> u8 {
    encode_to_vec(&KvMsg::Batch(Vec::new()))[0]
}

/// A batch declaring more messages than `DecodeLimits::max_batch_msgs`
/// is refused on its count, before any nested decode: the items are
/// unknown tags, which a nested decode would report instead.
#[test]
fn over_count_batch_is_refused_before_nested_decode() {
    let cap = DecodeLimits::default().max_batch_msgs;
    let mut bytes = vec![batch_tag()];
    bytes.extend_from_slice(&(cap as u32 + 1).to_le_bytes());
    bytes.resize(bytes.len() + cap + 1, 0xFF);
    assert_eq!(
        kv::decode(&bytes),
        Err(DecodeError::TooMany {
            count: cap + 1,
            cap
        })
    );
    // At the cap, the same frame reaches the nested decoder.
    bytes[1..5].copy_from_slice(&(cap as u32).to_le_bytes());
    assert_eq!(kv::decode(&bytes), Err(DecodeError::UnknownTag(0xFF)));
}

/// A batch spanning more than `DecodeLimits::max_batch_bytes` is refused
/// on its size, before its count is even read.
#[test]
fn over_bytes_batch_is_refused_before_nested_decode() {
    let cap = DecodeLimits::default().max_batch_bytes;
    let mut bytes = vec![batch_tag()];
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.resize(1 + cap + 1, 0xFF);
    assert_eq!(
        kv::decode(&bytes),
        Err(DecodeError::BatchTooLarge {
            bytes: cap + 1,
            cap
        })
    );
}

/// One message, or a batch when several seeds are given.
fn sample_frame(seeds: &[u64]) -> KvMsg {
    match seeds {
        [seed] => sample_message(*seed),
        _ => KvMsg::Batch(seeds.iter().map(|&s| sample_message(s)).collect()),
    }
}

/// Deterministically generates one of each non-batch message family
/// from a seed.
fn sample_message(seed: u64) -> KvMsg {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // A small host pool: endpoints intern their host permanently.
    let ep = |rng: &mut Xoshiro256| {
        Endpoint::new(
            format!("kv-fuzz-{}", rng.gen_range(8)),
            rng.gen_range(65_535) as u16 + 1,
        )
    };
    // Empty, ASCII and multi-byte strings.
    let text = |rng: &mut Xoshiro256| match rng.gen_range(4) {
        0 => String::new(),
        1 => format!("k{}", rng.gen_range(1_000)),
        2 => format!("clé-中-🦀-{}", rng.gen_range(10)),
        _ => "v".repeat(rng.gen_range(300) as usize),
    };
    let entries = |rng: &mut Xoshiro256| -> Vec<(String, String, u64)> {
        (0..rng.gen_range(5))
            .map(|_| (text(rng), text(rng), rng.next_u64()))
            .collect()
    };
    let digests = |rng: &mut Xoshiro256| -> Vec<(u32, PartitionDigest)> {
        (0..rng.gen_range(6))
            .map(|_| {
                let digest = PartitionDigest {
                    floor: rng.next_u64(),
                    count: rng.next_u64(),
                    xor: rng.next_u64(),
                };
                (rng.next_u64() as u32, digest)
            })
            .collect()
    };
    match seed % FAMILIES {
        0 => KvMsg::Replicate {
            partition: rng.next_u64() as u32,
            req: rng.next_u64(),
            leader: ep(&mut rng),
            key: text(&mut rng),
            val: text(&mut rng),
            version: rng.next_u64(),
        },
        1 => KvMsg::RepAck {
            req: rng.next_u64(),
        },
        2 => KvMsg::Handoff {
            partition: rng.next_u64() as u32,
            entries: entries(&mut rng),
        },
        3 => KvMsg::DigestReq {
            digests: digests(&mut rng),
        },
        4 => KvMsg::DigestResp {
            digests: digests(&mut rng),
        },
        5 => KvMsg::RepairPull {
            partitions: (0..rng.gen_range(9))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        },
        6 => KvMsg::RepairPush {
            partition: rng.next_u64() as u32,
            settled: rng.gen_bool(0.5),
            entries: entries(&mut rng),
        },
        7 => KvMsg::Sub,
        8 => KvMsg::View {
            config_id: rng.next_u64(),
            seq: rng.next_u64(),
            members: (0..rng.gen_range(6))
                .map(|_| {
                    let id = (rng.next_u64() as u128) << 64 | rng.next_u64() as u128;
                    (id, ep(&mut rng))
                })
                .collect(),
        },
        9 => KvMsg::CPut {
            req: rng.next_u64(),
            key: text(&mut rng),
            val: text(&mut rng),
        },
        10 => KvMsg::CGet {
            req: rng.next_u64(),
            key: text(&mut rng),
            floor: rng.next_u64(),
        },
        _ => KvMsg::CResp {
            req: rng.next_u64(),
            code: CRESP_CODES[rng.gen_range(CRESP_CODES.len() as u64) as usize],
            val: text(&mut rng),
            version: rng.next_u64(),
        },
    }
}
