//! Robustness properties of the wire codec: decoding must never panic on
//! arbitrary or mutated input, and valid messages round-trip exactly.

use proptest::prelude::*;

use rapid_core::alert::{Alert, EdgeStatus, GossipItem};
use rapid_core::config::{ConfigId, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::{Proposal, ProposalItem};
use rapid_core::metadata::Metadata;
use rapid_core::paxos::{Rank, VoteState};
use rapid_core::util::BitVec;
use rapid_core::wire::{self, ConfigSnapshot, JoinStatus, Message};

proptest! {
    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = wire::decode(&bytes);
    }

    /// Interned endpoints survive the wire bit-exactly: the host string
    /// (ASCII, non-ASCII, or empty) and port come back unchanged, and the
    /// decoded endpoint is `==` to (i.e. interns to the same symbol as)
    /// the original.
    #[test]
    fn interned_endpoints_roundtrip_through_wire(
        hosts in prop::collection::vec(".{0,24}", 1..8),
        seed in 0u64..10_000,
    ) {
        let mut rng = rapid_core::rng::Xoshiro256::seed_from_u64(seed);
        let observers: Vec<Endpoint> = hosts
            .iter()
            .map(|h| Endpoint::new(h, rng.gen_range(65_535) as u16 + 1))
            .collect();
        // Also exercise the explicit edge cases every round.
        let mut all = observers.clone();
        all.push(Endpoint::new("", 1));
        all.push(Endpoint::new("höst-中-🦀", 7));
        let msg = Message::PreJoinResp {
            status: JoinStatus::SafeToJoin,
            config_id: ConfigId(seed),
            observers: all.clone(),
            snapshot: None,
        };
        let bytes = wire::encode_to_vec(&msg);
        prop_assert_eq!(wire::encoded_len(&msg), bytes.len() + 4);
        match wire::decode(&bytes).expect("valid message must decode") {
            Message::PreJoinResp { observers: decoded, .. } => {
                prop_assert_eq!(&decoded, &all, "endpoints must round-trip");
                for (d, o) in decoded.iter().zip(&all) {
                    prop_assert_eq!(d.host(), o.host());
                    prop_assert_eq!(d.port(), o.port());
                    prop_assert_eq!(d.digest(), o.digest());
                }
            }
            other => prop_assert!(false, "wrong variant {}", other.kind()),
        }
    }

    /// Truncating or flipping a byte of a valid message never panics.
    #[test]
    fn decode_survives_mutation(
        seed in 0u64..1_000,
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
    ) {
        let msg = sample_message(seed);
        let mut bytes = wire::encode_to_vec(&msg);
        // Truncation.
        let cut_at = cut.index(bytes.len().max(1));
        let _ = wire::decode(&bytes[..cut_at]);
        // Bit flip.
        if !bytes.is_empty() {
            let i = flip.index(bytes.len());
            bytes[i] ^= 0x55;
            let _ = wire::decode(&bytes);
        }
    }

    /// Every generated message round-trips to an identical encoding, and
    /// the arithmetic size accounting agrees with the real encoder.
    #[test]
    fn roundtrip_is_exact(seed in 0u64..100_000) {
        let msg = sample_message(seed);
        let bytes = wire::encode_to_vec(&msg);
        prop_assert_eq!(wire::encoded_len(&msg), bytes.len() + 4);
        let decoded = wire::decode(&bytes).expect("valid message must decode");
        prop_assert_eq!(wire::encode_to_vec(&decoded), bytes);
    }

    /// Gossip items round-trip field for field, whatever their mask,
    /// status or metadata, and the size accounting matches the encoder.
    #[test]
    fn gossip_items_roundtrip(seed in 0u64..100_000, n in 0usize..40) {
        let mut rng = rapid_core::rng::Xoshiro256::seed_from_u64(seed);
        let items: Vec<GossipItem> = (0..n).map(|_| gossip_item(&mut rng)).collect();
        let msg = Message::Gossip {
            config_id: ConfigId(seed),
            config_seq: seed ^ 0x5eed,
            items: items.iter().cloned().map(std::sync::Arc::new).collect(),
            votes: Vec::new().into(),
        };
        let bytes = wire::encode_to_vec(&msg);
        prop_assert_eq!(wire::encoded_len(&msg), bytes.len() + 4);
        match wire::decode(&bytes).expect("valid gossip must decode") {
            Message::Gossip { config_id, config_seq, items: decoded, votes } => {
                prop_assert_eq!(config_id, ConfigId(seed));
                prop_assert_eq!(config_seq, seed ^ 0x5eed);
                prop_assert!(votes.is_empty());
                let decoded: Vec<GossipItem> = decoded.iter().map(|i| (**i).clone()).collect();
                prop_assert_eq!(decoded, items);
            }
            other => prop_assert!(false, "wrong variant {}", other.kind()),
        }
    }

    /// Any mix of message families coalesced into a `Batch` frame
    /// round-trips bit-exactly — order preserved — and the batch's
    /// arithmetic size accounting agrees with the real encoder.
    #[test]
    fn batch_roundtrip_is_exact(seeds in prop::collection::vec(0u64..100_000, 1..24)) {
        let msgs: Vec<Message> = seeds.iter().map(|&s| sample_message(s)).collect();
        let per_msg: Vec<Vec<u8>> = msgs.iter().map(wire::encode_to_vec).collect();
        let batch = Message::Batch { msgs };
        let bytes = wire::encode_to_vec(&batch);
        prop_assert_eq!(wire::encoded_len(&batch), bytes.len() + 4);
        match wire::decode(&bytes).expect("valid batch must decode") {
            Message::Batch { msgs: decoded } => {
                prop_assert_eq!(decoded.len(), per_msg.len());
                for (d, original) in decoded.iter().zip(&per_msg) {
                    prop_assert_eq!(&wire::encode_to_vec(d), original);
                }
            }
            other => prop_assert!(false, "expected Batch, got {}", other.kind()),
        }
    }
}

/// A gossip item with any ring mask (the decoder accepts every mask; the
/// node refuses the empty one and rings `>= K`), either status, and
/// metadata on about half of them.
fn gossip_item(rng: &mut rapid_core::rng::Xoshiro256) -> GossipItem {
    let rings = match rng.gen_range(4) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64(),
    };
    GossipItem {
        subject_id: NodeId::from_u128(rng.next_u64() as u128),
        subject_addr: Endpoint::new(format!("s{}", rng.gen_range(100)), rng.gen_range(65_535) as u16 + 1),
        status: if rng.gen_bool(0.5) { EdgeStatus::Up } else { EdgeStatus::Down },
        rings,
        metadata: if rng.gen_bool(0.5) {
            Metadata::with_entry("role", format!("r{}", rng.gen_range(10)))
        } else {
            Metadata::new()
        },
    }
}

/// Deterministically generates one of each message family from a seed.
fn sample_message(seed: u64) -> Message {
    let mut rng = rapid_core::rng::Xoshiro256::seed_from_u64(seed);
    let member = |rng: &mut rapid_core::rng::Xoshiro256| {
        Member::with_metadata(
            NodeId::from_u128(rng.next_u64() as u128),
            Endpoint::new(format!("h{}", rng.gen_range(1_000)), rng.gen_range(65_535) as u16 + 1),
            if rng.gen_bool(0.5) {
                Metadata::with_entry("role", format!("r{}", rng.gen_range(10)))
            } else {
                Metadata::new()
            },
        )
    };
    let alert = |rng: &mut rapid_core::rng::Xoshiro256| {
        Alert::remove(
            NodeId::from_u128(rng.next_u64() as u128),
            NodeId::from_u128(rng.next_u64() as u128),
            Endpoint::new(format!("s{}", rng.gen_range(100)), 1),
            ConfigId(rng.next_u64()),
            rng.gen_range(10) as u8,
        )
    };
    let proposal = |rng: &mut rapid_core::rng::Xoshiro256| {
        let items = (0..rng.gen_range(5))
            .map(|_| {
                ProposalItem::remove(
                    NodeId::from_u128(rng.next_u64() as u128),
                    Endpoint::new(format!("p{}", rng.gen_range(100)), 2),
                )
            })
            .collect();
        std::sync::Arc::new(Proposal::from_items(ConfigId(rng.next_u64()), items))
    };
    match seed % 12 {
        0 => Message::PreJoinReq { joiner: member(&mut rng) },
        1 => Message::PreJoinResp {
            status: JoinStatus::SafeToJoin,
            config_id: ConfigId(rng.next_u64()),
            observers: (0..rng.gen_range(12))
                .map(|i| Endpoint::new(format!("o{i}"), 1))
                .collect(),
            snapshot: None,
        },
        2 => Message::JoinReq {
            joiner: member(&mut rng),
            config_id: ConfigId(rng.next_u64()),
            ring: rng.gen_range(10) as u8,
        },
        3 => Message::JoinResp {
            status: JoinStatus::AlreadyMember,
            snapshot: Some(ConfigSnapshot {
                id: ConfigId(rng.next_u64()),
                seq: rng.next_u64(),
                members: std::sync::Arc::new(
                    (0..rng.gen_range(6)).map(|_| member(&mut rng)).collect(),
                ),
            }),
        },
        4 => Message::AlertBatch {
            config_id: ConfigId(rng.next_u64()),
            alerts: (0..rng.gen_range(8))
                .map(|_| alert(&mut rng))
                .collect::<Vec<_>>()
                .into(),
        },
        5 => {
            let n = rng.gen_range(200) as usize + 1;
            let mut bm = BitVec::new(n);
            for _ in 0..rng.gen_range(8) {
                bm.set(rng.gen_index(n));
            }
            Message::Gossip {
                config_id: ConfigId(rng.next_u64()),
                config_seq: rng.next_u64(),
                items: (0..rng.gen_range(4))
                    .map(|_| std::sync::Arc::new(gossip_item(&mut rng)))
                    .collect::<Vec<_>>()
                    .into(),
                votes: vec![VoteState {
                    hash: rapid_core::membership::ProposalHash(rng.next_u64()),
                    bitmap: bm,
                }]
                .into(),
            }
        }
        6 => Message::Phase1b {
            config_id: ConfigId(rng.next_u64()),
            rank: Rank::classic(rng.gen_range(100) as u32 + 1, rng.gen_range(64) as u32),
            sender: rng.gen_range(64) as u32,
            vrnd: Some(Rank::FAST),
            vval: Some(proposal(&mut rng)),
        },
        7 => Message::Phase2a {
            config_id: ConfigId(rng.next_u64()),
            rank: Rank::classic(1, 0),
            value: proposal(&mut rng),
        },
        8 => Message::Decision {
            config_id: ConfigId(rng.next_u64()),
            proposal: proposal(&mut rng),
        },
        9 => Message::Probe { seq: rng.next_u64() },
        10 => Message::ProbeAck {
            seq: rng.next_u64(),
            config_seq: rng.next_u64(),
        },
        _ => Message::ConfigPull { have_seq: rng.next_u64() },
    }
}
