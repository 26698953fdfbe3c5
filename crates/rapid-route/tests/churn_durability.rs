//! Acked-write durability under random crash scripts: a mesh of hosts,
//! one [`KvNode`] each, with synchronous message delivery, runs a
//! generated op script, loses one host mid-script (its in-flight
//! handoffs die with it) and heals through the removal view plus repair
//! rounds. Every run must satisfy three properties:
//!
//! * no op completes twice;
//! * every acked key reads back at or above its acked version, and
//!   never as `Missing`;
//! * each surviving host's digest snapshot lists each partition it
//!   replicates exactly once.
//!
//! `kv.rs`'s own `Mesh` tests pin fixed timelines; this file is the one
//! that draws the crash point, the victim and the op mix at random.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::Proposal;
use rapid_route::{KvNode, KvOut, KvOutcome, PlacementConfig};

fn members(n: usize) -> Vec<Member> {
    (0..n)
        .map(|i| {
            Member::new(
                NodeId::from_u128(i as u128 + 1),
                Endpoint::new(format!("se-{i}"), 4200),
            )
        })
        .collect()
}

/// A mesh of `n` hosts with synchronous message delivery. Crashed hosts
/// silently eat every frame, like the `Mesh` harness in `kv.rs`.
struct ChurnMesh {
    nodes: Vec<KvNode>,
    config: Arc<Configuration>,
    crashed: Vec<bool>,
}

impl ChurnMesh {
    fn new(n: usize, spec: PlacementConfig) -> ChurnMesh {
        let ms = members(n);
        let config = Configuration::bootstrap(ms.clone());
        let mut nodes: Vec<KvNode> = ms
            .into_iter()
            .map(|m| KvNode::new(m, spec, 1_000, None))
            .collect();
        let mut out = Vec::new();
        for node in &mut nodes {
            node.on_view(Arc::clone(&config), 0, &mut out);
        }
        assert!(out.is_empty(), "initial view must not emit traffic");
        ChurnMesh {
            nodes,
            config,
            crashed: vec![false; n],
        }
    }

    fn addr(&self, idx: usize) -> Endpoint {
        self.nodes[idx].me().addr
    }

    fn idx_of(&self, addr: Endpoint) -> usize {
        self.nodes
            .iter()
            .position(|node| node.me().addr == addr)
            .expect("addressed node exists")
    }

    /// Pumps to quiescence. Returns completed client operations as
    /// `(host, req, outcome)`.
    fn pump(&mut self, origin: usize, seed: Vec<KvOut>, now: u64) -> Vec<(usize, u64, KvOutcome)> {
        let origin_addr = self.addr(origin);
        let mut queue: Vec<(Endpoint, KvOut)> =
            seed.into_iter().map(|item| (origin_addr, item)).collect();
        let mut done = Vec::new();
        let mut hops = 0;
        while let Some((from, item)) = queue.pop() {
            hops += 1;
            assert!(hops < 100_000, "message storm");
            match item {
                KvOut::Done(req, outcome) => done.push((self.idx_of(from), req, outcome)),
                KvOut::Send(to, msg) => {
                    let idx = self.idx_of(to);
                    if self.crashed[idx] {
                        continue; // Dead processes receive nothing.
                    }
                    let mut out = Vec::new();
                    self.nodes[idx].on_message(from, msg, now, &mut out);
                    queue.extend(out.into_iter().map(|item| (to, item)));
                }
            }
        }
        done
    }

    /// Broadcast-then-deliver view adoption: every live host adopts the
    /// view before any handoff traffic moves.
    fn view_change(&mut self, cfg: &Arc<Configuration>, now: u64) -> Vec<(usize, u64, KvOutcome)> {
        self.config = Arc::clone(cfg);
        let mut staged: Vec<(usize, Vec<KvOut>)> = Vec::new();
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let mut out = Vec::new();
            self.nodes[i].on_view(Arc::clone(cfg), now, &mut out);
            staged.push((i, out));
        }
        let mut done = Vec::new();
        for (i, out) in staged {
            done.extend(self.pump(i, out, now));
        }
        done
    }

    fn tick_all(&mut self, now: u64) -> Vec<(usize, u64, KvOutcome)> {
        let mut done = Vec::new();
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let mut out = Vec::new();
            self.nodes[i].on_tick(now, &mut out);
            done.extend(self.pump(i, out, now));
        }
        done
    }
}

/// One scripted operation: `key` indexes a small hot keyspace so
/// overwrites and cross-partition traffic both occur.
#[derive(Clone, Copy, Debug)]
struct Op {
    key: u8,
    is_put: bool,
    coord: u8,
}

/// Runs `ops` over `n` hosts, crashing host `victim` after the first
/// `cut` ops, and asserts the three properties in the module doc.
fn run_script(n: usize, spec: PlacementConfig, ops: &[Op], cut: usize, victim: usize) {
    let mut mesh = ChurnMesh::new(n, spec);
    let mut outcomes: Vec<Option<KvOutcome>> = vec![None; ops.len()];
    // (host, req) -> op index; request ids are per-host counters, so the
    // pair is unique even though two coordinators can issue the same id.
    let mut pending: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    // key -> (value, version) of the last *acked* write, submission order.
    let mut ledger: BTreeMap<String, (String, u64)> = BTreeMap::new();

    let record = |results: Vec<(usize, u64, KvOutcome)>,
                  outcomes: &mut Vec<Option<KvOutcome>>,
                  pending: &BTreeMap<(usize, u64), usize>| {
        for (host, req, outcome) in results {
            if let Some(&op) = pending.get(&(host, req)) {
                assert!(outcomes[op].is_none(), "op {op} completed twice");
                outcomes[op] = Some(outcome);
            }
        }
    };

    let submit = |mesh: &mut ChurnMesh,
                  op_idx: usize,
                  op: Op,
                  now: u64,
                  outcomes: &mut Vec<Option<KvOutcome>>,
                  pending: &mut BTreeMap<(usize, u64), usize>| {
        let mut coord = op.coord as usize % n;
        if mesh.crashed[coord] {
            coord = (coord + 1) % n;
        }
        let key = format!("user:{}", op.key);
        let mut out = Vec::new();
        let req = if op.is_put {
            mesh.nodes[coord].client_put(&key, &format!("v{op_idx}"), now, &mut out)
        } else {
            mesh.nodes[coord].client_get(&key, now, &mut out)
        };
        pending.insert((coord, req), op_idx);
        let results = mesh.pump(coord, out, now);
        record(results, outcomes, pending);
    };

    // Phase 1: healthy mesh.
    for (i, &op) in ops[..cut].iter().enumerate() {
        submit(&mut mesh, i, op, i as u64, &mut outcomes, &mut pending);
        if let (true, Some(KvOutcome::Acked { version })) = (op.is_put, &outcomes[i]) {
            ledger.insert(format!("user:{}", op.key), (format!("v{i}"), *version));
        }
    }

    // Churn: crash one host and remove it from the view. Handoffs from
    // the crashed host are lost with it; repair must cover the gap.
    let victim = victim % n;
    mesh.crashed[victim] = true;
    let old_cfg = Arc::clone(&mesh.config);
    let rank = old_cfg
        .rank_of_addr(&mesh.addr(victim))
        .expect("victim is in the view");
    let removal = Proposal::from_items(old_cfg.id(), vec![old_cfg.removal_item(rank)]);
    let new_cfg = old_cfg.apply(&removal);
    let late = mesh.view_change(&new_cfg, 1_000);
    record(late, &mut outcomes, &pending);
    for round in 0..6u64 {
        let late = mesh.tick_all(2_000 + round * 1_000);
        record(late, &mut outcomes, &pending);
    }

    // Phase 2: ops against the healed, shrunken view.
    for (i, &op) in ops[cut..].iter().enumerate() {
        let idx = cut + i;
        submit(
            &mut mesh,
            idx,
            op,
            8_000 + i as u64,
            &mut outcomes,
            &mut pending,
        );
        if let (true, Some(KvOutcome::Acked { version })) = (op.is_put, &outcomes[idx]) {
            ledger.insert(format!("user:{}", op.key), (format!("v{idx}"), *version));
        }
    }
    for round in 0..6u64 {
        let late = mesh.tick_all(9_000 + round * 1_000);
        record(late, &mut outcomes, &pending);
    }

    // Durability sweep: every acked key must read back at-or-above its
    // acked version, and never as Missing — on any live coordinator.
    let reader = (0..n)
        .find(|&i| !mesh.crashed[i])
        .expect("someone survives");
    for (key, (val, version)) in &ledger {
        let mut out = Vec::new();
        let req = mesh.nodes[reader].client_get(key, 20_000, &mut out);
        let results = mesh.pump(reader, out, 20_000);
        let outcome = results
            .into_iter()
            .find_map(|(host, r, o)| (host == reader && r == req).then_some(o))
            .expect("sweep read must complete on a healthy mesh");
        match &outcome {
            KvOutcome::Found {
                val: got,
                version: got_ver,
            } => assert!(
                got == val || got_ver > version,
                "acked {key}={val}@{version} read back as {got}@{got_ver}"
            ),
            KvOutcome::Missing => panic!("acked key {key} lost"),
            other => panic!("sweep read of {key} failed: {other:?}"),
        }
    }

    // Each surviving host lists each partition it replicates once.
    for i in (0..n).filter(|&i| !mesh.crashed[i]) {
        let digests = mesh.nodes[i].digest_snapshot();
        for pair in digests.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "host {i} lists partition {} out of order or twice",
                pair[1].0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn acked_writes_survive_a_random_crash(
        n in 4usize..7,
        partitions in 8u32..25,
        raw_ops in prop::collection::vec((0u8..16, any::<bool>(), 0u8..8), 4..20),
        cut_pct in 0usize..100,
        victim in 0usize..8,
    ) {
        let spec = PlacementConfig { partitions, replication: 3 };
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(key, is_put, coord)| Op { key, is_put, coord })
            .collect();
        let cut = ops.len() * cut_pct / 100;
        run_script(n, spec, &ops, cut, victim);
    }
}
