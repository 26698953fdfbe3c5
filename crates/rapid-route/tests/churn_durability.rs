//! Acked-write durability under random crash scripts: a
//! [`Mesh`](rapid_route::mesh::Mesh) of hosts, one [`KvNode`] each,
//! runs a generated op script, loses one host mid-script (its in-flight
//! handoffs die with it) and heals through the removal view plus repair
//! rounds. Each op enters as the `CPut`/`CGet` a smart client sends, to a
//! target drawn from a possibly stale view: a member of the initial view
//! or of the current one, usually not the key's leader. A non-leader
//! answers `NotLeader`, and the script — playing the client — re-sends
//! the op to the key's leader in the current view, so the re-route runs
//! under every drawn crash point. A target the crash took is skipped for
//! the current leader, as a client adopting the removal view does. Every
//! run must satisfy three properties:
//!
//! * no op completes twice;
//! * every acked key reads back at or above its acked version, and
//!   never as `Missing`;
//! * each surviving host's digest snapshot lists each partition it
//!   replicates exactly once.
//!
//! `kv.rs`'s unit tests pin fixed timelines on the same mesh; this file
//! is the one that draws the crash point, the victim and the op mix at
//! random.
//!
//! [`KvNode`]: rapid_route::KvNode

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use rapid_core::config::Configuration;
use rapid_core::id::Endpoint;
use rapid_core::membership::Proposal;
use rapid_route::mesh::Mesh;
use rapid_route::{KvMsg, KvOutcome, PlacementConfig};

/// The smart client every op comes from; the script owns its request ids.
fn client() -> Endpoint {
    Endpoint::new("se-client", 9000)
}

/// One scripted operation: `key` indexes a small hot keyspace so
/// overwrites and cross-partition traffic both occur; `target` picks the
/// member it is sent to, from the initial view when `stale`.
#[derive(Clone, Copy, Debug)]
struct Op {
    key: u8,
    is_put: bool,
    target: u8,
    stale: bool,
}

/// A script's mesh and the client's side of it.
struct Script {
    mesh: Mesh,
    /// The first view, which stale targets are drawn from.
    initial: Arc<Configuration>,
    /// Ops awaiting a verdict, by request id, so a `NotLeader` can be
    /// re-sent.
    open: HashMap<u64, KvMsg>,
    /// Each op's final verdict, by request id.
    outcomes: HashMap<u64, KvOutcome>,
    /// key -> (value, version) of the last *acked* write, submission order.
    ledger: BTreeMap<String, (String, u64)>,
    /// `NotLeader` verdicts re-sent to the current leader.
    reroutes: u64,
}

impl Script {
    fn new(n: usize, spec: PlacementConfig) -> Script {
        let mesh = Mesh::new(n, spec);
        Script {
            initial: Arc::clone(&mesh.config),
            mesh,
            open: HashMap::new(),
            outcomes: HashMap::new(),
            ledger: BTreeMap::new(),
            reroutes: 0,
        }
    }

    /// Runs scripted op `i` (request `i`) and records an acked put in the
    /// ledger.
    fn op(&mut self, i: usize, op: Op) {
        let key = format!("user:{}", op.key);
        let put = op.is_put.then(|| format!("v{i}"));
        self.submit(op.target as usize, op.stale, i as u64, &key, put.clone());
        if let (Some(val), Some(KvOutcome::Acked { version })) = (put, self.outcomes.get(&(i as u64))) {
            self.ledger.insert(key, (val, *version));
        }
    }

    /// Sends op `req` as [`client`]'s `CPut` (when `put` holds a value)
    /// or floor-less `CGet` to the member at index `pick` of the initial
    /// view (`stale`) or of the current one — the current leader if that
    /// member crashed — and settles the mesh.
    fn submit(&mut self, pick: usize, stale: bool, req: u64, key: &str, put: Option<String>) {
        let view = if stale { &self.initial } else { &self.mesh.config };
        let mut target = self.mesh.idx_of(view.members()[pick % view.len()].addr);
        if !self.mesh.live().contains(&target) {
            target = self.mesh.leader_of(key);
        }
        let key = key.to_string();
        let msg = match put {
            Some(val) => KvMsg::CPut { req, key, val },
            None => KvMsg::CGet { req, key, floor: 0 },
        };
        self.open.insert(req, msg.clone());
        let to = self.mesh.nodes[target].me().addr;
        self.mesh.send(client(), to, msg);
        self.settle();
    }

    /// Runs the mesh to quiescence, re-sending every op answered
    /// `NotLeader` to the key's leader in the current view, and records
    /// every final verdict.
    fn settle(&mut self) {
        loop {
            self.mesh.run_to_quiescence();
            let replies = self.mesh.take_replies(client());
            if replies.is_empty() {
                return;
            }
            for (req, verdict) in replies {
                let op = self.open.remove(&req).expect("one verdict per attempt");
                let Some(outcome) = verdict else {
                    self.reroutes += 1;
                    let key = match &op {
                        KvMsg::CPut { key, .. } | KvMsg::CGet { key, .. } => key,
                        other => unreachable!("not a client op: {other:?}"),
                    };
                    let leader = self.mesh.nodes[self.mesh.leader_of(key)].me().addr;
                    self.open.insert(req, op.clone());
                    self.mesh.send(client(), leader, op);
                    continue;
                };
                assert!(self.outcomes.insert(req, outcome).is_none(), "op {req} completed twice");
            }
        }
    }
}

/// Runs `ops` over `n` hosts, crashing host `victim` after the first
/// `cut` ops, and asserts the three properties in the module doc.
/// Returns how many `NotLeader` verdicts were re-routed.
fn run_script(n: usize, spec: PlacementConfig, ops: &[Op], cut: usize, victim: usize) -> u64 {
    let mut s = Script::new(n, spec);
    // Phase 1: healthy mesh.
    for (i, &op) in ops[..cut].iter().enumerate() {
        s.op(i, op);
    }

    // Churn: crash one host and remove it from the view. Handoffs from
    // the crashed host are lost with it; repair must cover the gap.
    let victim = victim % n;
    s.mesh.crash(victim);
    let old_cfg = Arc::clone(&s.mesh.config);
    let rank = old_cfg
        .rank_of_addr(&s.mesh.nodes[victim].me().addr)
        .expect("victim is in the view");
    let removal = Proposal::from_items(old_cfg.id(), vec![old_cfg.removal_item(rank)]);
    s.mesh.install(old_cfg.apply(&removal), &s.mesh.live());
    s.settle();
    for round in 0..6u64 {
        s.mesh.tick(2_000 + round * 1_000);
        s.settle();
    }

    // Phase 2: ops against the healed, shrunken view.
    for (i, &op) in ops[cut..].iter().enumerate() {
        s.op(cut + i, op);
    }
    for round in 0..6u64 {
        s.mesh.tick(9_000 + round * 1_000);
        s.settle();
    }

    // Durability sweep: every acked key must read back at-or-above its
    // acked version, and never as Missing, wherever the read is sent
    // first. The reads carry no floor, so a below-acked answer is
    // returned (and fails the check) instead of being retried.
    for (sweep, (key, (val, version))) in std::mem::take(&mut s.ledger).iter().enumerate() {
        let req = (ops.len() + sweep) as u64;
        s.submit(sweep, false, req, key, None);
        let outcome = s
            .outcomes
            .get(&req)
            .expect("sweep read must complete on a healthy mesh");
        match outcome {
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
    for i in s.mesh.live() {
        let digests = s.mesh.nodes[i].digest_snapshot();
        for pair in digests.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "host {i} lists partition {} out of order or twice",
                pair[1].0
            );
        }
    }
    s.reroutes
}

/// A fixed script that sends every op to one member of the initial view
/// re-routes before and after the crash.
#[test]
fn not_leader_verdicts_are_rerouted_on_both_sides_of_the_crash() {
    let spec = PlacementConfig {
        partitions: 16,
        replication: 3,
    };
    let ops: Vec<Op> = (0..16)
        .map(|i| Op {
            key: i,
            is_put: i % 3 != 2,
            target: 0,
            stale: true,
        })
        .collect();
    let before = run_script(5, spec, &ops[..8], 8, 4);
    let after = run_script(5, spec, &ops, 0, 4);
    assert!(before > 0 && after > 0, "re-routes: {before} before, {after} after");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn acked_writes_survive_a_random_crash(
        n in 4usize..7,
        partitions in 8u32..25,
        raw_ops in prop::collection::vec((0u8..16, any::<bool>(), 0u8..8, any::<bool>()), 4..20),
        cut_pct in 0usize..100,
        victim in 0usize..8,
    ) {
        let spec = PlacementConfig { partitions, replication: 3 };
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(key, is_put, target, stale)| Op { key, is_put, target, stale })
            .collect();
        let cut = ops.len() * cut_pct / 100;
        run_script(n, spec, &ops, cut, victim);
    }
}
