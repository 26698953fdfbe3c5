//! Acked-write durability under random crash scripts: a mesh of hosts,
//! one [`KvNode`] each, with synchronous message delivery, runs a
//! generated op script, loses one host mid-script (its in-flight
//! handoffs die with it) and heals through the removal view plus repair
//! rounds. Each op enters as the `CPut`/`CGet` a smart client sends, to a
//! target drawn from a possibly stale view: a member of the initial view
//! or of the current one, usually not the key's leader. A non-leader
//! answers `NotLeader`, and the harness — playing the client — re-sends
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
//! `kv.rs`'s own `Mesh` tests pin fixed timelines; this file is the one
//! that draws the crash point, the victim and the op mix at random.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::Proposal;
use rapid_route::kv::{CRESP_ACKED, CRESP_FAILED, CRESP_FOUND, CRESP_MISSING, CRESP_NOT_LEADER};
use rapid_route::{partition_of, KvMsg, KvNode, KvOut, KvOutcome, Placement, PlacementConfig};

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

/// The smart client every op comes from; the script owns its request ids.
fn client() -> Endpoint {
    Endpoint::new("se-client", 9000)
}

/// A mesh of `n` hosts with synchronous message delivery. Crashed hosts
/// silently eat every frame, like the `Mesh` harness in `kv.rs`.
struct ChurnMesh {
    nodes: Vec<KvNode>,
    spec: PlacementConfig,
    /// The first view, which stale targets are drawn from.
    initial: Arc<Configuration>,
    config: Arc<Configuration>,
    crashed: Vec<bool>,
    /// The client's ops awaiting a verdict, by request id, so a
    /// `NotLeader` can be re-sent.
    open: HashMap<u64, KvMsg>,
    /// `NotLeader` verdicts re-sent to the current leader.
    reroutes: u64,
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
            spec,
            initial: Arc::clone(&config),
            config,
            crashed: vec![false; n],
            open: HashMap::new(),
            reroutes: 0,
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

    /// The host leading `key`'s partition in the current view.
    fn leader_of(&self, key: &str) -> usize {
        let pl = Placement::compute(&self.config, &self.spec);
        let rank = pl.leader(partition_of(key, self.spec.partitions));
        self.idx_of(self.config.members()[rank as usize].addr)
    }

    /// Sends op `req` as [`client`]'s `CPut` (when `put` holds a value)
    /// or floor-less `CGet` to the member at index `pick` of the initial
    /// view (`stale`) or of the current one — the current leader if that
    /// member crashed — and pumps to quiescence.
    fn submit(
        &mut self,
        pick: usize,
        stale: bool,
        req: u64,
        key: &str,
        put: Option<String>,
        now: u64,
    ) -> Vec<(u64, KvOutcome)> {
        let view = if stale { &self.initial } else { &self.config };
        let mut target = self.idx_of(view.members()[pick % view.len()].addr);
        if self.crashed[target] {
            target = self.leader_of(key);
        }
        let key = key.to_string();
        let msg = match put {
            Some(val) => KvMsg::CPut { req, key, val },
            None => KvMsg::CGet { req, key, floor: 0 },
        };
        self.open.insert(req, msg.clone());
        let to = self.addr(target);
        self.pump_queue(vec![(client(), KvOut::Send(to, msg))], now)
    }

    /// Pumps `seed`, emitted by host `origin`, to quiescence. Returns the
    /// final verdicts sent to [`client`] as `(req, outcome)`.
    fn pump(&mut self, origin: usize, seed: Vec<KvOut>, now: u64) -> Vec<(u64, KvOutcome)> {
        let origin_addr = self.addr(origin);
        self.pump_queue(seed.into_iter().map(|item| (origin_addr, item)).collect(), now)
    }

    /// Delivers `(sender, item)` pairs to quiescence, re-sending every op
    /// answered `NotLeader` to the key's leader in the current view.
    fn pump_queue(&mut self, mut queue: Vec<(Endpoint, KvOut)>, now: u64) -> Vec<(u64, KvOutcome)> {
        let mut done = Vec::new();
        let mut hops = 0;
        while let Some((from, item)) = queue.pop() {
            hops += 1;
            assert!(hops < 100_000, "message storm");
            match item {
                KvOut::Done(..) => panic!("a node answers its clients on the wire"),
                KvOut::Send(to, msg) if to == client() => {
                    let mut verdicts = Vec::new();
                    collect_verdicts(msg, &mut verdicts);
                    for (req, verdict) in verdicts {
                        let op = self.open.remove(&req).expect("one verdict per attempt");
                        match verdict {
                            Some(outcome) => done.push((req, outcome)),
                            None => {
                                self.reroutes += 1;
                                let key = match &op {
                                    KvMsg::CPut { key, .. } | KvMsg::CGet { key, .. } => key,
                                    other => unreachable!("not a client op: {other:?}"),
                                };
                                let leader = self.addr(self.leader_of(key));
                                self.open.insert(req, op.clone());
                                queue.push((client(), KvOut::Send(leader, op)));
                            }
                        }
                    }
                }
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
    fn view_change(&mut self, cfg: &Arc<Configuration>, now: u64) -> Vec<(u64, KvOutcome)> {
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

    fn tick_all(&mut self, now: u64) -> Vec<(u64, KvOutcome)> {
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

/// Appends the verdicts in `msg` (a batch frame or one `CResp`) to `done`
/// as `(req, outcome)`, with `None` for `NotLeader`.
fn collect_verdicts(msg: KvMsg, done: &mut Vec<(u64, Option<KvOutcome>)>) {
    match msg {
        KvMsg::Batch(msgs) => {
            for m in msgs {
                collect_verdicts(m, done);
            }
        }
        KvMsg::CResp {
            req,
            code,
            val,
            version,
        } => done.push((
            req,
            match code {
                CRESP_ACKED => Some(KvOutcome::Acked { version }),
                CRESP_FOUND => Some(KvOutcome::Found { val, version }),
                CRESP_MISSING => Some(KvOutcome::Missing),
                CRESP_FAILED => Some(KvOutcome::Failed),
                CRESP_NOT_LEADER => None,
                other => panic!("unexpected verdict code {other}"),
            },
        )),
        other => panic!("a client is sent only verdicts here: {other:?}"),
    }
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

/// Runs `ops` over `n` hosts, crashing host `victim` after the first
/// `cut` ops, and asserts the three properties in the module doc.
/// Returns how many `NotLeader` verdicts were re-routed.
fn run_script(n: usize, spec: PlacementConfig, ops: &[Op], cut: usize, victim: usize) -> u64 {
    let mut mesh = ChurnMesh::new(n, spec);
    // Indexed by request id: op `i` is request `i`.
    let mut outcomes: Vec<Option<KvOutcome>> = vec![None; ops.len()];
    // key -> (value, version) of the last *acked* write, submission order.
    let mut ledger: BTreeMap<String, (String, u64)> = BTreeMap::new();

    let record = |results: Vec<(u64, KvOutcome)>, outcomes: &mut Vec<Option<KvOutcome>>| {
        for (req, outcome) in results {
            let op = req as usize;
            assert!(outcomes[op].is_none(), "op {op} completed twice");
            outcomes[op] = Some(outcome);
        }
    };

    let submit = |mesh: &mut ChurnMesh,
                  op_idx: usize,
                  op: Op,
                  now: u64,
                  outcomes: &mut Vec<Option<KvOutcome>>| {
        let key = format!("user:{}", op.key);
        let put = op.is_put.then(|| format!("v{op_idx}"));
        let pick = op.target as usize;
        let results = mesh.submit(pick, op.stale, op_idx as u64, &key, put, now);
        record(results, outcomes);
    };

    // Phase 1: healthy mesh.
    for (i, &op) in ops[..cut].iter().enumerate() {
        submit(&mut mesh, i, op, i as u64, &mut outcomes);
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
    record(late, &mut outcomes);
    for round in 0..6u64 {
        let late = mesh.tick_all(2_000 + round * 1_000);
        record(late, &mut outcomes);
    }

    // Phase 2: ops against the healed, shrunken view.
    for (i, &op) in ops[cut..].iter().enumerate() {
        let idx = cut + i;
        submit(&mut mesh, idx, op, 8_000 + i as u64, &mut outcomes);
        if let (true, Some(KvOutcome::Acked { version })) = (op.is_put, &outcomes[idx]) {
            ledger.insert(format!("user:{}", op.key), (format!("v{idx}"), *version));
        }
    }
    for round in 0..6u64 {
        let late = mesh.tick_all(9_000 + round * 1_000);
        record(late, &mut outcomes);
    }

    // Durability sweep: every acked key must read back at-or-above its
    // acked version, and never as Missing, wherever the read is sent
    // first. The reads carry no floor, so a below-acked answer is
    // returned (and fails the check) instead of being retried.
    for (sweep, (key, (val, version))) in ledger.iter().enumerate() {
        let req = (ops.len() + sweep) as u64;
        let results = mesh.submit(sweep, false, req, key, None, 20_000);
        let outcome = results
            .into_iter()
            .find_map(|(r, o)| (r == req).then_some(o))
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
    mesh.reroutes
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
