//! The traced pass: a TCP workload's op stream replayed through an
//! in-process, single-thread mesh of the sans-io state machines.
//!
//! `KvClient::submit_ops` → `kv::encode` → `kv::decode` → leader
//! `KvNode::on_message` → replicas → acks → `CResp` →
//! `KvClient::on_message`, every call into a layer wrapped in a span.
//! No sockets, threads or timers: what remains is exactly the work the
//! hosts do between wake-ups, so subtracting it from the end-to-end
//! numbers leaves what the hosts themselves cost.

use std::collections::VecDeque;
use std::time::Instant;

use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_route::client::KvClient;
use rapid_route::kv::{self, ClientOp, KvMsg, KvNode, KvOut, KvOutcome};

use crate::gen::{Inputs, Op};
use crate::span::{SpanId, SpanLog};
use crate::tcp::{settings, TcpWorkload, CLIENT_WINDOW, OP_TIMEOUT_MS, REPAIR_INTERVAL_MS, ROUTE};

struct Flying {
    from: Endpoint,
    to: Endpoint,
    msg: KvMsg,
    cause: SpanId,
}

pub struct Mesh {
    pub nodes: Vec<KvNode>,
    addrs: Vec<Endpoint>,
    client: KvClient,
    client_addr: Endpoint,
    queue: VecDeque<Flying>,
    out: Vec<KvOut>,
    now: u64,
    pub acked: u64,
    pub found: u64,
    pub other: u64,
}

fn units_of(msg: &KvMsg) -> u64 {
    match msg {
        KvMsg::Batch(inner) => inner.len() as u64,
        _ => 1,
    }
}

/// Span name of a node handling `msg`, by the (first) logical message.
fn handler_of(msg: &KvMsg) -> &'static str {
    let first = match msg {
        KvMsg::Batch(inner) => inner.first().unwrap_or(msg),
        other => other,
    };
    match first {
        KvMsg::CPut { .. } => "kv.leader_put",
        KvMsg::Replicate { .. } => "kv.replica_put",
        KvMsg::RepAck { .. } => "kv.ack",
        KvMsg::CGet { .. } => "kv.get",
        _ => "kv.other",
    }
}

impl Mesh {
    /// `n` nodes in one static configuration and a client holding their
    /// view, configured like the TCP workloads' processes.
    pub fn new(n: usize, log: &mut SpanLog) -> Result<Mesh, String> {
        let members: Vec<Member> = (0..n)
            .map(|i| {
                Member::new(
                    NodeId::from_u128(i as u128 + 1),
                    Endpoint::new(format!("mesh-{i}"), 7_000),
                )
            })
            .collect();
        let config = Configuration::bootstrap(members.clone());
        let addrs: Vec<Endpoint> = members.iter().map(|m| m.addr).collect();
        let nodes = members
            .into_iter()
            .map(|m| {
                KvNode::new(m, ROUTE, OP_TIMEOUT_MS, None)
                    .with_repair_interval(REPAIR_INTERVAL_MS)
                    .with_admission(settings().kv_inbox, 0)
            })
            .collect();
        let client_addr = Endpoint::new("mesh-client", 7_000);
        let client = KvClient::new(
            client_addr,
            ROUTE,
            addrs.clone(),
            CLIENT_WINDOW,
            OP_TIMEOUT_MS,
        );
        let mut mesh = Mesh {
            nodes,
            addrs,
            client,
            client_addr,
            queue: VecDeque::new(),
            out: Vec::new(),
            now: 0,
            acked: 0,
            found: 0,
            other: 0,
        };
        for i in 0..n {
            mesh.nodes[i].on_view(config.clone(), 0, &mut mesh.out);
            mesh.take_out(mesh.addrs[i], 0);
        }
        // The client's first tick subscribes; the answer is its view.
        mesh.client.on_tick(0, &mut mesh.out);
        mesh.take_out(client_addr, 0);
        mesh.pump(log, 0)?;
        if mesh.client.view_seq().is_none() {
            return Err("the mesh client adopted no view".to_string());
        }
        Ok(mesh)
    }

    /// Moves a state machine's output onto the wire queue (sends) or
    /// into the completion counters (client verdicts).
    fn take_out(&mut self, from: Endpoint, cause: SpanId) {
        for item in self.out.drain(..) {
            match item {
                KvOut::Send(to, msg) => self.queue.push_back(Flying {
                    from,
                    to,
                    msg,
                    cause,
                }),
                KvOut::Done(_, KvOutcome::Acked { .. }) => self.acked += 1,
                KvOut::Done(_, KvOutcome::Found { .. }) => self.found += 1,
                KvOut::Done(..) => self.other += 1,
            }
        }
    }

    /// Delivers queued messages until the mesh is quiet. Every message
    /// is encoded and decoded as a host would, so the codec sees the
    /// same frames as on TCP.
    fn pump(&mut self, log: &mut SpanLog, op: u64) -> Result<(), String> {
        while let Some(Flying {
            from,
            to,
            msg,
            cause,
        }) = self.queue.pop_front()
        {
            let units = units_of(&msg);
            let handler = handler_of(&msg);
            let (bytes, enc) = log.record(
                "kv.encode",
                cause,
                op,
                || {
                    let mut buf = Vec::with_capacity(kv::encoded_len(&msg));
                    kv::encode(&msg, &mut buf);
                    buf
                },
                |_| units,
            );
            drop(msg);
            let (decoded, dec) = log.record("kv.decode", enc, op, || kv::decode(&bytes), |_| units);
            let msg = decoded.map_err(|e| format!("mesh frame did not decode: {e}"))?;
            let now = self.now;
            if to == self.client_addr {
                let (client, out) = (&mut self.client, &mut self.out);
                let (_, span) = log.record(
                    "client.on_reply",
                    dec,
                    op,
                    || client.on_message(from, msg, now, out),
                    |_| units,
                );
                self.take_out(to, span);
            } else {
                let idx = self
                    .addrs
                    .iter()
                    .position(|a| *a == to)
                    .ok_or_else(|| format!("mesh message for unknown {to}"))?;
                let (node, out) = (&mut self.nodes[idx], &mut self.out);
                let (_, span) = log.record(
                    handler,
                    dec,
                    op,
                    || node.on_message(from, msg, now, out),
                    |_| units,
                );
                self.take_out(to, span);
            }
        }
        Ok(())
    }

    /// Submits one burst through the client and runs it to completion.
    fn burst(
        &mut self,
        inputs: &Inputs,
        ops: &[Op],
        log: &mut SpanLog,
        id: u64,
    ) -> Result<(), String> {
        self.now += 1;
        let values: Vec<Option<String>> = ops
            .iter()
            .map(|op| op.is_put.then(|| inputs.value(op.seq)))
            .collect();
        let client_ops: Vec<ClientOp<'_>> = ops
            .iter()
            .zip(&values)
            .map(|(op, val)| match val {
                Some(val) => ClientOp::Put {
                    key: inputs.key(op.key),
                    val,
                },
                None => ClientOp::Get {
                    key: inputs.key(op.key),
                },
            })
            .collect();
        let root = log.open("bench.replay_burst", 0, id);
        let (client, out, now) = (&mut self.client, &mut self.out, self.now);
        let (_, span) = log.record(
            "client.submit",
            root,
            id,
            || client.submit_ops(&client_ops, now, out),
            |_| ops.len() as u64,
        );
        self.take_out(self.client_addr, span);
        self.pump(log, id)?;
        log.close(root, ops.len() as u64);
        Ok(())
    }
}

pub struct Replay {
    pub wall_ns: u64,
    pub mesh: Mesh,
}

/// Replays the first `n_ops` timed ops of the seeded stream (after the
/// same preload as the TCP run) in bursts of `burst`. With a disabled
/// log this is the untraced reference for the tracing overhead.
pub fn replay(
    w: &TcpWorkload,
    seed: u64,
    n_ops: usize,
    burst: usize,
    log: &mut SpanLog,
) -> Result<Replay, String> {
    let mut inputs = Inputs::new(seed, w.keys, w.value_bytes, w.put_permille);
    let was_enabled = log.set_enabled(false);
    let mut mesh = Mesh::new(w.nodes, log)?;
    let preload = inputs.preload();
    for chunk in preload.chunks(256) {
        mesh.burst(&inputs, chunk, log, 0)?;
    }
    if mesh.acked != preload.len() as u64 {
        return Err(format!(
            "mesh preload acked {} of {}",
            mesh.acked,
            preload.len()
        ));
    }
    log.set_enabled(was_enabled);
    let stream: Vec<Op> = (0..n_ops).map(|_| inputs.next_op()).collect();
    let done_before = mesh.acked + mesh.found;
    let t = Instant::now();
    for (i, chunk) in stream.chunks(burst.max(1)).enumerate() {
        mesh.burst(&inputs, chunk, log, i as u64 + 1)?;
    }
    let wall_ns = t.elapsed().as_nanos() as u64;
    let done = mesh.acked + mesh.found - done_before;
    if done != n_ops as u64 || mesh.other != 0 {
        return Err(format!(
            "mesh replay completed {done} of {n_ops} ops, {} with another outcome",
            mesh.other
        ));
    }
    Ok(Replay { wall_ns, mesh })
}
