//! A scriptable in-process KV mesh for tests (not a supported API): `n`
//! [`KvNode`]s over one bootstrap view, with every message in flight
//! held in an explicit list. A [`KvNode`] is a pure step function, so
//! that list, the crashed set and the clock are the whole state of the
//! network. A test chooses what moves next — [`Mesh::deliver`] or
//! [`Mesh::drop`] any entry of [`Mesh::pending`] — or lets
//! [`Mesh::run_to_quiescence`] deliver the last-sent message first until
//! nothing is in flight. Deliveries, installs and ticks run at the
//! mesh's clock, which only [`Mesh::tick`] moves. A message to an
//! endpoint that is no node (a client) lands in a mailbox, which
//! [`Mesh::take_replies`] decodes.

use std::sync::Arc;

use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};

use crate::kv::{
    KvMsg, KvNode, KvOut, KvOutcome, CRESP_ACKED, CRESP_FAILED, CRESP_FOUND, CRESP_MISSING,
    CRESP_NOT_LEADER,
};
use crate::placement::{partition_of, PlacementCache, PlacementConfig};

/// Deliveries one [`Mesh::run_to_quiescence`] may make before it calls
/// the traffic a storm.
const MAX_HOPS: usize = 100_000;

/// One message in flight: `(from, to, msg)`.
pub type Flight = (Endpoint, Endpoint, KvMsg);

/// The members of an `n`-node mesh: node `i` is `kv-{i}:7100` with id
/// `i + 1`, so it is rank `i` of the bootstrap view.
pub fn members(n: usize) -> Vec<Member> {
    let addr = |i| Endpoint::new(format!("kv-{i}"), 7100);
    (0..n).map(|i| Member::new(NodeId::from_u128(i as u128 + 1), addr(i))).collect()
}

/// `n` [`KvNode`]s, a crashed set, a clock and the messages in flight.
pub struct Mesh {
    /// The nodes, node `i` being [`members`]`(n)[i]`.
    pub nodes: Vec<KvNode>,
    /// The view last passed to [`Mesh::install`] (at first, the
    /// bootstrap view every node starts in).
    pub config: Arc<Configuration>,
    spec: PlacementConfig,
    cache: PlacementCache,
    crashed: Vec<bool>,
    now: u64,
    in_flight: Vec<Flight>,
    /// Messages delivered to endpoints that are no node.
    mailbox: Vec<(Endpoint, KvMsg)>,
}

impl Mesh {
    /// `n` nodes on the bootstrap view of [`members`]`(n)`, sharing one
    /// [`PlacementCache`].
    pub fn new(n: usize, spec: PlacementConfig) -> Mesh {
        Mesh::with(n, spec, |node| node)
    }

    /// As [`Mesh::new`], with each node passed through `build` (say,
    /// [`KvNode::with_admission`]) before the bootstrap view installs.
    pub fn with(n: usize, spec: PlacementConfig, build: impl Fn(KvNode) -> KvNode) -> Mesh {
        let ms = members(n);
        let config = Configuration::bootstrap(ms.clone());
        let cache = PlacementCache::new();
        let mut nodes: Vec<KvNode> = ms
            .into_iter()
            .map(|m| build(KvNode::new(m, spec, 1_000, Some(cache.clone()))))
            .collect();
        let mut out = Vec::new();
        for node in &mut nodes {
            node.on_view(Arc::clone(&config), 0, &mut out);
        }
        assert!(out.is_empty(), "initial view must not emit traffic");
        Mesh {
            crashed: vec![false; n],
            nodes,
            config,
            spec,
            cache,
            now: 0,
            in_flight: Vec::new(),
            mailbox: Vec::new(),
        }
    }

    /// The messages in flight, oldest first.
    pub fn pending(&self) -> &[Flight] {
        &self.in_flight
    }

    /// Delivers in-flight message `i` at the mesh's clock. A crashed node
    /// receives nothing; a message to an endpoint that is no node goes
    /// to its mailbox.
    pub fn deliver(&mut self, i: usize) {
        let (from, to, msg) = self.in_flight.remove(i);
        match self.node_at(to) {
            None => self.mailbox.push((to, msg)),
            Some(idx) if self.crashed[idx] => {} // Dead processes receive nothing.
            Some(idx) => {
                let mut out = Vec::new();
                self.nodes[idx].on_message(from, msg, self.now, &mut out);
                self.queue(idx, out);
            }
        }
    }

    /// Removes in-flight message `i` undelivered and returns it.
    pub fn drop(&mut self, i: usize) -> Flight {
        self.in_flight.remove(i)
    }

    /// Puts `msg` in flight from `from` (a node or a client) to `to`.
    pub fn send(&mut self, from: Endpoint, to: Endpoint, msg: KvMsg) {
        self.in_flight.push((from, to, msg));
    }

    /// Crashes node `i`: from now on it receives nothing. What it sent
    /// before stays in flight until a test drops it.
    pub fn crash(&mut self, i: usize) {
        self.crashed[i] = true;
    }

    /// The nodes that have not crashed, in index order.
    pub fn live(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| !self.crashed[i]).collect()
    }

    /// Installs `view` at every listed live node before any of their
    /// traffic moves. The nodes run last to first, so under
    /// [`Mesh::run_to_quiescence`] the first listed node's traffic is
    /// drained first, then the next one's.
    pub fn install(&mut self, view: Arc<Configuration>, at: &[usize]) {
        self.config = Arc::clone(&view);
        for &i in at.iter().rev() {
            if self.crashed[i] {
                continue;
            }
            let mut out = Vec::new();
            self.nodes[i].on_view(Arc::clone(&view), self.now, &mut out);
            self.queue(i, out);
        }
    }

    /// Moves the clock to `now` and ticks every live node there, last to
    /// first, as [`Mesh::install`] runs its nodes.
    pub fn tick(&mut self, now: u64) {
        self.now = self.now.max(now);
        for i in self.live().into_iter().rev() {
            let mut out = Vec::new();
            self.nodes[i].on_tick(self.now, &mut out);
            self.queue(i, out);
        }
    }

    /// Delivers the last-sent message until nothing is in flight.
    pub fn run_to_quiescence(&mut self) {
        let mut hops = 0;
        while !self.in_flight.is_empty() {
            hops += 1;
            assert!(hops < MAX_HOPS, "message storm");
            self.deliver(self.in_flight.len() - 1);
        }
    }

    /// The node leading `key`'s partition in [`Mesh::config`], where a
    /// smart client holding that view sends an op on `key`.
    pub fn leader_of(&self, key: &str) -> usize {
        let pl = self.cache.get(&self.config, &self.spec);
        let rank = pl.leader(partition_of(key, pl.partitions()));
        self.idx_of(self.config.members()[rank as usize].addr)
    }

    /// The index of the node at `addr`.
    pub fn idx_of(&self, addr: Endpoint) -> usize {
        self.node_at(addr).expect("addressed node exists")
    }

    /// Takes the verdicts delivered to `client` so far as `(req,
    /// outcome)`, in delivery order and with batches flattened, with
    /// `None` for `NotLeader`. Panics on any other message or code.
    pub fn take_replies(&mut self, client: Endpoint) -> Vec<(u64, Option<KvOutcome>)> {
        let (mine, rest): (Vec<_>, _) =
            std::mem::take(&mut self.mailbox).into_iter().partition(|(to, _)| *to == client);
        self.mailbox = rest;
        let mut done = Vec::new();
        for (_, msg) in mine {
            decode_verdicts(msg, &mut done);
        }
        done
    }

    fn node_at(&self, addr: Endpoint) -> Option<usize> {
        self.nodes.iter().position(|n| n.me().addr == addr)
    }

    /// Puts node `i`'s output in flight.
    fn queue(&mut self, i: usize, out: Vec<KvOut>) {
        let me = self.nodes[i].me().addr;
        self.in_flight.extend(out.into_iter().map(|item| match item {
            KvOut::Send(to, msg) => (me, to, msg),
            KvOut::Done(..) => panic!("a node answers its clients on the wire"),
        }));
    }
}

/// Appends the verdicts in `msg` (a batch frame or one `CResp`) to
/// `done`, with `None` for `NotLeader`.
fn decode_verdicts(msg: KvMsg, done: &mut Vec<(u64, Option<KvOutcome>)>) {
    match msg {
        KvMsg::Batch(msgs) => msgs.into_iter().for_each(|m| decode_verdicts(m, done)),
        KvMsg::CResp { req, code, val, version } => done.push((req, match code {
            CRESP_ACKED => Some(KvOutcome::Acked { version }),
            CRESP_FOUND => Some(KvOutcome::Found { val, version }),
            CRESP_MISSING => Some(KvOutcome::Missing),
            CRESP_FAILED => Some(KvOutcome::Failed),
            CRESP_NOT_LEADER => None,
            other => panic!("unexpected verdict code {other} for {req}"),
        })),
        other => panic!("a client is sent only verdicts here: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 4,
            replication: 3,
        }
    }

    fn client() -> Endpoint {
        Endpoint::new("client-self-test", 9000)
    }

    fn get(req: u64) -> KvMsg {
        let key = "k".into();
        KvMsg::CGet { req, key, floor: 0 }
    }

    #[test]
    fn drop_removes_exactly_that_message() {
        let mut mesh = Mesh::new(3, spec());
        let to = mesh.nodes[0].me().addr;
        (1..=3).for_each(|req| mesh.send(client(), to, get(req)));
        assert_eq!(mesh.drop(1), (client(), to, get(2)));
        assert_eq!(mesh.pending(), [(client(), to, get(1)), (client(), to, get(3))]);
    }

    #[test]
    fn a_crashed_node_receives_nothing_but_its_sent_messages_stay_in_flight() {
        let mut mesh = Mesh::new(3, spec());
        let l = mesh.leader_of("k");
        let leader = mesh.nodes[l].me().addr;
        let (key, val) = ("k".into(), "v".into());
        mesh.send(client(), leader, KvMsg::CPut { req: 1, key, val });
        mesh.deliver(0);
        let replicates = mesh.pending().to_vec();
        assert_eq!(replicates.len(), 2, "one Replicate per follower");
        mesh.crash(l);
        mesh.send(client(), leader, get(2));
        mesh.deliver(2);
        assert_eq!(mesh.pending(), replicates, "the dead leader answers nothing");
        assert_eq!(mesh.nodes[l].stats().gets_ok, 0);

        // The followers still apply the write; their RepAcks die at L.
        mesh.run_to_quiescence();
        let held = mesh.nodes[l].digest_snapshot();
        assert_ne!(held, Mesh::new(3, spec()).nodes[l].digest_snapshot());
        for i in mesh.live() {
            assert_eq!(mesh.nodes[i].digest_snapshot(), held, "node {i} holds the write");
        }
        assert_eq!(mesh.nodes[l].stats().puts_acked, 0);
        assert!(mesh.take_replies(client()).is_empty());
    }

    #[test]
    fn run_to_quiescence_delivers_the_last_sent_message_first() {
        let mut mesh = Mesh::new(3, spec());
        let leader = mesh.nodes[mesh.leader_of("k")].me().addr;
        (1..=3).for_each(|req| mesh.send(client(), leader, get(req)));
        mesh.run_to_quiescence();
        let replies: Vec<_> = mesh.take_replies(client()).into_iter().map(|(req, _)| req).collect();
        assert_eq!(replies, [3, 2, 1]);
    }
}
