//! # rapid-core
//!
//! A sans-io Rust implementation of **Rapid**, the scalable, stable and
//! consistent distributed membership service described in
//! *"Stable and Consistent Membership at Scale with Rapid"*
//! (Suresh, Malkhi, Gopalan, Porto Carreiro, Lokhandwala — USENIX ATC 2018).
//!
//! The protocol is implemented as a deterministic state machine
//! ([`node::Node`]) that consumes [`node::Event`]s (received messages and
//! clock ticks) and emits [`node::Action`]s (messages to send, view-change
//! notifications). It never touches sockets or clocks, so the exact same
//! code runs on the deterministic discrete-event simulator used for the
//! paper's experiments (`rapid-sim`) and on a real TCP/UDP transport
//! (`rapid-transport`).
//!
//! ## Protocol components (paper §4)
//!
//! * [`ring`] — the K-ring expander monitoring overlay (§4.1, Fig. 2).
//!   Every process observes K subjects and is observed by K observers; the
//!   topology is a deterministic function of the configuration so every
//!   member derives it locally.
//! * [`cut`] — multi-process cut detection (§4.2, Fig. 4). Alerts are
//!   tallied per `(observer, subject)` edge; a subject with at least `H`
//!   distinct alerts is in *stable* report mode, one with between `L` and
//!   `H` alerts is *unstable*. A view-change proposal is emitted only when
//!   at least one subject is stable and none are unstable, yielding
//!   almost-everywhere agreement on a multi-node cut.
//! * [`paxos`] — the leaderless view-change consensus (§4.3): Fast Paxos
//!   counting of identical proposals with a ¾ quorum, falling back to
//!   classic single-decree Paxos on conflicts or timeout.
//! * [`broadcast`] — pluggable dissemination: unicast-to-all or epidemic
//!   gossip with aggregated vote bitmaps (§4.3, §6).
//! * [`fd`] — pluggable edge failure detectors (§6); the default marks an
//!   edge faulty when ≥40% of the last 10 probes failed.
//! * [`centralized`] — the logically centralized deployment mode (§5),
//!   where a small ensemble `S` runs CD + VC on behalf of a cluster `C`.
//!
//! ## Quickstart
//!
//! ```
//! use rapid_core::prelude::*;
//!
//! // A single seed bootstraps a one-node cluster.
//! let settings = Settings::default();
//! let seed_member = Member::new(NodeId::from_u128(1), Endpoint::new("seed", 1000));
//! let mut seed = Node::new_seed(seed_member, settings.clone());
//! let mut actions = Vec::new();
//! seed.handle(Event::Tick { now_ms: 0 }, &mut actions);
//! assert_eq!(seed.configuration().len(), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod broadcast;
pub mod centralized;
pub mod codec;
pub mod config;
pub mod cut;
pub mod error;
pub mod fd;
pub mod hash;
pub mod id;
pub mod membership;
pub mod metadata;
pub mod metrics;
pub mod node;
pub mod outbox;
pub mod paxos;
pub mod ring;
pub mod rng;
pub mod settings;
pub mod util;
pub mod wire;

/// Observability primitives (latency histograms, flight-recorder trace
/// rings) — re-exported so hosts don't need a direct `rapid-obs` dep.
pub use rapid_obs as obs;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::{
        alert::{Alert, EdgeStatus},
        config::{ConfigId, Configuration, Member},
        cut::CutDetector,
        error::RapidError,
        fd::{EdgeFailureDetector, ProbeFailureDetector},
        id::{Endpoint, NodeId},
        membership::{Proposal, ProposalItem, ViewChange},
        metadata::Metadata,
        node::{Action, Event, Node, NodeStatus},
        ring::Topology,
        settings::Settings,
    };
}

pub use prelude::*;
