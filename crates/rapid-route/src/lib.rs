//! # rapid-route
//!
//! View-driven partition placement and a replicated KV data plane.
//!
//! The paper's central claim — strong, consistent membership views — is
//! only worth its cost if applications can *derive* coordination from
//! the view instead of running more consensus. This crate is that
//! derivation, generalizing the dataplatform (§7, Fig. 12) and
//! discovery (§7, Fig. 13) integrations into a real serving layer:
//!
//! * [`placement`] — a deterministic balanced-rendezvous mapping of `P`
//!   partitions onto `RF` replicas with a rank-derived leader, a pure
//!   function of the [`Configuration`](rapid_core::config::Configuration)
//!   every member already agrees on; plus the minimal
//!   [`RebalancePlan`] between two placements.
//! * [`kv`] — a sans-io replicated KV state machine: only a partition's
//!   leader serves its ops (any other node answers `NotLeader` with its
//!   view seq), leaders version and replicate, acked writes survive
//!   any failure leaving one replica alive, view changes trigger
//!   deterministic push handoffs, and periodic anti-entropy repair
//!   (digest exchange + rendezvous-ranked re-pull) recovers handoffs
//!   lost to mid-push source crashes. Leaders enforce
//!   read-your-writes via per-key acked version floors. Its wire
//!   vocabulary ([`kv::KvMsg`], [`kv::encode`] / [`kv::decode`]) is built
//!   from the [`rapid_core::codec`] kit in the private `codec` module.
//! * [`store`] — the partition store behind [`kv`]: `partition →
//!   entries` with each partition's repair digest cached behind a dirty
//!   bit, hashed only when a reader asks.
//! * [`client`] — the smart-client plane ([`client::KvClient`]): a
//!   sans-io state machine that subscribes to view pushes, caches the
//!   placement function's output, and routes each op directly to the
//!   partition leader with a bounded in-flight window; on `NotLeader` it
//!   re-routes by its view, or by the newer view it asks the node for.
//! * [`sim`] — the data plane co-hosted with membership inside the
//!   deterministic simulator ([`sim::KvSimActor`]).
//! * [`real`] — the data plane on real TCP ([`real::KvRuntime`]), riding
//!   the transport's app frames: one [`KvNode`] per process on one host
//!   loop, fed by the transport's readers and its node loop over one
//!   FIFO channel.
//!
//! See `docs/ROUTING.md` for the algorithm, the plan format, and driver
//! caveats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod codec;
pub mod kv;
#[doc(hidden)]
pub mod mesh;
pub mod placement;
pub mod real;
pub mod sim;
pub mod store;

pub use client::{ClientStats, KvClient};
pub use kv::{
    ClientOp, KvError, KvMsg, KvNode, KvOut, KvOutcome, KvStats, PartitionDigest,
};
pub use placement::{
    partition_of, Placement, PlacementCache, PlacementConfig, RebalancePlan, ReplicaMove,
};
pub use real::KvRuntime;
pub use sim::{KvClusterBuilder, KvSimActor, RouteMsg};
