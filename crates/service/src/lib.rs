//! `kvcc-service` — a long-lived, batched query engine over hot CSR graphs.
//!
//! The paper's case study (§6.4) is a *query* workload: "all 4-VCCs
//! containing author Jiawei Han". This crate turns the enumeration library
//! into a serving layer for exactly that shape of traffic:
//!
//! * [`ServiceEngine`] holds any number of loaded graphs in [`CsrGraph`]
//!   form (shared, read-only, behind `Arc`), each with a lazily built
//!   [`ConnectivityIndex`] so repeated seed/level/pairwise queries never
//!   re-run flow computations;
//! * queries arrive as plain-data [`QueryRequest`] values and come back as
//!   [`QueryResponse`]s, so a network transport only has to move bytes;
//! * [`ServiceEngine::execute_batch`] drains a batch on a pool of workers,
//!   each owning its own scratch arenas (`CutScratch` for GLOBAL-CUT probes,
//!   a flow arena for local-connectivity probes) — per-request allocations
//!   stay out of the steady state;
//! * **protocol v2** wraps every query in a [`Request`]/[`Response`]
//!   envelope (request id, deadline hint) with numbered [`ServiceError`]
//!   codes, ranked/paginated [`QueryRequest::TopKComponents`] queries and a
//!   multi-graph batch form; the whole vocabulary has a validated,
//!   bincode-free byte codec ([`wire::message`]) built on the shared varint
//!   primitives of [`wire::codec`];
//! * a [`Transport`] moves length-prefixed
//!   frames ([`wire::frame`]) between peers;
//!   [`ServiceEngine::serve`] binds an engine to one, and
//!   [`run_shard_worker`] is a worker
//!   that enumerates [`CsrWorkItem`]s **purely over bytes** — no shared
//!   memory — with [`ServiceEngine::enumerate_sharded`] as the coordinator
//!   that reproduces the whole-graph enumeration from shard frames;
//! * [`CsrWorkItem`] is the self-contained unit of sharded enumeration: a
//!   CSR subgraph plus its id map, with bincode-free
//!   [`to_bytes`](CsrWorkItem::to_bytes) / [`from_bytes`](CsrWorkItem::from_bytes);
//! * **failure handling** — [`TcpTransport`] / [`UnixTransport`] put the
//!   frame format on real sockets (with a [`ShardPool`] accept loop and the
//!   `kvcc-shardd` daemon around it), [`FaultTransport`] injects seeded,
//!   reproducible chaos, and the [`coordinator`] retries, requeues,
//!   quarantines and locally degrades until the sharded enumeration is
//!   byte-identical to the in-process one under every fault schedule;
//! * **mutable graphs (protocol v5)** — [`RequestBody::ApplyUpdates`]
//!   applies a batch of edge inserts/deletes atomically
//!   ([`ServiceEngine::apply_updates`]): in-flight queries keep their
//!   snapshot, the slot's connectivity index is repaired level by level
//!   (untouched subtrees kept, k-VCCs that grew or lost members accepted
//!   by flow probes or split on the cut a failing probe finds) instead of
//!   rebuilt, every batch bumps the graph's epoch (reported by `Stats`,
//!   stamped into page cursors so stale pagination is rejected), and the
//!   answer ([`QueryResponse::Updated`]) is byte-identical to
//!   reloading the updated graph from scratch;
//! * **query-serving QoS (protocol v6)** — an opt-in [`qos`] layer in front
//!   of every query path: a bounded result cache keyed by
//!   `(graph, epoch, canonical query bytes)` whose hits are byte-identical
//!   to fresh execution and invalidated for free by the mutation epoch,
//!   single-flight coalescing of identical in-flight queries, and
//!   cost-model admission control ([`kvcc::split_cost`] + an online EWMA)
//!   that sheds deadline-infeasible work with the retryable
//!   [`ServiceError::Overloaded`] instead of failing it late; `Stats`
//!   reports the [`QosStats`] counters, and `kvcc-shardd --token` gates
//!   connections behind a shared-secret [`RequestBody::Handshake`].
//!
//! # Quick start
//!
//! ```
//! use kvcc_graph::UndirectedGraph;
//! use kvcc_service::{EngineConfig, QueryRequest, QueryResponse, ServiceEngine};
//!
//! let g = UndirectedGraph::from_edges(
//!     5,
//!     vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
//! )
//! .unwrap();
//! let engine = ServiceEngine::new(EngineConfig::default());
//! let id = engine.load_graph("triangles", &g);
//! let responses = engine.execute_batch(&[
//!     QueryRequest::KvccsContaining { graph: id, seed: 2, k: 2 },
//!     QueryRequest::MaxConnectivity { graph: id, u: 0, v: 4 },
//! ]);
//! assert!(matches!(&responses[0], QueryResponse::Components(c) if c.len() == 2));
//! assert!(matches!(&responses[1], QueryResponse::Connectivity(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod engine;
pub mod protocol;
pub mod qos;
pub mod wire;

pub use coordinator::{run_fleet, CoordinatorConfig, FleetOutcome, FleetStats};
pub use engine::{EngineConfig, LoadReport, ServiceEngine};
pub use protocol::{
    GraphId, LoadFormat, OrderingPolicy, PageCursor, QosStats, QueryRequest, QueryResponse,
    RankedEntry, Request, RequestBody, Response, ResponseBody, SchedulingStats, ServiceError,
};
pub use qos::{AdmissionConfig, AdmissionController, QosConfig, ResultCache, SingleFlight};
pub use wire::faults::{FaultPlan, FaultStatsSnapshot, FaultTransport};
pub use wire::socket::{ShardPool, SocketOptions, StreamTransport, TcpTransport, UnixTransport};
pub use wire::transport::{
    authenticate, call, call_with, run_shard_worker, CallOptions, LoopbackTransport, Transport,
    TransportError,
};
pub use wire::{run_work_item, CsrWorkItem};

// Re-exported so service users need only this crate for the common types.
pub use kvcc::{
    Budget, ConnectivityIndex, KVertexConnectedComponent, KvccOptions, RankBy, UpdateReport,
};
pub use kvcc_graph::{CsrGraph, DeltaGraph, EdgeUpdate, UpdateOp};
