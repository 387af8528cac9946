//! Facade crate for the k-VCC enumeration workspace.
//!
//! The algorithmic code lives in the member crates (`kvcc`, `kvcc-graph`,
//! `kvcc-flow`, `kvcc-baselines`, `kvcc-datasets`, `kvcc-bench`); this root
//! package exists so that the cross-crate integration tests in `tests/` and
//! the runnable examples in `examples/` have a home inside the workspace.
//! It re-exports the primary entry points for convenience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kvcc::{
    enumerate_kvccs, kvccs_containing, AlgorithmVariant, ConnectivityIndex, EnumerationStats,
    KVertexConnectedComponent, KvccEnumerator, KvccError, KvccOptions, KvccResult, UpdateReport,
};
pub use kvcc_flow::{global_vertex_connectivity, is_k_vertex_connected};
pub use kvcc_graph::{
    CsrGraph, DeltaGraph, DeltaStats, EdgeUpdate, GraphView, UndirectedGraph, UpdateOp, VertexId,
};
pub use kvcc_service::{
    call, call_with, run_fleet, run_shard_worker, CallOptions, CoordinatorConfig, EngineConfig,
    FaultPlan, FaultTransport, FleetOutcome, FleetStats, GraphId, LoopbackTransport,
    OrderingPolicy, PageCursor, QueryRequest, QueryResponse, RankBy, RankedEntry, Request,
    RequestBody, Response, ResponseBody, ServiceEngine, ServiceError, ShardPool, SocketOptions,
    TcpTransport, Transport, TransportError, UnixTransport,
};
