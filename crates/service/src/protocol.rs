//! Plain-data types of the versioned service protocol (v6; the version
//! history is on [`crate::wire::message::PROTOCOL_VERSION`]).
//!
//! Requests and responses carry no references into engine state, so a
//! network transport only has to serialise these values; the engine itself
//! never leaks `Arc`s or graph internals through the protocol. Version 2
//! wraps every query in a [`Request`]/[`Response`] envelope (request id,
//! deadline hint), extends the vocabulary with ranked/paginated
//! [`QueryRequest::TopKComponents`] queries, a multi-graph batch form and
//! self-contained shard work items, and gives every error a stable numeric
//! code. The byte encoding lives in [`crate::wire::message`]; this module is
//! only the data model.

use std::time::{Duration, Instant};

use kvcc::index::RankBy;
use kvcc::{Budget, KVertexConnectedComponent, KvccError};
use kvcc_graph::codec::{varint, Reader};
use kvcc_graph::{EdgeUpdate, VertexId};

use crate::wire::CsrWorkItem;

/// Opaque handle of a graph loaded into a [`crate::ServiceEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u32);

impl std::fmt::Display for GraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph#{}", self.0)
    }
}

/// How an engine lays out hot graphs in memory.
///
/// Everything behind the protocol boundary may run in a relabelled id space
/// for cache locality; the engine translates incoming vertex ids on the way
/// in and result ids on the way out, so responses are **always** expressed in
/// the ids the graph was loaded with, whatever the policy. Orderings are
/// deterministic functions of the graph, so the same graph + policy always
/// produces the same internal space (which is what lets a persisted index be
/// restored across restarts, see [`crate::ServiceEngine::install_index_bytes`]).
///
/// The policy is part of the protocol (reported by
/// [`QueryResponse::Stats`]) so clients can tell which id space cursors and
/// persisted indexes belong to.
///
/// `Hybrid` pays only when the loaded ids are scrambled relative to the
/// graph's structure; on generator-local ids it measures inside the noise
/// (see the README's memory-layout notes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// Store graphs with the ids they were loaded with.
    #[default]
    Preserve,
    /// Relabel in per-component BFS order seeded at each component's
    /// maximum-degree vertex (`kvcc_graph::reorder::hybrid_ordering`).
    Hybrid,
}

impl OrderingPolicy {
    /// Stable wire code of the policy. Codes 1 and 2 belonged to retired
    /// relabellings and decode as unknown.
    pub const fn code(self) -> u8 {
        match self {
            OrderingPolicy::Preserve => 0,
            OrderingPolicy::Hybrid => 3,
        }
    }

    /// Decodes a wire code produced by [`OrderingPolicy::code`].
    pub const fn from_code(code: u8) -> Option<OrderingPolicy> {
        match code {
            0 => Some(OrderingPolicy::Preserve),
            3 => Some(OrderingPolicy::Hybrid),
            _ => None,
        }
    }
}

/// On-disk format of a [`RequestBody::LoadGraph`] path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadFormat {
    /// A SNAP-style text edge list, ingested through the streaming loader
    /// (`kvcc_graph::load::StreamingEdgeListLoader`): a byte scan that
    /// numbers raw ids through a bounded dense table (a hash map past the
    /// bound), then a counting-sort CSR build.
    #[default]
    EdgeList,
    /// The aligned `KCSR` v3 binary format. Under
    /// [`OrderingPolicy::Preserve`] the file is served zero-copy from a
    /// borrowed slot (`StoredGraph::Borrowed`).
    Kcsr,
}

impl LoadFormat {
    /// Stable wire code of the format.
    pub const fn code(self) -> u8 {
        match self {
            LoadFormat::EdgeList => 0,
            LoadFormat::Kcsr => 1,
        }
    }

    /// Decodes a wire code produced by [`LoadFormat::code`].
    pub const fn from_code(code: u8) -> Option<LoadFormat> {
        match code {
            0 => Some(LoadFormat::EdgeList),
            1 => Some(LoadFormat::Kcsr),
            _ => None,
        }
    }
}

/// One query against a loaded graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRequest {
    /// All k-VCCs of the graph (answered from the index when one is built,
    /// otherwise a full enumeration).
    EnumerateKvccs {
        /// Target graph.
        graph: GraphId,
        /// Connectivity parameter.
        k: u32,
    },
    /// The k-VCCs containing `seed` — the §6.4 case-study query. Served by an
    /// ancestor walk in the [`kvcc::ConnectivityIndex`].
    KvccsContaining {
        /// Target graph.
        graph: GraphId,
        /// The seed vertex.
        seed: VertexId,
        /// Connectivity parameter.
        k: u32,
    },
    /// The largest `k` such that `u` and `v` share a k-VCC (lowest common
    /// ancestor in the index forest).
    MaxConnectivity {
        /// Target graph.
        graph: GraphId,
        /// First vertex.
        u: VertexId,
        /// Second vertex.
        v: VertexId,
    },
    /// The vertex connectivity number of `v` (largest `k` with a k-VCC
    /// containing it).
    VertexConnectivityNumber {
        /// Target graph.
        graph: GraphId,
        /// The vertex.
        v: VertexId,
    },
    /// A raw `GLOBAL-CUT` probe: a vertex cut of size `< k`, or `None` when
    /// the graph is k-vertex connected. Runs on the worker's
    /// [`kvcc::global_cut::CutScratch`] arena.
    GlobalCutProbe {
        /// Target graph.
        graph: GraphId,
        /// Connectivity parameter.
        k: u32,
    },
    /// Exact local vertex connectivity `κ(u, v)` capped at `limit`, answered
    /// on the worker's flow arena.
    LocalConnectivity {
        /// Target graph.
        graph: GraphId,
        /// First vertex.
        u: VertexId,
        /// Second vertex.
        v: VertexId,
        /// Early-termination cap (the answer saturates here).
        limit: u32,
    },
    /// Basic statistics of a loaded graph (cheap health/debug query).
    GraphStats {
        /// Target graph.
        graph: GraphId,
    },
    /// The top-ranked components of the whole index forest, paginated.
    ///
    /// Ranking is a sort over metadata the index precomputed at build time
    /// ([`kvcc::ConnectivityIndex::ranked_components`]); the first page is
    /// requested with `cursor: None` and every [`QueryResponse::Page`]
    /// carries the opaque cursor resuming after it. Walking pages until the
    /// cursor runs out yields **every** component of the forest exactly
    /// once. Cursors are only valid against the same engine, graph and
    /// `rank_by`; anything else is rejected with
    /// [`ServiceError::InvalidCursor`].
    TopKComponents {
        /// Target graph.
        graph: GraphId,
        /// Ranking key.
        rank_by: RankBy,
        /// Maximum entries per page (must be at least 1).
        page_size: u32,
        /// Resumption cursor from the previous page, `None` for the first.
        cursor: Option<Vec<u8>>,
    },
}

impl QueryRequest {
    /// The graph the request addresses.
    pub fn graph(&self) -> GraphId {
        match *self {
            QueryRequest::EnumerateKvccs { graph, .. }
            | QueryRequest::KvccsContaining { graph, .. }
            | QueryRequest::MaxConnectivity { graph, .. }
            | QueryRequest::VertexConnectivityNumber { graph, .. }
            | QueryRequest::GlobalCutProbe { graph, .. }
            | QueryRequest::LocalConnectivity { graph, .. }
            | QueryRequest::GraphStats { graph }
            | QueryRequest::TopKComponents { graph, .. } => graph,
        }
    }

    /// Whether answering needs the [`kvcc::ConnectivityIndex`] (and should
    /// trigger its lazy construction). [`QueryRequest::EnumerateKvccs`] is
    /// excluded: it *uses* an existing index but a single enumeration is
    /// cheaper than building the whole hierarchy.
    pub fn needs_index(&self) -> bool {
        matches!(
            self,
            QueryRequest::KvccsContaining { .. }
                | QueryRequest::MaxConnectivity { .. }
                | QueryRequest::VertexConnectivityNumber { .. }
                | QueryRequest::TopKComponents { .. }
        )
    }
}

/// One entry of a [`QueryResponse::Page`]: a component plus the metadata it
/// was ranked on, expressed in loaded vertex ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankedEntry {
    /// Connectivity level of the component.
    pub k: u32,
    /// Number of graph edges with both endpoints inside the component.
    pub internal_edges: u64,
    /// The component members.
    pub component: KVertexConnectedComponent,
}

impl RankedEntry {
    /// Number of members.
    pub fn size(&self) -> u32 {
        self.component.len() as u32
    }

    /// Internal edges over possible edges (`0.0` below two members); the
    /// same formula the index ranks with ([`kvcc::index::density_of`]).
    pub fn density(&self) -> f64 {
        kvcc::index::density_of(self.internal_edges, self.component.len())
    }
}

/// Magic bytes opening every serialised page cursor.
const CURSOR_MAGIC: [u8; 4] = *b"KCUR";
/// Version byte of the cursor format (tracks the protocol version).
/// Version 3 added the index mutation epoch to the fingerprint.
const CURSOR_VERSION: u8 = 3;

/// The decoded form of the opaque pagination cursor carried by
/// [`QueryRequest::TopKComponents`] and [`QueryResponse::Page`].
///
/// The cursor is self-contained — the engine keeps **no** per-client
/// pagination state. `graph`, `num_nodes` and `epoch` together fingerprint
/// the listing the cursor was issued against, so a cursor replayed against a
/// different graph handle, a different ranking, an index rebuilt with a
/// different depth cap, or a forest mutated by
/// [`RequestBody::ApplyUpdates`] since the page was minted is rejected
/// instead of silently skipping or repeating components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageCursor {
    /// The graph handle the cursor was issued for.
    pub graph: GraphId,
    /// The ranking the cursor belongs to.
    pub rank_by: RankBy,
    /// Number of entries already returned (resume point).
    pub offset: u64,
    /// Total node count of the index the cursor was issued against.
    pub num_nodes: u64,
    /// Mutation epoch of the index the cursor was issued against.
    pub epoch: u64,
}

impl PageCursor {
    /// Serialises the cursor (magic, version, rank code, then graph id,
    /// offset, node-count and epoch varints).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 1 + 1 + 5 + 10 + 10 + 10);
        out.extend_from_slice(&CURSOR_MAGIC);
        out.push(CURSOR_VERSION);
        out.push(self.rank_by.code());
        varint::encode_u32(self.graph.0, &mut out);
        varint::encode_u64(self.offset, &mut out);
        varint::encode_u64(self.num_nodes, &mut out);
        varint::encode_u64(self.epoch, &mut out);
        out
    }

    /// Deserialises a cursor, reporting *why* a hostile or stale buffer was
    /// rejected (the reason is surfaced through
    /// [`ServiceError::InvalidCursor`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, &'static str> {
        let mut r = Reader::new(bytes);
        if r.take(4).map(|m| m != CURSOR_MAGIC).unwrap_or(true) {
            return Err("not a page cursor");
        }
        if r.u8() != Some(CURSOR_VERSION) {
            return Err("unsupported cursor version");
        }
        let rank_by = r
            .u8()
            .and_then(RankBy::from_code)
            .ok_or("unknown ranking key")?;
        let graph = GraphId(r.varint_u32().ok_or("cursor graph id truncated")?);
        let offset = r.varint_u64().ok_or("cursor offset truncated")?;
        let num_nodes = r.varint_u64().ok_or("cursor fingerprint truncated")?;
        let epoch = r.varint_u64().ok_or("cursor epoch truncated")?;
        r.finish().ok_or("trailing bytes after the cursor")?;
        Ok(PageCursor {
            graph,
            rank_by,
            offset,
            num_nodes,
            epoch,
        })
    }
}

/// Cumulative scheduling counters of one loaded graph, accumulated over the
/// direct (non-index-served) enumerations the engine ran against it and
/// reported by [`QueryResponse::Stats`].
///
/// `work_items` is a deterministic function of the workload and the
/// engine's enumeration options; `steals` is genuinely
/// scheduling-dependent (it varies run to run and across thread counts) and
/// exists for observability, never for parity comparison. `cancelled_runs`
/// counts enumerations interrupted mid-run by a request deadline.
///
/// The fleet counters (`retries` through `local_fallbacks`, the protocol-v4
/// additions) accumulate over the slot's *sharded* enumerations
/// ([`crate::ServiceEngine::enumerate_sharded`]): they are the wire-visible
/// record of how much failure handling the coordinator had to do. Like
/// `steals` they depend on timing and the fault environment, never on the
/// answer — output stays byte-identical whatever these count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulingStats {
    /// Work items drained across all direct enumerations on the slot.
    pub work_items: u64,
    /// Work items a worker popped from the shared stack that another worker
    /// had created.
    pub steals: u64,
    /// Components the enumeration deferred to other workers. It no longer
    /// defers any, so this stays 0; the field keeps the protocol-v6 `Stats`
    /// layout until the next protocol version drops it.
    pub splits: u64,
    /// Enumerations interrupted mid-run by a deadline or cancellation.
    pub cancelled_runs: u64,
    /// Sharded work items re-sent after a retryable failure (timeout,
    /// in-flight corruption, retryable peer error).
    pub retries: u64,
    /// Sharded work items pulled off a dead, quarantined or straggling
    /// worker and requeued onto the healthy fleet.
    pub requeues: u64,
    /// Workers quarantined after consecutive failures.
    pub quarantines: u64,
    /// Quarantined workers reinstated after a successful probe.
    pub reinstatements: u64,
    /// Sharded work items the coordinator completed by *local* execution —
    /// graceful degradation when the fleet was gone or an item exhausted
    /// its retry budget.
    pub local_fallbacks: u64,
    /// [`RequestBody::ApplyUpdates`] batches applied to the slot (the
    /// protocol-v5 mutation counters; equal to the slot's current epoch for
    /// a graph that was never reloaded).
    pub update_batches: u64,
    /// Edge updates carried by those batches (inserts + deletes, counting
    /// redundant ones).
    pub update_edges: u64,
    /// Update batches that rebuilt the index from scratch. The repair
    /// never does, so this stays 0; the field keeps the protocol-v6
    /// `Stats` layout until the next protocol version drops it.
    pub update_rebuilds: u64,
    /// Update batches that changed the slot's graph (protocol v6): each one
    /// applies its edits to a [`kvcc_graph::DeltaGraph`] overlay and folds
    /// them into a fresh CSR. Batches that leave the graph unchanged (e.g.
    /// only redundant updates) are not counted.
    pub compactions: u64,
}

/// Engine-wide query-QoS counters (protocol v6), reported by
/// [`QueryResponse::Stats`].
///
/// `cache_hits`/`cache_misses` are deterministic functions of the request
/// sequence (the cache key embeds the slot epoch, so invalidation is exact);
/// `coalesced`, `shed` and `queue_depth` depend on concurrency, load and
/// wall-clock timing and exist for observability, never for parity
/// comparison — like [`SchedulingStats::steals`], they never influence
/// response bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QosStats {
    /// Queries answered from the epoch-keyed result cache.
    pub cache_hits: u64,
    /// Cacheable queries that missed and executed (each miss is exactly one
    /// real execution when coalescing is on).
    pub cache_misses: u64,
    /// Queries that joined an identical in-flight execution and received
    /// the leader's response instead of executing (single-flight waiters).
    pub coalesced: u64,
    /// Requests rejected by admission control with
    /// [`ServiceError::Overloaded`] — predicted to miss their deadline
    /// hint, or arriving with the admission queue full.
    pub shed: u64,
    /// Requests currently parked in the bounded admission queue (a gauge,
    /// not a cumulative counter).
    pub queue_depth: u64,
}

/// The answer to one [`QueryRequest`], in the same batch position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryResponse {
    /// A list of components (enumeration and containment queries).
    Components(Vec<KVertexConnectedComponent>),
    /// A connectivity value (max-connectivity and local-connectivity
    /// queries).
    Connectivity(u32),
    /// A vertex cut of size `< k`, or `None` when none exists.
    Cut(Option<Vec<VertexId>>),
    /// Graph statistics.
    Stats {
        /// Number of vertices.
        num_vertices: usize,
        /// Number of undirected edges.
        num_edges: usize,
        /// Whether the connectivity index has been built.
        indexed: bool,
        /// Deepest hierarchy level when indexed (0 otherwise).
        max_k: u32,
        /// Memory layout policy of the engine holding the graph.
        ordering: OrderingPolicy,
        /// The depth cap the index was built with (`None`: complete, or not
        /// yet built — check `indexed`). A `Some` value warns clients that
        /// enumeration/containment answers beyond the cap fall back to
        /// direct computation and connectivity values saturate there, so a
        /// depth-capped index is detectable instead of silently
        /// under-reporting.
        depth_limit: Option<u32>,
        /// Cumulative scheduling observability for this graph slot, so the
        /// runtime behaviour of the parallel enumerator is inspectable over
        /// the wire (see [`SchedulingStats`]).
        scheduling: SchedulingStats,
        /// Mutation epoch of the slot: 0 at load, +1 per applied
        /// [`RequestBody::ApplyUpdates`] batch. Page cursors embed it, and
        /// result caches can key on `(graph, epoch)`.
        epoch: u64,
        /// Engine-wide query-QoS counters (protocol v6; see [`QosStats`]).
        qos: QosStats,
    },
    /// A [`RequestBody::ApplyUpdates`] batch was applied (protocol v5).
    Updated {
        /// The slot's mutation epoch after the batch.
        epoch: u64,
        /// Forest nodes the repair derived itself instead of keeping an
        /// old node's subtree (see [`kvcc::UpdateReport::repaired_nodes`]);
        /// 0 when the slot had no index yet.
        repaired_nodes: u32,
        /// Whether the index was rebuilt from scratch: always `false`, as
        /// the repair never rebuilds. Kept for the protocol-v6 layout until
        /// the next protocol version drops it.
        rebuilt: bool,
    },
    /// One page of a ranked component listing, with the cursor resuming
    /// after it (`None` on the final page).
    Page {
        /// The entries of this page, in ranking order.
        entries: Vec<RankedEntry>,
        /// Opaque cursor for the next page; `None` when exhausted.
        next_cursor: Option<Vec<u8>>,
    },
    /// The request failed; the batch keeps going for the other requests.
    Error(ServiceError),
    /// A [`RequestBody::LoadGraph`] succeeded: the handle of the new slot
    /// plus the ingestion diagnostics.
    Loaded {
        /// Handle of the freshly loaded graph.
        graph: GraphId,
        /// Number of vertices.
        num_vertices: u64,
        /// Number of undirected edges.
        num_edges: u64,
        /// Self-loop lines dropped during ingestion (always 0 for `KCSR`
        /// input, which is loop-free by construction).
        self_loops: u64,
        /// Duplicate edge occurrences dropped during ingestion.
        duplicates: u64,
        /// Whether the slot borrows the file bytes zero-copy
        /// (`StoredGraph::Borrowed`) rather than holding a decoded copy.
        zero_copy: bool,
    },
    /// A [`RequestBody::Handshake`] token was accepted (protocol v6); the
    /// connection may now issue ordinary requests.
    HandshakeOk,
}

/// Errors surfaced through [`QueryResponse::Error`] or the engine API.
///
/// Every variant carries a stable numeric [`code`](ServiceError::code) that
/// is part of the wire contract: clients branch on the code, the message
/// strings are for humans and may change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// Code 1: the [`GraphId`] does not name a loaded graph.
    UnknownGraph {
        /// The offending handle.
        graph: GraphId,
    },
    /// Code 2: a vertex id is outside the graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
    },
    /// Code 3: the underlying enumeration rejected the parameters or failed.
    Enumeration(String),
    /// Code 4: a pagination cursor was malformed, stale, or issued for a
    /// different ranking or index.
    InvalidCursor {
        /// Why the cursor was rejected.
        reason: String,
    },
    /// Code 5: the envelope's deadline hint expired before the work ran.
    DeadlineExceeded,
    /// Code 6: the endpoint does not serve this request shape (e.g. a
    /// shard worker receiving an engine query).
    Unsupported {
        /// What was requested.
        what: String,
    },
    /// Code 7: the request bytes did not decode as a protocol-v2 message.
    MalformedRequest {
        /// Decoder diagnostic.
        reason: String,
    },
    /// Code 8: a transport carrying the conversation failed mid-flight.
    Transport {
        /// Transport diagnostic.
        reason: String,
    },
    /// Code 9: a [`RequestBody::LoadGraph`] could not ingest its file
    /// (missing path, parse error, malformed or corrupted `KCSR` bytes).
    LoadFailed {
        /// Loader diagnostic.
        reason: String,
    },
    /// Code 10 (protocol v6): admission control shed the request — its
    /// estimated work cannot meet the envelope's `deadline_hint_ms` under
    /// the observed cost-per-unit, or the bounded admission queue was full.
    /// Retryable: the rejection reflects transient load, not the request.
    Overloaded,
    /// Code 11 (protocol v6): the endpoint requires a shared-secret
    /// handshake ([`RequestBody::Handshake`]) and the connection has not
    /// presented a matching token. Terminal — resending without the right
    /// secret cannot succeed.
    Unauthorized,
}

impl ServiceError {
    /// Whether retrying the *same* request can succeed — the single
    /// retryable-vs-terminal classification shared by the shard
    /// coordinator and the [`crate::wire::transport::call_with`] client
    /// path.
    ///
    /// Retryable: [`ServiceError::Transport`] (the carrier failed
    /// mid-flight), [`ServiceError::MalformedRequest`] (the peer
    /// received mangled bytes — the sender knows its own encoding was
    /// valid, so the corruption happened in flight and a resend is sound)
    /// and [`ServiceError::Overloaded`] (the shed reflects transient load;
    /// the same request can be admitted once the queue drains).
    /// Everything else is terminal: [`ServiceError::DeadlineExceeded`]
    /// will not un-expire, [`ServiceError::Unauthorized`] will not grow
    /// the right secret, and the semantic rejections (unknown graph,
    /// out-of-range vertex, invalid cursor, unsupported shape, failed
    /// load, enumeration error) reproduce identically on a resend.
    pub const fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServiceError::Transport { .. }
                | ServiceError::MalformedRequest { .. }
                | ServiceError::Overloaded
        )
    }

    /// The stable numeric code of the error (wire contract; see the variant
    /// docs).
    pub const fn code(&self) -> u16 {
        match self {
            ServiceError::UnknownGraph { .. } => 1,
            ServiceError::VertexOutOfRange { .. } => 2,
            ServiceError::Enumeration(_) => 3,
            ServiceError::InvalidCursor { .. } => 4,
            ServiceError::DeadlineExceeded => 5,
            ServiceError::Unsupported { .. } => 6,
            ServiceError::MalformedRequest { .. } => 7,
            ServiceError::Transport { .. } => 8,
            ServiceError::LoadFailed { .. } => 9,
            ServiceError::Overloaded => 10,
            ServiceError::Unauthorized => 11,
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[E{}] ", self.code())?;
        match self {
            ServiceError::UnknownGraph { graph } => {
                write!(f, "{graph} is not loaded")
            }
            ServiceError::VertexOutOfRange { vertex } => {
                write!(f, "vertex {vertex} is out of range")
            }
            ServiceError::Enumeration(message) => write!(f, "enumeration failed: {message}"),
            ServiceError::InvalidCursor { reason } => {
                write!(f, "invalid page cursor: {reason}")
            }
            ServiceError::DeadlineExceeded => write!(f, "deadline hint expired"),
            ServiceError::Unsupported { what } => {
                write!(f, "this endpoint does not serve: {what}")
            }
            ServiceError::MalformedRequest { reason } => {
                write!(f, "malformed request: {reason}")
            }
            ServiceError::Transport { reason } => write!(f, "transport failure: {reason}"),
            ServiceError::LoadFailed { reason } => {
                write!(f, "graph load failed: {reason}")
            }
            ServiceError::Overloaded => {
                write!(f, "admission control shed the request (overloaded)")
            }
            ServiceError::Unauthorized => {
                write!(f, "handshake token missing or mismatched")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<KvccError> for ServiceError {
    fn from(value: KvccError) -> Self {
        match value {
            KvccError::SeedOutOfRange { seed } => ServiceError::VertexOutOfRange { vertex: seed },
            // A budget interrupt is the deadline contract of the protocol:
            // stable code 5, not a free-text enumeration failure. The
            // partial statistics stay on the engine side (slot scheduling
            // counters); the wire error is deliberately payload-free.
            KvccError::Interrupted { .. } => ServiceError::DeadlineExceeded,
            other => ServiceError::Enumeration(other.to_string()),
        }
    }
}

/// The protocol-v2 request envelope: everything a server needs to route,
/// prioritise and answer one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the [`Response`] so
    /// requests may be answered out of order.
    pub request_id: u64,
    /// Soft deadline in milliseconds, measured from when the server starts
    /// processing the envelope. Work whose turn comes after the hint expired
    /// is answered with [`ServiceError::DeadlineExceeded`] instead of
    /// running; `None` means no deadline.
    pub deadline_hint_ms: Option<u32>,
    /// The actual work.
    pub body: RequestBody,
}

impl Request {
    /// Convenience constructor for an un-deadlined single query.
    pub fn query(request_id: u64, query: QueryRequest) -> Self {
        Request {
            request_id,
            deadline_hint_ms: None,
            body: RequestBody::Query(query),
        }
    }

    /// Arms the envelope's deadline as a cooperative [`Budget`], measured
    /// from *now* — call it when the server starts processing. Without a
    /// hint the budget is unlimited. This is the single definition of the
    /// hint→budget conversion, shared by the engine and the shard worker.
    pub fn budget(&self) -> Budget {
        match self.deadline_hint_ms {
            Some(ms) => Budget::with_deadline(Instant::now() + Duration::from_millis(ms as u64)),
            None => Budget::unlimited(),
        }
    }
}

/// The payload of a [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestBody {
    /// One query against one loaded graph.
    Query(QueryRequest),
    /// A batch of queries, answered positionally in one
    /// [`ResponseBody::Batch`]. Queries may address **different** graphs;
    /// per-query failures surface as [`QueryResponse::Error`] without
    /// affecting the rest.
    Batch(Vec<QueryRequest>),
    /// A self-contained shard enumeration unit: the worker runs `KVCC-ENUM`
    /// on the embedded subgraph and answers
    /// [`QueryResponse::Components`] in **original** graph ids. Requires no
    /// loaded graph on the serving side, which is what lets a shard worker
    /// run from bytes alone.
    WorkItem {
        /// Connectivity parameter.
        k: u32,
        /// The subgraph plus its id map.
        item: CsrWorkItem,
    },
    /// Load a graph from a file **on the serving host** into a new slot,
    /// answered with [`QueryResponse::Loaded`]. Edge lists go through the
    /// streaming loader; `KCSR` files are served zero-copy under
    /// [`OrderingPolicy::Preserve`] and decoded otherwise. The path is
    /// resolved by the server process, so this variant only makes sense on
    /// trusted, co-located deployments (the shard worker rejects it).
    LoadGraph {
        /// Name to register the graph under (diagnostic only).
        name: String,
        /// Path of the file on the serving host.
        path: String,
        /// How to interpret the file.
        format: LoadFormat,
    },
    /// Apply a batch of edge inserts/deletes to a loaded graph (protocol
    /// v5), answered with [`QueryResponse::Updated`]. The engine mutates
    /// the graph, repairs its [`kvcc::ConnectivityIndex`] level by level
    /// ([`kvcc::ConnectivityIndex::apply_updates`]: a node the batch left
    /// unchanged keeps its old subtree, only the others are derived again,
    /// and the result equals a rebuild byte for byte) and advances the
    /// slot's epoch by exactly one — atomically: queries in flight keep
    /// reading the pre-update snapshot, and a failed batch leaves the slot
    /// untouched. Vertex ids are in the graph's loaded id space. Redundant
    /// updates (duplicate insert, missing delete, self-loops) are tolerated
    /// no-ops, matching [`kvcc_graph::DeltaGraph`].
    ApplyUpdates {
        /// Target graph.
        graph: GraphId,
        /// The edge mutations, applied in order.
        updates: Vec<EdgeUpdate>,
    },
    /// Present a shared-secret token to an authenticated endpoint (protocol
    /// v6), answered with [`QueryResponse::HandshakeOk`] on a match and
    /// [`ServiceError::Unauthorized`] on a mismatch. A `kvcc-shardd` started
    /// with `--token` requires this to be the **first** frame of every
    /// connection and refuses all other work until it succeeds; endpoints
    /// without a configured token accept the frame as a no-op, so clients
    /// can handshake unconditionally.
    Handshake {
        /// The shared secret, compared verbatim.
        token: String,
    },
}

/// The protocol-v2 response envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// The [`Request::request_id`] this answers.
    pub request_id: u64,
    /// The payload.
    pub body: ResponseBody,
}

/// The payload of a [`Response`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResponseBody {
    /// The answer to a [`RequestBody::Query`] or [`RequestBody::WorkItem`].
    Query(QueryResponse),
    /// Positional answers to a [`RequestBody::Batch`].
    Batch(Vec<QueryResponse>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_accessors() {
        let id = GraphId(3);
        let requests = [
            QueryRequest::EnumerateKvccs { graph: id, k: 4 },
            QueryRequest::KvccsContaining {
                graph: id,
                seed: 1,
                k: 4,
            },
            QueryRequest::MaxConnectivity {
                graph: id,
                u: 0,
                v: 1,
            },
            QueryRequest::VertexConnectivityNumber { graph: id, v: 2 },
            QueryRequest::GlobalCutProbe { graph: id, k: 3 },
            QueryRequest::LocalConnectivity {
                graph: id,
                u: 0,
                v: 1,
                limit: 8,
            },
            QueryRequest::GraphStats { graph: id },
            QueryRequest::TopKComponents {
                graph: id,
                rank_by: RankBy::Density,
                page_size: 10,
                cursor: None,
            },
        ];
        for r in &requests {
            assert_eq!(r.graph(), id);
        }
        assert_eq!(
            requests.iter().filter(|r| r.needs_index()).count(),
            4,
            "exactly the hierarchy-backed queries need the index"
        );
    }

    #[test]
    fn errors_display_their_context_and_codes() {
        assert!(ServiceError::UnknownGraph { graph: GraphId(9) }
            .to_string()
            .contains('9'));
        assert!(ServiceError::VertexOutOfRange { vertex: 42 }
            .to_string()
            .contains("42"));
        let from_kvcc: ServiceError = KvccError::SeedOutOfRange { seed: 7 }.into();
        assert_eq!(from_kvcc, ServiceError::VertexOutOfRange { vertex: 7 });
        let from_invalid: ServiceError = KvccError::InvalidK.into();
        assert!(matches!(from_invalid, ServiceError::Enumeration(_)));
        // The numeric codes are a wire contract: fixed, dense, and shown in
        // the display form.
        let all = [
            ServiceError::UnknownGraph { graph: GraphId(0) },
            ServiceError::VertexOutOfRange { vertex: 0 },
            ServiceError::Enumeration(String::new()),
            ServiceError::InvalidCursor {
                reason: String::new(),
            },
            ServiceError::DeadlineExceeded,
            ServiceError::Unsupported {
                what: String::new(),
            },
            ServiceError::MalformedRequest {
                reason: String::new(),
            },
            ServiceError::Transport {
                reason: String::new(),
            },
            ServiceError::LoadFailed {
                reason: String::new(),
            },
            ServiceError::Overloaded,
            ServiceError::Unauthorized,
        ];
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.code() as usize, i + 1);
            assert!(e.to_string().starts_with(&format!("[E{}]", i + 1)));
        }
        // Exactly the transient failure modes are retryable — in-flight
        // corruption/carrier loss (7, 8) and an admission shed (10); every
        // semantic rejection is terminal.
        let retryable: Vec<u16> = all
            .iter()
            .filter(|e| e.is_retryable())
            .map(|e| e.code())
            .collect();
        assert_eq!(retryable, vec![7, 8, 10]);
    }

    #[test]
    fn ordering_policy_codes_are_stable() {
        for policy in [OrderingPolicy::Preserve, OrderingPolicy::Hybrid] {
            assert_eq!(OrderingPolicy::from_code(policy.code()), Some(policy));
        }
        assert_eq!(OrderingPolicy::Hybrid.code(), 3);
        // The retired relabellings' codes decode like any unknown code.
        for code in [1, 2, 4] {
            assert_eq!(OrderingPolicy::from_code(code), None);
        }
    }

    #[test]
    fn load_format_codes_roundtrip() {
        for format in [LoadFormat::EdgeList, LoadFormat::Kcsr] {
            assert_eq!(LoadFormat::from_code(format.code()), Some(format));
        }
        assert_eq!(LoadFormat::from_code(9), None);
        assert_eq!(LoadFormat::default(), LoadFormat::EdgeList);
    }

    #[test]
    fn cursors_roundtrip_and_reject_hostile_bytes() {
        let cursor = PageCursor {
            graph: GraphId(42),
            rank_by: RankBy::Size,
            offset: 12_345,
            num_nodes: 67_890,
            epoch: 3,
        };
        let bytes = cursor.to_bytes();
        assert_eq!(PageCursor::from_bytes(&bytes).unwrap(), cursor);
        for cut in 0..bytes.len() {
            assert!(PageCursor::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Z';
        assert!(PageCursor::from_bytes(&bad_magic).is_err());
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(PageCursor::from_bytes(&bad_version).is_err());
        let mut bad_rank = bytes.clone();
        bad_rank[5] = 77;
        assert!(PageCursor::from_bytes(&bad_rank).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(PageCursor::from_bytes(&trailing).is_err());
    }
}
