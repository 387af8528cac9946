//! The long-lived [`ServiceEngine`]: hot CSR graphs + lazy connectivity
//! indexes + a batched worker pool.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use kvcc::global_cut::{global_cut_with_scratch, CutScratch};
use kvcc::index::{ConnectivityIndex, RankBy};
use kvcc::stats::EnumerationStats;
use kvcc::{
    effective_threads, enumerate_kvccs, split_cost, Budget, KVertexConnectedComponent, KvccError,
    KvccOptions, UpdateReport,
};
use kvcc_flow::{LocalConnectivity, VertexFlowGraph};
use kvcc_graph::kcore::k_core_vertices;
use kvcc_graph::reorder::{hybrid_ordering, VertexOrdering};
use kvcc_graph::traversal::is_connected;
use kvcc_graph::{
    CsrGraph, DeltaGraph, EdgeUpdate, GraphView, MappedCsr, StreamingEdgeListLoader, SubgraphView,
    VertexId,
};

// `OrderingPolicy` is protocol-visible since v2 (reported by `Stats`); it is
// re-exported here because the engine is its natural home for readers.
use crate::coordinator::{run_fleet, CoordinatorConfig, FleetOutcome, FleetStats};
pub use crate::protocol::OrderingPolicy;
use crate::protocol::{
    GraphId, LoadFormat, PageCursor, QosStats, QueryRequest, QueryResponse, RankedEntry, Request,
    RequestBody, Response, ResponseBody, SchedulingStats, ServiceError,
};
use crate::qos::{self, CacheKey, FlightOutcome, QosConfig, QosLayer};
use crate::wire::transport::{Transport, TransportError};
use crate::wire::{run_work_item, CsrWorkItem};

/// Engine tuning knobs. The default uses one batch worker per available
/// core (`threads: 0`), the paper's `VCCE*` enumeration options, no
/// index depth cap and the loaded vertex order.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Worker threads for [`ServiceEngine::execute_batch`]: `0` uses
    /// [`std::thread::available_parallelism`], `n >= 1` a fixed pool.
    pub threads: usize,
    /// Enumeration options used for direct enumerations and index builds.
    pub enumeration: KvccOptions,
    /// Depth cap for lazily built indexes (`None`: up to the degeneracy).
    /// With a cap, containment/enumeration queries for `k` beyond it fall
    /// back to direct enumeration, and connectivity-value queries
    /// ([`crate::QueryRequest::MaxConnectivity`],
    /// [`crate::QueryRequest::VertexConnectivityNumber`]) saturate at the
    /// cap.
    pub index_max_k: Option<u32>,
    /// Memory layout of hot graphs (see [`OrderingPolicy`]). Responses are
    /// identical under every policy.
    pub ordering: OrderingPolicy,
    /// Query-serving QoS: the epoch-keyed result cache, single-flight
    /// coalescing of identical in-flight queries, and cost-model admission
    /// control (see [`crate::qos`]). The default is fully disabled — the
    /// engine behaves exactly as before protocol v6 until a deployment opts
    /// in (e.g. [`QosConfig::serving`]).
    pub qos: QosConfig,
}

/// How a slot stores its graph: an owned CSR, or borrowed zero-copy from the
/// validated bytes of an aligned `KCSR` file ([`MappedCsr`]). Implements
/// [`GraphView`] by delegation so every query path runs on either form
/// unchanged.
enum StoredGraph {
    Plain(CsrGraph),
    Borrowed(MappedCsr),
}

impl GraphView for StoredGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        match self {
            StoredGraph::Plain(g) => g.num_vertices(),
            StoredGraph::Borrowed(g) => g.num_vertices(),
        }
    }

    #[inline]
    fn num_edges(&self) -> usize {
        match self {
            StoredGraph::Plain(g) => g.num_edges(),
            StoredGraph::Borrowed(g) => g.num_edges(),
        }
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self {
            StoredGraph::Plain(g) => g.neighbors(v),
            StoredGraph::Borrowed(g) => g.neighbors(v),
        }
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        match self {
            StoredGraph::Plain(g) => g.degree(v),
            StoredGraph::Borrowed(g) => GraphView::degree(g, v),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            StoredGraph::Plain(g) => g.memory_bytes(),
            StoredGraph::Borrowed(g) => g.memory_bytes(),
        }
    }
}

/// What [`ServiceEngine::load_from_path`] loaded: the in-process mirror of
/// the wire-level [`QueryResponse::Loaded`] response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Handle of the freshly loaded graph.
    pub graph: GraphId,
    /// Vertices after normalisation.
    pub num_vertices: u64,
    /// Undirected edges after normalisation.
    pub num_edges: u64,
    /// Self-loop lines dropped during ingestion (edge lists only; `KCSR`
    /// files are already normalised).
    pub self_loops: u64,
    /// Duplicate edge occurrences dropped during ingestion (edge lists
    /// only).
    pub duplicates: u64,
    /// Whether the slot borrows the validated file bytes zero-copy instead
    /// of holding a decoded CSR copy.
    pub zero_copy: bool,
}

/// Cumulative per-slot scheduling counters (relaxed atomics: the counters
/// are monotone telemetry, not synchronisation).
#[derive(Default)]
struct SlotMetrics {
    work_items: AtomicU64,
    steals: AtomicU64,
    cancelled_runs: AtomicU64,
    retries: AtomicU64,
    requeues: AtomicU64,
    quarantines: AtomicU64,
    reinstatements: AtomicU64,
    local_fallbacks: AtomicU64,
    update_batches: AtomicU64,
    update_edges: AtomicU64,
    compactions: AtomicU64,
}

impl SlotMetrics {
    /// Folds one enumeration's statistics (complete or partial) into the
    /// slot totals.
    fn record(&self, stats: &EnumerationStats) {
        self.work_items
            .fetch_add(stats.work_items_executed, Ordering::Relaxed);
        self.steals.fetch_add(stats.steals, Ordering::Relaxed);
        if stats.cancelled {
            self.cancelled_runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds one sharded enumeration's failure handling into the slot
    /// totals.
    fn record_fleet(&self, stats: &FleetStats) {
        self.retries.fetch_add(stats.retries, Ordering::Relaxed);
        self.requeues.fetch_add(stats.requeues, Ordering::Relaxed);
        self.quarantines
            .fetch_add(stats.quarantines, Ordering::Relaxed);
        self.reinstatements
            .fetch_add(stats.reinstatements, Ordering::Relaxed);
        self.local_fallbacks
            .fetch_add(stats.local_fallbacks, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SchedulingStats {
        SchedulingStats {
            work_items: self.work_items.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            splits: 0,
            cancelled_runs: self.cancelled_runs.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            requeues: self.requeues.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            reinstatements: self.reinstatements.load(Ordering::Relaxed),
            local_fallbacks: self.local_fallbacks.load(Ordering::Relaxed),
            update_batches: self.update_batches.load(Ordering::Relaxed),
            update_edges: self.update_edges.load(Ordering::Relaxed),
            update_rebuilds: 0,
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

/// One loaded graph: the shared stored form (possibly relabelled per the
/// engine's [`OrderingPolicy`]), the id maps bridging the internal and
/// loaded spaces, the lazily built index (internal id space) and the slot's
/// scheduling telemetry.
struct GraphSlot {
    name: String,
    graph: StoredGraph,
    /// `Some` when the engine stores the graph reordered; `None` means the
    /// internal ids equal the loaded ids.
    ordering: Option<VertexOrdering>,
    index: OnceLock<ConnectivityIndex>,
    /// Canonical top-k listing, built once from the index (see
    /// [`TopkOrders`]).
    topk: OnceLock<TopkOrders>,
    /// Shared with the slot's successors: applying an update batch replaces
    /// the whole (immutable) slot, and the telemetry must survive the swap.
    metrics: Arc<SlotMetrics>,
    /// How many update batches this graph has absorbed since it was loaded.
    /// Starts at 0, +1 per [`ServiceEngine::apply_updates`] batch; stamps
    /// page cursors and the lazily built index so stale readers are caught.
    epoch: u64,
}

/// The slot-level ranking state behind `TopKComponents`: every forest
/// node's component translated to **loaded** ids, plus one permutation per
/// [`kvcc::index::RankBy`] key sorted over them.
///
/// The index's own rank orders break ties by internal node id, which
/// depends on the engine's [`OrderingPolicy`] (the hierarchy is built on
/// the relabelled graph). Pages must be identical under every policy — the
/// PR 3 response invariant — so the engine re-sorts in external space: key
/// descending, ties by the loaded-id member list, then by level (two nodes
/// can share a member list only at different levels). Built lazily on the
/// first top-k query and cached for the slot's lifetime (the index is
/// immutable once set).
struct TopkOrders {
    /// Per forest node: the component in loaded ids (canonical sorted form).
    external: Vec<KVertexConnectedComponent>,
    /// Per [`kvcc::index::RankBy`] code: node ids in page order.
    orders: [Vec<u32>; 3],
}

impl GraphSlot {
    /// The index, building it on first use. Concurrent builders race benignly
    /// (the loser's index is dropped); failures are returned per call so a
    /// later query retries instead of caching the error forever.
    fn index_or_build(&self, config: &EngineConfig) -> Result<&ConnectivityIndex, ServiceError> {
        if let Some(index) = self.index.get() {
            return Ok(index);
        }
        let mut built =
            ConnectivityIndex::build(&self.graph, config.index_max_k, &config.enumeration)
                .map_err(ServiceError::from)?;
        // The slot is the epoch authority: an index built lazily after N
        // update batches describes the N-th graph revision.
        built.set_epoch(self.epoch);
        let _ = self.index.set(built);
        Ok(self.index.get().expect("just set"))
    }

    /// Translates a caller-supplied (loaded-space) vertex id into the slot's
    /// internal space. The caller must have range-checked `v`.
    #[inline]
    fn to_internal(&self, v: VertexId) -> VertexId {
        match &self.ordering {
            Some(ordering) => ordering.to_new(v),
            None => v,
        }
    }

    /// Translates an internal vertex id back into the loaded space.
    #[inline]
    fn to_external(&self, v: VertexId) -> VertexId {
        match &self.ordering {
            Some(ordering) => ordering.to_old(v),
            None => v,
        }
    }

    /// The canonical top-k listing, built on first use from the slot's
    /// (already built) index.
    fn topk_orders(&self, ix: &ConnectivityIndex) -> &TopkOrders {
        self.topk.get_or_init(|| {
            let n = ix.num_nodes();
            let external: Vec<KVertexConnectedComponent> = (0..n as u32)
                .map(|id| {
                    let comp = ix.node_component(id).expect("node id in range");
                    match &self.ordering {
                        None => comp.clone(),
                        Some(_) => KVertexConnectedComponent::new(
                            comp.vertices()
                                .iter()
                                .map(|&v| self.to_external(v))
                                .collect(),
                        ),
                    }
                })
                .collect();
            // One key triple per node; the ranking itself is the shared
            // definition in `kvcc::index::rank_key_cmp`, so the engine's
            // page order can never diverge from the index's.
            let key_of = |id: u32| -> (u32, usize, u64) {
                (
                    ix.node_k(id).expect("node id in range"),
                    external[id as usize].len(),
                    ix.internal_edges_of(id).expect("node id in range"),
                )
            };
            let orders = std::array::from_fn(|slot| {
                let rank_by = RankBy::ALL[slot];
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by(|&a, &b| {
                    kvcc::index::rank_key_cmp(rank_by, key_of(a), key_of(b))
                        .then_with(|| external[a as usize].cmp(&external[b as usize]))
                        .then_with(|| ix.node_k(a).cmp(&ix.node_k(b)))
                });
                order
            });
            TopkOrders { external, orders }
        })
    }

    /// Maps a component list out of the internal space, restoring the
    /// canonical (loaded-id, sorted) form the protocol promises: member
    /// lists sort inside `KVertexConnectedComponent::new`, and the list
    /// itself is re-sorted because relabelling permutes the smallest-member
    /// order.
    fn components_to_external(
        &self,
        components: Vec<KVertexConnectedComponent>,
    ) -> Vec<KVertexConnectedComponent> {
        if self.ordering.is_none() {
            return components;
        }
        let mut mapped: Vec<KVertexConnectedComponent> = components
            .into_iter()
            .map(|c| {
                KVertexConnectedComponent::new(
                    c.vertices().iter().map(|&v| self.to_external(v)).collect(),
                )
            })
            .collect();
        mapped.sort();
        mapped
    }
}

/// Per-worker scratch arenas: one `GLOBAL-CUT` flow arena plus one
/// vertex-split flow arena for local-connectivity probes. Buffers grow to the
/// largest graph probed and are then reused across the whole batch.
struct WorkerScratch {
    cut: CutScratch,
    stats: EnumerationStats,
    flow: VertexFlowGraph,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            cut: CutScratch::new(),
            stats: EnumerationStats::default(),
            flow: VertexFlowGraph::empty(),
        }
    }
}

/// A long-lived query engine holding loaded graphs in CSR form.
///
/// All query methods take `&self`: the engine is meant to sit behind an `Arc`
/// with many request producers. Loading and unloading also take `&self`
/// (slot table behind a mutex), so a serving process can hot-swap datasets
/// without stopping the query path.
pub struct ServiceEngine {
    config: EngineConfig,
    graphs: Mutex<Vec<Option<Arc<GraphSlot>>>>,
    /// Serialises [`ServiceEngine::apply_updates`] batches against each
    /// other. The query path never takes this lock — readers keep their
    /// `Arc<GraphSlot>` snapshot and are untouched by a concurrent writer.
    update_lock: Mutex<()>,
    /// The QoS layer in front of every query path (see [`crate::qos`]);
    /// inert under the default disabled [`QosConfig`].
    qos: QosLayer,
}

impl ServiceEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        let qos = QosLayer::new(config.qos.clone());
        ServiceEngine {
            config,
            graphs: Mutex::new(Vec::new()),
            update_lock: Mutex::new(()),
            qos,
        }
    }

    /// The engine-wide QoS counters (also carried by every
    /// [`QueryResponse::Stats`] response): cache hits and misses, coalesced
    /// waiters, shed requests, and the current admission queue depth.
    pub fn qos_stats(&self) -> QosStats {
        self.qos.snapshot()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Loads a graph (any [`GraphView`]) into the engine as CSR, returning
    /// its handle. The index is *not* built yet; it is constructed lazily by
    /// the first query that needs it, or eagerly via
    /// [`ServiceEngine::build_index`].
    pub fn load_graph<G: GraphView>(&self, name: &str, graph: &G) -> GraphId {
        self.load_csr(name, CsrGraph::from_view(graph))
    }

    /// Loads an already-CSR graph without copying it. Under
    /// [`OrderingPolicy::Hybrid`] the graph is stored relabelled; every query
    /// still speaks loaded ids.
    pub fn load_csr(&self, name: &str, csr: CsrGraph) -> GraphId {
        let (csr, ordering) = match self.config.ordering {
            OrderingPolicy::Preserve => (csr, None),
            OrderingPolicy::Hybrid => {
                let ordering = hybrid_ordering(&csr);
                let reordered = csr.reordered(&ordering);
                (reordered, (!ordering.is_identity()).then_some(ordering))
            }
        };
        self.push_slot(name, StoredGraph::Plain(csr), ordering)
    }

    /// Installs a fully prepared [`StoredGraph`] as a new slot.
    fn push_slot(
        &self,
        name: &str,
        graph: StoredGraph,
        ordering: Option<VertexOrdering>,
    ) -> GraphId {
        let slot = Arc::new(GraphSlot {
            name: name.to_string(),
            graph,
            ordering,
            index: OnceLock::new(),
            topk: OnceLock::new(),
            metrics: Arc::new(SlotMetrics::default()),
            epoch: 0,
        });
        let mut graphs = self.graphs.lock().unwrap();
        graphs.push(Some(slot));
        GraphId((graphs.len() - 1) as u32)
    }

    /// Loads a graph from a file on the engine host, returning the handle
    /// plus ingestion diagnostics. This is the co-located fast path behind
    /// [`crate::protocol::RequestBody::LoadGraph`]:
    ///
    /// * [`LoadFormat::EdgeList`] streams the file through
    ///   [`StreamingEdgeListLoader`] in two linear passes: one byte scan
    ///   that numbers raw ids (a dense table below a bound that grows with
    ///   the vertex count, a hash map above it) into one pair list, then a
    ///   counting-sort CSR build. The text is never held whole, and no
    ///   per-vertex adjacency `Vec` exists.
    /// * [`LoadFormat::Kcsr`] opens an aligned `KCSR` v3 file. Under
    ///   [`OrderingPolicy::Preserve`] the validated file bytes are
    ///   **borrowed** in place ([`MappedCsr`], `zero_copy: true` in the
    ///   report): the load does O(header) work plus one structural
    ///   validation pass, no CSR copy. Under [`OrderingPolicy::Hybrid`] the
    ///   file is decoded and takes the ordinary [`ServiceEngine::load_csr`]
    ///   path, which relabels it.
    ///
    /// Any I/O, parse, or validation failure maps to
    /// [`ServiceError::LoadFailed`]; nothing is partially loaded.
    pub fn load_from_path(
        &self,
        name: &str,
        path: &Path,
        format: LoadFormat,
    ) -> Result<LoadReport, ServiceError> {
        let load_failed = |e: kvcc_graph::GraphError| ServiceError::LoadFailed {
            reason: e.to_string(),
        };
        match format {
            LoadFormat::EdgeList => {
                let ingested = StreamingEdgeListLoader::new()
                    .load_path(path)
                    .map_err(load_failed)?;
                let num_vertices = ingested.graph.num_vertices() as u64;
                let num_edges = ingested.graph.num_edges() as u64;
                Ok(LoadReport {
                    graph: self.load_csr(name, ingested.graph),
                    num_vertices,
                    num_edges,
                    self_loops: ingested.stats.self_loops as u64,
                    duplicates: ingested.stats.duplicates as u64,
                    zero_copy: false,
                })
            }
            LoadFormat::Kcsr => {
                if self.config.ordering == OrderingPolicy::Preserve {
                    let mapped = MappedCsr::open(path).map_err(load_failed)?;
                    let num_vertices = mapped.num_vertices() as u64;
                    let num_edges = mapped.num_edges() as u64;
                    Ok(LoadReport {
                        graph: self.push_slot(name, StoredGraph::Borrowed(mapped), None),
                        num_vertices,
                        num_edges,
                        self_loops: 0,
                        duplicates: 0,
                        zero_copy: true,
                    })
                } else {
                    let bytes = std::fs::read(path).map_err(|e| ServiceError::LoadFailed {
                        reason: e.to_string(),
                    })?;
                    let csr = kvcc_graph::decode_kcsr(&bytes).map_err(load_failed)?;
                    let num_vertices = csr.num_vertices() as u64;
                    let num_edges = csr.num_edges() as u64;
                    Ok(LoadReport {
                        graph: self.load_csr(name, csr),
                        num_vertices,
                        num_edges,
                        self_loops: 0,
                        duplicates: 0,
                        zero_copy: false,
                    })
                }
            }
        }
    }

    /// Unloads a graph; returns `false` when the handle was already empty.
    /// In-flight batches holding the slot's `Arc` finish normally.
    pub fn unload(&self, graph: GraphId) -> bool {
        let mut graphs = self.graphs.lock().unwrap();
        match graphs.get_mut(graph.0 as usize) {
            Some(slot) => slot.take().is_some(),
            None => false,
        }
    }

    /// Number of currently loaded graphs.
    pub fn graph_count(&self) -> usize {
        self.graphs
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// The name a graph was loaded under.
    pub fn graph_name(&self, graph: GraphId) -> Result<String, ServiceError> {
        Ok(self.slot(graph)?.name.clone())
    }

    /// Eagerly builds the connectivity index of a loaded graph.
    pub fn build_index(&self, graph: GraphId) -> Result<(), ServiceError> {
        let slot = self.slot(graph)?;
        slot.index_or_build(&self.config).map(|_| ())
    }

    /// Serialises a graph's connectivity index (building it first if
    /// needed) for persistence. Restoring the bytes into a restarted engine
    /// via [`ServiceEngine::install_index_bytes`] skips the hierarchy build
    /// entirely.
    ///
    /// The bytes are expressed in the slot's **internal** id space, so they
    /// must be restored into an engine using the same [`OrderingPolicy`]
    /// (orderings are deterministic, making that reproducible).
    pub fn index_bytes(&self, graph: GraphId) -> Result<Vec<u8>, ServiceError> {
        let slot = self.slot(graph)?;
        slot.index_or_build(&self.config).map(|ix| ix.to_bytes())
    }

    /// Installs a previously persisted connectivity index
    /// ([`ServiceEngine::index_bytes`]) into a loaded graph, validating the
    /// buffer against the slot: the declared vertex count is checked from
    /// the header **before** anything is allocated, and every component of
    /// the parsed forest is structurally spot-checked against the slot's
    /// adjacency (each member needs `min(k, |C|−1)` neighbours inside its
    /// component). The spot-check is not a full k-connectivity
    /// re-verification, but an index persisted from a different graph — or
    /// from the same graph under a different [`OrderingPolicy`] — fails it
    /// with overwhelming probability instead of silently answering wrong.
    /// Returns an error when a (possibly different) index is already built
    /// for the slot — the engine never silently swaps a live index.
    pub fn install_index_bytes(&self, graph: GraphId, bytes: &[u8]) -> Result<(), ServiceError> {
        let slot = self.slot(graph)?;
        match ConnectivityIndex::peek_num_vertices(bytes) {
            Some(n) if n == slot.graph.num_vertices() => {}
            Some(_) => {
                return Err(ServiceError::Enumeration(
                    "persisted index does not match the graph's vertex count".into(),
                ))
            }
            None => {
                return Err(ServiceError::Enumeration(
                    "not a connectivity-index buffer".into(),
                ))
            }
        }
        let mut index = ConnectivityIndex::from_bytes(bytes)
            .map_err(|e| ServiceError::Enumeration(e.to_string()))?;
        // The slot is the epoch authority (see `index_or_build`): a restored
        // buffer adopts the slot's update epoch, whatever revision count its
        // previous life had accumulated.
        index.set_epoch(slot.epoch);
        if !index_matches_graph(&slot.graph, &index) {
            return Err(ServiceError::Enumeration(
                "persisted index is inconsistent with the loaded graph \
                 (different graph or ordering policy?)"
                    .into(),
            ));
        }
        slot.index
            .set(index)
            .map_err(|_| ServiceError::Enumeration("an index is already installed".into()))
    }

    /// Applies one batch of edge updates to a loaded graph **atomically**.
    /// In-flight queries keep reading the pre-update snapshot (they hold the
    /// old slot's `Arc`); the handle swings to the updated graph in a single
    /// swap, with the slot epoch bumped by one.
    ///
    /// The slot's connectivity index, when already built, is repaired level
    /// by level ([`ConnectivityIndex::apply_updates`]) into the new slot's
    /// index, reading the old one in place: subtrees the batch leaves
    /// untouched are kept, k-core components that grew or lost members of
    /// an old k-VCC are accepted by flow probes around it or split on the
    /// cut a failing probe finds, and only a component that no old k-VCC
    /// anchors is enumerated. The repaired forest is byte-identical
    /// to a from-scratch rebuild. A slot whose index was never built stays
    /// unindexed — the next query that needs it builds against the updated
    /// graph (and stamps it with the new epoch). The batch is applied to a
    /// [`DeltaGraph`] overlay, which is then folded into the slot's new
    /// owned CSR; a zero-copy (`KCSR` borrowed) slot is materialised this
    /// way by its first batch. A batch that changes the graph counts as one
    /// *compaction* in [`SchedulingStats::compactions`].
    ///
    /// Update endpoints are loaded-space ids, like every other request.
    /// Redundant operations — inserting a present edge, deleting an absent
    /// one, self-loops — are tolerated counted no-ops, exactly as in graph
    /// construction. Outstanding `TopKComponents` page cursors are
    /// invalidated by the epoch bump. Concurrent update batches serialise;
    /// an update racing an [`ServiceEngine::unload`] of the same handle
    /// loses cleanly with [`ServiceError::UnknownGraph`].
    pub fn apply_updates(
        &self,
        graph: GraphId,
        updates: &[EdgeUpdate],
    ) -> Result<UpdateReport, ServiceError> {
        self.apply_updates_inner(graph, updates, &Budget::unlimited())
    }

    fn apply_updates_inner(
        &self,
        graph: GraphId,
        updates: &[EdgeUpdate],
        budget: &Budget,
    ) -> Result<UpdateReport, ServiceError> {
        // One writer at a time; the query path never takes this lock.
        let _writer = self.update_lock.lock().unwrap();
        let slot = self.slot(graph)?;
        for update in updates {
            for vertex in [update.u, update.v] {
                if vertex as usize >= slot.graph.num_vertices() {
                    return Err(ServiceError::VertexOutOfRange { vertex });
                }
            }
        }
        // The batch is applied in the slot's internal space so the repaired
        // index stays aligned with the stored (possibly relabelled) graph.
        let internal: Vec<EdgeUpdate> = updates
            .iter()
            .map(|up| EdgeUpdate {
                op: up.op,
                u: slot.to_internal(up.u),
                v: slot.to_internal(up.v),
            })
            .collect();
        let mut delta = DeltaGraph::new(CsrGraph::from_view(&slot.graph));
        delta
            .apply(&internal)
            .map_err(|e| ServiceError::Enumeration(e.to_string()))?;

        let epoch = slot.epoch + 1;
        let (index, report) = match slot.index.get() {
            Some(ix) => {
                let options = self.config.enumeration.clone().with_budget(budget.clone());
                let (repaired, report) = ix
                    .apply_updates(&delta, &internal, &options)
                    .map_err(ServiceError::from)?;
                (Some(repaired), report)
            }
            None => (
                None,
                UpdateReport {
                    epoch,
                    repaired_nodes: 0,
                    affected_vertices: 0,
                },
            ),
        };

        // A batch that leaves the graph unchanged (e.g. only redundant
        // updates) leaves the overlay empty and is not counted.
        if delta.overlay_len() > 0 {
            slot.metrics.compactions.fetch_add(1, Ordering::Relaxed);
        }
        let stored = StoredGraph::Plain(delta.into_csr());
        let index_cell = OnceLock::new();
        if let Some(ix) = index {
            let _ = index_cell.set(ix);
        }
        let replacement = Arc::new(GraphSlot {
            name: slot.name.clone(),
            graph: stored,
            // The relabelling stays valid (updates never change `n`); it is
            // merely no longer degree-optimal, which affects locality only.
            ordering: slot.ordering.clone(),
            index: index_cell,
            // The top-k listing describes the old forest; rebuilt lazily.
            topk: OnceLock::new(),
            metrics: Arc::clone(&slot.metrics),
            epoch,
        });
        {
            let mut graphs = self.graphs.lock().unwrap();
            match graphs.get_mut(graph.0 as usize) {
                // The handle must still hold the slot this batch was computed
                // against — a concurrent unload loses the race cleanly.
                Some(entry) if entry.as_ref().is_some_and(|s| Arc::ptr_eq(s, &slot)) => {
                    *entry = Some(replacement);
                }
                _ => return Err(ServiceError::UnknownGraph { graph }),
            }
        }
        slot.metrics.update_batches.fetch_add(1, Ordering::Relaxed);
        slot.metrics
            .update_edges
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// The number of update batches a loaded graph has absorbed (0 for a
    /// freshly loaded slot). This is the epoch stamped into `Stats`
    /// responses, page cursors and lazily built indexes.
    pub fn graph_epoch(&self, graph: GraphId) -> Result<u64, ServiceError> {
        Ok(self.slot(graph)?.epoch)
    }

    /// Executes one request (on the caller's thread, with a throwaway
    /// scratch). Prefer [`ServiceEngine::execute_batch`] for traffic.
    pub fn execute(&self, request: &QueryRequest) -> QueryResponse {
        self.execute_with(request, &mut WorkerScratch::new(), &Budget::unlimited())
    }

    /// Executes a batch of requests on the worker pool, returning one
    /// response per request in the same order. Individual failures surface as
    /// [`QueryResponse::Error`] without affecting the rest of the batch.
    pub fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<QueryResponse> {
        self.execute_batch_inner(requests, &Budget::unlimited())
    }

    /// [`ServiceEngine::execute_batch`] under a deadline [`Budget`]. The
    /// token is checked **between** requests (a request whose turn comes
    /// after expiry is answered [`ServiceError::DeadlineExceeded`] without
    /// executing) and threaded **into** each request (a long enumeration
    /// already running when the deadline passes is interrupted at its next
    /// checkpoint), so one slow batch position cannot blow through its
    /// envelope's hint either way.
    fn execute_batch_inner(
        &self,
        requests: &[QueryRequest],
        budget: &Budget,
    ) -> Vec<QueryResponse> {
        let threads = effective_threads(self.config.threads).min(requests.len().max(1));
        if threads <= 1 {
            let mut scratch = WorkerScratch::new();
            return requests
                .iter()
                .map(|r| {
                    if budget.expired() {
                        QueryResponse::Error(ServiceError::DeadlineExceeded)
                    } else {
                        self.execute_with(r, &mut scratch, budget)
                    }
                })
                .collect();
        }

        // Index builds are expensive and racy under OnceLock (concurrent
        // losers throw work away), so resolve them once up front.
        let mut prebuilt: Vec<GraphId> = requests
            .iter()
            .filter(|r| r.needs_index())
            .map(|r| r.graph())
            .collect();
        prebuilt.sort_unstable();
        prebuilt.dedup();
        for graph in prebuilt {
            // Unknown graphs and build failures are reported per request.
            let _ = self.build_index(graph);
        }

        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, QueryResponse)>> =
            Mutex::new(Vec::with_capacity(requests.len()));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch = WorkerScratch::new();
                    let mut local: Vec<(usize, QueryResponse)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        let response = if budget.expired() {
                            QueryResponse::Error(ServiceError::DeadlineExceeded)
                        } else {
                            self.execute_with(&requests[i], &mut scratch, budget)
                        };
                        local.push((i, response));
                    }
                    collected.lock().unwrap().extend(local);
                });
            }
        });
        let mut indexed = collected.into_inner().unwrap();
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }

    /// Executes one protocol-v2 envelope: the request id is echoed, the
    /// deadline hint (measured from this call) is enforced, and the body is
    /// dispatched — single queries to the direct path, batches to the worker
    /// pool, work items to the shard executor. This is the single entry
    /// point behind [`ServiceEngine::handle_frame`], so in-process callers
    /// and byte-driven transports observe identical semantics.
    pub fn execute_request(&self, request: &Request) -> Response {
        let budget = request.budget();
        let body = match &request.body {
            RequestBody::Query(query) => ResponseBody::Query(if budget.expired() {
                QueryResponse::Error(ServiceError::DeadlineExceeded)
            } else {
                self.execute_with(query, &mut WorkerScratch::new(), &budget)
            }),
            RequestBody::Batch(queries) => {
                ResponseBody::Batch(self.execute_batch_inner(queries, &budget))
            }
            RequestBody::WorkItem { k, item } => ResponseBody::Query(if budget.expired() {
                QueryResponse::Error(ServiceError::DeadlineExceeded)
            } else {
                let options = self.config.enumeration.clone().with_budget(budget);
                match run_work_item(item, *k, &options) {
                    Ok(components) => QueryResponse::Components(components),
                    Err(e) => QueryResponse::Error(e.into()),
                }
            }),
            RequestBody::LoadGraph { name, path, format } => {
                ResponseBody::Query(if budget.expired() {
                    QueryResponse::Error(ServiceError::DeadlineExceeded)
                } else {
                    match self.load_from_path(name, Path::new(path), *format) {
                        Ok(report) => QueryResponse::Loaded {
                            graph: report.graph,
                            num_vertices: report.num_vertices,
                            num_edges: report.num_edges,
                            self_loops: report.self_loops,
                            duplicates: report.duplicates,
                            zero_copy: report.zero_copy,
                        },
                        Err(e) => QueryResponse::Error(e),
                    }
                })
            }
            RequestBody::Handshake { .. } => {
                // Token *checking* lives at the transport boundary (the
                // accept path of a `--token`-armed `kvcc-shardd`); an engine
                // reached in-process or behind an unarmed endpoint treats
                // the handshake as a no-op so clients can send it
                // unconditionally.
                ResponseBody::Query(QueryResponse::HandshakeOk)
            }
            RequestBody::ApplyUpdates { graph, updates } => {
                ResponseBody::Query(if budget.expired() {
                    QueryResponse::Error(ServiceError::DeadlineExceeded)
                } else {
                    match self.apply_updates_inner(*graph, updates, &budget) {
                        Ok(report) => QueryResponse::Updated {
                            epoch: report.epoch,
                            repaired_nodes: report.repaired_nodes,
                            // Protocol v6 still carries the field; the
                            // repair has no whole-graph rebuild path.
                            rebuilt: false,
                        },
                        Err(e) => QueryResponse::Error(e),
                    }
                })
            }
        };
        Response {
            request_id: request.request_id,
            body,
        }
    }

    /// Decodes one request frame, executes it, and encodes the response
    /// frame — the engine's entire byte-level surface. Undecodable frames
    /// are answered with [`ServiceError::MalformedRequest`] under request
    /// id 0 (none could be read), never dropped: a client always gets one
    /// response frame per request frame.
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let response = match Request::from_bytes(frame) {
            Ok(request) => self.execute_request(&request),
            Err(e) => Response {
                request_id: 0,
                body: ResponseBody::Query(QueryResponse::Error(ServiceError::MalformedRequest {
                    reason: e.to_string(),
                })),
            },
        };
        response.to_bytes()
    }

    /// Serves a transport until the peer closes it: one response frame per
    /// request frame, in order. This is what turns the engine into a
    /// network service — bind any [`Transport`] (the in-process loopback, a
    /// future socket) and drive the full v2 vocabulary over bytes.
    pub fn serve(&self, transport: &dyn Transport) -> Result<(), TransportError> {
        while let Some(frame) = transport.recv()? {
            transport.send(&self.handle_frame(&frame))?;
        }
        Ok(())
    }

    /// Distributed enumeration over byte transports: partitions the graph's
    /// `KVCC-ENUM` worklist ([`ServiceEngine::partition_work`]), drives the
    /// items through the self-healing shard coordinator
    /// ([`crate::coordinator::run_fleet`]) with the default
    /// [`CoordinatorConfig`], and merges the responses. The result is
    /// byte-identical to [`ServiceEngine::execute`] answering
    /// [`QueryRequest::EnumerateKvccs`] on this engine — asserted by the
    /// `wire_parity` and `fleet_parity` suites — because work items ship
    /// loaded ids, shard outputs are disjoint by construction, and retried
    /// or locally degraded items land in per-item result slots (first
    /// completion wins).
    ///
    /// Each transport must be connected to a peer serving work items
    /// ([`crate::wire::transport::run_shard_worker`] or another engine's
    /// [`ServiceEngine::serve`] loop). Fleet telemetry (retries, requeues,
    /// quarantines, …) folds into the slot's [`SchedulingStats`]; use
    /// [`ServiceEngine::enumerate_sharded_with`] to tune the failure
    /// handling and receive the per-run counters.
    pub fn enumerate_sharded(
        &self,
        graph: GraphId,
        k: u32,
        shards: &[&dyn Transport],
    ) -> Result<Vec<KVertexConnectedComponent>, ServiceError> {
        let config = CoordinatorConfig {
            // The PR 4 entry point failed fast on an absent fleet; keep that
            // contract here and let the `_with` form opt into degradation.
            local_fallback: !shards.is_empty(),
            ..CoordinatorConfig::default()
        };
        self.enumerate_sharded_with(graph, k, shards, &config)
            .map(|outcome| outcome.components)
    }

    /// [`ServiceEngine::enumerate_sharded`] with explicit failure-handling
    /// configuration, returning the merged components *and* what the
    /// coordinator had to do to get them ([`FleetOutcome`]).
    pub fn enumerate_sharded_with(
        &self,
        graph: GraphId,
        k: u32,
        shards: &[&dyn Transport],
        config: &CoordinatorConfig,
    ) -> Result<FleetOutcome, ServiceError> {
        let items = self.partition_work(graph, k)?;
        let outcome = run_fleet(&items, k, shards, &self.config.enumeration, config)?;
        self.slot(graph)?.metrics.record_fleet(&outcome.stats);
        Ok(outcome)
    }

    /// Splits the initial `KVCC-ENUM` worklist of a loaded graph into
    /// self-contained, serialisable work items: the connected components of
    /// the k-core, each as a CSR subgraph plus its id map. Shipping every
    /// item through [`CsrWorkItem::to_bytes`] to a different process and
    /// merging the [`crate::run_work_item`] outputs reproduces the
    /// whole-graph enumeration exactly.
    ///
    /// Items come back **largest-first** by the enumeration cost model
    /// ([`kvcc::split_cost`]), so round-robin shipment starts the expensive
    /// items earliest.
    pub fn partition_work(&self, graph: GraphId, k: u32) -> Result<Vec<CsrWorkItem>, ServiceError> {
        if k == 0 {
            return Err(ServiceError::Enumeration("k must be at least 1".into()));
        }
        let slot = self.slot(graph)?;
        let g = &slot.graph;
        let core = k_core_vertices(g, k as usize);
        // The core is already peeled; the mask supplies the component split.
        let view = SubgraphView::from_vertices(g, &core);
        let mut map = Vec::new();
        let mut items: Vec<CsrWorkItem> = Vec::new();
        for component in view.components() {
            if component.len() <= k as usize {
                continue;
            }
            let sub = CsrGraph::extract_induced(g, &component, &mut map);
            // Work items cross the protocol boundary, so their id maps point
            // at loaded ids even when the slot stores the graph reordered.
            let to_original: Vec<VertexId> =
                component.iter().map(|&v| slot.to_external(v)).collect();
            items.push(CsrWorkItem::new(sub, to_original));
        }

        // Largest-first, ties broken by the id map for determinism.
        items.sort_by(|a, b| {
            item_cost(b, k)
                .cmp(&item_cost(a, k))
                .then_with(|| a.to_original().cmp(b.to_original()))
        });
        Ok(items)
    }

    fn slot(&self, graph: GraphId) -> Result<Arc<GraphSlot>, ServiceError> {
        self.graphs
            .lock()
            .unwrap()
            .get(graph.0 as usize)
            .and_then(|s| s.clone())
            .ok_or(ServiceError::UnknownGraph { graph })
    }

    /// The QoS front door of every query path — in-process calls, batch
    /// workers, framed bytes and sockets all funnel through here. Resolves
    /// the slot's mutation epoch, consults the result cache, coalesces
    /// identical in-flight executions, and runs admission control before
    /// [`ServiceEngine::execute_uncached`] does real work. Under the
    /// default (disabled) [`QosConfig`] this is a straight pass-through.
    fn execute_with(
        &self,
        request: &QueryRequest,
        scratch: &mut WorkerScratch,
        budget: &Budget,
    ) -> QueryResponse {
        let eligible = qos::cacheable(request);
        let use_cache = eligible && self.qos.config.cache_enabled();
        let use_flight = eligible && self.qos.config.coalesce;
        if !use_cache && !use_flight {
            return self.admit_and_execute(request, scratch, budget);
        }
        // The epoch embedded in the key is the whole invalidation story: an
        // update batch advances it, so entries minted at earlier epochs stop
        // being addressable and age out of the LRU.
        let epoch = match self.slot(request.graph()) {
            Ok(slot) => slot.epoch,
            Err(e) => return QueryResponse::Error(e),
        };
        let key = CacheKey::new(request, epoch);
        if use_cache {
            if let Some(hit) = self.qos.cache.get(&key) {
                return hit;
            }
        }
        if !use_flight {
            self.qos.cache.count_miss();
            let response = self.admit_and_execute(request, scratch, budget);
            self.cache_insert(&key, &response);
            return response;
        }
        match self.qos.flight.join(&key) {
            FlightOutcome::Coalesced(Ok(response)) => response,
            FlightOutcome::Coalesced(Err(_poisoned)) => {
                QueryResponse::Error(ServiceError::Enumeration(
                    "coalesced execution failed before publishing a response".into(),
                ))
            }
            FlightOutcome::Leader(leader) => {
                if use_cache {
                    self.qos.cache.count_miss();
                }
                let response = self.admit_and_execute(request, scratch, budget);
                // Cache before retiring the flight: a caller arriving in
                // between would find neither and run the query again.
                if use_cache {
                    self.cache_insert(&key, &response);
                }
                // Waiters receive exactly what the leader produced — error
                // responses included (a failed execution propagates rather
                // than wedging anyone).
                leader.publish(response.clone());
                response
            }
        }
    }

    /// Publishes a response into the result cache — unless it is an error
    /// (never cached: the next caller should retry the real execution) or an
    /// update batch landed between key minting and execution, in which case
    /// the entry would describe a superseded epoch and is simply dropped.
    fn cache_insert(&self, key: &CacheKey, response: &QueryResponse) {
        if matches!(response, QueryResponse::Error(_)) {
            return;
        }
        match self.slot(key.graph) {
            Ok(slot) if slot.epoch == key.epoch => {}
            _ => return,
        }
        self.qos.cache.insert(
            key.clone(),
            response.clone(),
            qos::response_weight(response),
        );
    }

    /// Runs the admission controller (when armed) in front of the uncached
    /// executor: flow-running query kinds are priced with the shared
    /// scheduling cost model and shed with [`ServiceError::Overloaded`]
    /// when the controller predicts the request cannot meet its deadline
    /// hint or the bounded wait queue is full. Every admitted execution
    /// feeds its observed cost back into the controller's EWMA.
    fn admit_and_execute(
        &self,
        request: &QueryRequest,
        scratch: &mut WorkerScratch,
        budget: &Budget,
    ) -> QueryResponse {
        let Some(controller) = self.qos.admission.as_ref() else {
            return self.execute_uncached(request, scratch, budget);
        };
        let Some(cost) = self.request_cost(request) else {
            return self.execute_uncached(request, scratch, budget);
        };
        match controller.admit(cost, budget.deadline()) {
            Ok(_permit) => {
                let start = Instant::now();
                let response = self.execute_uncached(request, scratch, budget);
                controller.observe(cost, start.elapsed());
                response
            }
            Err(_shed) => QueryResponse::Error(ServiceError::Overloaded),
        }
    }

    /// The admission cost of a request under the shared scheduling model
    /// ([`kvcc::split_cost`] `= |E| + k·|V|`), or `None` for kinds that are
    /// not admission-gated — stats, index-lookup queries and page reads are
    /// too cheap to meaningfully price — or when the graph cannot be
    /// resolved (the executor owns that error).
    fn request_cost(&self, request: &QueryRequest) -> Option<u64> {
        let k = match *request {
            QueryRequest::EnumerateKvccs { k, .. } => k,
            QueryRequest::KvccsContaining { k, .. } => k,
            QueryRequest::GlobalCutProbe { k, .. } => k,
            QueryRequest::LocalConnectivity { limit, .. } => limit,
            _ => return None,
        };
        let slot = self.slot(request.graph()).ok()?;
        Some(split_cost(
            slot.graph.num_vertices(),
            slot.graph.num_edges(),
            k,
        ))
    }

    /// The real executor behind the QoS layer (the pre-v6 `execute_with`):
    /// resolves the slot and answers the request from the index or by
    /// direct enumeration, with no caching, coalescing or admission.
    fn execute_uncached(
        &self,
        request: &QueryRequest,
        scratch: &mut WorkerScratch,
        budget: &Budget,
    ) -> QueryResponse {
        let slot = match self.slot(request.graph()) {
            Ok(slot) => slot,
            Err(e) => return QueryResponse::Error(e),
        };
        let g = &slot.graph;
        // The engine's enumeration options with this request's budget
        // attached, so a deadline hint interrupts work *mid-run* instead of
        // merely gating its start. Index builds stay un-deadlined (a
        // half-built index helps nobody and the next query would rebuild).
        let options = || self.config.enumeration.clone().with_budget(budget.clone());
        // Vertex ids arriving in requests live in the loaded id space; the
        // slot may store the graph relabelled, so ids are translated on the
        // way in (after range checks — the permutation preserves `n`) and
        // every id-carrying result is translated back before it leaves.
        match *request {
            QueryRequest::EnumerateKvccs { k, .. } => {
                // A depth-capped index has never enumerated levels beyond its
                // cap, so only answer from it when it covers `k`.
                if let Some(index) = slot.index.get().filter(|ix| k >= 1 && ix.covers(k)) {
                    return QueryResponse::Components(
                        slot.components_to_external(index.components_at(k).to_vec()),
                    );
                }
                match enumerate_kvccs(g, k, &options()) {
                    Ok(result) => {
                        slot.metrics.record(result.stats());
                        QueryResponse::Components(
                            slot.components_to_external(result.components().to_vec()),
                        )
                    }
                    Err(KvccError::Interrupted { stats }) => {
                        // The partial statistics are folded into the slot's
                        // scheduling telemetry (`cancelled_runs` included);
                        // the wire answer is the stable deadline code.
                        slot.metrics.record(&stats);
                        QueryResponse::Error(ServiceError::DeadlineExceeded)
                    }
                    Err(e) => QueryResponse::Error(e.into()),
                }
            }
            QueryRequest::KvccsContaining { seed, k, .. } => {
                if seed as usize >= g.num_vertices() {
                    return QueryResponse::Error(ServiceError::VertexOutOfRange { vertex: seed });
                }
                let seed = slot.to_internal(seed);
                match slot.index_or_build(&self.config) {
                    Ok(ix) if ix.covers(k) => match ix.kvccs_containing(seed, k) {
                        Ok(components) => {
                            QueryResponse::Components(slot.components_to_external(components))
                        }
                        Err(e) => QueryResponse::Error(e.into()),
                    },
                    // Beyond the index cap: fall back to the direct localized
                    // query instead of wrongly answering "no components".
                    Ok(_) => match kvcc::kvccs_containing(g, seed, k, &options()) {
                        Ok(components) => {
                            QueryResponse::Components(slot.components_to_external(components))
                        }
                        Err(KvccError::Interrupted { stats }) => {
                            // Same telemetry contract as the EnumerateKvccs
                            // arm: a cancelled direct enumeration must show
                            // up in the slot's scheduling counters.
                            slot.metrics.record(&stats);
                            QueryResponse::Error(ServiceError::DeadlineExceeded)
                        }
                        Err(e) => QueryResponse::Error(e.into()),
                    },
                    Err(e) => QueryResponse::Error(e),
                }
            }
            QueryRequest::MaxConnectivity { u, v, .. } => {
                for vertex in [u, v] {
                    if vertex as usize >= g.num_vertices() {
                        return QueryResponse::Error(ServiceError::VertexOutOfRange { vertex });
                    }
                }
                let (u, v) = (slot.to_internal(u), slot.to_internal(v));
                match slot
                    .index_or_build(&self.config)
                    .and_then(|ix| ix.max_connectivity(u, v).map_err(ServiceError::from))
                {
                    Ok(value) => QueryResponse::Connectivity(value),
                    Err(e) => QueryResponse::Error(e),
                }
            }
            QueryRequest::VertexConnectivityNumber { v, .. } => {
                if v as usize >= g.num_vertices() {
                    return QueryResponse::Error(ServiceError::VertexOutOfRange { vertex: v });
                }
                let v = slot.to_internal(v);
                match slot.index_or_build(&self.config) {
                    Ok(ix) => QueryResponse::Connectivity(ix.max_connectivity_of(v)),
                    Err(e) => QueryResponse::Error(e),
                }
            }
            QueryRequest::GlobalCutProbe { k, .. } => {
                if k == 0 || g.num_vertices() == 0 {
                    // No cut can have fewer than zero vertices / nothing to cut.
                    return QueryResponse::Cut(None);
                }
                if !is_connected(g) {
                    // The empty set already separates a disconnected graph.
                    return QueryResponse::Cut(Some(Vec::new()));
                }
                let outcome = match global_cut_with_scratch(
                    g,
                    k,
                    &options(),
                    &mut scratch.stats,
                    &mut scratch.cut,
                ) {
                    Ok(outcome) => outcome,
                    Err(_) => return QueryResponse::Error(ServiceError::DeadlineExceeded),
                };
                QueryResponse::Cut(outcome.cut.map(|cut| {
                    let mut cut: Vec<VertexId> =
                        cut.into_iter().map(|v| slot.to_external(v)).collect();
                    cut.sort_unstable();
                    cut
                }))
            }
            QueryRequest::LocalConnectivity { u, v, limit, .. } => {
                for vertex in [u, v] {
                    if vertex as usize >= g.num_vertices() {
                        return QueryResponse::Error(ServiceError::VertexOutOfRange { vertex });
                    }
                }
                let (u, v) = (slot.to_internal(u), slot.to_internal(v));
                scratch.flow.rebuild(g);
                let value = match scratch.flow.local_connectivity_nonadjacent(u, v, limit) {
                    LocalConnectivity::AtLeast(value) => value,
                    LocalConnectivity::Cut(cut) => cut.len() as u32,
                };
                QueryResponse::Connectivity(value)
            }
            QueryRequest::GraphStats { .. } => {
                let (indexed, max_k, depth_limit) = match slot.index.get() {
                    Some(ix) => (true, ix.max_k(), ix.depth_limit()),
                    None => (false, 0, None),
                };
                QueryResponse::Stats {
                    num_vertices: g.num_vertices(),
                    num_edges: g.num_edges(),
                    indexed,
                    max_k,
                    // The protocol reports the engine's layout policy and the
                    // index build cap so clients can tell a depth-capped
                    // index from a complete one instead of silently
                    // under-reading connectivity values saturated at the cap.
                    ordering: self.config.ordering,
                    depth_limit,
                    scheduling: slot.metrics.snapshot(),
                    epoch: slot.epoch,
                    qos: self.qos.snapshot(),
                }
            }
            QueryRequest::TopKComponents {
                rank_by,
                page_size,
                ref cursor,
                ..
            } => {
                if page_size == 0 {
                    return QueryResponse::Error(ServiceError::MalformedRequest {
                        reason: "page_size must be at least 1".into(),
                    });
                }
                let ix = match slot.index_or_build(&self.config) {
                    Ok(ix) => ix,
                    Err(e) => return QueryResponse::Error(e),
                };
                let graph = request.graph();
                let num_nodes = ix.num_nodes() as u64;
                let invalid = |reason: &str| {
                    QueryResponse::Error(ServiceError::InvalidCursor {
                        reason: reason.into(),
                    })
                };
                let offset = match cursor {
                    None => 0,
                    Some(bytes) => match PageCursor::from_bytes(bytes) {
                        Ok(cursor) => {
                            if cursor.graph != graph {
                                return invalid("cursor was issued for a different graph");
                            }
                            if cursor.rank_by != rank_by {
                                return invalid("cursor was issued for a different ranking");
                            }
                            if cursor.epoch != slot.epoch {
                                // The graph moved on (an update batch landed
                                // between pages); resuming the old page walk
                                // would silently mix two forests.
                                return invalid("cursor was issued for an older graph epoch");
                            }
                            if cursor.num_nodes != num_nodes {
                                return invalid("cursor does not match this index");
                            }
                            if cursor.offset > num_nodes {
                                return invalid("cursor offset is out of range");
                            }
                            cursor.offset
                        }
                        Err(reason) => return invalid(reason),
                    },
                };
                // Pages come from the slot's canonical external-space
                // ranking, so they are identical under every ordering
                // policy; the index supplies the per-node metadata.
                let topk = slot.topk_orders(ix);
                let order = &topk.orders[rank_by.code() as usize];
                let start = (offset as usize).min(order.len());
                let end = start.saturating_add(page_size as usize).min(order.len());
                let entries: Vec<RankedEntry> = order[start..end]
                    .iter()
                    .map(|&id| RankedEntry {
                        k: ix.node_k(id).expect("node id in range"),
                        internal_edges: ix.internal_edges_of(id).expect("node id in range"),
                        component: topk.external[id as usize].clone(),
                    })
                    .collect();
                let consumed = offset + entries.len() as u64;
                let next_cursor = (consumed < num_nodes).then(|| {
                    PageCursor {
                        graph,
                        rank_by,
                        offset: consumed,
                        num_nodes,
                        epoch: slot.epoch,
                    }
                    .to_bytes()
                });
                QueryResponse::Page {
                    entries,
                    next_cursor,
                }
            }
        }
    }
}

/// Structural spot-check of a deserialised index against a graph's
/// adjacency: every member of a level-`k` component must have at least
/// `min(k, |C|−1)` neighbours inside the component (a necessary condition of
/// k-vertex connectivity), and the component's persisted internal edge count
/// — the ranking metadata — must equal the actual count in the graph.
/// Linear in the total member count times degree; a forest persisted from a
/// different graph or id space essentially never satisfies it.
fn index_matches_graph<G: GraphView>(csr: &G, index: &ConnectivityIndex) -> bool {
    let mut inside = kvcc_graph::BitSet::new(csr.num_vertices());
    // The ranked listing visits every forest node exactly once with its
    // persisted metadata attached.
    for entry in index.ranked_components(kvcc::index::RankBy::Size, index.num_nodes()) {
        let members = entry.component.vertices();
        for &v in members {
            inside.insert(v as usize);
        }
        let need = (entry.k as usize).min(members.len().saturating_sub(1));
        let mut directed_inside = 0u64;
        let mut ok = true;
        for &v in members {
            let inside_degree = csr
                .neighbors(v)
                .iter()
                .filter(|&&w| inside.contains(w as usize))
                .count();
            directed_inside += inside_degree as u64;
            ok &= inside_degree >= need;
        }
        for &v in members {
            inside.remove(v as usize);
        }
        // Also verify the persisted ranking metadata against the graph, so
        // a restored index can never rank on fabricated densities.
        if !ok || directed_inside / 2 != entry.internal_edges {
            return false;
        }
    }
    true
}

/// The scheduling cost of a shard work item under the shared cost model.
fn item_cost(item: &CsrWorkItem, k: u32) -> u64 {
    split_cost(item.graph().num_vertices(), item.graph().num_edges(), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_work_item;
    use kvcc::KVertexConnectedComponent;
    use kvcc_graph::{UndirectedGraph, VertexId};

    /// Two triangles sharing vertex 2 plus an unrelated K4 on {5,6,7,8}.
    fn mixed_graph() -> UndirectedGraph {
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
        for i in 5..9u32 {
            for j in (i + 1)..9 {
                edges.push((i, j));
            }
        }
        UndirectedGraph::from_edges(9, edges).unwrap()
    }

    fn engine_with_graph() -> (ServiceEngine, GraphId) {
        let engine = ServiceEngine::new(EngineConfig::default());
        let id = engine.load_graph("mixed", &mixed_graph());
        (engine, id)
    }

    #[test]
    fn load_query_unload_lifecycle() {
        let (engine, id) = engine_with_graph();
        assert_eq!(engine.graph_count(), 1);
        assert_eq!(engine.graph_name(id).unwrap(), "mixed");
        assert!(matches!(
            engine.execute(&QueryRequest::GraphStats { graph: id }),
            QueryResponse::Stats {
                num_vertices: 9,
                indexed: false,
                ..
            }
        ));
        assert!(engine.unload(id));
        assert!(!engine.unload(id));
        assert_eq!(engine.graph_count(), 0);
        assert!(matches!(
            engine.execute(&QueryRequest::GraphStats { graph: id }),
            QueryResponse::Error(ServiceError::UnknownGraph { .. })
        ));
    }

    #[test]
    fn batch_answers_match_direct_library_calls() {
        let (engine, id) = engine_with_graph();
        let g = mixed_graph();
        let requests: Vec<QueryRequest> = (0..g.num_vertices() as VertexId)
            .map(|seed| QueryRequest::KvccsContaining {
                graph: id,
                seed,
                k: 2,
            })
            .collect();
        let responses = engine.execute_batch(&requests);
        assert_eq!(responses.len(), requests.len());
        for (seed, response) in responses.iter().enumerate() {
            let expected =
                kvcc::kvccs_containing(&g, seed as VertexId, 2, &KvccOptions::default()).unwrap();
            assert_eq!(
                response,
                &QueryResponse::Components(expected),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn enumerate_uses_the_index_once_built() {
        let (engine, id) = engine_with_graph();
        let before = engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k: 2 });
        engine.build_index(id).unwrap();
        let after = engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k: 2 });
        assert_eq!(before, after);
        assert!(matches!(
            engine.execute(&QueryRequest::GraphStats { graph: id }),
            QueryResponse::Stats {
                indexed: true,
                max_k: 3,
                ..
            }
        ));
    }

    #[test]
    fn connectivity_queries() {
        let (engine, id) = engine_with_graph();
        assert_eq!(
            engine.execute(&QueryRequest::MaxConnectivity {
                graph: id,
                u: 5,
                v: 8
            }),
            QueryResponse::Connectivity(3)
        );
        assert_eq!(
            engine.execute(&QueryRequest::VertexConnectivityNumber { graph: id, v: 2 }),
            QueryResponse::Connectivity(2)
        );
        assert_eq!(
            engine.execute(&QueryRequest::LocalConnectivity {
                graph: id,
                u: 0,
                v: 3,
                limit: 5,
            }),
            QueryResponse::Connectivity(1),
            "vertex 2 separates the two triangles"
        );
        assert!(matches!(
            engine.execute(&QueryRequest::VertexConnectivityNumber { graph: id, v: 99 }),
            QueryResponse::Error(ServiceError::VertexOutOfRange { vertex: 99 })
        ));
    }

    #[test]
    fn global_cut_probe_runs_on_worker_scratch() {
        let engine = ServiceEngine::new(EngineConfig::default());
        // The mixed graph is disconnected: the empty set is already a cut.
        let mixed = engine.load_graph("mixed", &mixed_graph());
        assert_eq!(
            engine.execute(&QueryRequest::GlobalCutProbe { graph: mixed, k: 2 }),
            QueryResponse::Cut(Some(Vec::new()))
        );
        // Two triangles glued at vertex 2: {2} is the only 1-vertex cut.
        let glued = engine.load_graph(
            "glued",
            &UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                .unwrap(),
        );
        match engine.execute(&QueryRequest::GlobalCutProbe { graph: glued, k: 2 }) {
            QueryResponse::Cut(Some(cut)) => assert_eq!(cut, vec![2]),
            other => panic!("expected a cut, got {other:?}"),
        }
        // A K4 has no cut below 3.
        let k4 = engine.load_graph(
            "k4",
            &UndirectedGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
                .unwrap(),
        );
        assert_eq!(
            engine.execute(&QueryRequest::GlobalCutProbe { graph: k4, k: 3 }),
            QueryResponse::Cut(None)
        );
    }

    #[test]
    fn depth_capped_index_never_underreports_components() {
        let engine = ServiceEngine::new(EngineConfig {
            index_max_k: Some(1),
            ..EngineConfig::default()
        });
        let id = engine.load_graph("mixed", &mixed_graph());
        engine.build_index(id).unwrap();
        let reference = ServiceEngine::new(EngineConfig::default());
        let ref_id = reference.load_graph("mixed", &mixed_graph());
        // Queries beyond the cap must fall back to the direct paths, not
        // answer "no components" from the truncated forest.
        for k in 2..=3u32 {
            for seed in 0..9 {
                let capped = engine.execute(&QueryRequest::KvccsContaining { graph: id, seed, k });
                let full = reference.execute(&QueryRequest::KvccsContaining {
                    graph: ref_id,
                    seed,
                    k,
                });
                assert_eq!(capped, full, "seed {seed}, k {k}");
            }
            assert_eq!(
                engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }),
                reference.execute(&QueryRequest::EnumerateKvccs { graph: ref_id, k }),
                "k {k}"
            );
        }
        // Connectivity values saturate at the cap (documented semantics).
        assert_eq!(
            engine.execute(&QueryRequest::VertexConnectivityNumber { graph: id, v: 6 }),
            QueryResponse::Connectivity(1)
        );
    }

    /// Every request shape against the mixed graph, covering hits, misses
    /// and out-of-range errors.
    fn probe_requests(id: GraphId) -> Vec<QueryRequest> {
        let mut requests = vec![
            QueryRequest::GraphStats { graph: id },
            QueryRequest::GlobalCutProbe { graph: id, k: 2 },
            QueryRequest::VertexConnectivityNumber { graph: id, v: 6 },
            QueryRequest::VertexConnectivityNumber { graph: id, v: 99 },
            QueryRequest::LocalConnectivity {
                graph: id,
                u: 0,
                v: 3,
                limit: 5,
            },
        ];
        for k in 1..=3u32 {
            requests.push(QueryRequest::EnumerateKvccs { graph: id, k });
            for seed in 0..9 {
                requests.push(QueryRequest::KvccsContaining { graph: id, seed, k });
            }
        }
        for u in 0..9u32 {
            for v in 0..9u32 {
                requests.push(QueryRequest::MaxConnectivity { graph: id, u, v });
            }
        }
        // First pages of every ranking: identical across ordering policies
        // because the slot ranks in external space.
        for rank_by in RankBy::ALL {
            requests.push(QueryRequest::TopKComponents {
                graph: id,
                rank_by,
                page_size: 4,
                cursor: None,
            });
        }
        requests
    }

    #[test]
    fn every_ordering_policy_answers_identically() {
        let baseline = ServiceEngine::new(EngineConfig::default());
        let base_id = baseline.load_graph("mixed", &mixed_graph());
        let expected = baseline.execute_batch(&probe_requests(base_id));
        let engine = ServiceEngine::new(EngineConfig {
            ordering: OrderingPolicy::Hybrid,
            ..EngineConfig::default()
        });
        let id = engine.load_graph("mixed", &mixed_graph());
        let mut responses = engine.execute_batch(&probe_requests(id));
        // `Stats` truthfully reports each engine's layout policy — the one
        // field that is *supposed* to differ. Normalise it; every other byte
        // of every response must be identical.
        for response in &mut responses {
            if let QueryResponse::Stats { ordering, .. } = response {
                *ordering = OrderingPolicy::Preserve;
            }
        }
        assert_eq!(responses, expected);
    }

    #[test]
    fn reordered_partition_work_ships_loaded_ids() {
        let engine = ServiceEngine::new(EngineConfig {
            ordering: OrderingPolicy::Hybrid,
            ..EngineConfig::default()
        });
        let id = engine.load_graph("mixed", &mixed_graph());
        let g = mixed_graph();
        for k in 1..=3u32 {
            let items = engine.partition_work(id, k).unwrap();
            let mut merged: Vec<KVertexConnectedComponent> = Vec::new();
            for item in &items {
                let shipped = CsrWorkItem::from_bytes(&item.to_bytes()).unwrap();
                merged.extend(run_work_item(&shipped, k, &KvccOptions::default()).unwrap());
            }
            merged.sort();
            let direct = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(merged, direct.components().to_vec(), "k = {k}");
        }
    }

    #[test]
    fn persisted_index_survives_a_restart() {
        for ordering in [OrderingPolicy::Preserve, OrderingPolicy::Hybrid] {
            let config = EngineConfig {
                ordering,
                ..EngineConfig::default()
            };
            let engine = ServiceEngine::new(config.clone());
            let id = engine.load_graph("mixed", &mixed_graph());
            let bytes = engine.index_bytes(id).unwrap();
            let expected = engine.execute_batch(&probe_requests(id));

            // "Restart": a fresh engine with the same policy restores the
            // persisted index instead of rebuilding the hierarchy.
            let restarted = ServiceEngine::new(config);
            let new_id = restarted.load_graph("mixed", &mixed_graph());
            restarted.install_index_bytes(new_id, &bytes).unwrap();
            assert!(matches!(
                restarted.execute(&QueryRequest::GraphStats { graph: new_id }),
                QueryResponse::Stats { indexed: true, .. }
            ));
            let responses = restarted.execute_batch(&probe_requests(new_id));
            assert_eq!(responses, expected, "{ordering:?}");

            // A second install is refused; corrupted buffers are rejected.
            assert!(restarted.install_index_bytes(new_id, &bytes).is_err());
            let other = restarted.load_graph("mixed", &mixed_graph());
            assert!(restarted.install_index_bytes(other, &bytes[..5]).is_err());
            // A mismatched graph is rejected too.
            let small = restarted.load_graph(
                "small",
                &UndirectedGraph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap(),
            );
            assert!(restarted.install_index_bytes(small, &bytes).is_err());
        }
    }

    #[test]
    fn cross_policy_index_install_is_rejected() {
        // An index persisted under Preserve speaks loaded ids; a
        // hybrid-reordered slot stores different internal ids, so the
        // structural spot-check must refuse the install instead of letting
        // every subsequent query answer wrong.
        let preserve = ServiceEngine::new(EngineConfig::default());
        let a = preserve.load_graph("mixed", &mixed_graph());
        let bytes = preserve.index_bytes(a).unwrap();
        let reordered = ServiceEngine::new(EngineConfig {
            ordering: OrderingPolicy::Hybrid,
            ..EngineConfig::default()
        });
        let b = reordered.load_graph("mixed", &mixed_graph());
        assert!(reordered.install_index_bytes(b, &bytes).is_err());
        // An index from an unrelated graph of the same size is refused too.
        let other = preserve.load_graph(
            "path",
            &UndirectedGraph::from_edges(9, (0..8u32).map(|i| (i, i + 1))).unwrap(),
        );
        assert!(preserve.install_index_bytes(other, &bytes).is_err());
    }

    #[test]
    fn execute_request_echoes_ids_and_enforces_deadlines() {
        use crate::protocol::{Request, RequestBody, Response, ResponseBody};
        let (engine, id) = engine_with_graph();
        // A normal envelope: id echoed, body dispatched.
        let response =
            engine.execute_request(&Request::query(77, QueryRequest::GraphStats { graph: id }));
        assert_eq!(response.request_id, 77);
        assert!(matches!(
            response.body,
            ResponseBody::Query(QueryResponse::Stats { .. })
        ));
        // A 0 ms deadline has always expired by the time work would run:
        // single queries, every batch position, and work items all report
        // DeadlineExceeded instead of executing.
        let expired = Request {
            request_id: 1,
            deadline_hint_ms: Some(0),
            body: RequestBody::Batch(vec![
                QueryRequest::GraphStats { graph: id },
                QueryRequest::EnumerateKvccs { graph: id, k: 2 },
            ]),
        };
        match engine.execute_request(&expired).body {
            ResponseBody::Batch(responses) => {
                assert_eq!(responses.len(), 2);
                for r in responses {
                    assert_eq!(r, QueryResponse::Error(ServiceError::DeadlineExceeded));
                }
            }
            other => panic!("expected a batch, got {other:?}"),
        }
        // The frame path reports undecodable requests instead of dropping.
        let garbage = engine.handle_frame(b"not a frame");
        let decoded = Response::from_bytes(&garbage).unwrap();
        assert_eq!(decoded.request_id, 0);
        match decoded.body {
            ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 7),
            other => panic!("expected a malformed-request error, got {other:?}"),
        }
    }

    #[test]
    fn stats_reports_ordering_and_index_coverage() {
        let engine = ServiceEngine::new(EngineConfig {
            index_max_k: Some(1),
            ordering: OrderingPolicy::Hybrid,
            ..EngineConfig::default()
        });
        let id = engine.load_graph("mixed", &mixed_graph());
        // Before any index: coverage unknown, policy still reported.
        assert!(matches!(
            engine.execute(&QueryRequest::GraphStats { graph: id }),
            QueryResponse::Stats {
                indexed: false,
                ordering: OrderingPolicy::Hybrid,
                depth_limit: None,
                ..
            }
        ));
        engine.build_index(id).unwrap();
        // A depth-capped index is detectable: clients see the cap instead of
        // silently under-reading saturated connectivity values.
        assert!(matches!(
            engine.execute(&QueryRequest::GraphStats { graph: id }),
            QueryResponse::Stats {
                indexed: true,
                max_k: 1,
                ordering: OrderingPolicy::Hybrid,
                depth_limit: Some(1),
                ..
            }
        ));
    }

    #[test]
    fn direct_enumerations_surface_scheduling_stats() {
        let (engine, id) = engine_with_graph();
        // No index yet: this enumerates directly and must count work items.
        let _ = engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k: 2 });
        match engine.execute(&QueryRequest::GraphStats { graph: id }) {
            QueryResponse::Stats { scheduling, .. } => {
                assert!(scheduling.work_items > 0);
                assert_eq!(scheduling.cancelled_runs, 0);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        // A pre-expired deadline on the same query is interrupted and
        // counted; the engine stays fully usable afterwards.
        let expired = Request {
            request_id: 1,
            deadline_hint_ms: Some(0),
            body: RequestBody::Query(QueryRequest::EnumerateKvccs { graph: id, k: 2 }),
        };
        match engine.execute_request(&expired).body {
            ResponseBody::Query(QueryResponse::Error(e)) => assert_eq!(e.code(), 5),
            other => panic!("expected a deadline error, got {other:?}"),
        }
        let ok = engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k: 2 });
        assert!(matches!(ok, QueryResponse::Components(_)));
    }

    #[test]
    fn partitioned_work_items_reproduce_the_enumeration() {
        let (engine, id) = engine_with_graph();
        let g = mixed_graph();
        for k in 1..=3u32 {
            let items = engine.partition_work(id, k).unwrap();
            let costs: Vec<u64> = items.iter().map(|item| super::item_cost(item, k)).collect();
            assert!(
                costs.windows(2).all(|w| w[0] >= w[1]),
                "largest-first: {costs:?}"
            );
            let mut merged: Vec<KVertexConnectedComponent> = Vec::new();
            for item in &items {
                // Ship through bytes, as a shard would receive it.
                let shipped = CsrWorkItem::from_bytes(&item.to_bytes()).unwrap();
                merged.extend(run_work_item(&shipped, k, &KvccOptions::default()).unwrap());
            }
            merged.sort();
            let direct = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(merged, direct.components().to_vec(), "k = {k}");
        }
        assert!(engine.partition_work(id, 0).is_err());
    }

    /// Writes the mixed graph to disk both as a messy edge list (one
    /// duplicate line, one self-loop, raw ids in first-appearance order so
    /// loaded ids match the in-memory graph) and as an aligned `KCSR` file.
    fn mixed_graph_files(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let edges = dir.join(format!("kvcc_engine_{tag}_{pid}.txt"));
        let kcsr = dir.join(format!("kvcc_engine_{tag}_{pid}.kcsr"));
        let g = mixed_graph();
        let mut text = String::from("# mixed graph, messy form\n");
        for v in 0..g.num_vertices() as VertexId {
            for &w in g.neighbors(v) {
                if v < w {
                    text.push_str(&format!("{v} {w}\n"));
                }
            }
        }
        text.push_str("0 1\n3 3\n");
        std::fs::write(&edges, text).unwrap();
        kvcc_graph::write_kcsr_file(&CsrGraph::from_view(&g), &kcsr).unwrap();
        (edges, kcsr)
    }

    #[test]
    fn load_from_path_streams_borrows_and_answers_identically() {
        let (edge_path, kcsr_path) = mixed_graph_files("load");
        let (baseline, base_id) = engine_with_graph();
        let expected = baseline.execute_batch(&probe_requests(base_id));

        // Edge-list streaming: diagnostics surface the messy lines, the
        // slot answers exactly like the in-memory load.
        let engine = ServiceEngine::new(EngineConfig::default());
        let streamed = engine
            .load_from_path("streamed", &edge_path, LoadFormat::EdgeList)
            .unwrap();
        assert_eq!(streamed.num_vertices, 9);
        assert_eq!(streamed.num_edges, 12);
        assert_eq!(streamed.self_loops, 1);
        assert_eq!(streamed.duplicates, 1);
        assert!(!streamed.zero_copy);
        assert_eq!(
            engine.execute_batch(&probe_requests(streamed.graph)),
            expected
        );

        // KCSR under the default policy (Preserve): the slot borrows the
        // validated file bytes zero-copy.
        let borrowed = engine
            .load_from_path("borrowed", &kcsr_path, LoadFormat::Kcsr)
            .unwrap();
        assert!(borrowed.zero_copy);
        assert_eq!(borrowed.num_vertices, 9);
        assert_eq!(borrowed.num_edges, 12);
        // Page cursors embed the slot id, so probe a fresh engine whose
        // first slot is the borrowed one.
        let fresh = ServiceEngine::new(EngineConfig::default());
        let fresh_borrowed = fresh
            .load_from_path("borrowed", &kcsr_path, LoadFormat::Kcsr)
            .unwrap();
        assert_eq!(
            fresh.execute_batch(&probe_requests(fresh_borrowed.graph)),
            expected
        );

        // KCSR under the Hybrid policy must decode: the stored layout is not
        // the file layout, so borrowing is off.
        let config = EngineConfig {
            ordering: OrderingPolicy::Hybrid,
            ..EngineConfig::default()
        };
        // Stats report the policy, so compare against a same-config engine
        // loaded in memory rather than the Preserve baseline.
        let config_baseline = ServiceEngine::new(config.clone());
        let config_base = config_baseline.load_graph("mixed", &mixed_graph());
        let decoded_engine = ServiceEngine::new(config);
        let decoded = decoded_engine
            .load_from_path("decoded", &kcsr_path, LoadFormat::Kcsr)
            .unwrap();
        assert!(!decoded.zero_copy);
        assert_eq!(
            decoded_engine.execute_batch(&probe_requests(decoded.graph)),
            config_baseline.execute_batch(&probe_requests(config_base))
        );

        std::fs::remove_file(&edge_path).ok();
        std::fs::remove_file(&kcsr_path).ok();
    }

    #[test]
    fn load_from_path_failures_are_clean_errors() {
        let engine = ServiceEngine::new(EngineConfig::default());
        let dir = std::env::temp_dir();
        let pid = std::process::id();

        // Missing files, either format.
        let missing = dir.join(format!("kvcc_engine_missing_{pid}.txt"));
        for format in [LoadFormat::EdgeList, LoadFormat::Kcsr] {
            match engine.load_from_path("missing", &missing, format) {
                Err(ServiceError::LoadFailed { .. }) => {}
                other => panic!("expected LoadFailed, got {other:?}"),
            }
        }

        // A malformed edge list reports the offending line.
        let bad = dir.join(format!("kvcc_engine_bad_{pid}.txt"));
        std::fs::write(&bad, "0 1\n1 two\n").unwrap();
        match engine.load_from_path("bad", &bad, LoadFormat::EdgeList) {
            Err(ServiceError::LoadFailed { reason }) => {
                assert!(reason.contains("line 2"), "{reason}");
            }
            other => panic!("expected LoadFailed, got {other:?}"),
        }
        std::fs::remove_file(&bad).ok();

        // A truncated KCSR file fails validation on both the borrow and the
        // decode path.
        let (_edges, kcsr_path) = mixed_graph_files("trunc");
        std::fs::remove_file(&_edges).ok();
        let bytes = std::fs::read(&kcsr_path).unwrap();
        let truncated = dir.join(format!("kvcc_engine_trunc_{pid}.cut"));
        std::fs::write(&truncated, &bytes[..bytes.len() - 3]).unwrap();
        std::fs::remove_file(&kcsr_path).ok();
        for config in [
            EngineConfig::default(),
            EngineConfig {
                ordering: OrderingPolicy::Hybrid,
                ..EngineConfig::default()
            },
        ] {
            let e = ServiceEngine::new(config);
            match e.load_from_path("trunc", &truncated, LoadFormat::Kcsr) {
                Err(ServiceError::LoadFailed { .. }) => {}
                other => panic!("expected LoadFailed, got {other:?}"),
            }
        }
        std::fs::remove_file(&truncated).ok();

        // Nothing is partially loaded on failure.
        assert_eq!(engine.graph_count(), 0);
    }

    #[test]
    fn load_graph_requests_flow_through_the_envelope() {
        let (edge_path, kcsr_path) = mixed_graph_files("envelope");
        let engine = ServiceEngine::new(EngineConfig::default());
        let request = Request {
            request_id: 21,
            deadline_hint_ms: None,
            body: RequestBody::LoadGraph {
                name: "mixed".into(),
                path: edge_path.to_string_lossy().into_owned(),
                format: LoadFormat::EdgeList,
            },
        };
        // Through bytes, as a remote client would drive it.
        let response = Response::from_bytes(&engine.handle_frame(&request.to_bytes())).unwrap();
        assert_eq!(response.request_id, 21);
        match response.body {
            ResponseBody::Query(QueryResponse::Loaded {
                graph,
                num_vertices: 9,
                num_edges: 12,
                self_loops: 1,
                duplicates: 1,
                zero_copy: false,
            }) => {
                assert_eq!(engine.graph_name(graph).unwrap(), "mixed");
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        // The zero-copy bit is visible on the wire too.
        let request = Request {
            request_id: 22,
            deadline_hint_ms: None,
            body: RequestBody::LoadGraph {
                name: "borrowed".into(),
                path: kcsr_path.to_string_lossy().into_owned(),
                format: LoadFormat::Kcsr,
            },
        };
        let response = Response::from_bytes(&engine.handle_frame(&request.to_bytes())).unwrap();
        assert!(matches!(
            response.body,
            ResponseBody::Query(QueryResponse::Loaded {
                zero_copy: true,
                ..
            })
        ));
        std::fs::remove_file(&edge_path).ok();
        std::fs::remove_file(&kcsr_path).ok();
    }

    #[test]
    fn update_batches_swap_the_graph_and_repair_the_index() {
        let (engine, id) = engine_with_graph();
        engine.build_index(id).unwrap();
        assert_eq!(engine.graph_epoch(id).unwrap(), 0);

        // Bridge the two clusters into one 3-connected region: make vertex 2
        // a fourth member of the K4's neighbourhood.
        let updates = [
            EdgeUpdate::insert(2, 5),
            EdgeUpdate::insert(2, 6),
            EdgeUpdate::insert(2, 7),
            EdgeUpdate::insert(2, 5), // redundant: tolerated no-op
        ];
        let report = engine.apply_updates(id, &updates).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(engine.graph_epoch(id).unwrap(), 1);

        // The repaired engine answers exactly like an engine that loaded the
        // post-update graph from scratch, for every query kind.
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
        for i in 5..9u32 {
            for j in (i + 1)..9 {
                edges.push((i, j));
            }
        }
        edges.extend([(2, 5), (2, 6), (2, 7)]);
        let fresh_engine = ServiceEngine::new(EngineConfig::default());
        let fresh_id =
            fresh_engine.load_graph("fresh", &UndirectedGraph::from_edges(9, edges).unwrap());
        fresh_engine.build_index(fresh_id).unwrap();
        for k in 1..=4u32 {
            assert_eq!(
                engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }),
                fresh_engine.execute(&QueryRequest::EnumerateKvccs { graph: fresh_id, k }),
                "k {k}"
            );
        }
        assert_eq!(
            engine.execute(&QueryRequest::MaxConnectivity {
                graph: id,
                u: 2,
                v: 8
            }),
            fresh_engine.execute(&QueryRequest::MaxConnectivity {
                graph: fresh_id,
                u: 2,
                v: 8
            }),
        );
        // The incrementally repaired index is byte-identical to the fresh
        // build once the epochs agree (the fresh engine never saw a batch).
        let repaired = engine.index_bytes(id).unwrap();
        let mut rebuilt =
            ConnectivityIndex::from_bytes(&fresh_engine.index_bytes(fresh_id).unwrap()).unwrap();
        rebuilt.set_epoch(1);
        assert_eq!(repaired, rebuilt.to_bytes());

        // Telemetry: one batch of four updates, and the epoch is on Stats.
        match engine.execute(&QueryRequest::GraphStats { graph: id }) {
            QueryResponse::Stats {
                epoch, scheduling, ..
            } => {
                assert_eq!(epoch, 1);
                assert_eq!(scheduling.update_batches, 1);
                assert_eq!(scheduling.update_edges, 4);
                assert_eq!(scheduling.compactions, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        // Out-of-range endpoints are rejected without touching the slot.
        assert!(matches!(
            engine.apply_updates(id, &[EdgeUpdate::insert(0, 99)]),
            Err(ServiceError::VertexOutOfRange { vertex: 99 })
        ));
        assert_eq!(engine.graph_epoch(id).unwrap(), 1);

        // A batch that leaves the graph unchanged bumps the epoch but is not
        // a compaction.
        engine
            .apply_updates(id, &[EdgeUpdate::insert(2, 5)])
            .unwrap();
        match engine.execute(&QueryRequest::GraphStats { graph: id }) {
            QueryResponse::Stats { scheduling, .. } => {
                assert_eq!(scheduling.update_batches, 2);
                assert_eq!(scheduling.compactions, 1);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn update_batches_invalidate_outstanding_page_cursors() {
        let (engine, id) = engine_with_graph();
        let first = engine.execute(&QueryRequest::TopKComponents {
            graph: id,
            rank_by: RankBy::Size,
            page_size: 1,
            cursor: None,
        });
        let cursor = match first {
            QueryResponse::Page {
                next_cursor: Some(cursor),
                ..
            } => cursor,
            other => panic!("expected a paged response with a cursor, got {other:?}"),
        };
        engine
            .apply_updates(id, &[EdgeUpdate::delete(3, 4)])
            .unwrap();
        // Resuming the old page walk would mix two forests; it is refused.
        match engine.execute(&QueryRequest::TopKComponents {
            graph: id,
            rank_by: RankBy::Size,
            page_size: 1,
            cursor: Some(cursor),
        }) {
            QueryResponse::Error(ServiceError::InvalidCursor { reason }) => {
                assert!(reason.contains("epoch"), "unexpected reason: {reason}");
            }
            other => panic!("expected InvalidCursor, got {other:?}"),
        }
        // A fresh walk at the new epoch works.
        assert!(matches!(
            engine.execute(&QueryRequest::TopKComponents {
                graph: id,
                rank_by: RankBy::Size,
                page_size: 1,
                cursor: None,
            }),
            QueryResponse::Page { .. }
        ));
    }

    #[test]
    fn updates_flow_through_the_envelope_and_preserve_reader_snapshots() {
        let (engine, id) = engine_with_graph();
        let request = Request {
            request_id: 31,
            deadline_hint_ms: None,
            body: RequestBody::ApplyUpdates {
                graph: id,
                updates: vec![EdgeUpdate::delete(2, 3), EdgeUpdate::delete(2, 4)],
            },
        };
        let response = Response::from_bytes(&engine.handle_frame(&request.to_bytes())).unwrap();
        assert_eq!(response.request_id, 31);
        assert!(matches!(
            response.body,
            ResponseBody::Query(QueryResponse::Updated { epoch: 1, .. })
        ));
        // The second triangle lost vertex 2: only one 2-VCC triangle remains.
        match engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k: 2 }) {
            QueryResponse::Components(components) => {
                assert!(components
                    .iter()
                    .all(|c| c.vertices() != [2, 3, 4].as_slice()));
            }
            other => panic!("expected Components, got {other:?}"),
        }
    }
}
