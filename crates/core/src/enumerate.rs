//! The `KVCC-ENUM` framework (Algorithm 1).
//!
//! Starting from the whole input graph, the enumerator repeatedly:
//!
//! 1. peels vertices of degree `< k` (k-core pruning; every k-VCC is inside a
//!    k-core by Theorem 3);
//! 2. splits the remainder into connected components;
//! 3. asks `GLOBAL-CUT`/`GLOBAL-CUT*` for a vertex cut of size `< k` in each
//!    component — if none exists the component is a k-VCC, otherwise the
//!    component is partitioned along the cut with the cut vertices duplicated
//!    into every side (`OVERLAP-PARTITION`) and the pieces are pushed back
//!    onto the work list.
//!
//! Lemma 10 and Theorem 6 bound the total number of partitions and of
//! k-VCCs, which keeps the whole process polynomial (Theorem 7).
//!
//! # Implementation notes
//!
//! * The input graph may be any [`GraphView`]; every internal work item is a
//!   compact [`CsrGraph`].
//! * k-core peeling and component splitting run on a [`SubgraphView`] vertex
//!   mask — no copy is made until a component survives both filters, at which
//!   point it is extracted once into CSR form through a reusable relabelling
//!   buffer ([`CsrGraph::extract_induced`]).
//! * Each `GLOBAL-CUT` probe reuses a per-worker [`CutScratch`] flow arena
//!   instead of rebuilding its network from scratch.
//! * The work items created by `OVERLAP-PARTITION` are independent, so with
//!   [`KvccOptions::threads`] ≠ 1 they are processed by a pool of workers;
//!   results and statistics merge deterministically (see
//!   [`KvccOptions::threads`]).
//! * The parallel runtime is a **work-stealing** pool: each worker owns a
//!   deque it pushes and pops LIFO (depth-first locality), idle workers steal
//!   FIFO from a victim, and an oversized component can be *deferred* back
//!   onto the worklist instead of cut in-worker
//!   ([`KvccOptions::split_threshold`]) so one giant component fans out
//!   across the pool.
//! * Every loop polls [`KvccOptions::budget`]; an expired deadline or a
//!   cancelled token interrupts the run at the next checkpoint and returns
//!   [`KvccError::Interrupted`] carrying the partial statistics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use kvcc_flow::Interrupted;
use kvcc_graph::kcore::k_core_vertices;
use kvcc_graph::{CsrGraph, GraphView, SubgraphView, VertexId};

use crate::error::KvccError;
use crate::global_cut::{global_cut_with_scratch, CutScratch};
use crate::options::{effective_threads, split_cost, AlgorithmVariant, KvccOptions};
use crate::partition::overlap_partition;
use crate::result::{KVertexConnectedComponent, KvccResult};
use crate::stats::{EnumerationStats, MemoryTracker};

/// A reusable enumerator configured once and run against any number of graphs.
#[derive(Clone, Debug, Default)]
pub struct KvccEnumerator {
    options: KvccOptions,
}

/// A unit of pending work: a subgraph (in its own compact id space) plus the
/// mapping of its vertex ids back to the ids of the input graph.
struct WorkItem {
    graph: CsrGraph,
    to_original: Vec<VertexId>,
}

impl WorkItem {
    /// Bytes charged to the memory tracker while the item sits on the work
    /// list.
    fn bytes(&self) -> usize {
        self.graph.memory_bytes() + self.to_original.len() * std::mem::size_of::<VertexId>()
    }
}

/// Per-worker scratch: the `GLOBAL-CUT` flow arena plus the relabelling
/// buffer used by CSR extraction. Lives for the whole enumeration, so steady
/// state work allocates only the extracted subgraphs themselves.
#[derive(Default)]
struct WorkerScratch {
    cut: CutScratch,
    map: Vec<VertexId>,
}

impl KvccEnumerator {
    /// Creates an enumerator with the given options.
    pub fn new(options: KvccOptions) -> Self {
        KvccEnumerator { options }
    }

    /// Convenience constructor for one of the paper's four variants.
    pub fn with_variant(variant: AlgorithmVariant) -> Self {
        KvccEnumerator {
            options: KvccOptions::for_variant(variant),
        }
    }

    /// The options this enumerator runs with.
    pub fn options(&self) -> &KvccOptions {
        &self.options
    }

    /// Enumerates all k-VCCs of `graph`.
    ///
    /// Errors if `k == 0` (the model is undefined), if
    /// [`KvccOptions::budget`] expires before the run completes
    /// ([`KvccError::Interrupted`], carrying the partial statistics of the
    /// work done up to the interrupt), or — which would indicate an internal
    /// bug — if a reported cut repeatedly fails to split a subgraph.
    pub fn run<G: GraphView>(&self, graph: &G, k: u32) -> Result<KvccResult, KvccError> {
        if k == 0 {
            return Err(KvccError::InvalidK);
        }
        let start = Instant::now();
        let mut stats = EnumerationStats::default();
        let mut results: Vec<KVertexConnectedComponent> = Vec::new();
        let outcome = self.run_worklist(graph, k, &mut results, &mut stats);
        stats.elapsed = start.elapsed();
        match outcome {
            Ok(()) => {
                // Deterministic output order: by smallest member, then size.
                results.sort();
                Ok(KvccResult::new(k, results, stats))
            }
            Err(KvccError::Interrupted { .. }) => {
                // Both runtimes merge their partial counters into `stats`
                // before reporting the interrupt, so the error carries the
                // well-defined statistics of exactly the work that ran.
                stats.cancelled = true;
                Err(KvccError::Interrupted {
                    stats: Box::new(stats),
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Builds the initial worklist (first k-core peel) and drains it on the
    /// configured runtime.
    fn run_worklist<G: GraphView>(
        &self,
        graph: &G,
        k: u32,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
    ) -> Result<(), KvccError> {
        // Pre-expired budgets interrupt before any work starts.
        self.options.budget.check().map_err(KvccError::from)?;

        // Apply the first round of k-core pruning directly on the caller's
        // graph so the working set never contains a full copy of the input —
        // only the (usually much smaller) k-core and its descendants. The
        // memory tracker therefore measures the algorithm's *working* memory,
        // which is what Fig. 12 of the paper tracks trends of.
        let mut initial: Vec<WorkItem> = Vec::new();
        let core_vertices = k_core_vertices(graph, k as usize);
        stats.kcore_removed_vertices += (graph.num_vertices() - core_vertices.len()) as u64;
        if !core_vertices.is_empty() {
            let mut map = Vec::new();
            let core = CsrGraph::extract_induced(graph, &core_vertices, &mut map);
            initial.push(WorkItem {
                graph: core,
                to_original: core_vertices,
            });
        }

        let threads = effective_threads(self.options.threads);
        if threads <= 1 {
            self.run_sequential(k, initial, results, stats)
        } else {
            self.run_parallel_stealing(k, initial, results, stats, threads)
        }
    }

    /// Sequential worklist (LIFO, matching the seed implementation).
    fn run_sequential(
        &self,
        k: u32,
        initial: Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
    ) -> Result<(), KvccError> {
        let mut memory = MemoryTracker::new();
        let mut scratch = WorkerScratch::default();
        let mut work: Vec<WorkItem> = Vec::new();
        let mut created: Vec<WorkItem> = Vec::new();
        for item in initial {
            memory.allocate(item.bytes());
            work.push(item);
        }
        while let Some(item) = work.pop() {
            // One poll per work item; finer-grained checkpoints live inside
            // the GLOBAL-CUT probes themselves.
            if self.options.budget.expired() {
                stats.peak_memory_bytes = stats.peak_memory_bytes.max(memory.peak());
                return Err(KvccError::from(Interrupted));
            }
            memory.release(item.bytes());
            self.process_item(
                item,
                k,
                &mut created,
                results,
                stats,
                &mut memory,
                &mut scratch,
            )?;
            for item in created.drain(..) {
                memory.allocate(item.bytes());
                work.push(item);
            }
        }
        stats.peak_memory_bytes = stats.peak_memory_bytes.max(memory.peak());
        Ok(())
    }

    /// The parallel runtime: one deque per worker plus a small coordination
    /// lock used only for idle parking and termination.
    ///
    /// * **Owner path** — a worker pushes the items it creates onto the back
    ///   of its own deque and pops from the back (LIFO): partition pieces
    ///   are processed depth-first while their parent is still cache-hot,
    ///   and the queue depth stays bounded by the recursion depth instead of
    ///   the fan-out.
    /// * **Steal path** — a worker whose deque is empty takes from the
    ///   *front* of a victim's deque (FIFO): the oldest item is the
    ///   shallowest point of the victim's recursion tree, i.e. the largest
    ///   stealable granule, so thieves amortise their synchronisation over
    ///   the most work. Victims are scanned round-robin starting after the
    ///   thief's own slot.
    /// * **Parking** — a worker that finds every deque empty re-checks a
    ///   version stamp under the coordination lock and `Condvar`-parks until
    ///   a producer publishes new items, the pool drains (`unfinished == 0`)
    ///   or a worker reports an error. Producers push to their deque first
    ///   and bump the version afterwards, so a thief either observes the new
    ///   item during its scan or observes the bumped version and re-scans —
    ///   wakeups cannot be lost.
    ///
    /// Each worker keeps its own scratch arena and local result/statistics
    /// buffers, merged after the pool drains. The merge is deterministic
    /// because the *set* of work items processed is independent of
    /// scheduling: every item is handled identically regardless of which
    /// worker picks it up, counters are sums over items, and the final
    /// component list is sorted. Only `elapsed`, the memory estimate and
    /// `steals` vary between runs.
    fn run_parallel_stealing(
        &self,
        k: u32,
        initial: Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        threads: usize,
    ) -> Result<(), KvccError> {
        struct Coord {
            /// Items pushed but not yet fully processed (queued + in-flight).
            /// The pool has drained exactly when this reaches zero.
            unfinished: usize,
            /// Bumped under the lock after every completed publish; an idle
            /// worker re-scans instead of parking whenever the version moved
            /// since its last scan.
            version: u64,
            error: Option<KvccError>,
        }
        let queue_bytes = AtomicUsize::new(0);
        let queue_peak = AtomicUsize::new(0);
        let charge = |delta: usize| {
            let now = queue_bytes.fetch_add(delta, Ordering::Relaxed) + delta;
            queue_peak.fetch_max(now, Ordering::Relaxed);
        };
        let coord = Mutex::new(Coord {
            unfinished: initial.len(),
            version: 0,
            error: None,
        });
        // Lock-free mirror of `coord.error.is_some()`, checked before every
        // pop so workers stop promptly after any worker fails instead of
        // draining the remaining queue.
        let failed = std::sync::atomic::AtomicBool::new(false);
        let ready = Condvar::new();
        let deques: Vec<Mutex<VecDeque<WorkItem>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        // Seed round-robin so a multi-component start is spread immediately.
        for (i, item) in initial.into_iter().enumerate() {
            charge(item.bytes());
            deques[i % threads].lock().unwrap().push_back(item);
        }

        type WorkerOutput = (Vec<KVertexConnectedComponent>, EnumerationStats, usize);
        let collected: Mutex<Vec<WorkerOutput>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (deques, coord, ready) = (&deques, &coord, &ready);
                let (collected, charge, queue_bytes) = (&collected, &charge, &queue_bytes);
                let failed = &failed;
                scope.spawn(move || {
                    let mut local_results = Vec::new();
                    let mut local_stats = EnumerationStats::default();
                    let mut memory = MemoryTracker::new();
                    let mut scratch = WorkerScratch::default();
                    let mut created: Vec<WorkItem> = Vec::new();
                    let mut last_seen: Option<u64> = None;
                    'work: loop {
                        // Fail fast: once any worker recorded an error the
                        // rest must not drain the remaining worklist.
                        if failed.load(Ordering::Relaxed) {
                            break 'work;
                        }
                        // Own deque back (LIFO), then steal fronts (FIFO).
                        let mut item = deques[worker].lock().unwrap().pop_back();
                        if item.is_none() {
                            for offset in 1..threads {
                                let victim = (worker + offset) % threads;
                                if let Some(stolen) = deques[victim].lock().unwrap().pop_front() {
                                    local_stats.steals += 1;
                                    item = Some(stolen);
                                    break;
                                }
                            }
                        }
                        let item = match item {
                            Some(item) => {
                                last_seen = None;
                                item
                            }
                            None => {
                                let mut guard = coord.lock().unwrap();
                                loop {
                                    if guard.error.is_some() || guard.unfinished == 0 {
                                        break 'work;
                                    }
                                    if last_seen != Some(guard.version) {
                                        // A publish completed since our scan:
                                        // remember the stamp and re-scan.
                                        last_seen = Some(guard.version);
                                        continue 'work;
                                    }
                                    guard = ready.wait(guard).unwrap();
                                }
                            }
                        };
                        queue_bytes.fetch_sub(item.bytes(), Ordering::Relaxed);

                        let outcome = if self.options.budget.expired() {
                            Err(KvccError::from(Interrupted))
                        } else {
                            self.process_item(
                                item,
                                k,
                                &mut created,
                                &mut local_results,
                                &mut local_stats,
                                &mut memory,
                                &mut scratch,
                            )
                        };
                        match outcome {
                            Ok(()) => {
                                let pushed = created.len();
                                if pushed > 0 {
                                    for item in &created {
                                        charge(item.bytes());
                                    }
                                    // Count the new items *before* making
                                    // them stealable: a thief that finishes
                                    // one instantly must never drive
                                    // `unfinished` to a premature zero (or
                                    // below). The publish still happens
                                    // before the version bump — the parking
                                    // protocol in the method docs.
                                    coord.lock().unwrap().unfinished += pushed;
                                    deques[worker].lock().unwrap().extend(created.drain(..));
                                }
                                let mut guard = coord.lock().unwrap();
                                guard.unfinished -= 1;
                                let done = guard.unfinished == 0;
                                if pushed > 0 {
                                    guard.version += 1;
                                }
                                drop(guard);
                                if pushed > 0 || done {
                                    ready.notify_all();
                                }
                            }
                            Err(e) => {
                                created.clear();
                                let mut guard = coord.lock().unwrap();
                                guard.error.get_or_insert(e);
                                guard.unfinished -= 1;
                                drop(guard);
                                failed.store(true, Ordering::Relaxed);
                                ready.notify_all();
                            }
                        }
                    }
                    collected
                        .lock()
                        .unwrap()
                        .push((local_results, local_stats, memory.peak()));
                });
            }
        });

        let error = coord.into_inner().unwrap().error;
        self.merge_worker_outputs(
            collected.into_inner().unwrap(),
            results,
            stats,
            queue_peak.load(Ordering::Relaxed),
            error,
        )
    }

    /// Merges per-worker outputs into the run-level buffers — **also on
    /// error**, so an interrupted run reports the partial statistics of the
    /// work that actually completed.
    fn merge_worker_outputs(
        &self,
        outputs: Vec<(Vec<KVertexConnectedComponent>, EnumerationStats, usize)>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        queue_peak: usize,
        error: Option<KvccError>,
    ) -> Result<(), KvccError> {
        let mut scratch_peak = 0usize;
        for (local_results, local_stats, peak) in outputs {
            results.extend(local_results);
            // Worker-local stats have zero `elapsed` and zero peak memory, so
            // the merge only accumulates the order-independent counters
            // here; the peak estimate is assembled below.
            stats.merge(&local_stats);
            scratch_peak = scratch_peak.max(peak);
        }
        // Peak estimate: the queue's high-water mark plus the largest
        // per-worker scratch peak. An approximation (workers run
        // concurrently), but monotone in problem size like Fig. 12.
        stats.peak_memory_bytes = stats.peak_memory_bytes.max(queue_peak + scratch_peak);
        match error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Handles one work item: k-core pruning, component split, cut-or-report.
    ///
    /// New work items are pushed to `created`; the caller owns queueing and
    /// the associated memory accounting. With
    /// [`KvccOptions::split_threshold`] set, a surviving component whose
    /// [`split_cost`] exceeds the threshold is *deferred* — pushed to
    /// `created` as its own work item instead of cut inline — so the
    /// expensive `GLOBAL-CUT` calls of a skewed worklist spread across the
    /// pool. Deferral is only legal when the item actually shrank (peeling
    /// removed vertices or the item fell apart into several components);
    /// otherwise the identical item would bounce on the worklist forever,
    /// so a non-shrinking item is always cut inline.
    #[allow(clippy::too_many_arguments)]
    fn process_item(
        &self,
        item: WorkItem,
        k: u32,
        created: &mut Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        memory: &mut MemoryTracker,
        scratch: &mut WorkerScratch,
    ) -> Result<(), KvccError> {
        stats.work_items_executed += 1;
        // Line 2 of Algorithm 1: iteratively remove vertices of degree < k —
        // on a vertex mask, without copying the graph.
        let mut view = SubgraphView::new(&item.graph);
        let removed = view.k_core_reduce(k as usize);
        stats.kcore_removed_vertices += removed as u64;
        if view.live() == 0 {
            return Ok(());
        }

        // Line 3: identify connected components of the masked subgraph.
        let components = view.components();
        let shrank = removed > 0 || components.len() > 1;
        for component in components {
            // A k-VCC needs strictly more than k vertices (Definition 2).
            if component.len() <= k as usize {
                continue;
            }
            // One extraction per surviving component (ids stay sorted, so the
            // relabelled CSR rows come out sorted for free).
            let sub = CsrGraph::extract_induced(&item.graph, &component, &mut scratch.map);
            let to_original: Vec<VertexId> = component
                .iter()
                .map(|&local| item.to_original[local as usize])
                .collect();

            // Skew-aware splitting: fan an oversized component back out to
            // the pool instead of serialising its cut loop on this worker.
            if shrank && self.should_defer(&sub, k) {
                stats.splits += 1;
                created.push(WorkItem {
                    graph: sub,
                    to_original,
                });
                continue;
            }

            // Lines 5-11: find a cut; report or partition.
            let outcome = global_cut_with_scratch(&sub, k, &self.options, stats, &mut scratch.cut)?;
            memory.allocate(outcome.scratch_memory_bytes);
            memory.release(outcome.scratch_memory_bytes);

            match outcome.cut {
                None => {
                    results.push(KVertexConnectedComponent::new(to_original));
                }
                Some(cut) => {
                    self.partition_and_push(
                        &sub,
                        &to_original,
                        cut,
                        k,
                        created,
                        results,
                        stats,
                        scratch,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// The skew-aware splitting decision: defer when the component's
    /// [`split_cost`] exceeds [`KvccOptions::split_threshold`]. A function of
    /// the item content only, so the processed item *set* — and with it every
    /// deterministic counter — is identical for every thread count at a fixed
    /// threshold.
    fn should_defer(&self, sub: &CsrGraph, k: u32) -> bool {
        self.options
            .split_threshold
            .is_some_and(|threshold| split_cost(sub.num_vertices(), sub.num_edges(), k) > threshold)
    }

    /// Applies `OVERLAP-PARTITION` and pushes the pieces, handling the
    /// defensive case of a cut that fails to split the subgraph.
    #[allow(clippy::too_many_arguments)]
    fn partition_and_push(
        &self,
        subgraph: &CsrGraph,
        to_original: &[VertexId],
        cut: Vec<VertexId>,
        k: u32,
        created: &mut Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        scratch: &mut WorkerScratch,
    ) -> Result<(), KvccError> {
        let mut parts = overlap_partition(subgraph, &cut);
        if parts.len() < 2 {
            // The certificate-derived cut should always split the graph; if it
            // does not, recompute a cut on the full subgraph with the exact
            // (uncertified) routine and try once more.
            stats.fallback_recuts += 1;
            match kvcc_flow::connectivity::find_vertex_cut(subgraph, k) {
                None => {
                    results.push(KVertexConnectedComponent::new(to_original.to_vec()));
                    return Ok(());
                }
                Some(recut) => {
                    parts = overlap_partition(subgraph, &recut);
                    if parts.len() < 2 {
                        return Err(KvccError::DegeneratePartition {
                            subgraph_vertices: subgraph.num_vertices(),
                        });
                    }
                }
            }
        }
        stats.partitions += 1;
        for part in parts {
            // `part` is sorted and de-duplicated by `overlap_partition`.
            let piece = CsrGraph::extract_induced(subgraph, &part, &mut scratch.map);
            let piece_to_original: Vec<VertexId> = part
                .iter()
                .map(|&local| to_original[local as usize])
                .collect();
            created.push(WorkItem {
                graph: piece,
                to_original: piece_to_original,
            });
        }
        Ok(())
    }
}

/// Enumerates all k-vertex connected components of `graph`.
///
/// This is the main entry point of the crate; see the crate-level docs for an
/// example and [`KvccOptions`] for the available algorithm variants.
pub fn enumerate_kvccs<G: GraphView>(
    graph: &G,
    k: u32,
    options: &KvccOptions,
) -> Result<KvccResult, KvccError> {
    KvccEnumerator::new(options.clone()).run(graph, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_kvccs;
    use kvcc_graph::UndirectedGraph;

    fn complete(n: usize) -> UndirectedGraph {
        let mut edges = Vec::new();
        for i in 0..n as VertexId {
            for j in (i + 1)..n as VertexId {
                edges.push((i, j));
            }
        }
        UndirectedGraph::from_edges(n, edges).unwrap()
    }

    /// Two triangles sharing one vertex.
    fn two_triangles() -> UndirectedGraph {
        UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .unwrap()
    }

    #[test]
    fn rejects_k_zero() {
        let g = complete(4);
        assert!(matches!(
            enumerate_kvccs(&g, 0, &KvccOptions::default()),
            Err(KvccError::InvalidK)
        ));
    }

    #[test]
    fn clique_is_its_own_kvcc() {
        let g = complete(6);
        for k in 1..=5u32 {
            let r = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(r.num_components(), 1, "k = {k}");
            assert_eq!(r.components()[0].len(), 6);
            verify_kvccs(&g, &r, true).unwrap();
        }
        // k = 6 requires more than 6 vertices.
        let r = enumerate_kvccs(&g, 6, &KvccOptions::default()).unwrap();
        assert_eq!(r.num_components(), 0);
    }

    #[test]
    fn shared_vertex_triangles_split_into_two_2vccs() {
        let g = two_triangles();
        let r = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        assert_eq!(r.num_components(), 2);
        assert_eq!(r.components()[0].vertices(), &[0, 1, 2]);
        assert_eq!(r.components()[1].vertices(), &[2, 3, 4]);
        verify_kvccs(&g, &r, true).unwrap();
        // Vertex 2 belongs to both (overlap 1 < k = 2).
        assert_eq!(r.components_containing(2).len(), 2);
        assert!(r.stats().partitions >= 1);
    }

    #[test]
    fn csr_input_gives_identical_results() {
        let g = two_triangles();
        let csr = CsrGraph::from_view(&g);
        let a = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        let b = enumerate_kvccs(&csr, 2, &KvccOptions::default()).unwrap();
        assert_eq!(a.components(), b.components());
        assert_eq!(a.stats().partitions, b.stats().partitions);
        assert_eq!(a.stats().tested_vertices, b.stats().tested_vertices);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let g = two_triangles();
        let sequential = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        for threads in [0usize, 2, 4] {
            let opts = KvccOptions::default().with_threads(threads);
            let parallel = enumerate_kvccs(&g, 2, &opts).unwrap();
            assert_eq!(
                parallel.components(),
                sequential.components(),
                "threads {threads}"
            );
            assert_eq!(
                parallel.stats().partitions,
                sequential.stats().partitions,
                "threads {threads}"
            );
            assert_eq!(
                parallel.stats().kcore_removed_vertices,
                sequential.stats().kcore_removed_vertices
            );
            assert!(parallel.stats().peak_memory_bytes > 0);
        }
    }

    #[test]
    fn k1_gives_connected_components_with_at_least_two_vertices() {
        let g = UndirectedGraph::from_edges(7, vec![(0, 1), (1, 2), (3, 4), (5, 5)]).unwrap();
        let r = enumerate_kvccs(&g, 1, &KvccOptions::default()).unwrap();
        assert_eq!(r.num_components(), 2);
        assert_eq!(r.components()[0].vertices(), &[0, 1, 2]);
        assert_eq!(r.components()[1].vertices(), &[3, 4]);
        verify_kvccs(&g, &r, false).unwrap();
    }

    #[test]
    fn empty_and_sparse_graphs_have_no_kvccs() {
        let empty = UndirectedGraph::new(0);
        assert_eq!(
            enumerate_kvccs(&empty, 3, &KvccOptions::default())
                .unwrap()
                .num_components(),
            0
        );
        let path = UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(
            enumerate_kvccs(&path, 2, &KvccOptions::default())
                .unwrap()
                .num_components(),
            0
        );
    }

    #[test]
    fn all_variants_return_identical_components() {
        let g = two_triangles();
        let reference = enumerate_kvccs(&g, 2, &KvccOptions::basic()).unwrap();
        for variant in AlgorithmVariant::all() {
            let r = enumerate_kvccs(&g, 2, &KvccOptions::for_variant(variant)).unwrap();
            assert_eq!(
                r.components(),
                reference.components(),
                "variant {variant:?}"
            );
        }
    }

    #[test]
    fn enumerator_is_reusable() {
        let enumerator = KvccEnumerator::with_variant(AlgorithmVariant::Full);
        assert_eq!(enumerator.options().variant, AlgorithmVariant::Full);
        let r1 = enumerator.run(&complete(5), 3).unwrap();
        let r2 = enumerator.run(&two_triangles(), 2).unwrap();
        assert_eq!(r1.num_components(), 1);
        assert_eq!(r2.num_components(), 2);
        assert!(r2.stats().elapsed.as_nanos() > 0);
        assert!(r2.stats().peak_memory_bytes > 0);
    }

    #[test]
    fn schedulers_and_split_thresholds_agree_exactly() {
        // Triangles connected by bridge edges: every overlap partition leaves
        // a dangling bridge stub that peels, so the shrink-guarded deferral
        // actually engages (and the fan-out exercises stealing).
        let mut edges = Vec::new();
        for b in 0..8u32 {
            let base = b * 3;
            edges.push((base, base + 1));
            edges.push((base + 1, base + 2));
            edges.push((base, base + 2));
            if b + 1 < 8 {
                edges.push((base + 2, base + 3));
            }
        }
        let g = UndirectedGraph::from_edges(24, edges).unwrap();
        let reference = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        for threshold in [None, Some(0), Some(10)] {
            for threads in [1usize, 2, 4] {
                let opts = KvccOptions::default()
                    .with_threads(threads)
                    .with_split_threshold(threshold);
                let r = enumerate_kvccs(&g, 2, &opts).unwrap();
                let label = format!("threshold {threshold:?}, {threads} threads");
                assert_eq!(r.components(), reference.components(), "{label}");
                assert_eq!(
                    r.stats().partitions,
                    reference.stats().partitions,
                    "{label}"
                );
                assert_eq!(
                    r.stats().global_cut_calls,
                    reference.stats().global_cut_calls,
                    "{label}"
                );
                assert!(!r.stats().cancelled);
                assert!(r.stats().work_items_executed > 0, "{label}");
                if threshold == Some(0) {
                    // Forced splitting must actually defer something on a
                    // worklist with shrinking items.
                    assert!(r.stats().splits > 0, "{label}");
                }
                if threshold.is_none() {
                    assert_eq!(r.stats().splits, 0, "{label}");
                }
            }
        }
    }

    #[test]
    fn split_counters_are_deterministic_per_threshold() {
        let g = two_triangles();
        for threshold in [None, Some(0), Some(5)] {
            let opts = KvccOptions::default().with_split_threshold(threshold);
            let a = enumerate_kvccs(&g, 2, &opts).unwrap();
            let b = enumerate_kvccs(&g, 2, &opts.clone().with_threads(3)).unwrap();
            assert_eq!(
                a.stats().splits,
                b.stats().splits,
                "threshold {threshold:?}"
            );
            assert_eq!(
                a.stats().work_items_executed,
                b.stats().work_items_executed,
                "threshold {threshold:?}"
            );
        }
    }

    #[test]
    fn pre_expired_budget_interrupts_with_partial_stats() {
        let g = two_triangles();
        for threads in [1usize, 3] {
            let opts = KvccOptions::default()
                .with_threads(threads)
                .with_budget(crate::Budget::with_timeout(std::time::Duration::ZERO));
            match enumerate_kvccs(&g, 2, &opts) {
                Err(KvccError::Interrupted { stats }) => {
                    assert!(stats.cancelled);
                    // Pre-expired: no work item ever ran.
                    assert_eq!(stats.work_items_executed, 0);
                }
                other => panic!("expected an interrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_token_interrupts_between_work_items() {
        let g = two_triangles();
        let budget = crate::Budget::cancellable();
        budget.cancel();
        for threads in [1usize, 2] {
            let opts = KvccOptions::default()
                .with_threads(threads)
                .with_budget(budget.clone());
            assert!(matches!(
                enumerate_kvccs(&g, 2, &opts),
                Err(KvccError::Interrupted { .. })
            ));
        }
        // The same enumerator value (cloned options, fresh budget) still
        // works: cancellation poisons nothing.
        let fresh = KvccOptions::default().with_budget(crate::Budget::cancellable());
        assert_eq!(enumerate_kvccs(&g, 2, &fresh).unwrap().num_components(), 2);
    }

    #[test]
    fn component_number_respects_theorem_6_bound() {
        // A long chain of triangles glued at single vertices: many small
        // 2-VCCs, but never more than n / 2.
        let mut edges = Vec::new();
        let blocks = 20u32;
        for b in 0..blocks {
            let base = b * 2;
            edges.push((base, base + 1));
            edges.push((base + 1, base + 2));
            edges.push((base, base + 2));
        }
        let n = (blocks * 2 + 1) as usize;
        let g = UndirectedGraph::from_edges(n, edges).unwrap();
        let r = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        assert_eq!(r.num_components(), blocks as usize);
        assert!(r.num_components() <= n / 2);
        verify_kvccs(&g, &r, true).unwrap();

        // The chain also exercises the parallel pool with real fan-out.
        let p = enumerate_kvccs(&g, 2, &KvccOptions::parallel().with_threads(3)).unwrap();
        assert_eq!(p.components(), r.components());
        assert_eq!(p.stats().partitions, r.stats().partitions);
        assert_eq!(p.stats().global_cut_calls, r.stats().global_cut_calls);
    }
}
