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
//! * k-core peeling and component splitting are one call,
//!   [`split_k_core`], on a [`SubgraphView`] vertex mask — no copy is made
//!   until a component comes out of it, at which point it is extracted once
//!   into CSR form through a reusable relabelling buffer
//!   ([`CsrGraph::extract_induced`]). A component that is the whole
//!   work item (nothing peeled, one component) is not copied at all, and a
//!   first k-core that is the whole input is copied row by row, with no
//!   relabelling and at exact capacity.
//! * Each `GLOBAL-CUT` probe reuses a per-worker [`CutScratch`] flow arena
//!   instead of rebuilding its network from scratch.
//! * The work items created by `OVERLAP-PARTITION` are independent, so with
//!   [`KvccOptions::threads`] ≠ 1 they are processed by a pool of workers;
//!   results and statistics merge deterministically (see
//!   [`KvccOptions::threads`]).
//! * The workers share one LIFO stack behind a `Mutex` and wait on one
//!   `Condvar`. An item runs a whole `GLOBAL-CUT*`, 0.26 ms on average on a
//!   451-item planted graph and up to tens of milliseconds, so the lock,
//!   taken twice per item, does not contend: per-worker deques with work
//!   stealing timed the same at 2 and 8 threads (README, "Scheduling &
//!   deadlines").
//! * Every loop polls [`KvccOptions::budget`]; an expired deadline or a
//!   cancelled token interrupts the run at the next checkpoint and returns
//!   [`KvccError::Interrupted`] carrying the partial statistics.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use kvcc_flow::Interrupted;
use kvcc_graph::kcore::{k_core_vertices, split_k_core};
use kvcc_graph::{CsrGraph, GraphView, SubgraphView, VertexId};

use crate::error::KvccError;
use crate::global_cut::{global_cut_with_scratch, CutScratch};
use crate::options::{effective_threads, AlgorithmVariant, KvccOptions};
use crate::partition::overlap_partition;
use crate::result::{KVertexConnectedComponent, KvccResult};
use crate::stats::{EnumerationStats, MemoryTracker};

/// A reusable enumerator configured once and run against any number of graphs.
#[derive(Clone, Debug, Default)]
pub struct KvccEnumerator {
    options: KvccOptions,
    /// Test hook: the work item that brings this count from 1 to 0 panics.
    #[cfg(test)]
    panic_countdown: Option<std::sync::Arc<std::sync::atomic::AtomicUsize>>,
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

/// The parallel worklist's lock is poisoned only by a worker that panicked
/// while holding it.
const POISONED: &str = "a worklist worker panicked while holding the lock";

impl KvccEnumerator {
    /// Creates an enumerator with the given options.
    pub fn new(options: KvccOptions) -> Self {
        KvccEnumerator {
            options,
            #[cfg(test)]
            panic_countdown: None,
        }
    }

    /// Convenience constructor for one of the paper's four variants.
    pub fn with_variant(variant: AlgorithmVariant) -> Self {
        KvccEnumerator {
            options: KvccOptions::for_variant(variant),
            #[cfg(test)]
            panic_countdown: None,
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
            self.run_parallel(k, initial, results, stats, threads)
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

    /// The parallel runtime: `threads` scoped workers share one LIFO stack
    /// of pending items behind a `Mutex`, and idle workers wait on one
    /// `Condvar`.
    ///
    /// A worker pops the newest item, processes it with the lock released,
    /// then pushes the items it created and signals. It waits while the
    /// stack is empty and another worker is busy (that worker may still
    /// push), and leaves once the stack is empty and no worker is busy, or
    /// once a worker has recorded an error. The check and the wait hold the
    /// same lock, so no wake-up is lost.
    ///
    /// Each worker merges its results and counters as it leaves, also on
    /// error, so an interrupted run reports the work that completed. The set
    /// of processed items does not depend on scheduling, so only `elapsed`,
    /// the memory estimate and `steals` vary between runs.
    ///
    /// A worker that panics inside an item leaves the busy count on its way
    /// out, stops the pool and wakes the waiters, so the other workers leave
    /// and the scope passes the panic to the caller, as the sequential
    /// runtime does.
    fn run_parallel(
        &self,
        k: u32,
        initial: Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        threads: usize,
    ) -> Result<(), KvccError> {
        struct Shared<'a> {
            /// Pending items, each with the worker that created it (`None`
            /// for the initial items).
            stack: Vec<(WorkItem, Option<usize>)>,
            /// Workers processing an item right now.
            busy: usize,
            /// Whether a worker panicked inside an item.
            panicked: bool,
            /// Bytes of the items on the stack, and their high-water mark.
            queued: MemoryTracker,
            error: Option<KvccError>,
            results: &'a mut Vec<KVertexConnectedComponent>,
            stats: &'a mut EnumerationStats,
        }
        let mut queued = MemoryTracker::new();
        for item in &initial {
            queued.allocate(item.bytes());
        }
        let shared = Mutex::new(Shared {
            stack: initial.into_iter().map(|item| (item, None)).collect(),
            busy: 0,
            panicked: false,
            queued,
            error: None,
            results,
            stats,
        });
        let ready = Condvar::new();

        /// Armed while a worker processes an item: if the item unwinds, it
        /// takes the worker off the busy count, stops the pool and wakes the
        /// waiters, which would otherwise wait for that worker forever.
        struct Unwinding<'s, 'a> {
            shared: &'s Mutex<Shared<'a>>,
            ready: &'s Condvar,
        }
        impl Drop for Unwinding<'_, '_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    // The panicking worker holds no lock, so this one is not
                    // poisoned by it; a poisoned one is still safe to mark.
                    let mut guard = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
                    guard.busy -= 1;
                    guard.panicked = true;
                    self.ready.notify_all();
                }
            }
        }

        std::thread::scope(|scope| {
            for worker in 0..threads {
                let (shared, ready) = (&shared, &ready);
                scope.spawn(move || {
                    let mut local_results = Vec::new();
                    let mut local_stats = EnumerationStats::default();
                    let mut memory = MemoryTracker::new();
                    let mut scratch = WorkerScratch::default();
                    let mut created = Vec::new();
                    let mut guard = shared.lock().expect(POISONED);
                    while guard.error.is_none() && !guard.panicked {
                        let Some((item, creator)) = guard.stack.pop() else {
                            if guard.busy == 0 {
                                break;
                            }
                            guard = ready.wait(guard).expect(POISONED);
                            continue;
                        };
                        guard.queued.release(item.bytes());
                        guard.busy += 1;
                        drop(guard);
                        if creator.is_some_and(|c| c != worker) {
                            local_stats.steals += 1;
                        }
                        let unwinding = Unwinding { shared, ready };
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
                        drop(unwinding);
                        guard = shared.lock().expect(POISONED);
                        guard.busy -= 1;
                        let pushed = !created.is_empty();
                        match outcome {
                            Ok(()) => {
                                for item in created.drain(..) {
                                    guard.queued.allocate(item.bytes());
                                    guard.stack.push((item, Some(worker)));
                                }
                            }
                            Err(e) => {
                                guard.error.get_or_insert(e);
                            }
                        }
                        // Waiters need new items, the end of the last busy
                        // worker's item, or an error.
                        if pushed || guard.busy == 0 || guard.error.is_some() {
                            ready.notify_all();
                        }
                    }
                    // `merge` keeps the largest worker's scratch peak.
                    local_stats.peak_memory_bytes = memory.peak();
                    guard.results.extend(local_results);
                    guard.stats.merge(&local_stats);
                });
            }
        });

        let shared = shared.into_inner().expect(POISONED);
        // Peak estimate: the largest worker's scratch peak plus the stack's
        // high-water mark. An approximation (workers run concurrently), but
        // monotone in problem size like Fig. 12.
        shared.stats.peak_memory_bytes += shared.queued.peak();
        shared.error.map_or(Ok(()), Err)
    }

    /// Handles one work item: k-core pruning, component split, cut-or-report.
    ///
    /// New work items are pushed to `created`; the caller owns queueing and
    /// the associated memory accounting.
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
        #[cfg(test)]
        if let Some(countdown) = &self.panic_countdown {
            if countdown.fetch_sub(1, std::sync::atomic::Ordering::Relaxed) == 1 {
                panic!("injected work item panic");
            }
        }
        // Lines 2–3 of Algorithm 1: peel the k-core and split it into
        // connected components, on a vertex mask, without copying the graph.
        let mut view = SubgraphView::new(&item.graph);
        let components = split_k_core(&mut view, k as usize);
        let removed = item.graph.num_vertices() - view.live();
        stats.kcore_removed_vertices += removed as u64;
        if removed == 0 && components.len() == 1 {
            // One component with nothing peeled is the whole item: its graph
            // and mapping serve without a copy.
            return self.cut_or_report(
                &item.graph,
                item.to_original,
                k,
                created,
                results,
                stats,
                memory,
                scratch,
            );
        }
        for component in components {
            // One extraction per component (ids stay sorted, so the
            // relabelled CSR rows come out sorted for free). A k-core
            // component has more than k vertices, as a k-VCC needs
            // (Definition 2).
            let sub = CsrGraph::extract_induced(&item.graph, &component, &mut scratch.map);
            let to_original: Vec<VertexId> = component
                .iter()
                .map(|&local| item.to_original[local as usize])
                .collect();
            self.cut_or_report(
                &sub,
                to_original,
                k,
                created,
                results,
                stats,
                memory,
                scratch,
            )?;
        }
        Ok(())
    }

    /// Lines 5-11 of Algorithm 1 on one connected component `sub` of more
    /// than `k` vertices: find a cut, then report `sub` or partition it.
    #[allow(clippy::too_many_arguments)]
    fn cut_or_report(
        &self,
        sub: &CsrGraph,
        to_original: Vec<VertexId>,
        k: u32,
        created: &mut Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        memory: &mut MemoryTracker,
        scratch: &mut WorkerScratch,
    ) -> Result<(), KvccError> {
        let outcome = global_cut_with_scratch(sub, k, &self.options, stats, &mut scratch.cut)?;
        memory.allocate(outcome.scratch_memory_bytes);
        memory.release(outcome.scratch_memory_bytes);
        match outcome.cut {
            None => results.push(KVertexConnectedComponent::new(to_original)),
            Some(cut) => self.partition_and_push(
                sub,
                &to_original,
                cut,
                k,
                created,
                results,
                stats,
                scratch,
            )?,
        }
        Ok(())
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
        // The same edge set as a CSR graph and as a delta over another base.
        let g = two_triangles();
        let delta = crate::testing::rebased(&g);
        let a = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        let b = enumerate_kvccs(&delta, 2, &KvccOptions::default()).unwrap();
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

    /// Eight triangles joined into a chain by bridge edges: at k = 2 every
    /// overlap partition leaves a dangling bridge stub that peels, and the
    /// fan-out gives several workers items to pop.
    fn bridged_triangles() -> UndirectedGraph {
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
        UndirectedGraph::from_edges(24, edges).unwrap()
    }

    #[test]
    fn schedulers_agree_exactly() {
        let g = bridged_triangles();
        let reference = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        for threads in [1usize, 2, 4] {
            let opts = KvccOptions::default().with_threads(threads);
            let r = enumerate_kvccs(&g, 2, &opts).unwrap();
            let label = format!("{threads} threads");
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
            // The processed item set does not depend on the schedule.
            assert_eq!(
                r.stats().work_items_executed,
                reference.stats().work_items_executed,
                "{label}"
            );
        }
    }

    #[test]
    fn a_panicking_work_item_reaches_the_caller() {
        // The third work item panics. Every runtime must pass the panic on
        // (the pool by the scope's join) instead of leaving the other
        // workers waiting for the panicked one; a run that gives no outcome
        // within the timeout hangs.
        for threads in [1usize, 2, 3] {
            let (sender, outcome) = std::sync::mpsc::channel();
            let run = std::thread::spawn(move || {
                let enumerator = KvccEnumerator {
                    options: KvccOptions::default().with_threads(threads),
                    panic_countdown: Some(std::sync::Arc::new(3.into())),
                };
                let g = bridged_triangles();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    enumerator.run(&g, 2)
                }));
                sender
                    .send(result.is_err())
                    .expect("the test waits for the outcome");
            });
            let panicked = outcome
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("threads {threads}: the run hung after a panic"));
            assert!(
                panicked,
                "threads {threads}: the panic must reach the caller"
            );
            run.join().expect("the run's panic was caught");
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
