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
//! * The input graph may be any [`GraphView`], and it is the first work
//!   item: borrowed, never copied, its ids mapping to themselves. Every
//!   later work item is a compact [`CsrGraph`] with its own id list. The
//!   input counts in `work_items_executed` only when its k-core is not
//!   empty.
//! * A work item's k-core is peeled on a [`SubgraphView`] vertex mask
//!   ([`SubgraphView::k_core_reduce`]); no copy is made until a component
//!   comes out of it, at which point it is extracted once into CSR form
//!   through a reusable relabelling buffer ([`CsrGraph::extract_induced`]).
//! * The peel's result picks the component split. When the peel removes
//!   nothing, round 1 of the sparse certificate's scan-first forests is the
//!   split: its trees are the item's components, in the labelling kernel's
//!   order ([`kvcc_graph::scan_first`], "Round 1 is the split"). One tree is
//!   the whole item, which is not copied, and its `GLOBAL-CUT*` resumes the
//!   forests at round 2, so the item is traversed once, not twice, before
//!   the certificate's second round. Several trees, which only an input
//!   can have, are extracted and cut one by one. When the peel removes
//!   vertices, the mask's components ([`SubgraphView::components`]) are the
//!   split.
//! * Each `GLOBAL-CUT` probe reuses a per-worker [`CutScratch`] flow arena
//!   instead of rebuilding its network from scratch.
//! * The work items created by `OVERLAP-PARTITION` are independent, so with
//!   [`KvccOptions::threads`] ≠ 1 they are processed by a pool of workers
//!   (the caller's thread processes the input first); results and
//!   statistics merge deterministically (see [`KvccOptions::threads`]).
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
use kvcc_graph::scan_first::{first_round, FirstRound};
use kvcc_graph::{CsrGraph, GraphView, SubgraphView, VertexId};

use crate::error::KvccError;
use crate::global_cut::{global_cut_resumed, CutScratch};
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

    /// Drains the worklist on the configured runtime. The first work item
    /// is the caller's graph itself, borrowed.
    fn run_worklist<G: GraphView>(
        &self,
        graph: &G,
        k: u32,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
    ) -> Result<(), KvccError> {
        // Pre-expired budgets interrupt before any work starts.
        self.options.budget.check().map_err(KvccError::from)?;
        let threads = effective_threads(self.options.threads);
        if threads <= 1 {
            self.run_sequential(graph, k, results, stats)
        } else {
            self.run_parallel(graph, k, results, stats, threads)
        }
    }

    /// Sequential worklist (LIFO, matching the seed implementation).
    fn run_sequential<G: GraphView>(
        &self,
        graph: &G,
        k: u32,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
    ) -> Result<(), KvccError> {
        let mut memory = MemoryTracker::new();
        let mut scratch = WorkerScratch::default();
        let mut work: Vec<WorkItem> = Vec::new();
        let mut created: Vec<WorkItem> = Vec::new();
        self.process_item(
            graph,
            None,
            k,
            &mut created,
            results,
            stats,
            &mut memory,
            &mut scratch,
        )?;
        loop {
            for item in created.drain(..) {
                memory.allocate(item.bytes());
                work.push(item);
            }
            let Some(item) = work.pop() else {
                break;
            };
            // One poll per work item; finer-grained checkpoints live inside
            // the GLOBAL-CUT probes themselves.
            if self.options.budget.expired() {
                stats.peak_memory_bytes = stats.peak_memory_bytes.max(memory.peak());
                return Err(KvccError::from(Interrupted));
            }
            memory.release(item.bytes());
            self.process_item(
                &item.graph,
                Some(item.to_original),
                k,
                &mut created,
                results,
                stats,
                &mut memory,
                &mut scratch,
            )?;
        }
        stats.peak_memory_bytes = stats.peak_memory_bytes.max(memory.peak());
        Ok(())
    }

    /// The parallel runtime: the caller's thread processes the first work
    /// item, then `threads` scoped workers share one LIFO stack of the
    /// pending items behind a `Mutex`, and idle workers wait on one
    /// `Condvar`.
    ///
    /// The first item is the caller's graph, which the workers do not
    /// share (a [`GraphView`] need not be `Sync`). It runs before the pool
    /// starts, so a panic inside it reaches the caller directly, and its
    /// memory peak is folded into `stats` like a worker's.
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
    fn run_parallel<G: GraphView>(
        &self,
        graph: &G,
        k: u32,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        threads: usize,
    ) -> Result<(), KvccError> {
        let mut memory = MemoryTracker::new();
        let mut initial = Vec::new();
        let first = self.process_item(
            graph,
            None,
            k,
            &mut initial,
            results,
            stats,
            &mut memory,
            &mut WorkerScratch::default(),
        );
        // `merge` below keeps the larger of this and each worker's peak.
        stats.peak_memory_bytes = memory.peak();
        first?;

        struct Shared<'a> {
            /// Pending items, each with the worker that created it (`None`
            /// for the items the first one created).
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
                                &item.graph,
                                Some(item.to_original),
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
    /// `to_original` maps the item's ids to the input's; `None` is the
    /// input itself, the first item, whose ids map by identity.
    ///
    /// New work items are pushed to `created`; the caller owns queueing and
    /// the associated memory accounting.
    #[allow(clippy::too_many_arguments)]
    fn process_item<G: GraphView>(
        &self,
        graph: &G,
        to_original: Option<Vec<VertexId>>,
        k: u32,
        created: &mut Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        memory: &mut MemoryTracker,
        scratch: &mut WorkerScratch,
    ) -> Result<(), KvccError> {
        // Line 2 of Algorithm 1: peel the k-core on a vertex mask, without
        // copying the graph.
        let mut view = SubgraphView::new(graph);
        let removed = view.k_core_reduce(k as usize);
        stats.kcore_removed_vertices += removed as u64;
        // The input counts as a work item only when its k-core is not empty.
        if to_original.is_some() || view.live() > 0 {
            stats.work_items_executed += 1;
            #[cfg(test)]
            if let Some(countdown) = &self.panic_countdown {
                if countdown.fetch_sub(1, std::sync::atomic::Ordering::Relaxed) == 1 {
                    panic!("injected work item panic");
                }
            }
        }
        // Line 3: split the k-core into connected components. With nothing
        // peeled, round 1 of the scan-first forests is the split (see the
        // module docs); one tree is the whole item, whose graph and mapping
        // serve without a copy and whose `GLOBAL-CUT*` resumes the forests.
        let components = if removed == 0 {
            let first = first_round(graph, k);
            if first.num_trees() == 1 {
                return self.cut_or_report(
                    first,
                    to_original,
                    k,
                    created,
                    results,
                    stats,
                    memory,
                    scratch,
                );
            }
            first.trees()
        } else {
            view.components()
        };
        for component in components {
            // One extraction per component (ids stay sorted, so the
            // relabelled CSR rows come out sorted for free). A k-core
            // component has more than k vertices, as a k-VCC needs
            // (Definition 2).
            let sub = CsrGraph::extract_induced(graph, &component, &mut scratch.map);
            let ids = original_ids(to_original.as_deref(), component);
            self.cut_or_report(
                first_round(&sub, k),
                Some(ids),
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

    /// Lines 5-11 of Algorithm 1 on one connected component of more than
    /// `k` vertices, the graph of `first`: find a cut, then report the
    /// component or partition it. `to_original` is as in
    /// [`Self::process_item`].
    #[allow(clippy::too_many_arguments)]
    fn cut_or_report<G: GraphView>(
        &self,
        first: FirstRound<'_, G>,
        to_original: Option<Vec<VertexId>>,
        k: u32,
        created: &mut Vec<WorkItem>,
        results: &mut Vec<KVertexConnectedComponent>,
        stats: &mut EnumerationStats,
        memory: &mut MemoryTracker,
        scratch: &mut WorkerScratch,
    ) -> Result<(), KvccError> {
        let sub = first.graph();
        let outcome = global_cut_resumed(first, &self.options, stats, &mut scratch.cut)?;
        memory.allocate(outcome.scratch_memory_bytes);
        memory.release(outcome.scratch_memory_bytes);
        match outcome.cut {
            None => results.push(KVertexConnectedComponent::new(
                to_original.unwrap_or_else(|| sub.vertices().collect()),
            )),
            Some(cut) => self.partition_and_push(
                sub,
                to_original.as_deref(),
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
    fn partition_and_push<G: GraphView>(
        &self,
        subgraph: &G,
        to_original: Option<&[VertexId]>,
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
                    let all = subgraph.vertices().collect();
                    results.push(KVertexConnectedComponent::new(original_ids(
                        to_original,
                        all,
                    )));
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
            created.push(WorkItem {
                graph: piece,
                to_original: original_ids(to_original, part),
            });
        }
        Ok(())
    }
}

/// The input's ids of the sorted `local` ids of a work item whose ids map to
/// the input's through `to_original` (`None`: by identity).
fn original_ids(to_original: Option<&[VertexId]>, local: Vec<VertexId>) -> Vec<VertexId> {
    match to_original {
        None => local,
        Some(ids) => local.iter().map(|&v| ids[v as usize]).collect(),
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

    /// Every deterministic counter of one run, in the order of
    /// [`EnumerationStats`]' fields: `GLOBAL-CUT*` calls, flow and trivial
    /// `LOC-CUT` calls, tested vertices, the vertices pruned by neighbour
    /// rules 1 and 2 and by group sweeps, phase-2 pairs tested and skipped,
    /// partitions, k-core removals, certificate edges, strong side-vertices,
    /// side-groups, fallback re-cuts and work items.
    fn pinned(c: [u64; 16]) -> EnumerationStats {
        EnumerationStats {
            global_cut_calls: c[0],
            loc_cut_flow_calls: c[1],
            loc_cut_trivial_calls: c[2],
            tested_vertices: c[3],
            pruned_neighbor_rule1: c[4],
            pruned_neighbor_rule2: c[5],
            pruned_group_sweep: c[6],
            phase2_pairs_tested: c[7],
            phase2_pairs_skipped: c[8],
            partitions: c[9],
            kcore_removed_vertices: c[10],
            certificate_edges: c[11],
            strong_side_vertices: c[12],
            side_groups: c[13],
            fallback_recuts: c[14],
            work_items_executed: c[15],
            ..EnumerationStats::default()
        }
    }

    /// A clique on each listed vertex set, over `n` vertices, plus `extra`
    /// edges.
    fn cliques(n: usize, sets: &[&[VertexId]], extra: &[(VertexId, VertexId)]) -> UndirectedGraph {
        let mut edges = extra.to_vec();
        for set in sets {
            for (i, &a) in set.iter().enumerate() {
                edges.extend(set[i + 1..].iter().map(|&b| (a, b)));
            }
        }
        UndirectedGraph::from_edges(n, edges).unwrap()
    }

    /// `enumerate_kvccs`'s components and every deterministic counter, per
    /// variant in [`AlgorithmVariant::all`] order, at one and two threads
    /// (every counter but `peak_memory_bytes`, `elapsed` and `steals`).
    /// The figures were taken from the enumerator as it stood before its
    /// first work item became the caller's graph: it then peeled the input
    /// and copied its k-core up front, peeled that copy again, and split
    /// every work item with the labelling kernel before the forests' own
    /// round 1. Inputs: the tiny ring at k = 1 and 4 (one item, whole
    /// after its peel); `two_blocks` at k = 3 (a partition); two disjoint
    /// K7 at k = 4 (a root the peel leaves whole but disconnected);
    /// `two_blocks` and a K5 joined by a path at k = 3 (a root whose peel
    /// removes the path and leaves two components, one of which
    /// partitions); and a tree at k = 2 (an empty k-core: no work item).
    #[test]
    fn components_and_counters_match_the_copying_enumerator() {
        const RING_K1: [[u64; 16]; 4] = [
            [1, 510, 7, 511, 0, 0, 0, 6, 0, 0, 0, 511, 0, 1, 0, 1],
            [1, 0, 0, 0, 511, 0, 0, 0, 0, 0, 0, 511, 512, 1, 0, 1],
            [1, 0, 0, 0, 0, 0, 511, 0, 0, 0, 0, 511, 512, 1, 0, 1],
            [1, 0, 0, 0, 4, 0, 507, 0, 0, 0, 0, 511, 512, 1, 0, 1],
        ];
        const RING_K4: [[u64; 16]; 4] = [
            [1, 510, 7, 511, 0, 0, 0, 6, 0, 0, 0, 1328, 0, 0, 0, 1],
            [1, 336, 3, 333, 0, 178, 0, 6, 0, 0, 0, 1328, 0, 0, 0, 1],
            [1, 510, 7, 511, 0, 0, 0, 6, 0, 0, 0, 1328, 0, 0, 0, 1],
            [1, 336, 3, 333, 0, 178, 0, 6, 0, 0, 0, 1328, 0, 0, 0, 1],
        ];
        const TWO_BLOCKS_K3: [[u64; 16]; 4] = [
            [3, 1, 22, 11, 0, 0, 0, 12, 0, 1, 0, 35, 0, 0, 0, 3],
            [3, 1, 0, 1, 8, 0, 0, 0, 0, 1, 0, 35, 16, 0, 0, 3],
            [3, 1, 8, 9, 0, 0, 0, 0, 0, 1, 0, 35, 16, 0, 0, 3],
            [3, 1, 0, 1, 8, 0, 0, 0, 0, 1, 0, 35, 16, 0, 0, 3],
        ];
        const TWO_K7_K4: [[u64; 16]; 4] = [
            [2, 0, 42, 12, 0, 0, 0, 30, 0, 0, 0, 36, 0, 0, 0, 1],
            [2, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 36, 14, 0, 0, 1],
            [2, 0, 12, 12, 0, 0, 0, 0, 0, 0, 0, 36, 14, 0, 0, 1],
            [2, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 36, 14, 0, 0, 1],
        ];
        const PEELED_K3: [[u64; 16]; 4] = [
            [4, 1, 32, 15, 0, 0, 0, 18, 0, 1, 2, 44, 0, 0, 0, 3],
            [4, 1, 0, 1, 12, 0, 0, 0, 0, 1, 2, 44, 21, 0, 0, 3],
            [4, 1, 12, 13, 0, 0, 0, 0, 0, 1, 2, 44, 21, 0, 0, 3],
            [4, 1, 0, 1, 12, 0, 0, 0, 0, 1, 2, 44, 21, 0, 0, 3],
        ];
        const TREE_K2: [u64; 16] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0];

        // Two K5 blocks sharing vertices 6 and 7, their only cut below 3.
        let blocks: [&[VertexId]; 2] = [&[0, 1, 2, 6, 7], &[3, 4, 5, 6, 7]];
        let two_blocks = cliques(8, &blocks, &[]);
        let k7s: [&[VertexId]; 2] = [&[0, 1, 2, 3, 4, 5, 6], &[7, 8, 9, 10, 11, 12, 13]];
        let two_k7 = cliques(14, &k7s, &[]);
        // `two_blocks` and a K5 on 8..=12, joined by the path 7-13-14-8.
        let k5: &[VertexId] = &[8, 9, 10, 11, 12];
        let path = [(7, 13), (13, 14), (14, 8)];
        let peeled = cliques(15, &[blocks[0], blocks[1], k5], &path);
        let tree = cliques(6, &[], &[(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]);
        let config = kvcc_datasets::stream::StreamConfig::tiny();
        let edges = config.edges().map(|(u, v)| (u as VertexId, v as VertexId));
        let ring = UndirectedGraph::from_edges(config.num_vertices(), edges).unwrap();
        let whole_ring: &[VertexId] = &(0..512).collect::<Vec<_>>();
        let inputs: [(_, _, _, _, &[&[VertexId]]); 6] = [
            ("ring", &ring, 1, RING_K1, &[whole_ring]),
            ("ring", &ring, 4, RING_K4, &[whole_ring]),
            ("two_blocks", &two_blocks, 3, TWO_BLOCKS_K3, &blocks),
            ("two K7", &two_k7, 4, TWO_K7_K4, &k7s),
            ("peeled", &peeled, 3, PEELED_K3, &[blocks[0], blocks[1], k5]),
            ("tree", &tree, 2, [TREE_K2; 4], &[]),
        ];
        for (name, g, k, pins, components) in inputs {
            for (variant, counters) in AlgorithmVariant::all().into_iter().zip(pins) {
                for threads in [1, 2] {
                    let options = KvccOptions::for_variant(variant).with_threads(threads);
                    let r = enumerate_kvccs(g, k, &options).unwrap();
                    let context = format!("{name}, k {k}, {variant:?}, {threads} threads");
                    let got: Vec<&[VertexId]> = r.iter().map(|c| c.vertices()).collect();
                    assert_eq!(got, components, "{context}");
                    let stats = EnumerationStats {
                        peak_memory_bytes: 0,
                        elapsed: std::time::Duration::ZERO,
                        steals: 0,
                        ..r.stats().clone()
                    };
                    assert_eq!(stats, pinned(counters), "{context}");
                }
            }
        }
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
