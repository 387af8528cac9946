//! Finding a vertex cut smaller than `k`: `GLOBAL-CUT` (Algorithm 2) and
//! `GLOBAL-CUT*` (Algorithm 3).
//!
//! Both algorithms follow the two-phase scheme of Esfahanian & Hakimi:
//!
//! 1. pick a source vertex `u` and test the local connectivity `κ(u, v)`
//!    against every other vertex `v` (covers every cut not containing `u`);
//! 2. test every pair of neighbours of `u` (covers cuts containing `u`,
//!    Lemma 4).
//!
//! Both run their flow probes on the sparse certificate (§4.2).
//! `GLOBAL-CUT*` adds strong side-vertex source selection, the
//! distance-descending processing order and — crucially — the neighbor-sweep
//! and group-sweep rules that skip most `LOC-CUT` invocations (§5, Table 2).
//!
//! The functions are generic over [`GraphView`]. The probes run on the
//! implicit vertex-split arena of [`VertexFlowGraph`], which lives in a
//! caller-owned [`CutScratch`] so that a worklist issuing many probes (the
//! enumerator) performs no per-probe allocation in steady state. Each call
//! fixes its source on the arena ([`VertexFlowGraph::fix_source`]): the
//! first probe labels the certificate by BFS distance from it, and every
//! unit of every phase-1 probe is routed by one search guided by those
//! labels. Phase 2's pairs change source from probe to probe and run
//! sink-bounded Dinic phases. Either way a probe stops at `k` units and
//! reads the cut closest to its source, so the cuts and counters do not
//! depend on the route.
//!
//! # The flow arena
//!
//! A call first builds the certificate's scan-first forests. A call handed
//! their round 1 starts at round 2: `KVCC-ENUM` hands it over (through the
//! crate-private `global_cut_resumed`) when round 1 was the work item's
//! component split and found one tree. The forests' sizes give the
//! `certificate_edges` counter and the k-th forest's trees the
//! side-groups, so neither needs the certificate as a graph. The union is
//! written into the arena's own row buffers just before the call's first
//! flow `LOC-CUT`: in phase 1, or in phase 2 when phase 1 probes nothing.
//! It is the transpose of [`ScanFirstForests::write_union`], with no graph
//! in between, and holds exactly the rows a rebuild from
//! [`sparse_certificate`](crate::certificate::sparse_certificate)'s graph
//! would copy. The forests are freed as soon as it is written, before the
//! arena sizes its per-vertex buffers, and the call's source is fixed on the
//! arena right after. A call that runs no flow probe fills no arena and
//! builds no union: every `k = 1` call whose source is strong and whose
//! sweep covers the component is one, and so is any call whose `LOC-CUT`s
//! all answer by adjacency. Its arena keeps the rows of an earlier call,
//! which no probe reads.
//!
//! [`GlobalCutOutcome::scratch_memory_bytes`] counts what the call held: the
//! forests and the side-groups, plus the arena's buffers if the call filled
//! it.
//!
//! # A fully swept source
//!
//! When the source's own sweep, before any probe, sweeps all `n` vertices,
//! phase 1 has nothing to test: `GLOBAL-CUT*` builds no distance order,
//! counts the pruned vertices by rule from the [`SweepState`], and goes on to
//! phase 2. This is exact. A sweep spreads only along edges of `g` (the
//! neighbour rules) and through side-groups, which are trees of the
//! certificate's k-th forest and so of `g`; every swept vertex is therefore
//! joined to the source in `g`, and a fully swept `g` is connected. The
//! distance order would then list all `n − 1` other vertices, the
//! disconnection test would pass, and the loop would skip each one and count
//! it under its cause. None of them is the source, the one vertex swept as
//! `SourceOrTested`, which the loop does not count either.

use kvcc_flow::{Budget, Interrupted, LocalConnectivity, VertexFlowGraph};
use kvcc_graph::scan_first::{scan_first_forests, FirstRound, ScanFirstForests};
use kvcc_graph::traversal::vertices_by_descending_distance;
use kvcc_graph::{GraphView, VertexId};

use crate::certificate::{side_group_bytes, side_groups, NO_GROUP};
use crate::options::KvccOptions;
use crate::side_vertex::strong_side_vertices;
use crate::stats::EnumerationStats;
use crate::sweep::{SweepCause, SweepContext, SweepState};

/// Result of one `GLOBAL-CUT`/`GLOBAL-CUT*` invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalCutOutcome {
    /// A vertex cut with fewer than `k` vertices, or `None` when the graph is
    /// k-vertex connected.
    pub cut: Option<Vec<VertexId>>,
    /// Approximate bytes of scratch memory that were live during the call:
    /// the forests and side-groups, plus the flow arena if the call filled
    /// it (see the [module docs](self#the-flow-arena)); consumed by the
    /// Fig. 12 memory tracker.
    pub scratch_memory_bytes: usize,
}

/// Reusable scratch arena for `GLOBAL-CUT` invocations.
///
/// Owns the vertex-split flow arena (see the scratch-arena contract on
/// [`VertexFlowGraph`]); one `CutScratch` per worker thread is the intended
/// usage. Its buffers grow to the largest certificate probed and are then
/// reused, so repeated calls and probes allocate nothing.
#[derive(Debug, Default)]
pub struct CutScratch {
    flow: VertexFlowGraph,
}

impl CutScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `GLOBAL-CUT` (basic variant) or `GLOBAL-CUT*` (any sweep variant) on a
/// connected graph `g`, looking for a vertex cut of size `< k`.
///
/// Convenience wrapper around [`global_cut_with_scratch`] that allocates a
/// fresh [`CutScratch`]; hot loops should hold their own arena instead.
///
/// Errors with [`Interrupted`] when [`KvccOptions::budget`] expires mid-call
/// (polled once per `LOC-CUT` probe, once per augmenting-path search of a
/// phase-1 probe from the fixed source, and once per Dinic BFS phase of a
/// phase-2 probe); the scratch arena stays reusable afterwards.
pub fn global_cut<G: GraphView>(
    g: &G,
    k: u32,
    options: &KvccOptions,
    stats: &mut EnumerationStats,
) -> Result<GlobalCutOutcome, Interrupted> {
    let mut scratch = CutScratch::new();
    global_cut_with_scratch(g, k, options, stats, &mut scratch)
}

/// [`global_cut`] with a caller-provided scratch arena.
///
/// The caller is expected to pass a connected graph with minimum degree `>= k`
/// (guaranteed by the k-core pruning of `KVCC-ENUM`); the function remains
/// correct for lower degrees, but the degree-based shortcuts of the paper then
/// do not apply. A disconnected `g` with more than `k` vertices and `k >= 1`
/// gets the empty cut under every variant: removing nothing already separates
/// it. A graph with at most `k` vertices gets `cut: None` before any search,
/// connected or not.
pub fn global_cut_with_scratch<G: GraphView>(
    g: &G,
    k: u32,
    options: &KvccOptions,
    stats: &mut EnumerationStats,
    scratch: &mut CutScratch,
) -> Result<GlobalCutOutcome, Interrupted> {
    global_cut_from(g, k, options, stats, scratch, || scan_first_forests(g, k))
}

/// [`global_cut_with_scratch`] on the graph and `k` of `first`, whose round
/// 1 of the scan-first forests has run: the call resumes the forests at
/// round 2 (see the [module docs](self#the-flow-arena)).
pub(crate) fn global_cut_resumed<G: GraphView>(
    first: FirstRound<'_, G>,
    options: &KvccOptions,
    stats: &mut EnumerationStats,
    scratch: &mut CutScratch,
) -> Result<GlobalCutOutcome, Interrupted> {
    let (g, k) = (first.graph(), first.k());
    global_cut_from(g, k, options, stats, scratch, move || first.resume())
}

/// The body of both entries: `forests` builds the call's scan-first
/// forests of `g`, and runs only once the call needs them.
fn global_cut_from<G: GraphView>(
    g: &G,
    k: u32,
    options: &KvccOptions,
    stats: &mut EnumerationStats,
    scratch: &mut CutScratch,
    forests: impl FnOnce() -> ScanFirstForests,
) -> Result<GlobalCutOutcome, Interrupted> {
    let budget = &options.budget;
    budget.check()?;
    stats.global_cut_calls += 1;
    let n = g.num_vertices();
    if n <= k as usize {
        // Too small to be k-connected: its entire vertex set minus one vertex
        // is technically a "cut", but KVCC-ENUM never calls us in this
        // situation; report "no cut" and let the caller's size filter decide.
        return Ok(GlobalCutOutcome {
            cut: None,
            scratch_memory_bytes: 0,
        });
    }

    let neighbor_sweep = options.variant.neighbor_sweep();
    let group_sweep = options.variant.group_sweep();
    let optimised = neighbor_sweep || group_sweep;

    // --- Certificate and side-groups (§4.2, §5.2). ---
    // The forests give the certificate's edge count and the side-groups; the
    // union itself goes into the flow arena at the first flow probe.
    let forests = forests();
    let (all_groups, all_group_of) = side_groups(&forests, n, k);
    stats.certificate_edges += forests.forest_sizes.iter().sum::<usize>() as u64;
    stats.side_groups += all_groups.len() as u64;
    // Without group sweeps no vertex has a group: the sweep context reads a
    // missing entry as `NO_GROUP`, and phase 2 reads `group_of` only with
    // group sweeps on.
    let (side_groups, group_of): (&[Vec<VertexId>], &[u32]) = if group_sweep {
        (&all_groups, &all_group_of)
    } else {
        (&[], &[])
    };

    // --- Strong side-vertices (§5.1.1). ---
    // Computed on the current subgraph `g` rather than the certificate: the
    // sweep rules of §5.1 are proved safe (Theorem 8) for the condition over
    // the *full* neighbourhood of a vertex, which the certificate may have
    // thinned; `g` has already been shrunk by k-core pruning and earlier
    // partitions.
    let strong: Vec<bool> = if optimised {
        let s = strong_side_vertices(g, k, options.max_degree_for_side_vertex_check);
        stats.strong_side_vertices += s.iter().filter(|&&x| x).count() as u64;
        s
    } else {
        Vec::new()
    };

    // --- Source selection (Algorithm 3, lines 4-7). ---
    let source = select_source(g, &strong);
    let forest_bytes = forests.memory_bytes();
    let mut arena = CertificateArena {
        flow: &mut scratch.flow,
        unfilled: Some(forests),
        source,
    };

    // --- Phase 1. ---
    let mut state = SweepState::new(n, side_groups.len());
    let ctx = SweepContext {
        graph: g,
        k,
        strong_side: &strong,
        group_of,
        side_groups,
        neighbor_sweep,
        group_sweep,
        budget,
    };
    if optimised {
        state.sweep(&ctx, source, SweepCause::SourceOrTested);
    }

    let cut = 'search: {
        if state.swept_count() == n {
            // The source's sweep swept every vertex, so `g` is connected (see
            // the module docs) and the loop below would skip every vertex of
            // its order: count them by rule, as it would, and build no order.
            // Only the sweep variants sweep, so the basic one never gets here.
            stats.pruned_neighbor_rule1 += state.swept_by(SweepCause::NeighborRule1) as u64;
            stats.pruned_neighbor_rule2 += state.swept_by(SweepCause::NeighborRule2) as u64;
            stats.pruned_group_sweep += state.swept_by(SweepCause::GroupSweep) as u64;
        } else {
            // Farthest-first (Algorithm 3, line 11); the basic algorithm tests
            // in vertex-id order.
            let order: Vec<VertexId> = if optimised {
                vertices_by_descending_distance(g, source)
            } else {
                (0..n as VertexId).filter(|&v| v != source).collect()
            };
            if order.len() + 1 < n {
                // The distance order leaves out the vertices the source cannot
                // reach, so `g` is disconnected and the empty set separates it.
                break 'search (k > 0).then(Vec::new);
            }

            for v in order {
                if let Some(cause) = state.cause(v) {
                    match cause {
                        SweepCause::NeighborRule1 => stats.pruned_neighbor_rule1 += 1,
                        SweepCause::NeighborRule2 => stats.pruned_neighbor_rule2 += 1,
                        SweepCause::GroupSweep => stats.pruned_group_sweep += 1,
                        SweepCause::SourceOrTested => {}
                    }
                    continue;
                }
                budget.check()?;
                stats.tested_vertices += 1;
                if let Some(cut) = arena.loc_cut(g, source, v, k, stats, budget)? {
                    break 'search Some(cut);
                }
                if optimised {
                    state.sweep(&ctx, v, SweepCause::SourceOrTested);
                }
            }
        }

        // --- Phase 2: the source itself may belong to the cut (Lemma 4). ---
        let source_is_strong = strong.get(source as usize).copied().unwrap_or(false);
        if !source_is_strong {
            let neighbors = g.neighbors(source);
            for (i, &a) in neighbors.iter().enumerate() {
                for &b in &neighbors[i + 1..] {
                    if group_sweep {
                        let ga = group_of[a as usize];
                        if ga != NO_GROUP && ga == group_of[b as usize] {
                            // Group-sweep rule 3: members of the same
                            // side-group are k-local-connected by Theorem 10.
                            stats.phase2_pairs_skipped += 1;
                            continue;
                        }
                    }
                    budget.check()?;
                    stats.phase2_pairs_tested += 1;
                    if let Some(cut) = arena.loc_cut(g, a, b, k, stats, budget)? {
                        break 'search Some(cut);
                    }
                }
            }
        }
        None
    };

    let filled = arena.unfilled.is_none();
    drop(arena);
    let mut scratch_memory_bytes = forest_bytes + side_group_bytes(&all_groups, &all_group_of);
    if filled {
        scratch_memory_bytes += scratch.flow.memory_bytes();
    }
    Ok(GlobalCutOutcome {
        cut,
        scratch_memory_bytes,
    })
}

/// Chooses the source vertex: a strong side-vertex when one was detected
/// (which makes phase 2 unnecessary; only the sweep variants detect them),
/// otherwise a vertex of minimum degree.
fn select_source<G: GraphView>(g: &G, strong: &[bool]) -> VertexId {
    strong
        .iter()
        .enumerate()
        .filter(|(_, &s)| s)
        .map(|(v, _)| v as VertexId)
        .min_by_key(|&v| g.degree(v))
        .or_else(|| g.min_degree_vertex())
        .expect("global_cut requires a non-empty graph")
}

/// The flow arena of one `GLOBAL-CUT*` call, filled with the sparse
/// certificate at the call's first flow probe (see the
/// [module docs](self#the-flow-arena)).
struct CertificateArena<'a> {
    flow: &'a mut VertexFlowGraph,
    /// The forests whose union the arena is to hold, until the first flow
    /// probe writes it in and drops them.
    unfilled: Option<ScanFirstForests>,
    /// The call's source, fixed on the arena once it is filled.
    source: VertexId,
}

impl CertificateArena<'_> {
    /// `LOC-CUT(u, v)` (Algorithm 2, lines 12-17): answers trivially for
    /// adjacent or identical vertices (Lemma 5), otherwise runs a max-flow on
    /// the certificate capped at `k` (the flow stops at the k-th augmenting
    /// path, Lemma 6) and returns the residual min-cut, which then has fewer
    /// than `k` vertices, as a vertex cut.
    ///
    /// The adjacency shortcut is evaluated on the current subgraph `g`; the
    /// flow runs on the sparse certificate, a subgraph of `g`. Non-adjacency
    /// in `g` implies non-adjacency in any subgraph, so the arena's own
    /// adjacency check never answers for a pair that reaches it.
    fn loc_cut<G: GraphView>(
        &mut self,
        g: &G,
        u: VertexId,
        v: VertexId,
        k: u32,
        stats: &mut EnumerationStats,
        budget: &Budget,
    ) -> Result<Option<Vec<VertexId>>, Interrupted> {
        if u == v || g.has_edge(u, v) {
            stats.loc_cut_trivial_calls += 1;
            return Ok(None);
        }
        stats.loc_cut_flow_calls += 1;
        if let Some(forests) = self.unfilled.take() {
            // The closure owns the forests, so their slots are freed before
            // the arena sizes its per-vertex buffers.
            self.flow
                .rebuild_with(move |offsets, targets| forests.write_union(offsets, targets));
            self.flow.fix_source(self.source);
        }
        let answer = self.flow.local_connectivity_budgeted(u, v, k, budget)?;
        Ok(match answer {
            LocalConnectivity::AtLeast(_) => None,
            LocalConnectivity::Cut(cut) => Some(cut),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::AlgorithmVariant;
    use kvcc_graph::traversal::connected_components_filtered;
    use kvcc_graph::UndirectedGraph;

    fn options_for(variant: AlgorithmVariant) -> KvccOptions {
        KvccOptions {
            variant,
            ..KvccOptions::default()
        }
    }

    /// Test-local shadow of [`super::global_cut`]: every test here runs with
    /// an unlimited budget, which must never interrupt.
    fn global_cut<G: GraphView>(
        g: &G,
        k: u32,
        options: &KvccOptions,
        stats: &mut EnumerationStats,
    ) -> GlobalCutOutcome {
        super::global_cut(g, k, options, stats).expect("an unlimited budget never interrupts")
    }

    /// Test-local shadow of [`super::global_cut_with_scratch`], same
    /// contract.
    fn global_cut_with_scratch<G: GraphView>(
        g: &G,
        k: u32,
        options: &KvccOptions,
        stats: &mut EnumerationStats,
        scratch: &mut CutScratch,
    ) -> GlobalCutOutcome {
        super::global_cut_with_scratch(g, k, options, stats, scratch)
            .expect("an unlimited budget never interrupts")
    }

    fn complete(n: usize) -> UndirectedGraph {
        let mut edges = Vec::new();
        for i in 0..n as VertexId {
            for j in (i + 1)..n as VertexId {
                edges.push((i, j));
            }
        }
        UndirectedGraph::from_edges(n, edges).unwrap()
    }

    /// Two K5 blocks sharing two vertices (6 and 7): the only cut with fewer
    /// than 3 vertices is {6, 7}.
    fn two_blocks() -> UndirectedGraph {
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 6, 7], [3u32, 4, 5, 6, 7]] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    edges.push((block[i], block[j]));
                }
            }
        }
        UndirectedGraph::from_edges(8, edges).unwrap()
    }

    fn assert_valid_cut(g: &UndirectedGraph, cut: &[VertexId], k: u32) {
        assert!(!cut.is_empty());
        assert!(
            (cut.len() as u32) < k,
            "cut {cut:?} must have fewer than k vertices"
        );
        let mut alive = kvcc_graph::bitset::BitSet::filled(g.num_vertices());
        for &v in cut {
            alive.remove(v as usize);
        }
        let comps = connected_components_filtered(g, &alive);
        assert!(
            comps.len() >= 2,
            "removing {cut:?} must disconnect the graph"
        );
    }

    #[test]
    fn complete_graph_has_no_cut_for_any_variant() {
        let g = complete(7);
        for variant in AlgorithmVariant::all() {
            let mut stats = EnumerationStats::default();
            let out = global_cut(&g, 4, &options_for(variant), &mut stats);
            assert!(
                out.cut.is_none(),
                "variant {variant:?} found a spurious cut"
            );
            assert_eq!(stats.global_cut_calls, 1);
        }
    }

    #[test]
    fn two_block_graph_yields_the_portal_cut() {
        let g = two_blocks();
        for variant in AlgorithmVariant::all() {
            let mut stats = EnumerationStats::default();
            let out = global_cut(&g, 3, &options_for(variant), &mut stats);
            let cut = out.cut.expect("graph is not 3-connected");
            assert_valid_cut(&g, &cut, 3);
        }
    }

    #[test]
    fn csr_and_vec_representations_agree() {
        // The same edge set as a CSR graph and as a delta over another base.
        let g = two_blocks();
        let delta = crate::testing::rebased(&g);
        for variant in AlgorithmVariant::all() {
            let mut s1 = EnumerationStats::default();
            let mut s2 = EnumerationStats::default();
            let a = global_cut(&g, 3, &options_for(variant), &mut s1);
            let b = global_cut(&delta, 3, &options_for(variant), &mut s2);
            assert_eq!(a.cut, b.cut, "variant {variant:?}");
            assert_eq!(s1.tested_vertices, s2.tested_vertices);
            assert_eq!(s1.loc_cut_flow_calls, s2.loc_cut_flow_calls);
        }
    }

    #[test]
    fn scratch_arena_is_reusable_across_probes() {
        let blocks = two_blocks();
        let clique = complete(7);
        let mut scratch = CutScratch::new();
        for _ in 0..3 {
            let mut stats = EnumerationStats::default();
            let out = global_cut_with_scratch(
                &blocks,
                3,
                &KvccOptions::default(),
                &mut stats,
                &mut scratch,
            );
            assert_valid_cut(&blocks, &out.cut.expect("not 3-connected"), 3);
            let mut stats = EnumerationStats::default();
            let out = global_cut_with_scratch(
                &clique,
                4,
                &KvccOptions::default(),
                &mut stats,
                &mut scratch,
            );
            assert!(out.cut.is_none());
        }
    }

    #[test]
    fn no_cut_found_when_graph_is_k_connected() {
        let g = two_blocks();
        // The graph *is* 2-vertex connected, so no cut of size < 2 exists.
        for variant in AlgorithmVariant::all() {
            let mut stats = EnumerationStats::default();
            let out = global_cut(&g, 2, &options_for(variant), &mut stats);
            assert!(out.cut.is_none(), "variant {variant:?}");
        }
    }

    #[test]
    fn disconnected_graph_gets_the_empty_cut_under_every_variant() {
        // Two disjoint triangles: the sweep variants order phase 1 by BFS
        // distance from the source, which never reaches the other triangle.
        let g =
            UndirectedGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
                .unwrap();
        let mut scratch = CutScratch::new();
        for k in 1..=3u32 {
            for variant in AlgorithmVariant::all() {
                let mut stats = EnumerationStats::default();
                let out = global_cut(&g, k, &options_for(variant), &mut stats);
                assert_eq!(out.cut, Some(Vec::new()), "variant {variant:?}, k {k}");
                let out =
                    global_cut_with_scratch(&g, k, &options_for(variant), &mut stats, &mut scratch);
                assert_eq!(out.cut, Some(Vec::new()), "variant {variant:?}, k {k}");
            }
        }
        // No cut has fewer than zero vertices.
        for variant in AlgorithmVariant::all() {
            let mut stats = EnumerationStats::default();
            let out = global_cut(&g, 0, &options_for(variant), &mut stats);
            assert_eq!(out.cut, None, "variant {variant:?}, k 0");
        }
    }

    #[test]
    fn ablation_options_still_produce_valid_results() {
        let g = two_blocks();
        // No strong side-vertex survives a degree cap of 0, so the source
        // falls back to a minimum-degree vertex and phase 2 runs.
        let opts = KvccOptions {
            max_degree_for_side_vertex_check: Some(0),
            ..KvccOptions::default()
        };
        let mut stats = EnumerationStats::default();
        let out = global_cut(&g, 3, &opts, &mut stats);
        assert_valid_cut(&g, &out.cut.expect("cut must be found"), 3);
        let mut stats = EnumerationStats::default();
        assert!(global_cut(&complete(6), 3, &opts, &mut stats).cut.is_none());
    }

    #[test]
    fn sweep_statistics_are_recorded_for_the_full_variant() {
        let g = two_blocks();
        let mut stats = EnumerationStats::default();
        let _ = global_cut(&g, 3, &KvccOptions::default(), &mut stats);
        // With sweeps enabled, phase-1 bookkeeping must cover every non-source
        // vertex that was reached before the cut was returned.
        assert!(stats.phase1_vertices() <= (g.num_vertices() as u64 - 1));
        assert!(stats.loc_cut_flow_calls + stats.loc_cut_trivial_calls > 0);
    }

    /// The statistics of one call from its counters other than
    /// `global_cut_calls`: tested vertices, the vertices pruned by neighbour
    /// rules 1 and 2 and by group sweeps, flow and trivial `LOC-CUT` calls,
    /// phase-2 pairs tested and skipped, certificate edges, strong
    /// side-vertices and side-groups.
    fn pinned(c: [u64; 11]) -> EnumerationStats {
        EnumerationStats {
            global_cut_calls: 1,
            tested_vertices: c[0],
            pruned_neighbor_rule1: c[1],
            pruned_neighbor_rule2: c[2],
            pruned_group_sweep: c[3],
            loc_cut_flow_calls: c[4],
            loc_cut_trivial_calls: c[5],
            phase2_pairs_tested: c[6],
            phase2_pairs_skipped: c[7],
            certificate_edges: c[8],
            strong_side_vertices: c[9],
            side_groups: c[10],
            ..EnumerationStats::default()
        }
    }

    /// Each call's statistics and cut, per variant in
    /// [`AlgorithmVariant::all`] order, are those the phase-1 loop gives when
    /// it runs over every vertex (the figures were taken before fully swept
    /// sources bypassed it). The source's own sweep covers all of K7 under
    /// `VCCE-N` and `VCCE*` and, at k = 1, under `VCCE-G`, and all of the
    /// community ring under the three sweep variants. It covers one vertex
    /// of K7 under `VCCE-G` at k ≥ 2, four of the fan's five under `VCCE-G`
    /// (the case a skip at `n − 1` swept vertices would get wrong), and five
    /// of `two_blocks`' eight under `VCCE-N` and `VCCE*`.
    #[test]
    fn counters_and_cuts_match_the_phase_one_loop() {
        // K7 at k = 1..=6.
        const K7: [[[u64; 11]; 4]; 6] = [
            [
                [6, 0, 0, 0, 0, 21, 15, 0, 6, 0, 1],
                [0, 6, 0, 0, 0, 0, 0, 0, 6, 7, 1],
                [0, 0, 0, 6, 0, 0, 0, 0, 6, 7, 1],
                [0, 6, 0, 0, 0, 0, 0, 0, 6, 7, 1],
            ],
            [
                [6, 0, 0, 0, 0, 21, 15, 0, 11, 0, 1],
                [0, 6, 0, 0, 0, 0, 0, 0, 11, 7, 1],
                [1, 0, 0, 5, 0, 1, 0, 0, 11, 7, 1],
                [0, 6, 0, 0, 0, 0, 0, 0, 11, 7, 1],
            ],
            [
                [6, 0, 0, 0, 0, 21, 15, 0, 15, 0, 1],
                [0, 6, 0, 0, 0, 0, 0, 0, 15, 7, 1],
                [2, 0, 0, 4, 0, 2, 0, 0, 15, 7, 1],
                [0, 6, 0, 0, 0, 0, 0, 0, 15, 7, 1],
            ],
            [
                [6, 0, 0, 0, 0, 21, 15, 0, 18, 0, 0],
                [0, 6, 0, 0, 0, 0, 0, 0, 18, 7, 0],
                [6, 0, 0, 0, 0, 6, 0, 0, 18, 7, 0],
                [0, 6, 0, 0, 0, 0, 0, 0, 18, 7, 0],
            ],
            [
                [6, 0, 0, 0, 0, 21, 15, 0, 20, 0, 0],
                [0, 6, 0, 0, 0, 0, 0, 0, 20, 7, 0],
                [6, 0, 0, 0, 0, 6, 0, 0, 20, 7, 0],
                [0, 6, 0, 0, 0, 0, 0, 0, 20, 7, 0],
            ],
            [
                [6, 0, 0, 0, 0, 21, 15, 0, 21, 0, 0],
                [0, 6, 0, 0, 0, 0, 0, 0, 21, 7, 0],
                [6, 0, 0, 0, 0, 6, 0, 0, 21, 7, 0],
                [0, 6, 0, 0, 0, 0, 0, 0, 21, 7, 0],
            ],
        ];
        const RING_K1: [[u64; 11]; 4] = [
            [511, 0, 0, 0, 510, 7, 6, 0, 511, 0, 1],
            [0, 511, 0, 0, 0, 0, 0, 0, 511, 512, 1],
            [0, 0, 0, 511, 0, 0, 0, 0, 511, 512, 1],
            [0, 4, 0, 507, 0, 0, 0, 0, 511, 512, 1],
        ];
        const FAN_K2: [[u64; 11]; 4] = [
            [4, 0, 0, 0, 2, 3, 1, 0, 7, 0, 1],
            [0, 4, 0, 0, 0, 0, 0, 0, 7, 4, 1],
            [1, 0, 0, 3, 0, 1, 0, 0, 7, 4, 1],
            [0, 2, 0, 2, 0, 0, 0, 0, 7, 4, 1],
        ];
        const TWO_BLOCKS_K3: [[u64; 11]; 4] = [
            [3, 0, 0, 0, 1, 2, 0, 0, 17, 0, 0],
            [1, 0, 0, 0, 1, 0, 0, 0, 17, 6, 0],
            [1, 0, 0, 0, 1, 0, 0, 0, 17, 6, 0],
            [1, 0, 0, 0, 1, 0, 0, 0, 17, 6, 0],
        ];

        let config = kvcc_datasets::stream::StreamConfig::tiny();
        let ring = UndirectedGraph::from_edges(
            config.num_vertices(),
            config.edges().map(|(u, v)| (u as VertexId, v as VertexId)),
        )
        .unwrap();
        assert_eq!((ring.num_vertices(), ring.num_edges()), (512, 1328));
        // Hub 2 over the path 1-0-3-4.
        let fan = UndirectedGraph::from_edges(
            5,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4)],
        )
        .unwrap();
        let no_cut: Option<&[VertexId]> = None;
        let mut inputs: Vec<_> = (1..=6)
            .zip(&K7)
            .map(|(k, pins)| ("K7", complete(7), k, pins, no_cut))
            .collect();
        inputs.push(("ring", ring, 1, &RING_K1, no_cut));
        inputs.push(("fan", fan, 2, &FAN_K2, no_cut));
        inputs.push(("two_blocks", two_blocks(), 3, &TWO_BLOCKS_K3, Some(&[6, 7])));

        let mut scratch = CutScratch::new();
        for (name, g, k, pins, cut) in inputs {
            for (variant, counters) in AlgorithmVariant::all().into_iter().zip(pins) {
                let mut stats = EnumerationStats::default();
                let options = options_for(variant);
                let out = global_cut_with_scratch(&g, k, &options, &mut stats, &mut scratch);
                let context = format!("{name}, k {k}, {variant:?}");
                assert_eq!(stats, pinned(*counters), "{context}");
                assert_eq!(out.cut.as_deref(), cut, "{context}");
            }
        }
    }

    /// The arena is filled at a call's first flow probe and not before. A
    /// call that runs none leaves a fresh scratch's arena empty: the tiny
    /// ring at k = 1 under `VCCE*`, and K7 at k = 1..=6 under `VCCE-N` and
    /// `VCCE*`. A later call fills it at its first phase-1 probe
    /// (`two_blocks` at k = 3, with its pinned counters and cut), and a call
    /// whose phase 1 probes nothing at its first phase-2 probe (a 4-cycle at
    /// k = 1 with no strong side-vertex: the source's sweep covers it, and
    /// its neighbours 1 and 3 are not adjacent). Either way the call's source
    /// is fixed on the filled arena.
    #[test]
    fn the_arena_is_filled_at_the_first_flow_probe() {
        let config = kvcc_datasets::stream::StreamConfig::tiny();
        let ring = UndirectedGraph::from_edges(
            config.num_vertices(),
            config.edges().map(|(u, v)| (u as VertexId, v as VertexId)),
        )
        .unwrap();
        let mut unprobed = vec![(ring, 1, AlgorithmVariant::Full)];
        for k in 1..=6 {
            for variant in [AlgorithmVariant::NeighborSweep, AlgorithmVariant::Full] {
                unprobed.push((complete(7), k, variant));
            }
        }
        let mut scratch = CutScratch::new();
        for (g, k, variant) in unprobed {
            let mut stats = EnumerationStats::default();
            let out =
                global_cut_with_scratch(&g, k, &options_for(variant), &mut stats, &mut scratch);
            let context = format!("n {}, k {k}, {variant:?}", g.num_vertices());
            assert_eq!(out.cut, None, "{context}");
            assert_eq!(stats.loc_cut_flow_calls, 0, "{context}");
            assert_eq!(scratch.flow.num_vertices(), 0, "{context}");
        }

        let mut stats = EnumerationStats::default();
        let out = global_cut_with_scratch(
            &two_blocks(),
            3,
            &KvccOptions::default(),
            &mut stats,
            &mut scratch,
        );
        assert_eq!(stats, pinned([1, 0, 0, 0, 1, 0, 0, 0, 17, 6, 0]));
        assert_eq!(out.cut.as_deref(), Some(&[6, 7][..]));
        assert_eq!(scratch.flow.num_vertices(), 8);
        // Vertex 0 is the first strong side-vertex of least degree.
        assert_eq!(scratch.flow.fixed_source(), Some(0));

        let cycle = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let options = KvccOptions {
            variant: AlgorithmVariant::NeighborSweep,
            max_degree_for_side_vertex_check: Some(0),
            ..KvccOptions::default()
        };
        let mut scratch = CutScratch::new();
        let mut stats = EnumerationStats::default();
        let out = global_cut_with_scratch(&cycle, 1, &options, &mut stats, &mut scratch);
        assert_eq!(stats, pinned([0, 0, 3, 0, 1, 0, 1, 0, 3, 0, 1]));
        assert_eq!(out.cut, None);
        assert_eq!(scratch.flow.num_vertices(), 4);
        assert_eq!(scratch.flow.fixed_source(), Some(0));
    }

    #[test]
    fn tiny_graph_shortcut() {
        let g = complete(3);
        let mut stats = EnumerationStats::default();
        let out = global_cut(&g, 5, &KvccOptions::default(), &mut stats);
        assert!(out.cut.is_none());
        assert_eq!(out.scratch_memory_bytes, 0);
    }

    #[test]
    fn expired_budget_interrupts_and_scratch_stays_reusable() {
        let g = two_blocks();
        let expired =
            KvccOptions::default().with_budget(Budget::with_timeout(std::time::Duration::ZERO));
        let mut stats = EnumerationStats::default();
        let mut scratch = CutScratch::new();
        assert_eq!(
            super::global_cut_with_scratch(&g, 3, &expired, &mut stats, &mut scratch),
            Err(Interrupted)
        );
        // The same scratch answers the identical probe afterwards.
        let mut stats = EnumerationStats::default();
        let out = global_cut_with_scratch(&g, 3, &KvccOptions::default(), &mut stats, &mut scratch);
        assert_valid_cut(&g, &out.cut.expect("graph is not 3-connected"), 3);
        // A cancelled token interrupts the same way as a passed deadline.
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        let opts = KvccOptions::default().with_budget(cancelled);
        let mut stats = EnumerationStats::default();
        assert_eq!(
            super::global_cut_with_scratch(&g, 3, &opts, &mut stats, &mut scratch),
            Err(Interrupted)
        );
    }
}
