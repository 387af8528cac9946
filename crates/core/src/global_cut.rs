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
//! The functions are generic over [`GraphView`], and the flow network lives
//! in a caller-owned [`CutScratch`] arena so that a worklist issuing many
//! probes (the enumerator) performs no per-probe allocation in steady state.

use kvcc_flow::{Budget, Interrupted, LocalConnectivity, VertexFlowGraph};
use kvcc_graph::traversal::vertices_by_descending_distance;
use kvcc_graph::{GraphView, VertexId};

use crate::certificate::{sparse_certificate, NO_GROUP};
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
    /// Approximate bytes of scratch memory (certificate + flow graph) that
    /// were live during the call; consumed by the Fig. 12 memory tracker.
    pub scratch_memory_bytes: usize,
}

/// Reusable scratch arena for `GLOBAL-CUT` invocations.
///
/// Owns the vertex-split flow network (see the scratch-arena contract on
/// [`VertexFlowGraph`]); one `CutScratch` per worker thread is the intended
/// usage. Buffers grow to the largest subgraph probed and are then reused,
/// so repeated probes allocate nothing.
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
/// (polled once per `LOC-CUT` probe and per Dinic BFS phase); the scratch
/// arena stays reusable afterwards.
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
/// correct for other inputs but the degree-based shortcuts of the paper then
/// do not apply.
pub fn global_cut_with_scratch<G: GraphView>(
    g: &G,
    k: u32,
    options: &KvccOptions,
    stats: &mut EnumerationStats,
    scratch: &mut CutScratch,
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
    let certificate = sparse_certificate(g, k);
    stats.certificate_edges += certificate.num_edges() as u64;
    stats.side_groups += certificate.side_groups.len() as u64;
    let (side_groups, group_of): (&[Vec<VertexId>], Vec<u32>) = if group_sweep {
        (&certificate.side_groups, certificate.group_of.clone())
    } else {
        (&[], vec![NO_GROUP; n])
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

    // --- Flow arena over the certificate. Rebuilding reuses the buffers of
    // previous probes.
    let flow = &mut scratch.flow;
    flow.rebuild(&certificate.graph);
    let scratch_memory_bytes = flow.memory_bytes() + certificate.memory_bytes();

    // Flow cap per LOC-CUT probe: `k` (stop at the k-th augmenting path,
    // Lemma 6) unless the unbounded ablation asks for the exact value, in
    // which case `n` exceeds any possible local connectivity.
    let probe_limit = if options.k_bounded_flow { k } else { n as u32 };

    // --- Phase 1. ---
    let mut state = SweepState::new(n, side_groups.len());
    let ctx = SweepContext {
        graph: g,
        k,
        strong_side: &strong,
        group_of: &group_of,
        side_groups,
        neighbor_sweep,
        group_sweep,
        budget,
    };
    if optimised {
        state.sweep(&ctx, source, SweepCause::SourceOrTested);
    }

    // Farthest-first (Algorithm 3, line 11); the basic algorithm tests in
    // vertex-id order.
    let order: Vec<VertexId> = if optimised {
        vertices_by_descending_distance(g, source)
    } else {
        (0..n as VertexId).filter(|&v| v != source).collect()
    };

    for v in order {
        if optimised && state.is_pruned(v) {
            match state.cause(v) {
                SweepCause::NeighborRule1 => stats.pruned_neighbor_rule1 += 1,
                SweepCause::NeighborRule2 => stats.pruned_neighbor_rule2 += 1,
                SweepCause::GroupSweep => stats.pruned_group_sweep += 1,
                SweepCause::SourceOrTested => {}
            }
            continue;
        }
        budget.check()?;
        stats.tested_vertices += 1;
        if let Some(cut) = loc_cut(flow, g, source, v, k, probe_limit, stats, budget)? {
            return Ok(GlobalCutOutcome {
                cut: Some(cut),
                scratch_memory_bytes,
            });
        }
        if optimised {
            state.sweep(&ctx, v, SweepCause::SourceOrTested);
        }
    }

    // --- Phase 2: the source itself may belong to the cut (Lemma 4). ---
    let source_is_strong = strong.get(source as usize).copied().unwrap_or(false);
    if !source_is_strong {
        let neighbors = g.neighbors(source).to_vec();
        for (i, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[i + 1..] {
                if group_sweep {
                    let ga = group_of[a as usize];
                    if ga != NO_GROUP && ga == group_of[b as usize] {
                        // Group-sweep rule 3: members of the same side-group
                        // are k-local-connected by Theorem 10.
                        stats.phase2_pairs_skipped += 1;
                        continue;
                    }
                }
                budget.check()?;
                stats.phase2_pairs_tested += 1;
                if let Some(cut) = loc_cut(flow, g, a, b, k, probe_limit, stats, budget)? {
                    return Ok(GlobalCutOutcome {
                        cut: Some(cut),
                        scratch_memory_bytes,
                    });
                }
            }
        }
    }

    Ok(GlobalCutOutcome {
        cut: None,
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

/// `LOC-CUT(u, v)` (Algorithm 2, lines 12-17): answers trivially for adjacent
/// or identical vertices (Lemma 5), otherwise runs a max-flow on the arena's
/// substrate capped at `probe_limit` and converts the residual min-cut into a
/// vertex cut when it has fewer than `k` vertices.
///
/// `probe_limit` is `k` on the default k-bounded path (the flow stops at the
/// k-th augmenting path); the unbounded ablation passes `n`, in which case
/// the exact minimum cut comes back and is discarded when it is not smaller
/// than `k`.
///
/// The adjacency shortcut is evaluated on the current subgraph `g`; the flow
/// runs on the sparse certificate the arena was rebuilt with, a subgraph of
/// `g`. Non-adjacency in `g` implies non-adjacency in any subgraph, so the
/// unchecked flow entry point is safe.
#[allow(clippy::too_many_arguments)]
fn loc_cut<G: GraphView>(
    flow: &mut VertexFlowGraph,
    g: &G,
    u: VertexId,
    v: VertexId,
    k: u32,
    probe_limit: u32,
    stats: &mut EnumerationStats,
    budget: &Budget,
) -> Result<Option<Vec<VertexId>>, Interrupted> {
    if u == v || g.has_edge(u, v) {
        stats.loc_cut_trivial_calls += 1;
        return Ok(None);
    }
    stats.loc_cut_flow_calls += 1;
    Ok(
        match flow.local_connectivity_budgeted(u, v, probe_limit, budget)? {
            LocalConnectivity::AtLeast(_) => None,
            LocalConnectivity::Cut(cut) if (cut.len() as u32) < k => Some(cut),
            LocalConnectivity::Cut(_) => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::AlgorithmVariant;
    use kvcc_graph::traversal::connected_components_filtered;
    use kvcc_graph::{CsrGraph, UndirectedGraph};

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
        let g = two_blocks();
        let csr = CsrGraph::from_view(&g);
        for variant in AlgorithmVariant::all() {
            let mut s1 = EnumerationStats::default();
            let mut s2 = EnumerationStats::default();
            let a = global_cut(&g, 3, &options_for(variant), &mut s1);
            let b = global_cut(&csr, 3, &options_for(variant), &mut s2);
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
    fn ablation_options_still_produce_valid_results() {
        let g = two_blocks();
        // No strong side-vertex survives a degree cap of 0, so the source
        // falls back to a minimum-degree vertex and phase 2 runs.
        let opts = KvccOptions {
            max_degree_for_side_vertex_check: Some(0),
            k_bounded_flow: false,
            ..KvccOptions::default()
        };
        let mut stats = EnumerationStats::default();
        let out = global_cut(&g, 3, &opts, &mut stats);
        assert_valid_cut(&g, &out.cut.expect("cut must be found"), 3);
        let mut stats = EnumerationStats::default();
        assert!(global_cut(&complete(6), 3, &opts, &mut stats).cut.is_none());
    }

    #[test]
    fn unbounded_flow_ablation_matches_the_bounded_default() {
        let g = two_blocks();
        for k in 2..=4u32 {
            for variant in AlgorithmVariant::all() {
                let mut s1 = EnumerationStats::default();
                let mut s2 = EnumerationStats::default();
                let bounded = global_cut(&g, k, &options_for(variant), &mut s1);
                let unbounded_opts = options_for(variant).with_k_bounded_flow(false);
                let unbounded = global_cut(&g, k, &unbounded_opts, &mut s2);
                // A cut below k is found before either probe saturates, so
                // the exact-flow ablation must return the identical cut (and
                // do the identical amount of LOC-CUT work selecting it).
                assert_eq!(bounded.cut, unbounded.cut, "variant {variant:?}, k {k}");
                assert_eq!(s1.loc_cut_flow_calls, s2.loc_cut_flow_calls);
            }
        }
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
