//! k-edge connected components (k-ECC).
//!
//! A k-ECC is a maximal subgraph that stays connected after removal of any
//! `k − 1` edges. The paper uses k-ECCs (computed with the decomposition of
//! Chang et al., SIGMOD'13) as one of its two comparison models; because the
//! model is unique, any correct algorithm produces identical components, so
//! this crate uses the conceptually simpler recursive cut-based decomposition:
//!
//! 1. peel vertices of degree `< k` (edge connectivity ≤ minimum degree) and
//!    split the k-core into connected components, with the workspace's one
//!    k-core split ([`kvcc_graph::kcore::k_core_components`]); each
//!    component is copied once, straight out of the work item;
//! 2. in every component, look for an edge cut of size `< k` by
//!    running unit-capacity max-flow from a fixed source to every other
//!    vertex (for *edge* cuts no second phase is needed: any global cut
//!    separates the source from somebody);
//! 3. if a cut is found, delete its edges and recurse; otherwise the component
//!    is a k-ECC.

use kvcc_flow::dinic::{max_flow_with_scratch, DinicScratch};
use kvcc_flow::mincut::residual_reachable;
use kvcc_flow::network::FlowNetwork;
use kvcc_graph::kcore::k_core_components;
use kvcc_graph::{CsrGraph, GraphView, VertexId};

/// Computes all k-edge connected components of `g` (any [`GraphView`]), each
/// as a sorted vertex list (ids of `g`), ordered by smallest vertex.
///
/// Components must contain at least two vertices; `k = 0` is treated as
/// `k = 1` (plain connected components of size ≥ 2).
pub fn k_edge_connected_components<G: GraphView>(g: &G, k: usize) -> Vec<Vec<VertexId>> {
    let k = k.max(1);
    let identity: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    let mut results: Vec<Vec<VertexId>> = Vec::new();
    let mut work: Vec<(CsrGraph, Vec<VertexId>)> = vec![(CsrGraph::from_view(g), identity)];

    let mut map = Vec::new();
    while let Some((graph, to_original)) = work.pop() {
        // Degree peeling: edge connectivity is bounded by the minimum degree.
        // Each k-core component has more than k >= 1 vertices.
        for component in k_core_components(&graph, k) {
            let sub = CsrGraph::extract_induced(&graph, &component, &mut map);
            let comp_to_original: Vec<VertexId> =
                component.iter().map(|&v| to_original[v as usize]).collect();
            match find_edge_cut(&sub, k as u32) {
                None => {
                    let mut members = comp_to_original;
                    members.sort_unstable();
                    results.push(members);
                }
                Some(cut_edges) => {
                    let reduced = remove_edges(&sub, &cut_edges);
                    work.push((reduced, comp_to_original));
                }
            }
        }
    }
    results.sort();
    results
}

/// Exact edge connectivity between a fixed minimum-degree source and every
/// other vertex, early-terminated at `k`; returns the crossing edges of the
/// first cut with fewer than `k` edges, or `None` if the graph is k-edge
/// connected.
fn find_edge_cut(g: &CsrGraph, k: u32) -> Option<Vec<(VertexId, VertexId)>> {
    let n = g.num_vertices();
    debug_assert!(n >= 2);
    let source = g.min_degree_vertex().expect("non-empty graph");
    if (g.degree(source) as u32) < k {
        // The source's incident edges are already a small cut.
        return Some(g.neighbors(source).iter().map(|&v| (source, v)).collect());
    }

    // Build the directed flow network: each undirected edge becomes two
    // opposing unit-capacity arcs.
    let mut net = FlowNetwork::with_capacity(n, 2 * g.num_edges());
    for (u, v) in g.edges() {
        net.add_arc(u, v, 1);
        net.add_arc(v, u, 1);
    }
    let mut scratch = DinicScratch::new(n);

    for v in g.vertices() {
        if v == source {
            continue;
        }
        let flow = max_flow_with_scratch(&mut net, source, v, k, &mut scratch);
        if flow < k {
            let reachable = residual_reachable(&net, source);
            let mut cut = Vec::new();
            for (a, b) in g.edges() {
                if reachable.contains(a as usize) != reachable.contains(b as usize) {
                    cut.push((a, b));
                }
            }
            debug_assert!(!cut.is_empty());
            return Some(cut);
        }
        net.reset();
    }
    None
}

/// Returns a copy of `g` with the given undirected edges removed.
fn remove_edges(g: &CsrGraph, edges: &[(VertexId, VertexId)]) -> CsrGraph {
    use std::collections::HashSet;
    let removed: HashSet<(VertexId, VertexId)> = edges
        .iter()
        .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
        .collect();
    let kept: Vec<(VertexId, VertexId)> = g
        .edges()
        .filter(|&(u, v)| !removed.contains(&(u, v)))
        .collect();
    CsrGraph::from_edges(g.num_vertices(), kept)
        .expect("edges of an existing graph are always in range")
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn clique_is_a_single_kecc() {
        let g = complete(6);
        for k in 1..=5usize {
            let comps = k_edge_connected_components(&g, k);
            assert_eq!(comps, vec![vec![0, 1, 2, 3, 4, 5]], "k = {k}");
        }
        assert!(k_edge_connected_components(&g, 6).is_empty());
    }

    #[test]
    fn bridge_joined_blocks_split() {
        // Two K4 blocks joined by one bridge: 2-ECCs are the blocks.
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 4));
        let g = UndirectedGraph::from_edges(8, edges).unwrap();
        let comps = k_edge_connected_components(&g, 2);
        assert_eq!(comps, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        // For k = 1 the whole graph is one component.
        assert_eq!(
            k_edge_connected_components(&g, 1),
            vec![(0..8).collect::<Vec<_>>()]
        );
    }

    #[test]
    fn shared_vertex_does_not_split_keccs() {
        // Fig. 1 intuition: two 2-dense blocks sharing one vertex form a
        // single 2-ECC (vertex cuts do not matter for edge connectivity).
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                .unwrap();
        let comps = k_edge_connected_components(&g, 2);
        assert_eq!(comps, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn kecc_members_are_k_edge_connected() {
        // Verify the definition on a small mixed graph using Stoer-Wagner.
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3)];
        edges.extend([(3, 4), (4, 5), (3, 5), (4, 6), (5, 6), (3, 6)]);
        let g = UndirectedGraph::from_edges(7, edges).unwrap();
        for k in 1..=3usize {
            for comp in k_edge_connected_components(&g, k) {
                let sub = g.induced_subgraph(&comp);
                let lambda = crate::stoer_wagner::edge_connectivity(&sub.graph);
                assert!(
                    lambda >= k as u64,
                    "component {comp:?} has λ = {lambda} < {k}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_has_no_components() {
        assert!(k_edge_connected_components(&UndirectedGraph::new(0), 2).is_empty());
        assert!(k_edge_connected_components(&UndirectedGraph::new(5), 1).is_empty());
    }
}
