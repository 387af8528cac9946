//! Whole-graph vertex-connectivity queries built on top of the flow substrate.
//!
//! These helpers implement the classical two-phase scheme of Even /
//! Esfahanian–Hakimi that `GLOBAL-CUT` (Algorithm 2) is based on, *without*
//! the sparse certificate or the sweep optimisations. They serve two roles:
//!
//! 1. test oracles for the optimised enumerator in the `kvcc` crate, and
//! 2. verification utilities (`is_k_vertex_connected`) used to check that
//!    every reported k-VCC really is k-vertex connected.

use kvcc_graph::{GraphView, VertexId};

use crate::vertex_flow::{LocalConnectivity, VertexFlowGraph};

/// Local vertex connectivity `κ(u, v)` capped at `limit`.
///
/// For adjacent vertices the value `limit` is returned (Lemma 5: adjacent
/// vertices can never be separated by removing other vertices).
pub fn local_vertex_connectivity<G: GraphView>(g: &G, u: VertexId, v: VertexId, limit: u32) -> u32 {
    VertexFlowGraph::build(g).max_flow_value(u, v, limit)
}

/// Finds a vertex cut of size `< k`, or `None` when the graph is k-vertex
/// connected (assuming the graph is connected and has more than `k` vertices —
/// the full definition is checked by [`is_k_vertex_connected`]).
///
/// This is the *basic, uncertified* version of `GLOBAL-CUT`: pick a source `u`
/// of minimum degree, test `u` against every other vertex, then test every
/// pair of neighbours of `u` (covering the case `u ∈ S`, Lemma 4).
pub fn find_vertex_cut<G: GraphView>(g: &G, k: u32) -> Option<Vec<VertexId>> {
    let n = g.num_vertices();
    if n == 0 {
        return None;
    }
    let source = g
        .min_degree_vertex()
        .expect("non-empty graph has a min-degree vertex");
    // A vertex of degree < k is itself separated from the rest by its
    // neighbourhood (when anything else exists).
    if (g.degree(source) as u32) < k && n as u32 > g.degree(source) as u32 + 1 {
        return Some(g.neighbors(source).to_vec());
    }
    let mut flow = VertexFlowGraph::build(g);

    // Phase 1: u against every other vertex.
    for v in g.vertices() {
        if v == source {
            continue;
        }
        if let LocalConnectivity::Cut(cut) = flow.local_connectivity_nonadjacent(source, v, k) {
            return Some(cut);
        }
    }
    // Phase 2: every pair of neighbours of u (u may belong to the cut).
    let neighbors = g.neighbors(source).to_vec();
    for (i, &a) in neighbors.iter().enumerate() {
        for &b in &neighbors[i + 1..] {
            if let LocalConnectivity::Cut(cut) = flow.local_connectivity_nonadjacent(a, b, k) {
                return Some(cut);
            }
        }
    }
    None
}

/// Whether `g` is k-vertex connected per Definition 2: more than `k` vertices
/// and no vertex cut of size `< k`.
///
/// Runs the two-phase scheme through the **k-bounded boolean probe**
/// ([`VertexFlowGraph::has_connectivity_at_least`]) rather than
/// [`find_vertex_cut`]: verification only needs existence, so no residual
/// min-cut is ever extracted and every probe stops at the k-th augmenting
/// path.
pub fn is_k_vertex_connected<G: GraphView>(g: &G, k: u32) -> bool {
    let n = g.num_vertices();
    if n as u64 <= k as u64 {
        return false;
    }
    if k == 0 {
        return true;
    }
    if k == 1 {
        return kvcc_graph::traversal::is_connected(g) && n >= 2;
    }
    if (g.min_degree() as u32) < k {
        return false;
    }
    if !kvcc_graph::traversal::is_connected(g) {
        return false;
    }
    let source = g
        .min_degree_vertex()
        .expect("non-empty graph has a min-degree vertex");
    let mut flow = VertexFlowGraph::build(g);
    // Phase 1: the source against every other vertex (the probe answers
    // identical and adjacent pairs by Lemma 5, without a flow).
    for v in g.vertices() {
        if !flow.has_connectivity_at_least(source, v, k) {
            return false;
        }
    }
    // Phase 2: every pair of neighbours of the source (Lemma 4).
    let neighbors = g.neighbors(source);
    for (i, &a) in neighbors.iter().enumerate() {
        for &b in &neighbors[i + 1..] {
            if !flow.has_connectivity_at_least(a, b, k) {
                return false;
            }
        }
    }
    true
}

/// Exact global vertex connectivity `κ(G)`.
///
/// Defined as 0 for disconnected or trivial graphs and `n − 1` for complete
/// graphs. Runs the two-phase scheme with an uncapped flow limit, so it is
/// intended for the moderately sized graphs used in tests and verification.
pub fn global_vertex_connectivity<G: GraphView>(g: &G) -> u32 {
    let n = g.num_vertices();
    if n <= 1 {
        return 0;
    }
    if !kvcc_graph::traversal::is_connected(g) {
        return 0;
    }
    let source = g.min_degree_vertex().expect("non-empty graph");
    let limit = n as u32; // larger than any possible connectivity
    let mut best = u32::MAX;
    let mut flow = VertexFlowGraph::build(g);

    for v in g.vertices() {
        if v == source || g.has_edge(source, v) {
            continue;
        }
        best = best.min(flow.max_flow_value(source, v, limit));
        if best == 0 {
            return 0;
        }
    }
    let neighbors = g.neighbors(source).to_vec();
    for (i, &a) in neighbors.iter().enumerate() {
        for &b in &neighbors[i + 1..] {
            if g.has_edge(a, b) {
                continue;
            }
            best = best.min(flow.max_flow_value(a, b, limit));
        }
    }
    if best == u32::MAX {
        // Every tested pair was adjacent: the graph is complete.
        (n - 1) as u32
    } else {
        best
    }
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

    fn cycle(n: usize) -> UndirectedGraph {
        UndirectedGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32))).unwrap()
    }

    #[test]
    fn connectivity_of_classic_graphs() {
        assert_eq!(global_vertex_connectivity(&complete(5)), 4);
        assert_eq!(global_vertex_connectivity(&cycle(7)), 2);
        let path = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(global_vertex_connectivity(&path), 1);
        let disconnected = UndirectedGraph::from_edges(4, vec![(0, 1), (2, 3)]).unwrap();
        assert_eq!(global_vertex_connectivity(&disconnected), 0);
        assert_eq!(global_vertex_connectivity(&UndirectedGraph::new(1)), 0);
    }

    #[test]
    fn petersen_graph_is_three_connected() {
        // The Petersen graph: outer 5-cycle, inner 5-star, spokes.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push((i, (i + 1) % 5)); // outer cycle
            edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
            edges.push((i, 5 + i)); // spokes
        }
        let g = UndirectedGraph::from_edges(10, edges).unwrap();
        assert_eq!(global_vertex_connectivity(&g), 3);
        assert!(is_k_vertex_connected(&g, 3));
        assert!(!is_k_vertex_connected(&g, 4));
    }

    #[test]
    fn k_vertex_connected_checks_size_requirement() {
        // K4 is 3-connected but has only 4 vertices, so it is not 4-connected.
        let g = complete(4);
        assert!(is_k_vertex_connected(&g, 3));
        assert!(!is_k_vertex_connected(&g, 4));
        assert!(is_k_vertex_connected(&g, 1));
        assert!(is_k_vertex_connected(&g, 0));
    }

    #[test]
    fn find_cut_returns_an_actual_separator() {
        // Two triangles sharing the single vertex 2.
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                .unwrap();
        let cut = find_vertex_cut(&g, 2).expect("graph is only 1-connected");
        assert_eq!(cut, vec![2]);
        // Removing the cut must disconnect the graph.
        let mut alive = kvcc_graph::bitset::BitSet::filled(g.num_vertices());
        for &v in &cut {
            alive.remove(v as usize);
        }
        let comps = kvcc_graph::traversal::connected_components_filtered(&g, &alive);
        assert!(comps.len() >= 2);
        assert!(find_vertex_cut(&g, 1).is_none());
    }

    #[test]
    fn local_connectivity_matches_structure() {
        let g = cycle(8);
        assert_eq!(local_vertex_connectivity(&g, 0, 4, 10), 2);
        assert_eq!(local_vertex_connectivity(&g, 0, 1, 10), 10); // adjacent
        assert_eq!(local_vertex_connectivity(&g, 3, 3, 10), 10); // same vertex
    }

    #[test]
    fn low_degree_source_shortcut() {
        // Star graph: centre 0, leaves 1..=4. Minimum degree vertex is a leaf.
        let g = UndirectedGraph::from_edges(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let cut = find_vertex_cut(&g, 2).expect("star is 1-connected");
        assert_eq!(cut, vec![0]);
    }
}
