//! The vertex-splitting transformation and local vertex-connectivity queries.
//!
//! Following §4.1 (Fig. 3), every vertex `v` of the undirected graph becomes
//! two flow nodes `v_in` and `v_out` joined by a unit-capacity *vertex arc*
//! `v_in → v_out`; every undirected edge `(u, v)` becomes two *adjacency arcs*
//! `u_out → v_in` and `v_out → u_in`.
//!
//! Unlike the paper's description (which gives every arc capacity 1) the
//! adjacency arcs here get an effectively infinite capacity. This changes
//! nothing about the max-flow value — each unit of flow must still traverse
//! one vertex arc per internal vertex — but it guarantees that every minimum
//! edge cut consists of vertex arcs only, so the cut maps directly to a vertex
//! cut of the original graph without the "locate the corresponding vertex"
//! step being ambiguous.

use kvcc_graph::{GraphView, VertexId};

use crate::budget::{Budget, Interrupted};
use crate::dinic::{max_flow_budgeted, max_flow_with_scratch, DinicScratch};
use crate::mincut::residual_reachable;
use crate::network::{ArcId, FlowNetwork, NodeId, INFINITE_CAPACITY};

/// Outcome of a local-connectivity test between two vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalConnectivity {
    /// The local connectivity is at least the requested threshold `k`
    /// (`u ≡ₖ v` in the paper's notation). The payload is the threshold that
    /// was certified, not the exact connectivity.
    AtLeast(u32),
    /// The local connectivity is below the threshold; the payload is a
    /// minimum `u`-`v` vertex cut (vertices of the *original* graph, excluding
    /// `u` and `v` themselves).
    Cut(Vec<VertexId>),
}

impl LocalConnectivity {
    /// Convenience: `true` when the result certifies `u ≡ₖ v`.
    pub fn is_at_least_k(&self) -> bool {
        matches!(self, LocalConnectivity::AtLeast(_))
    }
}

/// The directed flow graph of an undirected graph, reusable across many
/// source/sink pairs **and** — through [`VertexFlowGraph::rebuild`] — across
/// many graphs.
///
/// # Scratch-arena contract
///
/// All buffers (the arc arrays, the per-node adjacency lists and the Dinic
/// level/iterator/queue scratch) survive a [`rebuild`](Self::rebuild): the
/// structure is emptied and refilled for the new graph without freeing. A
/// `GLOBAL-CUT` caller that keeps one `VertexFlowGraph` per worker thread
/// therefore performs no per-probe allocation once the buffers have grown to
/// the size of the largest subgraph seen, which removes the dominant
/// allocation cost of the seed implementation (a fresh network per probe).
#[derive(Clone, Debug, Default)]
pub struct VertexFlowGraph {
    net: FlowNetwork,
    /// `vertex_arc[v]` is the arc id of `v_in → v_out`.
    vertex_arc: Vec<ArcId>,
    scratch: DinicScratch,
    num_vertices: usize,
}

impl VertexFlowGraph {
    /// An empty arena with no graph loaded; call
    /// [`rebuild`](Self::rebuild) before issuing queries.
    pub fn empty() -> Self {
        VertexFlowGraph {
            net: FlowNetwork::new(0),
            vertex_arc: Vec::new(),
            scratch: DinicScratch::default(),
            num_vertices: 0,
        }
    }

    /// Builds the flow graph of `g` (2n nodes, n vertex arcs + 2m adjacency
    /// arcs).
    pub fn build<G: GraphView>(g: &G) -> Self {
        let mut this = Self::empty();
        this.rebuild(g);
        this
    }

    /// Re-targets the arena at a new graph, reusing every buffer (see the
    /// scratch-arena contract in the type docs).
    pub fn rebuild<G: GraphView>(&mut self, g: &G) {
        let n = g.num_vertices();
        self.net.clear(2 * n);
        self.net.reserve_arcs(n + 2 * g.num_edges());
        self.vertex_arc.clear();
        self.vertex_arc.reserve(n);
        for v in 0..n as NodeId {
            let arc = self.net.add_arc(Self::node_in(v), Self::node_out(v), 1);
            self.vertex_arc.push(arc);
        }
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                // Each undirected edge is visited twice (once per direction),
                // creating exactly the two adjacency arcs of Fig. 3.
                self.net
                    .add_arc(Self::node_out(u), Self::node_in(v), INFINITE_CAPACITY);
            }
        }
        // Pre-size the Dinic scratch from the node bound once, so the probes
        // that follow never grow a buffer mid-flow.
        self.scratch.ensure(2 * n);
        self.num_vertices = n;
    }

    /// k-bounded boolean connectivity probe: `true` iff `κ(u, v) >= k`
    /// (`u ≡ₖ v`), for any `u != v` — adjacent pairs route through their
    /// infinite-capacity adjacency arc and therefore always certify (Lemma
    /// 5), so no separate adjacency test is needed.
    ///
    /// This is the cheapest probe the arena offers: Dinic stops at the k-th
    /// augmenting path, the level BFS is never rebuilt once the bound is met,
    /// and — unlike [`VertexFlowGraph::local_connectivity`] — no residual
    /// reachability pass or cut vector is ever materialised on the negative
    /// side. Verification workloads (`is_k_vertex_connected` over every
    /// reported component) only need the boolean, which is why they run here.
    pub fn has_connectivity_at_least(&mut self, u: VertexId, v: VertexId, k: u32) -> bool {
        if u == v {
            return true;
        }
        let flow = max_flow_with_scratch(
            &mut self.net,
            Self::node_out(u),
            Self::node_in(v),
            k,
            &mut self.scratch,
        );
        self.net.reset();
        flow >= k
    }

    /// Flow node representing the "entry" side of vertex `v`.
    #[inline]
    pub fn node_in(v: VertexId) -> NodeId {
        2 * v
    }

    /// Flow node representing the "exit" side of vertex `v`.
    #[inline]
    pub fn node_out(v: VertexId) -> NodeId {
        2 * v + 1
    }

    /// Number of vertices of the underlying undirected graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Approximate heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.net.memory_bytes() + self.vertex_arc.capacity() * std::mem::size_of::<ArcId>()
    }

    /// Raw max-flow value from `u` to `v`, early-terminated at `limit`.
    ///
    /// This is the value `λ = κ(u, v)` capped at `limit`, valid only for
    /// non-adjacent `u != v` (for adjacent vertices the vertex connectivity is
    /// defined via Lemma 5 instead). The network is reset afterwards.
    pub fn max_flow_value(&mut self, u: VertexId, v: VertexId, limit: u32) -> u32 {
        let flow = max_flow_with_scratch(
            &mut self.net,
            Self::node_out(u),
            Self::node_in(v),
            limit,
            &mut self.scratch,
        );
        self.net.reset();
        flow
    }

    /// `LOC-CUT(u, v)` from Algorithm 2: tests whether `κ(u, v) >= k`.
    ///
    /// * Returns [`LocalConnectivity::AtLeast`]`(k)` when `u == v`, when the
    ///   two vertices are adjacent in `g` (Lemma 5), or when `k` units of
    ///   flow can be routed.
    /// * Otherwise returns the minimum `u`-`v` vertex cut (size `< k`).
    pub fn local_connectivity<G: GraphView>(
        &mut self,
        g: &G,
        u: VertexId,
        v: VertexId,
        k: u32,
    ) -> LocalConnectivity {
        if u == v || g.has_edge(u, v) {
            return LocalConnectivity::AtLeast(k);
        }
        self.local_connectivity_nonadjacent(u, v, k)
    }

    /// [`local_connectivity`](Self::local_connectivity) for callers that have
    /// already ruled out `u == v` and adjacency (e.g. `GLOBAL-CUT`, which
    /// checks adjacency on the *current subgraph* while the flow arena holds
    /// the sparse certificate — a subgraph of it).
    pub fn local_connectivity_nonadjacent(
        &mut self,
        u: VertexId,
        v: VertexId,
        k: u32,
    ) -> LocalConnectivity {
        self.local_connectivity_budgeted(u, v, k, &Budget::unlimited())
            .expect("an unlimited budget never interrupts")
    }

    /// [`local_connectivity_nonadjacent`](Self::local_connectivity_nonadjacent)
    /// under a cooperative [`Budget`], polled once per Dinic BFS phase.
    ///
    /// On [`Interrupted`] the arena is reset before returning, so the very
    /// next probe on this `VertexFlowGraph` — budgeted or not — starts from
    /// a clean residual state; cancellation can never poison the scratch.
    pub fn local_connectivity_budgeted(
        &mut self,
        u: VertexId,
        v: VertexId,
        k: u32,
        budget: &Budget,
    ) -> Result<LocalConnectivity, Interrupted> {
        let source = Self::node_out(u);
        let sink = Self::node_in(v);
        let flow =
            match max_flow_budgeted(&mut self.net, source, sink, k, &mut self.scratch, budget) {
                Ok(flow) => flow,
                Err(interrupted) => {
                    // Clear the partial flow: the arena must stay reusable.
                    self.net.reset();
                    return Err(interrupted);
                }
            };
        if flow >= k {
            self.net.reset();
            return Ok(LocalConnectivity::AtLeast(k));
        }
        // No augmenting path remains: extract the vertex cut from the
        // saturated vertex arcs crossing the residual reachability frontier.
        let reachable = residual_reachable(&self.net, source);
        let mut cut = Vec::with_capacity(flow as usize);
        for (vertex, &arc) in self.vertex_arc.iter().enumerate() {
            let tail_in = Self::node_in(vertex as VertexId);
            let head_out = Self::node_out(vertex as VertexId);
            if reachable.contains(tail_in as usize) && !reachable.contains(head_out as usize) {
                debug_assert_eq!(
                    self.net.residual(arc),
                    0,
                    "cut vertex arc must be saturated"
                );
                cut.push(vertex as VertexId);
            }
        }
        self.net.reset();
        debug_assert_eq!(
            cut.len() as u32,
            flow,
            "cut size must equal the max-flow value"
        );
        Ok(LocalConnectivity::Cut(cut))
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

    /// Two 4-cliques {0..3} and {4..7} sharing the two "portal" vertices 8, 9.
    fn two_cliques_with_two_cut_vertices() -> UndirectedGraph {
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 3], [4u32, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((block[i], block[j]));
                }
                edges.push((block[i], 8));
                edges.push((block[i], 9));
            }
        }
        edges.push((8, 9));
        UndirectedGraph::from_edges(10, edges).unwrap()
    }

    #[test]
    fn path_graph_has_unit_connectivity() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut flow = VertexFlowGraph::build(&g);
        assert_eq!(flow.max_flow_value(0, 3, 10), 1);
        match flow.local_connectivity(&g, 0, 3, 2) {
            LocalConnectivity::Cut(cut) => {
                assert_eq!(cut.len(), 1);
                assert!(cut[0] == 1 || cut[0] == 2);
            }
            other => panic!("expected a cut, got {other:?}"),
        }
    }

    #[test]
    fn clique_pairs_are_highly_connected() {
        let g = complete(6);
        let mut flow = VertexFlowGraph::build(&g);
        // All pairs are adjacent, so Lemma 5 applies.
        assert!(flow.local_connectivity(&g, 0, 5, 5).is_at_least_k());
        // Raw flow between adjacent vertices counts disjoint paths; in K6 the
        // flow between two vertices is 1 (direct adjacency arc is not counted
        // here because max_flow_value assumes non-adjacent queries), so only
        // test the adjacency fast path above.
    }

    #[test]
    fn cycle_has_connectivity_two() {
        let g = UndirectedGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap();
        let mut flow = VertexFlowGraph::build(&g);
        assert_eq!(flow.max_flow_value(0, 3, 10), 2);
        assert!(flow.local_connectivity(&g, 0, 3, 2).is_at_least_k());
        match flow.local_connectivity(&g, 0, 3, 3) {
            LocalConnectivity::Cut(cut) => assert_eq!(cut.len(), 2),
            other => panic!("expected a 2-cut, got {other:?}"),
        }
    }

    #[test]
    fn portal_vertices_form_the_cut() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        match flow.local_connectivity(&g, 0, 4, 3) {
            LocalConnectivity::Cut(mut cut) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![8, 9]);
            }
            other => panic!("expected the portal cut, got {other:?}"),
        }
        // With k = 2 the pair is 2-local-connected (through the two portals).
        assert!(flow.local_connectivity(&g, 0, 4, 2).is_at_least_k());
    }

    #[test]
    fn rebuild_reuses_the_arena_across_graphs() {
        let path = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let cycle = UndirectedGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap();
        let mut flow = VertexFlowGraph::empty();
        for _ in 0..3 {
            flow.rebuild(&path);
            assert_eq!(flow.num_vertices(), 4);
            assert_eq!(flow.max_flow_value(0, 3, 10), 1);
            flow.rebuild(&cycle);
            assert_eq!(flow.num_vertices(), 6);
            assert_eq!(flow.max_flow_value(0, 3, 10), 2);
        }
        // A CSR graph works through the same generic interface.
        let csr = kvcc_graph::CsrGraph::from_view(&cycle);
        flow.rebuild(&csr);
        assert_eq!(flow.max_flow_value(0, 3, 10), 2);
        match flow.local_connectivity_nonadjacent(0, 3, 3) {
            LocalConnectivity::Cut(cut) => assert_eq!(cut.len(), 2),
            other => panic!("expected a 2-cut, got {other:?}"),
        }
    }

    #[test]
    fn oversized_arena_routes_like_a_fresh_build() {
        // An arena grown past the graph it now holds routes every probe like
        // a freshly built one: two K6 blocks sharing three vertices plus a
        // pendant tail, every ordered pair, limits below, at and above the
        // block connectivity.
        let mut edges = Vec::new();
        for base in [0u32, 3] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.extend([(8, 9), (9, 10)]);
        let blocks = UndirectedGraph::from_edges(11, edges).unwrap();
        let mut flow = VertexFlowGraph::empty();
        flow.rebuild(&complete(44));
        flow.rebuild(&blocks);
        for s in blocks.vertices() {
            for t in blocks.vertices().filter(|&t| t != s) {
                for limit in [1u32, 3, 16] {
                    assert_eq!(
                        flow.max_flow_value(s, t, limit),
                        VertexFlowGraph::build(&blocks).max_flow_value(s, t, limit),
                        "probe {s}->{t} limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_probe_matches_the_cut_probe() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        // Across the portals: connectivity is exactly 2.
        assert!(flow.has_connectivity_at_least(0, 4, 2));
        assert!(!flow.has_connectivity_at_least(0, 4, 3));
        // Adjacent vertices certify any k through the infinite adjacency arc.
        assert!(flow.has_connectivity_at_least(0, 1, 100));
        // Same vertex is trivially connected.
        assert!(flow.has_connectivity_at_least(5, 5, 7));
        // The arena stays reusable after boolean probes.
        assert_eq!(flow.max_flow_value(0, 4, 100), 2);
        match flow.local_connectivity(&g, 0, 4, 3) {
            LocalConnectivity::Cut(mut cut) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![8, 9]);
            }
            other => panic!("expected the portal cut, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_probe_leaves_the_arena_reusable() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            flow.local_connectivity_budgeted(0, 4, 3, &expired),
            Err(Interrupted)
        );
        // The interrupted probe reset the residual state: the same arena
        // answers the identical query correctly right after.
        match flow.local_connectivity_budgeted(0, 4, 3, &Budget::unlimited()) {
            Ok(LocalConnectivity::Cut(mut cut)) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![8, 9]);
            }
            other => panic!("expected the portal cut, got {other:?}"),
        }
        assert!(flow
            .local_connectivity_budgeted(0, 4, 2, &Budget::unlimited())
            .unwrap()
            .is_at_least_k());
    }

    #[test]
    fn repeated_queries_are_consistent() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        for _ in 0..5 {
            assert_eq!(flow.max_flow_value(0, 4, 100), 2);
        }
        assert!(flow.memory_bytes() > 0);
        assert_eq!(flow.num_vertices(), 10);
    }
}
