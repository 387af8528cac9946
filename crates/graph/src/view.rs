//! The [`GraphView`] abstraction over graph representations, and the
//! copy-free [`SubgraphView`] vertex mask.
//!
//! Every algorithm in this workspace (BFS, k-core peeling, scan-first
//! forests, flow-graph construction, the sweep rules, …) only ever needs a
//! *read* interface to a graph: the vertex count and, per vertex, a **sorted,
//! duplicate-free** neighbour slice. [`GraphView`] captures exactly that
//! contract, so the algorithms run unchanged on the owned
//! [`crate::CsrGraph`] (compressed sparse row), the zero-copy `KCSR` views
//! [`crate::CsrGraphRef`] and [`crate::MappedCsr`], and the
//! [`crate::DeltaGraph`] update overlay.
//!
//! # Contract
//!
//! Implementations must guarantee:
//!
//! * vertices are the consecutive ids `0..num_vertices()`;
//! * `neighbors(v)` is sorted ascending and contains no duplicates and no
//!   self-loops;
//! * the graph is undirected: `u ∈ neighbors(v)` ⇔ `v ∈ neighbors(u)`;
//! * `num_edges()` equals half the total neighbour-slice length.
//!
//! All provided methods are implemented purely in terms of this contract.

use crate::bitset::BitSet;
use crate::types::{Edge, VertexId};

/// Read-only view of an undirected graph with sorted adjacency slices.
///
/// See the [module docs](self) for the invariants implementations must
/// uphold.
pub trait GraphView {
    /// Number of vertices, `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges, `m`.
    fn num_edges(&self) -> usize;

    /// The sorted, duplicate-free neighbour slice of vertex `v`.
    fn neighbors(&self, v: VertexId) -> &[VertexId];

    /// Approximate number of heap bytes used by the representation (consumed
    /// by the Fig. 12 memory tracker).
    fn memory_bytes(&self) -> usize;

    /// Returns `true` when the graph has no vertices.
    #[inline]
    fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Degree of vertex `v`.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Tests whether the edge `(u, v)` exists (binary search on the smaller
    /// neighbour slice).
    #[inline]
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all edges, each reported once with `u < v`.
    fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Number of common neighbours of `u` and `v`, stopping early once
    /// `limit` is reached. A `limit` of `usize::MAX` counts exactly.
    fn common_neighbors_at_least(&self, u: VertexId, v: VertexId, limit: usize) -> usize {
        let a = self.neighbors(u);
        let b = self.neighbors(v);
        let mut i = 0;
        let mut j = 0;
        let mut count = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    if count >= limit {
                        return count;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Exact number of common neighbours of `u` and `v`.
    #[inline]
    fn common_neighbor_count(&self, u: VertexId, v: VertexId) -> usize {
        self.common_neighbors_at_least(u, v, usize::MAX)
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all vertices (0 for the empty graph).
    fn min_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// A vertex of minimum degree, if the graph is non-empty.
    fn min_degree_vertex(&self) -> Option<VertexId> {
        self.vertices().min_by_key(|&v| self.degree(v))
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            2.0 * self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Collects the degree of every vertex into a vector.
    fn degrees(&self) -> Vec<usize> {
        self.vertices().map(|v| self.degree(v)).collect()
    }
}

/// A vertex mask over a borrowed parent graph: the induced subgraph on the
/// "alive" vertices, **without copying or relabelling anything**.
///
/// `KVCC-ENUM` recursively peels k-cores and splits off connected components;
/// with the seed representation every one of those steps copied and
/// relabelled a fresh graph. A `SubgraphView` instead flips bits in a
/// reusable word-packed [`BitSet`] mask, and a compact [`crate::CsrGraph`] is
/// only materialised once per surviving component (see
/// [`crate::CsrGraph::extract_induced`]).
///
/// The view intentionally does **not** implement [`GraphView`]: it cannot
/// return filtered neighbour *slices* without allocating. What Algorithm 1's
/// lines 2–3 need on a mask is provided instead:
/// [`SubgraphView::k_core_reduce`] runs the workspace's one k-core peel loop
/// on the mask, [`SubgraphView::components`] the one labelling kernel of
/// [`crate::traversal`], and [`crate::kcore::split_k_core`] is the two in
/// turn.
#[derive(Clone, Debug)]
pub struct SubgraphView<'a, G: GraphView> {
    parent: &'a G,
    alive: BitSet,
    live: usize,
}

impl<'a, G: GraphView> SubgraphView<'a, G> {
    /// A view with every vertex of `parent` alive.
    pub fn new(parent: &'a G) -> Self {
        let n = parent.num_vertices();
        SubgraphView {
            parent,
            alive: BitSet::filled(n),
            live: n,
        }
    }

    /// A view with exactly the listed vertices alive (duplicates are
    /// harmless). The localized seed query restricts the mask to one
    /// connected component before any peeling happens, and the index
    /// repair's cut step splits each part of a partition without copying
    /// it.
    pub fn from_vertices(parent: &'a G, vertices: &[VertexId]) -> Self {
        let mut alive = BitSet::new(parent.num_vertices());
        let mut live = 0usize;
        for &v in vertices {
            if alive.insert(v as usize) {
                live += 1;
            }
        }
        SubgraphView {
            parent,
            alive,
            live,
        }
    }

    /// Number of alive vertices.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether vertex `v` is alive.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive.contains(v as usize)
    }

    /// Removes vertex `v` from the view (no-op if already removed).
    pub fn remove(&mut self, v: VertexId) {
        if self.alive.remove(v as usize) {
            self.live -= 1;
        }
    }

    /// Iteratively removes every alive vertex whose alive-degree is `< k`
    /// (k-core peeling, Algorithm 1 line 2), through the workspace's one
    /// peel loop ([`crate::kcore`]). Returns the number of vertices removed.
    /// Runs in `O(n + m)` over the parent; a full view, the one every work
    /// item peels, takes its degrees from the parent's rows.
    pub fn k_core_reduce(&mut self, k: usize) -> usize {
        let removed = crate::kcore::peel(self.parent, k, &mut self.alive);
        self.live -= removed;
        removed
    }

    /// Connected components of the alive subgraph, each a sorted vertex list
    /// in **parent** ids.
    pub fn components(&self) -> Vec<Vec<VertexId>> {
        crate::traversal::connected_components_filtered(self.parent, &self.alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UndirectedGraph;

    fn two_triangles() -> UndirectedGraph {
        UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .unwrap()
    }

    #[test]
    fn trait_methods_match_inherent_methods() {
        fn edge_count<G: GraphView>(view: &G) -> usize {
            view.num_edges()
        }
        let g = two_triangles();
        assert_eq!(edge_count(&g), 6);
        assert_eq!(GraphView::degree(&g, 2), 4);
        assert!(GraphView::has_edge(&g, 0, 1));
        assert!(!GraphView::has_edge(&g, 0, 4));
        assert_eq!(GraphView::edges(&g).count(), 6);
        assert_eq!(GraphView::min_degree_vertex(&g), Some(0));
        assert_eq!(GraphView::common_neighbor_count(&g, 0, 1), 1);
    }

    #[test]
    fn view_starts_fully_alive() {
        let g = two_triangles();
        let view = SubgraphView::new(&g);
        assert_eq!(view.live(), 5);
        assert!(view.is_alive(3));
        assert_eq!(view.components(), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn removing_the_cut_vertex_splits_the_view() {
        let g = two_triangles();
        let mut view = SubgraphView::new(&g);
        view.remove(2);
        view.remove(2); // idempotent
        assert_eq!(view.live(), 4);
        assert_eq!(view.components(), vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn k_core_reduce_matches_whole_graph_peeling() {
        // Clique of 4 with a pendant path.
        let g = UndirectedGraph::from_edges(
            6,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
        .unwrap();
        let mut view = SubgraphView::new(&g);
        let removed = view.k_core_reduce(3);
        assert_eq!(removed, 2);
        let alive: Vec<VertexId> = (0..6).filter(|&v| view.is_alive(v)).collect();
        assert_eq!(alive, crate::kcore::k_core_vertices(&g, 3));
        // Peeling an already-peeled view is a no-op.
        assert_eq!(view.k_core_reduce(3), 0);
        // Peeling harder empties the view.
        assert_eq!(view.k_core_reduce(4), 4);
        assert_eq!(view.live(), 0);
        assert!(view.components().is_empty());
    }

    #[test]
    fn k_core_reduce_respects_prior_removals() {
        let g = two_triangles();
        let mut view = SubgraphView::new(&g);
        view.remove(2);
        // Without vertex 2 nothing has degree >= 2 left.
        assert_eq!(view.k_core_reduce(2), 4);
        assert_eq!(view.live(), 0);
    }
}
