//! Sparse certificates for k-vertex connectivity and side-groups.
//!
//! Following §4.2 (Theorem 5, after Cheriyan–Kao–Thurimella), the union of `k`
//! successive scan-first-search forests — each computed on the graph minus the
//! edges already taken by earlier forests — is a *sparse certificate*: a
//! subgraph with at most `k·(n − 1)` edges that preserves every vertex cut of
//! size `< k`. Running the flow computations of `LOC-CUT` on the certificate
//! instead of the full graph is the first optimisation of `GLOBAL-CUT`.
//!
//! The k-th forest additionally yields the **side-groups** of §5.2
//! (Theorem 10): every connected component of `F_k` is a set of vertices that
//! are pairwise k-local-connected, which powers the group-sweep rules.
//!
//! # Residual rows
//!
//! The forests come from [`scan_first_forests`]. Round 1 reads the input's
//! rows, and each round compacts a vertex's residual row in place while it
//! scans it: the scan drops the arcs to the vertices it marks and the arc to
//! the vertex's own parent, and writes every other arc back in order. So
//! round `r + 1` scans exactly `G` minus forests `1..=r`, with no edge ids
//! and no used-edge bitmap. This is exact: a vertex's tree edges in a forest
//! are all fixed by the end of its own scan, and compaction keeps row order,
//! so every forest, `forest_sizes` and the k-th forest's trees (hence the
//! side-groups) are those of the definition. The dropped arcs collect at each
//! row's end, and the certificate's rows are their transpose, a counting sort.
//!
//! # Two consumers of one transpose
//!
//! [`sparse_certificate`] transposes the union into a [`CsrGraph`] at exact
//! capacity. `GLOBAL-CUT*` does not build that graph: it reads the
//! certificate's edge count from the forest sizes and its side-groups from
//! the k-th forest's trees, and transposes the union straight into its flow
//! arena's row buffers just before its first flow probe, if it runs one.
//! Both write the same sorted rows through
//! [`ScanFirstForests::write_union`], so the arena holds exactly what
//! rebuilding it from [`SparseCertificate::graph`] would copy.

use kvcc_graph::scan_first::{scan_first_forests, ScanFirstForests};
use kvcc_graph::{CsrGraph, GraphView, VertexId};

/// Sentinel meaning "this vertex belongs to no (retained) side-group".
pub const NO_GROUP: u32 = u32::MAX;

/// The sparse certificate of a graph together with the side-groups derived
/// from its last scan-first forest.
#[derive(Clone, Debug)]
pub struct SparseCertificate {
    /// The certificate subgraph `SC` (same vertex ids as the input graph,
    /// subset of its edges), stored in CSR form because it is the substrate
    /// of all flow computations.
    pub graph: CsrGraph,
    /// Number of edges contributed by each of the `k` forests, in order.
    /// Forests that would be empty are omitted, so the vector may be shorter
    /// than `k`.
    pub forest_sizes: Vec<usize>,
    /// Side-groups: connected components of the k-th forest with more than
    /// `k` vertices, each sorted ascending (Theorem 10 + the size filter of
    /// Algorithm 3, line 1).
    pub side_groups: Vec<Vec<VertexId>>,
    /// `group_of[v]` is the index into [`side_groups`](Self::side_groups) of
    /// the group containing `v`, or [`NO_GROUP`].
    pub group_of: Vec<u32>,
}

impl SparseCertificate {
    /// Total number of edges of the certificate.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Approximate heap bytes used by the certificate (graph + group index).
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes() + side_group_bytes(&self.side_groups, &self.group_of)
    }
}

/// Heap bytes of side-groups and their index, as [`side_groups`] builds
/// them: every buffer at exact capacity.
pub(crate) fn side_group_bytes(side_groups: &[Vec<VertexId>], group_of: &[u32]) -> usize {
    std::mem::size_of_val(group_of)
        + side_groups
            .iter()
            .map(|g| g.capacity() * std::mem::size_of::<VertexId>())
            .sum::<usize>()
}

/// Builds the sparse certificate of `g` for parameter `k` (Theorem 5) and the
/// side-groups of its k-th scan-first forest (Theorem 10).
///
/// `k = 0` is accepted and yields an edgeless certificate.
pub fn sparse_certificate<G: GraphView>(g: &G, k: u32) -> SparseCertificate {
    let forests = scan_first_forests(g, k);
    let (side_groups, group_of) = side_groups(&forests, g.num_vertices(), k);
    SparseCertificate {
        graph: forests.union(),
        forest_sizes: forests.forest_sizes,
        side_groups,
        group_of,
    }
}

/// The side-groups of the k-th of `forests`, the forests of an `n`-vertex
/// graph: its trees with more than `k` vertices, and the reverse index.
///
/// Each forest grows its trees from the smallest unvisited vertex up, so tree
/// ids ascend with their smallest member: taking the kept trees in id order,
/// and their members in vertex order, gives the groups sorted by smallest
/// member, each sorted ascending.
pub(crate) fn side_groups(
    forests: &ScanFirstForests,
    n: usize,
    k: u32,
) -> (Vec<Vec<VertexId>>, Vec<u32>) {
    let tree = &forests.kth_trees;
    if tree.is_empty() {
        return (Vec::new(), vec![NO_GROUP; n]);
    }
    // A forest with `e` edges over `n` vertices has `n - e` trees.
    let trees = n - forests.forest_sizes[k as usize - 1];
    let mut size = vec![0usize; trees];
    for &t in tree {
        size[t as usize] += 1;
    }
    let mut group_of_tree = vec![NO_GROUP; trees];
    let mut side_groups: Vec<Vec<VertexId>> = Vec::new();
    for (t, &members) in size.iter().enumerate() {
        if members > k as usize {
            group_of_tree[t] = side_groups.len() as u32;
            side_groups.push(Vec::with_capacity(members));
        }
    }
    let group_of: Vec<u32> = tree.iter().map(|&t| group_of_tree[t as usize]).collect();
    for (v, &group) in group_of.iter().enumerate() {
        if group != NO_GROUP {
            side_groups[group as usize].push(v as VertexId);
        }
    }
    (side_groups, group_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_flow::global_vertex_connectivity;
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
    fn certificate_has_bounded_size() {
        let g = complete(12);
        for k in 1..=5u32 {
            let cert = sparse_certificate(&g, k);
            assert!(
                cert.num_edges() <= k as usize * (g.num_vertices() - 1),
                "certificate must have at most k(n-1) edges"
            );
            assert!(cert.forest_sizes.len() <= k as usize);
            assert!(cert.memory_bytes() > 0);
        }
    }

    #[test]
    fn certificate_preserves_k_connectivity() {
        // K8 is 7-connected; its k-certificate must be at least k-connected
        // for every k <= 7 and the full graph must match the definition.
        let g = complete(8);
        for k in 1..=7u32 {
            let cert = sparse_certificate(&g, k);
            let conn = global_vertex_connectivity(&cert.graph);
            assert!(
                conn >= k,
                "certificate for k={k} has connectivity {conn}, expected >= {k}"
            );
        }
    }

    #[test]
    fn certificate_of_sparse_graph_is_the_graph_itself() {
        // A tree has n-1 edges; every forest after the first is empty.
        let g = UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (1, 3), (3, 4)]).unwrap();
        let cert = sparse_certificate(&g, 3);
        assert_eq!(cert.num_edges(), g.num_edges());
        assert_eq!(cert.forest_sizes, vec![4]);
        assert!(cert.side_groups.is_empty());
    }

    #[test]
    fn side_groups_are_pairwise_k_connected() {
        // Two K6 blocks joined by a single edge; with k = 3 the third forest
        // still has non-trivial components inside each block.
        let mut edges = Vec::new();
        for base in [0u32, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((0, 6));
        let g = UndirectedGraph::from_edges(12, edges).unwrap();
        let k = 3u32;
        let cert = sparse_certificate(&g, k);
        for group in &cert.side_groups {
            assert!(group.len() > k as usize);
            for (i, &a) in group.iter().enumerate() {
                for &b in &group[i + 1..] {
                    let conn = kvcc_flow::local_vertex_connectivity(&g, a, b, k);
                    assert!(
                        conn >= k,
                        "side-group members {a},{b} must be {k}-connected"
                    );
                }
            }
        }
        // The group index is consistent with the group lists.
        for (idx, group) in cert.side_groups.iter().enumerate() {
            for &v in group {
                assert_eq!(cert.group_of[v as usize], idx as u32);
            }
        }
    }

    #[test]
    fn k_zero_gives_edgeless_certificate() {
        let g = complete(4);
        let cert = sparse_certificate(&g, 0);
        assert_eq!(cert.num_edges(), 0);
        assert!(cert.side_groups.is_empty());
        assert_eq!(cert.group_of, vec![NO_GROUP; 4]);
    }

    #[test]
    fn certificate_edges_are_a_subset_of_the_graph() {
        let g = complete(7);
        let cert = sparse_certificate(&g, 3);
        for (u, v) in cert.graph.edges() {
            assert!(g.has_edge(u, v));
        }
    }
}
