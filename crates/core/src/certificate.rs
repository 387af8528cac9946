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
//! # Edge ids
//!
//! The forests mark the edges they take in one flat bitmap, so each edge
//! needs an id that both of its arcs know. The ids are numbered in
//! [`GraphView::edges`] order (`u < v`, by `u` then `v`) and stored in one
//! array aligned with the input's sorted neighbour slices, row after row:
//! the arc at position `i` of `N(u)` carries the id of edge `{u, N(u)[i]}`.
//! One pass over the rows fills it. Vertex `u` numbers its arcs towards
//! larger neighbours, and hands each reverse arc the same id through a
//! per-vertex cursor; a row's arcs towards smaller neighbours lead it and
//! arrive in ascending order, so each cursor only moves forward. The
//! forests scan every row in neighbour order, so their edges and
//! components do not depend on how the ids are stored.

use kvcc_graph::{BitSet, CsrGraph, GraphView, VertexId};

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
        self.graph.memory_bytes()
            + self.group_of.capacity() * std::mem::size_of::<u32>()
            + self
                .side_groups
                .iter()
                .map(|g| g.capacity() * std::mem::size_of::<VertexId>())
                .sum::<usize>()
    }
}

/// Builds the sparse certificate of `g` for parameter `k` (Theorem 5) and the
/// side-groups of its k-th scan-first forest (Theorem 10).
///
/// `k = 0` is accepted and yields an edgeless certificate.
pub fn sparse_certificate<G: GraphView>(g: &G, k: u32) -> SparseCertificate {
    let n = g.num_vertices();
    let (row_start, edge_of_arc) = arc_edge_ids(g);

    let mut edge_used = BitSet::new(g.num_edges());
    let mut certificate_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut forest_sizes = Vec::new();

    // Each round's forest component of every vertex, in one buffer; only the
    // k-th forest's components become side-groups, and only when that forest
    // has an edge.
    let mut component: Vec<u32> = vec![NO_GROUP; n];
    let mut component_count = 0u32;
    let mut kth_forest_has_edges = false;

    let mut queue: Vec<VertexId> = Vec::with_capacity(n);
    let mut visited = BitSet::new(n);
    for round in 0..k {
        visited.clear_all();
        let mut forest_edges = 0usize;
        component_count = 0;

        for start in 0..n as VertexId {
            if visited.contains(start as usize) {
                continue;
            }
            let comp_id = component_count;
            component_count += 1;
            visited.insert(start as usize);
            component[start as usize] = comp_id;
            queue.clear();
            queue.push(start);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let arcs = row_start[u as usize]..row_start[u as usize + 1];
                for (&v, &edge_id) in g.neighbors(u).iter().zip(&edge_of_arc[arcs]) {
                    if edge_used.contains(edge_id as usize) || visited.contains(v as usize) {
                        continue;
                    }
                    visited.insert(v as usize);
                    component[v as usize] = comp_id;
                    edge_used.insert(edge_id as usize);
                    certificate_edges.push((u, v));
                    forest_edges += 1;
                    queue.push(v);
                }
            }
        }

        if forest_edges == 0 {
            // The remaining graph has no edges: later forests are all empty,
            // and the k-th forest (if not yet reached) has only singleton
            // components, i.e. no side-groups.
            break;
        }
        forest_sizes.push(forest_edges);
        kth_forest_has_edges = round + 1 == k;
    }

    let graph = CsrGraph::from_edges(n, certificate_edges)
        .expect("certificate edges come from the input graph and are always in range");

    // Side-groups: components of the k-th forest with more than k vertices.
    let (side_groups, group_of) = if kth_forest_has_edges {
        collect_side_groups(&component, component_count as usize, k as usize)
    } else {
        (Vec::new(), vec![NO_GROUP; n])
    };

    SparseCertificate {
        graph,
        forest_sizes,
        side_groups,
        group_of,
    }
}

/// Numbers the edges of `g` in [`GraphView::edges`] order and returns the
/// arc-aligned id array with its row starts: the arcs of `u` are
/// `row_start[u]..row_start[u + 1]`, in `N(u)`'s order (see the
/// [module docs](self)).
fn arc_edge_ids<G: GraphView>(g: &G) -> (Vec<usize>, Vec<u32>) {
    let n = g.num_vertices();
    let mut row_start = Vec::with_capacity(n + 1);
    row_start.push(0usize);
    for v in g.vertices() {
        row_start.push(row_start[v as usize] + g.degree(v));
    }
    // `cursor[v]`: the first arc of `v` towards a smaller neighbour that has
    // no id yet. When `u` is reached, every smaller neighbour has numbered
    // its arc, so `cursor[u]` is the first arc towards a larger one.
    let mut cursor = row_start[..n].to_vec();
    let mut edge_of_arc = vec![0u32; row_start[n]];
    let mut next_id = 0u32;
    for u in g.vertices() {
        let first_up = cursor[u as usize];
        let up = &g.neighbors(u)[first_up - row_start[u as usize]..];
        for (arc, &v) in (first_up..).zip(up) {
            edge_of_arc[arc] = next_id;
            edge_of_arc[cursor[v as usize]] = next_id;
            cursor[v as usize] += 1;
            next_id += 1;
        }
    }
    (row_start, edge_of_arc)
}

/// Collects the components of the last forest with more than `k` vertices as
/// side-groups, and builds the reverse index.
///
/// Each forest grows its components from the smallest unvisited vertex up,
/// so component ids ascend with their smallest member: taking the kept
/// components in id order, and their members in vertex order, gives the
/// groups sorted by smallest member, each sorted ascending.
fn collect_side_groups(
    component: &[u32],
    component_count: usize,
    k: usize,
) -> (Vec<Vec<VertexId>>, Vec<u32>) {
    let mut size = vec![0usize; component_count];
    for &c in component {
        size[c as usize] += 1;
    }
    let mut group_of_component = vec![NO_GROUP; component_count];
    let mut side_groups: Vec<Vec<VertexId>> = Vec::new();
    for (c, &members) in size.iter().enumerate() {
        if members > k {
            group_of_component[c] = side_groups.len() as u32;
            side_groups.push(Vec::with_capacity(members));
        }
    }
    let group_of: Vec<u32> = component
        .iter()
        .map(|&c| group_of_component[c as usize])
        .collect();
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
