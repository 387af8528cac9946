//! Overlapped graph partition (`OVERLAP-PARTITION`, Algorithm 1 lines 13–18).
//!
//! Given a vertex cut `S` of the current subgraph, the graph is split into one
//! piece per connected component of `G − S`, and the cut vertices (plus their
//! induced edges) are **duplicated into every piece**. Duplication is what
//! allows k-VCCs to overlap in up to `k − 1` vertices (Property 1) while the
//! recursion still terminates (Lemmas 8–10).

use kvcc_graph::traversal::connected_components_filtered;
use kvcc_graph::{GraphView, VertexId};

/// Splits `g` along the vertex cut `cut`.
///
/// Returns one vertex set per connected component of `g − cut`, each extended
/// with the cut vertices, sorted and de-duplicated. The caller builds the
/// induced subgraphs (the ids refer to `g`).
///
/// If `cut` is *not* actually a cut of `g` the function returns a single set
/// containing every vertex — callers treat that as the degenerate case and
/// fall back to a recomputed cut (the recut fallback in `enumerate.rs`,
/// counted by [`crate::stats::EnumerationStats::fallback_recuts`]).
pub fn overlap_partition<G: GraphView>(g: &G, cut: &[VertexId]) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut alive = kvcc_graph::bitset::BitSet::filled(n);
    for &v in cut {
        alive.remove(v as usize);
    }
    let components = connected_components_filtered(g, &alive);
    components
        .into_iter()
        .map(|mut part| {
            part.extend_from_slice(cut);
            part.sort_unstable();
            part.dedup();
            part
        })
        .collect()
}

/// Number of vertices duplicated by a partition along `cut` producing
/// `num_parts` pieces: `(num_parts − 1) · |cut|` (Lemma 8 bounds the growth of
/// the total vertex count).
pub fn duplicated_vertices(cut_size: usize, num_parts: usize) -> usize {
    cut_size * num_parts.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::UndirectedGraph;

    /// Two triangles {0,1,2} and {2,3,4} sharing the cut vertex 2.
    fn two_triangles() -> UndirectedGraph {
        UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .unwrap()
    }

    #[test]
    fn partition_duplicates_the_cut() {
        let g = two_triangles();
        let parts = overlap_partition(&g, &[2]);
        assert_eq!(parts.len(), 2);
        assert!(parts.contains(&vec![0, 1, 2]));
        assert!(parts.contains(&vec![2, 3, 4]));
        assert_eq!(duplicated_vertices(1, 2), 1);
    }

    #[test]
    fn partition_with_two_cut_vertices() {
        // Figure 2 style: two 4-cliques sharing the edge (3,4).
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 3], [4u32, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((block[i], block[j]));
                }
            }
        }
        edges.push((3, 4));
        // The cut {3, 4} separates {0,1,2} from {5,6,7}.
        let g = UndirectedGraph::from_edges(8, edges).unwrap();
        let parts = overlap_partition(&g, &[3, 4]);
        assert_eq!(parts.len(), 2);
        for part in &parts {
            assert!(part.contains(&3));
            assert!(part.contains(&4));
            assert_eq!(part.len(), 5);
        }
        assert_eq!(duplicated_vertices(2, 2), 2);
    }

    #[test]
    fn non_cut_yields_single_part() {
        let g = two_triangles();
        // Vertex 0 is not a cut vertex.
        let parts = overlap_partition(&g, &[0]);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_cut_returns_components() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (2, 3)]).unwrap();
        let parts = overlap_partition(&g, &[]);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], vec![0, 1]);
        assert_eq!(parts[1], vec![2, 3]);
        assert_eq!(duplicated_vertices(0, 2), 0);
    }

    #[test]
    fn cut_containing_every_vertex_yields_no_parts() {
        let g = two_triangles();
        let parts = overlap_partition(&g, &[0, 1, 2, 3, 4]);
        assert!(parts.is_empty());
    }
}
