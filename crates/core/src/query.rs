//! Localized queries: the k-VCCs containing a given seed vertex.
//!
//! The case study of §6.4 asks for "all 4-VCCs containing author *Jiawei
//! Han*". Answering such a query does not require enumerating the whole
//! graph: every k-VCC containing the seed lies inside the seed's connected
//! component, and inside the k-core of that component. The query therefore
//!
//! 1. collects the seed's connected component with a single BFS (cost
//!    proportional to the component, not the graph);
//! 2. peels the k-core *inside that component only* on a [`SubgraphView`]
//!    vertex mask;
//! 3. extracts the seed's surviving component once into CSR form and runs the
//!    full enumeration on just that work item.
//!
//! On large graphs with many unrelated dense regions this is dramatically
//! cheaper than a full enumeration — and for repeated queries the
//! [`crate::index::ConnectivityIndex`] answers from a precomputed hierarchy
//! without touching flow code at all.

use kvcc_graph::traversal::component_of;
use kvcc_graph::{CsrGraph, GraphView, SubgraphView, VertexId};

use crate::enumerate::enumerate_kvccs;
use crate::error::KvccError;
use crate::options::KvccOptions;
use crate::result::KVertexConnectedComponent;

/// Enumerates the k-VCCs of `graph` that contain the vertex `seed`.
///
/// Returns an empty vector when the seed is pruned by the k-core (its degree
/// in every dense region is below `k`) or when no k-VCC covers it. Errors for
/// `k == 0` or a seed outside the graph.
pub fn kvccs_containing<G: GraphView>(
    graph: &G,
    seed: VertexId,
    k: u32,
    options: &KvccOptions,
) -> Result<Vec<KVertexConnectedComponent>, KvccError> {
    if k == 0 {
        return Err(KvccError::InvalidK);
    }
    if seed as usize >= graph.num_vertices() {
        return Err(KvccError::SeedOutOfRange { seed });
    }

    // Restrict to the seed's connected component *before* any peeling: the
    // k-core reduction then never touches unrelated regions of the graph,
    // which matters when the seed sits in a tiny component of a huge graph.
    let component = component_of(graph, seed);
    if component.len() <= k as usize {
        return Ok(Vec::new());
    }

    // Peel the k-core inside the component on a vertex mask; if the seed does
    // not survive it cannot be in any k-VCC (Theorem 3).
    let mut view = SubgraphView::from_vertices(graph, &component);
    view.k_core_reduce(k as usize);
    if !view.is_alive(seed) {
        return Ok(Vec::new());
    }

    // The peel may have split the component; keep only the piece that still
    // contains the seed and materialise it once as a CSR work item.
    let seed_component = view
        .components()
        .into_iter()
        .find(|comp| comp.binary_search(&seed).is_ok())
        .expect("the seed is alive, so it belongs to a component");
    if seed_component.len() <= k as usize {
        return Ok(Vec::new());
    }
    let mut map = Vec::new();
    let local = CsrGraph::extract_induced(graph, &seed_component, &mut map);
    let seed_local = seed_component
        .binary_search(&seed)
        .expect("seed is in its own component") as VertexId;

    // Full enumeration of just that work item, then filter and map back.
    let result = enumerate_kvccs(&local, k, options)?;
    let mut hits: Vec<KVertexConnectedComponent> = result
        .iter()
        .filter(|c| c.contains(seed_local))
        .map(|c| {
            let original: Vec<VertexId> = c
                .vertices()
                .iter()
                .map(|&v| seed_component[v as usize])
                .collect();
            KVertexConnectedComponent::new(original)
        })
        .collect();
    hits.sort();
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_kvccs;
    use kvcc_graph::UndirectedGraph;

    /// Two triangles sharing vertex 2 plus an unrelated K4 on {5,6,7,8}.
    fn mixed_graph() -> UndirectedGraph {
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
        for i in 5..9u32 {
            for j in (i + 1)..9 {
                edges.push((i, j));
            }
        }
        UndirectedGraph::from_edges(9, edges).unwrap()
    }

    #[test]
    fn query_matches_filtering_the_full_enumeration() {
        let g = mixed_graph();
        for k in 1..=3u32 {
            for seed in 0..g.num_vertices() as VertexId {
                let full = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
                let expected: Vec<_> = full.iter().filter(|c| c.contains(seed)).cloned().collect();
                let got = kvccs_containing(&g, seed, k, &KvccOptions::default()).unwrap();
                assert_eq!(got, expected, "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn csr_input_matches_vec_input() {
        // The same edge set as a CSR graph and as a delta over another base.
        let g = mixed_graph();
        let delta = crate::testing::rebased(&g);
        for seed in [0u32, 2, 6] {
            let a = kvccs_containing(&g, seed, 2, &KvccOptions::default()).unwrap();
            let b = kvccs_containing(&delta, seed, 2, &KvccOptions::default()).unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn shared_vertex_belongs_to_both_triangles() {
        let g = mixed_graph();
        let hits = kvccs_containing(&g, 2, 2, &KvccOptions::default()).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|c| c.contains(2)));
    }

    #[test]
    fn pruned_seed_returns_nothing() {
        let g = mixed_graph();
        // Vertex 0 has degree 2, so it cannot be in any 3-VCC.
        assert!(kvccs_containing(&g, 0, 3, &KvccOptions::default())
            .unwrap()
            .is_empty());
        // The K4 vertices are in a 3-VCC though.
        let hits = kvccs_containing(&g, 6, 3, &KvccOptions::default()).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].vertices(), &[5, 6, 7, 8]);
    }

    #[test]
    fn seed_in_a_tiny_component_never_peels_the_rest() {
        // An isolated edge next to a K5: the query for the edge endpoints
        // must answer from the 2-vertex component alone.
        let mut edges = vec![(0, 1)];
        for i in 2..7u32 {
            for j in (i + 1)..7 {
                edges.push((i, j));
            }
        }
        let g = UndirectedGraph::from_edges(7, edges).unwrap();
        assert!(kvccs_containing(&g, 0, 2, &KvccOptions::default())
            .unwrap()
            .is_empty());
        let hits = kvccs_containing(&g, 0, 1, &KvccOptions::default()).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].vertices(), &[0, 1]);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = mixed_graph();
        assert!(matches!(
            kvccs_containing(&g, 0, 0, &KvccOptions::default()),
            Err(KvccError::InvalidK)
        ));
        assert!(matches!(
            kvccs_containing(&g, 99, 2, &KvccOptions::default()),
            Err(KvccError::SeedOutOfRange { seed: 99 })
        ));
    }
}
