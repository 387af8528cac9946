//! Connected components of the k-core ("k-CC" in the paper's figures).
//!
//! The k-core model only constrains vertex degrees, so loosely joined dense
//! regions collapse into a single component — the free-rider effect the k-VCC
//! model is designed to eliminate (Fig. 1). These components are the weakest
//! baseline in the effectiveness study.
//!
//! The baseline is exactly the first step of every `KVCC-ENUM` work item
//! (Algorithm 1, lines 2–3), so its entry point is the workspace's one
//! k-core split, [`kvcc_graph::kcore::k_core_components`]: the components of
//! the k-core, each a sorted vertex list (ids of `g`), ordered by smallest
//! vertex.

pub use kvcc_graph::kcore::k_core_components;

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::UndirectedGraph;

    #[test]
    fn two_triangles_sharing_a_vertex_form_one_2cc() {
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                .unwrap();
        let comps = k_core_components(&g, 2);
        // Unlike the 2-VCCs, the 2-core is a single connected component: the
        // free-rider effect in action.
        assert_eq!(comps, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn pendant_vertices_are_removed() {
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(k_core_components(&g, 2), vec![vec![0, 1, 2]]);
        assert!(k_core_components(&g, 3).is_empty());
    }

    #[test]
    fn disconnected_cores_stay_separate() {
        let mut edges = vec![(0, 1), (1, 2), (0, 2)];
        edges.extend([(3, 4), (4, 5), (3, 5)]);
        let g = UndirectedGraph::from_edges(6, edges).unwrap();
        let comps = k_core_components(&g, 2);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }
}
