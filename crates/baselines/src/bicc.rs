//! Biconnected components, re-exported from [`kvcc_graph::traversal`].
//!
//! Biconnected components are exactly the 2-VCCs with at least three vertices
//! (plus bridges, which have only two vertices and therefore do not qualify as
//! 2-VCCs). The Hopcroft–Tarjan implementation lives in the graph crate, where
//! the k-VCC hierarchy takes its level 2 from it; here it serves as the
//! flow-free oracle for the `k = 2` case of the enumeration, used heavily by
//! the cross-check tests.

pub use kvcc_graph::traversal::{biconnected_components, two_vccs};

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::UndirectedGraph;

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                .unwrap();
        let comps = biconnected_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![2, 3, 4]]);
        assert_eq!(two_vccs(&g), comps);
    }

    #[test]
    fn bridges_are_two_vertex_components() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let comps = biconnected_components(&g);
        assert_eq!(comps, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        assert!(two_vccs(&g).is_empty());
    }

    #[test]
    fn cycle_is_one_component() {
        let g = UndirectedGraph::from_edges(5, (0..5u32).map(|i| (i, (i + 1) % 5))).unwrap();
        assert_eq!(biconnected_components(&g), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn disconnected_graphs_and_isolated_vertices() {
        let g = UndirectedGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap();
        let comps = biconnected_components(&g);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4]]);
        assert!(biconnected_components(&UndirectedGraph::new(3)).is_empty());
    }

    #[test]
    fn barbell_with_articulation_point() {
        // Two triangles joined by a path through vertex 6.
        let g = UndirectedGraph::from_edges(
            7,
            vec![
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 6),
                (6, 3),
                (3, 4),
                (4, 5),
                (3, 5),
            ],
        )
        .unwrap();
        let comps = biconnected_components(&g);
        assert_eq!(comps.len(), 4);
        assert!(comps.contains(&vec![0, 1, 2]));
        assert!(comps.contains(&vec![3, 4, 5]));
        assert!(comps.contains(&vec![2, 6]));
        assert!(comps.contains(&vec![3, 6]));
        assert_eq!(two_vccs(&g).len(), 2);
    }
}
