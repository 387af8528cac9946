//! [`UndirectedGraph`], the name the workspace uses for an owned graph.
//!
//! It is [`CsrGraph`]: every owned graph is held in compressed sparse row
//! form (see [`crate::csr`]), and the statistics that do not depend on the
//! storage (edge iteration, degree statistics, common-neighbour counts) are
//! [`crate::GraphView`] defaults. The tests below pin what callers of the name
//! rely on: edge-list normalisation, those defaults and induced-subgraph
//! relabelling.

use crate::csr::CsrGraph;

/// A simple, undirected, unweighted graph on the vertices `0..n`, with
/// sorted, duplicate-free neighbour lists: an alias of [`CsrGraph`].
pub type UndirectedGraph = CsrGraph;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GraphError;
    use crate::types::VertexId;
    use crate::GraphView;

    fn path_graph(n: usize) -> UndirectedGraph {
        UndirectedGraph::from_edges(n, (0..n as VertexId - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn from_edges_dedups_and_drops_self_loops() {
        let g =
            UndirectedGraph::from_edges(4, vec![(0, 1), (1, 0), (1, 1), (2, 3), (2, 3)]).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(1, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = UndirectedGraph::from_edges(2, vec![(0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 2
            }
        ));
        // The bad endpoint is detected even when it comes after valid edges
        // (validation happens before any adjacency is built).
        let err = UndirectedGraph::from_edges(2, vec![(0, 1), (0, 1), (1, 9)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 2
            }
        ));
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_statistics() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.degree(0), 3);
        assert!((g.average_degree() - 1.5).abs() < 1e-12);
        assert_eq!(g.min_degree_vertex(), Some(1));
        assert_eq!(g.degrees(), vec![3, 1, 1, 1]);
    }

    #[test]
    fn common_neighbors() {
        // 0 and 1 share neighbours {2, 3, 4}.
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
                .unwrap();
        assert_eq!(g.common_neighbor_count(0, 1), 3);
        assert_eq!(g.common_neighbors_at_least(0, 1, 2), 2);
        assert_eq!(g.common_neighbor_count(2, 4), 2);
        assert_eq!(g.common_neighbor_count(0, 4), 0);
    }

    #[test]
    fn induced_subgraph_relabels_and_maps_back() {
        let g =
            UndirectedGraph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .unwrap();
        let sub = g.induced_subgraph(&[1, 2, 3, 1]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 2);
        assert_eq!(sub.to_parent, vec![1, 2, 3]);
        assert!(sub.graph.has_edge(0, 1)); // (1,2) in parent ids
        assert!(sub.graph.has_edge(1, 2)); // (2,3) in parent ids
        assert!(!sub.graph.has_edge(0, 2));
    }

    #[test]
    fn memory_bytes_is_monotone_in_size() {
        let small = path_graph(10);
        let big = path_graph(1000);
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = UndirectedGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree_vertex(), None);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }
}
