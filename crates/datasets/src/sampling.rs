//! Vertex and edge sampling for the scalability study (§6.3).
//!
//! The paper varies the graph size by sampling 20%–100% of the vertices
//! (taking the induced subgraph) and varies the density by sampling 20%–100%
//! of the edges (keeping the incident vertices).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use kvcc_graph::{GraphBuilder, GraphView, UndirectedGraph, VertexId};

/// Returns the subgraph induced by a uniformly random `fraction` of the
/// vertices. The result keeps the sampled vertices relabelled to `0..s`;
/// deterministic for a fixed seed. `fraction` is clamped to `[0, 1]`.
pub fn sample_vertices(g: &UndirectedGraph, fraction: f64, seed: u64) -> UndirectedGraph {
    let fraction = fraction.clamp(0.0, 1.0);
    let n = g.num_vertices();
    let target = ((n as f64) * fraction).round() as usize;
    if target >= n {
        return g.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vertices: Vec<VertexId> = (0..n as VertexId).collect();
    vertices.shuffle(&mut rng);
    vertices.truncate(target);
    vertices.sort_unstable();
    g.induced_subgraph(&vertices).graph
}

/// Returns a graph over the same vertex set containing a uniformly random
/// `fraction` of the edges. Vertices that lose all incident edges simply
/// become isolated (and are discarded by the k-core pruning of any consumer).
pub fn sample_edges(g: &UndirectedGraph, fraction: f64, seed: u64) -> UndirectedGraph {
    let fraction = fraction.clamp(0.0, 1.0);
    let m = g.num_edges();
    let target = ((m as f64) * fraction).round() as usize;
    if target >= m {
        return g.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    edges.shuffle(&mut rng);
    edges.truncate(target);
    let mut builder = GraphBuilder::new().with_vertices(g.num_vertices());
    builder.extend_edges(edges);
    builder.build()
}

/// The sampling fractions used by Fig. 13: 20%, 40%, 60%, 80%, 100%.
pub const SCALABILITY_FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er::gnm;

    #[test]
    fn vertex_sampling_reduces_size_proportionally() {
        let g = gnm(1000, 5000, 17);
        let half = sample_vertices(&g, 0.5, 1);
        assert_eq!(half.num_vertices(), 500);
        assert!(half.num_edges() < g.num_edges());
        let full = sample_vertices(&g, 1.0, 1);
        assert_eq!(full, g);
        let none = sample_vertices(&g, 0.0, 1);
        assert_eq!(none.num_vertices(), 0);
    }

    #[test]
    fn edge_sampling_keeps_vertex_set() {
        let g = gnm(500, 3000, 23);
        let s = sample_edges(&g, 0.4, 2);
        assert_eq!(s.num_vertices(), g.num_vertices());
        assert_eq!(s.num_edges(), 1200);
        // Every sampled edge exists in the original graph.
        for (u, v) in s.edges() {
            assert!(g.has_edge(u, v));
        }
        assert_eq!(sample_edges(&g, 1.0, 2), g);
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = gnm(300, 1500, 4);
        assert_eq!(sample_vertices(&g, 0.6, 9), sample_vertices(&g, 0.6, 9));
        assert_eq!(sample_edges(&g, 0.6, 9), sample_edges(&g, 0.6, 9));
        assert_ne!(sample_edges(&g, 0.6, 9), sample_edges(&g, 0.6, 10));
    }

    #[test]
    fn fractions_constant_matches_the_paper() {
        assert_eq!(SCALABILITY_FRACTIONS.len(), 5);
        assert_eq!(SCALABILITY_FRACTIONS[0], 0.2);
        assert_eq!(SCALABILITY_FRACTIONS[4], 1.0);
    }
}
