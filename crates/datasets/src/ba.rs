//! Barabási–Albert preferential attachment graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvcc_graph::{GraphBuilder, UndirectedGraph, VertexId};

/// Generates a Barabási–Albert graph: starting from a small clique, every new
/// vertex attaches to `edges_per_vertex` existing vertices chosen with
/// probability proportional to their degree, yielding the heavy-tailed degree
/// distribution typical of web and citation graphs.
pub fn barabasi_albert(n: usize, edges_per_vertex: usize, seed: u64) -> UndirectedGraph {
    let m = edges_per_vertex.max(1);
    let mut builder = GraphBuilder::new().with_vertices(n);
    if n == 0 {
        return builder.build();
    }
    let seed_size = (m + 1).min(n);
    // Repeated-endpoint list: picking a uniform element is equivalent to
    // degree-proportional sampling.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    for u in 0..seed_size as VertexId {
        for v in (u + 1)..seed_size as VertexId {
            builder.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for v in seed_size..n {
        let v = v as VertexId;
        // A Vec with a linear containment check keeps the target order (and
        // therefore the whole generation) deterministic; m is tiny.
        let mut targets: Vec<VertexId> = Vec::with_capacity(m);
        let mut guard = 0;
        while targets.len() < m && guard < 50 * m {
            guard += 1;
            let t = if endpoints.is_empty() {
                rng.gen_range(0..v)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            builder.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::GraphView;

    #[test]
    fn produces_expected_edge_count() {
        let n = 500;
        let m = 4;
        let g = barabasi_albert(n, m, 11);
        assert_eq!(g.num_vertices(), n);
        // Seed clique of 5 vertices (10 edges) + ~4 edges per remaining vertex.
        let expected = 10 + (n - 5) * m;
        assert!(g.num_edges() <= expected);
        assert!(g.num_edges() >= expected - n / 10, "got {}", g.num_edges());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = barabasi_albert(2000, 3, 5);
        let max = g.max_degree();
        let avg = g.average_degree();
        assert!(
            max as f64 > 5.0 * avg,
            "max {max} should dwarf average {avg}"
        );
    }

    #[test]
    fn deterministic_and_handles_tiny_inputs() {
        assert_eq!(barabasi_albert(100, 3, 9), barabasi_albert(100, 3, 9));
        assert_eq!(barabasi_albert(0, 3, 9).num_vertices(), 0);
        let g = barabasi_albert(3, 5, 9);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3); // seed clique truncated to n
    }
}
