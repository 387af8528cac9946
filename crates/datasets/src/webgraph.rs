//! Web-crawl-like graphs via the copying model.
//!
//! The copying model (Kleinberg et al.) grows a graph by letting every new
//! page either copy the out-links of an existing "prototype" page or link to
//! random pages. It produces heavy-tailed degrees **and** many dense bipartite
//! cores — the structural fingerprint of the web graphs (Stanford, Cnr, ND,
//! Google) evaluated in the paper, and the reason those graphs contain large
//! k-VCCs for large k.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvcc_graph::{GraphBuilder, UndirectedGraph, VertexId};

/// Parameters of the copying model.
#[derive(Clone, Copy, Debug)]
pub struct CopyingModelConfig {
    /// Number of vertices to generate.
    pub num_vertices: usize,
    /// Out-links created by each new vertex.
    pub links_per_vertex: usize,
    /// Probability of copying each link from the prototype instead of linking
    /// uniformly at random.
    pub copy_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CopyingModelConfig {
    fn default() -> Self {
        CopyingModelConfig {
            num_vertices: 10_000,
            links_per_vertex: 6,
            copy_probability: 0.6,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates a copying-model graph (treated as undirected).
pub fn copying_model(config: &CopyingModelConfig) -> UndirectedGraph {
    let n = config.num_vertices;
    let d = config.links_per_vertex.max(1);
    let mut builder = GraphBuilder::new().with_vertices(n);
    if n == 0 {
        return builder.build();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let seed_size = (d + 1).min(n);
    let mut out_links: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            builder.add_edge(u as VertexId, v as VertexId);
            out_links[u].push(v as VertexId);
            out_links[v].push(u as VertexId);
        }
    }
    for v in seed_size..n {
        let prototype = rng.gen_range(0..v);
        let mut targets: Vec<VertexId> = Vec::with_capacity(d);
        for slot in 0..d {
            let copy = rng.gen_bool(config.copy_probability.clamp(0.0, 1.0));
            let target = if copy && slot < out_links[prototype].len() {
                out_links[prototype][slot]
            } else {
                rng.gen_range(0..v) as VertexId
            };
            if target as usize != v && !targets.contains(&target) {
                targets.push(target);
            }
        }
        for &t in &targets {
            builder.add_edge(v as VertexId, t);
        }
        out_links[v] = targets;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::GraphView;

    #[test]
    fn copying_model_is_deterministic() {
        let cfg = CopyingModelConfig {
            num_vertices: 500,
            ..Default::default()
        };
        assert_eq!(copying_model(&cfg), copying_model(&cfg));
    }

    #[test]
    fn produces_heavy_tail_and_triangles() {
        let cfg = CopyingModelConfig {
            num_vertices: 3000,
            links_per_vertex: 5,
            copy_probability: 0.7,
            seed: 99,
        };
        let g = copying_model(&cfg);
        assert_eq!(g.num_vertices(), 3000);
        assert!(g.max_degree() as f64 > 4.0 * g.average_degree());
        // Copying creates shared neighbourhoods, hence triangles.
        assert!(kvcc_graph::metrics::triangle_count(&g) > 100);
    }

    #[test]
    fn tiny_inputs() {
        let cfg = CopyingModelConfig {
            num_vertices: 0,
            ..Default::default()
        };
        assert_eq!(copying_model(&cfg).num_vertices(), 0);
        let cfg = CopyingModelConfig {
            num_vertices: 3,
            links_per_vertex: 2,
            ..Default::default()
        };
        let g = copying_model(&cfg);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }
}
