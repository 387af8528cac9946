//! Planted overlapping dense communities with ground truth.
//!
//! The generator embeds a configurable number of k-vertex-connected blocks
//! (Harary skeleton + random densification) into a sparse scale-free
//! background. Consecutive blocks in a "chain" share fewer than `k` vertices,
//! reproducing the overlapping-community structure the k-VCC model is designed
//! to recover (and forcing the enumerator to perform overlapped partitions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvcc_graph::{GraphBuilder, GraphView, UndirectedGraph, VertexId};

use crate::ba::barabasi_albert;
use crate::harary::harary;

/// Configuration of the planted-community generator.
#[derive(Clone, Debug)]
pub struct PlantedConfig {
    /// Connectivity level every planted block is guaranteed to reach.
    pub k: usize,
    /// Number of planted blocks.
    pub num_communities: usize,
    /// Inclusive range of block sizes (must be `> k`).
    pub community_size: (usize, usize),
    /// Number of vertices shared between consecutive blocks of a chain
    /// (must be `< k`; 0 disables overlaps).
    pub overlap: usize,
    /// Number of consecutive blocks forming one overlapping chain.
    pub chain_length: usize,
    /// Extra random intra-block edges per vertex, added on top of the Harary
    /// skeleton to make blocks look like real communities.
    pub extra_intra_edges_per_vertex: usize,
    /// Number of background (non-community) vertices.
    pub background_vertices: usize,
    /// Preferential-attachment edges per background vertex.
    pub background_edges_per_vertex: usize,
    /// Random edges attaching each block to the background.
    pub attachment_edges_per_community: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlantedConfig {
    fn default() -> Self {
        PlantedConfig {
            k: 4,
            num_communities: 4,
            community_size: (8, 12),
            overlap: 2,
            chain_length: 2,
            extra_intra_edges_per_vertex: 2,
            background_vertices: 200,
            background_edges_per_vertex: 2,
            attachment_edges_per_community: 3,
            seed: 1,
        }
    }
}

/// A generated planted-community graph together with its ground truth.
#[derive(Clone, Debug)]
pub struct PlantedGraph {
    /// The generated graph.
    pub graph: UndirectedGraph,
    /// The planted blocks (each is k-vertex connected by construction), as
    /// sorted vertex lists.
    pub communities: Vec<Vec<VertexId>>,
    /// The connectivity level guaranteed inside every block.
    pub k: usize,
}

/// Generates a planted-community graph according to `config`.
///
/// # Panics
///
/// Panics if the configuration is inconsistent (block size `<= k`, or
/// `overlap >= k`).
pub fn planted_communities(config: &PlantedConfig) -> PlantedGraph {
    let k = config.k;
    assert!(config.community_size.0 > k, "community size must exceed k");
    assert!(
        config.community_size.0 <= config.community_size.1,
        "invalid size range"
    );
    assert!(config.overlap < k.max(1), "overlap must be smaller than k");

    let mut rng = StdRng::seed_from_u64(config.seed);
    let background = barabasi_albert(
        config.background_vertices,
        config.background_edges_per_vertex,
        config.seed ^ 0x9E37_79B9,
    );

    let mut builder = GraphBuilder::new().with_vertices(config.background_vertices);
    for (u, v) in background.edges() {
        builder.add_edge(u, v);
    }

    let mut next_vertex = config.background_vertices as VertexId;
    let mut communities: Vec<Vec<VertexId>> = Vec::with_capacity(config.num_communities);
    let chain_length = config.chain_length.max(1);

    while communities.len() < config.num_communities {
        // Vertices shared with the previous block of the current chain.
        let mut previous_tail: Vec<VertexId> = Vec::new();
        for position in 0..chain_length {
            if communities.len() >= config.num_communities {
                break;
            }
            let size = rng.gen_range(config.community_size.0..=config.community_size.1);
            let shared: Vec<VertexId> = if position == 0 || config.overlap == 0 {
                Vec::new()
            } else {
                previous_tail.iter().copied().take(config.overlap).collect()
            };
            let fresh = size - shared.len();
            let mut members: Vec<VertexId> = shared.clone();
            members.extend((0..fresh).map(|i| next_vertex + i as VertexId));
            next_vertex += fresh as VertexId;

            add_block(
                &mut builder,
                &mut rng,
                &members,
                k,
                config.extra_intra_edges_per_vertex,
            );

            // Attach the block loosely to the background.
            if config.background_vertices > 0 {
                for _ in 0..config.attachment_edges_per_community {
                    let inside = members[rng.gen_range(0..members.len())];
                    let outside = rng.gen_range(0..config.background_vertices as VertexId);
                    builder.add_edge(inside, outside);
                }
            }

            // The tail of this block seeds the overlap of the next one.
            previous_tail = members[members.len().saturating_sub(k.max(1))..].to_vec();
            let mut sorted = members;
            sorted.sort_unstable();
            communities.push(sorted);
        }
    }

    PlantedGraph {
        graph: builder.build(),
        communities,
        k,
    }
}

/// Adds one k-connected block over the given member vertices: a Harary
/// skeleton (guaranteeing the connectivity) plus random extra edges.
fn add_block(
    builder: &mut GraphBuilder,
    rng: &mut StdRng,
    members: &[VertexId],
    k: usize,
    extra_per_vertex: usize,
) {
    let size = members.len();
    let skeleton = harary(k, size);
    for (a, b) in skeleton.edges() {
        builder.add_edge(members[a as usize], members[b as usize]);
    }
    let extra = size * extra_per_vertex;
    for _ in 0..extra {
        let a = rng.gen_range(0..size);
        let b = rng.gen_range(0..size);
        if a != b {
            builder.add_edge(members[a], members[b]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_flow::is_k_vertex_connected;

    #[test]
    fn planted_blocks_are_k_connected() {
        let config = PlantedConfig {
            k: 4,
            num_communities: 5,
            community_size: (8, 14),
            overlap: 2,
            chain_length: 2,
            background_vertices: 100,
            seed: 77,
            ..Default::default()
        };
        let planted = planted_communities(&config);
        assert_eq!(planted.communities.len(), 5);
        for block in &planted.communities {
            let sub = planted.graph.induced_subgraph(block);
            assert!(
                is_k_vertex_connected(&sub.graph, config.k as u32),
                "planted block {block:?} must be {}-connected",
                config.k
            );
        }
    }

    #[test]
    fn consecutive_blocks_overlap_by_the_requested_amount() {
        let config = PlantedConfig {
            k: 5,
            num_communities: 4,
            community_size: (9, 9),
            overlap: 3,
            chain_length: 4,
            background_vertices: 50,
            seed: 3,
            ..Default::default()
        };
        let planted = planted_communities(&config);
        for pair in planted.communities.windows(2) {
            let shared = pair[0].iter().filter(|v| pair[1].contains(v)).count();
            assert_eq!(shared, 3);
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let config = PlantedConfig::default();
        let a = planted_communities(&config);
        let b = planted_communities(&config);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
        assert_eq!(a.k, 4);
    }

    #[test]
    fn works_without_background_or_overlap() {
        let config = PlantedConfig {
            k: 3,
            num_communities: 2,
            community_size: (6, 6),
            overlap: 0,
            chain_length: 1,
            background_vertices: 0,
            attachment_edges_per_community: 0,
            seed: 9,
            ..Default::default()
        };
        let planted = planted_communities(&config);
        assert_eq!(planted.communities.len(), 2);
        assert_eq!(planted.graph.num_vertices(), 12);
    }

    #[test]
    #[should_panic(expected = "community size must exceed k")]
    fn rejects_blocks_smaller_than_k() {
        let config = PlantedConfig {
            k: 10,
            community_size: (5, 6),
            ..Default::default()
        };
        let _ = planted_communities(&config);
    }
}
