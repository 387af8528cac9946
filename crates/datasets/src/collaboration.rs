//! DBLP-style collaboration graphs for the case study of §6.4.
//!
//! The paper's case study builds a co-authorship graph (an edge between two
//! authors who share at least three publications), picks the ego network of a
//! prolific author ("Jiawei Han") and shows that the 4-VCCs separate his
//! research groups while the 4-ECC / 4-core merge them. This generator
//! reproduces that structure: a set of research groups (dense co-author
//! blocks), a small number of hub authors who belong to several groups, and a
//! long tail of occasional collaborators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvcc_graph::{CsrSubgraph, GraphBuilder, GraphView, UndirectedGraph, VertexId};

use crate::harary::harary;

/// Configuration of the collaboration-graph generator.
#[derive(Clone, Debug)]
pub struct CollaborationConfig {
    /// Number of research groups collaborating with the hub author.
    pub num_groups: usize,
    /// Members per group (excluding the hub).
    pub group_size: (usize, usize),
    /// Internal cohesion of each group: the group is at least this
    /// vertex-connected.
    pub group_connectivity: usize,
    /// Number of "core" authors (besides the hub) that belong to two adjacent
    /// groups, like the multi-group authors of Fig. 14.
    pub shared_authors: usize,
    /// Occasional collaborators attached to the hub by a single edge.
    pub pendant_collaborators: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CollaborationConfig {
    fn default() -> Self {
        CollaborationConfig {
            num_groups: 6,
            group_size: (6, 10),
            group_connectivity: 4,
            shared_authors: 3,
            pendant_collaborators: 12,
            seed: 2019,
        }
    }
}

/// A generated collaboration graph.
#[derive(Clone, Debug)]
pub struct CollaborationGraph {
    /// The co-authorship graph.
    pub graph: UndirectedGraph,
    /// The hub author every group collaborates with (vertex 0).
    pub hub: VertexId,
    /// The research groups; each list contains the member authors **and** the
    /// hub.
    pub groups: Vec<Vec<VertexId>>,
}

/// Generates a collaboration graph according to `config`.
pub fn collaboration_graph(config: &CollaborationConfig) -> CollaborationGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let hub: VertexId = 0;
    let mut builder = GraphBuilder::new().with_vertices(1);
    let mut next: VertexId = 1;
    let mut groups: Vec<Vec<VertexId>> = Vec::with_capacity(config.num_groups);
    let k = config.group_connectivity.max(1);

    let mut previous_tail: Vec<VertexId> = Vec::new();
    for gi in 0..config.num_groups {
        let size = rng
            .gen_range(config.group_size.0..=config.group_size.1)
            .max(k + 1);
        // A few authors are shared with the previous group (research moves
        // between groups); always fewer than k so the k-VCCs stay distinct.
        let shared: Vec<VertexId> = if gi == 0 {
            Vec::new()
        } else {
            previous_tail
                .iter()
                .copied()
                .take(config.shared_authors.min(k.saturating_sub(2)))
                .collect()
        };
        let fresh = size - shared.len();
        let mut members: Vec<VertexId> = shared;
        members.extend((0..fresh).map(|i| next + i as VertexId));
        next += fresh as VertexId;

        // The group plus the hub forms one densely collaborating block. Using
        // a Harary skeleton over (members + hub) guarantees the block is
        // k-vertex connected, so it is recovered as (part of) a k-VCC.
        let mut block: Vec<VertexId> = members.clone();
        block.push(hub);
        let skeleton = harary(k, block.len());
        for (a, b) in skeleton.edges() {
            builder.add_edge(block[a as usize], block[b as usize]);
        }
        // The hub co-authors with every member of every group (that is what
        // makes them *their* groups), so the whole group is inside the hub's
        // ego network — exactly the situation of the paper's case study.
        for &member in &members {
            builder.add_edge(hub, member);
        }
        // Extra co-authorships inside the group.
        for _ in 0..block.len() {
            let a = rng.gen_range(0..block.len());
            let b = rng.gen_range(0..block.len());
            if a != b {
                builder.add_edge(block[a], block[b]);
            }
        }

        previous_tail = members[members.len().saturating_sub(k)..].to_vec();
        let mut sorted = block;
        sorted.sort_unstable();
        sorted.dedup();
        groups.push(sorted);
    }

    // Occasional collaborators: single joint paper with the hub.
    for _ in 0..config.pendant_collaborators {
        builder.add_edge(hub, next);
        next += 1;
    }

    CollaborationGraph {
        graph: builder.build(),
        hub,
        groups,
    }
}

/// The ego network of `center`: the subgraph induced by the vertex and its
/// neighbours (the paper's case study operates on exactly this subgraph).
pub fn ego_subgraph(g: &UndirectedGraph, center: VertexId) -> CsrSubgraph {
    let mut members: Vec<VertexId> = vec![center];
    members.extend_from_slice(g.neighbors(center));
    g.induced_subgraph(&members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_flow::is_k_vertex_connected;

    #[test]
    fn groups_are_k_connected_blocks_containing_the_hub() {
        let config = CollaborationConfig::default();
        let collab = collaboration_graph(&config);
        assert_eq!(collab.groups.len(), config.num_groups);
        for group in &collab.groups {
            assert!(group.contains(&collab.hub));
            let sub = collab.graph.induced_subgraph(group);
            assert!(
                is_k_vertex_connected(&sub.graph, config.group_connectivity as u32),
                "group {group:?} must be {}-connected",
                config.group_connectivity
            );
        }
    }

    #[test]
    fn hub_has_the_largest_degree() {
        let collab = collaboration_graph(&CollaborationConfig::default());
        let hub_degree = collab.graph.degree(collab.hub);
        assert_eq!(
            hub_degree,
            collab.graph.max_degree(),
            "the hub must be the highest-degree author"
        );
        assert!(
            hub_degree >= 12,
            "hub collaborates with pendants and every group"
        );
    }

    #[test]
    fn ego_subgraph_contains_center_and_neighbors() {
        let collab = collaboration_graph(&CollaborationConfig::default());
        let ego = ego_subgraph(&collab.graph, collab.hub);
        assert_eq!(
            ego.graph.num_vertices(),
            collab.graph.degree(collab.hub) + 1
        );
        assert_eq!(ego.to_parent[0], collab.hub);
    }

    #[test]
    fn generator_is_deterministic() {
        let config = CollaborationConfig::default();
        let a = collaboration_graph(&config);
        let b = collaboration_graph(&config);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.groups, b.groups);
    }
}
