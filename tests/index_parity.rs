//! Hierarchy nesting invariants, `ConnectivityIndex` parity, and parity of
//! the index build with the per-level construction it replaced.
//!
//! Three families of cross-crate checks:
//!
//! * **nesting** — every (k+1)-VCC of the index lies inside exactly one
//!   k-VCC, the recorded parent is that component, and per-level components
//!   match a direct `enumerate_kvccs` run;
//! * **parity** — the [`ConnectivityIndex`] answers every query byte-identical
//!   to the direct (un-indexed) paths: `components_at` vs `enumerate_kvccs`,
//!   `kvccs_containing` vs the localized query, `max_connectivity_of` vs a
//!   brute force over the levels;
//! * **reference** — `ConnectivityIndex::build`, which certifies each
//!   component once, matches a test-only per-level loop that enumerates every
//!   level inside every parent, node for node and in the index's `KIDX`
//!   bytes.

use kvcc::{
    enumerate_kvccs, kvccs_containing, AlgorithmVariant, ConnectivityIndex,
    KVertexConnectedComponent, KvccOptions,
};
use kvcc_graph::codec::{encode_row, varint};
use kvcc_graph::kcore::degeneracy;
use kvcc_graph::{CsrGraph, UndirectedGraph, VertexId};

use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::er::gnp;
use kvcc_datasets::figure1::figure1_graph;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_datasets::{SuiteDataset, SuiteScale};

/// The three dataset suites the acceptance criteria name.
fn suites() -> Vec<(&'static str, UndirectedGraph)> {
    let planted = planted_communities(&PlantedConfig {
        num_communities: 4,
        chain_length: 2,
        community_size: (8, 10),
        background_vertices: 250,
        seed: 77,
        ..PlantedConfig::default()
    });
    let collab = collaboration_graph(&CollaborationConfig {
        num_groups: 4,
        group_size: (6, 8),
        pendant_collaborators: 8,
        ..CollaborationConfig::default()
    });
    vec![
        ("planted", planted.graph),
        ("figure1", figure1_graph().graph),
        ("collaboration", collab.graph),
    ]
}

fn assert_nesting_invariants(name: &str, g: &UndirectedGraph, index: &ConnectivityIndex) {
    let options = KvccOptions::default();
    let ks: Vec<u32> = (0..index.num_nodes() as u32)
        .map(|id| index.node_k(id).unwrap())
        .collect();
    let levels: Vec<u32> = (1..=index.max_k()).collect();
    let mut distinct = ks.clone();
    distinct.dedup();
    assert_eq!(
        distinct, levels,
        "{name}: levels must be contiguous from k = 1"
    );
    for k in 1..=index.max_k() {
        // Per-level components match a direct enumeration of the same k...
        let direct = enumerate_kvccs(g, k, &options).unwrap();
        assert_eq!(
            index.components_at(k),
            direct.components(),
            "{name}: hierarchy level {k} disagrees with direct enumeration"
        );
        // ...and are the level's nodes, in node-id order.
        let nodes: Vec<&KVertexConnectedComponent> = (0..ks.len() as u32)
            .filter(|&id| ks[id as usize] == k)
            .map(|id| index.node_component(id).unwrap())
            .collect();
        assert!(
            nodes.iter().copied().eq(index.components_at(k)),
            "{name}: level {k} nodes"
        );
    }
    for id in 0..ks.len() as u32 {
        let k = ks[id as usize];
        let comp = index.node_component(id).unwrap();
        if k == 1 {
            assert_eq!(index.parent(id), None, "{name}: level 1 has no parents");
            continue;
        }
        // The recorded parent sits one level up and contains the child...
        let parent = index.parent(id).expect("non-root level has parents");
        assert_eq!(index.node_k(parent), Some(k - 1), "{name}: node {id}");
        let parent_comp = index.node_component(parent).unwrap();
        for &v in comp.vertices() {
            assert!(
                parent_comp.contains(v),
                "{name}: child not inside its recorded parent"
            );
        }
        // ...and is the *only* container: k-VCCs overlap in < k vertices,
        // so a (k+1)-VCC (which has > k vertices) fits in at most one.
        let containers = index
            .components_at(k - 1)
            .iter()
            .filter(|c| comp.vertices().iter().all(|&v| c.contains(v)))
            .count();
        assert_eq!(
            containers, 1,
            "{name}: every (k+1)-VCC lies inside exactly one k-VCC"
        );
    }
}

#[test]
fn hierarchy_nesting_invariants_hold_on_all_suites() {
    for (name, g) in suites() {
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        assert!(
            index.max_k() >= 2,
            "{name}: suite must have a non-trivial hierarchy"
        );
        assert_nesting_invariants(name, &g, &index);
    }
}

#[test]
fn index_components_match_direct_enumeration_on_all_suites() {
    for (name, g) in suites() {
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        for k in 1..=index.max_k() + 1 {
            let direct = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(
                index.components_at(k),
                direct.components(),
                "{name}: k = {k}"
            );
        }
    }
}

#[test]
fn index_seed_queries_match_the_direct_query_on_all_suites() {
    for (name, g) in suites() {
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        // Every vertex at the levels around the interesting structure; keep
        // the direct path affordable by sampling ks.
        for k in [1, 2, index.max_k().max(1)] {
            for seed in 0..g.num_vertices() as VertexId {
                let direct = kvccs_containing(&g, seed, k, &KvccOptions::default()).unwrap();
                let indexed = index.kvccs_containing(seed, k).unwrap();
                assert_eq!(indexed, direct, "{name}: seed {seed}, k {k}");
            }
        }
    }
}

#[test]
fn per_vertex_connectivity_matches_the_hierarchy_on_all_suites() {
    for (name, g) in suites() {
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        // Brute force: the deepest level with a component holding the vertex.
        let mut numbers = vec![0u32; g.num_vertices()];
        for k in 1..=index.max_k() {
            for comp in index.components_at(k) {
                for &v in comp.vertices() {
                    numbers[v as usize] = numbers[v as usize].max(k);
                }
            }
        }
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(
                index.max_connectivity_of(v),
                numbers[v as usize],
                "{name}: vertex {v}"
            );
            // Self-connectivity is the vertex's own number.
            assert_eq!(
                index.max_connectivity(v, v).unwrap(),
                numbers[v as usize],
                "{name}: vertex {v}"
            );
        }
    }
}

#[test]
fn pairwise_max_connectivity_matches_brute_force_on_figure1() {
    // Brute force: for every pair, the deepest level whose enumeration has a
    // component containing both endpoints.
    let g = figure1_graph().graph;
    let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
    let options = KvccOptions::default();
    let per_level: Vec<_> = (1..=index.max_k())
        .map(|k| enumerate_kvccs(&g, k, &options).unwrap())
        .collect();
    for u in 0..g.num_vertices() as VertexId {
        for v in (u + 1)..g.num_vertices() as VertexId {
            let expected = per_level
                .iter()
                .filter(|r| r.iter().any(|c| c.contains(u) && c.contains(v)))
                .map(|r| r.k())
                .max()
                .unwrap_or(0);
            assert_eq!(
                index.max_connectivity(u, v).unwrap(),
                expected,
                "pair ({u}, {v})"
            );
        }
    }
}

#[test]
fn persisted_index_round_trips_on_every_suite() {
    // The service-restart path: serialise the index, read it back, and
    // require every query surface to answer byte-identically to the freshly
    // built index on all three acceptance suites.
    for (name, g) in suites() {
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let back = ConnectivityIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.max_k(), index.max_k(), "{name}");
        assert_eq!(back.num_nodes(), index.num_nodes(), "{name}");
        assert_eq!(back.num_vertices(), index.num_vertices(), "{name}");
        for k in 0..=index.max_k() + 1 {
            assert_eq!(
                back.components_at(k),
                index.components_at(k),
                "{name}: level {k}"
            );
        }
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(
                back.max_connectivity_of(v),
                index.max_connectivity_of(v),
                "{name}: vertex {v}"
            );
            for k in 1..=index.max_k() {
                assert_eq!(
                    back.kvccs_containing(v, k).unwrap(),
                    index.kvccs_containing(v, k).unwrap(),
                    "{name}: seed {v}, k {k}"
                );
            }
        }
        // A pairwise sample over the LCA path.
        let n = g.num_vertices() as VertexId;
        for u in (0..n).step_by(3) {
            for v in (0..n).step_by(5) {
                assert_eq!(
                    back.max_connectivity(u, v).unwrap(),
                    index.max_connectivity(u, v).unwrap(),
                    "{name}: pair ({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn ranked_listings_cover_the_forest_with_true_metadata_on_all_suites() {
    use kvcc::{RankBy, RankedComponent};
    for (name, g) in suites() {
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let restored = ConnectivityIndex::from_bytes(&index.to_bytes()).unwrap();
        for rank_by in RankBy::ALL {
            let ranked = index.ranked_components(rank_by, index.num_nodes());
            // Parity with `components_at`: the ranking is a permutation of
            // the forest — every level's components appear exactly once.
            let mut from_ranking: Vec<(u32, &[VertexId])> = ranked
                .iter()
                .map(|e| (e.k, e.component.vertices()))
                .collect();
            from_ranking.sort();
            let mut from_levels: Vec<(u32, &[VertexId])> = (1..=index.max_k())
                .flat_map(|k| {
                    index
                        .components_at(k)
                        .iter()
                        .map(move |c| (k, c.vertices()))
                })
                .collect();
            from_levels.sort();
            assert_eq!(from_ranking, from_levels, "{name}/{rank_by:?}");
            // The persisted index ranks identically.
            let restored_ranked: Vec<RankedComponent<'_>> =
                restored.ranked_components(rank_by, restored.num_nodes());
            assert_eq!(ranked, restored_ranked, "{name}/{rank_by:?}");
        }
        // The precomputed edge counts are the graph's truth, on every node.
        for entry in index.ranked_components(RankBy::Size, index.num_nodes()) {
            let members = entry.component.vertices();
            let brute: u64 = members
                .iter()
                .map(|&v| {
                    g.neighbors(v)
                        .iter()
                        .filter(|w| members.binary_search(w).is_ok())
                        .count() as u64
                })
                .sum::<u64>()
                / 2;
            assert_eq!(
                entry.internal_edges, brute,
                "{name}: node {}",
                entry.node_id
            );
        }
    }
}

/// One level of the per-level reference: its components, sorted, and the
/// position of each one's parent in the level above.
struct Level {
    k: u32,
    components: Vec<KVertexConnectedComponent>,
    parents: Vec<Option<usize>>,
}

/// The per-level construction the index build replaced: every level is
/// enumerated inside every component of the level above.
fn per_level_reference(
    g: &UndirectedGraph,
    max_k: Option<u32>,
    options: &KvccOptions,
) -> Vec<Level> {
    let mut levels: Vec<Level> = Vec::new();
    let mut map = Vec::new();
    for k in 1..=max_k.unwrap_or_else(|| degeneracy(g)) {
        let mut nodes = Vec::new();
        match levels.last() {
            None => {
                let roots = enumerate_kvccs(g, 1, options).unwrap();
                nodes.extend(roots.iter().map(|c| (c.clone(), None)));
            }
            Some(previous) => {
                for (p, parent) in previous.components.iter().enumerate() {
                    if parent.len() <= k as usize {
                        continue;
                    }
                    let sub = CsrGraph::extract_induced(g, parent.vertices(), &mut map);
                    for c in enumerate_kvccs(&sub, k, options).unwrap().iter() {
                        let members = c.vertices().iter().map(|&l| parent.vertices()[l as usize]);
                        nodes.push((KVertexConnectedComponent::new(members.collect()), Some(p)));
                    }
                }
            }
        }
        if nodes.is_empty() {
            break;
        }
        nodes.sort();
        let (components, parents) = nodes.into_iter().unzip();
        levels.push(Level {
            k,
            components,
            parents,
        });
    }
    levels
}

/// The `KIDX` v3 bytes of a fresh index over `levels`, written from the
/// layout `ConnectivityIndex::to_bytes` documents.
fn kidx_bytes(g: &UndirectedGraph, levels: &[Level], max_k: Option<u32>) -> Vec<u8> {
    let mut out = b"KIDX\x03".to_vec();
    out.extend_from_slice(&(g.num_vertices() as u32).to_le_bytes());
    varint::encode_u32(max_k.map_or(0, |cap| cap + 1), &mut out);
    varint::encode_u64(0, &mut out);
    let nodes: usize = levels.iter().map(|l| l.components.len()).sum();
    varint::encode_u32(nodes as u32, &mut out);
    let mut previous_start = 0;
    let mut start = 0;
    for level in levels {
        for (c, parent) in level.components.iter().zip(&level.parents) {
            varint::encode_u32(level.k, &mut out);
            varint::encode_u32(
                parent.map_or(0, |p| (previous_start + p + 1) as u32),
                &mut out,
            );
            varint::encode_u32(c.len() as u32, &mut out);
            encode_row(c.vertices(), &mut out);
            let degree_sum: usize = c
                .vertices()
                .iter()
                .map(|&v| g.neighbors(v).iter().filter(|&&w| c.contains(w)).count())
                .sum();
            varint::encode_u64(degree_sum as u64 / 2, &mut out);
        }
        previous_start = start;
        start += level.components.len();
    }
    out
}

fn assert_matches_reference(
    name: &str,
    g: &UndirectedGraph,
    max_k: Option<u32>,
    options: &KvccOptions,
) {
    let context = format!("{name}, max_k {max_k:?}, {options:?}");
    let index = ConnectivityIndex::build(g, max_k, options).unwrap();
    let reference = per_level_reference(g, max_k, options);
    assert_eq!(index.max_k() as usize, reference.len(), "{context}: depth");
    let mut id = 0u32;
    let mut previous_start = 0u32;
    for want in &reference {
        assert_eq!(
            index.components_at(want.k),
            want.components.as_slice(),
            "{context}: level {}",
            want.k
        );
        let start = id;
        for (c, parent) in want.components.iter().zip(&want.parents) {
            assert_eq!(index.node_k(id), Some(want.k), "{context}: node {id}");
            assert_eq!(index.node_component(id), Some(c), "{context}: node {id}");
            assert_eq!(
                index.parent(id),
                parent.map(|p| previous_start + p as u32),
                "{context}: level {}, node {id}",
                want.k
            );
            id += 1;
        }
        previous_start = start;
    }
    assert_eq!(id as usize, index.num_nodes(), "{context}: node count");
    assert_eq!(
        index.to_bytes(),
        kidx_bytes(g, &reference, max_k),
        "{context}: KIDX bytes"
    );
}

fn complete(n: usize) -> UndirectedGraph {
    let edges = (0..n as VertexId).flat_map(|i| ((i + 1)..n as VertexId).map(move |j| (i, j)));
    UndirectedGraph::from_edges(n, edges.collect::<Vec<_>>()).unwrap()
}

/// Small graphs, each run under every depth cap, thread count and variant.
fn small_graphs() -> Vec<(&'static str, UndirectedGraph)> {
    // A path, a star and a lone edge, plus isolated vertices 12..15.
    let forest = UndirectedGraph::from_edges(
        15,
        vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (4, 8),
            (9, 10),
        ],
    )
    .unwrap();
    // Two triangles sharing vertex 2, plus a pendant vertex 5.
    let glued = UndirectedGraph::from_edges(
        6,
        vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 5)],
    )
    .unwrap();
    vec![
        ("figure1", figure1_graph().graph),
        ("K7", complete(7)),
        ("forest", forest),
        ("glued triangles", glued),
        ("er-small", gnp(40, 0.25, 5)),
        ("ba-small", barabasi_albert(48, 4, 6)),
    ]
}

#[test]
fn hierarchy_matches_the_per_level_reference_under_every_knob() {
    for (name, g) in small_graphs() {
        for max_k in [None, Some(1), Some(2), Some(3)] {
            for threads in [1, 2] {
                for variant in AlgorithmVariant::all() {
                    let options = KvccOptions {
                        variant,
                        threads,
                        ..KvccOptions::default()
                    };
                    assert_matches_reference(name, &g, max_k, &options);
                }
            }
        }
    }
}

#[test]
fn hierarchy_matches_the_per_level_reference_on_every_suite() {
    let options = KvccOptions::default();
    for (name, g) in suites() {
        assert_matches_reference(name, &g, None, &options);
    }
    for dataset in SuiteDataset::all() {
        let g = dataset.generate(SuiteScale::Tiny);
        assert_matches_reference(dataset.name(), &g, None, &options);
    }
    for seed in [11, 12, 13] {
        assert_matches_reference("er", &gnp(140, 0.06, seed), None, &options);
        assert_matches_reference("ba", &barabasi_albert(160, 4, seed), None, &options);
    }
    assert_matches_reference("K12", &complete(12), None, &options);
}
