//! `GLOBAL-CUT*` set-up parity: the passes every call runs before its first
//! probe, against their definitions.
//!
//! * **strong side-vertices** — the one-pass [`strong_side_vertices`] must
//!   flag exactly the vertices for which [`is_strong_side_vertex`], the
//!   Theorem 8 condition checked pair by pair, holds, under every degree cap;
//! * **sparse certificate** — [`sparse_certificate`], whose forests scan the
//!   residual rows earlier forests left, must equal a test-only copy of an
//!   earlier construction (per-vertex `(neighbour, edge id)` lists built from
//!   `g.edges()`, a used-edge bitmap, a fresh component buffer per round, and
//!   side-groups bucketed through a hash map): the same `forest_sizes`,
//!   certificate edges and `memory_bytes()`, `side_groups` and `group_of`;
//! * **distance order** — [`vertices_by_descending_distance`], a counting
//!   sort by BFS distance, must equal the stable comparison sort it replaced,
//!   from several sources;
//! * **round 1 as the split** — round 1 of the scan-first forests, stopped
//!   before round 2 ([`first_round`]), must list exactly the connected
//!   components, and the forests resumed after it must equal
//!   [`scan_first_forests`]: forest sizes, the k-th forest's trees, the
//!   union and its bytes, and `memory_bytes()`;
//! * **arena fill** — a flow arena into whose own row buffers the forests'
//!   union is transposed ([`VertexFlowGraph::rebuild_with`] with
//!   `ScanFirstForests::write_union`), as `GLOBAL-CUT*` fills its arena at
//!   its first flow probe, must answer every sampled probe exactly like
//!   [`VertexFlowGraph::build`] over [`sparse_certificate`]'s graph: from
//!   the fixed source and from other sources, at every sampled limit, cut
//!   vector included.
//!
//! Inputs: seeded G(n, p) and Barabási–Albert graphs, the seven Table 1
//! stand-ins at `SuiteScale::Tiny`, the planted, Fig. 1 and collaboration
//! suites, complete graphs, a star whose hub exceeds a cap, an edgeless
//! graph and a disconnected graph. Each runs as a [`CsrGraph`] and as a
//! [`DeltaGraph`] over a different base (the view the index repair reads),
//! for every k in `0..=8`, with degree caps `None`, `Some(0)`, `Some(3)` and
//! `Some(4096)`. The certificate alone also runs at the index build's k, on
//! the DBLP stand-in's k-cores at `SuiteScale::Small` for k = 16 to 42, where
//! late forests run on a thin residual and the rounds stop at an empty one.
//! The arena fill runs for k = 1..=8 on the seeded random graphs of one
//! seed, the Table 1 stand-ins, the dataset suites, K9, the star and the
//! disconnected graph, again on both substrates. Round 1 as the split runs
//! for k = 0..=8 on seeded sparse G(n, p) graphs with several components
//! and isolated vertices, on both substrates.

use std::collections::HashMap;

use kvcc::certificate::{sparse_certificate, SparseCertificate, NO_GROUP};
use kvcc::side_vertex::{is_strong_side_vertex, strong_side_vertices};
use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::er::gnp;
use kvcc_datasets::figure1::figure1_graph;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_datasets::{SuiteDataset, SuiteScale};
use kvcc_flow::VertexFlowGraph;
use kvcc_graph::kcore::k_core_vertices;
use kvcc_graph::scan_first::{first_round, scan_first_forests};
use kvcc_graph::traversal::{
    bfs_distances, connected_components, vertices_by_descending_distance, UNREACHABLE,
};
use kvcc_graph::{BitSet, CsrGraph, DeltaGraph, EdgeUpdate, GraphView, UndirectedGraph, VertexId};

const KS: std::ops::RangeInclusive<u32> = 0..=8;
const CAPS: [Option<usize>; 4] = [None, Some(0), Some(3), Some(4096)];

/// The certificate construction `sparse_certificate` replaced, kept verbatim
/// apart from its name: the forests scan per-vertex lists of
/// `(neighbour, edge id)` pairs numbered in `g.edges()` order.
fn reference_certificate<G: GraphView>(g: &G, k: u32) -> SparseCertificate {
    let n = g.num_vertices();
    let m = g.num_edges();

    let mut indexed_adj: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); n];
    for (edge_id, (u, v)) in g.edges().enumerate() {
        let edge_id = edge_id as u32;
        indexed_adj[u as usize].push((v, edge_id));
        indexed_adj[v as usize].push((u, edge_id));
    }

    let mut edge_used = BitSet::new(m);
    let mut certificate_edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut forest_sizes = Vec::new();

    let mut last_forest_component: Vec<u32> = vec![NO_GROUP; n];
    let mut last_forest_edge_count = 0usize;

    let mut queue: Vec<VertexId> = Vec::with_capacity(n);
    let mut visited = BitSet::new(n);
    for round in 0..k {
        visited.clear_all();
        let mut forest_edges = 0usize;
        let mut component: Vec<u32> = vec![NO_GROUP; n];
        let mut component_count = 0u32;

        for start in 0..n as VertexId {
            if visited.contains(start as usize) {
                continue;
            }
            let comp_id = component_count;
            component_count += 1;
            visited.insert(start as usize);
            component[start as usize] = comp_id;
            queue.clear();
            queue.push(start);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &(v, edge_id) in &indexed_adj[u as usize] {
                    if edge_used.contains(edge_id as usize) || visited.contains(v as usize) {
                        continue;
                    }
                    visited.insert(v as usize);
                    component[v as usize] = comp_id;
                    edge_used.insert(edge_id as usize);
                    certificate_edges.push((u, v));
                    forest_edges += 1;
                    queue.push(v);
                }
            }
        }

        if round + 1 == k {
            last_forest_component = component;
            last_forest_edge_count = forest_edges;
        }
        if forest_edges == 0 {
            if round + 1 < k {
                last_forest_component = vec![NO_GROUP; n];
                last_forest_edge_count = 0;
            }
            break;
        }
        forest_sizes.push(forest_edges);
    }

    let graph = CsrGraph::from_edges(n, certificate_edges).unwrap();
    let (side_groups, group_of) = if last_forest_edge_count == 0 {
        (Vec::new(), vec![NO_GROUP; n])
    } else {
        reference_side_groups(&last_forest_component, n, k as usize)
    };
    SparseCertificate {
        graph,
        forest_sizes,
        side_groups,
        group_of,
    }
}

fn reference_side_groups(component: &[u32], n: usize, k: usize) -> (Vec<Vec<VertexId>>, Vec<u32>) {
    let mut buckets: HashMap<u32, Vec<VertexId>> = HashMap::new();
    for (v, &c) in component.iter().enumerate() {
        if c != NO_GROUP {
            buckets.entry(c).or_default().push(v as VertexId);
        }
    }
    let mut groups: Vec<Vec<VertexId>> = buckets
        .into_values()
        .filter(|members| members.len() > k)
        .collect();
    groups.sort_by_key(|members| members[0]);
    let mut group_of = vec![NO_GROUP; n];
    for (idx, members) in groups.iter().enumerate() {
        for &v in members {
            group_of[v as usize] = idx as u32;
        }
    }
    (groups, group_of)
}

/// The distance order `vertices_by_descending_distance` replaced, kept
/// verbatim apart from its name: a stable comparison sort after the BFS.
fn reference_distance_order<G: GraphView>(g: &G, src: VertexId) -> Vec<VertexId> {
    let dist = bfs_distances(g, src);
    let mut order: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| v != src && dist[v as usize] != UNREACHABLE)
        .collect();
    order.sort_by(|&a, &b| dist[b as usize].cmp(&dist[a as usize]).then(a.cmp(&b)));
    order
}

/// Compares the certificate of `g` for `k` with the reference construction.
fn assert_certificate_parity<G: GraphView>(name: &str, g: &G, k: u32) {
    let cert = sparse_certificate(g, k);
    let reference = reference_certificate(g, k);
    assert_eq!(cert.forest_sizes, reference.forest_sizes, "{name}, k {k}");
    assert_eq!(cert.graph, reference.graph, "{name}, k {k}");
    assert_eq!(
        cert.graph.memory_bytes(),
        reference.graph.memory_bytes(),
        "{name}, k {k}"
    );
    assert_eq!(cert.side_groups, reference.side_groups, "{name}, k {k}");
    assert_eq!(cert.group_of, reference.group_of, "{name}, k {k}");
}

/// Compares, for k = 1..=8, an arena filled in place from the forests of
/// `g` with one built from the certificate's graph. The filled arena first
/// holds `g` itself, so the fill overwrites larger rows. Both are fixed at
/// each sampled source `u` in turn; for every sampled sink `v` and limit
/// they must give the same `LOC-CUT(u, v)` (cut vector included), flow value
/// from `u`, and `LOC-CUT(v, u)`, a probe from a source that is not fixed.
fn assert_arena_fill_parity<G: GraphView>(name: &str, g: &G) {
    let n = g.num_vertices() as VertexId;
    if n == 0 {
        return;
    }
    let sinks: Vec<VertexId> = (0..n).step_by((n as usize / 8).max(1)).collect();
    let mut filled = VertexFlowGraph::build(g);
    for k in 1..=8u32 {
        let forests = scan_first_forests(g, k);
        filled.rebuild_with(|offsets, targets| forests.write_union(offsets, targets));
        let mut built = VertexFlowGraph::build(&sparse_certificate(g, k).graph);
        assert_eq!(filled.num_vertices(), built.num_vertices(), "{name}, k {k}");
        assert_eq!(filled.fixed_source(), None, "{name}, k {k}");
        for u in [0, n / 2] {
            filled.fix_source(u);
            built.fix_source(u);
            for &v in &sinks {
                for limit in [1, k, n] {
                    let context = format!("{name}, k {k}: {u} -> {v}, limit {limit}");
                    assert_eq!(
                        filled.local_connectivity_nonadjacent(u, v, limit),
                        built.local_connectivity_nonadjacent(u, v, limit),
                        "{context}"
                    );
                    assert_eq!(
                        filled.max_flow_value(u, v, limit),
                        built.max_flow_value(u, v, limit),
                        "{context}"
                    );
                    assert_eq!(
                        filled.local_connectivity_nonadjacent(v, u, limit),
                        built.local_connectivity_nonadjacent(v, u, limit),
                        "{context}, reversed"
                    );
                }
            }
        }
    }
}

/// Runs the comparisons on `g` for every k and cap, and the distance order
/// from several sources; `name` labels failures.
fn assert_setup_parity<G: GraphView>(name: &str, g: &G) {
    let n = g.num_vertices() as VertexId;
    for src in [0, n / 3, n / 2, n.saturating_sub(1)] {
        if src < n {
            assert_eq!(
                vertices_by_descending_distance(g, src),
                reference_distance_order(g, src),
                "{name}: distance order from {src}"
            );
        }
    }
    for k in KS {
        for cap in CAPS {
            let strong = strong_side_vertices(g, k, cap);
            assert_eq!(strong.len(), g.num_vertices(), "{name}, k {k}, cap {cap:?}");
            for u in g.vertices() {
                assert_eq!(
                    strong[u as usize],
                    is_strong_side_vertex(g, u, k, cap),
                    "{name}: vertex {u} (degree {}), k {k}, cap {cap:?}",
                    g.degree(u)
                );
            }
        }

        assert_certificate_parity(name, g, k);
    }
}

/// A [`DeltaGraph`] with exactly the edge set of `g`, over a different base
/// when `g` has two or more vertices: the base lacks every third edge of `g`
/// and holds the pairs `(v, v + 1 mod n)` that `g` lacks, and the overlay
/// inserts the former and deletes the latter.
fn rebased(g: &CsrGraph) -> DeltaGraph {
    let n = g.num_vertices() as VertexId;
    let mut base_edges = Vec::new();
    let mut updates = Vec::new();
    for (i, (u, v)) in g.edges().enumerate() {
        if i % 3 == 0 {
            updates.push(EdgeUpdate::insert(u, v));
        } else {
            base_edges.push((u, v));
        }
    }
    for v in 0..n {
        let w = (v + 1) % n;
        if v != w && !g.has_edge(v, w) {
            base_edges.push((v, w));
            updates.push(EdgeUpdate::delete(v, w));
        }
    }
    let base = CsrGraph::from_edges(n as usize, base_edges).unwrap();
    assert!(n < 2 || &base != g, "the base must differ from g");
    let mut delta = DeltaGraph::new(base);
    delta.apply(&updates).unwrap();
    assert!(g.vertices().all(|v| delta.neighbors(v) == g.neighbors(v)));
    delta
}

/// Runs the comparisons on `g` as a [`CsrGraph`] and as a [`DeltaGraph`]
/// over a different base.
fn assert_setup_parity_on_both(name: &str, g: &UndirectedGraph) {
    assert_setup_parity(&format!("{name} (csr)"), g);
    assert_setup_parity(&format!("{name} (delta)"), &rebased(g));
}

fn complete(n: usize) -> UndirectedGraph {
    let edges = (0..n as VertexId).flat_map(|i| ((i + 1)..n as VertexId).map(move |j| (i, j)));
    UndirectedGraph::from_edges(n, edges).unwrap()
}

#[test]
fn seeded_random_graphs() {
    for seed in 0..3u64 {
        for (n, p) in [(40usize, 0.3), (90, 0.08), (160, 0.04)] {
            let g = gnp(n, p, 0x5E7 ^ (seed << 8) ^ n as u64);
            assert_setup_parity_on_both(&format!("gnp({n}, {p}) seed {seed}"), &g);
        }
        for (n, m) in [(120usize, 3usize), (80, 6)] {
            let g = barabasi_albert(n, m, 0xBA5E ^ (seed << 8) ^ n as u64);
            assert_setup_parity_on_both(&format!("ba({n}, {m}) seed {seed}"), &g);
        }
    }
}

#[test]
fn table1_stand_ins() {
    for dataset in SuiteDataset::all() {
        let g = dataset.generate(SuiteScale::Tiny);
        assert_setup_parity_on_both(dataset.name(), &g);
    }
}

#[test]
fn dataset_suites() {
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
    assert_setup_parity_on_both("planted", &planted.graph);
    assert_setup_parity_on_both("figure1", &figure1_graph().graph);
    assert_setup_parity_on_both("collaboration", &collab.graph);
}

#[test]
fn complete_star_edgeless_and_disconnected_graphs() {
    for n in [1usize, 2, 5, 9, 12] {
        assert_setup_parity_on_both(&format!("K{n}"), &complete(n));
    }

    // A hub of degree 10, above the cap of 3, with two leaf pairs joined.
    let mut star: Vec<(VertexId, VertexId)> = (1..=10).map(|leaf| (0, leaf)).collect();
    star.extend([(1, 2), (3, 4)]);
    let star = UndirectedGraph::from_edges(11, star).unwrap();
    assert!(star.degree(0) > 3);
    assert_setup_parity_on_both("star", &star);

    assert_setup_parity_on_both("edgeless", &UndirectedGraph::from_edges(7, vec![]).unwrap());
    assert_setup_parity_on_both("empty", &UndirectedGraph::from_edges(0, vec![]).unwrap());

    // Two K5s, a path hanging off nothing, and an isolated vertex.
    let mut parts: Vec<(VertexId, VertexId)> = Vec::new();
    for base in [0u32, 5] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                parts.push((base + i, base + j));
            }
        }
    }
    parts.extend([(10, 11), (11, 12)]);
    assert_setup_parity_on_both(
        "disconnected",
        &UndirectedGraph::from_edges(14, parts).unwrap(),
    );
}

#[test]
fn arena_fill_matches_a_build_from_the_certificate() {
    let mut inputs: Vec<(String, UndirectedGraph)> = Vec::new();
    for (n, p) in [(40usize, 0.3), (90, 0.08), (160, 0.04)] {
        inputs.push((format!("gnp({n}, {p})"), gnp(n, p, 0x5E7 ^ n as u64)));
    }
    for (n, m) in [(120usize, 3usize), (80, 6)] {
        inputs.push((
            format!("ba({n}, {m})"),
            barabasi_albert(n, m, 0xBA5E ^ n as u64),
        ));
    }
    for dataset in SuiteDataset::all() {
        inputs.push((
            dataset.name().to_string(),
            dataset.generate(SuiteScale::Tiny),
        ));
    }
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
    inputs.push(("planted".to_string(), planted.graph));
    inputs.push(("figure1".to_string(), figure1_graph().graph));
    inputs.push(("collaboration".to_string(), collab.graph));
    inputs.push(("K9".to_string(), complete(9)));
    let mut star: Vec<(VertexId, VertexId)> = (1..=10).map(|leaf| (0, leaf)).collect();
    star.extend([(1, 2), (3, 4)]);
    inputs.push((
        "star".to_string(),
        UndirectedGraph::from_edges(11, star).unwrap(),
    ));
    let mut parts: Vec<(VertexId, VertexId)> = Vec::new();
    for base in [0u32, 5] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                parts.push((base + i, base + j));
            }
        }
    }
    parts.extend([(10, 11), (11, 12)]);
    inputs.push((
        "disconnected".to_string(),
        UndirectedGraph::from_edges(14, parts).unwrap(),
    ));
    for (name, g) in &inputs {
        assert_arena_fill_parity(&format!("{name} (csr)"), g);
        assert_arena_fill_parity(&format!("{name} (delta)"), &rebased(g));
    }
}

/// Round 1 of the scan-first forests, stopped before round 2, lists the
/// connected components, and the forests resumed after it equal a fresh
/// build, for every k in `0..=8` (round 1 lists no trees at k = 0, which
/// runs none).
fn assert_round_one_is_the_split<G: GraphView>(name: &str, g: &G) {
    let components = connected_components(g);
    for k in KS {
        let first = first_round(g, k);
        let context = format!("{name}, k {k}");
        if k == 0 {
            assert!(first.trees().is_empty(), "{context}");
        } else {
            assert_eq!(first.num_trees(), components.len(), "{context}");
            assert_eq!(first.trees(), components, "{context}");
        }
        let resumed = first.resume();
        let fresh = scan_first_forests(g, k);
        assert_eq!(resumed.forest_sizes, fresh.forest_sizes, "{context}");
        assert_eq!(resumed.kth_trees, fresh.kth_trees, "{context}");
        let (union, fresh_union) = (resumed.union(), fresh.union());
        assert_eq!(union, fresh_union, "{context}");
        assert_eq!(
            union.memory_bytes(),
            fresh_union.memory_bytes(),
            "{context}"
        );
        assert_eq!(resumed.memory_bytes(), fresh.memory_bytes(), "{context}");
    }
}

/// Round 1 as the component split, on seeded sparse G(n, p) graphs, each
/// with several components and isolated vertices, as CSR graphs and as
/// [`DeltaGraph`]s over a different base.
#[test]
fn round_one_is_the_component_split() {
    for seed in 0..4u64 {
        for (n, p) in [(30usize, 0.05), (90, 0.02), (160, 0.012), (240, 0.006)] {
            let g = gnp(n, p, 0x1D ^ (seed << 8) ^ n as u64);
            let name = format!("gnp({n}, {p}) seed {seed}");
            assert!(connected_components(&g).len() > 1, "{name}: connected");
            assert!(
                g.vertices().any(|v| g.degree(v) == 0),
                "{name}: no isolated vertex"
            );
            assert_round_one_is_the_split(&format!("{name} (csr)"), &g);
            assert_round_one_is_the_split(&format!("{name} (delta)"), &rebased(&g));
        }
    }
}

#[test]
fn certificates_at_the_index_builds_k() {
    let dblp = SuiteDataset::Dblp.generate(SuiteScale::Small);
    let mut stopped_early = false;
    for k in [16u32, 24, 32, 42] {
        let core = dblp
            .induced_subgraph(&k_core_vertices(&dblp, k as usize))
            .graph;
        assert!(
            core.num_vertices() > k as usize,
            "k {k}: the k-core is empty"
        );
        let name = format!("DBLP small {k}-core");
        assert_certificate_parity(&format!("{name} (csr)"), &core, k);
        assert_certificate_parity(&format!("{name} (delta)"), &rebased(&core), k);
        stopped_early |= sparse_certificate(&core, k).forest_sizes.len() < k as usize;
    }
    assert!(
        stopped_early,
        "some certificate must stop at an empty forest"
    );
}
