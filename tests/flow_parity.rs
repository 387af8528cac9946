//! `LOC-CUT` probe parity: the implicit vertex-split arena
//! ([`VertexFlowGraph`]) against a test-only reference that materialises
//! the split network of §4.1 (Fig. 3) arc by arc in a [`FlowNetwork`] and
//! runs the plain Dinic of `kvcc_flow::dinic` on it.
//!
//! For every ordered non-adjacent pair (a seeded sample on graphs above 60
//! vertices) and every limit in {1, 2, 3, 5, n}, the two must agree on the
//! max-flow value, the boolean probe, and the `LocalConnectivity` answer,
//! cut vector included: both read the minimum cut closest to the source,
//! which every maximum flow shares. Inputs: seeded G(n, p) and
//! Barabási–Albert graphs, sparse G(n, p) graphs and a grid (where later
//! phases reroute earlier units), the planted, Fig. 1 and collaboration
//! suites, and complete graphs. One arena serves every graph in turn, so
//! it is also exercised growing, shrinking and after interrupted probes.
//!
//! The same comparison runs with the source fixed
//! ([`VertexFlowGraph::fix_source`]), as phase 1 of `GLOBAL-CUT*` fixes
//! it: each sampled source in turn against every sink, so the label-guided
//! search is checked on the same inputs, rerouting through reversed arcs on
//! the grid and sparse G(n, p) graphs included. Its labels must not outlive
//! a rebuild onto a smaller or a larger graph.

use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::er::gnp;
use kvcc_datasets::figure1::figure1_graph;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_flow::dinic::{max_flow_with_scratch, DinicScratch};
use kvcc_flow::mincut::residual_reachable;
use kvcc_flow::{
    Budget, FlowNetwork, Interrupted, LocalConnectivity, VertexFlowGraph, INFINITE_CAPACITY,
};
use kvcc_graph::{GraphView, UndirectedGraph, VertexId};
use std::time::Duration;

/// The split network built arc by arc: `v_in = 2v`, `v_out = 2v + 1`, a
/// unit vertex arc per vertex and an uncapacitated arc per edge direction.
struct Reference {
    net: FlowNetwork,
    scratch: DinicScratch,
    n: usize,
}

impl Reference {
    fn build<G: GraphView>(g: &G) -> Self {
        let n = g.num_vertices();
        let mut net = FlowNetwork::new(2 * n);
        for v in g.vertices() {
            net.add_arc(2 * v, 2 * v + 1, 1);
        }
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                net.add_arc(2 * u + 1, 2 * v, INFINITE_CAPACITY);
            }
        }
        let scratch = DinicScratch::new(2 * n);
        Reference { net, scratch, n }
    }

    /// The flow value capped at `k`, and `LOC-CUT`'s answer with the cut
    /// read from residual reachability: the vertices whose in-node the
    /// source reaches and whose out-node it does not.
    fn probe(&mut self, u: VertexId, v: VertexId, k: u32) -> (u32, LocalConnectivity) {
        let flow = max_flow_with_scratch(&mut self.net, 2 * u + 1, 2 * v, k, &mut self.scratch);
        let answer = if flow >= k {
            LocalConnectivity::AtLeast(k)
        } else {
            let reachable = residual_reachable(&self.net, 2 * u + 1);
            LocalConnectivity::Cut(
                (0..self.n as VertexId)
                    .filter(|&w| {
                        reachable.contains(2 * w as usize)
                            && !reachable.contains(2 * w as usize + 1)
                    })
                    .collect(),
            )
        };
        self.net.reset();
        (flow, answer)
    }
}

fn complete(n: usize) -> UndirectedGraph {
    let edges = (0..n as VertexId).flat_map(|i| ((i + 1)..n as VertexId).map(move |j| (i, j)));
    UndirectedGraph::from_edges(n, edges).unwrap()
}

/// The inputs, in an order whose sizes grow and shrink.
fn inputs() -> Vec<(String, UndirectedGraph)> {
    let planted = planted_communities(&PlantedConfig {
        num_communities: 4,
        chain_length: 2,
        community_size: (8, 10),
        background_vertices: 120,
        seed: 77,
        ..PlantedConfig::default()
    });
    let collab = collaboration_graph(&CollaborationConfig {
        num_groups: 4,
        group_size: (6, 8),
        pendant_collaborators: 8,
        ..CollaborationConfig::default()
    });
    let mut graphs = vec![
        ("planted".to_string(), planted.graph),
        ("K6".to_string(), complete(6)),
        ("figure1".to_string(), figure1_graph().graph),
        ("collaboration".to_string(), collab.graph),
        ("K12".to_string(), complete(12)),
        ("grid".to_string(), grid(6, 6)),
    ];
    for (seed, n) in [(0u64, 20usize), (1, 40), (2, 90)] {
        graphs.push((format!("gnp-{seed}"), gnp(n, 6.0 / n as f64, 0xF1 ^ seed)));
        graphs.push((format!("ba-{seed}"), barabasi_albert(n, 3, 0xBA ^ seed)));
    }
    // Sparse enough that later phases reroute units routed earlier, through
    // reversed adjacency and vertex arcs.
    for seed in 0..4u64 {
        graphs.push((format!("sparse-gnp-{seed}"), gnp(36, 0.09, 0x55 ^ seed)));
    }
    graphs
}

/// The `w` × `h` grid graph, row by row.
fn grid(w: u32, h: u32) -> UndirectedGraph {
    let mut edges = Vec::new();
    for v in 0..w * h {
        if v % w + 1 < w {
            edges.push((v, v + 1));
        }
        if v + w < w * h {
            edges.push((v, v + w));
        }
    }
    UndirectedGraph::from_edges((w * h) as usize, edges).unwrap()
}

/// Every ordered non-adjacent pair, or a seeded sample of 400 of them on
/// graphs above 60 vertices.
fn pairs(g: &UndirectedGraph, seed: u64) -> Vec<(VertexId, VertexId)> {
    let all: Vec<(VertexId, VertexId)> = g
        .vertices()
        .flat_map(|u| g.vertices().map(move |v| (u, v)))
        .filter(|&(u, v)| u != v && !g.has_edge(u, v))
        .collect();
    if g.num_vertices() <= 60 {
        return all;
    }
    let mut state = seed | 1;
    (0..400)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            all[(state % all.len() as u64) as usize]
        })
        .collect()
}

#[test]
fn arena_probes_match_the_materialised_reference() {
    let mut arena = VertexFlowGraph::empty();
    let expired = Budget::with_timeout(Duration::ZERO);
    let mut compared = 0usize;
    for (i, (name, g)) in inputs().into_iter().enumerate() {
        arena.rebuild(&g);
        let mut reference = Reference::build(&g);
        let n = g.num_vertices() as u32;
        for (u, v) in pairs(&g, 0x9E37 + i as u64) {
            // Interrupted probes first: the clean ones below must find no
            // flow left behind. The short deadline stops a probe before its
            // first phase or, timing allowing, after some.
            assert_eq!(
                arena.local_connectivity_budgeted(u, v, n, &expired),
                Err(Interrupted)
            );
            let short = Budget::with_timeout(Duration::from_micros(5));
            let early = arena.local_connectivity_budgeted(u, v, n, &short);
            for k in [1, 2, 3, 5, n] {
                let (value, expected) = reference.probe(u, v, k);
                assert_eq!(
                    arena.local_connectivity_nonadjacent(u, v, k),
                    expected,
                    "{name}: LOC-CUT({u}, {v}) at k = {k}"
                );
                assert_eq!(
                    arena.max_flow_value(u, v, k),
                    value,
                    "{name}: flow {u} -> {v}, limit {k}"
                );
                assert_eq!(
                    arena.has_connectivity_at_least(u, v, k),
                    value >= k,
                    "{name}: boolean probe {u} -> {v}, k = {k}"
                );
                if k == n {
                    if let Ok(answer) = &early {
                        assert_eq!(answer, &expected, "{name}: {u} -> {v} under a deadline");
                    }
                }
                compared += 1;
            }
        }
    }
    assert!(compared > 10_000, "only {compared} probes compared");
}

/// Every vertex of a graph of at most 60 vertices, else `count` distinct
/// vertices drawn by a seeded generator.
fn sources(g: &UndirectedGraph, count: usize, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices() as u64;
    if n <= 60 {
        return g.vertices().collect();
    }
    let mut state = seed | 1;
    let mut picked = Vec::new();
    while picked.len() < count {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let s = (state % n) as VertexId;
        if !picked.contains(&s) {
            picked.push(s);
        }
    }
    picked
}

#[test]
fn fixed_source_probes_match_the_materialised_reference() {
    // One arena for every input, fixed at each source in turn: every
    // non-adjacent sink, every limit, with interrupted probes from the fixed
    // source before the clean ones.
    let mut arena = VertexFlowGraph::empty();
    let expired = Budget::with_timeout(Duration::ZERO);
    let mut compared = 0usize;
    for (i, (name, g)) in inputs().into_iter().enumerate() {
        arena.rebuild(&g);
        let mut reference = Reference::build(&g);
        let n = g.num_vertices() as u32;
        for u in sources(&g, 6, 0x50C + i as u64) {
            arena.fix_source(u);
            let sinks: Vec<VertexId> = g
                .vertices()
                .filter(|&v| v != u && !g.has_edge(u, v))
                .collect();
            for &v in &sinks {
                // Interrupted before the first unit, and perhaps after some.
                assert_eq!(
                    arena.local_connectivity_budgeted(u, v, n, &expired),
                    Err(Interrupted),
                    "{name}: {u} -> {v}"
                );
                let short = Budget::with_timeout(Duration::from_micros(5));
                let early = arena.local_connectivity_budgeted(u, v, n, &short);
                for k in [1, 2, 3, 5, n] {
                    let (value, expected) = reference.probe(u, v, k);
                    if k == n {
                        if let Ok(answer) = &early {
                            assert_eq!(answer, &expected, "{name}: {u} -> {v} under a deadline");
                        }
                    }
                    assert_eq!(
                        arena.local_connectivity_nonadjacent(u, v, k),
                        expected,
                        "{name}: fixed-source LOC-CUT({u}, {v}) at k = {k}"
                    );
                    assert_eq!(
                        arena.max_flow_value(u, v, k),
                        value,
                        "{name}: fixed-source flow {u} -> {v}, limit {k}"
                    );
                    assert_eq!(
                        arena.has_connectivity_at_least(u, v, k),
                        value >= k,
                        "{name}: fixed-source boolean probe {u} -> {v}, k = {k}"
                    );
                    compared += 1;
                }
            }
            // A probe from another source between two fixed-source probes
            // runs the Dinic phases and leaves the labels alone.
            if let Some(&v) = sinks.first() {
                if let Some(w) = g
                    .vertices()
                    .find(|&w| w != u && w != v && !g.has_edge(w, v))
                {
                    let (value, _) = reference.probe(w, v, n);
                    assert_eq!(arena.max_flow_value(w, v, n), value, "{name}: {w} -> {v}");
                }
                let (value, expected) = reference.probe(u, v, n);
                assert_eq!(arena.local_connectivity_nonadjacent(u, v, n), expected);
                assert_eq!(arena.max_flow_value(u, v, n), value, "{name}: {u} -> {v}");
            }
        }
    }
    assert!(compared > 10_000, "only {compared} probes compared");
}

#[test]
fn fixed_source_labels_do_not_outlive_their_graph() {
    // Vertex 0 is fixed and labelled last on each graph and fixed first on
    // the next, after a rebuild onto a smaller and then a larger graph. The
    // first graph leaves most vertices unlabelled (0 lies on a 6-cycle apart
    // from a 5 × 5 grid), so a label that outlived its graph would hide
    // vertices from the next one's probes; past the smaller graph's end the
    // buffers still hold the first graph's labels.
    let mut edges: Vec<(VertexId, VertexId)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    edges.extend(grid(5, 5).edges().map(|(a, b)| (a + 6, b + 6)));
    let apart = UndirectedGraph::from_edges(31, edges).unwrap();
    let small = grid(4, 5);
    let larger = grid(9, 9);
    let mut arena = VertexFlowGraph::empty();
    for g in [&apart, &small, &larger, &small, &apart] {
        arena.rebuild(g);
        let mut reference = Reference::build(g);
        let n = g.num_vertices() as u32;
        for u in [0, n / 2, n - 1, 0] {
            arena.fix_source(u);
            for v in g.vertices().filter(|&v| v != u && !g.has_edge(u, v)) {
                for k in [2, n] {
                    let (value, expected) = reference.probe(u, v, k);
                    assert_eq!(arena.local_connectivity_nonadjacent(u, v, k), expected);
                    assert_eq!(arena.max_flow_value(u, v, k), value, "{u} -> {v}");
                }
            }
        }
    }
}

#[test]
fn one_arena_serves_growing_and_shrinking_graphs() {
    // K_n minus a perfect matching, for n = 4, 8, .., 40 and back down to 4,
    // with an interrupted probe before each clean one. A matched pair
    // (0, 1) is separated exactly by the other n - 2 vertices.
    let mut arena = VertexFlowGraph::empty();
    let expired = Budget::with_timeout(Duration::ZERO);
    for n in [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 36, 28, 20, 12, 4] {
        let edges = complete(n)
            .edges()
            .filter(|&(a, b)| !(a % 2 == 0 && b == a + 1))
            .collect::<Vec<_>>();
        let g = UndirectedGraph::from_edges(n, edges).unwrap();
        arena.rebuild(&g);
        let mut reference = Reference::build(&g);
        let k = n as u32 - 1;
        assert_eq!(
            arena.local_connectivity_budgeted(0, 1, k, &expired),
            Err(Interrupted),
            "K{n}"
        );
        let (value, expected) = reference.probe(0, 1, k);
        assert_eq!(value, n as u32 - 2, "K{n}");
        assert_eq!(
            expected,
            LocalConnectivity::Cut((2..n as VertexId).collect()),
            "K{n}"
        );
        assert_eq!(arena.local_connectivity_nonadjacent(0, 1, k), expected);
        assert_eq!(arena.max_flow_value(0, 1, u32::MAX), n as u32 - 2);
        // Adjacent pairs answer without a flow (Lemma 5).
        assert_eq!(arena.max_flow_value(0, 2, u32::MAX), u32::MAX);
        assert!(arena.has_connectivity_at_least(0, 2, u32::MAX));
    }
}
