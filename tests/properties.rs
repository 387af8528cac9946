//! Property-style tests over seeded random graphs: the enumerator's output
//! always verifies, matches the brute-force oracle on tiny inputs, and the
//! supporting substrates (certificate, connectivity, partition) uphold their
//! invariants.
//!
//! The original seed used `proptest`, which is unavailable in the offline
//! build environment; the same properties are checked here over deterministic
//! families of Erdős–Rényi graphs from `kvcc-datasets`, so failures are
//! trivially reproducible from the printed seed.

use std::collections::VecDeque;

use kvcc::certificate::sparse_certificate;
use kvcc::partition::overlap_partition;
use kvcc::verify::verify_kvccs;
use kvcc::{enumerate_kvccs, KvccOptions};
use kvcc_baselines::naive_kvccs;
use kvcc_datasets::er::gnm;
use kvcc_flow::{global_vertex_connectivity, is_k_vertex_connected};
use kvcc_graph::kcore::{k_core_components, k_core_vertices, split_k_core};
use kvcc_graph::traversal::{
    bfs_distances, connected_component_ids, connected_components, connected_components_filtered,
    UNREACHABLE,
};
use kvcc_graph::{
    BitSet, CsrGraph, DeltaGraph, EdgeUpdate, GraphView, SubgraphView, UndirectedGraph, VertexId,
};

/// Deterministic family of random graphs: for case `i`, an Erdős–Rényi
/// `G(n, m)` with `n` and `m` derived from the seed.
fn random_graph(case: u64, max_n: usize, max_edges: usize) -> UndirectedGraph {
    let n = 2 + (case as usize * 7 + 3) % (max_n - 1);
    let m = (case as usize * 13 + 5) % (max_edges + 1);
    gnm(n, m, 0xC0FFEE ^ case)
}

#[test]
fn enumeration_matches_the_oracle_on_tiny_graphs() {
    for case in 0..48u64 {
        let g = random_graph(case, 10, 24);
        for k in 1u32..=4 {
            let expected = naive_kvccs(&g, k);
            let result = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            let mut got: Vec<Vec<VertexId>> =
                result.iter().map(|c| c.vertices().to_vec()).collect();
            got.sort();
            assert_eq!(got, expected, "case {case}, k {k}");
        }
    }
}

#[test]
fn enumeration_output_always_verifies() {
    for case in 0..24u64 {
        let g = random_graph(case, 40, 220);
        for k in 2u32..=5 {
            let result = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert!(
                verify_kvccs(&g, &result, true).is_ok(),
                "case {case}, k {k}: verification failed"
            );
            // Theorem 6 bound.
            assert!(result.num_components() <= g.num_vertices() / 2);
        }
    }
}

#[test]
fn all_variants_agree_on_random_graphs() {
    for case in 0..24u64 {
        let g = random_graph(case, 24, 100);
        for k in 2u32..=4 {
            let reference = enumerate_kvccs(&g, k, &KvccOptions::basic()).unwrap();
            let reference: Vec<_> = reference.iter().map(|c| c.vertices().to_vec()).collect();
            for variant in kvcc::AlgorithmVariant::all() {
                let r = enumerate_kvccs(&g, k, &KvccOptions::for_variant(variant)).unwrap();
                let got: Vec<_> = r.iter().map(|c| c.vertices().to_vec()).collect();
                assert_eq!(got, reference, "case {case}, k {k}, variant {variant:?}");
            }
        }
    }
}

#[test]
fn certificate_preserves_connectivity_up_to_k() {
    for case in 0..24u64 {
        let g = random_graph(case, 16, 60);
        for k in 1u32..=4 {
            let cert = sparse_certificate(&g, k);
            assert!(
                cert.num_edges() <= k as usize * g.num_vertices().saturating_sub(1).max(1),
                "case {case}, k {k}"
            );
            // The certificate is k-connected exactly when the graph is.
            assert_eq!(
                is_k_vertex_connected(&cert.graph, k),
                is_k_vertex_connected(&g, k),
                "case {case}, k {k}"
            );
            // More precisely, connectivity is preserved up to k.
            let kg = global_vertex_connectivity(&g).min(k);
            let kc = global_vertex_connectivity(&cert.graph).min(k);
            assert_eq!(kg, kc, "case {case}, k {k}");
        }
    }
}

/// The k-core by its definition: deletes any alive vertex with fewer than
/// `k` alive neighbours until none is left. Returns the survivors, sorted.
fn naive_k_core<G: GraphView>(g: &G, k: usize, alive: &[VertexId]) -> Vec<VertexId> {
    let mut in_core = vec![false; g.num_vertices()];
    for &v in alive {
        in_core[v as usize] = true;
    }
    let alive_degree = |in_core: &[bool], v: VertexId| {
        let row = g.neighbors(v).iter();
        row.filter(|&&w| in_core[w as usize]).count()
    };
    while let Some(v) = g
        .vertices()
        .find(|&v| in_core[v as usize] && alive_degree(&in_core, v) < k)
    {
        in_core[v as usize] = false;
    }
    g.vertices().filter(|&v| in_core[v as usize]).collect()
}

/// The k-core split by its definition: [`naive_k_core`], then a plain BFS
/// over what is left ([`reference_components_filtered`]).
fn naive_k_core_split<G: GraphView>(g: &G, k: usize, alive: &[VertexId]) -> Vec<Vec<VertexId>> {
    let mut core = BitSet::new(g.num_vertices());
    for v in naive_k_core(g, k, alive) {
        core.insert(v as usize);
    }
    reference_components_filtered(g, &core)
}

/// The one peel loop (through `SubgraphView::k_core_reduce`, and through
/// `k_core_vertices` on a full mask) and the one split (`split_k_core`, and
/// `k_core_components` on a full mask) against their definitions, on the
/// view of `g` whose alive vertices are `alive` (sorted, no duplicates).
fn assert_peel_and_split<G: GraphView>(name: &str, g: &G, alive: &[VertexId], k: usize) {
    let expected = naive_k_core(g, k, alive);
    let mut view = SubgraphView::from_vertices(g, alive);
    let removed = view.k_core_reduce(k);
    let survivors: Vec<VertexId> = g.vertices().filter(|&v| view.is_alive(v)).collect();
    assert_eq!(survivors, expected, "{name}, k {k}: peel");
    assert_eq!(
        removed,
        alive.len() - expected.len(),
        "{name}, k {k}: removed"
    );
    assert_eq!(view.live(), expected.len(), "{name}, k {k}: live");
    assert_eq!(
        view.k_core_reduce(k),
        0,
        "{name}, k {k}: a k-core peels nothing"
    );

    let split = split_k_core(&mut SubgraphView::from_vertices(g, alive), k);
    assert_eq!(
        split,
        naive_k_core_split(g, k, alive),
        "{name}, k {k}: split"
    );
    assert!(split.iter().all(|c| c.len() > k), "{name}, k {k}: size");
    if alive.len() == g.num_vertices() {
        assert_eq!(k_core_vertices(g, k), expected, "{name}, k {k}: full peel");
        assert_eq!(k_core_components(g, k), split, "{name}, k {k}: full split");
    }
}

#[test]
fn k_core_peel_of_a_view_matches_the_k_core() {
    for case in 0..32u64 {
        let g = random_graph(case, 40, 220);
        // Every third vertex removed before peeling: the view whose degrees
        // must be counted over alive neighbours only.
        let removed: Vec<VertexId> = g.vertices().filter(|v| v % 3 == 1).collect();
        let kept: Vec<VertexId> = g.vertices().filter(|v| v % 3 != 1).collect();
        let every: Vec<VertexId> = g.vertices().collect();
        let sub = g.induced_subgraph(&kept);
        for k in 0..=g.max_degree() + 1 {
            let mut full = SubgraphView::new(&g);
            let peeled = full.k_core_reduce(k);
            let alive: Vec<VertexId> = g.vertices().filter(|&v| full.is_alive(v)).collect();
            assert_eq!(
                alive,
                k_core_vertices(&g, k),
                "case {case}, k {k}, full view"
            );
            assert_eq!(alive, naive_k_core(&g, k, &every), "case {case}, k {k}");
            assert_eq!(peeled + alive.len(), g.num_vertices(), "case {case}, k {k}");

            let mut partial = SubgraphView::new(&g);
            for &v in &removed {
                partial.remove(v);
            }
            partial.k_core_reduce(k);
            let alive: Vec<VertexId> = g.vertices().filter(|&v| partial.is_alive(v)).collect();
            let expected: Vec<VertexId> = k_core_vertices(&sub.graph, k)
                .into_iter()
                .map(|v| sub.to_parent[v as usize])
                .collect();
            assert_eq!(alive, expected, "case {case}, k {k}, partial view");
            assert_eq!(alive, naive_k_core(&g, k, &kept), "case {case}, k {k}");
        }

        // Random masks, on the graph and on a DeltaGraph over a different
        // base with the same edges.
        let delta = rebased(&g);
        let draw = |salt: u64, keep_in_four: u64| -> Vec<VertexId> {
            let mut rng = case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            g.vertices()
                .filter(|_| {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (rng >> 33) % 4 < keep_in_four
                })
                .collect()
        };
        let masks = [
            ("full", every.clone()),
            ("every third missing", kept.clone()),
            ("random half", draw(1, 2)),
            ("random three quarters", draw(2, 3)),
            ("random quarter", draw(3, 1)),
        ];
        for (mask, alive) in &masks {
            for k in 0..=6 {
                assert_peel_and_split(&format!("case {case}, {mask} (csr)"), &g, alive, k);
                assert_peel_and_split(&format!("case {case}, {mask} (delta)"), &delta, alive, k);
            }
        }
    }
}

#[test]
fn overlap_partition_preserves_all_non_cut_edges() {
    for case in 0..32u64 {
        let g = random_graph(case, 20, 80);
        for cut_size in 0usize..=3 {
            // Use the lowest `cut_size` vertex ids as a (possibly
            // non-separating) "cut" and check the partition invariants of
            // Lemma 8.
            let cut: Vec<VertexId> = (0..cut_size.min(g.num_vertices()) as VertexId).collect();
            let parts = overlap_partition(&g, &cut);
            // Every part contains the whole cut.
            for part in &parts {
                for c in &cut {
                    assert!(part.contains(c), "case {case}, cut {cut:?}");
                }
            }
            // Every vertex outside the cut appears in exactly one part.
            let mut seen = vec![0usize; g.num_vertices()];
            for part in &parts {
                for &v in part {
                    seen[v as usize] += 1;
                }
            }
            for (v, &count) in seen.iter().enumerate() {
                let v = v as VertexId;
                let expected = if cut.contains(&v) { parts.len() } else { 1 };
                if parts.is_empty() {
                    assert!(cut.contains(&v) || g.num_vertices() == cut.len());
                } else {
                    assert_eq!(count, expected, "case {case}, vertex {v}");
                }
            }
            // Every edge of g appears in at least one part unless it touches
            // the cut (removed vertices take their edges with them).
            for (a, b) in g.edges() {
                let covered = parts.iter().any(|p| p.contains(&a) && p.contains(&b));
                let touches_cut = cut.contains(&a) || cut.contains(&b);
                assert!(covered || touches_cut || parts.is_empty(), "case {case}");
            }
        }
    }
}

#[test]
fn every_reported_component_is_k_connected_even_with_ablation() {
    for case in 0..16u64 {
        let g = random_graph(case, 30, 140);
        for k in 2u32..=4 {
            let options = KvccOptions {
                max_degree_for_side_vertex_check: Some(0),
                ..KvccOptions::default()
            };
            let result = enumerate_kvccs(&g, k, &options).unwrap();
            for comp in result.iter() {
                let sub = comp.induced_subgraph(&g);
                assert!(
                    is_k_vertex_connected(&sub.graph, k),
                    "case {case}, k {k}: component not k-connected"
                );
            }
        }
    }
}

/// The masked component search the labelling kernel replaced, kept verbatim
/// apart from its name: a `VecDeque`, a visited bitmap and a sort per
/// component.
fn reference_components_filtered<G: GraphView>(g: &G, alive: &BitSet) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut seen = BitSet::new(n);
    let mut comps = Vec::new();
    let mut queue = VecDeque::new();
    for start in alive.iter_ones() {
        if seen.contains(start) {
            continue;
        }
        let mut component = Vec::new();
        seen.insert(start);
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            component.push(u);
            for &v in g.neighbors(u) {
                if alive.contains(v as usize) && seen.insert(v as usize) {
                    queue.push_back(v);
                }
            }
        }
        component.sort_unstable();
        comps.push(component);
    }
    comps
}

/// The component ids the labelling kernel replaced, kept verbatim apart
/// from its name.
fn reference_component_ids<G: GraphView>(g: &G) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = count;
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// The BFS distances the array queue replaced, kept verbatim apart from its
/// name.
fn reference_bfs_distances<G: GraphView>(g: &G, src: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// A [`DeltaGraph`] with exactly the edge set of `g`, over a different base
/// when `g` has an edge or two vertices: the base lacks every third edge of
/// `g` and holds the pairs `(v, v + 1 mod n)` that `g` lacks, and the
/// overlay inserts the former and deletes the latter.
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

/// The traversal kernels on one graph: components under four alive masks,
/// component ids and BFS distances against the references, and the
/// whole-graph extraction against a row copy at exact capacity.
fn assert_traversal_parity<G: GraphView>(name: &str, g: &G, case: u64) {
    let n = g.num_vertices();
    // Random membership from a splitmix64 stream keyed by the case.
    let coin = |v: usize| {
        let mut z = (case << 32 ^ v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    };
    let mask = |alive: &dyn Fn(usize) -> bool| {
        let mut mask = BitSet::new(n);
        for v in (0..n).filter(|&v| alive(v)) {
            mask.insert(v);
        }
        mask
    };
    let masks = [
        ("empty", mask(&|_| false)),
        ("full", mask(&|_| true)),
        ("every third missing", mask(&|v| v % 3 != 2)),
        ("random", mask(&coin)),
    ];
    for (mask, alive) in &masks {
        assert_eq!(
            connected_components_filtered(g, alive),
            reference_components_filtered(g, alive),
            "{name}: {mask} mask"
        );
    }
    let ids = reference_component_ids(g);
    assert_eq!(connected_component_ids(g), ids, "{name}: component ids");
    let mut lists: Vec<Vec<VertexId>> = vec![Vec::new(); ids.1];
    for (v, &c) in ids.0.iter().enumerate() {
        lists[c as usize].push(v as VertexId);
    }
    assert_eq!(connected_components(g), lists, "{name}: components");
    for src in [0, n / 2, n.saturating_sub(1)] {
        if src < n {
            let src = src as VertexId;
            assert_eq!(
                bfs_distances(g, src),
                reference_bfs_distances(g, src),
                "{name}: distances from {src}"
            );
        }
    }

    let every: Vec<VertexId> = g.vertices().collect();
    let mut map = Vec::new();
    let copy = CsrGraph::extract_induced(g, &every, &mut map);
    let rows = CsrGraph::from_view(g);
    assert_eq!(copy, rows, "{name}: whole-graph extraction");
    let exact =
        (n + 1 + 2 * g.num_edges()) * std::mem::size_of::<u32>() + std::mem::size_of::<CsrGraph>();
    assert_eq!(copy.memory_bytes(), exact, "{name}: extraction capacity");
    assert_eq!(rows.memory_bytes(), exact, "{name}: row copy capacity");
}

#[test]
fn traversal_kernels_match_the_queue_and_bitmap_search() {
    // Sparse draws leave many components and isolated vertices; dense ones
    // leave one.
    for case in 0..40u64 {
        let n = 1 + (case as usize * 37) % 160;
        let m = (case as usize * 53) % (2 * n + 1);
        let g = gnm(n, m, 0x7A5E ^ case);
        assert_traversal_parity(&format!("gnm({n}, {m}) (csr)"), &g, case);
        assert_traversal_parity(&format!("gnm({n}, {m}) (delta)"), &rebased(&g), case);
    }
    for case in 0..8u64 {
        let g = random_graph(case, 40, 220);
        assert_traversal_parity(&format!("random case {case}"), &g, case);
    }
    let empty = UndirectedGraph::new(0);
    assert_traversal_parity("empty", &empty, 0);
    assert_traversal_parity("edgeless", &UndirectedGraph::new(9), 1);
}
