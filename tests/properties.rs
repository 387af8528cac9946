//! Property-style tests over seeded random graphs: the enumerator's output
//! always verifies, matches the brute-force oracle on tiny inputs, and the
//! supporting substrates (certificate, connectivity, partition) uphold their
//! invariants.
//!
//! The original seed used `proptest`, which is unavailable in the offline
//! build environment; the same properties are checked here over deterministic
//! families of Erdős–Rényi graphs from `kvcc-datasets`, so failures are
//! trivially reproducible from the printed seed.

use kvcc::certificate::sparse_certificate;
use kvcc::partition::overlap_partition;
use kvcc::verify::verify_kvccs;
use kvcc::{enumerate_kvccs, KvccOptions};
use kvcc_baselines::naive_kvccs;
use kvcc_datasets::er::gnm;
use kvcc_flow::{global_vertex_connectivity, is_k_vertex_connected};
use kvcc_graph::kcore::k_core_vertices;
use kvcc_graph::{GraphView, SubgraphView, UndirectedGraph, VertexId};

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

#[test]
fn k_core_peel_of_a_view_matches_the_k_core() {
    for case in 0..32u64 {
        let g = random_graph(case, 40, 220);
        // Every third vertex removed before peeling: the view whose degrees
        // must be counted over alive neighbours only.
        let removed: Vec<VertexId> = g.vertices().filter(|v| v % 3 == 1).collect();
        let kept: Vec<VertexId> = g.vertices().filter(|v| v % 3 != 1).collect();
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
