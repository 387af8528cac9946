//! Substrate- and scheduling-parity properties over random graphs.
//!
//! On deterministic families of Erdős–Rényi and Barabási–Albert graphs from
//! `kvcc-datasets`, a generated CSR graph and a [`DeltaGraph`] with the same
//! edge set over a different base have to produce identical structure,
//! k-core, connected-component and k-VCC output (with identical work
//! counters) for k ∈ {2, 3, 4}, and the parallel `KVCC-ENUM` worklist has to
//! return exactly the sequential component sets with consistent statistics
//! counters. The `csr_and_vec_*` names are historical: [`UndirectedGraph`]
//! is an alias of [`CsrGraph`], and the second side of those tests is now
//! the delta view an index repair reads.

use kvcc::{enumerate_kvccs, KvccOptions};
use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::er::gnm;
use kvcc_graph::kcore::{core_numbers, k_core_vertices};
use kvcc_graph::traversal::{connected_component_ids, connected_components};
use kvcc_graph::{CsrGraph, DeltaGraph, EdgeUpdate, GraphView, UndirectedGraph, VertexId};

/// The deterministic random-graph family the parity checks run over.
fn graph_family() -> Vec<(String, UndirectedGraph)> {
    let mut graphs = Vec::new();
    for seed in 0..6u64 {
        let n = 30 + seed as usize * 17;
        let m = 2 * n + seed as usize * 23;
        graphs.push((format!("er-{seed}"), gnm(n, m, 0xE5 ^ seed)));
        graphs.push((format!("ba-{seed}"), barabasi_albert(n, 3, 0xBA ^ seed)));
    }
    graphs
}

/// A [`DeltaGraph`] with exactly the edge set of `g`, over a different
/// base: the base lacks every third edge of `g` and holds the pairs
/// `(v, v + 1 mod n)` that `g` lacks, and the overlay inserts the former and
/// deletes the latter.
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
    assert_ne!(&base, g, "the base must differ from g");
    let mut delta = DeltaGraph::new(base);
    delta.apply(&updates).unwrap();
    delta
}

#[test]
fn csr_and_vec_views_agree_on_basic_structure() {
    for (name, g) in graph_family() {
        let delta = rebased(&g);
        assert_eq!(delta.num_vertices(), g.num_vertices(), "{name}");
        assert_eq!(delta.num_edges(), g.num_edges(), "{name}");
        for v in g.vertices() {
            assert_eq!(delta.neighbors(v), g.neighbors(v), "{name}, vertex {v}");
        }
        assert_eq!(GraphView::edges(&delta).count(), g.num_edges(), "{name}");
    }
}

#[test]
fn csr_and_vec_produce_identical_kcores_and_components() {
    for (name, g) in graph_family() {
        let delta = rebased(&g);
        assert_eq!(
            core_numbers(&g),
            core_numbers(&delta),
            "{name}: core numbers"
        );
        assert_eq!(
            connected_components(&g),
            connected_components(&delta),
            "{name}: components"
        );
        let (ids_vec, count_vec) = connected_component_ids(&g);
        let (ids_delta, count_delta) = connected_component_ids(&delta);
        assert_eq!(
            (ids_vec, count_vec),
            (ids_delta, count_delta),
            "{name}: component ids"
        );
        for k in 2usize..=4 {
            assert_eq!(
                k_core_vertices(&g, k),
                k_core_vertices(&delta, k),
                "{name}: {k}-core"
            );
        }
    }
}

#[test]
fn csr_and_vec_produce_identical_kvccs() {
    for (name, g) in graph_family() {
        let delta = rebased(&g);
        for k in 2u32..=4 {
            let a = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            let b = enumerate_kvccs(&delta, k, &KvccOptions::default()).unwrap();
            assert_eq!(a.components(), b.components(), "{name}, k {k}");
            // The internal work is identical too, not just the output.
            assert_eq!(
                a.stats().global_cut_calls,
                b.stats().global_cut_calls,
                "{name}, k {k}"
            );
            assert_eq!(a.stats().partitions, b.stats().partitions, "{name}, k {k}");
            assert_eq!(
                a.stats().loc_cut_flow_calls,
                b.stats().loc_cut_flow_calls,
                "{name}, k {k}"
            );
        }
    }
}

#[test]
fn parallel_enumeration_matches_sequential_exactly() {
    for (name, g) in graph_family() {
        for k in 2u32..=4 {
            let sequential = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            for threads in [2usize, 3, 8] {
                let opts = KvccOptions::default().with_threads(threads);
                let parallel = enumerate_kvccs(&g, k, &opts).unwrap();
                assert_eq!(
                    parallel.components(),
                    sequential.components(),
                    "{name}, k {k}, {threads} threads: component sets differ"
                );
                // Every order-independent counter must match: the same work
                // items are processed no matter how they are scheduled.
                let s = sequential.stats();
                let p = parallel.stats();
                assert_eq!(p.global_cut_calls, s.global_cut_calls, "{name}, k {k}");
                assert_eq!(p.partitions, s.partitions, "{name}, k {k}");
                assert_eq!(
                    p.kcore_removed_vertices, s.kcore_removed_vertices,
                    "{name}, k {k}"
                );
                assert_eq!(p.loc_cut_flow_calls, s.loc_cut_flow_calls, "{name}, k {k}");
                assert_eq!(
                    p.loc_cut_trivial_calls, s.loc_cut_trivial_calls,
                    "{name}, k {k}"
                );
                assert_eq!(p.tested_vertices, s.tested_vertices, "{name}, k {k}");
                assert_eq!(p.certificate_edges, s.certificate_edges, "{name}, k {k}");
                assert_eq!(p.fallback_recuts, s.fallback_recuts, "{name}, k {k}");
                if !sequential.components().is_empty() {
                    assert!(p.peak_memory_bytes > 0, "{name}, k {k}");
                }
            }
        }
    }
}
