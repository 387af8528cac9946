//! Compile-time genericity check: every public entry point of `kvcc` (core)
//! and `kvcc-baselines` must be generic over [`GraphView`], not tied to one
//! concrete graph type.
//!
//! The test *instantiates* each entry point with a [`CsrGraph`] argument, so
//! a regression to a parameter of any other concrete type fails to compile
//! rather than waiting for a runtime suite. [`UndirectedGraph`] is an alias
//! of [`CsrGraph`], so `result_components_slice_any_view` now slices two
//! equal CSR graphs. The small runtime assertions only sanity-check that the
//! instantiations returned plausible answers.

use kvcc::global_cut::{global_cut_with_scratch, CutScratch};
use kvcc::{enumerate_kvccs, kvccs_containing, ConnectivityIndex, KvccEnumerator, KvccOptions};
use kvcc_graph::{CsrGraph, UndirectedGraph};

use kvcc_baselines::{
    biconnected_components, global_min_edge_cut, k_core_components, k_edge_connected_components,
    k_truss_components, naive_kvccs,
};

/// Two triangles sharing vertex 2, as CSR.
fn csr() -> CsrGraph {
    CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap()
}

#[test]
fn core_entry_points_accept_csr() {
    let g = csr();
    let options = KvccOptions::default();

    let enumerated = enumerate_kvccs(&g, 2, &options).unwrap();
    assert_eq!(enumerated.num_components(), 2);

    let via_enumerator = KvccEnumerator::new(options.clone()).run(&g, 2).unwrap();
    assert_eq!(via_enumerator.components(), enumerated.components());

    let query = kvccs_containing(&g, 2, 2, &options).unwrap();
    assert_eq!(query.len(), 2);

    let index = ConnectivityIndex::build(&g, None, &options).unwrap();
    assert_eq!(index.max_k(), 2);
    assert_eq!(index.components_at(2), enumerated.components());

    kvcc::verify::verify_kvccs(&g, &enumerated, true).unwrap();

    let certificate = kvcc::certificate::sparse_certificate(&g, 2);
    assert!(certificate.num_edges() <= 2 * (g.num_vertices() - 1));

    let mut stats = kvcc::stats::EnumerationStats::default();
    let mut scratch = CutScratch::new();
    let outcome = global_cut_with_scratch(&g, 2, &options, &mut stats, &mut scratch)
        .expect("an unlimited budget never interrupts");
    assert_eq!(outcome.cut, Some(vec![2]));

    let sides = kvcc::side_vertex::strong_side_vertices(&g, 2, None);
    assert_eq!(sides.len(), g.num_vertices());

    let parts = kvcc::partition::overlap_partition(&g, &[2]);
    assert_eq!(parts.len(), 2);
}

#[test]
fn baseline_entry_points_accept_csr() {
    let g = csr();

    assert_eq!(naive_kvccs(&g, 2), vec![vec![0, 1, 2], vec![2, 3, 4]]);
    assert_eq!(k_edge_connected_components(&g, 2).len(), 1);
    assert_eq!(biconnected_components(&g).len(), 2);
    assert_eq!(k_core_components(&g, 2).len(), 1);
    assert!(!k_truss_components(&g, 3).is_empty());
    let cut = global_min_edge_cut(&g, None).unwrap();
    assert!(cut.weight >= 1);
}

#[test]
fn result_components_slice_any_view() {
    // The component type itself must also slice out of any representation.
    let vec_graph =
        UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .unwrap();
    let g = csr();
    let result = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
    for comp in result.iter() {
        let from_csr = comp.induced_subgraph(&g);
        let from_vec = comp.induced_subgraph(&vec_graph);
        assert_eq!(from_csr.graph, from_vec.graph);
        assert_eq!(from_csr.to_parent, from_vec.to_parent);
    }
}
