//! The four algorithm variants (VCCE, VCCE-N, VCCE-G, VCCE*) and the ablation
//! switches must all produce identical component sets — only their running
//! time and pruning statistics may differ.

use kvcc::{enumerate_kvccs, AlgorithmVariant, KvccOptions};
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_datasets::suite::{SuiteDataset, SuiteScale};
use kvcc_graph::{UndirectedGraph, VertexId};

fn components_of(g: &UndirectedGraph, k: u32, options: &KvccOptions) -> Vec<Vec<VertexId>> {
    let result = enumerate_kvccs(g, k, options).expect("enumeration succeeds");
    let mut comps: Vec<Vec<VertexId>> = result.iter().map(|c| c.vertices().to_vec()).collect();
    comps.sort();
    comps
}

#[test]
fn variants_agree_on_every_suite_dataset() {
    for dataset in SuiteDataset::all() {
        let g = dataset.generate(SuiteScale::Tiny);
        for &k in &[4u32, 8, 12] {
            let reference = components_of(&g, k, &KvccOptions::basic());
            for variant in AlgorithmVariant::all() {
                let got = components_of(&g, k, &KvccOptions::for_variant(variant));
                assert_eq!(
                    got,
                    reference,
                    "{} k={k}: variant {variant:?} disagrees with VCCE",
                    dataset.name()
                );
            }
        }
    }
}

#[test]
fn variants_agree_on_planted_overlapping_chains() {
    let config = PlantedConfig {
        k: 6,
        num_communities: 8,
        community_size: (12, 18),
        overlap: 4,
        chain_length: 4,
        extra_intra_edges_per_vertex: 3,
        background_vertices: 400,
        background_edges_per_vertex: 3,
        attachment_edges_per_community: 4,
        seed: 777,
    };
    let planted = planted_communities(&config);
    for k in [4u32, 6, 7] {
        let reference = components_of(&planted.graph, k, &KvccOptions::basic());
        for variant in AlgorithmVariant::all() {
            let got = components_of(&planted.graph, k, &KvccOptions::for_variant(variant));
            assert_eq!(got, reference, "k={k}, variant {variant:?}");
        }
    }
}

#[test]
fn ablation_switches_do_not_change_results() {
    let g = SuiteDataset::Cit.generate(SuiteScale::Tiny);
    let k = 9u32;
    let reference = components_of(&g, k, &KvccOptions::default());

    let capped_ssv = KvccOptions {
        max_degree_for_side_vertex_check: Some(0),
        ..KvccOptions::default()
    };
    assert_eq!(
        components_of(&g, k, &capped_ssv),
        reference,
        "SSV degree-cap ablation"
    );
}

#[test]
fn sweeps_reduce_the_number_of_flow_computations() {
    // The whole point of VCCE*: fewer LOC-CUT flow calls than VCCE on a graph
    // with planted structure.
    let g = SuiteDataset::Google.generate(SuiteScale::Tiny);
    let k = 6u32;
    let basic = enumerate_kvccs(&g, k, &KvccOptions::basic()).unwrap();
    let full = enumerate_kvccs(&g, k, &KvccOptions::full()).unwrap();
    assert_eq!(
        basic.num_components(),
        full.num_components(),
        "variants must agree before comparing their cost"
    );
    assert!(
        full.stats().loc_cut_flow_calls < basic.stats().loc_cut_flow_calls,
        "VCCE* must issue fewer flow computations than VCCE ({} vs {})",
        full.stats().loc_cut_flow_calls,
        basic.stats().loc_cut_flow_calls
    );
    // And the sweeps must actually have fired.
    let swept = full.stats().pruned_neighbor_rule1
        + full.stats().pruned_neighbor_rule2
        + full.stats().pruned_group_sweep;
    assert!(swept > 0, "expected some vertices to be swept");
}
