//! Mutable-graph parity: incremental index maintenance vs full rebuilds.
//!
//! The contract under test is exact: after any batch of edge updates, the
//! index [`ConnectivityIndex::apply_updates`] returns must be
//! **byte-identical** (`to_bytes`) to an index built from scratch on the
//! post-update graph — across replayed seeded update streams on every
//! acceptance suite, on random-graph families and on every Table 1 stand-in
//! (under depth caps and thread counts), through targeted topology changes
//! (deletes that disconnect a component, inserts that merge two), through
//! wide batches that touch many hierarchy leaves at once, and through the
//! `KIDX` v3 epoch round trip. Single-edge updates inside one community must
//! repair only that community's chain of nodes. A service-level replay
//! asserts the same through the engine's atomic slot swap.

use kvcc::{ConnectivityIndex, KvccOptions};
use kvcc_graph::{CsrGraph, DeltaGraph, EdgeUpdate, GraphView, UndirectedGraph, VertexId};
use kvcc_service::{EngineConfig, QueryRequest, QueryResponse, ServiceEngine};

use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::diffs::{diff_stream, DiffStreamConfig};
use kvcc_datasets::er::gnp;
use kvcc_datasets::figure1::figure1_graph;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_datasets::{SuiteDataset, SuiteScale};

/// The three acceptance suites of the repository's test battery, each with
/// one of its communities (a planted block, the block `G1`, a research
/// group).
fn community_suites() -> Vec<(&'static str, UndirectedGraph, Vec<VertexId>)> {
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
    let figure1 = figure1_graph();
    vec![
        ("planted", planted.graph, planted.communities[0].clone()),
        ("figure1", figure1.graph, figure1.blocks[0].clone()),
        ("collaboration", collab.graph, collab.groups[0].clone()),
    ]
}

/// The three acceptance suites of the repository's test battery.
fn suites() -> Vec<(&'static str, UndirectedGraph)> {
    community_suites()
        .into_iter()
        .map(|(name, g, _)| (name, g))
        .collect()
}

/// Replays a seeded update stream over `g`, asserting after every batch that
/// the incrementally repaired index serialises byte-identically to a fresh
/// build on the post-batch graph.
fn assert_stream_parity(name: &str, g: &UndirectedGraph, config: &DiffStreamConfig) {
    let options = KvccOptions::default();
    let base = CsrGraph::from_view(g);
    let stream = diff_stream(&base, config);
    let mut live = ConnectivityIndex::build(&base, None, &options).unwrap();
    let mut rolling = DeltaGraph::new(base);
    for (i, batch) in stream.iter().enumerate() {
        rolling.apply(batch).unwrap();
        let snapshot = CsrGraph::from_view(&rolling);
        let report;
        (live, report) = live.apply_updates(&snapshot, batch, &options).unwrap();
        assert_eq!(report.epoch, (i + 1) as u64, "{name}: epoch counts batches");
        let mut fresh = ConnectivityIndex::build(&snapshot, None, &options).unwrap();
        fresh.set_epoch(live.epoch());
        assert_eq!(
            live.to_bytes(),
            fresh.to_bytes(),
            "{name}: batch {i} must repair byte-identically"
        );
    }
}

#[test]
fn incremental_repair_matches_full_rebuilds_on_all_suites() {
    for (name, g) in suites() {
        assert_stream_parity(
            name,
            &g,
            &DiffStreamConfig {
                batches: 5,
                batch_size: 8,
                delete_fraction: 0.4,
                locality: 0.0,
                seed: 0xA11CE,
            },
        );
    }
}

#[test]
fn incremental_repair_matches_full_rebuilds_on_random_families() {
    let er = gnp(140, 0.06, 11);
    let ba = barabasi_albert(160, 4, 13);
    for (name, g) in [("er", er), ("ba", ba)] {
        assert_stream_parity(
            name,
            &g,
            &DiffStreamConfig {
                batches: 4,
                batch_size: 10,
                delete_fraction: 0.45,
                locality: 0.0,
                seed: 0xBEEF,
            },
        );
    }
}

#[test]
fn localized_streams_on_disjoint_blocks_take_the_splice_path() {
    // Disjoint dense blocks with a pure triadic-closure stream: every update
    // stays inside one block, so each batch re-derives the roots it touches
    // and keeps every other block's subtree from the old forest (rule R1 of
    // the repair). The name predates the level-local repair; the case is
    // the block-local end of its range.
    let g = planted_communities(&PlantedConfig {
        num_communities: 12,
        chain_length: 1,
        overlap: 0,
        community_size: (10, 14),
        background_vertices: 0,
        attachment_edges_per_community: 0,
        seed: 9,
        ..PlantedConfig::default()
    })
    .graph;
    assert_stream_parity(
        "blocks",
        &g,
        &DiffStreamConfig {
            batches: 5,
            batch_size: 4,
            delete_fraction: 0.35,
            locality: 1.0,
            seed: 0x10CA1,
        },
    );
}

#[test]
fn wide_batches_touching_many_leaves_still_match() {
    // Batches wide enough to touch most communities at once: many chains
    // are re-derived in one pass, and parity must still hold.
    let (name, g) = suites().remove(0);
    assert_stream_parity(
        name,
        &g,
        &DiffStreamConfig {
            batches: 3,
            batch_size: 64,
            delete_fraction: 0.5,
            locality: 0.0,
            seed: 0x51DE,
        },
    );
}

#[test]
fn deletes_that_disconnect_a_component_repair_exactly() {
    // Two triangles joined by a single bridge edge: deleting the bridge
    // splits the level-1 component in two.
    let g = UndirectedGraph::from_edges(
        6,
        vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    )
    .unwrap();
    let options = KvccOptions::default();
    let live = ConnectivityIndex::build(&g, None, &options).unwrap();
    assert_eq!(live.components_at(1).len(), 1);

    let batch = [EdgeUpdate::delete(2, 3)];
    let after =
        UndirectedGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
            .unwrap();
    let (live, _) = live.apply_updates(&after, &batch, &options).unwrap();
    let mut fresh = ConnectivityIndex::build(&after, None, &options).unwrap();
    fresh.set_epoch(1);
    assert_eq!(live.to_bytes(), fresh.to_bytes());
    assert_eq!(
        live.components_at(1).len(),
        2,
        "the bridge deletion must split the component"
    );
}

#[test]
fn inserts_that_merge_components_repair_exactly() {
    // Two disjoint triangles; three inserts fuse them into one 2-connected
    // ring of six vertices (and one connected component where there were
    // two).
    let g = UndirectedGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        .unwrap();
    let options = KvccOptions::default();
    let live = ConnectivityIndex::build(&g, None, &options).unwrap();
    assert_eq!(live.components_at(1).len(), 2);

    let batch = [
        EdgeUpdate::insert(2, 3),
        EdgeUpdate::insert(5, 0),
        EdgeUpdate::insert(1, 4),
    ];
    let after = UndirectedGraph::from_edges(
        6,
        vec![
            (0, 1),
            (1, 2),
            (0, 2),
            (3, 4),
            (4, 5),
            (3, 5),
            (2, 3),
            (5, 0),
            (1, 4),
        ],
    )
    .unwrap();
    let (live, _) = live.apply_updates(&after, &batch, &options).unwrap();
    let mut fresh = ConnectivityIndex::build(&after, None, &options).unwrap();
    fresh.set_epoch(1);
    assert_eq!(live.to_bytes(), fresh.to_bytes());
    assert_eq!(
        live.components_at(1).len(),
        1,
        "the inserts must merge the two components"
    );
    assert!(
        live.components_at(2)
            .iter()
            .any(|c| c.vertices().len() == 6),
        "the fused ring is 2-connected"
    );
}

/// Replays `config`'s stream on every Table 1 stand-in at
/// `SuiteScale::Tiny`, repairing one index per depth cap and thread count,
/// and asserts after every batch that each one equals a fresh build byte
/// for byte.
fn assert_stand_in_grid_parity(config: &DiffStreamConfig) {
    for dataset in SuiteDataset::all() {
        let base = CsrGraph::from_view(&dataset.generate(SuiteScale::Tiny));
        let stream = diff_stream(&base, config);
        for cap in [None, Some(1), Some(2), Some(3), Some(6)] {
            let mut live: Vec<(KvccOptions, ConnectivityIndex)> = [1, 2]
                .into_iter()
                .map(|threads| {
                    let options = KvccOptions::default().with_threads(threads);
                    let index = ConnectivityIndex::build(&base, cap, &options).unwrap();
                    (options, index)
                })
                .collect();
            let mut rolling = DeltaGraph::new(base.clone());
            for (i, batch) in stream.iter().enumerate() {
                rolling.apply(batch).unwrap();
                let mut fresh =
                    ConnectivityIndex::build(&rolling, cap, &KvccOptions::default()).unwrap();
                fresh.set_epoch((i + 1) as u64);
                let fresh = fresh.to_bytes();
                for (options, index) in &mut live {
                    let (next, _) = index.apply_updates(&rolling, batch, options).unwrap();
                    assert_eq!(
                        next.to_bytes(),
                        fresh,
                        "{}: cap {cap:?}, {} threads, batch {i}",
                        dataset.name(),
                        options.threads
                    );
                    *index = next;
                }
            }
        }
    }
}

#[test]
fn stand_ins_repair_exactly_under_churn_shaped_streams() {
    // `churn`'s stream shape: 16 updates, 35% deletes, inserts closing
    // triangles.
    assert_stand_in_grid_parity(&DiffStreamConfig {
        batches: 3,
        batch_size: 16,
        delete_fraction: 0.35,
        locality: 1.0,
        seed: 0xC4A7,
    });
}

#[test]
fn stand_ins_repair_exactly_under_deletion_heavy_streams() {
    // 80% deletes: a deletion often drops a member of an old k-VCC out of
    // the k-core, so R2 anchors on the old node that shares the most
    // members with the surviving component. This seed reaches both of its
    // outcomes there: acceptance, and refusal by a hub probe that nothing
    // else would have refused.
    assert_stand_in_grid_parity(&DiffStreamConfig {
        batches: 3,
        batch_size: 16,
        delete_fraction: 0.8,
        locality: 1.0,
        seed: 4,
    });
}

#[test]
fn stand_ins_repair_exactly_under_uniform_streams() {
    assert_stand_in_grid_parity(&DiffStreamConfig {
        batches: 3,
        batch_size: 16,
        delete_fraction: 0.35,
        locality: 0.0,
        seed: 0x0F1A7,
    });
}

/// The number of distinct components of `index` that hold both `u` and
/// `v` (a component copied down the levels it is certified for counts
/// once), level by level from the root.
fn chain(index: &ConnectivityIndex, u: VertexId, v: VertexId) -> u32 {
    let mut sizes: Vec<usize> = (1..=index.max_k())
        .flat_map(|k| index.kvccs_containing(u, k).unwrap())
        .filter(|c| c.contains(v))
        .map(|c| c.len())
        .collect();
    sizes.dedup();
    sizes.len() as u32
}

#[test]
fn single_edge_updates_inside_a_community_repair_only_its_chain() {
    let options = KvccOptions::default();
    for (name, g, community) in community_suites() {
        let (u, v) = community
            .iter()
            .flat_map(|&u| community.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| u < v && g.has_edge(u, v))
            .expect("a community holds an edge");
        let index = ConnectivityIndex::build(&g, None, &options).unwrap();
        let mut rolling = DeltaGraph::new(CsrGraph::from_view(&g));
        // Delete the edge, then insert it again.
        let mut live = index;
        for (i, update) in [EdgeUpdate::delete(u, v), EdgeUpdate::insert(u, v)]
            .into_iter()
            .enumerate()
        {
            rolling.apply(&[update]).unwrap();
            let (next, report) = live.apply_updates(&rolling, &[update], &options).unwrap();
            let mut fresh = ConnectivityIndex::build(&rolling, None, &options).unwrap();
            fresh.set_epoch((i + 1) as u64);
            assert_eq!(next.to_bytes(), fresh.to_bytes(), "{name}: update {i}");
            // The repaired nodes lie on the chain of components holding the
            // pair, before or after the update.
            let bound = chain(&live, u, v).max(chain(&next, u, v));
            assert!(
                (1..=bound).contains(&report.repaired_nodes),
                "{name}: update {i} repaired {} nodes against a chain of {bound} (of {})",
                report.repaired_nodes,
                next.num_nodes()
            );
            live = next;
        }
    }
}

#[test]
fn kidx_epoch_round_trips_through_persistence() {
    let (_, g) = suites().remove(0);
    let options = KvccOptions::default();
    let base = CsrGraph::from_view(&g);
    let stream = diff_stream(
        &base,
        &DiffStreamConfig {
            batches: 3,
            batch_size: 6,
            delete_fraction: 0.3,
            locality: 0.0,
            seed: 7,
        },
    );
    let mut live = ConnectivityIndex::build(&base, None, &options).unwrap();
    let mut rolling = DeltaGraph::new(base);
    for batch in &stream {
        rolling.apply(batch).unwrap();
        let snapshot = CsrGraph::from_view(&rolling);
        (live, _) = live.apply_updates(&snapshot, batch, &options).unwrap();
    }
    assert_eq!(live.epoch(), stream.len() as u64);
    // Persist → restore: the epoch (and everything else) survives the trip.
    let restored = ConnectivityIndex::from_bytes(&live.to_bytes()).unwrap();
    assert_eq!(restored.epoch(), live.epoch());
    assert_eq!(restored.to_bytes(), live.to_bytes());
}

#[test]
fn engine_replay_matches_a_fresh_engine_on_the_updated_graph() {
    // The service-level form of the same contract: replay the stream through
    // `ServiceEngine::apply_updates` (atomic slot swaps, incremental index
    // repair) and require every query answer to equal a fresh engine that
    // loaded the final graph from scratch.
    let (_, g) = suites().remove(0);
    let base = CsrGraph::from_view(&g);
    let stream = diff_stream(
        &base,
        &DiffStreamConfig {
            batches: 4,
            batch_size: 8,
            delete_fraction: 0.4,
            locality: 0.0,
            seed: 0xE2E,
        },
    );
    let engine = ServiceEngine::new(EngineConfig::default());
    let id = engine.load_csr("live", base.clone());
    engine.build_index(id).unwrap();
    let mut rolling = DeltaGraph::new(base);
    for (i, batch) in stream.iter().enumerate() {
        let report = engine.apply_updates(id, batch).unwrap();
        assert_eq!(report.epoch, (i + 1) as u64);
        rolling.apply(batch).unwrap();
    }
    assert_eq!(engine.graph_epoch(id).unwrap(), stream.len() as u64);

    let fresh_engine = ServiceEngine::new(EngineConfig::default());
    let fresh_id = fresh_engine.load_csr("fresh", CsrGraph::from_view(&rolling));
    fresh_engine.build_index(fresh_id).unwrap();
    for k in 1..=5u32 {
        assert_eq!(
            engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }),
            fresh_engine.execute(&QueryRequest::EnumerateKvccs { graph: fresh_id, k }),
            "k {k}"
        );
    }
    for seed in (0..rolling.num_vertices() as u32).step_by(17) {
        assert_eq!(
            engine.execute(&QueryRequest::VertexConnectivityNumber { graph: id, v: seed }),
            fresh_engine.execute(&QueryRequest::VertexConnectivityNumber {
                graph: fresh_id,
                v: seed
            }),
            "vertex {seed}"
        );
    }
    // The replayed engine's index serialises identically to the fresh one
    // once the epochs agree — the strongest form of the service contract.
    let live_bytes = engine.index_bytes(id).unwrap();
    let mut fresh =
        ConnectivityIndex::from_bytes(&fresh_engine.index_bytes(fresh_id).unwrap()).unwrap();
    fresh.set_epoch(stream.len() as u64);
    assert_eq!(live_bytes, fresh.to_bytes());

    // Interrupted-update telemetry: the Stats surface reports the replay.
    match engine.execute(&QueryRequest::GraphStats { graph: id }) {
        QueryResponse::Stats {
            epoch, scheduling, ..
        } => {
            assert_eq!(epoch, stream.len() as u64);
            assert_eq!(scheduling.update_batches, stream.len() as u64);
            assert_eq!(
                scheduling.update_edges,
                stream.iter().map(|b| b.len() as u64).sum::<u64>()
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }
}
