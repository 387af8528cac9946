//! Mutable graphs end to end: a service engine serving queries while the
//! graph underneath it changes.
//!
//! Loads a planted-community graph into a [`ServiceEngine`], builds the
//! connectivity index, then replays a deterministic stream of batched edge
//! updates (`kvcc_datasets::diffs`). Each batch goes through
//! [`ServiceEngine::apply_updates`] — an atomic slot swap plus incremental
//! index repair — and the example queries the engine between batches to show
//! the answers tracking the evolving graph, the mutation epoch advancing,
//! and the per-batch repair telemetry (vertices in repaired nodes, repaired
//! forest nodes; the repair never rebuilds the whole index).
//!
//! Run with `cargo run --release --example live_graph`.

use kvcc_datasets::diffs::{diff_stream, DiffStreamConfig};
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_graph::UpdateOp;
use kvcc_service::{EngineConfig, QueryRequest, QueryResponse, ServiceEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Disjoint dense blocks: the level-1 forest has one root per block, so
    // an update inside a block repairs that block's chain and keeps every
    // other block, while a uniform cross-block insert merges two roots and
    // re-derives both. `locality: 0.95` mixes both.
    let planted = planted_communities(&PlantedConfig {
        num_communities: 20,
        chain_length: 1,
        overlap: 0,
        community_size: (10, 14),
        background_vertices: 0,
        attachment_edges_per_community: 0,
        seed: 42,
        ..PlantedConfig::default()
    });
    let base = planted.graph;
    println!(
        "base graph: {} vertices, {} edges, {} planted communities",
        base.num_vertices(),
        base.num_edges(),
        planted.communities.len()
    );

    let engine = ServiceEngine::new(EngineConfig::default());
    let id = engine.load_csr("live", base.clone());
    engine.build_index(id)?;

    let k = 4u32;
    let count_kvccs =
        |label: &str| match engine.execute(&QueryRequest::EnumerateKvccs { graph: id, k }) {
            QueryResponse::Components(comps) => {
                println!("  {label}: {} {k}-VCCs", comps.len());
            }
            other => println!("  {label}: unexpected response {other:?}"),
        };
    println!("epoch {}", engine.graph_epoch(id)?);
    count_kvccs("before any update");

    let stream = diff_stream(
        &base,
        &DiffStreamConfig {
            batches: 6,
            batch_size: 6,
            delete_fraction: 0.4,
            locality: 0.95,
            seed: 0x11FE,
        },
    );
    for (i, batch) in stream.iter().enumerate() {
        let inserts = batch
            .iter()
            .filter(|u| matches!(u.op, UpdateOp::Insert))
            .count();
        let report = engine.apply_updates(id, batch)?;
        println!(
            "batch {i}: {} updates ({} inserts, {} deletes) -> epoch {}, {} forest nodes \
             repaired over {} vertices",
            batch.len(),
            inserts,
            batch.len() - inserts,
            report.epoch,
            report.repaired_nodes,
            report.affected_vertices,
        );
        count_kvccs("after the batch");
    }

    // The Stats surface records the whole replay: batches and edges.
    match engine.execute(&QueryRequest::GraphStats { graph: id }) {
        QueryResponse::Stats {
            num_edges,
            scheduling,
            epoch,
            ..
        } => {
            println!(
                "\nfinal state: {} edges at epoch {epoch}; {} update batches carried {} edge \
                 updates",
                num_edges, scheduling.update_batches, scheduling.update_edges,
            );
        }
        other => println!("unexpected stats response: {other:?}"),
    }
    Ok(())
}
