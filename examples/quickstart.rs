//! Quickstart: build a small graph, enumerate its k-VCCs and inspect the
//! result.
//!
//! Run with `cargo run --example quickstart`.

use kvcc::{enumerate_kvccs, KvccOptions};
use kvcc_graph::UndirectedGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two dense groups (cliques on {0..4} and {4..8}) glued at vertex 4, plus
    // a pendant vertex 9 attached to vertex 0.
    let mut edges = Vec::new();
    for block in [[0u32, 1, 2, 3, 4], [4u32, 5, 6, 7, 8]] {
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                edges.push((block[i], block[j]));
            }
        }
    }
    edges.push((0, 9));
    let graph = UndirectedGraph::from_edges(10, edges)?;

    println!(
        "input graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Enumerate the 3-vertex connected components with the default (VCCE*)
    // algorithm.
    let k = 3;
    let result = enumerate_kvccs(&graph, k, &KvccOptions::default())?;

    println!("found {} {k}-VCC(s):", result.num_components());
    for (i, component) in result.iter().enumerate() {
        println!(
            "  #{i}: {} vertices -> {:?}",
            component.len(),
            component.vertices()
        );
    }

    // Vertex 4 is the articulation point shared by both groups, so it belongs
    // to both 3-VCCs — the overlap the k-VCC model explicitly allows.
    let memberships = result.components_containing(4);
    println!("vertex 4 belongs to {} components", memberships.len());

    // The run statistics mirror the quantities reported in the paper's
    // evaluation (LOC-CUT calls, sweep effectiveness, partitions, memory).
    let stats = result.stats();
    println!(
        "stats: {} GLOBAL-CUT calls, {} flow computations, {} partitions, {:?} elapsed",
        stats.global_cut_calls, stats.loc_cut_flow_calls, stats.partitions, stats.elapsed
    );

    // The worklist can run in parallel (one worker per core) with identical
    // output.
    let parallel = enumerate_kvccs(&graph, k, &KvccOptions::parallel())?;
    assert_eq!(parallel.components(), result.components());
    println!(
        "parallel run agrees: {} components",
        parallel.num_components()
    );
    Ok(())
}
