//! Build the full k-VCC hierarchy of a graph: how cohesive groups nest inside
//! each other as the connectivity requirement grows.
//!
//! Run with `cargo run --release --example hierarchy`.

use kvcc::{ConnectivityIndex, KvccOptions};
use kvcc_datasets::planted::{planted_communities, PlantedConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A graph with overlapping communities of different strength: chains of
    // 6-connected blocks embedded in a sparse background.
    let config = PlantedConfig {
        k: 6,
        num_communities: 6,
        community_size: (12, 18),
        overlap: 3,
        chain_length: 3,
        extra_intra_edges_per_vertex: 2,
        background_vertices: 400,
        background_edges_per_vertex: 2,
        attachment_edges_per_community: 3,
        seed: 7,
    };
    let planted = planted_communities(&config);
    println!(
        "graph: {} vertices, {} edges, {} planted 6-connected blocks",
        planted.graph.num_vertices(),
        planted.graph.num_edges(),
        planted.communities.len()
    );

    let index = ConnectivityIndex::build(&planted.graph, None, &KvccOptions::default())?;
    println!("deepest connectivity level: k = {}", index.max_k());
    println!("\nlevel  #components  largest  total members");
    for k in 1..=index.max_k() {
        let level = index.components_at(k);
        let largest = level.iter().map(|c| c.len()).max().unwrap_or(0);
        let members: usize = level.iter().map(|c| c.len()).sum();
        println!(
            "{:>5}  {:>11}  {:>7}  {:>13}",
            k,
            level.len(),
            largest,
            members
        );
    }

    // Vertex connectivity numbers: how deeply each vertex is embedded.
    let numbers = (0..index.num_vertices() as u32).map(|v| index.max_connectivity_of(v));
    let mut histogram = std::collections::BTreeMap::new();
    for n in numbers {
        *histogram.entry(n).or_insert(0usize) += 1;
    }
    println!("\nvertex connectivity-number histogram (level -> vertices):");
    for (level, count) in histogram {
        println!("  {level:>3} -> {count}");
    }
    Ok(())
}
