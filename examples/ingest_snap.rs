//! Stream a SNAP-style edge list from disk, persist the aligned `KCSR`
//! binary form, reload it zero-copy, and answer a k-VCC query — the full
//! PR 7 ingestion pipeline end to end.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example ingest_snap -- <path-to-edge-list> [k]
//! cargo run --release --example ingest_snap -- --generate [k]
//! ```
//!
//! With `--generate`, a deterministic community-ring edge list (~54k lines)
//! is streamed to a temp file first, so the example runs without any
//! dataset on disk; that file and its `KCSR` copy are deleted on exit. A
//! given edge list keeps its `.kcsr` beside it.

use std::path::PathBuf;
use std::time::Instant;

use kvcc_datasets::StreamConfig;
use kvcc_graph::{write_kcsr_file, StreamingEdgeListLoader};
use kvcc_service::{EngineConfig, LoadFormat, QueryRequest, QueryResponse, ServiceEngine};

fn usage() -> ! {
    eprintln!("usage: ingest_snap <edge-list-path> [k]");
    eprintln!("       ingest_snap --generate [k]");
    std::process::exit(2);
}

/// Deletes the files it names when dropped, so an early `?` return cleans up
/// too.
struct RemoveOnDrop([PathBuf; 2]);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let k: u32 = args.get(1).map(|s| s.parse()).transpose()?.unwrap_or(4);

    let generate = args[0] == "--generate";
    let edge_path = if generate {
        std::env::temp_dir().join(format!("ingest_snap_{}.txt", std::process::id()))
    } else {
        PathBuf::from(&args[0])
    };
    let kcsr_path = edge_path.with_extension("kcsr");
    let _cleanup = generate.then(|| RemoveOnDrop([edge_path.clone(), kcsr_path.clone()]));
    if generate {
        let cfg = StreamConfig {
            communities: 32,
            community_size: 256,
            skeleton_span: 3,
            extra_intra: 896,
            bridges: 32,
            seed: 0x1cde_2019,
        };
        let started = Instant::now();
        cfg.write_file(&edge_path)?;
        println!(
            "generated {} edge lines over {} vertices into {} in {:.3?}",
            cfg.num_edge_lines(),
            cfg.num_vertices(),
            edge_path.display(),
            started.elapsed()
        );
    }

    // 1. Stream the text file into CSR: one byte scan that numbers raw ids
    //    into a pair list, then a counting sort — the text is never held
    //    whole and no per-vertex adjacency Vec exists.
    let started = Instant::now();
    let ingested = StreamingEdgeListLoader::new().load_path(&edge_path)?;
    let ingest_elapsed = started.elapsed();
    println!(
        "\nstreamed ingest: |V| = {}, |E| = {} in {:.3?} ({:.0} edges/s)",
        ingested.graph.num_vertices(),
        ingested.graph.num_edges(),
        ingest_elapsed,
        ingested.graph.num_edges() as f64 / ingest_elapsed.as_secs_f64()
    );
    println!(
        "dropped {} self-loop(s), {} duplicate line(s); transient footprint ≈ {:.1} MB",
        ingested.stats.self_loops,
        ingested.stats.duplicates,
        ingested.peak_bytes as f64 / (1024.0 * 1024.0)
    );

    // 2. Persist the aligned zero-copy form next to the input.
    write_kcsr_file(&ingested.graph, &kcsr_path)?;
    println!(
        "\nwrote {} ({} bytes, 8-byte-aligned KCSR v3)",
        kcsr_path.display(),
        std::fs::metadata(&kcsr_path)?.len()
    );

    // 3. Reload through the service engine. Under the default memory policy
    //    the slot *borrows* the validated file bytes — no decode, no copy.
    let engine = ServiceEngine::new(EngineConfig::default());
    let started = Instant::now();
    let report = engine.load_from_path("snap", &kcsr_path, LoadFormat::Kcsr)?;
    println!(
        "reloaded in {:.3?}: zero_copy = {}, |V| = {}, |E| = {}",
        started.elapsed(),
        report.zero_copy,
        report.num_vertices,
        report.num_edges
    );

    // 4. Answer a query on the borrowed graph.
    let started = Instant::now();
    match engine.execute(&QueryRequest::EnumerateKvccs {
        graph: report.graph,
        k,
    }) {
        QueryResponse::Components(components) => {
            let mut sizes: Vec<usize> = components.iter().map(|c| c.len()).collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            println!(
                "\n{} {k}-VCC(s) in {:.3?}; largest sizes: {:?}",
                components.len(),
                started.elapsed(),
                &sizes[..sizes.len().min(5)]
            );
        }
        other => println!("\nunexpected response: {other:?}"),
    }
    Ok(())
}
