//! SNAP-scale graph ingestion straight from edge-list text to CSR.
//!
//! The in-memory ingestion path ([`crate::io::read_snap_edge_list`])
//! slurps the whole file into one `String`, interns ids through a
//! [`crate::GraphBuilder`] into an edge list, and only then builds CSR from
//! it ([`CsrGraph::from_edges_diagnostic`]) — the text, the edge list and the
//! CSR arrays are all resident at once, between the file and the two flat
//! arrays the enumerator actually wants.
//!
//! [`StreamingEdgeListLoader`] goes from a buffered line stream to CSR
//! directly:
//!
//! 1. **Chunked parse** — lines are read one at a time (the `String` buffer
//!    is reused); each undirected edge is pushed as two directed pairs into
//!    a bounded chunk, and full chunks are sealed into sorted runs.
//! 2. **Parallel run sort** — sealed runs are sorted on `std::thread`
//!    scoped workers, fanned out by the same [`effective_threads`] helper
//!    the enumeration worklist and the service batch pool use.
//! 3. **K-way merge + dedup + direct CSR emission** — a binary heap merges
//!    the sorted runs in one pass, dropping duplicates (counted for
//!    [`EdgeIngestStats`] parity with the in-memory path) and writing the
//!    offset/neighbour arrays as it goes. No per-vertex `Vec` ever exists.
//!
//! The peak transient footprint is the directed pair runs (16 bytes per
//! input edge) plus the interner, with no copy of the text, and the
//! constant-size parse buffers make the profile flat rather than spiky.
//! The loader reports the same duplicate/self-loop diagnostics as
//! [`CsrGraph::from_edges_diagnostic`], so the two ingestion paths agree
//! byte-for-byte on the graph *and* on what was dropped to produce it.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::csr::{CsrGraph, EdgeIngestStats};
use crate::error::GraphError;
use crate::types::VertexId;

/// Resolves a requested worker count to a concrete one: `0` means
/// [`std::thread::available_parallelism`], anything else is taken verbatim.
/// Shared by the enumeration worklist, the `kvcc-service` batch pool and the
/// streaming loader's run-sort fan-out (re-exported as
/// `kvcc::effective_threads`).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// A fully ingested graph: the CSR structure, the external→internal id
/// mapping, the drop diagnostics, and a peak-allocation proxy for the
/// transient structures the loader needed.
#[derive(Clone, Debug)]
pub struct IngestedGraph {
    /// The graph, with external ids relabelled to `0..n` in order of first
    /// appearance (the same order [`crate::GraphBuilder::add_edge_raw`]
    /// produces).
    pub graph: CsrGraph,
    /// `external_ids[v]` is the raw id that was relabelled to `v`.
    pub external_ids: Vec<u64>,
    /// How many self-loops / duplicate edges the input contained.
    pub stats: EdgeIngestStats,
    /// Approximate peak bytes of the loader's transient structures (pair
    /// runs + interner) **plus** the final CSR arrays — the number the
    /// ingestion bench reports as its RSS proxy.
    pub peak_bytes: usize,
}

/// The streaming SNAP edge-list loader (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct StreamingEdgeListLoader {
    /// Directed pairs per chunk before it is sealed into a sorted run.
    chunk_pairs: usize,
    /// Worker threads for run sorting (`0` = all cores).
    threads: usize,
}

/// Default chunk size: 1M directed pairs = 8 MiB per run buffer.
const DEFAULT_CHUNK_PAIRS: usize = 1 << 20;

impl Default for StreamingEdgeListLoader {
    fn default() -> Self {
        StreamingEdgeListLoader {
            chunk_pairs: DEFAULT_CHUNK_PAIRS,
            threads: 0,
        }
    }
}

impl StreamingEdgeListLoader {
    /// A loader with the default chunk size and one sort worker per core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the chunk size (directed pairs per run; clamped to ≥ 2).
    /// Small chunks force the k-way merge to do real work — useful in tests.
    pub fn with_chunk_pairs(mut self, pairs: usize) -> Self {
        self.chunk_pairs = pairs.max(2);
        self
    }

    /// Overrides the sort worker count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Ingests the SNAP-style edge-list file at `path` (see
    /// [`StreamingEdgeListLoader::load_reader`]).
    pub fn load_path(&self, path: &Path) -> Result<IngestedGraph, GraphError> {
        self.load_reader(BufReader::new(File::open(path)?))
    }

    /// Ingests a SNAP-style edge list from any buffered reader. Same line
    /// grammar as [`crate::io::parse_edge_list`]: `#`/`%` comments, blank
    /// lines, at least two whitespace-separated integer tokens per line.
    pub fn load_reader<R: BufRead>(&self, mut reader: R) -> Result<IngestedGraph, GraphError> {
        let mut interner: HashMap<u64, VertexId> = HashMap::new();
        let mut external_ids: Vec<u64> = Vec::new();
        let mut stats = EdgeIngestStats::default();

        // Sealed sorted runs of directed (src, dst) pairs, plus the chunk
        // currently being filled.
        let mut runs: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut chunk: Vec<(u32, u32)> = Vec::with_capacity(self.chunk_pairs);
        let mut total_pairs = 0usize;

        let intern = |raw: u64,
                      interner: &mut HashMap<u64, VertexId>,
                      external_ids: &mut Vec<u64>|
         -> Result<VertexId, GraphError> {
            match interner.entry(raw) {
                Entry::Occupied(e) => Ok(*e.get()),
                Entry::Vacant(e) => {
                    if external_ids.len() >= VertexId::MAX as usize {
                        return Err(GraphError::TooManyVertices(external_ids.len() + 1));
                    }
                    let id = external_ids.len() as VertexId;
                    e.insert(id);
                    external_ids.push(raw);
                    Ok(id)
                }
            }
        };

        let mut line = String::new();
        let mut line_no = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let u = crate::io::parse_token(it.next(), line_no)?;
            let v = crate::io::parse_token(it.next(), line_no)?;
            let a = intern(u, &mut interner, &mut external_ids)?;
            let b = intern(v, &mut interner, &mut external_ids)?;
            if a == b {
                stats.self_loops += 1;
                continue;
            }
            chunk.push((a, b));
            chunk.push((b, a));
            total_pairs += 2;
            if chunk.len() >= self.chunk_pairs {
                runs.push(std::mem::replace(
                    &mut chunk,
                    Vec::with_capacity(self.chunk_pairs),
                ));
            }
        }
        if !chunk.is_empty() {
            runs.push(chunk);
        }

        sort_runs(&mut runs, effective_threads(self.threads));
        let n = external_ids.len();
        let (graph, duplicate_pairs) = merge_runs(runs, n);
        // Every duplicate undirected occurrence contributed two directed
        // pairs, both dropped by the merge — same accounting as
        // `from_edges_diagnostic`.
        stats.duplicates = duplicate_pairs / 2;

        // Peak transient proxy: all directed pairs resident at once (8
        // bytes each), the interner (key + value + bucket overhead ≈ 24
        // bytes per vertex) and the final CSR arrays.
        let peak_bytes =
            total_pairs * std::mem::size_of::<(u32, u32)>() + n * 24 + graph.memory_bytes();

        Ok(IngestedGraph {
            graph,
            external_ids,
            stats,
            peak_bytes,
        })
    }
}

/// Sorts sealed runs on scoped worker threads. Runs are distributed in
/// contiguous blocks; with one run or one worker this degenerates to a
/// plain in-place sort with no thread spawn.
fn sort_runs(runs: &mut [Vec<(u32, u32)>], workers: usize) {
    let workers = workers.min(runs.len()).max(1);
    if workers <= 1 {
        for run in runs.iter_mut() {
            run.sort_unstable();
        }
        return;
    }
    let per_worker = runs.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for block in runs.chunks_mut(per_worker) {
            scope.spawn(move || {
                for run in block {
                    run.sort_unstable();
                }
            });
        }
    });
}

/// K-way-merges sorted directed-pair runs into a CSR graph over `n`
/// vertices, dropping (and counting) duplicate pairs and emitting the
/// offset array on the fly. Returns the graph and the number of directed
/// pairs dropped.
fn merge_runs(runs: Vec<Vec<(u32, u32)>>, n: usize) -> (CsrGraph, usize) {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<VertexId> = Vec::with_capacity(total);
    offsets.push(0);
    // `row` is the vertex whose offset entries have been sealed so far:
    // every vertex < row has its end offset written.
    let mut row = 0u32;
    let mut dropped = 0usize;

    let mut heap: BinaryHeap<std::cmp::Reverse<((u32, u32), usize)>> = BinaryHeap::new();
    let mut cursors = vec![0usize; runs.len()];
    for (i, run) in runs.iter().enumerate() {
        if let Some(&pair) = run.first() {
            heap.push(std::cmp::Reverse((pair, i)));
            cursors[i] = 1;
        }
    }

    let mut prev: Option<(u32, u32)> = None;
    while let Some(std::cmp::Reverse((pair, i))) = heap.pop() {
        if let Some(&next) = runs[i].get(cursors[i]) {
            heap.push(std::cmp::Reverse((next, i)));
            cursors[i] += 1;
        }
        if prev == Some(pair) {
            dropped += 1;
            continue;
        }
        prev = Some(pair);
        let (src, dst) = pair;
        while row < src {
            offsets.push(neighbors.len() as u32);
            row += 1;
        }
        neighbors.push(dst);
    }
    // Seal the remaining rows (trailing vertices with no outgoing pairs).
    while (row as usize) < n {
        offsets.push(neighbors.len() as u32);
        row += 1;
    }
    (CsrGraph::from_parts(offsets, neighbors), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn stream(text: &str, chunk_pairs: usize) -> IngestedGraph {
        StreamingEdgeListLoader::new()
            .with_chunk_pairs(chunk_pairs)
            .with_threads(2)
            .load_reader(Cursor::new(text.as_bytes()))
            .unwrap()
    }

    #[test]
    fn streaming_matches_the_builder_path_exactly() {
        let text = "# header\n1000000000000 5\n5 7\n7 1000000000000\n5 7\n9 9\n7 5\n";
        for chunk in [2usize, 4, 1 << 20] {
            let got = stream(text, chunk);
            let (vec_graph, stats) = crate::io::parse_edge_list_diagnostic(text).unwrap();
            assert_eq!(got.graph, CsrGraph::from_view(&vec_graph), "chunk {chunk}");
            assert_eq!(got.stats, stats);
            assert_eq!(got.external_ids, vec![1000000000000, 5, 7, 9]);
            assert!(got.peak_bytes > 0);
        }
    }

    #[test]
    fn tiny_chunks_force_a_real_merge() {
        // 8 undirected edges on a cycle; chunk of 2 pairs = 8 runs.
        let text = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n";
        let got = stream(text, 2);
        assert_eq!(got.graph.num_vertices(), 8);
        assert_eq!(got.graph.num_edges(), 8);
        assert_eq!(got.stats, EdgeIngestStats::default());
    }

    #[test]
    fn streaming_reports_parse_errors_with_line_numbers() {
        let err = StreamingEdgeListLoader::new()
            .load_reader(Cursor::new(b"0 1\nbogus\n" as &[u8]))
            .unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 2, .. }));
        let err = StreamingEdgeListLoader::new()
            .load_reader(Cursor::new(b"0\n" as &[u8]))
            .unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 1, .. }));
    }

    #[test]
    fn self_loop_only_vertices_stay_isolated() {
        // Vertex 9 appears only in a self-loop: interned, degree 0 — same
        // as the builder path.
        let got = stream("0 1\n9 9\n", 1 << 20);
        assert_eq!(got.graph.num_vertices(), 3);
        assert_eq!(got.graph.num_edges(), 1);
        assert_eq!(got.stats.self_loops, 1);
        assert_eq!(got.graph.degree(2), 0);
    }

    #[test]
    fn empty_and_comment_only_inputs_load_cleanly() {
        for text in ["", "# nothing\n% here\n\n"] {
            let got = stream(text, 1 << 20);
            assert_eq!(got.graph.num_vertices(), 0);
            assert_eq!(got.graph.num_edges(), 0);
        }
    }

    #[test]
    fn effective_threads_resolves_zero_to_available_parallelism() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
