//! SNAP-scale graph ingestion straight from edge-list text to CSR.
//!
//! The in-memory ingestion path ([`crate::io::read_snap_edge_list`])
//! slurps the whole file into one `String`, interns ids through a
//! [`crate::GraphBuilder`] into an edge list, and only then builds CSR from
//! it ([`CsrGraph::from_edges_diagnostic`]) — the text, the edge list and the
//! CSR arrays are all resident at once.
//!
//! [`StreamingEdgeListLoader`] never holds the text. It makes two linear
//! passes:
//!
//! 1. **Scan and intern.** Each line is read with [`BufRead::read_until`]
//!    into one reused byte buffer. An all-ASCII line of the shape
//!    `ws* digits ws+ digits (ws …)?`, where `ws` is one of the six ASCII
//!    bytes [`char::is_whitespace`] accepts, is parsed in place. Every other
//!    line (comments, blanks, `+` signs, overflow, non-ASCII, junk) takes the
//!    `str` path of [`crate::io::parse_edge_list`], so each error keeps its
//!    line number and text, and invalid UTF-8 fails as `read_line` fails,
//!    comment lines included. Each edge line appends one undirected pair of
//!    interned ids to a single `Vec`: 8 bytes per line.
//! 2. **Counting sort.** [`CsrGraph::from_edges_diagnostic`], the builder
//!    the in-memory path ends in, counts degrees, scatters each pair into
//!    both rows, then sorts and deduplicates each row, counting the
//!    self-loops and duplicates it drops.
//!
//! Raw ids are numbered `0..n` in order of first appearance, as
//! [`crate::GraphBuilder::add_edge_raw`] numbers them. A raw id below
//! `65,536 + 4 × (distinct ids so far)` indexes a dense `Vec<u32>` table;
//! every other id goes through a SipHash `HashMap`. The table only grows to
//! hold an id below that bound, so the slots it fills never exceed 256 KiB
//! plus 16 bytes per interned vertex, whatever ids the input names (its
//! allocation grows by doubling, to at most twice that): huge or hostile
//! ids cost a hash lookup, as in the in-memory path. The bound rises as ids
//! arrive, so an id first hashed can later fall below it; a table miss
//! therefore asks the map before numbering a new vertex.
//!
//! The two ingestion paths agree byte for byte on the graph, the ids, and
//! the [`EdgeIngestStats`] of what was dropped to produce it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::mem::size_of;
use std::path::Path;

use crate::csr::{CsrGraph, EdgeIngestStats};
use crate::error::GraphError;
use crate::types::{VertexId, INVALID_VERTEX};

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
    /// Approximate peak bytes of the loader's transient structures **plus**
    /// the final CSR arrays — the number the ingestion bench reports as its
    /// RSS proxy. The pair list (8 bytes per edge line) lives through both
    /// passes. Beside it, the scan holds the interner (4 bytes per filled
    /// table slot, ≈ 24 per hashed id) and the counting sort, after the interner
    /// is dropped, holds three per-vertex `u32` arrays and the CSR arrays;
    /// the larger of the two counts.
    pub peak_bytes: usize,
}

/// The streaming SNAP edge-list loader (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct StreamingEdgeListLoader;

impl StreamingEdgeListLoader {
    /// A loader; it has no settings.
    pub fn new() -> Self {
        Self
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
        let mut interner = Interner::default();
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        let mut line = Vec::new();
        let mut line_no = 0usize;
        loop {
            line.clear();
            if reader.read_until(b'\n', &mut line)? == 0 {
                break;
            }
            line_no += 1;
            let (u, v) = match scan_edge(&line) {
                Some(edge) => edge,
                None => match parse_line(&line, line_no)? {
                    Some(edge) => edge,
                    None => continue,
                },
            };
            let a = interner.intern(u)?;
            let b = interner.intern(v)?;
            pairs.push((a, b));
        }

        let Interner {
            table,
            map,
            external_ids,
        } = interner;
        let interner_bytes = table.len() * size_of::<VertexId>() + map.len() * 24;
        // Freed before the counting sort allocates (see `peak_bytes`).
        drop((table, map));
        let n = external_ids.len();
        let pair_bytes = pairs.len() * size_of::<(VertexId, VertexId)>();
        let (graph, stats) = CsrGraph::from_edges_diagnostic(n, pairs)?;
        let sort_bytes = 3 * (n + 1) * size_of::<u32>() + graph.memory_bytes();
        Ok(IngestedGraph {
            graph,
            external_ids,
            stats,
            peak_bytes: pair_bytes + interner_bytes.max(sort_bytes),
        })
    }
}

/// Raw ids below `TABLE_BASE + 4 × (distinct ids so far)` are interned
/// through the dense table.
const TABLE_BASE: usize = 1 << 16;

/// First-appearance numbering of raw ids (see the [module docs](self)).
#[derive(Default)]
struct Interner {
    /// `table[raw]` is the vertex of `raw`, or [`INVALID_VERTEX`] if the
    /// slot was never filled.
    table: Vec<VertexId>,
    /// Vertices of the ids that were at or above the bound when first seen.
    map: HashMap<u64, VertexId>,
    /// `external_ids[v]` is the raw id numbered `v`.
    external_ids: Vec<u64>,
}

impl Interner {
    fn intern(&mut self, raw: u64) -> Result<VertexId, GraphError> {
        let bound = TABLE_BASE + 4 * self.external_ids.len();
        let Some(slot) = usize::try_from(raw).ok().filter(|&slot| slot < bound) else {
            return match self.map.entry(raw) {
                Entry::Occupied(e) => Ok(*e.get()),
                Entry::Vacant(e) => Ok(*e.insert(next_vertex(&mut self.external_ids, raw)?)),
            };
        };
        if let Some(&id) = self.table.get(slot) {
            if id != INVALID_VERTEX {
                return Ok(id);
            }
        }
        let id = match self.map.get(&raw) {
            Some(&id) => id,
            None => next_vertex(&mut self.external_ids, raw)?,
        };
        if slot >= self.table.len() {
            self.table.resize(slot + 1, INVALID_VERTEX);
        }
        self.table[slot] = id;
        Ok(id)
    }
}

/// Numbers `raw` as the next vertex.
fn next_vertex(external_ids: &mut Vec<u64>, raw: u64) -> Result<VertexId, GraphError> {
    let id = external_ids.len();
    if id >= VertexId::MAX as usize {
        return Err(GraphError::TooManyVertices(id + 1));
    }
    external_ids.push(raw);
    Ok(id as VertexId)
}

/// ASCII whitespace exactly as [`char::is_whitespace`] defines it: `\t`,
/// `\n`, VT, FF, `\r` and space.
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Parses an all-ASCII line of the shape `ws* digits ws+ digits (ws …)?` in
/// place. `None` leaves the line to [`parse_line`].
fn scan_edge(line: &[u8]) -> Option<(u64, u64)> {
    let skip_spaces = |mut at: usize| {
        while line.get(at).is_some_and(|&b| is_space(b)) {
            at += 1;
        }
        at
    };
    // `scan_id` stops at the first non-digit, so unless spaces follow the
    // first id, the second `scan_id` starts on a non-digit and declines.
    let (u, at) = scan_id(line, skip_spaces(0))?;
    let (v, at) = scan_id(line, skip_spaces(at))?;
    match line.get(at) {
        None => Some((u, v)),
        Some(&b) if is_space(b) && line[at + 1..].is_ascii() => Some((u, v)),
        Some(_) => None,
    }
}

/// Reads the run of ASCII digits at `line[start..]` as a `u64`, returning it
/// with the index after the run; `None` if the run is empty or overflows.
fn scan_id(line: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut at = start;
    let mut id = 0u64;
    while let Some(&b) = line.get(at) {
        if !b.is_ascii_digit() {
            break;
        }
        id = id.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        at += 1;
    }
    (at > start).then_some((id, at))
}

/// The `str` path for every line [`scan_edge`] declines: the UTF-8 check
/// `read_line` makes, then the grammar of [`crate::io::parse_edge_list`].
/// `Ok(None)` is a comment or blank line.
fn parse_line(line: &[u8], line_no: usize) -> Result<Option<(u64, u64)>, GraphError> {
    let text = std::str::from_utf8(line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    let text = text.trim();
    if text.is_empty() || text.starts_with('#') || text.starts_with('%') {
        return Ok(None);
    }
    let mut tokens = text.split_whitespace();
    let u = crate::io::parse_token(tokens.next(), line_no)?;
    let v = crate::io::parse_token(tokens.next(), line_no)?;
    Ok(Some((u, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn stream(text: &str) -> IngestedGraph {
        StreamingEdgeListLoader::new()
            .load_reader(Cursor::new(text.as_bytes()))
            .unwrap()
    }

    #[test]
    fn streaming_matches_the_builder_path_exactly() {
        let text = "# header\n1000000000000 5\n5 7\n7 1000000000000\n5 7\n9 9\n7 5\n\
                    4294967296 18446744073709551615\n5 4294967296\n";
        let got = stream(text);
        let (vec_graph, stats) = crate::io::parse_edge_list_diagnostic(text).unwrap();
        assert_eq!(got.graph, CsrGraph::from_view(&vec_graph));
        assert_eq!(got.stats, stats);
        assert_eq!(
            got.external_ids,
            vec![1000000000000, 5, 7, 9, 1 << 32, u64::MAX]
        );
        assert!(got.peak_bytes > 0);
    }

    #[test]
    fn one_byte_reads_split_every_line_across_refills() {
        // 8 undirected edges on a cycle, read through a one-byte buffer.
        let text = "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n";
        let got = StreamingEdgeListLoader::new()
            .load_reader(BufReader::with_capacity(1, text.as_bytes()))
            .unwrap();
        assert_eq!(got.graph.num_vertices(), 8);
        assert_eq!(got.graph.num_edges(), 8);
        assert_eq!(got.stats, EdgeIngestStats::default());
        assert_eq!(got.graph, stream(text).graph);
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
        let got = stream("0 1\n9 9\n");
        assert_eq!(got.graph.num_vertices(), 3);
        assert_eq!(got.graph.num_edges(), 1);
        assert_eq!(got.stats.self_loops, 1);
        assert_eq!(got.graph.degree(2), 0);
    }

    #[test]
    fn empty_and_comment_only_inputs_load_cleanly() {
        for text in ["", "# nothing\n% here\n\n"] {
            let got = stream(text);
            assert_eq!(got.graph.num_vertices(), 0);
            assert_eq!(got.graph.num_edges(), 0);
        }
    }

    #[test]
    fn an_id_hashed_above_the_bound_keeps_its_vertex_below_it() {
        // 70,000 is above the first bound (65,536), so it is hashed. The
        // 1,200 small ids after it lift the bound to 70,340; then 70,000
        // comes back through a table miss and must find its hashed vertex.
        let mut text = String::from("70000 1\n");
        for raw in 1..1200 {
            text.push_str(&format!("{raw} {}\n", raw + 1));
        }
        text.push_str("70000 5\n5 70000\n");
        let got = stream(&text);
        let expected: Vec<u64> = std::iter::once(70_000).chain(1..=1200).collect();
        assert_eq!(got.external_ids, expected);
        let (vec_graph, stats) = crate::io::parse_edge_list_diagnostic(&text).unwrap();
        assert_eq!(got.graph, CsrGraph::from_view(&vec_graph));
        assert_eq!(got.stats, stats);
        assert_eq!(got.stats.duplicates, 1);

        let mut interner = Interner::default();
        assert_eq!(interner.intern(70_000).unwrap(), 0);
        assert!(interner.map.contains_key(&70_000));
        for raw in 1..=1200 {
            interner.intern(raw).unwrap();
        }
        assert!(TABLE_BASE + 4 * interner.external_ids.len() > 70_000);
        assert_eq!(interner.intern(70_000).unwrap(), 0);
        assert_eq!(interner.table[70_000], 0);
        assert_eq!(interner.external_ids.len(), 1201);
    }

    #[test]
    fn a_huge_id_does_not_grow_the_table() {
        let got = stream("4000000000 7\n");
        assert_eq!(got.external_ids, vec![4_000_000_000, 7]);
        assert!(got.peak_bytes < 1 << 20, "peak_bytes {}", got.peak_bytes);
    }
}
