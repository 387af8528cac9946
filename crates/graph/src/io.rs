//! Reading and writing graphs in the SNAP edge-list format.
//!
//! The seven datasets of Table 1 are distributed by the SNAP project as plain
//! text files with one `u v` pair per line and `#`-prefixed comment lines.
//! [`read_snap_edge_list`] accepts exactly that format (including arbitrary
//! 64-bit ids, tabs or spaces, and directed duplicates, which are collapsed to
//! a single undirected edge).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::UndirectedGraph;
use crate::view::GraphView;

/// Parses a SNAP-style edge list from a string.
///
/// * Lines starting with `#` or `%` are comments.
/// * Blank lines are ignored.
/// * Each remaining line must contain at least two whitespace-separated
///   integer tokens; additional tokens (e.g. timestamps, weights) are ignored.
/// * Vertex ids may be arbitrary `u64` values; they are relabelled to a
///   compact `0..n` range in order of first appearance.
pub fn parse_edge_list(contents: &str) -> Result<UndirectedGraph, GraphError> {
    parse_edge_list_diagnostic(contents).map(|(g, _)| g)
}

/// [`parse_edge_list`] variant that also reports how many self-loops and
/// duplicate (or directed-twin) edges the input contained — useful for
/// logging what a messy SNAP download actually ingested.
pub fn parse_edge_list_diagnostic(
    contents: &str,
) -> Result<(UndirectedGraph, crate::csr::EdgeIngestStats), GraphError> {
    let mut builder = GraphBuilder::new();
    for (idx, line) in contents.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u = parse_token(it.next(), idx + 1)?;
        let v = parse_token(it.next(), idx + 1)?;
        builder.add_edge_raw(u, v);
    }
    Ok(builder.build_diagnostic())
}

pub(crate) fn parse_token(token: Option<&str>, line: usize) -> Result<u64, GraphError> {
    let token = token.ok_or_else(|| GraphError::ParseError {
        line,
        message: "expected two vertex ids".to_string(),
    })?;
    token.parse::<u64>().map_err(|e| GraphError::ParseError {
        line,
        message: format!("invalid vertex id {token:?}: {e}"),
    })
}

/// Reads a SNAP edge-list file from disk. See [`parse_edge_list`].
pub fn read_snap_edge_list<P: AsRef<Path>>(path: P) -> Result<UndirectedGraph, GraphError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut contents = String::new();
    reader.read_to_string(&mut contents)?;
    parse_edge_list(&contents)
}

/// Serialises a graph as a SNAP-style edge list (one `u v` pair per line, each
/// undirected edge written once).
pub fn write_edge_list<W: Write>(g: &UndirectedGraph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# Undirected graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u}\t{v}")?;
    }
    Ok(())
}

/// Writes a graph to a file in the SNAP edge-list format.
pub fn write_edge_list_file<P: AsRef<Path>>(
    g: &UndirectedGraph,
    path: P,
) -> Result<(), GraphError> {
    let file = File::create(path)?;
    let writer = BufWriter::new(file);
    write_edge_list(g, writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_edge_list() {
        let text = "# comment line\n% another comment\n1 2\n2 3\n\n3 1 999\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn parse_collapses_directed_duplicates() {
        let text = "0 1\n1 0\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_diagnostics_count_dropped_lines() {
        let text = "# header\n0 1\n1 0\n2 2\n0 1\n1 2\n";
        let (g, stats) = parse_edge_list_diagnostic(text).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(stats.self_loops, 1);
        assert_eq!(stats.duplicates, 2);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let err = parse_edge_list("1\n").unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 1, .. }));
        let err = parse_edge_list("a b\n").unwrap_err();
        assert!(matches!(err, GraphError::ParseError { line: 1, .. }));
    }

    #[test]
    fn parse_handles_large_sparse_ids() {
        let text = "1000000000000 5\n5 7\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn roundtrip_through_writer() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g2.num_vertices(), 4);
        assert_eq!(g2.num_edges(), 4);
        // Same edge multiset after relabelling: compare degree sequences.
        let mut d1 = g.degrees();
        let mut d2 = g2.degrees();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("kvcc_graph_io_test.txt");
        let g = UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        write_edge_list_file(&g, &path).unwrap();
        let g2 = read_snap_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), 4);
        std::fs::remove_file(&path).ok();
    }
}
