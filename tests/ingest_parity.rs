//! Streaming-ingestion and zero-copy-format parity.
//!
//! The two-pass streaming loader (a byte scan that interns ids into one
//! pair list, then a counting-sort CSR build) must be byte-for-byte
//! indistinguishable from the in-memory `parse_edge_list` → `GraphBuilder`
//! path: same interning order, same dedup/self-loop diagnostics, same CSR —
//! on the paper's dataset stand-ins, on random families and on hand-written
//! lines that stray from the plain `u<TAB>v` shape, through read buffers
//! small enough that lines straddle refills. The aligned `KCSR` v3 format
//! must answer identically whether the buffer is borrowed zero-copy or
//! decoded into a fresh copy, and hostile bytes (malformed edge lists,
//! invalid UTF-8, truncated or bit-flipped files, random garbage) must
//! error — never panic, never produce a graph.

use std::io::{BufReader, Cursor, ErrorKind};

use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::er::gnm;
use kvcc_datasets::figure1_graph;
use kvcc_datasets::planted::planted_communities;
use kvcc_datasets::PlantedConfig;
use kvcc_graph::io::parse_edge_list_diagnostic;
use kvcc_graph::{
    borrow_kcsr, decode_kcsr, AlignedBytes, CsrGraph, GraphBuilder, GraphError,
    StreamingEdgeListLoader, UndirectedGraph, VertexId,
};

/// The graphs the parity checks run over: the paper's stand-ins plus random
/// families.
fn graph_family() -> Vec<(String, UndirectedGraph)> {
    let mut graphs = vec![
        ("figure1".to_string(), figure1_graph().graph),
        (
            "planted".to_string(),
            planted_communities(&PlantedConfig {
                num_communities: 4,
                chain_length: 2,
                background_vertices: 300,
                seed: 17,
                ..PlantedConfig::default()
            })
            .graph,
        ),
        (
            "collaboration".to_string(),
            collaboration_graph(&CollaborationConfig::default()).graph,
        ),
    ];
    for seed in 0..4u64 {
        let n = 40 + seed as usize * 19;
        graphs.push((format!("er-{seed}"), gnm(n, 3 * n, 0xE5 ^ seed)));
        graphs.push((format!("ba-{seed}"), barabasi_albert(n, 3, 0xBA ^ seed)));
    }
    graphs
}

fn xorshift64(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Renders `g` as a deliberately messy SNAP-style edge list: non-contiguous
/// raw ids, shuffled line order, comment/blank lines, every 7th edge
/// repeated and a couple of self-loops. Returns the text plus the expected
/// drop counts.
fn messy_edge_list(g: &UndirectedGraph, seed: u64) -> (String, usize, usize) {
    let raw = |v: VertexId| v as u64 * 10 + 3;
    let mut lines: Vec<String> = Vec::new();
    let mut duplicates = 0usize;
    for v in 0..g.num_vertices() as VertexId {
        for &u in g.neighbors(v) {
            if v < u {
                lines.push(format!("{}\t{}", raw(v), raw(u)));
                if lines.len().is_multiple_of(7) {
                    // Repeat in the reversed orientation: still a duplicate.
                    lines.push(format!("{} {}", raw(u), raw(v)));
                    duplicates += 1;
                }
            }
        }
    }
    let self_loops = 2.min(g.num_vertices());
    for v in 0..self_loops as VertexId {
        lines.push(format!("{} {}", raw(v), raw(v)));
    }
    // Deterministic shuffle. First-appearance interning then differs from
    // vertex order, which both ingestion paths must agree on anyway.
    let mut next = xorshift64(seed);
    for i in (1..lines.len()).rev() {
        lines.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut text = String::from("# messy render\n\n% percent comments too\n");
    for line in &lines {
        text.push_str(line);
        text.push('\n');
    }
    (text, duplicates, self_loops)
}

/// The raw ids in the in-memory path's numbering: `GraphBuilder::add_edge_raw`
/// over the tokens `parse_edge_list_diagnostic` reads.
fn in_memory_external_ids(text: &str) -> Vec<u64> {
    let mut builder = GraphBuilder::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut ids = line.split_whitespace().map(|t| t.parse::<u64>().unwrap());
        builder.add_edge_raw(ids.next().unwrap(), ids.next().unwrap());
    }
    (0..).map_while(|v| builder.raw_id_of(v)).collect()
}

/// Lines both paths accept that the plain `u<TAB>v` render never writes.
const ODD_BUT_VALID: &[(&str, &str)] = &[
    ("plus signs", "+1 +2\n2 +3\n+3 1\n"),
    ("VT/FF separators", "1\x0B2\n\x0C2\x0C\x0B3\x0B\n3\x0C1\n"),
    ("CRLF endings", "# header\r\n1 2\r\n\r\n2 3\r\n3 1\r\n"),
    (
        "U+00A0 and U+3000",
        "1\u{A0}2\n2\u{3000}3\n3 1\n7\u{A0}\u{3000}1\n",
    ),
    ("leading zeros", "007 0\n00 7\n0007\t000\n7 8\n"),
    (
        "u64::MAX",
        "18446744073709551615 1\n1 2\n2 18446744073709551615\n",
    ),
    (
        "trailing tokens",
        "1 2 3 4\n2 3 1.5 junk\n3 1\t+x \u{FEFF}\n",
    ),
    ("no final newline", "1 2\n2 3\n3 1"),
];

#[test]
fn streaming_and_in_memory_ingestion_are_byte_identical() {
    let mut inputs = Vec::new();
    for (name, g) in graph_family() {
        let (text, duplicates, self_loops) = messy_edge_list(&g, 0x9e37 ^ g.num_edges() as u64);
        let (_, parsed_stats) = parse_edge_list_diagnostic(&text).unwrap();
        assert_eq!(parsed_stats.duplicates, duplicates, "{name}");
        assert_eq!(parsed_stats.self_loops, self_loops, "{name}");
        inputs.push((name, text));
    }
    for &(name, text) in ODD_BUT_VALID {
        inputs.push((name.to_string(), text.to_string()));
    }
    for (name, text) in inputs {
        let (parsed, parsed_stats) = parse_edge_list_diagnostic(&text).unwrap();
        let reference = CsrGraph::from_view(&parsed).to_bytes_aligned();
        let external_ids = in_memory_external_ids(&text);
        // Read buffers of one and seven bytes, so lines straddle refills,
        // and the default.
        for capacity in [Some(1usize), Some(7), None] {
            let reader = match capacity {
                Some(capacity) => BufReader::with_capacity(capacity, text.as_bytes()),
                None => BufReader::new(text.as_bytes()),
            };
            let loaded = StreamingEdgeListLoader::new().load_reader(reader).unwrap();
            assert_eq!(loaded.stats, parsed_stats, "{name}, buffer {capacity:?}");
            assert_eq!(
                loaded.graph.to_bytes_aligned(),
                reference,
                "{name}, buffer {capacity:?}: CSR bytes diverge"
            );
            assert_eq!(
                loaded.graph.num_vertices(),
                parsed.num_vertices(),
                "{name}, buffer {capacity:?}"
            );
            assert_eq!(
                loaded.external_ids, external_ids,
                "{name}, buffer {capacity:?}"
            );
        }
    }
}

#[test]
fn borrowed_and_decoded_kcsr_views_agree() {
    for (name, g) in graph_family() {
        let csr = CsrGraph::from_view(&g);
        let bytes = csr.to_bytes_aligned();
        let aligned = AlignedBytes::copy_from(&bytes);
        let borrowed = borrow_kcsr(aligned.as_bytes()).unwrap();
        let decoded = decode_kcsr(&bytes).unwrap();
        assert_eq!(borrowed.num_vertices(), csr.num_vertices(), "{name}");
        assert_eq!(decoded.num_vertices(), csr.num_vertices(), "{name}");
        assert_eq!(borrowed.num_edges(), csr.num_edges(), "{name}");
        assert_eq!(decoded.num_edges(), csr.num_edges(), "{name}");
        for v in 0..csr.num_vertices() as VertexId {
            assert_eq!(borrowed.neighbors(v), csr.neighbors(v), "{name}, {v}");
            assert_eq!(decoded.neighbors(v), csr.neighbors(v), "{name}, {v}");
        }
        // The generic dispatcher picks the aligned decoder from the version
        // byte, so the one entry point covers all wire formats.
        let via_dispatch = CsrGraph::from_bytes(&bytes).unwrap();
        assert_eq!(via_dispatch.to_bytes_aligned(), bytes, "{name}");
    }
}

#[test]
fn malformed_edge_lists_error_identically_and_never_panic() {
    let cases: &[&str] = &[
        "1",
        "1 2\n3",
        "a b",
        "1 two\n",
        "0 1\n1 x 2\n",
        "-1 2\n",
        "1.5 2\n",
        "99999999999999999999999999 1\n",
        "18446744073709551616 1\n",
        "0 1\n\u{FEFF}2 3\n",
        "0 1\n1 2\x1C3\n",
    ];
    for (i, text) in cases.iter().enumerate() {
        let streamed = StreamingEdgeListLoader::new().load_reader(Cursor::new(text.as_bytes()));
        let parsed = parse_edge_list_diagnostic(text);
        let streamed = streamed.expect_err(&format!("case {i} must fail"));
        let parsed = parsed.expect_err(&format!("case {i} must fail in memory too"));
        // Identical diagnostics: same line numbers, same message.
        assert_eq!(streamed.to_string(), parsed.to_string(), "case {i}");
    }
}

#[test]
fn invalid_utf8_fails_with_invalid_data_even_where_it_is_ignored() {
    // After the second token (the tail the id scan never parses) and inside
    // a comment: `read_line` rejected both, so the loader still must.
    for bytes in [&b"0 1\n1 2 \xFF\n"[..], b"0 1\n# caf\xE9\n1 2\n"] {
        match StreamingEdgeListLoader::new().load_reader(Cursor::new(bytes)) {
            Err(GraphError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{bytes:?}"),
            other => panic!("{bytes:?}: expected InvalidData, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_kcsr_bytes_error_and_never_panic() {
    let g = collaboration_graph(&CollaborationConfig::default()).graph;
    let bytes = CsrGraph::from_view(&g).to_bytes_aligned();

    // Truncations at every length (alignment-preserving copies, so the
    // borrow path reaches its validation logic rather than bailing on
    // alignment).
    for len in 0..bytes.len() {
        if len % 5 != 0 && len + 8 <= bytes.len() {
            continue; // sample the interior, cover the tail densely
        }
        let aligned = AlignedBytes::copy_from(&bytes[..len]);
        assert!(borrow_kcsr(aligned.as_bytes()).is_err(), "truncate {len}");
        assert!(decode_kcsr(&bytes[..len]).is_err(), "truncate {len}");
    }

    // Sampled single-bit flips across the whole file (the kvcc-graph unit
    // suite proves the exhaustive version on a smaller graph).
    for byte in (0..bytes.len()).step_by(11) {
        for bit in [0u8, 5] {
            let mut evil = bytes.clone();
            evil[byte] ^= 1 << bit;
            let aligned = AlignedBytes::copy_from(&evil);
            assert!(
                borrow_kcsr(aligned.as_bytes()).is_err(),
                "bit flip at {byte}:{bit} accepted by borrow"
            );
            assert!(
                decode_kcsr(&evil).is_err(),
                "bit flip at {byte}:{bit} accepted by decode"
            );
        }
    }

    // Random garbage of assorted sizes.
    let mut next = xorshift64(0xBAD5EED);
    for len in [0usize, 7, 31, 32, 33, 256, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let aligned = AlignedBytes::copy_from(&garbage);
        assert!(borrow_kcsr(aligned.as_bytes()).is_err(), "garbage {len}");
        assert!(decode_kcsr(&garbage).is_err(), "garbage {len}");
    }
}
