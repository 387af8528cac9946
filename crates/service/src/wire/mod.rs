//! The byte layer of the service: codecs, frames, transports, work items.
//!
//! Everything that crosses a process boundary lives under this module:
//!
//! * [`codec`] — the shared varint/delta primitives (re-exported from
//!   [`kvcc_graph::codec`]) plus the string/bytes helpers the protocol
//!   needs;
//! * [`message`] — the protocol byte codec: [`crate::Request`] /
//!   [`crate::Response`] `to_bytes`/`from_bytes` with version tag and full
//!   validation;
//! * [`frame`] — the length-prefixed frame format every transport speaks;
//! * [`transport`] — the [`Transport`](transport::Transport) trait, the
//!   in-process loopback implementation, and the byte-driven shard worker;
//! * [`socket`] — the same trait over real TCP and Unix sockets, plus the
//!   [`ShardPool`](socket::ShardPool) accept loop behind `kvcc-shardd`;
//! * [`faults`] — the seeded fault-injection decorator
//!   ([`FaultTransport`](faults::FaultTransport)) for reproducible chaos
//!   testing of the shard coordinator;
//! * [`CsrWorkItem`] — the self-contained unit of sharded enumeration (a
//!   compact CSR subgraph plus the mapping of its local ids back to the
//!   input graph).
//!
//! All formats are hand-rolled (no serialisation crate in the offline
//! build) and validated on ingest, so hostile bytes are rejected with an
//! error instead of panicking or producing incoherent structures.

pub mod codec;
pub mod faults;
pub mod frame;
pub mod message;
pub mod socket;
pub mod transport;

use kvcc::{enumerate_kvccs, KVertexConnectedComponent, KvccError, KvccOptions};
use kvcc_graph::{CsrGraph, GraphError, VertexId};

/// Magic bytes opening every serialised work item.
const ITEM_WIRE_MAGIC: [u8; 4] = *b"KWRK";
/// Version byte of the work-item wire format. Version 2 switched the
/// embedded graph to the compact CSR encoding and the id map to varints
/// (the shared [`kvcc_graph::codec`] primitives).
const ITEM_WIRE_VERSION: u8 = 2;

/// One unit of sharded enumeration: a subgraph in its own compact id space
/// plus the mapping back to the ids of the input graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrWorkItem {
    graph: CsrGraph,
    to_original: Vec<VertexId>,
}

impl CsrWorkItem {
    /// Creates a work item; `to_original` must have one entry per vertex of
    /// `graph`.
    pub fn new(graph: CsrGraph, to_original: Vec<VertexId>) -> Self {
        assert_eq!(
            graph.num_vertices(),
            to_original.len(),
            "id map must cover every vertex of the work item"
        );
        CsrWorkItem { graph, to_original }
    }

    /// The subgraph, in local ids `0..n`.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// `to_original[local]` is the vertex id in the input graph.
    pub fn to_original(&self) -> &[VertexId] {
        &self.to_original
    }

    /// Serialises the item: magic, version, then the compact CSR buffer
    /// ([`CsrGraph::to_bytes_compact`]) behind a varint length, and the id
    /// map as one varint per entry (the map count is the graph's vertex
    /// count, so it is not repeated on the wire).
    pub fn to_bytes(&self) -> Vec<u8> {
        use kvcc_graph::codec::varint;
        let graph_bytes = self.graph.to_bytes_compact();
        let mut out =
            Vec::with_capacity(4 + 1 + 5 + graph_bytes.len() + 5 * self.to_original.len());
        out.extend_from_slice(&ITEM_WIRE_MAGIC);
        out.push(ITEM_WIRE_VERSION);
        varint::encode_u32(graph_bytes.len() as u32, &mut out);
        out.extend_from_slice(&graph_bytes);
        for &v in &self.to_original {
            varint::encode_u32(v, &mut out);
        }
        out
    }

    /// Deserialises a buffer produced by [`CsrWorkItem::to_bytes`],
    /// re-validating every structural invariant of the embedded graph.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GraphError> {
        use kvcc_graph::codec::Reader;
        let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
        if bytes.len() < 5 {
            return Err(malformed("work-item buffer shorter than the header"));
        }
        if bytes[..4] != ITEM_WIRE_MAGIC {
            return Err(malformed("bad magic (not a work-item buffer)"));
        }
        if bytes[4] != ITEM_WIRE_VERSION {
            return Err(malformed("unsupported work-item version"));
        }
        let mut r = Reader::new(&bytes[5..]);
        let graph_len = r
            .varint_u32()
            .ok_or_else(|| malformed("graph length truncated"))? as usize;
        let graph_bytes = r
            .take(graph_len)
            .ok_or_else(|| malformed("work-item buffer truncated before the id map"))?;
        let graph = CsrGraph::from_bytes(graph_bytes)?;
        let mut to_original = Vec::with_capacity(graph.num_vertices().min(r.remaining()));
        for _ in 0..graph.num_vertices() {
            to_original.push(
                r.varint_u32()
                    .ok_or_else(|| malformed("id map must cover every vertex"))?,
            );
        }
        r.finish()
            .ok_or_else(|| malformed("id map length disagrees with the buffer"))?;
        Ok(CsrWorkItem { graph, to_original })
    }
}

/// Runs the enumeration on one (possibly deserialised) work item and maps the
/// resulting components back to **original** graph ids — the shard side of a
/// distributed `KVCC-ENUM`. The union of the results over the items produced
/// by [`crate::ServiceEngine::partition_work`] equals a whole-graph
/// enumeration.
pub fn run_work_item(
    item: &CsrWorkItem,
    k: u32,
    options: &KvccOptions,
) -> Result<Vec<KVertexConnectedComponent>, KvccError> {
    let result = enumerate_kvccs(item.graph(), k, options)?;
    let mut mapped: Vec<KVertexConnectedComponent> = result
        .iter()
        .map(|c| {
            let original: Vec<VertexId> = c
                .vertices()
                .iter()
                .map(|&local| item.to_original()[local as usize])
                .collect();
            KVertexConnectedComponent::new(original)
        })
        .collect();
    mapped.sort();
    Ok(mapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> CsrWorkItem {
        let graph =
            CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        CsrWorkItem::new(graph, vec![10, 11, 12, 13, 14])
    }

    #[test]
    fn byte_roundtrip_preserves_the_item() {
        let original = item();
        let bytes = original.to_bytes();
        let back = CsrWorkItem::from_bytes(&bytes).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn corrupted_buffers_are_rejected() {
        let good = item().to_bytes();
        assert!(CsrWorkItem::from_bytes(&good[..5]).is_err());
        assert!(CsrWorkItem::from_bytes(&good[..good.len() - 4]).is_err());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'Z';
        assert!(CsrWorkItem::from_bytes(&bad_magic).is_err());
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(CsrWorkItem::from_bytes(&bad_version).is_err());
    }

    #[test]
    fn running_a_deserialised_item_reports_original_ids() {
        let bytes = item().to_bytes();
        let shipped = CsrWorkItem::from_bytes(&bytes).unwrap();
        let comps = run_work_item(&shipped, 2, &KvccOptions::default()).unwrap();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].vertices(), &[10, 11, 12]);
        assert_eq!(comps[1].vertices(), &[12, 13, 14]);
    }

    #[test]
    #[should_panic(expected = "id map must cover")]
    fn mismatched_map_is_rejected_at_construction() {
        let graph = CsrGraph::from_edges(3, vec![(0, 1)]).unwrap();
        let _ = CsrWorkItem::new(graph, vec![0, 1]);
    }
}
