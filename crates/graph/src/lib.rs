//! Undirected graph substrate for the k-VCC enumeration library.
//!
//! This crate provides the graph data structures and classic graph algorithms
//! that the paper *"Enumerating k-Vertex Connected Components in Large Graphs"*
//! (Wen et al., ICDE 2019) relies on:
//!
//! * [`GraphView`] — the read-only trait every algorithm in the workspace is
//!   generic over, with [`SubgraphView`] as the copy-free vertex-mask view
//!   used by the recursive partitioning.
//! * [`bitset`] — word-packed [`BitSet`] / [`EpochBitSet`] masks backing
//!   every hot-loop visited/alive/pruned flag in the workspace.
//! * [`CsrGraph`] — the one owned graph type: a compressed-sparse-row
//!   representation (two flat arrays) with sorted, duplicate-free rows,
//!   validated edge-list constructors and induced-subgraph extraction
//!   ([`CsrSubgraph`]). [`UndirectedGraph`] is another name for it.
//! * [`reorder`] — the hybrid locality relabelling (per-component BFS seeded
//!   at each component's hub) with both id maps, applied via
//!   [`csr::CsrGraph::reordered`].
//! * [`DeltaGraph`] — a mutable overlay (tombstone bitset + sorted insertion
//!   adjacency) applying batched [`EdgeUpdate`]s on top of an immutable CSR
//!   base, folded back into a clean [`CsrGraph`] by [`DeltaGraph::compact`].
//! * [`codec`] — the LEB128 varint and delta-row primitives every wire
//!   format shares.
//! * [`GraphBuilder`] — tolerant construction from arbitrary edge lists
//!   (duplicate edges and self-loops are dropped, isolated vertices kept).
//! * [`traversal`] — BFS distances, connected and biconnected components,
//!   reachability.
//! * [`kcore`] — linear-time core decomposition, and Algorithm 1's lines
//!   2–3 written once: one k-core peel loop over an alive mask and one
//!   k-core split, which every crate of the workspace calls.
//! * [`scan_first`] — `k` successive scan-first-search forests, whose union
//!   is the sparse certificate of §4.2: round 1 reads the input's rows, each
//!   later round scans only the residual rows the earlier forests left and
//!   compacts them as it goes, and the union is a transpose written into any
//!   pair of CSR buffers.
//! * [`metrics`] — diameter, edge density and clustering coefficient used by
//!   the effectiveness study (Figs. 7–9).
//! * [`io`] — SNAP-style edge-list reading and writing (Table 1 datasets).
//! * [`load`] — SNAP-scale streaming ingestion: [`StreamingEdgeListLoader`]
//!   scans the text once as bytes, numbering raw ids through a dense table
//!   bounded by the vertex count (a hash map past it), then builds CSR by
//!   counting sort; the text is never held whole.
//! * [`kcsr`] — the aligned `KCSR` v3 binary format whose offset/neighbour
//!   arrays can be **borrowed** from the byte buffer ([`CsrGraphRef`],
//!   [`MappedCsr`]) instead of decoded: file-backed loads are O(header)
//!   plus one validation sweep.
//!
//! The crate has no third-party runtime dependencies.
//!
//! `unsafe` is denied crate-wide with a single audited exception: the
//! alignment-checked byte↔word reinterpreting casts inside [`kcsr`] that
//! make the zero-copy borrow possible.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod builder;
pub mod codec;
pub mod csr;
pub mod delta;
pub mod error;
pub mod graph;
pub mod io;
pub mod kcore;
pub mod kcsr;
pub mod load;
pub mod metrics;
pub mod reorder;
pub mod scan_first;
pub mod traversal;
pub mod types;
pub mod view;

pub use bitset::{BitSet, EpochBitSet};
pub use builder::GraphBuilder;
pub use csr::{CsrGraph, CsrSubgraph, EdgeIngestStats};
pub use delta::{DeltaGraph, DeltaStats, EdgeUpdate, UpdateOp};
pub use error::GraphError;
pub use graph::UndirectedGraph;
pub use kcsr::{borrow_kcsr, decode_kcsr, write_kcsr_file, AlignedBytes, CsrGraphRef, MappedCsr};
pub use load::{IngestedGraph, StreamingEdgeListLoader};
pub use reorder::{hybrid_ordering, VertexOrdering};
pub use types::{VertexId, INVALID_VERTEX};
pub use view::{GraphView, SubgraphView};

/// Resolves a requested worker count to a concrete one: `0` means
/// [`std::thread::available_parallelism`], anything else is taken verbatim.
/// Shared by the enumeration worklist and the `kvcc-service` batch pool
/// (re-exported as `kvcc::effective_threads`).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_zero_to_available_parallelism() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
