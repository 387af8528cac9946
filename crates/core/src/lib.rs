//! Enumeration of **k-vertex connected components** (k-VCCs) in large graphs.
//!
//! This crate implements the algorithms of *"Enumerating k-Vertex Connected
//! Components in Large Graphs"* (Dong Wen, Lu Qin, Xuemin Lin, Ying Zhang,
//! Lijun Chang — ICDE 2019):
//!
//! * the cut-based enumeration framework `KVCC-ENUM` (Algorithm 1), exposed as
//!   [`enumerate_kvccs`] / [`KvccEnumerator`];
//! * the basic cut-finding routine `GLOBAL-CUT` (Algorithm 2) and its optimised
//!   variant `GLOBAL-CUT*` (Algorithm 3) in [`global_cut`];
//! * the sparse certificate and side-groups of §4.2/§5.2 in [`certificate`];
//! * strong side-vertex detection (§5.1.1) in [`side_vertex`];
//! * the neighbor-sweep and group-sweep pruning rules with vertex/group
//!   deposits (§5.1–5.2, Algorithm 4) in [`sweep`];
//! * overlapped graph partitioning (`OVERLAP-PARTITION`) in [`partition`];
//! * run statistics matching the paper's evaluation (Table 2, Figs. 10–12) in
//!   [`stats`], and result verification helpers in [`verify`];
//! * three extensions beyond the paper: the nested k-VCC [`hierarchy`] across
//!   all levels of `k`, localized seed-vertex [`query`]s
//!   ([`kvccs_containing`]), and the [`ConnectivityIndex`], the forest the
//!   hierarchy's level loop writes, which answers repeated
//!   seed/level/pairwise-connectivity queries without re-running any flow
//!   computation and repairs itself after edge updates.
//!
//! # Quick start
//!
//! ```
//! use kvcc::{enumerate_kvccs, KvccOptions};
//! use kvcc_graph::UndirectedGraph;
//!
//! // Two triangles sharing a single vertex: the 2-VCCs are the two triangles.
//! let g = UndirectedGraph::from_edges(
//!     5,
//!     vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
//! )
//! .unwrap();
//! let result = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
//! assert_eq!(result.num_components(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod error;
pub mod global_cut;
pub mod hierarchy;
pub mod index;
pub mod options;
pub mod partition;
pub mod query;
pub mod result;
pub mod side_vertex;
pub mod stats;
pub mod sweep;
pub mod verify;

mod enumerate;
#[cfg(test)]
mod testing;

pub use enumerate::{enumerate_kvccs, KvccEnumerator};
pub use error::KvccError;
pub use index::{ConnectivityIndex, RankBy, RankedComponent, UpdateReport};
// Edge updates are defined next to `DeltaGraph` in `kvcc-graph`; re-exported
// here because `ConnectivityIndex::apply_updates` consumes them.
pub use kvcc_graph::{DeltaGraph, EdgeUpdate, UpdateOp};
// The cancellation token lives in `kvcc-flow` (the lowest crate that polls
// it); re-exported here because `KvccOptions::budget` is its primary home.
pub use kvcc_flow::{Budget, Interrupted};
pub use options::{effective_threads, split_cost, AlgorithmVariant, KvccOptions};
pub use query::kvccs_containing;
pub use result::{KVertexConnectedComponent, KvccResult};
pub use stats::EnumerationStats;
