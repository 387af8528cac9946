//! Max-flow / min-cut substrate for the k-VCC enumeration library.
//!
//! The paper reduces *local vertex connectivity* testing (`LOC-CUT`, §4.1) to
//! max-flow on a **directed flow graph** obtained by splitting every vertex
//! `v` into `v_in → v_out` (Fig. 3). This crate provides:
//!
//! * [`VertexFlowGraph`] — the vertex-split network held implicitly (one
//!   copy of the graph's CSR rows, or rows written straight into its own
//!   buffers by [`VertexFlowGraph::rebuild_with`], plus two flow fields per
//!   vertex, since a unit vertex capacity lets each vertex carry at most one
//!   unit) and the
//!   `LOC-CUT` probes on it: unit-capacity Dinic (Even & Tarjan) whose
//!   phases are bounded by a reverse BFS from the sink, or, from a source
//!   fixed for many probes ([`VertexFlowGraph::fix_source`]), one search
//!   per unit guided by a single BFS labelling from that source; both stop
//!   at the k-th unit (Lemma 6).
//!   [`VertexFlowGraph::local_connectivity_nonadjacent`] returns either
//!   "connectivity at least `k`" or the minimum vertex cut closest to the
//!   source, which every maximum flow shares.
//! * [`FlowNetwork`], [`dinic::max_flow`] and [`mincut`] — an explicit
//!   residual-arc network with a general-capacity Dinic and residual
//!   reachability, for flows that need arc capacities (the edge cuts of
//!   `kvcc_baselines::kecc`).
//! * [`connectivity`] — whole-graph helpers: `is_k_vertex_connected`,
//!   `global_vertex_connectivity` and an uncertified `find_vertex_cut` used as
//!   a test oracle for the optimised enumerator.
//! * [`budget`] — the cooperative [`Budget`] cancellation token polled by the
//!   Dinic phase loop and per search of a fixed-source probe (and, above this
//!   crate, by the `GLOBAL-CUT` and `KVCC-ENUM` loops), which is what makes
//!   deadlines interrupt a running flow computation instead of merely gating
//!   its start.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod connectivity;
pub mod dinic;
pub mod mincut;
pub mod network;
pub mod vertex_flow;

pub use budget::{Budget, Interrupted};
pub use connectivity::{
    global_vertex_connectivity, is_k_vertex_connected, local_vertex_connectivity,
};
pub use network::{ArcId, FlowNetwork, NodeId, INFINITE_CAPACITY};
pub use vertex_flow::{LocalConnectivity, VertexFlowGraph};
