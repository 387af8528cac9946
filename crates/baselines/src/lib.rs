//! Baseline cohesive-subgraph models and exact oracles.
//!
//! The paper's effectiveness study (Figs. 7–9, the Fig. 1 example and the
//! Fig. 14 case study) compares k-VCCs against two weaker models, and the test
//! suite of the workspace cross-checks the optimised enumerator against exact
//! oracles. This crate provides all of them:
//!
//! * [`kcore_cc`] — connected components of the k-core ("k-CC" in the
//!   figures);
//! * [`kecc`] — k-edge connected components, computed by recursive edge-cut
//!   partitioning; each cut comes from unit-capacity Dinic flows from a
//!   minimum-degree source, stopped at `k`;
//! * [`stoer_wagner`] — the global minimum edge cut
//!   ([`global_min_edge_cut`]), also the tests' oracle for the k-ECCs' edge
//!   connectivity;
//! * [`bicc`] — biconnected components (Hopcroft–Tarjan), re-exported from
//!   [`kvcc_graph::traversal`], whose linear-time level 2 of the k-VCC
//!   hierarchy they also are; here a flow-free oracle for the `k = 2` case
//!   of the enumeration;
//! * [`naive_vcc`] — a brute-force k-VCC oracle for tiny graphs, used by the
//!   property-based tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bicc;
pub mod kcore_cc;
pub mod kecc;
pub mod ktruss;
pub mod naive_vcc;
pub mod stoer_wagner;

pub use bicc::biconnected_components;
pub use kcore_cc::k_core_components;
pub use kecc::k_edge_connected_components;
pub use ktruss::k_truss_components;
pub use naive_vcc::naive_kvccs;
pub use stoer_wagner::global_min_edge_cut;
