//! Incremental, tolerant graph construction.

use crate::csr::{CsrGraph, EdgeIngestStats};
use crate::types::VertexId;

/// A builder that accumulates edges with arbitrary (possibly sparse) vertex
/// ids and produces a compact [`CsrGraph`].
///
/// The builder:
/// * accepts edges in any order,
/// * silently drops self-loops and duplicate edges,
/// * grows the vertex count to cover the largest id seen (or a fixed `n`
///   requested via [`GraphBuilder::with_vertices`]),
/// * optionally relabels arbitrary `u64` ids (as found in SNAP edge lists) to
///   the compact range `0..n` via [`GraphBuilder::add_edge_raw`].
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
    /// Mapping from raw (external) ids to compact internal ids, allocated
    /// lazily — only used by [`add_edge_raw`](GraphBuilder::add_edge_raw).
    raw_ids: std::collections::HashMap<u64, VertexId>,
    raw_order: Vec<u64>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-declares the number of vertices. The final graph has at least this
    /// many vertices even if some of them never appear in an edge.
    pub fn with_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds an undirected edge between compact ids `u` and `v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
    }

    /// Adds many edges at once.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }

    /// Adds an edge expressed in an arbitrary external id space (e.g. the 64-bit
    /// ids of SNAP edge lists). Ids are relabelled to a compact range in order
    /// of first appearance; [`GraphBuilder::raw_id_of`] recovers the mapping.
    pub fn add_edge_raw(&mut self, u: u64, v: u64) {
        let a = self.intern_raw(u);
        let b = self.intern_raw(v);
        self.edges.push((a, b));
    }

    fn intern_raw(&mut self, raw: u64) -> VertexId {
        if let Some(&id) = self.raw_ids.get(&raw) {
            return id;
        }
        let id = self.raw_order.len() as VertexId;
        self.raw_ids.insert(raw, id);
        self.raw_order.push(raw);
        id
    }

    /// The external id that was relabelled to compact id `v`, when
    /// [`add_edge_raw`](GraphBuilder::add_edge_raw) was used. Returns `None`
    /// for ids created through [`add_edge`](GraphBuilder::add_edge).
    pub fn raw_id_of(&self, v: VertexId) -> Option<u64> {
        self.raw_order.get(v as usize).copied()
    }

    /// Number of edges accumulated so far (before deduplication).
    pub fn pending_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the builder into a [`CsrGraph`].
    pub fn build(self) -> CsrGraph {
        self.build_diagnostic().0
    }

    /// Finalises the builder, also reporting how many self-loops and
    /// duplicate edges were dropped (io diagnostics for messy edge lists).
    ///
    /// # Panics
    ///
    /// If the vertex count exceeds the [`VertexId`] range: an edge touching
    /// [`crate::INVALID_VERTEX`], or [`GraphBuilder::with_vertices`] beyond
    /// it.
    pub fn build_diagnostic(self) -> (CsrGraph, EdgeIngestStats) {
        let mut n = self.min_vertices.max(self.raw_order.len());
        for &(u, v) in &self.edges {
            n = n.max(u as usize + 1).max(v as usize + 1);
        }
        CsrGraph::from_edges_diagnostic(n, self.edges)
            .expect("more vertices than `VertexId` can number")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;

    #[test]
    fn builder_grows_to_cover_ids() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 7);
        b.add_edge(3, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn builder_respects_declared_vertex_count() {
        let mut b = GraphBuilder::new().with_vertices(10);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }

    #[test]
    fn builder_drops_duplicates_and_loops() {
        let mut b = GraphBuilder::new();
        b.extend_edges(vec![(0, 1), (1, 0), (2, 2), (0, 1)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn raw_ids_are_compacted_in_first_seen_order() {
        let mut b = GraphBuilder::new();
        b.add_edge_raw(1_000_000, 42);
        b.add_edge_raw(42, 7);
        let g = b.clone().build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(b_raw(&b, 0), 1_000_000);
        assert_eq!(b_raw(&b, 1), 42);
        assert_eq!(b_raw(&b, 2), 7);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    fn b_raw(b: &GraphBuilder, v: VertexId) -> u64 {
        b.raw_id_of(v).unwrap()
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(GraphBuilder::new().pending_edges(), 0);
    }
}
