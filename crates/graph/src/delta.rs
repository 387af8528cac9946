//! Mutable overlay over an immutable CSR base: batched edge inserts and
//! deletes without rebuilding the graph.
//!
//! A [`DeltaGraph`] wraps a [`CsrGraph`] and records mutations in two small
//! side structures:
//!
//! * a **tombstone bitset** over the base's directed adjacency slots, marking
//!   base edges that have been deleted, and
//! * a per-vertex **sorted insertion list** holding edges that were added on
//!   top of the base.
//!
//! For every vertex touched by an update the merged neighbour row (base row
//! minus tombstones, plus insertions) is materialised once, so
//! [`GraphView::neighbors`] still returns a real sorted slice and every
//! algorithm in the workspace runs on a `DeltaGraph` unchanged. Untouched
//! vertices serve their base row directly — a delta over a million-vertex
//! graph that mutates a handful of vertices costs a handful of rows.
//!
//! [`DeltaGraph::compact`] (or [`DeltaGraph::into_csr`]) re-materialises the
//! graph into a clean CSR, folding the overlay into a fresh base and
//! resetting the side structures.
//!
//! Updates are tolerant in the same way [`crate::GraphBuilder`] is: inserting
//! an edge that already exists, deleting one that does not, and self-loops
//! are all counted as redundant no-ops rather than errors. Out-of-range
//! vertex ids are rejected with [`GraphError::VertexOutOfRange`].

use crate::bitset::BitSet;
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::types::VertexId;
use crate::view::GraphView;

/// The kind of a single edge mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// Add the edge (no-op if already present).
    Insert,
    /// Remove the edge (no-op if absent).
    Delete,
}

impl UpdateOp {
    /// Stable one-byte wire code (`0` = insert, `1` = delete).
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            UpdateOp::Insert => 0,
            UpdateOp::Delete => 1,
        }
    }

    /// Inverse of [`UpdateOp::code`]; `None` for unknown codes.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(UpdateOp::Insert),
            1 => Some(UpdateOp::Delete),
            _ => None,
        }
    }
}

/// One edge mutation: insert or delete the undirected edge `{u, v}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeUpdate {
    /// Insert or delete.
    pub op: UpdateOp,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
}

impl EdgeUpdate {
    /// An insertion of `{u, v}`.
    #[inline]
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        EdgeUpdate {
            op: UpdateOp::Insert,
            u,
            v,
        }
    }

    /// A deletion of `{u, v}`.
    #[inline]
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        EdgeUpdate {
            op: UpdateOp::Delete,
            u,
            v,
        }
    }
}

/// Outcome counters for a batch of updates (see [`DeltaGraph::apply`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Edges that were actually added.
    pub inserted: usize,
    /// Edges that were actually removed.
    pub deleted: usize,
    /// Updates that changed nothing (duplicate insert, missing delete,
    /// self-loop).
    pub redundant: usize,
}

/// A [`CsrGraph`] plus a mutation overlay; implements [`GraphView`] so every
/// existing algorithm runs on the mutated graph unchanged.
///
/// See the [module docs](self) for the representation.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: CsrGraph,
    /// Tombstoned directed slots of the base adjacency array.
    tombstones: BitSet,
    /// Per-vertex sorted, duplicate-free extra neighbours.
    inserts: Vec<Vec<VertexId>>,
    /// Materialised merged rows for vertices touched by any update.
    rows: Vec<Option<Vec<VertexId>>>,
    /// Current undirected edge count.
    num_edges: usize,
    /// Live inserted (undirected) edges in the overlay.
    overlay_inserted: usize,
    /// Tombstoned base (undirected) edges in the overlay.
    overlay_deleted: usize,
}

impl DeltaGraph {
    /// Wraps `base` with an empty overlay.
    pub fn new(base: CsrGraph) -> Self {
        let n = base.num_vertices();
        let slots = base.neighbor_data().len();
        let num_edges = base.num_edges();
        DeltaGraph {
            base,
            tombstones: BitSet::new(slots),
            inserts: vec![Vec::new(); n],
            rows: vec![None; n],
            num_edges,
            overlay_inserted: 0,
            overlay_deleted: 0,
        }
    }

    /// The immutable base the overlay applies to.
    #[inline]
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// Number of overlay entries: live inserted edges plus tombstoned base
    /// edges.
    #[inline]
    pub fn overlay_len(&self) -> usize {
        self.overlay_inserted + self.overlay_deleted
    }

    /// Applies one update. Returns `true` when the graph changed, `false`
    /// for a redundant update (duplicate insert, missing delete, self-loop).
    pub fn apply_update(&mut self, update: EdgeUpdate) -> Result<bool, GraphError> {
        let n = self.num_vertices();
        for endpoint in [update.u, update.v] {
            if endpoint as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: endpoint as u64,
                    num_vertices: n,
                });
            }
        }
        if update.u == update.v {
            return Ok(false);
        }
        let (u, v) = (update.u, update.v);
        let changed = match update.op {
            UpdateOp::Insert => self.insert_edge(u, v),
            UpdateOp::Delete => self.delete_edge(u, v),
        };
        if changed {
            self.refresh_row(u);
            self.refresh_row(v);
        }
        Ok(changed)
    }

    /// Applies a batch of updates in order; stops at the first out-of-range
    /// endpoint (leaving earlier updates applied).
    pub fn apply(&mut self, updates: &[EdgeUpdate]) -> Result<DeltaStats, GraphError> {
        let mut stats = DeltaStats::default();
        for &update in updates {
            if self.apply_update(update)? {
                match update.op {
                    UpdateOp::Insert => stats.inserted += 1,
                    UpdateOp::Delete => stats.deleted += 1,
                }
            } else {
                stats.redundant += 1;
            }
        }
        Ok(stats)
    }

    /// Folds the overlay into a fresh CSR base and clears the side
    /// structures. Afterwards [`DeltaGraph::overlay_len`] is zero and every
    /// row is served from the new base.
    pub fn compact(&mut self) {
        if self.overlay_len() == 0 && self.rows.iter().all(Option::is_none) {
            return;
        }
        let folded = CsrGraph::from_view(self);
        let n = folded.num_vertices();
        let slots = folded.neighbor_data().len();
        self.base = folded;
        self.tombstones = BitSet::new(slots);
        self.inserts = vec![Vec::new(); n];
        self.rows = vec![None; n];
        self.overlay_inserted = 0;
        self.overlay_deleted = 0;
    }

    /// Consumes the overlay and returns a clean [`CsrGraph`] of the current
    /// state (the base itself when no mutation ever happened).
    pub fn into_csr(mut self) -> CsrGraph {
        self.compact();
        self.base
    }

    /// The base-adjacency slot range of vertex `v`.
    #[inline]
    fn base_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let offsets = self.base.offsets();
        offsets[v as usize] as usize..offsets[v as usize + 1] as usize
    }

    /// The directed slot of `v` inside `u`'s base row, if the base edge
    /// exists.
    fn base_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let range = self.base_range(u);
        let row = &self.base.neighbor_data()[range.clone()];
        row.binary_search(&v).ok().map(|i| range.start + i)
    }

    /// Adds `{u, v}`; returns `false` when already present.
    fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if self.has_edge(u, v) {
            return false;
        }
        match (self.base_slot(u, v), self.base_slot(v, u)) {
            (Some(uv), Some(vu)) => {
                // Resurrect a tombstoned base edge.
                self.tombstones.remove(uv);
                self.tombstones.remove(vu);
                self.overlay_deleted -= 1;
            }
            _ => {
                for (a, b) in [(u, v), (v, u)] {
                    let list = &mut self.inserts[a as usize];
                    let pos = list.binary_search(&b).unwrap_err();
                    list.insert(pos, b);
                }
                self.overlay_inserted += 1;
            }
        }
        self.num_edges += 1;
        true
    }

    /// Removes `{u, v}`; returns `false` when absent.
    fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        if let Ok(pos) = self.inserts[u as usize].binary_search(&v) {
            // The edge lives in the insertion overlay.
            self.inserts[u as usize].remove(pos);
            let pos = self.inserts[v as usize]
                .binary_search(&u)
                .expect("insertion lists are symmetric");
            self.inserts[v as usize].remove(pos);
            self.overlay_inserted -= 1;
        } else {
            let uv = self
                .base_slot(u, v)
                .expect("present edge is in base or overlay");
            let vu = self.base_slot(v, u).expect("base adjacency is symmetric");
            self.tombstones.insert(uv);
            self.tombstones.insert(vu);
            self.overlay_deleted += 1;
        }
        self.num_edges -= 1;
        true
    }

    /// Re-materialises the merged row of `v` after a mutation.
    fn refresh_row(&mut self, v: VertexId) {
        let range = self.base_range(v);
        let extras = &self.inserts[v as usize];
        let mut merged = Vec::with_capacity(range.len() + extras.len());
        let base_row = &self.base.neighbor_data()[range.clone()];
        let mut e = 0usize;
        for (i, &w) in base_row.iter().enumerate() {
            if self.tombstones.contains(range.start + i) {
                continue;
            }
            while e < extras.len() && extras[e] < w {
                merged.push(extras[e]);
                e += 1;
            }
            merged.push(w);
        }
        merged.extend_from_slice(&extras[e..]);
        self.rows[v as usize] = Some(merged);
    }
}

impl GraphView for DeltaGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.rows[v as usize] {
            Some(row) => row,
            None => {
                let range = self.base_range(v);
                &self.base.neighbor_data()[range]
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .flatten()
            .map(|r| r.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        let inserts: usize = self
            .inserts
            .iter()
            .map(|l| l.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        let tombstones = self.tombstones.len().div_ceil(8);
        self.base.memory_bytes() + rows + inserts + tombstones
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CsrGraph {
        // Two triangles joined at vertex 2, plus an isolated vertex 5.
        CsrGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap()
    }

    fn assert_view_parity(delta: &DeltaGraph, expected: &CsrGraph) {
        assert_eq!(delta.num_vertices(), expected.num_vertices());
        assert_eq!(delta.num_edges(), expected.num_edges());
        for v in expected.vertices() {
            assert_eq!(delta.neighbors(v), expected.neighbors(v), "row of {v}");
        }
    }

    #[test]
    fn inserts_and_deletes_mutate_rows() {
        let mut delta = DeltaGraph::new(base());
        let stats = delta
            .apply(&[
                EdgeUpdate::insert(4, 5),
                EdgeUpdate::delete(0, 1),
                EdgeUpdate::insert(0, 3),
            ])
            .unwrap();
        assert_eq!(
            stats,
            DeltaStats {
                inserted: 2,
                deleted: 1,
                redundant: 0
            }
        );
        let expected = CsrGraph::from_edges(
            6,
            vec![(1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (0, 3)],
        )
        .unwrap();
        assert_view_parity(&delta, &expected);
        assert_eq!(delta.overlay_len(), 3);
    }

    #[test]
    fn redundant_updates_and_self_loops_are_noops() {
        let mut delta = DeltaGraph::new(base());
        let stats = delta
            .apply(&[
                EdgeUpdate::insert(0, 1), // duplicate
                EdgeUpdate::delete(0, 4), // missing
                EdgeUpdate::insert(3, 3), // self-loop
            ])
            .unwrap();
        assert_eq!(stats.redundant, 3);
        assert_eq!(stats.inserted + stats.deleted, 0);
        assert_view_parity(&delta, &base());
        assert_eq!(delta.overlay_len(), 0);
    }

    #[test]
    fn delete_then_reinsert_resurrects_the_base_edge() {
        let mut delta = DeltaGraph::new(base());
        delta.apply_update(EdgeUpdate::delete(2, 3)).unwrap();
        assert_eq!(delta.overlay_len(), 1);
        delta.apply_update(EdgeUpdate::insert(2, 3)).unwrap();
        assert_eq!(delta.overlay_len(), 0);
        assert_view_parity(&delta, &base());
    }

    #[test]
    fn insert_then_delete_cancels_the_overlay_edge() {
        let mut delta = DeltaGraph::new(base());
        delta.apply_update(EdgeUpdate::insert(1, 5)).unwrap();
        assert_eq!(delta.overlay_len(), 1);
        delta.apply_update(EdgeUpdate::delete(1, 5)).unwrap();
        assert_eq!(delta.overlay_len(), 0);
        assert_view_parity(&delta, &base());
    }

    #[test]
    fn out_of_range_endpoints_are_rejected() {
        let mut delta = DeltaGraph::new(base());
        let err = delta.apply_update(EdgeUpdate::insert(0, 6)).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange { vertex: 6, .. }
        ));
        assert_view_parity(&delta, &base());
    }

    #[test]
    fn compaction_folds_the_overlay_into_a_clean_base() {
        let mut delta = DeltaGraph::new(base());
        delta
            .apply(&[
                EdgeUpdate::delete(0, 1),
                EdgeUpdate::insert(0, 5),
                EdgeUpdate::insert(1, 5),
            ])
            .unwrap();
        assert_eq!(delta.overlay_len(), 3);
        delta.compact();
        assert_eq!(delta.overlay_len(), 0);
        let expected = CsrGraph::from_edges(
            6,
            vec![(1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 5), (1, 5)],
        )
        .unwrap();
        assert_view_parity(&delta, &expected);
        // A second compact with a clean overlay is a no-op.
        delta.compact();
        assert_view_parity(&delta, &expected);
    }

    #[test]
    fn into_csr_matches_the_mutated_view() {
        let mut delta = DeltaGraph::new(base());
        delta
            .apply(&[EdgeUpdate::insert(4, 5), EdgeUpdate::delete(2, 4)])
            .unwrap();
        let expected = CsrGraph::from_view(&delta);
        let csr = delta.into_csr();
        assert_eq!(csr.num_edges(), expected.num_edges());
        for v in expected.vertices() {
            assert_eq!(csr.neighbors(v), expected.neighbors(v));
        }
    }

    #[test]
    fn update_op_codes_roundtrip() {
        for op in [UpdateOp::Insert, UpdateOp::Delete] {
            assert_eq!(UpdateOp::from_code(op.code()), Some(op));
        }
        assert_eq!(UpdateOp::from_code(9), None);
    }
}
