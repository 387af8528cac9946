//! Fundamental identifier types shared by every crate in the workspace.

/// Identifier of a vertex inside a graph.
///
/// Vertices are always numbered `0..n` inside a graph (see
/// [`crate::GraphView`]). A `u32` keeps the CSR neighbour arrays compact (half
/// the size of `usize` on 64-bit platforms) while still supporting graphs with
/// up to ~4.2 billion vertices, far beyond the datasets evaluated in the
/// paper.
pub type VertexId = u32;

/// Sentinel value used to mark "no vertex" (e.g. unreachable in BFS).
pub const INVALID_VERTEX: VertexId = VertexId::MAX;

/// An undirected edge expressed as an (unordered) pair of endpoints.
///
/// Throughout the workspace edges are normalised so that `0 <= e.0 < e.1`.
pub type Edge = (VertexId, VertexId);

/// Normalises an edge so that the smaller endpoint comes first.
///
/// Self-loops are returned unchanged; callers that must reject them should do
/// so explicitly (the [`crate::GraphBuilder`] silently drops them).
#[inline]
pub fn normalize_edge(u: VertexId, v: VertexId) -> Edge {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_orders_endpoints() {
        assert_eq!(normalize_edge(3, 1), (1, 3));
        assert_eq!(normalize_edge(1, 3), (1, 3));
        assert_eq!(normalize_edge(5, 5), (5, 5));
        assert_eq!(normalize_edge(0, INVALID_VERTEX), (0, INVALID_VERTEX));
    }
}
