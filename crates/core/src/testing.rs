//! Fixtures shared by the unit tests of several modules.

use kvcc_graph::{CsrGraph, DeltaGraph, EdgeUpdate, GraphView, VertexId};

/// A [`DeltaGraph`] with exactly the edge set of `g`, over a different base:
/// the base lacks every third edge of `g` and holds the pairs
/// `(v, v + 1 mod n)` that `g` lacks, and the overlay inserts the former and
/// deletes the latter. It is the kind of view the index repair reads after
/// an update batch.
pub(crate) fn rebased(g: &CsrGraph) -> DeltaGraph {
    let n = g.num_vertices() as VertexId;
    let mut base_edges = Vec::new();
    let mut updates = Vec::new();
    for (i, (u, v)) in g.edges().enumerate() {
        if i % 3 == 0 {
            updates.push(EdgeUpdate::insert(u, v));
        } else {
            base_edges.push((u, v));
        }
    }
    for v in 0..n {
        let w = (v + 1) % n;
        if v != w && !g.has_edge(v, w) {
            base_edges.push((v, w));
            updates.push(EdgeUpdate::delete(v, w));
        }
    }
    let base = CsrGraph::from_edges(n as usize, base_edges).expect("ids lie inside g");
    assert_ne!(&base, g, "the base must differ from g");
    let mut delta = DeltaGraph::new(base);
    delta.apply(&updates).expect("ids lie inside g");
    assert_eq!(delta.num_edges(), g.num_edges());
    assert!(g.vertices().all(|v| delta.neighbors(v) == g.neighbors(v)));
    delta
}
