//! Scan-first search forests (Cheriyan, Kao & Thurimella).
//!
//! A *scan-first search* marks all neighbours of the vertex currently being
//! scanned and then scans any marked-but-unscanned vertex next; breadth-first
//! search is the special case the paper uses (§4.2, Example 5). The edges used
//! to mark vertices form a spanning forest, and the union of `k` successive
//! forests — each computed on the graph minus the previously selected edges —
//! is a sparse certificate for k-vertex connectivity (Theorem 5).
//! [`scan_first_forests`] builds that union; the side-groups of §5.2, taken
//! from its k-th forest, live in the `kvcc` core crate's certificate module.
//!
//! # Residual rows
//!
//! The rounds run on one copy of the input's rows, which each round compacts
//! in place as it scans them. Scanning `u` drops the arcs to the vertices the
//! scan marks (their tree edges) and the arc to `u`'s own parent, writes
//! every other arc back in order, and moves the dropped arcs into the slots
//! this frees at the row's end. A vertex's tree edges are all fixed by the
//! end of its own scan (its parent edge when it was marked, its child edges
//! during the scan), and only that scan rewrites its row, so round `r + 1`
//! scans exactly the graph minus forests `1..=r`, each row in the input's
//! order. When `u` is scanned, the one arc of its residual row whose edge the
//! current forest already holds leads to its parent, which is marked; so
//! testing the mark alone marks the same vertices, through the same edges and
//! in the same order, as testing a used-edge flag as well. No edge ids,
//! used-edge bitmap or reverse-arc lookup are needed.
//!
//! The last round keeps no residual rows. It still moves its tree arcs to
//! the row ends, but writes no kept arc back and counts the kept arcs
//! instead: all of the row but the children and the one parent arc. No
//! later round reads the rows, so after it they hold stale arcs up to
//! `end[v]`, and only the tails below are read.
//!
//! After the rounds each row ends in its *tail*: its arcs in the union, in
//! no particular order. The union's rows are the transpose of the tails:
//! visiting the vertices in ascending order and appending `u` to the row of
//! every `w` in `u`'s tail fills each row in ascending order, and since the
//! union is undirected, row `w` receives exactly `w`'s tail. This counting
//! sort reads no input row and compares no ids.

use crate::csr::CsrGraph;
use crate::types::{VertexId, INVALID_VERTEX};
use crate::view::GraphView;

/// The union of up to `k` successive scan-first forests, from
/// [`scan_first_forests`].
#[derive(Clone, Debug)]
pub struct ScanFirstForests {
    /// The union of the forests, on the input's vertex ids, stored at exact
    /// capacity.
    pub union: CsrGraph,
    /// Number of edges of each forest, in order. The rounds stop at the first
    /// empty forest, so the vector may be shorter than `k`.
    pub forest_sizes: Vec<usize>,
    /// `kth_trees[v]` is the tree of the k-th forest holding `v`; the trees
    /// are numbered `0, 1, …` in order of their smallest vertex. Empty unless
    /// the k-th forest has an edge.
    pub kth_trees: Vec<u32>,
}

/// Computes up to `k` successive scan-first (BFS) forests of `g`, each on the
/// edges the earlier ones left, scanning residual rows (see the
/// [module docs](self)). Every tree grows from the smallest unmarked vertex.
/// `k = 0` gives an edgeless union.
pub fn scan_first_forests<G: GraphView>(g: &G, k: u32) -> ScanFirstForests {
    let n = g.num_vertices();
    // Row `v` is `residual[start[v]..start[v + 1]]`: its arcs outside the
    // forests built so far up to `end[v]`, its tail after it.
    let mut residual = Vec::with_capacity(2 * g.num_edges());
    let mut start = Vec::with_capacity(n + 1);
    start.push(0usize);
    for v in g.vertices() {
        residual.extend_from_slice(g.neighbors(v));
        start.push(residual.len());
    }
    let mut end = start[1..].to_vec();

    let mut forest_sizes = Vec::new();
    // `marked[v] == round` once round `round` (counted from 1) marks `v`.
    let mut marked = vec![0u32; n];
    let mut tree = vec![0u32; n];
    let mut parent = vec![INVALID_VERTEX; n];
    let mut queue: Vec<VertexId> = Vec::with_capacity(n);
    for round in 1..=k {
        // No round reads the last one's residual rows.
        let keep_rows = round < k;
        let mut trees = 0u32;
        for root in g.vertices() {
            if marked[root as usize] == round {
                continue;
            }
            marked[root as usize] = round;
            tree[root as usize] = trees;
            parent[root as usize] = INVALID_VERTEX;
            queue.clear();
            queue.push(root);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                let (arcs, up) = (start[u as usize]..end[u as usize], parent[u as usize]);
                let (mut kept, first_child) = (arcs.start, queue.len());
                for arc in arcs.clone() {
                    let v = residual[arc];
                    if marked[v as usize] != round {
                        marked[v as usize] = round;
                        tree[v as usize] = trees;
                        parent[v as usize] = u;
                        queue.push(v);
                    } else if keep_rows && v != up {
                        residual[kept] = v;
                        kept += 1;
                    }
                }
                if !keep_rows {
                    // Every arc stays but the children's and the parent's.
                    kept =
                        arcs.end - (queue.len() - first_child) - usize::from(up != INVALID_VERTEX);
                }
                end[u as usize] = kept;
                // The freed slots take the dropped arcs: the children, then
                // the parent (a root has none).
                let (to_children, to_parent) =
                    residual[kept..arcs.end].split_at_mut(queue.len() - first_child);
                to_children.copy_from_slice(&queue[first_child..]);
                to_parent.fill(up);
            }
            trees += 1;
        }
        // A forest of `trees` trees over `n` vertices has `n - trees` edges;
        // none means the residual graph is edgeless, and so are later forests.
        if trees as usize == n {
            break;
        }
        forest_sizes.push(n - trees as usize);
    }
    if k == 0 || forest_sizes.len() < k as usize {
        tree = Vec::new();
    }

    // The transpose of the tails; `next[w]`: the next free slot of row `w`.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut next = Vec::with_capacity(n);
    offsets.push(0u32);
    for v in 0..n {
        next.push(offsets[v]);
        offsets.push(offsets[v] + (start[v + 1] - end[v]) as u32);
    }
    let mut neighbors = vec![0 as VertexId; offsets[n] as usize];
    for u in g.vertices() {
        for &w in &residual[end[u as usize]..start[u as usize + 1]] {
            neighbors[next[w as usize] as usize] = u;
            next[w as usize] += 1;
        }
    }
    ScanFirstForests {
        union: CsrGraph::from_parts(offsets, neighbors),
        forest_sizes,
        kth_trees: tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UndirectedGraph;
    use crate::traversal::connected_components;

    #[test]
    fn spanning_forest_has_n_minus_c_edges() {
        let g =
            UndirectedGraph::from_edges(7, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
                .unwrap();
        let f = scan_first_forests(&g, 1);
        let comps = connected_components(&g).len();
        assert_eq!(f.forest_sizes, vec![g.num_vertices() - comps]);
        assert_eq!(f.union.num_edges(), g.num_vertices() - comps);
        // Every tree edge must exist in the graph.
        for (u, v) in f.union.edges() {
            assert!(g.has_edge(u, v));
        }
        // The trees are the components, numbered by their smallest vertex.
        assert_eq!(f.kth_trees, vec![0, 0, 0, 1, 1, 1, 2]);
    }

    #[test]
    fn later_forests_exclude_earlier_edges() {
        // Triangle: the first forest takes (0,1) and (0,2), the second the
        // remaining (1,2), and a third finds nothing left.
        let g = UndirectedGraph::from_edges(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let f = scan_first_forests(&g, 2);
        assert_eq!(f.forest_sizes, vec![2, 1]);
        assert_eq!(f.union, g);
        assert_eq!(f.kth_trees, vec![0, 1, 1]);
        let f = scan_first_forests(&g, 3);
        assert_eq!(f.forest_sizes, vec![2, 1]);
        assert!(f.kth_trees.is_empty(), "the third forest is empty");

        // K4: forests of 3, 2 and 1 edges use up all 6.
        let k4 =
            UndirectedGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
                .unwrap();
        let f = scan_first_forests(&k4, 2);
        assert_eq!(f.forest_sizes, vec![3, 2]);
        let expected =
            UndirectedGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        assert_eq!(f.union, expected);
        assert_eq!(f.union.memory_bytes(), expected.memory_bytes());
        assert_eq!(f.kth_trees, vec![0, 1, 1, 1]);
        assert_eq!(scan_first_forests(&k4, 3).forest_sizes, vec![3, 2, 1]);
    }

    #[test]
    fn forest_of_empty_graph() {
        let g = UndirectedGraph::new(0);
        for k in [0, 1, 3] {
            let f = scan_first_forests(&g, k);
            assert_eq!(f.union.num_vertices(), 0);
            assert!(f.forest_sizes.is_empty());
            assert!(f.kth_trees.is_empty());
        }
        let f = scan_first_forests(&UndirectedGraph::new(4), 2);
        assert_eq!(f.union, UndirectedGraph::new(4));
        assert!(f.forest_sizes.is_empty());
    }
}
