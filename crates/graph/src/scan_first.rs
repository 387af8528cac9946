//! Scan-first search forests (Cheriyan, Kao & Thurimella).
//!
//! A *scan-first search* marks all neighbours of the vertex currently being
//! scanned and then scans any marked-but-unscanned vertex next; breadth-first
//! search is the special case the paper uses (§4.2, Example 5). The edges used
//! to mark vertices form a spanning forest, and the union of `k` successive
//! forests — each computed on the graph minus the previously selected edges —
//! is a sparse certificate for k-vertex connectivity (Theorem 5).
//! [`scan_first_forests`] builds those forests; the side-groups of §5.2,
//! taken from the k-th forest, live in the `kvcc` core crate's certificate
//! module.
//!
//! # Residual rows
//!
//! Each vertex owns one slot per arc of its input row, and the rounds write
//! into those slots only what a later round or the union reads. Round 1
//! reads the input's rows themselves. Scanning `u` marks its unmarked
//! neighbours (its tree edges to its children) and drops them and the arc to
//! `u`'s own parent; it writes every other arc to the front of `u`'s slots in
//! row order (each arc is written, and the write position moves on only for
//! a kept arc, so the loop does not branch on it), and the dropped arcs, the
//! children and then the parent, into the slots this frees at the end. A
//! vertex's tree edges are all fixed by the end of its own scan (its parent
//! edge when it was marked, its child edges during the scan), and only that
//! scan rewrites its slots, so round `r + 1` scans exactly the graph minus
//! forests `1..=r`, each row in the input's order, compacting it in place.
//! When `u` is scanned, the one arc of its residual row whose edge the
//! current forest already holds leads to its parent, which is marked; so
//! testing the mark alone marks the same vertices, through the same edges
//! and in the same order, as testing a used-edge flag as well. No edge ids,
//! used-edge bitmap or reverse-arc lookup are needed, and the parent travels
//! in the BFS queue beside its child.
//!
//! The last round keeps no residual rows: it writes only its tree arcs, and
//! counts the kept arcs instead (all of the row but the children and the one
//! parent arc). So at `k = 1` the input's rows are read once and only the
//! forest's arcs are written. The tree ids of the side-groups are written in
//! the last round only, once per tree from its BFS queue.
//!
//! # Round 1 is the split
//!
//! Round 1 reads the graph itself, and grows each tree by BFS over the rows
//! in order from the smallest vertex no tree holds yet, as the labelling
//! kernel of [`crate::traversal`] grows each component. So round 1's trees
//! are exactly the graph's connected components, in the kernel's order
//! (by smallest member) and with the same members. [`first_round`] stops
//! after round 1, so a caller that needs both the split and the forests
//! traverses the graph once for the two: `KVCC-ENUM` reads the split of a
//! work item its k-core peel left whole from [`FirstRound::num_trees`]
//! (and [`FirstRound::trees`] when there are several), and with one tree
//! its `GLOBAL-CUT*` call resumes the forests at round 2
//! ([`FirstRound::resume`]) instead of starting over.
//! [`scan_first_forests`] is the two in turn.
//!
//! # The union
//!
//! After the rounds each vertex's slots end in its *tail*: its arcs in the
//! union, in no particular order. The union's rows are the transpose of the
//! tails ([`ScanFirstForests::write_union`]): visiting the vertices in
//! ascending order and appending `u` to the row of every `w` in `u`'s tail
//! fills each row in ascending order, and since the union is undirected, row
//! `w` receives exactly `w`'s tail. This counting sort reads no input row and
//! compares no ids. It writes into any pair of CSR buffers: a [`CsrGraph`]'s
//! at exact capacity ([`ScanFirstForests::union`]), or a flow arena's own, so
//! a caller that probes the certificate need not build it twice, and one
//! that never probes it need not build it at all.

use crate::csr::CsrGraph;
use crate::types::{VertexId, INVALID_VERTEX};
use crate::view::GraphView;

/// Up to `k` successive scan-first forests of a graph, from
/// [`scan_first_forests`], holding the arcs of their union.
#[derive(Clone, Debug)]
pub struct ScanFirstForests {
    /// Number of edges of each forest, in order. The rounds stop at the first
    /// empty forest, so the vector may be shorter than `k`.
    pub forest_sizes: Vec<usize>,
    /// `kth_trees[v]` is the tree of the k-th forest holding `v`; the trees
    /// are numbered `0, 1, …` in order of their smallest vertex. Empty unless
    /// the k-th forest has an edge.
    pub kth_trees: Vec<u32>,
    /// Vertex `v`'s slots are `arcs[start[v]..start[v + 1]]`, and its tail,
    /// its arcs in the union, is `arcs[end[v]..start[v + 1]]`.
    start: Vec<u32>,
    end: Vec<u32>,
    arcs: Vec<VertexId>,
}

impl ScanFirstForests {
    /// Writes the CSR rows of the forests' union into `offsets` and
    /// `targets`, replacing what they held: `n + 1` offsets from 0, and each
    /// row sorted ascending, as a [`CsrGraph`] holds them (see the
    /// [module docs](self#the-union)). Buffers with too little room grow to
    /// exactly the room needed, so empty ones end at exact capacity.
    pub fn write_union(&self, offsets: &mut Vec<u32>, targets: &mut Vec<VertexId>) {
        offsets.clear();
        offsets.reserve_exact(self.end.len() + 1);
        offsets.push(0);
        // `offsets[w + 1]` holds where row `w` starts, then the next free
        // slot of row `w` while the tails are scattered, so it ends where
        // row `w` ends.
        let mut total = 0;
        for (v, &end) in self.end.iter().enumerate() {
            offsets.push(total);
            total += self.start[v + 1] - end;
        }
        targets.clear();
        targets.reserve_exact(total as usize);
        targets.resize(total as usize, 0);
        for (u, &end) in self.end.iter().enumerate() {
            for &w in &self.arcs[end as usize..self.start[u + 1] as usize] {
                let next = &mut offsets[w as usize + 1];
                targets[*next as usize] = u as VertexId;
                *next += 1;
            }
        }
    }

    /// The union of the forests, on the input's vertex ids, stored at exact
    /// capacity.
    pub fn union(&self) -> CsrGraph {
        let (mut offsets, mut targets) = (Vec::new(), Vec::new());
        self.write_union(&mut offsets, &mut targets);
        CsrGraph::from_parts(offsets, targets)
    }

    /// Approximate heap bytes of the forests: the slots, their bounds and
    /// the k-th forest's tree ids.
    pub fn memory_bytes(&self) -> usize {
        fn bytes<T>(buffer: &Vec<T>) -> usize {
            buffer.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.forest_sizes)
            + bytes(&self.kth_trees)
            + bytes(&self.start)
            + bytes(&self.end)
            + bytes(&self.arcs)
    }
}

/// Computes up to `k` successive scan-first (BFS) forests of `g`, each on the
/// edges the earlier ones left, scanning residual rows (see the
/// [module docs](self)). Every tree grows from the smallest unmarked vertex.
/// `k = 0` gives an edgeless union. It is [`first_round`] then
/// [`FirstRound::resume`].
pub fn scan_first_forests<G: GraphView>(g: &G, k: u32) -> ScanFirstForests {
    first_round(g, k).resume()
}

/// The scan-first forests of a graph stopped after round 1, from
/// [`first_round`]: round 1's trees are the graph's connected components
/// (see the [module docs](self#round-1-is-the-split)), and
/// [`FirstRound::resume`] runs rounds `2..=k`.
pub struct FirstRound<'g, G: GraphView> {
    g: &'g G,
    k: u32,
    forests: ScanFirstForests,
    /// Whether a round's forest was empty, so every later one is too.
    done: bool,
    /// `marked[v] == round` once round `round` (counted from 1) marks `v`.
    marked: Vec<u32>,
    /// The vertices the current round marked, each with its parent, the
    /// vertex whose scan marked it, tree by tree; a root's parent is
    /// [`INVALID_VERTEX`].
    queue: Vec<(VertexId, VertexId)>,
}

/// Runs round 1 of the `k` scan-first forests of `g` and stops before
/// round 2. Round 1 is the last round when `k = 1`, and none runs when
/// `k = 0`.
pub fn first_round<G: GraphView>(g: &G, k: u32) -> FirstRound<'_, G> {
    let n = g.num_vertices();
    let mut start = Vec::with_capacity(n + 1);
    start.push(0u32);
    let mut slots = 0usize;
    for v in g.vertices() {
        slots += g.degree(v);
        start.push(u32::try_from(slots).expect("CSR rows hold fewer than 2^32 slots"));
    }
    let end = start[1..].to_vec();
    let mut first = FirstRound {
        g,
        k,
        forests: ScanFirstForests {
            forest_sizes: Vec::new(),
            kth_trees: Vec::new(),
            start,
            end,
            arcs: vec![0 as VertexId; slots],
        },
        done: k == 0,
        marked: vec![0u32; n],
        queue: Vec::with_capacity(n),
    };
    if k >= 1 {
        first.round(1);
    }
    first
}

impl<'g, G: GraphView> FirstRound<'g, G> {
    /// The graph the forests are of.
    pub fn graph(&self) -> &'g G {
        self.g
    }

    /// The number of forests asked for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// How many trees round 1 grew: the number of connected components (0
    /// when `k = 0`).
    pub fn num_trees(&self) -> usize {
        // A forest of t trees over n vertices has n − t edges, and an empty
        // one records no size.
        match (self.k, self.forests.forest_sizes.first()) {
            (0, _) => 0,
            (_, edges) => self.marked.len() - edges.unwrap_or(&0),
        }
    }

    /// Round 1's trees, each a sorted vertex list, ordered by smallest
    /// vertex: the connected components as
    /// [`connected_components`](crate::traversal::connected_components)
    /// lists them. Empty when `k = 0`.
    pub fn trees(&self) -> Vec<Vec<VertexId>> {
        // Round 1's queue holds every vertex, tree by tree, and each tree
        // starts at its root, its smallest vertex and its one entry
        // without a parent.
        let mut trees: Vec<Vec<VertexId>> = Vec::new();
        for &(v, parent) in &self.queue {
            if parent == INVALID_VERTEX {
                trees.push(Vec::new());
            }
            trees.last_mut().expect("a tree starts at its root").push(v);
        }
        for tree in &mut trees {
            tree.sort_unstable();
        }
        trees
    }

    /// Runs rounds `2..=k` on the residual rows round 1 left and returns
    /// the forests, which equal [`scan_first_forests`]`(g, k)`.
    pub fn resume(mut self) -> ScanFirstForests {
        let mut round = 2;
        while !self.done && round <= self.k {
            self.round(round);
            round += 1;
        }
        self.forests
    }

    /// Runs round `round` (see the [module docs](self)). Only round 1
    /// reads the graph's rows.
    fn round(&mut self, round: u32) {
        let g = self.g;
        let n = self.marked.len();
        let ScanFirstForests {
            forest_sizes,
            kth_trees,
            start,
            end,
            arcs,
        } = &mut self.forests;
        let (marked, queue) = (&mut self.marked, &mut self.queue);
        // No round reads the last one's residual rows.
        let last = round == self.k;
        if last {
            *kth_trees = vec![0u32; n];
        }
        queue.clear();
        let mut head = 0;
        let mut trees = 0u32;
        for root in 0..n as VertexId {
            if marked[root as usize] == round {
                continue;
            }
            marked[root as usize] = round;
            let tree = queue.len();
            queue.push((root, INVALID_VERTEX));
            while head < queue.len() {
                let (u, up) = queue[head];
                head += 1;
                let (lo, hi) = (start[u as usize] as usize, end[u as usize] as usize);
                let first_child = queue.len();
                // Marks `v` as a child of `u` unless this round has marked
                // it, and says whether the arc to `v` stays in `u`'s residual
                // row: every arc does but the children's and the parent's.
                let mut keeps = |v: VertexId| {
                    if marked[v as usize] == round {
                        v != up
                    } else {
                        marked[v as usize] = round;
                        queue.push((v, u));
                        false
                    }
                };
                let kept = if last {
                    let row = if round == 1 {
                        g.neighbors(u)
                    } else {
                        &arcs[lo..hi]
                    };
                    for &v in row {
                        keeps(v);
                    }
                    hi - (queue.len() - first_child) - usize::from(up != INVALID_VERTEX)
                } else if round == 1 {
                    let mut kept = lo;
                    for &v in g.neighbors(u) {
                        arcs[kept] = v;
                        kept += usize::from(keeps(v));
                    }
                    kept
                } else {
                    let mut kept = lo;
                    for arc in lo..hi {
                        let v = arcs[arc];
                        arcs[kept] = v;
                        kept += usize::from(keeps(v));
                    }
                    kept
                };
                end[u as usize] = kept as u32;
                // The freed slots take the dropped arcs: the children, then
                // the parent (a root has none).
                let (to_children, to_parent) =
                    arcs[kept..hi].split_at_mut(queue.len() - first_child);
                for (slot, &(child, _)) in to_children.iter_mut().zip(&queue[first_child..]) {
                    *slot = child;
                }
                to_parent.fill(up);
            }
            if last {
                for &(v, _) in &queue[tree..] {
                    kth_trees[v as usize] = trees;
                }
            }
            trees += 1;
        }
        // A forest of `trees` trees over `n` vertices has `n - trees` edges;
        // none means the residual graph is edgeless, and so are later forests.
        if trees as usize == n {
            *kth_trees = Vec::new();
            self.done = true;
        } else {
            forest_sizes.push(n - trees as usize);
        }
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
        assert_eq!(f.union().num_edges(), g.num_vertices() - comps);
        // Every tree edge must exist in the graph.
        for (u, v) in f.union().edges() {
            assert!(g.has_edge(u, v));
        }
        // The trees are the components, numbered by their smallest vertex.
        assert_eq!(f.kth_trees, vec![0, 0, 0, 1, 1, 1, 2]);
        // Round 1 stopped before round 2 lists the same trees, and resumes
        // to the same forests.
        for k in [1, 2] {
            let first = first_round(&g, k);
            assert_eq!(first.num_trees(), comps);
            assert_eq!(first.trees(), connected_components(&g));
            let resumed = first.resume();
            let fresh = scan_first_forests(&g, k);
            assert_eq!(resumed.forest_sizes, fresh.forest_sizes);
            assert_eq!(resumed.kth_trees, fresh.kth_trees);
            assert_eq!(resumed.union(), fresh.union());
        }
    }

    #[test]
    fn later_forests_exclude_earlier_edges() {
        // Triangle: the first forest takes (0,1) and (0,2), the second the
        // remaining (1,2), and a third finds nothing left.
        let g = UndirectedGraph::from_edges(3, vec![(0, 1), (1, 2), (0, 2)]).unwrap();
        let f = scan_first_forests(&g, 2);
        assert_eq!(f.forest_sizes, vec![2, 1]);
        assert_eq!(f.union(), g);
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
        assert_eq!(f.union(), expected);
        assert_eq!(f.union().memory_bytes(), expected.memory_bytes());
        assert_eq!(f.kth_trees, vec![0, 1, 1, 1]);
        assert_eq!(scan_first_forests(&k4, 3).forest_sizes, vec![3, 2, 1]);
    }

    #[test]
    fn forest_of_empty_graph() {
        let g = UndirectedGraph::new(0);
        for k in [0, 1, 3] {
            let f = scan_first_forests(&g, k);
            assert_eq!(f.union().num_vertices(), 0);
            assert!(f.forest_sizes.is_empty());
            assert!(f.kth_trees.is_empty());
        }
        let f = scan_first_forests(&UndirectedGraph::new(4), 2);
        assert_eq!(f.union(), UndirectedGraph::new(4));
        assert!(f.forest_sizes.is_empty());
    }
}
