//! k-core decomposition, and Algorithm 1's lines 2–3: the k-core peel and
//! the k-core split.
//!
//! Every recursive call of the k-VCC enumerator (Algorithm 1) first peels
//! the vertices of degree `< k` (line 2), because by Whitney's theorem
//! (Theorem 3 of the paper) every k-VCC lies in a k-core, and then splits
//! what is left into connected components (line 3). The workspace writes
//! that step once, here:
//!
//! * **One peel loop** (crate-private `peel`) over an alive mask.
//!   [`k_core_vertices`] runs it on a full mask, and
//!   [`SubgraphView::k_core_reduce`] on the view's own mask, which
//!   [`SubgraphView::from_vertices`] or earlier removals may have left
//!   partial.
//! * **One split**, [`split_k_core`]: the peel, then the view's connected
//!   components in the order [`crate::traversal`] fixes (components by
//!   smallest member, members ascending). [`k_core_components`] is the split
//!   of a whole graph. The index repair's worklist and cut step, the seed
//!   query, the engine's work partition and both k-core-based baselines
//!   split through it. The enumerator's work items run the same peel
//!   ([`SubgraphView::k_core_reduce`]) and take the same components in the
//!   same order: the view's ([`SubgraphView::components`]) when the peel
//!   removed vertices, and otherwise round 1 of the scan-first forests
//!   ([`crate::scan_first`]), which the item's certificate needs anyway.
//!
//! The loop kept is the flag-and-stack cascade `k_core_vertices` ran, made
//! to start from a mask (its stack became the peeled list, walked as a
//! queue, so the mask is written once at the end); the bitset-and-queue
//! cascade `SubgraphView::k_core_reduce` ran went. Timed on one build on a
//! shared 2-vCPU machine, medians of alternating runs (README, "Hot
//! loops"): on full views that peel nothing, as every `batch` work item is,
//! the kept loop took 0.021–0.024 ms on the 16,384-vertex ring against
//! 0.034–0.040 ms, and the deep peels of the DBLP stand-in at k = 16..=42
//! took 4.2–4.3 ms against 5.1–5.2 ms; a ring item's peel and split and the
//! index repair's splits timed the same under both.
//!
//! [`core_numbers`] peels every k at once with the bucket structure of
//! Batagelj & Zaveršnik; a single k does not need it.

use crate::bitset::BitSet;
use crate::types::VertexId;
use crate::view::{GraphView, SubgraphView};

/// Vertices bucket-sorted by current degree, with the position-swap update of
/// Batagelj & Zaveršnik.
///
/// Invariants: `vert` holds every vertex ordered by non-descending current
/// degree, `pos[v]` is the position of `v` inside `vert`, and `bin[d]` is the
/// index of the first vertex of degree `d` (among those not yet promoted past
/// their bucket). [`DegreeBuckets::demote`] moves a vertex one degree down in
/// `O(1)` by swapping it with the first vertex of its bucket — no queue, no
/// removed-flag re-scan.
struct DegreeBuckets {
    bin: Vec<usize>,
    pos: Vec<usize>,
    vert: Vec<VertexId>,
}

impl DegreeBuckets {
    /// Bucket sort by the given initial degrees.
    fn new(degree: &[usize]) -> Self {
        let n = degree.len();
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        let mut bin = vec![0usize; max_degree + 2];
        for &d in degree {
            bin[d] += 1;
        }
        let mut start = 0usize;
        for b in bin.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        let mut pos = vec![0usize; n];
        let mut vert = vec![0 as VertexId; n];
        let mut next = bin.clone();
        for v in 0..n {
            let d = degree[v];
            pos[v] = next[d];
            vert[next[d]] = v as VertexId;
            next[d] += 1;
        }
        DegreeBuckets { bin, pos, vert }
    }

    /// Decrements the current degree of `u`, swapping it with the first
    /// vertex of its bucket so the degree ordering of `vert` is preserved.
    #[inline]
    fn demote(&mut self, u: usize, degree: &mut [usize]) {
        let du = degree[u];
        let pu = self.pos[u];
        let pw = self.bin[du];
        let w = self.vert[pw];
        if u != w as usize {
            // Swap u and w inside the bucket array.
            self.pos[u] = pw;
            self.pos[w as usize] = pu;
            self.vert[pu] = w;
            self.vert[pw] = u as VertexId;
        }
        self.bin[du] += 1;
        degree[u] -= 1;
    }
}

/// Computes the core number of every vertex using the linear-time
/// bucket-peeling algorithm of Batagelj & Zaveršnik.
///
/// The core number of `v` is the largest `k` such that `v` belongs to the
/// k-core of the graph.
pub fn core_numbers<G: GraphView>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = g.degrees();
    let mut buckets = DegreeBuckets::new(&degree);
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = buckets.vert[i];
        core[v as usize] = degree[v as usize] as u32;
        for &u in g.neighbors(v) {
            let u = u as usize;
            if degree[u] > degree[v as usize] {
                buckets.demote(u, &mut degree);
            }
        }
    }
    core
}

/// The k-core peel (Algorithm 1, line 2): removes from `alive` every vertex
/// whose degree among the alive vertices is, or falls, below `k`, and
/// returns how many it removed. What stays is the k-core of the subgraph
/// the mask induces.
///
/// This is the workspace's one peel loop (see the [module docs](self)). The
/// degree of a vertex outside the mask starts at a value no peel brings
/// below `k`, so the cascade never reads the mask: it marks a peeled vertex
/// in a byte flag and appends it to the peeled list, which it walks as its
/// queue. A full mask takes the degrees from the rows, and a scan that finds
/// no vertex below `k` returns before any flag is allocated.
pub(crate) fn peel<G: GraphView>(g: &G, k: usize, alive: &mut BitSet) -> usize {
    let n = g.num_vertices();
    let mut degree: Vec<usize> = if alive.count_ones() == n {
        g.degrees()
    } else {
        g.vertices()
            .map(|v| {
                if alive.contains(v as usize) {
                    let row = g.neighbors(v).iter();
                    row.filter(|&&w| alive.contains(w as usize)).count()
                } else {
                    usize::MAX
                }
            })
            .collect()
    };
    let mut peeled: Vec<VertexId> = g.vertices().filter(|&v| degree[v as usize] < k).collect();
    if peeled.is_empty() {
        return 0;
    }
    let mut gone = vec![false; n];
    for &v in &peeled {
        gone[v as usize] = true;
    }
    let mut head = 0;
    while head < peeled.len() {
        let v = peeled[head];
        head += 1;
        for &u in g.neighbors(v) {
            let u = u as usize;
            if !gone[u] {
                degree[u] -= 1;
                if degree[u] < k {
                    gone[u] = true;
                    peeled.push(u as VertexId);
                }
            }
        }
    }
    for &v in &peeled {
        alive.remove(v as usize);
    }
    peeled.len()
}

/// Returns the vertices of the k-core (possibly empty), i.e. the maximal set
/// of vertices inducing a subgraph of minimum degree `>= k`, sorted
/// ascending. Runs the one peel loop on a full mask.
pub fn k_core_vertices<G: GraphView>(g: &G, k: usize) -> Vec<VertexId> {
    let mut alive = BitSet::filled(g.num_vertices());
    if peel(g, k, &mut alive) == 0 {
        // Already a k-core; the common case inside the enumeration.
        return g.vertices().collect();
    }
    alive.iter_ones().map(|v| v as VertexId).collect()
}

/// Algorithm 1's lines 2–3 on the alive vertices of `view`: peels them to
/// their k-core ([`SubgraphView::k_core_reduce`]), then returns its
/// connected components in the order [`crate::traversal`] fixes: components
/// by smallest member, members ascending, in the parent's ids. Each member
/// has `k` neighbours inside its component, so every component has more
/// than `k` vertices.
pub fn split_k_core<G: GraphView>(view: &mut SubgraphView<'_, G>, k: usize) -> Vec<Vec<VertexId>> {
    view.k_core_reduce(k);
    view.components()
}

/// The connected components of the k-core of `g`: [`split_k_core`] on a
/// view of the whole graph.
pub fn k_core_components<G: GraphView>(g: &G, k: usize) -> Vec<Vec<VertexId>> {
    split_k_core(&mut SubgraphView::new(g), k)
}

/// The degeneracy of the graph: the largest `k` for which a non-empty k-core
/// exists (0 for the empty graph).
pub fn degeneracy<G: GraphView>(g: &G) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UndirectedGraph;

    /// A clique of size `c` with a pendant path of length `p` attached.
    fn clique_with_tail(c: usize, p: usize) -> UndirectedGraph {
        let mut edges = Vec::new();
        for i in 0..c as VertexId {
            for j in (i + 1)..c as VertexId {
                edges.push((i, j));
            }
        }
        let mut prev = 0 as VertexId;
        for t in 0..p as VertexId {
            let v = c as VertexId + t;
            edges.push((prev, v));
            prev = v;
        }
        UndirectedGraph::from_edges(c + p, edges).unwrap()
    }

    #[test]
    fn core_numbers_of_clique_with_tail() {
        let g = clique_with_tail(5, 3);
        let core = core_numbers(&g);
        for (v, &c) in core.iter().enumerate().take(5) {
            assert_eq!(c, 4, "clique vertex {v}");
        }
        for (v, &c) in core.iter().enumerate().skip(5) {
            assert_eq!(c, 1, "tail vertex {v}");
        }
        assert_eq!(degeneracy(&g), 4);
    }

    #[test]
    fn k_core_vertices_peels_correctly() {
        let g = clique_with_tail(5, 3);
        assert_eq!(k_core_vertices(&g, 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(k_core_vertices(&g, 4), vec![0, 1, 2, 3, 4]);
        assert!(k_core_vertices(&g, 5).is_empty());
        assert_eq!(k_core_vertices(&g, 1).len(), 8);
    }

    #[test]
    fn core_numbers_match_peeling_definition() {
        // For every k, the set {v : core[v] >= k} must equal the k-core.
        let g = clique_with_tail(6, 4);
        let core = core_numbers(&g);
        for k in 0..=6usize {
            let by_core: Vec<VertexId> = (0..g.num_vertices() as VertexId)
                .filter(|&v| core[v as usize] as usize >= k)
                .collect();
            assert_eq!(by_core, k_core_vertices(&g, k), "k = {k}");
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = UndirectedGraph::new(0);
        assert!(core_numbers(&g).is_empty());
        assert_eq!(degeneracy(&g), 0);
        let g = UndirectedGraph::new(3);
        assert_eq!(core_numbers(&g), vec![0, 0, 0]);
        assert_eq!(k_core_vertices(&g, 0).len(), 3);
        assert!(k_core_vertices(&g, 1).is_empty());
    }
}
