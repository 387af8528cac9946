//! k-core decomposition and k-core extraction.
//!
//! The k-VCC enumerator (Algorithm 1, line 2) starts every recursive call by
//! peeling vertices of degree `< k`, because by Whitney's theorem
//! (Theorem 3 of the paper) every k-VCC is contained in a k-core.

use crate::csr::{CsrGraph, CsrSubgraph};
use crate::types::VertexId;
use crate::view::GraphView;

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

/// Returns the vertices of the k-core (possibly empty), i.e. the maximal set
/// of vertices inducing a subgraph of minimum degree `>= k`, sorted
/// ascending.
///
/// Single-k extraction deliberately does **not** go through
/// `DegreeBuckets`: building the bucket structure costs several extra
/// passes over the vertex set, which measures slower than the flag-and-stack
/// cascade at every peel depth (the buckets only pay off when the whole
/// decomposition is needed — see [`core_numbers`]). Two things make this
/// peel cheap in the enumeration's hot path (Algorithm 1 re-peels at every
/// recursive call, where the input is usually already a k-core):
///
/// * a seed scan that finds no under-degree vertex returns immediately,
///   without allocating the removal flags or walking any adjacency row;
/// * the cascade runs off a LIFO `Vec` stack (no `VecDeque` ring buffer) —
///   removal order does not affect the final fixpoint.
pub fn k_core_vertices<G: GraphView>(g: &G, k: usize) -> Vec<VertexId> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = g.degrees();
    let mut stack: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| degree[v as usize] < k)
        .collect();
    if stack.is_empty() {
        // Already a k-core; the common case inside the enumeration.
        return (0..n as VertexId).collect();
    }
    let mut removed = vec![false; n];
    for &v in &stack {
        removed[v as usize] = true;
    }
    while let Some(v) = stack.pop() {
        for &u in g.neighbors(v) {
            let u = u as usize;
            if !removed[u] {
                degree[u] -= 1;
                if degree[u] < k {
                    removed[u] = true;
                    stack.push(u as VertexId);
                }
            }
        }
    }
    (0..n as VertexId)
        .filter(|&v| !removed[v as usize])
        .collect()
}

/// Extracts the k-core as a [`CsrSubgraph`] (relabelled vertices plus the
/// mapping back to the input graph). Returns `None` when the k-core is empty.
pub fn k_core_subgraph(g: &CsrGraph, k: usize) -> Option<CsrSubgraph> {
    let vertices = k_core_vertices(g, k);
    if vertices.is_empty() {
        None
    } else {
        Some(g.induced_subgraph(&vertices))
    }
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
    fn k_core_subgraph_maps_back() {
        let g = clique_with_tail(4, 2);
        let sub = k_core_subgraph(&g, 3).unwrap();
        assert_eq!(sub.graph.num_vertices(), 4);
        assert_eq!(sub.graph.num_edges(), 6);
        assert_eq!(sub.to_parent, vec![0, 1, 2, 3]);
        assert!(k_core_subgraph(&g, 4).is_none());
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
