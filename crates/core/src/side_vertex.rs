//! Strong side-vertex detection (§5.1.1).
//!
//! A *side-vertex* is a vertex that is not contained in any vertex cut of size
//! `< k` (Definition 9). Testing that exactly would itself require
//! connectivity computations, so the paper uses the sufficient structural
//! condition of Theorem 8: `u` is a **strong side-vertex** if every pair of
//! its neighbours is either adjacent or shares at least `k` common neighbours
//! (both facts imply the pair is k-local-connected by Lemma 5 / Lemma 13).
//!
//! Strong side-vertices drive two optimisations of `GLOBAL-CUT*`:
//!
//! * neighbor-sweep rule 1 — once the source is known to be k-connected to a
//!   strong side-vertex `v`, every neighbour of `v` can be swept;
//! * source selection — a strong side-vertex cannot belong to any small cut,
//!   so choosing one as the source makes phase 2 unnecessary.
//!
//! # Evaluation
//!
//! [`strong_side_vertices`] decides the condition for every vertex in one
//! pass; [`is_strong_side_vertex`] is the per-vertex definition, pair by pair.
//!
//! * `u` is itself a common neighbour of any two of its neighbours, so for
//!   `k ≤ 1` every pair qualifies and every vertex within the degree cap is
//!   strong without a pair being examined.
//! * For `k ≥ 2` each pair `{v, w} ⊂ N(u)` is visited from its smaller
//!   endpoint `v`. `N(v)` is stamped once into a tag array, so adjacency of
//!   `v` and `w` is one array read. For a non-adjacent `w`, `N(w)` is scanned
//!   against the stamp until `k` common neighbours are seen, and the verdict
//!   is memoised for `(v, w)`: each pair is counted once per pass, however
//!   many common neighbours `u` name it. A vertex drops out of the pass at
//!   its first failing pair.
//!
//! The pass reuses three `n`-sized arrays, reads each wedge `v – u – w` of a
//! vertex `u` within the cap at most once (`Σ d(u)² / 2` reads), and scans
//! `N(w)` at most once per non-adjacent pair, which is never more than the
//! sorted-list merge the per-vertex definition runs for that pair.

use kvcc_graph::{GraphView, VertexId};

/// Computes the strong side-vertex flag for every vertex of `g`.
///
/// `max_degree` optionally caps the degree of vertices that are examined:
/// vertices with a larger degree are conservatively reported as *not* strong
/// side-vertices. A vertex `u` within the cap contributes at most `d(u)² / 2`
/// wedge reads and names at most that many pairs to count, so the cap bounds
/// the pass on graphs with extreme hubs. It never affects correctness, only
/// pruning power. See the [module docs](self) for how the pass evaluates the
/// Theorem 8 condition; the flags equal [`is_strong_side_vertex`] vertex by
/// vertex.
pub fn strong_side_vertices<G: GraphView>(g: &G, k: u32, max_degree: Option<usize>) -> Vec<bool> {
    let cap = max_degree.unwrap_or(usize::MAX);
    let mut strong: Vec<bool> = g.vertices().map(|u| g.degree(u) <= cap).collect();
    if k <= 1 {
        return strong;
    }
    let n = g.num_vertices();
    let k = k as usize;
    // For the current `v`: `adjacent[x] == v` iff `x ∈ N(v)`, and
    // `counted[w] == v` iff the pair {v, w} was counted, with its verdict in
    // `enough[w]`. `v` ranges below `VertexId::MAX`, so the initial tags
    // never match.
    let mut adjacent = vec![VertexId::MAX; n];
    let mut counted = vec![VertexId::MAX; n];
    let mut enough = vec![false; n];
    for v in g.vertices() {
        let row = g.neighbors(v);
        for &x in row {
            adjacent[x as usize] = v;
        }
        for &u in row {
            if !strong[u as usize] {
                continue;
            }
            // The pairs {v, w} of N(u) with v < w, from u's largest neighbour
            // down.
            for &w in g.neighbors(u).iter().rev() {
                if w <= v {
                    break;
                }
                let w = w as usize;
                if adjacent[w] == v {
                    continue;
                }
                if counted[w] != v {
                    counted[w] = v;
                    enough[w] = g
                        .neighbors(w as VertexId)
                        .iter()
                        .filter(|&&x| adjacent[x as usize] == v)
                        .take(k)
                        .count()
                        == k;
                }
                if !enough[w] {
                    strong[u as usize] = false;
                    break;
                }
            }
        }
    }
    strong
}

/// Tests the Theorem 8 condition for a single vertex.
pub fn is_strong_side_vertex<G: GraphView>(
    g: &G,
    u: VertexId,
    k: u32,
    max_degree: Option<usize>,
) -> bool {
    let neighbors = g.neighbors(u);
    if let Some(cap) = max_degree {
        if neighbors.len() > cap {
            return false;
        }
    }
    for (i, &v) in neighbors.iter().enumerate() {
        for &w in &neighbors[i + 1..] {
            if g.has_edge(v, w) {
                continue;
            }
            if g.common_neighbors_at_least(v, w, k as usize) >= k as usize {
                continue;
            }
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::UndirectedGraph;

    fn complete(n: usize) -> UndirectedGraph {
        let mut edges = Vec::new();
        for i in 0..n as VertexId {
            for j in (i + 1)..n as VertexId {
                edges.push((i, j));
            }
        }
        UndirectedGraph::from_edges(n, edges).unwrap()
    }

    #[test]
    fn every_clique_vertex_is_a_strong_side_vertex() {
        let g = complete(6);
        assert_eq!(strong_side_vertices(&g, 3, None), vec![true; 6]);
    }

    #[test]
    fn cut_vertex_of_two_triangles_is_not_strong() {
        // Two triangles sharing vertex 2: the neighbours of 2 include one
        // vertex from each triangle, which are neither adjacent nor share k
        // common neighbours.
        let g =
            UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
                .unwrap();
        assert!(!is_strong_side_vertex(&g, 2, 2, None));
        // A degree-2 vertex inside one triangle has adjacent neighbours.
        assert!(is_strong_side_vertex(&g, 0, 2, None));
        assert!(is_strong_side_vertex(&g, 4, 2, None));
        let cut_vertex_only = vec![true, true, false, true, true];
        assert_eq!(strong_side_vertices(&g, 2, None), cut_vertex_only);
        // The pairs of 2's neighbours share 2 itself, so at k <= 1 every
        // vertex within the cap is strong; 2 has degree 4.
        for k in 0..=1 {
            assert!(is_strong_side_vertex(&g, 2, k, None));
            assert_eq!(strong_side_vertices(&g, k, None), vec![true; 5]);
            assert_eq!(strong_side_vertices(&g, k, Some(3)), cut_vertex_only);
        }
    }

    #[test]
    fn common_neighbour_condition_applies_without_adjacency() {
        // Complete bipartite K_{2,4}: vertices 0,1 on one side, 2..5 on the
        // other. Neighbours of 2 are {0, 1}, non-adjacent but with 4 common
        // neighbours, so for k <= 4 vertex 2 is strong.
        let g = UndirectedGraph::from_edges(
            6,
            vec![
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 5),
            ],
        )
        .unwrap();
        assert!(is_strong_side_vertex(&g, 2, 4, None));
        assert!(!is_strong_side_vertex(&g, 2, 5, None));
        // Vertex 0's neighbours {2,3,4,5} pairwise share only {0,1}: strong
        // for k <= 2, not for k = 3.
        assert!(is_strong_side_vertex(&g, 0, 2, None));
        assert!(!is_strong_side_vertex(&g, 0, 3, None));
        // Every non-adjacent pair here is named by several common
        // neighbours, so the one-pass detection reuses each verdict.
        for k in 0..=6 {
            let definition: Vec<bool> = (0..6)
                .map(|u| is_strong_side_vertex(&g, u, k, None))
                .collect();
            assert_eq!(strong_side_vertices(&g, k, None), definition, "k {k}");
        }
    }

    #[test]
    fn degree_cap_disables_detection_conservatively() {
        let g = complete(8);
        assert!(is_strong_side_vertex(&g, 0, 3, None));
        assert!(!is_strong_side_vertex(&g, 0, 3, Some(5)));
        let strong = strong_side_vertices(&g, 3, Some(5));
        assert!(strong.iter().all(|&s| !s));
    }

    #[test]
    fn isolated_and_pendant_vertices_are_vacuously_strong() {
        // The condition quantifies over pairs of neighbours, so degree <= 1
        // vertices satisfy it vacuously. (After k-core pruning such vertices
        // never reach the detector; see the module docs.)
        let g = UndirectedGraph::from_edges(3, vec![(0, 1)]).unwrap();
        assert!(is_strong_side_vertex(&g, 2, 2, None));
        assert!(is_strong_side_vertex(&g, 0, 2, None));
    }
}
