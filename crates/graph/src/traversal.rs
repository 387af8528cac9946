//! Breadth-first / depth-first traversals, connected and biconnected
//! components, and reachability helpers.

use std::collections::VecDeque;

use crate::bitset::BitSet;
use crate::types::{VertexId, INVALID_VERTEX};
use crate::view::GraphView;

/// Distance value meaning "unreachable from the BFS source".
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances (number of hops) from `src`.
///
/// Unreachable vertices get [`UNREACHABLE`]. Runs in `O(n + m)`.
pub fn bfs_distances<G: GraphView>(g: &G, src: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS that also records the parent of every reached vertex (the BFS tree).
///
/// Returns `(dist, parent)`; roots and unreachable vertices have parent
/// [`INVALID_VERTEX`].
pub fn bfs_tree<G: GraphView>(g: &G, src: VertexId) -> (Vec<u32>, Vec<VertexId>) {
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    let mut parent = vec![INVALID_VERTEX; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// The eccentricity of `src`: the largest finite BFS distance from it.
pub fn eccentricity<G: GraphView>(g: &G, src: VertexId) -> u32 {
    bfs_distances(g, src)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// The connected component containing `src`, as a sorted vertex list.
///
/// Runs in time proportional to the component (plus the `O(n)` visited mask),
/// so callers restricted to one region never pay for traversing the rest of
/// the graph.
pub fn component_of<G: GraphView>(g: &G, src: VertexId) -> Vec<VertexId> {
    assert!(
        (src as usize) < g.num_vertices(),
        "source vertex out of range"
    );
    let mut seen = BitSet::new(g.num_vertices());
    let mut members = vec![src];
    seen.insert(src as usize);
    let mut head = 0;
    while head < members.len() {
        let u = members[head];
        head += 1;
        for &v in g.neighbors(u) {
            if seen.insert(v as usize) {
                members.push(v);
            }
        }
    }
    members.sort_unstable();
    members
}

/// Assigns every vertex a connected-component id in `0..count` and returns
/// `(component_id, count)`.
pub fn connected_component_ids<G: GraphView>(g: &G) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = count;
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// The connected components as explicit vertex lists, each sorted ascending.
pub fn connected_components<G: GraphView>(g: &G) -> Vec<Vec<VertexId>> {
    let (ids, count) = connected_component_ids(g);
    let mut comps: Vec<Vec<VertexId>> = vec![Vec::new(); count];
    for (v, &c) in ids.iter().enumerate() {
        comps[c as usize].push(v as VertexId);
    }
    comps
}

/// The biconnected components of `g` (Hopcroft & Tarjan, CACM 1973,
/// "Algorithm 447"), as vertex sets sorted ascending and ordered by smallest
/// vertex. One iterative DFS with low-links and a vertex stack: `O(n + m)`,
/// plus sorting each component's members.
///
/// Bridges appear as 2-vertex components; isolated vertices do not appear at
/// all. The components with at least three vertices are exactly the 2-VCCs
/// ([`two_vccs`]).
pub fn biconnected_components<G: GraphView>(g: &G) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut disc = vec![u32::MAX; n]; // discovery times
    let mut low = vec![u32::MAX; n];
    let mut timer = 0u32;
    // Discovered vertices not yet assigned to a component, in DFS order.
    let mut vertex_stack: Vec<VertexId> = Vec::new();
    let mut components: Vec<Vec<VertexId>> = Vec::new();

    // Iterative DFS frame: (vertex, parent, next neighbour index).
    let mut stack: Vec<(VertexId, VertexId, usize)> = Vec::new();

    for root in 0..n as VertexId {
        if disc[root as usize] != u32::MAX {
            continue;
        }
        disc[root as usize] = timer;
        low[root as usize] = timer;
        timer += 1;
        stack.push((root, VertexId::MAX, 0));
        vertex_stack.push(root);

        while !stack.is_empty() {
            let top = stack.len() - 1;
            let (u, parent, idx) = stack[top];
            let neighbors = g.neighbors(u);
            if idx < neighbors.len() {
                stack[top].2 += 1;
                let v = neighbors[idx];
                if disc[v as usize] == u32::MAX {
                    // Tree edge.
                    disc[v as usize] = timer;
                    low[v as usize] = timer;
                    timer += 1;
                    stack.push((v, u, 0));
                    vertex_stack.push(v);
                } else if v != parent && disc[v as usize] < disc[u as usize] {
                    // Back edge.
                    low[u as usize] = low[u as usize].min(disc[v as usize]);
                }
            } else {
                // Finished u: propagate low-link to the parent and emit a
                // component if u is the far end of an articulation edge.
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    low[p as usize] = low[p as usize].min(low[u as usize]);
                    if low[u as usize] >= disc[p as usize] {
                        // (p, u) closes a biconnected component: `p` plus
                        // the vertices discovered from `u` on that no
                        // earlier component took.
                        let mut members = vec![p];
                        while let Some(w) = vertex_stack.pop() {
                            members.push(w);
                            if w == u {
                                break;
                            }
                        }
                        members.sort_unstable();
                        components.push(members);
                    }
                }
            }
        }
        // Only the root is left; each component it belongs to took it as `p`.
        vertex_stack.clear();
    }
    components.sort();
    components
}

/// The biconnected components with at least three vertices, i.e. the 2-vertex
/// connected components of the graph.
pub fn two_vccs<G: GraphView>(g: &G) -> Vec<Vec<VertexId>> {
    biconnected_components(g)
        .into_iter()
        .filter(|c| c.len() >= 3)
        .collect()
}

/// Connected components restricted to a subset of "alive" vertices.
///
/// Vertices absent from `alive` are treated as removed (as in the
/// `OVERLAP-PARTITION` step after deleting the cut `S`). The returned lists
/// only contain alive vertices. Iterating the start candidates walks the
/// alive mask word-by-word, so fully dead regions cost one load per 64
/// vertices.
pub fn connected_components_filtered<G: GraphView>(g: &G, alive: &BitSet) -> Vec<Vec<VertexId>> {
    assert_eq!(
        alive.len(),
        g.num_vertices(),
        "alive mask must cover every vertex"
    );
    let n = g.num_vertices();
    let mut seen = BitSet::new(n);
    let mut comps = Vec::new();
    let mut queue = VecDeque::new();
    for start in alive.iter_ones() {
        if seen.contains(start) {
            continue;
        }
        let mut component = Vec::new();
        seen.insert(start);
        queue.push_back(start as VertexId);
        while let Some(u) = queue.pop_front() {
            component.push(u);
            for &v in g.neighbors(u) {
                if alive.contains(v as usize) && seen.insert(v as usize) {
                    queue.push_back(v);
                }
            }
        }
        component.sort_unstable();
        comps.push(component);
    }
    comps
}

/// Whether the graph is connected. The empty graph and single vertices are
/// considered connected.
pub fn is_connected<G: GraphView>(g: &G) -> bool {
    if g.num_vertices() <= 1 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Vertices sorted by **non-ascending** BFS distance from `src`, skipping
/// unreachable vertices and `src` itself.
///
/// This is exactly the processing order of phase 1 of `GLOBAL-CUT*`
/// (Algorithm 3, line 11): vertices far from the source are more likely to be
/// separated from it by a small cut, so testing them first finds cuts sooner.
///
/// Ties are broken by ascending id, which makes runs reproducible across
/// platforms. The vertices are bucketed by distance (a counting sort, each
/// bucket filled in id order), which gives the order a stable comparison
/// sort gives, in `O(n)` after the BFS.
pub fn vertices_by_descending_distance<G: GraphView>(g: &G, src: VertexId) -> Vec<VertexId> {
    let dist = bfs_distances(g, src);
    let reached = |d: u32| d != 0 && d != UNREACHABLE;
    // `next[d]`: the output slot of the next vertex at distance `d < n`; the
    // buckets are laid out from the farthest down.
    let mut next = vec![0usize; dist.len()];
    for &d in dist.iter().filter(|&&d| reached(d)) {
        next[d as usize] += 1;
    }
    let mut slots = 0;
    for bucket in next.iter_mut().rev() {
        let size = *bucket;
        *bucket = slots;
        slots += size;
    }
    let mut order = vec![0 as VertexId; slots];
    for (v, &d) in dist.iter().enumerate().filter(|&(_, &d)| reached(d)) {
        order[next[d as usize]] = v as VertexId;
        next[d as usize] += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::UndirectedGraph;

    fn cycle(n: usize) -> UndirectedGraph {
        UndirectedGraph::from_edges(
            n,
            (0..n as VertexId).map(|i| (i, ((i + 1) % n as VertexId))),
        )
        .unwrap()
    }

    #[test]
    fn bfs_distances_on_cycle() {
        let g = cycle(6);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(eccentricity(&g, 0), 3);
    }

    #[test]
    fn bfs_tree_parents_are_consistent() {
        let g = cycle(5);
        let (dist, parent) = bfs_tree(&g, 0);
        assert_eq!(parent[0], INVALID_VERTEX);
        for v in 1..5u32 {
            let p = parent[v as usize];
            assert!(g.has_edge(v, p));
            assert_eq!(dist[v as usize], dist[p as usize] + 1);
        }
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = UndirectedGraph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
        assert_eq!(comps[2], vec![5]);
        assert!(!is_connected(&g));
        let (ids, count) = connected_component_ids(&g);
        assert_eq!(count, 3);
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[3]);
    }

    #[test]
    fn filtered_components_respect_mask() {
        // Path 0-1-2-3-4; removing 2 splits it in two.
        let g = UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let mut alive = BitSet::filled(5);
        alive.remove(2);
        let comps = connected_components_filtered(&g, &alive);
        assert_eq!(comps, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn unreachable_vertices_marked() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
        assert!(is_connected(&UndirectedGraph::new(1)));
        assert!(is_connected(&UndirectedGraph::new(0)));
    }

    #[test]
    fn descending_distance_order() {
        let g = UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let order = vertices_by_descending_distance(&g, 0);
        assert_eq!(order, vec![4, 3, 2, 1]);
        // Ties go by ascending id; unreachable vertices are left out.
        let mut edges: Vec<(VertexId, VertexId)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        edges.push((6, 7));
        let g = UndirectedGraph::from_edges(8, edges).unwrap();
        assert_eq!(vertices_by_descending_distance(&g, 0), vec![3, 2, 4, 1, 5]);
        assert_eq!(vertices_by_descending_distance(&g, 6), vec![7]);
    }
}
