//! Breadth-first / depth-first traversals, connected and biconnected
//! components, and reachability helpers.
//!
//! # One labelling kernel
//!
//! [`connected_components`], [`connected_component_ids`] and
//! [`connected_components_filtered`] share one kernel: a breadth-first
//! search over a `u32` label array with an array queue. A vertex outside the
//! alive mask starts with a label no search takes, so each arc costs one
//! label read, and the mask is only walked, word by word, to set up the
//! labels, pick the starts and list the members. The components are
//! labelled `0, 1, …` from the smallest unlabelled vertex up, so label order
//! is the order of their smallest members. The member lists are then filled
//! by one pass in vertex order, each at the size its search counted, so
//! every list comes out sorted with no sort. The output order is thus fixed
//! by the graph alone: components by smallest member, members ascending.
//! `OVERLAP-PARTITION` and `KVCC-ENUM` create their pieces and work items in
//! that order, so it also fixes the order of the work, and with it every
//! counter. [`bfs_distances`] runs on an array queue as well.

use crate::bitset::BitSet;
use crate::types::VertexId;
use crate::view::GraphView;

/// Distance value meaning "unreachable from the BFS source".
pub const UNREACHABLE: u32 = u32::MAX;

/// Label of a vertex the labelling kernel has not reached yet.
const UNLABELLED: u32 = u32::MAX;
/// Label of a vertex outside the alive mask, which no search reaches.
const DEAD: u32 = u32::MAX - 1;

/// Single-source BFS distances (number of hops) from `src`.
///
/// Unreachable vertices get [`UNREACHABLE`]. Runs in `O(n + m)`.
pub fn bfs_distances<G: GraphView>(g: &G, src: VertexId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.num_vertices()];
    if g.num_vertices() == 0 {
        return dist;
    }
    let mut queue = Vec::with_capacity(g.num_vertices());
    dist[src as usize] = 0;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
        }
    }
    dist
}

/// The labelling kernel (see the [module docs](self)): gives every
/// [`UNLABELLED`] vertex of `label` the number of its component among the
/// components of the unlabelled vertices, counted from 0 in the order of
/// `starts`, which must list every unlabelled vertex in ascending order.
/// `unlabelled` is their count. Returns each component's size.
fn label_components<G: GraphView>(
    g: &G,
    label: &mut [u32],
    starts: impl Iterator<Item = usize>,
    unlabelled: usize,
) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut queue: Vec<VertexId> = Vec::with_capacity(unlabelled);
    for start in starts {
        if label[start] != UNLABELLED {
            continue;
        }
        let component = sizes.len() as u32;
        label[start] = component;
        queue.clear();
        queue.push(start as VertexId);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &v in g.neighbors(u) {
                if label[v as usize] == UNLABELLED {
                    label[v as usize] = component;
                    queue.push(v);
                }
            }
        }
        sizes.push(queue.len());
    }
    sizes
}

/// The member lists of the components [`label_components`] numbered, each
/// filled in the order of `members` (ascending) at the size the kernel
/// counted.
fn bucket_members(
    label: &[u32],
    sizes: &[usize],
    members: impl Iterator<Item = usize>,
) -> Vec<Vec<VertexId>> {
    let mut comps: Vec<Vec<VertexId>> = sizes.iter().map(|&s| Vec::with_capacity(s)).collect();
    for v in members {
        comps[label[v] as usize].push(v as VertexId);
    }
    comps
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
/// `(component_id, count)`. Ids ascend with the components' smallest
/// vertices.
pub fn connected_component_ids<G: GraphView>(g: &G) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut label = vec![UNLABELLED; n];
    let count = label_components(g, &mut label, 0..n, n).len();
    (label, count)
}

/// The connected components as explicit vertex lists, each sorted ascending,
/// ordered by smallest vertex.
pub fn connected_components<G: GraphView>(g: &G) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut label = vec![UNLABELLED; n];
    let sizes = label_components(g, &mut label, 0..n, n);
    bucket_members(&label, &sizes, 0..n)
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
/// only contain alive vertices, each sorted ascending, ordered by smallest
/// vertex. The alive mask is only walked, word by word; no arc reads it.
pub fn connected_components_filtered<G: GraphView>(g: &G, alive: &BitSet) -> Vec<Vec<VertexId>> {
    assert_eq!(
        alive.len(),
        g.num_vertices(),
        "alive mask must cover every vertex"
    );
    let mut label = vec![DEAD; g.num_vertices()];
    for v in alive.iter_ones() {
        label[v] = UNLABELLED;
    }
    let sizes = label_components(g, &mut label, alive.iter_ones(), alive.count_ones());
    bucket_members(&label, &sizes, alive.iter_ones())
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
