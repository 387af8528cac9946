//! The k-VCC hierarchy: nested decompositions for every k.
//!
//! Whitney's theorem (Theorem 3) and the nesting argument of §2.2 imply that
//! every (k+1)-VCC is contained in exactly one k-VCC. Enumerating the
//! components level by level therefore yields a *hierarchy* (a forest): level
//! 1 holds the connected components, level 2 the biconnected cores, and so on
//! up to the largest k for which any component survives (bounded by the graph
//! degeneracy).
//!
//! The construction certifies each component once:
//!
//! * **Levels 1 and 2 run no flow.** The 1-VCCs are the connected components
//!   with at least two vertices, and the 2-VCCs are the biconnected
//!   components with at least three (Hopcroft & Tarjan, CACM 1973). Both come
//!   from [`kvcc_graph::traversal`] in `O(n + m)`.
//! * **Each new component is certified.** When a component `C` first appears
//!   at level `k`, its connectivity `κ(C)` is computed, capped at
//!   `min(δ(C), depth limit)`: one `GLOBAL-CUT*` call at the cap, and only
//!   when that call finds a cut `S`, a binary search between `k` and `|S|`
//!   (`κ(C) ≤ |S|`, since `S` separates `C`).
//! * **A certified component is copied, not re-enumerated.** Say `C` is
//!   certified at `t`. By the maximality in the k-VCC definition (§2), `C` is
//!   then the only j-VCC inside itself for every `k ≤ j ≤ t`: a larger
//!   j-connected set containing `C` would be k-connected, which contradicts
//!   the maximality of `C`. And `t ≤ δ(C) < |C|`, so `C` is large enough to
//!   be a j-VCC. So `C` is copied to levels `k + 1 ..= t` as its own only
//!   child, and enumerated with [`enumerate_kvccs`] only at level `t + 1`.
//!
//! The output is the same forest as enumerating every level inside every
//! parent. Each enumeration slices its parent out of the (arbitrary
//! [`GraphView`]) input as one compact CSR work item through one reusable
//! relabelling buffer — no per-level whole-graph copies — and drains on the
//! parallel worklist when [`KvccOptions::threads`] asks for it. This module is
//! an extension of the paper's algorithm (the paper fixes a single k); it
//! powers the `hierarchy` example and is the substrate of
//! [`crate::index::ConnectivityIndex`].

use kvcc_graph::kcore::degeneracy;
use kvcc_graph::traversal::{connected_components, two_vccs};
use kvcc_graph::{CsrGraph, GraphView, VertexId};

use crate::enumerate::enumerate_kvccs;
use crate::error::KvccError;
use crate::global_cut::{global_cut_with_scratch, CutScratch};
use crate::options::KvccOptions;
use crate::result::KVertexConnectedComponent;
use crate::stats::EnumerationStats;

/// One level of the hierarchy: all k-VCCs for a fixed `k`, plus the index of
/// each component's parent in the previous level.
#[derive(Clone, Debug)]
pub struct HierarchyLevel {
    /// The connectivity parameter of this level.
    pub k: u32,
    /// The k-VCCs of the input graph, sorted by smallest member.
    pub components: Vec<KVertexConnectedComponent>,
    /// `parents[i]` is the index (in the previous level) of the component that
    /// contains `components[i]`; `None` for the first level.
    pub parents: Vec<Option<usize>>,
}

/// The full nested decomposition of a graph.
#[derive(Clone, Debug)]
pub struct KvccHierarchy {
    levels: Vec<HierarchyLevel>,
    num_vertices: usize,
}

impl KvccHierarchy {
    /// All levels, in increasing order of `k` (starting at `k = 1`).
    pub fn levels(&self) -> &[HierarchyLevel] {
        &self.levels
    }

    /// Number of vertices of the graph the hierarchy was built from.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The largest `k` for which at least one k-VCC exists (0 for an edgeless
    /// graph).
    pub fn max_k(&self) -> u32 {
        self.levels.last().map(|l| l.k).unwrap_or(0)
    }

    /// The components at a specific level, if that level exists.
    pub fn components_at(&self, k: u32) -> Option<&[KVertexConnectedComponent]> {
        self.levels
            .iter()
            .find(|l| l.k == k)
            .map(|l| l.components.as_slice())
    }

    /// The *vertex connectivity number* of `v`: the largest `k` such that `v`
    /// belongs to some k-VCC (0 if the vertex is isolated or outside every
    /// component). This is the vertex-connectivity analogue of the core
    /// number.
    pub fn connectivity_number(&self, v: VertexId) -> u32 {
        let mut best = 0;
        for level in &self.levels {
            if level.components.iter().any(|c| c.contains(v)) {
                best = level.k;
            }
        }
        best
    }

    /// Vertex connectivity numbers for every vertex of the input graph.
    pub fn connectivity_numbers(&self) -> Vec<u32> {
        let mut numbers = vec![0u32; self.num_vertices];
        for level in &self.levels {
            for comp in &level.components {
                for &v in comp.vertices() {
                    numbers[v as usize] = numbers[v as usize].max(level.k);
                }
            }
        }
        numbers
    }

    /// Total number of components across all levels.
    pub fn total_components(&self) -> usize {
        self.levels.iter().map(|l| l.components.len()).sum()
    }
}

/// Builds the k-VCC hierarchy of `graph` for `k = 1 ..= max_k`.
///
/// `max_k = None` uses the graph degeneracy as the upper bound (no k-VCC can
/// exist beyond it, because a k-VCC has minimum degree `>= k`);
/// `max_k = Some(0)` builds an empty hierarchy. Construction stops early at
/// the first level with no components. An expired
/// [`KvccOptions::budget`] interrupts the build with
/// [`KvccError::Interrupted`], also before the first level.
pub fn build_hierarchy<G: GraphView>(
    graph: &G,
    max_k: Option<u32>,
    options: &KvccOptions,
) -> Result<KvccHierarchy, KvccError> {
    options.budget.check()?;
    let limit = max_k.unwrap_or_else(|| degeneracy(graph));
    let mut levels: Vec<HierarchyLevel> = Vec::new();
    // `certified[i]`: the level the previous level's `components[i]` is
    // certified up to.
    let mut certified: Vec<u32> = Vec::new();
    let mut scratch = CutScratch::new();
    // One relabelling buffer shared by every slice of the whole construction.
    let mut map: Vec<VertexId> = Vec::new();

    for k in 1..=limit {
        // (component, parent, certified level) before the level is sorted.
        let mut nodes: Vec<(KVertexConnectedComponent, Option<usize>, u32)> = Vec::new();
        match levels.last() {
            None => {
                for members in connected_components(graph) {
                    if members.len() >= 2 {
                        nodes.push((KVertexConnectedComponent::new(members), None, 1));
                    }
                }
            }
            Some(roots) if k == 2 => {
                let mut root_of = vec![usize::MAX; graph.num_vertices()];
                for (i, root) in roots.components.iter().enumerate() {
                    for &v in root.vertices() {
                        root_of[v as usize] = i;
                    }
                }
                for members in two_vccs(graph) {
                    let sub = CsrGraph::extract_induced(graph, &members, &mut map);
                    let level = certified_level(&sub, k, limit, options, &mut scratch)?;
                    let parent = root_of[members[0] as usize];
                    nodes.push((KVertexConnectedComponent::new(members), Some(parent), level));
                }
            }
            Some(previous) => {
                for (parent_idx, parent) in previous.components.iter().enumerate() {
                    if certified[parent_idx] >= k {
                        nodes.push((parent.clone(), Some(parent_idx), certified[parent_idx]));
                        continue;
                    }
                    if parent.len() <= k as usize {
                        continue;
                    }
                    // Slice the parent out of the input as one CSR work item
                    // (component vertex lists are sorted, so the rows come
                    // out sorted for free) and let the enumerator's worklist
                    // — the parallel one when `options.threads` says so —
                    // drain it.
                    let sub = CsrGraph::extract_induced(graph, parent.vertices(), &mut map);
                    for comp in enumerate_kvccs(&sub, k, options)?.iter() {
                        let child = CsrGraph::extract_induced(&sub, comp.vertices(), &mut map);
                        let level = certified_level(&child, k, limit, options, &mut scratch)?;
                        let mapped: Vec<VertexId> = comp
                            .vertices()
                            .iter()
                            .map(|&local| parent.vertices()[local as usize])
                            .collect();
                        nodes.push((
                            KVertexConnectedComponent::new(mapped),
                            Some(parent_idx),
                            level,
                        ));
                    }
                }
            }
        }
        if nodes.is_empty() {
            break;
        }
        // Keep the deterministic ordering used everywhere else.
        nodes.sort_by(|a, b| a.0.cmp(&b.0));
        let mut level = HierarchyLevel {
            k,
            components: Vec::with_capacity(nodes.len()),
            parents: Vec::with_capacity(nodes.len()),
        };
        certified.clear();
        for (component, parent, up_to) in nodes {
            level.components.push(component);
            level.parents.push(parent);
            certified.push(up_to);
        }
        levels.push(level);
    }

    Ok(KvccHierarchy {
        levels,
        num_vertices: graph.num_vertices(),
    })
}

/// The level up to which a k-connected component `C`, given as its induced
/// CSR graph, is certified: `κ(C)` capped at `min(δ(C), limit)`.
fn certified_level(
    component: &CsrGraph,
    k: u32,
    limit: u32,
    options: &KvccOptions,
    scratch: &mut CutScratch,
) -> Result<u32, KvccError> {
    let cap = (component.min_degree() as u32).min(limit);
    if cap <= k {
        return Ok(k);
    }
    // The size of a cut below `j`, or `None` when `C` is j-connected.
    let mut cut_below = |j: u32| -> Result<Option<u32>, KvccError> {
        let mut stats = EnumerationStats::default();
        let outcome = global_cut_with_scratch(component, j, options, &mut stats, scratch)?;
        Ok(outcome.cut.map(|cut| cut.len() as u32))
    };
    // Invariant: lo <= κ(C) <= hi. A cut of size s separates C, so
    // κ(C) <= s.
    let (mut lo, mut hi) = match cut_below(cap)? {
        None => return Ok(cap),
        Some(size) => (k, size),
    };
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        match cut_below(mid)? {
            None => lo = mid,
            Some(size) => hi = size,
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::KvccOptions;
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

    /// Two triangles sharing vertex 2, plus a pendant vertex 5.
    fn two_triangles_with_pendant() -> UndirectedGraph {
        UndirectedGraph::from_edges(
            6,
            vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 5)],
        )
        .unwrap()
    }

    #[test]
    fn hierarchy_of_a_clique() {
        let g = complete(6);
        let h = build_hierarchy(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(h.max_k(), 5);
        assert_eq!(h.levels().len(), 5);
        for level in h.levels() {
            assert_eq!(level.components.len(), 1);
            assert_eq!(level.components[0].len(), 6);
        }
        assert_eq!(h.connectivity_number(0), 5);
        assert_eq!(h.connectivity_numbers(), vec![5; 6]);
        assert_eq!(h.total_components(), 5);
    }

    #[test]
    fn hierarchy_of_glued_triangles() {
        let g = two_triangles_with_pendant();
        let h = build_hierarchy(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(h.max_k(), 2);
        // Level 1: one connected component with all 6 vertices.
        let level1 = h.components_at(1).unwrap();
        assert_eq!(level1.len(), 1);
        assert_eq!(level1[0].len(), 6);
        // Level 2: the two triangles, both children of the level-1 component.
        let level2 = &h.levels()[1];
        assert_eq!(level2.components.len(), 2);
        assert!(level2.parents.iter().all(|p| *p == Some(0)));
        // Connectivity numbers: triangle members 2, pendant vertex 1.
        assert_eq!(h.connectivity_number(2), 2);
        assert_eq!(h.connectivity_number(5), 1);
        assert_eq!(h.components_at(3), None);
    }

    #[test]
    fn parents_contain_their_children() {
        let g = two_triangles_with_pendant();
        let h = build_hierarchy(&g, Some(3), &KvccOptions::default()).unwrap();
        for window in h.levels().windows(2) {
            let (upper, lower) = (&window[0], &window[1]);
            for (comp, parent) in lower.components.iter().zip(&lower.parents) {
                let parent = &upper.components[parent.expect("non-root level has parents")];
                for &v in comp.vertices() {
                    assert!(parent.contains(v));
                }
            }
        }
    }

    #[test]
    fn explicit_max_k_truncates_the_hierarchy() {
        let g = complete(8);
        let h = build_hierarchy(&g, Some(3), &KvccOptions::default()).unwrap();
        assert_eq!(h.max_k(), 3);
        assert_eq!(h.levels().len(), 3);
    }

    #[test]
    fn csr_input_builds_the_same_hierarchy() {
        let g = two_triangles_with_pendant();
        let csr = kvcc_graph::CsrGraph::from_view(&g);
        let a = build_hierarchy(&g, None, &KvccOptions::default()).unwrap();
        let b = build_hierarchy(&csr, None, &KvccOptions::default()).unwrap();
        assert_eq!(a.max_k(), b.max_k());
        for (la, lb) in a.levels().iter().zip(b.levels()) {
            assert_eq!(la.components, lb.components);
            assert_eq!(la.parents, lb.parents);
        }
    }

    #[test]
    fn pre_cancelled_budget_interrupts_the_build() {
        // Levels 1 and 2 run no enumeration, so the build polls the budget
        // itself before the first level.
        let budget = kvcc_flow::Budget::cancellable();
        budget.cancel();
        let options = KvccOptions::default().with_budget(budget);
        let g = two_triangles_with_pendant();
        assert!(matches!(
            build_hierarchy(&g, None, &options),
            Err(KvccError::Interrupted { .. })
        ));
    }

    #[test]
    fn zero_depth_cap_builds_an_empty_hierarchy() {
        let g = two_triangles_with_pendant();
        let h = build_hierarchy(&g, Some(0), &KvccOptions::default()).unwrap();
        assert!(h.levels().is_empty());
        assert_eq!(h.max_k(), 0);
        assert_eq!(h.connectivity_numbers(), vec![0; 6]);
    }

    #[test]
    fn certified_components_are_copied_until_their_connectivity() {
        // Two K5s sharing vertices 3 and 4, plus a pendant path 8-9-0. The
        // 2-VCC (the K5 pair, δ = 4, κ = 2) is certified at 2 after a cut
        // search; each K5 (κ = 4) appears at level 3 and is copied to 4.
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 3, 4], [3, 4, 5, 6, 7]] {
            for (i, &a) in block.iter().enumerate() {
                for &b in &block[i + 1..] {
                    edges.push((a, b));
                }
            }
        }
        edges.extend([(8, 9), (9, 0)]);
        let g = UndirectedGraph::from_edges(10, edges).unwrap();
        let h = build_hierarchy(&g, None, &KvccOptions::default()).unwrap();
        let sizes: Vec<Vec<usize>> = h
            .levels()
            .iter()
            .map(|l| l.components.iter().map(|c| c.len()).collect())
            .collect();
        assert_eq!(sizes, vec![vec![10], vec![8], vec![5, 5], vec![5, 5]]);
        assert_eq!(h.levels()[3].components, h.levels()[2].components);
        assert_eq!(h.levels()[3].parents, vec![Some(0), Some(1)]);
        for level in h.levels() {
            let direct = enumerate_kvccs(&g, level.k, &KvccOptions::default()).unwrap();
            assert_eq!(level.components.as_slice(), direct.components());
        }
        // A cap below κ stops the copies at the cap.
        let capped = build_hierarchy(&g, Some(3), &KvccOptions::default()).unwrap();
        assert_eq!(capped.levels().len(), 3);
    }

    #[test]
    fn empty_graph_has_an_empty_hierarchy() {
        let g = UndirectedGraph::new(4);
        let h = build_hierarchy(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(h.max_k(), 0);
        assert_eq!(h.total_components(), 0);
        assert_eq!(h.connectivity_number(1), 0);
    }
}
