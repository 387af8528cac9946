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
//!   `min(δ(C), depth limit)`. One bounded flow runs first, from a
//!   minimum-degree vertex to a vertex farthest from it. A cut `S` it
//!   returns separates `C`, so `κ(C) ≤ |S|`, and `|S| = k` settles `C` at
//!   `k`. Otherwise one `GLOBAL-CUT*` call at the cap runs when the probe
//!   found no cut, and a binary search between `k` and the size of the cut
//!   the probe or that call found runs when either found one.
//! * **A certified component is copied, not re-enumerated.** Say `C` is
//!   certified at `t`. By the maximality in the k-VCC definition (§2), `C` is
//!   then the only j-VCC inside itself for every `k ≤ j ≤ t`: a larger
//!   j-connected set containing `C` would be k-connected, which contradicts
//!   the maximality of `C`. And `t ≤ δ(C) < |C|`, so `C` is large enough to
//!   be a j-VCC. So `C` is copied to levels `k + 1 ..= t` as its own only
//!   child, and enumerated with [`enumerate_kvccs`] only at level `t + 1`.
//!
//! The output is the same forest as enumerating every level inside every
//! parent. **Each component is sliced once.** Its induced graph, one compact
//! CSR work item, comes out of the (arbitrary [`GraphView`]) input at level
//! 2 and out of the parent's slice below, through one reusable relabelling
//! buffer. That slice certifies the component, travels with its copies, and
//! is the graph its children are enumerated in (on the parallel worklist
//! when [`KvccOptions::threads`] asks for it); its edge count is the node's
//! internal-edge count. No level copies the whole graph. This module is
//! an extension of the paper's algorithm (the paper fixes a single k). Its
//! level loop writes each finished level straight into the flat forest of a
//! [`ConnectivityIndex`] (node ids level by level, each parent as a node id
//! one level up), so the index is the one form the hierarchy takes:
//! [`ConnectivityIndex::build`] runs the loop, and
//! [`ConnectivityIndex::components_at`] and [`ConnectivityIndex::parent`]
//! read its levels and links back.
//!
//! # Repair after an update batch
//!
//! [`ConnectivityIndex::apply_updates`] runs the same level loop over the
//! post-update graph `G′`, consulting the forest built on the graph `G`
//! before the batch. A pair is *updated* when the batch names it, and
//! *net-deleted* when the batch deletes it and `G′` lacks it. Levels 1 and 2
//! are still the connected and biconnected components of all of `G′`. Every
//! node goes through the first of these rules that applies, and otherwise
//! through exactly what the build does:
//!
//! * **R1 · a clean subtree is kept.** A node whose vertex set equals an old
//!   node at the same level, and which holds no updated pair (both endpoints
//!   inside), keeps that old node's whole subtree and its internal-edge
//!   count. Exact because `G′[C] = G[C]`, and a node's descendants are the
//!   deeper VCCs of its own induced subgraph.
//! * **R2 · a k-core component is accepted around an old k-VCC, or split
//!   on the cut that refutes it.** When a parent `P` is re-derived at level
//!   `k`, its children come from a worklist seeded with the connected
//!   components of the k-core of `G′[P]` (the first step [`enumerate_kvccs`]
//!   takes anyway). For a component `K` on the worklist, let `C` be the old
//!   level-k node that shares the most members with `K`, found through the
//!   old forest's per-vertex leaves. Let `C′ = C ∩ K`, and `D = C ∖ K` (say,
//!   members a deletion dropped out of the k-core). Let `T` be the members
//!   of `C′` that were G-neighbours of `D`, in increasing order; the repair
//!   takes `D`'s G′-neighbours and net-deleted partners in `C′`, a superset,
//!   which the proof allows. The first `min(k, |T|)` members of `T` are its
//!   *hubs*. `K` is a k-VCC, with no `GLOBAL-CUT*`, when `|C′| > k` and:
//!   - (a) every net-deleted pair inside `C′`, and every pair `(T[i], T[j])`
//!     with `T[i]` a hub and `i < j`, has `κ ≥ k` in `G′[K]`;
//!   - (b) every `x ∈ K ∖ C′` with fewer than `k` neighbours in `C′` has a
//!     k-fan into `C′`: `κ(t, x) ≥ k` in `G′[K]` plus one sink `t` adjacent
//!     to every member of `C′` (Menger's fan lemma).
//!
//!   Exact: take any `S ⊆ K` with `|S| < k`.
//!   - `G[C] − S` is connected, since `G[C]` was k-connected. A path in it
//!     between two members of `C′ ∖ S` runs through `C′` and `D`. Two
//!     members of `C′` that follow each other on it are joined in `G′`, or
//!     are a net-deleted pair, which (a) keeps on one side of `G′[K] − S`. So
//!     the path can change sides only across a detour through `D`, and both
//!     ends of a detour are members of `T`. Hence if `C′ ∖ S` meets two
//!     sides of `G′[K] − S`, each of those sides holds a member of `T`.
//!   - If some member of `T` lies outside `S`, take the first one, `T[i]`.
//!     Every earlier member lies in `S`, so `i ≤ |S| < k` and `T[i]` is a
//!     hub. Every later member of `T` outside `S` was probed against `T[i]`,
//!     so they all lie on `T[i]`'s side (Even's argument, SIAM J. Comput.
//!     1975). Hence `C′ ∖ S` lies on one side, and it is not empty, since
//!     `|C′| > k`.
//!   - By (b), every `x ∈ K ∖ (C′ ∪ S)` keeps an edge or a whole fan path
//!     into `C′ ∖ S`. So `G′[K] − S` is connected, and `K` (with `|K| > k`)
//!     is k-connected.
//!
//!   The proof uses only that `C` was k-connected in `G`, so it holds for
//!   every component on the worklist. No larger k-connected set inside the
//!   graph `K` was taken from (`G′[P]`, or a part below) contains `K`, a
//!   connected component of that graph's k-core, so `K` is a k-VCC of it.
//!   When `C ⊆ K`, `D` and `T` are empty, and (a) probes only the
//!   net-deleted pairs.
//!
//!   **A refusal is a cut.** Each probe is one k-bounded flow, and the
//!   first that fails returns a minimum vertex cut `S` of `G′[K]` with
//!   `|S| < k`. `S` separates two vertices of `K`: a hub pair's or a
//!   net-deleted pair's cut separates the pair's two ends, and a fan
//!   probe's cut separates `x` from `C′ ∖ S`, which is not empty because
//!   `|C′| > k`. `K` then takes Algorithm 1's cut step: `OVERLAP-PARTITION`
//!   splits `G′[K]` along `S`, and the k-core components of each part go
//!   back on the worklist. Every k-VCC of `G′[K]` has more than `|S|`
//!   members and stays connected without `S`, so it lies in exactly one
//!   part; and every k-VCC of a part is one of `G′[K]`, since a larger
//!   k-connected set would lie in the same part. Each part misses a vertex
//!   of `K`, so the worklist ends. A component with no anchor `C`, or with
//!   `|C′| ≤ k`, goes to [`enumerate_kvccs`] on its own.
//!
//!   The worklist's seed and each part's components come from
//!   [`split_k_core`], the k-core split every work item of the enumerator
//!   takes; a part is split on a mask of `G′[K]`, not copied.
//!
//!   (b)'s probes run from `t` to `x`, which gives the same verdicts since
//!   κ is symmetric. Each Dinic phase's reverse BFS then starts at `x` and
//!   stops at the first member of `C′` it reaches, where from `t` it would
//!   label every member of `C′` first.
//! * **R3 · the certified level is bounded on both sides.** A re-derived
//!   node equal to an old node whose vertex set spans old levels `k ..= t`
//!   was t-connected in `G`. Let `cap′ = min(δ′, depth limit)` and
//!   `t′ = min(t, cap′)`.
//!   - *The floor.* If every net-deleted pair inside it has `κ ≥ t′` in
//!     `G′[C]`, it is t′-connected in `G′`: a cut below `t′ ≤ t` leaves
//!     `G[C]` connected, so it separates some net-deleted pair. The search
//!     for its certified level then starts at `t′` instead of `k`.
//!   - *The cap.* Let `ins` be the updated pairs inside it that are not
//!     net-deleted, at least the number of edges the batch inserted there.
//!     The search stops at `min(cap′, t + ins)`. Let `S` be a minimum cut of
//!     `G[C]`, and `a–b` a new edge. `S` still separates `G′[C]` unless
//!     `a` and `b` lie on the only two sides of `G[C] − S`. Then `S` plus
//!     whichever of `a` or `b` does not stand alone on its side separates
//!     `G′[C]`; if both stand alone, `|C| = κ + 2`, and `κ` can rise only to
//!     `|C| − 1`. So each inserted edge raises `κ` by at most one, and
//!     deleting edges never raises it. Without a depth limit, or
//!     with `t` below it, the old certified level `min(κ, δ, limit)` is `κ`
//!     itself, since `κ ≤ δ`; when `t` equals the limit, `t + ins ≥ cap′`,
//!     and the cap changes nothing.
//!   - *The probe.* The certification's first probe (above) settles the
//!     node at the floor when its cut has the floor's size: `κ ≤ |S|`, and
//!     `κ ≥` floor is known.
//!
//!   So a node whose floor holds and that gained no edge inside is settled
//!   by its floor's probes alone (its cap is its floor), and an insert that
//!   leaves an old minimum cut standing is usually settled by the probe.
//!   Otherwise one `GLOBAL-CUT*` call at the cap runs, and a binary search
//!   between the floor and a cut's size only when the probe or that call
//!   finds a cut.
//!
//! R2 slices a piece `K` once, for its probes, and that slice certifies `K`
//! and serves its copies and children, as in the build; R1's nodes need no
//! slice. A re-derived level-1 node, a connected component of `G′`, counts
//! its internal edges as half its members' degree sum.
//!
//! Each probe is one bounded [`VertexFlowGraph`] flow; the first failing
//! probe ends its rule, and [`KvccOptions::budget`] is polled once per Dinic
//! phase. The repaired forest equals a rebuild node for node.

use std::cmp::Reverse;

use kvcc_flow::{LocalConnectivity, VertexFlowGraph};
use kvcc_graph::kcore::{k_core_components, split_k_core};
use kvcc_graph::traversal::{bfs_distances, connected_components, two_vccs, UNREACHABLE};
use kvcc_graph::{BitSet, CsrGraph, EdgeUpdate, GraphView, SubgraphView, UpdateOp, VertexId};

use crate::enumerate::enumerate_kvccs;
use crate::error::KvccError;
use crate::global_cut::{global_cut_with_scratch, CutScratch};
use crate::index::{ConnectivityIndex, NO_PARENT};
use crate::options::KvccOptions;
use crate::partition::overlap_partition;
use crate::result::KVertexConnectedComponent;
use crate::stats::EnumerationStats;

/// The origin of a node the level loop derived itself (no R1 subtree).
pub(crate) const REDERIVED: u32 = u32::MAX;

/// The forest a repair starts from, plus the pairs of the batch that turned
/// its graph `G` into the post-update graph `G′` (see the module docs).
pub(crate) struct Prior<'a> {
    forest: &'a ConnectivityIndex,
    /// The pairs the batch names, as `(min, max)`, sorted and deduplicated.
    updated: Vec<(VertexId, VertexId)>,
    /// The updated pairs the batch deletes and `G′` lacks, in the same form.
    net_deleted: Vec<(VertexId, VertexId)>,
}

/// An old node at the level being built whose vertex set a new node repeats.
struct Match {
    id: u32,
    /// The deepest old level the same vertex set reaches (R3's `t`).
    deepest: u32,
    /// Whether the vertex set holds no updated pair (R1 applies).
    clean: bool,
    /// The updated pairs inside the vertex set that are not net-deleted:
    /// at least the number of edges the batch inserted there (R3's cap).
    inserted: u32,
}

impl<'a> Prior<'a> {
    /// The repair context of `forest` after `updates` (endpoints in range)
    /// turned its graph into `after`.
    pub(crate) fn new<G: GraphView>(
        forest: &'a ConnectivityIndex,
        after: &G,
        updates: &[EdgeUpdate],
    ) -> Self {
        let mut updated = Vec::new();
        let mut net_deleted = Vec::new();
        for update in updates.iter().filter(|u| u.u != u.v) {
            let pair = (update.u.min(update.v), update.u.max(update.v));
            updated.push(pair);
            if update.op == UpdateOp::Delete && !after.has_edge(update.u, update.v) {
                net_deleted.push(pair);
            }
        }
        for pairs in [&mut updated, &mut net_deleted] {
            pairs.sort_unstable();
            pairs.dedup();
        }
        Prior {
            forest,
            updated,
            net_deleted,
        }
    }

    /// The pairs the batch names (self-loops excluded).
    pub(crate) fn pairs(&self) -> &[(VertexId, VertexId)] {
        &self.updated
    }

    /// The pairs of `pairs` with both endpoints in the sorted `members`, as
    /// positions in `members`.
    fn inside<'p>(
        pairs: &'p [(VertexId, VertexId)],
        members: &'p [VertexId],
    ) -> impl Iterator<Item = (VertexId, VertexId)> + 'p {
        pairs.iter().filter_map(|&(a, b)| {
            let a = members.binary_search(&a).ok()?;
            let b = members.binary_search(&b).ok()?;
            Some((a as VertexId, b as VertexId))
        })
    }

    /// The old level-k node with exactly the vertex set `members`, found by
    /// walking one member's leaves up to level `k`.
    fn find(&self, k: u32, members: &[VertexId]) -> Option<Match> {
        let forest = self.forest;
        for &leaf in forest.leaves(members[0]) {
            let mut node = leaf;
            // Nodes below a level-k match are its subsets, so the first one
            // of equal size on the way up is the deepest copy of it.
            let mut deepest = None;
            while forest.node_k(node)? >= k {
                let old = forest.node_component(node)?.vertices();
                if deepest.is_none() && old.len() == members.len() {
                    deepest = Some(forest.node_k(node)?);
                }
                if forest.node_k(node)? == k {
                    if old == members {
                        let updated = Self::inside(&self.updated, members).count() as u32;
                        let deleted = Self::inside(&self.net_deleted, members).count() as u32;
                        return Some(Match {
                            id: node,
                            deepest: deepest.unwrap_or(k),
                            clean: updated == 0,
                            inserted: updated - deleted,
                        });
                    }
                    break;
                }
                node = forest.parent(node)?;
            }
        }
        None
    }

    /// The members of R2's anchor: the old level-k node that shares the
    /// most members with `members`, found by walking each member's leaves
    /// up to level `k` (ties go to the smaller node id).
    fn anchor(&self, k: u32, members: impl Iterator<Item = VertexId>) -> Option<&'a [VertexId]> {
        let forest = self.forest;
        // One entry per member and level-k node holding it.
        let mut hits: Vec<u32> = Vec::new();
        for v in members {
            let first = hits.len();
            for &leaf in forest.leaves(v) {
                let mut node = leaf;
                while forest.node_k(node)? > k {
                    node = forest.parent(node)?;
                }
                if forest.node_k(node)? == k && !hits[first..].contains(&node) {
                    hits.push(node);
                }
            }
        }
        hits.sort_unstable();
        let mut best: Option<(usize, u32)> = None;
        for run in hits.chunk_by(|a, b| a == b) {
            if best.is_none_or(|(shared, _)| run.len() > shared) {
                best = Some((run.len(), run[0]));
            }
        }
        Some(forest.node_component(best?.1)?.vertices())
    }

    /// R1 for a node with no certification to inherit: the old node whose
    /// subtree it keeps, or [`REDERIVED`].
    fn kept(&self, k: u32, component: &KVertexConnectedComponent) -> u32 {
        match self.find(k, component.vertices()) {
            Some(m) if m.clean => m.id,
            _ => REDERIVED,
        }
    }

    /// R1's subtrees one level down: the old level-k nodes whose parents the
    /// new level above keeps (`placed[old id]` is the keeper's node id).
    fn kept_children(&self, k: u32, placed: &[u32], nodes: &mut Vec<Node>) {
        for id in self.forest.level_nodes(k) {
            let Some(parent) = self.forest.parent(id) else {
                continue;
            };
            if placed[parent as usize] != REDERIVED {
                nodes.push(Node {
                    component: self.forest.node_component(id).expect("in range").clone(),
                    parent: placed[parent as usize],
                    certified: k,
                    origin: id,
                    slice: None,
                });
            }
        }
    }
}

/// R2's verdict on a k-core component `K` (see the module docs).
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// `K` is a k-VCC.
    Kvcc,
    /// A vertex cut of `G′[K]` with fewer than `k` vertices, as sorted
    /// positions in `K`.
    Cut(Vec<VertexId>),
    /// `K` has no anchor, or shares at most `k` members with it: it goes to
    /// [`enumerate_kvccs`].
    Enumerate,
}

/// A child of a re-derived parent: sorted local ids of the parent's slice,
/// and its own slice when R2's verdict built one.
type Child = (Vec<VertexId>, Option<CsrGraph>);

/// A node of the level under construction.
struct Node {
    component: KVertexConnectedComponent,
    /// The node id of its parent, or [`NO_PARENT`] at level 1.
    parent: u32,
    /// The level the component is certified up to.
    certified: u32,
    /// The old node whose subtree it keeps (R1), or [`REDERIVED`].
    origin: u32,
    /// The induced graph of `component` (positions in it as vertex ids), for
    /// a re-derived node below level 1: built once, it certifies the node
    /// and is the graph its copies and children are taken from.
    slice: Option<CsrGraph>,
}

/// The level loop behind [`ConnectivityIndex::build`] and the index repair:
/// with no `prior` forest it is the build, with one it is the repair of the
/// module docs. Each finished level goes straight into the index's flat
/// arrays. Returns the index (depth limit `max_k`, epoch 0) and, per node
/// id, the old node whose subtree the node keeps, or [`REDERIVED`].
pub(crate) fn grow<G: GraphView>(
    graph: &G,
    max_k: Option<u32>,
    prior: Option<&Prior>,
    options: &KvccOptions,
) -> Result<(ConnectivityIndex, Vec<u32>), KvccError> {
    options.budget.check()?;
    // Without a depth limit the loop runs until a level is empty; δ(C) caps
    // every certification, and no δ(C) exceeds the degeneracy.
    let limit = max_k.unwrap_or(u32::MAX);
    let mut run = LevelLoop::new(limit, prior, options);
    // The index's flat arrays: per node id, level by level.
    let mut ks: Vec<u32> = Vec::new();
    let mut parents: Vec<u32> = Vec::new();
    let mut components: Vec<KVertexConnectedComponent> = Vec::new();
    let mut level_offsets = vec![0usize];
    let mut internal_edges: Vec<u64> = Vec::new();
    let mut origins: Vec<u32> = Vec::new();
    // Per node id: the level its component is certified up to.
    let mut certified: Vec<u32> = Vec::new();
    // Old node id → id of the new node that keeps it (R1).
    let mut placed = vec![REDERIVED; prior.map_or(0, |p| p.forest.num_nodes())];
    // Per node of the last finished level: its slice, if the next level
    // reads it.
    let mut slices: Vec<Option<CsrGraph>> = Vec::new();

    for k in 1..=limit {
        let above_slices = std::mem::take(&mut slices);
        let mut nodes: Vec<Node> = Vec::new();
        if let Some(prior) = prior {
            prior.kept_children(k, &placed, &mut nodes);
        }
        match k {
            1 => {
                for members in connected_components(graph) {
                    if members.len() >= 2 {
                        let component = KVertexConnectedComponent::new(members);
                        let origin = prior.map_or(REDERIVED, |p| p.kept(1, &component));
                        nodes.push(Node {
                            component,
                            parent: NO_PARENT,
                            certified: 1,
                            origin,
                            slice: None,
                        });
                    }
                }
            }
            2 => {
                // Level 1 holds every node so far.
                let mut root_of = vec![NO_PARENT; graph.num_vertices()];
                for (id, root) in components.iter().enumerate() {
                    for &v in root.vertices() {
                        root_of[v as usize] = id as u32;
                    }
                }
                for members in two_vccs(graph) {
                    let parent = root_of[members[0] as usize];
                    if origins[parent as usize] != REDERIVED {
                        continue; // its kept subtree holds this node
                    }
                    let component = KVertexConnectedComponent::new(members);
                    nodes.push(run.settle(k, component, parent, |c, map| {
                        CsrGraph::extract_induced(graph, c.vertices(), map)
                    })?);
                }
            }
            _ => {
                let above = level_offsets[k as usize - 2]..level_offsets[k as usize - 1];
                for (parent_id, slice) in above.zip(above_slices) {
                    // Kept nodes, and nodes too small to hold a level-k
                    // node, carry no slice.
                    let Some(sub) = slice else {
                        continue;
                    };
                    let parent = &components[parent_id];
                    if certified[parent_id] >= k {
                        let component = parent.clone();
                        let origin = prior.map_or(REDERIVED, |p| p.kept(k, &component));
                        nodes.push(Node {
                            component,
                            parent: parent_id as u32,
                            certified: certified[parent_id],
                            origin,
                            slice: Some(sub),
                        });
                        continue;
                    }
                    for (local, slice) in run.children(graph, &sub, parent.vertices(), k)? {
                        let mapped: Vec<VertexId> = local
                            .iter()
                            .map(|&l| parent.vertices()[l as usize])
                            .collect();
                        let component = KVertexConnectedComponent::new(mapped);
                        nodes.push(run.settle(k, component, parent_id as u32, |_, map| {
                            slice.unwrap_or_else(|| CsrGraph::extract_induced(&sub, &local, map))
                        })?);
                    }
                }
            }
        }
        if nodes.is_empty() {
            break;
        }
        // Keep the deterministic ordering used everywhere else.
        nodes.sort_by(|a, b| a.component.cmp(&b.component));
        for node in nodes {
            let edges = match (node.origin, &node.slice) {
                (REDERIVED, Some(slice)) => slice.num_edges() as u64,
                // A level-1 node is a connected component: it holds every
                // edge of its members.
                (REDERIVED, None) => {
                    debug_assert_eq!(k, 1, "a re-derived node below level 1 has a slice");
                    let members = node.component.vertices();
                    members.iter().map(|&v| graph.degree(v) as u64).sum::<u64>() / 2
                }
                (old, _) => {
                    placed[old as usize] = components.len() as u32;
                    prior
                        .and_then(|p| p.forest.internal_edges_of(old))
                        .expect("a kept node has an old node")
                }
            };
            // The next level copies a node certified past k, and takes the
            // children of a larger one from its slice.
            let read_below = k < limit
                && node.origin == REDERIVED
                && (node.certified > k || node.component.len() > k as usize + 1);
            slices.push(node.slice.filter(|_| read_below));
            ks.push(k);
            parents.push(node.parent);
            components.push(node.component);
            internal_edges.push(edges);
            certified.push(node.certified);
            origins.push(node.origin);
        }
        level_offsets.push(components.len());
    }

    let index = ConnectivityIndex::assemble(
        graph.num_vertices(),
        ks,
        parents,
        components,
        level_offsets,
        internal_edges,
        max_k,
    );
    Ok((index, origins))
}

/// The scratch and settings one run of the level loop shares.
struct LevelLoop<'a> {
    limit: u32,
    prior: Option<&'a Prior<'a>>,
    options: &'a KvccOptions,
    scratch: CutScratch,
    /// The counters of the certifications' `GLOBAL-CUT*` calls.
    stats: EnumerationStats,
    /// The arena of R2's and R3's probes and of the certifications' first
    /// probe.
    flow: VertexFlowGraph,
    /// One relabelling buffer shared by every slice of the whole run.
    map: Vec<VertexId>,
}

impl<'a> LevelLoop<'a> {
    fn new(limit: u32, prior: Option<&'a Prior<'a>>, options: &'a KvccOptions) -> Self {
        LevelLoop {
            limit,
            prior,
            options,
            scratch: CutScratch::new(),
            stats: EnumerationStats::default(),
            flow: VertexFlowGraph::empty(),
            map: Vec::new(),
        }
    }

    /// Places a level-k node under `parent`: R1, else
    /// [`certified_level`](Self::certified_level) on the slice `extract`
    /// returns, between R3's floor and cap. The node keeps the slice.
    fn settle(
        &mut self,
        k: u32,
        component: KVertexConnectedComponent,
        parent: u32,
        extract: impl FnOnce(&KVertexConnectedComponent, &mut Vec<VertexId>) -> CsrGraph,
    ) -> Result<Node, KvccError> {
        let matched = self.prior.and_then(|p| p.find(k, component.vertices()));
        if let Some(m) = matched.as_ref().filter(|m| m.clean) {
            return Ok(Node {
                component,
                parent,
                certified: k,
                origin: m.id,
                slice: None,
            });
        }
        let induced = extract(&component, &mut self.map);
        let cap = (induced.min_degree() as u32).min(self.limit);
        let (floor, cap) = match matched {
            Some(m) => {
                let inherited = m.deepest.min(cap);
                let floor = if inherited > k
                    && self.pairs_hold(&induced, component.vertices(), inherited)?
                {
                    inherited
                } else {
                    k
                };
                (floor, cap.min(m.deepest.saturating_add(m.inserted)))
            }
            None => (k, cap),
        };
        let certified = self.certified_level(&induced, floor, cap)?;
        Ok(Node {
            component,
            parent,
            certified,
            origin: REDERIVED,
            slice: Some(induced),
        })
    }

    /// The level-k children of a re-derived parent, as local ids of `sub`
    /// (the parent's slice; `parent` maps its ids back). The build
    /// enumerates them; the repair runs R2's worklist, seeded with the
    /// k-core components of `sub`.
    fn children<G: GraphView>(
        &mut self,
        graph: &G,
        sub: &CsrGraph,
        parent: &[VertexId],
        k: u32,
    ) -> Result<Vec<Child>, KvccError> {
        let Some(prior) = self.prior else {
            let result = enumerate_kvccs(sub, k, self.options)?;
            return Ok(result
                .iter()
                .map(|c| (c.vertices().to_vec(), None))
                .collect());
        };
        let mut found = Vec::new();
        let mut work = k_core_components(sub, k as usize);
        while let Some(piece) = work.pop() {
            let (verdict, slice) = self.fans_hold(prior, graph, sub, parent, &piece, k)?;
            match verdict {
                Verdict::Kvcc => found.push((piece, slice)),
                Verdict::Cut(cut) => {
                    let induced = slice.expect("a refusing probe ran on the slice");
                    let parts = overlap_partition(&induced, &cut);
                    assert!(parts.len() > 1, "a refusing probe's cut splits G′[K]");
                    for part in parts {
                        // The part's k-core components, split on a mask of
                        // G′[K]; their ids map back through `piece`.
                        let mut view = SubgraphView::from_vertices(&induced, &part);
                        for core in split_k_core(&mut view, k as usize) {
                            work.push(core.iter().map(|&x| piece[x as usize]).collect());
                        }
                    }
                }
                Verdict::Enumerate => {
                    let induced = CsrGraph::extract_induced(sub, &piece, &mut self.map);
                    for c in enumerate_kvccs(&induced, k, self.options)?.iter() {
                        let local = c.vertices().iter().map(|&x| piece[x as usize]).collect();
                        found.push((local, None));
                    }
                }
            }
        }
        Ok(found)
    }

    /// R2's verdict on the k-core component `piece` (sorted local ids of
    /// `sub`), by probes anchored on the old level-k node `C` that shares
    /// the most members with it, and the slice `G′[K]` when the probes
    /// needed it (always for a cut). `graph` is `G′`, for the neighbours of
    /// `C`'s members outside `K`.
    fn fans_hold<G: GraphView>(
        &mut self,
        prior: &Prior,
        graph: &G,
        sub: &CsrGraph,
        parent: &[VertexId],
        piece: &[VertexId],
        k: u32,
    ) -> Result<(Verdict, Option<CsrGraph>), KvccError> {
        let Some(anchor) = prior.anchor(k, piece.iter().map(|&l| parent[l as usize])) else {
            return Ok((Verdict::Enumerate, None));
        };
        // The position of a vertex in `piece`, which is its id in G′[K].
        let position = |v: VertexId| -> Option<VertexId> {
            let l = parent.binary_search(&v).ok()? as VertexId;
            piece.binary_search(&l).ok().map(|x| x as VertexId)
        };
        // C′ = C ∩ K as positions, and D = C ∖ K.
        let mut shared = Vec::new();
        let mut dropped = Vec::new();
        for &v in anchor {
            match position(v) {
                Some(x) => shared.push(x),
                None => dropped.push(v),
            }
        }
        if shared.len() <= k as usize {
            return Ok((Verdict::Enumerate, None));
        }
        let mut in_shared = BitSet::new(piece.len());
        for &x in &shared {
            in_shared.insert(x as usize);
        }
        let shared_position = |v: VertexId| position(v).filter(|&x| in_shared.contains(x as usize));
        let is_dropped = |v: VertexId| dropped.binary_search(&v).is_ok();
        // (a) The net-deleted pairs inside C′, and the hub pairs of T: the
        // members of C′ that were G-neighbours of D, taken as D's
        // G′-neighbours and net-deleted partners.
        let mut pairs = Vec::new();
        let mut touching = Vec::new();
        for &(a, b) in &prior.net_deleted {
            match (shared_position(a), shared_position(b)) {
                (Some(x), Some(y)) => pairs.push((x, y)),
                (Some(x), None) if is_dropped(b) => touching.push(x),
                (None, Some(y)) if is_dropped(a) => touching.push(y),
                _ => {}
            }
        }
        for &d in &dropped {
            touching.extend(
                graph
                    .neighbors(d)
                    .iter()
                    .filter_map(|&w| shared_position(w)),
            );
        }
        touching.sort_unstable();
        touching.dedup();
        for (i, &hub) in touching.iter().enumerate().take(k as usize) {
            pairs.extend(touching[i + 1..].iter().map(|&y| (hub, y)));
        }
        if pairs.is_empty() && shared.len() == piece.len() {
            return Ok((Verdict::Kvcc, None));
        }
        let induced = CsrGraph::extract_induced(sub, piece, &mut self.map);
        if let Some(cut) = self.first_cut(&induced, pairs, k)? {
            return Ok((Verdict::Cut(cut), Some(induced)));
        }
        // (b) Every other member reaches C′ by k edges, or else by a k-fan:
        // a flow of k between it and a sink t adjacent to all of C′.
        let fanless: Vec<VertexId> = induced
            .vertices()
            .filter(|&x| {
                !in_shared.contains(x as usize)
                    && induced
                        .neighbors(x)
                        .iter()
                        .filter(|&&y| in_shared.contains(y as usize))
                        .take(k as usize)
                        .count()
                        < k as usize
            })
            .collect();
        if fanless.is_empty() {
            return Ok((Verdict::Kvcc, Some(induced)));
        }
        // The sink t takes the next id, adjacent to C′ (sorted positions).
        let sink = piece.len() as VertexId;
        let fan = induced.with_apex(&shared);
        // From t to x: each phase's reverse BFS starts at x and stops at the
        // first member of C′ it reaches. The cut never holds t or x.
        let cut = self.first_cut(&fan, fanless.into_iter().map(|x| (sink, x)), k)?;
        Ok((cut.map_or(Verdict::Kvcc, Verdict::Cut), Some(induced)))
    }

    /// Whether every net-deleted pair inside `members` (the vertex set of
    /// the induced graph `induced`) has local connectivity at least `j`.
    fn pairs_hold(
        &mut self,
        induced: &CsrGraph,
        members: &[VertexId],
        j: u32,
    ) -> Result<bool, KvccError> {
        let Some(prior) = self.prior else {
            return Ok(true);
        };
        let pairs = Prior::inside(&prior.net_deleted, members);
        Ok(self.first_cut(induced, pairs, j)?.is_none())
    }

    /// The minimum vertex cut (sorted, fewer than `j` vertices) of the first
    /// pair of `pairs` whose local connectivity in `graph` is below `j`, or
    /// `None` when every pair reaches `j`. `graph` is loaded into the arena
    /// before the first probe.
    fn first_cut(
        &mut self,
        graph: &CsrGraph,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
        j: u32,
    ) -> Result<Option<Vec<VertexId>>, KvccError> {
        let mut loaded = false;
        for (a, b) in pairs {
            if !loaded {
                self.flow.rebuild(graph);
                loaded = true;
            }
            let probe = self
                .flow
                .local_connectivity_budgeted(a, b, j, &self.options.budget)?;
            if let LocalConnectivity::Cut(cut) = probe {
                return Ok(Some(cut));
            }
        }
        Ok(None)
    }

    /// The level up to which a component `C`, given as its slice and known
    /// to be `floor`-connected, is certified: `min(κ(C), cap)`, for a `cap`
    /// between `floor` and `min(δ(C), depth limit)`.
    ///
    /// One probe runs first, from a minimum-degree vertex to a vertex
    /// farthest from it: its cut `S` separates `C`, so `κ(C) ≤ |S|`, and a
    /// cut of the floor's size settles `C` with no `GLOBAL-CUT*`. A larger
    /// cut bounds a binary search between `floor` and `|S|`. Without a cut,
    /// one `GLOBAL-CUT*` call at `cap` runs first, and the search runs only
    /// when that call finds a cut, up to its size.
    fn certified_level(
        &mut self,
        component: &CsrGraph,
        floor: u32,
        cap: u32,
    ) -> Result<u32, KvccError> {
        if cap <= floor {
            return Ok(floor);
        }
        let source = component
            .vertices()
            .min_by_key(|&v| component.degree(v))
            .expect("a component has members");
        let dist = bfs_distances(component, source);
        let target = component
            .vertices()
            .filter(|&v| dist[v as usize] != UNREACHABLE)
            .max_by_key(|&v| (dist[v as usize], Reverse(v)))
            .expect("the source reaches itself");
        let probe = self.first_cut(component, [(source, target)], cap)?;
        // The size of a cut below `j`, or `None` when `C` is j-connected.
        let mut cut_below = |j: u32| -> Result<Option<u32>, KvccError> {
            let outcome = global_cut_with_scratch(
                component,
                j,
                self.options,
                &mut self.stats,
                &mut self.scratch,
            )?;
            Ok(outcome.cut.map(|cut| cut.len() as u32))
        };
        // Invariant: lo <= κ(C) <= hi. A cut of size s separates C, so
        // κ(C) <= s.
        let (mut lo, mut hi) = match probe.map(|cut| cut.len() as u32) {
            Some(size) if size == floor => return Ok(floor),
            Some(size) => (floor, size),
            None => match cut_below(cap)? {
                None => return Ok(cap),
                Some(size) => (floor, size),
            },
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::KvccOptions;
    use kvcc_graph::{EdgeUpdate, UndirectedGraph};

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

    /// The index of `g` under the depth limit `max_k`.
    fn build(g: &UndirectedGraph, max_k: Option<u32>) -> ConnectivityIndex {
        ConnectivityIndex::build(g, max_k, &KvccOptions::default()).unwrap()
    }

    #[test]
    fn hierarchy_of_a_clique() {
        let g = complete(6);
        let h = build(&g, None);
        assert_eq!(h.max_k(), 5);
        assert!(h.components_at(6).is_empty());
        for k in 1..=5 {
            let level = h.components_at(k);
            assert_eq!(level.len(), 1);
            assert_eq!(level[0].len(), 6);
        }
        assert_eq!(h.max_connectivity_of(0), 5);
        let numbers: Vec<u32> = g.vertices().map(|v| h.max_connectivity_of(v)).collect();
        assert_eq!(numbers, vec![5; 6]);
        assert_eq!(h.num_nodes(), 5);
    }

    #[test]
    fn hierarchy_of_glued_triangles() {
        let g = two_triangles_with_pendant();
        let h = build(&g, None);
        assert_eq!(h.max_k(), 2);
        // Level 1: one connected component with all 6 vertices.
        let level1 = h.components_at(1);
        assert_eq!(level1.len(), 1);
        assert_eq!(level1[0].len(), 6);
        // Level 2: the two triangles, both children of the level-1 component.
        assert_eq!(h.components_at(2).len(), 2);
        assert!(h.level_nodes(2).all(|id| h.parent(id) == Some(0)));
        // Connectivity numbers: triangle members 2, pendant vertex 1.
        assert_eq!(h.max_connectivity_of(2), 2);
        assert_eq!(h.max_connectivity_of(5), 1);
        assert!(h.components_at(3).is_empty());
    }

    #[test]
    fn parents_contain_their_children() {
        let g = two_triangles_with_pendant();
        let h = build(&g, Some(3));
        for k in 2..=h.max_k() {
            for id in h.level_nodes(k) {
                let parent = h.parent(id).expect("non-root level has parents");
                assert_eq!(h.node_k(parent), Some(k - 1));
                let parent = h.node_component(parent).unwrap();
                for &v in h.node_component(id).unwrap().vertices() {
                    assert!(parent.contains(v));
                }
            }
        }
        assert!(h.level_nodes(1).all(|id| h.parent(id).is_none()));
        assert_eq!(h.parent(h.num_nodes() as u32), None, "out of range");
    }

    #[test]
    fn explicit_max_k_truncates_the_hierarchy() {
        let g = complete(8);
        let h = build(&g, Some(3));
        assert_eq!(h.max_k(), 3);
        let sizes: Vec<usize> = (1..=4).map(|k| h.components_at(k).len()).collect();
        assert_eq!(sizes, [1, 1, 1, 0]);
    }

    #[test]
    fn csr_input_builds_the_same_hierarchy() {
        // The same edge set as a CSR graph and as a delta over another base.
        let g = two_triangles_with_pendant();
        let delta = crate::testing::rebased(&g);
        let options = KvccOptions::default();
        let a = build(&g, None);
        let b = ConnectivityIndex::build(&delta, None, &options).unwrap();
        assert_eq!(a.max_k(), b.max_k());
        assert_eq!(a.to_bytes(), b.to_bytes());
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
            ConnectivityIndex::build(&g, None, &options),
            Err(KvccError::Interrupted { .. })
        ));
    }

    #[test]
    fn zero_depth_cap_builds_an_empty_hierarchy() {
        let g = two_triangles_with_pendant();
        let h = build(&g, Some(0));
        assert_eq!(h.num_nodes(), 0);
        assert_eq!(h.max_k(), 0);
        assert!(g.vertices().all(|v| h.max_connectivity_of(v) == 0));
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
        let h = build(&g, None);
        let sizes: Vec<Vec<usize>> = (1..=h.max_k())
            .map(|k| h.components_at(k).iter().map(|c| c.len()).collect())
            .collect();
        assert_eq!(sizes, vec![vec![10], vec![8], vec![5, 5], vec![5, 5]]);
        assert_eq!(h.components_at(4), h.components_at(3));
        // Each level-4 K5 hangs under its own copy at level 3.
        let parents: Vec<Option<u32>> = h.level_nodes(4).map(|id| h.parent(id)).collect();
        assert_eq!(parents, h.level_nodes(3).map(Some).collect::<Vec<_>>());
        for k in 1..=h.max_k() {
            let direct = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(h.components_at(k), direct.components());
        }
        // A cap below κ stops the copies at the cap.
        let capped = build(&g, Some(3));
        assert_eq!(capped.max_k(), 3);
    }

    /// Edges of a clique on `members`.
    fn clique(members: &[VertexId]) -> Vec<(VertexId, VertexId)> {
        let mut edges = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                edges.push((a, b));
            }
        }
        edges
    }

    /// The graph `before` turns into under `batch`.
    fn after(before: &UndirectedGraph, batch: &[EdgeUpdate]) -> CsrGraph {
        let mut delta = kvcc_graph::DeltaGraph::new(CsrGraph::from_view(before));
        delta.apply(batch).unwrap();
        delta.into_csr()
    }

    /// Repairs the index of `before` after `batch`, asserts that it equals
    /// a rebuild, and returns each node's origin, by node id.
    fn repair(before: &UndirectedGraph, batch: &[EdgeUpdate]) -> Vec<u32> {
        let options = KvccOptions::default();
        let forest = ConnectivityIndex::build(before, None, &options).unwrap();
        let g = after(before, batch);
        let prior = Prior::new(&forest, &g, batch);
        let (repaired, origins) = grow(&g, None, Some(&prior), &options).unwrap();
        let rebuilt = ConnectivityIndex::build(&g, None, &options).unwrap();
        assert_eq!(repaired.to_bytes(), rebuilt.to_bytes());
        origins
    }

    /// R2's verdict on the one component of the 3-core of the graph after
    /// `batch`, taken as a child of a level-2 node spanning the whole
    /// graph. A cut is checked to have fewer than 3 vertices and to split
    /// the component, and comes back as vertex ids.
    fn fans_at_level_3(before: &UndirectedGraph, batch: &[EdgeUpdate]) -> Verdict {
        let options = KvccOptions::default();
        let forest = ConnectivityIndex::build(before, None, &options).unwrap();
        let g = after(before, batch);
        let prior = Prior::new(&forest, &g, batch);
        let mut run = LevelLoop::new(3, Some(&prior), &options);
        let parent: Vec<VertexId> = g.vertices().collect();
        let pieces = k_core_components(&g, 3);
        assert_eq!(pieces.len(), 1, "the 3-core is one component");
        let piece = &pieces[0];
        let (verdict, slice) = run.fans_hold(&prior, &g, &g, &parent, piece, 3).unwrap();
        let induced = CsrGraph::extract_induced(&g, piece, &mut Vec::new());
        if let Some(slice) = slice {
            assert_eq!(slice, induced, "the verdict's slice is G′[K]");
        }
        match verdict {
            Verdict::Cut(cut) => {
                assert!(cut.len() < 3, "a cut below k: {cut:?}");
                assert!(
                    overlap_partition(&induced, &cut).len() > 1,
                    "the cut splits the component"
                );
                Verdict::Cut(cut.iter().map(|&x| piece[x as usize]).collect())
            }
            verdict => verdict,
        }
    }

    #[test]
    fn r1_keeps_a_clean_subtree_and_rederives_the_touched_one() {
        // Two K5s joined by the bridge 4-5: one root, then each K5 alone
        // at levels 2 to 4. Deleting 0-1 touches the first K5 only.
        let mut edges = clique(&[0, 1, 2, 3, 4]);
        edges.extend(clique(&[5, 6, 7, 8, 9]));
        edges.push((4, 5));
        let g = UndirectedGraph::from_edges(10, edges).unwrap();
        let origins = repair(&g, &[EdgeUpdate::delete(0, 1)]);
        // Level 1 holds the deleted pair. The touched K5 (first by smallest
        // member) is re-derived at levels 2 and 3 and, now only
        // 3-connected, leaves level 4; the other one keeps its old nodes,
        // ids 2, 4 and 6 of the old forest.
        assert_eq!(origins, [REDERIVED, REDERIVED, 2, REDERIVED, 4, 6]);
    }

    #[test]
    fn r2_accepts_a_grown_k_core_component_by_fans() {
        // K4 {0,1,2,3}; 4 sees 0 and 1, 5 sees 2 and 3. Inserting 4-5 lifts
        // both into the 3-core, each with two neighbours in the K4 and a
        // third fan path through the other: {0..5} is 3-connected.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend([(4, 0), (4, 1), (5, 2), (5, 3)]);
        let g = UndirectedGraph::from_edges(6, edges).unwrap();
        let batch = [EdgeUpdate::insert(4, 5)];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Kvcc);
        repair(&g, &batch);
    }

    #[test]
    fn r2_refuses_a_fan_that_a_two_vertex_cut_blocks() {
        // K4 {0,1,2,3} and triangle {4,5,6}, attached by 4-0, 5-0 and 6-1.
        // Every vertex then has degree at least 3, so the 3-core holds all
        // seven, yet {0, 1} separates the triangle: 4 has no 3-fan into
        // the K4, its probe returns that cut, and the only 3-VCC is the K4.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend(clique(&[4, 5, 6]));
        edges.extend([(4, 0), (5, 0)]);
        let g = UndirectedGraph::from_edges(7, edges).unwrap();
        let batch = [EdgeUpdate::insert(6, 1)];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Cut(vec![0, 1]));
        repair(&g, &batch);
        let h = build(&after(&g, &batch), None);
        assert_eq!(h.components_at(3)[0].vertices(), &[0, 1, 2, 3]);
    }

    #[test]
    fn r2_accepts_the_k_core_survivors_when_a_deletion_drops_a_member() {
        // K4 {0,1,2,3} plus 4 adjacent to 0, 1 and 2 is one 3-VCC. Deleting
        // 4-0 drops 4 out of the 3-core. The old 3-VCC shares four members
        // with the new component {0,1,2,3}, and T = {0, 1, 2} (the dropped
        // member's neighbours and deleted partner) is pairwise adjacent, so
        // R2 accepts the component with no flow.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend([(4, 0), (4, 1), (4, 2)]);
        let g = UndirectedGraph::from_edges(5, edges).unwrap();
        let batch = [EdgeUpdate::delete(4, 0)];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Kvcc);
        let origins = repair(&g, &batch);
        assert!(origins.iter().all(|&o| o == REDERIVED));
    }

    #[test]
    fn r2_refuses_the_survivors_when_a_dropped_member_was_a_bridge() {
        // K4 {0,1,2,3} and K4 {4,5,6,7} joined by 0-4 and 1-5, plus 8
        // adjacent to 2, 3 and 6: one 3-VCC, in which 8 carries the third
        // path between the blocks. Deleting 8-3 drops 8 out of the 3-core,
        // so T = {2, 3, 6}, and κ(2, 6) = 2 in G′[K] ({0, 1} separates
        // them): R2 refuses with that cut, and level 3 becomes the two K4s.
        // Deleting 8-6 instead refuses the same way, with 6 in T only as
        // 8's deleted partner.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend(clique(&[4, 5, 6, 7]));
        edges.extend([(0, 4), (1, 5), (8, 2), (8, 3), (8, 6)]);
        let g = UndirectedGraph::from_edges(9, edges).unwrap();
        let h = build(&g, None);
        assert_eq!(h.components_at(3)[0].len(), 9);
        for batch in [[EdgeUpdate::delete(8, 3)], [EdgeUpdate::delete(8, 6)]] {
            assert_eq!(fans_at_level_3(&g, &batch), Verdict::Cut(vec![0, 1]));
            repair(&g, &batch);
            let h = build(&after(&g, &batch), None);
            let level3: Vec<&[VertexId]> =
                h.components_at(3).iter().map(|c| c.vertices()).collect();
            assert_eq!(level3, [&[0, 1, 2, 3], &[4, 5, 6, 7]]);
        }
    }

    #[test]
    fn r2_refuses_by_a_later_hub_when_a_cut_holds_the_first() {
        // K5 {0,1,2,3,4} and K5 {0,1,5,6,7} share 0 and 1; 8 is adjacent to
        // 0, 2 and 5, which makes the whole graph one 3-VCC. Deleting 8-0
        // drops 8 out of the 3-core, and T = {0, 2, 5}. The first hub, 0,
        // is adjacent to both others, but the cut {0, 1} separates 2 from 5,
        // which only the second hub's probe sees: R2 refuses with that cut.
        let mut edges = clique(&[0, 1, 2, 3, 4]);
        edges.extend(clique(&[0, 1, 5, 6, 7]));
        edges.extend([(8, 0), (8, 2), (8, 5)]);
        let g = UndirectedGraph::from_edges(9, edges).unwrap();
        let h = build(&g, None);
        assert_eq!(h.components_at(3)[0].len(), 9);
        let batch = [EdgeUpdate::delete(8, 0)];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Cut(vec![0, 1]));
        repair(&g, &batch);
    }

    #[test]
    fn r2_splits_a_refused_component_on_the_cut_of_its_probe() {
        // K5 minus 0-2 on {0..4} and K5 on {5..9}, joined by 0-5 and 1-6:
        // level 3 holds the two blocks. Inserting 0-2 makes the whole graph
        // one 3-core component, anchored on the first block. 5 has no 3-fan
        // into it, and the probe's cut {0, 1} splits the component into the
        // two blocks, each of which R2 then accepts. The second block equals
        // an old node and holds no updated pair, so it keeps its old nodes,
        // ids 3 and 4, through R1.
        let mut edges = clique(&[0, 1, 2, 3, 4]);
        edges.retain(|&e| e != (0, 2));
        edges.extend(clique(&[5, 6, 7, 8, 9]));
        edges.extend([(0, 5), (1, 6)]);
        let g = UndirectedGraph::from_edges(10, edges).unwrap();
        let h = build(&g, None);
        let level3: Vec<&[VertexId]> = h.components_at(3).iter().map(|c| c.vertices()).collect();
        assert_eq!(level3, [&[0, 1, 2, 3, 4], &[5, 6, 7, 8, 9]]);
        let batch = [EdgeUpdate::insert(0, 2)];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Cut(vec![0, 1]));
        let origins = repair(&g, &batch);
        assert_eq!(origins, [REDERIVED, REDERIVED, REDERIVED, 3, REDERIVED, 4]);
    }

    #[test]
    fn r2_enumerates_a_component_with_no_anchor() {
        // K4 minus 0-1 on {0,1,2,3} and K4 minus 4-5 on {2,3,4,5}: one 2-VCC
        // with an empty 3-core. Inserting 0-1 and 4-5 makes the whole graph
        // one 3-core component, two K4s sharing 2 and 3, and no old level-3
        // node meets it: it is enumerated, into the two K4s.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend(clique(&[2, 3, 4, 5]));
        edges.retain(|&e| e != (0, 1) && e != (4, 5));
        let g = UndirectedGraph::from_edges(6, edges).unwrap();
        assert!(build(&g, None).components_at(3).is_empty());
        let batch = [EdgeUpdate::insert(0, 1), EdgeUpdate::insert(4, 5)];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Enumerate);
        repair(&g, &batch);
        let h = build(&after(&g, &batch), None);
        let level3: Vec<&[VertexId]> = h.components_at(3).iter().map(|c| c.vertices()).collect();
        assert_eq!(level3, [&[0, 1, 2, 3], &[2, 3, 4, 5]]);
    }

    #[test]
    fn r2_enumerates_a_component_that_shares_at_most_k_members_with_its_anchor() {
        // K4 {0,1,2,3}, plus 4 adjacent to 2 and 3, and K4 minus 5-6 on
        // {2,3,5,6}: level 3 holds the first K4 only. Deleting 0-1 and
        // inserting 1-4 and 5-6 drops 0 out of the 3-core and leaves one
        // component, the K4s {1,2,3,4} and {2,3,5,6} sharing 2 and 3. It
        // shares only C′ = {1, 2, 3} with the old K4: no more than k
        // members, so it is enumerated, into the two K4s.
        let mut edges = clique(&[0, 1, 2, 3]);
        edges.extend([(4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)]);
        let g = UndirectedGraph::from_edges(7, edges).unwrap();
        let h = build(&g, None);
        let level3: Vec<&[VertexId]> = h.components_at(3).iter().map(|c| c.vertices()).collect();
        assert_eq!(level3, [&[0, 1, 2, 3]]);
        let batch = [
            EdgeUpdate::delete(0, 1),
            EdgeUpdate::insert(1, 4),
            EdgeUpdate::insert(5, 6),
        ];
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Enumerate);
        repair(&g, &batch);
        let h = build(&after(&g, &batch), None);
        let level3: Vec<&[VertexId]> = h.components_at(3).iter().map(|c| c.vertices()).collect();
        assert_eq!(level3, [&[1, 2, 3, 4], &[2, 3, 5, 6]]);
    }

    #[test]
    fn r2_probes_each_hub_against_the_later_members_of_t() {
        // The Petersen graph (outer cycle 0..5, spokes i-(i+5), inner
        // pentagram) plus 10 adjacent to the whole outer cycle: one 3-VCC.
        // Deleting 10-0, 10-1 and 10-2 drops 10 out of the 3-core. T =
        // {0, 1, 2, 3, 4} has more than k = 3 members, so the hubs 0, 1 and
        // 2 are each probed against every later member of T, by a flow for
        // the pairs two apart on the cycle, and all hold: the Petersen graph
        // is accepted.
        let mut edges: Vec<(VertexId, VertexId)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        edges.extend((0..5).map(|i| (i, i + 5)));
        edges.extend([(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]);
        edges.extend((0..5).map(|i| (10, i)));
        let g = UndirectedGraph::from_edges(11, edges).unwrap();
        let batch = [0, 1, 2].map(|i| EdgeUpdate::delete(10, i));
        assert_eq!(fans_at_level_3(&g, &batch), Verdict::Kvcc);
        repair(&g, &batch);
        let h = build(&after(&g, &batch), None);
        let petersen: Vec<VertexId> = (0..10).collect();
        assert_eq!(h.components_at(3)[0].vertices(), petersen);
    }

    /// The level-2 node spanning all of `g`, settled under the depth limit
    /// `limit`, and the `GLOBAL-CUT*` calls its certification took. With
    /// `prior` as `(before, batch)` it is settled as the repair of the index
    /// of `before` after `batch` does, else as the build does.
    fn settle_whole(
        g: &CsrGraph,
        prior: Option<(&UndirectedGraph, &[EdgeUpdate])>,
        limit: u32,
    ) -> (Node, u64) {
        let options = KvccOptions::default();
        let forest = prior.map(|(before, _)| build(before, None));
        let prior = forest
            .as_ref()
            .zip(prior)
            .map(|(forest, (_, batch))| Prior::new(forest, g, batch));
        let mut run = LevelLoop::new(limit, prior.as_ref(), &options);
        let everything = KVertexConnectedComponent::new(g.vertices().collect());
        let node = run
            .settle(2, everything, 0, |c, map| {
                CsrGraph::extract_induced(g, c.vertices(), map)
            })
            .unwrap();
        (node, run.stats.global_cut_calls)
    }

    /// The level-2 node spanning all of the graph after `batch`, settled
    /// with the forest of `before` under the depth limit `limit`, and the
    /// `GLOBAL-CUT*` calls its certification took.
    fn settle_whole_graph(
        before: &UndirectedGraph,
        batch: &[EdgeUpdate],
        limit: u32,
    ) -> (Node, u64) {
        settle_whole(&after(before, batch), Some((before, batch)), limit)
    }

    /// The level the build certifies all of `g` at, as a level-2 node
    /// under the depth limit `limit`.
    fn built_level(g: &CsrGraph, limit: u32) -> u32 {
        settle_whole(g, None, limit).0.certified
    }

    /// Two K6s, on 0..6 and 6..12, joined by the matching `i`-`(i + 6)` for
    /// `i < matched`.
    fn two_k6s(matched: VertexId) -> UndirectedGraph {
        let mut edges = clique(&[0, 1, 2, 3, 4, 5]);
        edges.extend(clique(&[6, 7, 8, 9, 10, 11]));
        edges.extend((0..matched).map(|i| (i, i + 6)));
        UndirectedGraph::from_edges(12, edges).unwrap()
    }

    #[test]
    fn r3_inherits_the_certified_level_of_an_unchanged_vertex_set() {
        // K6 spans old levels 1..=5. Without the edge 0-1 it is
        // 4-connected: κ(0, 1) = 4 through its four common neighbours, so
        // one probe certifies it at min(δ′, limit) = 4.
        let g = complete(6);
        let batch = [EdgeUpdate::delete(0, 1)];
        let (node, _) = settle_whole_graph(&g, &batch, 4);
        assert_eq!((node.certified, node.origin), (4, REDERIVED));
        repair(&g, &batch);
    }

    #[test]
    fn r3_falls_back_to_the_cut_search_when_a_probe_fails() {
        // Two K6s joined by the matching i-(i+6), i < 5: 5-connected, so
        // the vertex set spans old levels 1..=5. Deleting 0-6 keeps δ′ = 5
        // but leaves κ(0, 6) = 4, so the probe at 5 fails and the cut
        // search certifies the node at 4.
        let g = two_k6s(5);
        let batch = [EdgeUpdate::delete(0, 6)];
        let (node, _) = settle_whole_graph(&g, &batch, 5);
        assert_eq!((node.certified, node.origin), (4, REDERIVED));
        repair(&g, &batch);
    }

    #[test]
    fn r3_starts_the_cut_search_at_the_inherited_level() {
        // Two K6s joined by the matching 0-6, 1-7, 2-8: 3-connected, so the
        // vertex set spans old levels 1..=3. Inserting 3-9 gives κ′ = 4
        // under δ′ = 5, so t′ = 3: the cut search starts there and certifies
        // the node where the build does.
        let g = two_k6s(3);
        let batch = [EdgeUpdate::insert(3, 9)];
        let (node, _) = settle_whole_graph(&g, &batch, 5);
        let built = built_level(&after(&g, &batch), 5);
        assert_eq!((node.certified, built), (4, 4));
        repair(&g, &batch);
    }

    #[test]
    fn r3_keeps_the_old_level_after_a_deletion_only_batch() {
        // Two K6s joined by the matching 0-6, 1-7, 2-8 span old levels
        // 1..=3, below δ = 5. Deleting 4-5 lowers δ′ to 4, and {0, 1, 2}
        // still cuts: κ′ = 3. The batch inserts nothing inside, so the cap
        // t + 0 = 3 meets the floor, which the deleted pair's probe holds
        // at 3, and no GLOBAL-CUT* runs.
        let g = two_k6s(3);
        let batch = [EdgeUpdate::delete(4, 5)];
        let (node, calls) = settle_whole_graph(&g, &batch, 5);
        let built = built_level(&after(&g, &batch), 5);
        assert_eq!((node.certified, built, calls), (3, 3, 0));
        repair(&g, &batch);
    }

    #[test]
    fn r3_caps_the_search_at_the_old_level_plus_the_inserted_pairs() {
        // Two K7s joined by the matching 0-7, 1-8, 2-9 span old levels
        // 1..=3. Inserting 3-10 and 4-11 gives κ′ = 5 = t + 2 under
        // δ′ = 6: the cap binds below δ′ and is tight. The probe from 5 to
        // 12 routes 5 paths, and one GLOBAL-CUT* call at the cap certifies
        // the node, where the build needs a binary search.
        let mut edges = clique(&[0, 1, 2, 3, 4, 5, 6]);
        edges.extend(clique(&[7, 8, 9, 10, 11, 12, 13]));
        edges.extend((0..3).map(|i| (i, i + 7)));
        let g = UndirectedGraph::from_edges(14, edges).unwrap();
        let batch = [EdgeUpdate::insert(3, 10), EdgeUpdate::insert(4, 11)];
        let (node, calls) = settle_whole_graph(&g, &batch, 6);
        let built = built_level(&after(&g, &batch), 6);
        assert_eq!((node.certified, built, calls), (5, 5, 1));
        repair(&g, &batch);
    }

    #[test]
    fn r3_settles_by_one_probe_when_an_insert_leaves_the_cut_standing() {
        // Two K6s joined by the matching 0-6, 1-7, 2-8 span old levels
        // 1..=3. Inserting 0-7 leaves the cut {0, 1, 2} standing, so κ′
        // stays 3, under the cap t + 1 = 4 and δ′ = 5. The probe from 3 to
        // 9 returns a cut of the floor's size, which settles the node with
        // no GLOBAL-CUT*.
        let g = two_k6s(3);
        let batch = [EdgeUpdate::insert(0, 7)];
        let (node, calls) = settle_whole_graph(&g, &batch, 5);
        let built = built_level(&after(&g, &batch), 5);
        assert_eq!((node.certified, built, calls), (3, 3, 0));
        repair(&g, &batch);
    }

    #[test]
    fn certification_settles_a_built_component_whose_probe_cut_has_k_members() {
        // The two K5s sharing 3 and 4 form a 2-VCC with δ = 4. The probe
        // from 0 to 5 returns the cut {3, 4} of size k = 2, so the build
        // certifies the node at 2 with no GLOBAL-CUT*, and the index still
        // equals the per-level enumeration.
        let mut edges = clique(&[0, 1, 2, 3, 4]);
        edges.extend(clique(&[3, 4, 5, 6, 7]));
        let g = CsrGraph::from_edges(8, edges).unwrap();
        let (node, calls) = settle_whole(&g, None, u32::MAX);
        assert_eq!((node.certified, calls), (2, 0));
        let h = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        for k in 1..=h.max_k() + 1 {
            let direct = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(h.components_at(k), direct.components(), "k = {k}");
        }
    }

    #[test]
    fn empty_graph_has_an_empty_hierarchy() {
        let g = UndirectedGraph::new(4);
        let h = build(&g, None);
        assert_eq!(h.max_k(), 0);
        assert_eq!(h.num_nodes(), 0);
        assert_eq!(h.max_connectivity_of(1), 0);
    }
}
