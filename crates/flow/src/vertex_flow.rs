//! The vertex-split flow graph of §4.1 (Fig. 3) and the local
//! vertex-connectivity probes (`LOC-CUT`) that run on it.
//!
//! # The split network, held implicitly
//!
//! Every vertex `v` becomes two flow nodes, `v_in = 2v` and `v_out = 2v + 1`,
//! joined by a unit-capacity *vertex arc* `v_in → v_out`; every undirected
//! edge `(u, v)` becomes the two *adjacency arcs* `u_out → v_in` and
//! `v_out → u_in`. Unlike the paper, which gives every arc capacity 1, the
//! adjacency arcs here are uncapacitated. The max-flow value is the same,
//! since each unit still crosses one vertex arc per internal vertex, but
//! every minimum cut then consists of vertex arcs only and maps directly to
//! a vertex cut of the original graph.
//!
//! The network is never materialised. A unit vertex capacity means a
//! non-terminal vertex carries at most one unit of flow, which enters `v_in`
//! from one neighbour and leaves `v_out` towards one neighbour. So the arena
//! holds the graph's CSR rows plus, per vertex, `in_from[v]` and
//! `out_to[v]`; `v` carries its unit (`through`) exactly when `in_from[v]`
//! is set. Every residual arc follows from those:
//!
//! | node | residual successors | residual predecessors |
//! |---|---|---|
//! | `v_in` | `v_out` if idle, else `in_from[v]_out` | `x_out` for every neighbour `x`, and `v_out` if busy |
//! | `v_out` | `y_in` for every neighbour `y`, and `v_in` if busy | `v_in` if idle, else `out_to[v]_in` |
//!
//! The source `u_out` may send, and the sink `v_in` receive, many units.
//! Each is recorded at its other end only (`in_from[y] = u`,
//! `out_to[x] = v`), which is all a search needs: no augmenting path
//! re-enters the source or leaves the sink. A probe logs the vertices whose
//! fields it set and resets just those, so a probe costs nothing
//! proportional to the graph beyond the nodes it reaches.
//!
//! # Loading rows
//!
//! [`VertexFlowGraph::rebuild`] copies the rows of any
//! [`GraphView`]. [`VertexFlowGraph::rebuild_with`] instead hands the arena's
//! own row buffers, emptied, to a closure that writes the rows in place:
//! `GLOBAL-CUT*` transposes its sparse certificate, the union of its
//! scan-first forests, straight into them at its first flow probe, so the
//! certificate is never built as a graph of its own and then copied. Either
//! way the rows must be sorted, since every probe's adjacency test
//! binary-searches them and row order steers the label-guided search below;
//! a rebuild of either kind keeps every buffer's capacity and releases the
//! fixed source.
//!
//! # Sink-bounded Dinic phases
//!
//! Each phase (Even & Tarjan's unit-capacity Dinic, the bound behind
//! Lemma 6) runs a reverse residual BFS from the sink and stops the moment
//! it reaches the source. Every node it labelled lies closer to the sink
//! than the source does, and its label is its distance to the sink. The
//! blocking-path DFS from the source then steps only to a node one closer
//! to the sink, so every step lies on a shortest augmenting path of the
//! phase and the search never wanders into the part of the network beyond
//! the sink's side. A node whose arcs are used up is dropped from the phase
//! (its label cleared) the first time the DFS backs out of it.
//!
//! # Fixed-source probes
//!
//! Phase 1 of `GLOBAL-CUT` probes one source `u` against many sinks, each
//! probe from zero flow. [`VertexFlowGraph::fix_source`] names that source,
//! and the first flow probe from it labels every node once with its
//! zero-flow BFS distance from `u_out`: `2·d(u, w) − 1` for `w_in` and
//! `2·d(u, w)` for `w_out`, so the arena stores `d(u, w)` per vertex. A node
//! the BFS does not reach stays unlabelled. Later probes from `u` reuse the
//! labels; probes from any other vertex keep the Dinic phases above, and
//! [`rebuild`](VertexFlowGraph::rebuild) drops the labels with the graph.
//!
//! Each unit of a fixed-source probe is routed by one iterative DFS from the
//! sink `v_in` over residual predecessor arcs. At an in-node `w_in` it tries
//! the neighbours nearer the source first (`x_out` with `d(u, x) < d(u, w)`,
//! the lower-labelled predecessors), then the other neighbours, then `w_out`
//! if `w` is busy; an in-node next to the source steps straight to `u_out`,
//! whose arc to it is uncapacitated. At zero flow the first unit therefore
//! walks a shortest path without backtracking, and later units leave it
//! only where earlier units block the way.
//!
//! The searches of a probe run in rounds, as Dinic's augmentations run in
//! phases: within a round a node found dead stays dead, and an in-node
//! resumes its scan where the round's previous path left it, so a round
//! scans each row about once however many units it routes, plus the path
//! each search walks again from the sink. A failed search ends its round,
//! and the next round starts from cleared marks. A search from cleared
//! marks is exhaustive: it enters each node at most once and skips only
//! unlabelled nodes, and a node `u_out` cannot reach at zero flow it cannot
//! reach under any flow from `u` either. (Every arc of a residual network
//! is an arc of the zero-flow network or the reverse of an arc carrying
//! flow, and by induction over augmentations every arc that carries flow
//! joins two nodes reachable at zero flow; so a residual path from `u_out`
//! never leaves the labelled nodes.) A probe therefore ends when `k` units
//! are routed or when a round's first search fails, and then the flow is
//! maximum. Each round but the last routes a unit, so a probe stays
//! `O(k·(n + m))`, and the budget is polled once per search, that is once
//! per augmentation and once per round, instead of once per phase.
//!
//! # Which cut a probe returns
//!
//! A probe that routes fewer than `k` units has found a maximum flow. The
//! set of nodes the source reaches in the residual network of a maximum flow
//! is the same for *every* maximum flow: it is the source side of the
//! minimum cut closest to the source, the intersection of all minimum cuts'
//! source sides. The probe reads its cut from one exhaustive forward BFS:
//! the vertices whose in-node is reached and whose out-node is not, in
//! ascending order. So the cut does not depend on which augmenting paths
//! the phases happened to find, nor on whether the fixed-source search or
//! the Dinic phases found them, and any other maximum-flow algorithm on the
//! same network returns the same cut.

use kvcc_graph::{GraphView, VertexId};

use crate::budget::{Budget, Interrupted};
use crate::network::NodeId;

/// An empty `in_from` / `out_to` field.
const NONE: VertexId = VertexId::MAX;

/// Distance of a node the current search has not labelled, or has dropped.
const UNLABELLED: u32 = u32::MAX;

/// Marks of the fixed-source search in `dist`: on the current DFS path,
/// found dead this round, and on an earlier path of this round.
const ON_PATH: u32 = 0;
const DEAD: u32 = 1;
const PASSED: u32 = 2;

/// The unit of flow one vertex carries: the neighbour it enters from and the
/// neighbour it leaves towards. Both fields are set or both are empty,
/// except on the source (which records no `out_to`) and the sink (no
/// `in_from`), neither of which ever carries a unit of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Unit {
    in_from: VertexId,
    out_to: VertexId,
}

impl Unit {
    const IDLE: Unit = Unit {
        in_from: NONE,
        out_to: NONE,
    };

    /// Whether the vertex carries a unit (its vertex arc is saturated).
    #[inline]
    fn busy(self) -> bool {
        self.in_from != NONE
    }

    /// The one residual successor of `in_node`: its own out-node while the
    /// vertex is idle, else the out-node its unit entered from.
    #[inline]
    fn successor_of_in(self, in_node: NodeId) -> NodeId {
        match self.in_from {
            NONE => in_node + 1,
            x => VertexFlowGraph::node_out(x),
        }
    }

    /// The one residual predecessor of `out_node`: its own in-node while the
    /// vertex is idle, else the in-node its unit leaves towards.
    #[inline]
    fn predecessor_of_out(self, out_node: NodeId) -> NodeId {
        match self.out_to {
            NONE => out_node - 1,
            y => VertexFlowGraph::node_in(y),
        }
    }
}

/// The loaded graph's CSR rows.
#[derive(Clone, Debug, Default)]
struct Rows {
    /// `targets[offsets[v]..offsets[v + 1]]` is the sorted row of `v`.
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
}

impl Rows {
    #[inline]
    fn of(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Outcome of a local-connectivity test between two vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalConnectivity {
    /// The local connectivity is at least the requested threshold `k`
    /// (`u ≡ₖ v` in the paper's notation). The payload is the threshold that
    /// was certified, not the exact connectivity.
    AtLeast(u32),
    /// The local connectivity is below the threshold; the payload is a
    /// minimum `u`-`v` vertex cut (vertices of the *original* graph, excluding
    /// `u` and `v` themselves), in ascending order.
    Cut(Vec<VertexId>),
}

impl LocalConnectivity {
    /// Convenience: `true` when the result certifies `u ≡ₖ v`.
    pub fn is_at_least_k(&self) -> bool {
        matches!(self, LocalConnectivity::AtLeast(_))
    }
}

/// The directed flow graph of an undirected graph, reusable across many
/// source/sink pairs **and** — through [`VertexFlowGraph::rebuild`] — across
/// many graphs.
///
/// # Scratch-arena contract
///
/// The arena holds one copy of the graph's CSR rows, the per-vertex flow
/// fields and the per-node search state (see the [module docs](self)). All
/// of it survives a [`rebuild`](Self::rebuild): buffers only grow, so a
/// `GLOBAL-CUT` caller that keeps one `VertexFlowGraph` per worker thread
/// allocates nothing per probe once the buffers have grown to the largest
/// graph seen. Between probes every vertex is idle; a probe resets only the
/// vertices it touched, also when its budget interrupts it.
#[derive(Clone, Debug, Default)]
pub struct VertexFlowGraph {
    rows: Rows,
    /// The unit each vertex carries; [`Unit::IDLE`] between probes.
    units: Vec<Unit>,
    /// The vertices whose unit the current probe set (the undo log).
    touched: Vec<VertexId>,
    /// Per node: the distance to the sink in the current phase, the mark of
    /// a fixed-source search ([`ON_PATH`], [`DEAD`] or [`PASSED`]), or (while
    /// a cut is read) any value but [`UNLABELLED`] for a reached node.
    dist: Vec<u32>,
    /// Per node: the current-arc cursor of the blocking-path DFS, or the
    /// scan position of a fixed-source search.
    cursor: Vec<u32>,
    /// The nodes the last search labelled, in order; `dist` is cleared
    /// through it, so every other entry stays [`UNLABELLED`].
    queue: Vec<NodeId>,
    /// The DFS path, as nodes from the source.
    path: Vec<NodeId>,
    /// The source named by [`fix_source`](Self::fix_source), if any.
    fixed: Option<VertexId>,
    /// The source whose labels `depth` holds, if any.
    labelled: Option<VertexId>,
    /// Per vertex: the BFS distance from the labelled source, or
    /// [`UNLABELLED`] where the source does not reach.
    depth: Vec<u32>,
}

impl VertexFlowGraph {
    /// An empty arena with no graph loaded; call
    /// [`rebuild`](Self::rebuild) before issuing queries.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds the flow graph of `g`.
    pub fn build<G: GraphView>(g: &G) -> Self {
        let mut this = Self::empty();
        this.rebuild(g);
        this
    }

    /// Re-targets the arena at a new graph, reusing every buffer (see the
    /// scratch-arena contract in the type docs), and releases the fixed
    /// source with its labels. Costs one copy of the CSR rows.
    pub fn rebuild<G: GraphView>(&mut self, g: &G) {
        self.rebuild_with(|offsets, targets| {
            offsets.reserve(g.num_vertices() + 1);
            offsets.push(0);
            targets.reserve(2 * g.num_edges());
            for v in g.vertices() {
                targets.extend_from_slice(g.neighbors(v));
                let end =
                    u32::try_from(targets.len()).expect("CSR rows hold fewer than 2^32 slots");
                offsets.push(end);
            }
        });
    }

    /// [`rebuild`](Self::rebuild) onto the graph whose CSR rows `write_rows`
    /// writes straight into the arena's own row buffers (see
    /// [loading rows](self#loading-rows)), so no graph needs to exist
    /// outside the arena.
    ///
    /// `write_rows` receives the offset and target buffers empty, with the
    /// capacity earlier graphs left, and must leave the rows of an `n`-vertex
    /// undirected graph: `n + 1` offsets from 0 to the number of targets,
    /// and each row sorted ascending, as a [`CsrGraph`](kvcc_graph::CsrGraph)
    /// holds them (adjacency tests binary-search a row).
    ///
    /// # Panics
    ///
    /// If the offsets are empty, do not start at 0 or do not end at the
    /// number of targets.
    pub fn rebuild_with(&mut self, write_rows: impl FnOnce(&mut Vec<u32>, &mut Vec<VertexId>)) {
        self.clear_labels();
        self.fixed = None;
        self.labelled = None;
        let Rows { offsets, targets } = &mut self.rows;
        offsets.clear();
        targets.clear();
        write_rows(offsets, targets);
        assert!(
            offsets.first() == Some(&0)
                && offsets.last().map(|&e| e as usize) == Some(targets.len()),
            "CSR offsets must run from 0 to the number of targets"
        );
        let n = offsets.len() - 1;
        if self.units.len() < n {
            self.units.resize(n, Unit::IDLE);
            self.dist.resize(2 * n, UNLABELLED);
            self.cursor.resize(2 * n, 0);
            self.depth.resize(n, UNLABELLED);
        }
        // Size the search buffers once, so no probe grows one mid-flow.
        self.queue.reserve(2 * n);
    }

    /// Fixes `u` as the source of the probes to come: each flow probe from
    /// `u` routes its units by the label-guided search of the
    /// [module docs](self#fixed-source-probes), while probes from any other
    /// vertex keep the Dinic phases. The labels are computed by the first
    /// flow probe from `u`, so fixing a source that no probe uses costs
    /// nothing. Answers are the same either way; the source stays fixed
    /// until the next call or [`rebuild`](Self::rebuild).
    pub fn fix_source(&mut self, u: VertexId) {
        self.fixed = Some(u);
    }

    /// The source named by the last [`fix_source`](Self::fix_source) since
    /// the last rebuild, if any.
    pub fn fixed_source(&self) -> Option<VertexId> {
        self.fixed
    }

    /// k-bounded boolean connectivity probe: `true` iff `κ(u, v) >= k`
    /// (`u ≡ₖ v`). Identical and adjacent pairs certify any `k` without a
    /// flow (Lemma 5).
    ///
    /// This is the cheapest probe the arena offers: the flow stops at the
    /// k-th augmenting path and, unlike
    /// [`local_connectivity_nonadjacent`](Self::local_connectivity_nonadjacent),
    /// no cut is read on the negative side. Verification workloads
    /// (`is_k_vertex_connected` over every reported component) only need the
    /// boolean, which is why they run here.
    pub fn has_connectivity_at_least(&mut self, u: VertexId, v: VertexId, k: u32) -> bool {
        self.max_flow_value(u, v, k) >= k
    }

    /// Flow node representing the "entry" side of vertex `v`.
    #[inline]
    pub fn node_in(v: VertexId) -> NodeId {
        2 * v
    }

    /// Flow node representing the "exit" side of vertex `v`.
    #[inline]
    pub fn node_out(v: VertexId) -> NodeId {
        2 * v + 1
    }

    /// Number of vertices of the underlying undirected graph.
    pub fn num_vertices(&self) -> usize {
        self.rows.offsets.len().saturating_sub(1)
    }

    /// Approximate heap usage in bytes.
    pub fn memory_bytes(&self) -> usize {
        fn bytes<T>(buffer: &Vec<T>) -> usize {
            buffer.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.rows.offsets)
            + bytes(&self.rows.targets)
            + bytes(&self.units)
            + bytes(&self.touched)
            + bytes(&self.dist)
            + bytes(&self.cursor)
            + bytes(&self.queue)
            + bytes(&self.path)
            + bytes(&self.depth)
    }

    /// Max-flow value from `u` to `v`, early-terminated at `limit`: the
    /// local connectivity `κ(u, v)` capped at `limit`. Identical and
    /// adjacent pairs, which no vertex set separates (Lemma 5), answer
    /// `limit` without a flow.
    pub fn max_flow_value(&mut self, u: VertexId, v: VertexId, limit: u32) -> u32 {
        if self.inseparable(u, v) {
            return limit;
        }
        let flow = self
            .route(u, v, limit, &Budget::unlimited())
            .expect("an unlimited budget never interrupts");
        self.undo();
        flow
    }

    /// `LOC-CUT(u, v)` from Algorithm 2: tests whether `κ(u, v) >= k` in the
    /// arena's graph.
    ///
    /// * Returns [`LocalConnectivity::AtLeast`]`(k)` when `u == v`, when the
    ///   two vertices are adjacent in the arena's rows (Lemma 5), or when `k`
    ///   units of flow can be routed.
    /// * Otherwise returns the minimum `u`-`v` vertex cut (size `< k`).
    ///
    /// Callers such as `GLOBAL-CUT`, whose arena holds a sparse certificate
    /// of their current subgraph, test adjacency on that subgraph first.
    pub fn local_connectivity_nonadjacent(
        &mut self,
        u: VertexId,
        v: VertexId,
        k: u32,
    ) -> LocalConnectivity {
        self.local_connectivity_budgeted(u, v, k, &Budget::unlimited())
            .expect("an unlimited budget never interrupts")
    }

    /// [`local_connectivity_nonadjacent`](Self::local_connectivity_nonadjacent)
    /// under a cooperative [`Budget`], polled once per Dinic phase, or once
    /// per augmenting-path search when `u` is the
    /// [fixed source](Self::fix_source).
    ///
    /// On [`Interrupted`] the arena is reset before returning, so the very
    /// next probe on this `VertexFlowGraph` — budgeted or not — starts from
    /// a clean residual state; cancellation can never poison the scratch.
    pub fn local_connectivity_budgeted(
        &mut self,
        u: VertexId,
        v: VertexId,
        k: u32,
        budget: &Budget,
    ) -> Result<LocalConnectivity, Interrupted> {
        if self.inseparable(u, v) {
            return Ok(LocalConnectivity::AtLeast(k));
        }
        let answer = self.route(u, v, k, budget).map(|flow| {
            if flow >= k {
                return LocalConnectivity::AtLeast(k);
            }
            let cut = self.source_side_cut(Self::node_out(u));
            debug_assert_eq!(
                cut.len() as u32,
                flow,
                "cut size must equal the max-flow value"
            );
            LocalConnectivity::Cut(cut)
        });
        self.undo();
        answer
    }

    /// Whether no vertex set can separate `u` from `v`: the same vertex, or
    /// adjacent in the arena's rows (Lemma 5).
    fn inseparable(&self, u: VertexId, v: VertexId) -> bool {
        u == v || self.rows.of(u).binary_search(&v).is_ok()
    }

    /// Routes up to `limit` units from `u` to `v` (distinct, non-adjacent)
    /// and returns the flow: from the fixed source by the label-guided
    /// search, from any other source by sink-bounded Dinic phases. The flow
    /// stays in place for [`source_side_cut`](Self::source_side_cut); the
    /// caller [`undo`](Self::undo)es it, also on [`Interrupted`].
    fn route(
        &mut self,
        u: VertexId,
        v: VertexId,
        limit: u32,
        budget: &Budget,
    ) -> Result<u32, Interrupted> {
        let (source, sink) = (Self::node_out(u), Self::node_in(v));
        let mut flow = 0;
        if self.fixed == Some(u) {
            if self.labelled != Some(u) {
                self.label_from(u);
            }
            // The searches of one round share their marks and cursors; a
            // failed search ends the round, and one that fails from cleared
            // marks proves the flow maximum.
            self.clear_labels();
            let mut cleared = true;
            while flow < limit {
                budget.check()?;
                if self.search_from_sink(source, sink) {
                    self.push_unit(source, sink);
                    flow += 1;
                    cleared = false;
                } else if cleared {
                    break;
                } else {
                    self.clear_labels();
                    cleared = true;
                }
            }
            return Ok(flow);
        }
        // Once `flow == limit` the outer condition fails immediately, so a
        // probe that meets its bound never pays a final no-progress phase.
        while flow < limit {
            budget.check()?;
            if !self.label_towards_sink(source, sink) {
                break;
            }
            while flow < limit && self.augment(source, sink) {
                self.push_unit(source, sink);
                flow += 1;
            }
        }
        Ok(flow)
    }

    /// The fixed source's labels: a BFS from `u` over the rows that gives
    /// each vertex its distance from `u`, leaving the vertices it does not
    /// reach [`UNLABELLED`].
    fn label_from(&mut self, u: VertexId) {
        // The BFS borrows the search queue, emptied before and after.
        self.clear_labels();
        let n = self.num_vertices();
        let Self {
            rows, depth, queue, ..
        } = self;
        depth[..n].fill(UNLABELLED);
        depth[u as usize] = 0;
        queue.push(u);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            let next = depth[v as usize] + 1;
            for &y in rows.of(v) {
                if depth[y as usize] == UNLABELLED {
                    depth[y as usize] = next;
                    queue.push(y);
                }
            }
        }
        queue.clear();
        self.labelled = Some(u);
    }

    /// Finds one augmenting path for a probe from the fixed source: a DFS
    /// from `sink` over residual predecessor arcs that enters only labelled
    /// nodes and tries lower-labelled predecessors first (see the
    /// [module docs](self#fixed-source-probes)). On success `path` holds the
    /// path's nodes from `source` to `sink`.
    ///
    /// The marks in `dist` and the in-nodes' cursors carry over from the
    /// round's earlier searches: a node found dead stays dead, and a node on
    /// an earlier path resumes its scan where that path left it. So a search
    /// may miss a path that exists, but one that starts from cleared marks
    /// is exhaustive.
    fn search_from_sink(&mut self, source: NodeId, sink: NodeId) -> bool {
        let Self {
            rows,
            units,
            dist,
            cursor,
            queue,
            path,
            depth,
            ..
        } = self;
        // A node entered for the first time this round starts its scan.
        let enter =
            |node: NodeId, dist: &mut [u32], cursor: &mut [u32], queue: &mut Vec<NodeId>| {
                if dist[node as usize] == UNLABELLED {
                    cursor[node as usize] = 0;
                    queue.push(node);
                }
                dist[node as usize] = ON_PATH;
            };
        enter(sink, dist, cursor, queue);
        path.clear();
        path.push(sink);
        while let Some(&node) = path.last() {
            if node == source {
                for &on_path in path.iter() {
                    dist[on_path as usize] = PASSED;
                }
                path.reverse();
                return true;
            }
            let v = node / 2;
            let open = |pred: NodeId| {
                matches!(dist[pred as usize], UNLABELLED | PASSED)
                    && depth[pred as usize / 2] != UNLABELLED
            };
            let next = if node & 1 == 1 {
                // v_out: its one predecessor.
                Some(units[v as usize].predecessor_of_out(node)).filter(|&pred| open(pred))
            } else if depth[v as usize] == 1 {
                // v is the source's neighbour, and the arc u_out → v_in is
                // uncapacitated.
                Some(source)
            } else {
                // v_in: the neighbours nearer the source (cursor below the
                // row's length), then the others (one pass more), then v_out
                // if v is busy.
                let row = rows.of(v);
                let len = row.len() as u32;
                let own = depth[v as usize];
                let c = &mut cursor[node as usize];
                let mut next = None;
                while *c < 2 * len {
                    let (x, nearer) = if *c < len {
                        (row[*c as usize], true)
                    } else {
                        (row[(*c - len) as usize], false)
                    };
                    *c += 1;
                    let pred = Self::node_out(x);
                    if (depth[x as usize] < own) == nearer && open(pred) {
                        next = Some(pred);
                        break;
                    }
                }
                if next.is_none() && *c == 2 * len {
                    *c += 1;
                    if units[v as usize].busy() && open(node + 1) {
                        next = Some(node + 1);
                    }
                }
                next
            };
            match next {
                Some(pred) => {
                    enter(pred, dist, cursor, queue);
                    path.push(pred);
                }
                None => {
                    dist[node as usize] = DEAD;
                    path.pop();
                }
            }
        }
        false
    }

    /// Resets the labels of the last search.
    fn clear_labels(&mut self) {
        for &node in &self.queue {
            self.dist[node as usize] = UNLABELLED;
        }
        self.queue.clear();
    }

    /// One phase's labels: a reverse residual BFS from `sink` that gives
    /// each node its distance to the sink and stops as soon as it labels
    /// `source`. Every node of the phase's level graph is then labelled,
    /// since BFS labels all of a level before it expands any node of it.
    /// Returns whether the source was reached.
    fn label_towards_sink(&mut self, source: NodeId, sink: NodeId) -> bool {
        self.clear_labels();
        let Self {
            rows,
            units,
            dist,
            cursor,
            queue,
            ..
        } = self;
        dist[sink as usize] = 0;
        queue.push(sink);
        let mut reached = false;
        let mut head = 0;
        'bfs: while head < queue.len() {
            let node = queue[head];
            head += 1;
            let next = dist[node as usize] + 1;
            let v = node / 2;
            let unit = units[v as usize];
            if node & 1 == 0 {
                // v_in: every neighbour's out-node, and v_out if v is busy.
                for &x in rows.of(v) {
                    let pred = Self::node_out(x);
                    if dist[pred as usize] == UNLABELLED {
                        dist[pred as usize] = next;
                        queue.push(pred);
                        if pred == source {
                            reached = true;
                            break 'bfs;
                        }
                    }
                }
                if unit.busy() && dist[node as usize + 1] == UNLABELLED {
                    dist[node as usize + 1] = next;
                    queue.push(node + 1);
                }
            } else {
                // The source, the only out-node with several units, ends
                // the search when labelled, so it is never expanded here.
                let pred = unit.predecessor_of_out(node);
                if dist[pred as usize] == UNLABELLED {
                    dist[pred as usize] = next;
                    queue.push(pred);
                }
            }
        }
        for &node in queue.iter() {
            cursor[node as usize] = 0;
        }
        reached
    }

    /// Finds one augmenting path in the phase's level graph — a DFS from
    /// `source` that steps only to a node one closer to the sink, with a
    /// current-arc cursor per node — and leaves it in `path`. Returns
    /// `false` when the phase has no path left.
    fn augment(&mut self, source: NodeId, sink: NodeId) -> bool {
        let Self {
            rows,
            units,
            dist,
            cursor,
            path,
            ..
        } = self;
        path.clear();
        path.push(source);
        while let Some(&node) = path.last() {
            if node == sink {
                break;
            }
            // Only the sink has distance 0, and every node on the path is
            // labelled.
            let want = dist[node as usize] - 1;
            let v = node / 2;
            let unit = units[v as usize];
            let c = &mut cursor[node as usize];
            let mut next = None;
            if node & 1 == 0 {
                // v_in: its one successor, untried while the cursor is 0.
                let succ = unit.successor_of_in(node);
                if *c == 0 && dist[succ as usize] == want {
                    next = Some(succ);
                }
            } else {
                // v_out: the neighbours' in-nodes, then v_in if v is busy.
                let row = rows.of(v);
                while (*c as usize) < row.len() {
                    let succ = Self::node_in(row[*c as usize]);
                    if dist[succ as usize] == want {
                        next = Some(succ);
                        break;
                    }
                    *c += 1;
                }
                if next.is_none()
                    && *c as usize == row.len()
                    && unit.busy()
                    && dist[node as usize - 1] == want
                {
                    next = Some(node - 1);
                }
            }
            match next {
                Some(succ) => path.push(succ),
                None => {
                    // A dead end: drop it from the phase, and move its
                    // parent's cursor past it.
                    dist[node as usize] = UNLABELLED;
                    path.pop();
                    if let Some(&parent) = path.last() {
                        cursor[parent as usize] += 1;
                    }
                }
            }
        }
        !path.is_empty()
    }

    /// Routes one unit along `path`, an augmenting path from `source` to
    /// `sink`. Only two kinds of step change a field: an adjacency arc
    /// x_out → y_in (y's unit now enters from x, x's leaves towards y) and a
    /// reversed vertex arc w_out → w_in (w's unit is cancelled). A reversed
    /// adjacency arc y_in → x_out needs no write: the step into y_in before
    /// it and the step out of x_out after it already set both fields.
    fn push_unit(&mut self, source: NodeId, sink: NodeId) {
        let Self {
            units,
            touched,
            path,
            ..
        } = self;
        for step in path.windows(2) {
            let (from, to) = (step[0], step[1]);
            if from & 1 == 0 {
                continue;
            }
            let (x, y) = (from / 2, to / 2);
            if x == y {
                units[x as usize] = Unit::IDLE;
                continue;
            }
            if from != source {
                units[x as usize].out_to = y;
            }
            if to != sink {
                if !units[y as usize].busy() {
                    touched.push(y);
                }
                units[y as usize].in_from = x;
            }
        }
    }

    /// The vertices whose in-node `source` reaches in the residual network
    /// and whose out-node it does not, ascending. After a maximum flow this
    /// is the minimum cut closest to the source, shared by every maximum
    /// flow (see the [module docs](self)).
    fn source_side_cut(&mut self, source: NodeId) -> Vec<VertexId> {
        self.clear_labels();
        let Self {
            rows,
            units,
            dist,
            queue,
            ..
        } = self;
        let mut reach = |node: NodeId, queue: &mut Vec<NodeId>| {
            if dist[node as usize] == UNLABELLED {
                dist[node as usize] = 0;
                queue.push(node);
            }
        };
        reach(source, queue);
        let mut head = 0;
        while head < queue.len() {
            let node = queue[head];
            head += 1;
            let v = node / 2;
            let unit = units[v as usize];
            if node & 1 == 0 {
                reach(unit.successor_of_in(node), queue);
            } else {
                for &y in rows.of(v) {
                    reach(Self::node_in(y), queue);
                }
                if unit.busy() {
                    reach(node - 1, queue);
                }
            }
        }
        let mut cut: Vec<VertexId> = queue
            .iter()
            .filter(|&&node| node & 1 == 0 && dist[node as usize + 1] == UNLABELLED)
            .map(|&node| node / 2)
            .collect();
        cut.sort_unstable();
        cut
    }

    /// Returns every vertex the probe touched to idle.
    fn undo(&mut self) {
        for &v in &self.touched {
            self.units[v as usize] = Unit::IDLE;
        }
        self.touched.clear();
    }
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

    /// Two 4-cliques {0..3} and {4..7} sharing the two "portal" vertices 8, 9.
    fn two_cliques_with_two_cut_vertices() -> UndirectedGraph {
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 3], [4u32, 5, 6, 7]] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((block[i], block[j]));
                }
                edges.push((block[i], 8));
                edges.push((block[i], 9));
            }
        }
        edges.push((8, 9));
        UndirectedGraph::from_edges(10, edges).unwrap()
    }

    #[test]
    fn path_graph_has_unit_connectivity() {
        let g = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut flow = VertexFlowGraph::build(&g);
        assert_eq!(flow.max_flow_value(0, 3, 10), 1);
        // Both {1} and {2} separate the ends; the probe returns the minimum
        // cut closest to the source, from either side.
        assert_eq!(
            flow.local_connectivity_nonadjacent(0, 3, 2),
            LocalConnectivity::Cut(vec![1])
        );
        assert_eq!(
            flow.local_connectivity_nonadjacent(3, 0, 2),
            LocalConnectivity::Cut(vec![2])
        );
    }

    #[test]
    fn clique_pairs_are_highly_connected() {
        let g = complete(6);
        let mut flow = VertexFlowGraph::build(&g);
        // All pairs are adjacent, so Lemma 5 applies to every entry point.
        assert!(flow.has_connectivity_at_least(0, 5, 5));
        assert_eq!(
            flow.local_connectivity_nonadjacent(0, 5, 9),
            LocalConnectivity::AtLeast(9)
        );
        assert_eq!(flow.max_flow_value(0, 5, 9), 9);
    }

    #[test]
    fn cycle_has_connectivity_two() {
        let g = UndirectedGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap();
        let mut flow = VertexFlowGraph::build(&g);
        assert_eq!(flow.max_flow_value(0, 3, 10), 2);
        assert!(flow.local_connectivity_nonadjacent(0, 3, 2).is_at_least_k());
        match flow.local_connectivity_nonadjacent(0, 3, 3) {
            LocalConnectivity::Cut(cut) => assert_eq!(cut.len(), 2),
            other => panic!("expected a 2-cut, got {other:?}"),
        }
    }

    #[test]
    fn portal_vertices_form_the_cut() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        match flow.local_connectivity_nonadjacent(0, 4, 3) {
            LocalConnectivity::Cut(mut cut) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![8, 9]);
            }
            other => panic!("expected the portal cut, got {other:?}"),
        }
        // With k = 2 the pair is 2-local-connected (through the two portals).
        assert!(flow.local_connectivity_nonadjacent(0, 4, 2).is_at_least_k());
    }

    #[test]
    fn a_second_unit_can_cancel_the_first_through_a_vertex() {
        // The only shortest 0-4 path is 0-1-2-3-4. Both vertex-disjoint
        // paths, 0-1-8-9-10-4 and 0-5-6-7-3-4, need vertex 2 freed: the
        // second unit enters 3, walks back over 3's and 2's units to 1,
        // and leaves towards 8 (reversed arcs 3_in → 2_out → 2_in → 1_out).
        let g = UndirectedGraph::from_edges(
            11,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 3),
                (1, 8),
                (8, 9),
                (9, 10),
                (10, 4),
            ],
        )
        .unwrap();
        let mut flow = VertexFlowGraph::build(&g);
        assert_eq!(flow.max_flow_value(0, 4, 10), 2);
        assert!(flow.has_connectivity_at_least(0, 4, 2));
        // The cut closest to the source is its two neighbours.
        assert_eq!(
            flow.local_connectivity_nonadjacent(0, 4, 3),
            LocalConnectivity::Cut(vec![1, 5])
        );
        assert_eq!(
            flow.local_connectivity_nonadjacent(4, 0, 3),
            LocalConnectivity::Cut(vec![3, 10])
        );
    }

    #[test]
    fn a_second_unit_can_cancel_the_first_through_a_vertex_under_a_fixed_source() {
        // The graph of the test above. From the fixed source 0 the first
        // unit descends the labels along 0-1-2-3-4. The second finds 3_out
        // blocked, leaves 4 through 10, and reaches 1_out, whose unit it
        // follows forward to 2_in and back over 2's vertex arc, 3_in and 7
        // to 5: 1's unit now leaves towards 8 and 2's is cancelled.
        let g = UndirectedGraph::from_edges(
            11,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 3),
                (1, 8),
                (8, 9),
                (9, 10),
                (10, 4),
            ],
        )
        .unwrap();
        let mut flow = VertexFlowGraph::build(&g);
        flow.fix_source(0);
        assert_eq!(flow.max_flow_value(0, 4, 10), 2);
        assert!(flow.has_connectivity_at_least(0, 4, 2));
        assert_eq!(
            flow.local_connectivity_nonadjacent(0, 4, 3),
            LocalConnectivity::Cut(vec![1, 5])
        );
        // A probe from another source runs the Dinic phases beside the
        // fixed source's labels, and fixing that source relabels.
        assert_eq!(
            flow.local_connectivity_nonadjacent(4, 0, 3),
            LocalConnectivity::Cut(vec![3, 10])
        );
        flow.fix_source(4);
        assert_eq!(
            flow.local_connectivity_nonadjacent(4, 0, 3),
            LocalConnectivity::Cut(vec![3, 10])
        );
        assert_eq!(flow.max_flow_value(4, 0, 10), 2);
        // An interrupted fixed-source probe leaves the arena reusable.
        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            flow.local_connectivity_budgeted(4, 0, 3, &expired),
            Err(Interrupted)
        );
        assert_eq!(flow.max_flow_value(4, 0, 10), 2);
    }

    #[test]
    fn rebuild_reuses_the_arena_across_graphs() {
        let path = UndirectedGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let cycle = UndirectedGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap();
        let mut flow = VertexFlowGraph::empty();
        for _ in 0..3 {
            flow.rebuild(&path);
            assert_eq!(flow.num_vertices(), 4);
            assert_eq!(flow.max_flow_value(0, 3, 10), 1);
            flow.rebuild(&cycle);
            assert_eq!(flow.num_vertices(), 6);
            assert_eq!(flow.max_flow_value(0, 3, 10), 2);
        }
        // A CSR graph works through the same generic interface.
        let csr = kvcc_graph::CsrGraph::from_view(&cycle);
        flow.rebuild(&csr);
        assert_eq!(flow.max_flow_value(0, 3, 10), 2);
        match flow.local_connectivity_nonadjacent(0, 3, 3) {
            LocalConnectivity::Cut(cut) => assert_eq!(cut.len(), 2),
            other => panic!("expected a 2-cut, got {other:?}"),
        }
    }

    #[test]
    fn rows_written_in_place_equal_a_rebuild() {
        // A scan-first union transposed into a used arena's own buffers
        // holds the rows a rebuild from the union as a graph copies, byte for
        // byte, and the fill releases the fixed source as a rebuild does.
        let cycle = UndirectedGraph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6))).unwrap();
        for g in [complete(7), two_cliques_with_two_cut_vertices(), cycle] {
            for k in 0..=4 {
                let forests = kvcc_graph::scan_first::scan_first_forests(&g, k);
                let mut arena = VertexFlowGraph::build(&complete(12));
                arena.fix_source(3);
                arena.rebuild_with(|offsets, targets| forests.write_union(offsets, targets));
                assert_eq!(arena.fixed_source(), None);
                let rebuilt = VertexFlowGraph::build(&forests.union());
                assert_eq!(arena.num_vertices(), g.num_vertices());
                assert_eq!(arena.rows.offsets, rebuilt.rows.offsets, "k {k}");
                assert_eq!(arena.rows.targets, rebuilt.rows.targets, "k {k}");
            }
        }
    }

    #[test]
    fn oversized_arena_routes_like_a_fresh_build() {
        // An arena grown past the graph it now holds routes every probe like
        // a freshly built one: two K6 blocks sharing three vertices plus a
        // pendant tail, every ordered pair, limits below, at and above the
        // block connectivity.
        let mut edges = Vec::new();
        for base in [0u32, 3] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.extend([(8, 9), (9, 10)]);
        let blocks = UndirectedGraph::from_edges(11, edges).unwrap();
        let mut flow = VertexFlowGraph::empty();
        flow.rebuild(&complete(44));
        flow.rebuild(&blocks);
        for s in blocks.vertices() {
            for t in blocks.vertices().filter(|&t| t != s) {
                for limit in [1u32, 3, 16] {
                    assert_eq!(
                        flow.max_flow_value(s, t, limit),
                        VertexFlowGraph::build(&blocks).max_flow_value(s, t, limit),
                        "probe {s}->{t} limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_probe_matches_the_cut_probe() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        // Across the portals: connectivity is exactly 2.
        assert!(flow.has_connectivity_at_least(0, 4, 2));
        assert!(!flow.has_connectivity_at_least(0, 4, 3));
        // Adjacent vertices certify any k without a flow (Lemma 5), up to
        // the largest bound a caller can pass.
        assert!(flow.has_connectivity_at_least(0, 1, 100));
        assert!(flow.has_connectivity_at_least(0, 1, u32::MAX));
        assert_eq!(flow.max_flow_value(0, 1, u32::MAX), u32::MAX);
        // A non-adjacent pair under the same bound runs to exhaustion.
        assert!(!flow.has_connectivity_at_least(0, 4, u32::MAX));
        assert_eq!(flow.max_flow_value(0, 4, u32::MAX), 2);
        // Same vertex is trivially connected.
        assert!(flow.has_connectivity_at_least(5, 5, 7));
        // The arena stays reusable after boolean probes.
        assert_eq!(flow.max_flow_value(0, 4, 100), 2);
        match flow.local_connectivity_nonadjacent(0, 4, 3) {
            LocalConnectivity::Cut(mut cut) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![8, 9]);
            }
            other => panic!("expected the portal cut, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_probe_leaves_the_arena_reusable() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            flow.local_connectivity_budgeted(0, 4, 3, &expired),
            Err(Interrupted)
        );
        // The interrupted probe reset the residual state: the same arena
        // answers the identical query correctly right after.
        match flow.local_connectivity_budgeted(0, 4, 3, &Budget::unlimited()) {
            Ok(LocalConnectivity::Cut(mut cut)) => {
                cut.sort_unstable();
                assert_eq!(cut, vec![8, 9]);
            }
            other => panic!("expected the portal cut, got {other:?}"),
        }
        assert!(flow
            .local_connectivity_budgeted(0, 4, 2, &Budget::unlimited())
            .unwrap()
            .is_at_least_k());
    }

    #[test]
    fn repeated_queries_are_consistent() {
        let g = two_cliques_with_two_cut_vertices();
        let mut flow = VertexFlowGraph::build(&g);
        for _ in 0..5 {
            assert_eq!(flow.max_flow_value(0, 4, 100), 2);
        }
        assert!(flow.memory_bytes() > 0);
        assert_eq!(flow.num_vertices(), 10);
    }
}
