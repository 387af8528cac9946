//! The `SWEEP` procedure (Algorithm 4): neighbor sweep and group sweep.
//!
//! Given a source vertex `u`, a vertex `v` is *swept* when the algorithm has
//! established `u ≡ₖ v` without (or after) running a flow computation, so the
//! phase-1 loop of `GLOBAL-CUT*` can skip it. Sweeping one vertex can cascade:
//!
//! * every neighbour `w` of a swept vertex gains one unit of *vertex deposit*;
//!   `k` deposits certify `u ≡ₖ w` (Lemma 17, neighbor-sweep rule 2);
//! * if the swept vertex is a strong side-vertex, all of its neighbours are
//!   swept outright (Lemma 11, neighbor-sweep rule 1);
//! * the side-group containing the swept vertex gains one unit of *group
//!   deposit*; `k` deposits — or a swept strong side-vertex member — sweep the
//!   whole group (Lemma 19 / group-sweep rules 1–2).
//!
//! The cascade is processed with an explicit work list, so arbitrarily large
//! sweeps cannot overflow the call stack.
//!
//! # State layout
//!
//! [`SweepState`] keeps one `Option<SweepCause>` per vertex, `None` until the
//! vertex is swept, so one byte read answers both "swept?" and "by which
//! rule?", and one count per cause, bumped as a vertex is marked. The counts
//! give the swept total, and let `GLOBAL-CUT*` attribute every pruned vertex
//! to its rule without a pass over the vertices when the source's sweep
//! alone sweeps them all.
//!
//! # The stop
//!
//! A cascade stops as soon as every vertex is swept, with the rest of its
//! work list dropped. Past that point nothing can be marked, and deposits
//! are read only to decide a mark, so every cause and every per-cause count
//! equals the full cascade's; the deposits themselves are no longer kept up
//! after the stop. At `k = 1` this is most of the work. There every vertex
//! within the degree cap is strong, and the k-th forest is a spanning tree,
//! so the source's side-group is its whole component: while the source
//! itself is processed, rule 1 takes its neighbours (with neighbour sweeps
//! on) and its group takes the rest (with group sweeps on). The full
//! cascade would then process `n − 1` more entries for nothing.

use kvcc_flow::Budget;
use kvcc_graph::{BitSet, GraphView, VertexId};

use crate::certificate::NO_GROUP;

/// Why a vertex was marked as swept. Used to attribute skipped vertices to the
/// pruning rules of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepCause {
    /// The vertex is the source itself or passed an explicit `LOC-CUT` test.
    SourceOrTested,
    /// Neighbor-sweep rule 1: neighbour of a swept strong side-vertex.
    NeighborRule1,
    /// Neighbor-sweep rule 2: vertex deposit reached `k`.
    NeighborRule2,
    /// Group sweep: the vertex's side-group was swept wholesale.
    GroupSweep,
}

/// Static, per-`GLOBAL-CUT*` inputs consumed by the sweep cascade, generic
/// over the graph representation.
pub struct SweepContext<'a, G: GraphView> {
    /// The current subgraph being cut.
    pub graph: &'a G,
    /// The connectivity parameter `k`.
    pub k: u32,
    /// Strong side-vertex flags (empty slice ⇒ treat every vertex as not
    /// strong, e.g. for the `VCCE-G` variant where they are still computed, or
    /// `VCCE` where they are not).
    pub strong_side: &'a [bool],
    /// `group_of[v]`: index of the side-group containing `v`, or [`NO_GROUP`].
    pub group_of: &'a [u32],
    /// The side-groups themselves.
    pub side_groups: &'a [Vec<VertexId>],
    /// Whether the neighbor-sweep rules are enabled (variant `VCCE-N`/`VCCE*`).
    pub neighbor_sweep: bool,
    /// Whether the group-sweep rules are enabled (variant `VCCE-G`/`VCCE*`).
    pub group_sweep: bool,
    /// Cancellation token polled inside long sweep cascades (every
    /// [`SWEEP_POLL_INTERVAL`] worklist pops). An expired budget makes the
    /// cascade bail out early; pending worklist entries stay queued and are
    /// either drained by a later sweep call or dropped with the whole state
    /// when the enclosing `GLOBAL-CUT*` aborts. Bailing early only *under-*
    /// prunes, so correctness is unaffected even if the run were to
    /// continue.
    pub budget: &'a Budget,
}

/// How many cascade steps a sweep processes between two budget polls.
pub const SWEEP_POLL_INTERVAL: u32 = 256;

impl<'a, G: GraphView> SweepContext<'a, G> {
    fn is_strong(&self, v: VertexId) -> bool {
        self.strong_side.get(v as usize).copied().unwrap_or(false)
    }

    fn group(&self, v: VertexId) -> u32 {
        self.group_of.get(v as usize).copied().unwrap_or(NO_GROUP)
    }
}

/// Mutable sweep state for one `GLOBAL-CUT*` invocation (layout in the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct SweepState {
    /// `cause[v]`: why `v` was swept, `None` while it is not.
    cause: Vec<Option<SweepCause>>,
    /// Swept vertices per cause, indexed by `SweepCause as usize`.
    swept: [usize; 4],
    deposit: Vec<u32>,
    group_deposit: Vec<u32>,
    group_processed: BitSet,
    worklist: Vec<VertexId>,
}

impl SweepState {
    /// Creates a fresh state for a graph with `num_vertices` vertices and
    /// `num_groups` side-groups.
    pub fn new(num_vertices: usize, num_groups: usize) -> Self {
        SweepState {
            cause: vec![None; num_vertices],
            swept: [0; 4],
            deposit: vec![0; num_vertices],
            group_deposit: vec![0; num_groups],
            group_processed: BitSet::new(num_groups),
            worklist: Vec::new(),
        }
    }

    /// Whether `v` has been swept (and can therefore be skipped by phase 1).
    #[inline]
    pub fn is_pruned(&self, v: VertexId) -> bool {
        self.cause[v as usize].is_some()
    }

    /// The cause recorded when `v` was swept, or `None` if it is not swept.
    #[inline]
    pub fn cause(&self, v: VertexId) -> Option<SweepCause> {
        self.cause[v as usize]
    }

    /// Current vertex deposit of `v` (Definition 11), not kept up once every
    /// vertex is swept; exposed for tests.
    #[inline]
    pub fn deposit(&self, v: VertexId) -> u32 {
        self.deposit[v as usize]
    }

    /// Current group deposit of side-group `g` (Definition 13), not kept up
    /// once every vertex is swept; exposed for tests.
    #[inline]
    pub fn group_deposit(&self, g: usize) -> u32 {
        self.group_deposit[g]
    }

    /// Number of swept vertices, including the source and tested vertices.
    pub fn swept_count(&self) -> usize {
        self.swept.iter().sum()
    }

    /// Number of vertices swept with `cause`.
    pub(crate) fn swept_by(&self, cause: SweepCause) -> usize {
        self.swept[cause as usize]
    }

    /// Runs the `SWEEP` cascade (Algorithm 4) starting from `v`, which is
    /// known to satisfy `u ≡ₖ v` for the current source `u` (because it is the
    /// source itself, passed a `LOC-CUT` test, or was derived by a rule).
    ///
    /// Does nothing if `v` is already swept, and stops as soon as every
    /// vertex is swept (see the [module docs](self#the-stop)).
    pub fn sweep<G: GraphView>(
        &mut self,
        ctx: &SweepContext<'_, G>,
        v: VertexId,
        cause: SweepCause,
    ) {
        if self.is_pruned(v) {
            return;
        }
        self.mark(v, cause);
        let n = self.cause.len();
        let mut steps = 0u32;
        while self.swept_count() < n {
            let Some(x) = self.worklist.pop() else {
                return;
            };
            self.process(ctx, x);
            steps += 1;
            if steps.is_multiple_of(SWEEP_POLL_INTERVAL) && ctx.budget.expired() {
                // Bail out of a long cascade; see `SweepContext::budget`.
                return;
            }
        }
        self.worklist.clear();
    }

    fn mark(&mut self, v: VertexId, cause: SweepCause) {
        self.cause[v as usize] = Some(cause);
        self.swept[cause as usize] += 1;
        self.worklist.push(v);
    }

    /// Applies the deposit updates and cascading rules triggered by the sweep
    /// of `v` (lines 2–11 of Algorithm 4).
    fn process<G: GraphView>(&mut self, ctx: &SweepContext<'_, G>, v: VertexId) {
        let v_is_strong = ctx.is_strong(v);

        // Neighbor sweep (lines 2-5): deposits always accumulate; the
        // cascading sweep itself only fires when the rule set is enabled.
        for &w in ctx.graph.neighbors(v) {
            if self.is_pruned(w) {
                continue;
            }
            self.deposit[w as usize] += 1;
            if ctx.neighbor_sweep {
                if v_is_strong {
                    self.mark(w, SweepCause::NeighborRule1);
                } else if self.deposit[w as usize] >= ctx.k {
                    self.mark(w, SweepCause::NeighborRule2);
                }
            }
        }

        // Group sweep (lines 6-11).
        if !ctx.group_sweep {
            return;
        }
        let group = ctx.group(v);
        if group == NO_GROUP {
            return;
        }
        let group = group as usize;
        if self.group_processed.contains(group) {
            return;
        }
        self.group_deposit[group] += 1;
        if v_is_strong || self.group_deposit[group] >= ctx.k {
            self.group_processed.insert(group);
            for &w in &ctx.side_groups[group] {
                if !self.is_pruned(w) {
                    self.mark(w, SweepCause::GroupSweep);
                }
            }
        }
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

    fn ctx<'a>(
        graph: &'a UndirectedGraph,
        k: u32,
        strong: &'a [bool],
        group_of: &'a [u32],
        groups: &'a [Vec<VertexId>],
        neighbor: bool,
        group: bool,
    ) -> SweepContext<'a, UndirectedGraph> {
        static UNLIMITED: std::sync::OnceLock<Budget> = std::sync::OnceLock::new();
        SweepContext {
            graph,
            k,
            strong_side: strong,
            group_of,
            side_groups: groups,
            neighbor_sweep: neighbor,
            group_sweep: group,
            budget: UNLIMITED.get_or_init(Budget::unlimited),
        }
    }

    #[test]
    fn deposits_accumulate_without_neighbor_sweep() {
        let g = complete(4);
        let strong = vec![false; 4];
        let group_of = vec![NO_GROUP; 4];
        let c = ctx(&g, 3, &strong, &group_of, &[], false, false);
        let mut state = SweepState::new(4, 0);
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        // Only vertex 0 is swept; its neighbours gained one deposit each.
        assert!(state.is_pruned(0));
        assert!(!state.is_pruned(1));
        assert_eq!(state.deposit(1), 1);
        assert_eq!(state.swept_count(), 1);
    }

    #[test]
    fn deposit_rule_cascades_once_threshold_reached() {
        // Star-of-cliques shape: vertex 4 is adjacent to 0,1,2; k = 3.
        let g = UndirectedGraph::from_edges(
            5,
            vec![(0, 1), (1, 2), (0, 2), (0, 4), (1, 4), (2, 4), (3, 4)],
        )
        .unwrap();
        let strong = vec![false; 5];
        let group_of = vec![NO_GROUP; 5];
        let c = ctx(&g, 3, &strong, &group_of, &[], true, false);
        let mut state = SweepState::new(5, 0);
        // Sweep 0, 1, 2 as "tested": vertex 4 accumulates 3 deposits and is
        // swept by rule 2; vertex 3 only ever sees deposits from 4.
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        state.sweep(&c, 1, SweepCause::SourceOrTested);
        assert!(!state.is_pruned(4));
        state.sweep(&c, 2, SweepCause::SourceOrTested);
        assert!(state.is_pruned(4));
        assert_eq!(state.cause(4), Some(SweepCause::NeighborRule2));
        assert!(!state.is_pruned(3));
        assert_eq!(state.deposit(3), 1);
    }

    #[test]
    fn strong_side_vertex_sweeps_all_neighbors() {
        let g = complete(5);
        let mut strong = vec![false; 5];
        strong[0] = true;
        let group_of = vec![NO_GROUP; 5];
        let c = ctx(&g, 4, &strong, &group_of, &[], true, false);
        let mut state = SweepState::new(5, 0);
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        for v in 1..5u32 {
            assert!(state.is_pruned(v));
            assert_eq!(state.cause(v), Some(SweepCause::NeighborRule1));
        }
        assert_eq!(state.swept_by(SweepCause::SourceOrTested), 1);
        assert_eq!(state.swept_by(SweepCause::NeighborRule1), 4);
        assert_eq!(state.swept_count(), 5);
    }

    #[test]
    fn group_deposit_sweeps_whole_group() {
        // Path 0-1-2-3-4 with a side-group {0,1,2,3,4} and k = 3. Sweeping
        // three members triggers group-sweep rule 2 for the rest.
        let g = UndirectedGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let strong = vec![false; 5];
        let group_of = vec![0; 5];
        let groups = vec![vec![0, 1, 2, 3, 4]];
        let c = ctx(&g, 3, &strong, &group_of, &groups, false, true);
        let mut state = SweepState::new(5, 1);
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        state.sweep(&c, 2, SweepCause::SourceOrTested);
        assert_eq!(state.group_deposit(0), 2);
        assert!(!state.is_pruned(4));
        state.sweep(&c, 4, SweepCause::SourceOrTested);
        assert!(state.is_pruned(1));
        assert!(state.is_pruned(3));
        assert_eq!(state.cause(1), Some(SweepCause::GroupSweep));
        assert_eq!(state.cause(3), Some(SweepCause::GroupSweep));
        assert_eq!(state.cause(4), Some(SweepCause::SourceOrTested));
        assert_eq!(state.swept_by(SweepCause::GroupSweep), 2);
        assert_eq!(state.swept_by(SweepCause::NeighborRule2), 0);
    }

    #[test]
    fn group_rule1_fires_on_strong_side_member() {
        let g = complete(6);
        let mut strong = vec![false; 6];
        strong[2] = true;
        let group_of = vec![0; 6];
        let groups = vec![vec![0, 1, 2, 3, 4, 5]];
        // Neighbor sweep disabled: only the group rule may cascade.
        let c = ctx(&g, 5, &strong, &group_of, &groups, false, true);
        let mut state = SweepState::new(6, 1);
        state.sweep(&c, 2, SweepCause::SourceOrTested);
        for v in 0..6u32 {
            assert!(
                state.is_pruned(v),
                "vertex {v} should be swept via the group"
            );
        }
    }

    #[test]
    fn sweeping_twice_is_idempotent() {
        let g = complete(3);
        let strong = vec![false; 3];
        let group_of = vec![NO_GROUP; 3];
        let c = ctx(&g, 2, &strong, &group_of, &[], true, false);
        let mut state = SweepState::new(3, 0);
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        let deposits_before: Vec<u32> = (0..3).map(|v| state.deposit(v)).collect();
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        let deposits_after: Vec<u32> = (0..3).map(|v| state.deposit(v)).collect();
        assert_eq!(deposits_before, deposits_after);
    }

    /// Sweeps `sources` in turn twice: with `sweep`, and with the full
    /// cascade, which runs each work list dry. Every vertex must end swept,
    /// and the causes and per-cause counts must agree.
    fn assert_stop_matches_the_full_cascade(
        c: &SweepContext<'_, UndirectedGraph>,
        groups: usize,
        sources: &[VertexId],
    ) {
        let n = c.graph.num_vertices();
        let mut stopped = SweepState::new(n, groups);
        let mut full = SweepState::new(n, groups);
        for &v in sources {
            stopped.sweep(c, v, SweepCause::SourceOrTested);
            if !full.is_pruned(v) {
                full.mark(v, SweepCause::SourceOrTested);
                while let Some(x) = full.worklist.pop() {
                    full.process(c, x);
                }
            }
        }
        assert_eq!(stopped.swept_count(), n, "sources {sources:?}");
        assert!(stopped.worklist.is_empty(), "sources {sources:?}");
        assert_eq!(stopped.cause, full.cause, "sources {sources:?}");
        assert_eq!(stopped.swept, full.swept, "sources {sources:?}");
    }

    #[test]
    fn a_cascade_stops_once_every_vertex_is_swept() {
        // A path at k = 1: each vertex swept sweeps the next by rule 2, so
        // the count passes through every value up to n.
        let path = UndirectedGraph::from_edges(6, (0..5).map(|i| (i, i + 1))).unwrap();
        let (not_strong, no_group) = (vec![false; 6], vec![NO_GROUP; 6]);
        for source in [0, 3, 5] {
            let c = ctx(&path, 1, &not_strong, &no_group, &[], true, false);
            assert_stop_matches_the_full_cascade(&c, 0, &[source]);
        }
        // K6 with one strong member and one side-group: the source sweeps
        // everything while it is processed itself, by rule 1 with neighbour
        // sweeps on and through its group with group sweeps on.
        let k6 = complete(6);
        let mut strong = vec![false; 6];
        strong[2] = true;
        let (one_group, groups) = (vec![0; 6], vec![vec![0, 1, 2, 3, 4, 5]]);
        for (neighbor, group) in [(true, false), (false, true), (true, true)] {
            let c = ctx(&k6, 5, &strong, &one_group, &groups, neighbor, group);
            assert_stop_matches_the_full_cascade(&c, 1, &[2]);
        }
        // Example 10's shape (see below): the third tested vertex completes
        // the sweep through a deposit and a group deposit at once.
        let mut edges = Vec::new();
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                edges.push((i, j));
            }
        }
        edges.extend([(1, 4), (2, 4), (3, 4)]);
        let g = UndirectedGraph::from_edges(5, edges).unwrap();
        let (not_strong, group_of) = (vec![false; 5], vec![0, 0, 0, 0, NO_GROUP]);
        let groups = vec![vec![0, 1, 2, 3]];
        let c = ctx(&g, 3, &not_strong, &group_of, &groups, true, true);
        assert_stop_matches_the_full_cascade(&c, 1, &[0, 1, 2]);
    }

    #[test]
    fn combined_rules_interact() {
        // Group sweep of a side-group should in turn deposit into neighbours
        // outside the group (Example 10 of the paper).
        let mut edges = Vec::new();
        // Group: clique {0,1,2,3}; outside vertex 4 adjacent to 1,2,3.
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                edges.push((i, j));
            }
        }
        edges.extend([(1, 4), (2, 4), (3, 4)]);
        let g = UndirectedGraph::from_edges(5, edges).unwrap();
        let strong = vec![false; 5];
        let group_of = vec![0, 0, 0, 0, NO_GROUP];
        let groups = vec![vec![0, 1, 2, 3]];
        let c = ctx(&g, 3, &strong, &group_of, &groups, true, true);
        let mut state = SweepState::new(5, 1);
        state.sweep(&c, 0, SweepCause::SourceOrTested);
        state.sweep(&c, 1, SweepCause::SourceOrTested);
        state.sweep(&c, 2, SweepCause::SourceOrTested);
        // Vertex 3 is swept either by its deposit reaching k or by the group
        // deposit reaching k (both thresholds trip on the third sweep); its
        // own sweep then deposits into vertex 4, which reaches k as well.
        assert!(state.is_pruned(3));
        assert!(matches!(
            state.cause(3),
            Some(SweepCause::NeighborRule2 | SweepCause::GroupSweep)
        ));
        assert!(state.is_pruned(4));
        assert_eq!(state.cause(4), Some(SweepCause::NeighborRule2));
    }
}
