//! Dinic's max-flow algorithm with early termination, on an explicit
//! [`FlowNetwork`].
//!
//! Connectivity tests never need a flow value beyond `k`: once `k` units
//! have been routed the answer is known and the computation stops. This
//! general-capacity version serves the edge cuts of
//! `kvcc_baselines::kecc`; the k-VCC `LOC-CUT` probes run a unit-capacity
//! variant on the implicit vertex-split arena instead
//! ([`crate::VertexFlowGraph`]).

use kvcc_graph::bitset::EpochBitSet;

use crate::budget::{Budget, Interrupted};
use crate::network::{FlowNetwork, NodeId};

/// Level assigned to nodes that the residual BFS did not reach.
const UNREACHED: u32 = u32::MAX;

/// Reusable scratch space for repeated max-flow computations on the same
/// network, avoiding per-query allocations (an edge-cut search probes one
/// source against every other vertex).
///
/// Level validity is tracked with an epoch-stamped bitset
/// ([`EpochBitSet`]) instead of re-clearing the whole `level` array before
/// every BFS phase: starting a phase is a single counter increment, and only
/// the words the BFS actually touches are ever written, so a k-bounded flow
/// that touches a small residual neighbourhood of the source pays no
/// `O(n)`-per-phase clearing cost. The buffers themselves only ever grow
/// (the internal `ensure` never shrinks), so one scratch reused across
/// differently sized networks allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub struct DinicScratch {
    /// BFS level per node; only meaningful where `reached` contains the node.
    level: Vec<u32>,
    /// Epoch-stamped membership of `level`: cleared per phase with one
    /// counter bump ([`DinicScratch::begin_phase`]).
    reached: EpochBitSet,
    /// Current-arc DFS cursors (reset per phase for reached nodes only).
    iter: Vec<usize>,
    queue: Vec<NodeId>,
    path: Vec<u32>,
}

impl DinicScratch {
    /// Creates scratch space pre-sized for `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        let mut scratch = DinicScratch::default();
        scratch.ensure(num_nodes);
        scratch
    }

    /// Grows every buffer to cover `num_nodes` nodes. Buffers never shrink,
    /// so a caller that sizes the scratch once pays no per-query
    /// reallocation.
    fn ensure(&mut self, num_nodes: usize) {
        if self.level.len() < num_nodes {
            self.level.resize(num_nodes, UNREACHED);
            self.iter.resize(num_nodes, 0);
            self.queue
                .reserve(num_nodes.saturating_sub(self.queue.capacity()));
        }
        self.reached.ensure(num_nodes);
    }

    /// Starts a new BFS phase by clearing the reached set (an epoch bump;
    /// all previously assigned levels become invalid without touching them).
    fn begin_phase(&mut self) {
        self.reached.clear_all();
    }

    /// The level of `v` in the current phase ([`UNREACHED`] if the BFS did
    /// not reach it or a DFS retreat invalidated it).
    #[inline]
    fn level_of(&self, v: NodeId) -> u32 {
        if self.reached.contains(v as usize) {
            self.level[v as usize]
        } else {
            UNREACHED
        }
    }

    /// Assigns `v` its level for the current phase.
    #[inline]
    fn set_level(&mut self, v: NodeId, level: u32) {
        self.reached.insert(v as usize);
        self.level[v as usize] = level;
    }
}

/// Computes a maximum flow from `source` to `sink`, stopping early once
/// `limit` units have been routed. Returns the amount of flow found
/// (`<= limit`).
///
/// The network is left in its residual state so that the caller can extract a
/// minimum cut (see [`crate::mincut`]); call [`FlowNetwork::reset`] before the
/// next query.
pub fn max_flow(net: &mut FlowNetwork, source: NodeId, sink: NodeId, limit: u32) -> u32 {
    let mut scratch = DinicScratch::new(net.num_nodes());
    max_flow_with_scratch(net, source, sink, limit, &mut scratch)
}

/// [`max_flow`] variant that reuses caller-provided scratch buffers.
pub fn max_flow_with_scratch(
    net: &mut FlowNetwork,
    source: NodeId,
    sink: NodeId,
    limit: u32,
    scratch: &mut DinicScratch,
) -> u32 {
    max_flow_budgeted(net, source, sink, limit, scratch, &Budget::unlimited())
        .expect("an unlimited budget never interrupts")
}

/// [`max_flow_with_scratch`] under a cooperative [`Budget`].
///
/// The budget is polled **once per BFS phase** (the paper-granular
/// checkpoint: a phase is the unit after which the level graph is rebuilt),
/// never per edge, so the check costs one `Instant::now` per phase while
/// the interrupt latency stays bounded by a single phase. On
/// [`Interrupted`] the network holds a *partial* flow; callers must
/// [`FlowNetwork::reset`] before the next query exactly as they would after
/// a completed one — the scratch arena itself is never poisoned.
pub fn max_flow_budgeted(
    net: &mut FlowNetwork,
    source: NodeId,
    sink: NodeId,
    limit: u32,
    scratch: &mut DinicScratch,
    budget: &Budget,
) -> Result<u32, Interrupted> {
    if source == sink || limit == 0 {
        return Ok(0);
    }
    scratch.ensure(net.num_nodes());
    let mut flow = 0u32;
    // Once `flow == limit` the outer condition fails immediately, so a probe
    // that meets its bound never pays a final no-progress BFS phase.
    while flow < limit {
        budget.check()?;
        if !build_levels(net, source, sink, scratch) {
            break;
        }
        loop {
            let pushed = blocking_path(net, source, sink, limit - flow, scratch);
            if pushed == 0 {
                break;
            }
            flow += pushed;
            if flow >= limit {
                break;
            }
        }
    }
    Ok(flow)
}

/// Residual BFS from `source`; returns `true` when `sink` is reachable.
///
/// Starts a fresh scratch epoch instead of clearing the level array, and
/// resets the DFS cursors only for the nodes actually reached (the queue
/// contents) — the per-phase cost is proportional to the explored region,
/// not to the network size.
fn build_levels(
    net: &FlowNetwork,
    source: NodeId,
    sink: NodeId,
    scratch: &mut DinicScratch,
) -> bool {
    scratch.begin_phase();
    scratch.queue.clear();
    scratch.set_level(source, 0);
    scratch.queue.push(source);
    let mut head = 0;
    while head < scratch.queue.len() {
        let u = scratch.queue[head];
        head += 1;
        // Dequeued nodes are reached by construction: read the level directly
        // instead of going through the bitset check in `level_of`.
        let lu = scratch.level[u as usize];
        for &a in net.arcs_from(u) {
            if net.residual(a) == 0 {
                continue;
            }
            let v = net.arc_head(a);
            // `insert` returns whether the bit was newly set, so discovery
            // tests and marks `v` with a single bitset access.
            if scratch.reached.insert(v as usize) {
                scratch.level[v as usize] = lu + 1;
                scratch.queue.push(v);
            }
        }
    }
    for i in 0..scratch.queue.len() {
        scratch.iter[scratch.queue[i] as usize] = 0;
    }
    // No retreat has happened yet this phase, so reached == has a BFS level.
    scratch.reached.contains(sink as usize)
}

/// Finds one augmenting path in the level graph (iterative DFS with the
/// current-arc optimisation) and pushes its bottleneck flow. Returns the
/// amount pushed (0 when the level graph is exhausted).
fn blocking_path(
    net: &mut FlowNetwork,
    source: NodeId,
    sink: NodeId,
    limit: u32,
    scratch: &mut DinicScratch,
) -> u32 {
    scratch.path.clear();
    let mut current = source;
    loop {
        if current == sink {
            // Bottleneck along the path.
            let mut bottleneck = limit;
            for &a in &scratch.path {
                bottleneck = bottleneck.min(net.residual(a));
            }
            for &a in &scratch.path {
                net.push(a, bottleneck);
            }
            return bottleneck;
        }
        let mut advanced = false;
        while scratch.iter[current as usize] < net.arcs_from(current).len() {
            let a = net.arcs_from(current)[scratch.iter[current as usize]];
            let v = net.arc_head(a);
            // `current` is always on the path (or the source) and thus holds
            // a valid level; only `v` needs the reached check.
            if net.residual(a) > 0 && scratch.level_of(v) == scratch.level[current as usize] + 1 {
                scratch.path.push(a);
                current = v;
                advanced = true;
                break;
            }
            scratch.iter[current as usize] += 1;
        }
        if advanced {
            continue;
        }
        // Dead end: retreat. `current` is already reached, so storing
        // `UNREACHED` into its level slot invalidates it without touching the
        // bitset.
        scratch.level[current as usize] = UNREACHED;
        match scratch.path.pop() {
            Some(last) => {
                // The tail of `last` is where we retreat to; advance its
                // current-arc pointer past the dead arc.
                let tail = net.arc_head(last ^ 1);
                scratch.iter[tail as usize] += 1;
                current = tail;
            }
            None => return 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::INFINITE_CAPACITY;

    /// Classic small network with max flow 23 (CLRS-style example).
    fn clrs_network() -> (FlowNetwork, NodeId, NodeId) {
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 2, 10);
        net.add_arc(2, 1, 4);
        net.add_arc(1, 3, 12);
        net.add_arc(3, 2, 9);
        net.add_arc(2, 4, 14);
        net.add_arc(4, 3, 7);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 5, 4);
        (net, 0, 5)
    }

    #[test]
    fn clrs_max_flow_is_23() {
        let (mut net, s, t) = clrs_network();
        assert_eq!(max_flow(&mut net, s, t, u32::MAX / 2), 23);
    }

    #[test]
    fn early_termination_respects_limit() {
        let (mut net, s, t) = clrs_network();
        assert_eq!(max_flow(&mut net, s, t, 5), 5);
        net.reset();
        assert_eq!(max_flow(&mut net, s, t, 23), 23);
        net.reset();
        assert_eq!(max_flow(&mut net, s, t, 0), 0);
    }

    #[test]
    fn reset_allows_repeated_queries() {
        let (mut net, s, t) = clrs_network();
        let mut scratch = DinicScratch::new(net.num_nodes());
        for _ in 0..3 {
            assert_eq!(
                max_flow_with_scratch(&mut net, s, t, 1000, &mut scratch),
                23
            );
            net.reset();
        }
    }

    #[test]
    fn expired_budget_interrupts_before_any_phase() {
        let (mut net, s, t) = clrs_network();
        let mut scratch = DinicScratch::new(net.num_nodes());
        let expired = Budget::with_timeout(std::time::Duration::ZERO);
        assert_eq!(
            max_flow_budgeted(&mut net, s, t, 1000, &mut scratch, &expired),
            Err(Interrupted)
        );
        // The arena stays reusable: the same buffers answer correctly under
        // an unlimited budget afterwards.
        net.reset();
        assert_eq!(
            max_flow_budgeted(&mut net, s, t, 1000, &mut scratch, &Budget::unlimited()),
            Ok(23)
        );
        // A cancelled flag interrupts just like a deadline.
        net.reset();
        let cancelled = Budget::cancellable();
        cancelled.cancel();
        assert_eq!(
            max_flow_budgeted(&mut net, s, t, 1000, &mut scratch, &cancelled),
            Err(Interrupted)
        );
    }

    #[test]
    fn parallel_unit_paths() {
        // Source 0, sink 5, three internally disjoint 2-hop paths.
        let mut net = FlowNetwork::new(6);
        for mid in 1..=3 {
            net.add_arc(0, mid, 1);
            net.add_arc(mid, 5, 1);
        }
        assert_eq!(max_flow(&mut net, 0, 5, 100), 3);
    }

    #[test]
    fn disconnected_sink_gives_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, INFINITE_CAPACITY);
        // Node 3 is unreachable.
        assert_eq!(max_flow(&mut net, 0, 3, 10), 0);
        assert_eq!(max_flow(&mut net, 0, 0, 10), 0);
    }

    #[test]
    fn flow_conservation_holds() {
        let (mut net, s, t) = clrs_network();
        let value = max_flow(&mut net, s, t, u32::MAX / 2);
        // For every internal node, inflow equals outflow.
        for v in 0..net.num_nodes() as NodeId {
            if v == s || v == t {
                continue;
            }
            let mut balance: i64 = 0;
            for a in 0..net.num_arcs() as u32 {
                if net.initial_capacity(a) == 0 {
                    continue; // skip residual twins
                }
                let from = net.arc_head(a ^ 1);
                let to = net.arc_head(a);
                if to == v {
                    balance += net.flow(a) as i64;
                }
                if from == v {
                    balance -= net.flow(a) as i64;
                }
            }
            assert_eq!(balance, 0, "conservation violated at node {v}");
        }
        // Net flow out of the source equals the flow value.
        let mut out: i64 = 0;
        for a in 0..net.num_arcs() as u32 {
            if net.initial_capacity(a) == 0 {
                continue;
            }
            if net.arc_head(a ^ 1) == s {
                out += net.flow(a) as i64;
            }
            if net.arc_head(a) == s {
                out -= net.flow(a) as i64;
            }
        }
        assert_eq!(out, value as i64);
    }
}
