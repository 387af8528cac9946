//! Minimum-cut extraction from a residual [`FlowNetwork`].
//!
//! After a max-flow computation terminates with value `< k` (i.e. no
//! augmenting path remains), the set of nodes reachable from the source in the
//! residual network defines a minimum s-t cut; the saturated forward arcs
//! leaving that set are the cut arcs. `kvcc_baselines::kecc` reads its edge
//! cuts this way; the vertex-split arena ([`crate::VertexFlowGraph`]) reads
//! `LOC-CUT`'s vertex cuts (Algorithm 2, lines 16–17) from the same
//! reachable set with a search of its own.

use kvcc_graph::bitset::BitSet;

use crate::network::{ArcId, FlowNetwork, NodeId};

/// Returns the set of nodes reachable from `source` in the residual network
/// (arcs with positive residual capacity only), as a word-packed [`BitSet`]
/// over the node ids.
pub fn residual_reachable(net: &FlowNetwork, source: NodeId) -> BitSet {
    let mut seen = BitSet::new(net.num_nodes());
    let mut stack = vec![source];
    seen.insert(source as usize);
    while let Some(u) = stack.pop() {
        for &a in net.arcs_from(u) {
            if net.residual(a) == 0 {
                continue;
            }
            let v = net.arc_head(a);
            if seen.insert(v as usize) {
                stack.push(v);
            }
        }
    }
    seen
}

/// Returns the ids of the forward arcs that cross the minimum cut induced by
/// the current residual state: arcs with positive initial capacity whose tail
/// is reachable from `source` and whose head is not.
///
/// Must be called after a completed (or early-terminated *and* exhausted)
/// max-flow computation; otherwise the returned arcs form a valid but not
/// necessarily minimum cut.
pub fn min_cut_arcs(net: &FlowNetwork, source: NodeId) -> Vec<ArcId> {
    let reachable = residual_reachable(net, source);
    let mut cut = Vec::new();
    for a in (0..net.num_arcs() as ArcId).step_by(2) {
        // Even ids are the forward arcs created by `add_arc`.
        if net.initial_capacity(a) == 0 {
            continue;
        }
        let tail = net.arc_head(a ^ 1);
        let head = net.arc_head(a);
        if reachable.contains(tail as usize) && !reachable.contains(head as usize) {
            cut.push(a);
        }
    }
    cut
}

/// Total initial capacity of the arcs returned by [`min_cut_arcs`].
pub fn min_cut_value(net: &FlowNetwork, source: NodeId) -> u64 {
    min_cut_arcs(net, source)
        .into_iter()
        .map(|a| net.initial_capacity(a) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::max_flow;

    #[test]
    fn cut_value_equals_flow_value() {
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
        let value = max_flow(&mut net, 0, 5, u32::MAX / 2);
        assert_eq!(value, 23);
        assert_eq!(min_cut_value(&net, 0), 23);
        let reach = residual_reachable(&net, 0);
        assert!(reach.contains(0));
        assert!(!reach.contains(5));
    }

    #[test]
    fn unit_path_cut_is_single_arc() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_arc(0, 1, 1);
        let b = net.add_arc(1, 2, 1);
        let value = max_flow(&mut net, 0, 2, 10);
        assert_eq!(value, 1);
        let cut = min_cut_arcs(&net, 0);
        assert_eq!(cut.len(), 1);
        assert!(cut[0] == a || cut[0] == b);
    }

    #[test]
    fn disconnected_sink_has_empty_cut() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5);
        let value = max_flow(&mut net, 0, 2, 10);
        assert_eq!(value, 0);
        // Node 2 is unreachable even with no flow, so the "cut" contains no
        // arcs (the source side simply never reaches the sink side).
        assert!(min_cut_arcs(&net, 0).is_empty());
    }
}
