//! A compact directed flow network with paired residual arcs.

/// Identifier of a node in a [`FlowNetwork`].
pub type NodeId = u32;

/// Identifier of an arc in a [`FlowNetwork`].
///
/// Arcs are created in pairs: arc `a` and its reverse arc `a ^ 1` always refer
/// to each other, so pushing flow along `a` is `cap[a] -= f; cap[a ^ 1] += f`.
pub type ArcId = u32;

/// Capacity value treated as unbounded.
///
/// Large enough that no realistic flow (bounded by `k <= n`) can saturate the
/// arc, small enough that additions cannot overflow a `u32`.
pub const INFINITE_CAPACITY: u32 = u32::MAX / 4;

/// A directed flow network in residual-arc form, for flows that need
/// explicit arc capacities: the edge cuts of `kvcc_baselines::kecc`, where
/// each undirected edge is a pair of unit arcs. (The k-VCC probes run on the
/// implicit vertex-split arena of [`crate::VertexFlowGraph`] instead.)
///
/// Built once per graph and queried for many source/sink pairs:
/// [`FlowNetwork::reset`] restores the initial capacities in a single
/// `memcpy`-style pass instead of rebuilding.
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    /// Target node of each arc.
    head: Vec<NodeId>,
    /// Current residual capacity of each arc.
    cap: Vec<u32>,
    /// Initial capacity of each arc (used by [`reset`](FlowNetwork::reset)).
    initial_cap: Vec<u32>,
    /// Outgoing arc ids per node (both forward and residual arcs).
    adj: Vec<Vec<ArcId>>,
}

impl FlowNetwork {
    /// Creates a network with `num_nodes` nodes and no arcs.
    pub fn new(num_nodes: usize) -> Self {
        FlowNetwork {
            head: Vec::new(),
            cap: Vec::new(),
            initial_cap: Vec::new(),
            adj: vec![Vec::new(); num_nodes],
        }
    }

    /// Creates a network reserving space for `num_arcs` directed arcs.
    pub fn with_capacity(num_nodes: usize, num_arcs: usize) -> Self {
        FlowNetwork {
            head: Vec::with_capacity(2 * num_arcs),
            cap: Vec::with_capacity(2 * num_arcs),
            initial_cap: Vec::with_capacity(2 * num_arcs),
            adj: vec![Vec::new(); num_nodes],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of arcs **including** the automatically created reverse arcs.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.head.len()
    }

    /// Adds a directed arc `from → to` with capacity `capacity` and its
    /// residual twin `to → from` with capacity 0. Returns the id of the
    /// forward arc; the twin is always `id ^ 1`.
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, capacity: u32) -> ArcId {
        debug_assert!((from as usize) < self.num_nodes());
        debug_assert!((to as usize) < self.num_nodes());
        let id = self.head.len() as ArcId;
        self.head.push(to);
        self.cap.push(capacity);
        self.initial_cap.push(capacity);
        self.adj[from as usize].push(id);

        self.head.push(from);
        self.cap.push(0);
        self.initial_cap.push(0);
        self.adj[to as usize].push(id + 1);
        id
    }

    /// Target node of arc `a`.
    #[inline]
    pub fn arc_head(&self, a: ArcId) -> NodeId {
        self.head[a as usize]
    }

    /// Current residual capacity of arc `a`.
    #[inline]
    pub fn residual(&self, a: ArcId) -> u32 {
        self.cap[a as usize]
    }

    /// Initial (design) capacity of arc `a`.
    #[inline]
    pub fn initial_capacity(&self, a: ArcId) -> u32 {
        self.initial_cap[a as usize]
    }

    /// Flow currently routed through arc `a` (initial capacity minus residual,
    /// clamped at zero for reverse arcs).
    #[inline]
    pub fn flow(&self, a: ArcId) -> u32 {
        self.initial_cap[a as usize].saturating_sub(self.cap[a as usize])
    }

    /// Outgoing arc ids of node `v`.
    #[inline]
    pub fn arcs_from(&self, v: NodeId) -> &[ArcId] {
        &self.adj[v as usize]
    }

    /// Pushes `amount` units of flow along arc `a` (decreasing its residual and
    /// increasing the residual of its twin).
    #[inline]
    pub fn push(&mut self, a: ArcId, amount: u32) {
        debug_assert!(self.cap[a as usize] >= amount);
        self.cap[a as usize] -= amount;
        self.cap[(a ^ 1) as usize] += amount;
    }

    /// Restores every arc to its initial capacity, erasing all flow.
    pub fn reset(&mut self) {
        self.cap.copy_from_slice(&self.initial_cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_are_paired_with_their_twin() {
        let mut net = FlowNetwork::new(3);
        let a = net.add_arc(0, 1, 5);
        let b = net.add_arc(1, 2, 7);
        assert_eq!(a, 0);
        assert_eq!(b, 2);
        assert_eq!(net.arc_head(a), 1);
        assert_eq!(net.arc_head(a ^ 1), 0);
        assert_eq!(net.residual(a), 5);
        assert_eq!(net.residual(a ^ 1), 0);
        assert_eq!(net.num_arcs(), 4);
        assert_eq!(net.num_nodes(), 3);
    }

    #[test]
    fn push_and_reset() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(0, 1, 3);
        net.push(a, 2);
        assert_eq!(net.residual(a), 1);
        assert_eq!(net.residual(a ^ 1), 2);
        assert_eq!(net.flow(a), 2);
        assert_eq!(net.flow(a ^ 1), 0);
        net.reset();
        assert_eq!(net.residual(a), 3);
        assert_eq!(net.residual(a ^ 1), 0);
    }

    #[test]
    fn adjacency_contains_residual_arcs() {
        let mut net = FlowNetwork::new(2);
        let a = net.add_arc(0, 1, 1);
        assert_eq!(net.arcs_from(0), &[a]);
        assert_eq!(net.arcs_from(1), &[a ^ 1]);
        assert_eq!(net.initial_capacity(a), 1);
    }
}
