//! Configuration of the enumeration algorithm.

use kvcc_flow::Budget;

/// Which pruning strategies are enabled, matching the four algorithms compared
/// in the paper's efficiency study (§6.2, Fig. 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum AlgorithmVariant {
    /// `VCCE`: the basic algorithm of §4 (sparse certificate + two-phase
    /// `GLOBAL-CUT`, no sweeps).
    Basic,
    /// `VCCE-N`: basic algorithm plus the neighbor-sweep rules of §5.1
    /// (strong side-vertices and vertex deposits).
    NeighborSweep,
    /// `VCCE-G`: basic algorithm plus the group-sweep rules of §5.2
    /// (side-groups and group deposits).
    GroupSweep,
    /// `VCCE*`: both neighbor sweep and group sweep (the paper's final
    /// algorithm). This is the default.
    #[default]
    Full,
}

impl AlgorithmVariant {
    /// Whether the neighbor-sweep rules (§5.1) are active.
    pub fn neighbor_sweep(self) -> bool {
        matches!(
            self,
            AlgorithmVariant::NeighborSweep | AlgorithmVariant::Full
        )
    }

    /// Whether the group-sweep rules (§5.2) are active.
    pub fn group_sweep(self) -> bool {
        matches!(self, AlgorithmVariant::GroupSweep | AlgorithmVariant::Full)
    }

    /// The paper's name for the variant (used by the benchmark harness).
    pub fn paper_name(self) -> &'static str {
        match self {
            AlgorithmVariant::Basic => "VCCE",
            AlgorithmVariant::NeighborSweep => "VCCE-N",
            AlgorithmVariant::GroupSweep => "VCCE-G",
            AlgorithmVariant::Full => "VCCE*",
        }
    }

    /// All four variants in the order the paper lists them.
    pub fn all() -> [AlgorithmVariant; 4] {
        [
            AlgorithmVariant::Basic,
            AlgorithmVariant::NeighborSweep,
            AlgorithmVariant::GroupSweep,
            AlgorithmVariant::Full,
        ]
    }
}

/// The scheduling cost estimate of one work item: `|E| + k·|V|`.
///
/// `|E|` approximates the cost of one sparse-certificate construction and
/// `k·|V|` the `O(k)` bounded flow probes over the phase-1 vertices — the
/// two components of a `GLOBAL-CUT*` call. `kvcc-service` orders shard work
/// items largest-first by it, and its admission control turns it into a
/// predicted run time.
pub fn split_cost(num_vertices: usize, num_edges: usize, k: u32) -> u64 {
    num_edges as u64 + k as u64 * num_vertices as u64
}

/// Tuning knobs of the enumeration. The defaults reproduce `VCCE*` exactly as
/// described in the paper: the flow runs on the sparse certificate (§4.2), a
/// strong side-vertex is preferred as the source (Algorithm 3, lines 4–7) and
/// phase-1 vertices are tested farthest-first (line 11). The knobs pick the
/// Fig. 10 variant, bound the side-vertex detection cost, and configure the
/// parallel runtime and cancellation. Every `LOC-CUT` probe stops at `k`
/// augmenting paths (Lemma 6): it only has to certify `κ(u, v) >= k`.
///
/// Equality ignores the [`budget`](KvccOptions::budget): the budget is a
/// runtime attachment (two configurations are "the same algorithm" whether
/// or not a deadline happens to be armed).
#[derive(Clone, Debug)]
pub struct KvccOptions {
    /// Which sweep strategies are enabled.
    pub variant: AlgorithmVariant,
    /// Vertices whose degree exceeds this threshold are conservatively treated
    /// as *not* strong side-vertices, so a hub `u` adds none of its
    /// `d(u)² / 2` neighbour pairs to the detection pass (see
    /// [`crate::side_vertex`]). `None` means no cap. Only affects pruning
    /// effectiveness, never correctness.
    pub max_degree_for_side_vertex_check: Option<usize>,
    /// Number of worker threads for the `KVCC-ENUM` worklist.
    ///
    /// * `1` (the default) — sequential processing, exactly the paper's
    ///   Algorithm 1.
    /// * `0` — use [`std::thread::available_parallelism`].
    /// * `n > 1` — a fixed work-stealing pool of `n` workers.
    ///
    /// The pieces produced by `OVERLAP-PARTITION` are independent, so workers
    /// process them concurrently with per-thread scratch arenas. Results and
    /// statistics are merged deterministically: the reported component set
    /// and all pruning counters are identical to a sequential run; only
    /// `elapsed`, the peak-memory estimate and the steal count depend on
    /// scheduling.
    pub threads: usize,
    /// Cooperative cancellation token polled by the worklist (per work
    /// item), the `GLOBAL-CUT*` phase loops (per probe) and the flow probes:
    /// once per Dinic BFS phase, and once per augmenting-path search for a
    /// probe from the fixed phase-1 source. When it expires mid-run the
    /// enumeration stops at the next checkpoint and returns
    /// [`crate::KvccError::Interrupted`] carrying the partial statistics. The default is [`Budget::unlimited`] —
    /// allocation-free and never expiring. Ignored by [`PartialEq`].
    pub budget: Budget,
}

impl Default for KvccOptions {
    fn default() -> Self {
        KvccOptions {
            variant: AlgorithmVariant::Full,
            max_degree_for_side_vertex_check: Some(4096),
            threads: 1,
            budget: Budget::unlimited(),
        }
    }
}

impl PartialEq for KvccOptions {
    /// Compares every algorithmic knob; the [`budget`](KvccOptions::budget)
    /// runtime attachment is deliberately excluded (see the type docs).
    fn eq(&self, other: &Self) -> bool {
        self.variant == other.variant
            && self.max_degree_for_side_vertex_check == other.max_degree_for_side_vertex_check
            && self.threads == other.threads
    }
}

impl Eq for KvccOptions {}

impl KvccOptions {
    /// Options reproducing the paper's basic algorithm `VCCE`.
    pub fn basic() -> Self {
        KvccOptions {
            variant: AlgorithmVariant::Basic,
            ..Self::default()
        }
    }

    /// Options reproducing `VCCE-N` (neighbor sweep only).
    pub fn neighbor_sweep() -> Self {
        KvccOptions {
            variant: AlgorithmVariant::NeighborSweep,
            ..Self::default()
        }
    }

    /// Options reproducing `VCCE-G` (group sweep only).
    pub fn group_sweep() -> Self {
        KvccOptions {
            variant: AlgorithmVariant::GroupSweep,
            ..Self::default()
        }
    }

    /// Options reproducing `VCCE*` (both sweeps; same as `Default`).
    pub fn full() -> Self {
        Self::default()
    }

    /// Options for the requested variant with all other knobs at their
    /// defaults.
    pub fn for_variant(variant: AlgorithmVariant) -> Self {
        KvccOptions {
            variant,
            ..Self::default()
        }
    }

    /// `VCCE*` with the parallel worklist enabled (one worker per available
    /// core).
    pub fn parallel() -> Self {
        KvccOptions {
            threads: 0,
            ..Self::default()
        }
    }

    /// Sets the worker-thread count (see [`KvccOptions::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a cancellation [`Budget`] (see [`KvccOptions::budget`]).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Resolves a requested worker count to a concrete one (`0` means
/// [`std::thread::available_parallelism`]). The helper lives at the root of
/// `kvcc_graph`; re-exported here so `kvcc::effective_threads` keeps working
/// for the enumeration worklist ([`KvccOptions::threads`]) and the
/// `kvcc-service` batch pool.
pub use kvcc_graph::effective_threads;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_flags() {
        assert!(!AlgorithmVariant::Basic.neighbor_sweep());
        assert!(!AlgorithmVariant::Basic.group_sweep());
        assert!(AlgorithmVariant::NeighborSweep.neighbor_sweep());
        assert!(!AlgorithmVariant::NeighborSweep.group_sweep());
        assert!(!AlgorithmVariant::GroupSweep.neighbor_sweep());
        assert!(AlgorithmVariant::GroupSweep.group_sweep());
        assert!(AlgorithmVariant::Full.neighbor_sweep());
        assert!(AlgorithmVariant::Full.group_sweep());
    }

    #[test]
    fn paper_names_match_figure_10() {
        let names: Vec<_> = AlgorithmVariant::all()
            .iter()
            .map(|v| v.paper_name())
            .collect();
        assert_eq!(names, vec!["VCCE", "VCCE-N", "VCCE-G", "VCCE*"]);
    }

    #[test]
    fn defaults_are_the_full_algorithm() {
        let opts = KvccOptions::default();
        assert_eq!(opts.variant, AlgorithmVariant::Full);
        assert_eq!(KvccOptions::full(), opts);
        assert_eq!(KvccOptions::basic().variant, AlgorithmVariant::Basic);
        assert_eq!(
            KvccOptions::neighbor_sweep().variant,
            AlgorithmVariant::NeighborSweep
        );
        assert_eq!(
            KvccOptions::group_sweep().variant,
            AlgorithmVariant::GroupSweep
        );
        assert_eq!(
            KvccOptions::for_variant(AlgorithmVariant::Basic).variant,
            AlgorithmVariant::Basic
        );
        assert_eq!(opts.threads, 1);
        assert!(opts.budget.is_unlimited());
    }

    #[test]
    fn equality_ignores_the_budget_attachment() {
        let armed = KvccOptions::default().with_budget(Budget::cancellable());
        assert_eq!(armed, KvccOptions::default());
        let different = KvccOptions::default().with_threads(2);
        assert_ne!(different, KvccOptions::default());
    }

    #[test]
    fn split_cost_model_weights_edges_and_k_scaled_vertices() {
        assert_eq!(split_cost(0, 0, 4), 0);
        assert_eq!(split_cost(10, 25, 4), 25 + 40);
        assert!(split_cost(100, 400, 8) > split_cost(100, 400, 2));
    }

    #[test]
    fn effective_threads_resolves_zero_to_available_parallelism() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
    }
}
