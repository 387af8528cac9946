//! Run statistics collected by the enumerator.
//!
//! The counters mirror the quantities the paper reports in its evaluation:
//! the per-rule pruning proportions of Table 2, the processing time of
//! Fig. 10, the number of k-VCCs of Fig. 11 and the memory usage of Fig. 12.

use std::time::Duration;

/// Counters describing one full `enumerate_kvccs` run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// Number of `GLOBAL-CUT` / `GLOBAL-CUT*` invocations.
    pub global_cut_calls: u64,
    /// Number of `LOC-CUT` calls that actually ran a max-flow computation.
    pub loc_cut_flow_calls: u64,
    /// Number of `LOC-CUT` calls answered by the adjacency shortcut (Lemma 5)
    /// or the same-vertex shortcut without running a flow.
    pub loc_cut_trivial_calls: u64,
    /// Phase-1 vertices that were actually tested with a flow computation
    /// (the "Non-Pru" row of Table 2).
    pub tested_vertices: u64,
    /// Phase-1 vertices skipped thanks to neighbor-sweep rule 1
    /// (strong side-vertex neighbourhood, §5.1.1) — "NS 1" in Table 2.
    pub pruned_neighbor_rule1: u64,
    /// Phase-1 vertices skipped thanks to neighbor-sweep rule 2
    /// (vertex deposit ≥ k, §5.1.2) — "NS 2" in Table 2.
    pub pruned_neighbor_rule2: u64,
    /// Phase-1 vertices skipped thanks to a group sweep (§5.2) — "GS" in
    /// Table 2.
    pub pruned_group_sweep: u64,
    /// Phase-2 neighbour pairs tested with a flow computation.
    pub phase2_pairs_tested: u64,
    /// Phase-2 neighbour pairs skipped by group-sweep rule 3.
    pub phase2_pairs_skipped: u64,
    /// Number of overlapped partitions performed (Lemma 10 bounds this by
    /// `(n − k − 1) / 2`).
    pub partitions: u64,
    /// Vertices removed by k-core pruning across all recursive calls.
    pub kcore_removed_vertices: u64,
    /// Total number of edges across all sparse certificates built.
    pub certificate_edges: u64,
    /// Number of strong side-vertices detected across all `GLOBAL-CUT*` calls.
    pub strong_side_vertices: u64,
    /// Number of side-groups (size > k) collected across all calls.
    pub side_groups: u64,
    /// Times the defensive "recompute the cut on the full subgraph" fallback
    /// fired. Expected to stay 0: the cut comes from a flow on the sparse
    /// certificate, which preserves every vertex cut of size `< k`
    /// (Theorem 5), so it also separates the subgraph it is applied to.
    pub fallback_recuts: u64,
    /// Work items drained from the `KVCC-ENUM` worklist (initial k-core
    /// components + partition pieces). Deterministic: independent of the
    /// thread count.
    pub work_items_executed: u64,
    /// Work items a worker popped from the shared stack that another worker
    /// had created (parallel runs only). The one counter that is genuinely
    /// scheduling-dependent: it varies run to run and is reported for
    /// observability, never compared for parity.
    pub steals: u64,
    /// Whether the run was interrupted by its [`crate::KvccOptions::budget`]
    /// before completing. Set on the partial statistics carried by
    /// [`crate::KvccError::Interrupted`]; always `false` on a completed run.
    pub cancelled: bool,
    /// Peak of the approximate *working* memory estimate in bytes: live
    /// partitioned subgraphs plus the certificate and flow scratch of the
    /// `GLOBAL-CUT` call in flight. The caller's input graph is not included
    /// (it is never copied). Reproduces the trends of Fig. 12.
    pub peak_memory_bytes: usize,
    /// Wall-clock time of the whole enumeration.
    pub elapsed: Duration,
}

impl EnumerationStats {
    /// Total number of phase-1 vertices that were either swept or tested.
    pub fn phase1_vertices(&self) -> u64 {
        self.tested_vertices
            + self.pruned_neighbor_rule1
            + self.pruned_neighbor_rule2
            + self.pruned_group_sweep
    }

    /// Fraction of phase-1 vertices pruned by neighbor-sweep rule 1
    /// (Table 2, "NS 1").
    pub fn proportion_neighbor_rule1(&self) -> f64 {
        ratio(self.pruned_neighbor_rule1, self.phase1_vertices())
    }

    /// Fraction of phase-1 vertices pruned by neighbor-sweep rule 2
    /// (Table 2, "NS 2").
    pub fn proportion_neighbor_rule2(&self) -> f64 {
        ratio(self.pruned_neighbor_rule2, self.phase1_vertices())
    }

    /// Fraction of phase-1 vertices pruned by group sweep (Table 2, "GS").
    pub fn proportion_group_sweep(&self) -> f64 {
        ratio(self.pruned_group_sweep, self.phase1_vertices())
    }

    /// Fraction of phase-1 vertices that could not be pruned
    /// (Table 2, "Non-Pru").
    pub fn proportion_tested(&self) -> f64 {
        ratio(self.tested_vertices, self.phase1_vertices())
    }

    /// Merges the counters of another run into this one (used when a harness
    /// aggregates multiple datasets or k values).
    pub fn merge(&mut self, other: &EnumerationStats) {
        self.global_cut_calls += other.global_cut_calls;
        self.loc_cut_flow_calls += other.loc_cut_flow_calls;
        self.loc_cut_trivial_calls += other.loc_cut_trivial_calls;
        self.tested_vertices += other.tested_vertices;
        self.pruned_neighbor_rule1 += other.pruned_neighbor_rule1;
        self.pruned_neighbor_rule2 += other.pruned_neighbor_rule2;
        self.pruned_group_sweep += other.pruned_group_sweep;
        self.phase2_pairs_tested += other.phase2_pairs_tested;
        self.phase2_pairs_skipped += other.phase2_pairs_skipped;
        self.partitions += other.partitions;
        self.kcore_removed_vertices += other.kcore_removed_vertices;
        self.certificate_edges += other.certificate_edges;
        self.strong_side_vertices += other.strong_side_vertices;
        self.side_groups += other.side_groups;
        self.fallback_recuts += other.fallback_recuts;
        self.work_items_executed += other.work_items_executed;
        self.steals += other.steals;
        self.cancelled |= other.cancelled;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
        self.elapsed += other.elapsed;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Tracks an approximate "currently resident" byte count and its peak.
///
/// The enumerator charges every live partitioned subgraph, the sparse
/// certificate and the flow graph of the `GLOBAL-CUT` call in flight; Fig. 12
/// of the paper is reproduced from the peak of this estimate.
#[derive(Clone, Debug, Default)]
pub struct MemoryTracker {
    current: usize,
    peak: usize,
}

impl MemoryTracker {
    /// Creates a tracker with zero usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `bytes` of newly allocated data.
    pub fn allocate(&mut self, bytes: usize) {
        self.current += bytes;
        if self.current > self.peak {
            self.peak = self.current;
        }
    }

    /// Registers that `bytes` of data were released.
    pub fn release(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Current estimate in bytes.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Peak estimate in bytes since creation.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_sum_to_one_when_counters_cover_phase1() {
        let stats = EnumerationStats {
            tested_vertices: 10,
            pruned_neighbor_rule1: 20,
            pruned_neighbor_rule2: 30,
            pruned_group_sweep: 40,
            ..Default::default()
        };
        let total = stats.proportion_tested()
            + stats.proportion_neighbor_rule1()
            + stats.proportion_neighbor_rule2()
            + stats.proportion_group_sweep();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(stats.phase1_vertices(), 100);
    }

    #[test]
    fn empty_stats_have_zero_proportions() {
        let stats = EnumerationStats::default();
        assert_eq!(stats.proportion_tested(), 0.0);
        assert_eq!(stats.phase1_vertices(), 0);
    }

    #[test]
    fn merge_accumulates_and_takes_peak_memory() {
        let mut a = EnumerationStats {
            tested_vertices: 5,
            partitions: 2,
            peak_memory_bytes: 100,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let b = EnumerationStats {
            tested_vertices: 7,
            partitions: 1,
            peak_memory_bytes: 300,
            elapsed: Duration::from_millis(5),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.tested_vertices, 12);
        assert_eq!(a.partitions, 3);
        assert_eq!(a.peak_memory_bytes, 300);
        assert_eq!(a.elapsed, Duration::from_millis(15));
    }

    #[test]
    fn memory_tracker_tracks_peak() {
        let mut t = MemoryTracker::new();
        t.allocate(100);
        t.allocate(50);
        assert_eq!(t.current(), 150);
        assert_eq!(t.peak(), 150);
        t.release(120);
        assert_eq!(t.current(), 30);
        t.allocate(10);
        assert_eq!(t.peak(), 150);
        t.release(1000);
        assert_eq!(t.current(), 0);
    }
}
