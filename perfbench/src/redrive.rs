//! Algorithm 1 (`KVCC-ENUM`) re-driven from the library's public pieces, so
//! the traced run can put a span around every layer call: the k-core peel,
//! induced-subgraph extraction, `GLOBAL-CUT*` and `OVERLAP-PARTITION`.
//!
//! The inside of `GLOBAL-CUT*` cannot be spanned from outside. Instead each
//! cut call's input is handed again to `sparse_certificate` and
//! `strong_side_vertices` under `replay` spans, and the input with the most
//! flow probes is kept for [`Redriver::sample_probes`], which times single
//! `LOC-CUT` probes on a rebuilt flow arena. Replay spans are excluded when
//! the re-drive is compared with the untraced run.

use kvcc::certificate::sparse_certificate;
use kvcc::global_cut::{global_cut_with_scratch, CutScratch};
use kvcc::partition::overlap_partition;
use kvcc::side_vertex::strong_side_vertices;
use kvcc::{Budget, EnumerationStats, KVertexConnectedComponent, KvccOptions};
use kvcc_flow::VertexFlowGraph;
use kvcc_graph::kcore::k_core_vertices;
use kvcc_graph::traversal::vertices_by_descending_distance;
use kvcc_graph::{CsrGraph, GraphView, SubgraphView, VertexId};

use crate::measure::Tracer;

/// Span names of the work that only the traced run does.
pub const REPLAY: &str = "replay";

pub struct Redriver {
    options: KvccOptions,
    /// Counters as the enumerator keeps them: `GLOBAL-CUT*` fills its own,
    /// the re-drive adds the worklist ones (k-core removals, work items,
    /// partitions, fallback re-cuts).
    pub stats: EnumerationStats,
    /// High-water mark of live worklist bytes plus the cut call in flight,
    /// charged the way the enumerator charges its memory tracker.
    pub peak_memory_bytes: usize,
    scratch: CutScratch,
    map: Vec<VertexId>,
    /// `(k, input, probes)` of the cut call that ran the most flow probes.
    heaviest: Option<(u32, CsrGraph, u64)>,
}

fn item_bytes(graph: &CsrGraph, to_original: &[VertexId]) -> usize {
    graph.memory_bytes() + std::mem::size_of_val(to_original)
}

impl Redriver {
    pub fn new(options: KvccOptions) -> Self {
        Redriver {
            options,
            stats: EnumerationStats::default(),
            peak_memory_bytes: 0,
            scratch: CutScratch::new(),
            map: Vec::new(),
            heaviest: None,
        }
    }

    /// All k-VCCs of `graph`, sorted like `enumerate_kvccs`'s output.
    pub fn enumerate<G: GraphView>(
        &mut self,
        graph: &G,
        k: u32,
        tr: &mut Tracer,
    ) -> Result<Vec<KVertexConnectedComponent>, String> {
        tr.span("enumerate", k as u64, |tr| {
            self.enumerate_inner(graph, k, tr)
        })
    }

    fn enumerate_inner<G: GraphView>(
        &mut self,
        graph: &G,
        k: u32,
        tr: &mut Tracer,
    ) -> Result<Vec<KVertexConnectedComponent>, String> {
        let mut results = Vec::new();
        let core = tr.span("kcore", 0, |_| k_core_vertices(graph, k as usize));
        self.stats.kcore_removed_vertices += (graph.num_vertices() - core.len()) as u64;
        if core.is_empty() {
            return Ok(results);
        }
        let first = tr.span("extract", 0, |_| {
            CsrGraph::extract_induced(graph, &core, &mut self.map)
        });
        let mut live = item_bytes(&first, &core);
        self.peak_memory_bytes = self.peak_memory_bytes.max(live);
        let mut work = vec![(first, core)];

        while let Some((item, to_original)) = work.pop() {
            live -= item_bytes(&item, &to_original);
            self.stats.work_items_executed += 1;
            let (removed, components) = tr.span("kcore", 0, |_| {
                let mut view = SubgraphView::new(&item);
                let removed = view.k_core_reduce(k as usize);
                let components = if view.live() == 0 {
                    Vec::new()
                } else {
                    view.components()
                };
                (removed, components)
            });
            self.stats.kcore_removed_vertices += removed as u64;

            for component in components {
                if component.len() <= k as usize {
                    continue;
                }
                let sub = tr.span("extract", 0, |_| {
                    CsrGraph::extract_induced(&item, &component, &mut self.map)
                });
                let sub_to_original: Vec<VertexId> = component
                    .iter()
                    .map(|&local| to_original[local as usize])
                    .collect();

                let probes_before = self.stats.loc_cut_flow_calls;
                let outcome = tr
                    .span("global_cut", k as u64, |_| {
                        global_cut_with_scratch(
                            &sub,
                            k,
                            &self.options,
                            &mut self.stats,
                            &mut self.scratch,
                        )
                    })
                    .map_err(|e| format!("GLOBAL-CUT interrupted: {e:?}"))?;
                self.peak_memory_bytes = self
                    .peak_memory_bytes
                    .max(live + outcome.scratch_memory_bytes);
                let probes = self.stats.loc_cut_flow_calls - probes_before;
                if tr.enabled() {
                    tr.span(REPLAY, 0, |tr| self.replay_cut_input(&sub, k, probes, tr));
                }

                match outcome.cut {
                    None => results.push(KVertexConnectedComponent::new(sub_to_original)),
                    Some(cut) => {
                        let mut parts = tr.span("partition", 0, |_| overlap_partition(&sub, &cut));
                        if parts.len() < 2 {
                            // The enumerator's defensive re-cut, mirrored.
                            self.stats.fallback_recuts += 1;
                            match kvcc_flow::connectivity::find_vertex_cut(&sub, k) {
                                None => {
                                    results.push(KVertexConnectedComponent::new(sub_to_original));
                                    continue;
                                }
                                Some(recut) => {
                                    parts = overlap_partition(&sub, &recut);
                                    if parts.len() < 2 {
                                        return Err("a vertex cut failed to split".into());
                                    }
                                }
                            }
                        }
                        self.stats.partitions += 1;
                        for part in parts {
                            let piece = tr.span("extract", 0, |_| {
                                CsrGraph::extract_induced(&sub, &part, &mut self.map)
                            });
                            let piece_to_original: Vec<VertexId> = part
                                .iter()
                                .map(|&local| sub_to_original[local as usize])
                                .collect();
                            live += item_bytes(&piece, &piece_to_original);
                            work.push((piece, piece_to_original));
                        }
                        self.peak_memory_bytes = self.peak_memory_bytes.max(live);
                    }
                }
            }
        }
        results.sort();
        Ok(results)
    }

    /// Times the two `GLOBAL-CUT*` phases that can run on their own, on the
    /// cut call's exact input.
    fn replay_cut_input(&mut self, sub: &CsrGraph, k: u32, probes: u64, tr: &mut Tracer) {
        let certificate = tr.span("certificate", k as u64, |_| sparse_certificate(sub, k));
        std::hint::black_box(certificate.num_edges());
        let max_degree = self.options.max_degree_for_side_vertex_check;
        let strong = tr.span("side_vertex", k as u64, |_| {
            strong_side_vertices(sub, k, max_degree)
        });
        std::hint::black_box(strong.len());
        let heavier = match &self.heaviest {
            None => probes > 0,
            Some((_, g, best)) => {
                probes > *best || (probes == *best && sub.num_edges() > g.num_edges())
            }
        };
        if heavier {
            self.heaviest = Some((k, sub.clone(), probes));
        }
    }

    /// Rebuilds a flow arena over the heaviest cut input's sparse
    /// certificate (`flow.rebuild`) and times up to `count` `LOC-CUT` probes
    /// (`flow.probe`) from its minimum-degree vertex to the farthest
    /// non-adjacent sinks, in Algorithm 3's order. Returns how many ran.
    pub fn sample_probes(&self, count: usize, tr: &mut Tracer) -> usize {
        let Some((k, graph, _)) = &self.heaviest else {
            return 0;
        };
        let Some(source) = graph.min_degree_vertex() else {
            return 0;
        };
        let certificate = sparse_certificate(graph, *k);
        let mut flow = VertexFlowGraph::empty();
        tr.span("flow.rebuild", *k as u64, |_| {
            flow.rebuild(&certificate.graph)
        });
        let budget = Budget::unlimited();
        let mut ran = 0;
        for sink in vertices_by_descending_distance(graph, source) {
            if ran == count {
                break;
            }
            if sink == source || graph.has_edge(source, sink) {
                continue;
            }
            let answer = tr.span("flow.probe", *k as u64, |_| {
                flow.local_connectivity_budgeted(source, sink, *k, &budget)
            });
            std::hint::black_box(answer.ok());
            ran += 1;
        }
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc::enumerate_kvccs;
    use kvcc_graph::UndirectedGraph;
    use std::time::Instant;

    /// Two 5-cliques sharing two vertices: at k = 3 a 2-vertex cut splits
    /// them, so the re-drive has to partition.
    #[test]
    fn redrive_matches_the_enumerator_and_its_counters() {
        let mut edges = Vec::new();
        for block in [[0u32, 1, 2, 3, 4], [3, 4, 5, 6, 7]] {
            for (i, &a) in block.iter().enumerate() {
                for &b in &block[i + 1..] {
                    edges.push((a, b));
                }
            }
        }
        let g = UndirectedGraph::from_edges(8, edges).unwrap();
        let options = KvccOptions::default();
        for k in 1..=4 {
            let expected = enumerate_kvccs(&g, k, &options).unwrap();
            let mut tracer = Tracer::new(Instant::now(), 0, true);
            let mut rd = Redriver::new(options.clone());
            let got = rd.enumerate(&g, k, &mut tracer).unwrap();
            assert_eq!(got, expected.components(), "k = {k}");
            let lib = expected.stats();
            assert_eq!(rd.stats.global_cut_calls, lib.global_cut_calls);
            assert_eq!(rd.stats.partitions, lib.partitions);
            assert_eq!(rd.stats.loc_cut_flow_calls, lib.loc_cut_flow_calls);
            assert_eq!(rd.stats.work_items_executed, lib.work_items_executed);
            assert_eq!(rd.stats.kcore_removed_vertices, lib.kcore_removed_vertices);
        }
    }
}
