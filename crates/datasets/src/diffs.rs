//! Deterministic edge-update streams for the mutable-graph workload.
//!
//! The dynamic experiments replay a sequence of batched edge updates against
//! a loaded graph and compare incremental index maintenance
//! (`ConnectivityIndex::apply_updates`) with full rebuilds. The stream
//! generator here is **replay-aware**: it tracks the evolving graph in a
//! [`DeltaGraph`] mirror while generating, so every emitted delete removes an
//! edge that is actually present at that point of the replay and every
//! emitted insert adds a pair that is actually absent. Redundant no-op
//! updates never occur by construction (asserted in the tests), which keeps
//! the measured repair work honest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvcc_graph::{CsrGraph, DeltaGraph, EdgeUpdate, GraphView, VertexId};

/// Shape of a generated update stream. Deterministic for a fixed `seed`.
#[derive(Clone, Copy, Debug)]
pub struct DiffStreamConfig {
    /// Number of batches in the stream.
    pub batches: usize,
    /// Updates per batch (a batch may come out shorter on graphs too small
    /// or too dense to satisfy it — see [`diff_stream`]).
    pub batch_size: usize,
    /// Fraction of each batch that deletes a present edge; the rest inserts
    /// absent pairs. Clamped to `[0, 1]`.
    pub delete_fraction: f64,
    /// Fraction of the inserts drawn by triadic closure — the new edge joins
    /// a vertex to one of its current two-hop neighbours, the way real
    /// social and collaboration networks grow. Closure inserts never leave
    /// the endpoint's connected component and usually stay inside its
    /// community, which keeps the incremental repair local; the remaining
    /// `1 - locality` inserts pick uniform absent pairs (and may bridge
    /// components). Clamped to `[0, 1]`.
    pub locality: f64,
    /// RNG seed; two streams with equal configs are identical.
    pub seed: u64,
}

impl Default for DiffStreamConfig {
    fn default() -> Self {
        DiffStreamConfig {
            batches: 8,
            batch_size: 32,
            delete_fraction: 0.3,
            locality: 0.0,
            seed: 0xD1FF,
        }
    }
}

/// How many random draws one update slot may burn before it is abandoned.
/// Prevents livelock on degenerate graphs (empty ones have no edge to
/// delete, near-complete ones no pair to insert).
const ATTEMPTS_PER_SLOT: usize = 64;

/// Generates a batched edge-update stream over `graph`, replaying its own
/// effects while generating (see the module docs). Every update is
/// guaranteed non-redundant at its position in the stream: deletes hit
/// present edges, inserts create absent ones, and no update is a self-loop.
///
/// Batches may be shorter than [`DiffStreamConfig::batch_size`] when the
/// evolving graph cannot supply the requested operation (nothing left to
/// delete, or no absent pair found within the attempt budget).
pub fn diff_stream<G: GraphView>(graph: &G, config: &DiffStreamConfig) -> Vec<Vec<EdgeUpdate>> {
    let n = graph.num_vertices();
    let mut stream = Vec::with_capacity(config.batches);
    if n < 2 {
        stream.resize(config.batches, Vec::new());
        return stream;
    }
    let delete_fraction = config.delete_fraction.clamp(0.0, 1.0);
    let locality = config.locality.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut mirror = DeltaGraph::new(CsrGraph::from_view(graph));
    for _ in 0..config.batches {
        let mut batch = Vec::with_capacity(config.batch_size);
        for _ in 0..config.batch_size {
            let want_delete = rng.gen::<f64>() < delete_fraction;
            let update = if want_delete {
                pick_present_edge(&mirror, n, &mut rng).map(|(u, v)| EdgeUpdate::delete(u, v))
            } else {
                let pair = if rng.gen::<f64>() < locality {
                    pick_closure_pair(&mirror, n, &mut rng)
                } else {
                    pick_absent_pair(&mirror, n, &mut rng)
                };
                pair.map(|(u, v)| EdgeUpdate::insert(u, v))
            };
            if let Some(update) = update {
                let applied = mirror.apply_update(update).expect("endpoints in range");
                debug_assert!(applied, "generated update must not be redundant");
                batch.push(update);
            }
        }
        stream.push(batch);
    }
    stream
}

/// A uniformly random live edge of the mirror, or `None` when the attempt
/// budget runs out (e.g. the graph has become empty).
fn pick_present_edge(
    mirror: &DeltaGraph,
    n: usize,
    rng: &mut StdRng,
) -> Option<(VertexId, VertexId)> {
    for _ in 0..ATTEMPTS_PER_SLOT {
        let u = rng.gen_range(0..n as VertexId);
        let degree = mirror.degree(u);
        if degree == 0 {
            continue;
        }
        let v = mirror.neighbors(u)[rng.gen_range(0..degree)];
        return Some((u, v));
    }
    None
}

/// A random triadic-closure pair: a vertex and one of its current two-hop
/// neighbours it is not yet adjacent to. Such a pair always lies inside one
/// connected component of the mirror. `None` when the attempt budget runs
/// out (e.g. every two-hop neighbourhood is already a clique).
fn pick_closure_pair(
    mirror: &DeltaGraph,
    n: usize,
    rng: &mut StdRng,
) -> Option<(VertexId, VertexId)> {
    for _ in 0..ATTEMPTS_PER_SLOT {
        let u = rng.gen_range(0..n as VertexId);
        let degree = mirror.degree(u);
        if degree == 0 {
            continue;
        }
        let w = mirror.neighbors(u)[rng.gen_range(0..degree)];
        let w_degree = mirror.degree(w);
        if w_degree == 0 {
            continue;
        }
        let v = mirror.neighbors(w)[rng.gen_range(0..w_degree)];
        if u == v || mirror.neighbors(u).binary_search(&v).is_ok() {
            continue;
        }
        return Some((u, v));
    }
    None
}

/// A uniformly random non-adjacent pair, or `None` when the attempt budget
/// runs out (e.g. the graph has become complete).
fn pick_absent_pair(
    mirror: &DeltaGraph,
    n: usize,
    rng: &mut StdRng,
) -> Option<(VertexId, VertexId)> {
    for _ in 0..ATTEMPTS_PER_SLOT {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v || mirror.neighbors(u).binary_search(&v).is_ok() {
            continue;
        }
        return Some((u, v));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planted::{planted_communities, PlantedConfig};
    use kvcc_graph::UndirectedGraph;

    fn planted() -> UndirectedGraph {
        planted_communities(&PlantedConfig {
            num_communities: 3,
            background_vertices: 60,
            seed: 5,
            ..PlantedConfig::default()
        })
        .graph
    }

    #[test]
    fn streams_are_deterministic() {
        let g = planted();
        let config = DiffStreamConfig::default();
        assert_eq!(diff_stream(&g, &config), diff_stream(&g, &config));
        let reseeded = DiffStreamConfig { seed: 1, ..config };
        assert_ne!(diff_stream(&g, &config), diff_stream(&g, &reseeded));
    }

    #[test]
    fn no_update_in_a_stream_is_redundant() {
        let g = planted();
        let stream = diff_stream(
            &g,
            &DiffStreamConfig {
                batches: 6,
                batch_size: 40,
                delete_fraction: 0.5,
                locality: 0.4,
                seed: 99,
            },
        );
        assert_eq!(stream.len(), 6);
        let mut replay = DeltaGraph::new(CsrGraph::from_view(&g));
        for batch in &stream {
            assert!(!batch.is_empty());
            let stats = replay.apply(batch).unwrap();
            assert_eq!(
                stats.redundant, 0,
                "the generator promises non-redundant updates"
            );
            assert_eq!(stats.inserted + stats.deleted, batch.len());
        }
    }

    #[test]
    fn full_locality_inserts_never_bridge_components() {
        // Two disjoint triangles plus an extra vertex each: with
        // `locality: 1.0`, every insert must stay inside the component it
        // started in — the two components can never merge.
        let g = UndirectedGraph::from_edges(
            8,
            vec![
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (4, 6),
                (6, 7),
            ],
        )
        .unwrap();
        let component = |v: VertexId| usize::from(v >= 4);
        let stream = diff_stream(
            &g,
            &DiffStreamConfig {
                batches: 4,
                batch_size: 12,
                delete_fraction: 0.0,
                locality: 1.0,
                seed: 21,
            },
        );
        let mut total = 0usize;
        for batch in &stream {
            for update in batch {
                assert_eq!(
                    component(update.u),
                    component(update.v),
                    "closure insert {update:?} bridged the two components"
                );
                total += 1;
            }
        }
        assert!(total > 0, "the closure picker must produce inserts");
    }

    #[test]
    fn degenerate_graphs_terminate() {
        // No vertices / one vertex: empty batches, no livelock.
        let empty = UndirectedGraph::from_edges(0, Vec::new()).unwrap();
        let config = DiffStreamConfig::default();
        assert!(diff_stream(&empty, &config).iter().all(Vec::is_empty));
        // A complete graph cannot take inserts; deletes still flow.
        let k4 =
            UndirectedGraph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
                .unwrap();
        let stream = diff_stream(
            &k4,
            &DiffStreamConfig {
                batches: 2,
                batch_size: 4,
                delete_fraction: 1.0,
                locality: 0.0,
                seed: 3,
            },
        );
        let total: usize = stream.iter().map(Vec::len).sum();
        assert!(total <= 6, "cannot delete more edges than exist");
    }
}
