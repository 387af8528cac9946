//! Deterministic SNAP-scale edge-list generation that streams to disk.
//!
//! The ingestion bench needs a million-edge graph, but the whole point of
//! the streaming loader is that such graphs should never have to fit in a
//! `Vec<(u64, u64)>` first. This generator therefore writes the edge list
//! line by line through a `BufWriter` in O(1) memory: a ring of dense
//! communities (each a circulant, so every community is provably
//! well-connected, the same trick the planted generator plays with Harary
//! skeletons), plus seeded pseudo-random intra-community chords and
//! inter-community bridges. Everything derives from `splitmix64` streams
//! keyed by `(seed, community)`, so the output is byte-for-byte reproducible
//! and independent of write order or platform.
//!
//! A second entry point, [`StreamConfig::edges`], yields the same edges as
//! an iterator so tests (and the in-memory differential path of the bench)
//! can consume the graph without touching the filesystem.

use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Shape of a streamed community-ring graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Number of communities arranged in a ring.
    pub communities: usize,
    /// Vertices per community.
    pub community_size: usize,
    /// Each vertex connects to its `s` nearest ring neighbours on each side
    /// within its community (circulant skeleton, degree `2s`).
    pub skeleton_span: usize,
    /// Seeded random chords added inside each community.
    pub extra_intra: usize,
    /// Seeded random bridges from each community to the next one on the ring.
    pub bridges: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl StreamConfig {
    /// The ingestion-bench preset: ~1.06M edge lines over ~131k vertices
    /// (256 communities × 512 vertices; circulant span 4 ⇒ 4 skeleton
    /// edges per vertex, plus 2048 chords and 64 bridges per community).
    pub fn million() -> Self {
        StreamConfig {
            communities: 256,
            community_size: 512,
            skeleton_span: 4,
            extra_intra: 2048,
            bridges: 64,
            seed: 0x1cde_2019,
        }
    }

    /// A ~3k-edge miniature of the same shape for tests.
    pub fn tiny() -> Self {
        StreamConfig {
            communities: 8,
            community_size: 64,
            skeleton_span: 2,
            extra_intra: 32,
            bridges: 8,
            seed: 7,
        }
    }

    /// Total vertex count.
    pub fn num_vertices(&self) -> usize {
        self.communities * self.community_size
    }

    /// Number of edge **lines** the generator emits (before the loader's
    /// deduplication; the random chords may repeat skeleton edges).
    pub fn num_edge_lines(&self) -> usize {
        self.communities * (self.community_size * self.skeleton_span + self.extra_intra)
            + if self.communities > 1 {
                self.communities * self.bridges
            } else {
                0
            }
    }

    /// All edge lines, in emission order, as `(u, v)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let cfg = *self;
        (0..self.communities).flat_map(move |c| CommunityEdges::new(cfg, c))
    }

    /// Streams the edge list to `writer`, one `u v` line per edge, with a
    /// `#` header describing the shape. O(1) memory regardless of size.
    pub fn write<W: Write>(&self, writer: W) -> io::Result<()> {
        let mut w = BufWriter::new(writer);
        writeln!(
            w,
            "# streamed community ring: {} communities x {} vertices, {} edge lines, seed {}",
            self.communities,
            self.community_size,
            self.num_edge_lines(),
            self.seed
        )?;
        for (u, v) in self.edges() {
            writeln!(w, "{u}\t{v}")?;
        }
        w.flush()
    }

    /// Streams the edge list to a file. See [`StreamConfig::write`].
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.write(std::fs::File::create(path)?)
    }
}

/// `splitmix64` — the tiny, high-quality mixing step used to derive all
/// pseudo-randomness here without a dependency on the `rand` shim.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    *state = z ^ (z >> 31);
}

/// Edge lines of one community: circulant skeleton, then seeded chords,
/// then seeded bridges to the next community on the ring.
struct CommunityEdges {
    cfg: StreamConfig,
    community: usize,
    /// PRNG state, keyed by `(seed, community)` so communities are
    /// independent streams.
    rng: u64,
    stage: usize,
    emitted_in_stage: usize,
}

impl CommunityEdges {
    fn new(cfg: StreamConfig, community: usize) -> Self {
        let mut rng = cfg.seed ^ ((community as u64) << 32) ^ 0x9e37_79b9;
        splitmix64(&mut rng);
        CommunityEdges {
            cfg,
            community,
            rng,
            stage: 0,
            emitted_in_stage: 0,
        }
    }

    fn next_random(&mut self) -> u64 {
        splitmix64(&mut self.rng);
        self.rng
    }

    fn base(&self) -> u64 {
        (self.community * self.cfg.community_size) as u64
    }
}

impl Iterator for CommunityEdges {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let size = self.cfg.community_size as u64;
        loop {
            match self.stage {
                // Stage 0: circulant skeleton — vertex i to i+d for
                // d in 1..=span (indices mod community size).
                0 => {
                    let per_vertex = self.cfg.skeleton_span;
                    let total = self.cfg.community_size * per_vertex;
                    if self.emitted_in_stage >= total {
                        self.stage = 1;
                        self.emitted_in_stage = 0;
                        continue;
                    }
                    let i = (self.emitted_in_stage / per_vertex) as u64;
                    let d = (self.emitted_in_stage % per_vertex) as u64 + 1;
                    self.emitted_in_stage += 1;
                    return Some((self.base() + i, self.base() + (i + d) % size));
                }
                // Stage 1: seeded random chords inside the community
                // (self-pairs skipped by redrawing deterministically).
                1 => {
                    if self.emitted_in_stage >= self.cfg.extra_intra {
                        self.stage = 2;
                        self.emitted_in_stage = 0;
                        continue;
                    }
                    self.emitted_in_stage += 1;
                    let mut a = self.next_random() % size;
                    let mut b = self.next_random() % size;
                    while a == b {
                        b = self.next_random() % size;
                        a = self.next_random() % size;
                    }
                    return Some((self.base() + a, self.base() + b));
                }
                // Stage 2: bridges to the next community on the ring.
                2 => {
                    if self.cfg.communities <= 1 || self.emitted_in_stage >= self.cfg.bridges {
                        self.stage = 3;
                        continue;
                    }
                    self.emitted_in_stage += 1;
                    let next_base = (((self.community + 1) % self.cfg.communities)
                        * self.cfg.community_size) as u64;
                    let a = self.next_random() % size;
                    let b = self.next_random() % size;
                    return Some((self.base() + a, next_base + b));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcc_graph::StreamingEdgeListLoader;

    #[test]
    fn edge_count_matches_the_formula_and_is_deterministic() {
        let cfg = StreamConfig::tiny();
        let edges: Vec<_> = cfg.edges().collect();
        assert_eq!(edges.len(), cfg.num_edge_lines());
        assert_eq!(edges, cfg.edges().collect::<Vec<_>>());
        // A different seed produces a different chord set.
        let other = StreamConfig { seed: 8, ..cfg };
        assert_ne!(edges, other.edges().collect::<Vec<_>>());
    }

    #[test]
    fn written_file_parses_to_a_connected_community_ring() {
        let cfg = StreamConfig::tiny();
        let path =
            std::env::temp_dir().join(format!("kvcc_stream_test_{}.txt", std::process::id()));
        cfg.write_file(&path).unwrap();
        let loaded = StreamingEdgeListLoader::new().load_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.graph.num_vertices(), cfg.num_vertices());
        assert!(loaded.graph.num_edges() > 0);
        assert_eq!(loaded.stats.self_loops, 0, "generator never emits loops");
        // The ring of bridges makes the whole graph one connected component.
        let components = kvcc_graph::traversal::connected_components(&loaded.graph);
        assert_eq!(components.len(), 1);
        // Skeleton guarantees minimum degree 2 * span within communities.
        let min_degree = (0..loaded.graph.num_vertices() as u32)
            .map(|v| loaded.graph.degree(v))
            .min()
            .unwrap();
        assert!(min_degree >= 2 * cfg.skeleton_span);
    }

    #[test]
    fn million_preset_is_snap_scale() {
        let cfg = StreamConfig::million();
        assert!(cfg.num_edge_lines() >= 1_000_000);
        assert!(cfg.num_vertices() >= 100_000);
    }
}
