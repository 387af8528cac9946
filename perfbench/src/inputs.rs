//! Seeded input generators. Everything the program under test sees is
//! derived here from the `--seed` argument, so a seed names its inputs.

use std::io::Write as _;

use kvcc::RankBy;
use kvcc_datasets::{diff_stream, DiffStreamConfig, StreamConfig, SuiteDataset, SuiteScale};
use kvcc_graph::{CsrGraph, EdgeUpdate, UndirectedGraph, VertexId};

/// `splitmix64` over `(seed, salt)`: independent streams per purpose.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small splitmix64 generator (the harness owns its randomness, so the
/// query mix does not depend on any library's RNG).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// The `batch` input: a community ring, 32 communities of the
/// `StreamConfig::million()` shape (16,384 vertices), or the tiny preset in
/// smoke mode. The seed and the variant number move every chord and bridge;
/// variant 0 is the seed's main ring.
///
/// At 64 communities a k = 4 probe's flow network no longer fits in cache
/// (33 ms per probe against 10 ms here), and the k = 4 time then moved by
/// more than a quarter between runs on a shared 2-vCPU machine.
pub fn ring_config(seed: u64, variant: u64, smoke: bool) -> StreamConfig {
    let base = if smoke {
        StreamConfig::tiny()
    } else {
        StreamConfig {
            communities: 32,
            ..StreamConfig::million()
        }
    };
    StreamConfig {
        seed: mix(mix(seed, 1), variant),
        ..base
    }
}

/// The ring as edge-list text, the form an analyst would hand over.
pub fn ring_text(config: &StreamConfig) -> Vec<u8> {
    let mut text = Vec::with_capacity(config.num_edge_lines() * 14);
    config
        .write(&mut text)
        .expect("writing to a Vec cannot fail");
    text
}

/// The `serve`/`churn` graph: the DBLP stand-in of Table 1.
pub fn dblp_scale(smoke: bool) -> SuiteScale {
    if smoke {
        SuiteScale::Tiny
    } else {
        SuiteScale::Small
    }
}

/// The DBLP stand-in as edge-list text. The generator is fixed, so this is
/// the same for every seed; the seed moves the traffic instead.
pub fn dblp_text(scale: SuiteScale) -> Vec<u8> {
    edge_list_text(&SuiteDataset::Dblp.generate(scale))
}

fn edge_list_text(graph: &UndirectedGraph) -> Vec<u8> {
    let mut text = Vec::new();
    for u in 0..graph.num_vertices() as VertexId {
        for &v in graph.neighbors(u) {
            if u < v {
                writeln!(text, "{u}\t{v}").expect("writing to a Vec cannot fail");
            }
        }
    }
    text
}

/// One client-side read: a single query, or a `TopKComponents` walk that
/// follows `pages` cursors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOp {
    Containing {
        seed: VertexId,
        k: u32,
    },
    MaxConnectivity {
        u: VertexId,
        v: VertexId,
    },
    ConnectivityNumber {
        v: VertexId,
    },
    TopK {
        rank_by: RankBy,
        page_size: u32,
        pages: u32,
    },
}

/// The seeded read mix of `serve` and `churn`.
///
/// Taken from the request pool behind `BENCH_pr10.json`
/// (`crates/bench/src/pr10.rs`), restricted to its four index-served kinds:
/// three containment queries to one pairwise connectivity, one connectivity
/// number and one top-k page, the page ranked by size, 8 per page.
///
/// Assumed, since no traffic record exists yet: containment levels uniform
/// over the index's levels, vertices from a 32-vertex hot set 60% of the
/// time and uniformly from the graph otherwise, and top-k walks of 1 to
/// `max_pages` pages. The run reports the share of reads that repeat an
/// earlier request, the quantity these choices set.
#[derive(Clone, Debug)]
pub struct ReadMix {
    rng: Rng,
    hot: Vec<VertexId>,
    num_vertices: u64,
    max_k: u32,
    max_pages: u32,
}

const HOT_SET: usize = 32;
const HOT_SHARE: f64 = 0.6;
const PAGE_SIZE: u32 = 8;

impl ReadMix {
    /// The read mix of the run seeded by `seed`.
    pub fn new(seed: u64, num_vertices: usize, max_k: u32, max_pages: u32) -> Self {
        let mut hot_rng = Rng::new(mix(seed, 2));
        let hot = (0..HOT_SET)
            .map(|_| hot_rng.below(num_vertices as u64) as VertexId)
            .collect();
        ReadMix {
            rng: Rng::new(mix(seed, 100)),
            hot,
            num_vertices: num_vertices as u64,
            max_k: max_k.max(1),
            max_pages: max_pages.max(1),
        }
    }

    fn vertex(&mut self) -> VertexId {
        if self.rng.chance(HOT_SHARE) {
            self.hot[self.rng.below(self.hot.len() as u64) as usize]
        } else {
            self.rng.below(self.num_vertices) as VertexId
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        match self.rng.below(6) {
            0..=2 => ReadOp::Containing {
                seed: self.vertex(),
                k: 1 + self.rng.below(self.max_k as u64) as u32,
            },
            3 => ReadOp::MaxConnectivity {
                u: self.vertex(),
                v: self.vertex(),
            },
            4 => ReadOp::ConnectivityNumber { v: self.vertex() },
            _ => ReadOp::TopK {
                rank_by: RankBy::Size,
                page_size: PAGE_SIZE,
                pages: 1 + self.rng.below(self.max_pages as u64) as u32,
            },
        }
    }
}

/// The `churn` write stream: 16-update batches of triadic-closure inserts
/// and deletes, replay-valid against `graph`. The 35% delete share is the
/// one of the update streams behind `BENCH_pr9.json`.
pub fn update_batches(graph: &CsrGraph, seed: u64, batches: usize) -> Vec<Vec<EdgeUpdate>> {
    diff_stream(
        graph,
        &DiffStreamConfig {
            batches,
            batch_size: 16,
            delete_fraction: 0.35,
            locality: 1.0,
            seed: mix(seed, 3),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_mix_repeats_per_seed_and_moves_with_it() {
        let ops = |seed| {
            let mut mix = ReadMix::new(seed, 1000, 40, 4);
            (0..200).map(|_| mix.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(1), ops(1));
        assert_ne!(ops(1), ops(2));
        // Every kind shows up, and levels stay in range.
        let sample = ops(3);
        assert!(sample.iter().any(|o| matches!(o, ReadOp::TopK { .. })));
        assert!(sample
            .iter()
            .any(|o| matches!(o, ReadOp::ConnectivityNumber { .. })));
        assert!(sample
            .iter()
            .all(|o| !matches!(o, ReadOp::Containing { k, .. } if *k == 0 || *k > 40)));
    }

    #[test]
    fn ring_and_updates_repeat_per_seed() {
        let a = ring_text(&ring_config(5, 0, true));
        assert_eq!(a, ring_text(&ring_config(5, 0, true)));
        assert_ne!(a, ring_text(&ring_config(6, 0, true)));
        assert_ne!(a, ring_text(&ring_config(5, 1, true)));
        assert_eq!(ring_config(5, 0, false).num_vertices(), 16_384);

        let graph = CsrGraph::from_view(&SuiteDataset::Dblp.generate(SuiteScale::Tiny));
        let first = update_batches(&graph, 9, 3);
        assert_eq!(first, update_batches(&graph, 9, 3));
        assert_ne!(first, update_batches(&graph, 10, 3));
        assert!(first.iter().all(|batch| batch.len() == 16));
    }

    #[test]
    fn rng_bounds() {
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| rng.below(7) < 7));
        let heads = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&heads), "{heads}");
    }
}
