//! Stand-ins for the seven evaluation datasets of Table 1.
//!
//! The original graphs (Stanford, DBLP, Cnr, ND, Google, Youtube, Cit) are
//! SNAP downloads that cannot ship with the repository, so each dataset is
//! replaced by a deterministic synthetic graph with the same *structural
//! fingerprint* at a laptop-friendly scale:
//!
//! * a scale-free background (copying model for the web crawls, preferential
//!   attachment for the social/collaboration/citation graphs) that the k-core
//!   pruning largely removes, exactly like the periphery of the real graphs;
//! * chains of overlapping, guaranteed k-connected blocks planted at several
//!   connectivity levels, so that the number of k-VCCs decreases as `k` grows
//!   (the Fig. 11 trend) and the enumerator must perform overlapped
//!   partitions.
//!
//! Real SNAP files can be substituted at any time through
//! `kvcc_graph::io::read_snap_edge_list`; every benchmark harness accepts
//! either source.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kvcc_graph::{GraphBuilder, GraphView, UndirectedGraph, VertexId};

use crate::ba::barabasi_albert;
use crate::harary::harary;
use crate::webgraph::{copying_model, CopyingModelConfig};

/// How large the generated stand-ins are.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SuiteScale {
    /// A few hundred background vertices and low-connectivity blocks; meant
    /// for unit/integration tests (k values around 4–12).
    Tiny,
    /// A few thousand background vertices with blocks planted at connectivity
    /// 22–42, matching the paper's k = 20..40 sweeps. Default for benchmarks.
    #[default]
    Small,
    /// Tens of thousands of background vertices; for longer benchmark runs.
    Medium,
}

impl SuiteScale {
    fn background_vertices(self) -> usize {
        match self {
            SuiteScale::Tiny => 600,
            SuiteScale::Small => 6_000,
            SuiteScale::Medium => 30_000,
        }
    }

    fn chains_per_level(self) -> usize {
        match self {
            SuiteScale::Tiny => 1,
            SuiteScale::Small => 2,
            SuiteScale::Medium => 4,
        }
    }

    /// The connectivity levels at which dense blocks are planted.
    pub fn connectivity_levels(self) -> &'static [usize] {
        match self {
            SuiteScale::Tiny => &[6, 9, 12],
            SuiteScale::Small | SuiteScale::Medium => &[22, 30, 42],
        }
    }

    /// The k values the efficiency experiments sweep over at this scale
    /// (the paper uses 20, 25, 30, 35, 40).
    pub fn efficiency_k_values(self) -> &'static [u32] {
        match self {
            SuiteScale::Tiny => &[4, 6, 8, 10, 12],
            SuiteScale::Small | SuiteScale::Medium => &[20, 25, 30, 35, 40],
        }
    }

    /// The k values the effectiveness experiments (Figs. 7–9) sweep over.
    pub fn effectiveness_k_values(self) -> &'static [u32] {
        match self {
            SuiteScale::Tiny => &[3, 4, 5, 6],
            SuiteScale::Small | SuiteScale::Medium => &[15, 18, 21, 24],
        }
    }
}

/// The seven datasets of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SuiteDataset {
    /// `Stanford` web graph stand-in.
    Stanford,
    /// `DBLP` co-authorship stand-in.
    Dblp,
    /// `Cnr` web crawl stand-in (the densest dataset).
    Cnr,
    /// `ND` (Notre Dame) web graph stand-in.
    NotreDame,
    /// `Google` web graph stand-in.
    Google,
    /// `Youtube` social network stand-in.
    Youtube,
    /// `Cit` (patent citation) stand-in.
    Cit,
}

/// Per-dataset generation knobs.
struct DatasetProfile {
    name: &'static str,
    web_like: bool,
    background_degree: usize,
    copy_probability: f64,
    chain_multiplier: f64,
    /// Overlapping blocks per planted chain (longer chains ⇒ more partitions).
    blocks_per_chain: usize,
    seed: u64,
}

impl SuiteDataset {
    /// All seven datasets in the order of Table 1.
    pub fn all() -> [SuiteDataset; 7] {
        [
            SuiteDataset::Stanford,
            SuiteDataset::Dblp,
            SuiteDataset::Cnr,
            SuiteDataset::NotreDame,
            SuiteDataset::Google,
            SuiteDataset::Youtube,
            SuiteDataset::Cit,
        ]
    }

    /// The four datasets the paper uses for the effectiveness study
    /// (Figs. 7–9): Youtube, DBLP, Google and Cnr.
    pub fn effectiveness_subset() -> [SuiteDataset; 4] {
        [
            SuiteDataset::Youtube,
            SuiteDataset::Dblp,
            SuiteDataset::Google,
            SuiteDataset::Cnr,
        ]
    }

    /// The six datasets the paper uses for the efficiency study (Fig. 10).
    pub fn efficiency_subset() -> [SuiteDataset; 6] {
        [
            SuiteDataset::Stanford,
            SuiteDataset::Dblp,
            SuiteDataset::NotreDame,
            SuiteDataset::Google,
            SuiteDataset::Cit,
            SuiteDataset::Cnr,
        ]
    }

    fn profile(self) -> DatasetProfile {
        match self {
            SuiteDataset::Stanford => DatasetProfile {
                name: "Stanford",
                web_like: true,
                background_degree: 8,
                copy_probability: 0.65,
                chain_multiplier: 1.2,
                blocks_per_chain: 3,
                seed: 0x51,
            },
            SuiteDataset::Dblp => DatasetProfile {
                name: "DBLP",
                web_like: false,
                background_degree: 3,
                copy_probability: 0.0,
                chain_multiplier: 1.0,
                blocks_per_chain: 4,
                seed: 0xD8,
            },
            SuiteDataset::Cnr => DatasetProfile {
                name: "Cnr",
                web_like: true,
                background_degree: 10,
                copy_probability: 0.75,
                chain_multiplier: 1.5,
                blocks_per_chain: 3,
                seed: 0xC2,
            },
            SuiteDataset::NotreDame => DatasetProfile {
                name: "ND",
                web_like: true,
                background_degree: 5,
                copy_probability: 0.6,
                chain_multiplier: 0.8,
                blocks_per_chain: 2,
                seed: 0x4D,
            },
            SuiteDataset::Google => DatasetProfile {
                name: "Google",
                web_like: true,
                background_degree: 6,
                copy_probability: 0.65,
                chain_multiplier: 1.2,
                blocks_per_chain: 5,
                seed: 0x60,
            },
            SuiteDataset::Youtube => DatasetProfile {
                name: "Youtube",
                web_like: false,
                background_degree: 4,
                copy_probability: 0.0,
                chain_multiplier: 0.6,
                blocks_per_chain: 3,
                seed: 0x17,
            },
            SuiteDataset::Cit => DatasetProfile {
                name: "Cit",
                web_like: false,
                background_degree: 5,
                copy_probability: 0.0,
                chain_multiplier: 1.0,
                blocks_per_chain: 2,
                seed: 0xC1,
            },
        }
    }

    /// The dataset name as it appears in the paper's tables and figures.
    pub fn name(self) -> &'static str {
        self.profile().name
    }

    /// Generates the stand-in graph at the requested scale. Deterministic.
    pub fn generate(self, scale: SuiteScale) -> UndirectedGraph {
        let profile = self.profile();
        let mut rng = StdRng::seed_from_u64(profile.seed ^ 0xBEEF_0000 ^ scale_tag(scale));

        // 1. Scale-free background.
        let n_bg = scale.background_vertices();
        let background = if profile.web_like {
            copying_model(&CopyingModelConfig {
                num_vertices: n_bg,
                links_per_vertex: profile.background_degree,
                copy_probability: profile.copy_probability,
                seed: profile.seed,
            })
        } else {
            barabasi_albert(n_bg, profile.background_degree, profile.seed)
        };
        let mut builder = GraphBuilder::new().with_vertices(n_bg);
        builder.extend_edges(background.edges());

        // 2. Planted chains of overlapping k-connected blocks.
        let mut next = n_bg as VertexId;
        for (level_idx, &level) in scale.connectivity_levels().iter().enumerate() {
            let chains = ((scale.chains_per_level() as f64) * profile.chain_multiplier)
                .round()
                .max(1.0) as usize;
            let mut chain_ranges: Vec<(VertexId, VertexId)> = Vec::with_capacity(chains);
            for chain in 0..chains {
                let start = next;
                next = add_chain(
                    &mut builder,
                    &mut rng,
                    next,
                    n_bg,
                    level,
                    profile.blocks_per_chain,
                    (level + 6, level * 2), // block size range
                    level / 2,              // overlap between consecutive blocks
                    (level_idx + chain) as u64,
                );
                chain_ranges.push((start, next));
            }
            // 3. Weak bundles: consecutive chains of the same level are joined
            // by a handful of edges (fewer than the level). The k-core keeps
            // both chains in one component, but both the k-ECC and the k-VCC
            // models cut through the bundle — this reproduces the G3/G4 seam
            // of Fig. 1 at dataset scale and is what makes the k-CC and k-ECC
            // columns of Figs. 7-9 differ.
            let bundle = level / 4 + 2;
            for pair in chain_ranges.windows(2) {
                for _ in 0..bundle {
                    let a = rng.gen_range(pair[0].0..pair[0].1);
                    let b = rng.gen_range(pair[1].0..pair[1].1);
                    builder.add_edge(a, b);
                }
            }
        }
        builder.build()
    }
}

fn scale_tag(scale: SuiteScale) -> u64 {
    match scale {
        SuiteScale::Tiny => 0x1000,
        SuiteScale::Small => 0x2000,
        SuiteScale::Medium => 0x3000,
    }
}

/// Adds one chain of `blocks` overlapping `level`-connected blocks, returning
/// the next free vertex id.
#[allow(clippy::too_many_arguments)]
fn add_chain(
    builder: &mut GraphBuilder,
    rng: &mut StdRng,
    mut next: VertexId,
    background_vertices: usize,
    level: usize,
    blocks: usize,
    size_range: (usize, usize),
    overlap: usize,
    _salt: u64,
) -> VertexId {
    let mut previous_tail: Vec<VertexId> = Vec::new();
    for position in 0..blocks {
        let size = rng.gen_range(size_range.0..=size_range.1);
        let shared: Vec<VertexId> = if position == 0 {
            Vec::new()
        } else {
            previous_tail
                .iter()
                .copied()
                .take(overlap.min(level.saturating_sub(1)))
                .collect()
        };
        let fresh = size - shared.len();
        let mut members = shared;
        members.extend((0..fresh).map(|i| next + i as VertexId));
        next += fresh as VertexId;

        // Harary skeleton guarantees `level`-connectivity; extra random edges
        // give the block a realistic internal density.
        let skeleton = harary(level, members.len());
        for (a, b) in skeleton.edges() {
            builder.add_edge(members[a as usize], members[b as usize]);
        }
        for _ in 0..members.len() * 2 {
            let a = rng.gen_range(0..members.len());
            let b = rng.gen_range(0..members.len());
            if a != b {
                builder.add_edge(members[a], members[b]);
            }
        }
        // Loose attachment to the background.
        if background_vertices > 0 {
            for _ in 0..3 {
                let inside = members[rng.gen_range(0..members.len())];
                let outside = rng.gen_range(0..background_vertices as VertexId);
                builder.add_edge(inside, outside);
            }
        }
        previous_tail = members[members.len().saturating_sub(level)..].to_vec();
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dataset_generates_at_tiny_scale() {
        for dataset in SuiteDataset::all() {
            let g = dataset.generate(SuiteScale::Tiny);
            assert!(g.num_vertices() > 600, "{} too small", dataset.name());
            assert!(
                g.num_edges() > g.num_vertices(),
                "{} too sparse",
                dataset.name()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SuiteDataset::Dblp.generate(SuiteScale::Tiny);
        let b = SuiteDataset::Dblp.generate(SuiteScale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn datasets_differ_from_each_other() {
        let a = SuiteDataset::Stanford.generate(SuiteScale::Tiny);
        let b = SuiteDataset::Cnr.generate(SuiteScale::Tiny);
        assert_ne!(a, b);
        assert_ne!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn planted_blocks_survive_kcore_pruning() {
        // At every planted connectivity level, the k-core for k = level must be
        // non-empty (the blocks guarantee it).
        let g = SuiteDataset::Google.generate(SuiteScale::Tiny);
        for &level in SuiteScale::Tiny.connectivity_levels() {
            let core = kvcc_graph::kcore::k_core_vertices(&g, level);
            assert!(
                core.len() > level,
                "k-core at level {level} should contain the planted blocks"
            );
        }
    }

    #[test]
    fn names_and_subsets() {
        assert_eq!(SuiteDataset::all().len(), 7);
        assert_eq!(SuiteDataset::efficiency_subset().len(), 6);
        assert_eq!(SuiteDataset::effectiveness_subset().len(), 4);
        assert_eq!(SuiteDataset::NotreDame.name(), "ND");
        assert_eq!(
            SuiteScale::Small.efficiency_k_values(),
            &[20, 25, 30, 35, 40]
        );
        assert_eq!(SuiteScale::default(), SuiteScale::Small);
    }
}
