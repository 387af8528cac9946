//! Cross-checks of the optimised enumerator against independent oracles:
//! the brute-force subset oracle on tiny random graphs and Tarjan's
//! biconnected components for the k = 2 case. The biconnected components,
//! which also give the index its level 2, are checked against their
//! definition on the same tiny graphs.

use kvcc::{enumerate_kvccs, KvccOptions};
use kvcc_baselines::bicc::{biconnected_components, two_vccs};
use kvcc_baselines::naive_kvccs;
use kvcc_datasets::er::{gnm, gnp};
use kvcc_graph::{UndirectedGraph, VertexId};

fn sorted_components(result: &kvcc::KvccResult) -> Vec<Vec<VertexId>> {
    let mut comps: Vec<Vec<VertexId>> = result.iter().map(|c| c.vertices().to_vec()).collect();
    comps.sort();
    comps
}

/// The blocks of a tiny graph by their definition: the maximal vertex sets
/// that induce one edge (a bridge), or at least three vertices that stay
/// connected when any one of them is removed. Sorted as
/// [`biconnected_components`] sorts its output.
fn blocks_by_definition(g: &UndirectedGraph) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    assert!(n <= 16, "subset oracle for tiny graphs only");
    let members = |mask: u32| (0..n as VertexId).filter(move |&v| mask >> v & 1 == 1);
    let connected = |mask: u32| {
        let Some(start) = members(mask).next() else {
            return false;
        };
        let mut seen = 1u32 << start;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &w in g.neighbors(u) {
                if mask >> w & 1 == 1 && seen >> w & 1 == 0 {
                    seen |= 1 << w;
                    stack.push(w);
                }
            }
        }
        seen == mask
    };
    let block_like = |mask: u32| match mask.count_ones() {
        0 | 1 => false,
        2 => connected(mask),
        _ => connected(mask) && members(mask).all(|v| connected(mask & !(1 << v))),
    };
    let mut candidates: Vec<u32> = (1..1u32 << n).filter(|&m| block_like(m)).collect();
    // Largest first: a set inside a larger candidate lies inside a maximal
    // one, which is kept before it is seen.
    candidates.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
    let mut maximal: Vec<u32> = Vec::new();
    for m in candidates {
        if !maximal.iter().any(|&b| b & m == m) {
            maximal.push(m);
        }
    }
    let mut blocks: Vec<Vec<VertexId>> =
        maximal.into_iter().map(|m| members(m).collect()).collect();
    blocks.sort();
    blocks
}

#[test]
fn matches_the_naive_oracle_on_tiny_random_graphs() {
    // 40 deterministic random graphs with 8-12 vertices, k in {2, 3, 4}.
    for seed in 0..40u64 {
        let n = 8 + (seed % 5) as usize;
        let p = 0.25 + 0.05 * (seed % 7) as f64;
        let g = gnp(n, p, seed);
        // Bridges included: Hopcroft–Tarjan against the definition.
        assert_eq!(
            biconnected_components(&g),
            blocks_by_definition(&g),
            "biconnected components (seed {seed}, n {n})"
        );
        for k in 2..=4u32 {
            let expected = naive_kvccs(&g, k);
            let result = enumerate_kvccs(&g, k, &KvccOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed} k {k}: {e}"));
            assert_eq!(
                sorted_components(&result),
                expected,
                "mismatch against the brute-force oracle (seed {seed}, n {n}, k {k})"
            );
        }
    }
}

#[test]
fn matches_biconnected_components_for_k_two() {
    // Larger sparse random graphs: the 2-VCCs must be exactly the biconnected
    // components with at least three vertices.
    for seed in 0..10u64 {
        let g = gnm(120, 180 + 10 * seed as usize, seed);
        let expected = two_vccs(&g);
        let result = enumerate_kvccs(&g, 2, &KvccOptions::default()).unwrap();
        assert_eq!(
            sorted_components(&result),
            expected,
            "2-VCCs must equal biconnected components (seed {seed})"
        );
    }
}

#[test]
fn matches_oracle_on_structured_graphs() {
    // Wheel graph: hub 0 plus cycle 1..=8. The whole wheel is 3-connected.
    let mut edges: Vec<(VertexId, VertexId)> = (1..=8).map(|i| (0, i)).collect();
    for i in 1..=8u32 {
        edges.push((i, if i == 8 { 1 } else { i + 1 }));
    }
    let wheel = UndirectedGraph::from_edges(9, edges).unwrap();
    for k in 1..=4u32 {
        let expected = naive_kvccs(&wheel, k);
        let result = enumerate_kvccs(&wheel, k, &KvccOptions::default()).unwrap();
        assert_eq!(sorted_components(&result), expected, "wheel graph, k = {k}");
    }

    // Two K5 blocks sharing 3 vertices: 4-VCCs are the blocks, 3-VCC is the
    // union (removing the 3 shared vertices disconnects, so the union is not
    // 4-connected but it is 3-connected).
    let mut edges = Vec::new();
    for block in [[0u32, 1, 2, 3, 4], [2u32, 3, 4, 5, 6]] {
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push((block[i], block[j]));
            }
        }
    }
    let blocks = UndirectedGraph::from_edges(7, edges).unwrap();
    for k in 2..=4u32 {
        let expected = naive_kvccs(&blocks, k);
        let result = enumerate_kvccs(&blocks, k, &KvccOptions::default()).unwrap();
        assert_eq!(
            sorted_components(&result),
            expected,
            "shared-triple blocks, k = {k}"
        );
    }
}

#[test]
fn basic_variant_matches_oracle_too() {
    // The un-optimised VCCE variant must of course agree with the oracle as
    // well; this guards the shared framework rather than the sweeps.
    for seed in 100..115u64 {
        let g = gnp(10, 0.35, seed);
        for k in 2..=3u32 {
            let expected = naive_kvccs(&g, k);
            let result = enumerate_kvccs(&g, k, &KvccOptions::basic()).unwrap();
            assert_eq!(sorted_components(&result), expected, "seed {seed}, k {k}");
        }
    }
}
