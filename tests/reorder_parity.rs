//! Label invariance of the enumeration, plus the codec and bitset fuzzes.
//!
//! How vertices are labelled must be invisible to the enumeration: on the
//! planted-partition, Fig. 1 and collaboration suites (plus deterministic
//! random families), enumerating a relabelled [`CsrGraph`] — the hybrid
//! locality ordering and two seeded random shuffles — and mapping the output
//! back through the [`VertexOrdering`] must be **byte-identical** to the
//! baseline CSR enumeration. Randomized fuzzes of the varint delta codec
//! (round trips, plus adversarial, truncated and garbage inputs to its one
//! row decoder) and of the shared [`kvcc_graph::BitSet`] (against a
//! `Vec<bool>` model) ride along.

use kvcc::{enumerate_kvccs, KVertexConnectedComponent, KvccOptions};
use kvcc_datasets::ba::barabasi_albert;
use kvcc_datasets::collaboration::{collaboration_graph, CollaborationConfig};
use kvcc_datasets::er::gnm;
use kvcc_datasets::figure1::figure1_graph;
use kvcc_datasets::planted::{planted_communities, PlantedConfig};
use kvcc_graph::codec::{decode_row, encode_row, varint};
use kvcc_graph::reorder::{hybrid_ordering, VertexOrdering};
use kvcc_graph::{BitSet, CsrGraph, UndirectedGraph, VertexId};

/// The dataset suites the acceptance criteria name, plus random families.
fn suites() -> Vec<(String, UndirectedGraph)> {
    let planted = planted_communities(&PlantedConfig {
        num_communities: 4,
        chain_length: 2,
        community_size: (8, 10),
        background_vertices: 250,
        seed: 77,
        ..PlantedConfig::default()
    });
    let collab = collaboration_graph(&CollaborationConfig {
        num_groups: 4,
        group_size: (6, 8),
        pendant_collaborators: 8,
        ..CollaborationConfig::default()
    });
    let mut graphs = vec![
        ("planted".to_string(), planted.graph),
        ("figure1".to_string(), figure1_graph().graph),
        ("collaboration".to_string(), collab.graph),
    ];
    for seed in 0..3u64 {
        let n = 40 + seed as usize * 21;
        graphs.push((format!("er-{seed}"), gnm(n, 3 * n, 0x3E ^ seed)));
        graphs.push((format!("ba-{seed}"), barabasi_albert(n, 3, 0x5B ^ seed)));
    }
    graphs
}

/// A seeded Fisher–Yates shuffle of `0..n`, as a relabelling.
fn shuffled(n: usize, seed: u64) -> VertexOrdering {
    let mut rng = XorShift(seed);
    let mut new_to_old: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        new_to_old.swap(i, j);
    }
    VertexOrdering::from_new_to_old(new_to_old)
}

/// The relabellings the enumeration must be invariant under.
fn relabellings(csr: &CsrGraph) -> [(&'static str, VertexOrdering); 3] {
    [
        ("hybrid", hybrid_ordering(csr)),
        ("shuffle-a", shuffled(csr.num_vertices(), 0x5EED_000A)),
        ("shuffle-b", shuffled(csr.num_vertices(), 0x5EED_000B)),
    ]
}

#[test]
fn reordered_enumeration_is_byte_identical_to_baseline() {
    for (name, g) in suites() {
        let csr = CsrGraph::from_view(&g);
        for k in 2u32..=4 {
            let baseline = enumerate_kvccs(&csr, k, &KvccOptions::default()).unwrap();
            for (label, ordering) in relabellings(&csr) {
                let reordered = csr.reordered(&ordering);
                let result = enumerate_kvccs(&reordered, k, &KvccOptions::default()).unwrap();
                let mut mapped: Vec<KVertexConnectedComponent> = result
                    .components()
                    .iter()
                    .map(|c| {
                        KVertexConnectedComponent::new(
                            c.vertices().iter().map(|&v| ordering.to_old(v)).collect(),
                        )
                    })
                    .collect();
                mapped.sort();
                assert_eq!(
                    mapped.as_slice(),
                    baseline.components(),
                    "{name}, k {k}, {label}"
                );
            }
        }
    }
}

/// Tiny deterministic xorshift64* generator — keeps the fuzz loops free of
/// any dependency.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn randomized_varint_delta_codec_roundtrip() {
    let mut rng = XorShift(0xC0FFEE);
    let mut buf = Vec::new();
    for round in 0..500 {
        // Random strictly-increasing rows with a mix of tiny and huge gaps.
        let len = rng.below(40) as usize;
        let mut row: Vec<VertexId> = Vec::with_capacity(len);
        let mut current: u64 = rng.below(1 << 20);
        for _ in 0..len {
            let gap = match rng.below(4) {
                0 => 1,
                1 => 1 + rng.below(10),
                2 => 1 + rng.below(1 << 14),
                _ => 1 + rng.below(1 << 27),
            };
            current += gap;
            if current > u32::MAX as u64 {
                break;
            }
            row.push(current as VertexId);
        }
        buf.clear();
        encode_row(&row, &mut buf);
        let (decoded, end) = decode_row(&buf, 0, row.len()).expect("valid stream");
        assert_eq!(decoded, row, "round {round}");
        assert_eq!(end, buf.len(), "round {round}: trailing bytes");
        // Asking for one more value than encoded must fail, not panic.
        assert!(decode_row(&buf, 0, row.len() + 1).is_none());
        // Truncating the stream anywhere must fail cleanly, not panic: the
        // encoding of `len` values needs every one of its bytes.
        if !buf.is_empty() {
            let cut = rng.below(buf.len() as u64) as usize;
            assert!(decode_row(&buf[..cut], 0, row.len()).is_none(), "cut {cut}");
        }
    }
    // Raw varint values across the whole range.
    for round in 0..2_000 {
        let value = (rng.next() >> rng.below(33)) as u32;
        buf.clear();
        varint::encode_u32(value, &mut buf);
        assert_eq!(
            varint::decode_u32(&buf, 0),
            Some((value, buf.len())),
            "round {round}"
        );
    }
}

/// Fuzz of the row decoder: random valid rows, adversarial gap sizes
/// straddling every varint length, random garbage, and truncations at every
/// boundary. Valid rows must decode exactly; truncation and over-count must
/// error, and garbage must never panic.
#[test]
fn row_decoder_under_fuzz() {
    let mut rng = XorShift(0xBA7C4);
    let mut buf = Vec::new();
    for round in 0..600 {
        // Rows whose gap sizes hop across every varint byte-length.
        let len = rng.below(48) as usize;
        let mut row: Vec<VertexId> = Vec::with_capacity(len);
        let mut current: u64 = rng.below(1 << 16);
        for _ in 0..len {
            let gap = match rng.below(6) {
                0 => 1,
                1 => 1 + rng.below(1 << 7),
                2 => 1 + rng.below(1 << 14),
                3 => 1 + rng.below(1 << 21),
                4 => 1 + rng.below(1 << 28),
                _ => 1 + rng.below(u32::MAX as u64 / 2),
            };
            current += gap;
            if current > u32::MAX as u64 {
                break;
            }
            row.push(current as VertexId);
        }
        buf.clear();
        encode_row(&row, &mut buf);
        assert_eq!(
            decode_row(&buf, 0, row.len()),
            Some((row.clone(), buf.len())),
            "round {round}"
        );
        // Every truncation must fail (each encoded value needs all of its
        // bytes), without panicking.
        for cut in 0..buf.len() {
            assert!(
                decode_row(&buf[..cut], 0, row.len()).is_none(),
                "round {round} cut {cut}: accepted a truncation"
            );
        }
        assert!(
            decode_row(&buf, 0, row.len() + 1).is_none(),
            "round {round}: accepted an over-count"
        );
    }
    // Pure garbage bytes: an accepted row must still be strictly increasing
    // and end inside the buffer, at least one byte per value.
    for round in 0..400 {
        let len = rng.below(40) as usize;
        buf.clear();
        for _ in 0..len {
            buf.push(rng.next() as u8);
        }
        let count = rng.below(12) as usize;
        if let Some((row, end)) = decode_row(&buf, 0, count) {
            assert_eq!(row.len(), count, "garbage round {round}");
            assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "garbage round {round}: row not strictly increasing"
            );
            assert!(
                count <= end && end <= buf.len(),
                "garbage round {round}: end {end} outside the buffer"
            );
        }
    }
}

/// Property test of the shared [`BitSet`] against a `Vec<bool>` model:
/// random insert/remove/range/clear sequences must keep membership, count
/// and ascending `iter_ones` identical to the model.
#[test]
fn bitset_matches_vec_bool_model_under_fuzz() {
    let mut rng = XorShift(0xB17_5E7);
    for len in [0usize, 1, 63, 64, 65, 127, 130, 1000] {
        let mut set = BitSet::new(len);
        let mut model = vec![false; len];
        for _ in 0..600 {
            match rng.below(6) {
                0 | 1 => {
                    if len > 0 {
                        let i = rng.below(len as u64) as usize;
                        let fresh = set.insert(i);
                        assert_eq!(fresh, !model[i], "insert({i}) return value");
                        model[i] = true;
                    }
                }
                2 => {
                    if len > 0 {
                        let i = rng.below(len as u64) as usize;
                        let was = set.remove(i);
                        assert_eq!(was, model[i], "remove({i}) return value");
                        model[i] = false;
                    }
                }
                3 => {
                    let a = rng.below(len as u64 + 1) as usize;
                    let b = rng.below(len as u64 + 1) as usize;
                    let (lo, hi) = (a.min(b), a.max(b));
                    if rng.below(2) == 0 {
                        set.set_range(lo, hi);
                        model[lo..hi].fill(true);
                    } else {
                        set.clear_range(lo, hi);
                        model[lo..hi].fill(false);
                    }
                }
                4 => {
                    set.clear_all();
                    model.fill(false);
                }
                _ => {
                    // Membership spot-checks between mutations.
                    if len > 0 {
                        let i = rng.below(len as u64) as usize;
                        assert_eq!(set.contains(i), model[i], "contains({i})");
                    }
                }
            }
            assert_eq!(
                set.count_ones(),
                model.iter().filter(|&&b| b).count(),
                "count_ones diverged at len {len}"
            );
        }
        let ones: Vec<usize> = set.iter_ones().collect();
        let expected: Vec<usize> = (0..len).filter(|&i| model[i]).collect();
        assert_eq!(ones, expected, "iter_ones order/content at len {len}");
    }
}
