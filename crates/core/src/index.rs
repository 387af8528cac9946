//! The [`ConnectivityIndex`]: the full k-VCC hierarchy as a query-ready
//! forest.
//!
//! Building it costs one nested enumeration (§2.2 nesting): the level loop
//! of [`crate::hierarchy`] writes each level straight into the index's flat
//! arrays. Every question the paper's case study asks afterwards — "all
//! 4-VCCs containing author *Jiawei Han*" (§6.4), "how connected are these
//! two authors", "what are the k-VCCs at level k" — is then answered
//! **without touching flow code**:
//!
//! * [`kvccs_containing`](ConnectivityIndex::kvccs_containing) — an ancestor
//!   walk from the seed's leaf components up to level `k`;
//! * [`max_connectivity`](ConnectivityIndex::max_connectivity) — the level of
//!   the lowest common ancestor of two vertices' leaves;
//! * [`components_at`](ConnectivityIndex::components_at) — a contiguous slice
//!   of the flat forest;
//! * [`max_connectivity_of`](ConnectivityIndex::max_connectivity_of) — a
//!   per-vertex array lookup.
//!
//! Answers are byte-identical to running [`crate::enumerate_kvccs`] /
//! [`crate::query::kvccs_containing`] directly (asserted by the
//! `index_parity` integration suite); the index is the read path of the
//! `kvcc-service` serving layer.

use kvcc_graph::{BitSet, EdgeUpdate, GraphError, GraphView, VertexId};

use crate::error::KvccError;
use crate::hierarchy::{grow, Prior, REDERIVED};
use crate::options::KvccOptions;
use crate::result::KVertexConnectedComponent;

/// Sentinel parent id for root nodes (level-1 components).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Whether sorted list `child` is contained in sorted list `parent`
/// (linear two-pointer merge).
fn is_sorted_subset(child: &[VertexId], parent: &[VertexId]) -> bool {
    let mut j = 0;
    for &v in child {
        while j < parent.len() && parent[j] < v {
            j += 1;
        }
        if j >= parent.len() || parent[j] != v {
            return false;
        }
        j += 1;
    }
    true
}

/// Descending comparison of two ranking keys, each given as the node's
/// `(k, size, internal_edges)` triple. Equal keys return `Equal` — callers
/// supply their own total tie-break. Density compares **exactly** via
/// cross-multiplication (`m_a / p_a > m_b / p_b ⟺ m_a · p_b > m_b · p_a`),
/// so platform float behaviour can never reorder a page boundary. This is
/// the single ranking definition: the index's precomputed orders and the
/// service engine's external-space page orders both call it.
pub fn rank_key_cmp(
    rank_by: RankBy,
    a: (u32, usize, u64),
    b: (u32, usize, u64),
) -> std::cmp::Ordering {
    let (k_a, size_a, edges_a) = a;
    let (k_b, size_b, edges_b) = b;
    match rank_by {
        RankBy::K => k_b.cmp(&k_a),
        RankBy::Size => size_b.cmp(&size_a),
        RankBy::Density => {
            let possible = |size: usize| (size as u128) * (size as u128).saturating_sub(1) / 2;
            let lhs = edges_a as u128 * possible(size_b);
            let rhs = edges_b as u128 * possible(size_a);
            rhs.cmp(&lhs)
        }
    }
}

/// [`rank_key_cmp`] over the index's flat metadata arrays (the caller
/// breaks ties by node id).
fn rank_nodes_cmp(
    rank_by: RankBy,
    ks: &[u32],
    components: &[KVertexConnectedComponent],
    internal_edges: &[u64],
    a: u32,
    b: u32,
) -> std::cmp::Ordering {
    let (a, b) = (a as usize, b as usize);
    rank_key_cmp(
        rank_by,
        (ks[a], components[a].len(), internal_edges[a]),
        (ks[b], components[b].len(), internal_edges[b]),
    )
}

/// Magic bytes opening every serialised index buffer.
const INDEX_WIRE_MAGIC: [u8; 4] = *b"KIDX";
/// Version byte of the index wire format; bump on incompatible changes.
/// Version 2 switched the node records to the shared varint/delta codec
/// ([`kvcc_graph::codec`]) and added per-node internal edge counts. Version
/// 3 added the mutation [`epoch`](ConnectivityIndex::epoch) varint. Only
/// version 3 is read: every writer emits it.
const INDEX_WIRE_VERSION: u8 = 3;
/// Fixed part of the header: magic + version + `num_vertices` (kept
/// fixed-width so [`ConnectivityIndex::peek_num_vertices`] works without
/// varint parsing; the depth limit and node count that follow are varints).
const INDEX_WIRE_HEADER: usize = 4 + 1 + 4;

/// Ranking keys accepted by [`ConnectivityIndex::ranked_components`] and the
/// service protocol's `TopKComponents` query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RankBy {
    /// Deepest connectivity level first.
    K,
    /// Largest member count first.
    Size,
    /// Densest first: internal edges over `|C|·(|C|−1)/2`, compared exactly
    /// (cross-multiplied), so platform float behaviour can never reorder a
    /// page boundary.
    Density,
}

impl RankBy {
    /// All ranking keys, in wire-code order.
    pub const ALL: [RankBy; 3] = [RankBy::K, RankBy::Size, RankBy::Density];

    /// Stable wire code of the key.
    pub const fn code(self) -> u8 {
        match self {
            RankBy::K => 0,
            RankBy::Size => 1,
            RankBy::Density => 2,
        }
    }

    /// Decodes a wire code produced by [`RankBy::code`].
    pub const fn from_code(code: u8) -> Option<RankBy> {
        match code {
            0 => Some(RankBy::K),
            1 => Some(RankBy::Size),
            2 => Some(RankBy::Density),
            _ => None,
        }
    }

    const fn order_slot(self) -> usize {
        self.code() as usize
    }
}

/// One entry of a ranked component listing: the forest node plus the
/// precomputed metadata the ranking sorted on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankedComponent<'a> {
    /// Forest node id (position in node order; stable for a built index).
    pub node_id: u32,
    /// Connectivity level of the component.
    pub k: u32,
    /// Number of graph edges with both endpoints inside the component.
    pub internal_edges: u64,
    /// The component members.
    pub component: &'a KVertexConnectedComponent,
}

impl RankedComponent<'_> {
    /// Number of members.
    pub fn size(&self) -> u32 {
        self.component.len() as u32
    }

    /// Internal edges over possible edges (`0.0` below two members).
    pub fn density(&self) -> f64 {
        density_of(self.internal_edges, self.component.len())
    }
}

/// Density as a float for reporting (internal edges over `|C|·(|C|−1)/2`,
/// `0.0` below two members); ranking itself compares exactly. Shared with
/// the service protocol so the wire-visible density can never diverge from
/// the index-side one.
pub fn density_of(internal_edges: u64, size: usize) -> f64 {
    if size < 2 {
        return 0.0;
    }
    let possible = (size as u64 * (size as u64 - 1)) / 2;
    internal_edges as f64 / possible as f64
}

/// The k-VCC hierarchy as a flat forest supporting O(depth) containment
/// queries.
///
/// Nodes are stored level-contiguously (all level-1 components, then all
/// level-2 components, …), each with the id of the unique level-(k−1)
/// component containing it. Per vertex the index keeps the *leaf-most* nodes
/// (components not further refined at the next level) plus the vertex's
/// maximum connectivity, so every query is pointer chasing over flat arrays.
#[derive(Clone, Debug)]
pub struct ConnectivityIndex {
    /// Per node: the connectivity level `k`.
    ks: Vec<u32>,
    /// Per node: parent node id, or [`NO_PARENT`] for level-1 roots.
    parents: Vec<u32>,
    /// Per node: the component members (sorted; same ordering as the
    /// enumeration output).
    components: Vec<KVertexConnectedComponent>,
    /// `level_offsets[k - 1]..level_offsets[k]` are the node ids of level `k`
    /// (length `max_k + 1`).
    level_offsets: Vec<usize>,
    /// `leaf_offsets[v]..leaf_offsets[v + 1]` delimits, in `leaf_ids`, the
    /// ids of the deepest nodes containing vertex `v`, ascending (a vertex
    /// can have several because k-VCCs overlap in up to `k − 1` vertices).
    /// Length `num_vertices + 1`.
    leaf_offsets: Vec<u32>,
    /// The concatenated per-vertex leaf pointers of `leaf_offsets`.
    leaf_ids: Vec<u32>,
    /// Per vertex: the largest `k` with a k-VCC containing the vertex.
    max_k_of: Vec<u32>,
    /// Per node: number of graph edges with both endpoints inside the
    /// component (computed against the indexed graph at build time and
    /// persisted on the wire, so ranking needs no graph access).
    internal_edges: Vec<u64>,
    /// Precomputed ranking permutations, one per [`RankBy`] key (indexed by
    /// [`RankBy::order_slot`]): node ids sorted by key descending, ties by
    /// node id ascending. Makes every top-k / pagination query a slice read.
    rank_orders: [Vec<u32>; 3],
    /// The `max_k` cap the index was built with, if any. Levels beyond the
    /// cap were never enumerated, so queries there are not answerable from
    /// the index (see [`ConnectivityIndex::covers`]).
    depth_limit: Option<u32>,
    /// Mutation epoch: 0 for a freshly built index, one more than the
    /// previous index for each [`ConnectivityIndex::apply_updates`] batch.
    /// Persisted on the wire so cursors and caches keyed on it survive a
    /// service restart.
    epoch: u64,
}

/// Outcome of one [`ConnectivityIndex::apply_updates`] batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// The index epoch after the batch (`epoch_before + 1`).
    pub epoch: u64,
    /// Forest nodes the repair derived itself rather than keeping an old
    /// node's subtree: the nodes holding an updated pair, and the nodes
    /// whose vertex set the batch changed. A component copied down the
    /// levels it is certified for, as its own only child, counts once.
    pub repaired_nodes: u32,
    /// Number of distinct vertices in the repaired nodes plus the updated
    /// endpoints (0 for a batch that names no pair). A level-1 root holding
    /// an updated pair is always repaired, so on a connected graph this
    /// counts every vertex of the root.
    pub affected_vertices: u32,
}

impl ConnectivityIndex {
    /// Builds the index for `graph` with the level loop of
    /// [`crate::hierarchy`], which certifies each component once and writes
    /// every level straight into the forest (`max_k = None` runs it until a
    /// level is empty, which happens past the degeneracy at the latest: a
    /// k-VCC has minimum degree `>= k`).
    ///
    /// With an explicit `max_k` the hierarchy is **truncated**: the index can
    /// only answer queries for `k <= max_k` (checked via
    /// [`ConnectivityIndex::covers`]), and the per-vertex / pairwise
    /// connectivity values saturate at the cap; `max_k = Some(0)` builds an
    /// empty index. Construction stops early at the first level with no
    /// components. An expired [`KvccOptions::budget`] interrupts the build
    /// with [`KvccError::Interrupted`], also before the first level.
    pub fn build<G: GraphView>(
        graph: &G,
        max_k: Option<u32>,
        options: &KvccOptions,
    ) -> Result<Self, KvccError> {
        Ok(grow(graph, max_k, None, options)?.0)
    }

    /// Builds the derived query arrays (leaf pointers, per-vertex maximum
    /// connectivity, ranking orders) from the forest core — shared by the
    /// level loop of [`crate::hierarchy`] and
    /// [`ConnectivityIndex::from_bytes`], so a deserialised index is
    /// guaranteed to answer queries exactly like the freshly built one it was
    /// saved from. The leaf pointers and connectivity numbers take
    /// `O(Σ|C| + n)`; the ranking orders sort the nodes.
    pub(crate) fn assemble(
        num_vertices: usize,
        ks: Vec<u32>,
        parents: Vec<u32>,
        components: Vec<KVertexConnectedComponent>,
        level_offsets: Vec<usize>,
        internal_edges: Vec<u64>,
        depth_limit: Option<u32>,
    ) -> Self {
        // Leaf-most memberships: a node keeps vertex v iff no child keeps v.
        // The children of each node, as a CSR in node-id order.
        let mut child_offsets = vec![0u32; components.len() + 1];
        for &p in parents.iter().filter(|&&p| p != NO_PARENT) {
            child_offsets[p as usize + 1] += 1;
        }
        for id in 0..components.len() {
            child_offsets[id + 1] += child_offsets[id];
        }
        let mut child_ids = vec![0u32; child_offsets[components.len()] as usize];
        let mut cursor = child_offsets.clone();
        for (id, &p) in parents.iter().enumerate().filter(|&(_, &p)| p != NO_PARENT) {
            child_ids[cursor[p as usize] as usize] = id as u32;
            cursor[p as usize] += 1;
        }
        // Per node in id order, its children stamp their members with its
        // id; an unstamped member is a leaf pointer. The pairs come out in
        // ascending node id, and a stable counting sort by vertex keeps that.
        let mut stamp = vec![u32::MAX; num_vertices];
        let mut leaves: Vec<(VertexId, u32)> = Vec::new();
        let mut leaf_offsets = vec![0u32; num_vertices + 1];
        let mut max_k_of = vec![0u32; num_vertices];
        for (id, comp) in components.iter().enumerate() {
            let children = child_offsets[id] as usize..child_offsets[id + 1] as usize;
            for &child in &child_ids[children] {
                for &v in components[child as usize].vertices() {
                    stamp[v as usize] = id as u32;
                }
            }
            for &v in comp.vertices() {
                max_k_of[v as usize] = max_k_of[v as usize].max(ks[id]);
                if stamp[v as usize] != id as u32 {
                    leaves.push((v, id as u32));
                    leaf_offsets[v as usize + 1] += 1;
                }
            }
        }
        assert!(
            u32::try_from(leaves.len()).is_ok(),
            "leaf pointers fit u32 offsets"
        );
        for v in 0..num_vertices {
            leaf_offsets[v + 1] += leaf_offsets[v];
        }
        let mut leaf_ids = vec![0u32; leaves.len()];
        let mut cursor = leaf_offsets.clone();
        for (v, id) in leaves {
            leaf_ids[cursor[v as usize] as usize] = id;
            cursor[v as usize] += 1;
        }

        // Ranking permutations: one sort per key over the flat metadata
        // arrays (no component walking). Ties break by node id ascending, so
        // every ordering is total and pagination boundaries are stable.
        debug_assert_eq!(internal_edges.len(), components.len());
        let rank_orders = std::array::from_fn(|slot| {
            let rank_by = RankBy::ALL[slot];
            let mut order: Vec<u32> = (0..components.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                rank_nodes_cmp(rank_by, &ks, &components, &internal_edges, a, b).then(a.cmp(&b))
            });
            order
        });

        ConnectivityIndex {
            ks,
            parents,
            components,
            level_offsets,
            leaf_offsets,
            leaf_ids,
            max_k_of,
            internal_edges,
            rank_orders,
            depth_limit,
            epoch: 0,
        }
    }

    /// Serialises the index into a self-describing, endian-stable byte
    /// buffer (no third-party serializer; built on the shared
    /// [`kvcc_graph::codec`] varint primitives like the CSR and work-item
    /// wire formats).
    ///
    /// Layout (version 3): magic `b"KIDX"`, version `u8`, `num_vertices` as
    /// little-endian `u32` (fixed-width so
    /// [`ConnectivityIndex::peek_num_vertices`] needs no varint parsing),
    /// then varints — the depth limit (`0` for a complete index, `cap + 1`
    /// otherwise), the mutation [`epoch`](ConnectivityIndex::epoch), the
    /// node count, and per node `(k, parent + 1 — 0 for
    /// roots, member_count, members as a delta row, internal_edges)` in
    /// node-id order. Member lists are strictly sorted, so the delta + varint
    /// row encoding shrinks them by up to 4× versus the fixed-width
    /// version-1 layout. The derived query arrays are *not* stored;
    /// [`ConnectivityIndex::from_bytes`] rebuilds them, so the two sides can
    /// never disagree.
    ///
    /// This is the service-restart path: persisting the buffer next to the
    /// graph lets a restarted `kvcc-service` engine skip the hierarchy build
    /// entirely.
    pub fn to_bytes(&self) -> Vec<u8> {
        use kvcc_graph::codec::{encode_row, varint};
        let member_bytes: usize = self.components.iter().map(|c| 8 + c.len()).sum();
        let mut out = Vec::with_capacity(INDEX_WIRE_HEADER + 10 + member_bytes);
        out.extend_from_slice(&INDEX_WIRE_MAGIC);
        out.push(INDEX_WIRE_VERSION);
        out.extend_from_slice(&(self.num_vertices() as u32).to_le_bytes());
        varint::encode_u32(
            self.depth_limit.map_or(0, |cap| cap.saturating_add(1)),
            &mut out,
        );
        varint::encode_u64(self.epoch, &mut out);
        varint::encode_u32(self.components.len() as u32, &mut out);
        for id in 0..self.components.len() {
            varint::encode_u32(self.ks[id], &mut out);
            let parent = self.parents[id];
            varint::encode_u32(if parent == NO_PARENT { 0 } else { parent + 1 }, &mut out);
            let members = self.components[id].vertices();
            varint::encode_u32(members.len() as u32, &mut out);
            encode_row(members, &mut out);
            varint::encode_u64(self.internal_edges[id], &mut out);
        }
        out
    }

    /// Reads the declared vertex count from a serialised index header
    /// without parsing the body. [`ConnectivityIndex::from_bytes`] allocates
    /// per-vertex arrays sized by this value (a graph may legitimately have
    /// far more vertices than index nodes), so callers holding untrusted
    /// buffers should reject a mismatch against their expected graph
    /// **before** deserialising — the `kvcc-service` engine does exactly
    /// that. Returns `None` when the header is absent or not an index
    /// buffer.
    pub fn peek_num_vertices(bytes: &[u8]) -> Option<usize> {
        if bytes.len() < INDEX_WIRE_HEADER
            || bytes[..4] != INDEX_WIRE_MAGIC
            || bytes[4] != INDEX_WIRE_VERSION
        {
            return None;
        }
        Some(u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize)
    }

    /// All nodes in ranking order for `rank_by`, truncated to the best `k`
    /// (pass [`ConnectivityIndex::num_nodes`] for the full ranking). The
    /// order is a precomputed permutation over the flat metadata arrays —
    /// key descending, ties by node id ascending — so this is a slice read
    /// plus `k` metadata lookups, never a forest re-walk.
    pub fn ranked_components(&self, rank_by: RankBy, k: usize) -> Vec<RankedComponent<'_>> {
        self.ranked_page(rank_by, 0, k)
    }

    /// One page of the ranking: entries `offset..offset + page_size` of the
    /// [`ConnectivityIndex::ranked_components`] order. Out-of-range pages
    /// are empty, a short final page is returned as-is; together with the
    /// deterministic total order this is what makes cursor pagination
    /// return every component exactly once.
    pub fn ranked_page(
        &self,
        rank_by: RankBy,
        offset: usize,
        page_size: usize,
    ) -> Vec<RankedComponent<'_>> {
        let order = &self.rank_orders[rank_by.order_slot()];
        let start = offset.min(order.len());
        let end = start.saturating_add(page_size).min(order.len());
        order[start..end]
            .iter()
            .map(|&node_id| RankedComponent {
                node_id,
                k: self.ks[node_id as usize],
                internal_edges: self.internal_edges[node_id as usize],
                component: &self.components[node_id as usize],
            })
            .collect()
    }

    /// Number of graph edges inside node `id`'s component (ranking
    /// metadata; `None` for an out-of-range node id).
    pub fn internal_edges_of(&self, id: u32) -> Option<u64> {
        self.internal_edges.get(id as usize).copied()
    }

    /// Connectivity level of forest node `id` (`None` for an out-of-range
    /// node id).
    pub fn node_k(&self, id: u32) -> Option<u32> {
        self.ks.get(id as usize).copied()
    }

    /// The component of forest node `id` (`None` for an out-of-range node
    /// id).
    pub fn node_component(&self, id: u32) -> Option<&KVertexConnectedComponent> {
        self.components.get(id as usize)
    }

    /// The parent of forest node `id`: the one node a level up whose
    /// component contains it (§2.2 nesting). `None` for a level-1 root and
    /// for an out-of-range node id.
    pub fn parent(&self, id: u32) -> Option<u32> {
        match self.parents.get(id as usize).copied()? {
            NO_PARENT => None,
            p => Some(p),
        }
    }

    /// Deserialises a buffer produced by [`ConnectivityIndex::to_bytes`],
    /// validating every structural invariant of the forest (contiguous
    /// levels, parents one level up and earlier in the node order, sorted
    /// in-range members contained in their parent) so a corrupted or hostile
    /// buffer can never produce an index that later panics or answers
    /// incoherently. Node allocations are bounded by the buffer size; the
    /// per-vertex arrays are sized by the declared vertex count (see
    /// [`ConnectivityIndex::peek_num_vertices`]). The leaf pointers and
    /// per-vertex connectivity values are rebuilt from the validated forest,
    /// not read from the wire.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GraphError> {
        use kvcc_graph::codec::Reader;
        let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
        if bytes.len() < INDEX_WIRE_HEADER {
            return Err(malformed("buffer shorter than the index header"));
        }
        if bytes[..4] != INDEX_WIRE_MAGIC {
            return Err(malformed("bad magic (not a connectivity-index buffer)"));
        }
        if bytes[4] != INDEX_WIRE_VERSION {
            // Deliberately no fallback for older versions: v1 buffers carry
            // no internal edge counts, which cannot be reconstructed here
            // without the graph, and v2 buffers carry no epoch. Rebuild and
            // re-persist.
            return Err(malformed(
                "unsupported index format version (rebuild the index and \
                 persist it again)",
            ));
        }
        let mut r = Reader::new(&bytes[5..]);
        let num_vertices =
            r.u32_le()
                .ok_or_else(|| malformed("index header truncated"))? as usize;
        let depth_limit = match r
            .varint_u32()
            .ok_or_else(|| malformed("depth limit truncated"))?
        {
            0 => None,
            cap_plus_one => Some(cap_plus_one - 1),
        };
        let epoch = r.varint_u64().ok_or_else(|| malformed("epoch truncated"))?;
        let num_nodes = r
            .varint_u32()
            .ok_or_else(|| malformed("node count truncated"))? as usize;
        // Every node record occupies at least 5 bytes (k + parent + count +
        // one member + edge count), so a hostile header can never trigger
        // node allocations larger than the buffer it arrived in.
        if num_nodes > r.remaining() / 5 {
            return Err(malformed("node count disagrees with the buffer size"));
        }

        let mut ks = Vec::with_capacity(num_nodes);
        let mut parents = Vec::with_capacity(num_nodes);
        let mut components: Vec<KVertexConnectedComponent> = Vec::with_capacity(num_nodes);
        let mut internal_edges = Vec::with_capacity(num_nodes);
        let mut level_offsets = vec![0usize];
        for id in 0..num_nodes {
            let k = r
                .varint_u32()
                .ok_or_else(|| malformed("node record truncated"))?;
            let parent_plus_one = r
                .varint_u32()
                .ok_or_else(|| malformed("node record truncated"))?;
            let parent = match parent_plus_one {
                0 => NO_PARENT,
                p => p - 1,
            };
            let count =
                r.varint_u32()
                    .ok_or_else(|| malformed("node record truncated"))? as usize;
            if count == 0 {
                return Err(malformed("components cannot be empty"));
            }
            // Levels are stored contiguously and start at 1; a level can only
            // appear when the previous one did (construction stops at the
            // first empty level).
            let prev_k = ks.last().copied().unwrap_or(0);
            if id == 0 && k != 1 {
                return Err(malformed("first node must be at level 1"));
            }
            if id > 0 && k != prev_k && k != prev_k + 1 {
                return Err(malformed("levels must be contiguous and sorted"));
            }
            if id > 0 && k == prev_k + 1 {
                level_offsets.push(id);
            }
            if k == 1 {
                if parent != NO_PARENT {
                    return Err(malformed("level-1 nodes cannot have a parent"));
                }
            } else {
                if parent as usize >= id {
                    return Err(malformed("parents must precede their children"));
                }
                if ks[parent as usize] + 1 != k {
                    return Err(malformed("parent must sit exactly one level up"));
                }
            }
            // Delta rows are strictly increasing by construction, so the
            // sortedness invariant needs no separate check.
            let members = r
                .row(count)
                .ok_or_else(|| malformed("member list truncated"))?;
            if members.last().is_some_and(|&v| v as usize >= num_vertices) {
                return Err(malformed("member vertex out of range"));
            }
            // Nesting (§2.2): a level-k component lies inside its level-(k−1)
            // parent. Without this check a hostile buffer could hand a vertex
            // a leaf whose ancestor chain does not contain it, making
            // `kvccs_containing` answer incoherently.
            if parent != NO_PARENT
                && !is_sorted_subset(&members, components[parent as usize].vertices())
            {
                return Err(malformed("child members must lie inside their parent"));
            }
            let edges = r
                .varint_u64()
                .ok_or_else(|| malformed("internal edge count truncated"))?;
            let possible = (count as u64).saturating_mul(count as u64 - 1) / 2;
            if edges > possible {
                return Err(malformed("internal edge count exceeds the possible edges"));
            }
            ks.push(k);
            parents.push(parent);
            components.push(KVertexConnectedComponent::new(members));
            internal_edges.push(edges);
        }
        r.finish()
            .ok_or_else(|| malformed("trailing bytes after the last node"))?;
        if num_nodes > 0 {
            level_offsets.push(num_nodes);
        }
        if let Some(cap) = depth_limit {
            if ks.last().copied().unwrap_or(0) > cap {
                return Err(malformed("nodes exceed the declared depth limit"));
            }
        }
        let mut index = Self::assemble(
            num_vertices,
            ks,
            parents,
            components,
            level_offsets,
            internal_edges,
            depth_limit,
        );
        index.epoch = epoch;
        Ok(index)
    }

    /// The `max_k` cap the index was built with ([`None`]: complete up to the
    /// degeneracy).
    pub fn depth_limit(&self) -> Option<u32> {
        self.depth_limit
    }

    /// The mutation epoch: 0 for a freshly built index, incremented by every
    /// [`ConnectivityIndex::apply_updates`] batch. Page cursors and result
    /// caches key on it to detect that the forest changed underneath them.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overrides the mutation epoch. Used by the service engine to stamp a
    /// lazily built index with its graph slot's epoch, and by parity tests
    /// to align a fresh rebuild with an incrementally maintained index
    /// before comparing bytes.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The index of the graph after a batch of edge updates, repaired from
    /// this one without re-running the full nested enumeration.
    ///
    /// `graph` must be the **post-update** graph (e.g. a
    /// [`kvcc_graph::DeltaGraph`] the same updates were applied to) over the
    /// same vertex set the index was built on.
    ///
    /// The repair is one pass of the hierarchy's own level loop over `graph`
    /// that consults this forest (rules R1–R3 in [`crate::hierarchy`]):
    /// levels 1 and 2 are recomputed as the connected and biconnected
    /// components of the whole graph; a node equal to an old one and holding
    /// no updated pair keeps the old subtree and internal-edge counts; a
    /// k-core component that shares more than k members with an old k-VCC
    /// is accepted by flow probes around those members, or else split on
    /// the vertex cut below k that the first failing probe returns, the
    /// k-core components of each part taking the same test; a component
    /// with no such old k-VCC is enumerated on its own; and a re-derived
    /// node equal to an old one certified at `t` searches its certified
    /// level between a floor, `t` when its deleted pairs still hold there,
    /// and a cap, `t` plus the pairs the batch may have inserted inside it,
    /// with a first flow probe whose cut settles it at the floor when it is
    /// that small. Every other node is certified exactly as
    /// [`ConnectivityIndex::build`] does, and each re-derived node's induced
    /// graph is sliced once. The result is **byte-identical**
    /// (`to_bytes`) to a rebuild on `graph`, with the epoch one past this
    /// index's; an empty batch, which keeps every node, still advances it.
    ///
    /// The repair honours [`KvccOptions::budget`]: an expired deadline
    /// aborts with [`KvccError::Interrupted`]. This index is only read, so a
    /// failed batch leaves it as it was.
    pub fn apply_updates<G: GraphView>(
        &self,
        graph: &G,
        updates: &[EdgeUpdate],
        options: &KvccOptions,
    ) -> Result<(Self, UpdateReport), KvccError> {
        assert_eq!(
            graph.num_vertices(),
            self.num_vertices(),
            "apply_updates requires the post-update graph over the indexed vertex set"
        );
        options.budget.check()?;
        if let Some(seed) = updates
            .iter()
            .flat_map(|u| [u.u, u.v])
            .filter(|&v| v as usize >= self.num_vertices())
            .min()
        {
            return Err(KvccError::SeedOutOfRange { seed });
        }

        let prior = Prior::new(self, graph, updates);
        let mut affected = BitSet::new(self.num_vertices());
        for &(u, v) in prior.pairs() {
            affected.insert(u as usize);
            affected.insert(v as usize);
        }
        let (mut next, origins) = grow(graph, self.depth_limit, Some(&prior), options)?;
        let mut repaired_nodes = 0u32;
        for (id, component) in next.components.iter().enumerate() {
            // A component copied down as its own only child counts once.
            let copied = next
                .parent(id as u32)
                .is_some_and(|p| next.components[p as usize].len() == component.len());
            if origins[id] == REDERIVED && !copied {
                repaired_nodes += 1;
                for &v in component.vertices() {
                    affected.insert(v as usize);
                }
            }
        }
        next.epoch = self.epoch + 1;
        let epoch = next.epoch;
        Ok((
            next,
            UpdateReport {
                epoch,
                repaired_nodes,
                affected_vertices: affected.count_ones() as u32,
            },
        ))
    }

    /// The deepest nodes containing `v` (its leaf pointers).
    pub(crate) fn leaves(&self, v: VertexId) -> &[u32] {
        let v = v as usize;
        &self.leaf_ids[self.leaf_offsets[v] as usize..self.leaf_offsets[v + 1] as usize]
    }

    /// The node ids of level `k` (empty past the deepest level).
    pub(crate) fn level_nodes(&self, k: u32) -> std::ops::Range<u32> {
        let k = k as usize;
        if k == 0 || k >= self.level_offsets.len() {
            return 0..0;
        }
        self.level_offsets[k - 1] as u32..self.level_offsets[k] as u32
    }

    /// Whether level-`k` queries are answerable from this index: `true` for
    /// a complete index, otherwise only for `k` at or below the build cap.
    /// For an uncovered `k`, [`ConnectivityIndex::components_at`] and
    /// [`ConnectivityIndex::kvccs_containing`] would wrongly report "nothing
    /// there" — callers (e.g. the `kvcc-service` engine) must fall back to a
    /// direct enumeration instead.
    pub fn covers(&self, k: u32) -> bool {
        self.depth_limit.is_none_or(|cap| k <= cap)
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.leaf_offsets.len() - 1
    }

    /// Total number of components across all levels of the forest.
    pub fn num_nodes(&self) -> usize {
        self.components.len()
    }

    /// The deepest connectivity level with at least one component (0 for an
    /// edgeless graph).
    pub fn max_k(&self) -> u32 {
        (self.level_offsets.len() - 1) as u32
    }

    /// All k-VCCs at level `k`, sorted by smallest member — identical to the
    /// output of [`crate::enumerate_kvccs`] for the same `k`. Empty when no
    /// component survives at that level.
    pub fn components_at(&self, k: u32) -> &[KVertexConnectedComponent] {
        if k == 0 || k > self.max_k() {
            return &[];
        }
        let k = k as usize;
        &self.components[self.level_offsets[k - 1]..self.level_offsets[k]]
    }

    /// The largest `k` such that `v` belongs to some k-VCC (its *vertex
    /// connectivity number*); 0 for isolated or out-of-range vertices.
    /// Saturates at the build cap on a depth-limited index.
    pub fn max_connectivity_of(&self, v: VertexId) -> u32 {
        self.max_k_of.get(v as usize).copied().unwrap_or(0)
    }

    /// The k-VCCs containing `seed` at level `k`: an ancestor walk from the
    /// seed's leaf components. Byte-identical to
    /// [`crate::query::kvccs_containing`] (and therefore to filtering the
    /// full enumeration), including its error contract.
    pub fn kvccs_containing(
        &self,
        seed: VertexId,
        k: u32,
    ) -> Result<Vec<KVertexConnectedComponent>, KvccError> {
        if k == 0 {
            return Err(KvccError::InvalidK);
        }
        if seed as usize >= self.num_vertices() {
            return Err(KvccError::SeedOutOfRange { seed });
        }
        let mut hit_ids: Vec<u32> = Vec::new();
        for &leaf in self.leaves(seed) {
            if let Some(id) = self.ancestor_at(leaf, k) {
                hit_ids.push(id);
            }
        }
        // Different leaves can meet in the same level-k ancestor.
        hit_ids.sort_unstable();
        hit_ids.dedup();
        let mut hits: Vec<KVertexConnectedComponent> = hit_ids
            .into_iter()
            .map(|id| self.components[id as usize].clone())
            .collect();
        hits.sort();
        Ok(hits)
    }

    /// The largest `k` such that `u` and `v` lie in a common k-VCC — the
    /// level of the lowest common ancestor of their leaves in the forest
    /// (0 when they share no component at all; `max_connectivity_of(u)` when
    /// `u == v`). Saturates at the build cap on a depth-limited index.
    /// Errors for out-of-range vertices.
    pub fn max_connectivity(&self, u: VertexId, v: VertexId) -> Result<u32, KvccError> {
        if u as usize >= self.num_vertices() {
            return Err(KvccError::SeedOutOfRange { seed: u });
        }
        if v as usize >= self.num_vertices() {
            return Err(KvccError::SeedOutOfRange { seed: v });
        }
        if u == v {
            return Ok(self.max_connectivity_of(u));
        }
        // Mark every ancestor of u's leaves, then walk v's ancestor chains
        // and report the deepest marked node. Chains are at most max_k long,
        // so this is O(leaves · depth) with a sorted-id merge at the end.
        let mut marked: Vec<u32> = Vec::new();
        for &leaf in self.leaves(u) {
            let mut node = leaf;
            loop {
                marked.push(node);
                match self.parents[node as usize] {
                    NO_PARENT => break,
                    p => node = p,
                }
            }
        }
        marked.sort_unstable();
        marked.dedup();
        let mut best = 0u32;
        for &leaf in self.leaves(v) {
            let mut node = leaf;
            loop {
                if marked.binary_search(&node).is_ok() {
                    best = best.max(self.ks[node as usize]);
                    break; // ancestors of a marked node are marked and shallower
                }
                match self.parents[node as usize] {
                    NO_PARENT => break,
                    p => node = p,
                }
            }
        }
        Ok(best)
    }

    /// Approximate heap bytes held by the index (Fig. 12-style accounting).
    pub fn memory_bytes(&self) -> usize {
        self.ks.capacity() * std::mem::size_of::<u32>()
            + self.parents.capacity() * std::mem::size_of::<u32>()
            + self
                .components
                .iter()
                .map(|c| std::mem::size_of_val(c.vertices()))
                .sum::<usize>()
            + self.level_offsets.capacity() * std::mem::size_of::<usize>()
            + self.leaf_offsets.capacity() * std::mem::size_of::<u32>()
            + self.leaf_ids.capacity() * std::mem::size_of::<u32>()
            + self.max_k_of.capacity() * std::mem::size_of::<u32>()
            + self.internal_edges.capacity() * std::mem::size_of::<u64>()
            + self
                .rank_orders
                .iter()
                .map(|o| o.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// Walks from `node` towards the root until reaching level `k`; `None`
    /// when `node` is already shallower than `k`.
    fn ancestor_at(&self, node: u32, k: u32) -> Option<u32> {
        let mut current = node;
        loop {
            let level = self.ks[current as usize];
            if level == k {
                return Some(current);
            }
            if level < k {
                return None;
            }
            match self.parents[current as usize] {
                NO_PARENT => return None,
                p => current = p,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_kvccs;
    use crate::query;
    use kvcc_graph::UndirectedGraph;

    /// Two triangles sharing vertex 2 plus an unrelated K4 on {5,6,7,8}.
    fn mixed_graph() -> UndirectedGraph {
        let mut edges = vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
        for i in 5..9u32 {
            for j in (i + 1)..9 {
                edges.push((i, j));
            }
        }
        UndirectedGraph::from_edges(9, edges).unwrap()
    }

    #[test]
    fn index_matches_direct_enumeration_per_level() {
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(index.max_k(), 3);
        for k in 1..=4u32 {
            let direct = enumerate_kvccs(&g, k, &KvccOptions::default()).unwrap();
            assert_eq!(index.components_at(k), direct.components(), "k = {k}");
        }
        assert!(index.components_at(0).is_empty());
        assert!(index.components_at(99).is_empty());
    }

    #[test]
    fn seed_queries_match_the_direct_query_path() {
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        for k in 1..=4u32 {
            for seed in 0..g.num_vertices() as VertexId {
                let direct = query::kvccs_containing(&g, seed, k, &KvccOptions::default()).unwrap();
                let indexed = index.kvccs_containing(seed, k).unwrap();
                assert_eq!(indexed, direct, "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn max_connectivity_queries() {
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        // Inside one triangle: 2-connected; across the shared vertex: the
        // level-2 components differ but level 1 still joins them.
        assert_eq!(index.max_connectivity(0, 1).unwrap(), 2);
        assert_eq!(index.max_connectivity(0, 3).unwrap(), 1);
        // K4 members are 3-connected; across components: nothing shared.
        assert_eq!(index.max_connectivity(5, 8).unwrap(), 3);
        assert_eq!(index.max_connectivity(0, 5).unwrap(), 0);
        // Self-queries report the vertex's own maximum connectivity.
        assert_eq!(index.max_connectivity(2, 2).unwrap(), 2);
        assert_eq!(index.max_connectivity_of(6), 3);
        assert_eq!(index.max_connectivity_of(999), 0);
        assert!(matches!(
            index.max_connectivity(0, 99),
            Err(KvccError::SeedOutOfRange { seed: 99 })
        ));
    }

    #[test]
    fn error_contract_matches_the_direct_query() {
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        assert!(matches!(
            index.kvccs_containing(0, 0),
            Err(KvccError::InvalidK)
        ));
        assert!(matches!(
            index.kvccs_containing(99, 2),
            Err(KvccError::SeedOutOfRange { seed: 99 })
        ));
    }

    #[test]
    fn depth_capped_index_reports_its_coverage() {
        let g = mixed_graph();
        let full = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(full.depth_limit(), None);
        assert!(full.covers(99));

        let capped = ConnectivityIndex::build(&g, Some(1), &KvccOptions::default()).unwrap();
        assert_eq!(capped.depth_limit(), Some(1));
        assert!(capped.covers(1));
        assert!(!capped.covers(2), "level 2 was never enumerated");
        // Saturation: the K4 members' connectivity reads as the cap.
        assert_eq!(capped.max_connectivity_of(6), 1);
    }

    #[test]
    fn byte_roundtrip_preserves_every_query_surface() {
        let g = mixed_graph();
        // A zero cap builds an empty index, which must read back too.
        for cap in [None, Some(0), Some(1), Some(2)] {
            let index = ConnectivityIndex::build(&g, cap, &KvccOptions::default()).unwrap();
            let back = ConnectivityIndex::from_bytes(&index.to_bytes()).unwrap();
            assert_eq!(back.depth_limit(), index.depth_limit());
            assert_eq!(back.max_k(), index.max_k());
            assert_eq!(back.num_vertices(), index.num_vertices());
            assert_eq!(back.num_nodes(), index.num_nodes());
            for k in 0..=index.max_k() + 1 {
                assert_eq!(back.components_at(k), index.components_at(k));
            }
            for u in 0..g.num_vertices() as VertexId {
                assert_eq!(back.max_connectivity_of(u), index.max_connectivity_of(u));
                for k in 1..=3u32 {
                    assert_eq!(
                        back.kvccs_containing(u, k).unwrap(),
                        index.kvccs_containing(u, k).unwrap()
                    );
                }
                for v in 0..g.num_vertices() as VertexId {
                    assert_eq!(
                        back.max_connectivity(u, v).unwrap(),
                        index.max_connectivity(u, v).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_index_roundtrips() {
        let index =
            ConnectivityIndex::build(&UndirectedGraph::new(3), None, &KvccOptions::default())
                .unwrap();
        let back = ConnectivityIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.max_k(), 0);
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_vertices(), 3);
    }

    #[test]
    fn from_bytes_rejects_corrupted_buffers() {
        use kvcc_graph::GraphError;
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let good = index.to_bytes();
        let assert_malformed = |bytes: &[u8]| {
            assert!(matches!(
                ConnectivityIndex::from_bytes(bytes),
                Err(GraphError::MalformedBytes { .. })
            ));
        };
        // Every truncation fails cleanly — header, node record, member row
        // or edge count, wherever the cut lands.
        for cut in 0..good.len() {
            assert_malformed(&good[..cut]);
        }

        let mut bad_magic = good.clone();
        bad_magic[0] = b'Z';
        assert_malformed(&bad_magic);

        let mut bad_version = good.clone();
        bad_version[4] = 42;
        assert_malformed(&bad_version);

        // First node claiming level 2 breaks contiguity. In the v3 layout
        // the first node's `k` varint sits right after the fixed header and
        // the depth-limit + epoch + node-count varints (all single-byte
        // here).
        let mut bad_level = good.clone();
        assert_eq!(bad_level[super::INDEX_WIRE_HEADER + 3], 1, "first k");
        bad_level[super::INDEX_WIRE_HEADER + 3] = 2;
        assert_malformed(&bad_level);

        // A hostile node count larger than the buffer is rejected before any
        // allocation.
        let mut bad_count = good.clone();
        assert!(
            bad_count[super::INDEX_WIRE_HEADER + 2] < 0x80,
            "count varint"
        );
        bad_count[super::INDEX_WIRE_HEADER + 2] = 0x7F;
        assert_malformed(&bad_count);

        // Trailing garbage.
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0, 0, 0, 0]);
        assert_malformed(&trailing);

        // An internal edge count exceeding |C|·(|C|−1)/2 is rejected: build
        // a single-node buffer claiming 9 edges on a 3-member component.
        let mut fabricated = Vec::new();
        fabricated.extend_from_slice(b"KIDX");
        fabricated.push(super::INDEX_WIRE_VERSION);
        fabricated.extend_from_slice(&9u32.to_le_bytes()); // num_vertices
        fabricated.push(0); // no depth limit
        fabricated.push(0); // epoch 0
        fabricated.push(1); // one node
        fabricated.push(1); // k = 1
        fabricated.push(0); // root
        fabricated.push(3); // three members
        fabricated.extend_from_slice(&[0, 0, 0]); // members {0, 1, 2}
        let mut ok = fabricated.clone();
        ok.push(3); // 3 internal edges: a triangle, plausible
        assert!(ConnectivityIndex::from_bytes(&ok).is_ok());
        fabricated.push(9); // 9 internal edges on 3 members: impossible
        assert_malformed(&fabricated);
    }

    #[test]
    fn ranked_components_sort_on_precomputed_metadata() {
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let total = index.num_nodes();
        for rank_by in RankBy::ALL {
            let all = index.ranked_components(rank_by, total + 10);
            assert_eq!(all.len(), total, "{rank_by:?}: every node exactly once");
            // The declared key is non-increasing down the ranking and ties
            // break by node id, so the order is total and deterministic.
            for pair in all.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                let not_after = match rank_by {
                    RankBy::K => a.k > b.k || (a.k == b.k && a.node_id < b.node_id),
                    RankBy::Size => {
                        a.size() > b.size() || (a.size() == b.size() && a.node_id < b.node_id)
                    }
                    RankBy::Density => {
                        a.density() > b.density()
                            || (a.density() == b.density() && a.node_id < b.node_id)
                    }
                };
                assert!(not_after, "{rank_by:?}: {a:?} must not rank below {b:?}");
            }
            // Pagination slices the same order: pages of 2 concatenate to it.
            let mut paged = Vec::new();
            let mut offset = 0;
            loop {
                let page = index.ranked_page(rank_by, offset, 2);
                if page.is_empty() {
                    break;
                }
                offset += page.len();
                paged.extend(page);
            }
            assert_eq!(paged, all, "{rank_by:?}");
        }
        // Metadata is the real thing: the K4 on {5,6,7,8} has 6 internal
        // edges, density 1, and ranks first by both size shares and density.
        let densest = &index.ranked_components(RankBy::Density, 1)[0];
        assert_eq!(densest.component.vertices(), &[5, 6, 7, 8]);
        assert_eq!(densest.internal_edges, 6);
        assert!((densest.density() - 1.0).abs() < 1e-12);
        let deepest = &index.ranked_components(RankBy::K, 1)[0];
        assert_eq!(deepest.k, 3);
        // The brute-force edge count agrees for every node.
        for entry in index.ranked_components(RankBy::Size, total) {
            let members = entry.component.vertices();
            let brute: u64 = members
                .iter()
                .map(|&v| {
                    g.neighbors(v)
                        .iter()
                        .filter(|w| members.binary_search(w).is_ok())
                        .count() as u64
                })
                .sum::<u64>()
                / 2;
            assert_eq!(entry.internal_edges, brute);
            assert_eq!(index.internal_edges_of(entry.node_id), Some(brute));
        }
        assert_eq!(index.internal_edges_of(total as u32), None);
    }

    #[test]
    fn ranked_metadata_survives_a_byte_roundtrip() {
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let back = ConnectivityIndex::from_bytes(&index.to_bytes()).unwrap();
        for rank_by in RankBy::ALL {
            let a = index.ranked_components(rank_by, index.num_nodes());
            let b = back.ranked_components(rank_by, back.num_nodes());
            assert_eq!(a, b, "{rank_by:?}");
        }
    }

    #[test]
    fn apply_updates_matches_a_full_rebuild_byte_for_byte() {
        use kvcc_graph::{CsrGraph, DeltaGraph, EdgeUpdate};
        let g = mixed_graph();
        let mut delta = DeltaGraph::new(CsrGraph::from_view(&g));
        let mut index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(index.epoch(), 0);
        let batches: Vec<Vec<EdgeUpdate>> = vec![
            // Weaken one triangle.
            vec![EdgeUpdate::delete(0, 1)],
            // Restore it and bridge the two clusters.
            vec![EdgeUpdate::insert(0, 1), EdgeUpdate::insert(4, 5)],
            // Tear the shared vertex out of both triangles.
            vec![EdgeUpdate::delete(2, 3), EdgeUpdate::delete(2, 4)],
            // An empty batch still advances the epoch.
            vec![],
        ];
        for (i, batch) in batches.iter().enumerate() {
            delta.apply(batch).unwrap();
            let report;
            (index, report) = index
                .apply_updates(&delta, batch, &KvccOptions::default())
                .unwrap();
            assert_eq!(report.epoch, (i + 1) as u64);
            assert_eq!(index.epoch(), report.epoch);
            let mut fresh =
                ConnectivityIndex::build(&delta, None, &KvccOptions::default()).unwrap();
            fresh.set_epoch(index.epoch());
            assert_eq!(
                index.to_bytes(),
                fresh.to_bytes(),
                "batch {i}: incremental repair must equal a full rebuild"
            );
        }
    }

    #[test]
    fn apply_updates_rejects_out_of_range_endpoints() {
        use kvcc_graph::EdgeUpdate;
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let before = index.to_bytes();
        let err = index
            .apply_updates(&g, &[EdgeUpdate::insert(0, 99)], &KvccOptions::default())
            .unwrap_err();
        assert!(matches!(err, KvccError::SeedOutOfRange { seed: 99 }));
        assert_eq!(index.to_bytes(), before, "failed batch must not mutate");
    }

    #[test]
    fn interrupted_update_leaves_the_index_untouched() {
        use kvcc_flow::Budget;
        use kvcc_graph::EdgeUpdate;
        let g = mixed_graph();
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        let before = index.to_bytes();
        let budget = Budget::cancellable();
        budget.cancel();
        let err = index
            .apply_updates(
                &g,
                &[EdgeUpdate::delete(0, 1)],
                &KvccOptions::default().with_budget(budget),
            )
            .unwrap_err();
        assert!(matches!(err, KvccError::Interrupted { .. }));
        assert_eq!(index.to_bytes(), before, "interrupt must not mutate");
        assert_eq!(index.epoch(), 0);
    }

    #[test]
    fn epoch_roundtrips_and_v2_buffers_are_rejected() {
        let g = mixed_graph();
        let mut index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        index.set_epoch(712);
        let bytes = index.to_bytes();
        assert_eq!(ConnectivityIndex::peek_num_vertices(&bytes), Some(9));
        let back = ConnectivityIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.epoch(), 712);
        assert_eq!(back.to_bytes(), bytes);

        // A version-2 buffer (predating the epoch varint) is refused as an
        // unsupported version, like version 1.
        index.set_epoch(0);
        let mut v2 = index.to_bytes();
        v2[4] = 2;
        assert_eq!(v2[super::INDEX_WIRE_HEADER + 1], 0, "epoch varint");
        v2.remove(super::INDEX_WIRE_HEADER + 1);
        assert_eq!(ConnectivityIndex::peek_num_vertices(&v2), None);
        match ConnectivityIndex::from_bytes(&v2) {
            Err(kvcc_graph::GraphError::MalformedBytes { reason }) => {
                assert!(reason.starts_with("unsupported index format version"));
            }
            other => panic!("expected an unsupported-version error, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_has_an_empty_index() {
        let g = UndirectedGraph::new(4);
        let index = ConnectivityIndex::build(&g, None, &KvccOptions::default()).unwrap();
        assert_eq!(index.max_k(), 0);
        assert_eq!(index.num_nodes(), 0);
        assert_eq!(index.num_vertices(), 4);
        assert!(index.kvccs_containing(1, 3).unwrap().is_empty());
        assert_eq!(index.max_connectivity(0, 1).unwrap(), 0);
        assert!(index.memory_bytes() > 0);
    }
}
