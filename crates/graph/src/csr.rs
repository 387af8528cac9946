//! Compressed sparse row (CSR) graph representation: the workspace's one
//! owned graph type ([`crate::UndirectedGraph`] is an alias of it).
//!
//! [`CsrGraph`] packs all adjacency into two flat arrays — `offsets` (length
//! `n + 1`) and `neighbors` (length `2m`) — so neighbour iteration is a
//! contiguous slice read and the whole structure is two allocations
//! regardless of `n`, where a `Vec<Vec<VertexId>>` pays one heap allocation
//! and one pointer indirection per vertex. The enumeration's hot loops (BFS,
//! flow-arena construction, sweeps) read rows on every step.
//!
//! [`CsrGraph`] implements [`GraphView`], alongside the borrowed `KCSR` views
//! of [`crate::kcsr`] and the [`crate::DeltaGraph`] overlay, so every
//! algorithm in the workspace accepts any of them; `KVCC-ENUM` holds every
//! work item as a [`CsrGraph`].

use crate::error::GraphError;
use crate::types::{Edge, VertexId};
use crate::view::GraphView;
use crate::INVALID_VERTEX;

/// Ingestion diagnostics returned by the validating constructors: how much of
/// the raw input was dropped while normalising.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeIngestStats {
    /// Number of self-loops `(v, v)` dropped.
    pub self_loops: usize,
    /// Number of duplicate edge occurrences dropped (counting each repeat
    /// beyond the first, in either orientation).
    pub duplicates: usize,
}

/// Magic bytes opening every serialised CSR buffer.
pub(crate) const CSR_WIRE_MAGIC: [u8; 4] = *b"KCSR";
/// Version byte of the varint/delta compact wire format. Version 1, a
/// fixed-width layout, is no longer read or written.
const CSR_WIRE_VERSION_COMPACT: u8 = 2;
/// Version byte of the aligned, zero-copy-capable layout ([`crate::kcsr`]).
pub(crate) const CSR_WIRE_VERSION_ALIGNED: u8 = 3;
/// Compact header size: magic + version + `n` (the neighbour count is
/// implied by the per-row degree varints).
const CSR_COMPACT_HEADER: usize = 4 + 1 + 4;

/// An undirected graph in compressed sparse row form.
///
/// Vertices are `0..n`; `neighbors(v)` is the slice
/// `neighbors[offsets[v] .. offsets[v + 1]]`, sorted ascending and
/// duplicate-free. Each undirected edge is stored twice (once per endpoint).
/// The storage-independent queries (edge iteration, degree statistics,
/// common-neighbour counts) are [`GraphView`] defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` delimits the neighbour slice of `v`.
    offsets: Vec<u32>,
    /// Concatenated, per-vertex-sorted neighbour lists (length `2m`).
    neighbors: Vec<VertexId>,
}

/// An induced subgraph together with the mapping back to the parent graph.
///
/// `graph` uses local ids `0..to_parent.len()`. Compositions of mappings
/// (needed because `KVCC-ENUM` partitions recursively) are the caller's
/// responsibility.
#[derive(Clone, Debug)]
pub struct CsrSubgraph {
    /// The subgraph, with vertices relabelled to `0..k`.
    pub graph: CsrGraph,
    /// `to_parent[local_id]` is the corresponding vertex id in the parent.
    pub to_parent: Vec<VertexId>,
}

impl Default for CsrGraph {
    /// The graph with no vertices, [`CsrGraph::new(0)`](CsrGraph::new).
    fn default() -> Self {
        CsrGraph::new(0)
    }
}

impl CsrGraph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        CsrGraph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Duplicate edges and self-loops are dropped. The entire input is
    /// **validated before any structure is built**, so an error can never
    /// leave a half-populated graph behind. Returns an error if an endpoint
    /// is `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        Self::from_edges_diagnostic(n, edges).map(|(g, _)| g)
    }

    /// [`CsrGraph::from_edges`] variant that also reports how many self-loops
    /// and duplicate edges were dropped (io diagnostics).
    pub fn from_edges_diagnostic<I>(
        n: usize,
        edges: I,
    ) -> Result<(Self, EdgeIngestStats), GraphError>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        if n > VertexId::MAX as usize {
            return Err(GraphError::TooManyVertices(n));
        }
        // Validation pass: collect and range-check every edge before any
        // adjacency structure is touched.
        let edges: Vec<Edge> = edges.into_iter().collect();
        for &(u, v) in &edges {
            if u as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u as u64,
                    num_vertices: n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v as u64,
                    num_vertices: n,
                });
            }
        }
        let mut stats = EdgeIngestStats::default();

        // Counting pass (self-loops excluded).
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            if u == v {
                stats.self_loops += 1;
                continue;
            }
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }

        // Fill pass.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as VertexId; acc as usize];
        for &(u, v) in &edges {
            if u == v {
                continue;
            }
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }

        // Sort and dedup each row in place, compacting as we go.
        let mut write = 0usize;
        let mut new_offsets = Vec::with_capacity(n + 1);
        new_offsets.push(0u32);
        let mut dropped_directed = 0usize;
        for v in 0..n {
            let (start, end) = (offsets[v] as usize, offsets[v + 1] as usize);
            neighbors[start..end].sort_unstable();
            let mut prev = INVALID_VERTEX;
            for i in start..end {
                let w = neighbors[i];
                if w == prev {
                    dropped_directed += 1;
                    continue;
                }
                prev = w;
                neighbors[write] = w;
                write += 1;
            }
            new_offsets.push(write as u32);
        }
        neighbors.truncate(write);
        // Each duplicate undirected edge occurrence was stored in two rows.
        stats.duplicates = dropped_directed / 2;
        Ok((
            CsrGraph {
                offsets: new_offsets,
                neighbors,
            },
            stats,
        ))
    }

    /// Assembles a graph directly from its two flat arrays. Internal
    /// constructor for passes that produce already-valid CSR data
    /// (reordering, the streaming loader's merge, `KCSR` decoding); the
    /// [`GraphView`] invariants are only debug-asserted, so every
    /// crate-internal producer must guarantee them.
    pub(crate) fn from_parts(offsets: Vec<u32>, neighbors: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            neighbors.len()
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrGraph { offsets, neighbors }
    }

    /// Copies any [`GraphView`] into CSR form, at exact capacity.
    pub fn from_view<G: GraphView>(g: &G) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0u32);
        for v in 0..n as VertexId {
            neighbors.extend_from_slice(g.neighbors(v));
            offsets.push(neighbors.len() as u32);
        }
        CsrGraph { offsets, neighbors }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Edge test (binary search on the smaller neighbour slice).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        GraphView::has_edge(self, u, v)
    }

    /// Approximate heap bytes of the two flat arrays.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
            + std::mem::size_of::<Self>()
    }

    /// The raw offset array (`n + 1` entries; row `v` is
    /// `offsets[v]..offsets[v + 1]`). Exposed for wire serialisation and
    /// zero-copy interop; the adjacency itself is in
    /// [`CsrGraph::neighbor_data`].
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The concatenated neighbour array (length `2m`).
    #[inline]
    pub fn neighbor_data(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Serialises the graph into the **compact** wire form: magic `b"KCSR"`,
    /// version 2 and `n` as a little-endian `u32`, then every row as a degree
    /// varint followed by the delta + varint encoding of the sorted
    /// neighbour slice ([`crate::codec::encode_row`]). On typical graphs this
    /// is 2–4× smaller than storing each id as a fixed 4-byte word.
    pub fn to_bytes_compact(&self) -> Vec<u8> {
        let n = self.num_vertices();
        // Small gaps dominate after sorting, so reserve roughly one byte per
        // neighbour entry plus per-row degree headroom.
        let mut out = Vec::with_capacity(CSR_COMPACT_HEADER + self.neighbors.len() + 2 * n);
        out.extend_from_slice(&CSR_WIRE_MAGIC);
        out.push(CSR_WIRE_VERSION_COMPACT);
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for v in 0..n as VertexId {
            let row = CsrGraph::neighbors(self, v);
            crate::codec::varint::encode_u32(row.len() as u32, &mut out);
            crate::codec::encode_row(row, &mut out);
        }
        out
    }

    /// Deserialises a buffer produced by [`CsrGraph::to_bytes_compact`] or
    /// [`CsrGraph::to_bytes_aligned`], validating the structural invariants
    /// (monotone offsets, in-range and per-row strictly-sorted neighbours,
    /// symmetric adjacency) so a corrupted or hostile buffer can never
    /// produce a graph that later panics.
    ///
    /// This is the transport format for cross-process work items: a shard
    /// receives `(csr bytes, id map)` and can start enumerating without any
    /// shared memory.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GraphError> {
        let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
        if bytes.len() < CSR_COMPACT_HEADER {
            return Err(malformed("buffer shorter than the header"));
        }
        if bytes[..4] != CSR_WIRE_MAGIC {
            return Err(malformed("bad magic (not a CSR graph buffer)"));
        }
        let (offsets, neighbors) = match bytes[4] {
            CSR_WIRE_VERSION_COMPACT => Self::parse_compact(bytes)?,
            // The aligned layout carries its own header checksum and runs the
            // same row validation internally, so it returns directly.
            CSR_WIRE_VERSION_ALIGNED => return crate::kcsr::decode_kcsr(bytes),
            _ => return Err(malformed("unsupported format version")),
        };
        let graph = CsrGraph { offsets, neighbors };
        graph.validate_rows()?;
        Ok(graph)
    }

    /// Parses the version-2 varint/delta layout into `(offsets, neighbors)`.
    fn parse_compact(bytes: &[u8]) -> Result<(Vec<u32>, Vec<VertexId>), GraphError> {
        let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
        let mut r = crate::codec::Reader::new(&bytes[CSR_COMPACT_HEADER - 4..]);
        let n = r
            .u32_le()
            .ok_or_else(|| malformed("buffer shorter than the header"))? as usize;
        // Every row costs at least its one-byte degree varint, so a hostile
        // vertex count can never exceed the buffer that carried it.
        if n > r.remaining() {
            return Err(malformed("vertex count disagrees with the buffer size"));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut neighbors: Vec<VertexId> = Vec::new();
        for _ in 0..n {
            let degree =
                r.varint_u32()
                    .ok_or_else(|| malformed("row degree truncated"))? as usize;
            let row = r
                .row(degree)
                .ok_or_else(|| malformed("row stream truncated"))?;
            neighbors.extend_from_slice(&row);
            if neighbors.len() > u32::MAX as usize {
                return Err(malformed("adjacency exceeds the id space"));
            }
            offsets.push(neighbors.len() as u32);
        }
        r.finish()
            .ok_or_else(|| malformed("trailing bytes after the last row"))?;
        Ok((offsets, neighbors))
    }

    /// Validates the row invariants every wire decoder must enforce:
    /// in-range, strictly sorted, loop-free rows and a symmetric adjacency.
    fn validate_rows(&self) -> Result<(), GraphError> {
        validate_view_rows(self)
    }

    /// Extracts the subgraph induced by `vertices` (which must be sorted
    /// ascending and duplicate-free) from any [`GraphView`], relabelling to
    /// local ids `0..vertices.len()` in the given order.
    ///
    /// `map` is caller-provided scratch: it is grown to the parent's vertex
    /// count on demand and every entry touched here is restored to
    /// [`INVALID_VERTEX`] before returning, so a single buffer can be reused
    /// across arbitrarily many extractions without re-zeroing (the
    /// scratch-arena pattern used by the enumerator's work loop).
    ///
    /// Because `vertices` is sorted and parent neighbour slices are sorted,
    /// the relabelled rows come out sorted with no per-row sort. A list of
    /// every vertex relabels nothing: it is [`CsrGraph::from_view`], a row
    /// copy at exact capacity that leaves `map` alone.
    pub fn extract_induced<G: GraphView>(
        g: &G,
        vertices: &[VertexId],
        map: &mut Vec<VertexId>,
    ) -> CsrGraph {
        debug_assert!(
            vertices.windows(2).all(|w| w[0] < w[1]),
            "vertex list must be sorted"
        );
        if vertices.len() == g.num_vertices() {
            return CsrGraph::from_view(g);
        }
        if map.len() < g.num_vertices() {
            map.resize(g.num_vertices(), INVALID_VERTEX);
        }
        for (local, &v) in vertices.iter().enumerate() {
            map[v as usize] = local as VertexId;
        }
        let mut offsets = Vec::with_capacity(vertices.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for &v in vertices {
            for &w in g.neighbors(v) {
                let lw = map[w as usize];
                if lw != INVALID_VERTEX {
                    neighbors.push(lw);
                }
            }
            offsets.push(neighbors.len() as u32);
        }
        // Restore the scratch map (only the touched entries).
        for &v in vertices {
            map[v as usize] = INVALID_VERTEX;
        }
        CsrGraph { offsets, neighbors }
    }

    /// A copy of the graph plus one vertex, id `n`, adjacent to every vertex
    /// of `adjacent` (sorted ascending and duplicate-free). The new vertex
    /// has the largest id, so each of its neighbours keeps a sorted row with
    /// `n` pushed last, and its own row is `adjacent` itself: no row is
    /// sorted again.
    pub fn with_apex(&self, adjacent: &[VertexId]) -> CsrGraph {
        debug_assert!(
            adjacent.windows(2).all(|w| w[0] < w[1]),
            "vertex list must be sorted"
        );
        let n = self.num_vertices();
        let apex = n as VertexId;
        let mut offsets = Vec::with_capacity(n + 2);
        let mut neighbors = Vec::with_capacity(self.neighbors.len() + 2 * adjacent.len());
        offsets.push(0u32);
        let mut next = adjacent.iter().peekable();
        for v in 0..n as VertexId {
            neighbors.extend_from_slice(self.neighbors(v));
            if next.next_if_eq(&&v).is_some() {
                neighbors.push(apex);
            }
            offsets.push(neighbors.len() as u32);
        }
        debug_assert!(next.peek().is_none(), "adjacent ids lie in the graph");
        neighbors.extend_from_slice(adjacent);
        offsets.push(neighbors.len() as u32);
        CsrGraph { offsets, neighbors }
    }

    /// Extracts the subgraph induced by `vertices` together with the
    /// local→parent mapping, relabelling to `0..` in the order given.
    /// Duplicate ids are ignored (first occurrence wins); unlike
    /// [`CsrGraph::extract_induced`] the list does not have to be sorted.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> CsrSubgraph {
        let mut to_parent: Vec<VertexId> = Vec::with_capacity(vertices.len());
        let mut to_local: Vec<VertexId> = vec![INVALID_VERTEX; self.num_vertices()];
        for &v in vertices {
            if to_local[v as usize] == INVALID_VERTEX {
                to_local[v as usize] = to_parent.len() as VertexId;
                to_parent.push(v);
            }
        }
        let mut offsets = Vec::with_capacity(to_parent.len() + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for &orig in &to_parent {
            let row_start = neighbors.len();
            for &w in self.neighbors(orig) {
                let lw = to_local[w as usize];
                if lw != INVALID_VERTEX {
                    neighbors.push(lw);
                }
            }
            neighbors[row_start..].sort_unstable();
            offsets.push(neighbors.len() as u32);
        }
        CsrSubgraph {
            graph: CsrGraph { offsets, neighbors },
            to_parent,
        }
    }
}

/// The row invariants every untrusted-input loader must enforce before
/// handing out a graph: in-range, strictly sorted, loop-free rows and a
/// symmetric adjacency. Shared by both wire-format versions (the
/// aligned loaders in [`crate::kcsr`] run it over the borrowed view, so the
/// zero-copy path gets exactly the same guarantees as the decoders).
pub(crate) fn validate_view_rows<G: GraphView>(g: &G) -> Result<(), GraphError> {
    let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
    let n = g.num_vertices();
    for v in 0..n {
        let row = g.neighbors(v as VertexId);
        if row.iter().any(|&w| w as usize >= n) {
            return Err(malformed("neighbour id out of range"));
        }
        if row.windows(2).any(|w| w[0] >= w[1]) {
            return Err(malformed("rows must be strictly sorted"));
        }
        if row.binary_search(&(v as VertexId)).is_ok() {
            return Err(malformed("self-loops are not allowed"));
        }
    }
    // Symmetry is load-bearing (peeling and flow construction assume
    // every directed entry has its reverse), so it is a real validation,
    // not a debug assertion.
    for v in g.vertices() {
        for &w in g.neighbors(v) {
            if g.neighbors(w).binary_search(&v).is_err() {
                return Err(malformed("adjacency must be symmetric"));
            }
        }
    }
    Ok(())
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraph::num_edges(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrGraph::neighbors(self, v)
    }

    fn memory_bytes(&self) -> usize {
        CsrGraph::memory_bytes(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraph::degree(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles_edges() -> Vec<Edge> {
        vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
    }

    #[test]
    fn from_edges_builds_sorted_rows() {
        let g = CsrGraph::from_edges(5, two_triangles_edges()).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert_eq!(g.degree(2), 4);
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn from_edges_reports_diagnostics() {
        let (g, stats) = CsrGraph::from_edges_diagnostic(
            4,
            vec![(0, 1), (1, 0), (1, 1), (2, 3), (2, 3), (3, 2)],
        )
        .unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(stats.self_loops, 1);
        assert_eq!(stats.duplicates, 3);
    }

    #[test]
    fn from_edges_validates_before_building() {
        let err = CsrGraph::from_edges(2, vec![(0, 1), (0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 5,
                num_vertices: 2
            }
        ));
    }

    #[test]
    fn csr_matches_vec_adjacency_exactly() {
        // Reference: one sorted, deduplicated `Vec` per vertex.
        let mut edges = two_triangles_edges();
        edges.extend([(1, 0), (4, 4), (3, 2)]);
        let mut adjacency: Vec<Vec<VertexId>> = vec![Vec::new(); 5];
        for &(u, v) in &edges {
            if u != v {
                adjacency[u as usize].push(v);
                adjacency[v as usize].push(u);
            }
        }
        for row in &mut adjacency {
            row.sort_unstable();
            row.dedup();
        }
        let csr = CsrGraph::from_edges(5, edges.clone()).unwrap();
        assert_eq!(csr.num_vertices(), adjacency.len());
        assert_eq!(
            csr.num_edges(),
            adjacency.iter().map(Vec::len).sum::<usize>() / 2
        );
        for (v, row) in adjacency.iter().enumerate() {
            assert_eq!(csr.neighbors(v as VertexId), row.as_slice());
        }
        assert_eq!(CsrGraph::from_view(&csr), csr);
        let mut builder = crate::GraphBuilder::new();
        builder.extend_edges(edges);
        assert_eq!(builder.build(), csr);
    }

    #[test]
    fn extract_induced_restores_scratch_map() {
        let g = CsrGraph::from_edges(5, two_triangles_edges()).unwrap();
        let mut map = Vec::new();
        let sub = CsrGraph::extract_induced(&g, &[2, 3, 4], &mut map);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.neighbors(0), &[1, 2]); // vertex 2 -> {3, 4}
        assert!(
            map.iter().all(|&x| x == INVALID_VERTEX),
            "scratch must be restored"
        );
        // Reuse the same buffer for a second extraction.
        let sub2 = CsrGraph::extract_induced(&g, &[0, 1, 2], &mut map);
        assert_eq!(sub2.num_edges(), 3);
    }

    #[test]
    fn with_apex_matches_from_edges() {
        let g = CsrGraph::from_edges(5, two_triangles_edges()).unwrap();
        for adjacent in [vec![], vec![2], vec![0, 3, 4], vec![0, 1, 2, 3, 4]] {
            let apex = adjacent.iter().map(|&v| (v, 5));
            let expected =
                CsrGraph::from_edges(6, two_triangles_edges().into_iter().chain(apex)).unwrap();
            assert_eq!(g.with_apex(&adjacent), expected, "apex on {adjacent:?}");
        }
    }

    #[test]
    fn induced_subgraph_matches_vec_version() {
        let g =
            CsrGraph::from_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        // An unsorted list with a repeat: first occurrences set the order.
        let sub = g.induced_subgraph(&[3, 1, 2, 3, 5]);
        let to_parent: Vec<VertexId> = vec![3, 1, 2, 5];
        assert_eq!(sub.to_parent, to_parent);
        // Reference: each parent row filtered through the local ids, sorted.
        for (local, &parent) in to_parent.iter().enumerate() {
            let mut row: Vec<VertexId> = g
                .neighbors(parent)
                .iter()
                .filter_map(|w| to_parent.iter().position(|p| p == w))
                .map(|l| l as VertexId)
                .collect();
            row.sort_unstable();
            assert_eq!(sub.graph.neighbors(local as VertexId), row.as_slice());
        }
        assert_eq!(sub.graph.num_edges(), 2);
    }

    #[test]
    fn default_is_the_empty_graph() {
        let g = CsrGraph::default();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(GraphView::edges(&g).count(), 0);
        assert_eq!(g, CsrGraph::new(0));
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = CsrGraph::new(0);
        assert!(GraphView::is_empty(&g));
        assert_eq!(g.num_edges(), 0);
        assert_eq!(GraphView::edges(&g).count(), 0);
        let g = CsrGraph::new(3);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn from_bytes_rejects_corrupted_buffers() {
        let g = CsrGraph::from_edges(5, two_triangles_edges()).unwrap();
        let good = g.to_bytes_compact();
        let reason_of = |bytes: &[u8]| match CsrGraph::from_bytes(bytes) {
            Err(GraphError::MalformedBytes { reason }) => reason,
            other => panic!("expected MalformedBytes, got {other:?}"),
        };

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(reason_of(&bad_magic), "bad magic (not a CSR graph buffer)");

        // Version 1 (the retired fixed-width layout) is refused like any
        // unknown version.
        for version in [1u8, 99] {
            let mut bad_version = good.clone();
            bad_version[4] = version;
            assert_eq!(reason_of(&bad_version), "unsupported format version");
        }

        // Out-of-range neighbour id: the last row is vertex 4's [2, 3], whose
        // final byte is the gap varint; a gap of 100 decodes to 103 >= n.
        let mut bad_neighbor = good.clone();
        let len = bad_neighbor.len();
        assert_eq!(bad_neighbor[len - 1], 0, "gap 3 - 2 - 1");
        bad_neighbor[len - 1] = 100;
        assert_eq!(reason_of(&bad_neighbor), "neighbour id out of range");
    }

    #[test]
    fn compact_byte_roundtrip_preserves_the_graph() {
        let g = CsrGraph::from_edges(5, two_triangles_edges()).unwrap();
        let compact = g.to_bytes_compact();
        assert_eq!(CsrGraph::from_bytes(&compact).unwrap(), g);
        // The retired fixed-width v1 layout: 13-byte header, then n + 1
        // offsets and 2m neighbours as 4-byte words.
        let fixed_v1 = 13 + 4 * (g.num_vertices() + 1) + 8 * g.num_edges();
        assert!(
            compact.len() < fixed_v1,
            "compact form must be smaller than fixed-width on a real graph"
        );
        // Empty and edgeless graphs roundtrip too.
        for n in [0usize, 3] {
            let g = CsrGraph::new(n);
            assert_eq!(CsrGraph::from_bytes(&g.to_bytes_compact()).unwrap(), g);
        }
    }

    #[test]
    fn compact_from_bytes_rejects_corrupted_buffers() {
        let g = CsrGraph::from_edges(5, two_triangles_edges()).unwrap();
        let good = g.to_bytes_compact();
        let assert_malformed = |bytes: &[u8]| {
            assert!(matches!(
                CsrGraph::from_bytes(bytes),
                Err(GraphError::MalformedBytes { .. })
            ));
        };
        // Every truncation fails cleanly (header, degree, or row stream).
        for cut in 0..good.len() {
            assert_malformed(&good[..cut]);
        }
        // Trailing garbage after the last row.
        let mut trailing = good.clone();
        trailing.push(0);
        assert_malformed(&trailing);
        // A hostile vertex count larger than the buffer is rejected before
        // any allocation.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(b"KCSR");
        hostile.push(2);
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_malformed(&hostile);
        // Asymmetric adjacency fails validation in the compact path too:
        // vertex 0 lists 1, vertex 1 lists nothing.
        let mut asymmetric = Vec::new();
        asymmetric.extend_from_slice(b"KCSR");
        asymmetric.push(2);
        asymmetric.extend_from_slice(&2u32.to_le_bytes());
        asymmetric.push(1); // degree of vertex 0
        asymmetric.push(1); // row [1]
        asymmetric.push(0); // degree of vertex 1
        assert_malformed(&asymmetric);
    }

    #[test]
    fn raw_accessors_expose_the_arrays() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.offsets(), &[0, 1, 3, 4]);
        assert_eq!(g.neighbor_data(), &[1, 0, 2, 1]);
    }

    #[test]
    fn too_many_vertices_is_rejected() {
        if usize::BITS > 32 {
            let err = CsrGraph::from_edges(VertexId::MAX as usize + 1, vec![]).unwrap_err();
            assert!(matches!(err, GraphError::TooManyVertices(_)));
        }
    }
}
