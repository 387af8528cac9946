//! The aligned, zero-copy `KCSR` v3 on-disk CSR format.
//!
//! Version 2 (delta + varint, [`crate::CsrGraph::to_bytes_compact`]) of the
//! `KCSR` wire format must be *decoded*: every load allocates two fresh
//! arrays and walks the whole payload byte by byte, which makes opening a
//! million-edge graph an O(m) decode before the first query. Version 3 instead lays the two CSR
//! arrays out **8-byte-aligned and little-endian** behind a validated header,
//! so a loader that holds the file in aligned memory can *borrow* the buffer:
//! [`CsrGraphRef`] reinterprets the offset and neighbour regions as `&[u32]`
//! in O(1) and implements [`GraphView`] directly over them. The same layout
//! is what an `mmap`-backed substrate would map, hence "mmap-ready".
//!
//! # Layout (all integers little-endian)
//!
//! | offset | size       | field                                        |
//! |--------|------------|----------------------------------------------|
//! | 0      | 4          | magic `b"KCSR"`                              |
//! | 4      | 1          | format version (3)                           |
//! | 5      | 1          | endianness marker (1 = little)               |
//! | 6      | 2          | reserved, must be zero                       |
//! | 8      | 8          | `n` — number of vertices (`u64`)             |
//! | 16     | 8          | `2m` — neighbour count (`u64`)               |
//! | 24     | 8          | word-wise FNV-1a-64 checksum of the payload  |
//! | 32     | 4·(n+1)    | offsets (`u32`)                              |
//! | …      | 0 or 4     | zero padding to the next 8-byte boundary     |
//! | …      | 4·2m       | neighbours (`u32`)                           |
//!
//! Because the header is 32 bytes and the padding realigns after the offset
//! array, **both** array regions start 8-byte-aligned whenever the buffer
//! itself does. [`AlignedBytes`] guarantees exactly that (it stores file
//! bytes in `u64` words), so [`MappedCsr::open`] always takes the borrow
//! path on little-endian hosts. Foreign buffers — an unaligned subslice of a
//! network frame, or any buffer on a big-endian host — fall back to
//! [`decode_kcsr`], the checked copy path accepting arbitrary `&[u8]`.
//!
//! # Integrity
//!
//! The header checksum covers the entire payload, so a truncated or
//! bit-flipped file is rejected before any graph is handed out. On top of
//! that, both load paths run the same structural validation as
//! [`CsrGraph::from_bytes`] (monotone offsets; in-range, strictly sorted,
//! loop-free rows; symmetric adjacency) — a read-only scan with no per-row
//! allocation, which is what keeps the borrow path cheap: an aligned load is
//! one O(n + m) verification sweep instead of a varint decode plus two array
//! builds.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use crate::csr::{validate_view_rows, CsrGraph, CSR_WIRE_MAGIC, CSR_WIRE_VERSION_ALIGNED};
use crate::error::GraphError;
use crate::types::VertexId;
use crate::view::GraphView;

/// Header size of the version-3 layout.
const KCSR_HEADER: usize = 32;
/// Endianness marker byte: the format is always written little-endian.
const KCSR_LITTLE_ENDIAN: u8 = 1;

/// The one place in the crate where `unsafe` is allowed: reinterpreting
/// casts between byte and word slices. Both directions are
/// alignment-checked (or alignment-guaranteed by construction) and involve
/// only integer types, for which every bit pattern is valid.
mod cast {
    #![allow(unsafe_code)]

    /// Reinterprets `bytes` as `&[u32]` without copying. Returns `None`
    /// unless the region is 4-byte-aligned, a whole number of `u32`s long,
    /// and the host is little-endian (the on-disk format is little-endian,
    /// so a big-endian host must take the copy path instead).
    pub(super) fn bytes_as_u32s(bytes: &[u8]) -> Option<&[u32]> {
        if !cfg!(target_endian = "little") || !bytes.len().is_multiple_of(4) {
            return None;
        }
        // SAFETY: `align_to` splits at correct alignment boundaries and
        // never exceeds the input region; `u32` has no invalid bit
        // patterns. Requiring the prefix and suffix to be empty proves the
        // whole region was reinterpreted.
        let (prefix, mid, suffix) = unsafe { bytes.align_to::<u32>() };
        (prefix.is_empty() && suffix.is_empty()).then_some(mid)
    }

    /// The bytes of a `u64` word buffer (always valid: 8-to-1 widening).
    pub(super) fn words_as_bytes(words: &[u64]) -> &[u8] {
        // SAFETY: a `u64` slice is 8 contiguous bytes per element with no
        // padding, and every byte pattern is a valid `u8`.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
    }

    /// Mutable byte view of a `u64` word buffer (for reading a file
    /// directly into aligned storage).
    pub(super) fn words_as_bytes_mut(words: &mut [u64]) -> &mut [u8] {
        // SAFETY: as [`words_as_bytes`]; the returned borrow holds the
        // exclusive borrow of `words`, and any byte write leaves the
        // underlying `u64`s valid.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8) }
    }
}

/// A byte buffer whose start is guaranteed 8-byte-aligned (it is backed by
/// `u64` words), so a `KCSR` v3 file held in it can always be borrowed
/// zero-copy on little-endian hosts. This is the in-memory stand-in for an
/// `mmap`-ed region, which the OS also hands out page-aligned.
#[derive(Clone, Debug, Default)]
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// An aligned zeroed buffer of `len` bytes.
    pub fn with_len(len: usize) -> Self {
        AlignedBytes {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    /// Copies an arbitrary byte slice into aligned storage.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut out = Self::with_len(bytes.len());
        out.as_bytes_mut().copy_from_slice(bytes);
        out
    }

    /// Reads a whole file into aligned storage — the load primitive behind
    /// [`MappedCsr::open`]. One read syscall loop into the final buffer; no
    /// intermediate `Vec<u8>`.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| GraphError::MalformedBytes {
            reason: "file too large for this address space",
        })?;
        let mut out = Self::with_len(len);
        file.read_exact(out.as_bytes_mut())?;
        Ok(out)
    }

    /// The buffer contents.
    pub fn as_bytes(&self) -> &[u8] {
        &cast::words_as_bytes(&self.words)[..self.len]
    }

    /// Mutable view of the buffer contents.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        &mut cast::words_as_bytes_mut(&mut self.words)[..len]
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// FNV-1a 64-bit hash over 8-byte little-endian words (trailing bytes
/// folded individually) — the payload checksum of the v3 header. Word-wise
/// folding matters: the hash is a serial xor→multiply chain, so per-byte
/// FNV costs one multiply latency *per payload byte* and would dominate the
/// whole zero-copy load. One step per word is 8× shorter. Every step is a
/// bijection (xor, then multiply by an odd constant), so any single-bit
/// flip still changes the final hash. Not cryptographic; it exists to
/// catch truncation, bit rot and torn writes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut chunks = bytes.chunks_exact(8);
    let mut h = OFFSET;
    for c in chunks.by_ref() {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// Byte ranges of a validated v3 buffer (header already checked).
#[derive(Clone, Copy, Debug)]
struct Layout {
    n: usize,
    num_neighbors: usize,
    offsets_at: usize,
    neighbors_at: usize,
}

impl Layout {
    fn offsets_end(&self) -> usize {
        self.offsets_at + 4 * (self.n + 1)
    }

    fn neighbors_end(&self) -> usize {
        self.neighbors_at + 4 * self.num_neighbors
    }
}

/// Padding inserted after the offset array so the neighbour array starts
/// 8-byte-aligned: the offsets end on a 4-byte boundary, so this is 0 or 4.
fn pad_after_offsets(n: usize) -> usize {
    (8 - (4 * (n + 1)) % 8) % 8
}

/// Parses and fully validates the v3 header: magic, version, endianness
/// marker, reserved bytes, exact total length, and the payload checksum.
fn parse_header(bytes: &[u8]) -> Result<Layout, GraphError> {
    let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
    if bytes.len() < KCSR_HEADER {
        return Err(malformed("buffer shorter than the aligned header"));
    }
    if bytes[..4] != CSR_WIRE_MAGIC {
        return Err(malformed("bad magic (not a CSR graph buffer)"));
    }
    if bytes[4] != CSR_WIRE_VERSION_ALIGNED {
        return Err(malformed("not an aligned (version 3) CSR buffer"));
    }
    if bytes[5] != KCSR_LITTLE_ENDIAN {
        return Err(malformed("unknown endianness marker"));
    }
    if bytes[6] != 0 || bytes[7] != 0 {
        return Err(malformed("reserved header bytes must be zero"));
    }
    let read_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let n = usize::try_from(read_u64(8)).map_err(|_| malformed("vertex count overflows"))?;
    let num_neighbors =
        usize::try_from(read_u64(16)).map_err(|_| malformed("neighbour count overflows"))?;
    let declared_sum = read_u64(24);
    // Exact-length check with overflow-safe arithmetic: a hostile header
    // cannot request regions beyond (or short of) the buffer it arrived in.
    let expected = 4usize
        .checked_mul(
            n.checked_add(1)
                .ok_or_else(|| malformed("vertex count overflows"))?,
        )
        .and_then(|ob| ob.checked_add(pad_after_offsets(n)))
        .and_then(|t| {
            4usize
                .checked_mul(num_neighbors)
                .and_then(|nb| t.checked_add(nb))
        })
        .and_then(|t| t.checked_add(KCSR_HEADER))
        .ok_or_else(|| malformed("header sizes overflow"))?;
    if bytes.len() != expected {
        return Err(malformed("buffer length disagrees with the header"));
    }
    if fnv1a64(&bytes[KCSR_HEADER..]) != declared_sum {
        return Err(malformed("payload checksum mismatch (corrupted buffer)"));
    }
    let offsets_at = KCSR_HEADER;
    let neighbors_at = offsets_at + 4 * (n + 1) + pad_after_offsets(n);
    Ok(Layout {
        n,
        num_neighbors,
        offsets_at,
        neighbors_at,
    })
}

/// Offset-array invariants shared by both load paths: starts at zero, ends
/// at the neighbour count, never decreases. Checked **before** any
/// [`CsrGraphRef`] is formed, because row slicing assumes them.
fn check_offsets(offsets: &[u32], num_neighbors: usize) -> Result<(), GraphError> {
    let malformed = |reason: &'static str| GraphError::MalformedBytes { reason };
    let last = *offsets.last().expect("offsets have n + 1 >= 1 entries");
    if offsets[0] != 0 || last as usize != num_neighbors {
        return Err(malformed("offset array does not span the adjacency"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("offsets must be non-decreasing"));
    }
    Ok(())
}

/// A borrowed CSR graph over two reinterpreted `&[u32]` regions — the
/// zero-copy view of a `KCSR` v3 buffer. Implements [`GraphView`], so every
/// algorithm in the workspace runs on it directly; [`CsrGraphRef::to_graph`]
/// materialises an owned [`CsrGraph`] when one is needed.
#[derive(Clone, Copy, Debug)]
pub struct CsrGraphRef<'a> {
    offsets: &'a [u32],
    neighbors: &'a [u32],
}

impl<'a> CsrGraphRef<'a> {
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

    /// The sorted neighbour slice of `v`, borrowing the underlying buffer
    /// for the full lifetime `'a` (not just this call).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        &self.neighbors[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Copies the borrowed arrays into an owned [`CsrGraph`].
    pub fn to_graph(&self) -> CsrGraph {
        CsrGraph::from_parts(self.offsets.to_vec(), self.neighbors.to_vec())
    }
}

impl GraphView for CsrGraphRef<'_> {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraphRef::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        CsrGraphRef::num_edges(self)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        CsrGraphRef::neighbors(self, v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        CsrGraphRef::degree(self, v)
    }

    /// The view itself owns nothing; the borrowed regions are reported so
    /// the memory tracker still sees the resident working set.
    fn memory_bytes(&self) -> usize {
        4 * (self.offsets.len() + self.neighbors.len()) + std::mem::size_of::<Self>()
    }
}

/// Casts the two payload regions of a validated layout. Fails (`None`) only
/// for unaligned buffers or big-endian hosts.
fn borrow_regions<'a>(bytes: &'a [u8], layout: &Layout) -> Option<CsrGraphRef<'a>> {
    let offsets = cast::bytes_as_u32s(&bytes[layout.offsets_at..layout.offsets_end()])?;
    let neighbors = cast::bytes_as_u32s(&bytes[layout.neighbors_at..layout.neighbors_end()])?;
    Some(CsrGraphRef { offsets, neighbors })
}

/// Borrows a `KCSR` v3 buffer zero-copy, validating the header, checksum
/// and the full [`GraphView`] structural contract. Errors (instead of
/// silently copying) when the buffer is not 4-byte-aligned or the host is
/// big-endian — callers that can hold unaligned bytes should use
/// [`decode_kcsr`] as the fallback.
pub fn borrow_kcsr(bytes: &[u8]) -> Result<CsrGraphRef<'_>, GraphError> {
    let layout = parse_header(bytes)?;
    let graph = borrow_regions(bytes, &layout).ok_or(GraphError::MalformedBytes {
        reason: "buffer not aligned for zero-copy borrow (decode_kcsr is the fallback)",
    })?;
    check_offsets(graph.offsets, layout.num_neighbors)?;
    validate_view_rows(&graph)?;
    Ok(graph)
}

/// The checked copy fallback: decodes a `KCSR` v3 buffer into an owned
/// [`CsrGraph`] from **any** `&[u8]`, whatever its alignment or the host
/// endianness. Same validation as [`borrow_kcsr`]; the two paths produce
/// byte-identical graphs.
pub fn decode_kcsr(bytes: &[u8]) -> Result<CsrGraph, GraphError> {
    let layout = parse_header(bytes)?;
    let decode_region = |at: usize, count: usize| -> Vec<u32> {
        bytes[at..at + 4 * count]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect()
    };
    let offsets = decode_region(layout.offsets_at, layout.n + 1);
    let neighbors = decode_region(layout.neighbors_at, layout.num_neighbors);
    check_offsets(&offsets, layout.num_neighbors)?;
    let graph = CsrGraph::from_parts(offsets, neighbors);
    validate_view_rows(&graph)?;
    Ok(graph)
}

impl CsrGraph {
    /// Serialises the graph in the aligned `KCSR` v3 layout (see the
    /// [module docs](self)). The buffer can be loaded zero-copy via
    /// [`borrow_kcsr`] / [`MappedCsr`], decoded from any alignment via
    /// [`decode_kcsr`], or handed to [`CsrGraph::from_bytes`], which
    /// accepts all three format versions.
    pub fn to_bytes_aligned(&self) -> Vec<u8> {
        let n = self.num_vertices();
        let offsets = self.offsets();
        let neighbors = self.neighbor_data();
        let pad = pad_after_offsets(n);
        let total = KCSR_HEADER + 4 * offsets.len() + pad + 4 * neighbors.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&CSR_WIRE_MAGIC);
        out.push(CSR_WIRE_VERSION_ALIGNED);
        out.push(KCSR_LITTLE_ENDIAN);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(neighbors.len() as u64).to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // checksum patched below
        for &o in offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        out.extend_from_slice(&[0u8; 8][..pad]);
        for &w in neighbors {
            out.extend_from_slice(&w.to_le_bytes());
        }
        debug_assert_eq!(out.len(), total);
        let sum = fnv1a64(&out[KCSR_HEADER..]);
        out[24..32].copy_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Writes a graph to disk in the aligned `KCSR` v3 format.
pub fn write_kcsr_file<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<(), GraphError> {
    std::fs::write(path, graph.to_bytes_aligned())?;
    Ok(())
}

/// An owned, aligned `KCSR` v3 buffer serving queries **in place**: the file
/// bytes are held in [`AlignedBytes`] and every accessor re-derives the O(1)
/// borrowed view, so no decoded copy of the graph ever exists. Construction
/// validates once (header, checksum, structural contract); after that the
/// casts are infallible.
///
/// This is the in-process equivalent of an `mmap`-backed graph — swap
/// [`AlignedBytes`] for a mapped region and nothing else changes.
#[derive(Clone, Debug)]
pub struct MappedCsr {
    bytes: AlignedBytes,
    layout: Layout,
}

impl MappedCsr {
    /// Opens a `KCSR` v3 file zero-copy.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        Self::from_aligned(AlignedBytes::read_file(path)?)
    }

    /// Wraps an aligned buffer, validating it fully (header, checksum,
    /// structural row contract) exactly once.
    pub fn from_aligned(bytes: AlignedBytes) -> Result<Self, GraphError> {
        let layout = parse_header(bytes.as_bytes())?;
        let graph =
            borrow_regions(bytes.as_bytes(), &layout).ok_or(GraphError::MalformedBytes {
                reason: "buffer not aligned for zero-copy borrow (decode_kcsr is the fallback)",
            })?;
        check_offsets(graph.offsets, layout.num_neighbors)?;
        validate_view_rows(&graph)?;
        Ok(MappedCsr { bytes, layout })
    }

    /// The borrowed CSR view over the owned buffer.
    #[inline]
    pub fn as_csr_ref(&self) -> CsrGraphRef<'_> {
        borrow_regions(self.bytes.as_bytes(), &self.layout).expect("validated at construction")
    }

    /// Size of the backing buffer in bytes (the file size).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }
}

impl GraphView for MappedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.layout.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.layout.num_neighbors / 2
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.as_csr_ref().neighbors(v)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.as_csr_ref().degree(v)
    }

    fn memory_bytes(&self) -> usize {
        self.bytes.words.capacity() * 8 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> CsrGraph {
        CsrGraph::from_edges(
            6,
            vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)],
        )
        .unwrap()
    }

    #[test]
    fn aligned_roundtrip_borrow_and_decode_agree() {
        for graph in [sample_graph(), CsrGraph::new(0), CsrGraph::new(3)] {
            let bytes = AlignedBytes::copy_from(&graph.to_bytes_aligned());
            let borrowed = borrow_kcsr(bytes.as_bytes()).unwrap();
            assert_eq!(borrowed.to_graph(), graph);
            let decoded = decode_kcsr(bytes.as_bytes()).unwrap();
            assert_eq!(decoded, graph);
            // The generic entry point accepts version 3 too.
            assert_eq!(CsrGraph::from_bytes(bytes.as_bytes()).unwrap(), graph);
        }
    }

    #[test]
    fn both_regions_are_eight_byte_aligned() {
        for n in [0usize, 1, 2, 5, 8] {
            let graph = CsrGraph::new(n);
            let bytes = graph.to_bytes_aligned();
            let pad = pad_after_offsets(n);
            assert_eq!((KCSR_HEADER + 4 * (n + 1) + pad) % 8, 0, "n = {n}");
            assert_eq!(bytes.len(), KCSR_HEADER + 4 * (n + 1) + pad, "n = {n}");
        }
    }

    #[test]
    fn unaligned_buffers_borrow_err_but_decode_fine() {
        let graph = sample_graph();
        let encoded = graph.to_bytes_aligned();
        // Shift the buffer by one byte so it cannot be 4-byte-aligned.
        let mut shifted = vec![0u8; encoded.len() + 1];
        shifted[1..].copy_from_slice(&encoded);
        let view = &shifted[1..];
        if cfg!(target_endian = "little") {
            assert!(matches!(
                borrow_kcsr(view),
                Err(GraphError::MalformedBytes { .. })
            ));
        }
        assert_eq!(decode_kcsr(view).unwrap(), graph);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let graph = sample_graph();
        let good = graph.to_bytes_aligned();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_kcsr(&bad).is_err(),
                    "flip of byte {byte} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncations_and_trailing_garbage_are_rejected() {
        let good = sample_graph().to_bytes_aligned();
        for cut in 0..good.len() {
            assert!(decode_kcsr(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_kcsr(&trailing).is_err());
    }

    #[test]
    fn mapped_csr_serves_queries_in_place() {
        let graph = sample_graph();
        let mapped =
            MappedCsr::from_aligned(AlignedBytes::copy_from(&graph.to_bytes_aligned())).unwrap();
        assert_eq!(mapped.num_vertices(), graph.num_vertices());
        assert_eq!(mapped.num_edges(), graph.num_edges());
        for v in graph.vertices() {
            assert_eq!(GraphView::neighbors(&mapped, v), graph.neighbors(v));
        }
        assert!(mapped.memory_bytes() >= mapped.byte_len());
        assert_eq!(mapped.as_csr_ref().to_graph(), graph);
    }

    #[test]
    fn mapped_csr_file_roundtrip() {
        let graph = sample_graph();
        let path = std::env::temp_dir().join(format!("kvcc_kcsr_test_{}.kcsr", std::process::id()));
        write_kcsr_file(&graph, &path).unwrap();
        let mapped = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.as_csr_ref().to_graph(), graph);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_headers_are_rejected_before_allocation() {
        let assert_malformed = |bytes: &[u8]| {
            assert!(matches!(
                decode_kcsr(bytes),
                Err(GraphError::MalformedBytes { .. })
            ));
        };
        // Giant vertex count in a tiny buffer.
        let mut hostile = sample_graph().to_bytes_aligned()[..KCSR_HEADER].to_vec();
        hostile[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_malformed(&hostile);
        // Wrong endianness marker and non-zero reserved bytes.
        let good = sample_graph().to_bytes_aligned();
        let mut bad_endian = good.clone();
        bad_endian[5] = 2;
        assert_malformed(&bad_endian);
        let mut bad_reserved = good.clone();
        bad_reserved[6] = 1;
        assert_malformed(&bad_reserved);
    }

    #[test]
    fn asymmetric_payloads_fail_structural_validation() {
        // Hand-build a v3 buffer whose rows are not symmetric: vertex 0
        // lists 1, vertex 1 lists nothing. Header and checksum are valid,
        // so only the structural sweep can catch it.
        let mut out = Vec::new();
        out.extend_from_slice(&CSR_WIRE_MAGIC);
        out.push(CSR_WIRE_VERSION_ALIGNED);
        out.push(KCSR_LITTLE_ENDIAN);
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&2u64.to_le_bytes()); // n
        out.extend_from_slice(&1u64.to_le_bytes()); // 2m
        out.extend_from_slice(&[0u8; 8]); // checksum placeholder
        for offset in [0u32, 1, 1] {
            out.extend_from_slice(&offset.to_le_bytes());
        }
        out.extend_from_slice(&[0u8; 4]); // pad (n = 2 -> offsets 12 bytes)
        out.extend_from_slice(&1u32.to_le_bytes()); // 0 -> 1 only
        let sum = fnv1a64(&out[KCSR_HEADER..]);
        out[24..32].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_kcsr(&out),
            Err(GraphError::MalformedBytes { reason }) if reason.contains("symmetric")
        ));
    }

    #[test]
    fn aligned_bytes_basics() {
        assert!(AlignedBytes::default().is_empty());
        let b = AlignedBytes::copy_from(&[1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.as_bytes(), &[1, 2, 3, 4, 5]);
        assert_eq!(
            b.as_bytes().as_ptr() as usize % 8,
            0,
            "8-byte-aligned start"
        );
    }
}
