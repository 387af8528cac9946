//! Shared variable-length byte codec for every wire format in the workspace.
//!
//! The compact CSR form, the serialised work items, the persisted
//! connectivity index and the `kvcc-service` protocol all store LEB128
//! varints and delta-encoded id rows, so they share this one implementation.
//!
//! Three layers:
//!
//! * [`varint`] — raw LEB128 encode/decode for `u32` and `u64` values,
//!   rejecting truncated and overlong inputs;
//! * [`encode_row`] / [`decode_row`] — strictly-increasing id lists stored as
//!   first-value + gap-minus-one varints (sorted component members, adjacency
//!   rows, vertex cuts);
//! * [`Reader`] — a bounds-checked cursor over an untrusted buffer, so
//!   decoders validate as they go and can never index out of range.

use crate::types::VertexId;

/// LEB128 varint codec for `u32` and `u64` values.
pub mod varint {
    /// Appends `value` to `out` as an LEB128 varint (1–5 bytes).
    pub fn encode_u32(mut value: u32, out: &mut Vec<u8>) {
        while value >= 0x80 {
            out.push((value as u8 & 0x7F) | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    }

    /// Decodes one LEB128 varint starting at `bytes[at]`, returning the value
    /// and the position just past it; `None` on truncated or overlong input.
    pub fn decode_u32(bytes: &[u8], at: usize) -> Option<(u32, usize)> {
        let mut value: u32 = 0;
        let mut shift = 0u32;
        let mut pos = at;
        loop {
            let byte = *bytes.get(pos)?;
            pos += 1;
            let payload = (byte & 0x7F) as u32;
            // The fifth byte may only contribute the top 4 bits of a u32.
            if shift == 28 && payload > 0x0F {
                return None;
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Some((value, pos));
            }
            shift += 7;
            if shift > 28 {
                return None;
            }
        }
    }

    /// Appends `value` to `out` as an LEB128 varint (1–10 bytes).
    pub fn encode_u64(mut value: u64, out: &mut Vec<u8>) {
        while value >= 0x80 {
            out.push((value as u8 & 0x7F) | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
    }

    /// Decodes one 64-bit LEB128 varint starting at `bytes[at]`; `None` on
    /// truncated or overlong input.
    pub fn decode_u64(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        let mut pos = at;
        loop {
            let byte = *bytes.get(pos)?;
            pos += 1;
            let payload = (byte & 0x7F) as u64;
            // The tenth byte may only contribute the top bit of a u64.
            if shift == 63 && payload > 0x01 {
                return None;
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Some((value, pos));
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }
}

/// Encodes one strictly-increasing id row (first value verbatim, then
/// gap-minus-one deltas), appending varints to `out`.
///
/// # Panics
///
/// Debug-asserts that `row` is strictly increasing.
pub fn encode_row(row: &[VertexId], out: &mut Vec<u8>) {
    debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row must be sorted");
    let mut prev: Option<VertexId> = None;
    for &v in row {
        match prev {
            None => varint::encode_u32(v, out),
            Some(p) => varint::encode_u32(v - p - 1, out),
        }
        prev = Some(v);
    }
}

/// Maximum encoded length of one `u32` LEB128 varint, in bytes.
pub const MAX_VARINT_U32_LEN: usize = 5;

/// Decode plan for the next four gap varints of an 8-byte window, indexed by
/// the window's continuation-bit mask (bit `i` = continuation bit of byte
/// `i`): where each varint starts and how many bytes all four consume.
/// `ok` is set only when all four varints are at most two bytes long and
/// complete inside the window — the common case for delta-encoded adjacency
/// rows, whose gaps rarely exceed 14 bits; anything longer is left to the
/// general fallback.
#[derive(Clone, Copy)]
struct QuadRecipe {
    start: [u8; 4],
    total: u8,
    ok: bool,
}

const QUAD_RECIPES: [QuadRecipe; 256] = build_quad_recipes();

const fn build_quad_recipes() -> [QuadRecipe; 256] {
    let mut table = [QuadRecipe {
        start: [0; 4],
        total: 0,
        ok: false,
    }; 256];
    let mut mask = 0usize;
    while mask < 256 {
        let mut start = [0u8; 4];
        let mut at = 0usize;
        let mut i = 0;
        let mut ok = true;
        while i < 4 {
            if at >= 8 {
                ok = false;
                break;
            }
            start[i] = at as u8;
            if (mask >> at) & 1 == 0 {
                // Stop bit on the head byte: a one-byte varint.
                at += 1;
            } else if at + 1 < 8 && (mask >> (at + 1)) & 1 == 0 {
                at += 2;
            } else {
                // Three or more bytes, or cut off by the window edge.
                ok = false;
                break;
            }
            i += 1;
        }
        if ok {
            table[mask] = QuadRecipe {
                start,
                total: at as u8,
                ok: true,
            };
        }
        mask += 1;
    }
    table
}

/// Decodes a one-or-two-byte varint whose head byte is the low byte of `p`,
/// without branching on its length: the head's continuation bit selects —
/// via a mask, not a branch — whether the second byte's payload joins in.
/// The caller (via [`QUAD_RECIPES`]) has already established the varint is
/// at most two bytes.
#[inline(always)]
fn decode_gap2(p: u64) -> u64 {
    let ext = ((p >> 7) & 1).wrapping_neg();
    (p & 0x7F) | ((p >> 1) & 0x3F80 & ext)
}

/// Decodes one `u32` varint whose bytes are known to lie within `bytes`
/// (the caller has checked `pos + MAX_VARINT_U32_LEN <= bytes.len()`), so
/// the per-byte bounds check of [`varint::decode_u32`] unrolls away. The
/// value semantics are identical: overlong encodings (a fifth byte with the
/// continuation bit set, or contributing more than the top 4 bits) return
/// `None`.
#[inline(always)]
fn decode_u32_within(bytes: &[u8], pos: usize) -> Option<(u32, usize)> {
    // One always-in-range slice per varint; the `[u8; 5]` view is then
    // indexed with constants, so no per-byte bounds branch survives in the
    // unrolled chain below.
    let w: &[u8; 5] = bytes[pos..pos + MAX_VARINT_U32_LEN]
        .try_into()
        .expect("window sliced to MAX_VARINT_U32_LEN");
    let b0 = w[0] as u32;
    if b0 & 0x80 == 0 {
        return Some((b0, pos + 1));
    }
    let b1 = w[1] as u32;
    let mut value = (b0 & 0x7F) | ((b1 & 0x7F) << 7);
    if b1 & 0x80 == 0 {
        return Some((value, pos + 2));
    }
    let b2 = w[2] as u32;
    value |= (b2 & 0x7F) << 14;
    if b2 & 0x80 == 0 {
        return Some((value, pos + 3));
    }
    let b3 = w[3] as u32;
    value |= (b3 & 0x7F) << 21;
    if b3 & 0x80 == 0 {
        return Some((value, pos + 4));
    }
    let b4 = w[4] as u32;
    // The fifth byte may only contribute the top 4 bits of a u32 and must
    // terminate the varint.
    if b4 > 0x0F {
        return None;
    }
    value |= b4 << 28;
    Some((value, pos + 5))
}

/// Decodes a row produced by [`encode_row`] (`count` values from
/// `bytes[at..]`), returning the values and the end position; `None` on
/// malformed input (truncation, varint overflow, or id overflow). Decoded
/// rows are strictly increasing by construction.
pub fn decode_row(bytes: &[u8], at: usize, count: usize) -> Option<(Vec<VertexId>, usize)> {
    let mut row = Vec::with_capacity(count);
    let end = decode_row_into(bytes, at, count, &mut row)?;
    Some((row, end))
}

/// [`decode_row`] into a caller-provided buffer (cleared first), returning
/// the end position. Lets callers that decode many rows reuse one buffer's
/// capacity instead of allocating per row.
///
/// Decodes gap varints four at a time through a masked quad decode (see
/// [`decode_row_append`]); accepts and rejects exactly the same inputs as
/// [`decode_row_scalar_into`].
pub fn decode_row_into(
    bytes: &[u8],
    at: usize,
    count: usize,
    row: &mut Vec<VertexId>,
) -> Option<usize> {
    row.clear();
    decode_row_append(bytes, at, count, row)
}

/// Reference one-varint-at-a-time row decoder, kept for differential tests
/// against the batched [`decode_row_into`] path.
pub fn decode_row_scalar_into(
    bytes: &[u8],
    at: usize,
    count: usize,
    row: &mut Vec<VertexId>,
) -> Option<usize> {
    row.clear();
    row.reserve(count);
    let mut pos = at;
    let mut prev: Option<VertexId> = None;
    for _ in 0..count {
        let (raw, next) = varint::decode_u32(bytes, pos)?;
        pos = next;
        let value = match prev {
            None => raw,
            Some(p) => p.checked_add(raw)?.checked_add(1)?,
        };
        row.push(value);
        prev = Some(value);
    }
    Some(pos)
}

/// [`decode_row_into`] that **appends** to `row` instead of clearing it,
/// letting streaming consumers decode many rows into one flat output buffer
/// (e.g. a CSR neighbour array) without an intermediate copy.
///
/// The hot path reads an 8-byte window, gathers its continuation bits into a
/// byte with a SWAR movemask, and decodes the next four gap varints through
/// the `QUAD_RECIPES` table with no per-byte branching — however one- and
/// two-byte gaps interleave (windows holding a 3+-byte varint fall back to
/// unrolled per-varint decodes behind the same single bounds check). The
/// scalar tail handles the last `< 4` values and any group too close to the
/// end of the buffer, where the window check cannot be hoisted.
pub fn decode_row_append(
    bytes: &[u8],
    at: usize,
    count: usize,
    row: &mut Vec<VertexId>,
) -> Option<usize> {
    row.reserve(count);
    let mut pos = at;
    let mut remaining = count;
    if remaining == 0 {
        return Some(pos);
    }
    // The first value is stored verbatim.
    let (first, next) = varint::decode_u32(bytes, pos)?;
    pos = next;
    row.push(first);
    let mut prev = first;
    remaining -= 1;
    // Batched quads of gap varints behind one window check per group. The
    // masked decode reads eight bytes (always in range: the loop guard keeps
    // twenty ahead), gathers their continuation bits into a byte with the
    // SWAR movemask multiply, and lets [`QUAD_RECIPES`] place the next four
    // varints — so the per-byte continuation branches of the scalar loop,
    // which the one/two-byte interleave of delta-encoded adjacency rows
    // makes unpredictable, become a table load, and the cursor advances once
    // per quad. The only dispatch branch left (`ok`) stays predicted-taken
    // for any row whose gaps fit 14 bits. Values accumulate in u64 with one
    // overflow check per quad, equivalent to the per-add checks of the
    // general path because the running maximum is the last value.
    while remaining >= 4 && pos + 4 * MAX_VARINT_U32_LEN <= bytes.len() {
        let group: &[u8; 8] = bytes[pos..pos + 8]
            .try_into()
            .expect("window sliced to 8 bytes");
        let word = u64::from_le_bytes(*group);
        // Movemask: bit i = continuation bit of byte i.
        let mask = (((word >> 7) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56)
            as usize;
        let q = &QUAD_RECIPES[mask];
        if q.ok {
            let g0 = decode_gap2(word >> (8 * q.start[0] as u32));
            let g1 = decode_gap2(word >> (8 * q.start[1] as u32));
            let g2 = decode_gap2(word >> (8 * q.start[2] as u32));
            let g3 = decode_gap2(word >> (8 * q.start[3] as u32));
            let v0 = prev as u64 + g0 + 1;
            let v1 = v0 + g1 + 1;
            let v2 = v1 + g2 + 1;
            let v3 = v2 + g3 + 1;
            if v3 > u32::MAX as u64 {
                return None;
            }
            row.extend_from_slice(&[v0 as u32, v1 as u32, v2 as u32, v3 as u32]);
            prev = v3 as u32;
            pos += q.total as usize;
            remaining -= 4;
            continue;
        }
        // A gap of 15+ bits (or one cut off by the window edge): unrolled
        // per-varint decodes, still behind the group's single window check.
        let (g0, p0) = decode_u32_within(bytes, pos)?;
        let (g1, p1) = decode_u32_within(bytes, p0)?;
        let (g2, p2) = decode_u32_within(bytes, p1)?;
        let (g3, p3) = decode_u32_within(bytes, p2)?;
        let v0 = prev.checked_add(g0)?.checked_add(1)?;
        let v1 = v0.checked_add(g1)?.checked_add(1)?;
        let v2 = v1.checked_add(g2)?.checked_add(1)?;
        let v3 = v2.checked_add(g3)?.checked_add(1)?;
        row.extend_from_slice(&[v0, v1, v2, v3]);
        prev = v3;
        pos = p3;
        remaining -= 4;
    }
    // Scalar tail: the remaining values, bounds-checked per byte.
    for _ in 0..remaining {
        let (raw, next) = varint::decode_u32(bytes, pos)?;
        pos = next;
        let value = prev.checked_add(raw)?.checked_add(1)?;
        row.push(value);
        prev = value;
    }
    Some(pos)
}

/// A bounds-checked cursor over an untrusted byte buffer.
///
/// Every accessor returns `None` instead of reading past the end, so wire
/// decoders built on it can never panic on truncated or hostile input;
/// [`Reader::finish`] asserts the buffer was consumed exactly, catching
/// trailing garbage.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Current position from the start of the buffer.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    /// Reads a fixed-width little-endian `u32`.
    pub fn u32_le(&mut self) -> Option<u32> {
        let slice = self.bytes.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
    }

    /// Reads one `u32` varint.
    pub fn varint_u32(&mut self) -> Option<u32> {
        let (value, next) = varint::decode_u32(self.bytes, self.at)?;
        self.at = next;
        Some(value)
    }

    /// Reads one `u64` varint.
    pub fn varint_u64(&mut self) -> Option<u64> {
        let (value, next) = varint::decode_u64(self.bytes, self.at)?;
        self.at = next;
        Some(value)
    }

    /// Reads `len` raw bytes.
    pub fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(len)?)?;
        self.at += len;
        Some(slice)
    }

    /// Reads a strictly-increasing delta row of `count` ids ([`decode_row`]).
    pub fn row(&mut self, count: usize) -> Option<Vec<VertexId>> {
        // Each encoded id needs at least one byte, so a hostile count can
        // never trigger an allocation larger than the buffer that carried it.
        if count > self.remaining() {
            return None;
        }
        let (row, next) = decode_row(self.bytes, self.at, count)?;
        self.at = next;
        Some(row)
    }

    /// Succeeds only when the buffer was consumed exactly.
    pub fn finish(self) -> Option<()> {
        if self.at == self.bytes.len() {
            Some(())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_varints_roundtrip_across_the_range() {
        let mut buf = Vec::new();
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX,
        ] {
            buf.clear();
            varint::encode_u64(value, &mut buf);
            assert_eq!(varint::decode_u64(&buf, 0), Some((value, buf.len())));
            // Truncations fail cleanly.
            for cut in 0..buf.len() {
                assert_eq!(varint::decode_u64(&buf[..cut], 0), None);
            }
        }
        // Overlong encodings are rejected: u64::MAX plus one more payload bit.
        let overlong = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert_eq!(varint::decode_u64(&overlong, 0), None);
        let eleven = [0x80u8; 11];
        assert_eq!(varint::decode_u64(&eleven, 0), None);
    }

    #[test]
    fn varint_roundtrip_edge_values() {
        let mut buf = Vec::new();
        let values = [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX];
        for &v in &values {
            buf.clear();
            varint::encode_u32(v, &mut buf);
            assert_eq!(varint::decode_u32(&buf, 0), Some((v, buf.len())), "{v}");
        }
        // Truncated stream.
        assert_eq!(varint::decode_u32(&[0x80], 0), None);
        // Overlong stream (6 continuation bytes).
        assert_eq!(
            varint::decode_u32(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01], 0),
            None
        );
        // Fifth byte overflowing the u32 value space.
        assert_eq!(varint::decode_u32(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F], 0), None);
    }

    #[test]
    fn row_codec_roundtrip() {
        let mut buf = Vec::new();
        let rows: Vec<Vec<VertexId>> = vec![
            vec![],
            vec![7],
            vec![0, 1, 2, 3],
            vec![5, 900, 901, 1_000_000],
        ];
        for row in rows {
            buf.clear();
            encode_row(&row, &mut buf);
            let (back, end) = decode_row(&buf, 0, row.len()).unwrap();
            assert_eq!(back, row);
            assert_eq!(end, buf.len());
        }
        assert_eq!(decode_row(&[0x03], 0, 2), None, "truncation is detected");
    }

    #[test]
    fn batched_and_scalar_row_decoders_agree() {
        let rows: Vec<Vec<VertexId>> = vec![
            vec![],
            vec![7],
            vec![0, 1, 2, 3],
            vec![5, 900, 901, 1_000_000],
            (0..23).map(|i| i * 3).collect(),
            vec![u32::MAX - 9, u32::MAX - 4, u32::MAX - 1],
        ];
        let mut buf = Vec::new();
        for row in rows {
            buf.clear();
            encode_row(&row, &mut buf);
            let mut scalar = Vec::new();
            let mut batched = Vec::new();
            let s = decode_row_scalar_into(&buf, 0, row.len(), &mut scalar);
            let b = decode_row_into(&buf, 0, row.len(), &mut batched);
            assert_eq!(s, b);
            assert_eq!(scalar, batched);
            assert_eq!(batched, row);
            // Truncations fail in both decoders.
            for cut in 0..buf.len() {
                assert!(decode_row_scalar_into(&buf[..cut], 0, row.len(), &mut scalar).is_none());
                assert!(decode_row_into(&buf[..cut], 0, row.len(), &mut batched).is_none());
            }
        }
    }

    #[test]
    fn append_decoder_streams_multiple_rows() {
        let first: Vec<VertexId> = (10..40).collect();
        let second: Vec<VertexId> = vec![1, 5, 1 << 20];
        let mut buf = Vec::new();
        encode_row(&first, &mut buf);
        let boundary = buf.len();
        encode_row(&second, &mut buf);
        let mut out = Vec::new();
        let mid = decode_row_append(&buf, 0, first.len(), &mut out).unwrap();
        assert_eq!(mid, boundary);
        let end = decode_row_append(&buf, mid, second.len(), &mut out).unwrap();
        assert_eq!(end, buf.len());
        let expected: Vec<VertexId> = first.iter().chain(second.iter()).copied().collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn batched_decoder_rejects_overlong_and_overflow() {
        // Row of 6 gaps where the 5th varint (inside the batched window once
        // padded) is overlong: fifth byte contributes more than 4 bits.
        let mut buf = Vec::new();
        varint::encode_u32(1, &mut buf); // first value
        for _ in 0..4 {
            buf.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]); // invalid
        }
        buf.extend_from_slice(&[0u8; 8]); // padding keeps the window in range
        let mut row = Vec::new();
        assert!(decode_row_into(&buf, 0, 6, &mut row).is_none());
        assert!(decode_row_scalar_into(&buf, 0, 6, &mut row).is_none());
        // Id overflow: gaps that push the running value past u32::MAX.
        let mut buf = Vec::new();
        varint::encode_u32(u32::MAX - 2, &mut buf);
        for _ in 0..5 {
            varint::encode_u32(0, &mut buf);
        }
        buf.extend_from_slice(&[0u8; 20]);
        assert!(decode_row_into(&buf, 0, 6, &mut row).is_none());
        assert!(decode_row_scalar_into(&buf, 0, 6, &mut row).is_none());
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&42u32.to_le_bytes());
        varint::encode_u32(300, &mut buf);
        varint::encode_u64(1 << 40, &mut buf);
        encode_row(&[3, 4, 10], &mut buf);
        buf.extend_from_slice(b"xy");

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32_le(), Some(42));
        assert_eq!(r.varint_u32(), Some(300));
        assert_eq!(r.varint_u64(), Some(1 << 40));
        assert_eq!(r.row(3), Some(vec![3, 4, 10]));
        assert_eq!(r.take(2), Some(&b"xy"[..]));
        assert_eq!(r.remaining(), 0);
        assert!(r.finish().is_some());

        let mut short = Reader::new(&buf[..2]);
        assert_eq!(short.u8(), Some(7));
        assert_eq!(short.u32_le(), None, "past the end");
        assert!(short.finish().is_none(), "one byte left unread");

        // A count larger than the buffer is rejected before allocating.
        let mut hostile = Reader::new(&[1u8, 2]);
        assert_eq!(hostile.row(usize::MAX), None);
    }
}
