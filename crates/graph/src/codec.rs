//! Shared variable-length byte codec for every wire format in the workspace.
//!
//! The compact CSR form, the serialised work items, the persisted
//! connectivity index and the `kvcc-service` protocol all store LEB128
//! varints and delta-encoded id rows, so they share this one implementation.
//!
//! Three layers, with one decode loop each:
//!
//! * [`varint`] — raw LEB128 encode/decode for `u32` and `u64` values,
//!   rejecting truncated and overlong inputs; both widths share one loop
//!   per direction;
//! * [`encode_row`] / [`decode_row`] — strictly-increasing id lists stored as
//!   first-value + gap-minus-one varints (sorted component members, adjacency
//!   rows, vertex cuts), decoded one varint at a time;
//! * [`Reader`] — a bounds-checked cursor over an untrusted buffer, so
//!   decoders validate as they go and can never index out of range.

use crate::types::VertexId;

/// LEB128 varint codec for `u32` and `u64` values.
pub mod varint {
    /// Appends `value` to `out` as an LEB128 varint (1–5 bytes).
    pub fn encode_u32(value: u32, out: &mut Vec<u8>) {
        encode_u64(value.into(), out);
    }

    /// Decodes one LEB128 varint starting at `bytes[at]`, returning the value
    /// and the position just past it; `None` on truncated or overlong input
    /// (a sixth byte, or a fifth byte above `0x0F`).
    pub fn decode_u32(bytes: &[u8], at: usize) -> Option<(u32, usize)> {
        let (value, end) = decode(bytes, at, 5, u32::MAX.into())?;
        Some((value as u32, end))
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
    /// truncated or overlong input (an eleventh byte, or a tenth above
    /// `0x01`).
    pub fn decode_u64(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
        decode(bytes, at, 10, u64::MAX)
    }

    /// The LEB128 decode loop of both widths: at most `max_len` bytes, none
    /// of whose payload may reach above `max`.
    fn decode(bytes: &[u8], at: usize, max_len: usize, max: u64) -> Option<(u64, usize)> {
        let mut value = 0u64;
        for i in 0..max_len {
            let byte = *bytes.get(at + i)?;
            let shift = 7 * i as u32;
            let payload = u64::from(byte & 0x7F);
            // Only the last byte a width allows can hold bits above `max`.
            if payload > max >> shift {
                return None;
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Some((value, at + i + 1));
            }
        }
        None
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

/// Decodes a row produced by [`encode_row`] (`count` values from
/// `bytes[at..]`), returning the values and the end position; `None` on
/// malformed input (truncation, varint overflow, or id overflow). Decoded
/// rows are strictly increasing by construction.
pub fn decode_row(bytes: &[u8], at: usize, count: usize) -> Option<(Vec<VertexId>, usize)> {
    let mut row = Vec::with_capacity(count);
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
    Some((row, pos))
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
        // The u32 limits of the shared loop: the fifth byte carries only the
        // top four bits, and no sixth byte is read, even one adding nothing.
        let decode = |bytes: &[u8]| varint::decode_u32(bytes, 0);
        assert_eq!(decode(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]), Some((u32::MAX, 5)));
        assert_eq!(decode(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]), None);
        assert_eq!(decode(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]), None);
        assert_eq!(decode(&[0x80, 0x80, 0x80, 0x80, 0x00]), Some((0, 5)));
    }

    #[test]
    fn row_codec_roundtrip() {
        let mut buf = Vec::new();
        let rows: Vec<Vec<VertexId>> = vec![
            vec![],
            vec![7],
            vec![0, 1, 2, 3],
            vec![5, 900, 901, 1_000_000],
            (0..23).map(|i| i * 3).collect(),
            vec![u32::MAX - 9, u32::MAX - 4, u32::MAX - 1],
            vec![0, u32::MAX],
        ];
        for row in &rows {
            buf.clear();
            encode_row(row, &mut buf);
            let (back, end) = decode_row(&buf, 0, row.len()).unwrap();
            assert_eq!(&back, row);
            assert_eq!(end, buf.len());
            // Every value needs all of its bytes, so every truncation fails.
            for cut in 0..buf.len() {
                assert_eq!(decode_row(&buf[..cut], 0, row.len()), None, "cut {cut}");
            }
        }
        assert_eq!(decode_row(&[0x03], 0, 2), None, "truncation is detected");

        // Rows written back to back decode by their end positions.
        let (first, second): (Vec<VertexId>, Vec<VertexId>) =
            ((10..40).collect(), vec![1, 5, 1 << 20]);
        buf.clear();
        encode_row(&first, &mut buf);
        let boundary = buf.len();
        encode_row(&second, &mut buf);
        assert_eq!(decode_row(&buf, 0, first.len()), Some((first, boundary)));
        assert_eq!(
            decode_row(&buf, boundary, second.len()),
            Some((second, buf.len()))
        );
    }

    #[test]
    fn row_decoder_rejects_overlong_and_overflow() {
        // A row whose second varint is overlong: its fifth byte contributes
        // more than 4 bits.
        let mut buf = Vec::new();
        varint::encode_u32(1, &mut buf); // first value
        for _ in 0..4 {
            buf.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]); // invalid
        }
        assert_eq!(decode_row(&buf, 0, 6), None);
        // Id overflow: gaps that push the running value past u32::MAX.
        let mut buf = Vec::new();
        varint::encode_u32(u32::MAX - 2, &mut buf);
        for _ in 0..5 {
            varint::encode_u32(0, &mut buf);
        }
        assert_eq!(decode_row(&buf, 0, 6), None);
        // The same row stops decoding cleanly just below the overflow.
        assert_eq!(
            decode_row(&buf, 0, 3),
            Some((vec![u32::MAX - 2, u32::MAX - 1, u32::MAX], 7))
        );
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
