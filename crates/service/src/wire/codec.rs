//! Byte-codec primitives of the service protocol.
//!
//! The varint, delta-row and bounds-checked-reader primitives live in
//! [`kvcc_graph::codec`], shared with the graph crate's own wire formats,
//! so protocol rows decode through the same one loop as `KIDX`, compact CSR
//! and work-item rows. They are re-exported here so the whole wire layer
//! (and external transport implementations) reach them through one path.
//! On top of them this module adds the two composite encodings the protocol
//! needs: length-prefixed byte strings and UTF-8 text.

pub use kvcc_graph::codec::{decode_row, encode_row, varint, Reader};

/// Appends a length-prefixed byte string (varint length + raw bytes).
pub fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    varint::encode_u32(bytes.len() as u32, out);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string written by [`encode_bytes`].
pub fn decode_bytes<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let len = r.varint_u32()? as usize;
    r.take(len)
}

/// Appends a length-prefixed UTF-8 string.
pub fn encode_str(text: &str, out: &mut Vec<u8>) {
    encode_bytes(text.as_bytes(), out);
}

/// Reads a length-prefixed UTF-8 string, rejecting invalid UTF-8.
pub fn decode_string(r: &mut Reader<'_>) -> Option<String> {
    let bytes = decode_bytes(r)?;
    String::from_utf8(bytes.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut out = Vec::new();
        encode_str("héllo", &mut out);
        encode_bytes(&[1, 2, 3], &mut out);
        let mut r = Reader::new(&out);
        assert_eq!(decode_string(&mut r).as_deref(), Some("héllo"));
        assert_eq!(decode_bytes(&mut r), Some(&[1u8, 2, 3][..]));
        assert!(r.finish().is_some());
        // Truncated and non-UTF-8 payloads are rejected.
        let mut r = Reader::new(&out[..3]);
        assert_eq!(decode_string(&mut r), None);
        let mut bad = Vec::new();
        encode_bytes(&[0xFF, 0xFE], &mut bad);
        assert_eq!(decode_string(&mut Reader::new(&bad)), None);
    }
}
