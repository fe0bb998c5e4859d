//! CRC-framed record layout shared by WAL segments and snapshot files.
//!
//! Every durable record is wrapped in a fixed 8-byte header followed by the
//! payload:
//!
//! ```text
//! [ len: u32 LE ][ crc32(payload): u32 LE ][ payload bytes ... ]
//! ```
//!
//! The CRC is the standard IEEE-802.3 polynomial, computed slicing-by-8
//! from eight tables derived at compile time (no external crc crate). A
//! reader walks frames front to back; the first frame whose header is
//! incomplete, whose payload is shorter than its declared length, or whose
//! checksum mismatches terminates the scan as [`FrameRead::Torn`]. That
//! single rule is what makes a crash mid-append recoverable: everything
//! before the torn frame is intact by checksum, everything at and after it
//! is discarded.
//!
//! A frame does not interpret its payload. Both payloads — WAL records and
//! snapshots — are text in the [`walog::codec`] token format, encoded
//! straight into the frame between `begin_frame` and `finish_frame`.

/// Bytes of frame header preceding each payload.
pub const FRAME_HEADER: usize = 8;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the CRC state of byte `b` followed by
/// `k` zero bytes, so eight lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// IEEE CRC-32 of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append one framed record to `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let frame = begin_frame(out);
    out.extend_from_slice(payload);
    finish_frame(out, frame);
}

/// Start a frame whose payload is encoded straight into `out`: reserves the
/// header and returns the frame's offset for [`finish_frame`].
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let frame = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    frame
}

/// Close the frame opened at `frame` by [`begin_frame`]: everything pushed
/// since is its payload; patch the length and checksum into the header.
pub(crate) fn finish_frame(out: &mut [u8], frame: usize) {
    let (header, payload) = out[frame..].split_at_mut(FRAME_HEADER);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Outcome of reading the frame starting at a byte offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead<'a> {
    /// A complete, checksum-verified frame; `next` is the offset of the
    /// following frame.
    Frame {
        /// The verified payload bytes.
        payload: &'a [u8],
        /// Offset of the next frame.
        next: usize,
    },
    /// Clean end of data (offset exactly at the end).
    End,
    /// A torn or corrupt frame: short header, short payload, or checksum
    /// mismatch. Nothing at or beyond this offset is trustworthy.
    Torn,
}

/// Read the frame at `at` in `data`.
pub fn read_frame(data: &[u8], at: usize) -> FrameRead<'_> {
    if at >= data.len() {
        return FrameRead::End;
    }
    if data.len() - at < FRAME_HEADER {
        return FrameRead::Torn;
    }
    let len = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]) as usize;
    let crc = u32::from_le_bytes([data[at + 4], data[at + 5], data[at + 6], data[at + 7]]);
    let start = at + FRAME_HEADER;
    if data.len() - start < len {
        return FrameRead::Torn;
    }
    let payload = &data[start..start + len];
    if crc32(payload) != crc {
        return FrameRead::Torn;
    }
    FrameRead::Frame {
        payload,
        next: start + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use walog::codec::TokenWriter;

    fn frames(data: &[u8]) -> (Vec<Vec<u8>>, bool) {
        let mut out = Vec::new();
        let mut at = 0;
        loop {
            match read_frame(data, at) {
                FrameRead::Frame { payload, next } => {
                    out.push(payload.to_vec());
                    at = next;
                }
                FrameRead::End => return (out, false),
                FrameRead::Torn => return (out, true),
            }
        }
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"alpha");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"beta gamma");
        let (got, torn) = frames(&buf);
        assert!(!torn);
        assert_eq!(
            got,
            vec![b"alpha".to_vec(), b"".to_vec(), b"beta gamma".to_vec()]
        );
    }

    #[test]
    fn short_header_is_torn() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"ok");
        buf.extend_from_slice(&[1, 2, 3]); // 3 stray bytes: not even a header
        let (got, torn) = frames(&buf);
        assert!(torn);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn short_payload_is_torn() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"ok");
        let mut partial = Vec::new();
        append_frame(&mut partial, b"truncated record");
        buf.extend_from_slice(&partial[..partial.len() - 4]);
        let (got, torn) = frames(&buf);
        assert!(torn);
        assert_eq!(got, vec![b"ok".to_vec()]);
    }

    #[test]
    fn checksum_mismatch_is_torn() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        let flip = buf.len() - 1; // corrupt the last payload byte
        append_frame(&mut buf, b"second");
        buf[flip] ^= 0x40;
        let (got, torn) = frames(&buf);
        assert!(torn);
        assert!(got.is_empty());
    }

    #[test]
    fn in_place_framing_matches_append_frame() {
        let mut copied = vec![0xEE];
        append_frame(&mut copied, b"7 18446744073709551615 0");
        let mut in_place = vec![0xEE];
        let frame = begin_frame(&mut in_place);
        in_place.decimal(7);
        in_place.num(u64::MAX);
        in_place.num(0);
        finish_frame(&mut in_place, frame);
        assert_eq!(in_place, copied);
    }

    #[test]
    fn crc_reference_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC the sliced one must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc_at_every_length_and_alignment() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }
}
