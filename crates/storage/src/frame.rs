//! Record framing shared by the write-ahead log and the snapshot files.
//!
//! Every record is laid out as
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc: u32 LE    | payload (len B)  |
//! +----------------+----------------+------------------+
//! ```
//!
//! where `crc` is the CRC-32 of the payload. A reader walks records from the
//! start of the file and stops at the first frame that does not check out —
//! a short header, a length running past the end of the file, an absurd
//! length, or a checksum mismatch. Everything before the stop point is a
//! *valid prefix*; everything after is a torn tail (the crash interrupted an
//! append) or corruption, and is discarded by truncating the file back to
//! the prefix before appending again.

use crate::crc::crc32;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single record's payload. Anything larger than this in a
/// length field is treated as corruption rather than attempted as an
/// allocation (a torn header can otherwise claim a 4 GiB record).
pub const MAX_PAYLOAD_LEN: u32 = 1 << 26; // 64 MiB

/// Appends one framed record to `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_PAYLOAD_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Seals a frame encoded in place: the caller reserved
/// [`FRAME_HEADER_LEN`] zero bytes at the front of `buf` and encoded the
/// payload after them; this backfills `len` and `crc` over the reservation.
/// Same bytes as [`append_frame`], without the intermediate copy.
pub fn seal_frame(buf: &mut [u8]) {
    debug_assert!(buf.len() >= FRAME_HEADER_LEN);
    let payload_len = buf.len() - FRAME_HEADER_LEN;
    debug_assert!(payload_len <= MAX_PAYLOAD_LEN as usize);
    let crc = crc32(&buf[FRAME_HEADER_LEN..]);
    buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Appends one record framed in place: reserves the header at the end of
/// `out`, lets `encode` append the payload behind it, then seals it — the
/// write path of both the WAL and the snapshot writer.
pub fn frame_with(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.resize(start + FRAME_HEADER_LEN, 0);
    encode(out);
    seal_frame(&mut out[start..]);
}

/// Walks the framed records of `buf` from the front.
///
/// Returns the payload slices of every valid record, the byte length of the
/// valid prefix, and whether anything (a torn tail or corruption) was found
/// after it.
pub fn read_frames(buf: &[u8]) -> (Vec<&[u8]>, usize, bool) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    while buf.len() - offset >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_LEN {
            return (payloads, offset, true);
        }
        let body_start = offset + FRAME_HEADER_LEN;
        let body_end = match body_start.checked_add(len as usize) {
            Some(end) if end <= buf.len() => end,
            _ => return (payloads, offset, true),
        };
        let payload = &buf[body_start..body_end];
        if crc32(payload) != crc {
            return (payloads, offset, true);
        }
        payloads.push(payload);
        offset = body_end;
    }
    let torn = offset != buf.len();
    (payloads, offset, torn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_of_several_records() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"third record");
        let (payloads, valid, torn) = read_frames(&buf);
        assert_eq!(
            payloads,
            vec![&b"first"[..], &b""[..], &b"third record"[..]]
        );
        assert_eq!(valid, buf.len());
        assert!(!torn);
    }

    #[test]
    fn seal_frame_matches_append_frame() {
        let payload = b"some payload bytes";
        let mut appended = Vec::new();
        append_frame(&mut appended, payload);
        let mut sealed = vec![0u8; FRAME_HEADER_LEN];
        sealed.extend_from_slice(payload);
        seal_frame(&mut sealed);
        assert_eq!(sealed, appended);
    }

    #[test]
    fn frame_with_appends_what_append_frame_appends() {
        let mut appended = b"earlier bytes".to_vec();
        let mut framed = appended.clone();
        append_frame(&mut appended, b"payload");
        frame_with(&mut framed, |out| out.extend_from_slice(b"payload"));
        assert_eq!(framed, appended);
    }

    #[test]
    fn truncation_anywhere_yields_a_prefix() {
        let mut buf = Vec::new();
        for i in 0..10u8 {
            append_frame(&mut buf, &[i; 7]);
        }
        let record_len = FRAME_HEADER_LEN + 7;
        for cut in 0..buf.len() {
            let (payloads, valid, torn) = read_frames(&buf[..cut]);
            assert_eq!(payloads.len(), cut / record_len);
            assert_eq!(valid, (cut / record_len) * record_len);
            assert_eq!(torn, cut % record_len != 0);
        }
    }

    #[test]
    fn corrupt_byte_stops_the_walk_at_the_previous_record() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"good");
        append_frame(&mut buf, b"bad");
        let record_one_len = FRAME_HEADER_LEN + 4;
        buf[record_one_len + FRAME_HEADER_LEN] ^= 0xff; // flip a payload byte of record 2
        let (payloads, valid, torn) = read_frames(&buf);
        assert_eq!(payloads, vec![&b"good"[..]]);
        assert_eq!(valid, record_one_len);
        assert!(torn);
    }

    #[test]
    fn absurd_length_field_is_corruption_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let (payloads, valid, torn) = read_frames(&buf);
        assert!(payloads.is_empty());
        assert_eq!(valid, 0);
        assert!(torn);
    }
}
