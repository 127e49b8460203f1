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

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

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

/// Bytes of framed records a snapshot gathers before each `write`, the
/// bytes a [`FrameReader`] holds, and the bytes of replicas one hand-off
/// bundle carries: the one buffer size of compaction, of recovery and of a
/// range transfer. A record larger than this is written from, read into, or
/// shipped in a buffer of its own size, so the memory any of these paths
/// holds is this constant or the largest record, never a copy of the state.
pub const WRITE_CHUNK_BYTES: usize = 64 * 1024;

/// Walks the framed records of a file from the front through one bounded
/// buffer, handing out each record's payload once its checksum holds.
///
/// The walk stops at the first frame that does not check out: a short
/// header, a length running past the end of the source, an absurd length,
/// or a checksum mismatch. [`FrameReader::valid_len`] is then the byte
/// length of the valid prefix and [`FrameReader::torn`] says whether
/// anything (a torn tail or corruption) follows it.
///
/// The buffer holds [`WRITE_CHUNK_BYTES`], or exactly one frame when that
/// frame is larger; it returns to the chunk size at the next frame.
#[derive(Debug)]
pub(crate) struct FrameReader<R> {
    source: R,
    /// Bytes of the source not read into the buffer yet.
    unread: u64,
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    valid_len: u64,
    torn: bool,
}

impl FrameReader<File> {
    /// A reader over the file at `path`, or `None` when there is no file.
    pub fn open(path: &Path) -> io::Result<Option<Self>> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(error) => return Err(error),
        };
        let len = file.metadata()?.len();
        Ok(Some(FrameReader::new(file, len)))
    }
}

impl<R: Read> FrameReader<R> {
    /// A reader over the `len` bytes of `source`. A length claimed by a
    /// frame header is checked against `len` before any buffer grows for it.
    pub fn new(source: R, len: u64) -> Self {
        FrameReader {
            source,
            unread: len,
            buf: vec![0; WRITE_CHUNK_BYTES],
            start: 0,
            end: 0,
            valid_len: 0,
            torn: false,
        }
    }

    /// The payload of the next valid record, or `None` once the walk has
    /// stopped (at the end of the source or at the first bad frame).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        if self.torn || !self.fill(FRAME_HEADER_LEN)? {
            self.torn |= self.end > self.start || self.unread > 0;
            return Ok(None);
        }
        let header = &self.buf[self.start..self.start + FRAME_HEADER_LEN];
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_LEN || !self.fill(FRAME_HEADER_LEN + len as usize)? {
            self.torn = true;
            return Ok(None);
        }
        let body = self.start + FRAME_HEADER_LEN..self.start + FRAME_HEADER_LEN + len as usize;
        if crc32(&self.buf[body.clone()]) != crc {
            self.torn = true;
            return Ok(None);
        }
        self.start = body.end;
        self.valid_len += (FRAME_HEADER_LEN + len as usize) as u64;
        Ok(Some(&self.buf[body]))
    }

    /// Byte length of the valid prefix walked so far.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Whether the walk stopped before the end of the source.
    pub fn torn(&self) -> bool {
        self.torn
    }

    /// Makes `n` unconsumed bytes available, reading more of the source;
    /// `false` when the source ends first. Unconsumed bytes move to the
    /// front of a buffer of the chunk size, or of exactly `n` bytes when
    /// that is larger.
    fn fill(&mut self, n: usize) -> io::Result<bool> {
        let held = self.end - self.start;
        if held >= n {
            return Ok(true);
        }
        if held as u64 + self.unread < n as u64 {
            return Ok(false);
        }
        let size = n.max(WRITE_CHUNK_BYTES);
        if self.buf.len() == size {
            self.buf.copy_within(self.start..self.end, 0);
        } else {
            let mut resized = vec![0; size];
            resized[..held].copy_from_slice(&self.buf[self.start..self.end]);
            self.buf = resized;
        }
        (self.start, self.end) = (0, held);
        while self.end < n {
            let room = ((self.buf.len() - self.end) as u64).min(self.unread) as usize;
            let read = match self.source.read(&mut self.buf[self.end..self.end + room]) {
                Ok(0) => {
                    // The source is shorter than its declared length.
                    self.unread = 0;
                    return Ok(false);
                }
                Ok(read) => read,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(error),
            };
            self.end += read;
            self.unread -= read as u64;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every valid payload of `buf`, the valid prefix length, and whether
    /// the walk stopped short of the end.
    fn read_all(buf: &[u8]) -> (Vec<Vec<u8>>, usize, bool) {
        let mut reader = FrameReader::new(buf, buf.len() as u64);
        let mut payloads = Vec::new();
        while let Some(payload) = reader.next_frame().unwrap() {
            payloads.push(payload.to_vec());
        }
        (payloads, reader.valid_len() as usize, reader.torn())
    }

    #[test]
    fn round_trip_of_several_records() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"first");
        append_frame(&mut buf, b"");
        append_frame(&mut buf, b"third record");
        let (payloads, valid, torn) = read_all(&buf);
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
            let (payloads, valid, torn) = read_all(&buf[..cut]);
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
        let (payloads, valid, torn) = read_all(&buf);
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
        let (payloads, valid, torn) = read_all(&buf);
        assert!(payloads.is_empty());
        assert_eq!(valid, 0);
        assert!(torn);
    }

    /// A reader whose source hands out one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            out[0] = first;
            self.0 = rest;
            Ok(1)
        }
    }

    /// Records straddling every buffer boundary, and one larger than the
    /// buffer, come back whole however the source splits its reads; the
    /// buffer grows to exactly the large frame and goes back to the chunk
    /// size at the next one.
    #[test]
    fn the_reader_buffer_holds_a_chunk_or_one_larger_frame() {
        let mut buf = Vec::new();
        let mut expected = Vec::new();
        for i in 0..40u32 {
            let payload = vec![i as u8; 3_001 + i as usize];
            append_frame(&mut buf, &payload);
            expected.push(payload);
        }
        let large = vec![0xab; 3 * WRITE_CHUNK_BYTES + 5];
        append_frame(&mut buf, &large);
        expected.push(large);
        append_frame(&mut buf, b"after");
        expected.push(b"after".to_vec());

        let (payloads, valid, torn) = read_all(&buf);
        assert_eq!(
            (payloads, valid, torn),
            (expected.clone(), buf.len(), false)
        );

        let mut reader = FrameReader::new(Trickle(&buf), buf.len() as u64);
        for (index, want) in expected.iter().enumerate() {
            assert_eq!(reader.next_frame().unwrap(), Some(&want[..]));
            let size = if index == 40 {
                FRAME_HEADER_LEN + want.len()
            } else {
                WRITE_CHUNK_BYTES
            };
            assert_eq!(reader.buf.len(), size, "buffer after frame {index}");
        }
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(!reader.torn());
    }

    /// A header claiming more bytes than the source has left is a torn
    /// tail, found without growing the buffer for the claim.
    #[test]
    fn a_length_past_the_end_is_torn_without_growing_the_buffer() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"kept");
        buf.extend_from_slice(&(MAX_PAYLOAD_LEN).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4 + 100]);
        let mut reader = FrameReader::new(&buf[..], buf.len() as u64);
        assert_eq!(reader.next_frame().unwrap(), Some(&b"kept"[..]));
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(reader.torn());
        assert_eq!(reader.valid_len(), (FRAME_HEADER_LEN + 4) as u64);
        assert_eq!(reader.buf.len(), WRITE_CHUNK_BYTES);
    }
}
