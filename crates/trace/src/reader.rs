//! Streaming chunked trace reader.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use trrip_cpu::{BranchInfo, MemOp, TraceInstr};
use trrip_mem::VirtAddr;
use trrip_snap::{unzigzag, Checksum};

use crate::format::{
    kind_from_bits, stall_from_bits, TraceError, TraceLayout, TraceMeta, CHUNK_FRAME_LEN,
    FLAG_BRANCH, FLAG_MEM, FLAG_STALL, FLAG_STORE, FLAG_TAKEN, HEADER_FIXED_LEN, KIND_SHIFT, MAGIC,
    MAX_NAME_LEN, VERSION,
};
use crate::source::TraceSource;

/// Largest chunk payload the reader will buffer (defense against a
/// corrupt length field allocating gigabytes).
const MAX_CHUNK_PAYLOAD: u32 = 64 << 20;

/// Reads a trace file chunk by chunk: memory stays O(chunk) however long
/// the trace is. The header is validated eagerly in [`TraceReader::new`];
/// the payload checksum is verified when the last chunk has been read.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    meta: TraceMeta,
    /// Instructions not yet read.
    remaining: u64,
    /// Leading records still to decode and drop.
    skip: u64,
    checksum: Checksum,
    /// Payload scratch, reused across reads.
    payload: Vec<u8>,
}

/// A [`TraceSource`] over a trace file, read front to back on the
/// caller's thread and verified against the header checksum as it goes.
/// The header is validated at open (so open errors are synchronous); a
/// corrupt payload panics mid-replay, naming the trace.
pub type StreamingReplay = TraceReader<BufReader<File>>;

impl TraceReader<BufReader<File>> {
    /// Opens `path` at its first instruction.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::open_at`].
    pub fn open(path: &Path) -> Result<StreamingReplay, TraceError> {
        TraceReader::open_at(path, 0)
    }

    /// Opens `path` positioned `skip` instructions in: the first record
    /// handed out is number `skip` of the trace.
    ///
    /// The reader decodes the first `skip` records and drops them, so the
    /// skipped prefix is read and checksum-verified like the rest: damage
    /// anywhere in the file fails the read. A `skip` at or beyond the end
    /// of the trace yields an exhausted (and still verified) stream.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::new`], plus file-open failures.
    pub fn open_at(path: &Path, skip: u64) -> Result<StreamingReplay, TraceError> {
        let mut reader = TraceReader::new(BufReader::new(File::open(path)?))?;
        reader.skip = skip;
        Ok(reader)
    }
}

impl<R: Read> TraceReader<R> {
    /// Validates the header and positions the reader at the first chunk.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] /
    /// [`TraceError::Corrupt`] for an invalid header, [`TraceError::Io`]
    /// for underlying failures (including a file shorter than a header).
    pub fn new(mut source: R) -> Result<TraceReader<R>, TraceError> {
        let mut fixed = [0u8; HEADER_FIXED_LEN];
        source.read_exact(&mut fixed)?;
        if fixed[0..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes([fixed[8], fixed[9]]);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let layout = TraceLayout::from_u8(fixed[10])
            .ok_or_else(|| TraceError::Corrupt(format!("invalid layout byte {}", fixed[10])))?;
        let chunk_capacity = u32::from_le_bytes(fixed[12..16].try_into().expect("4 bytes"));
        if chunk_capacity == 0 {
            return Err(TraceError::Corrupt("zero chunk capacity".into()));
        }
        let instructions = u64::from_le_bytes(fixed[16..24].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(fixed[24..32].try_into().expect("8 bytes"));
        let name_len = u16::from_le_bytes([fixed[32], fixed[33]]);
        if usize::from(name_len) > MAX_NAME_LEN {
            return Err(TraceError::Corrupt(format!("implausible name length {name_len}")));
        }
        let mut name_bytes = vec![0u8; usize::from(name_len)];
        source.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TraceError::Corrupt("workload name is not UTF-8".into()))?;

        Ok(TraceReader {
            source,
            meta: TraceMeta { name, layout, instructions, checksum, chunk_capacity },
            remaining: instructions,
            skip: 0,
            checksum: Checksum::new(),
            payload: Vec::new(),
        })
    }

    /// The header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Appends the next chunk's records to `out`, less any still to skip,
    /// and returns how many it appended; `0` means the trace is complete
    /// (and the checksum verified). A chunk the skip swallows whole is
    /// read, checksummed and decoded, then the next one is.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for malformed framing or payload,
    /// [`TraceError::ChecksumMismatch`] when payload bytes were damaged
    /// in place, [`TraceError::Io`] for truncation and other underlying
    /// failures.
    pub fn read_chunk(&mut self, out: &mut Vec<TraceInstr>) -> Result<usize, TraceError> {
        loop {
            let start = out.len();
            let decoded = self.decode_next_chunk(out)?;
            let dropped = decoded.min(usize::try_from(self.skip).unwrap_or(usize::MAX));
            if dropped > 0 {
                out.drain(start..start + dropped);
                self.skip -= dropped as u64;
            }
            if decoded == 0 || decoded > dropped {
                return Ok(decoded - dropped);
            }
        }
    }

    /// Validates the next frame, reads and checksums its payload, then
    /// decodes every record of it into `out`.
    fn decode_next_chunk(&mut self, out: &mut Vec<TraceInstr>) -> Result<usize, TraceError> {
        if self.remaining == 0 {
            // Covers the empty-trace case; non-empty traces were already
            // verified when their final chunk was produced.
            self.verify_checksum()?;
            return Ok(0);
        }

        let mut frame = [0u8; CHUNK_FRAME_LEN];
        self.source.read_exact(&mut frame)?;
        let record_count = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        self.validate_record_count(record_count)?;
        if payload_len > MAX_CHUNK_PAYLOAD {
            return Err(TraceError::Corrupt(format!("implausible chunk payload {payload_len}")));
        }
        // The length is believed only as far as the file holds bytes:
        // the buffer grows with what is read, never ahead of it.
        self.payload.clear();
        let read =
            (&mut self.source).take(u64::from(payload_len)).read_to_end(&mut self.payload)?;
        if read != payload_len as usize {
            return Err(TraceError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("chunk payload cut short: {read} of {payload_len} bytes"),
            )));
        }
        self.checksum.update(&self.payload);
        trrip_obs::counter!("trace.chunks_read").incr();
        trrip_obs::counter!("trace.bytes_read").add(self.payload.len() as u64);

        self.remaining -= u64::from(record_count);
        if self.remaining == 0 {
            // Verify as part of producing the *last* chunk: consumers
            // that stop pulling once they have every instruction (the
            // simulator's `take(n)` does) would never issue the extra
            // call that returns 0, and damage would pass silently.
            self.verify_checksum()?;
        }
        decode_chunk(&self.payload, record_count, out)?;
        Ok(record_count as usize)
    }

    fn validate_record_count(&self, record_count: u32) -> Result<(), TraceError> {
        if record_count == 0 {
            return Err(TraceError::Corrupt("empty chunk".into()));
        }
        if u64::from(record_count) > self.remaining {
            return Err(TraceError::Corrupt(format!(
                "chunk holds {record_count} records but only {} remain",
                self.remaining
            )));
        }
        if record_count > self.meta.chunk_capacity {
            return Err(TraceError::Corrupt(format!(
                "chunk holds {record_count} records, capacity is {}",
                self.meta.chunk_capacity
            )));
        }
        Ok(())
    }

    fn verify_checksum(&self) -> Result<(), TraceError> {
        let found = self.checksum.value();
        if found != self.meta.checksum {
            return Err(TraceError::ChecksumMismatch { expected: self.meta.checksum, found });
        }
        trrip_obs::counter!("trace.checksum_verified").incr();
        Ok(())
    }

    /// Reads the whole remaining trace into memory. Intended for tests
    /// and small traces; replay paths should stream chunks instead.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::read_chunk`].
    pub fn read_to_end(&mut self) -> Result<Vec<TraceInstr>, TraceError> {
        let mut all = Vec::new();
        while self.read_chunk(&mut all)? > 0 {}
        Ok(all)
    }
}

/// The one cursor a payload is read with, front to back.
struct Rows<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Rows<'_> {
    fn byte(&mut self) -> Result<u8, &'static str> {
        let &byte = self.bytes.get(self.pos).ok_or("the payload ends before its last record")?;
        self.pos += 1;
        Ok(byte)
    }

    /// The next zigzag varint, a byte at a time.
    #[inline]
    fn signed(&mut self) -> Result<i64, &'static str> {
        let mut value = 0u64;
        // A u64 takes at most ten 7-bit groups.
        for (i, &byte) in self.bytes[self.pos..].iter().take(10).enumerate() {
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte < 0x80 {
                self.pos += i + 1;
                return Ok(unzigzag(value));
            }
        }
        Err(if self.bytes.len() - self.pos < 10 {
            "a record ends inside a varint"
        } else {
            "a varint runs past 64 bits"
        })
    }

    fn stall_pair(&mut self) -> Result<[u8; 2], &'static str> {
        let pair = self.bytes[self.pos..].first_chunk::<2>().ok_or("a stall pair is cut short")?;
        self.pos += 2;
        Ok(*pair)
    }
}

/// Decodes one chunk's `payload` holding `record_count` records,
/// appending them to `out`. Chunks are self-contained (delta state
/// resets at every chunk boundary), so this is safe to call on any chunk
/// in any order. Bounds-checked throughout: arbitrary bytes under any
/// record count produce [`TraceError::Corrupt`] or instructions, never a
/// panic, and nothing is reserved for more records than the payload can
/// hold. Every decoded record counts toward `trace.records_decoded`,
/// once per chunk: the counter is how a test sees that a positioned
/// replay decodes its skipped prefix too.
///
/// # Errors
///
/// [`TraceError::Corrupt`], naming what is wrong, when the record count
/// is more than the payload can hold, a record is cut short, a field is
/// out of range, or bytes follow the last record.
pub fn decode_chunk(
    payload: &[u8],
    record_count: u32,
    out: &mut Vec<TraceInstr>,
) -> Result<(), TraceError> {
    // A record is at least a flags byte and a one-byte PC delta.
    if record_count as usize > payload.len() / 2 {
        return Err(TraceError::Corrupt(format!(
            "{record_count} records claimed, a {}-byte payload holds at most {}",
            payload.len(),
            payload.len() / 2
        )));
    }
    decode_rows(payload, record_count as usize, out)
        .map_err(|what| TraceError::Corrupt(what.into()))?;
    trrip_obs::counter!("trace.records_decoded").add(u64::from(record_count));
    Ok(())
}

/// [`decode_chunk`]'s loop, with an error small enough to keep off the
/// hot path: it names what is wrong.
fn decode_rows(payload: &[u8], n: usize, out: &mut Vec<TraceInstr>) -> Result<(), &'static str> {
    let mut rows = Rows { bytes: payload, pos: 0 };
    out.reserve(n);
    let (mut expected_pc, mut prev_mem) = (0u64, 0u64);
    for _ in 0..n {
        let flags = rows.byte()?;
        let pc = expected_pc.wrapping_add(rows.signed()? as u64);
        expected_pc = pc.wrapping_add(4);
        let branch = if flags & FLAG_BRANCH != 0 {
            let kind = kind_from_bits(flags >> KIND_SHIFT).ok_or("invalid branch kind")?;
            let target = expected_pc.wrapping_add(rows.signed()? as u64);
            let taken = flags & FLAG_TAKEN != 0;
            if taken {
                expected_pc = target;
            }
            Some(BranchInfo { kind, taken, target: VirtAddr::new(target) })
        } else {
            None
        };
        let mem = if flags & FLAG_MEM != 0 {
            prev_mem = prev_mem.wrapping_add(rows.signed()? as u64);
            Some(MemOp { addr: VirtAddr::new(prev_mem), store: flags & FLAG_STORE != 0 })
        } else {
            None
        };
        let exec_stall = if flags & FLAG_STALL != 0 {
            let [class, cycles] = rows.stall_pair()?;
            Some((stall_from_bits(class).ok_or("invalid stall class")?, cycles))
        } else {
            None
        };
        out.push(TraceInstr { pc: VirtAddr::new(pc), branch, mem, exec_stall });
    }
    if rows.pos != payload.len() {
        return Err("bytes after the last record");
    }
    Ok(())
}

impl<R: Read> TraceSource for TraceReader<R> {
    /// # Panics
    ///
    /// Panics if the trace turns out to be corrupt mid-stream, skipped
    /// prefix included; header problems are caught earlier, at
    /// [`TraceReader::new`]. Callers who need recoverable errors use
    /// [`TraceReader::read_chunk`] directly.
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        self.read_chunk(out).unwrap_or_else(|e| panic!("replaying trace {}: {e}", self.meta.name))
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use trrip_cpu::{BranchKind, StallClass};
    use trrip_snap::{push_signed, push_varint};

    use super::*;
    use crate::format::{kind_to_bits, stall_to_bits};
    use crate::writer::TraceWriter;

    /// A capture whose first frame claims [`MAX_CHUNK_PAYLOAD`] bytes is
    /// an error, and reading it allocates no more than the file holds.
    #[test]
    fn a_frame_is_believed_only_as_far_as_the_file_holds_bytes() {
        let mut writer =
            TraceWriter::with_chunk_capacity(Cursor::new(Vec::new()), "big", TraceLayout::Pgo, 64)
                .expect("header");
        writer.write_all((0..200).map(|i| TraceInstr::simple(0x1000 + i * 4))).expect("records");
        let mut bytes = writer.finish_into_inner().expect("finish").into_inner();
        let payload_len_at = HEADER_FIXED_LEN + "big".len() + 4;
        bytes[payload_len_at..payload_len_at + 4].copy_from_slice(&MAX_CHUNK_PAYLOAD.to_le_bytes());

        let mut reader = TraceReader::new(Cursor::new(&bytes)).expect("the header is whole");
        let error = reader.read_chunk(&mut Vec::new()).expect_err("a frame past the file's end");
        assert!(
            matches!(&error, TraceError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "{error}"
        );
        let capacity = reader.payload.capacity();
        assert!(
            capacity < 2 * bytes.len(),
            "{capacity} bytes buffered from a {}-byte file",
            bytes.len()
        );
    }

    /// `decode_chunk`'s error message for `payload` under `record_count`.
    fn damage(payload: &[u8], record_count: u32) -> String {
        let mut out = Vec::new();
        match decode_chunk(payload, record_count, &mut out) {
            Err(TraceError::Corrupt(what)) => what,
            other => panic!("{payload:?} × {record_count}: {other:?}"),
        }
    }

    /// One record: a taken call with a load and a stall pair, every
    /// optional field present.
    fn full_record() -> Vec<u8> {
        let flags = FLAG_BRANCH
            | FLAG_TAKEN
            | FLAG_MEM
            | FLAG_STALL
            | (kind_to_bits(BranchKind::Call) << KIND_SHIFT);
        let mut record = vec![flags];
        push_signed(&mut record, 0x1000);
        push_signed(&mut record, -0x40_0000);
        push_signed(&mut record, 0x7fff_0000);
        record.extend_from_slice(&[stall_to_bits(StallClass::Mem), 9]);
        record
    }

    #[test]
    fn the_full_record_decodes() {
        let mut out = Vec::new();
        decode_chunk(&full_record(), 1, &mut out).expect("a whole record");
        let [instr] = out[..] else { panic!("{out:?}") };
        assert_eq!(instr.pc.raw(), 0x1000);
        let branch = instr.branch.expect("a branch");
        assert_eq!((branch.kind, branch.taken), (BranchKind::Call, true));
        assert_eq!(branch.target.raw(), 0x1004_u64.wrapping_sub(0x40_0000));
        assert_eq!(instr.mem.map(|m| (m.addr.raw(), m.store)), Some((0x7fff_0000, false)));
        assert_eq!(instr.exec_stall, Some((StallClass::Mem, 9)));
    }

    #[test]
    fn a_record_cut_inside_a_varint_is_named() {
        let record = full_record();
        // Byte 1 starts the PC varint (two bytes), byte 3 the target's.
        for cut in [2, 4] {
            assert!(damage(&record[..cut], 1).contains("ends inside a varint"), "cut at {cut}");
        }
        let mut runaway = vec![0u8];
        runaway.extend_from_slice(&[0xFF; 11]);
        assert!(damage(&runaway, 1).contains("runs past 64 bits"));
    }

    #[test]
    fn a_stall_pair_cut_short_is_named() {
        let record = full_record();
        assert!(damage(&record[..record.len() - 1], 1).contains("stall pair is cut short"));
    }

    #[test]
    fn bytes_after_the_last_record_are_named() {
        let mut payload = full_record();
        payload.push(0);
        assert!(damage(&payload, 1).contains("bytes after the last record"));
        assert!(damage(&[0, 0], 0).contains("bytes after the last record"));
    }

    #[test]
    fn out_of_range_kinds_and_classes_are_named() {
        let mut bad_kind = vec![FLAG_BRANCH | (6 << KIND_SHIFT)];
        push_signed(&mut bad_kind, 0);
        push_signed(&mut bad_kind, 0);
        assert!(damage(&bad_kind, 1).contains("invalid branch kind"));

        let mut bad_class = vec![FLAG_STALL];
        push_signed(&mut bad_class, 0);
        bad_class.extend_from_slice(&[6, 1]);
        assert!(damage(&bad_class, 1).contains("invalid stall class"));
    }

    #[test]
    fn a_record_count_the_payload_cannot_hold_is_refused_before_reserving() {
        let mut payload = Vec::new();
        push_varint(&mut payload, 0);
        push_varint(&mut payload, 0);
        assert!(damage(&payload, 2).contains("2 records claimed, a 2-byte payload holds at most 1"));
        // A claim the size of the address space is refused, not reserved:
        // nothing was pushed and nothing was allocated for it.
        let mut out = Vec::new();
        assert!(decode_chunk(&payload, u32::MAX, &mut out).is_err());
        assert_eq!(out.capacity(), 0);
    }
}
