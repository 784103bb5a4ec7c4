//! Streaming chunked trace reader.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use trrip_cpu::{BranchInfo, MemOp, TraceInstr};
use trrip_mem::VirtAddr;

use crate::format::{
    kind_from_bits, read_varint, stall_from_bits, unzigzag, Checksum, TraceError, TraceLayout,
    TraceMeta, CHUNK_FRAME_LEN, FLAG_BRANCH, FLAG_MEM, FLAG_STALL, FLAG_STORE, FLAG_TAKEN,
    HEADER_FIXED_LEN, KIND_SHIFT, MAGIC, MAX_NAME_LEN, VERSION,
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
    /// Instructions not yet handed out.
    remaining: u64,
    checksum: Checksum,
    /// Columnar-payload scratch, reused across reads.
    payload: Vec<u8>,
    /// Compressed-chunk scratch, reused across reads.
    comp: Vec<u8>,
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
            checksum: Checksum::new(),
            payload: Vec::new(),
            comp: Vec::new(),
        })
    }

    /// The header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Decodes the next chunk, appending its records to `out`. Returns
    /// the number of records appended; `0` means the trace is complete
    /// (and the checksum verified). Framing is validated, the payload
    /// decompressed and checksummed, then decoded straight from its
    /// columns.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for malformed framing or payload,
    /// [`TraceError::ChecksumMismatch`] when payload bytes were damaged
    /// in place, [`TraceError::Io`] for truncation and other underlying
    /// failures.
    pub fn read_chunk(&mut self, out: &mut Vec<TraceInstr>) -> Result<usize, TraceError> {
        if self.remaining == 0 {
            // Covers the empty-trace case; non-empty traces were already
            // verified when their final chunk was produced.
            self.verify_checksum()?;
            return Ok(0);
        }

        let mut frame = [0u8; CHUNK_FRAME_LEN];
        self.source.read_exact(&mut frame)?;
        let record_count = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
        let comp_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        let raw_len = u32::from_le_bytes(frame[8..12].try_into().expect("4 bytes"));
        let codec = trrip_pack::Codec::from_u8(frame[12])?;
        self.validate_record_count(record_count)?;
        if raw_len > MAX_CHUNK_PAYLOAD {
            return Err(TraceError::Corrupt(format!("implausible chunk payload {raw_len}")));
        }
        // `compress_auto` never emits more bytes than raw (the raw
        // fallback wins ties), so a larger comp_len is corruption.
        if comp_len > raw_len {
            return Err(TraceError::Corrupt(format!(
                "compressed chunk ({comp_len} bytes) larger than its payload ({raw_len})"
            )));
        }
        self.comp.resize(comp_len as usize, 0);
        self.source.read_exact(&mut self.comp)?;
        trrip_pack::decompress(codec, &self.comp, raw_len as usize, &mut self.payload)?;
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

/// A cursor over one varint column of a chunk payload.
struct Column<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Column<'_> {
    /// The next zigzag varint, a byte at a time: the fast way through a
    /// column of mostly one-byte values (PC deltas of sequential flow),
    /// which leave the loop at once.
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
        Err("a column ends inside a varint, or one runs past 64 bits")
    }

    /// The next zigzag varint, eight bytes at once: the fast way through
    /// a column of mostly multi-byte values (memory and branch-target
    /// deltas), where a byte loop's exit is guessed wrong a third of the
    /// time. The length
    /// is the first clear continuation bit; three shift-and-mask steps
    /// pack the 7-bit groups. A varint that does not end within eight
    /// readable bytes (at the column's end, or past 56 bits) takes
    /// [`Column::signed`].
    #[inline]
    fn signed_wide(&mut self) -> Result<i64, &'static str> {
        if let Some(&word) = self.bytes[self.pos..].first_chunk::<8>() {
            let word = u64::from_le_bytes(word);
            let stop = (!word & 0x8080_8080_8080_8080).trailing_zeros();
            if stop < 64 {
                self.pos += (stop as usize + 1) / 8;
                let x = word & (u64::MAX >> (63 - stop)) & 0x7F7F_7F7F_7F7F_7F7F;
                let x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
                let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
                let x = (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4);
                return Ok(unzigzag(x));
            }
        }
        self.signed()
    }

    fn is_spent(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Decodes one chunk's columnar `payload` (decompressed) holding
/// `record_count` records, appending them to `out`. Chunks are
/// self-contained (delta state resets at every chunk boundary), so this
/// is safe to call on any chunk in any order. Bounds-checked throughout:
/// arbitrary bytes under any record count produce
/// [`TraceError::Corrupt`] or instructions, never a panic. Every decoded
/// record counts toward `trace.records_decoded`, once per chunk: the
/// counter is how a test sees that a positioned replay decodes its
/// skipped prefix too.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the stream lengths disagree with the
/// payload, a stream ends before its last record's field, a field is
/// out of range, or a stream is longer than its records use.
pub fn decode_chunk(
    payload: &[u8],
    record_count: u32,
    out: &mut Vec<TraceInstr>,
) -> Result<(), TraceError> {
    decode_columns(payload, record_count as usize, out)
        .map_err(|what| TraceError::Corrupt(what.into()))?;
    trrip_obs::counter!("trace.records_decoded").add(u64::from(record_count));
    Ok(())
}

/// [`decode_chunk`]'s loop, with an error small enough to keep off the
/// hot path: it names what is wrong.
fn decode_columns(payload: &[u8], n: usize, out: &mut Vec<TraceInstr>) -> Result<(), &'static str> {
    let mut pos = 0;
    let mut lens = [0usize; 4];
    for len in &mut lens {
        let raw = read_varint(payload, &mut pos).map_err(|_| "a stream length is cut short")?;
        *len = usize::try_from(raw).unwrap_or(usize::MAX);
    }
    if lens.iter().try_fold(n, |acc, &len| acc.checked_add(len)) != Some(payload.len() - pos) {
        return Err("columnar stream lengths disagree with the payload");
    }
    let [pc_len, branch_len, mem_len, _] = lens;
    let (flags, rest) = payload[pos..].split_at(n);
    let (pcs, rest) = rest.split_at(pc_len);
    let (branches, rest) = rest.split_at(branch_len);
    let (mems, stalls) = rest.split_at(mem_len);
    let mut pcs = Column { bytes: pcs, pos: 0 };
    let mut branches = Column { bytes: branches, pos: 0 };
    let mut mems = Column { bytes: mems, pos: 0 };
    let mut stalls = stalls.chunks_exact(2);

    out.reserve(n);
    let (mut expected_pc, mut prev_mem) = (0u64, 0u64);
    for &flags in flags {
        let pc = expected_pc.wrapping_add(pcs.signed()? as u64);
        expected_pc = pc.wrapping_add(4);
        let branch = if flags & FLAG_BRANCH != 0 {
            let kind = kind_from_bits(flags >> KIND_SHIFT).ok_or("invalid branch kind")?;
            let target = expected_pc.wrapping_add(branches.signed_wide()? as u64);
            let taken = flags & FLAG_TAKEN != 0;
            if taken {
                expected_pc = target;
            }
            Some(BranchInfo { kind, taken, target: VirtAddr::new(target) })
        } else {
            None
        };
        let mem = if flags & FLAG_MEM != 0 {
            prev_mem = prev_mem.wrapping_add(mems.signed_wide()? as u64);
            Some(MemOp { addr: VirtAddr::new(prev_mem), store: flags & FLAG_STORE != 0 })
        } else {
            None
        };
        let exec_stall = if flags & FLAG_STALL != 0 {
            let pair = stalls.next().ok_or("stall stream ends mid-pair")?;
            Some((stall_from_bits(pair[0]).ok_or("invalid stall class")?, pair[1]))
        } else {
            None
        };
        out.push(TraceInstr { pc: VirtAddr::new(pc), branch, mem, exec_stall });
    }
    let stalls_spent = stalls.len() == 0 && stalls.remainder().is_empty();
    if !(pcs.is_spent() && branches.is_spent() && mems.is_spent() && stalls_spent) {
        return Err("columnar streams longer than their records use");
    }
    Ok(())
}

impl<R: Read> TraceSource for TraceReader<R> {
    /// # Panics
    ///
    /// Panics if the trace turns out to be corrupt mid-stream; header
    /// problems are caught earlier, at [`TraceReader::new`]. Callers who
    /// need recoverable errors use [`TraceReader::read_chunk`] directly.
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        self.read_chunk(out).unwrap_or_else(|e| panic!("replaying trace {}: {e}", self.meta.name))
    }
}

/// Opens a trace file for streaming.
///
/// # Errors
///
/// As [`TraceReader::new`], plus file-open failures.
pub fn open(path: &Path) -> Result<TraceReader<BufReader<File>>, TraceError> {
    TraceReader::new(BufReader::new(File::open(path)?))
}
