//! Streaming chunked trace reader.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

use trrip_cpu::TraceInstr;

use crate::format::{
    decode_record, decolumnarize, Checksum, DeltaState, TraceError, TraceLayout, TraceMeta,
    CHUNK_FRAME_LEN, FLAG_CHUNK_INDEX, HEADER_FIXED_LEN, MAGIC, MAX_NAME_LEN, VERSION,
};
use crate::index::ChunkIndex;
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
    payload: Vec<u8>,
    /// Compressed-chunk scratch, reused across reads.
    comp: Vec<u8>,
    /// Columnar-payload scratch, reused across reads.
    cols: Vec<u8>,
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
        let has_index = fixed[11] & FLAG_CHUNK_INDEX != 0;
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
            meta: TraceMeta { name, layout, instructions, checksum, chunk_capacity, has_index },
            remaining: instructions,
            checksum: Checksum::new(),
            payload: Vec::new(),
            comp: Vec::new(),
            cols: Vec::new(),
        })
    }

    /// The header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Instructions not yet read.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads the next chunk's payload bytes into `payload` without
    /// decoding any records, returning the chunk's record count; `0`
    /// means the trace is complete (and the checksum verified). The
    /// on-disk bytes are decompressed and de-columnarized here —
    /// `payload` always holds the row-encoded record bytes, which is
    /// what decode and checksum work on. Framing is validated and the payload checksum
    /// accumulated here, so a caller draining raw chunks still detects
    /// damaged payload bytes — the split that lets a positioned replay
    /// pass over the chunks before its start without decoding them.
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for malformed framing,
    /// [`TraceError::ChecksumMismatch`] at EOF when payload bytes were
    /// damaged in place, [`TraceError::Io`] for truncation and other
    /// underlying failures.
    pub fn read_chunk_raw(&mut self, payload: &mut Vec<u8>) -> Result<u32, TraceError> {
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
        // Two storage transforms to undo: the codec, then the columnar
        // grouping.
        trrip_pack::decompress(codec, &self.comp, raw_len as usize, &mut self.cols)?;
        decolumnarize(&self.cols, record_count, payload)?;
        self.checksum.update(payload);
        trrip_obs::counter!("trace.chunks_read").incr();
        trrip_obs::counter!("trace.bytes_read").add(payload.len() as u64);

        self.remaining -= u64::from(record_count);
        if self.remaining == 0 {
            // Verify as part of producing the *last* chunk: consumers
            // that stop pulling once they have every instruction (the
            // simulator's `take(n)` does) would never issue the extra
            // call that returns 0, and damage would pass silently.
            self.verify_checksum()?;
        }
        Ok(record_count)
    }

    /// Decodes the next chunk, appending its records to `out`. Returns
    /// the number of records appended; `0` means the trace is complete
    /// (and the checksum verified).
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] for malformed framing or payload,
    /// [`TraceError::ChecksumMismatch`] at EOF when payload bytes were
    /// damaged in place, [`TraceError::Io`] for truncation and other
    /// underlying failures.
    pub fn read_chunk(&mut self, out: &mut Vec<TraceInstr>) -> Result<usize, TraceError> {
        let mut payload = std::mem::take(&mut self.payload);
        let result = self.read_chunk_raw(&mut payload);
        self.payload = payload;
        let record_count = result?;
        if record_count > 0 {
            decode_chunk(&self.payload, record_count, out)?;
        }
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

    /// Seeks directly to chunk `k` using a validated [`ChunkIndex`]:
    /// positions the source at the chunk's byte offset, seeds the
    /// running checksum with the accumulator state the capture recorded
    /// there, and rewinds the remaining-record count. The next
    /// [`TraceReader::read_chunk`] (or raw read) yields chunk `k`, and
    /// end-of-trace checksum verification covers every byte read from
    /// here on. `k` at or beyond the chunk count positions at the
    /// end-of-chunks sentinel: an immediately exhausted, still-verified
    /// stream.
    ///
    /// # Errors
    ///
    /// Underlying seek failures.
    pub fn seek_to_chunk(&mut self, index: &ChunkIndex, k: usize) -> Result<(), TraceError>
    where
        R: Seek,
    {
        let k = k.min(index.chunks());
        let entry = index.entry(k);
        self.source.seek(SeekFrom::Start(entry.offset))?;
        self.checksum = Checksum::from_state(entry.state);
        self.remaining =
            self.meta.instructions.saturating_sub(k as u64 * u64::from(self.meta.chunk_capacity));
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

/// Decodes one raw chunk `payload` holding `record_count` records,
/// appending them to `out`. Chunks are self-contained (delta state resets
/// at every chunk boundary), so this is safe to call on any chunk in any
/// order — the primitive behind the streaming reader and the skip phase
/// of a positioned replay. Every decoded record counts toward
/// `trace.records_decoded`, once per chunk: a sweep that re-decodes a
/// trace per policy still produces the right numbers, only slower, and
/// the counter is how a test holds it to one decode per workload.
///
/// # Errors
///
/// [`TraceError::Corrupt`] for malformed payload bytes.
pub fn decode_chunk(
    payload: &[u8],
    record_count: u32,
    out: &mut Vec<TraceInstr>,
) -> Result<(), TraceError> {
    out.reserve(record_count as usize);
    let mut pos = 0;
    let mut state = DeltaState::new();
    for _ in 0..record_count {
        out.push(decode_record(payload, &mut pos, &mut state)?);
    }
    if pos != payload.len() {
        return Err(TraceError::Corrupt(format!(
            "{} trailing bytes after last record of chunk",
            payload.len() - pos
        )));
    }
    trrip_obs::counter!("trace.records_decoded").add(u64::from(record_count));
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

/// Reads just the metadata of a trace file (cheap: header only).
///
/// # Errors
///
/// As [`open`].
pub fn probe(path: &Path) -> Result<TraceMeta, TraceError> {
    Ok(open(path)?.meta().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use crate::TraceLayout;
    use std::io::Cursor;

    /// The raw-chunk split ([`TraceReader::read_chunk_raw`] +
    /// [`decode_chunk`]) against the classic reader.
    #[test]
    fn raw_chunks_decode_to_what_the_classic_reader_reads() {
        let mut writer =
            TraceWriter::with_chunk_capacity(Cursor::new(Vec::new()), "raw", TraceLayout::Pgo, 16)
                .expect("header");
        for i in 0..100u64 {
            writer.write(&TraceInstr::simple(0x4000 + i * 4)).expect("write");
        }
        let bytes = writer.finish_into_inner().expect("finish").into_inner();
        let mut raw = TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
        let mut payload = Vec::new();
        let mut decoded = Vec::new();
        loop {
            let count = raw.read_chunk_raw(&mut payload).expect("raw chunk");
            if count == 0 {
                break;
            }
            decode_chunk(&payload, count, &mut decoded).expect("decode");
        }
        let mut classic = TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
        assert_eq!(decoded, classic.read_to_end().expect("read_to_end"));
    }
}
