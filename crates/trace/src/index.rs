//! The chunk-index footer: per-chunk byte offsets, uncompressed payload
//! lengths and checksum accumulator states, written by
//! [`crate::TraceWriter`] at finish and consumed by
//! [`crate::StreamingReplay::open_at`] to turn skip-positioning into a
//! true `seek`.
//!
//! See `crate::format`'s module docs for the byte layout and the
//! verification semantics (a seek-positioned reader verifies everything
//! it reads; only the deliberately skipped prefix goes unchecked).
//! Chunk payloads are compressed: `offset` addresses the compressed
//! frame, `raw_len` records the uncompressed payload length, and `state`
//! tracks the checksum over *uncompressed* bytes — a seek lands on a
//! frame it can decompress and verify exactly as the sequential path
//! would.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

use crate::format::{Checksum, TraceError, TraceMeta, INDEX_MAGIC};

/// Bytes of a footer entry (`offset:u64 raw_len:u64 state:u64`).
const ENTRY_LEN: u64 = 24;

/// One chunk's position in the file and in the checksum stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Absolute byte offset of the chunk's frame (its `record_count`
    /// field). The final entry points just past the last chunk.
    pub offset: u64,
    /// Uncompressed payload length of the chunk; zero for the
    /// end-of-chunks sentinel.
    pub raw_len: u64,
    /// The payload checksum's raw accumulator state before this chunk
    /// ([`Checksum::state`]); the final entry holds the end-of-stream
    /// state, whose finalized value is the header checksum.
    pub state: u64,
}

/// A decoded chunk-index footer: `chunks() + 1` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    entries: Vec<IndexEntry>,
}

impl ChunkIndex {
    /// Number of chunks the index covers.
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.entries.len() - 1
    }

    /// Entry for chunk `k`; `k == chunks()` addresses the end-of-chunks
    /// sentinel.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn entry(&self, k: usize) -> IndexEntry {
        self.entries[k]
    }
}

/// Serializes the footer for `entries` (chunk entries plus the
/// end-of-chunks sentinel, in file order).
#[must_use]
pub fn encode_footer(entries: &[IndexEntry]) -> Vec<u8> {
    let mut body = Vec::with_capacity(8 + entries.len() * ENTRY_LEN as usize + 24);
    body.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        body.extend_from_slice(&e.offset.to_le_bytes());
        body.extend_from_slice(&e.raw_len.to_le_bytes());
        body.extend_from_slice(&e.state.to_le_bytes());
    }
    let mut checksum = Checksum::new();
    checksum.update(&body);
    let footer_len = (body.len() + 8) as u64;
    body.extend_from_slice(&checksum.value().to_le_bytes());
    body.extend_from_slice(&footer_len.to_le_bytes());
    body.extend_from_slice(&INDEX_MAGIC);
    body
}

/// Reads and validates the chunk-index footer of `path`, whose header
/// `meta` was already parsed. Returns `Ok(None)` when the header does not advertise an
/// index, **or** when the footer fails any validation (bad magic,
/// checksum, entry count, non-monotonic offsets) — a damaged index
/// quietly demotes positioning to the raw chunk-skip path, which
/// detects payload damage on its own; only I/O failures are errors.
///
/// # Errors
///
/// Underlying I/O failures.
pub fn read_index(path: &Path, meta: &TraceMeta) -> Result<Option<ChunkIndex>, TraceError> {
    if !meta.has_index {
        return Ok(None);
    }
    let mut file = File::open(path)?;
    let file_len = file.seek(SeekFrom::End(0))?;
    if file_len < 16 {
        return Ok(None);
    }
    file.seek(SeekFrom::End(-16))?;
    let mut tail = [0u8; 16];
    file.read_exact(&mut tail)?;
    if tail[8..16] != INDEX_MAGIC {
        return Ok(None);
    }
    // `footer_len` spans entry_count..footer_checksum inclusive; the
    // (footer_len, magic) trailer adds 16 more bytes.
    let footer_len = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
    if footer_len < 16 + ENTRY_LEN || footer_len + 16 > file_len || footer_len > (1 << 31) {
        return Ok(None);
    }
    file.seek(SeekFrom::End(-16 - footer_len as i64))?;
    let mut body = vec![0u8; footer_len as usize];
    file.read_exact(&mut body)?;

    let (entries_bytes, promised) = body.split_at(body.len() - 8);
    let mut checksum = Checksum::new();
    checksum.update(entries_bytes);
    if checksum.value() != u64::from_le_bytes(promised.try_into().expect("8 bytes")) {
        return Ok(None);
    }

    let entry_count = u64::from_le_bytes(entries_bytes[0..8].try_into().expect("8 bytes"));
    if entry_count == 0 || entries_bytes.len() as u64 != 8 + entry_count * ENTRY_LEN {
        return Ok(None);
    }
    let expected_chunks = meta.instructions.div_ceil(u64::from(meta.chunk_capacity));
    if entry_count != expected_chunks + 1 {
        return Ok(None);
    }
    let mut entries = Vec::with_capacity(entry_count as usize);
    for i in 0..entry_count as usize {
        let at = 8 + i * ENTRY_LEN as usize;
        let word = |k: usize| {
            u64::from_le_bytes(
                entries_bytes[at + k * 8..at + k * 8 + 8].try_into().expect("8 bytes"),
            )
        };
        let (offset, raw_len, state) = (word(0), word(1), word(2));
        if let Some(prev) = entries.last() {
            let prev: &IndexEntry = prev;
            if offset <= prev.offset {
                return Ok(None); // offsets must strictly increase
            }
        }
        entries.push(IndexEntry { offset, raw_len, state });
    }
    Ok(Some(ChunkIndex { entries }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_round_trips() {
        let entries: Vec<IndexEntry> = (0..5)
            .map(|i| IndexEntry { offset: 42 + i * 1000, raw_len: 900 + i, state: 7 + i })
            .collect();
        let bytes = encode_footer(&entries);
        assert_eq!(&bytes[bytes.len() - 8..], &INDEX_MAGIC);
        let footer_len =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
        assert_eq!(footer_len as usize + 16, bytes.len());
        assert_eq!(footer_len as usize, 8 + entries.len() * 24 + 8);
    }
}
