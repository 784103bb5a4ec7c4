//! The chunk-index footer every trace ends with: per-chunk byte offsets
//! and checksum accumulator states, written by [`crate::TraceWriter`] at
//! finish and read by [`crate::StreamingReplay::open_at`] to seek.
//!
//! See `crate::format`'s module docs for the byte layout and the
//! verification semantics (a seek-positioned reader verifies everything
//! it reads; only the deliberately skipped prefix goes unchecked).
//! `offset` addresses the compressed frame and `state` the checksum over
//! columnar payloads — a seek lands on a frame it can decompress and
//! verify exactly as the sequential path would.

use std::io::{Read, Seek, SeekFrom};

use crate::format::{Checksum, TraceError, TraceMeta, INDEX_MAGIC};

/// Bytes of a footer entry (`offset:u64 state:u64`).
const ENTRY_LEN: u64 = 16;

/// One chunk's position in the file and in the checksum stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Absolute byte offset of the chunk's frame (its `record_count`
    /// field). The final entry points just past the last chunk.
    pub offset: u64,
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

fn bad_index(what: &str) -> TraceError {
    TraceError::Corrupt(format!("chunk index: {what}"))
}

/// Reads and validates the chunk-index footer at the end of `source`, a
/// trace whose header `meta` was already parsed. Leaves `source`
/// positioned somewhere inside the footer.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the footer fails any validation (magic,
/// length, checksum, entry count against the header, offsets not
/// strictly increasing); [`TraceError::Io`] for I/O failures.
pub fn read_index<R: Read + Seek>(
    source: &mut R,
    meta: &TraceMeta,
) -> Result<ChunkIndex, TraceError> {
    let file_len = source.seek(SeekFrom::End(0))?;
    if file_len < 16 {
        return Err(bad_index("file too short for a footer"));
    }
    source.seek(SeekFrom::End(-16))?;
    let mut tail = [0u8; 16];
    source.read_exact(&mut tail)?;
    if tail[8..16] != INDEX_MAGIC {
        return Err(bad_index("bad magic"));
    }
    // `footer_len` spans entry_count..footer_checksum inclusive; the
    // (footer_len, magic) trailer adds 16 more bytes.
    let footer_len = u64::from_le_bytes(tail[0..8].try_into().expect("8 bytes"));
    if !(16 + ENTRY_LEN..=1 << 31).contains(&footer_len) || footer_len + 16 > file_len {
        return Err(bad_index(&format!("implausible length {footer_len}")));
    }
    source.seek(SeekFrom::End(-16 - footer_len as i64))?;
    let mut body = vec![0u8; footer_len as usize];
    source.read_exact(&mut body)?;

    let (entries_bytes, promised) = body.split_at(body.len() - 8);
    let mut checksum = Checksum::new();
    checksum.update(entries_bytes);
    if checksum.value() != u64::from_le_bytes(promised.try_into().expect("8 bytes")) {
        return Err(bad_index("checksum mismatch"));
    }

    let (count, records) = entries_bytes.split_at(8);
    let entry_count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    let expected_chunks = meta.instructions.div_ceil(u64::from(meta.chunk_capacity));
    // Both counts come off disk: compared without an addition or a
    // product that could overflow.
    if records.len() as u64 != entry_count.saturating_mul(ENTRY_LEN)
        || entry_count.checked_sub(1) != Some(expected_chunks)
    {
        return Err(bad_index(&format!("{entry_count} entries for {expected_chunks} chunks")));
    }
    let mut entries: Vec<IndexEntry> = Vec::with_capacity(entry_count as usize);
    for entry in records.chunks_exact(ENTRY_LEN as usize) {
        let word = |k: usize| u64::from_le_bytes(entry[k * 8..k * 8 + 8].try_into().expect("8"));
        let (offset, state) = (word(0), word(1));
        if entries.last().is_some_and(|prev| offset <= prev.offset) {
            return Err(bad_index("offsets do not increase"));
        }
        entries.push(IndexEntry { offset, state });
    }
    Ok(ChunkIndex { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_round_trips() {
        let entries: Vec<IndexEntry> =
            (0..5).map(|i| IndexEntry { offset: 42 + i * 1000, state: 7 + i }).collect();
        let bytes = encode_footer(&entries);
        assert_eq!(&bytes[bytes.len() - 8..], &INDEX_MAGIC);
        let footer_len =
            u64::from_le_bytes(bytes[bytes.len() - 16..bytes.len() - 8].try_into().unwrap());
        assert_eq!(footer_len as usize + 16, bytes.len());
        assert_eq!(footer_len as usize, 8 + entries.len() * 16 + 8);
    }
}
