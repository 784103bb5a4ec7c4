//! The on-disk encoding.
//!
//! # Layout
//!
//! ```text
//! file    := header chunk*
//! header  := magic:8 version:u16 layout:u8 reserved:u8 chunk_capacity:u32
//!            instructions:u64 checksum:u64 name_len:u16 name:name_len
//! chunk   := record_count:u32 payload_len:u32 payload:payload_len
//! payload := record{record_count}
//! record  := flags:u8 pc:varint [target:varint] [addr:varint] [class:u8 cycles:u8]
//! ```
//!
//! All fixed-width fields are little-endian. `instructions` and
//! `checksum` ([`trrip_snap::Checksum`] over every chunk's payload) are
//! fixed-width, so the writer rewrites the header in place with both
//! when the stream ends; the `reserved` byte is written zero. The file
//! ends with its last chunk: a reader goes front to back, stops at the
//! instruction count and verifies the checksum there, so a cut anywhere
//! fails the read. A payload rests as it was written, so the bytes a
//! reader buffers for a chunk are bytes the file holds: a frame that
//! claims more than the file has left is truncation, found before
//! anything that large is allocated.
//!
//! There is one version, [`VERSION`], and the reader accepts no other:
//! a file of any other version is [`TraceError::UnsupportedVersion`] —
//! capture it again.
//!
//! # Records
//!
//! A payload is its records in stream order, read with one cursor. Each
//! record's flags byte says which fields follow and packs the branch
//! kind into its top three bits; the fields are zigzag varint deltas:
//!
//! * `pc` — against the *expected* next PC (the previous instruction's
//!   fall-through or taken target), so sequential flow costs one `0x00`
//!   byte;
//! * branch `target` — against `pc + 4`;
//! * memory `addr` — against the previous memory operand in the chunk
//!   (data streams revisit the same regions);
//! * stall — class byte + cycle count byte.
//!
//! Delta state resets at every chunk boundary, so any chunk can be
//! decoded knowing only the header. A record is at least two bytes, a
//! flags byte and a PC varint, which bounds how many records a payload
//! can claim before anything is reserved for them.
//!
//! Versions 2 to 7 stored each field in a column of its own. The columns
//! were there for LZ, which interleaved rows capped at a 0.75× ratio;
//! with LZ gone (v7), rows rest in as few bytes and decode with one
//! cursor.

use std::fmt;

use trrip_cpu::{BranchKind, StallClass};

/// File magic: `b"TRRIPTRC"`.
pub const MAGIC: [u8; 8] = *b"TRRIPTRC";
/// The format version, and the only one the reader accepts: v8, records
/// in stream order, at rest as written and checksummed as written, and
/// no footer after the last chunk.
pub const VERSION: u16 = 8;
/// Bytes of a chunk frame (`record_count:u32 payload_len:u32`).
pub const CHUNK_FRAME_LEN: usize = 8;
/// Records per full chunk (the streaming granularity). 64 Ki records
/// decode to ~2.2 MiB in memory — large enough to amortize syscalls,
/// small enough that replay memory stays flat.
pub const CHUNK_CAPACITY: u32 = 64 * 1024;
/// Fixed header size before the workload name.
pub const HEADER_FIXED_LEN: usize = 34;
/// Longest workload name the format allows, enforced identically by the
/// writer (panic at capture time) and the reader (corrupt-header error).
pub const MAX_NAME_LEN: usize = 4096;

/// The code layout a trace was captured under. PCs are layout-dependent,
/// so replaying a trace under the wrong layout silently measures the
/// wrong binary; the metadata lets callers detect that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLayout {
    /// Non-PGO source-order binary.
    SourceOrder,
    /// PGO binary with temperature sections.
    Pgo,
}

impl TraceLayout {
    /// Wire encoding.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            TraceLayout::SourceOrder => 0,
            TraceLayout::Pgo => 1,
        }
    }

    /// Decodes the wire value.
    #[must_use]
    pub fn from_u8(raw: u8) -> Option<TraceLayout> {
        match raw {
            0 => Some(TraceLayout::SourceOrder),
            1 => Some(TraceLayout::Pgo),
            _ => None,
        }
    }

    /// Short name used in trace file names and reports.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            TraceLayout::SourceOrder => "plain",
            TraceLayout::Pgo => "pgo",
        }
    }
}

impl fmt::Display for TraceLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Workload metadata carried by the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name (UTF-8, at most [`MAX_NAME_LEN`] bytes).
    pub name: String,
    /// Code layout the trace was captured under.
    pub layout: TraceLayout,
    /// Dynamic instructions in the trace.
    pub instructions: u64,
    /// [`trrip_snap::Checksum`] (word-folded 64-bit hash — *not* FNV-1a;
    /// see that type for the exact algorithm) over every chunk payload
    /// byte.
    pub checksum: u64,
    /// Records per full chunk.
    pub chunk_capacity: u32,
}

/// Everything that can go wrong reading a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure (including truncation mid-chunk).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// Structurally invalid content; the message says what.
    Corrupt(String),
    /// Payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum the header promises.
        expected: u64,
        /// Checksum the payload actually hashes to.
        found: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => f.write_str("not a trrip trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v} (this reader speaks {VERSION})")
            }
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::ChecksumMismatch { expected, found } => {
                write!(f, "trace checksum mismatch: header {expected:#018x}, payload {found:#018x}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

// ---- record fields ----

pub(crate) const FLAG_BRANCH: u8 = 1 << 0;
pub(crate) const FLAG_TAKEN: u8 = 1 << 1;
pub(crate) const FLAG_MEM: u8 = 1 << 2;
pub(crate) const FLAG_STORE: u8 = 1 << 3;
pub(crate) const FLAG_STALL: u8 = 1 << 4;
pub(crate) const KIND_SHIFT: u8 = 5;

pub(crate) fn kind_to_bits(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::IndirectCall => 4,
        BranchKind::Return => 5,
    }
}

#[inline]
pub(crate) fn kind_from_bits(bits: u8) -> Option<BranchKind> {
    match bits {
        0 => Some(BranchKind::Conditional),
        1 => Some(BranchKind::Direct),
        2 => Some(BranchKind::Indirect),
        3 => Some(BranchKind::Call),
        4 => Some(BranchKind::IndirectCall),
        5 => Some(BranchKind::Return),
        _ => None,
    }
}

pub(crate) fn stall_to_bits(class: StallClass) -> u8 {
    match class {
        StallClass::Ifetch => 0,
        StallClass::Mispred => 1,
        StallClass::Depend => 2,
        StallClass::Issue => 3,
        StallClass::Mem => 4,
        StallClass::Other => 5,
    }
}

#[inline]
pub(crate) fn stall_from_bits(bits: u8) -> Option<StallClass> {
    match bits {
        0 => Some(StallClass::Ifetch),
        1 => Some(StallClass::Mispred),
        2 => Some(StallClass::Depend),
        3 => Some(StallClass::Issue),
        4 => Some(StallClass::Mem),
        5 => Some(StallClass::Other),
        _ => None,
    }
}

/// Serializes the header for `meta` (count/checksum as currently known).
///
/// # Panics
///
/// Panics if the workload name exceeds [`MAX_NAME_LEN`] — the reader
/// would reject such a file, so writing it would only produce a capture
/// that can never replay.
#[must_use]
pub fn encode_header(meta: &TraceMeta) -> Vec<u8> {
    let name = meta.name.as_bytes();
    assert!(
        name.len() <= MAX_NAME_LEN,
        "workload name is {} bytes, format limit is {MAX_NAME_LEN}",
        name.len()
    );
    let mut buf = Vec::with_capacity(HEADER_FIXED_LEN + name.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(meta.layout.as_u8());
    buf.push(0); // reserved
    buf.extend_from_slice(&meta.chunk_capacity.to_le_bytes());
    buf.extend_from_slice(&meta.instructions.to_le_bytes());
    buf.extend_from_slice(&meta.checksum.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    buf
}
