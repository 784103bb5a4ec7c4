//! The on-disk encoding.
//!
//! # Layout
//!
//! ```text
//! file   := header chunk* footer?
//! header := magic:8 version:u16 layout:u8 flags:u8 chunk_capacity:u32
//!           instructions:u64 checksum:u64 name_len:u16 name:name_len
//! chunk  := record_count:u32 comp_len:u32 raw_len:u32 codec:u8
//!           payload:comp_len
//!           (raw_len is the columnar payload's length — the codec's
//!            decompressed size, before de-columnarization)
//! footer := entry_count:u64 (offset:u64 raw_len:u64 state:u64)*
//!           footer_checksum:u64 footer_len:u64 index_magic:8
//! ```
//!
//! All fixed-width fields are little-endian. `instructions` and
//! `checksum` ([`Checksum`] over every chunk payload byte) sit at fixed
//! offsets so the writer can patch them when the stream ends.
//!
//! There is one version, [`VERSION`], and the reader accepts no other:
//! the trace store is a cache that rebuilds itself, so a file of any
//! other version reads as absent and the next sweep captures over it.
//!
//! # Compression
//!
//! Each chunk's record payload is first regrouped into columnar field
//! streams ([`columnarize`] — flags, PC deltas, branch deltas, memory
//! deltas, stall pairs each contiguous) and then compressed
//! independently with [`trrip_pack::compress_auto`] — the frame records
//! the codec tag and both lengths, and an incompressible chunk falls
//! back to a raw copy, so a file is never larger than its row encoding
//! plus a handful of bytes per chunk. Crucially the header checksum,
//! the per-chunk accumulator states in the index footer, and the record
//! codec all operate on the *uncompressed* payload bytes — compression
//! is a pure storage transform, invisible to positioning and
//! verification semantics, which is what keeps
//! [`crate::StreamingReplay::open_at`] an exact seek.
//!
//! # The chunk index footer
//!
//! When the header's [`FLAG_CHUNK_INDEX`] bit is set, the file ends
//! with a per-chunk byte-offset index: entry *k* holds chunk *k*'s
//! absolute byte offset **and** the payload checksum's raw accumulator
//! state just before that chunk ([`Checksum::state`]); one final entry
//! holds the end-of-chunks offset and the final accumulator state.
//! A positioned replay seeks straight to chunk *k*, seeds its checksum
//! from the stored state, and still verifies the header checksum over
//! everything it reads — only the *skipped* prefix goes unverified,
//! which is the entire point of seeking. The footer sits after the last
//! chunk, where sequential readers (which stop at the instruction
//! count) never look, and a file whose header does not advertise one
//! falls back to raw chunk-by-chunk skipping.
//!
//! # Records
//!
//! Each record starts with a flags byte (branch kind packed into the top
//! three bits), followed by the varint fields the flags call for:
//!
//! * `pc` — zigzag delta against the *expected* next PC (the previous
//!   instruction's fall-through or taken target), so sequential flow
//!   costs one `0x00` byte;
//! * branch `target` — zigzag delta against `pc + 4`;
//! * memory `addr` — zigzag delta against the previous memory operand in
//!   the chunk (data streams revisit the same regions);
//! * stall — class byte + cycle count byte.
//!
//! Delta state resets at every chunk boundary, so any chunk can be
//! decoded knowing only the header — the property the streaming reader
//! and future parallel decoders rely on.

use std::fmt;

use trrip_cpu::{BranchInfo, BranchKind, StallClass, TraceInstr};
use trrip_mem::VirtAddr;

/// File magic: `b"TRRIPTRC"`.
pub const MAGIC: [u8; 8] = *b"TRRIPTRC";
/// Chunk-index footer magic (last 8 bytes of an indexed file):
/// `b"TRRIPIDX"`.
pub const INDEX_MAGIC: [u8; 8] = *b"TRRIPIDX";
/// Header `flags` bit: the file ends with a chunk-index footer.
pub const FLAG_CHUNK_INDEX: u8 = 1 << 0;
/// The format version, and the only one the reader accepts: v4,
/// per-chunk columnar payloads, each LZ-compressed or raw.
pub const VERSION: u16 = 4;
/// Bytes of a chunk frame (`record_count:u32 comp_len:u32 raw_len:u32
/// codec:u8`).
pub const CHUNK_FRAME_LEN: usize = 13;
/// Records per full chunk (the streaming granularity). 64 Ki records
/// decode to ~2.2 MiB in memory — large enough to amortize syscalls,
/// small enough that replay memory stays flat.
pub const CHUNK_CAPACITY: u32 = 64 * 1024;
/// Byte offset of the `instructions` header field (for patching).
pub const INSTRUCTIONS_OFFSET: u64 = 16;
/// Byte offset of the `checksum` header field (for patching).
pub const CHECKSUM_OFFSET: u64 = 24;
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
    /// Imported/foreign trace with no layout provenance.
    Foreign,
}

impl TraceLayout {
    /// Wire encoding.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            TraceLayout::SourceOrder => 0,
            TraceLayout::Pgo => 1,
            TraceLayout::Foreign => 2,
        }
    }

    /// Decodes the wire value.
    #[must_use]
    pub fn from_u8(raw: u8) -> Option<TraceLayout> {
        match raw {
            0 => Some(TraceLayout::SourceOrder),
            1 => Some(TraceLayout::Pgo),
            2 => Some(TraceLayout::Foreign),
            _ => None,
        }
    }

    /// Short name used in trace file names and reports.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            TraceLayout::SourceOrder => "plain",
            TraceLayout::Pgo => "pgo",
            TraceLayout::Foreign => "foreign",
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
    /// Workload name (UTF-8, at most 64 KiB).
    pub name: String,
    /// Code layout the trace was captured under.
    pub layout: TraceLayout,
    /// Dynamic instructions in the trace.
    pub instructions: u64,
    /// [`Checksum`] (word-folded 64-bit hash — *not* FNV-1a; see that
    /// type for the exact algorithm) over every chunk payload byte.
    pub checksum: u64,
    /// Records per full chunk.
    pub chunk_capacity: u32,
    /// Whether the file ends with a chunk-index footer
    /// ([`FLAG_CHUNK_INDEX`]).
    pub has_index: bool,
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

// ---- checksum + varints ----
//
// The byte-level machinery (LEB128 varints, zigzag mapping, and the
// word-folded payload checksum) moved to `trrip-snap` so the checkpoint
// subsystem shares the exact same codec; it is re-exported here so
// existing `trrip_trace::format` callers keep working.

pub use trrip_snap::{push_signed, push_varint, unzigzag, zigzag, Checksum};

impl From<trrip_snap::SnapError> for TraceError {
    fn from(e: trrip_snap::SnapError) -> TraceError {
        TraceError::Corrupt(e.to_string())
    }
}

impl From<trrip_pack::PackError> for TraceError {
    fn from(e: trrip_pack::PackError) -> TraceError {
        TraceError::Corrupt(e.to_string())
    }
}

/// Reads a LEB128 varint from `buf[*pos..]`, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    Ok(trrip_snap::read_varint(buf, pos)?)
}

/// Reads a zigzag-encoded signed varint.
pub fn read_signed(buf: &[u8], pos: &mut usize) -> Result<i64, TraceError> {
    Ok(trrip_snap::read_signed(buf, pos)?)
}

// ---- record codec ----

const FLAG_BRANCH: u8 = 1 << 0;
const FLAG_TAKEN: u8 = 1 << 1;
const FLAG_MEM: u8 = 1 << 2;
const FLAG_STORE: u8 = 1 << 3;
const FLAG_STALL: u8 = 1 << 4;
const KIND_SHIFT: u8 = 5;

fn kind_to_bits(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::IndirectCall => 4,
        BranchKind::Return => 5,
    }
}

fn kind_from_bits(bits: u8) -> Result<BranchKind, TraceError> {
    match bits {
        0 => Ok(BranchKind::Conditional),
        1 => Ok(BranchKind::Direct),
        2 => Ok(BranchKind::Indirect),
        3 => Ok(BranchKind::Call),
        4 => Ok(BranchKind::IndirectCall),
        5 => Ok(BranchKind::Return),
        _ => Err(TraceError::Corrupt(format!("invalid branch kind {bits}"))),
    }
}

fn stall_to_bits(class: StallClass) -> u8 {
    match class {
        StallClass::Ifetch => 0,
        StallClass::Mispred => 1,
        StallClass::Depend => 2,
        StallClass::Issue => 3,
        StallClass::Mem => 4,
        StallClass::Other => 5,
    }
}

fn stall_from_bits(bits: u8) -> Result<StallClass, TraceError> {
    match bits {
        0 => Ok(StallClass::Ifetch),
        1 => Ok(StallClass::Mispred),
        2 => Ok(StallClass::Depend),
        3 => Ok(StallClass::Issue),
        4 => Ok(StallClass::Mem),
        5 => Ok(StallClass::Other),
        _ => Err(TraceError::Corrupt(format!("invalid stall class {bits}"))),
    }
}

/// Per-chunk delta-coding state; reset at every chunk boundary.
#[derive(Debug, Clone, Copy)]
pub struct DeltaState {
    /// The PC the next instruction lands on if flow is sequential.
    expected_pc: u64,
    /// Previous memory operand address.
    prev_mem: u64,
}

impl DeltaState {
    /// Chunk-initial state.
    #[must_use]
    pub fn new() -> DeltaState {
        DeltaState { expected_pc: 0, prev_mem: 0 }
    }
}

impl Default for DeltaState {
    fn default() -> DeltaState {
        DeltaState::new()
    }
}

/// Encodes one record, updating the delta state.
pub fn encode_record(buf: &mut Vec<u8>, state: &mut DeltaState, instr: &TraceInstr) {
    let mut flags = 0u8;
    if let Some(b) = instr.branch {
        flags |= FLAG_BRANCH | (kind_to_bits(b.kind) << KIND_SHIFT);
        if b.taken {
            flags |= FLAG_TAKEN;
        }
    }
    if let Some(m) = instr.mem {
        flags |= FLAG_MEM;
        if m.store {
            flags |= FLAG_STORE;
        }
    }
    if instr.exec_stall.is_some() {
        flags |= FLAG_STALL;
    }
    buf.push(flags);

    let pc = instr.pc.raw();
    push_signed(buf, pc.wrapping_sub(state.expected_pc) as i64);
    if let Some(b) = instr.branch {
        push_signed(buf, b.target.raw().wrapping_sub(pc.wrapping_add(4)) as i64);
    }
    if let Some(m) = instr.mem {
        push_signed(buf, m.addr.raw().wrapping_sub(state.prev_mem) as i64);
        state.prev_mem = m.addr.raw();
    }
    if let Some((class, cycles)) = instr.exec_stall {
        buf.push(stall_to_bits(class));
        buf.push(cycles);
    }

    state.expected_pc = instr.next_pc().raw();
}

/// Decodes one record from `buf[*pos..]`, updating the delta state.
pub fn decode_record(
    buf: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
) -> Result<TraceInstr, TraceError> {
    let &flags = buf
        .get(*pos)
        .ok_or_else(|| TraceError::Corrupt("record flags run past chunk payload".into()))?;
    *pos += 1;

    let pc = state.expected_pc.wrapping_add(read_signed(buf, pos)? as u64);
    let branch = if flags & FLAG_BRANCH != 0 {
        let kind = kind_from_bits(flags >> KIND_SHIFT)?;
        let target = pc.wrapping_add(4).wrapping_add(read_signed(buf, pos)? as u64);
        Some(BranchInfo { kind, taken: flags & FLAG_TAKEN != 0, target: VirtAddr::new(target) })
    } else {
        None
    };
    let mem = if flags & FLAG_MEM != 0 {
        let addr = state.prev_mem.wrapping_add(read_signed(buf, pos)? as u64);
        state.prev_mem = addr;
        Some(trrip_cpu::MemOp { addr: VirtAddr::new(addr), store: flags & FLAG_STORE != 0 })
    } else {
        None
    };
    let exec_stall = if flags & FLAG_STALL != 0 {
        let class = *buf
            .get(*pos)
            .ok_or_else(|| TraceError::Corrupt("stall class runs past chunk payload".into()))?;
        let cycles = *buf
            .get(*pos + 1)
            .ok_or_else(|| TraceError::Corrupt("stall cycles run past chunk payload".into()))?;
        *pos += 2;
        Some((stall_from_bits(class)?, cycles))
    } else {
        None
    };

    let instr = TraceInstr { pc: VirtAddr::new(pc), branch, mem, exec_stall };
    state.expected_pc = instr.next_pc().raw();
    Ok(instr)
}

// --- Columnar chunk transform -------------------------------------------

/// Copies one varint's bytes from `src[*pos..]` to `dst` without
/// decoding it (the continuation bit delimits it).
fn copy_varint(src: &[u8], pos: &mut usize, dst: &mut Vec<u8>) -> Result<(), TraceError> {
    loop {
        let &byte = src
            .get(*pos)
            .ok_or_else(|| TraceError::Corrupt("varint runs past its stream".into()))?;
        *pos += 1;
        dst.push(byte);
        if byte & 0x80 == 0 {
            return Ok(());
        }
    }
}

/// Rearranges a chunk's row-encoded records into the **columnar** form
/// files store on disk: one contiguous stream per field kind —
/// flags, PC deltas, branch-target deltas, memory deltas, stall pairs —
/// prefixed by the four variable stream lengths (the flags stream is
/// exactly `record_count` bytes, so its length is implicit):
///
/// ```text
/// cols := pc_len:varint branch_len:varint mem_len:varint stall_len:varint
///         flags:record_count pc:pc_len branch:branch_len
///         mem:mem_len stall:stall_len
/// ```
///
/// Interleaved row records put high-entropy memory deltas between every
/// repetitive flags/PC byte, which caps what any general codec can find;
/// grouped by kind, each stream is self-similar (sequential flow is a
/// run of `0x00` PC deltas, loop flags repeat verbatim) and
/// [`trrip_pack::compress_auto`] gets long matches again. The transform
/// is exactly reversible ([`decolumnarize`]) and byte-lossless, so
/// checksums and index accumulator states keep covering the row bytes —
/// positioning and verification semantics don't know it exists.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when `rows` is not exactly `record_count`
/// well-formed records.
pub fn columnarize(rows: &[u8], record_count: u32, out: &mut Vec<u8>) -> Result<(), TraceError> {
    out.clear();
    let n = record_count as usize;
    let mut flags_s = Vec::with_capacity(n);
    let mut pc_s = Vec::new();
    let mut branch_s = Vec::new();
    let mut mem_s = Vec::new();
    let mut stall_s = Vec::new();
    let mut pos = 0;
    for _ in 0..n {
        let &flags = rows
            .get(pos)
            .ok_or_else(|| TraceError::Corrupt("record flags run past chunk payload".into()))?;
        pos += 1;
        flags_s.push(flags);
        copy_varint(rows, &mut pos, &mut pc_s)?;
        if flags & FLAG_BRANCH != 0 {
            copy_varint(rows, &mut pos, &mut branch_s)?;
        }
        if flags & FLAG_MEM != 0 {
            copy_varint(rows, &mut pos, &mut mem_s)?;
        }
        if flags & FLAG_STALL != 0 {
            let pair = rows
                .get(pos..pos + 2)
                .ok_or_else(|| TraceError::Corrupt("stall pair runs past chunk payload".into()))?;
            stall_s.extend_from_slice(pair);
            pos += 2;
        }
    }
    if pos != rows.len() {
        return Err(TraceError::Corrupt(format!(
            "{} trailing bytes after last record of chunk",
            rows.len() - pos
        )));
    }
    push_varint(out, pc_s.len() as u64);
    push_varint(out, branch_s.len() as u64);
    push_varint(out, mem_s.len() as u64);
    push_varint(out, stall_s.len() as u64);
    out.extend_from_slice(&flags_s);
    out.extend_from_slice(&pc_s);
    out.extend_from_slice(&branch_s);
    out.extend_from_slice(&mem_s);
    out.extend_from_slice(&stall_s);
    Ok(())
}

/// Inverts [`columnarize`]: reassembles the row-encoded record bytes
/// from a columnar chunk payload. Bounds-checked throughout — arbitrary
/// `cols` bytes produce [`TraceError::Corrupt`], never a panic.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the stream lengths disagree with the
/// payload size or any stream ends before its last record's field.
pub fn decolumnarize(cols: &[u8], record_count: u32, out: &mut Vec<u8>) -> Result<(), TraceError> {
    out.clear();
    let n = record_count as usize;
    let mut pos = 0;
    let mut lens = [0usize; 4];
    for len in &mut lens {
        let raw = read_varint(cols, &mut pos)?;
        if raw > cols.len() as u64 {
            return Err(TraceError::Corrupt(format!("columnar stream claims {raw} bytes")));
        }
        *len = raw as usize;
    }
    let [pc_len, branch_len, mem_len, stall_len] = lens;
    let need = lens
        .iter()
        .try_fold(n, |acc, &len| acc.checked_add(len))
        .filter(|&need| pos + need == cols.len())
        .ok_or_else(|| {
            TraceError::Corrupt("columnar stream lengths disagree with the payload".into())
        })?;
    let flags_s = &cols[pos..pos + n];
    pos += n;
    let pc_s = &cols[pos..pos + pc_len];
    pos += pc_len;
    let branch_s = &cols[pos..pos + branch_len];
    pos += branch_len;
    let mem_s = &cols[pos..pos + mem_len];
    pos += mem_len;
    let stall_s = &cols[pos..pos + stall_len];
    out.reserve(need);
    let (mut pc_pos, mut branch_pos, mut mem_pos, mut stall_pos) = (0, 0, 0, 0);
    for &flags in flags_s {
        out.push(flags);
        copy_varint(pc_s, &mut pc_pos, out)?;
        if flags & FLAG_BRANCH != 0 {
            copy_varint(branch_s, &mut branch_pos, out)?;
        }
        if flags & FLAG_MEM != 0 {
            copy_varint(mem_s, &mut mem_pos, out)?;
        }
        if flags & FLAG_STALL != 0 {
            let pair = stall_s
                .get(stall_pos..stall_pos + 2)
                .ok_or_else(|| TraceError::Corrupt("stall stream ends mid-pair".into()))?;
            out.extend_from_slice(pair);
            stall_pos += 2;
        }
    }
    if pc_pos != pc_len || branch_pos != branch_len || mem_pos != mem_len || stall_pos != stall_len
    {
        return Err(TraceError::Corrupt("columnar streams longer than their records use".into()));
    }
    Ok(())
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
    buf.push(if meta.has_index { FLAG_CHUNK_INDEX } else { 0 });
    buf.extend_from_slice(&meta.chunk_capacity.to_le_bytes());
    buf.extend_from_slice(&meta.instructions.to_le_bytes());
    buf.extend_from_slice(&meta.checksum.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_through_shared_codec() {
        // The codec itself is tested in `trrip-snap`; this pins the
        // re-export plumbing (and the SnapError → TraceError mapping).
        let mut buf = Vec::new();
        push_varint(&mut buf, 300);
        push_signed(&mut buf, -7);
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos).unwrap(), 300);
        assert_eq!(read_signed(&buf, &mut pos).unwrap(), -7);
        let mut short = 0;
        assert!(matches!(read_varint(&[0x80], &mut short), Err(TraceError::Corrupt(_))));
    }

    #[test]
    fn sequential_instrs_cost_two_bytes() {
        let mut buf = Vec::new();
        let mut state = DeltaState::new();
        encode_record(&mut buf, &mut state, &TraceInstr::simple(0x1000));
        let first = buf.len();
        encode_record(&mut buf, &mut state, &TraceInstr::simple(0x1004));
        // Flags byte + zero pc delta.
        assert_eq!(buf.len() - first, 2);
    }

    #[test]
    fn record_round_trips_all_fields() {
        let samples = [
            TraceInstr::simple(0x40_0000),
            TraceInstr::jump(0x40_0004, 0x50_0000),
            TraceInstr::cond(0x50_0000, false, 0x40_0000),
            TraceInstr::load(0x50_0004, 0x8000_0040),
            TraceInstr::store(0x50_0008, 0x8000_0080),
            TraceInstr {
                exec_stall: Some((StallClass::Depend, 9)),
                ..TraceInstr::simple(0x50_000C)
            },
        ];
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        for instr in &samples {
            encode_record(&mut buf, &mut enc, instr);
        }
        let mut dec = DeltaState::new();
        let mut pos = 0;
        for instr in &samples {
            assert_eq!(&decode_record(&buf, &mut pos, &mut dec).unwrap(), instr);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        let mut state = DeltaState::new();
        encode_record(&mut buf, &mut state, &TraceInstr::load(0x1000, 0x8000_0000));
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut dec = DeltaState::new();
            assert!(
                decode_record(&buf[..cut], &mut pos, &mut dec).is_err(),
                "decode succeeded on {cut}-byte prefix"
            );
        }
    }
}
