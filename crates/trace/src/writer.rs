//! Streaming trace writer.

use std::fs::File;
use std::io::{self, BufWriter, Seek, Write};
use std::path::Path;

use trrip_cpu::TraceInstr;

use crate::format::{
    encode_header, kind_to_bits, push_signed, push_varint, stall_to_bits, Checksum, TraceLayout,
    TraceMeta, CHUNK_CAPACITY, FLAG_BRANCH, FLAG_MEM, FLAG_STALL, FLAG_STORE, FLAG_TAKEN,
    KIND_SHIFT,
};

/// Writes a trace file incrementally: each record's fields are appended
/// straight to the chunk's columns (see `crate::format`), and a chunk
/// that fills is assembled into its payload and flushed, so capture
/// memory stays O(chunk) regardless of trace length.
/// [`TraceWriter::finish`] flushes the tail chunk, then rewinds and
/// rewrites the header with the instruction count and checksum filled
/// in.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    meta: TraceMeta,
    /// The chunk's flags column: one byte per record.
    flags: Vec<u8>,
    /// The chunk's varint columns: PC, branch-target and memory deltas.
    pcs: Vec<u8>,
    branches: Vec<u8>,
    mems: Vec<u8>,
    /// The chunk's stall column: class and cycle bytes.
    stalls: Vec<u8>,
    /// The PC the next instruction lands on if flow is sequential.
    expected_pc: u64,
    /// The chunk's previous memory operand address.
    prev_mem: u64,
    /// The assembled columnar payload, reused across flushes.
    payload: Vec<u8>,
    checksum: Checksum,
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Starts a trace on `sink` with the given workload identity.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the header.
    pub fn new(sink: W, name: &str, layout: TraceLayout) -> io::Result<TraceWriter<W>> {
        TraceWriter::with_chunk_capacity(sink, name, layout, CHUNK_CAPACITY)
    }

    /// [`TraceWriter::new`] with an explicit chunk granularity (tests use
    /// small chunks to exercise boundaries).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the header.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_capacity` is zero.
    pub fn with_chunk_capacity(
        mut sink: W,
        name: &str,
        layout: TraceLayout,
        chunk_capacity: u32,
    ) -> io::Result<TraceWriter<W>> {
        assert!(chunk_capacity > 0, "chunk capacity must be positive");
        let meta = TraceMeta {
            name: name.to_owned(),
            layout,
            instructions: 0,
            checksum: 0,
            chunk_capacity,
        };
        sink.write_all(&encode_header(&meta))?;
        Ok(TraceWriter {
            sink,
            meta,
            flags: Vec::with_capacity(chunk_capacity as usize),
            pcs: Vec::new(),
            branches: Vec::new(),
            mems: Vec::new(),
            stalls: Vec::new(),
            expected_pc: 0,
            prev_mem: 0,
            payload: Vec::new(),
            checksum: Checksum::new(),
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures flushing a full chunk.
    pub fn write(&mut self, instr: &TraceInstr) -> io::Result<()> {
        let pc = instr.pc.raw();
        push_signed(&mut self.pcs, pc.wrapping_sub(self.expected_pc) as i64);
        let mut flags = 0u8;
        if let Some(b) = instr.branch {
            flags |= FLAG_BRANCH | (kind_to_bits(b.kind) << KIND_SHIFT);
            if b.taken {
                flags |= FLAG_TAKEN;
            }
            push_signed(&mut self.branches, b.target.raw().wrapping_sub(pc.wrapping_add(4)) as i64);
        }
        if let Some(m) = instr.mem {
            flags |= FLAG_MEM;
            if m.store {
                flags |= FLAG_STORE;
            }
            push_signed(&mut self.mems, m.addr.raw().wrapping_sub(self.prev_mem) as i64);
            self.prev_mem = m.addr.raw();
        }
        if let Some((class, cycles)) = instr.exec_stall {
            flags |= FLAG_STALL;
            self.stalls.extend_from_slice(&[stall_to_bits(class), cycles]);
        }
        self.flags.push(flags);
        // Wrapping, like every delta here: no PC (a foreign trace's) can
        // overflow the fall-through.
        self.expected_pc = match instr.branch {
            Some(b) if b.taken => b.target.raw(),
            _ => pc.wrapping_add(4),
        };
        self.meta.instructions += 1;
        if self.flags.len() == self.meta.chunk_capacity as usize {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every instruction of an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_all<I: IntoIterator<Item = TraceInstr>>(&mut self, trace: I) -> io::Result<()> {
        for instr in trace {
            self.write(&instr)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.flags.is_empty() {
            return Ok(());
        }
        // The flags column's length is the record count; the other four
        // lead the payload with theirs.
        let sized = [&mut self.pcs, &mut self.branches, &mut self.mems, &mut self.stalls];
        self.payload.clear();
        for column in &sized {
            push_varint(&mut self.payload, column.len() as u64);
        }
        self.payload.extend_from_slice(&self.flags);
        for column in sized {
            self.payload.extend_from_slice(column);
            column.clear();
        }
        self.checksum.update(&self.payload);
        self.sink.write_all(&(self.flags.len() as u32).to_le_bytes())?;
        self.sink.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.payload)?;
        self.flags.clear();
        self.expected_pc = 0;
        self.prev_mem = 0;
        Ok(())
    }

    /// Flushes the tail chunk, fills count + checksum into the header,
    /// and returns the final metadata.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(self) -> io::Result<TraceMeta> {
        self.finish_parts().map(|(meta, _)| meta)
    }

    /// As [`TraceWriter::finish`], but hands back the underlying sink,
    /// positioned just past the rewritten header (in-memory writers use
    /// this to recover the bytes).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish_into_inner(self) -> io::Result<W> {
        self.finish_parts().map(|(_, sink)| sink)
    }

    fn finish_parts(mut self) -> io::Result<(TraceMeta, W)> {
        self.flush_chunk()?;
        self.meta.checksum = self.checksum.value();
        // Count and checksum are fixed-width, so the finished header is
        // as long as the one written first: it overwrites it in place.
        self.sink.rewind()?;
        self.sink.write_all(&encode_header(&self.meta))?;
        self.sink.flush()?;
        Ok((self.meta, self.sink))
    }

    /// Instructions written so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.meta.instructions
    }
}

/// Creates a trace file at `path` (parent directories included).
///
/// # Errors
///
/// Propagates file-creation and header I/O failures.
pub fn create(
    path: &Path,
    name: &str,
    layout: TraceLayout,
) -> io::Result<TraceWriter<BufWriter<File>>> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    TraceWriter::with_chunk_capacity(
        BufWriter::new(File::create(path)?),
        name,
        layout,
        CHUNK_CAPACITY,
    )
}
