//! Streaming trace writer.

use std::fs::File;
use std::io::{self, BufWriter, Seek, Write};
use std::path::Path;

use trrip_cpu::TraceInstr;
use trrip_snap::{push_signed, Checksum};

use crate::format::{
    encode_header, kind_to_bits, stall_to_bits, TraceLayout, TraceMeta, CHUNK_CAPACITY,
    FLAG_BRANCH, FLAG_MEM, FLAG_STALL, FLAG_STORE, FLAG_TAKEN, KIND_SHIFT,
};

/// Writes a trace file incrementally: each record is appended to the
/// chunk's payload as it comes (see `crate::format`), and a chunk that
/// fills is framed and flushed, so capture memory stays O(chunk)
/// regardless of trace length. [`TraceWriter::finish`] flushes the tail
/// chunk, then rewinds and rewrites the header with the instruction
/// count and checksum filled in.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    meta: TraceMeta,
    /// The chunk's records so far, reused across flushes.
    payload: Vec<u8>,
    /// Records in `payload`.
    records: u32,
    /// The PC the next instruction lands on if flow is sequential.
    expected_pc: u64,
    /// The chunk's previous memory operand address.
    prev_mem: u64,
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
            payload: Vec::new(),
            records: 0,
            expected_pc: 0,
            prev_mem: 0,
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
        self.payload.push(flags);
        push_signed(&mut self.payload, pc.wrapping_sub(self.expected_pc) as i64);
        if let Some(b) = instr.branch {
            push_signed(&mut self.payload, b.target.raw().wrapping_sub(pc.wrapping_add(4)) as i64);
        }
        if let Some(m) = instr.mem {
            push_signed(&mut self.payload, m.addr.raw().wrapping_sub(self.prev_mem) as i64);
            self.prev_mem = m.addr.raw();
        }
        if let Some((class, cycles)) = instr.exec_stall {
            self.payload.extend_from_slice(&[stall_to_bits(class), cycles]);
        }
        // Wrapping, like every delta here: no PC can overflow the
        // fall-through.
        self.expected_pc = match instr.branch {
            Some(b) if b.taken => b.target.raw(),
            _ => pc.wrapping_add(4),
        };
        self.records += 1;
        self.meta.instructions += 1;
        if self.records == self.meta.chunk_capacity {
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
        if self.records == 0 {
            return Ok(());
        }
        self.checksum.update(&self.payload);
        self.sink.write_all(&self.records.to_le_bytes())?;
        self.sink.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.payload)?;
        self.payload.clear();
        self.records = 0;
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
    TraceWriter::new(BufWriter::new(File::create(path)?), name, layout)
}
