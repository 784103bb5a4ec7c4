//! Streaming trace writer.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use trrip_cpu::TraceInstr;

use crate::format::{
    columnarize, encode_header, encode_record, Checksum, DeltaState, TraceLayout, TraceMeta,
    CHECKSUM_OFFSET, CHUNK_CAPACITY, CHUNK_FRAME_LEN, INSTRUCTIONS_OFFSET,
};
use crate::index::{encode_footer, IndexEntry};

/// Writes a trace file incrementally: records accumulate into fixed-size
/// chunks that are compressed ([`trrip_pack::compress_auto`], raw
/// fallback when incompressible) and flushed as they fill, so capture
/// memory stays O(chunk) regardless of trace length.
/// [`TraceWriter::finish`] appends the chunk-index footer (byte offsets,
/// uncompressed lengths and checksum accumulator states, so positioned
/// replays seek instead of skipping), then seeks back and patches the
/// instruction count and checksum into the header. The checksum and the
/// index states cover the *uncompressed* payload bytes — compression is
/// a storage transform only.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    meta: TraceMeta,
    chunk: Vec<u8>,
    /// Columnar-transform scratch, reused across flushes.
    cols: Vec<u8>,
    /// Compressed-chunk scratch, reused across flushes.
    comp: Vec<u8>,
    chunk_records: u32,
    state: DeltaState,
    checksum: Checksum,
    /// Byte offset the next chunk frame lands at (tracked arithmetically
    /// — a `stream_position` per chunk would flush buffered writers).
    next_offset: u64,
    /// One entry per flushed chunk; the end-of-chunks sentinel is
    /// appended at finish.
    index: Vec<IndexEntry>,
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
            has_index: true,
        };
        let header = encode_header(&meta);
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            meta,
            chunk: Vec::with_capacity(chunk_capacity as usize * 4),
            cols: Vec::new(),
            comp: Vec::new(),
            chunk_records: 0,
            state: DeltaState::new(),
            checksum: Checksum::new(),
            next_offset: header.len() as u64,
            index: Vec::new(),
        })
    }

    /// Appends one instruction.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures flushing a full chunk.
    pub fn write(&mut self, instr: &TraceInstr) -> io::Result<()> {
        encode_record(&mut self.chunk, &mut self.state, instr);
        self.chunk_records += 1;
        self.meta.instructions += 1;
        if self.chunk_records == self.meta.chunk_capacity {
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
        if self.chunk_records == 0 {
            return Ok(());
        }
        self.index.push(IndexEntry {
            offset: self.next_offset,
            raw_len: self.chunk.len() as u64,
            state: self.checksum.state(),
        });
        self.checksum.update(&self.chunk);
        // Group the row bytes by field kind before compression: each
        // columnar stream is self-similar, which is where the codec's
        // ratio comes from. Checksums and index states stay over the
        // row bytes — the transform is storage-only.
        columnarize(&self.chunk, self.chunk_records, &mut self.cols)
            .expect("writer-encoded records are well-formed");
        let codec = trrip_pack::compress_auto(&self.cols, &mut self.comp);
        self.sink.write_all(&self.chunk_records.to_le_bytes())?;
        self.sink.write_all(&(self.comp.len() as u32).to_le_bytes())?;
        self.sink.write_all(&(self.cols.len() as u32).to_le_bytes())?;
        self.sink.write_all(&[codec as u8])?;
        self.sink.write_all(&self.comp)?;
        self.next_offset += CHUNK_FRAME_LEN as u64 + self.comp.len() as u64;
        self.chunk.clear();
        self.chunk_records = 0;
        self.state = DeltaState::new();
        Ok(())
    }

    /// Flushes the tail chunk, patches count + checksum into the header,
    /// and returns the final metadata.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(self) -> io::Result<TraceMeta> {
        self.finish_parts().map(|(meta, _)| meta)
    }

    /// As [`TraceWriter::finish`], but hands back the underlying sink
    /// (in-memory writers use this to recover the bytes).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish_into_inner(self) -> io::Result<W> {
        self.finish_parts().map(|(_, sink)| sink)
    }

    fn finish_parts(mut self) -> io::Result<(TraceMeta, W)> {
        self.flush_chunk()?;
        // End-of-chunks sentinel: beyond-the-end seeks land here with
        // the final accumulator state, so even a fully skipped replay
        // verifies the header checksum.
        self.index.push(IndexEntry {
            offset: self.next_offset,
            raw_len: 0,
            state: self.checksum.state(),
        });
        self.sink.write_all(&encode_footer(&self.index))?;
        self.meta.checksum = self.checksum.value();
        let end = self.sink.stream_position()?;
        self.sink.seek(SeekFrom::Start(INSTRUCTIONS_OFFSET))?;
        self.sink.write_all(&self.meta.instructions.to_le_bytes())?;
        debug_assert_eq!(CHECKSUM_OFFSET, INSTRUCTIONS_OFFSET + 8);
        self.sink.write_all(&self.meta.checksum.to_le_bytes())?;
        self.sink.seek(SeekFrom::Start(end))?;
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
