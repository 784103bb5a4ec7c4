//! `trrip-trace` — binary trace capture and replay.
//!
//! The paper's experiments run on Pin-captured instruction traces; this
//! reproduction synthesizes equivalent traces with the CFG walker in
//! `trrip-workloads`. This crate makes traces *persistent*: capture the
//! walker's output once and replay it from disk into the one-cell
//! `simulate_source` — or import foreign traces that were never
//! synthesized here at all. No sweep reads one: decoding a capture costs
//! what walking the stream again does, so sweeps run over the walker.
//!
//! * [`format`] — the on-disk encoding: varint deltas in per-field
//!   columns, LZ-packed per chunk (1.78 bytes per instruction on the
//!   `gcc` capture, against 34 in memory).
//! * [`TraceWriter`] — streaming writer; fixed-size chunks, a versioned
//!   header with workload metadata, instruction count and checksum
//!   patched in on [`TraceWriter::finish`].
//! * [`TraceReader`] — streaming chunked reader: O(chunk) memory no
//!   matter how many billions of instructions the file holds, with
//!   header validation up front and checksum verification at EOF.
//! * [`TraceSource`] — the batch-pull interface the simulator consumes;
//!   implemented by the reader, by [`StreamingReplay`] (a file read front
//!   to back on the caller's thread, optionally from an instruction
//!   `skip` in) and by the in-memory walker in `trrip-workloads`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod source;
pub mod stream;
pub mod writer;

pub use format::{TraceError, TraceLayout, TraceMeta, CHUNK_CAPACITY};
pub use reader::{decode_chunk, open, TraceReader};
pub use source::{SourceIter, TraceSource};
pub use stream::StreamingReplay;
pub use writer::{create, TraceWriter};
