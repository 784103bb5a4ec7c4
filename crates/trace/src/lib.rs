//! `trrip-trace` — binary trace capture and replay.
//!
//! The paper's experiments run on Pin-captured instruction traces; this
//! reproduction synthesizes equivalent traces with the CFG walker in
//! `trrip-workloads`. This crate makes traces *persistent*: capture the
//! walker's output once and replay it from disk into the one-cell
//! `simulate_source`. No sweep reads one: decoding a capture costs what
//! walking the stream again does, so sweeps run over the walker.
//!
//! * [`mod@format`] — the on-disk encoding: each chunk's records in
//!   stream order as varint deltas, at rest as written (about 3.3 bytes
//!   per instruction on the `gcc` capture, against 34 in memory).
//! * [`TraceWriter`] — streaming writer; fixed-size chunks, a versioned
//!   header with workload metadata, instruction count and checksum
//!   patched in on [`TraceWriter::finish`].
//! * [`TraceReader`] — streaming chunked reader: O(chunk) memory no
//!   matter how many billions of instructions the file holds, with
//!   header validation up front and checksum verification at EOF. Over
//!   a file it is a [`StreamingReplay`], opened at the first
//!   instruction or `skip` records in.
//! * [`TraceSource`] — the batch-pull interface the simulator consumes;
//!   implemented by the reader and by the in-memory walker in
//!   `trrip-workloads`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod reader;
pub mod source;
pub mod writer;

pub use format::{TraceError, TraceLayout, TraceMeta, CHUNK_CAPACITY};
pub use reader::{decode_chunk, StreamingReplay, TraceReader};
pub use source::{SourceIter, TraceSource};
pub use writer::{create, TraceWriter};
