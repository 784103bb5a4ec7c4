//! Replay of a trace file, front to back.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use trrip_cpu::TraceInstr;

use crate::format::{TraceError, TraceMeta};
use crate::reader::{self, TraceReader};
use crate::source::TraceSource;

/// A [`TraceSource`] over a trace file: decodes it chunk by chunk on the
/// caller's thread, verifying every byte it reads against the header
/// checksum. The header is validated at open (so open errors are
/// synchronous); a corrupt payload panics mid-replay, naming the trace.
#[derive(Debug)]
pub struct StreamingReplay {
    reader: TraceReader<BufReader<File>>,
    /// Leading records still to decode and drop.
    skip: u64,
}

impl StreamingReplay {
    /// Opens `path` at its first instruction.
    ///
    /// # Errors
    ///
    /// As [`StreamingReplay::open_at`].
    pub fn open(path: &Path) -> Result<StreamingReplay, TraceError> {
        StreamingReplay::open_at(path, 0)
    }

    /// Opens `path` positioned `skip` instructions in: the stream's
    /// first delivered instruction is number `skip` of the trace.
    ///
    /// The replay decodes the first `skip` records and drops them, so the
    /// skipped prefix is read and checksum-verified like the rest: damage
    /// anywhere in the file fails the replay. A `skip` at or beyond the
    /// end of the trace yields an exhausted (and still verified) stream.
    ///
    /// # Errors
    ///
    /// Any header-validation or open failure, synchronously.
    pub fn open_at(path: &Path, skip: u64) -> Result<StreamingReplay, TraceError> {
        Ok(StreamingReplay { reader: reader::open(path)?, skip })
    }

    /// The trace's header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        self.reader.meta()
    }
}

impl TraceSource for StreamingReplay {
    /// # Panics
    ///
    /// Panics if the trace turns out to be corrupt, skipped prefix
    /// included; header problems surface earlier, in
    /// [`StreamingReplay::open`].
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        loop {
            let start = out.len();
            let decoded = self.reader.next_batch(out);
            let dropped = decoded.min(usize::try_from(self.skip).unwrap_or(usize::MAX));
            if dropped > 0 {
                out.drain(start..start + dropped);
                self.skip -= dropped as u64;
            }
            if decoded == 0 || decoded > dropped {
                return decoded - dropped;
            }
        }
    }
}
