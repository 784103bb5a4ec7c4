//! Multi-threaded streaming replay: a dedicated I/O thread decodes
//! chunks and feeds them through a bounded channel, so disk read + varint
//! decode overlap with simulation instead of serializing with it.

use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use trrip_cpu::TraceInstr;

use crate::format::{TraceError, TraceMeta};
use crate::reader;
use crate::source::TraceSource;

/// Decoded chunks the channel may hold before the decoder blocks. Keeps
/// peak memory at `depth + 1` chunks while still hiding decode latency.
const CHANNEL_DEPTH: usize = 4;

/// A [`TraceSource`] that streams a trace file on a background thread.
///
/// The header and the chunk index are validated on the calling thread
/// (so open errors are synchronous); payload decoding happens on the
/// worker, which stops at the first error and forwards it. Dropping the
/// replay mid-trace shuts the worker down cleanly.
///
/// # Buffer reuse contract
///
/// Batch buffers circulate: the decoder fills a `Vec`, `next_batch`
/// swaps it into an *empty* `out`, and the buffer the consumer handed
/// over goes back to the decoder through a recycle channel — after the
/// pipeline fills, the steady-state replay loop performs no allocation
/// at all. Consumers that reuse one buffer (as [`crate::SourceIter`]
/// does) should therefore `clear()` it between calls; passing a
/// non-empty `out` is still correct — the batch is then appended with a
/// single `memcpy` — but forfeits the swap.
#[derive(Debug)]
pub struct StreamingReplay {
    meta: TraceMeta,
    /// `Some` until dropped; taken in `Drop` so the decoder unblocks.
    batches: Option<Receiver<Result<Vec<TraceInstr>, TraceError>>>,
    /// Returns spent batch buffers to the decoder for reuse.
    recycle: Sender<Vec<TraceInstr>>,
    worker: Option<JoinHandle<()>>,
}

impl StreamingReplay {
    /// Opens `path` and starts the decoder thread.
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
    /// A seek through the chunk index every capture ends with
    /// ([`reader::TraceReader::seek`]): the reader jumps straight to the
    /// chunk containing instruction `skip`, seeds its checksum with the
    /// accumulator state the capture recorded there, decodes that chunk
    /// and drops its records before `skip` — positioning cost is O(1) in
    /// the prefix length, and no skipped byte is read. Everything *read*
    /// is still verified against the header checksum; damage confined to
    /// the skipped prefix is, by design, not observed. This is how a warm
    /// sweep's replay starts at the fast-forward boundary without paying
    /// the warm-up's decode.
    ///
    /// A `skip` at or beyond the end of the trace yields an immediately
    /// exhausted (but still checksum-verified) stream.
    ///
    /// # Errors
    ///
    /// Any header-validation, index-validation or open failure,
    /// synchronously.
    pub fn open_at(path: &Path, skip: u64) -> Result<StreamingReplay, TraceError> {
        let mut source = reader::open(path)?;
        let meta = source.meta().clone();
        let before_skip = source.seek(skip)?;
        let (tx, rx) = mpsc::sync_channel(CHANNEL_DEPTH);
        let (recycle_tx, recycle_rx) = mpsc::channel();
        let worker = std::thread::Builder::new()
            .name(format!("trace-decode:{}", meta.name))
            .spawn(move || decode_loop(&mut source, before_skip, &tx, &recycle_rx))
            .map_err(TraceError::Io)?;
        Ok(StreamingReplay { meta, batches: Some(rx), recycle: recycle_tx, worker: Some(worker) })
    }

    /// The trace's header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }
}

/// Decodes chunks into batches until the trace ends, the consumer hangs
/// up or an error is forwarded; the first chunk's leading `before_skip`
/// records are dropped.
fn decode_loop<R: std::io::Read>(
    source: &mut reader::TraceReader<R>,
    mut before_skip: u64,
    tx: &SyncSender<Result<Vec<TraceInstr>, TraceError>>,
    recycle: &Receiver<Vec<TraceInstr>>,
) {
    loop {
        // Reuse a buffer the consumer returned; allocate only while the
        // pipeline is still filling.
        let mut batch = recycle.try_recv().unwrap_or_default();
        batch.clear();
        match source.read_chunk(&mut batch) {
            Ok(0) => return,
            Ok(count) => {
                batch.drain(..count.min(usize::try_from(before_skip).unwrap_or(usize::MAX)));
                before_skip = 0;
                if !batch.is_empty() && tx.send(Ok(batch)).is_err() {
                    return; // consumer dropped mid-trace
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

impl TraceSource for StreamingReplay {
    /// # Panics
    ///
    /// Panics if the decoder thread reports a corrupt trace; header
    /// problems surface earlier, in [`StreamingReplay::open`].
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        let Some(batches) = self.batches.as_ref() else {
            return 0;
        };
        match batches.recv() {
            Ok(Ok(mut batch)) => {
                let n = batch.len();
                if out.is_empty() {
                    // Zero-copy hand-over; `batch` now holds the
                    // consumer's spent allocation, ready to recycle.
                    std::mem::swap(out, &mut batch);
                } else {
                    out.extend_from_slice(&batch);
                }
                batch.clear();
                let _ = self.recycle.send(batch);
                n
            }
            Ok(Err(e)) => panic!("replaying trace {}: {e}", self.meta.name),
            Err(_) => 0, // worker finished and disconnected
        }
    }
}

impl Drop for StreamingReplay {
    fn drop(&mut self) {
        // Dropping the receiver makes the decoder's next send fail, so a
        // worker blocked on the bounded channel exits promptly.
        drop(self.batches.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
