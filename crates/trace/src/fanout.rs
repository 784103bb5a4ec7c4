//! Decode-once fan-out replay: one decoded instruction stream, many
//! cheap consumers.
//!
//! A policy sweep replays the *same* workload trace once per policy.
//! [`crate::StreamingReplay`] makes each replay cheap, but N replays
//! still pay disk I/O + varint decode N times. This module pays it once:
//!
//! ```text
//!                        ┌─ decode worker ─┐
//!  io thread ── chunks ──┤─ decode worker ─┤── reorder ──┬─► subscriber 0
//!  (read + checksum)     └─ decode worker ─┘  broadcast  ├─► subscriber 1
//!        ▲                        │                      └─► subscriber N-1
//!        └──── payload recycling ─┘        (Arc<[TraceInstr]> batches over
//!                                           bounded channels)
//! ```
//!
//! * The **io thread** owns the file: it reads raw chunk bytes (framing
//!   validated, checksum accumulated — damage is detected even if decode
//!   never runs) and hands them to the worker pool. Spent payload
//!   buffers return through a recycle channel, so steady-state I/O
//!   allocates nothing.
//! * **Decode workers** exploit the format's chunk independence (delta
//!   state resets at every chunk boundary) to decode out of order, each
//!   producing a shared `Arc<[TraceInstr]>` batch.
//! * The **broadcast thread** restores chunk order by sequence number
//!   and clones each `Arc` batch to every live subscriber over a bounded
//!   channel — a clone is a refcount bump, so consumer count does not
//!   multiply decode work (verified by [`crate::stats::records_decoded`]).
//!
//! A subscriber that drops early (a simulator that has consumed its
//! `take(n)` budget) is simply unsubscribed; the stream keeps flowing to
//! the rest, and when the last subscriber is gone the whole pipeline
//! shuts down and its threads are joined. Batch delivery order is the
//! file's chunk order, so each subscriber observes a stream bit-identical
//! to a sequential [`crate::TraceReader`] pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use trrip_cpu::TraceInstr;

use crate::format::{TraceError, TraceMeta};
use crate::reader::{self, decode_chunk};
use crate::source::TraceSource;

/// A decoded chunk shared by every subscriber.
type Batch = Arc<[TraceInstr]>;
/// What a subscriber channel carries: a batch, or the error that ended
/// the stream (shared, because every subscriber must see it).
type Delivery = Result<Batch, Arc<TraceError>>;

/// Tuning knobs for [`FanoutReplay`].
#[derive(Debug, Clone, Copy)]
pub struct FanoutOptions {
    /// Parallel chunk-decode workers. Defaults to the machine's
    /// available parallelism, capped at 8 — decode saturates well before
    /// that on real traces.
    pub decode_workers: usize,
    /// Decoded batches each subscriber channel may buffer. Keeps peak
    /// memory at roughly `depth × consumers` `Arc` clones of at most
    /// `depth + in-flight` distinct chunks.
    pub channel_depth: usize,
}

impl Default for FanoutOptions {
    fn default() -> FanoutOptions {
        FanoutOptions {
            decode_workers: std::thread::available_parallelism().map_or(1, usize::from).min(8),
            channel_depth: 4,
        }
    }
}

/// A raw chunk travelling from the io thread to a decode worker.
struct RawChunk {
    seq: u64,
    record_count: u32,
    payload: Vec<u8>,
}

/// A decode worker's output, tagged with the chunk sequence number so
/// the broadcaster can restore file order.
enum Decoded {
    Batch(u64, Batch),
    Fail(u64, Arc<TraceError>),
}

/// State shared by every subscriber of one fan-out: trace metadata, the
/// pipeline's thread handles, and the live-subscriber count. The last
/// subscriber to drop joins the threads.
#[derive(Debug)]
struct FanoutCore {
    meta: TraceMeta,
    origin: u64,
    threads: Mutex<Vec<JoinHandle<()>>>,
    live: AtomicUsize,
}

impl FanoutCore {
    fn join_all(&self) {
        let handles = std::mem::take(&mut *self.threads.lock().expect("fanout thread registry"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The decode-once fan-out replay engine. [`FanoutReplay::open`] starts
/// the pipeline and hands back one [`FanoutSubscriber`] per consumer;
/// the engine itself lives behind the subscribers and shuts down when
/// the last one is dropped.
#[derive(Debug)]
pub struct FanoutReplay;

impl FanoutReplay {
    /// Opens `path` and starts a fan-out pipeline feeding `consumers`
    /// subscribers with default [`FanoutOptions`].
    ///
    /// # Errors
    ///
    /// Any header-validation or open failure, synchronously; payload
    /// errors surface later, through the subscribers.
    ///
    /// # Panics
    ///
    /// Panics if `consumers` is zero.
    pub fn open(path: &Path, consumers: usize) -> Result<Vec<FanoutSubscriber>, TraceError> {
        FanoutReplay::with_options(path, consumers, FanoutOptions::default())
    }

    /// [`FanoutReplay::open`] with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// As [`FanoutReplay::open`].
    ///
    /// # Panics
    ///
    /// Panics if `consumers` is zero.
    pub fn with_options(
        path: &Path,
        consumers: usize,
        options: FanoutOptions,
    ) -> Result<Vec<FanoutSubscriber>, TraceError> {
        FanoutReplay::open_at(path, consumers, options, 0)
    }

    /// [`FanoutReplay::with_options`] for consumers that all begin
    /// `start` instructions in (a sweep whose every cell restores a
    /// checkpoint taken there): on an indexed trace the pipeline seeks
    /// to the chunk holding instruction `start`, as
    /// [`crate::StreamingReplay::open_at`] does, and the chunks before
    /// it are neither read nor decoded. The stream begins at a chunk
    /// boundary — [`FanoutSubscriber::origin`] says which — so a
    /// subscriber advances past `start - origin` instructions itself.
    /// An index-less file is streamed from its beginning.
    ///
    /// # Errors
    ///
    /// As [`FanoutReplay::open`].
    ///
    /// # Panics
    ///
    /// Panics if `consumers` is zero.
    pub fn open_at(
        path: &Path,
        consumers: usize,
        options: FanoutOptions,
        start: u64,
    ) -> Result<Vec<FanoutSubscriber>, TraceError> {
        assert!(consumers > 0, "fan-out needs at least one consumer");
        let mut source = reader::open(path)?;
        let meta = source.meta().clone();
        let mut origin = 0;
        if start > 0 {
            if let Some(index) = crate::index::read_index(path, &meta)? {
                let k = ((start / u64::from(meta.chunk_capacity)) as usize).min(index.chunks());
                source.seek_to_chunk(&index, k)?;
                origin = k as u64 * u64::from(meta.chunk_capacity);
            }
        }
        let workers = options.decode_workers.max(1);
        let depth = options.channel_depth.max(1);

        // Bounded stage-to-stage channels keep memory flat however long
        // the trace is; the recycle channel is unbounded but naturally
        // holds at most the handful of payload buffers in flight.
        let (work_tx, work_rx) = mpsc::sync_channel::<RawChunk>(workers + 2);
        let (result_tx, result_rx) = mpsc::sync_channel::<Decoded>(2 * workers + 2);
        let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<u8>>();
        let work_rx = Arc::new(Mutex::new(work_rx));

        let mut threads = Vec::with_capacity(workers + 2);
        let spawn = |name: String, f: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new().name(name).spawn(f).map_err(TraceError::Io)
        };

        let io_results = result_tx.clone();
        threads.push(spawn(
            format!("trace-fanout-io:{}", meta.name),
            Box::new(move || io_loop(&mut source, &work_tx, &io_results, &recycle_rx)),
        )?);
        for worker in 0..workers {
            let work_rx = Arc::clone(&work_rx);
            let result_tx = result_tx.clone();
            let recycle_tx = recycle_tx.clone();
            threads.push(spawn(
                format!("trace-fanout-decode{worker}:{}", meta.name),
                Box::new(move || worker_loop(&work_rx, &result_tx, &recycle_tx)),
            )?);
        }
        drop(result_tx);
        drop(recycle_tx);

        let mut outlets = Vec::with_capacity(consumers);
        let mut inlets = Vec::with_capacity(consumers);
        for _ in 0..consumers {
            let (tx, rx) = mpsc::sync_channel::<Delivery>(depth);
            outlets.push(Some(tx));
            inlets.push(rx);
        }
        threads.push(spawn(
            format!("trace-fanout-cast:{}", meta.name),
            Box::new(move || broadcast_loop(&result_rx, &mut outlets)),
        )?);

        let core = Arc::new(FanoutCore {
            meta,
            origin,
            threads: Mutex::new(threads),
            live: AtomicUsize::new(consumers),
        });
        Ok(inlets
            .into_iter()
            .map(|rx| FanoutSubscriber { deliveries: Some(rx), core: Some(Arc::clone(&core)) })
            .collect())
    }
}

/// Reads raw chunks and feeds the worker pool, recycling spent payload
/// buffers so steady-state reading allocates nothing.
fn io_loop<R: std::io::Read>(
    source: &mut reader::TraceReader<R>,
    work: &SyncSender<RawChunk>,
    results: &SyncSender<Decoded>,
    recycle: &Receiver<Vec<u8>>,
) {
    let mut seq = 0u64;
    loop {
        let mut payload = recycle.try_recv().unwrap_or_default();
        let span = trrip_obs::span!("io_read");
        let outcome = source.read_chunk_raw(&mut payload);
        drop(span);
        match outcome {
            Ok(0) => return, // end of trace; dropping `work` retires the workers
            Ok(record_count) => {
                if work.send(RawChunk { seq, record_count, payload }).is_err() {
                    return; // every consumer is gone
                }
                seq += 1;
            }
            Err(e) => {
                // Tag the failure with the next sequence number so the
                // broadcaster delivers every chunk before it, exactly
                // like a sequential reader would.
                let _ = results.send(Decoded::Fail(seq, Arc::new(e)));
                return;
            }
        }
    }
}

/// Decodes chunks from the shared work queue, out of order.
fn worker_loop(
    work: &Mutex<Receiver<RawChunk>>,
    results: &SyncSender<Decoded>,
    recycle: &Sender<Vec<u8>>,
) {
    loop {
        let received = work.lock().expect("fanout work queue").recv();
        let Ok(RawChunk { seq, record_count, payload }) = received else {
            return; // io thread finished and the queue drained
        };
        let mut batch = Vec::with_capacity(record_count as usize);
        let span = trrip_obs::span!("decode");
        let outcome = decode_chunk(&payload, record_count, &mut batch);
        drop(span);
        let _ = recycle.send(payload);
        let message = match outcome {
            Ok(()) => Decoded::Batch(seq, Arc::from(batch)),
            Err(e) => Decoded::Fail(seq, Arc::new(e)),
        };
        if results.send(message).is_err() {
            return; // broadcaster is gone (all consumers dropped)
        }
    }
}

/// Restores chunk order and clones each batch to every live subscriber.
fn broadcast_loop(results: &Receiver<Decoded>, subscribers: &mut [Option<SyncSender<Delivery>>]) {
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, Delivery> = BTreeMap::new();
    loop {
        let Ok(decoded) = results.recv() else {
            return; // io + workers all done; trace fully delivered
        };
        let (seq, item) = match decoded {
            Decoded::Batch(seq, batch) => (seq, Ok(batch)),
            Decoded::Fail(seq, error) => (seq, Err(error)),
        };
        pending.insert(seq, item);
        while let Some(item) = pending.remove(&next) {
            next += 1;
            match item {
                Ok(batch) => {
                    let mut live = false;
                    for slot in subscribers.iter_mut() {
                        if let Some(tx) = slot {
                            if tx.send(Ok(Arc::clone(&batch))).is_err() {
                                *slot = None; // dropped early: unsubscribe
                            } else {
                                live = true;
                            }
                        }
                    }
                    if !live {
                        return;
                    }
                }
                Err(error) => {
                    for slot in subscribers.iter_mut() {
                        if let Some(tx) = slot.take() {
                            let _ = tx.send(Err(Arc::clone(&error)));
                        }
                    }
                    return;
                }
            }
        }
    }
}

/// One consumer's view of a fan-out stream: a [`TraceSource`] yielding
/// the trace's batches in file order, shared (not re-decoded) with every
/// other subscriber of the same [`FanoutReplay`].
#[derive(Debug)]
pub struct FanoutSubscriber {
    /// `Some` until dropped; taken in `Drop` so the pipeline unblocks.
    deliveries: Option<Receiver<Delivery>>,
    /// `Some` until dropped; the last subscriber joins the threads.
    core: Option<Arc<FanoutCore>>,
}

impl FanoutSubscriber {
    /// The trace's header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.core.as_ref().expect("core lives until drop").meta
    }

    /// Where in the trace this fan-out's stream begins: the number of
    /// the first instruction it delivers — 0 unless
    /// [`FanoutReplay::open_at`] sought past whole chunks.
    #[must_use]
    pub fn origin(&self) -> u64 {
        self.core.as_ref().expect("core lives until drop").origin
    }
}

impl TraceSource for FanoutSubscriber {
    /// # Panics
    ///
    /// Panics if the pipeline reports a corrupt trace; header problems
    /// surface earlier, in [`FanoutReplay::open`].
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        let Some(deliveries) = self.deliveries.as_ref() else {
            return 0;
        };
        match deliveries.recv() {
            Ok(Ok(batch)) => {
                out.extend_from_slice(&batch);
                batch.len()
            }
            Ok(Err(e)) => panic!("replaying trace {}: {e}", self.meta().name),
            Err(_) => 0, // pipeline finished and disconnected
        }
    }
}

impl Drop for FanoutSubscriber {
    fn drop(&mut self) {
        // Disconnect first so a broadcaster blocked on this subscriber's
        // full channel moves on immediately.
        drop(self.deliveries.take());
        if let Some(core) = self.core.take() {
            // Exactly one subscriber observes the count hit zero; by then
            // every receiver is closed, so the pipeline is already
            // winding down and the joins cannot block indefinitely.
            if core.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                core.join_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceIter;
    use crate::writer::TraceWriter;
    use crate::TraceLayout;
    use std::io::Cursor;

    fn write_trace(dir: &Path, n: u64, chunk: u32) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).expect("test dir");
        let path = dir.join(format!("fanout-{n}-{chunk}.trrip"));
        let file = std::fs::File::create(&path).expect("create");
        let mut writer =
            TraceWriter::with_chunk_capacity(file, "fanout-test", TraceLayout::SourceOrder, chunk)
                .expect("header");
        for i in 0..n {
            writer.write(&TraceInstr::simple(0x1000 + i * 4)).expect("write");
        }
        writer.finish().expect("finish");
        path
    }

    fn tmp() -> std::path::PathBuf {
        std::env::temp_dir().join("trrip-fanout-unit")
    }

    #[test]
    fn every_subscriber_sees_the_whole_trace_in_order() {
        let path = write_trace(&tmp(), 1000, 64);
        let subs = FanoutReplay::open(&path, 3).expect("open");
        let reference: Vec<TraceInstr> =
            SourceIter::new(reader::open(&path).expect("open")).collect();
        let streams: Vec<Vec<TraceInstr>> = std::thread::scope(|scope| {
            subs.into_iter()
                .map(|sub| scope.spawn(move || SourceIter::new(sub).collect()))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("subscriber thread"))
                .collect()
        });
        for stream in &streams {
            assert_eq!(stream, &reference);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn early_drop_leaves_other_subscribers_intact() {
        let path = write_trace(&tmp(), 2000, 32);
        let mut subs = FanoutReplay::open(&path, 2).expect("open");
        let survivor = subs.pop().expect("two subscribers");
        let quitter = subs.pop().expect("two subscribers");
        // One consumer takes a handful of instructions and drops.
        assert_eq!(SourceIter::new(quitter).take(40).count(), 40);
        // The other still gets every instruction.
        assert_eq!(SourceIter::new(survivor).count(), 2000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_at_begins_at_the_chunk_holding_start() {
        let path = write_trace(&tmp(), 1200, 64);
        let reference: Vec<TraceInstr> =
            SourceIter::new(reader::open(&path).expect("open")).collect();
        for (start, origin) in [(0, 0), (63, 0), (64, 64), (500, 448), (1199, 1152), (1200, 1152)] {
            let subs =
                FanoutReplay::open_at(&path, 2, FanoutOptions::default(), start).expect("open");
            let streams: Vec<Vec<TraceInstr>> = std::thread::scope(|scope| {
                let handles: Vec<_> = subs
                    .into_iter()
                    .map(|sub| {
                        scope.spawn(move || {
                            assert_eq!(sub.origin(), origin, "start {start}");
                            let mut stream = SourceIter::new(sub);
                            stream.advance(start - origin);
                            stream.collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("subscriber thread")).collect()
            });
            for stream in &streams {
                assert_eq!(stream, &reference[start as usize..], "start {start}");
            }
        }
        // Past the last chunk: an exhausted stream, not an error.
        let sub = FanoutReplay::open_at(&path, 1, FanoutOptions::default(), 5000)
            .expect("open")
            .pop()
            .expect("one subscriber");
        assert_eq!(SourceIter::new(sub).count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_subscriber_matches_streaming_replay() {
        let path = write_trace(&tmp(), 777, 128);
        let mut subs = FanoutReplay::open(&path, 1).expect("open");
        let sub = subs.pop().expect("one subscriber");
        assert_eq!(sub.meta().instructions, 777);
        let via_fanout: Vec<TraceInstr> = SourceIter::new(sub).collect();
        let via_stream: Vec<TraceInstr> =
            SourceIter::new(crate::StreamingReplay::open(&path).expect("open")).collect();
        assert_eq!(via_fanout, via_stream);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_fans_out_cleanly() {
        let dir = tmp();
        std::fs::create_dir_all(&dir).expect("test dir");
        let path = dir.join("fanout-empty.trrip");
        let file = std::fs::File::create(&path).expect("create");
        let writer = TraceWriter::new(file, "empty", TraceLayout::SourceOrder).expect("header");
        writer.finish().expect("finish");
        for mut sub in FanoutReplay::open(&path, 2).expect("open") {
            let mut out = Vec::new();
            assert_eq!(sub.next_batch(&mut out), 0);
            assert!(out.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn in_memory_round_trip_decodes_once_per_chunk() {
        // Sanity-check the raw-chunk split against the classic reader.
        let mut writer =
            TraceWriter::with_chunk_capacity(Cursor::new(Vec::new()), "raw", TraceLayout::Pgo, 16)
                .expect("header");
        for i in 0..100u64 {
            writer.write(&TraceInstr::simple(0x4000 + i * 4)).expect("write");
        }
        let bytes = writer.finish_into_inner().expect("finish").into_inner();
        let mut raw = reader::TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
        let mut payload = Vec::new();
        let mut decoded = Vec::new();
        loop {
            let count = raw.read_chunk_raw(&mut payload).expect("raw chunk");
            if count == 0 {
                break;
            }
            decode_chunk(&payload, count, &mut decoded).expect("decode");
        }
        let mut classic = reader::TraceReader::new(Cursor::new(&bytes[..])).expect("reader");
        assert_eq!(decoded, classic.read_to_end().expect("read_to_end"));
    }
}
