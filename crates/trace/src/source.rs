//! The [`TraceSource`] abstraction the simulator consumes.

use trrip_cpu::TraceInstr;

/// A producer of instruction batches.
///
/// The simulator pulls batches rather than single instructions so disk
/// readers can hand over whole decoded chunks and the walker can amortize
/// its per-call bookkeeping; [`SourceIter`] flattens batches back into
/// the instruction stream the timing core iterates.
pub trait TraceSource {
    /// Appends the next batch of instructions to `out`, returning how
    /// many were appended. `0` means the source is exhausted (infinite
    /// sources, like the CFG walker, never return `0` — callers bound
    /// them with [`Iterator::take`] on the [`SourceIter`]). What `out`
    /// already holds is kept: callers that loop over one buffer `clear()`
    /// it between calls (as [`SourceIter`] does), and its allocation is
    /// reused from batch to batch.
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize;
}

/// Adapts any [`TraceSource`] into an `Iterator<Item = TraceInstr>`.
#[derive(Debug)]
pub struct SourceIter<S> {
    source: S,
    buf: Vec<TraceInstr>,
    pos: usize,
}

impl<S: TraceSource> SourceIter<S> {
    /// Wraps a source.
    #[must_use]
    pub fn new(source: S) -> SourceIter<S> {
        SourceIter { source, buf: Vec::new(), pos: 0 }
    }

    /// The wrapped source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// What the source handed over and the iterator has not passed on
    /// yet, in order: the rest of the current batch.
    #[must_use]
    pub fn unread(&self) -> &[TraceInstr] {
        &self.buf[self.pos..]
    }

    /// Returns the next run of up to `limit` instructions as a
    /// contiguous slice of the current decoded batch, advancing the
    /// iterator past it. An empty slice means the source is exhausted
    /// (or `limit == 0`). Interleaves freely with [`Iterator::next`].
    ///
    /// This is the batched fast path: a disk replay's decoded chunk (or
    /// the walker's batch) flows to the consumer as one slice instead of
    /// one `next()` call per instruction. The slice never crosses a
    /// batch boundary, so callers loop until they have their fill.
    pub fn next_slice(&mut self, limit: usize) -> &[TraceInstr] {
        if limit == 0 {
            return &[];
        }
        while self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.source.next_batch(&mut self.buf) == 0 {
                return &[];
            }
        }
        let n = limit.min(self.buf.len() - self.pos);
        let start = self.pos;
        self.pos += n;
        &self.buf[start..start + n]
    }

    /// Advances past the next `n` instructions (fewer only if the
    /// source ends first) and returns how many were passed — what
    /// `take(n)` run dry does, a batch at a time.
    pub fn advance(&mut self, n: u64) -> u64 {
        let mut left = n;
        while left > 0 {
            let passed = self.next_slice(usize::try_from(left).unwrap_or(usize::MAX)).len();
            if passed == 0 {
                break;
            }
            left -= passed as u64;
        }
        n - left
    }
}

impl<S: TraceSource> Iterator for SourceIter<S> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        while self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if self.source.next_batch(&mut self.buf) == 0 {
                return None;
            }
        }
        let instr = self.buf[self.pos];
        self.pos += 1;
        Some(instr)
    }
}

/// A [`TraceSource`] over an in-memory instruction sequence (foreign
/// trace imports and tests).
#[derive(Debug)]
pub struct VecSource {
    instrs: std::vec::IntoIter<TraceInstr>,
    batch: usize,
}

impl VecSource {
    /// Wraps a vector, handing it out in batches of `batch`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn new(instrs: Vec<TraceInstr>, batch: usize) -> VecSource {
        assert!(batch > 0, "batch must be positive");
        VecSource { instrs: instrs.into_iter(), batch }
    }
}

impl TraceSource for VecSource {
    fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
        let before = out.len();
        out.extend(self.instrs.by_ref().take(self.batch));
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_iter_flattens_batches() {
        let instrs: Vec<_> = (0..10).map(|i| TraceInstr::simple(0x1000 + i * 4)).collect();
        let collected: Vec<_> = SourceIter::new(VecSource::new(instrs.clone(), 3)).collect();
        assert_eq!(collected, instrs);
    }

    #[test]
    fn next_slice_interleaves_with_next() {
        let instrs: Vec<_> = (0..10).map(|i| TraceInstr::simple(0x1000 + i * 4)).collect();
        let mut iter = SourceIter::new(VecSource::new(instrs.clone(), 4));
        assert_eq!(iter.next(), Some(instrs[0]));
        assert_eq!(iter.next_slice(2), &instrs[1..3]);
        assert_eq!(iter.next_slice(100), &instrs[3..4], "slice stops at the batch boundary");
        assert_eq!(iter.next_slice(100), &instrs[4..8]);
        assert_eq!(iter.next(), Some(instrs[8]));
        assert_eq!(iter.next_slice(0), &[] as &[TraceInstr]);
        assert_eq!(iter.next_slice(100), &instrs[9..]);
        assert!(iter.next_slice(100).is_empty(), "exhausted source yields an empty slice");
        assert_eq!(iter.next(), None);
    }

    #[test]
    fn advance_lands_where_take_would() {
        let instrs: Vec<_> = (0..10).map(|i| TraceInstr::simple(0x1000 + i * 4)).collect();
        for n in 0..=12u64 {
            let mut iter = SourceIter::new(VecSource::new(instrs.clone(), 4));
            assert_eq!(iter.next(), Some(instrs[0]));
            assert_eq!(iter.advance(n), n.min(9));
            assert_eq!(iter.next(), instrs.get(1 + n as usize).copied(), "after advance({n})");
        }
    }

    #[test]
    fn take_bounds_an_infinite_source() {
        struct Forever;
        impl TraceSource for Forever {
            fn next_batch(&mut self, out: &mut Vec<TraceInstr>) -> usize {
                out.push(TraceInstr::simple(0));
                1
            }
        }
        assert_eq!(SourceIter::new(Forever).take(100).count(), 100);
    }
}
