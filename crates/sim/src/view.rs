//! The **stream view**: what the instruction stream alone decides of the
//! memory system, resolved once per stream instead of once per machine.
//!
//! An access reaches the L2 policy through translation (Figure 4
//! ⑩–⑪). Two things on that path depend on nothing but the stream:
//!
//! * **which frame backs an anonymous page.** Heap and stack pages are
//!   demand-allocated, above every frame the loader used, in the order
//!   demand accesses first touch them — the same order under every
//!   policy. Only demand accesses allocate: the cell drops an FDIP or
//!   next-line prefetch into a page the loader did not map before it
//!   reaches the TLB or a cache, and counts the drop
//!   (`cache.prefetch_unmapped_drop`);
//! * **what the per-PC stride prefetcher proposes.** It trains on every
//!   demand load, hits included, with the load's physical address.
//!
//! A [`StreamView`] holds both for one page size: the frames (the
//! loader's, which no overlap rule moves, and the demand-allocated ones)
//! and the stride table. A sweep's [`crate::Frontend`] owns one per page
//! size among its row's cells and, per turn, writes what each resolved
//! into a [`ViewColumn`] beside the turn's records ([`StreamTurn`]): the
//! physical address of every memory operand and of every demand fetch
//! into a page the loader did not map, and the stride proposals of every
//! load. At the fast-forward boundary the views are the frontend's, so
//! they sit in the shared prefix, beside the predictor.
//!
//! A machine asks what the stream decided through a [`Resolver`], and
//! which one is its type: a run that pulls its own stream
//! ([`crate::SimRun`]) owns a [`StreamView`] and resolves through it
//! inline, access by access, through the same code a frontend's views
//! resolve a turn with; a sweep's cell ([`crate::CellRun`]) owns a
//! [`Feed`], its place in the column of the turn it executes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use trrip_cache::StridePrefetcher;
use trrip_compiler::ObjectFile;
use trrip_cpu::{EventTurn, InstrEvent};
use trrip_mem::{PageSize, PhysAddr, VirtAddr};
use trrip_os::Loader;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::config::SimConfig;

/// A page or line number's hash: one multiply, as the TLB's hint table
/// hashes, rotated so that the product's well-mixed high half picks the
/// map's bucket.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MultiplyHasher(u64);

impl Hasher for MultiplyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a multiply-hashed map is keyed by one u64 alone");
    }

    #[inline]
    fn write_u64(&mut self, number: u64) {
        self.0 = number.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// A `u64` → `u64` map on the [`MultiplyHasher`]: page number → frame
/// here, line → ready cycle in the backend's in-flight prefetches.
pub(crate) type NumberMap = HashMap<u64, u64, BuildHasherDefault<MultiplyHasher>>;

/// The distinct page sizes of a row's cells, smallest first: the views
/// a frontend for that row owns, in the order its shared prefix holds
/// them.
#[must_use]
pub fn view_page_sizes(cells: &[SimConfig]) -> Vec<PageSize> {
    let mut sizes: Vec<PageSize> = cells.iter().map(|cell| cell.page_size).collect();
    sizes.sort_unstable_by_key(|size| size.bytes());
    sizes.dedup();
    sizes
}

/// What resolves the stream's decisions for a machine
/// ([`crate::SystemBackend`]), asked in stream order, access by access.
pub trait Resolver {
    /// The physical address of a demand fetch at `pc`, into a page the
    /// machine's loaded image does not map.
    fn fetch(&mut self, pc: VirtAddr) -> PhysAddr;

    /// The physical address of a demand data access at `addr` by the
    /// instruction at `pc`.
    fn data(&mut self, addr: VirtAddr, pc: VirtAddr, store: bool) -> PhysAddr;

    /// The stride proposals of the load just resolved.
    fn proposals(&self) -> &[PhysAddr];
}

/// One page size's view of a stream: its frames and its stride table.
#[derive(Debug, Clone)]
pub struct StreamView {
    page_size: PageSize,
    /// Every mapped page's frame: the loader's, then the
    /// demand-allocated ones.
    frames: NumberMap,
    /// The first demand-allocated frame, above every loaded one: a page
    /// whose frame is below it was mapped by the loader.
    first_anon_frame: u64,
    next_frame: u64,
    stride: StridePrefetcher,
    /// What the last load proposed.
    proposals: Vec<PhysAddr>,
}

impl StreamView {
    /// The view of a fresh stream over `object` loaded at `page_size`.
    #[must_use]
    pub fn new(object: &ObjectFile, page_size: PageSize) -> StreamView {
        let image = Loader::new(page_size).load(object);
        let frames: NumberMap =
            image.page_table.iter().map(|(vpn, entry)| (vpn, entry.frame)).collect();
        let first_anon_frame = frames.values().max().map_or(0x101, |&frame| frame + 1);
        StreamView {
            page_size,
            frames,
            first_anon_frame,
            next_frame: first_anon_frame,
            stride: StridePrefetcher::new(),
            proposals: Vec::new(),
        }
    }

    /// The page size this view resolves for.
    #[must_use]
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// The frame of page `vpn`, demand-allocating it if nothing maps it
    /// yet; and whether the loader mapped it.
    #[inline]
    fn frame_of(&mut self, vpn: u64) -> (u64, bool) {
        let frame = *self.frames.entry(vpn).or_insert_with(|| {
            self.next_frame += 1;
            self.next_frame - 1
        });
        (frame, frame < self.first_anon_frame)
    }

    fn physical(&mut self, vaddr: VirtAddr) -> (PhysAddr, bool) {
        let page_bytes = self.page_size.bytes();
        let (frame, loaded) = self.frame_of(self.page_size.page_of(vaddr).raw());
        (PhysAddr::new(frame * page_bytes + vaddr.offset_in(page_bytes)), loaded)
    }

    /// A demand fetch at `pc`: `None` if the loader mapped its page (the
    /// machine translates it through its own loaded image, temperature
    /// and all), else the physical address of the anonymous page it
    /// lands in, allocated if this is its first touch.
    #[inline]
    pub(crate) fn fetch_anonymous(&mut self, pc: VirtAddr) -> Option<PhysAddr> {
        let (pa, loaded) = self.physical(pc);
        (!loaded).then_some(pa)
    }

    /// Resolves one turn's records into `column` (cleared first), in the
    /// order a machine executing the turn asks: per record, a demand
    /// fetch into a page the loader did not map, then the memory operand.
    pub(crate) fn resolve(&mut self, events: &[InstrEvent], column: &mut ViewColumn) {
        column.clear();
        for event in events {
            if event.fetch() {
                if let Some(pa) = self.fetch_anonymous(event.pc()) {
                    column.pa.push(pa);
                }
            }
            if let Some(mem) = event.mem() {
                let entry = u32::try_from(column.pa.len()).expect("a turn's entries fit a u32");
                column.pa.push(self.data(mem.addr, event.pc(), mem.store));
                if !mem.store {
                    for &proposal in &self.proposals {
                        column.proposed_at.push(entry);
                        column.proposed.push(proposal);
                    }
                }
            }
        }
    }
}

impl Resolver for StreamView {
    /// The machine asks only for a page its loaded image does not map,
    /// which the view allocates if this is its first touch.
    #[inline]
    fn fetch(&mut self, pc: VirtAddr) -> PhysAddr {
        self.physical(pc).0
    }

    /// A load also trains the stride prefetcher, whose proposals
    /// [`Resolver::proposals`] holds until the next load.
    #[inline]
    fn data(&mut self, addr: VirtAddr, pc: VirtAddr, store: bool) -> PhysAddr {
        let (pa, _) = self.physical(addr);
        if !store {
            self.proposals.clear();
            self.stride.propose_into(pc, pa, &mut self.proposals);
        }
        pa
    }

    #[inline]
    fn proposals(&self) -> &[PhysAddr] {
        &self.proposals
    }
}

/// The frames the loader did not hand out and the stride table, with
/// the page size they are for: the loaded frames are configuration,
/// rebuilt by [`StreamView::new`].
impl Snapshot for StreamView {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"VIEW");
        w.u64(self.page_size.bytes());
        let mut anonymous: Vec<(u64, u64)> = self
            .frames
            .iter()
            .filter(|&(_, &frame)| frame >= self.first_anon_frame)
            .map(|(&vpn, &frame)| (vpn, frame))
            .collect();
        anonymous.sort_unstable();
        w.usize(anonymous.len());
        for (vpn, frame) in anonymous {
            w.u64(vpn);
            w.u64(frame);
        }
        w.u64(self.next_frame);
        self.stride.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"VIEW")?;
        let page_bytes = r.u64()?;
        if page_bytes != self.page_size.bytes() {
            return Err(SnapError::Corrupt(format!(
                "a stream view of {page_bytes}-byte pages where {} was expected",
                self.page_size
            )));
        }
        self.frames.retain(|_, frame| *frame < self.first_anon_frame);
        let anonymous = r.usize()?;
        for _ in 0..anonymous {
            let (vpn, frame) = (r.u64()?, r.u64()?);
            if frame < self.first_anon_frame || self.frames.insert(vpn, frame).is_some() {
                return Err(SnapError::Corrupt(format!(
                    "stream view maps page {vpn:#x} to frame {frame:#x} twice or over a loaded one"
                )));
            }
        }
        self.next_frame = r.u64()?;
        if self.frames.values().any(|&frame| frame >= self.next_frame) {
            return Err(SnapError::Corrupt("stream view frame past its next frame".to_owned()));
        }
        self.stride.restore(r)?;
        self.proposals.clear();
        Ok(())
    }
}

/// What one view resolved of one turn: an entry per demand fetch into a
/// page the loader did not map and per memory operand, in record order,
/// and the stride proposals of the loads among them, each tagged with
/// its load's entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewColumn {
    pa: Vec<PhysAddr>,
    proposed_at: Vec<u32>,
    proposed: Vec<PhysAddr>,
}

impl ViewColumn {
    fn clear(&mut self) {
        self.pa.clear();
        self.proposed_at.clear();
        self.proposed.clear();
    }
}

/// A machine's place in the [`ViewColumn`] of the turn it executes: what
/// a sweep's cell resolves through. Between turns it holds an empty
/// column.
#[derive(Debug, Default)]
pub struct Feed {
    column: Arc<ViewColumn>,
    next: usize,
    next_proposal: usize,
    /// The proposals of the last load read.
    proposals: std::ops::Range<usize>,
}

impl Feed {
    pub(crate) fn new(column: Arc<ViewColumn>) -> Feed {
        Feed { column, ..Feed::default() }
    }

    /// The next entry's physical address.
    #[inline]
    fn next(&mut self) -> PhysAddr {
        let pa = self.column.pa[self.next];
        let entry = self.next as u32;
        self.next += 1;
        let start = self.next_proposal;
        let at = &self.column.proposed_at;
        while at.get(self.next_proposal) == Some(&entry) {
            self.next_proposal += 1;
        }
        self.proposals = start..self.next_proposal;
        pa
    }

    /// Whether every entry of the column has been read.
    pub(crate) fn is_spent(&self) -> bool {
        self.next == self.column.pa.len() && self.next_proposal == self.column.proposed.len()
    }
}

/// Each question reads the column's next entry: the frontend's view
/// answered them in the same order.
impl Resolver for Feed {
    #[inline]
    fn fetch(&mut self, _: VirtAddr) -> PhysAddr {
        self.next()
    }

    #[inline]
    fn data(&mut self, _: VirtAddr, _: VirtAddr, _: bool) -> PhysAddr {
        self.next()
    }

    #[inline]
    fn proposals(&self) -> &[PhysAddr] {
        &self.column.proposed[self.proposals.clone()]
    }
}

/// A turn of the stream as a sweep's cells take it: the records the
/// frontend digested ([`EventTurn`]) and, beside them, a [`ViewColumn`]
/// per page size among the row's cells. The records stay as they are; a
/// cell reads the column of its own page size.
#[derive(Debug, Clone, Default)]
pub struct StreamTurn {
    events: EventTurn,
    columns: Vec<(PageSize, Arc<ViewColumn>)>,
}

impl StreamTurn {
    /// An empty turn.
    #[must_use]
    pub fn new() -> StreamTurn {
        StreamTurn::default()
    }

    /// The records.
    #[must_use]
    pub fn events(&self) -> &EventTurn {
        &self.events
    }

    /// Instructions the turn covers.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.events.instructions()
    }

    /// The column of `page_size`, if the frontend resolved one.
    #[must_use]
    pub fn column(&self, page_size: PageSize) -> Option<&Arc<ViewColumn>> {
        self.columns.iter().find(|(size, _)| *size == page_size).map(|(_, column)| column)
    }

    /// Empties the records for a frontend to digest into.
    pub(crate) fn events_mut(&mut self) -> &mut EventTurn {
        &mut self.events
    }

    /// Resolves the records through `views`, one column each, reusing
    /// every column no machine still reads.
    pub(crate) fn resolve(&mut self, views: &mut [StreamView]) {
        self.columns.resize_with(views.len(), || (PageSize::default(), Arc::default()));
        for ((size, column), view) in self.columns.iter_mut().zip(views) {
            *size = view.page_size();
            if Arc::get_mut(column).is_none() {
                *column = Arc::default();
            }
            let column = Arc::get_mut(column).expect("a fresh column has no other reader");
            view.resolve(self.events.events(), column);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trrip_compiler::Linker;
    use trrip_cpu::TraceInstr;
    use trrip_workloads::{build_program, WorkloadSpec};

    fn object() -> ObjectFile {
        let mut spec = WorkloadSpec::named("view-test");
        spec.functions = 40;
        spec.hot_rotation = 8;
        Linker::new().link_source_order(&build_program(&spec))
    }

    #[test]
    fn demand_allocation_is_untagged_and_stable() {
        let object = object();
        let mut view = StreamView::new(&object, PageSize::Size4K);
        let pc = object.function_addrs[0];
        let pa1 = view.data(VirtAddr::new(0x9000_0000), pc, false);
        // Same page resolves to the same frame afterwards.
        let pa2 = view.data(VirtAddr::new(0x9000_0008), pc, true);
        assert_eq!(pa2.raw(), pa1.raw() + 8);
        // Loaded code is the machine's to translate; an anonymous page
        // reached by a fetch is the view's.
        assert_eq!(view.fetch_anonymous(pc), None);
        assert_eq!(
            view.fetch_anonymous(VirtAddr::new(0x9000_0040)),
            Some(PhysAddr::new(pa1.raw() + 0x40))
        );
    }

    #[test]
    fn anonymous_frames_do_not_collide_with_loaded() {
        let object = object();
        let loaded = Loader::new(PageSize::Size4K).load(&object).page_table;
        let highest = loaded.iter().map(|(_, e)| e.frame).max().expect("a loaded page");
        let mut view = StreamView::new(&object, PageSize::Size4K);
        let pa = view.data(VirtAddr::new(0x8000_0000), VirtAddr::new(0x40_0000), true);
        assert_eq!(pa.raw() / 4096, highest + 1, "the first anonymous frame");
        let next = view.data(VirtAddr::new(0x8000_2000), VirtAddr::new(0x40_0000), true);
        assert_eq!(next.raw() / 4096, highest + 2, "frames in first-touch order");
    }

    /// A turn resolved into a column reads back, entry by entry, what
    /// resolving access by access gives; and a restored view carries on
    /// where the saved one would.
    #[test]
    fn a_column_reads_back_what_inline_resolution_gives() {
        let object = object();
        let code = object.function_addrs[1].raw();
        let mut turn = EventTurn::new();
        let mut inline = Vec::new();
        let mut view = StreamView::new(&object, PageSize::Size16K);
        for i in 0..600u64 {
            let pc = code + (i % 5) * 4;
            let addr = 0x9000_0000 + i * 256 + (i % 5) * 0x10_0000;
            let instr =
                if i % 7 == 0 { TraceInstr::store(pc, addr) } else { TraceInstr::load(pc, addr) };
            // Every line change fetches; every tenth lands off the image.
            let fetch = if i % 10 == 0 { Some(&[][..]) } else { None };
            let instr = if i % 10 == 0 && i % 20 == 0 {
                TraceInstr { pc: VirtAddr::new(0xC000_0000 + i * 64), ..instr }
            } else {
                instr
            };
            turn.record(&instr, fetch, None);
            if fetch.is_some() {
                inline.extend(view.fetch_anonymous(instr.pc).map(|pa| (pa, Vec::new())));
            }
            let mem = instr.mem.expect("a memory operand");
            let pa = view.data(mem.addr, instr.pc, mem.store);
            let proposed = if mem.store { Vec::new() } else { view.proposals().to_vec() };
            inline.push((pa, proposed));
        }
        assert!(inline.iter().any(|(_, proposed)| !proposed.is_empty()), "strides confirmed");

        let mut fresh = StreamView::new(&object, PageSize::Size16K);
        let mut column = ViewColumn::default();
        fresh.resolve(turn.events(), &mut column);
        let mut feed = Feed::new(Arc::new(column));
        for (i, (pa, proposed)) in inline.iter().enumerate() {
            assert_eq!((feed.next(), feed.proposals()), (*pa, &proposed[..]), "entry {i}");
        }
        assert!(feed.is_spent());

        let mut saved = SnapWriter::new();
        fresh.save(&mut saved);
        let mut restored = StreamView::new(&object, PageSize::Size16K);
        let mut r = SnapReader::new(saved.bytes());
        restored.restore(&mut r).expect("restore");
        r.finish().expect("no trailing bytes");
        let (pc, addr) = (VirtAddr::new(code), VirtAddr::new(0xA000_0000));
        assert_eq!(restored.data(addr, pc, false), fresh.data(addr, pc, false));
        assert_eq!(restored.proposals(), fresh.proposals());
        let mut again = SnapWriter::new();
        restored.save(&mut again);
        let mut original = SnapWriter::new();
        fresh.save(&mut original);
        assert_eq!(again.bytes(), original.bytes());

        let mut other = StreamView::new(&object, PageSize::Size4K);
        let refused = other.restore(&mut SnapReader::new(saved.bytes()));
        assert!(matches!(refused, Err(SnapError::Corrupt(_))), "{refused:?}");
    }
}
