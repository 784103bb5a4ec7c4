//! The per-PC stride prefetcher.
//!
//! Table 1 attaches a stride prefetcher (including next-line behaviour)
//! to every cache. The prefetcher only *proposes* addresses; the
//! hierarchy decides which level to fill. (The next-line half is one
//! line on the instruction side's demand-miss path, in the simulator's
//! memory backend.)
//!
//! `propose_into` **appends** to a caller-owned buffer and never
//! allocates, so the demand path reuses one buffer throughout. The
//! stride table holds one 32-byte entry per PC slot: a load trains
//! exactly one entry, so everything it reads and writes sits in one host
//! cache line (a field-per-array layout touched up to five). The
//! snapshot encoding is pinned to a hand-written fixture by this
//! module's tests.

use serde::{Deserialize, Serialize};
use trrip_mem::{PhysAddr, VirtAddr};
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Per-PC stride prefetcher.
///
/// Classic reference-prediction-table design: each entry tracks the last
/// address and stride for one instruction PC with a 2-bit confidence
/// counter; once the same stride repeats, the prefetcher proposes the
/// next [`StridePrefetcher::DEGREE`] addresses along it.
///
/// # Example
///
/// ```
/// use trrip_cache::StridePrefetcher;
/// use trrip_mem::{PhysAddr, VirtAddr};
///
/// let mut pf = StridePrefetcher::new();
/// let pc = VirtAddr::new(0x400);
/// let mut proposals = Vec::new(); // reused across the demand stream
/// pf.propose_into(pc, PhysAddr::new(0x1000), &mut proposals);
/// assert!(proposals.is_empty());
/// pf.propose_into(pc, PhysAddr::new(0x1040), &mut proposals); // learns stride
/// assert!(proposals.is_empty());
/// pf.propose_into(pc, PhysAddr::new(0x1080), &mut proposals); // confirmed
/// assert_eq!(proposals[0].raw(), 0x10c0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StridePrefetcher {
    entries: Vec<StrideEntry>,
    degree: usize,
    mask: usize,
}

/// One reference-prediction-table slot, aligned to its size so that it
/// never straddles two host cache lines.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
#[repr(align(32))]
struct StrideEntry {
    pc_tag: u64,
    last_addr: u64,
    stride: i64,
    /// 2-bit confidence.
    confidence: u8,
    valid: bool,
}

// The table is indexed by masking.
const _: () = assert!(StridePrefetcher::TABLE_ENTRIES.is_power_of_two());

impl StridePrefetcher {
    /// Reference-prediction-table entries.
    pub const TABLE_ENTRIES: usize = 4096;
    /// Addresses proposed per confirmed stride.
    pub const DEGREE: usize = 4;

    /// Creates the prefetcher, its table empty.
    #[must_use]
    pub fn new() -> StridePrefetcher {
        StridePrefetcher {
            entries: vec![StrideEntry::default(); Self::TABLE_ENTRIES],
            degree: Self::DEGREE,
            mask: Self::TABLE_ENTRIES - 1,
        }
    }

    /// A prefetcher with a smaller table or another degree, for tests
    /// whose patterns are easier to read on one.
    #[cfg(test)]
    fn sized(table_entries: usize, degree: usize) -> StridePrefetcher {
        assert!(table_entries.is_power_of_two(), "table size must be a power of two");
        StridePrefetcher {
            entries: vec![StrideEntry::default(); table_entries],
            degree,
            mask: table_entries - 1,
        }
    }

    /// Observes a demand access, **appending** proposed prefetch
    /// addresses to the caller-provided `proposals`. The buffer is never
    /// cleared here — the caller owns its lifecycle — and never
    /// allocated for: hand the same buffer back every access and the
    /// capacity of the widest proposal burst is reused for the rest of
    /// the run.
    pub fn propose_into(&mut self, pc: VirtAddr, addr: PhysAddr, proposals: &mut Vec<PhysAddr>) {
        let index = ((pc.raw() >> 2) as usize) & self.mask;
        let entry = &mut self.entries[index];

        if entry.valid && entry.pc_tag == pc.raw() {
            let stride = addr.raw() as i64 - entry.last_addr as i64;
            if stride == entry.stride && stride != 0 {
                entry.confidence = (entry.confidence + 1).min(3);
            } else {
                entry.confidence = entry.confidence.saturating_sub(1);
                if entry.confidence == 0 {
                    entry.stride = stride;
                }
            }
            entry.last_addr = addr.raw();
            if entry.confidence >= 1 && entry.stride != 0 {
                let mut next = addr.raw() as i64;
                for _ in 0..self.degree {
                    next += entry.stride;
                    if next >= 0 {
                        proposals.push(PhysAddr::new(next as u64));
                    }
                }
            }
        } else {
            *entry = StrideEntry {
                pc_tag: pc.raw(),
                last_addr: addr.raw(),
                stride: 0,
                confidence: 0,
                valid: true,
            };
        }
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        StridePrefetcher::new()
    }
}

impl Snapshot for StridePrefetcher {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.entries.len());
        for entry in &self.entries {
            w.bool(entry.valid);
            if entry.valid {
                w.u64(entry.pc_tag);
                w.u64(entry.last_addr);
                w.i64(entry.stride);
                w.u8(entry.confidence);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_len("stride prefetcher entries", self.entries.len())?;
        for entry in &mut self.entries {
            *entry = if r.bool()? {
                StrideEntry {
                    pc_tag: r.u64()?,
                    last_addr: r.u64()?,
                    stride: r.i64()?,
                    confidence: r.u8()?,
                    valid: true,
                }
            } else {
                StrideEntry::default()
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(pf: &mut StridePrefetcher, pc: VirtAddr, addr: u64) -> Vec<PhysAddr> {
        let mut proposals = Vec::new();
        pf.propose_into(pc, PhysAddr::new(addr), &mut proposals);
        proposals
    }

    #[test]
    fn stride_detected_after_two_repeats() {
        let mut pf = StridePrefetcher::sized(16, 1);
        let pc = VirtAddr::new(0x100);
        assert!(observe(&mut pf, pc, 0x1000).is_empty());
        assert!(observe(&mut pf, pc, 0x1100).is_empty());
        assert_eq!(observe(&mut pf, pc, 0x1200), vec![PhysAddr::new(0x1300)]);
    }

    #[test]
    fn degree_controls_proposal_count() {
        let mut pf = StridePrefetcher::sized(16, 4);
        let pc = VirtAddr::new(0x100);
        observe(&mut pf, pc, 0x1000);
        observe(&mut pf, pc, 0x1040);
        let p = observe(&mut pf, pc, 0x1080);
        assert_eq!(p.len(), 4);
        assert_eq!(p[3], PhysAddr::new(0x1180));
    }

    #[test]
    fn irregular_pattern_stays_quiet() {
        let mut pf = StridePrefetcher::sized(16, 2);
        let pc = VirtAddr::new(0x100);
        let addrs = [0x1000u64, 0x5000, 0x2000, 0x9000, 0x1234];
        let mut total = 0;
        for a in addrs {
            total += observe(&mut pf, pc, a).len();
        }
        assert_eq!(total, 0, "random pattern should not trigger prefetches");
    }

    #[test]
    fn negative_stride_supported() {
        let mut pf = StridePrefetcher::sized(16, 1);
        let pc = VirtAddr::new(0x100);
        observe(&mut pf, pc, 0x3000);
        observe(&mut pf, pc, 0x2f00);
        assert_eq!(observe(&mut pf, pc, 0x2e00), vec![PhysAddr::new(0x2d00)]);
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut pf = StridePrefetcher::sized(16, 1);
        let pc1 = VirtAddr::new(0x100);
        let pc2 = VirtAddr::new(0x104);
        observe(&mut pf, pc1, 0x1000);
        observe(&mut pf, pc2, 0x9000);
        observe(&mut pf, pc1, 0x1040);
        observe(&mut pf, pc2, 0x9400);
        assert_eq!(observe(&mut pf, pc1, 0x1080), vec![PhysAddr::new(0x10c0)]);
        assert_eq!(observe(&mut pf, pc2, 0x9800), vec![PhysAddr::new(0x9c00)]);
    }

    #[test]
    fn propose_into_appends_to_the_reused_buffer() {
        let mut pf = StridePrefetcher::sized(16, 1);
        let pc = VirtAddr::new(0x100);
        let mut proposals = Vec::new();
        pf.propose_into(pc, PhysAddr::new(0x1000), &mut proposals);
        pf.propose_into(pc, PhysAddr::new(0x1100), &mut proposals);
        pf.propose_into(pc, PhysAddr::new(0x1200), &mut proposals);
        assert_eq!(proposals, vec![PhysAddr::new(0x1300)]);
        // Append contract: the caller clears; a second proposing access
        // extends the buffer.
        pf.propose_into(pc, PhysAddr::new(0x1300), &mut proposals);
        assert_eq!(proposals, vec![PhysAddr::new(0x1300), PhysAddr::new(0x1400)]);
    }

    /// The snapshot is the table in slot order — a presence flag, then
    /// tag, last address, stride and confidence of a valid slot — and a
    /// restore of those bytes is the same table. Written out by hand:
    /// every checkpoint and overlay on disk holds this encoding,
    /// whatever the table's layout in memory.
    #[test]
    fn snapshot_bytes_match_a_hand_written_fixture() {
        let mut pf = StridePrefetcher::sized(4, 2);
        // Slot 1: a confirmed +0x40 stride. Slot 3: seen twice, a
        // negative stride learnt but not yet confirmed. Slot 2: 0x208
        // took the slot over from 0x108. Slot 0: never touched.
        for addr in [0x1000, 0x1040, 0x1080, 0x10c0] {
            observe(&mut pf, VirtAddr::new(0x104), addr);
        }
        observe(&mut pf, VirtAddr::new(0x10c), 0x9000);
        observe(&mut pf, VirtAddr::new(0x10c), 0x8f00);
        observe(&mut pf, VirtAddr::new(0x108), 0x5000);
        observe(&mut pf, VirtAddr::new(0x208), 0x7000);

        let mut fixture = SnapWriter::new();
        fixture.usize(4);
        fixture.bool(false);
        for (pc, last, stride, confidence) in
            [(0x104u64, 0x10c0u64, 0x40i64, 2u8), (0x208, 0x7000, 0, 0), (0x10c, 0x8f00, -0x100, 0)]
        {
            fixture.bool(true);
            fixture.u64(pc);
            fixture.u64(last);
            fixture.i64(stride);
            fixture.u8(confidence);
        }
        let mut saved = SnapWriter::new();
        pf.save(&mut saved);
        assert_eq!(saved.bytes(), fixture.bytes());

        let mut restored = StridePrefetcher::sized(4, 2);
        observe(&mut restored, VirtAddr::new(0x100), 0x3000); // overwritten by the restore
        let mut r = SnapReader::new(fixture.bytes());
        restored.restore(&mut r).expect("restore the fixture");
        r.finish().expect("no trailing bytes");
        let mut again = SnapWriter::new();
        restored.save(&mut again);
        assert_eq!(again.bytes(), fixture.bytes());
        // The restored table carries on where the saved one would.
        let pc = VirtAddr::new(0x104);
        assert_eq!(observe(&mut restored, pc, 0x1100), observe(&mut pf, pc, 0x1100));
        assert_eq!(observe(&mut pf, pc, 0x1140), [PhysAddr::new(0x1180), PhysAddr::new(0x11c0)]);
    }

    /// A load trains one entry, which must sit in one host cache line.
    #[test]
    fn an_entry_is_half_a_host_cache_line() {
        assert_eq!(std::mem::size_of::<StrideEntry>(), 32);
        assert_eq!(std::mem::align_of::<StrideEntry>(), 32);
    }
}
