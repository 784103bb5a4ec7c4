//! SHiP — Signature-based Hit Predictor (Wu et al., MICRO 2011).
//!
//! SHiP augments SRRIP with a table of saturating counters (the SHCT)
//! indexed by a *signature* — here a PC hash, as in the paper's
//! configuration (§4.3): "a 64kB SHiP predictor at the L2 level, only
//! applied to instruction cache blocks, using PC-based signatures". Each
//! line remembers the signature that inserted it and an outcome bit; on a
//! hit the SHCT learns the signature re-references, on a dead eviction it
//! learns the opposite. Fills whose signature has a zero counter are
//! predicted dead-on-arrival and inserted at *distant*.

use trrip_core::{RripTable, Rrpv};
use trrip_mem::VirtAddr;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::{ReplacementPolicy, RequestInfo};

#[derive(Debug, Clone, Copy, Default)]
struct LineMeta {
    signature: u32,
    outcome: bool,
    tracked: bool,
}

/// SHiP-PC over SRRIP, instruction lines only.
#[derive(Debug, Clone)]
pub struct Ship {
    sets: RripTable,
    meta: Vec<LineMeta>,
    shct: Vec<u8>,
    shct_mask: usize,
    signature_mask: u32,
    ways: usize,
    escape_counter: u32,
}

// The SHCT is indexed by masking.
const _: () = assert!(Ship::SHCT_ENTRIES.is_power_of_two());

impl Ship {
    /// SHCT entries: the paper's 64 kB predictor of 2-bit counters.
    pub const SHCT_ENTRIES: usize = 1 << 18;
    /// Width of each SHCT saturating counter.
    pub const COUNTER_BITS: u32 = 2;
    /// Bits of the signature each line stores.
    pub const SIGNATURE_BITS: u32 = 14;
    const COUNTER_MAX: u8 = (1 << Ship::COUNTER_BITS) - 1;
    /// Counters start weakly re-referenced so cold-start fills are not
    /// all predicted dead.
    const COUNTER_START: u8 = Ship::COUNTER_MAX / 2 + 1;

    /// Creates SHiP state for a `sets × ways` cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets`/`ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Ship {
        assert!(sets > 0, "cache must have at least one set");
        Ship {
            sets: RripTable::new(sets, ways),
            meta: vec![LineMeta::default(); sets * ways],
            shct: vec![Ship::COUNTER_START; Ship::SHCT_ENTRIES],
            shct_mask: Ship::SHCT_ENTRIES - 1,
            signature_mask: (1 << Ship::SIGNATURE_BITS) - 1,
            ways,
            escape_counter: 0,
        }
    }

    /// A 256-entry SHCT over 8-bit signatures, for tests.
    #[cfg(test)]
    fn tiny(sets: usize, ways: usize) -> Ship {
        let entries = 1 << 8;
        Ship {
            shct: vec![Ship::COUNTER_START; entries],
            shct_mask: entries - 1,
            signature_mask: (1 << 8) - 1,
            ..Ship::new(sets, ways)
        }
    }

    fn signature(&self, pc: VirtAddr) -> u32 {
        // Fold the PC down to the signature width; instruction PCs are
        // line-aligned-ish so drop the low bits first.
        let folded = (pc.raw() >> 2) ^ (pc.raw() >> 17) ^ (pc.raw() >> 33);
        (folded as u32) & self.signature_mask
    }

    fn shct_index(&self, signature: u32) -> usize {
        (signature as usize) & self.shct_mask
    }

    /// Current SHCT counter for a PC (exposed for tests/analysis).
    #[must_use]
    pub fn counter_for_pc(&self, pc: VirtAddr) -> u8 {
        let sig = self.signature(pc);
        self.shct[self.shct_index(sig)]
    }
}

impl ReplacementPolicy for Ship {
    fn on_hit(&mut self, set: usize, way: usize, _req: &RequestInfo) {
        let idx = set * self.ways + way;
        let meta = self.meta[idx];
        if meta.tracked && !meta.outcome {
            let e = self.shct_index(meta.signature);
            self.shct[e] = (self.shct[e] + 1).min(Ship::COUNTER_MAX);
            self.meta[idx].outcome = true;
        }
        self.sets.set_rrpv(set, way, Rrpv::immediate());
    }

    fn choose_victim(&mut self, set: usize, _req: &RequestInfo) -> usize {
        self.sets.find_victim(set)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        let idx = set * self.ways + way;
        let meta = self.meta[idx];
        if meta.tracked && !meta.outcome {
            // Dead line: the signature's re-reference confidence drops.
            let e = self.shct_index(meta.signature);
            self.shct[e] = self.shct[e].saturating_sub(1);
        }
        self.meta[idx] = LineMeta::default();
    }

    fn on_fill(&mut self, set: usize, way: usize, req: &RequestInfo) {
        let idx = set * self.ways + way;
        if req.kind.is_instruction() {
            let signature = self.signature(req.pc);
            self.meta[idx] = LineMeta { signature, outcome: false, tracked: true };
            if self.shct[self.shct_index(signature)] == 0 {
                // Predicted dead-on-arrival: distant re-reference — with a
                // 1/32 bimodal escape so a mispredicted signature can
                // re-prove itself (otherwise a dead prediction is sticky:
                // distant lines evict unreferenced and re-train to dead).
                self.escape_counter = (self.escape_counter + 1) % 32;
                let rrpv =
                    if self.escape_counter == 0 { Rrpv::intermediate() } else { Rrpv::distant() };
                self.sets.set_rrpv(set, way, rrpv);
            } else {
                self.sets.set_rrpv(set, way, Rrpv::intermediate());
            }
        } else {
            // Data lines: plain SRRIP, no tracking.
            self.meta[idx] = LineMeta::default();
            self.sets.set_rrpv(set, way, Rrpv::intermediate());
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.meta[set * self.ways + way] = LineMeta::default();
        self.sets.invalidate(set, way);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.sets.save(w);
        w.usize(self.meta.len());
        for m in &self.meta {
            w.u64(u64::from(m.signature));
            w.bool(m.outcome);
            w.bool(m.tracked);
        }
        w.bytes_field(&self.shct);
        w.u64(u64::from(self.escape_counter));
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sets.restore(r)?;
        r.expect_len("SHiP line metadata", self.meta.len())?;
        for m in &mut self.meta {
            let signature = r.u64()?;
            m.signature = u32::try_from(signature)
                .map_err(|_| SnapError::Corrupt(format!("SHiP signature {signature} overflows")))?;
            m.outcome = r.bool()?;
            m.tracked = r.bool()?;
        }
        let shct = r.bytes_field()?;
        if shct.len() != self.shct.len() {
            return Err(SnapError::Mismatch(format!(
                "SHCT size: snapshot has {}, instance has {}",
                shct.len(),
                self.shct.len()
            )));
        }
        if let Some(&counter) = shct.iter().find(|&&c| c > Ship::COUNTER_MAX) {
            return Err(SnapError::Corrupt(format!(
                "SHCT counter {counter} above its {}-bit maximum",
                Ship::COUNTER_BITS
            )));
        }
        self.shct.copy_from_slice(shct);
        let escape = r.u64()?;
        if escape >= 32 {
            return Err(SnapError::Corrupt(format!("SHiP escape counter {escape} out of range")));
        }
        self.escape_counter = escape as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ship() -> Ship {
        Ship::tiny(4, 4)
    }

    #[test]
    fn repeated_dead_fills_predict_distant() {
        let mut p = ship();
        let req = RequestInfo::ifetch(0x4000);
        // Fill and evict the same signature with no hits until its counter
        // drains to zero.
        for _ in 0..4 {
            p.on_fill(0, 0, &req);
            p.on_evict(0, 0);
        }
        assert_eq!(p.counter_for_pc(req.pc), 0);
        p.on_fill(0, 0, &req);
        assert_eq!(p.sets.rrpv(0, 0), Rrpv::distant());
    }

    #[test]
    fn hits_restore_confidence() {
        let mut p = ship();
        let req = RequestInfo::ifetch(0x4000);
        for _ in 0..4 {
            p.on_fill(0, 0, &req);
            p.on_evict(0, 0);
        }
        assert_eq!(p.counter_for_pc(req.pc), 0);
        // A fill that then hits trains the counter back up.
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req);
        assert_eq!(p.counter_for_pc(req.pc), 1);
        p.on_evict(0, 0);
        p.on_fill(0, 0, &req);
        assert_eq!(p.sets.rrpv(0, 0), Rrpv::intermediate());
    }

    #[test]
    fn outcome_counted_once_per_residency() {
        let mut p = ship();
        let req = RequestInfo::ifetch(0x4000);
        let before = p.counter_for_pc(req.pc);
        p.on_fill(0, 0, &req);
        p.on_hit(0, 0, &req);
        p.on_hit(0, 0, &req);
        p.on_hit(0, 0, &req);
        assert_eq!(p.counter_for_pc(req.pc), (before + 1).min(3));
    }

    #[test]
    fn data_lines_are_untracked_srrip() {
        let mut p = ship();
        let req = RequestInfo::data_load(0x9000);
        let before = p.counter_for_pc(req.pc);
        p.on_fill(0, 1, &req);
        assert_eq!(p.sets.rrpv(0, 1), Rrpv::intermediate());
        p.on_evict(0, 1);
        // Dead data eviction must not train the SHCT.
        assert_eq!(p.counter_for_pc(req.pc), before);
    }

    #[test]
    fn an_shct_counter_past_its_width_is_refused() {
        let mut p = ship();
        p.on_fill(0, 0, &RequestInfo::ifetch(0x4000));
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = ship();
        restored.restore_state(&mut SnapReader::new(&bytes)).expect("valid bytes");
        let mut again = SnapWriter::new();
        restored.save_state(&mut again);
        assert_eq!(again.bytes(), bytes, "valid bytes restore as they were saved");

        // The SHCT field ends just before the escape counter's one byte.
        let mut bytes = bytes;
        let last_counter = bytes.len() - 2;
        assert_eq!(bytes[last_counter], Ship::COUNTER_START);
        bytes[last_counter] = Ship::COUNTER_MAX + 1;
        let err = ship().restore_state(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, SnapError::Corrupt(what) if what.contains("SHCT counter 4")),
            "{err}"
        );
    }

    #[test]
    fn paper_config_is_64kb() {
        let bits = Ship::SHCT_ENTRIES * Ship::COUNTER_BITS as usize;
        assert_eq!(bits / 8, 64 * 1024);
    }
}
