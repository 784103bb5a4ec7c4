//! Branch prediction: the Table 1 suite.
//!
//! * 1k-entry BTB for direct branch targets,
//! * 512-entry indirect BTB (last-target),
//! * 256-entry loop predictor (trip-count capture with confidence),
//! * 1k-entry gshare global direction predictor,
//! * and a return-address stack.
//!
//! The predictor exposes two operations: a pure [`BranchPredictor::predict`]
//! query (used by FDIP lookahead, which must not corrupt state) and
//! [`BranchPredictor::observe`], which predicts *and* trains, returning
//! whether the real outcome was mispredicted.

use trrip_mem::VirtAddr;
use trrip_snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::trace::{BranchInfo, BranchKind, INSTR_BYTES};

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    tag: u64,
    target: u64,
    valid: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u64,
    trip_count: u32,
    current: u32,
    confidence: u8,
    valid: bool,
}

/// Prediction result for one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Predicted direction.
    pub predicted_taken: bool,
    /// Predicted target if taken (None = BTB miss).
    pub predicted_target: Option<VirtAddr>,
}

/// The assembled predictor suite.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    btb: Vec<BtbEntry>,
    indirect_btb: Vec<BtbEntry>,
    loops: Vec<LoopEntry>,
    gshare: Vec<u8>,
    history: u64,
    ras: Vec<u64>,
    mispredictions: u64,
    branches: u64,
}

// The tables are indexed by masking.
const _: () = assert!(
    BranchPredictor::BTB_ENTRIES.is_power_of_two()
        && BranchPredictor::INDIRECT_BTB_ENTRIES.is_power_of_two()
        && BranchPredictor::LOOP_ENTRIES.is_power_of_two()
        && BranchPredictor::GLOBAL_ENTRIES.is_power_of_two()
);

impl BranchPredictor {
    /// Direct-branch target buffer entries.
    pub const BTB_ENTRIES: usize = 1024;
    /// Indirect-branch target buffer entries.
    pub const INDIRECT_BTB_ENTRIES: usize = 512;
    /// Loop predictor entries.
    pub const LOOP_ENTRIES: usize = 256;
    /// Global (gshare) predictor entries.
    pub const GLOBAL_ENTRIES: usize = 1024;
    /// Return-address stack depth.
    pub const RAS_DEPTH: usize = 32;
    /// Cycles lost on a misprediction.
    pub const MISPREDICT_PENALTY: u64 = 8;

    /// Creates the suite, its tables empty.
    #[must_use]
    pub fn new() -> BranchPredictor {
        BranchPredictor {
            btb: vec![BtbEntry::default(); Self::BTB_ENTRIES],
            indirect_btb: vec![BtbEntry::default(); Self::INDIRECT_BTB_ENTRIES],
            loops: vec![LoopEntry::default(); Self::LOOP_ENTRIES],
            gshare: vec![2; Self::GLOBAL_ENTRIES], // weakly taken
            history: 0,
            ras: Vec::with_capacity(Self::RAS_DEPTH),
            mispredictions: 0,
            branches: 0,
        }
    }

    /// Observed branches so far.
    #[must_use]
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Mispredictions so far.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Misprediction rate in `[0, 1]`.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.branches as f64
        }
    }

    fn gshare_index(&self, pc: VirtAddr) -> usize {
        let pc_bits = (pc.raw() >> 2) as usize;
        (pc_bits ^ self.history as usize) & (Self::GLOBAL_ENTRIES - 1)
    }

    fn loop_index(pc: VirtAddr, entries: usize) -> usize {
        ((pc.raw() >> 2) as usize) & (entries - 1)
    }

    /// Pure prediction query: no state is modified. Used by the FDIP
    /// lookahead so running ahead does not train the tables.
    #[must_use]
    pub fn predict(&self, pc: VirtAddr, kind: BranchKind) -> BranchOutcome {
        let predicted_taken = match kind {
            BranchKind::Conditional => {
                // Loop predictor overrides gshare when confident.
                let li = BranchPredictor::loop_index(pc, Self::LOOP_ENTRIES);
                let le = &self.loops[li];
                if le.valid && le.tag == pc.raw() && le.confidence >= 2 && le.trip_count > 0 {
                    le.current < le.trip_count
                } else {
                    self.gshare[self.gshare_index(pc)] >= 2
                }
            }
            // Unconditional control flow is always taken.
            _ => true,
        };
        let predicted_target = if !predicted_taken {
            None
        } else {
            match kind {
                BranchKind::Return => self.ras.last().map(|&t| VirtAddr::new(t)),
                k if k.is_indirect() => {
                    let i = BranchPredictor::loop_index(pc, Self::INDIRECT_BTB_ENTRIES);
                    let e = &self.indirect_btb[i];
                    (e.valid && e.tag == pc.raw()).then(|| VirtAddr::new(e.target))
                }
                _ => {
                    let i = BranchPredictor::loop_index(pc, Self::BTB_ENTRIES);
                    let e = &self.btb[i];
                    (e.valid && e.tag == pc.raw()).then(|| VirtAddr::new(e.target))
                }
            }
        };
        BranchOutcome { predicted_taken, predicted_target }
    }

    /// Predicts, then trains on the real outcome. Returns `true` on a
    /// misprediction (wrong direction, or taken with wrong/unknown target).
    pub fn observe(&mut self, pc: VirtAddr, info: &BranchInfo) -> bool {
        self.branches += 1;
        let prediction = self.predict(pc, info.kind);

        let direction_wrong = prediction.predicted_taken != info.taken;
        let target_wrong = info.taken && (prediction.predicted_target != Some(info.target));
        let mispredicted = direction_wrong || target_wrong;
        if mispredicted {
            self.mispredictions += 1;
        }

        // --- Training ---
        if info.kind == BranchKind::Conditional {
            let gi = self.gshare_index(pc);
            let counter = &mut self.gshare[gi];
            if info.taken {
                *counter = (*counter + 1).min(3);
            } else {
                *counter = counter.saturating_sub(1);
            }
            self.history = (self.history << 1) | u64::from(info.taken);
            self.train_loop(pc, info.taken);
        }

        match info.kind {
            BranchKind::Return => {
                self.ras.pop();
            }
            k if k.is_call() => {
                if self.ras.len() == Self::RAS_DEPTH {
                    self.ras.remove(0);
                }
                self.ras.push((pc + INSTR_BYTES).raw());
            }
            _ => {}
        }

        if info.taken {
            if info.kind.is_indirect() && info.kind != BranchKind::Return {
                let i = BranchPredictor::loop_index(pc, Self::INDIRECT_BTB_ENTRIES);
                self.indirect_btb[i] =
                    BtbEntry { tag: pc.raw(), target: info.target.raw(), valid: true };
            } else if !info.kind.is_indirect() {
                let i = BranchPredictor::loop_index(pc, Self::BTB_ENTRIES);
                self.btb[i] = BtbEntry { tag: pc.raw(), target: info.target.raw(), valid: true };
            }
        }

        mispredicted
    }

    fn train_loop(&mut self, pc: VirtAddr, taken: bool) {
        let li = BranchPredictor::loop_index(pc, Self::LOOP_ENTRIES);
        let entry = &mut self.loops[li];
        if !entry.valid || entry.tag != pc.raw() {
            *entry =
                LoopEntry { tag: pc.raw(), trip_count: 0, current: 0, confidence: 0, valid: true };
        }
        if taken {
            entry.current += 1;
        } else {
            // Loop exit: did the trip count repeat?
            if entry.trip_count == entry.current && entry.trip_count > 0 {
                entry.confidence = (entry.confidence + 1).min(3);
            } else {
                entry.trip_count = entry.current;
                entry.confidence = 0;
            }
            entry.current = 0;
        }
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::new()
    }
}

fn save_btb(w: &mut SnapWriter, table: &[BtbEntry]) {
    w.usize(table.len());
    for e in table {
        w.bool(e.valid);
        if e.valid {
            w.u64(e.tag);
            w.u64(e.target);
        }
    }
}

fn restore_btb(
    r: &mut SnapReader<'_>,
    what: &str,
    table: &mut [BtbEntry],
) -> Result<(), SnapError> {
    r.expect_len(what, table.len())?;
    for e in table.iter_mut() {
        *e = BtbEntry::default();
        e.valid = r.bool()?;
        if e.valid {
            e.tag = r.u64()?;
            e.target = r.u64()?;
        }
    }
    Ok(())
}

impl Snapshot for BranchPredictor {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"BPRD");
        save_btb(w, &self.btb);
        save_btb(w, &self.indirect_btb);
        w.usize(self.loops.len());
        for e in &self.loops {
            w.bool(e.valid);
            if e.valid {
                w.u64(e.tag);
                w.u64(u64::from(e.trip_count));
                w.u64(u64::from(e.current));
                w.u8(e.confidence);
            }
        }
        w.bytes_field(&self.gshare);
        w.u64(self.history);
        w.usize(self.ras.len());
        for &addr in &self.ras {
            w.u64(addr);
        }
        w.u64(self.mispredictions);
        w.u64(self.branches);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"BPRD")?;
        restore_btb(r, "BTB entries", &mut self.btb)?;
        restore_btb(r, "indirect BTB entries", &mut self.indirect_btb)?;
        r.expect_len("loop predictor entries", self.loops.len())?;
        for e in self.loops.iter_mut() {
            *e = LoopEntry::default();
            e.valid = r.bool()?;
            if e.valid {
                e.tag = r.u64()?;
                let narrow = |v: u64| {
                    u32::try_from(v)
                        .map_err(|_| SnapError::Corrupt(format!("loop counter {v} overflows")))
                };
                e.trip_count = narrow(r.u64()?)?;
                e.current = narrow(r.u64()?)?;
                e.confidence = r.u8()?;
            }
        }
        let gshare = r.bytes_field()?;
        if gshare.len() != self.gshare.len() {
            return Err(SnapError::Mismatch(format!(
                "gshare size: snapshot has {}, instance has {}",
                gshare.len(),
                self.gshare.len()
            )));
        }
        self.gshare.copy_from_slice(gshare);
        self.history = r.u64()?;
        let ras_len = r.usize()?;
        if ras_len > Self::RAS_DEPTH {
            return Err(SnapError::Mismatch(format!(
                "RAS depth: snapshot has {ras_len}, instance caps at {}",
                Self::RAS_DEPTH
            )));
        }
        self.ras.clear();
        for _ in 0..ras_len {
            self.ras.push(r.u64()?);
        }
        self.mispredictions = r.u64()?;
        self.branches = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(taken: bool) -> BranchInfo {
        BranchInfo { kind: BranchKind::Conditional, taken, target: VirtAddr::new(0x9000) }
    }

    #[test]
    fn repeated_taken_branch_trains_to_correct() {
        let mut bp = BranchPredictor::default();
        let pc = VirtAddr::new(0x100);
        // First encounter may mispredict (BTB cold); afterwards correct.
        let _ = bp.observe(pc, &cond(true));
        for _ in 0..10 {
            assert!(!bp.observe(pc, &cond(true)), "trained branch mispredicted");
        }
    }

    #[test]
    fn ras_predicts_matching_returns() {
        let mut bp = BranchPredictor::default();
        let call_pc = VirtAddr::new(0x100);
        let callee = VirtAddr::new(0x8000);
        let call = BranchInfo { kind: BranchKind::Call, taken: true, target: callee };
        // Warm the call's BTB entry first.
        bp.observe(call_pc, &call);
        bp.observe(
            VirtAddr::new(0x8004),
            &BranchInfo { kind: BranchKind::Return, taken: true, target: VirtAddr::new(0x104) },
        );
        // Second round: both call and return should predict correctly.
        assert!(!bp.observe(call_pc, &call));
        assert!(!bp.observe(
            VirtAddr::new(0x8004),
            &BranchInfo { kind: BranchKind::Return, taken: true, target: VirtAddr::new(0x104) },
        ));
    }

    #[test]
    fn indirect_predicts_last_target() {
        let mut bp = BranchPredictor::default();
        let pc = VirtAddr::new(0x200);
        let t1 =
            BranchInfo { kind: BranchKind::Indirect, taken: true, target: VirtAddr::new(0x5000) };
        let t2 =
            BranchInfo { kind: BranchKind::Indirect, taken: true, target: VirtAddr::new(0x6000) };
        bp.observe(pc, &t1);
        assert!(!bp.observe(pc, &t1), "repeated target should hit");
        assert!(bp.observe(pc, &t2), "changed target should miss");
        assert!(!bp.observe(pc, &t2), "new target learned");
    }

    #[test]
    fn loop_predictor_captures_trip_count() {
        let mut bp = BranchPredictor::default();
        let pc = VirtAddr::new(0x300);
        // A loop of 5 iterations: 4 taken + 1 not-taken, repeated.
        let run_loop = |bp: &mut BranchPredictor| {
            let mut mispredicts = 0;
            for i in 0..5 {
                let taken = i < 4;
                if bp.observe(pc, &cond(taken)) {
                    mispredicts += 1;
                }
            }
            mispredicts
        };
        // Train several rounds.
        for _ in 0..6 {
            run_loop(&mut bp);
        }
        // Once confident, the loop exit itself is predicted: 0 mispredicts.
        let final_mispredicts = run_loop(&mut bp);
        assert_eq!(final_mispredicts, 0, "loop exit should be predicted");
    }

    #[test]
    fn predict_is_pure() {
        let mut bp = BranchPredictor::default();
        let pc = VirtAddr::new(0x100);
        bp.observe(pc, &cond(true));
        let before_rate = bp.mispredict_rate();
        let snapshot = bp.predict(pc, BranchKind::Conditional);
        for _ in 0..100 {
            assert_eq!(bp.predict(pc, BranchKind::Conditional), snapshot);
        }
        assert_eq!(bp.mispredict_rate(), before_rate);
        assert_eq!(bp.branches(), 1);
    }

    #[test]
    fn mispredict_rate_reflects_random_pattern() {
        let mut bp = BranchPredictor::default();
        let pc = VirtAddr::new(0x400);
        // Deterministic pseudo-random direction sequence.
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bp.observe(pc, &cond(x & 1 == 0));
        }
        let rate = bp.mispredict_rate();
        assert!(rate > 0.3, "random pattern should be hard: rate {rate}");
    }
}
