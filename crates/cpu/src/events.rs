//! The **event turn**: a stretch of the instruction stream reduced to
//! what the policy-dependent half of the machine needs of it.
//!
//! Everything the core does *before* a cache latency comes back — the
//! branch predictor, the pseudo-FDIP scan over the lookahead window,
//! fetch-line tracking — is a function of the instruction stream alone,
//! so it is the same under every cache policy. A frontend that runs
//! once per workload ([`crate::Core::digest_batch`]) writes down what
//! it decided, one [`InstrEvent`] per instruction that *has* an event:
//!
//! * the fetch moved to a new line, with the PCs the FDIP scan would
//!   prefetch from there;
//! * a branch resolved mispredicted;
//! * a memory operand;
//! * a synthetic execution stall.
//!
//! An instruction with none of these only advances the clock by the
//! dispatch cost, so it is not written down at all: each record counts
//! the event-free instructions before it. [`crate::Core::execute`] runs
//! a turn against a real backend with no predictor and no lookahead
//! window, bit-identically to the fused loop.
//!
//! A record carries addresses as the program issues them: virtual. What
//! else the stream alone decides of them depends on the machine's page
//! size — which frame backs an anonymous page, what the stride
//! prefetcher proposes — so a record does not carry it: the simulator
//! resolves it once per page size and hands it to each machine as a
//! column beside the records, which stay as they are, one 40-byte
//! [`InstrEvent`] each. The backend asks for it access by access, in the
//! order [`crate::Core::execute`] issues them.

use trrip_mem::VirtAddr;

use crate::core::CoreConfig;
use crate::topdown::StallClass;
use crate::trace::{MemOp, TraceInstr};

const FETCH: u8 = 1 << 0;
const MISPREDICT: u8 = 1 << 1;
const MEM: u8 = 1 << 2;
const STORE: u8 = 1 << 3;
const STALL: u8 = 1 << 4;

/// One instruction that has at least one event, and the run of
/// event-free instructions before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrEvent {
    pub(crate) quiet: u32,
    flags: u8,
    fdip_len: u8,
    stall_class: StallClass,
    stall_cycles: u8,
    pc: VirtAddr,
    mem_addr: VirtAddr,
    /// The FDIP scan's PCs: as many as it may issue,
    /// [`CoreConfig::FDIP_MAX_LINES`].
    fdip: [u64; CoreConfig::FDIP_MAX_LINES],
}

impl InstrEvent {
    const NONE: InstrEvent = InstrEvent {
        quiet: 0,
        flags: 0,
        fdip_len: 0,
        stall_class: StallClass::Other,
        stall_cycles: 0,
        pc: VirtAddr::new(0),
        mem_addr: VirtAddr::new(0),
        fdip: [0; CoreConfig::FDIP_MAX_LINES],
    };

    /// Event-free instructions between the previous record (or the
    /// start of the turn) and this instruction.
    #[must_use]
    pub fn quiet(&self) -> u32 {
        self.quiet
    }

    /// The instruction's PC.
    #[must_use]
    pub fn pc(&self) -> VirtAddr {
        self.pc
    }

    /// Whether the fetch moved to a new line at this instruction.
    #[must_use]
    pub fn fetch(&self) -> bool {
        self.flags & FETCH != 0
    }

    /// The PCs the FDIP scan prefetches after this instruction's fetch,
    /// in issue order (empty unless [`InstrEvent::fetch`]).
    #[must_use]
    pub fn fdip_pcs(&self) -> &[u64] {
        &self.fdip[..usize::from(self.fdip_len)]
    }

    /// Whether this instruction is a branch that resolved mispredicted.
    #[must_use]
    pub fn mispredicted(&self) -> bool {
        self.flags & MISPREDICT != 0
    }

    /// The memory operand, if any.
    #[must_use]
    pub fn mem(&self) -> Option<MemOp> {
        (self.flags & MEM != 0)
            .then_some(MemOp { addr: self.mem_addr, store: self.flags & STORE != 0 })
    }

    /// The synthetic execution stall, if any.
    #[must_use]
    pub fn stall(&self) -> Option<(StallClass, u8)> {
        (self.flags & STALL != 0).then_some((self.stall_class, self.stall_cycles))
    }
}

/// A run of consecutive instructions as event records, plus the branch
/// counts of the frontend that resolved them (a cell that executes
/// turns consults no predictor, so its branch statistics come from
/// here).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTurn {
    events: Vec<InstrEvent>,
    /// Event-free instructions after the last record.
    tail: u64,
    instructions: u64,
    branches: u64,
    mispredictions: u64,
}

impl EventTurn {
    /// An empty turn.
    #[must_use]
    pub fn new() -> EventTurn {
        EventTurn::default()
    }

    /// Empties the turn, keeping its allocation.
    pub fn clear(&mut self) {
        self.events.clear();
        self.tail = 0;
        self.instructions = 0;
        self.branches = 0;
        self.mispredictions = 0;
    }

    /// The records, in stream order.
    #[must_use]
    pub fn events(&self) -> &[InstrEvent] {
        &self.events
    }

    /// Event-free instructions after the last record.
    #[must_use]
    pub fn tail(&self) -> u64 {
        self.tail
    }

    /// Instructions the turn covers, with and without events.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Dynamic branches among them.
    #[must_use]
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Mispredicted branches among them.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Appends one instruction: a record if it has an event, one more
    /// event-free instruction otherwise. `fdip_pcs` is `Some` when the
    /// fetch moves to a new line at `instr`, with the PCs the FDIP scan
    /// prefetches from there; `mispredicted` is `Some` when `instr` is
    /// a branch, with how it resolved. The memory operand and the
    /// synthetic stall are the instruction's own.
    ///
    /// # Panics
    ///
    /// Panics if `fdip_pcs` holds more than
    /// [`CoreConfig::FDIP_MAX_LINES`] PCs, or if 2³² event-free
    /// instructions precede a record.
    #[inline]
    pub fn record(
        &mut self,
        instr: &TraceInstr,
        fdip_pcs: Option<&[u64]>,
        mispredicted: Option<bool>,
    ) {
        self.instructions += 1;
        let mut event = InstrEvent { pc: instr.pc, ..InstrEvent::NONE };
        if let Some(pcs) = fdip_pcs {
            event.flags |= FETCH;
            event.fdip_len = pcs.len() as u8;
            event.fdip[..pcs.len()].copy_from_slice(pcs);
        }
        if let Some(mispredicted) = mispredicted {
            self.branches += 1;
            if mispredicted {
                self.mispredictions += 1;
                event.flags |= MISPREDICT;
            }
        }
        if let Some(mem) = instr.mem {
            event.flags |= if mem.store { MEM | STORE } else { MEM };
            event.mem_addr = mem.addr;
        }
        if let Some((class, cycles)) = instr.exec_stall {
            event.flags |= STALL;
            event.stall_class = class;
            event.stall_cycles = cycles;
        }
        if event.flags == 0 {
            self.tail += 1;
        } else {
            event.quiet =
                u32::try_from(self.tail).expect("an event-free run fits a record's count");
            self.tail = 0;
            self.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record is no bigger than the instruction it stands for, and
    /// only about half the instructions of a proxy have one.
    #[test]
    fn a_record_is_no_bigger_than_an_instruction() {
        assert_eq!(std::mem::size_of::<InstrEvent>(), 40);
        assert!(std::mem::size_of::<InstrEvent>() <= std::mem::size_of::<crate::TraceInstr>());
    }

    #[test]
    fn only_instructions_with_events_become_records() {
        let busy = TraceInstr {
            mem: TraceInstr::store(0x1040, 0x9000).mem,
            exec_stall: Some((StallClass::Depend, 7)),
            ..TraceInstr::jump(0x1040, 0x2000)
        };
        let mut turn = EventTurn::new();
        turn.record(&TraceInstr::simple(0x1038), None, None);
        turn.record(&TraceInstr::simple(0x103c), None, None);
        turn.record(&busy, Some(&[0x1080, 0x10c0]), Some(true));
        // A predicted branch is counted, but is no event.
        turn.record(&TraceInstr::cond(0x2000, false, 0x3000), None, Some(false));
        turn.record(&TraceInstr::load(0x2004, 0x9008), None, None);
        turn.record(&TraceInstr::simple(0x2008), None, None);

        assert_eq!(turn.instructions(), 6);
        assert_eq!((turn.branches(), turn.mispredictions()), (2, 1));
        assert_eq!(turn.tail(), 1);
        let [all, load] = turn.events() else { panic!("two records: {:?}", turn.events()) };
        assert_eq!(all.quiet, 2);
        assert!(all.fetch() && all.mispredicted());
        assert_eq!(all.pc().raw(), 0x1040);
        assert_eq!(all.fdip_pcs(), [0x1080, 0x10c0]);
        assert_eq!(all.mem(), Some(MemOp { addr: VirtAddr::new(0x9000), store: true }));
        assert_eq!(all.stall(), Some((StallClass::Depend, 7)));
        assert_eq!(load.quiet, 1);
        assert!(!load.fetch() && !load.mispredicted() && load.stall().is_none());
        assert!(load.fdip_pcs().is_empty());
        assert_eq!(load.pc().raw(), 0x2004);
        assert_eq!(load.mem(), Some(MemOp { addr: VirtAddr::new(0x9008), store: false }));

        turn.clear();
        assert_eq!(turn, EventTurn::new());
    }

    #[test]
    #[should_panic(expected = "out of range for slice of length 2")]
    fn a_fourth_fdip_prefetch_does_not_fit_a_record() {
        EventTurn::new().record(&TraceInstr::simple(0x1000), Some(&[1, 2, 3, 4]), None);
    }
}
