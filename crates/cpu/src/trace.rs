//! The instruction trace format.
//!
//! A trace is a stream of [`TraceInstr`] records — one per dynamic
//! instruction — produced by `trrip-workloads`' CFG walker (the stand-in
//! for the paper's Pin-captured traces). Instructions carry their fetch
//! PC, optional control-flow metadata, at most one memory operand, and an
//! optional synthetic execution stall used to model backend behaviours
//! (dependencies, issue-queue pressure) that an address trace cannot
//! express.

use serde::{Deserialize, Serialize};
use trrip_mem::VirtAddr;

use crate::topdown::StallClass;

/// Fixed instruction size (ARM-style fixed-width encoding).
pub const INSTR_BYTES: u64 = 4;

/// Control-flow class of a branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct branch.
    Direct,
    /// Indirect jump (target from a register).
    Indirect,
    /// Direct call (pushes a return address).
    Call,
    /// Indirect call.
    IndirectCall,
    /// Function return.
    Return,
}

impl BranchKind {
    /// Whether the branch target comes from a register/memory rather than
    /// the instruction encoding.
    #[must_use]
    pub fn is_indirect(self) -> bool {
        matches!(self, BranchKind::Indirect | BranchKind::IndirectCall | BranchKind::Return)
    }

    /// Whether the branch pushes a return address.
    #[must_use]
    pub fn is_call(self) -> bool {
        matches!(self, BranchKind::Call | BranchKind::IndirectCall)
    }
}

/// Resolved control-flow outcome of one dynamic branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Branch class.
    pub kind: BranchKind,
    /// Whether the branch was taken.
    pub taken: bool,
    /// Target when taken.
    pub target: VirtAddr,
}

/// A memory operand of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemOp {
    /// Virtual effective address.
    pub addr: VirtAddr,
    /// Store (`true`) or load (`false`).
    pub store: bool,
}

/// One dynamic instruction in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceInstr {
    /// Virtual fetch PC.
    pub pc: VirtAddr,
    /// Control flow, if this instruction is a branch.
    pub branch: Option<BranchInfo>,
    /// Memory operand, if any.
    pub mem: Option<MemOp>,
    /// Synthetic backend stall: `(class, cycles)`. Models data
    /// dependencies and issue-queue pressure the address trace cannot
    /// carry (see DESIGN.md substitutions).
    pub exec_stall: Option<(StallClass, u8)>,
}

impl TraceInstr {
    /// A plain non-branch, non-memory instruction at `pc`.
    #[must_use]
    pub fn simple(pc: u64) -> TraceInstr {
        TraceInstr { pc: VirtAddr::new(pc), branch: None, mem: None, exec_stall: None }
    }

    /// A taken direct branch to `target`.
    #[must_use]
    pub fn jump(pc: u64, target: u64) -> TraceInstr {
        TraceInstr {
            branch: Some(BranchInfo {
                kind: BranchKind::Direct,
                taken: true,
                target: VirtAddr::new(target),
            }),
            ..TraceInstr::simple(pc)
        }
    }

    /// A conditional branch at `pc`.
    #[must_use]
    pub fn cond(pc: u64, taken: bool, target: u64) -> TraceInstr {
        TraceInstr {
            branch: Some(BranchInfo {
                kind: BranchKind::Conditional,
                taken,
                target: VirtAddr::new(target),
            }),
            ..TraceInstr::simple(pc)
        }
    }

    /// A load from `addr` at `pc`.
    #[must_use]
    pub fn load(pc: u64, addr: u64) -> TraceInstr {
        TraceInstr {
            mem: Some(MemOp { addr: VirtAddr::new(addr), store: false }),
            ..TraceInstr::simple(pc)
        }
    }

    /// A store to `addr` at `pc`.
    #[must_use]
    pub fn store(pc: u64, addr: u64) -> TraceInstr {
        TraceInstr {
            mem: Some(MemOp { addr: VirtAddr::new(addr), store: true }),
            ..TraceInstr::simple(pc)
        }
    }

    /// The PC of the instruction that follows in program order.
    #[must_use]
    pub fn next_pc(&self) -> VirtAddr {
        match self.branch {
            Some(b) if b.taken => b.target,
            _ => self.pc + INSTR_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_pc_follows_taken_branches() {
        assert_eq!(TraceInstr::simple(0x100).next_pc().raw(), 0x104);
        assert_eq!(TraceInstr::jump(0x100, 0x900).next_pc().raw(), 0x900);
        assert_eq!(TraceInstr::cond(0x100, false, 0x900).next_pc().raw(), 0x104);
        assert_eq!(TraceInstr::cond(0x100, true, 0x900).next_pc().raw(), 0x900);
    }

    #[test]
    fn kind_predicates() {
        assert!(BranchKind::Return.is_indirect());
        assert!(BranchKind::IndirectCall.is_indirect());
        assert!(!BranchKind::Conditional.is_indirect());
        assert!(BranchKind::Call.is_call());
        assert!(!BranchKind::Return.is_call());
    }

    #[test]
    fn helpers_set_operands() {
        let ld = TraceInstr::load(0x10, 0x8000);
        assert!(!ld.mem.unwrap().store);
        let st = TraceInstr::store(0x10, 0x8000);
        assert!(st.mem.unwrap().store);
    }
}
