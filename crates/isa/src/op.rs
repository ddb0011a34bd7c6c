//! The unified operation type and its classifications.
//!
//! [`Op`] wraps the per-class opcode enums into a single type used by
//! [`crate::inst::Inst`]. Two classification axes matter to the pipeline
//! model and the statistics:
//!
//! * [`OpKind`] — the *reporting* class used by the paper's instruction
//!   breakdown (integer / FP / SIMD arithmetic / memory / control);
//! * [`QueueKind`] — which of the four instruction queues of the modeled
//!   processor the instruction is dispatched to (§3, figure 2).

use crate::mmx::MmxOp;
use crate::mom::MomOp;
use crate::scalar::{CtlOp, FpOp, IntOp, MemOp};
use serde::{Deserialize, Serialize};

/// Any operation of any of the three instruction sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Scalar integer ALU operation.
    Int(IntOp),
    /// Scalar floating-point operation.
    Fp(FpOp),
    /// Scalar memory operation.
    Mem(MemOp),
    /// Control transfer.
    Ctl(CtlOp),
    /// MMX-like packed μ-SIMD operation.
    Mmx(MmxOp),
    /// MOM streaming μ-SIMD operation.
    Mom(MomOp),
}

/// Coarse instruction class used for workload characterization
/// (Table 3 of the paper reports: integer, FP, SIMD arithmetic, memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpKind {
    /// Scalar integer arithmetic (including branches, per the paper's
    /// "integer" bucket which holds all the loop/protocol overhead).
    Integer,
    /// Scalar floating point.
    Fp,
    /// SIMD arithmetic (MMX or MOM non-memory ops).
    SimdArith,
    /// Memory (scalar *and* vector loads/stores, per Table 3's single
    /// memory bucket).
    Memory,
}

impl OpKind {
    /// All kinds, in Table 3's row order.
    pub const ALL: [OpKind; 4] = [
        OpKind::Integer,
        OpKind::Fp,
        OpKind::SimdArith,
        OpKind::Memory,
    ];

    /// Row label used when printing Table 3.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            OpKind::Integer => "INT",
            OpKind::Fp => "FP",
            OpKind::SimdArith => "SIMD",
            OpKind::Memory => "MEM",
        }
    }
}

impl core::fmt::Display for OpKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The instruction queue an operation is dispatched to (§3: "Instructions
/// decoded and renamed are distributed by the dispatch logic to the
/// appropriate instruction queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QueueKind {
    /// Integer queue (ALU + control).
    Int,
    /// Memory queue (scalar and vector loads/stores).
    Mem,
    /// Floating-point queue.
    Fp,
    /// Multimedia queue (MMX or MOM arithmetic).
    Simd,
}

impl QueueKind {
    /// All queues in a stable order.
    pub const ALL: [QueueKind; 4] = [
        QueueKind::Int,
        QueueKind::Mem,
        QueueKind::Fp,
        QueueKind::Simd,
    ];
}

impl core::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            QueueKind::Int => "intq",
            QueueKind::Mem => "memq",
            QueueKind::Fp => "fpq",
            QueueKind::Simd => "simdq",
        };
        f.write_str(s)
    }
}

impl Op {
    /// The reporting class of this operation (Table 3 buckets).
    #[must_use]
    pub const fn kind(self) -> OpKind {
        match self {
            Op::Int(_) | Op::Ctl(_) => OpKind::Integer,
            Op::Fp(_) => OpKind::Fp,
            Op::Mem(_) => OpKind::Memory,
            Op::Mmx(m) => {
                if m.is_mem() {
                    OpKind::Memory
                } else {
                    OpKind::SimdArith
                }
            }
            Op::Mom(m) => {
                if m.is_mem() {
                    OpKind::Memory
                } else {
                    OpKind::SimdArith
                }
            }
        }
    }

    /// The instruction queue this operation dispatches to.
    #[must_use]
    pub const fn queue(self) -> QueueKind {
        match self {
            Op::Int(_) | Op::Ctl(_) => QueueKind::Int,
            Op::Fp(_) => QueueKind::Fp,
            Op::Mem(_) => QueueKind::Mem,
            Op::Mmx(m) => {
                if m.is_mem() {
                    QueueKind::Mem
                } else {
                    QueueKind::Simd
                }
            }
            Op::Mom(m) => {
                if m.is_mem() {
                    QueueKind::Mem
                } else {
                    QueueKind::Simd
                }
            }
        }
    }

    /// Whether the operation reads or writes memory.
    #[must_use]
    pub const fn is_mem(self) -> bool {
        match self {
            Op::Mem(_) => true,
            Op::Mmx(m) => m.is_mem(),
            Op::Mom(m) => m.is_mem(),
            _ => false,
        }
    }

    /// Whether the operation writes memory.
    #[must_use]
    pub const fn is_store(self) -> bool {
        match self {
            Op::Mem(m) => m.is_store(),
            Op::Mmx(m) => m.is_store(),
            Op::Mom(m) => m.is_store(),
            _ => false,
        }
    }

    /// Whether the operation is a control transfer.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(self, Op::Ctl(c) if c.is_transfer())
    }

    /// Whether this is a MOM (stream) operation.
    #[must_use]
    pub const fn is_stream(self) -> bool {
        matches!(self, Op::Mom(_))
    }

    /// Whether this is a vector/SIMD operation of either extension
    /// (used by the BALANCE fetch policy to classify fetch groups).
    #[must_use]
    pub const fn is_simd(self) -> bool {
        matches!(self, Op::Mmx(_) | Op::Mom(_))
    }

    /// Global opcode number, unique across all classes (used by the
    /// binary encoding).
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Op::Int(o) => IntOp::ALL.iter().position(|&x| x == o).expect("in ALL") as u16,
            Op::Fp(o) => 0x040 + FpOp::ALL.iter().position(|&x| x == o).expect("in ALL") as u16,
            Op::Mem(o) => 0x080 + MemOp::ALL.iter().position(|&x| x == o).expect("in ALL") as u16,
            Op::Ctl(o) => 0x0c0 + CtlOp::ALL.iter().position(|&x| x == o).expect("in ALL") as u16,
            Op::Mmx(o) => 0x100 + MmxOp::ALL.iter().position(|&x| x == o).expect("in ALL") as u16,
            Op::Mom(o) => 0x200 + MomOp::ALL.iter().position(|&x| x == o).expect("in ALL") as u16,
        }
    }

    /// Inverse of [`Op::code`]. Returns `None` for unassigned numbers.
    #[must_use]
    pub fn from_code(code: u16) -> Option<Op> {
        let idx = (code & 0x3f) as usize;
        match code & !0x3f {
            0x000 => IntOp::ALL.get(idx).copied().map(Op::Int),
            0x040 => FpOp::ALL.get(idx).copied().map(Op::Fp),
            0x080 => MemOp::ALL.get(idx).copied().map(Op::Mem),
            0x0c0 => CtlOp::ALL.get(idx).copied().map(Op::Ctl),
            0x100 | 0x140 => {
                let idx = (code - 0x100) as usize;
                MmxOp::ALL.get(idx).copied().map(Op::Mmx)
            }
            0x200 | 0x240 => {
                let idx = (code - 0x200) as usize;
                MomOp::ALL.get(idx).copied().map(Op::Mom)
            }
            _ => None,
        }
    }

    /// Mnemonic of the wrapped opcode.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Int(o) => o.mnemonic(),
            Op::Fp(o) => o.mnemonic(),
            Op::Mem(o) => o.mnemonic(),
            Op::Ctl(o) => o.mnemonic(),
            Op::Mmx(o) => o.mnemonic(),
            Op::Mom(o) => o.mnemonic(),
        }
    }

    /// Iterate over every operation of every class (used by encode/disasm
    /// exhaustive tests).
    pub fn all() -> impl Iterator<Item = Op> {
        IntOp::ALL
            .iter()
            .map(|&o| Op::Int(o))
            .chain(FpOp::ALL.iter().map(|&o| Op::Fp(o)))
            .chain(MemOp::ALL.iter().map(|&o| Op::Mem(o)))
            .chain(CtlOp::ALL.iter().map(|&o| Op::Ctl(o)))
            .chain(MmxOp::ALL.iter().map(|&o| Op::Mmx(o)))
            .chain(MomOp::ALL.iter().map(|&o| Op::Mom(o)))
    }
}

impl core::fmt::Display for Op {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn code_round_trips_for_every_op() {
        for op in Op::all() {
            let code = op.code();
            assert_eq!(Op::from_code(code), Some(op), "code {code:#x}");
        }
    }

    #[test]
    fn codes_are_unique() {
        let codes: HashSet<u16> = Op::all().map(Op::code).collect();
        assert_eq!(codes.len(), Op::all().count());
    }

    #[test]
    fn unknown_codes_decode_to_none() {
        assert_eq!(Op::from_code(0x3ff), None);
        assert_eq!(Op::from_code(0xfff), None);
    }

    #[test]
    fn kinds_match_table3_buckets() {
        assert_eq!(Op::Int(IntOp::Add).kind(), OpKind::Integer);
        assert_eq!(Op::Ctl(CtlOp::Beq).kind(), OpKind::Integer);
        assert_eq!(Op::Fp(FpOp::FMul).kind(), OpKind::Fp);
        assert_eq!(Op::Mmx(MmxOp::PaddW).kind(), OpKind::SimdArith);
        assert_eq!(Op::Mmx(MmxOp::LoadQ).kind(), OpKind::Memory);
        assert_eq!(Op::Mom(MomOp::VmaddWd).kind(), OpKind::SimdArith);
        assert_eq!(Op::Mom(MomOp::VloadStride).kind(), OpKind::Memory);
        assert_eq!(Op::Mem(MemOp::LoadW).kind(), OpKind::Memory);
    }

    #[test]
    fn queues_match_figure2() {
        assert_eq!(Op::Int(IntOp::Add).queue(), QueueKind::Int);
        assert_eq!(Op::Ctl(CtlOp::Jump).queue(), QueueKind::Int);
        assert_eq!(Op::Fp(FpOp::FAdd).queue(), QueueKind::Fp);
        assert_eq!(Op::Mem(MemOp::StoreB).queue(), QueueKind::Mem);
        assert_eq!(Op::Mmx(MmxOp::PmaddWd).queue(), QueueKind::Simd);
        assert_eq!(Op::Mmx(MmxOp::StoreQ).queue(), QueueKind::Mem);
        assert_eq!(Op::Mom(MomOp::AccMacW).queue(), QueueKind::Simd);
        assert_eq!(Op::Mom(MomOp::VloadQ).queue(), QueueKind::Mem);
    }

    #[test]
    fn simd_and_stream_predicates() {
        assert!(Op::Mmx(MmxOp::PaddB).is_simd());
        assert!(Op::Mom(MomOp::VaddB).is_simd());
        assert!(!Op::Int(IntOp::Add).is_simd());
        assert!(Op::Mom(MomOp::VaddB).is_stream());
        assert!(!Op::Mmx(MmxOp::PaddB).is_stream());
    }

    #[test]
    fn store_predicates() {
        assert!(Op::Mem(MemOp::StoreD).is_store());
        assert!(Op::Mmx(MmxOp::StoreQ).is_store());
        assert!(Op::Mom(MomOp::VstoreStride).is_store());
        assert!(!Op::Mem(MemOp::LoadD).is_store());
    }
}
