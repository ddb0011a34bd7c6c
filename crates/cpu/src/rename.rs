//! Register renaming: per-thread map tables over shared physical pools.
//!
//! As in the paper (§3): *"all threads share a common register pool. The
//! decode engine is able to rename instructions from different threads
//! using a per-thread renaming table and a shared common free register
//! pool."* Renaming removes false dependences between threads for free;
//! running out of physical registers stalls dispatch — which is exactly
//! what the Table-1 sizing sweep provisions against.

use crate::config::SizingParams;
use medsim_isa::{LogicalReg, RegClass};

/// A physical register: a flat index over every class's pool (the
/// class's base plus the index within it), so one ready array serves
/// all five classes.
pub type PhysReg = u16;

/// The always-ready flat index: it stands for an absent source or the
/// hard-wired zero register, so an instruction's renamed sources always
/// fill four slots and a readiness test is four loads.
pub const READY: PhysReg = 0;

/// Architectural registers per class, in [`class_idx`] order.
const ARCH_COUNTS: [usize; 5] = [32, 32, 32, 16, 2];

/// Offset of each class's logical registers in a thread's map table.
const ARCH_BASE: [usize; 5] = [0, 32, 64, 96, 112];

/// Map-table entries per thread.
const ARCH_TOTAL: usize = 114;

const _: () = assert!(ARCH_BASE[4] + ARCH_COUNTS[4] == ARCH_TOTAL);

fn class_idx(c: RegClass) -> usize {
    match c {
        RegClass::Int => 0,
        RegClass::Fp => 1,
        RegClass::Simd => 2,
        RegClass::Stream => 3,
        RegClass::Acc => 4,
    }
}

/// Rename state: per-thread tables + shared free lists + ready bits.
#[derive(Debug)]
pub struct RenameFile {
    /// `tables[tid * ARCH_TOTAL + ARCH_BASE[class] + logical]` is the
    /// physical register the logical register maps to.
    tables: Vec<PhysReg>,
    /// Per-class free lists of flat physical registers.
    free: [Vec<PhysReg>; 5],
    /// Ready bit per flat physical register; entry [`READY`] is the
    /// sentinel and always set.
    ready: Vec<bool>,
    /// Class index of each flat physical register (release returns a
    /// register to its own pool).
    class_of: Vec<u8>,
}

impl RenameFile {
    /// Build rename state for `threads` contexts under `sizing`.
    ///
    /// # Panics
    ///
    /// Panics if the pools cannot hold every thread's architectural
    /// state, or if all pools together exceed the flat index range.
    #[must_use]
    pub fn new(threads: usize, sizing: &SizingParams) -> Self {
        let pool_sizes = [
            sizing.int_regs,
            sizing.fp_regs,
            sizing.simd_regs,
            sizing.stream_regs,
            sizing.acc_regs,
        ];
        for (c, (&pool, &arch)) in pool_sizes.iter().zip(ARCH_COUNTS.iter()).enumerate() {
            assert!(
                pool > arch * threads,
                "physical pool {c} too small: {pool} for {threads} threads × {arch} architectural"
            );
        }
        let total = 1 + pool_sizes.iter().sum::<usize>();
        assert!(
            total <= usize::from(PhysReg::MAX),
            "physical pools too large for flat indices: {total}"
        );
        let mut free: [Vec<PhysReg>; 5] = Default::default();
        let mut ready = vec![false; total];
        ready[usize::from(READY)] = true;
        let mut class_of = vec![0u8; total];
        let mut base = 1usize;
        for c in 0..5 {
            let range = base..base + pool_sizes[c];
            class_of[range.clone()].fill(c as u8);
            // Lowest index allocated first.
            free[c] = range.rev().map(|p| p as PhysReg).collect();
            base += pool_sizes[c];
        }
        let mut tables = Vec::with_capacity(threads * ARCH_TOTAL);
        for _ in 0..threads {
            for c in 0..5 {
                for _ in 0..ARCH_COUNTS[c] {
                    let p = free[c].pop().expect("pool sized above");
                    ready[usize::from(p)] = true;
                    tables.push(p);
                }
            }
        }
        RenameFile {
            tables,
            free,
            ready,
            class_of,
        }
    }

    /// Map-table slot of `reg` for thread `tid`.
    #[inline]
    fn slot(tid: usize, reg: LogicalReg) -> usize {
        tid * ARCH_TOTAL + ARCH_BASE[class_idx(reg.class)] + usize::from(reg.index)
    }

    /// Current physical mapping of `reg` for thread `tid`.
    #[must_use]
    #[inline]
    pub fn lookup(&self, tid: usize, reg: LogicalReg) -> PhysReg {
        self.tables[Self::slot(tid, reg)]
    }

    /// Physical register a source operand reads: [`READY`] for an
    /// absent source or the hard-wired zero register.
    #[must_use]
    #[inline]
    pub fn lookup_src(&self, tid: usize, reg: Option<LogicalReg>) -> PhysReg {
        match reg {
            Some(r) if !r.is_zero() => self.lookup(tid, r),
            _ => READY,
        }
    }

    /// Free physical registers remaining in `class`'s pool.
    #[must_use]
    pub fn free_count(&self, class: RegClass) -> usize {
        self.free[class_idx(class)].len()
    }

    /// Rename a destination: allocate a fresh physical register (not
    /// ready), returning `(new, previous)` — the previous mapping is
    /// freed when the instruction commits. Returns `None` when the pool
    /// is empty (dispatch must stall).
    #[inline]
    pub fn allocate(&mut self, tid: usize, reg: LogicalReg) -> Option<(PhysReg, PhysReg)> {
        let new = self.free[class_idx(reg.class)].pop()?;
        self.ready[usize::from(new)] = false;
        let slot = Self::slot(tid, reg);
        let prev = std::mem::replace(&mut self.tables[slot], new);
        Some((new, prev))
    }

    /// Mark a physical register's value available.
    #[inline]
    pub fn mark_ready(&mut self, p: PhysReg) {
        self.ready[usize::from(p)] = true;
    }

    /// Whether a physical register's value is available.
    #[must_use]
    #[inline]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[usize::from(p)]
    }

    /// Whether all four renamed sources (padded with [`READY`]) are
    /// available.
    #[must_use]
    #[inline]
    pub fn sources_ready(&self, srcs: &[PhysReg; 4]) -> bool {
        let r = &self.ready;
        r[usize::from(srcs[0])]
            & r[usize::from(srcs[1])]
            & r[usize::from(srcs[2])]
            & r[usize::from(srcs[3])]
    }

    /// Return a physical register to the free pool (at commit, the
    /// previous mapping of the committing instruction's destination).
    #[inline]
    pub fn release(&mut self, p: PhysReg) {
        debug_assert_ne!(p, READY, "the sentinel is never allocated");
        let c = usize::from(self.class_of[usize::from(p)]);
        debug_assert!(!self.free[c].contains(&p), "double free of p{p}");
        self.free[c].push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsim_isa::regs::{acc, int, simd, stream};

    fn file(threads: usize) -> RenameFile {
        RenameFile::new(threads, &SizingParams::for_threads(threads))
    }

    #[test]
    fn architectural_state_is_mapped_and_ready() {
        let f = file(2);
        for tid in 0..2 {
            for i in 0..32 {
                let p = f.lookup(tid, int(i));
                assert!(f.is_ready(p), "t{tid} r{i}");
            }
            let p = f.lookup(tid, stream(15));
            assert!(f.is_ready(p));
        }
    }

    #[test]
    fn threads_have_disjoint_mappings() {
        let f = file(4);
        let a = f.lookup(0, simd(5));
        let b = f.lookup(1, simd(5));
        assert_ne!(a, b, "same logical register, different threads");
    }

    #[test]
    fn allocate_makes_not_ready_then_ready() {
        let mut f = file(1);
        let (new, prev) = f.allocate(0, int(3)).unwrap();
        assert!(!f.is_ready(new));
        assert!(f.is_ready(prev), "old value still readable");
        assert_eq!(f.lookup(0, int(3)), new);
        f.mark_ready(new);
        assert!(f.is_ready(new));
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut f = file(1);
        let spare = f.free_count(RegClass::Acc);
        for _ in 0..spare {
            assert!(f.allocate(0, acc(0)).is_some());
        }
        assert!(
            f.allocate(0, acc(0)).is_none(),
            "accumulator pool exhausted"
        );
    }

    #[test]
    fn release_recycles() {
        let mut f = file(1);
        let n0 = f.free_count(RegClass::Int);
        let (_, prev) = f.allocate(0, int(1)).unwrap();
        assert_eq!(f.free_count(RegClass::Int), n0 - 1);
        f.release(prev);
        assert_eq!(f.free_count(RegClass::Int), n0);
    }

    #[test]
    fn rename_chain_preserves_dataflow_order() {
        let mut f = file(1);
        let (p1, _) = f.allocate(0, int(7)).unwrap();
        let (p2, prev2) = f.allocate(0, int(7)).unwrap();
        assert_ne!(p1, p2);
        assert_eq!(prev2, p1, "second writer's previous is the first writer");
        assert_eq!(f.lookup(0, int(7)), p2, "readers see the newest mapping");
    }

    #[test]
    fn sentinel_pads_sources_and_is_never_allocated() {
        let mut f = file(1);
        assert_eq!(f.lookup_src(0, None), READY, "absent source");
        assert_eq!(f.lookup_src(0, Some(int(0))), READY, "zero register");
        assert_ne!(f.lookup_src(0, Some(int(5))), READY);
        let (new, _) = f.allocate(0, int(3)).unwrap();
        let srcs = [new, READY, READY, READY];
        assert!(!f.sources_ready(&srcs));
        f.mark_ready(new);
        assert!(f.sources_ready(&srcs));
        while let Some((p, _)) = f.allocate(0, int(4)) {
            assert_ne!(p, READY, "the sentinel is not in any pool");
        }
        assert!(f.is_ready(READY));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_pool_rejected() {
        let mut s = SizingParams::for_threads(8);
        s.stream_regs = 100; // < 16 × 8
        let _ = RenameFile::new(8, &s);
    }
}
