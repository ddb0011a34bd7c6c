//! Register renaming: per-thread map tables over shared physical pools.
//!
//! As in the paper (§3): *"all threads share a common register pool. The
//! decode engine is able to rename instructions from different threads
//! using a per-thread renaming table and a shared common free register
//! pool."* Renaming removes false dependences between threads for free;
//! running out of physical registers stalls dispatch — which is exactly
//! what the Table-1 sizing sweep provisions against.

use crate::config::SizingParams;
use crate::Cycle;
use medsim_isa::regs::ZERO_REG;
use medsim_isa::{LogicalReg, RegClass};

/// A physical register: a flat index over every class's pool (the
/// class's base plus the index within it), so one ready array serves
/// all five classes.
pub type PhysReg = u16;

/// The always-ready flat index: it stands for an absent source or the
/// hard-wired zero register, so an instruction's renamed sources always
/// fill four slots and a readiness test is four loads.
pub const READY: PhysReg = 0;

/// Ready cycle of a register whose producer has not issued yet.
const NOT_READY: Cycle = Cycle::MAX;

/// Architectural registers per class, in [`class_idx`] order.
const ARCH_COUNTS: [usize; 5] = [32, 32, 32, 16, 2];

/// Offset of each class's logical registers in a thread's map table,
/// followed by the offset of the entry an absent source reads.
const ARCH_BASE: [usize; 6] = [0, 32, 64, 96, 112, ARCH_TOTAL];

/// Architectural map-table entries per thread.
const ARCH_TOTAL: usize = 114;

/// Map-table entries per thread: the architectural ones plus one that
/// always holds [`READY`], read by an absent source.
const MAP_STRIDE: usize = ARCH_TOTAL + 1;

const _: () = assert!(ARCH_BASE[4] + ARCH_COUNTS[4] == ARCH_TOTAL);

/// Free-list index of the sink [`RenameFile::release`] sends
/// [`READY`] to: a one-slot list that never grows, so releasing "no
/// register" needs no branch.
const SINK: usize = 5;

fn class_idx(c: RegClass) -> usize {
    match c {
        RegClass::Int => 0,
        RegClass::Fp => 1,
        RegClass::Simd => 2,
        RegClass::Stream => 3,
        RegClass::Acc => 4,
    }
}

/// Rename state: per-thread tables + shared free lists + ready cycles.
#[derive(Debug)]
pub struct RenameFile {
    /// `tables[tid * MAP_STRIDE + ARCH_BASE[class] + logical]` is the
    /// physical register the logical register maps to. The hard-wired
    /// zero register maps to [`READY`], as does each thread's extra
    /// absent-source entry.
    tables: Vec<PhysReg>,
    /// Per-class free lists (then the [`SINK`]), stored as fixed
    /// regions of one array: list `c` is `free[free_base[c]..][..free_len[c]]`,
    /// popped and pushed at its end.
    free: Vec<PhysReg>,
    free_base: [usize; 6],
    free_len: [usize; 6],
    /// Cycle from which each flat physical register's value is
    /// available ([`NOT_READY`] until its producer issues). Entry
    /// [`READY`] is the sentinel and holds 0; the last entry is a sink
    /// that absorbs the writes aimed at [`READY`] by instructions
    /// without a destination.
    ready: Vec<Cycle>,
    /// Free-list index of each flat physical register (release returns
    /// a register to its own pool; [`READY`] goes to the [`SINK`]).
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
        // Physical register `p`'s pool region starts where its flat
        // index range does, so `free` has one slot per flat index (slot
        // 0, the sentinel's, is the sink).
        let mut free = vec![READY; total];
        let mut free_base = [0; 6];
        let mut free_len = [0; 6];
        let mut ready = vec![NOT_READY; total + 1];
        ready[usize::from(READY)] = 0;
        let mut class_of = vec![SINK as u8; total];
        let mut base = 1usize;
        for c in 0..5 {
            let range = base..base + pool_sizes[c];
            class_of[range.clone()].fill(c as u8);
            // Lowest index allocated first.
            for (slot, p) in free[range.clone()].iter_mut().zip(range.rev()) {
                *slot = p as PhysReg;
            }
            free_base[c] = base;
            free_len[c] = pool_sizes[c];
            base += pool_sizes[c];
        }
        let mut rf = RenameFile {
            tables: Vec::with_capacity(threads * MAP_STRIDE),
            free,
            free_base,
            free_len,
            ready,
            class_of,
        };
        for _ in 0..threads {
            for (c, &arch) in ARCH_COUNTS.iter().enumerate() {
                for _ in 0..arch {
                    let p = rf.pop_free(c).expect("pool sized above");
                    rf.ready[usize::from(p)] = 0;
                    rf.tables.push(p);
                }
            }
            // The zero register keeps its physical register out of the
            // pool but reads as the sentinel.
            let zero = rf.tables.len() - ARCH_TOTAL + ARCH_BASE[0] + usize::from(ZERO_REG);
            rf.tables[zero] = READY;
            rf.tables.push(READY);
        }
        rf
    }

    /// Pop the most recently freed register of free list `c`.
    #[inline]
    fn pop_free(&mut self, c: usize) -> Option<PhysReg> {
        let len = self.free_len[c].checked_sub(1)?;
        self.free_len[c] = len;
        Some(self.free[self.free_base[c] + len])
    }

    /// Map-table slot of `reg` for thread `tid`.
    #[inline]
    fn slot(tid: usize, reg: LogicalReg) -> usize {
        tid * MAP_STRIDE + ARCH_BASE[class_idx(reg.class)] + usize::from(reg.index)
    }

    /// Current physical mapping of `reg` for thread `tid` ([`READY`]
    /// for the hard-wired zero register).
    #[must_use]
    #[inline]
    pub fn lookup(&self, tid: usize, reg: LogicalReg) -> PhysReg {
        self.tables[Self::slot(tid, reg)]
    }

    /// Physical register a source operand reads: [`READY`] for an
    /// absent source or the hard-wired zero register. Branch-free: an
    /// absent source reads the thread's extra map entry.
    #[must_use]
    #[inline]
    pub fn lookup_src(&self, tid: usize, reg: Option<LogicalReg>) -> PhysReg {
        let (base, index) = match reg {
            Some(r) => (ARCH_BASE[class_idx(r.class)], usize::from(r.index)),
            None => (ARCH_TOTAL, 0),
        };
        self.tables[tid * MAP_STRIDE + base + index]
    }

    /// Free physical registers remaining in `class`'s pool.
    #[must_use]
    pub fn free_count(&self, class: RegClass) -> usize {
        self.free_len[class_idx(class)]
    }

    /// Rename a destination: allocate a fresh physical register (not
    /// ready), returning `(new, previous)` — the previous mapping is
    /// freed when the instruction commits. Returns `None` when the pool
    /// is empty (dispatch must stall).
    #[inline]
    pub fn allocate(&mut self, tid: usize, reg: LogicalReg) -> Option<(PhysReg, PhysReg)> {
        debug_assert!(!reg.is_zero(), "the zero register is never renamed");
        let new = self.pop_free(class_idx(reg.class))?;
        self.ready[usize::from(new)] = NOT_READY;
        let slot = Self::slot(tid, reg);
        let prev = std::mem::replace(&mut self.tables[slot], new);
        Some((new, prev))
    }

    /// Make a physical register's value available from cycle `at`
    /// (its producer issued and completes then). Setting [`READY`] —
    /// an instruction without a destination — writes the sink, taken
    /// without a branch.
    #[inline]
    pub fn set_ready_at(&mut self, p: PhysReg, at: Cycle) {
        let sink = self.ready.len() - 1;
        let i = if p == READY { sink } else { usize::from(p) };
        self.ready[i] = at;
    }

    /// Whether a physical register's value is available at cycle `now`.
    #[must_use]
    #[inline]
    pub fn is_ready(&self, p: PhysReg, now: Cycle) -> bool {
        self.ready[usize::from(p)] <= now
    }

    /// Whether all four renamed sources (padded with [`READY`]) are
    /// available at cycle `now`.
    #[must_use]
    #[inline]
    pub fn sources_ready(&self, srcs: &[PhysReg; 4], now: Cycle) -> bool {
        let r = &self.ready;
        (r[usize::from(srcs[0])] <= now)
            & (r[usize::from(srcs[1])] <= now)
            & (r[usize::from(srcs[2])] <= now)
            & (r[usize::from(srcs[3])] <= now)
    }

    /// Return a physical register to the free pool (at commit, the
    /// previous mapping of the committing instruction's destination).
    /// Releasing [`READY`] — an instruction without a destination — is
    /// a no-op, taken without a branch.
    #[inline]
    pub fn release(&mut self, p: PhysReg) {
        let c = usize::from(self.class_of[usize::from(p)]);
        let len = self.free_len[c];
        debug_assert!(
            p == READY || !self.free[self.free_base[c]..][..len].contains(&p),
            "double free of p{p}"
        );
        self.free[self.free_base[c] + len] = p;
        self.free_len[c] = len + usize::from(p != READY);
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
                assert!(f.is_ready(p, 0), "t{tid} r{i}");
            }
            let p = f.lookup(tid, stream(15));
            assert!(f.is_ready(p, 0));
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
        assert!(!f.is_ready(new, 1_000));
        assert!(f.is_ready(prev, 0), "old value still readable");
        assert_eq!(f.lookup(0, int(3)), new);
        f.set_ready_at(new, 7);
        assert!(!f.is_ready(new, 6), "not before its producer completes");
        assert!(f.is_ready(new, 7));
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
        assert!(!f.sources_ready(&srcs, 1_000));
        f.set_ready_at(new, 3);
        assert!(!f.sources_ready(&srcs, 2));
        assert!(f.sources_ready(&srcs, 3));
        // A write aimed at the sentinel lands in the sink.
        f.set_ready_at(READY, 50);
        assert!(f.is_ready(READY, 0));
        while let Some((p, _)) = f.allocate(0, int(4)) {
            assert_ne!(p, READY, "the sentinel is not in any pool");
        }
        assert!(f.is_ready(READY, 0));
    }

    #[test]
    fn releasing_the_sentinel_is_a_no_op() {
        let mut f = file(1);
        let counts = RegClass::ALL.map(|c| f.free_count(c));
        f.release(READY);
        f.release(READY);
        assert_eq!(RegClass::ALL.map(|c| f.free_count(c)), counts);
        let (new, prev) = f.allocate(0, int(3)).unwrap();
        f.release(prev);
        assert_eq!(
            f.allocate(0, int(4)).unwrap().0,
            prev,
            "last freed, first reused"
        );
        assert_ne!(new, READY);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_pool_rejected() {
        let mut s = SizingParams::for_threads(8);
        s.stream_regs = 100; // < 16 × 8
        let _ = RenameFile::new(8, &s);
    }
}
