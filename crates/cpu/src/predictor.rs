//! Per-thread branch prediction: gshare direction predictor + BTB for
//! indirect targets.
//!
//! Trace-driven modeling: the trace carries the real outcome; the
//! predictor decides whether fetch would have followed it. A
//! misprediction stalls the thread's fetch until the branch resolves
//! (wrong-path instructions are not simulated — the standard
//! trace-driven approximation, noted in DESIGN.md).

/// gshare + BTB predictor state for one thread.
#[derive(Debug, Clone)]
pub struct Predictor {
    history: u64,
    counters: Vec<u8>,
    btb: Vec<(u64, u64)>,
    history_bits: u32,
}

impl Predictor {
    /// Predictor with `2^history_bits` two-bit counters and a same-sized
    /// direct-mapped BTB.
    #[must_use]
    pub fn new(history_bits: u32) -> Self {
        let n = 1usize << history_bits;
        Predictor {
            history: 0,
            counters: vec![2; n],
            btb: vec![(0, 0); n],
            history_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & ((1 << self.history_bits) - 1)) as usize
    }

    /// Predict and train on a conditional branch; returns whether the
    /// prediction matched the actual outcome.
    pub fn predict_conditional(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let counter = self.counters[idx];
        let predicted = counter >= 2;
        // Train the saturating counter without branching on the outcome.
        let up = u8::from(taken & (counter < 3));
        let down = u8::from(!taken & (counter > 0));
        self.counters[idx] = counter + up - down;
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
        predicted == taken
    }

    /// Predict and train an indirect transfer (returns, jump-register):
    /// correct when the BTB holds the right target for this PC.
    pub fn predict_indirect(&mut self, pc: u64, target: u64) -> bool {
        let idx = (pc >> 2) as usize & (self.btb.len() - 1);
        let (tag, pred_target) = self.btb[idx];
        let hit = tag == pc && pred_target == target;
        self.btb[idx] = (pc, target);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_branch() {
        let mut p = Predictor::new(10);
        let mut correct = 0;
        for _ in 0..100 {
            if p.predict_conditional(0x1000, true) {
                correct += 1;
            }
        }
        assert!(correct >= 98, "steady taken branch: {correct}/100");
    }

    #[test]
    fn learns_loop_exit_pattern_imperfectly() {
        let mut p = Predictor::new(10);
        let mut wrong = 0;
        // 9 taken + 1 not-taken, repeated: classic loop branch.
        for _ in 0..30 {
            for i in 0..10 {
                let taken = i != 9;
                if !p.predict_conditional(0x2000, taken) {
                    wrong += 1;
                }
            }
        }
        assert!(wrong > 0, "loop exits must cost something");
        assert!(wrong < 100, "but most iterations predict fine: {wrong}/300");
    }

    #[test]
    fn btb_learns_stable_indirect_targets() {
        let mut p = Predictor::new(8);
        assert!(!p.predict_indirect(0x4000, 0x100), "cold BTB misses");
        assert!(p.predict_indirect(0x4000, 0x100), "then hits");
        assert!(!p.predict_indirect(0x4000, 0x200), "target change misses");
        assert!(p.predict_indirect(0x4000, 0x200));
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = Predictor::new(12);
        for _ in 0..50 {
            p.predict_conditional(0x1000, true);
            p.predict_conditional(0x1004, false);
        }
        // After training, both predict correctly in the same cycle.
        assert!(p.predict_conditional(0x1000, true));
        assert!(p.predict_conditional(0x1004, false));
    }
}
