//! Property test: the completion-count wheel must be indistinguishable
//! from a plain priority queue of due cycles.
//!
//! The reference is a `BinaryHeap` over `Reverse(due)`. Random
//! interleaved push/advance/take schedules (including far-future pushes
//! that land in the overflow bucket, and long jumps that cross several
//! wheel rotations at once) must take identical counts, with identical
//! `next_due` answers and identical lengths at every step.

use medsim_cpu::CountWheel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: every pending due cycle, earliest on top.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<u64>>,
}

impl Model {
    fn push(&mut self, due: u64) {
        self.heap.push(Reverse(due));
    }

    fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse(d)| d)
    }

    /// How many events are due at or before `now`, removing them.
    fn take_due(&mut self, now: u64) -> usize {
        let mut taken = 0;
        while self.heap.peek().is_some_and(|&Reverse(d)| d <= now) {
            self.heap.pop();
            taken += 1;
        }
        taken
    }
}

/// The wheel under test and the model, driven in lock step.
struct Pair {
    q: CountWheel,
    model: Model,
}

impl Pair {
    fn new(wheel_slots: usize) -> Self {
        Pair {
            q: CountWheel::new(wheel_slots),
            model: Model::default(),
        }
    }

    fn push(&mut self, due: u64) {
        self.q.push(due);
        self.model.push(due);
    }

    fn next_due(&self) -> Option<u64> {
        let due = self.model.next_due();
        assert_eq!(self.q.next_due(), due, "next_due");
        due
    }

    /// Take both at `now`, assert they agree and leave the same queue
    /// behind, and return the count taken.
    fn take(&mut self, now: u64, ctx: &str) -> usize {
        let got = self.q.take_due(now);
        let want = self.model.take_due(now);
        assert_eq!(got, want, "{ctx} at now={now}");
        assert_eq!(self.q.len(), self.model.heap.len(), "{ctx} len");
        self.next_due();
        got
    }
}

/// One random schedule: returns the counts taken, step by step, for
/// cross-seed sanity.
fn run_schedule(seed: u64, wheel_slots: usize, steps: usize) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pair = Pair::new(wheel_slots);
    let mut now = 0u64;
    let mut trace = Vec::new();

    for step in 0..steps {
        // Advance time: small ticks usually; sometimes jump straight to
        // the earliest pending event (the fast-forward pattern), and
        // occasionally far past a whole wheel rotation.
        now += match rng.gen_range(0..10u32) {
            0..=5 => rng.gen_range(0..3u64),
            6..=7 => pair.next_due().map_or(1, |d| d.saturating_sub(now).max(1)),
            8 => rng.gen_range(0..3 * wheel_slots as u64),
            _ => rng.gen_range(0..8u64),
        };

        // Take everything due, in lock step.
        trace.push(pair.take(now, &format!("step {step}")));

        // Push a burst of events: mostly short-horizon (FU latencies,
        // cache hits), some same-cycle ties, a tail far enough out to
        // overflow the wheel (DRAM-class latencies).
        for _ in 0..rng.gen_range(0..6u32) {
            let offset = match rng.gen_range(0..12u32) {
                0..=6 => rng.gen_range(0..12u64),
                7..=8 => rng.gen_range(0..wheel_slots as u64),
                9 => 0, // due immediately
                _ => rng.gen_range(wheel_slots as u64..4 * wheel_slots as u64),
            };
            pair.push(now + offset);
        }
    }

    // Final drain: everything left comes out one due cycle at a time.
    while let Some(due) = pair.next_due() {
        now = now.max(due);
        let taken = pair.take(now, "final drain");
        assert!(taken > 0, "due event at {now}");
        trace.push(taken);
    }
    assert!(pair.q.is_empty());
    trace
}

#[test]
fn random_schedules_match_the_heap_reference() {
    for seed in 0..20 {
        let trace = run_schedule(seed, 64, 400);
        assert!(
            trace.iter().any(|&n| n > 0),
            "seed {seed} exercised nothing"
        );
    }
}

#[test]
fn default_sized_wheel_matches_too() {
    for seed in 100..104 {
        run_schedule(seed, 256, 300);
    }
}

/// Counts have no order within a cycle, so "FIFO" holds trivially; the
/// test checks that each burst drains whole at its cycle, rotation after
/// rotation.
#[test]
fn same_cycle_bursts_pop_fifo_through_rotations() {
    let mut pair = Pair::new(64);
    let mut now = 0;
    // Many rotations of dense same-cycle bursts.
    for round in 0..50u64 {
        let due = now + 1 + (round % 7);
        for _ in 0..8 {
            pair.push(due);
        }
        // A take before the due cycle finds nothing; the due cycle
        // takes the whole burst.
        now = due - 1;
        assert_eq!(pair.take(now, &format!("round {round}")), 0);
        now = due;
        assert_eq!(pair.take(now, &format!("round {round}")), 8);
    }
    assert!(pair.q.is_empty());
}

#[test]
fn overflow_heavy_schedule_stays_ordered() {
    // Everything lands beyond the horizon, then time sweeps across in
    // jumps that span several due cycles at once.
    let mut pair = Pair::new(64);
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..300 {
        pair.push(rng.gen_range(500..4000u64));
    }
    let mut now = 0;
    while !pair.q.is_empty() {
        now += rng.gen_range(1..40u64);
        pair.take(now, "sweep");
    }
}

#[test]
fn jumps_across_rotations_take_wheel_and_overflow_alike() {
    // Fill the whole horizon and the overflow, then take in jumps of
    // one, several and many rotations of a 64-slot wheel.
    let mut pair = Pair::new(64);
    let mut rng = SmallRng::seed_from_u64(11);
    let mut now = 0;
    for jump in [1u64, 63, 64, 65, 130, 500] {
        for _ in 0..200 {
            pair.push(now + rng.gen_range(0..300u64));
        }
        now += jump;
        pair.take(now, &format!("jump {jump}"));
    }
    while let Some(due) = pair.next_due() {
        now = now.max(due);
        pair.take(now, "final drain");
    }
    assert!(pair.q.is_empty());
}
