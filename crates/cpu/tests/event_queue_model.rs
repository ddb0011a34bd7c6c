//! Property test: the calendar queue must be indistinguishable from a
//! totally ordered reference model.
//!
//! The reference is a `BinaryHeap` over `Reverse((due, seq, id))` — a
//! priority queue that breaks same-cycle ties by push order, i.e. the
//! FIFO-within-a-cycle contract the wheel promises. Random interleaved
//! push/advance/drain schedules (including far-future pushes that land
//! in the overflow bucket, and long jumps that cross several wheel
//! rotations at once) must drain identical events, with identical
//! `next_due` answers and identical lengths at every step.
//!
//! `drain_due` promises FIFO order within one due cycle and leaves the
//! order across due cycles open (the pipeline drains every cycle, so it
//! never sees more than one). When `now` jumps several cycles, the
//! wheel's output is therefore grouped by due cycle — a stable sort,
//! which keeps the within-cycle order it is checking — before it is
//! compared with the model's total `(due, seq)` order.

use medsim_cpu::EventQueue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Reference model: totally ordered by `(due, push sequence)`.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl Model {
    fn push(&mut self, due: u64, id: u32) {
        self.seq += 1;
        self.heap.push(Reverse((due, self.seq, id)));
    }

    fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((d, _, _))| d)
    }

    /// Every event due at or before `now` as `(due, id)`, in
    /// `(due, seq)` order.
    fn drain_due(&mut self, now: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(&Reverse((d, _, id))) = self.heap.peek() {
            if d > now {
                break;
            }
            self.heap.pop();
            out.push((d, id));
        }
        out
    }
}

/// The queue under test and the model, driven in lock step.
struct Pair {
    q: EventQueue,
    model: Model,
    /// Due cycle of every pushed id, to group the wheel's output.
    due_of: HashMap<u32, u64>,
    out: Vec<u32>,
}

impl Pair {
    fn new(wheel_slots: usize) -> Self {
        Pair {
            q: EventQueue::new(wheel_slots),
            model: Model::default(),
            due_of: HashMap::new(),
            out: Vec::new(),
        }
    }

    fn push(&mut self, due: u64, id: u32) {
        self.q.push(due, id);
        self.model.push(due, id);
        self.due_of.insert(id, due);
    }

    fn next_due(&self) -> Option<u64> {
        let due = self.model.next_due();
        assert_eq!(self.q.next_due(), due, "next_due");
        due
    }

    /// Drain both at `now`, assert they agree (per due cycle, in FIFO
    /// order) and leave the same queue behind, and return the drained
    /// `(due, id)` pairs.
    fn drain(&mut self, now: u64, ctx: &str) -> Vec<(u64, u32)> {
        self.out.clear();
        self.q.drain_due(now, &mut self.out);
        let mut got: Vec<(u64, u32)> = self.out.iter().map(|&id| (self.due_of[&id], id)).collect();
        got.sort_by_key(|&(due, _)| due);
        let want = self.model.drain_due(now);
        assert_eq!(got, want, "{ctx} at now={now}");
        assert_eq!(self.q.len(), self.model.heap.len(), "{ctx} len");
        self.next_due();
        got
    }
}

/// One random schedule: returns the full drain trace for cross-seed
/// sanity.
fn run_schedule(seed: u64, wheel_slots: usize, steps: usize) -> Vec<(u64, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pair = Pair::new(wheel_slots);
    let mut now = 0u64;
    let mut next_id = 0u32;
    let mut trace = Vec::new();

    for step in 0..steps {
        // Advance time: small ticks usually; sometimes jump straight to
        // the earliest pending event (the fast-forward pattern), and
        // occasionally far past a whole wheel rotation.
        now += match rng.gen_range(0..10u32) {
            0..=5 => rng.gen_range(0..3u64),
            6..=7 => pair.next_due().map_or(1, |d| d.saturating_sub(now).max(1)),
            8 => rng.gen_range(0..2 * wheel_slots as u64),
            _ => rng.gen_range(0..8u64),
        };

        // Drain everything due, in lock step.
        trace.extend(pair.drain(now, &format!("step {step}")));

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
            next_id += 1;
            pair.push(now + offset, next_id);
        }
    }

    // Final drain: everything left must come out in model order, one
    // due cycle at a time.
    while let Some(due) = pair.next_due() {
        now = now.max(due);
        let drained = pair.drain(now, "final drain");
        assert!(!drained.is_empty(), "due event at {now}");
        trace.extend(drained);
    }
    assert!(pair.q.is_empty());
    trace
}

#[test]
fn random_schedules_match_the_heap_reference() {
    for seed in 0..20 {
        let trace = run_schedule(seed, 64, 400);
        assert!(!trace.is_empty(), "seed {seed} exercised nothing");
    }
}

#[test]
fn default_sized_wheel_matches_too() {
    for seed in 100..104 {
        run_schedule(seed, 256, 300);
    }
}

#[test]
fn same_cycle_bursts_pop_fifo_through_rotations() {
    let mut pair = Pair::new(64);
    let mut id = 0u32;
    let mut now = 0;
    // Many rotations of dense same-cycle bursts.
    for round in 0..50u64 {
        let due = now + 1 + (round % 7);
        for _ in 0..8 {
            id += 1;
            pair.push(due, id);
        }
        // A drain before the due cycle finds nothing; the due cycle
        // drains the whole burst.
        now = due - 1;
        assert!(pair.drain(now, &format!("round {round}")).is_empty());
        now = due;
        assert_eq!(pair.drain(now, &format!("round {round}")).len(), 8);
    }
    assert!(pair.q.is_empty());
}

#[test]
fn overflow_heavy_schedule_stays_ordered() {
    // Everything lands beyond the horizon, then time sweeps across in
    // jumps that span several due cycles at once.
    let mut pair = Pair::new(64);
    let mut rng = SmallRng::seed_from_u64(7);
    for id in 1..=300u32 {
        let due = rng.gen_range(500..4000u64);
        pair.push(due, id);
    }
    let mut now = 0;
    while !pair.q.is_empty() {
        now += rng.gen_range(1..40u64);
        pair.drain(now, "sweep");
    }
}
