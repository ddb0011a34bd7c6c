//! Completion-event scheduling for the pipeline.
//!
//! The completion set has a very particular shape: almost every event is
//! scheduled a handful of cycles ahead (functional-unit latencies, cache
//! hits), a thin tail reaches hundreds of cycles out (DRAM misses, long
//! vector streams), and `complete()` drains *all* events due at the
//! current cycle, every cycle. A comparison-based heap pays `O(log n)`
//! per operation for ordering generality this workload never uses; a
//! **calendar queue** (single-level timing wheel with an overflow bucket)
//! makes both insert and drain `O(1)` per event for the short-horizon
//! bulk:
//!
//! * events due within the wheel horizon (`slots` cycles, default 256)
//!   land in the slot `due mod slots` — because the wheel only ever holds
//!   dues inside one horizon window, every slot holds exactly one cycle's
//!   events, in FIFO push order;
//! * far-future events go to a small binary-heap **overflow bucket**,
//!   ordered by `(due, push sequence)`; they are drained straight from
//!   the bucket when their time comes, so correctness never depends on
//!   migrating them into the wheel;
//! * an occupancy bitmap (one bit per slot) makes "earliest wheel event"
//!   a couple of word scans — that is the `next_due` query the idle
//!   fast-forward uses to jump over provably dead cycles.
//!
//! Within one cycle, events drain in **FIFO push order**. For equal dues
//! split across wheel and overflow, the overflow entries are always the
//! older ones (an event can only land in overflow while the horizon ends
//! *before* its due cycle, i.e. strictly earlier than any wheel push of
//! that same due), so draining the bucket first preserves global FIFO.
//!
//! [`CompletionQueue`] wraps the wheel together with the seed
//! implementation's `BinaryHeap` as a selectable **reference scheduler**
//! (`MEDSIM_SCHED=heap`): the differential tests prove the two produce
//! bitwise-identical simulations.

use crate::Cycle;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default number of wheel slots (cycles of horizon). Covers every
/// functional-unit latency and L1/L2 hit comfortably; only DRAM round
/// trips and pathological bank pile-ups overflow.
pub const DEFAULT_WHEEL_SLOTS: usize = 256;

/// Which completion scheduler the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Calendar queue / timing wheel (the default).
    Wheel,
    /// The seed implementation's binary heap, kept as the reference
    /// model for differential testing.
    Heap,
}

impl SchedulerKind {
    /// Scheduler selected by the `MEDSIM_SCHED` environment variable
    /// (`heap` for the reference; anything else, or unset, is the wheel).
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MEDSIM_SCHED") {
            Ok(v) if v.eq_ignore_ascii_case("heap") => SchedulerKind::Heap,
            _ => SchedulerKind::Wheel,
        }
    }
}

/// Wheel slot count from `MEDSIM_WHEEL_SLOTS` (rounded up to a power of
/// two, clamped to a sane range), defaulting to [`DEFAULT_WHEEL_SLOTS`].
#[must_use]
pub fn wheel_slots_from_env() -> usize {
    std::env::var("MEDSIM_WHEEL_SLOTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(DEFAULT_WHEEL_SLOTS, |n| n.clamp(64, 1 << 16))
}

/// A calendar queue over `(due cycle, event id)` pairs.
///
/// Contract (matched by how the pipeline drives it): `push` dues are
/// never in the past, and the owner drains everything due at or before
/// `now` ([`EventQueue::drain_due`]) before time advances past it —
/// `complete()` does exactly that every simulated cycle.
#[derive(Debug)]
pub struct EventQueue {
    /// `slots` FIFO buckets; slot `s` holds the events due at the unique
    /// cycle `d` in the current horizon window with `d mod slots == s`.
    /// Buckets are plain `Vec`s in push order, emptied whole by
    /// [`EventQueue::drain_due`].
    wheel: Vec<Vec<u32>>,
    /// Occupancy bitmap over the wheel, one bit per slot.
    occ: Vec<u64>,
    /// `slots - 1` (slot count is a power of two).
    mask: u64,
    /// Events due at or beyond the horizon, ordered by `(due, seq)`.
    overflow: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    /// Lower edge of the horizon window `[base, base + slots)`. Advances
    /// lazily: whenever a drain finds nothing due, `base` snaps to `now`.
    base: Cycle,
    /// Push sequence counter (FIFO tie-break inside the overflow).
    seq: u64,
    /// Events currently in the wheel (not counting the overflow).
    wheel_len: usize,
}

impl EventQueue {
    /// Create a queue with `slots` wheel slots (rounded up to a power of
    /// two, at least 64).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let slots = slots.clamp(64, 1 << 20).next_power_of_two();
        EventQueue {
            wheel: (0..slots).map(|_| Vec::new()).collect(),
            occ: vec![0; slots / 64],
            mask: slots as u64 - 1,
            overflow: BinaryHeap::new(),
            base: 0,
            seq: 0,
            wheel_len: 0,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule event `id` for cycle `due`.
    pub fn push(&mut self, due: Cycle, id: u32) {
        debug_assert!(due >= self.base, "event scheduled in the past");
        self.seq += 1;
        let horizon = self.base + self.wheel.len() as u64;
        if due < horizon {
            let slot = (due & self.mask) as usize;
            debug_assert!(
                self.wheel[slot].is_empty() || self.slot_due(slot) == due,
                "wheel slot must hold a single due cycle"
            );
            self.wheel[slot].push(id);
            self.occ[slot >> 6] |= 1 << (slot & 63);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((due, self.seq, id)));
        }
    }

    /// The due cycle of the events in `slot` (which must be occupied):
    /// the unique cycle in the horizon window congruent to `slot`.
    fn slot_due(&self, slot: usize) -> Cycle {
        let base_slot = self.base & self.mask;
        let dist = (slot as u64).wrapping_sub(base_slot) & self.mask;
        self.base + dist
    }

    /// Earliest occupied wheel slot in horizon order, with its due cycle.
    fn wheel_min(&self) -> Option<(Cycle, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let words = self.occ.len();
        let base_slot = (self.base & self.mask) as usize;
        let (w0, b0) = (base_slot >> 6, base_slot & 63);
        // Bits at or after `base_slot` inside its word, then the
        // following words wrapping around, then the low bits of the
        // first word — circular scan in horizon order.
        let head = self.occ[w0] & (!0u64 << b0);
        if head != 0 {
            let slot = (w0 << 6) + head.trailing_zeros() as usize;
            return Some((self.slot_due(slot), slot));
        }
        for step in 1..words {
            let w = (w0 + step) % words;
            if self.occ[w] != 0 {
                let slot = (w << 6) + self.occ[w].trailing_zeros() as usize;
                return Some((self.slot_due(slot), slot));
            }
        }
        let tail = self.occ[w0] & !(!0u64 << b0);
        debug_assert_ne!(tail, 0, "wheel_len > 0 but no occupied slot");
        let slot = (w0 << 6) + tail.trailing_zeros() as usize;
        Some((self.slot_due(slot), slot))
    }

    /// Cycle of the earliest pending event, if any — the idle
    /// fast-forward's wake-up query.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        let wheel = self.wheel_min().map(|(d, _)| d);
        let over = self.overflow.peek().map(|&Reverse((d, _, _))| d);
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Append every event due at or before `now` to `out`, then slide
    /// the horizon window up to `now` (every entry left is strictly in
    /// the future, so future pushes stay `O(1)`). Events of one due
    /// cycle come out in FIFO push order (overflow first, see the
    /// module docs); across due cycles the order is unspecified, which
    /// the pipeline never observes because it drains every cycle.
    pub fn drain_due(&mut self, now: Cycle, out: &mut Vec<u32>) {
        while let Some(&Reverse((due, _, id))) = self.overflow.peek() {
            if due > now {
                break;
            }
            self.overflow.pop();
            out.push(id);
        }
        while let Some((due, slot)) = self.wheel_min() {
            if due > now {
                break;
            }
            let bucket = &mut self.wheel[slot];
            self.wheel_len -= bucket.len();
            out.append(bucket);
            self.occ[slot >> 6] &= !(1 << (slot & 63));
        }
        if now > self.base {
            self.base = now;
        }
    }
}

/// The pipeline's completion scheduler: the calendar queue, or the seed
/// `BinaryHeap` kept as a differential reference.
///
/// The heap variant is *exactly* the seed structure — `(Reverse(cycle),
/// id)` pairs, so same-cycle ties pop in descending id order rather than
/// FIFO. The differential suite asserting bitwise-equal simulation
/// statistics across both variants is therefore also a proof that
/// same-cycle completion order is observationally irrelevant.
#[derive(Debug)]
pub enum CompletionQueue {
    /// Calendar-queue scheduler.
    Wheel(EventQueue),
    /// Seed reference scheduler.
    Heap(BinaryHeap<(Reverse<Cycle>, u32)>),
}

impl CompletionQueue {
    /// Build the scheduler `kind` (wheel with `wheel_slots` slots).
    #[must_use]
    pub fn new(kind: SchedulerKind, wheel_slots: usize) -> Self {
        match kind {
            SchedulerKind::Wheel => CompletionQueue::Wheel(EventQueue::new(wheel_slots)),
            SchedulerKind::Heap => CompletionQueue::Heap(BinaryHeap::new()),
        }
    }

    /// Schedule event `id` for cycle `due`.
    pub fn push(&mut self, due: Cycle, id: u32) {
        match self {
            CompletionQueue::Wheel(q) => q.push(due, id),
            CompletionQueue::Heap(h) => h.push((Reverse(due), id)),
        }
    }

    /// Append every event due at or before `now` to `out` (see
    /// [`EventQueue::drain_due`]). The order within a cycle differs
    /// between the variants and is not observable by the pipeline.
    pub fn drain_due(&mut self, now: Cycle, out: &mut Vec<u32>) {
        match self {
            CompletionQueue::Wheel(q) => q.drain_due(now, out),
            CompletionQueue::Heap(h) => {
                while let Some(&(Reverse(due), id)) = h.peek() {
                    if due > now {
                        break;
                    }
                    h.pop();
                    out.push(id);
                }
            }
        }
    }

    /// Cycle of the earliest pending event.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        match self {
            CompletionQueue::Wheel(q) => q.next_due(),
            CompletionQueue::Heap(h) => h.peek().map(|&(Reverse(due), _)| due),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            CompletionQueue::Wheel(q) => q.len(),
            CompletionQueue::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything due at or before `now`, in drain order.
    fn drain(q: &mut EventQueue, now: Cycle) -> Vec<u32> {
        let mut out = Vec::new();
        q.drain_due(now, &mut out);
        out
    }

    #[test]
    fn same_cycle_events_pop_fifo() {
        let mut q = EventQueue::new(64);
        q.push(5, 30);
        q.push(5, 10);
        q.push(5, 20);
        assert_eq!(q.next_due(), Some(5));
        assert!(drain(&mut q, 4).is_empty(), "nothing due before cycle 5");
        assert_eq!(drain(&mut q, 5), vec![30, 10, 20]);
        assert!(q.is_empty());
    }

    #[test]
    fn cycles_pop_in_order() {
        let mut q = EventQueue::new(64);
        q.push(9, 1);
        q.push(3, 2);
        q.push(7, 3);
        assert_eq!(q.next_due(), Some(3));
        assert_eq!(drain(&mut q, 3), vec![2]);
        assert_eq!(q.next_due(), Some(7));
        assert_eq!(drain(&mut q, 8), vec![3]);
        assert_eq!(drain(&mut q, 9), vec![1]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new(64);
        q.push(1000, 7); // way past the 64-cycle horizon
        q.push(2, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_due(), Some(2));
        assert_eq!(drain(&mut q, 2), vec![1]);
        assert_eq!(q.next_due(), Some(1000), "overflow feeds next_due");
        assert!(drain(&mut q, 999).is_empty());
        assert_eq!(drain(&mut q, 1000), vec![7]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_and_wheel_ties_stay_fifo() {
        let mut q = EventQueue::new(64);
        // Pushed while 100 is beyond the horizon [0, 64): goes to overflow.
        q.push(100, 1);
        // Advance the window to 41 (a drain slides it up to `now`), so
        // 100 is inside [41, 105) and the next push goes to the wheel.
        assert!(drain(&mut q, 41).is_empty());
        q.push(100, 2);
        assert_eq!(drain(&mut q, 100), vec![1, 2], "older overflow entry first");
    }

    #[test]
    fn wheel_reuses_slots_across_rotations() {
        let mut q = EventQueue::new(64);
        let mut now = 0;
        for round in 0..10u32 {
            q.push(now + 3, round);
            assert!(drain(&mut q, now + 2).is_empty());
            now += 3;
            assert_eq!(drain(&mut q, now), vec![round]);
            now += 61; // full rotation: same slot indices come around again
            assert!(drain(&mut q, now).is_empty());
        }
        assert!(q.is_empty());
    }

    #[test]
    fn completion_queue_variants_agree_on_single_events() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut q = CompletionQueue::new(kind, 64);
            assert!(q.is_empty());
            q.push(10, 1);
            q.push(4, 2);
            assert_eq!(q.len(), 2);
            assert_eq!(q.next_due(), Some(4));
            let mut out = Vec::new();
            for (now, expected) in [(3, vec![]), (4, vec![2]), (9, vec![]), (10, vec![1])] {
                out.clear();
                q.drain_due(now, &mut out);
                assert_eq!(out, expected, "{kind:?} at {now}");
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn completion_queue_variants_drain_the_same_set() {
        for kind in [SchedulerKind::Wheel, SchedulerKind::Heap] {
            let mut q = CompletionQueue::new(kind, 64);
            for (due, id) in [(5, 1), (5, 2), (900, 3), (6, 4), (5, 5)] {
                q.push(due, id);
            }
            let mut out = Vec::new();
            q.drain_due(4, &mut out);
            assert!(out.is_empty());
            q.drain_due(5, &mut out);
            out.sort_unstable();
            assert_eq!(out, vec![1, 2, 5], "{kind:?}");
            out.clear();
            q.drain_due(1000, &mut out);
            out.sort_unstable();
            assert_eq!(out, vec![3, 4], "{kind:?}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn scheduler_kind_env_parsing() {
        // No env mutation (tests run in parallel): just the mapping.
        assert_eq!(SchedulerKind::from_env(), SchedulerKind::Wheel);
    }
}
