//! Completion counting for the pipeline.
//!
//! Issue sets every timing result of an instruction the moment it
//! issues: the destination's ready cycle, the slot's completion cycle
//! and the branch-resolution cycle (see `Cpu::schedule` in the
//! pipeline). What is left for the cycle loop is *how many*
//! instructions complete at each cycle — the "anything moved" signal,
//! the ready-cursor reset of the issue scans, and the wake-up cycle of
//! the idle fast-forward. [`CountWheel`] keeps exactly that: a count
//! per due cycle, no ids.
//!
//! The completion set has a very particular shape: almost every event
//! is due a handful of cycles ahead (functional-unit latencies, cache
//! hits), a thin tail reaches hundreds of cycles out (DRAM misses, long
//! vector streams), and the pipeline takes the count due at the current
//! cycle, every cycle. A **calendar queue** (single-level timing wheel
//! with an overflow bucket) makes both push and take `O(1)` for the
//! short-horizon bulk:
//!
//! * events due within the wheel horizon (`slots` cycles, default 256)
//!   add one to the counter of slot `due mod slots` — because the wheel
//!   only ever holds dues inside one horizon window, every slot counts
//!   exactly one cycle's events;
//! * far-future events go to a small binary-heap **overflow bucket** of
//!   due cycles; they are taken straight from the bucket when their
//!   time comes, so correctness never depends on migrating them into
//!   the wheel;
//! * an occupancy bitmap (one bit per slot) makes "earliest wheel
//!   event" a couple of word scans — that is the `next_due` query the
//!   idle fast-forward uses to jump over provably dead cycles.

use crate::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default number of wheel slots (cycles of horizon). Covers every
/// functional-unit latency and L1/L2 hit comfortably; only DRAM round
/// trips and pathological bank pile-ups overflow.
pub const DEFAULT_WHEEL_SLOTS: usize = 256;

/// Wheel slot count from `MEDSIM_WHEEL_SLOTS` (rounded up to a power of
/// two, clamped to a sane range), defaulting to [`DEFAULT_WHEEL_SLOTS`].
#[must_use]
pub fn wheel_slots_from_env() -> usize {
    std::env::var("MEDSIM_WHEEL_SLOTS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map_or(DEFAULT_WHEEL_SLOTS, |n| n.clamp(64, 1 << 16))
}

/// A calendar queue of event counts per due cycle.
///
/// Contract (matched by how the pipeline drives it): `push` dues are
/// never in the past, and the owner takes everything due at or before
/// `now` ([`CountWheel::take_due`]) before time advances past it —
/// `complete()` does exactly that every simulated cycle.
#[derive(Debug)]
pub struct CountWheel {
    /// Slot `s` counts the events due at the unique cycle `d` in the
    /// current horizon window with `d mod slots == s`.
    counts: Vec<u32>,
    /// Occupancy bitmap over the wheel, one bit per non-zero counter.
    occ: Vec<u64>,
    /// `slots - 1` (slot count is a power of two).
    mask: u64,
    /// Due cycles of the events at or beyond the horizon.
    overflow: BinaryHeap<Reverse<Cycle>>,
    /// Lower edge of the horizon window `[base, base + slots)`; every
    /// take slides it up to its `now`.
    base: Cycle,
    /// Events currently in the wheel (not counting the overflow).
    wheel_len: usize,
}

impl CountWheel {
    /// Create a wheel with `slots` slots (rounded up to a power of two,
    /// at least 64).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let slots = slots.clamp(64, 1 << 20).next_power_of_two();
        CountWheel {
            counts: vec![0; slots],
            occ: vec![0; slots / 64],
            mask: slots as u64 - 1,
            overflow: BinaryHeap::new(),
            base: 0,
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

    /// Count one event due at cycle `due`.
    #[inline]
    pub fn push(&mut self, due: Cycle) {
        debug_assert!(due >= self.base, "event scheduled in the past");
        if due - self.base < self.counts.len() as u64 {
            let slot = (due & self.mask) as usize;
            self.counts[slot] += 1;
            self.occ[slot >> 6] |= 1 << (slot & 63);
            self.wheel_len += 1;
        } else {
            self.push_overflow(due);
        }
    }

    #[cold]
    fn push_overflow(&mut self, due: Cycle) {
        self.overflow.push(Reverse(due));
    }

    /// The due cycle of the events in `slot` (which must be occupied):
    /// the unique cycle in the horizon window congruent to `slot`.
    fn slot_due(&self, slot: usize) -> Cycle {
        let base_slot = self.base & self.mask;
        let dist = (slot as u64).wrapping_sub(base_slot) & self.mask;
        self.base + dist
    }

    /// Earliest occupied wheel slot's due cycle, scanning the bitmap
    /// circularly in horizon order.
    fn wheel_min(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return None;
        }
        let words = self.occ.len();
        let base_slot = (self.base & self.mask) as usize;
        let (w0, b0) = (base_slot >> 6, base_slot & 63);
        // Bits at or after `base_slot` inside its word, then the
        // following words wrapping around, then the low bits of the
        // first word.
        let head = self.occ[w0] & (!0u64 << b0);
        if head != 0 {
            return Some(self.slot_due((w0 << 6) + head.trailing_zeros() as usize));
        }
        for step in 1..words {
            let w = (w0 + step) % words;
            if self.occ[w] != 0 {
                return Some(self.slot_due((w << 6) + self.occ[w].trailing_zeros() as usize));
            }
        }
        let tail = self.occ[w0] & !(!0u64 << b0);
        debug_assert_ne!(tail, 0, "wheel_len > 0 but no occupied slot");
        Some(self.slot_due((w0 << 6) + tail.trailing_zeros() as usize))
    }

    /// Cycle of the earliest pending event, if any — the idle
    /// fast-forward's wake-up query.
    #[must_use]
    pub fn next_due(&self) -> Option<Cycle> {
        let wheel = self.wheel_min();
        let over = self.overflow.peek().map(|&Reverse(d)| d);
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Remove and count every event due at or before `now`, then slide
    /// the horizon window up to `now` (every event left is strictly in
    /// the future, so future pushes stay `O(1)`).
    #[inline]
    pub fn take_due(&mut self, now: Cycle) -> usize {
        let mut taken = 0;
        if !self.overflow.is_empty() {
            taken = self.take_overflow(now);
        }
        if self.wheel_len > 0 {
            taken += self.take_wheel(now);
        }
        self.base = self.base.max(now);
        taken
    }

    fn take_overflow(&mut self, now: Cycle) -> usize {
        let mut taken = 0;
        while self.overflow.peek().is_some_and(|&Reverse(d)| d <= now) {
            self.overflow.pop();
            taken += 1;
        }
        taken
    }

    /// Take the wheel slots of cycles `base..=now` (every wheel event
    /// is due at or after `base`), one bitmap word at a time.
    #[inline]
    fn take_wheel(&mut self, now: Cycle) -> usize {
        let Some(span) = now.checked_sub(self.base) else {
            return 0;
        };
        let slots = self.counts.len() as u64;
        // Slots to visit, starting at `base`'s; a span covering the whole
        // horizon visits every slot once.
        let mut left = span.min(slots - 1) + 1;
        let mut slot = (self.base & self.mask) as usize;
        let mut taken = 0;
        while left > 0 {
            let (w, b) = (slot >> 6, slot & 63);
            let run = (64 - b as u64).min(left);
            let range = if run == 64 {
                !0
            } else {
                ((1u64 << run) - 1) << b
            };
            let mut hit = self.occ[w] & range;
            self.occ[w] &= !hit;
            while hit != 0 {
                let s = (w << 6) + hit.trailing_zeros() as usize;
                taken += std::mem::take(&mut self.counts[s]) as usize;
                hit &= hit - 1;
            }
            left -= run;
            slot = (slot + run as usize) & self.mask as usize;
        }
        self.wheel_len -= taken;
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Events are counts, so "FIFO" within a cycle holds trivially: what
    // the two `_fifo` tests check is that a cycle's events (wheel and
    // overflow alike) drain together, at their cycle and not before.
    #[test]
    fn same_cycle_events_pop_fifo() {
        let mut q = CountWheel::new(64);
        q.push(5);
        q.push(5);
        q.push(5);
        assert_eq!(q.next_due(), Some(5));
        assert_eq!(q.take_due(4), 0, "nothing due before cycle 5");
        assert_eq!(q.take_due(5), 3);
        assert!(q.is_empty());
    }

    #[test]
    fn cycles_pop_in_order() {
        let mut q = CountWheel::new(64);
        q.push(9);
        q.push(3);
        q.push(7);
        assert_eq!(q.next_due(), Some(3));
        assert_eq!(q.take_due(3), 1);
        assert_eq!(q.next_due(), Some(7));
        assert_eq!(q.take_due(8), 1);
        assert_eq!(q.take_due(9), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = CountWheel::new(64);
        q.push(1000); // way past the 64-cycle horizon
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.next_due(), Some(2));
        assert_eq!(q.take_due(2), 1);
        assert_eq!(q.next_due(), Some(1000), "overflow feeds next_due");
        assert_eq!(q.take_due(999), 0);
        assert_eq!(q.take_due(1000), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_and_wheel_ties_stay_fifo() {
        let mut q = CountWheel::new(64);
        // Pushed while 100 is beyond the horizon [0, 64): goes to overflow.
        q.push(100);
        // Advance the window to 41 (a take slides it up to `now`), so
        // 100 is inside [41, 105) and the next push goes to the wheel.
        assert_eq!(q.take_due(41), 0);
        q.push(100);
        assert_eq!(q.next_due(), Some(100));
        assert_eq!(q.take_due(100), 2, "both halves of the tie");
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_reuses_slots_across_rotations() {
        let mut q = CountWheel::new(64);
        let mut now = 0;
        for _ in 0..10 {
            q.push(now + 3);
            assert_eq!(q.take_due(now + 2), 0);
            now += 3;
            assert_eq!(q.take_due(now), 1);
            now += 61; // full rotation: same slot indices come around again
            assert_eq!(q.take_due(now), 0);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn a_jump_past_the_horizon_takes_every_slot_once() {
        let mut q = CountWheel::new(64);
        for due in [10, 20, 63, 40] {
            q.push(due);
        }
        q.push(63);
        assert_eq!(q.take_due(500), 5);
        assert!(q.is_empty());
        q.push(510);
        assert_eq!(q.next_due(), Some(510));
        assert_eq!(q.take_due(510), 1);
    }
}
