//! The repo's one time-ordered queue: a per-tick FIFO calendar queue.
//!
//! [`TickQueue`] is a power-of-two ring of slots, one per tick, covering the
//! ticks `[cursor, cursor + slots)`. Each slot holds its tick's entries
//! contiguously in push order, so push is one `Vec::push` and draining a
//! tick is one buffer swap — no comparisons, no sifting, and the entries of
//! a tick sit next to each other in memory.
//!
//! # Order
//!
//! Entries come out in `(time, push order)` — exactly the order a binary
//! heap keyed by `(time, seq)` with a monotone push counter `seq` produces,
//! which is what every user here had before: within one tick, push order
//! *is* `(time, seq)` order.
//!
//! # Beyond the ring
//!
//! The ring never has more than [`MAX_SLOTS`] slots, whatever span is asked
//! for, so a long period cannot size memory. An entry further ahead than
//! the ring reaches waits in an ordered overflow map keyed by
//! `(time, push counter)` and moves into its slot when the cursor uncovers
//! that tick. The slot is still empty then — direct pushes could not reach
//! it either — so entries that waited keep their place ahead of later
//! direct pushes. [`TickQueue::overflowed`] counts the entries that took
//! this slower path.
//!
//! # The open tick
//!
//! The tick at the cursor stays open: entries may be pushed to the tick
//! being drained (zero-latency delivery) and are handed out by the next
//! [`TickQueue::take_tick`] call. Pushing before the cursor is a bug in the
//! caller and panics.

use std::collections::BTreeMap;

/// Upper bound on ring slots: 2¹⁶ empty `Vec`s are 1.5 MiB.
const MAX_SLOTS: u64 = 1 << 16;

/// See the [module docs](self).
pub struct TickQueue<T> {
    /// Slot `t & mask` holds the entries of the one tick `t` in
    /// `[cursor, cursor + slots)`, in push order.
    slots: Vec<Vec<T>>,
    mask: u64,
    /// The open tick: nothing earlier is pending or may be pushed.
    cursor: u64,
    /// Entries in the ring.
    ring_len: usize,
    /// No ring entry is due before this tick: where the search for the next
    /// pending tick resumes, so that polling tick by tick never rescans the
    /// empty stretch ahead. Meaningless while the ring is empty.
    head: u64,
    /// Entries at `cursor + slots` or later, in `(time, push counter)` order.
    overflow: BTreeMap<(u64, u64), T>,
    overflowed: u64,
}

impl<T> TickQueue<T> {
    /// A queue whose ring reaches `span` ticks ahead of the cursor (capped
    /// at 2¹⁶ slots); entries further ahead are still accepted, through the
    /// overflow map.
    pub fn new(span: u64) -> Self {
        let slots = span.saturating_add(1).min(MAX_SLOTS).next_power_of_two();
        TickQueue {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            mask: slots - 1,
            cursor: 0,
            ring_len: 0,
            head: 0,
            overflow: BTreeMap::new(),
            overflowed: 0,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries that were pushed beyond the ring and took the overflow map.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Schedules `item` for tick `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies before the cursor, i.e. before a tick
    /// [`TickQueue::take_tick`] already handed out or was told to pass.
    pub fn push(&mut self, time: u64, item: T) {
        assert!(
            time >= self.cursor,
            "pushed into the past: tick {time} is before the cursor {}",
            self.cursor
        );
        if time - self.cursor <= self.mask {
            self.push_on_ring(time, item);
        } else {
            self.overflowed += 1;
            self.overflow.insert((time, self.overflowed), item);
        }
    }

    fn push_on_ring(&mut self, time: u64, item: T) {
        if self.ring_len == 0 || time < self.head {
            self.head = time;
        }
        self.slots[(time & self.mask) as usize].push(item);
        self.ring_len += 1;
    }

    /// The earliest tick with a pending entry.
    pub fn next_time(&mut self) -> Option<u64> {
        if self.ring_len == 0 {
            return self.overflow.keys().next().map(|&(time, _)| time);
        }
        // A ring entry is due at or after `head`, less than a lap ahead of
        // the cursor: the walk ends before it can wrap or overflow.
        while self.slots[(self.head & self.mask) as usize].is_empty() {
            self.head += 1;
        }
        Some(self.head)
    }

    /// Moves the cursor to the earliest pending tick at or before `limit`
    /// and swaps that tick's entries (push order) into `out`, whose old
    /// buffer becomes the slot's — hand the same `out` back every call and
    /// the steady state allocates nothing. Returns the tick, or `None` once
    /// nothing is pending through `limit`; the cursor then rests on `limit`
    /// itself (jumping there, however far), which stays open for pushes.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not empty: its entries would end up in the slot.
    pub fn take_tick(&mut self, limit: u64, out: &mut Vec<T>) -> Option<u64> {
        assert!(out.is_empty(), "the drain buffer must come back empty");
        let found = self.next_time().filter(|&t| t <= limit);
        let cursor = found.unwrap_or(limit);
        if cursor > self.cursor {
            self.cursor = cursor;
            // The ticks the ring newly covers: their slots are empty, and
            // the map yields their entries in (time, push) order.
            while let Some(entry) = self.overflow.first_entry() {
                let time = entry.key().0;
                if time - cursor > self.mask {
                    break;
                }
                let item = entry.remove();
                self.push_on_ring(time, item);
            }
        }
        let slot = &mut self.slots[(found? & self.mask) as usize];
        self.ring_len -= slot.len();
        core::mem::swap(slot, out);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything through `limit` as `(tick, item)` pairs.
    fn drain(queue: &mut TickQueue<u32>, limit: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = queue.take_tick(limit, &mut batch) {
            out.extend(batch.drain(..).map(|item| (t, item)));
        }
        out
    }

    #[test]
    fn fires_in_tick_order_with_wraparound() {
        let mut queue = TickQueue::new(100);
        queue.push(3, 30);
        queue.push(1, 10);
        queue.push(3, 31);
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.next_time(), Some(1));
        assert_eq!(drain(&mut queue, 2), vec![(1, 10)]);
        assert_eq!(
            drain(&mut queue, 3),
            vec![(3, 30), (3, 31)],
            "same-tick order is push order"
        );
        assert!(queue.is_empty());
        // Far past the first lap: slots are reused.
        assert!(drain(&mut queue, 999).is_empty());
        queue.push(1000 + 100, 7);
        assert!(drain(&mut queue, 1099).is_empty());
        assert_eq!(drain(&mut queue, 1100), vec![(1100, 7)]);
        assert_eq!(queue.overflowed(), 0, "all of it on the ring");
    }

    #[test]
    fn colliding_slots_keep_their_due_ticks() {
        // Two entries hashing to the same slot (one full lap apart) must
        // not come out together. Span 100 → 128 slots.
        let mut queue = TickQueue::new(100);
        queue.push(5, 1);
        queue.push(5 + 128, 2); // beyond the ring: waits in the overflow map
        queue.push(5, 3);
        assert_eq!(queue.overflowed(), 1);
        assert_eq!(drain(&mut queue, 5), vec![(5, 1), (5, 3)]);
        assert_eq!(queue.len(), 1);
        assert!(
            drain(&mut queue, 132).is_empty(),
            "nothing between the laps"
        );
        assert_eq!(drain(&mut queue, 133), vec![(133, 2)]);
    }

    #[test]
    fn beyond_the_span_waits_in_overflow_and_keeps_its_place() {
        let mut queue = TickQueue::new(3); // 4 slots
        queue.push(10, 1); // overflow
        queue.push(9, 2); // overflow
        queue.push(10, 3); // overflow, behind 1
        queue.push(2, 4);
        assert_eq!(queue.overflowed(), 3);
        assert_eq!(queue.next_time(), Some(2));
        assert_eq!(drain(&mut queue, 2), vec![(2, 4)]);
        // The cursor rests on 7: ticks 7..=10 are on the ring now, and a
        // direct push to tick 10 queues behind the two that waited.
        assert!(drain(&mut queue, 7).is_empty());
        queue.push(10, 5);
        assert_eq!(queue.overflowed(), 3, "tick 10 is within reach now");
        assert_eq!(
            drain(&mut queue, u64::MAX),
            vec![(9, 2), (10, 1), (10, 3), (10, 5)]
        );
    }

    #[test]
    fn the_tick_being_drained_stays_open() {
        let mut queue = TickQueue::new(0); // a single slot
        queue.push(4, 1);
        let mut batch = Vec::new();
        assert_eq!(queue.take_tick(9, &mut batch), Some(4));
        assert_eq!(batch, vec![1]);
        batch.clear();
        queue.push(4, 2); // zero latency: lands on the open tick
        assert_eq!(queue.take_tick(9, &mut batch), Some(4));
        assert_eq!(batch, vec![2]);
        batch.clear();
        assert_eq!(queue.take_tick(9, &mut batch), None);
        queue.push(9, 3); // the limit itself stays open as well
        assert_eq!(drain(&mut queue, 9), vec![(9, 3)]);
    }

    #[test]
    fn idle_queue_jumps_to_the_limit() {
        let mut queue = TickQueue::new(1000);
        // Empty: one step, however far.
        assert!(drain(&mut queue, u64::MAX - 1).is_empty());
        queue.push(u64::MAX, 1);
        assert_eq!(queue.next_time(), Some(u64::MAX));
        assert_eq!(drain(&mut queue, u64::MAX), vec![(u64::MAX, 1)]);
        // Only far-future entries: the cursor jumps to the first of them.
        let mut queue = TickQueue::new(7);
        queue.push(1 << 40, 1);
        queue.push((1 << 40) + 3, 2);
        assert_eq!(queue.next_time(), Some(1 << 40));
        assert_eq!(
            drain(&mut queue, u64::MAX),
            vec![(1 << 40, 1), ((1 << 40) + 3, 2)]
        );
    }

    #[test]
    fn a_huge_span_does_not_size_the_ring() {
        let queue = TickQueue::<u32>::new(u64::MAX);
        assert_eq!(queue.slots.len() as u64, MAX_SLOTS);
        assert_eq!(TickQueue::<u32>::new(0).slots.len(), 1);
        assert_eq!(TickQueue::<u32>::new(64).slots.len(), 128);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_schedules() {
        let mut queue = TickQueue::new(8);
        assert!(drain(&mut queue, 1).is_empty());
        queue.push(0, 1);
    }
}
