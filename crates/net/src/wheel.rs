//! A simple hashed timer wheel for active-cycle initiation.
//!
//! The runtime fires every node's gossip timer once per period (± jitter).
//! Timer distances are bounded by `period + jitter`, so a single-level
//! wheel with a power-of-two slot count just above that horizon gives O(1)
//! schedule and O(entries-due) advance, with no per-tick allocation.

/// See the [module docs](self). Entries are `(due tick, node slot)`.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(u64, u32)>>,
    mask: u64,
    /// The first tick not yet fired.
    next: u64,
    len: usize,
}

impl TimerWheel {
    /// A wheel able to hold timers up to `horizon` ticks in the future.
    pub(crate) fn new(horizon: u64) -> Self {
        let slots = (horizon.max(1) + 1).next_power_of_two().max(64) as usize;
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            mask: slots as u64 - 1,
            next: 0,
            len: 0,
        }
    }

    /// The first tick [`TimerWheel::due_at`] has not fired yet — the
    /// earliest tick a new timer may be scheduled for.
    pub(crate) fn next_tick(&self) -> u64 {
        self.next
    }

    /// Pending timer count.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `slot`'s timer for tick `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is in the already-fired past or beyond the wheel
    /// horizon (both are runtime bugs, not load conditions).
    pub(crate) fn schedule(&mut self, due: u64, slot: u32) {
        assert!(due >= self.next, "timer scheduled into the past");
        assert!(
            due - self.next <= self.mask,
            "timer {due} beyond wheel horizon (next {})",
            self.next
        );
        self.slots[(due & self.mask) as usize].push((due, slot));
        self.len += 1;
    }

    /// Fires tick `t`: drains every entry due exactly at `t` into `out`
    /// (appended; firing order within a tick is schedule order) and makes
    /// `t` past. Ticks must be fired in order, one by one.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not the next unfired tick.
    pub(crate) fn due_at(&mut self, t: u64, out: &mut Vec<u32>) {
        assert_eq!(t, self.next, "ticks must be fired in order");
        let bucket = &mut self.slots[(t & self.mask) as usize];
        let before = bucket.len();
        // One stable pass: due entries leave in schedule order, later laps
        // keep theirs.
        bucket.retain(|&(due, slot)| {
            if due == t {
                out.push(slot);
            }
            due != t
        });
        self.len -= before - bucket.len();
        self.next = t + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_tick_order_with_wraparound() {
        let mut wheel = TimerWheel::new(100);
        wheel.schedule(3, 30);
        wheel.schedule(1, 10);
        wheel.schedule(3, 31);
        assert_eq!(wheel.len(), 3);
        let mut out = Vec::new();
        for t in 0..=2u64 {
            wheel.due_at(t, &mut out);
        }
        assert_eq!(out, vec![10]);
        out.clear();
        wheel.due_at(3, &mut out);
        assert_eq!(out, vec![30, 31], "same-tick order is schedule order");
        assert_eq!(wheel.len(), 0);
        // Far past the first lap: slots are reused.
        for t in 4..1000u64 {
            wheel.due_at(t, &mut out);
        }
        out.clear();
        wheel.schedule(1000 + 100, 7);
        for t in 1000..1100u64 {
            wheel.due_at(t, &mut out);
        }
        assert!(out.is_empty());
        wheel.due_at(1100, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn colliding_slots_keep_their_due_ticks() {
        // Two timers hashing to the same slot (dues one full lap apart)
        // must not fire together. Horizon 64 → 128 slots.
        let mut wheel = TimerWheel::new(64);
        wheel.schedule(5, 1);
        let mut out = Vec::new();
        for t in 0..5u64 {
            wheel.due_at(t, &mut out);
        }
        wheel.due_at(5, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        wheel.schedule(5 + 128, 2); // hashes to the same bucket as tick 5
        for t in 6..=133u64 {
            wheel.due_at(t, &mut out);
        }
        assert_eq!(out, vec![2]);

        // A herd in one bucket: timers due now interleaved with timers due
        // one lap later. `schedule`'s horizon check keeps pending dues
        // within one lap of each other, so the mix is built on the bucket
        // directly; the pass must not depend on that check. It fires
        // exactly the due ones, in schedule order, and leaves the rest in
        // schedule order.
        out.clear();
        let (now, lap) = (134u64, 128u64);
        let herd = [
            (now, 10),
            (now + lap, 20),
            (now, 11),
            (now, 12),
            (now + lap, 21),
            (now + lap, 22),
            (now, 13),
        ];
        wheel.slots[(now & wheel.mask) as usize].extend(herd);
        wheel.len += herd.len();
        wheel.due_at(now, &mut out);
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(wheel.len(), 3);
        assert_eq!(
            wheel.slots[(now & wheel.mask) as usize],
            vec![(now + lap, 20), (now + lap, 21), (now + lap, 22)],
            "the next lap's timers stay behind, in order"
        );
        out.clear();
        for t in now + 1..now + lap {
            wheel.due_at(t, &mut out);
        }
        assert!(out.is_empty(), "nothing fires between the laps");
        wheel.due_at(now + lap, &mut out);
        assert_eq!(out, vec![20, 21, 22]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_schedules() {
        let mut wheel = TimerWheel::new(8);
        wheel.due_at(0, &mut Vec::new());
        wheel.schedule(0, 1);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_beyond_horizon() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(10_000, 1);
    }
}
