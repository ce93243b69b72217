//! Allocation accounting for [`TickQueue`] on its own.
//!
//! Draining a tick swaps the slot's buffer against the caller's, so the
//! buffers of a queue circulate: once each has held a tick's worth of
//! entries, pushing and draining at steady occupancy must never reach the
//! allocator. This pins it with a counting global allocator.
//!
//! Kept in its own integration-test binary because the `#[global_allocator]`
//! is process-wide. It counts only on a thread that has opened the
//! measurement window, so the test harness's own threads (progress output,
//! timing) cannot land in it; `TickQueue` is single-threaded, so every
//! allocation it makes is on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use pss_sim::TickQueue;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the system allocator; the counter is the
// only addition, atomic, and gated by a const-initialised thread-local
// that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_push_and_drain_is_allocation_free() {
    const SPAN: u64 = 100; // 128 slots
    const PER_TICK: u64 = 12;
    let mut queue: TickQueue<(u64, u32)> = TickQueue::new(SPAN);
    let mut batch = Vec::new();
    let mut drained = 0u64;
    // One round: drain tick `t`, then re-arm what a tick holds at offsets
    // spread over the whole span — every tick is pushed to from twelve
    // different rounds and ends up holding exactly `PER_TICK` entries.
    let mut round = |queue: &mut TickQueue<(u64, u32)>, t: u64| {
        if queue.take_tick(t, &mut batch) == Some(t) {
            drained += batch.len() as u64;
            batch.clear();
        }
        for k in 0..PER_TICK {
            queue.push(t + 1 + k * SPAN / PER_TICK, (t, k as u32));
        }
    };

    // Warm up: every slot is used and every circulating buffer, the drain
    // buffer included, has held a full tick.
    let warm_up = 4 * 128;
    for t in 0..warm_up {
        round(&mut queue, t);
    }
    let pending = queue.len();

    COUNTING.with(|c| c.set(true));
    for t in warm_up..warm_up + 10_000 {
        round(&mut queue, t);
    }
    COUNTING.with(|c| c.set(false));
    let during = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(queue.len(), pending, "occupancy is steady");
    assert!(drained >= 10_000 * PER_TICK);
    assert_eq!(queue.overflowed(), 0, "all of it on the ring");
    assert_eq!(
        during, 0,
        "{during} allocations over 10 000 push/drain rounds at steady occupancy"
    );
}
