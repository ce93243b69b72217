//! Allocation accounting for the telemetry record path.
//!
//! The registry's contract is that *registration* may allocate (it happens
//! at engine construction) but *recording* never does: counters and gauges
//! are single atomic RMWs, histograms are five, and the flight recorder
//! writes `Copy` events into storage reserved at construction. This test
//! takes handles, warms the flight ring to capacity so eviction (not
//! growth) is the steady state, and then pins a large recording window at
//! exactly zero allocations.
//!
//! Kept in its own integration-test binary because the `#[global_allocator]`
//! is process-wide; the single `#[test]` keeps the measurement window free
//! of concurrent test allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pss_telemetry::{flight, global, EventKind};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator; the counter is the
// only addition and is atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_record_path_is_allocation_free() {
    // Registration phase: allowed to allocate.
    let counter = global().counter("pss_alloc_test_total", "allocation test counter");
    let gauge = global().gauge("pss_alloc_test_live", "allocation test gauge");
    let hist = global().histogram_with(
        "pss_alloc_test_ns",
        &[("engine", "test")],
        "allocation test histogram",
    );
    let recorder = flight();

    // Warm-up: fill the flight ring past capacity so the window below
    // exercises eviction (the steady state), not Vec growth.
    for i in 0..(pss_telemetry::FLIGHT_CAPACITY as u64 + 64) {
        counter.inc();
        gauge.set(i);
        hist.record(i * 37);
        recorder.record(EventKind::PhaseStart, "test/warmup", i, 0);
    }

    // The counter is process-wide, so a runtime thread outside this test
    // (e.g. libtest's harness) can allocate concurrently and charge the
    // window. A real record-path allocation shows up in *every* trial;
    // ambient noise does not — so pin the minimum across trials at zero.
    const ROUNDS: u64 = 10_000;
    const TRIALS: usize = 5;
    let mut min_during = u64::MAX;
    for _ in 0..TRIALS {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for i in 0..ROUNDS {
            counter.add(2);
            gauge.set_max(i);
            hist.record(i);
            recorder.record(EventKind::PhaseEnd, "test/steady", i, i * 3);
            recorder.record(EventKind::DecodeError, "header", i, 40);
        }
        let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
        min_during = min_during.min(during);
        if min_during == 0 {
            break;
        }
    }

    assert_eq!(
        min_during, 0,
        "telemetry record path allocated {min_during} times over {ROUNDS} rounds in every one of {TRIALS} trials",
    );

    // The windows really did record (the cells moved).
    assert!(counter.get() >= 2 * ROUNDS);
    assert!(hist.snapshot().total() >= ROUNDS);
    assert_eq!(recorder.len(), pss_telemetry::FLIGHT_CAPACITY);
}
