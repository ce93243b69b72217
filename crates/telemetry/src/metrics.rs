//! The three metric primitives: counter, gauge, log₂ histogram.
//!
//! Handles are cheap `Arc` clones of shared cells; the registry hands the
//! same cell back for repeated registrations of the same name+labels, so
//! engines constructed many times over a process lifetime (every test,
//! every experiment run) accumulate into one series. All mutation is
//! relaxed atomics — recording threads never contend on a lock and never
//! allocate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::log2hist::{log2_bucket, Log2Histogram, LOG2_BUCKETS};

/// Monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not in any registry); mostly for tests.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating).
    #[inline]
    pub fn add(&self, n: u64) {
        // fetch_update would loop; plain fetch_add is fine — counters count
        // events, and 2^64 events do not happen.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A detached gauge (not in any registry); mostly for tests.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (a high-water mark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; LOG2_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; LOG2_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Log₂-bucketed histogram of `u64` observations (latencies in
/// nanoseconds, virtual ticks, sizes). Recording is four relaxed atomic
/// RMWs; quantiles come from [`Histogram::snapshot`], which copies the
/// atomic cells into a [`Log2Histogram`].
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// A detached histogram (not in any registry); mostly for tests.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &*self.core;
        core.buckets[log2_bucket(value)].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy with quantile extraction. Concurrent recording
    /// makes the snapshot only approximately consistent (a racing record
    /// may appear in `sum` but not yet in its bucket); the total is the
    /// bucket sum, so quantile ranks always add up.
    #[must_use]
    pub fn snapshot(&self) -> Log2Histogram {
        let core = &*self.core;
        Log2Histogram::from_cells(
            std::array::from_fn(|bucket| core.buckets[bucket].load(Ordering::Relaxed)),
            core.sum.load(Ordering::Relaxed),
            core.min.load(Ordering::Relaxed),
            core.max.load(Ordering::Relaxed),
        )
    }

    /// Resets every cell to the empty state.
    pub fn reset(&self) {
        let core = &*self.core;
        for b in &core.buckets {
            b.store(0, Ordering::Relaxed);
        }
        core.sum.store(0, Ordering::Relaxed);
        core.min.store(u64::MAX, Ordering::Relaxed);
        core.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let shared = c.clone();
        shared.inc();
        assert_eq!(c.get(), 6);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(9);
        g.set(3);
        assert_eq!(g.get(), 3);
        g.set_max(2);
        assert_eq!(g.get(), 3);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_snapshot_quantiles() {
        let h = Histogram::new();
        for v in [5u64, 5, 5, 900, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.total(), 5);
        assert_eq!(snap.min(), 5);
        assert_eq!(snap.max(), 1_000_000);
        assert_eq!(snap.sum(), 1_000_915);
        assert_eq!(snap.p50(), 7); // bucket [4,7], exact values were 5
        assert_eq!(snap.quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_reset_clears_everything() {
        let h = Histogram::new();
        h.record(123);
        h.reset();
        let snap = h.snapshot();
        assert_eq!(snap.total(), 0);
        assert_eq!(snap.p99(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().total(), 40_000);
        assert_eq!(h.snapshot().max(), 39_999);
    }
}
