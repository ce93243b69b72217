//! The snapshot of a [`Histogram`](crate::Histogram): power-of-two bucket
//! counts with quantile extraction.
//!
//! 65 buckets: bucket 0 holds exactly the value 0 and bucket *i* ≥ 1
//! covers the half-open power-of-two range `[2^(i-1), 2^i)` (bucket 64 is
//! capped at `u64::MAX`). Bucketing a value is a single `leading_zeros`,
//! so the recording side needs no floats, no division, and no branches
//! beyond the array index — cheap enough to sit on a per-frame network
//! path.
//!
//! The trade-off is resolution: a quantile is only known to within a
//! factor of two. For latency telemetry (nanoseconds, virtual ticks) that
//! is exactly the right contract — order-of-magnitude truth in constant
//! memory.

/// Number of buckets: one for zero plus one per bit position.
pub(crate) const LOG2_BUCKETS: usize = 65;

/// Bucket index for `value`: 0 for 0, else `64 - value.leading_zeros()`
/// (the position of the highest set bit, 1-based).
#[inline]
pub(crate) fn log2_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Smallest value that lands in `bucket` (0 for bucket 0, else `2^(b-1)`).
fn log2_bucket_floor(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

/// Largest value that lands in `bucket` (0 for bucket 0, `u64::MAX` for
/// bucket 64, else `2^b - 1`).
fn log2_bucket_ceil(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket == LOG2_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A point-in-time copy of a [`Histogram`](crate::Histogram)'s cells.
///
/// Holds the per-bucket counts, their saturating total, and the sum, min
/// and max read from their own cells. Quantiles are extracted from the
/// bucket counts and clamped to the observed `[min, max]`, so
/// `quantile(1.0)` is always the exact maximum and every quantile of an
/// empty histogram is a well-defined 0.
#[derive(Debug, Clone)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Log2Histogram {
    /// A snapshot of the given cells. The total is the sum of the bucket
    /// counts, not a separately read count, so quantile ranks add up even
    /// when a racing record has reached one cell but not another. A `min`
    /// of `u64::MAX` is the "no observations" sentinel.
    pub(crate) fn from_cells(counts: [u64; LOG2_BUCKETS], sum: u64, min: u64, max: u64) -> Self {
        let total = counts.iter().fold(0u64, |t, &n| t.saturating_add(n));
        Self {
            counts,
            total,
            sum,
            min,
            max,
        }
    }

    /// Number of observations (saturating).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest observation; 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest observation; 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile (`p` clamped to `[0, 1]`) as the upper bound of the
    /// bucket holding the rank-⌈p·total⌉ observation, clamped to the exact
    /// observed `[min, max]`. Resolution is therefore a factor of two in
    /// the interior, exact at both extremes, and 0 on an empty histogram.
    #[must_use]
    pub fn quantile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based; p = 0 maps to rank 1.
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return log2_bucket_ceil(bucket).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.5)`).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile (`quantile(0.99)`).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Non-empty buckets as `(floor, ceil, count)` ranges, lowest first —
    /// the shape the Prometheus renderer and the JSON emitter both walk.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(bucket, &count)| (log2_bucket_floor(bucket), log2_bucket_ceil(bucket), count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn snapshot_of(values: impl IntoIterator<Item = u64>) -> Log2Histogram {
        let h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        for bucket in 0..LOG2_BUCKETS {
            assert_eq!(log2_bucket(log2_bucket_floor(bucket)), bucket);
            assert_eq!(log2_bucket(log2_bucket_ceil(bucket)), bucket);
        }
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn empty_histogram_quantiles_are_well_defined() {
        let h = snapshot_of([]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_observation_is_exact_at_every_quantile() {
        let h = snapshot_of([777]);
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), 777);
        }
    }

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let h = snapshot_of(1..=1000);
        assert_eq!(h.total(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // Rank 500 lands in bucket [256, 511]; the estimate is its ceiling.
        assert_eq!(h.p50(), 511);
        // p99 → rank 990 → bucket [512, 1023], clamped to the max of 1000.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn saturates_at_u64_max_scale() {
        let h = snapshot_of([u64::MAX, u64::MAX, u64::MAX - 1]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.5), u64::MAX);
        // Bucket counts at u64::MAX scale saturate the total instead of
        // wrapping it, and the top bucket still answers every quantile.
        let mut counts = [0; LOG2_BUCKETS];
        counts[63] = 5;
        counts[64] = u64::MAX;
        let h = Log2Histogram::from_cells(counts, 0, 1 << 62, u64::MAX);
        assert_eq!(h.total(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
    }
}
