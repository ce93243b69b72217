//! Property-based tests for the statistics toolkit.

use proptest::prelude::*;
use pss_stats::{autocorrelation, white_noise_band, CountDistribution, Summary};

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 0..max_len)
}

proptest! {
    #[test]
    fn summary_mean_is_bounded_by_min_max(data in finite_vec(200)) {
        let s: Summary = data.iter().copied().collect();
        if let (Some(min), Some(max)) = (s.min(), s.max()) {
            prop_assert!(s.mean() >= min - 1e-9);
            prop_assert!(s.mean() <= max + 1e-9);
        }
    }

    #[test]
    fn summary_variance_is_non_negative(data in finite_vec(200)) {
        let s: Summary = data.iter().copied().collect();
        prop_assert!(s.population_variance() >= -1e-9);
        prop_assert!(s.sample_variance() >= -1e-9);
    }

    #[test]
    fn summary_merge_equals_sequential(data in finite_vec(200), split in 0usize..200) {
        let split = split.min(data.len());
        let (l, r) = data.split_at(split);
        let mut merged: Summary = l.iter().copied().collect();
        merged.merge(&r.iter().copied().collect());
        let seq: Summary = data.iter().copied().collect();
        prop_assert_eq!(merged.count(), seq.count());
        prop_assert!((merged.mean() - seq.mean()).abs() < 1e-6);
        prop_assert!((merged.population_variance() - seq.population_variance()).abs()
            < 1e-3 * (1.0 + seq.population_variance()));
    }

    #[test]
    fn autocorrelation_lag_zero_is_one_and_bounded(data in finite_vec(100), max_lag in 0usize..50) {
        let ac = autocorrelation(&data, max_lag);
        prop_assert_eq!(ac.at(0), Some(1.0));
        for &v in ac.values() {
            prop_assert!(v.abs() <= 1.0 + 1e-9, "coefficient out of range: {}", v);
        }
    }

    #[test]
    fn white_noise_band_shrinks_with_n(n in 1usize..10_000) {
        let small = white_noise_band(n, 0.99);
        let large = white_noise_band(n * 4, 0.99);
        // Quadrupling the sample size halves the band.
        prop_assert!((large - small / 2.0).abs() < 1e-9);
    }

    #[test]
    fn count_distribution_totals_match(values in prop::collection::vec(0u64..500, 0..300)) {
        let d: CountDistribution = values.iter().copied().collect();
        prop_assert_eq!(d.total(), values.len() as u64);
        let recounted: u64 = d.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(recounted, values.len() as u64);
    }

    #[test]
    fn count_distribution_mean_matches_summary(values in prop::collection::vec(0u64..500, 1..200)) {
        let d: CountDistribution = values.iter().copied().collect();
        let s: Summary = values.iter().map(|&v| v as f64).collect();
        prop_assert!((d.mean() - s.mean()).abs() < 1e-9);
        prop_assert!((d.variance() - s.population_variance()).abs() < 1e-6);
    }

    #[test]
    fn count_distribution_quantile_is_observed_value(values in prop::collection::vec(0u64..100, 1..100), p in 0.0f64..=1.0) {
        let d: CountDistribution = values.iter().copied().collect();
        let q = d.quantile(p).unwrap();
        prop_assert!(values.contains(&q));
    }
}
