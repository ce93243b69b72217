//! Sample autocorrelation of a time series, as used in Figure 5 of the paper.

/// The autocorrelation function of a series together with the length of the
/// series it was computed from.
///
/// Produced by [`autocorrelation`]; `values[k]` is the autocorrelation at lag
/// `k` (so `values[0]` is always 1 for a non-constant series).
#[derive(Debug, Clone, PartialEq)]
pub struct Autocorrelation {
    values: Vec<f64>,
    series_len: usize,
}

impl Autocorrelation {
    /// Autocorrelation coefficients indexed by lag (`0..=max_lag`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Coefficient at `lag`, or `None` if beyond the computed range.
    pub fn at(&self, lag: usize) -> Option<f64> {
        self.values.get(lag).copied()
    }

    /// Length of the underlying series.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Largest lag `>= 1` whose coefficient escapes the given band, if any.
    ///
    /// Useful for summarizing "how long does the memory of the series last",
    /// e.g. to contrast `(rand,head,pushpull)` (white-noise-like) with
    /// `(*,rand,*)` (long oscillations) as in the paper's Figure 5.
    pub fn last_significant_lag(&self, band: f64) -> Option<usize> {
        (1..self.values.len())
            .rev()
            .find(|&k| self.values[k].abs() > band)
    }
}

/// Computes the sample autocorrelation r_k of `series` for lags `0..=max_lag`.
///
/// Uses exactly the estimator from Section 6 of the paper:
///
/// ```text
///        Σ_{j=1}^{K-k} (d_j − d̄)(d_{j+k} − d̄)
/// r_k = ───────────────────────────────────────
///              Σ_{j=1}^{K} (d_j − d̄)²
/// ```
///
/// A constant series has zero denominator; by convention this returns
/// `r_0 = 1` and `r_k = 0` for `k >= 1` in that case (a constant series is
/// trivially fully determined, but reporting NaN would poison plots).
///
/// Lags greater than `series.len() - 1` are reported as 0.
///
/// # Examples
///
/// ```
/// use pss_stats::autocorrelation;
///
/// // A strongly alternating series has r_1 close to −1.
/// let series: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// let ac = autocorrelation(&series, 2);
/// assert_eq!(ac.at(0), Some(1.0));
/// assert!(ac.at(1).unwrap() < -0.9);
/// assert!(ac.at(2).unwrap() > 0.9);
/// ```
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Autocorrelation {
    let k_total = series.len();
    let mut values = vec![0.0; max_lag + 1];
    if k_total == 0 {
        values[0] = 1.0;
        return Autocorrelation {
            values,
            series_len: 0,
        };
    }
    let mean = series.iter().sum::<f64>() / k_total as f64;
    let denom: f64 = series.iter().map(|&x| (x - mean) * (x - mean)).sum();
    values[0] = 1.0;
    if denom == 0.0 {
        return Autocorrelation {
            values,
            series_len: k_total,
        };
    }
    for (lag, value) in values.iter_mut().enumerate().skip(1) {
        if lag >= k_total {
            break;
        }
        let num: f64 = (0..k_total - lag)
            .map(|j| (series[j] - mean) * (series[j + lag] - mean))
            .sum();
        *value = num / denom;
    }
    Autocorrelation {
        values,
        series_len: k_total,
    }
}

/// Computes a single autocorrelation coefficient at `lag`.
///
/// Equivalent to `autocorrelation(series, lag).at(lag).unwrap()` but avoids
/// computing the intermediate lags.
pub fn autocorrelation_at(series: &[f64], lag: usize) -> f64 {
    if lag == 0 {
        return 1.0;
    }
    let k_total = series.len();
    if lag >= k_total {
        return 0.0;
    }
    let mean = series.iter().sum::<f64>() / k_total as f64;
    let denom: f64 = series.iter().map(|&x| (x - mean) * (x - mean)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = (0..k_total - lag)
        .map(|j| (series[j] - mean) * (series[j + lag] - mean))
        .sum();
    num / denom
}

/// Half-width of the white-noise confidence band for autocorrelations.
///
/// For an i.i.d. series of length `n`, sample autocorrelations at lag ≥ 1 are
/// asymptotically N(0, 1/n); the band is `z / sqrt(n)` where `z` is the
/// standard normal quantile for the two-sided `confidence` level. The paper's
/// Figure 5 draws the 99 % band (`z ≈ 2.576`).
///
/// `confidence` is clamped to `(0, 1)`; `n = 0` yields an infinite band
/// (nothing is ever significant on an empty series).
pub fn white_noise_band(n: usize, confidence: f64) -> f64 {
    if n == 0 {
        return f64::INFINITY;
    }
    let confidence = confidence.clamp(f64::MIN_POSITIVE, 1.0 - 1e-12);
    let z = normal_quantile(0.5 + confidence / 2.0);
    z / (n as f64).sqrt()
}

/// Acklam's rational approximation to the standard normal quantile function.
///
/// Absolute error below 1.15e-9 over the full domain, far more precision than
/// a confidence band needs.
fn normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_zero_is_one() {
        let ac = autocorrelation(&[1.0, 5.0, 2.0, 8.0], 3);
        assert_eq!(ac.at(0), Some(1.0));
    }

    #[test]
    fn empty_series() {
        let ac = autocorrelation(&[], 5);
        assert_eq!(ac.at(0), Some(1.0));
        assert_eq!(ac.at(3), Some(0.0));
        assert_eq!(ac.series_len(), 0);
    }

    #[test]
    fn constant_series_has_zero_tail() {
        let ac = autocorrelation(&[3.0; 50], 10);
        assert_eq!(ac.at(0), Some(1.0));
        for k in 1..=10 {
            assert_eq!(ac.at(k), Some(0.0));
        }
    }

    #[test]
    fn alternating_series_is_negatively_correlated_at_lag_one() {
        let series: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let ac = autocorrelation(&series, 4);
        assert!(ac.at(1).unwrap() < -0.95);
        assert!(ac.at(2).unwrap() > 0.95);
        assert!(ac.at(3).unwrap() < -0.9);
    }

    #[test]
    fn linear_trend_has_strong_short_lag_correlation() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ac = autocorrelation(&series, 1);
        assert!(ac.at(1).unwrap() > 0.9);
    }

    #[test]
    fn coefficients_are_bounded_by_one_in_magnitude() {
        // For the paper's estimator |r_k| <= 1 by Cauchy-Schwarz (the
        // truncated numerator only shrinks the sum).
        let series: Vec<f64> = (0..97).map(|i| ((i * 7919) % 101) as f64).collect();
        let ac = autocorrelation(&series, 96);
        for &v in ac.values() {
            assert!(v.abs() <= 1.0 + 1e-12, "out of range: {v}");
        }
    }

    #[test]
    fn lags_beyond_series_are_zero() {
        let ac = autocorrelation(&[1.0, 2.0, 1.0], 10);
        for k in 3..=10 {
            assert_eq!(ac.at(k), Some(0.0));
        }
        assert_eq!(ac.at(11), None);
    }

    #[test]
    fn single_lag_matches_full_computation() {
        let series: Vec<f64> = (0..64).map(|i| ((i * 31) % 17) as f64).collect();
        let full = autocorrelation(&series, 20);
        for lag in 0..=20 {
            let single = autocorrelation_at(&series, lag);
            assert!(
                (single - full.at(lag).unwrap()).abs() < 1e-12,
                "lag {lag}: {single} vs {:?}",
                full.at(lag)
            );
        }
    }

    #[test]
    fn white_noise_band_matches_known_z_values() {
        // z(99%) ~ 2.5758, z(95%) ~ 1.9600
        let band99 = white_noise_band(300, 0.99);
        assert!((band99 - 2.5758 / (300.0f64).sqrt()).abs() < 1e-3);
        let band95 = white_noise_band(100, 0.95);
        assert!((band95 - 1.9600 / 10.0).abs() < 1e-3);
    }

    #[test]
    fn white_noise_band_edge_cases() {
        assert!(white_noise_band(0, 0.99).is_infinite());
        // Confidence is clamped, not panicking.
        assert!(white_noise_band(10, 1.5).is_finite());
        assert!(white_noise_band(10, -0.5) >= 0.0);
    }

    #[test]
    fn normal_quantile_spot_checks() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-4);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        // Tail region exercised too.
        assert!((normal_quantile(0.0001) + 3.719016).abs() < 1e-3);
    }

    #[test]
    fn last_significant_lag_detects_memory() {
        // splitmix64 gives a properly decorrelated sequence.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let noise: Vec<f64> = (0..300).map(|_| next()).collect();
        let ac = autocorrelation(&noise, 140);
        let band = white_noise_band(ac.series_len(), 0.99);
        // A pure sine keeps significant correlation at long lags; white noise
        // loses it early.
        let sine: Vec<f64> = (0..300).map(|i| (i as f64 * 0.2).sin()).collect();
        let ac_sine = autocorrelation(&sine, 140);
        let sig_sine = ac_sine.last_significant_lag(band).unwrap_or(0);
        let sig_noise = ac.last_significant_lag(band).unwrap_or(0);
        assert!(
            sig_sine > sig_noise,
            "sine {sig_sine} should exceed noise {sig_noise}"
        );
        // A constant series has no significant lag at all.
        let flat = autocorrelation(&[1.0; 300], 140);
        assert_eq!(flat.last_significant_lag(band), None);
    }
}
