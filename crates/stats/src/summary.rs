//! Streaming summary statistics via Welford's online algorithm.

use core::fmt;

/// Streaming summary statistics: count, mean, variance, min and max.
///
/// Uses Welford's online algorithm, which is numerically stable for long
/// streams (degree traces run for hundreds of cycles over 10⁴ nodes).
///
/// # Examples
///
/// ```
/// use pss_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.sample_variance(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored so that a single NaN produced by a
    /// degenerate metric (e.g. path length of an empty graph) cannot poison a
    /// whole experiment; callers that care can check [`Summary::count`].
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel Welford combine).
    ///
    /// The result is identical (up to floating-point rounding) to having
    /// pushed both streams into a single summary.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n), or 0.0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n − 1), or 0.0 with fewer than two points.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// True if no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.sample_std_dev(),
            self.min,
            self.max
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn empty_summary_is_well_behaved() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.push(42.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn known_mean_and_variance() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.population_variance(), 4.0);
        assert!(close(s.sample_variance(), 32.0 / 7.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let mut s = Summary::new();
        s.push(1.0);
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(f64::NEG_INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (left, right) = data.split_at(37);
        let mut a: Summary = left.iter().copied().collect();
        let b: Summary = right.iter().copied().collect();
        a.merge(&b);
        let all: Summary = data.iter().copied().collect();
        assert_eq!(a.count(), all.count());
        assert!(close(a.mean(), all.mean()));
        assert!(close(a.population_variance(), all.population_variance()));
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Summary = [1.0, 2.0, 3.0].iter().copied().collect();
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn extend_adds_observations() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation test: large offset, small spread.
        let offset = 1e9;
        let s: Summary = [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]
            .iter()
            .copied()
            .collect();
        assert!(close(s.mean() - offset, 10.0));
        assert!(close(s.population_variance(), 22.5));
    }

    #[test]
    fn display_formats_nonempty() {
        let s: Summary = [1.0, 3.0].iter().copied().collect();
        let text = s.to_string();
        assert!(text.contains("n=2"));
        assert!(text.contains("mean=2.0000"));
    }
}
