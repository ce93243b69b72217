//! Exact integer frequency distributions (e.g. node degree → frequency).

use std::collections::BTreeMap;

/// Exact frequency counts over non-negative integer values.
///
/// This is the natural representation for degree distributions: the paper's
/// Figure 4 plots `frequency(degree)` on a log-log scale, which requires
/// exact counts rather than binned ones.
///
/// # Examples
///
/// ```
/// use pss_stats::CountDistribution;
///
/// let d: CountDistribution = [3, 3, 5, 7, 3].into_iter().collect();
/// assert_eq!(d.count_of(3), 3);
/// assert_eq!(d.total(), 5);
/// assert_eq!(d.mode(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CountDistribution {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl CountDistribution {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations equal to `value`.
    pub fn count_of(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest observed value.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest observed value.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Most frequent value (smallest one on ties), or `None` if empty.
    pub fn mode(&self) -> Option<u64> {
        self.counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&v, _)| v)
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: f64 = self.counts.iter().map(|(&v, &c)| v as f64 * c as f64).sum();
        sum / self.total as f64
    }

    /// Population variance of the distribution.
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self
            .counts
            .iter()
            .map(|(&v, &c)| {
                let d = v as f64 - mean;
                d * d * c as f64
            })
            .sum();
        ss / self.total as f64
    }

    /// Exact p-quantile via the inverse empirical CDF (`p` clamped to
    /// `[0, 1]`).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let target = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (&v, &c) in &self.counts {
            acc += c;
            if acc >= target {
                return Some(v);
            }
        }
        self.max()
    }

    /// Iterator over `(value, count)` in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &CountDistribution) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
        self.total += other.total;
    }
}

impl FromIterator<u64> for CountDistribution {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut d = CountDistribution::new();
        for v in iter {
            d.record(v);
        }
        d
    }
}

impl Extend<u64> for CountDistribution {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_distribution() {
        let d = CountDistribution::new();
        assert!(d.is_empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
        assert_eq!(d.mode(), None);
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn basic_counts() {
        let d: CountDistribution = [1, 2, 2, 3, 3, 3].into_iter().collect();
        assert_eq!(d.count_of(1), 1);
        assert_eq!(d.count_of(2), 2);
        assert_eq!(d.count_of(3), 3);
        assert_eq!(d.count_of(4), 0);
        assert_eq!(d.total(), 6);
        assert_eq!(d.min(), Some(1));
        assert_eq!(d.max(), Some(3));
        assert_eq!(d.mode(), Some(3));
    }

    #[test]
    fn mean_and_variance() {
        let d: CountDistribution = [2, 4, 4, 4, 5, 5, 7, 9].into_iter().collect();
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.variance(), 4.0);
    }

    #[test]
    fn quantiles() {
        let d: CountDistribution = (1..=100).collect();
        assert_eq!(d.quantile(0.0), Some(1));
        assert_eq!(d.quantile(0.5), Some(50));
        assert_eq!(d.quantile(1.0), Some(100));
        assert_eq!(d.quantile(0.25), Some(25));
        // Out-of-range p is clamped.
        assert_eq!(d.quantile(2.0), Some(100));
        assert_eq!(d.quantile(-1.0), Some(1));
    }

    #[test]
    fn mode_tie_prefers_smaller_value() {
        let d: CountDistribution = [5, 5, 9, 9].into_iter().collect();
        assert_eq!(d.mode(), Some(5));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: CountDistribution = [10, 10, 10].into_iter().collect();
        let b: CountDistribution = [10, 10, 30].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count_of(10), 5);
        assert_eq!(a.count_of(30), 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn iter_is_sorted() {
        let d: CountDistribution = [9, 1, 5, 1].into_iter().collect();
        let items: Vec<_> = d.iter().collect();
        assert_eq!(items, vec![(1, 2), (5, 1), (9, 1)]);
    }
}
