//! Cycle-indexed time series recording.

use crate::Summary;

/// A cycle-indexed series of floating-point observations.
///
/// A per-cycle experiment loop pushes one value after each cycle (average
/// degree, clustering coefficient, dead-link count, …); the experiment
/// harness then prints the series or post-processes it (summaries for
/// Table 2).
///
/// # Examples
///
/// ```
/// use pss_stats::TimeSeries;
///
/// let mut ts = TimeSeries::default();
/// ts.push(0, 30.0);
/// ts.push(1, 31.5);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((1, 31.5)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    cycles: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Appends an observation for `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is not strictly greater than the last recorded
    /// cycle — series are append-only and cycle-monotonic by construction.
    pub fn push(&mut self, cycle: u64, value: f64) {
        if let Some(&last) = self.cycles.last() {
            assert!(
                cycle > last,
                "time series cycles must be strictly increasing: {cycle} after {last}"
            );
        }
        self.cycles.push(cycle);
        self.values.push(value);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The recorded cycle numbers, in increasing order.
    pub fn cycles(&self) -> &[u64] {
        &self.cycles
    }

    /// The recorded values, aligned with [`TimeSeries::cycles`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Last `(cycle, value)` pair, if any.
    pub fn last(&self) -> Option<(u64, f64)> {
        match (self.cycles.last(), self.values.last()) {
            (Some(&c), Some(&v)) => Some((c, v)),
            _ => None,
        }
    }

    /// Iterator over `(cycle, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.cycles.iter().copied().zip(self.values.iter().copied())
    }

    /// Summary statistics of the values.
    pub fn summary(&self) -> Summary {
        self.values.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_series_is_empty() {
        let ts = TimeSeries::default();
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.last(), None);
    }

    #[test]
    fn push_and_read_back() {
        let mut ts = TimeSeries::default();
        ts.push(0, 1.0);
        ts.push(5, 2.0);
        ts.push(6, 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.last(), Some((6, 3.0)));
        assert_eq!(ts.cycles(), &[0, 5, 6]);
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_push_panics() {
        let mut ts = TimeSeries::default();
        ts.push(3, 1.0);
        ts.push(3, 2.0);
    }

    #[test]
    fn summary_over_values() {
        let mut ts = TimeSeries::default();
        ts.push(0, 2.0);
        ts.push(1, 4.0);
        let s = ts.summary();
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn iter_yields_pairs() {
        let mut ts = TimeSeries::default();
        ts.push(1, 10.0);
        ts.push(2, 20.0);
        let v: Vec<_> = ts.iter().collect();
        assert_eq!(v, vec![(1, 10.0), (2, 20.0)]);
    }
}
