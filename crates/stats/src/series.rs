//! Cycle-indexed time series recording.

use crate::{autocorrelation, Autocorrelation, Summary};

/// A named, cycle-indexed series of floating-point observations.
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
/// let mut ts = TimeSeries::new("avg degree");
/// ts.push(0, 30.0);
/// ts.push(1, 31.5);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.value_at(1), Some(31.5));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    name: String,
    cycles: Vec<u64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            cycles: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The display name.
    pub fn name(&self) -> &str {
        &self.name
    }

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

    /// Value recorded exactly at `cycle`, if any.
    pub fn value_at(&self, cycle: u64) -> Option<f64> {
        self.cycles
            .binary_search(&cycle)
            .ok()
            .map(|i| self.values[i])
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

    /// Autocorrelation of the value sequence up to `max_lag`.
    pub fn autocorrelation(&self, max_lag: usize) -> Autocorrelation {
        autocorrelation(&self.values, max_lag)
    }

    /// Sub-series restricted to cycles in `[from, to)`.
    pub fn window(&self, from: u64, to: u64) -> TimeSeries {
        let mut out = TimeSeries::new(self.name.clone());
        for (c, v) in self.iter() {
            if c >= from && c < to {
                out.push(c, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_series_is_empty() {
        let ts = TimeSeries::new("x");
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.last(), None);
        assert_eq!(ts.name(), "x");
    }

    #[test]
    fn push_and_read_back() {
        let mut ts = TimeSeries::new("deg");
        ts.push(0, 1.0);
        ts.push(5, 2.0);
        ts.push(6, 3.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.value_at(5), Some(2.0));
        assert_eq!(ts.value_at(4), None);
        assert_eq!(ts.last(), Some((6, 3.0)));
        assert_eq!(ts.cycles(), &[0, 5, 6]);
        assert_eq!(ts.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_push_panics() {
        let mut ts = TimeSeries::new("bad");
        ts.push(3, 1.0);
        ts.push(3, 2.0);
    }

    #[test]
    fn window_selects_half_open_range() {
        let mut ts = TimeSeries::new("w");
        for c in 0..10 {
            ts.push(c, c as f64);
        }
        let w = ts.window(3, 7);
        assert_eq!(w.cycles(), &[3, 4, 5, 6]);
        assert_eq!(w.values(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(w.name(), "w");
    }

    #[test]
    fn summary_over_values() {
        let mut ts = TimeSeries::new("s");
        ts.push(0, 2.0);
        ts.push(1, 4.0);
        let s = ts.summary();
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn autocorrelation_delegates() {
        let mut ts = TimeSeries::new("ac");
        for c in 0..100 {
            ts.push(c, if c % 2 == 0 { 1.0 } else { -1.0 });
        }
        let ac = ts.autocorrelation(1);
        assert!(ac.at(1).unwrap() < -0.9);
    }

    #[test]
    fn iter_yields_pairs() {
        let mut ts = TimeSeries::new("i");
        ts.push(1, 10.0);
        ts.push(2, 20.0);
        let v: Vec<_> = ts.iter().collect();
        assert_eq!(v, vec![(1, 10.0), (2, 20.0)]);
    }
}
