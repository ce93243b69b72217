//! Linear and logarithmic histograms for distribution plots.

use core::fmt;

/// Error returned when constructing a histogram with invalid bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// Lower bound was not strictly below the upper bound.
    EmptyRange,
    /// Requested zero bins.
    ZeroBins,
    /// Logarithmic histogram bounds must be strictly positive.
    NonPositiveBound,
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::EmptyRange => write!(f, "histogram range is empty"),
            HistogramError::ZeroBins => write!(f, "histogram needs at least one bin"),
            HistogramError::NonPositiveBound => {
                write!(f, "logarithmic histogram bounds must be positive")
            }
        }
    }
}

impl std::error::Error for HistogramError {}

/// Fixed-range, equal-width histogram.
///
/// Out-of-range samples are counted separately as underflow/overflow so no
/// observation is silently lost.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pss_stats::HistogramError> {
/// use pss_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// for x in [1.0, 1.5, 9.9, -3.0] {
///     h.record(x);
/// }
/// assert_eq!(h.counts()[0], 2);
/// assert_eq!(h.counts()[4], 1);
/// assert_eq!(h.underflow(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::EmptyRange`] if `lo >= hi` and
    /// [`HistogramError::ZeroBins`] if `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, HistogramError> {
        if bins == 0 {
            return Err(HistogramError::ZeroBins);
        }
        if lo >= hi || lo.is_nan() || hi.is_nan() {
            return Err(HistogramError::EmptyRange);
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Guard against floating-point edge where x is a hair below hi.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Inclusive lower edge of bin `i`.
    pub fn bin_lower(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * i as f64
    }

    /// Midpoint of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.bin_lower(i) + width / 2.0
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// Iterator over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c))
    }
}

/// Histogram with logarithmically spaced bins, for log-log plots such as the
/// degree distributions of the paper's Figure 4.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pss_stats::HistogramError> {
/// use pss_stats::LogHistogram;
///
/// let mut h = LogHistogram::new(1.0, 1000.0, 3)?; // decades: [1,10), [10,100), [100,1000)
/// for x in [2.0, 5.0, 50.0, 500.0] {
///     h.record(x);
/// }
/// assert_eq!(h.counts(), &[2, 1, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    log_lo: f64,
    log_hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl LogHistogram {
    /// Creates a histogram over `[lo, hi)` with `bins` log-spaced bins.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::NonPositiveBound`] unless `0 < lo`,
    /// [`HistogramError::EmptyRange`] if `lo >= hi`, and
    /// [`HistogramError::ZeroBins`] if `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, HistogramError> {
        if bins == 0 {
            return Err(HistogramError::ZeroBins);
        }
        if lo <= 0.0 || hi <= 0.0 {
            return Err(HistogramError::NonPositiveBound);
        }
        if lo >= hi || lo.is_nan() || hi.is_nan() {
            return Err(HistogramError::EmptyRange);
        }
        Ok(LogHistogram {
            log_lo: lo.ln(),
            log_hi: hi.ln(),
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Records one observation; non-positive values count as underflow.
    pub fn record(&mut self, x: f64) {
        if x <= 0.0 {
            self.underflow += 1;
            return;
        }
        let lx = x.ln();
        if lx < self.log_lo {
            self.underflow += 1;
        } else if lx >= self.log_hi {
            self.overflow += 1;
        } else {
            let width = (self.log_hi - self.log_lo) / self.counts.len() as f64;
            let idx = ((lx - self.log_lo) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Geometric center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let width = (self.log_hi - self.log_lo) / self.counts.len() as f64;
        (self.log_lo + width * (i as f64 + 0.5)).exp()
    }

    /// Observations below the range (including non-positive values).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// Iterator over `(geometric_bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bin_center(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_errors() {
        assert_eq!(Histogram::new(0.0, 1.0, 0), Err(HistogramError::ZeroBins));
        assert_eq!(Histogram::new(1.0, 1.0, 4), Err(HistogramError::EmptyRange));
        assert_eq!(Histogram::new(2.0, 1.0, 4), Err(HistogramError::EmptyRange));
        assert_eq!(
            LogHistogram::new(0.0, 10.0, 4),
            Err(HistogramError::NonPositiveBound)
        );
        assert_eq!(
            LogHistogram::new(-1.0, 10.0, 4),
            Err(HistogramError::NonPositiveBound)
        );
        assert_eq!(
            LogHistogram::new(10.0, 10.0, 4),
            Err(HistogramError::EmptyRange)
        );
    }

    #[test]
    fn linear_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!(h.counts().iter().all(|&c| c == 1));
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn linear_under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(-0.1);
        h.record(1.0); // hi is exclusive
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts(), &[0, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn bin_edges_and_centers() {
        let h = Histogram::new(0.0, 10.0, 5).unwrap();
        assert_eq!(h.bin_lower(0), 0.0);
        assert_eq!(h.bin_lower(4), 8.0);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn value_just_below_hi_lands_in_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 3).unwrap();
        h.record(1.0 - 1e-16); // rounds to 1.0/width numerically
        assert_eq!(h.counts().iter().sum::<u64>() + h.overflow(), 1);
    }

    #[test]
    fn log_binning_decades() {
        let mut h = LogHistogram::new(1.0, 1000.0, 3).unwrap();
        for x in [1.0, 9.9, 10.0, 99.0, 100.0, 999.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
    }

    #[test]
    fn log_under_and_overflow() {
        let mut h = LogHistogram::new(1.0, 100.0, 2).unwrap();
        h.record(0.0);
        h.record(-5.0);
        h.record(0.5);
        h.record(100.0);
        assert_eq!(h.underflow(), 3);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn log_bin_centers_are_geometric() {
        let h = LogHistogram::new(1.0, 100.0, 2).unwrap();
        assert!((h.bin_center(0) - 10.0f64.sqrt()).abs() < 1e-9);
        assert!((h.bin_center(1) - 10.0 * 10.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn iter_pairs() {
        let mut h = Histogram::new(0.0, 4.0, 2).unwrap();
        h.record(1.0);
        h.record(3.0);
        h.record(3.5);
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![(1.0, 1), (3.0, 2)]);
    }

    #[test]
    fn display_of_errors() {
        assert!(HistogramError::EmptyRange.to_string().contains("empty"));
        assert!(HistogramError::ZeroBins.to_string().contains("bin"));
        assert!(HistogramError::NonPositiveBound
            .to_string()
            .contains("positive"));
    }
}
