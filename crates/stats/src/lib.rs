//! Statistics toolkit used throughout the peer-sampling evaluation suite.
//!
//! The crate is deliberately small and dependency-free: it provides exactly
//! the statistical machinery the Middleware 2004 peer-sampling paper relies
//! on, implemented with numerically stable algorithms:
//!
//! * [`Summary`] — streaming count/mean/variance/min/max (Welford's method),
//!   used for degree statistics (Table 2 of the paper).
//! * [`autocorrelation`] — the sample autocorrelation function r_k exactly as
//!   defined in Section 6 of the paper, plus the 99 % white-noise confidence
//!   band used in Figure 5.
//! * [`CountDistribution`] — exact integer frequency counts, the degree
//!   distributions of Figure 4.
//! * [`chi_square_uniform`] — Pearson goodness-of-fit against uniform, the
//!   PeerSwap-style randomness audit of the adversarial suite.
//! * [`TimeSeries`] — a cycle-indexed recorder for per-cycle metrics.
//!
//! # Examples
//!
//! ```
//! use pss_stats::Summary;
//!
//! let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
//! assert_eq!(s.mean(), 5.0);
//! assert_eq!(s.population_variance(), 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autocorr;
mod chi2;
mod distribution;
mod series;
mod summary;

pub use autocorr::{autocorrelation, autocorrelation_at, white_noise_band, Autocorrelation};
pub use chi2::{chi_square, chi_square_sf, chi_square_uniform, ChiSquare};
pub use distribution::CountDistribution;
pub use series::TimeSeries;
pub use summary::Summary;
