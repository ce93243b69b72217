//! Protocol configuration.

use core::fmt;

use crate::{Freshness, PolicyTriple};

/// Error returned when constructing an invalid [`ProtocolConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The view size `c` must be at least 1.
    ZeroViewSize,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroViewSize => write!(f, "view size must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Static parameters of a peer sampling protocol instance: the policy triple
/// and the maximal view size `c`.
///
/// The paper fixes `c = 30` for all experiments; [`ProtocolConfig::paper`]
/// reproduces that.
///
/// # Examples
///
/// ```
/// use pss_core::{PolicyTriple, ProtocolConfig};
///
/// let config = ProtocolConfig::paper(PolicyTriple::newscast());
/// assert_eq!(config.view_size(), 30);
/// assert_eq!(config.to_string(), "(rand,head,pushpull) c=30");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    policy: PolicyTriple,
    view_size: usize,
    freshness: Freshness,
}

impl ProtocolConfig {
    /// The view size used throughout the paper's evaluation.
    pub const PAPER_VIEW_SIZE: usize = 30;

    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroViewSize`] if `view_size == 0`.
    pub fn new(policy: PolicyTriple, view_size: usize) -> Result<Self, ConfigError> {
        if view_size == 0 {
            return Err(ConfigError::ZeroViewSize);
        }
        Ok(ProtocolConfig {
            policy,
            view_size,
            freshness: Freshness::HopCount,
        })
    }

    /// The paper's configuration for a given policy: `c = 30`.
    pub fn paper(policy: PolicyTriple) -> Self {
        ProtocolConfig {
            policy,
            view_size: Self::PAPER_VIEW_SIZE,
            freshness: Freshness::HopCount,
        }
    }

    /// Selects the freshness dimension (default [`Freshness::HopCount`],
    /// the generic skeleton's semantics; [`Freshness::Timestamp`] is the
    /// Newscast instantiation's).
    #[must_use]
    pub fn with_freshness(mut self, freshness: Freshness) -> Self {
        self.freshness = freshness;
        self
    }

    /// The policy triple.
    pub fn policy(&self) -> PolicyTriple {
        self.policy
    }

    /// The freshness dimension.
    pub fn freshness(&self) -> Freshness {
        self.freshness
    }

    /// The maximal view size `c`.
    pub fn view_size(&self) -> usize {
        self.view_size
    }
}

impl fmt::Display for ProtocolConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} c={}", self.policy, self.view_size)?;
        if self.freshness != Freshness::HopCount {
            write!(f, " freshness={}", self.freshness)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_construction() {
        let c = ProtocolConfig::new(PolicyTriple::lpbcast(), 20).unwrap();
        assert_eq!(c.view_size(), 20);
        assert_eq!(c.policy(), PolicyTriple::lpbcast());
    }

    #[test]
    fn zero_view_size_rejected() {
        let err = ProtocolConfig::new(PolicyTriple::lpbcast(), 0).unwrap_err();
        assert_eq!(err, ConfigError::ZeroViewSize);
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn paper_preset() {
        let c = ProtocolConfig::paper(PolicyTriple::newscast());
        assert_eq!(c.view_size(), 30);
    }

    #[test]
    fn display_includes_policy_and_size() {
        let c = ProtocolConfig::new(PolicyTriple::lpbcast(), 5).unwrap();
        assert_eq!(c.to_string(), "(rand,rand,push) c=5");
    }
}
