//! **Figure 5** — autocorrelation of a fixed node's degree time series.
//!
//! Starting from the random topology, one node's degree is recorded for the
//! full run and its autocorrelation computed up to lag 140, with the 99 %
//! white-noise confidence band. The paper's reading:
//! `(rand,head,pushpull)` is statistically indistinguishable from white
//! noise, `(rand,head,push)` shows weak high-frequency periodicity, and the
//! `(*,rand,*)` protocols show slow oscillations with strong short-term
//! correlation.

use pss_core::{NodeId, PolicyTriple};
use pss_sim::scenario;
use pss_stats::Autocorrelation;

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::Scale;

/// Confidence level of the white-noise band (paper: 0.99).
const CONFIDENCE: f64 = 0.99;

/// Configuration for the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Common scale (the series length is the cycle count).
    pub scale: Scale,
    /// Maximum lag (paper: 140).
    pub max_lag: usize,
    /// Protocols; the paper plots the four `rand` peer-selection variants
    /// and omits `(tail,*,*)` "for clarity".
    pub protocols: Vec<PolicyTriple>,
}

impl Fig5Config {
    /// Default configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        Fig5Config {
            scale,
            max_lag: 140.min(scale.cycles as usize / 2),
            protocols: vec![
                "(rand,rand,push)".parse().expect("valid"),
                "(rand,rand,pushpull)".parse().expect("valid"),
                "(rand,head,push)".parse().expect("valid"),
                "(rand,head,pushpull)".parse().expect("valid"),
            ],
        }
    }
}

/// Autocorrelation of one protocol's traced node.
#[derive(Debug, Clone)]
pub struct ProtocolAutocorrelation {
    /// The protocol.
    pub policy: PolicyTriple,
    /// The autocorrelation function of the traced node's degree series.
    pub autocorrelation: Autocorrelation,
    /// Largest lag whose coefficient escapes the confidence band.
    pub last_significant_lag: Option<usize>,
}

/// Result of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One entry per protocol.
    pub protocols: Vec<ProtocolAutocorrelation>,
    /// Half-width of the white-noise confidence band.
    pub band: f64,
}

impl Report for Fig5Result {
    /// Summary per protocol, and the long-format series: one row per
    /// (protocol, lag).
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "r_1",
            "r_5",
            "r_20",
            "last significant lag",
            "99% band",
        ]);
        for p in &self.protocols {
            t.row(vec![
                p.policy.to_string(),
                fmt_f64(p.autocorrelation.at(1).unwrap_or(f64::NAN), 3),
                fmt_f64(p.autocorrelation.at(5).unwrap_or(f64::NAN), 3),
                fmt_f64(p.autocorrelation.at(20).unwrap_or(f64::NAN), 3),
                p.last_significant_lag
                    .map_or("none".into(), |l| l.to_string()),
                fmt_f64(self.band, 4),
            ]);
        }

        let mut series = Table::new(vec!["protocol", "lag", "autocorrelation"]);
        for p in &self.protocols {
            for (lag, &r) in p.autocorrelation.values().iter().enumerate() {
                series.row(vec![p.policy.to_string(), lag.to_string(), fmt_f64(r, 6)]);
            }
        }
        vec![Section::new("fig5", t, Some(series))]
    }
}

/// Runs the Figure 5 experiment (protocols in parallel).
pub fn run(config: &Fig5Config) -> Fig5Result {
    let scale = config.scale;
    let max_lag = config.max_lag;
    let band = pss_stats::white_noise_band(scale.cycles as usize, CONFIDENCE);

    let protocols = parallel_map(config.protocols.clone(), move |policy| {
        let protocol = scale.protocol(policy);
        let seed = scale.seed ^ 0xf15;
        let mut sim = scenario::random_overlay(&protocol, scale.nodes, seed);
        // "a fixed random node" — any node is statistically equivalent in
        // the random topology; take the middle one deterministically.
        let traced = NodeId::new((scale.nodes / 2) as u64);
        let mut degrees = Vec::new();
        for _ in 0..scale.cycles {
            sim.run_cycle();
            let snapshot = sim.csr_snapshot();
            if let Some(idx) = snapshot.index_of(traced) {
                degrees.push(snapshot.graph().undirected().degree(idx) as f64);
            }
        }
        let autocorrelation = pss_stats::autocorrelation(&degrees, max_lag);
        let last_significant_lag = autocorrelation.last_significant_lag(band);
        ProtocolAutocorrelation {
            policy,
            autocorrelation,
            last_significant_lag,
        }
    });

    Fig5Result { protocols, band }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_view_selection_has_longer_memory() {
        let scale = Scale {
            nodes: 400,
            cycles: 120,
            view_size: 15,
            seed: 31,
        };
        let config = Fig5Config {
            scale,
            max_lag: 40,
            protocols: vec![
                "(rand,head,pushpull)".parse().unwrap(),
                "(rand,rand,pushpull)".parse().unwrap(),
            ],
        };
        let result = run(&config);
        assert_eq!(result.protocols.len(), 2);
        assert!(result.band > 0.0);
        let head_r1 = result.protocols[0].autocorrelation.at(1).unwrap();
        let rand_r1 = result.protocols[1].autocorrelation.at(1).unwrap();
        // The paper's qualitative claim: rand view selection produces strong
        // short-term correlation, head view selection does not.
        assert!(
            rand_r1 > head_r1,
            "rand r_1 {rand_r1} should exceed head r_1 {head_r1}"
        );
        assert!(
            rand_r1 > 0.3,
            "rand r_1 {rand_r1} should be clearly positive"
        );
        let section = result.sections().remove(0);
        assert!(!section.summary.is_empty());
        assert_eq!(section.series.as_ref().map(Table::len), Some(2 * 41));
    }
}
