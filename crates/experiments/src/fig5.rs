//! **Figure 5** — autocorrelation of a fixed node's degree time series.
//!
//! Starting from the random topology, one node's degree is recorded for the
//! full run and its autocorrelation computed up to lag 140, with the 99 %
//! white-noise confidence band. The paper's reading:
//! `(rand,head,pushpull)` is statistically indistinguishable from white
//! noise, `(rand,head,push)` shows weak high-frequency periodicity, and the
//! `(*,rand,*)` protocols show slow oscillations with strong short-term
//! correlation.

use pss_core::{
    NodeId, PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs,
};
use pss_sim::scenario;
use pss_stats::Autocorrelation;

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Confidence level of the white-noise band (paper: 0.99).
const CONFIDENCE: f64 = 0.99;

/// The protocols of Figure 5: the paper plots the four `rand`
/// peer-selection variants and omits `(tail,*,*)` "for clarity".
const PROTOCOLS: [PolicyTriple; 4] = [
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::Push),
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::PushPull),
    PolicyTriple::new(Ps::Rand, Vs::Head, Vp::Push),
    PolicyTriple::new(Ps::Rand, Vs::Head, Vp::PushPull),
];

/// Maximum lag (paper: 140), at most half the series length.
fn max_lag(scale: Scale) -> usize {
    140.min(scale.cycles as usize / 2)
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

/// Runs the Figure 5 experiment (protocols in parallel); the series
/// length is the cycle count.
pub fn run(o: &Options) -> Fig5Result {
    let scale = o.scale;
    let band = pss_stats::white_noise_band(scale.cycles as usize, CONFIDENCE);
    let protocols = parallel_map(PROTOCOLS.to_vec(), move |policy| trace(scale, policy, band));
    Fig5Result { protocols, band }
}

/// The autocorrelation of one protocol's traced node, its significance
/// judged against the white-noise `band`.
fn trace(scale: Scale, policy: PolicyTriple, band: f64) -> ProtocolAutocorrelation {
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
    let autocorrelation = pss_stats::autocorrelation(&degrees, max_lag(scale));
    let last_significant_lag = autocorrelation.last_significant_lag(band);
    ProtocolAutocorrelation {
        policy,
        autocorrelation,
        last_significant_lag,
    }
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
        let band = pss_stats::white_noise_band(scale.cycles as usize, CONFIDENCE);
        assert!(band > 0.0);
        let result = Fig5Result {
            protocols: vec![
                trace(scale, "(rand,head,pushpull)".parse().unwrap(), band),
                trace(scale, "(rand,rand,pushpull)".parse().unwrap(), band),
            ],
            band,
        };
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
        assert_eq!(section.series.as_ref().map(Table::len), Some(2 * 61));
    }
}
