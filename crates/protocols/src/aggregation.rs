//! Push-pull gossip averaging over a peer sampling service.
//!
//! The aggregation protocol of Jelasity–Montresor (cited as the paper's
//! references [14, 16, 20]): every node holds a value; each round every node
//! draws a peer and both replace their values with the average. Under
//! uniform sampling, the empirical variance decays exponentially (by a
//! factor of about `2√e ≈ 3.30` per round); under a skewed sampler the decay
//! is slower — a direct, application-level measurement of sampling quality.
//!
//! The run is membership-aware: only currently-live nodes
//! ([`SampleSource::live_ids`]) initiate and answer exchanges, the variance
//! trajectory is computed over the live population only, and an exchange
//! aimed at a dead peer is skipped and tallied as
//! [`wasted`](AggregationReport::wasted) — averaging with a corpse's stale
//! value would silently leak mass out of the live population.

use pss_core::NodeId;
use pss_stats::Summary;

use crate::SampleSource;

/// Result of an averaging run.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationReport {
    variance_per_round: Vec<f64>,
    mean: f64,
    wasted: u64,
}

impl AggregationReport {
    /// Population variance of the *live* node values after each round;
    /// index 0 is the initial variance.
    pub fn variance_per_round(&self) -> &[f64] {
        &self.variance_per_round
    }

    /// Rounds executed.
    pub fn rounds(&self) -> usize {
        self.variance_per_round.len().saturating_sub(1)
    }

    /// The mean of the initial live values — with a stable membership,
    /// gossip averaging conserves this mass.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Exchanges that targeted a dead peer and were skipped.
    pub fn wasted(&self) -> u64 {
        self.wasted
    }

    /// Empirical per-round variance decay factor (geometric mean over the
    /// run): `(var_T / var_0)^(1/T)`. Smaller is faster convergence;
    /// uniform sampling achieves ≈ 1/(2√e) ≈ 0.303. Exact convergence
    /// (`var_T == 0`) reports 0.0 — the best possible outcome; `NaN` is
    /// reserved for undefined cases (no rounds, or a non-positive initial
    /// variance that leaves nothing to decay).
    pub fn decay_factor(&self) -> f64 {
        let first = *self.variance_per_round.first().unwrap_or(&0.0);
        let last = *self.variance_per_round.last().unwrap_or(&0.0);
        let t = self.rounds();
        if t == 0 || first <= 0.0 {
            return f64::NAN;
        }
        if last <= 0.0 {
            return 0.0;
        }
        (last / first).powf(1.0 / t as f64)
    }
}

/// Runs `rounds` rounds of push-pull averaging over `values` (node `i`
/// holds `values[i]`), drawing peers from `source`. Returns the variance
/// trajectory; `values` is left in its final state.
///
/// When the source tracks membership, only live ids within
/// `0..values.len()` participate; exchanges with dead peers are skipped and
/// counted as [`wasted`](AggregationReport::wasted).
///
/// # Examples
///
/// ```
/// use pss_protocols::{aggregation, OracleSource};
///
/// let mut values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
/// let mut oracle = OracleSource::new(1000, 3);
/// let report = aggregation::run(&mut oracle, &mut values, 20);
/// // Variance collapses towards zero; every node now holds ≈ the mean.
/// assert!(report.variance_per_round().last().unwrap() < &1e-3);
/// assert!((report.mean() - 499.5).abs() < 1e-6);
/// ```
pub fn run(source: &mut impl SampleSource, values: &mut [f64], rounds: usize) -> AggregationReport {
    let n = values.len();
    // Live participants within the value table; static sources mean 0..n.
    fn participants(source: &impl SampleSource, n: usize) -> Vec<usize> {
        match source.live_ids() {
            Some(ids) => ids
                .into_iter()
                .map(NodeId::as_index)
                .filter(|&i| i < n)
                .collect(),
            None => (0..n).collect(),
        }
    }
    fn live_variance(values: &[f64], live: &[usize]) -> f64 {
        let s: Summary = live.iter().map(|&i| values[i]).collect();
        s.population_variance()
    }

    let mut live = participants(source, n);
    let mean = if live.is_empty() {
        0.0
    } else {
        live.iter().map(|&i| values[i]).sum::<f64>() / live.len() as f64
    };
    let mut wasted = 0u64;
    let mut history = vec![live_variance(values, &live)];
    let mut live_bit = vec![false; n];
    for &i in &live {
        live_bit[i] = true;
    }
    for _ in 0..rounds {
        for &i in &live {
            let node = NodeId::new(i as u64);
            if let Some(peer) = source.sample_for(node) {
                let j = peer.as_index();
                if j >= n || !live_bit[j] {
                    wasted += 1;
                    continue;
                }
                if j != i {
                    let avg = (values[i] + values[j]) / 2.0;
                    values[i] = avg;
                    values[j] = avg;
                }
            }
        }
        source.advance_round();
        live = participants(source, n);
        live_bit.iter_mut().for_each(|b| *b = false);
        for &i in &live {
            live_bit[i] = true;
        }
        history.push(live_variance(values, &live));
    }
    AggregationReport {
        variance_per_round: history,
        mean,
        wasted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineSampleSource, OracleSource, SimSampleSource};
    use pss_core::{PolicyTriple, ProtocolConfig};
    use pss_sim::scenario;

    #[test]
    fn averaging_conserves_mass() {
        let mut values: Vec<f64> = (0..100).map(|i| (i * i) as f64).collect();
        let expected_mean = values.iter().sum::<f64>() / 100.0;
        let mut oracle = OracleSource::new(100, 1);
        let report = run(&mut oracle, &mut values, 15);
        assert!((report.mean() - expected_mean).abs() < 1e-9);
        let final_mean = values.iter().sum::<f64>() / 100.0;
        assert!((final_mean - expected_mean).abs() < 1e-6);
        assert_eq!(report.wasted(), 0);
    }

    #[test]
    fn variance_decays_monotonically_under_oracle() {
        let mut values: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut oracle = OracleSource::new(500, 2);
        let report = run(&mut oracle, &mut values, 25);
        let v = report.variance_per_round();
        assert!(v.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        assert!(v.last().unwrap() < &1e-6);
    }

    #[test]
    fn oracle_decay_near_theoretical_rate() {
        // Theory: E[var_{t+1}] = var_t / (2*sqrt(e)) ~ 0.303 var_t for
        // push-pull averaging with uniform random pairs.
        let mut values: Vec<f64> = (0..2000).map(|i| ((i % 2) * 1000) as f64).collect();
        let mut oracle = OracleSource::new(2000, 3);
        let report = run(&mut oracle, &mut values, 10);
        let decay = report.decay_factor();
        assert!(
            (0.2..0.45).contains(&decay),
            "decay factor {decay} out of expected range"
        );
    }

    #[test]
    fn exact_convergence_reports_zero_decay() {
        // Two nodes fully converge in one push-pull exchange: variance hits
        // exactly zero, which is the best possible outcome — the decay
        // factor must read 0.0, not NaN.
        let mut values = [0.0, 4.0];
        let mut oracle = OracleSource::new(2, 1);
        let report = run(&mut oracle, &mut values, 1);
        assert_eq!(values, [2.0, 2.0]);
        assert_eq!(*report.variance_per_round().last().unwrap(), 0.0);
        assert_eq!(report.decay_factor(), 0.0);
    }

    #[test]
    fn gossip_overlay_converges_too() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).unwrap();
        let mut sim = scenario::random_overlay(&config, 200, 5);
        sim.run_cycles(10);
        let mut values: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let report = run(&mut SimSampleSource::new(&mut sim), &mut values, 30);
        assert!(
            report.variance_per_round().last().unwrap() < &1e-2,
            "variance stuck at {:?}",
            report.variance_per_round().last()
        );
    }

    #[test]
    fn dead_peers_waste_exchanges_and_mass_stays_on_the_living() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).unwrap();
        let mut sim = scenario::random_overlay(&config, 120, 4);
        sim.run_cycles(10);
        sim.kill_random(60);
        let live: Vec<usize> = sim.alive_ids().iter().map(|id| id.as_index()).collect();
        let mut values: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let live_sum: f64 = live.iter().map(|&i| values[i]).sum();
        // Raw-view source: dead links get sampled and must be skipped.
        let mut src = SimSampleSource::new(&mut sim);
        let report = run(&mut src, &mut values, 3);
        assert!(report.wasted() > 0, "no wasted exchange right after a kill");
        let live_sum_after: f64 = live.iter().map(|&i| values[i]).sum();
        assert!(
            (live_sum - live_sum_after).abs() < 1e-6,
            "mass leaked: {live_sum} -> {live_sum_after}"
        );
        // The engine source filters dead peers up front: zero waste.
        let mut values: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let mut src = EngineSampleSource::new(&mut sim, 9);
        let report = run(&mut src, &mut values, 3);
        assert_eq!(report.wasted(), 0);
    }

    #[test]
    fn empty_and_single_populations() {
        let mut oracle = OracleSource::new(0, 1);
        let report = run(&mut oracle, &mut [], 5);
        assert_eq!(report.mean(), 0.0);
        assert!(report.decay_factor().is_nan());

        let mut oracle = OracleSource::new(1, 1);
        let mut one = [42.0];
        let report = run(&mut oracle, &mut one, 5);
        assert_eq!(report.mean(), 42.0);
        assert_eq!(one[0], 42.0);
    }

    #[test]
    fn zero_rounds_records_initial_variance_only() {
        let mut oracle = OracleSource::new(10, 1);
        let mut values: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let report = run(&mut oracle, &mut values, 0);
        assert_eq!(report.rounds(), 0);
        assert_eq!(report.variance_per_round().len(), 1);
        assert!(report.variance_per_round()[0] > 0.0);
        assert!(report.decay_factor().is_nan());
    }
}
