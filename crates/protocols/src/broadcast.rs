//! Epidemic broadcast (rumor spreading) over a peer sampling service.
//!
//! The classic push-infect model: every informed node pushes the rumor to
//! `fanout` sampled peers per round. With a uniform sampler this floods the
//! group in `O(log N)` rounds with high probability; with a gossip sampler
//! the speed and final coverage depend on the overlay's properties — exactly
//! the dependence the paper's evaluation quantifies.
//!
//! The run is membership-aware: each round re-reads the source's live set
//! ([`SampleSource::live_ids`]), so coverage is always a fraction of who
//! actually participates. Nodes that crash mid-run stop counting (and stop
//! sending), joiners enter uninformed, and pushes that land on dead ids are
//! tallied as [`wasted`](BroadcastReport::wasted) instead of silently
//! succeeding.

use pss_core::NodeId;

use crate::SampleSource;

/// Broadcast workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastConfig {
    /// Peers each informed node pushes to per round.
    pub fanout: usize,
    /// Hard stop, in rounds.
    pub max_rounds: usize,
    /// Stop as soon as a round infects nobody new.
    pub stop_when_quiescent: bool,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            fanout: 2,
            max_rounds: 100,
            stop_when_quiescent: true,
        }
    }
}

/// Result of a broadcast run. All per-round series index round 0 as the
/// state before the first round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastReport {
    informed_per_round: Vec<usize>,
    live_per_round: Vec<usize>,
    delivered: u64,
    redundant: u64,
    wasted: u64,
}

impl BroadcastReport {
    /// Cumulative number of informed *live* nodes after each round; index 0
    /// is the state before the first round (1 when the origin is live).
    /// Informed nodes that die later drop back out of the count.
    pub fn informed_per_round(&self) -> &[usize] {
        &self.informed_per_round
    }

    /// Live population after each round, aligned with
    /// [`informed_per_round`](Self::informed_per_round).
    pub fn live_per_round(&self) -> &[usize] {
        &self.live_per_round
    }

    /// Rounds actually executed.
    pub fn rounds(&self) -> usize {
        self.informed_per_round.len().saturating_sub(1)
    }

    /// Final fraction of the *live* population informed, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        let live = *self.live_per_round.last().unwrap_or(&0);
        if live == 0 {
            return 0.0;
        }
        *self.informed_per_round.last().unwrap_or(&0) as f64 / live as f64
    }

    /// First round by which at least `fraction` of the then-live population
    /// was informed, if ever.
    pub fn rounds_to_reach(&self, fraction: f64) -> Option<usize> {
        self.informed_per_round
            .iter()
            .zip(&self.live_per_round)
            .position(|(&informed, &live)| informed >= (fraction * live as f64).ceil() as usize)
    }

    /// Pushes that landed on a live node (first deliveries and redundant
    /// ones alike).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Pushes that landed on an already-informed live node.
    pub fn redundant(&self) -> u64 {
        self.redundant
    }

    /// Pushes addressed to a node that was dead on arrival.
    pub fn wasted(&self) -> u64 {
        self.wasted
    }
}

/// Runs a push broadcast from `origin`, drawing peers from `source`.
///
/// `n` is the static id space used when the source exposes no membership
/// (`live_ids() == None`); membership-tracking sources override it every
/// round. Each round: every informed live node draws `config.fanout` peers
/// and informs them; then the source's membership layer advances one round,
/// which may kill informed nodes or admit uninformed joiners.
///
/// # Examples
///
/// ```
/// use pss_core::NodeId;
/// use pss_protocols::{broadcast, OracleSource};
///
/// let mut oracle = OracleSource::new(1000, 7);
/// let report = broadcast::run(
///     &mut oracle,
///     1000,
///     NodeId::new(0),
///     &broadcast::BroadcastConfig::default(),
/// );
/// assert_eq!(report.coverage(), 1.0);
/// assert!(report.rounds() < 30);
/// ```
pub fn run(
    source: &mut impl SampleSource,
    n: usize,
    origin: NodeId,
    config: &BroadcastConfig,
) -> BroadcastReport {
    // The live set a static source implies: exactly 0..n.
    fn live_or_range(ids: Option<Vec<NodeId>>, n: usize) -> Vec<NodeId> {
        ids.unwrap_or_else(|| (0..n as u64).map(NodeId::new).collect())
    }
    // Refreshes the liveness bitmap, growing both it and `informed` to
    // cover every live id (joiners can exceed the static id space).
    fn mark_live(live: &[NodeId], bit: &mut Vec<bool>, informed: &mut Vec<bool>) {
        let max = live.iter().map(|id| id.as_index() + 1).max().unwrap_or(0);
        bit.clear();
        bit.resize(max, false);
        if informed.len() < max {
            informed.resize(max, false);
        }
        for id in live {
            bit[id.as_index()] = true;
        }
    }
    fn count_informed(live: &[NodeId], informed: &[bool]) -> usize {
        live.iter()
            .filter(|id| informed.get(id.as_index()).copied().unwrap_or(false))
            .count()
    }

    let mut informed: Vec<bool> = vec![false; n];
    let mut live_bit: Vec<bool> = Vec::new();
    let mut delivered = 0u64;
    let mut redundant = 0u64;
    let mut wasted = 0u64;

    let mut live = live_or_range(source.live_ids(), n);
    mark_live(&live, &mut live_bit, &mut informed);
    if live_bit.get(origin.as_index()).copied().unwrap_or(false) {
        informed[origin.as_index()] = true;
    }
    let mut history = vec![count_informed(&live, &informed)];
    let mut live_history = vec![live.len()];

    let mut senders: Vec<NodeId> = Vec::new();
    for _ in 0..config.max_rounds {
        if !live.is_empty() && history.last() == live_history.last() {
            break;
        }
        senders.clear();
        senders.extend(live.iter().copied().filter(|id| informed[id.as_index()]));
        let mut newly = 0usize;
        for &sender in &senders {
            for _ in 0..config.fanout {
                if let Some(peer) = source.sample_for(sender) {
                    let idx = peer.as_index();
                    if !live_bit.get(idx).copied().unwrap_or(false) {
                        wasted += 1;
                        continue;
                    }
                    delivered += 1;
                    if informed.len() <= idx {
                        informed.resize(idx + 1, false);
                    }
                    if informed[idx] {
                        redundant += 1;
                    } else {
                        informed[idx] = true;
                        newly += 1;
                    }
                }
            }
        }
        source.advance_round();
        live = live_or_range(source.live_ids(), n);
        mark_live(&live, &mut live_bit, &mut informed);
        history.push(count_informed(&live, &informed));
        live_history.push(live.len());
        if config.stop_when_quiescent && newly == 0 {
            break;
        }
    }

    BroadcastReport {
        informed_per_round: history,
        live_per_round: live_history,
        delivered,
        redundant,
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
    fn oracle_broadcast_reaches_everyone() {
        let mut oracle = OracleSource::new(500, 1);
        let report = run(
            &mut oracle,
            500,
            NodeId::new(3),
            &BroadcastConfig::default(),
        );
        assert_eq!(report.coverage(), 1.0);
        // log-time dissemination: fanout 2 should finish way below 50 rounds.
        assert!(report.rounds() < 30, "took {} rounds", report.rounds());
        // Monotone non-decreasing history starting at 1.
        assert_eq!(report.informed_per_round()[0], 1);
        assert!(report.informed_per_round().windows(2).all(|w| w[0] <= w[1]));
        assert!(report.live_per_round().iter().all(|&l| l == 500));
        assert_eq!(report.wasted(), 0);
        assert!(report.delivered() >= report.redundant());
    }

    #[test]
    fn gossip_overlay_broadcast_covers_population() {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).unwrap();
        let mut sim = scenario::random_overlay(&config, 300, 2);
        sim.run_cycles(10);
        let report = run(
            &mut SimSampleSource::new(&mut sim),
            300,
            NodeId::new(0),
            &BroadcastConfig::default(),
        );
        assert!(report.coverage() > 0.99, "coverage {}", report.coverage());
    }

    #[test]
    fn coverage_counts_only_live_nodes_under_churn() {
        // Regression for the static-denominator bug: kill a third of the
        // overlay mid-run and the report must still be able to read 100 %
        // of the *live* population, with rounds_to_reach(1.0) firing.
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).unwrap();
        let mut sim = scenario::random_overlay(&config, 240, 6);
        sim.run_cycles(10);
        sim.kill_random(80);
        sim.run_cycles(5); // let views heal a little
        let mut src = EngineSampleSource::new(&mut sim, 3);
        let origin = src.live_ids().unwrap()[0];
        let report = run(&mut src, 240, origin, &BroadcastConfig::default());
        assert_eq!(*report.live_per_round().last().unwrap(), 160);
        assert!(
            report.coverage() > 0.99,
            "live coverage {}",
            report.coverage()
        );
        assert!(
            report.rounds_to_reach(1.0).is_some(),
            "rounds_to_reach(1.0) never fired: {:?} / {:?}",
            report.informed_per_round(),
            report.live_per_round()
        );
    }

    #[test]
    fn dead_deliveries_count_as_wasted() {
        // SimSampleSource hands out raw view entries, dead links included;
        // right after a massacre the broadcast must observe wasted pushes.
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).unwrap();
        let mut sim = scenario::random_overlay(&config, 200, 8);
        sim.run_cycles(10);
        sim.kill_random(100);
        let origin = sim.alive_ids()[0];
        let mut src = SimSampleSource::new(&mut sim);
        let report = run(&mut src, 200, origin, &BroadcastConfig::default());
        assert!(report.wasted() > 0, "no wasted pushes right after a kill");
        assert!(*report.live_per_round().last().unwrap() <= 100);
    }

    #[test]
    fn zero_fanout_never_spreads() {
        let mut oracle = OracleSource::new(100, 1);
        let config = BroadcastConfig {
            fanout: 0,
            max_rounds: 10,
            stop_when_quiescent: true,
        };
        let report = run(&mut oracle, 100, NodeId::new(0), &config);
        assert_eq!(report.coverage(), 0.01);
        assert_eq!(report.rounds(), 1); // stops immediately: nothing new
    }

    #[test]
    fn rounds_to_reach_fractions() {
        let mut oracle = OracleSource::new(200, 5);
        let report = run(
            &mut oracle,
            200,
            NodeId::new(0),
            &BroadcastConfig::default(),
        );
        let half = report.rounds_to_reach(0.5).unwrap();
        let full = report.rounds_to_reach(1.0).unwrap();
        assert!(half <= full);
        assert_eq!(report.rounds_to_reach(0.0), Some(0));
    }

    #[test]
    fn empty_population() {
        let mut oracle = OracleSource::new(0, 1);
        let report = run(&mut oracle, 0, NodeId::new(0), &BroadcastConfig::default());
        assert_eq!(report.coverage(), 0.0);
    }

    #[test]
    fn max_rounds_is_respected() {
        let mut oracle = OracleSource::new(100_000, 1);
        let config = BroadcastConfig {
            fanout: 1,
            max_rounds: 3,
            stop_when_quiescent: false,
        };
        let report = run(&mut oracle, 100_000, NodeId::new(0), &config);
        assert_eq!(report.rounds(), 3);
        assert!(report.coverage() < 1.0);
    }
}
