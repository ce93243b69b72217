//! Property-based tests for the application layer: liveness accounting in
//! broadcast and aggregation, and the oracle-vs-overlay decay ordering.

use proptest::prelude::*;
use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_protocols::{
    aggregation, broadcast, run_under_workload, AppConfig, OracleSource, SampleSource, Sampler,
    SimSampleSource,
};
use pss_sim::workload::Workload;
use pss_sim::{scenario, ShardedSimulation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A live-filtered peer source over a [`ShardedSimulation`] that replays a
/// scripted churn trace: each round kills and joins a scheduled number of
/// nodes *after* the application's sends, exactly like the engine sources
/// but with membership under test control.
struct ChurnTraceSource {
    sim: ShardedSimulation<PeerSamplingNode>,
    rng: SmallRng,
    trace: Vec<(usize, usize)>,
    round: usize,
}

impl ChurnTraceSource {
    fn new(
        sim: ShardedSimulation<PeerSamplingNode>,
        seed: u64,
        trace: Vec<(usize, usize)>,
    ) -> Self {
        ChurnTraceSource {
            sim,
            rng: SmallRng::seed_from_u64(seed),
            trace,
            round: 0,
        }
    }
}

impl SampleSource for ChurnTraceSource {
    fn sample_for(&mut self, node: NodeId) -> Option<NodeId> {
        let view = self.sim.view_of(node)?;
        let live: Vec<NodeId> = view.ids().filter(|&id| self.sim.is_alive(id)).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[self.rng.random_range(0..live.len())])
    }

    fn advance_round(&mut self) {
        if let Some(&(kills, joins)) = self.trace.get(self.round) {
            self.sim.kill_random(kills);
            if joins > 0 {
                self.sim.add_nodes_with_random_contacts(joins, 3);
            }
        }
        self.round += 1;
        self.sim.run_cycle();
    }

    fn is_live(&self, node: NodeId) -> bool {
        self.sim.is_alive(node)
    }

    fn live_ids(&self) -> Option<Vec<NodeId>> {
        Some(self.sim.alive_ids())
    }
}

fn converged_sim(n: usize, seed: u64) -> ShardedSimulation<PeerSamplingNode> {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
    let mut sim = scenario::random_overlay(&config, n, seed);
    sim.run_cycles(10);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // On a static membership the informed count never shrinks, never
    // exceeds the population, and the delivery ledger balances exactly:
    // every delivered push either informed a node or was redundant, and
    // nobody was dead to waste one on.
    #[test]
    fn broadcast_history_is_monotone_and_ledger_balances_when_static(
        n in 10usize..200,
        fanout in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let mut oracle = OracleSource::new(n, seed);
        let config = broadcast::BroadcastConfig {
            fanout,
            max_rounds: 40,
            stop_when_quiescent: true,
        };
        let report = broadcast::run(&mut oracle, n, NodeId::new(0), &config);
        let history = report.informed_per_round();
        prop_assert!(history.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(history.iter().all(|&i| i <= n));
        prop_assert_eq!(report.wasted(), 0);
        let newly = (history.last().unwrap() - 1) as u64; // origin is free
        prop_assert_eq!(report.delivered(), newly + report.redundant());
    }

    // Under an arbitrary churn trace the informed count is bounded by the
    // live count every round (deaths can shrink it — monotonicity is a
    // static-membership property), and a live-filtered source never
    // wastes a delivery.
    #[test]
    fn broadcast_informed_is_bounded_by_live_under_churn(
        n in 30usize..60,
        seed in 0u64..500,
        trace in prop::collection::vec((0usize..3, 0usize..3), 6..14),
    ) {
        let rounds = trace.len();
        let mut source = ChurnTraceSource::new(converged_sim(n, seed), seed ^ 0xc0de, trace);
        let config = broadcast::BroadcastConfig {
            fanout: 2,
            max_rounds: rounds,
            stop_when_quiescent: false,
        };
        let report = broadcast::run(&mut source, n, NodeId::new(0), &config);
        let informed = report.informed_per_round();
        let live = report.live_per_round();
        prop_assert_eq!(informed.len(), live.len());
        for (i, (&inf, &liv)) in informed.iter().zip(live).enumerate() {
            prop_assert!(inf <= liv, "round {i}: {inf} informed > {liv} live");
        }
        prop_assert_eq!(report.wasted(), 0);
        prop_assert!(report.coverage() <= 1.0);
    }

    // Push-pull averaging moves value between pairs, never in or out of
    // the system: with nobody dying, the live mean is conserved and the
    // variance never grows.
    #[test]
    fn aggregation_conserves_mass_when_nobody_dies(
        n in 10usize..150,
        rounds in 1usize..25,
        seed in 0u64..1_000,
    ) {
        let mut values: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 10.0).collect();
        let initial_mean = values.iter().sum::<f64>() / n as f64;
        let mut oracle = OracleSource::new(n, seed);
        let report = aggregation::run(&mut oracle, &mut values, rounds);
        prop_assert_eq!(report.wasted(), 0);
        let final_mean = values.iter().sum::<f64>() / n as f64;
        prop_assert!((final_mean - initial_mean).abs() < 1e-9);
        let vars = report.variance_per_round();
        prop_assert!(vars.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }

    // Raw view entries keep pointing at the departed: after a kill, the
    // sequential source's dead links surface as wasted exchanges, and the
    // variance trajectory is still finite over the survivors.
    #[test]
    fn aggregation_counts_wasted_exchanges_on_dead_links(
        n in 40usize..80,
        kill in 10usize..20,
        seed in 0u64..500,
    ) {
        let mut sim = converged_sim(n, seed);
        sim.kill_random(kill);
        let mut values: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let report =
            aggregation::run(&mut SimSampleSource::new(&mut sim), &mut values, 12);
        prop_assert!(report.wasted() > 0, "no dead link was ever drawn");
        prop_assert!(report.variance_per_round().iter().all(|v| v.is_finite()));
    }

    // At any fixed seed, the ideal uniform oracle never decays the
    // aggregate variance slower than the overlay sampler on the same
    // engine under the same churn schedule (small tolerance: both decay
    // estimates are finite-sample).
    #[test]
    fn oracle_decay_never_trails_overlay_under_churn(
        nodes in 100usize..180,
        seed in 0u64..50,
    ) {
        let schedule = "quiet:4,kill:0.2,churn:0.01x8";
        let compiled = Workload::parse(schedule, seed).unwrap().compile(nodes);
        let decay = |sampler: Sampler| {
            let app = AppConfig { fanout: 2, sampler, seed: seed ^ 0xa99, ..AppConfig::default() };
            let config = ProtocolConfig::new(PolicyTriple::newscast(), 12).unwrap();
            let mut sim = scenario::random_overlay(&config, nodes, seed);
            let (_, report) = run_under_workload(&mut sim, &compiled, 12, &app);
            report.decay_factor()
        };
        let oracle = decay(Sampler::Oracle);
        let overlay = decay(Sampler::Overlay);
        prop_assert!(
            oracle <= overlay + 0.05,
            "oracle decay {oracle:.3} > overlay decay {overlay:.3}"
        );
    }
}
