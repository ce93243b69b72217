//! Shared machinery for the per-cycle dynamics experiments (Figures 2, 3).

use pss_core::PolicyTriple;
use pss_graph::{gen, GraphMetrics, MetricsConfig};
use pss_sim::{scenario, ShardedSimulation};
use pss_stats::TimeSeries;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::Scale;

/// Which bootstrap scenario a dynamics run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Growing overlay with `per_cycle` joiners (Section 5.1).
    Growing {
        /// Joiners per cycle.
        per_cycle: usize,
    },
    /// Ring lattice start (Section 5.2).
    Lattice,
    /// Uniform random start (Section 5.3).
    Random,
}

impl ScenarioKind {
    /// Short label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::Growing { .. } => "growing",
            ScenarioKind::Lattice => "lattice",
            ScenarioKind::Random => "random",
        }
    }

    fn build(
        &self,
        policy: PolicyTriple,
        scale: Scale,
        seed: u64,
    ) -> ShardedSimulation<pss_core::PeerSamplingNode> {
        let protocol = scale.protocol(policy);
        match *self {
            ScenarioKind::Growing { per_cycle } => {
                scenario::growing_overlay(&protocol, scale.nodes, per_cycle, seed)
            }
            ScenarioKind::Lattice => scenario::lattice_overlay(&protocol, scale.nodes, seed),
            ScenarioKind::Random => scenario::random_overlay(&protocol, scale.nodes, seed),
        }
    }
}

/// The three per-cycle property series of one protocol in one scenario.
#[derive(Debug, Clone)]
pub struct ProtocolDynamics {
    /// The protocol.
    pub policy: PolicyTriple,
    /// The scenario it ran in.
    pub scenario: ScenarioKind,
    /// Clustering coefficient per cycle.
    pub clustering: TimeSeries,
    /// Average node degree per cycle.
    pub degree: TimeSeries,
    /// Average path length per cycle.
    pub path_length: TimeSeries,
    /// Whether the final overlay was connected.
    pub connected_at_end: bool,
    /// Seeds tried until a connected run was found (1 = first try).
    pub attempts: u32,
}

/// Runs one protocol through `cycles` cycles of a scenario, recording the
/// three headline properties each cycle.
///
/// If `require_connected` is positive, up to that many seeds are tried until
/// the final overlay is connected — the paper plots non-partitioned runs of
/// the push protocols in Figure 2 ("a non partitioned run of both
/// (rand,rand,push) and (tail,rand,push) is included").
pub fn run_dynamics(
    policy: PolicyTriple,
    scale: Scale,
    kind: ScenarioKind,
    cycles: u64,
    require_connected: u32,
) -> ProtocolDynamics {
    let attempts_allowed = require_connected.max(1);
    let mut last = None;
    for attempt in 0..attempts_allowed {
        let seed = scale.run_seed(u64::from(attempt) * 7919 + 1);
        let mut sim = kind.build(policy, scale, seed);
        let config = MetricsConfig::sampled();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let mut clustering = TimeSeries::default();
        let mut degree = TimeSeries::default();
        let mut path_length = TimeSeries::default();
        for _ in 0..cycles {
            sim.run_cycle();
            let graph = sim.csr_snapshot().graph().undirected();
            let m = GraphMetrics::measure(&graph, &config, &mut rng);
            clustering.push(sim.cycle(), m.clustering_coefficient);
            degree.push(sim.cycle(), m.average_degree);
            path_length.push(sim.cycle(), m.path_lengths.average);
        }
        let connected =
            pss_graph::components::connected_components(&sim.csr_snapshot().graph().undirected())
                .is_connected();
        let dynamics = ProtocolDynamics {
            policy,
            scenario: kind,
            clustering,
            degree,
            path_length,
            connected_at_end: connected,
            attempts: attempt + 1,
        };
        if connected || attempt + 1 == attempts_allowed {
            return dynamics;
        }
        last = Some(dynamics);
    }
    last.expect("loop executed at least once")
}

/// Measures the paper's uniform random baseline (each view a uniform random
/// sample) at the given scale — the horizontal reference lines of
/// Figures 2 and 3.
pub fn random_baseline(scale: Scale) -> GraphMetrics {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xba5e_b411);
    let g = gen::uniform_view_digraph(scale.nodes, scale.view_size, &mut rng).undirected();
    let config = MetricsConfig {
        clustering_samples: Some(2000.min(scale.nodes)),
        path_sources: Some(50.min(scale.nodes)),
    };
    GraphMetrics::measure(&g, &config, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ScenarioKind::Growing { per_cycle: 5 }.label(), "growing");
        assert_eq!(ScenarioKind::Lattice.label(), "lattice");
        assert_eq!(ScenarioKind::Random.label(), "random");
    }

    #[test]
    fn dynamics_records_every_cycle() {
        let scale = Scale {
            nodes: 120,
            cycles: 10,
            view_size: 10,
            seed: 5,
        };
        let d = run_dynamics(PolicyTriple::newscast(), scale, ScenarioKind::Random, 10, 1);
        assert_eq!(d.clustering.len(), 10);
        assert_eq!(d.degree.len(), 10);
        assert_eq!(d.path_length.len(), 10);
        assert!(d.connected_at_end);
        assert_eq!(d.attempts, 1);
    }

    #[test]
    fn growing_dynamics_reaches_target() {
        let scale = Scale {
            nodes: 100,
            cycles: 20,
            view_size: 8,
            seed: 6,
        };
        let d = run_dynamics(
            PolicyTriple::newscast(),
            scale,
            ScenarioKind::Growing { per_cycle: 10 },
            20,
            1,
        );
        // Degree series grows as the population does.
        let first = d.degree.values()[0];
        let last = *d.degree.values().last().unwrap();
        assert!(last > first);
    }

    #[test]
    fn baseline_close_to_theory() {
        let scale = Scale {
            nodes: 1000,
            cycles: 1,
            view_size: 20,
            seed: 7,
        };
        let b = random_baseline(scale);
        // Average degree just under 2c (duplicate edges), clustering near
        // 2c/n, path length around log(n)/log(degree).
        assert!(b.average_degree > 38.0 && b.average_degree <= 40.0);
        assert!(b.clustering_coefficient < 0.08);
        assert!(b.path_lengths.average > 1.5 && b.path_lengths.average < 3.5);
    }
}
