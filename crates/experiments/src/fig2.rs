//! **Figure 2** — dynamics of graph properties in the growing scenario.
//!
//! Six protocols are plotted (the four pushpull variants plus
//! non-partitioned runs of `(rand,rand,push)` and `(tail,rand,push)`;
//! `(rand,head,push)` and `(tail,head,push)` are excluded because they
//! partition in this scenario, see Table 1). Each subplot shows one
//! property per cycle against the uniform random baseline.

use pss_core::{PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs};
use pss_graph::GraphMetrics;

use crate::dynamics::{random_baseline, run_dynamics, ProtocolDynamics, ScenarioKind};
use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::Options;

/// Seeds to retry for the partitioning push protocols until a connected
/// run is found.
const CONNECT_ATTEMPTS: u32 = 5;

/// The six protocols of Figure 2, in the paper's legend order.
const PROTOCOLS: [PolicyTriple; 6] = [
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::Push),
    PolicyTriple::new(Ps::Tail, Vs::Rand, Vp::Push),
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::PushPull),
    PolicyTriple::new(Ps::Tail, Vs::Rand, Vp::PushPull),
    PolicyTriple::new(Ps::Rand, Vs::Head, Vp::PushPull),
    PolicyTriple::new(Ps::Tail, Vs::Head, Vp::PushPull),
];

/// Result of the Figure 2 experiment.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Per-protocol property series.
    pub dynamics: Vec<ProtocolDynamics>,
    /// Uniform random baseline at the same scale.
    pub baseline: GraphMetrics,
}

impl Report for Fig2Result {
    /// Final values vs the random baseline, and the long-format series: one
    /// row per (protocol, cycle).
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "clustering coeff",
            "avg degree",
            "avg path length",
            "connected",
        ]);
        t.row(vec![
            "uniform random baseline".into(),
            fmt_f64(self.baseline.clustering_coefficient, 4),
            fmt_f64(self.baseline.average_degree, 2),
            fmt_f64(self.baseline.path_lengths.average, 3),
            "yes".into(),
        ]);
        for d in &self.dynamics {
            t.row(vec![
                d.policy.to_string(),
                fmt_f64(d.clustering.values().last().copied().unwrap_or(f64::NAN), 4),
                fmt_f64(d.degree.values().last().copied().unwrap_or(f64::NAN), 2),
                fmt_f64(
                    d.path_length.values().last().copied().unwrap_or(f64::NAN),
                    3,
                ),
                if d.connected_at_end { "yes" } else { "NO" }.into(),
            ]);
        }
        let mut series = Table::new(vec![
            "protocol",
            "cycle",
            "clustering",
            "avg_degree",
            "avg_path_length",
        ]);
        for d in &self.dynamics {
            for ((cycle, cc), (deg, apl)) in d
                .clustering
                .iter()
                .zip(d.degree.values().iter().zip(d.path_length.values()))
            {
                series.row(vec![
                    d.policy.to_string(),
                    cycle.to_string(),
                    fmt_f64(cc, 6),
                    fmt_f64(*deg, 4),
                    fmt_f64(*apl, 4),
                ]);
            }
        }
        vec![Section::new("fig2", t, Some(series))]
    }
}

/// Runs the Figure 2 experiment (protocols in parallel): `scale.cycles`
/// is the full run length (paper: 300), and N / 100 nodes join per cycle
/// (paper: 100).
pub fn run(o: &Options) -> Fig2Result {
    let scale = o.scale;
    let per_cycle = (scale.nodes / 100).max(1);
    let dynamics = parallel_map(PROTOCOLS.to_vec(), move |policy| {
        run_dynamics(
            policy,
            scale,
            ScenarioKind::Growing { per_cycle },
            scale.cycles,
            CONNECT_ATTEMPTS,
        )
    });
    Fig2Result {
        dynamics,
        baseline: random_baseline(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn runs_at_tiny_scale() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.cycles = 25;
        let result = run(&Options::at(scale));
        assert_eq!(result.dynamics.len(), 6);
        for d in &result.dynamics {
            assert_eq!(d.clustering.len(), 25);
        }
        // Pushpull protocols converge and stay connected at this scale.
        for d in result
            .dynamics
            .iter()
            .filter(|d| d.policy.propagation == pss_core::ViewPropagation::PushPull)
        {
            assert!(d.connected_at_end, "{} disconnected", d.policy);
        }
        let section = result.sections().remove(0);
        assert!(section
            .summary
            .to_string()
            .contains("uniform random baseline"));
        assert_eq!(section.series.as_ref().map(Table::len), Some(6 * 25));
    }
}
