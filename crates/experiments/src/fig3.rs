//! **Figure 3** — convergence from lattice and random starts.
//!
//! All eight protocols run from both a ring-lattice and a uniform-random
//! initial topology; the paper plots the first 100 of 300 cycles of average
//! path length, clustering coefficient and average degree, showing
//! convergence to the same values regardless of the start.

use pss_core::PolicyTriple;
use pss_graph::GraphMetrics;

use crate::dynamics::{random_baseline, run_dynamics, ProtocolDynamics, ScenarioKind};
use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Result of the Figure 3 experiment.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Series per protocol, lattice start.
    pub lattice: Vec<ProtocolDynamics>,
    /// Series per protocol, random start.
    pub random: Vec<ProtocolDynamics>,
    /// Uniform random baseline.
    pub baseline: GraphMetrics,
}

impl Report for Fig3Result {
    /// Final values from both starts — the convergence claim is that the
    /// two columns agree per protocol — and the long-format series of both
    /// scenarios.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "cc (lattice)",
            "cc (random)",
            "deg (lattice)",
            "deg (random)",
            "apl (lattice)",
            "apl (random)",
        ]);
        t.row(vec![
            "uniform random baseline".into(),
            String::new(),
            fmt_f64(self.baseline.clustering_coefficient, 4),
            String::new(),
            fmt_f64(self.baseline.average_degree, 2),
            String::new(),
            fmt_f64(self.baseline.path_lengths.average, 3),
        ]);
        for (l, r) in self.lattice.iter().zip(&self.random) {
            let last = |s: &pss_stats::TimeSeries| s.values().last().copied().unwrap_or(f64::NAN);
            t.row(vec![
                l.policy.to_string(),
                fmt_f64(last(&l.clustering), 4),
                fmt_f64(last(&r.clustering), 4),
                fmt_f64(last(&l.degree), 2),
                fmt_f64(last(&r.degree), 2),
                fmt_f64(last(&l.path_length), 3),
                fmt_f64(last(&r.path_length), 3),
            ]);
        }

        let mut series = Table::new(vec![
            "scenario",
            "protocol",
            "cycle",
            "clustering",
            "avg_degree",
            "avg_path_length",
        ]);
        for d in self.lattice.iter().chain(&self.random) {
            for ((cycle, cc), (deg, apl)) in d
                .clustering
                .iter()
                .zip(d.degree.values().iter().zip(d.path_length.values()))
            {
                series.row(vec![
                    d.scenario.label().to_owned(),
                    d.policy.to_string(),
                    cycle.to_string(),
                    fmt_f64(cc, 6),
                    fmt_f64(*deg, 4),
                    fmt_f64(*apl, 4),
                ]);
            }
        }
        vec![Section::new("fig3", t, Some(series))]
    }
}

/// Runs the Figure 3 experiment: 2 scenarios × the paper's eight
/// protocols in parallel.
pub fn run(o: &Options) -> Fig3Result {
    let scale = o.scale;
    let jobs: Vec<(PolicyTriple, ScenarioKind)> = PolicyTriple::paper_eight()
        .into_iter()
        .flat_map(|p| [(p, ScenarioKind::Lattice), (p, ScenarioKind::Random)])
        .collect();
    let results = parallel_map(jobs, move |(policy, kind)| trace(scale, policy, kind));
    let (lattice, random): (Vec<_>, Vec<_>) = results
        .into_iter()
        .partition(|d| d.scenario == ScenarioKind::Lattice);
    Fig3Result {
        lattice,
        random,
        baseline: random_baseline(scale),
    }
}

/// One protocol's series from one start, over the plotted cycles: the
/// paper shows 100 of its 300-cycle runs.
fn trace(scale: Scale, policy: PolicyTriple, kind: ScenarioKind) -> ProtocolDynamics {
    run_dynamics(policy, scale, kind, scale.cycles.min(100), 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_from_both_starts_at_tiny_scale() {
        let scale = Scale {
            nodes: 200,
            cycles: 30,
            view_size: 10,
            seed: 99,
        };
        let newscast = PolicyTriple::newscast();
        let result = Fig3Result {
            lattice: vec![trace(scale, newscast, ScenarioKind::Lattice)],
            random: vec![trace(scale, newscast, ScenarioKind::Random)],
            baseline: random_baseline(scale),
        };
        let last = |s: &pss_stats::TimeSeries| *s.values().last().unwrap();
        let cc_l = last(&result.lattice[0].clustering);
        let cc_r = last(&result.random[0].clustering);
        // The paper's claim: properties converge to the same value from
        // radically different starts.
        assert!(
            (cc_l - cc_r).abs() < 0.08,
            "lattice {cc_l} vs random {cc_r}"
        );
        let deg_l = last(&result.lattice[0].degree);
        let deg_r = last(&result.random[0].degree);
        assert!((deg_l - deg_r).abs() < 3.0, "degree {deg_l} vs {deg_r}");
        let section = result.sections().remove(0);
        assert!(section.summary.to_string().contains("(rand,head,pushpull)"));
        assert!(section.series.as_ref().is_some_and(|s| !s.is_empty()));
    }
}
