//! **Figure 4** — evolution of the degree distribution (log-log).
//!
//! Starting from the random topology, the degree distribution is captured
//! at exponentially spaced cycles (0, 3, 30, 300). The paper's key split:
//! `head` view selection yields a balanced, fast-converging distribution,
//! `rand` view selection an unbalanced, heavy-tailed, slowly converging one.

use pss_core::PolicyTriple;
use pss_sim::scenario;
use pss_stats::CountDistribution;

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::Scale;

/// Configuration for the Figure 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Common scale.
    pub scale: Scale,
    /// Cycles at which to capture the distribution (cycle 0 = the initial
    /// random topology). Defaults to `{0, 1%, 10%, 100%}` of the cycle
    /// budget, matching the paper's 0/3/30/300.
    pub capture_at: Vec<u64>,
    /// Protocols (default: the paper's eight).
    pub protocols: Vec<PolicyTriple>,
}

impl Fig4Config {
    /// Default configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        Fig4Config {
            scale,
            capture_at: vec![0, scale.cycles / 100, scale.cycles / 10, scale.cycles],
            protocols: PolicyTriple::paper_eight().to_vec(),
        }
    }
}

/// Degree distributions of one protocol at the capture cycles.
#[derive(Debug, Clone)]
pub struct DegreeEvolution {
    /// The protocol.
    pub policy: PolicyTriple,
    /// `(cycle, distribution)` pairs in capture order.
    pub captures: Vec<(u64, CountDistribution)>,
}

/// Result of the Figure 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// One evolution per protocol.
    pub evolutions: Vec<DegreeEvolution>,
}

impl Report for Fig4Result {
    /// Distribution shape at the final capture, and the long-format series:
    /// one row per (protocol, cycle, degree).
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "mean degree",
            "max degree",
            "degree variance",
            "p99 degree",
        ]);
        for e in &self.evolutions {
            if let Some((_, dist)) = e.captures.last() {
                t.row(vec![
                    e.policy.to_string(),
                    fmt_f64(dist.mean(), 2),
                    dist.max().map_or("-".into(), |m| m.to_string()),
                    fmt_f64(dist.variance(), 1),
                    dist.quantile(0.99).map_or("-".into(), |q| q.to_string()),
                ]);
            }
        }

        let mut series = Table::new(vec!["protocol", "cycle", "degree", "frequency"]);
        for e in &self.evolutions {
            for (cycle, dist) in &e.captures {
                for (degree, count) in dist.iter() {
                    series.row(vec![
                        e.policy.to_string(),
                        cycle.to_string(),
                        degree.to_string(),
                        count.to_string(),
                    ]);
                }
            }
        }
        vec![Section::new("fig4", t, Some(series))]
    }
}

/// Runs the Figure 4 experiment (protocols in parallel).
pub fn run(config: &Fig4Config) -> Fig4Result {
    let scale = config.scale;
    let mut capture_at = config.capture_at.clone();
    capture_at.sort_unstable();
    capture_at.dedup();

    let evolutions = parallel_map(config.protocols.clone(), move |policy| {
        let protocol = scale.protocol(policy);
        let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0xf14);
        let mut captures = Vec::with_capacity(capture_at.len());
        for &cycle in &capture_at {
            let to_run = cycle - sim.cycle();
            sim.run_cycles(to_run);
            let dist = sim
                .csr_snapshot()
                .graph()
                .undirected()
                .degree_distribution();
            captures.push((cycle, dist));
        }
        DegreeEvolution { policy, captures }
    });

    Fig4Result { evolutions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_selection_is_more_balanced_than_rand() {
        let scale = Scale {
            nodes: 800,
            cycles: 80,
            view_size: 20,
            seed: 11,
        };
        let config = Fig4Config {
            scale,
            capture_at: vec![0, 80],
            protocols: vec![
                "(rand,head,pushpull)".parse().unwrap(),
                "(rand,rand,pushpull)".parse().unwrap(),
            ],
        };
        let result = run(&config);
        assert_eq!(result.evolutions.len(), 2);
        let var = |i: usize| result.evolutions[i].captures.last().unwrap().1.variance();
        // The paper's headline split: head view selection balances degrees,
        // rand view selection produces a much wider distribution.
        assert!(
            var(1) > 2.0 * var(0),
            "rand variance {} should dwarf head variance {}",
            var(1),
            var(0)
        );
        // Capture at cycle 0 is the initial random graph for both.
        let init0 = &result.evolutions[0].captures[0].1;
        assert_eq!(init0.total(), 800);
        let section = result.sections().remove(0);
        assert!(!section.summary.is_empty());
        assert!(section.series.as_ref().is_some_and(|s| !s.is_empty()));
    }
}
