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
use crate::{Options, Scale};

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

/// Runs the Figure 4 experiment (the paper's eight protocols in parallel).
pub fn run(o: &Options) -> Fig4Result {
    let scale = o.scale;
    let evolutions = parallel_map(PolicyTriple::paper_eight().to_vec(), move |policy| {
        evolution(scale, policy)
    });
    Fig4Result { evolutions }
}

/// Cycles at which the distribution is captured (cycle 0 = the initial
/// random topology): `{0, 1%, 10%, 100%}` of the cycle budget, matching
/// the paper's 0/3/30/300.
fn capture_at(scale: Scale) -> Vec<u64> {
    let mut at = vec![0, scale.cycles / 100, scale.cycles / 10, scale.cycles];
    at.dedup();
    at
}

/// One protocol's degree distributions at the capture cycles.
fn evolution(scale: Scale, policy: PolicyTriple) -> DegreeEvolution {
    let protocol = scale.protocol(policy);
    let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0xf14);
    let captures = capture_at(scale)
        .into_iter()
        .map(|cycle| {
            sim.run_cycles(cycle - sim.cycle());
            let graph = sim.csr_snapshot().graph().undirected();
            (cycle, graph.degree_distribution())
        })
        .collect();
    DegreeEvolution { policy, captures }
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
        let result = Fig4Result {
            evolutions: vec![
                evolution(scale, "(rand,head,pushpull)".parse().unwrap()),
                evolution(scale, "(rand,rand,pushpull)".parse().unwrap()),
            ],
        };
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
