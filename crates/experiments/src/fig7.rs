//! **Figure 7** — self-healing after catastrophic failure.
//!
//! After converging from the random start, 50 % of all nodes crash at once;
//! the plot tracks the number of dead links (descriptors of dead nodes held
//! by live ones) over the following cycles. The paper's split: `head` view
//! selection heals exponentially fast (dead links hit zero within tens of
//! cycles; the pushpull variants overlap), `rand` view selection is linear
//! at best, with `(tail,rand,push)` even slowly accumulating dead links.

use pss_core::PolicyTriple;
use pss_sim::scenario;
use pss_stats::TimeSeries;

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::Scale;

/// Fraction of nodes killed at the failure cycle (paper: 0.5).
const KILL_FRACTION: f64 = 0.5;

/// Configuration for the Figure 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Common scale (cycles = convergence budget before the failure).
    pub scale: Scale,
    /// Protocols (default: the paper's eight).
    pub protocols: Vec<PolicyTriple>,
}

impl Fig7Config {
    /// Default configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        Fig7Config {
            scale,
            protocols: PolicyTriple::paper_eight().to_vec(),
        }
    }
}

/// Healing trajectory of one protocol.
#[derive(Debug, Clone)]
pub struct HealingCurve {
    /// The protocol.
    pub policy: PolicyTriple,
    /// Dead links per cycle after the failure.
    pub dead_links: TimeSeries,
    /// Dead links immediately after the failure (before any healing cycle).
    pub initial_dead_links: usize,
    /// First post-failure cycle with zero dead links, if reached.
    pub healed_at_cycle: Option<u64>,
}

impl HealingCurve {
    /// Dead links remaining at the end of the recovery window.
    pub fn remaining(&self) -> f64 {
        self.dead_links.values().last().copied().unwrap_or(f64::NAN)
    }
}

/// Result of the Figure 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// One curve per protocol.
    pub curves: Vec<HealingCurve>,
    /// The cycle at which the failure was injected.
    pub failure_cycle: u64,
}

impl Report for Fig7Result {
    /// Summary per protocol, and the long-format series: one row per
    /// (protocol, cycle).
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "dead links at failure",
            "healed at cycle",
            "remaining at end",
        ]);
        for c in &self.curves {
            t.row(vec![
                c.policy.to_string(),
                c.initial_dead_links.to_string(),
                c.healed_at_cycle
                    .map_or("not healed".into(), |c| c.to_string()),
                fmt_f64(c.remaining(), 0),
            ]);
        }

        let mut series = Table::new(vec!["protocol", "cycle", "dead links"]);
        for c in &self.curves {
            for (cycle, v) in c.dead_links.iter() {
                series.row(vec![c.policy.to_string(), cycle.to_string(), fmt_f64(v, 0)]);
            }
        }
        vec![Section::new("fig7", t, Some(series))]
    }
}

/// Runs the Figure 7 experiment (protocols in parallel).
pub fn run(config: &Fig7Config) -> Fig7Result {
    let scale = config.scale;
    // Cycles simulated after the failure (the paper plots 70 for the head
    // protocols and 200 for the rand ones; we run the maximum for all).
    let recovery = (scale.cycles * 2 / 3).max(40);

    let curves = parallel_map(config.protocols.clone(), move |policy| {
        let protocol = scale.protocol(policy);
        let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0xf17);
        sim.run_cycles(scale.cycles);
        sim.kill_random_fraction(KILL_FRACTION);
        let initial_dead_links = sim.dead_link_count();
        let mut dead_links = TimeSeries::default();
        for _ in 0..recovery {
            sim.run_cycle();
            dead_links.push(sim.cycle(), sim.dead_link_count() as f64);
        }
        let healed_at_cycle = dead_links.iter().find(|&(_, v)| v == 0.0).map(|(c, _)| c);
        HealingCurve {
            policy,
            dead_links,
            initial_dead_links,
            healed_at_cycle,
        }
    });

    Fig7Result {
        curves,
        failure_cycle: config.scale.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_heals_rand_does_not_at_tiny_scale() {
        let scale = Scale {
            nodes: 400,
            cycles: 40,
            view_size: 15,
            seed: 51,
        };
        let config = Fig7Config {
            scale,
            protocols: vec![
                "(rand,head,pushpull)".parse().unwrap(),
                "(rand,rand,pushpull)".parse().unwrap(),
            ],
        };
        let result = run(&config);
        let head = &result.curves[0];
        let rand = &result.curves[1];
        assert!(head.initial_dead_links > 0);
        // The paper's claim: head view selection heals completely (and
        // fast); rand view selection retains most dead links in the same
        // window.
        assert_eq!(head.remaining(), 0.0, "head kept {}", head.remaining());
        assert!(head.healed_at_cycle.is_some());
        assert!(
            rand.remaining() > head.initial_dead_links as f64 * 0.3,
            "rand healed suspiciously fast: {} of {}",
            rand.remaining(),
            rand.initial_dead_links
        );
        assert_eq!(result.failure_cycle, 40);
        let section = result.sections().remove(0);
        assert!(!section.summary.is_empty());
        assert!(section.series.as_ref().is_some_and(|s| !s.is_empty()));
    }
}
