//! **Table 2** — statistics of the degree of individual nodes over time.
//!
//! Starting from the random topology, 50 nodes are traced for the full run.
//! Reported per protocol: `D_K` (mean degree over the whole overlay in the
//! final cycle), `d̄` (mean over traced nodes of their time-averaged
//! degree) and `√σ` (standard deviation over traced nodes of those time
//! averages). The paper's split: `head` view selection keeps `√σ` small
//! (1.4–2.7), `rand` view selection an order of magnitude larger (10–19).

use pss_core::{NodeId, PolicyTriple};
use pss_sim::scenario;
use pss_stats::{Summary, TimeSeries};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::Scale;

/// Configuration for the Table 2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Config {
    /// Common scale.
    pub scale: Scale,
    /// Number of traced nodes (paper: 50).
    pub traced_nodes: usize,
    /// Protocols (default: the paper's eight, in Table 2's order).
    pub protocols: Vec<PolicyTriple>,
}

impl Table2Config {
    /// Default configuration at the given scale.
    pub fn at_scale(scale: Scale) -> Self {
        Table2Config {
            scale,
            traced_nodes: 50,
            // Table 2 lists head view selection rows first.
            protocols: vec![
                "(rand,head,push)".parse().expect("valid"),
                "(tail,head,push)".parse().expect("valid"),
                "(rand,head,pushpull)".parse().expect("valid"),
                "(tail,head,pushpull)".parse().expect("valid"),
                "(rand,rand,push)".parse().expect("valid"),
                "(tail,rand,push)".parse().expect("valid"),
                "(rand,rand,pushpull)".parse().expect("valid"),
                "(tail,rand,pushpull)".parse().expect("valid"),
            ],
        }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStatsRow {
    /// The protocol.
    pub policy: PolicyTriple,
    /// Mean degree over all nodes in the final cycle (`D_K`).
    pub final_mean_degree: f64,
    /// Mean of the traced nodes' time-averaged degrees (`d̄`).
    pub traced_mean: f64,
    /// Standard deviation of the traced nodes' time averages (`√σ`).
    pub traced_std: f64,
}

/// Result of the Table 2 experiment.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// One row per protocol, in input order.
    pub rows: Vec<DegreeStatsRow>,
}

impl Report for Table2Result {
    /// The paper-style table.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec!["protocol", "D_K", "dbar", "sqrt(sigma)"]);
        for row in &self.rows {
            t.row(vec![
                row.policy.to_string(),
                fmt_f64(row.final_mean_degree, 3),
                fmt_f64(row.traced_mean, 3),
                fmt_f64(row.traced_std, 3),
            ]);
        }
        vec![Section::new("table2", t, None)]
    }
}

/// Runs the Table 2 experiment (protocols in parallel).
pub fn run(config: &Table2Config) -> Table2Result {
    let scale = config.scale;
    let traced_count = config.traced_nodes.min(scale.nodes);

    let rows = parallel_map(config.protocols.clone(), move |policy| {
        let protocol = scale.protocol(policy);
        let seed = scale.seed ^ 0x7ab1e2;
        let mut sim = scenario::random_overlay(&protocol, scale.nodes, seed);
        // Trace evenly spaced nodes — as good as random for a symmetric
        // random topology, and deterministic.
        let stride = (scale.nodes / traced_count.max(1)).max(1);
        let traced: Vec<NodeId> = (0..traced_count)
            .map(|i| NodeId::new((i * stride) as u64))
            .collect();
        let mut series = vec![TimeSeries::default(); traced.len()];
        for _ in 0..scale.cycles {
            sim.run_cycle();
            let snapshot = sim.csr_snapshot();
            let graph = snapshot.graph().undirected();
            for (id, s) in traced.iter().zip(&mut series) {
                // A dead traced node records nothing this cycle.
                if let Some(idx) = snapshot.index_of(*id) {
                    s.push(sim.cycle(), graph.degree(idx) as f64);
                }
            }
        }

        let final_mean_degree = sim.csr_snapshot().graph().undirected().average_degree();
        let time_averages: Summary = series
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.summary().mean())
            .collect();
        DegreeStatsRow {
            policy,
            final_mean_degree,
            traced_mean: time_averages.mean(),
            traced_std: time_averages.sample_std_dev(),
        }
    });

    Table2Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_vs_rand_stability_split() {
        let scale = Scale {
            nodes: 400,
            cycles: 60,
            view_size: 15,
            seed: 21,
        };
        let config = Table2Config {
            scale,
            traced_nodes: 30,
            protocols: vec![
                "(rand,head,pushpull)".parse().unwrap(),
                "(rand,rand,pushpull)".parse().unwrap(),
            ],
        };
        let result = run(&config);
        assert_eq!(result.rows.len(), 2);
        let head = &result.rows[0];
        let rand = &result.rows[1];
        // Traced means sit near the overall mean for both.
        assert!((head.traced_mean - head.final_mean_degree).abs() < 5.0);
        // The paper's Table 2 split: rand view selection has much larger
        // variance of per-node time-averaged degrees.
        assert!(
            rand.traced_std > head.traced_std,
            "rand {} should exceed head {}",
            rand.traced_std,
            head.traced_std
        );
        let text = result.sections()[0].summary.to_string();
        assert!(text.contains("sqrt(sigma)"));
    }
}
