//! **Table 1** — partitioning of push protocols in the growing overlay.
//!
//! The paper grows the overlay from one node (100 joiners per cycle up to
//! N = 10⁴, each knowing only the initial node) and reports, over 100 runs
//! at cycle 300, how often each push protocol partitioned, and the average
//! number of clusters and largest-cluster size *of the partitioned runs*.
//! Pushpull protocols never partition in this scenario.

use pss_core::PolicyTriple;
use pss_graph::components::connected_components;
use pss_sim::scenario;

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, fmt_percent, Report, Section, Table};
use crate::Options;

/// Partitioning statistics of one protocol (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// The protocol.
    pub policy: PolicyTriple,
    /// Total runs.
    pub runs: usize,
    /// Runs whose cycle-300 overlay was partitioned.
    pub partitioned_runs: usize,
    /// Mean cluster count over the partitioned runs (NaN if none).
    pub avg_clusters: f64,
    /// Mean largest-cluster size over the partitioned runs (NaN if none).
    pub avg_largest: f64,
}

impl PartitionRow {
    /// Fraction of runs that partitioned.
    pub fn partitioned_fraction(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.partitioned_runs as f64 / self.runs as f64
        }
    }
}

/// Result of the Table 1 experiment.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One row per protocol, in input order.
    pub rows: Vec<PartitionRow>,
}

impl Report for Table1Result {
    /// The paper-style table.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "partitioned runs",
            "avg number of clusters",
            "avg largest cluster",
        ]);
        for row in &self.rows {
            t.row(vec![
                row.policy.to_string(),
                fmt_percent(row.partitioned_fraction()),
                fmt_f64(row.avg_clusters, 2),
                fmt_f64(row.avg_largest, 2),
            ]);
        }
        vec![Section::new("table1", t, None)]
    }
}

/// Runs the experiment on all eight protocols of the paper (the four push
/// rows of Table 1 plus the four pushpull protocols as controls): every
/// (protocol, run) pair is an independent growing-overlay simulation
/// measured at its final cycle, N / 100 nodes joining per cycle (the
/// paper's 100 at N = 10⁴). `--runs` sets the runs per protocol (default
/// 30; paper: 100).
pub fn run(o: &Options) -> Table1Result {
    let protocols = PolicyTriple::paper_eight();
    let runs = o.runs.unwrap_or(30);
    let jobs: Vec<(usize, PolicyTriple, u64)> = protocols
        .iter()
        .enumerate()
        .flat_map(|(pi, &policy)| (0..runs).map(move |r| (pi, policy, (pi * 10_007 + r) as u64)))
        .collect();
    let scale = o.scale;
    let per_cycle = (scale.nodes / 100).max(1);

    let outcomes = parallel_map(jobs, move |(pi, policy, run_idx)| {
        let protocol = scale.protocol(policy);
        let mut sim =
            scenario::growing_overlay(&protocol, scale.nodes, per_cycle, scale.run_seed(run_idx));
        sim.run_cycles(scale.cycles);
        let graph = sim.csr_snapshot().graph().undirected();
        let report = connected_components(&graph);
        (pi, report.count(), report.largest())
    });

    let rows = protocols
        .iter()
        .enumerate()
        .map(|(pi, &policy)| {
            let mine: Vec<&(usize, usize, usize)> =
                outcomes.iter().filter(|(p, _, _)| *p == pi).collect();
            let partitioned: Vec<&&(usize, usize, usize)> = mine
                .iter()
                .filter(|(_, clusters, _)| *clusters > 1)
                .collect();
            let (avg_clusters, avg_largest) = if partitioned.is_empty() {
                (f64::NAN, f64::NAN)
            } else {
                let n = partitioned.len() as f64;
                (
                    partitioned.iter().map(|(_, c, _)| *c as f64).sum::<f64>() / n,
                    partitioned.iter().map(|(_, _, l)| *l as f64).sum::<f64>() / n,
                )
            };
            PartitionRow {
                policy,
                runs: mine.len(),
                partitioned_runs: partitioned.len(),
                avg_clusters,
                avg_largest,
            }
        })
        .collect();

    Table1Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn tiny(runs: usize) -> Table1Result {
        let mut scale = Scale::tiny();
        scale.cycles = 40;
        run(&Options {
            runs: Some(runs),
            ..Options::at(scale)
        })
    }

    #[test]
    fn pushpull_protocols_never_partition_at_tiny_scale() {
        let result = tiny(3);
        let pushpull = result
            .rows
            .iter()
            .filter(|r| r.policy.propagation.is_pull());
        assert_eq!(pushpull.clone().count(), 4);
        for row in pushpull {
            assert_eq!(row.partitioned_runs, 0, "{} partitioned", row.policy);
            assert!(row.avg_clusters.is_nan());
        }
    }

    #[test]
    fn rows_follow_input_order_and_count_runs() {
        let result = tiny(2);
        let policies: Vec<PolicyTriple> = result.rows.iter().map(|r| r.policy).collect();
        assert_eq!(policies, PolicyTriple::paper_eight());
        assert!(result.rows.iter().all(|r| r.runs == 2));
    }

    #[test]
    fn table_renders_percentages() {
        let result = Table1Result {
            rows: vec![PartitionRow {
                policy: PolicyTriple::lpbcast(),
                runs: 100,
                partitioned_runs: 33,
                avg_clusters: 2.27,
                avg_largest: 9572.18,
            }],
        };
        let text = result.sections()[0].summary.to_string();
        assert!(text.contains("33%"));
        assert!(text.contains("2.27"));
        assert!(text.contains("9572.18"));
    }

    #[test]
    fn partitioned_fraction_handles_zero_runs() {
        let row = PartitionRow {
            policy: PolicyTriple::lpbcast(),
            runs: 0,
            partitioned_runs: 0,
            avg_clusters: f64::NAN,
            avg_largest: f64::NAN,
        };
        assert_eq!(row.partitioned_fraction(), 0.0);
    }
}
