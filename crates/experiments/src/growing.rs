//! **Table 1 and Figure 2** — the growing overlay (Section 5.1).
//!
//! The paper grows the overlay from one node (100 joiners per cycle up to
//! N = 10⁴, each knowing only the initial node) to cycle 300, and reads
//! both artifacts off those runs:
//!
//! - **Table 1**: over 100 runs per protocol, how often each push protocol
//!   partitioned, and the average number of clusters and largest-cluster
//!   size *of the partitioned runs*. Pushpull protocols never partition.
//! - **Figure 2**: clustering, degree and path length per cycle against
//!   the uniform random baseline for the four pushpull protocols plus "a
//!   non partitioned run" of `(rand,rand,push)` and `(tail,rand,push)`
//!   (the `head` push protocols partition), in Table 1's order. Each row
//!   replays the first of its protocol's Table 1 runs that ended
//!   connected, at that run's seed: the engine is deterministic and the
//!   metrics sample a stream of their own, so the replay is that run. With
//!   no connected run it replays run 0, and its `connected` column reads
//!   `NO`.

use pss_core::{PeerSamplingNode, PolicyTriple, ViewPropagation, ViewSelection};
use pss_graph::components::connected_components;
use pss_graph::GraphMetrics;
use pss_sim::{scenario, ShardedSimulation};

use crate::dynamics::{baseline_cells, random_baseline, series, PropertyTrace};
use crate::parallel::parallel_map;
use crate::report::{fmt_f64, fmt_percent, Report, Section, Table};
use crate::{Options, Scale};

/// One protocol's runs (one row of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// The protocol.
    pub policy: PolicyTriple,
    /// `(clusters, largest cluster)` of each run's final overlay, in run
    /// order.
    pub outcomes: Vec<(usize, usize)>,
}

impl PartitionRow {
    /// The outcomes of the runs whose final overlay was partitioned.
    pub fn partitioned(&self) -> Vec<(usize, usize)> {
        self.outcomes.iter().copied().filter(|o| o.0 > 1).collect()
    }

    /// Fraction of runs that partitioned (0 with no runs).
    pub fn partitioned_fraction(&self) -> f64 {
        self.partitioned().len() as f64 / self.outcomes.len().max(1) as f64
    }

    /// Mean cluster count and mean largest-cluster size over the
    /// partitioned runs (NaN if none).
    pub fn partition_means(&self) -> (f64, f64) {
        let p = self.partitioned();
        let mean = |x: fn((usize, usize)) -> usize| match p.len() {
            0 => f64::NAN,
            n => p.iter().map(|&o| x(o) as f64).sum::<f64>() / n as f64,
        };
        (mean(|o| o.0), mean(|o| o.1))
    }

    /// The first run whose final overlay was connected, if any.
    pub fn first_connected(&self) -> Option<usize> {
        self.outcomes.iter().position(|o| o.0 == 1)
    }
}

/// One row of Figure 2: a replayed Table 1 run.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The protocol.
    pub policy: PolicyTriple,
    /// The index of the replayed run among its protocol's Table 1 runs.
    pub run: usize,
    /// The three properties per cycle.
    pub properties: PropertyTrace,
    /// Connected components of the final undirected overlay.
    pub components: usize,
}

/// Result of the growing-overlay experiment.
#[derive(Debug, Clone)]
pub struct GrowingResult {
    /// Table 1: one row per paper protocol, in
    /// [`PolicyTriple::paper_eight`] order.
    pub table1: Vec<PartitionRow>,
    /// Figure 2: one replay per protocol but the `head` push ones, in
    /// Table 1's order.
    pub fig2: Vec<Replay>,
    /// Uniform random baseline at the same scale.
    pub baseline: GraphMetrics,
}

impl Report for GrowingResult {
    /// Table 1 in the paper's layout; Figure 2's final values against the
    /// random baseline, and its long-format series (one row per protocol
    /// and cycle).
    fn sections(&self) -> Vec<Section> {
        let mut table1 = Table::new(vec![
            "protocol",
            "partitioned runs",
            "avg number of clusters",
            "avg largest cluster",
        ]);
        for row in &self.table1 {
            let (clusters, largest) = row.partition_means();
            table1.row(vec![
                row.policy.to_string(),
                fmt_percent(row.partitioned_fraction()),
                fmt_f64(clusters, 2),
                fmt_f64(largest, 2),
            ]);
        }

        let mut fig2 = Table::new(vec![
            "protocol",
            "clustering coeff",
            "avg degree",
            "avg path length",
            "connected",
            "table1 run",
        ]);
        let [cc, deg, apl] = baseline_cells(&self.baseline);
        let label = "uniform random baseline".into();
        fig2.row(vec![label, cc, deg, apl, "yes".into()]);
        let mut fig2_series = series(&["protocol"]);
        for r in &self.fig2 {
            let protocol = r.policy.to_string();
            let [cc, deg, apl] = r.properties.final_cells();
            let connected = if r.components == 1 { "yes" } else { "NO" }.into();
            let run = r.run.to_string();
            fig2.row(vec![protocol.clone(), cc, deg, apl, connected, run]);
            r.properties.push_rows(&mut fig2_series, &[protocol]);
        }
        vec![
            Section::new("table1", table1, None),
            Section::new("fig2", fig2, Some(fig2_series)),
        ]
    }
}

/// Runs Table 1 on all eight protocols of the paper (the four push rows
/// plus the four pushpull protocols as controls), every (protocol, run)
/// pair in parallel, then replays Figure 2's six rows in parallel.
/// `--runs` sets the runs per protocol (default 30; paper: 100), and
/// `scale.cycles` the run length (paper: 300).
pub fn run(o: &Options) -> GrowingResult {
    let scale = o.scale;
    let runs = o.runs.unwrap_or(30);
    let protocols = PolicyTriple::paper_eight();
    let outcomes = parallel_map((0..protocols.len() * runs).collect(), move |i| {
        let (pi, r) = (i / runs, i % runs);
        let mut sim = growing(scale, protocols[pi], run_seed(scale, pi, r));
        sim.run_cycles(scale.cycles);
        let report = connected_components(&sim.csr_snapshot().graph().undirected());
        (report.count(), report.largest())
    });
    let table1: Vec<PartitionRow> = protocols
        .iter()
        .enumerate()
        .map(|(pi, &policy)| PartitionRow {
            policy,
            outcomes: outcomes[pi * runs..(pi + 1) * runs].to_vec(),
        })
        .collect();

    let partitions = |p: PolicyTriple| {
        p.propagation == ViewPropagation::Push && p.view_selection == ViewSelection::Head
    };
    let replays: Vec<(usize, usize)> = (0..protocols.len())
        .filter(|&pi| !partitions(protocols[pi]))
        .map(|pi| (pi, table1[pi].first_connected().unwrap_or(0)))
        .collect();
    let fig2 = parallel_map(replays, move |(pi, run)| {
        let seed = run_seed(scale, pi, run);
        let mut properties = PropertyTrace::new(seed);
        let graph = properties.run(&mut growing(scale, protocols[pi], seed), scale.cycles);
        Replay {
            policy: protocols[pi],
            run,
            properties,
            components: connected_components(&graph).count(),
        }
    });

    GrowingResult {
        table1,
        fig2,
        baseline: random_baseline(scale),
    }
}

/// The seed of run `r` of the `pi`-th paper protocol.
fn run_seed(scale: Scale, pi: usize, r: usize) -> u64 {
    scale.run_seed((pi * 10_007 + r) as u64)
}

/// The growing-overlay engine of one run at `seed`: one node, then N / 100
/// joiners per cycle (the paper's 100 at N = 10⁴).
fn growing(scale: Scale, policy: PolicyTriple, seed: u64) -> ShardedSimulation<PeerSamplingNode> {
    let per_cycle = (scale.nodes / 100).max(1);
    scenario::growing_overlay(&scale.protocol(policy), scale.nodes, per_cycle, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(runs: usize) -> GrowingResult {
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
            .table1
            .iter()
            .filter(|r| r.policy.propagation.is_pull());
        assert_eq!(pushpull.clone().count(), 4);
        for row in pushpull {
            assert!(row.partitioned().is_empty(), "{} partitioned", row.policy);
            assert!(row.partition_means().0.is_nan());
        }
    }

    #[test]
    fn rows_follow_input_order_and_count_runs() {
        let result = tiny(2);
        let policies: Vec<PolicyTriple> = result.table1.iter().map(|r| r.policy).collect();
        assert_eq!(policies, PolicyTriple::paper_eight());
        assert!(result.table1.iter().all(|r| r.outcomes.len() == 2));
    }

    #[test]
    fn table_renders_percentages() {
        let result = GrowingResult {
            table1: vec![PartitionRow {
                policy: PolicyTriple::lpbcast(),
                outcomes: vec![(1, 10_000), (2, 9_570), (3, 9_575), (1, 10_000)],
            }],
            fig2: Vec::new(),
            baseline: random_baseline(Scale::tiny()),
        };
        let text = result.sections()[0].summary.to_string();
        assert!(text.contains("50%"));
        assert!(text.contains("2.50"));
        assert!(text.contains("9572.50"));
    }

    #[test]
    fn partitioned_fraction_handles_zero_runs() {
        let row = PartitionRow {
            policy: PolicyTriple::lpbcast(),
            outcomes: Vec::new(),
        };
        assert_eq!(row.partitioned_fraction(), 0.0);
        assert_eq!(row.first_connected(), None);
    }

    #[test]
    fn runs_at_tiny_scale() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.cycles = 25;
        let result = run(&Options::at(scale));
        assert_eq!(result.fig2.len(), 6);
        for r in &result.fig2 {
            assert_eq!(r.properties.clustering.len(), 25);
        }
        // Pushpull protocols converge and stay connected at this scale.
        for r in result
            .fig2
            .iter()
            .filter(|r| r.policy.propagation.is_pull())
        {
            assert_eq!(r.components, 1, "{} disconnected", r.policy);
        }
        let section = result.sections().remove(1);
        assert!(section
            .summary
            .to_string()
            .contains("uniform random baseline"));
        assert_eq!(section.series.as_ref().map(Table::len), Some(6 * 25));
    }

    /// Figure 2 reads Table 1's runs: each row replays its protocol's
    /// first connected run (run 0 if none), and the replay ends with that
    /// run's component count.
    #[test]
    fn fig2_replays_table1s_first_connected_run() {
        // Views of 6 entries partition some head pushpull runs, so the
        // replays here include a later run and a partitioned one.
        let scale = Scale {
            nodes: 200,
            cycles: 40,
            view_size: 6,
            ..Scale::tiny()
        };
        let result = run(&Options {
            runs: Some(6),
            ..Options::at(scale)
        });
        assert!(result.fig2.iter().any(|r| r.run > 0));
        assert!(result.fig2.iter().any(|r| r.components > 1));
        for r in &result.fig2 {
            let row = result.table1.iter().find(|t| t.policy == r.policy);
            let row = row.expect("a Table 1 row");
            assert_eq!(r.run, row.first_connected().unwrap_or(0), "{}", r.policy);
            assert_eq!(r.components, row.outcomes[r.run].0, "{}", r.policy);
        }
    }
}
