//! **Figure 6** — robustness of the converged overlays to massive node
//! removal.
//!
//! The cycle-300 overlay of the random-init scenario is damaged by removing
//! a growing fraction of random nodes; the plot shows the average number of
//! nodes left outside the largest connected cluster. The paper observed no
//! partitioning at all below 69 % removal, and a single dominant cluster
//! even beyond.

use pss_core::PolicyTriple;
use pss_graph::components::connected_components;
use pss_graph::csr::Csr;
use pss_sim::scenario;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Removal percentages (the paper's x-axis: 65–95).
const REMOVAL_PERCENTS: [f64; 7] = [65.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0];

/// Robustness curve of one protocol.
#[derive(Debug, Clone)]
pub struct RemovalCurve {
    /// The protocol.
    pub policy: PolicyTriple,
    /// `(percent_removed, avg nodes outside largest cluster)` pairs.
    pub points: Vec<(f64, f64)>,
    /// Smallest tested removal percentage at which any repetition
    /// partitioned the overlay, if any.
    pub first_partition_percent: Option<f64>,
}

/// Result of the Figure 6 experiment.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// One curve per protocol.
    pub curves: Vec<RemovalCurve>,
}

impl Report for Fig6Result {
    /// First partitioning percentage per protocol, and the plotted series:
    /// one row per (protocol, percent).
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "first partition at (%)",
            "avg outside largest @95%",
        ]);
        for c in &self.curves {
            let at95 = c
                .points
                .iter()
                .find(|(p, _)| (*p - 95.0).abs() < 1e-9)
                .map(|(_, v)| *v);
            t.row(vec![
                c.policy.to_string(),
                c.first_partition_percent
                    .map_or("never".into(), |p| fmt_f64(p, 1)),
                at95.map_or("-".into(), |v| fmt_f64(v, 2)),
            ]);
        }

        let mut series = Table::new(vec![
            "protocol",
            "removed %",
            "avg nodes outside largest cluster",
        ]);
        for c in &self.curves {
            for &(pct, avg) in &c.points {
                series.row(vec![c.policy.to_string(), fmt_f64(pct, 1), fmt_f64(avg, 2)]);
            }
        }
        vec![Section::new("fig6", t, Some(series))]
    }
}

fn damage_and_measure(graph: &Csr, percent: f64, repetitions: usize, seed: u64) -> (f64, bool) {
    let n = graph.node_count();
    let remove = ((percent / 100.0) * n as f64).round() as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total_outside = 0usize;
    let mut any_partition = false;
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..repetitions {
        order.shuffle(&mut rng);
        let mut keep = vec![true; n];
        for &victim in order.iter().take(remove) {
            keep[victim] = false;
        }
        let sub = graph.induced_subgraph(&keep);
        let report = connected_components(&sub);
        total_outside += report.nodes_outside_largest();
        if report.count() > 1 {
            any_partition = true;
        }
    }
    (total_outside as f64 / repetitions as f64, any_partition)
}

/// Runs the Figure 6 experiment (the paper's eight protocols in
/// parallel); `scale.cycles` is the convergence budget before damaging,
/// and `--runs` the removal repetitions per point (default 30; paper: 100).
pub fn run(o: &Options) -> Fig6Result {
    let scale = o.scale;
    let repetitions = o.runs.unwrap_or(30);
    let curves = parallel_map(PolicyTriple::paper_eight().to_vec(), move |policy| {
        removal_curve(scale, policy, repetitions)
    });
    Fig6Result { curves }
}

/// One protocol's curve: the overlay converges once and is then damaged
/// `repetitions` times per percentage.
fn removal_curve(scale: Scale, policy: PolicyTriple, repetitions: usize) -> RemovalCurve {
    let protocol = scale.protocol(policy);
    let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0xf16);
    sim.run_cycles(scale.cycles);
    let graph = sim.csr_snapshot().graph().undirected();
    let mut points = Vec::with_capacity(REMOVAL_PERCENTS.len());
    let mut first_partition_percent = None;
    for (i, pct) in REMOVAL_PERCENTS.into_iter().enumerate() {
        let (avg_outside, partitioned) =
            damage_and_measure(&graph, pct, repetitions, scale.run_seed(9000 + i as u64));
        points.push((pct, avg_outside));
        if partitioned && first_partition_percent.is_none() {
            first_partition_percent = Some(pct);
        }
    }
    RemovalCurve {
        policy,
        points,
        first_partition_percent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_below_seventy_percent_at_tiny_scale() {
        let scale = Scale {
            nodes: 500,
            cycles: 40,
            view_size: 20,
            seed: 41,
        };
        let result = Fig6Result {
            curves: vec![removal_curve(scale, PolicyTriple::newscast(), 10)],
        };
        let curve = &result.curves[0];
        assert_eq!(curve.points.len(), 7);
        // At 65% removal the overlay should be essentially intact.
        assert!(curve.points[0].1 < 1.0, "damage at 65%: {:?}", curve.points);
        // Monotone damage.
        assert!(curve.points[6].1 >= curve.points[0].1);
        let section = result.sections().remove(0);
        assert!(!section.summary.is_empty());
        assert_eq!(section.series.as_ref().map(Table::len), Some(7));
    }

    #[test]
    fn damage_helper_counts_outsiders() {
        // A 10-node ring: removing 50% will partition it almost surely.
        let g = pss_graph::gen::ring_lattice(10, 2).undirected();
        let (avg, partitioned) = damage_and_measure(&g, 50.0, 20, 1);
        assert!(avg > 0.0);
        assert!(partitioned);
        // Removing 0% leaves everyone inside the largest cluster.
        let (avg0, part0) = damage_and_measure(&g, 0.0, 5, 2);
        assert_eq!(avg0, 0.0);
        assert!(!part0);
    }
}
