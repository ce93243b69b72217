//! **Table 2** — statistics of the degree of individual nodes over time.
//!
//! Starting from the random topology, 50 nodes are traced for the full run.
//! Reported per protocol: `D_K` (mean degree over the whole overlay in the
//! final cycle), `d̄` (mean over traced nodes of their time-averaged
//! degree) and `√σ` (standard deviation over traced nodes of those time
//! averages). The paper's split: `head` view selection keeps `√σ` small
//! (1.4–2.7), `rand` view selection an order of magnitude larger (10–19).

use pss_core::{
    NodeId, PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs,
};
use pss_sim::scenario;
use pss_stats::{Summary, TimeSeries};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Number of traced nodes (paper: 50).
const TRACED_NODES: usize = 50;

/// The paper's eight protocols in Table 2's order: head view selection
/// rows first.
const PROTOCOLS: [PolicyTriple; 8] = [
    PolicyTriple::new(Ps::Rand, Vs::Head, Vp::Push),
    PolicyTriple::new(Ps::Tail, Vs::Head, Vp::Push),
    PolicyTriple::new(Ps::Rand, Vs::Head, Vp::PushPull),
    PolicyTriple::new(Ps::Tail, Vs::Head, Vp::PushPull),
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::Push),
    PolicyTriple::new(Ps::Tail, Vs::Rand, Vp::Push),
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::PushPull),
    PolicyTriple::new(Ps::Tail, Vs::Rand, Vp::PushPull),
];

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
pub fn run(o: &Options) -> Table2Result {
    let scale = o.scale;
    let rows = parallel_map(PROTOCOLS.to_vec(), move |policy| {
        degree_stats(scale, policy)
    });
    Table2Result { rows }
}

/// One protocol's row: the degrees of the traced nodes over the run.
fn degree_stats(scale: Scale, policy: PolicyTriple) -> DegreeStatsRow {
    let traced_count = TRACED_NODES.min(scale.nodes);
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
        let result = Table2Result {
            rows: vec![
                degree_stats(scale, "(rand,head,pushpull)".parse().unwrap()),
                degree_stats(scale, "(rand,rand,pushpull)".parse().unwrap()),
            ],
        };
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
