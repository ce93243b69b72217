//! **Figure 4, Table 2 and Figure 5** — node degrees over one run.
//!
//! For each of the paper's eight protocols, one run starts from the random
//! topology and builds the undirected communication graph every cycle. All
//! three artifacts read that one trace:
//!
//! - **Figure 4**: the degree distribution at exponentially spaced cycles,
//!   `{0, 1 %, 10 %, 100 %}` of the run (the paper's 0/3/30/300). `head`
//!   view selection yields a balanced, fast-converging distribution, `rand`
//!   view selection an unbalanced, heavy-tailed, slowly converging one.
//! - **Table 2**: 50 evenly spaced nodes traced for the full run. Reported
//!   per protocol: `D_K` (the mean of Figure 4's final capture), `d̄` (mean
//!   over traced nodes of their time-averaged degree) and `√σ` (standard
//!   deviation over traced nodes of those time averages). `head` view
//!   selection keeps `√σ` small (1.4–2.7), `rand` view selection an order
//!   of magnitude larger (10–19).
//! - **Figure 5**: the autocorrelation of node N/2's degree series up to
//!   lag 140, with the 99 % white-noise band, for the four `rand`
//!   peer-selection protocols (the paper omits `(tail,*,*)` "for
//!   clarity"). `(rand,head,pushpull)` is statistically indistinguishable
//!   from white noise, `(rand,head,push)` shows weak high-frequency
//!   periodicity, and the `(*,rand,*)` protocols show slow oscillations
//!   with strong short-term correlation.

use pss_core::{
    NodeId, PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs,
};
use pss_sim::scenario;
use pss_stats::{Autocorrelation, CountDistribution, Summary, TimeSeries};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Number of traced nodes (paper: 50).
const TRACED_NODES: usize = 50;

/// Confidence level of Figure 5's white-noise band (paper: 0.99).
const CONFIDENCE: f64 = 0.99;

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

/// One protocol's run: the degrees all three artifacts read.
#[derive(Debug, Clone)]
pub struct DegreeTrace {
    /// The protocol.
    pub policy: PolicyTriple,
    /// Figure 4: `(cycle, distribution)` pairs in capture order; cycle 0
    /// is the initial random topology.
    pub captures: Vec<(u64, CountDistribution)>,
    /// Table 2: each traced node and its degree per cycle (a dead node
    /// records nothing).
    pub traced: Vec<(NodeId, TimeSeries)>,
    /// Figure 5: the degree per cycle of node N/2, "a fixed random node" —
    /// any node is statistically equivalent in the random topology.
    pub fixed: TimeSeries,
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Mean degree over all nodes in the final cycle (`D_K`).
    pub final_mean_degree: f64,
    /// Mean of the traced nodes' time-averaged degrees (`d̄`).
    pub traced_mean: f64,
    /// Standard deviation of the traced nodes' time averages (`√σ`).
    pub traced_std: f64,
}

impl DegreeTrace {
    /// Table 2's row.
    pub fn stats(&self) -> DegreeStats {
        let (_, last) = self.captures.last().expect("cycle 0 is always captured");
        let time_averages: Summary = self
            .traced
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(_, s)| s.summary().mean())
            .collect();
        DegreeStats {
            final_mean_degree: last.mean(),
            traced_mean: time_averages.mean(),
            traced_std: time_averages.sample_std_dev(),
        }
    }
}

/// Result of the degree experiment.
#[derive(Debug, Clone)]
pub struct DegreeResult {
    /// One trace per protocol, in Table 2's order.
    pub traces: Vec<DegreeTrace>,
    /// Figure 5's largest lag (paper: 140), at most half the series length.
    pub max_lag: usize,
    /// Half-width of Figure 5's white-noise confidence band.
    pub band: f64,
}

impl DegreeResult {
    /// Figure 5's rows: the autocorrelation of the fixed node of each
    /// `rand` peer-selection protocol, in trace order.
    pub fn autocorrelations(&self) -> Vec<(PolicyTriple, Autocorrelation)> {
        self.traces
            .iter()
            .filter(|t| t.policy.peer_selection == Ps::Rand)
            .map(|t| {
                let acf = pss_stats::autocorrelation(t.fixed.values(), self.max_lag);
                (t.policy, acf)
            })
            .collect()
    }
}

impl Report for DegreeResult {
    /// Figure 4's distribution shape at the final capture and its
    /// long-format series (one row per protocol, cycle and degree), Table
    /// 2, and Figure 5's summary and series (one row per protocol and lag).
    fn sections(&self) -> Vec<Section> {
        let mut fig4 = Table::new(vec![
            "protocol",
            "mean degree",
            "max degree",
            "degree variance",
            "p99 degree",
        ]);
        let mut fig4_series = Table::new(vec!["protocol", "cycle", "degree", "frequency"]);
        let mut table2 = Table::new(vec!["protocol", "D_K", "dbar", "sqrt(sigma)"]);
        for t in &self.traces {
            let protocol = t.policy.to_string();
            let (_, dist) = t.captures.last().expect("cycle 0 is always captured");
            fig4.row(vec![
                protocol.clone(),
                fmt_f64(dist.mean(), 2),
                dist.max().map_or("-".into(), |m| m.to_string()),
                fmt_f64(dist.variance(), 1),
                dist.quantile(0.99).map_or("-".into(), |q| q.to_string()),
            ]);
            for (cycle, dist) in &t.captures {
                for (degree, count) in dist.iter() {
                    fig4_series.row(vec![
                        protocol.clone(),
                        cycle.to_string(),
                        degree.to_string(),
                        count.to_string(),
                    ]);
                }
            }
            let s = t.stats();
            table2.row(vec![
                protocol,
                fmt_f64(s.final_mean_degree, 3),
                fmt_f64(s.traced_mean, 3),
                fmt_f64(s.traced_std, 3),
            ]);
        }

        let mut fig5 = Table::new(vec![
            "protocol",
            "r_1",
            "r_5",
            "r_20",
            "last significant lag",
            "99% band",
        ]);
        let mut fig5_series = Table::new(vec!["protocol", "lag", "autocorrelation"]);
        for (policy, acf) in self.autocorrelations() {
            fig5.row(vec![
                policy.to_string(),
                fmt_f64(acf.at(1).unwrap_or(f64::NAN), 3),
                fmt_f64(acf.at(5).unwrap_or(f64::NAN), 3),
                fmt_f64(acf.at(20).unwrap_or(f64::NAN), 3),
                acf.last_significant_lag(self.band)
                    .map_or("none".into(), |l| l.to_string()),
                fmt_f64(self.band, 4),
            ]);
            for (lag, &r) in acf.values().iter().enumerate() {
                fig5_series.row(vec![policy.to_string(), lag.to_string(), fmt_f64(r, 6)]);
            }
        }
        vec![
            Section::new("fig4", fig4, Some(fig4_series)),
            Section::new("table2", table2, None),
            Section::new("fig5", fig5, Some(fig5_series)),
        ]
    }
}

/// Runs the degree experiment (protocols in parallel); Figure 5's series
/// length is the cycle count.
pub fn run(o: &Options) -> DegreeResult {
    run_policies(o.scale, &PROTOCOLS)
}

/// The degree experiment over `policies`, in their order.
fn run_policies(scale: Scale, policies: &[PolicyTriple]) -> DegreeResult {
    let traces = parallel_map(policies.to_vec(), move |policy| trace(scale, policy));
    DegreeResult {
        traces,
        max_lag: 140.min(scale.cycles as usize / 2),
        band: pss_stats::white_noise_band(scale.cycles as usize, CONFIDENCE),
    }
}

/// One protocol's run from the random topology, one undirected graph per
/// cycle.
fn trace(scale: Scale, policy: PolicyTriple) -> DegreeTrace {
    let protocol = scale.protocol(policy);
    let mut sim = scenario::random_overlay(&protocol, scale.nodes, scale.seed ^ 0x7ab1e2);
    // Figure 4 captures at `{0, 1%, 10%, 100%}` of the cycle budget.
    let capture_at = [scale.cycles / 100, scale.cycles / 10, scale.cycles];
    let initial = sim.csr_snapshot().graph().undirected();
    let mut captures = vec![(0, initial.degree_distribution())];
    // Trace evenly spaced nodes — as good as random for a symmetric
    // random topology, and deterministic.
    let traced_count = TRACED_NODES.min(scale.nodes);
    let stride = (scale.nodes / traced_count.max(1)).max(1);
    let mut traced: Vec<(NodeId, TimeSeries)> = (0..traced_count)
        .map(|i| (NodeId::new((i * stride) as u64), TimeSeries::default()))
        .collect();
    let mut fixed = (NodeId::new((scale.nodes / 2) as u64), TimeSeries::default());
    for _ in 0..scale.cycles {
        sim.run_cycle();
        let cycle = sim.cycle();
        let snapshot = sim.csr_snapshot();
        let graph = snapshot.graph().undirected();
        if capture_at.contains(&cycle) {
            captures.push((cycle, graph.degree_distribution()));
        }
        for (id, s) in traced.iter_mut().chain([&mut fixed]) {
            if let Some(idx) = snapshot.index_of(*id) {
                s.push(cycle, graph.degree(idx) as f64);
            }
        }
    }
    DegreeTrace {
        policy,
        captures,
        traced,
        fixed: fixed.1,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// `(rand,head,pushpull)` and `(rand,rand,pushpull)` at one shared
    /// scale, traced once for every test below.
    fn shared() -> &'static DegreeResult {
        static SHARED: OnceLock<DegreeResult> = OnceLock::new();
        SHARED.get_or_init(|| {
            let scale = Scale {
                nodes: 400,
                cycles: 120,
                view_size: 15,
                seed: 31,
            };
            let policies = ["(rand,head,pushpull)", "(rand,rand,pushpull)"];
            run_policies(scale, &policies.map(|p| p.parse().unwrap()))
        })
    }

    #[test]
    fn head_selection_is_more_balanced_than_rand() {
        let [head, rand] = &shared().traces[..] else {
            unreachable!()
        };
        let var = |t: &DegreeTrace| t.captures.last().unwrap().1.variance();
        // The paper's headline split: head view selection balances degrees,
        // rand view selection produces a much wider distribution.
        assert!(
            var(rand) > 2.0 * var(head),
            "rand variance {} should dwarf head variance {}",
            var(rand),
            var(head)
        );
        // Capture at cycle 0 is the initial random graph for both.
        assert_eq!(head.captures[0].0, 0);
        assert_eq!(head.captures[0].1.total(), 400);
        let section = shared().sections().remove(0);
        assert_eq!(section.name, "fig4");
        assert!(section.series.as_ref().is_some_and(|s| !s.is_empty()));
    }

    #[test]
    fn head_vs_rand_stability_split() {
        let [head, rand] = &shared().traces[..] else {
            unreachable!()
        };
        let (head, rand) = (head.stats(), rand.stats());
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
        let text = shared().sections()[1].summary.to_string();
        assert!(text.contains("sqrt(sigma)"));
    }

    #[test]
    fn rand_view_selection_has_longer_memory() {
        let result = shared();
        assert!(result.band > 0.0);
        let acfs = result.autocorrelations();
        let head_r1 = acfs[0].1.at(1).unwrap();
        let rand_r1 = acfs[1].1.at(1).unwrap();
        // The paper's qualitative claim: rand view selection produces strong
        // short-term correlation, head view selection does not.
        assert!(
            rand_r1 > head_r1,
            "rand r_1 {rand_r1} should exceed head r_1 {head_r1}"
        );
        assert!(
            rand_r1 > 0.3,
            "rand r_1 {rand_r1} should be clearly positive"
        );
        let section = result.sections().remove(2);
        assert_eq!(section.name, "fig5");
        assert_eq!(section.series.as_ref().map(Table::len), Some(2 * 61));
    }

    /// The three artifacts read one overlay: Figure 4's final capture is
    /// Table 2's `D_K`, and Figure 5's node is Table 2's traced node N/2.
    #[test]
    fn the_three_artifacts_read_one_trace() {
        for t in &shared().traces {
            let (cycle, last) = t.captures.last().unwrap();
            assert_eq!(*cycle, 120);
            assert_eq!(last.mean().to_bits(), t.stats().final_mean_degree.to_bits());
            let (_, middle) = t
                .traced
                .iter()
                .find(|(id, _)| *id == NodeId::new(200))
                .expect("node N/2 is traced at N = 400");
            assert_eq!(middle.len(), 120);
            assert_eq!(&t.fixed, middle);
        }
    }
}
