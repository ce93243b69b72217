//! **Figures 3–7 and Table 2** — one run per protocol from the random
//! topology.
//!
//! The paper reads all six artifacts off one scenario: every node's view
//! starts as `c` uniform picks of the others, the overlay converges for 300
//! cycles, and Figures 6 and 7 then damage "the cycle-300 overlay of the
//! random-init scenario". So each row here is one run at Table 2's seed
//! (`seed ^ 0x7ab1e2`), and every artifact reads it in turn:
//!
//! - **Figure 3**: clustering, degree and path length over the first 100
//!   cycles, from the random start (the row's run) and from a ring lattice
//!   of large diameter (one control run per row at the same seed, so the
//!   two differ only in their start). The properties converge to the same
//!   values from either start.
//! - **Figure 4**: the undirected degree distribution at exponentially
//!   spaced cycles, `{0, 1 %, 10 %, 100 %}` of the run (the paper's
//!   0/3/30/300). `head` view selection yields a balanced, fast-converging
//!   distribution, `rand` view selection an unbalanced, heavy-tailed,
//!   slowly converging one.
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
//! - **Figure 6**: Figure 4's final graph is damaged by removing a growing
//!   fraction of random nodes, `--runs` times per fraction; the plot shows
//!   the average number of nodes left outside the largest connected
//!   cluster. The paper observed no partitioning at all below 69 %
//!   removal, and a single dominant cluster even beyond.
//! - **Figure 7**: then 50 % of all nodes crash at once, and the plot
//!   tracks the dead links (descriptors of dead nodes held by live ones)
//!   over the following cycles. `head` view selection heals exponentially
//!   fast (dead links hit zero within tens of cycles; the pushpull
//!   variants overlap), `rand` view selection is linear at best, with
//!   `(tail,rand,push)` even slowly accumulating dead links. `healed at
//!   cycle` is absolute: the failure strikes at the end of cycle
//!   `scale.cycles`. The summary adds the degree variance at the failure,
//!   which is Figure 4's final capture.
//!
//! Four more rows run the healer/swapper (H&S) generalization of the
//! authors' follow-up paper (TOCS 2007, [`pss_core::hs`]) at the corners of
//! its design space, with random peer selection: blind `(0,0)`, healer
//! `(c/2,0)`, swapper `(0,c/2)` and the midpoint `(c/4,c/4)`. The healer
//! drops the oldest descriptors, so it is expected to heal like `head`;
//! blind removes at random, so it is expected to stay unhealed like `rand`.
//! The swapper trades healing for balance: its degree variance is expected
//! to be the lowest. The H&S paper found these two properties in tension.
//! They take the same path as the paper's rows, print in Figure 7 only,
//! and get no lattice control.

use pss_core::hs::{HsConfig, HsPeerSelection};
use pss_core::{
    NodeId, PeerSelection as Ps, PolicyTriple, ProtocolConfig, ViewPropagation as Vp,
    ViewSelection as Vs,
};
use pss_graph::components::connected_components;
use pss_graph::csr::Csr;
use pss_graph::{gen, GraphMetrics};
use pss_sim::audit::HonestPolicy;
use pss_sim::{scenario, BoxedNode, ShardedSimulation};
use pss_stats::{Autocorrelation, CountDistribution, Summary, TimeSeries};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dynamics::{baseline_cells, random_baseline, series, PropertyTrace};
use crate::parallel::parallel_map;
use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Number of traced nodes (paper: 50).
const TRACED_NODES: usize = 50;

/// Confidence level of Figure 5's white-noise band (paper: 0.99).
const CONFIDENCE: f64 = 0.99;

/// Removal percentages (the paper's x-axis: 65–95).
const REMOVAL_PERCENTS: [f64; 7] = [65.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0];

/// Cycles Figure 3 plots (paper: 100 of 300).
const PLOTTED_CYCLES: u64 = 100;

/// Fraction of nodes killed at the failure cycle (paper: 0.5).
const KILL_FRACTION: f64 = 0.5;

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

/// Figure 3: one paper row's properties over the plotted cycles, from
/// both starts.
#[derive(Debug, Clone)]
pub struct Convergence {
    /// The control run from the ring lattice.
    pub lattice: PropertyTrace,
    /// The row's run from the random topology.
    pub random: PropertyTrace,
}

/// Figures 4 and 5 and Table 2: the degrees of one row's converging run.
#[derive(Debug, Clone)]
pub struct DegreeTrace {
    /// Figure 4: `(cycle, distribution)` pairs in capture order; cycle 0
    /// is the initial random topology, the last the overlay at the
    /// failure.
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
    /// Figure 4's final capture: the degrees of the converged overlay.
    pub fn last(&self) -> &CountDistribution {
        &self.captures.last().expect("cycle 0 is always captured").1
    }

    /// Table 2's row.
    pub fn stats(&self) -> DegreeStats {
        let time_averages: Summary = self
            .traced
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(_, s)| s.summary().mean())
            .collect();
        DegreeStats {
            final_mean_degree: self.last().mean(),
            traced_mean: time_averages.mean(),
            traced_std: time_averages.sample_std_dev(),
        }
    }
}

/// Figure 6: one row's robustness to massive node removal.
#[derive(Debug, Clone)]
pub struct RemovalCurve {
    /// `(percent_removed, avg nodes outside largest cluster)` pairs.
    pub points: Vec<(f64, f64)>,
    /// Smallest tested removal percentage at which any repetition
    /// partitioned the overlay, if any.
    pub first_partition_percent: Option<f64>,
}

/// Figure 7: one row's healing after the failure.
#[derive(Debug, Clone)]
pub struct HealingCurve {
    /// Dead links per cycle after the failure.
    pub dead_links: TimeSeries,
    /// Dead links immediately after the failure (before any healing cycle).
    pub initial_dead_links: usize,
    /// First cycle after the failure with zero dead links, if reached
    /// (absolute, like the cycles of `dead_links`).
    pub healed_at_cycle: Option<u64>,
}

impl HealingCurve {
    /// Dead links remaining at the end of the recovery window.
    pub fn remaining(&self) -> f64 {
        self.dead_links.values().last().copied().unwrap_or(f64::NAN)
    }
}

/// One row's run: a paper protocol or an H&S corner.
#[derive(Debug, Clone)]
pub struct RandomRun {
    /// The row's label: the policy triple, or `hs <corner> (H=…,S=…)`.
    pub protocol: String,
    /// The paper protocol; `None` for an H&S corner.
    pub policy: Option<PolicyTriple>,
    /// Figure 3; `None` for an H&S corner.
    pub convergence: Option<Convergence>,
    /// Figures 4 and 5 and Table 2.
    pub degrees: DegreeTrace,
    /// Figure 6.
    pub removal: RemovalCurve,
    /// Figure 7.
    pub healing: HealingCurve,
}

/// Result of the random-start experiment.
#[derive(Debug, Clone)]
pub struct RandomResult {
    /// One run per row: the paper's eight protocols in Table 2's order,
    /// then the four H&S corners (blind, healer, swapper, midpoint).
    pub runs: Vec<RandomRun>,
    /// Figure 5's largest lag (paper: 140), at most half the series length.
    pub max_lag: usize,
    /// Half-width of Figure 5's white-noise confidence band.
    pub band: f64,
    /// Figure 3's uniform random baseline at the same scale.
    pub baseline: GraphMetrics,
}

impl RandomResult {
    /// The paper's eight rows, in Table 2's order.
    pub fn paper(&self) -> impl Iterator<Item = (PolicyTriple, &RandomRun)> {
        self.runs.iter().filter_map(|r| Some((r.policy?, r)))
    }

    /// Figure 5's rows: the autocorrelation of the fixed node of each
    /// `rand` peer-selection protocol, in Table 2's order.
    pub fn autocorrelations(&self) -> Vec<(PolicyTriple, Autocorrelation)> {
        self.paper()
            .filter(|(policy, _)| policy.peer_selection == Ps::Rand)
            .map(|(policy, r)| {
                let acf = pss_stats::autocorrelation(r.degrees.fixed.values(), self.max_lag);
                (policy, acf)
            })
            .collect()
    }
}

impl Report for RandomResult {
    /// Figure 3's final values from both starts against the random
    /// baseline and its series (one row per start, protocol and cycle),
    /// Figure 4's distribution shape at the final capture and its
    /// long-format series (one row per protocol, cycle and degree), Table
    /// 2, Figure 5's summary and series (one row per protocol and lag),
    /// Figure 6's first partition and series (one row per protocol and
    /// percent), and Figure 7's summary and series (one row per protocol
    /// and cycle). Figure 7 shows every row, the others the paper's eight.
    fn sections(&self) -> Vec<Section> {
        let mut fig3 = Table::new(vec![
            "protocol",
            "cc (lattice)",
            "cc (random)",
            "deg (lattice)",
            "deg (random)",
            "apl (lattice)",
            "apl (random)",
        ]);
        let [cc, deg, apl] = baseline_cells(&self.baseline);
        let (label, blank) = ("uniform random baseline".into(), String::new);
        fig3.row(vec![label, blank(), cc, blank(), deg, blank(), apl]);
        let mut fig3_series = series(&["scenario", "protocol"]);
        for (policy, r) in self.paper() {
            let Some(c) = &r.convergence else { continue };
            let protocol = policy.to_string();
            let [cc_l, deg_l, apl_l] = c.lattice.final_cells();
            let [cc_r, deg_r, apl_r] = c.random.final_cells();
            fig3.row(vec![
                protocol.clone(),
                cc_l,
                cc_r,
                deg_l,
                deg_r,
                apl_l,
                apl_r,
            ]);
            let lattice = ["lattice".into(), protocol.clone()];
            let random = ["random".into(), protocol];
            c.lattice.push_rows(&mut fig3_series, &lattice);
            c.random.push_rows(&mut fig3_series, &random);
        }

        let mut fig4 = Table::new(vec![
            "protocol",
            "mean degree",
            "max degree",
            "degree variance",
            "p99 degree",
        ]);
        let mut fig4_series = Table::new(vec!["protocol", "cycle", "degree", "frequency"]);
        let mut table2 = Table::new(vec!["protocol", "D_K", "dbar", "sqrt(sigma)"]);
        for (policy, r) in self.paper() {
            let protocol = policy.to_string();
            let dist = r.degrees.last();
            fig4.row(vec![
                protocol.clone(),
                fmt_f64(dist.mean(), 2),
                dist.max().map_or("-".into(), |m| m.to_string()),
                fmt_f64(dist.variance(), 1),
                dist.quantile(0.99).map_or("-".into(), |q| q.to_string()),
            ]);
            for (cycle, dist) in &r.degrees.captures {
                for (degree, count) in dist.iter() {
                    fig4_series.row(vec![
                        protocol.clone(),
                        cycle.to_string(),
                        degree.to_string(),
                        count.to_string(),
                    ]);
                }
            }
            let s = r.degrees.stats();
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

        let mut fig6 = Table::new(vec![
            "protocol",
            "first partition at (%)",
            "avg outside largest @95%",
        ]);
        let mut fig6_series = Table::new(vec![
            "protocol",
            "removed %",
            "avg nodes outside largest cluster",
        ]);
        for (policy, r) in self.paper() {
            let c = &r.removal;
            // The last point is the 95 % one.
            fig6.row(vec![
                policy.to_string(),
                c.first_partition_percent
                    .map_or("never".into(), |p| fmt_f64(p, 1)),
                c.points.last().map_or("-".into(), |(_, v)| fmt_f64(*v, 2)),
            ]);
            for &(pct, avg) in &c.points {
                fig6_series.row(vec![policy.to_string(), fmt_f64(pct, 1), fmt_f64(avg, 2)]);
            }
        }

        let mut fig7 = Table::new(vec![
            "protocol",
            "dead links at failure",
            "healed at cycle",
            "remaining at end",
            "degree variance at failure",
        ]);
        let mut fig7_series = Table::new(vec!["protocol", "cycle", "dead links"]);
        for r in &self.runs {
            let c = &r.healing;
            fig7.row(vec![
                r.protocol.clone(),
                c.initial_dead_links.to_string(),
                c.healed_at_cycle
                    .map_or("not healed".into(), |c| c.to_string()),
                fmt_f64(c.remaining(), 0),
                fmt_f64(r.degrees.last().variance(), 1),
            ]);
            for (cycle, v) in c.dead_links.iter() {
                fig7_series.row(vec![r.protocol.clone(), cycle.to_string(), fmt_f64(v, 0)]);
            }
        }

        vec![
            Section::new("fig3", fig3, Some(fig3_series)),
            Section::new("fig4", fig4, Some(fig4_series)),
            Section::new("table2", table2, None),
            Section::new("fig5", fig5, Some(fig5_series)),
            Section::new("fig6", fig6, Some(fig6_series)),
            Section::new("fig7", fig7, Some(fig7_series)),
        ]
    }
}

/// Runs every row (in parallel); `scale.cycles` is the convergence budget
/// before the damage and the failure, Figure 5's series length, and Figure
/// 3 plots its first `min(100, scale.cycles)` cycles;
/// `--runs` the removal repetitions per Figure 6 point (default 30;
/// paper: 100).
pub fn run(o: &Options) -> RandomResult {
    run_rows(o.scale, o.runs.unwrap_or(30), rows(o.scale.view_size))
}

/// The experiment over `rows`, in their order.
fn run_rows(scale: Scale, repetitions: usize, rows: Vec<(String, HonestPolicy)>) -> RandomResult {
    let runs = parallel_map(rows, move |row| run_row(scale, repetitions, row));
    RandomResult {
        runs,
        max_lag: 140.min(scale.cycles as usize / 2),
        band: pss_stats::white_noise_band(scale.cycles as usize, CONFIDENCE),
        baseline: random_baseline(scale),
    }
}

/// The rows at view size `c`, labelled: the paper's eight protocols in
/// Table 2's order, then the H&S corners with random peer selection.
///
/// # Panics
///
/// Panics if `c < 2`, where H&S has no valid configuration.
fn rows(c: usize) -> Vec<(String, HonestPolicy)> {
    let paper = PROTOCOLS.map(|policy| {
        let config = ProtocolConfig::new(policy, c).expect("non-zero view size");
        (policy.to_string(), HonestPolicy::Sampling(config))
    });
    let (half, quarter) = (c / 2, c / 4);
    let corners = [
        ("blind", 0, 0),
        ("healer", half, 0),
        ("swapper", 0, half),
        ("midpoint", quarter, quarter),
    ]
    .map(|(name, h, s)| {
        let hs = HsConfig::new(c, h, s, HsPeerSelection::Rand).expect("H + S <= c/2");
        (format!("hs {name} (H={h},S={s})"), HonestPolicy::Hs(hs))
    });
    paper.into_iter().chain(corners).collect()
}

/// One row's run: converge, damage the final graph, then fail and heal.
/// A paper row also traces Figure 3's properties while converging, and
/// runs its lattice control.
fn run_row(scale: Scale, repetitions: usize, (protocol, row): (String, HonestPolicy)) -> RandomRun {
    let policy = match &row {
        HonestPolicy::Sampling(config) => Some(config.policy()),
        HonestPolicy::Hs(_) => None,
    };
    let mut random = policy.map(|_| PropertyTrace::new(row_seed(scale)));
    let (mut sim, degrees, graph) = converge(scale, row.clone(), random.as_mut());
    let convergence = random.map(|random| Convergence {
        lattice: lattice_control(scale, row),
        random,
    });
    let removal = removal_curve(scale, &graph, repetitions);
    let healing = heal(scale, &mut sim);
    RandomRun {
        protocol,
        policy,
        convergence,
        degrees,
        removal,
        healing,
    }
}

/// Table 2's seed: every row's engine, random start and property trace.
fn row_seed(scale: Scale) -> u64 {
    scale.seed ^ 0x7ab1e2
}

/// The row's engine at Table 2's seed, its views seeded from `start`.
fn engine(scale: Scale, row: HonestPolicy, start: &Csr) -> ShardedSimulation<BoxedNode> {
    let c = row.view_size();
    let mut sim =
        ShardedSimulation::with_factory(row_seed(scale), 1, move |id, s| row.build(id, s));
    scenario::seed_from_digraph(&mut sim, c, start);
    sim
}

/// Figure 3's lattice column: the row's engine from the ring lattice,
/// traced over the plotted cycles.
fn lattice_control(scale: Scale, row: HonestPolicy) -> PropertyTrace {
    let lattice = gen::ring_lattice(scale.nodes, row.view_size());
    let mut sim = engine(scale, row, &lattice);
    let mut trace = PropertyTrace::new(row_seed(scale));
    trace.run(&mut sim, scale.cycles.min(PLOTTED_CYCLES));
    trace
}

/// Runs `scale.cycles` cycles from the random topology, one undirected
/// graph per cycle, the plotted ones recorded into `trace` if one is given:
/// the engine, the degrees Figures 4 and 5 and Table 2 read, and the final
/// graph.
fn converge(
    scale: Scale,
    row: HonestPolicy,
    mut trace: Option<&mut PropertyTrace>,
) -> (ShardedSimulation<BoxedNode>, DegreeTrace, Csr) {
    let (n, c) = (scale.nodes, row.view_size());
    let start = scenario::random_digraph(n, c, row_seed(scale));
    let mut sim = engine(scale, row, &start);
    // Figure 4 captures at `{0, 1%, 10%, 100%}` of the cycle budget.
    let capture_at = [scale.cycles / 100, scale.cycles / 10, scale.cycles];
    let mut graph = sim.csr_snapshot().graph().undirected();
    let mut captures = vec![(0, graph.degree_distribution())];
    // Trace evenly spaced nodes — as good as random for a symmetric
    // random topology, and deterministic.
    let traced_count = TRACED_NODES.min(n);
    let stride = (n / traced_count.max(1)).max(1);
    let mut traced: Vec<(NodeId, TimeSeries)> = (0..traced_count)
        .map(|i| (NodeId::new((i * stride) as u64), TimeSeries::default()))
        .collect();
    let mut fixed = (NodeId::new((n / 2) as u64), TimeSeries::default());
    for _ in 0..scale.cycles {
        sim.run_cycle();
        let cycle = sim.cycle();
        let snapshot = sim.csr_snapshot();
        graph = snapshot.graph().undirected();
        if let Some(trace) = trace.as_deref_mut().filter(|_| cycle <= PLOTTED_CYCLES) {
            trace.record(cycle, &graph);
        }
        if capture_at.contains(&cycle) {
            captures.push((cycle, graph.degree_distribution()));
        }
        for (id, s) in traced.iter_mut().chain([&mut fixed]) {
            if let Some(idx) = snapshot.index_of(*id) {
                s.push(cycle, graph.degree(idx) as f64);
            }
        }
    }
    let degrees = DegreeTrace {
        captures,
        traced,
        fixed: fixed.1,
    };
    (sim, degrees, graph)
}

/// Figure 6's curve: `graph` is damaged `repetitions` times per
/// percentage.
fn removal_curve(scale: Scale, graph: &Csr, repetitions: usize) -> RemovalCurve {
    let mut points = Vec::with_capacity(REMOVAL_PERCENTS.len());
    let mut first_partition_percent = None;
    for (i, pct) in REMOVAL_PERCENTS.into_iter().enumerate() {
        let (avg_outside, partitioned) =
            damage_and_measure(graph, pct, repetitions, scale.run_seed(9000 + i as u64));
        points.push((pct, avg_outside));
        if partitioned && first_partition_percent.is_none() {
            first_partition_percent = Some(pct);
        }
    }
    RemovalCurve {
        points,
        first_partition_percent,
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

/// Figure 7's curve: half the nodes crash, then the dead links are counted
/// every cycle.
fn heal(scale: Scale, sim: &mut ShardedSimulation<BoxedNode>) -> HealingCurve {
    // Cycles simulated after the failure (the paper plots 70 for the head
    // protocols and 200 for the rand ones; we run the maximum for all).
    let recovery = (scale.cycles * 2 / 3).max(40);
    sim.kill_random_fraction(KILL_FRACTION);
    let initial_dead_links = sim.dead_link_count();
    let mut dead_links = TimeSeries::default();
    for _ in 0..recovery {
        sim.run_cycle();
        dead_links.push(sim.cycle(), sim.dead_link_count() as f64);
    }
    let healed_at_cycle = dead_links.iter().find(|&(_, v)| v == 0.0).map(|(c, _)| c);
    HealingCurve {
        dead_links,
        initial_dead_links,
        healed_at_cycle,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The row whose label starts with `label`, at view size `c`.
    fn row(c: usize, label: &str) -> (String, HonestPolicy) {
        rows(c)
            .into_iter()
            .find(|(l, _)| l.starts_with(label))
            .expect("known row")
    }

    /// `(rand,head,pushpull)` and `(rand,rand,pushpull)` at one shared
    /// scale, run once for every degree test below.
    fn shared() -> &'static RandomResult {
        static SHARED: OnceLock<RandomResult> = OnceLock::new();
        SHARED.get_or_init(|| {
            let scale = Scale {
                nodes: 400,
                cycles: 120,
                view_size: 15,
                seed: 31,
            };
            let rows = ["(rand,head,pushpull)", "(rand,rand,pushpull)"].map(|l| row(15, l));
            run_rows(scale, 10, rows.to_vec())
        })
    }

    /// The section named `name`.
    fn section(result: &RandomResult, name: &str) -> Section {
        let sections = result.sections();
        sections.into_iter().find(|s| s.name == name).expect(name)
    }

    #[test]
    fn converges_from_both_starts_at_tiny_scale() {
        let scale = Scale {
            nodes: 200,
            cycles: 30,
            view_size: 10,
            seed: 99,
        };
        let newscast = PolicyTriple::newscast().to_string();
        let result = run_rows(scale, 1, vec![row(10, &newscast)]);
        let c = result.runs[0].convergence.as_ref().expect("a paper row");
        let last = |s: &TimeSeries| *s.values().last().unwrap();
        let (cc_l, cc_r) = (last(&c.lattice.clustering), last(&c.random.clustering));
        let (deg_l, deg_r) = (last(&c.lattice.degree), last(&c.random.degree));
        // The paper's claim: properties converge to the same value from
        // radically different starts.
        assert!(
            (cc_l - cc_r).abs() < 0.08,
            "lattice {cc_l} vs random {cc_r}"
        );
        assert!((deg_l - deg_r).abs() < 3.0, "degree {deg_l} vs {deg_r}");
        let fig3 = section(&result, "fig3");
        assert!(fig3.summary.to_string().contains("(rand,head,pushpull)"));
        assert_eq!(fig3.series.as_ref().map(Table::len), Some(2 * 30));
    }

    /// Figure 3's random column is the converging run itself: at a budget
    /// Figure 3 plots in full, its last average degree is Figure 4's final
    /// capture mean, bit for bit, on every paper row; the H&S rows get no
    /// Figure 3 row.
    #[test]
    fn fig3_random_column_reads_the_converging_run() {
        let scale = Scale {
            nodes: 200,
            cycles: 20,
            view_size: 8,
            seed: 7,
        };
        let result = run_rows(scale, 1, rows(scale.view_size));
        for run in &result.runs {
            let Some(c) = &run.convergence else {
                assert!(run.policy.is_none(), "{}", run.protocol);
                continue;
            };
            assert_eq!(c.random.degree.len(), 20);
            assert_eq!(c.lattice.degree.len(), 20);
            let degree = *c.random.degree.values().last().unwrap();
            let mean = run.degrees.last().mean();
            assert_eq!(degree.to_bits(), mean.to_bits(), "{}", run.protocol);
        }
        assert_eq!(result.runs.iter().flat_map(|r| &r.convergence).count(), 8);
    }

    #[test]
    fn head_selection_is_more_balanced_than_rand() {
        let [head, rand] = &shared().runs[..] else {
            unreachable!()
        };
        let var = |r: &RandomRun| r.degrees.last().variance();
        // The paper's headline split: head view selection balances degrees,
        // rand view selection produces a much wider distribution.
        assert!(
            var(rand) > 2.0 * var(head),
            "rand variance {} should dwarf head variance {}",
            var(rand),
            var(head)
        );
        // Capture at cycle 0 is the initial random graph for both.
        assert_eq!(head.degrees.captures[0].0, 0);
        assert_eq!(head.degrees.captures[0].1.total(), 400);
        let fig4 = section(shared(), "fig4");
        assert!(fig4.series.as_ref().is_some_and(|s| !s.is_empty()));
    }

    #[test]
    fn head_vs_rand_stability_split() {
        let [head, rand] = &shared().runs[..] else {
            unreachable!()
        };
        let (head, rand) = (head.degrees.stats(), rand.degrees.stats());
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
        let text = section(shared(), "table2").summary.to_string();
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
        let fig5 = section(result, "fig5");
        assert_eq!(fig5.series.as_ref().map(Table::len), Some(2 * 61));
    }

    /// The three degree artifacts read one overlay: Figure 4's final
    /// capture is Table 2's `D_K`, and Figure 5's node is Table 2's traced
    /// node N/2.
    #[test]
    fn the_three_artifacts_read_one_trace() {
        for r in &shared().runs {
            let t = &r.degrees;
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

    /// Figures 6 and 7 read Figure 4's final overlay, on every row: the
    /// engine's degree variance at the failure is the final capture's, bit
    /// for bit, and the graph Figure 6 damages has the final capture's
    /// nodes and degrees.
    #[test]
    fn fig6_and_fig7_read_fig4s_final_capture() {
        let scale = Scale {
            nodes: 200,
            cycles: 20,
            view_size: 8,
            seed: 7,
        };
        for (protocol, row) in rows(scale.view_size) {
            let (sim, degrees, graph) = converge(scale, row, None);
            let last = degrees.last();
            let at_failure = sim.csr_snapshot().graph().undirected();
            let variance = at_failure.degree_distribution().variance();
            assert_eq!(variance.to_bits(), last.variance().to_bits(), "{protocol}");
            assert_eq!(graph.node_count() as u64, last.total(), "{protocol}");
            assert_eq!(graph.degree_distribution(), *last, "{protocol}");
        }
    }

    #[test]
    fn robust_below_seventy_percent_at_tiny_scale() {
        let scale = Scale {
            nodes: 500,
            cycles: 40,
            view_size: 20,
            seed: 41,
        };
        let newscast = PolicyTriple::newscast().to_string();
        let result = run_rows(scale, 10, vec![row(20, &newscast)]);
        let curve = &result.runs[0].removal;
        assert_eq!(curve.points.len(), 7);
        // At 65% removal the overlay should be essentially intact.
        assert!(curve.points[0].1 < 1.0, "damage at 65%: {:?}", curve.points);
        // Monotone damage.
        assert!(curve.points[6].1 >= curve.points[0].1);
        let fig6 = section(&result, "fig6");
        assert!(!fig6.summary.is_empty());
        assert_eq!(fig6.series.as_ref().map(Table::len), Some(7));
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

    #[test]
    fn head_heals_rand_does_not_at_tiny_scale() {
        let scale = Scale {
            nodes: 400,
            cycles: 40,
            view_size: 15,
            seed: 51,
        };
        let rows = ["(rand,head,pushpull)", "(rand,rand,pushpull)"].map(|l| row(15, l));
        let result = run_rows(scale, 1, rows.to_vec());
        let head = &result.runs[0].healing;
        let rand = &result.runs[1].healing;
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
        let fig7 = section(&result, "fig7");
        assert!(!fig7.summary.is_empty());
        assert!(fig7.series.as_ref().is_some_and(|s| !s.is_empty()));
    }

    #[test]
    fn healer_corner_heals_blind_corner_does_not() {
        let scale = Scale {
            nodes: 300,
            cycles: 40,
            view_size: 16,
            seed: 91,
        };
        let blind = run_row(scale, 1, row(16, "hs blind")).healing;
        let healer = run_row(scale, 1, row(16, "hs healer")).healing;
        assert!(
            healer.healed_at_cycle.is_some(),
            "healer corner should fully heal, left {}",
            healer.remaining()
        );
        assert_eq!(blind.healed_at_cycle, None, "blind corner healed");
        assert!(
            healer.remaining() < blind.remaining(),
            "healer {} should beat blind {}",
            healer.remaining(),
            blind.remaining()
        );
    }

    #[test]
    fn swapper_corner_balances_degrees() {
        let scale = Scale {
            nodes: 300,
            cycles: 40,
            view_size: 16,
            seed: 92,
        };
        let variance = |label| {
            let (_, degrees, _) = converge(scale, row(16, label).1, None);
            degrees.last().variance()
        };
        let (blind, swapper) = (variance("hs blind"), variance("hs swapper"));
        assert!(
            swapper <= blind * 1.2,
            "swapper variance {swapper} should not exceed blind {blind}"
        );
    }
}
