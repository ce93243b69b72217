//! Pins the cross-stack experiment commands: an FNV-1a digest over every
//! field of every `PeriodRecord`, `AppPeriodRow` and `AttackRecord` that
//! `workload::run`, `workload::matrix`, `protocols::run` and
//! `adversary::run` produce at a tiny configuration, on every stack in
//! `Stack::ALL` order (`f64`s by bit pattern). The constants were recorded
//! on the cycle and the event engine, digested in that order, before the
//! per-engine build-and-run code of those four commands was folded into
//! one helper; a change to how a stack is bootstrapped or driven changes
//! them.
//!
//! `growing` is pinned on Table 1's rows (run counts and partition means)
//! and on Figure 2's six replays (every cycle index and value of the three
//! property series, the replayed run and its component count). Table 1's
//! constant was recorded while `table1` was a command of its own and
//! holds. Figure 2's was recorded again when it moved onto Table 1's runs:
//! before, it grew an overlay of its own at `run_seed(1)`, retrying other
//! seeds until one ended connected.
//!
//! `random`'s figures have one constant each, all read from one run per
//! row at Table 2's seed: every cycle index and value of Figure 3's series
//! from both starts, every `(cycle, degree, count)` of Figure 4's
//! captures, Table 2's rows, Figure 5's autocorrelations, Figure 6's
//! points and first partition percents, Figure 7's eight paper curves, and
//! its four H&S curves with every row's degree variance. Table 2's was
//! recorded while it ran on its own and holds; Figure 4's and Figure 5's
//! were recorded again when they moved onto Table 2's overlay, and hold.
//! Figure 6's and Figure 7's were recorded again when they moved onto it
//! too: before, each converged an overlay of its own at another seed. So
//! was Figure 3's, whose lattice and random starts both ran at
//! `run_seed(1)` before; its random column is now the row's run. Figure
//! 7's two constants were recorded once more when `random` moved onto the
//! workload driver (`quiet:T,kill:0.5,quiet:R`): the schedule's compiler
//! now picks the victims, where the engine's control RNG picked them
//! before. Every other `random` and `growing` constant held through that
//! move.
//!
//! `async` is pinned on its deterministic columns only: every row's
//! labels, shard count and overlay statistics, never the wall-clock
//! throughput. Two of its digests were recorded before the `scaling`
//! command folded into it, and hold over the rows both commands ran: the
//! rows `async` printed, and the in-degree columns of `scaling`, whose
//! runs are `async`'s newscast cycle-engine rows.

use std::sync::OnceLock;

use pss_core::PolicyTriple;
use pss_experiments::asynchrony::{AsyncResult, EngineComparison, OverlayStats};
use pss_experiments::dynamics::PropertyTrace;
use pss_experiments::random::{RandomResult, RandomRun};
use pss_experiments::stacks::Stack;
use pss_experiments::{
    adversary, asynchrony, growing, protocols, random, workload, Options, Scale,
};
use pss_protocols::AppPeriodRow;
use pss_sim::audit::AttackRecord;
use pss_sim::workload::PeriodRecord;
use pss_stats::TimeSeries;

/// FNV-1a over `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: &[u64]) {
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn period(&mut self, r: &PeriodRecord) {
        self.words(&[
            r.period,
            r.live as u64,
            r.killed as u64,
            r.joined as u64,
            r.full_views as u64,
            r.in_degree_mean.to_bits(),
            r.in_degree_sd.to_bits(),
            r.dead_links as u64,
            r.total_links as u64,
            r.largest_component as u64,
            u64::from(r.partitioned),
        ]);
    }

    fn app(&mut self, r: &AppPeriodRow) {
        self.words(&[
            r.period,
            r.live as u64,
            r.informed as u64,
            r.delivered,
            r.redundant,
            r.wasted,
            r.blocked,
            r.agg_wasted,
            r.variance.to_bits(),
        ]);
    }

    fn attack(&mut self, r: &AttackRecord) {
        self.words(&[
            r.period,
            r.live as u64,
            r.honest_live as u64,
            r.attackers_live as u64,
            r.attacker_in_degree_mean.to_bits(),
            r.honest_in_degree_mean.to_bits(),
            r.attacker_edge_fraction.to_bits(),
            r.in_degree_gini.to_bits(),
            r.eclipsed_victims as u64,
            r.largest_honest_component as u64,
        ]);
    }
}

impl Digest {
    fn text(&mut self, s: &str) {
        self.words(&[s.len() as u64]);
        self.words(&s.bytes().map(u64::from).collect::<Vec<_>>());
    }

    fn series(&mut self, s: &TimeSeries) {
        self.words(&[s.len() as u64]);
        for (cycle, value) in s.iter() {
            self.words(&[cycle, value.to_bits()]);
        }
    }

    fn dynamics(&mut self, t: &PropertyTrace) {
        self.series(&t.clustering);
        self.series(&t.degree);
        self.series(&t.path_length);
    }
}

/// The stacks of a per-stack result, in its order.
fn stacks<T>(per_stack: &[(Stack, T)]) -> Vec<Stack> {
    per_stack.iter().map(|(s, _)| *s).collect()
}

fn tiny() -> Scale {
    Scale {
        nodes: 120,
        view_size: 12,
        ..Scale::tiny()
    }
}

#[test]
fn workload_records_are_pinned_on_every_stack() {
    let run = workload::run(&Options {
        schedule: Some("quiet:4,kill:0.3,churn:0.02x4,flash:10,part:2x3,quiet:2".into()),
        freshness: workload::FreshnessChoice::Both,
        ..Options::at(tiny())
    })
    .expect("valid schedule");
    let mut digest = Digest::new();
    for result in &run.results {
        assert_eq!(stacks(&result.records), Stack::ALL);
        for (_, records) in &result.records {
            assert_eq!(records.len(), 13);
            for record in records {
                digest.period(record);
            }
        }
    }
    assert_eq!(digest.0, WORKLOAD);
}

#[test]
fn matrix_cells_are_pinned_on_every_stack() {
    let result = workload::matrix(&Options::at(tiny())).expect("valid");
    assert_eq!(result.cells.len(), 16);
    let mut digest = Digest::new();
    for cell in &result.cells {
        assert_eq!(stacks(&cell.ends), Stack::ALL);
        for (_, end) in &cell.ends {
            digest.period(end);
        }
    }
    assert_eq!(digest.0, MATRIX);
}

#[test]
fn protocol_rows_are_pinned_on_every_stack() {
    let result = protocols::run(&Options::at(tiny())).expect("valid");
    assert_eq!(result.runs.len(), 8 * Stack::ALL.len());
    let mut digest = Digest::new();
    for run in &result.runs {
        for record in &run.records {
            digest.period(record);
        }
        for row in run.report.rows() {
            digest.app(row);
        }
        digest.words(&[run.report.initial_variance().to_bits()]);
    }
    assert_eq!(digest.0, PROTOCOLS);
}

#[test]
fn attack_records_are_pinned_on_every_stack() {
    let result = adversary::run(&Options {
        schedule: Some("adv:hub@0.05,quiet:8".into()),
        ..Options::at(tiny())
    })
    .expect("valid schedule");
    assert_eq!(result.outcomes.len(), 4 * Stack::ALL.len());
    let mut digest = Digest::new();
    for outcome in &result.outcomes {
        digest.attack(&outcome.final_record);
        digest.words(&[
            outcome.attacker_sample_share.to_bits(),
            outcome.uniformity_p.unwrap_or(f64::NAN).to_bits(),
        ]);
    }
    assert_eq!(digest.0, ADVERSARY);
}

/// Table 1 at tiny scale and 4 runs per protocol: every row's policy,
/// run count, partitioned runs and the two partition means.
#[test]
fn table1_rows_are_pinned() {
    let result = growing::run(&Options {
        runs: Some(4),
        ..Options::at(tiny())
    });
    assert_eq!(result.table1.len(), 8);
    let mut digest = Digest::new();
    for row in &result.table1 {
        let (clusters, largest) = row.partition_means();
        digest.text(&row.policy.to_string());
        digest.words(&[
            row.outcomes.len() as u64,
            row.partitioned().len() as u64,
            clusters.to_bits(),
            largest.to_bits(),
        ]);
    }
    assert_eq!(digest.0, TABLE1_ROWS);
}

/// Figure 2's six replays at tiny scale, 30 cycles and 4 runs per
/// protocol: every series, the replayed run and its component count.
#[test]
fn fig2_series_are_pinned() {
    let result = growing::run(&Options {
        runs: Some(4),
        ..Options::at(Scale {
            cycles: 30,
            ..tiny()
        })
    });
    assert_eq!(result.fig2.len(), 6);
    let mut digest = Digest::new();
    for r in &result.fig2 {
        assert_eq!(r.properties.degree.len(), 30);
        digest.dynamics(&r.properties);
        digest.words(&[r.run as u64, r.components as u64]);
    }
    assert_eq!(digest.0, FIG2_SERIES);
}

/// Figure 3's series of the paper's eight `random` rows: every lattice
/// column, then every random column.
#[test]
fn fig3_series_are_pinned() {
    let runs: Vec<_> = random_run()
        .runs
        .iter()
        .flat_map(|r| &r.convergence)
        .collect();
    assert_eq!(runs.len(), 8);
    let mut digest = Digest::new();
    for c in &runs {
        digest.dynamics(&c.lattice);
    }
    for c in &runs {
        digest.dynamics(&c.random);
    }
    assert_eq!(digest.0, FIG3_SERIES);
}

/// `random` at tiny scale and 30 cycles, run once for the pins below.
fn random_run() -> &'static RandomResult {
    static RUN: OnceLock<RandomResult> = OnceLock::new();
    RUN.get_or_init(|| {
        let result = random::run(&Options::at(Scale {
            cycles: 30,
            ..tiny()
        }));
        assert_eq!(result.runs.len(), 12);
        result
    })
}

/// The degree figures, read from the paper's eight `random` runs: every
/// capture of Figure 4, Table 2's rows and Figure 5's autocorrelations,
/// each under a constant of its own.
#[test]
fn degree_figures_are_pinned() {
    let r = random_run();
    let mut digest = Digest::new();
    for (policy, run) in r.paper() {
        digest.text(&policy.to_string());
        for (cycle, dist) in &run.degrees.captures {
            for (degree, count) in dist.iter() {
                digest.words(&[*cycle, degree, count]);
            }
        }
    }
    assert_eq!(digest.0, FIG4_CAPTURES);

    let mut digest = Digest::new();
    for (policy, run) in r.paper() {
        let row = run.degrees.stats();
        digest.text(&policy.to_string());
        digest.words(&[
            row.final_mean_degree.to_bits(),
            row.traced_mean.to_bits(),
            row.traced_std.to_bits(),
        ]);
    }
    assert_eq!(digest.0, TABLE2_ROWS);

    let autocorrelations = r.autocorrelations();
    assert_eq!(autocorrelations.len(), 4);
    let mut digest = Digest::new();
    for (policy, acf) in &autocorrelations {
        digest.text(&policy.to_string());
        let values = acf.values();
        digest.words(&[values.len() as u64]);
        digest.words(&values.iter().map(|r| r.to_bits()).collect::<Vec<_>>());
        let last = acf.last_significant_lag(r.band);
        digest.words(&[last.map_or(u64::MAX, |l| l as u64)]);
    }
    assert_eq!(digest.0, FIG5_AUTOCORRELATIONS);
}

/// Figure 6's curves: every point of every paper protocol and each first
/// partition percent.
#[test]
fn fig6_curves_are_pinned() {
    let mut digest = Digest::new();
    for (policy, run) in random_run().paper() {
        let c = &run.removal;
        digest.text(&policy.to_string());
        for (percent, outside) in &c.points {
            digest.words(&[percent.to_bits(), outside.to_bits()]);
        }
        digest.words(&[c.first_partition_percent.map_or(u64::MAX, f64::to_bits)]);
    }
    assert_eq!(digest.0, FIG6_CURVES);
}

impl Digest {
    fn healing(&mut self, run: &RandomRun) {
        let c = &run.healing;
        assert_eq!(c.dead_links.len(), 40);
        self.text(&run.protocol);
        self.series(&c.dead_links);
        self.words(&[
            c.initial_dead_links as u64,
            c.healed_at_cycle.unwrap_or(u64::MAX),
        ]);
    }
}

/// Figure 7's eight paper curves: the dead links per cycle, the dead links
/// at the failure and the cycle each healed at.
#[test]
fn fig7_curves_are_pinned() {
    let mut digest = Digest::new();
    for (_, run) in random_run().paper() {
        digest.healing(run);
    }
    assert_eq!(digest.0, FIG7_CURVES);
}

/// The rows Figure 7 shows beside the paper's eight: the four H&S curves,
/// and every row's degree variance at the failure.
#[test]
fn fig7_hs_rows_and_variances_are_pinned() {
    let runs = &random_run().runs;
    let mut digest = Digest::new();
    for run in runs.iter().filter(|r| r.policy.is_none()) {
        digest.healing(run);
    }
    for run in runs {
        digest.words(&[run.degrees.last().variance().to_bits()]);
    }
    assert_eq!(digest.0, FIG7_HS_ROWS);
}

/// `async` at tiny scale on shards 1, 2 and 4: 9 rows per protocol.
fn async_sweep() -> AsyncResult {
    let result = asynchrony::run(&Options {
        shards: Some(vec![1, 2, 4]),
        ..Options::at(Scale {
            cycles: 20,
            ..tiny()
        })
    });
    assert_eq!(result.rows.len(), 3 * 3 * 3);
    result
}

impl Digest {
    /// The columns an `async` row has had since it was first pinned.
    fn async_row(&mut self, r: &EngineComparison) {
        self.text(r.engine);
        self.text(&r.policy.to_string());
        let s = &r.stats;
        self.words(&[
            r.shards as u64,
            r.loss.to_bits(),
            s.average_degree.to_bits(),
            s.clustering.to_bits(),
            s.path_length.to_bits(),
            s.connected.map_or(2, u64::from),
        ]);
    }

    fn in_degrees(&mut self, s: &OverlayStats) {
        self.words(&[
            s.in_degree_mean.to_bits(),
            s.in_degree_std.to_bits(),
            s.in_degree_min.to_bits(),
            s.in_degree_max.to_bits(),
        ]);
    }
}

/// The rows `async` printed before `scaling` folded into it: the cycle
/// engine at the largest shard count only, the event engine at all.
#[test]
fn async_rows_are_pinned() {
    let mut digest = Digest::new();
    let rows = async_sweep().rows;
    for r in rows.iter().filter(|r| r.engine == "event" || r.shards == 4) {
        digest.async_row(r);
    }
    assert_eq!(digest.0, ASYNC_ROWS);
}

/// The in-degree columns `scaling` printed: the same runs as `async`'s
/// newscast cycle-engine rows.
#[test]
fn scaling_in_degrees_are_pinned() {
    let mut digest = Digest::new();
    let rows = async_sweep().rows;
    let newscast = |r: &&EngineComparison| r.policy == PolicyTriple::newscast();
    for r in rows.iter().filter(|r| r.engine == "cycle").filter(newscast) {
        digest.words(&[r.shards as u64]);
        digest.in_degrees(&r.stats);
    }
    assert_eq!(digest.0, SCALING_IN_DEGREES);
}

#[test]
fn async_table_is_pinned() {
    let mut digest = Digest::new();
    for r in &async_sweep().rows {
        digest.async_row(r);
        digest.in_degrees(&r.stats);
    }
    assert_eq!(digest.0, ASYNC_TABLE);
}

const ASYNC_ROWS: u64 = 269566359260749549;
const SCALING_IN_DEGREES: u64 = 9222395585052125286;
const ASYNC_TABLE: u64 = 688229617693845644;
const TABLE1_ROWS: u64 = 728462392450649829;
const FIG2_SERIES: u64 = 17323905112368634989;
const FIG3_SERIES: u64 = 199694063003824062;
const FIG4_CAPTURES: u64 = 12900431136060516060;
const TABLE2_ROWS: u64 = 13567595184759610227;
const FIG5_AUTOCORRELATIONS: u64 = 9946352216296955770;
const FIG6_CURVES: u64 = 3744758760871165443;
const FIG7_CURVES: u64 = 13239229272597096973;
const FIG7_HS_ROWS: u64 = 14983782728992281685;
const WORKLOAD: u64 = 362041301676028430;
const MATRIX: u64 = 16965542888508163589;
const PROTOCOLS: u64 = 5633405237867706408;
const ADVERSARY: u64 = 571509363189020044;
