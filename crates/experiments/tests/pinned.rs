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
//! The per-cycle figures are pinned the same way: every cycle index and
//! value of the series that `fig2`, `fig3`, `fig5`, `table2` and `fig7`
//! produce (through `dynamics::run_dynamics`, the degree traces and the
//! dead-link counts), plus the values each derives from them.

use pss_experiments::dynamics::ProtocolDynamics;
use pss_experiments::stacks::Stack;
use pss_experiments::{adversary, fig2, fig3, fig5, fig7, protocols, table2, workload, Scale};
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
    fn series(&mut self, s: &TimeSeries) {
        self.words(&[s.len() as u64]);
        for (cycle, value) in s.iter() {
            self.words(&[cycle, value.to_bits()]);
        }
    }

    fn dynamics(&mut self, d: &ProtocolDynamics) {
        self.series(&d.clustering);
        self.series(&d.degree);
        self.series(&d.path_length);
        self.words(&[u64::from(d.connected_at_end), u64::from(d.attempts)]);
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
    let mut config = workload::WorkloadConfig::at_scale(tiny());
    config.schedule = "quiet:4,kill:0.3,churn:0.02x4,flash:10,part:2x3,quiet:2".into();
    config.freshness = workload::FreshnessChoice::Both;
    let run = workload::run(&config).expect("valid schedule");
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
    let result = workload::matrix(&workload::MatrixConfig::at_scale(tiny())).expect("valid");
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
    let result = protocols::run(&protocols::ProtocolsConfig::at_scale(tiny())).expect("valid");
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
    let mut config = adversary::AdversaryConfig::at_scale(tiny());
    config.schedule = "adv:hub@0.05,quiet:8".into();
    let result = adversary::run(&config).expect("valid schedule");
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

#[test]
fn per_cycle_figure_series_are_pinned() {
    let scale = Scale {
        cycles: 30,
        ..tiny()
    };
    let mut digest = Digest::new();

    let f2 = fig2::run(&fig2::Fig2Config::at_scale(scale));
    assert_eq!(f2.dynamics.len(), 6);
    for d in &f2.dynamics {
        assert_eq!(d.degree.len(), 30);
        digest.dynamics(d);
    }

    let f3 = fig3::run(&fig3::Fig3Config::at_scale(scale));
    assert_eq!(f3.lattice.len() + f3.random.len(), 16);
    for d in f3.lattice.iter().chain(&f3.random) {
        digest.dynamics(d);
    }

    let f5 = fig5::run(&fig5::Fig5Config::at_scale(scale));
    assert_eq!(f5.protocols.len(), 4);
    for p in &f5.protocols {
        let values = p.autocorrelation.values();
        digest.words(&[values.len() as u64]);
        digest.words(&values.iter().map(|r| r.to_bits()).collect::<Vec<_>>());
        digest.words(&[p.last_significant_lag.map_or(u64::MAX, |l| l as u64)]);
    }

    let t2 = table2::run(&table2::Table2Config::at_scale(scale));
    assert_eq!(t2.rows.len(), 8);
    for row in &t2.rows {
        digest.words(&[
            row.final_mean_degree.to_bits(),
            row.traced_mean.to_bits(),
            row.traced_std.to_bits(),
        ]);
    }

    let f7 = fig7::run(&fig7::Fig7Config::at_scale(scale));
    assert_eq!(f7.curves.len(), 8);
    for c in &f7.curves {
        assert_eq!(c.dead_links.len(), 40);
        digest.series(&c.dead_links);
        digest.words(&[
            c.initial_dead_links as u64,
            c.healed_at_cycle.unwrap_or(u64::MAX),
        ]);
    }

    assert_eq!(digest.0, PER_CYCLE_SERIES);
}

const PER_CYCLE_SERIES: u64 = 8083121053243876818;
const WORKLOAD: u64 = 362041301676028430;
const MATRIX: u64 = 16965542888508163589;
const PROTOCOLS: u64 = 5633405237867706408;
const ADVERSARY: u64 = 571509363189020044;
