//! Pins the cross-engine experiment commands: an FNV-1a digest over every
//! field of every `PeriodRecord`, `AppPeriodRow` and `AttackRecord` that
//! `workload::run`, `workload::matrix`, `protocols::run` and
//! `adversary::run` produce at a tiny configuration, on both engines
//! (`f64`s by bit pattern). The constants were recorded before the
//! per-engine build-and-run code of those four commands was folded into
//! one helper; a change to how either engine is bootstrapped or driven
//! changes them.

use pss_experiments::{adversary, protocols, workload, Scale};
use pss_protocols::AppPeriodRow;
use pss_sim::audit::AttackRecord;
use pss_sim::workload::PeriodRecord;

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

fn tiny() -> Scale {
    Scale {
        nodes: 120,
        view_size: 12,
        ..Scale::tiny()
    }
}

#[test]
fn workload_records_are_pinned_on_both_engines() {
    let mut config = workload::WorkloadConfig::at_scale(tiny());
    config.schedule = "quiet:4,kill:0.3,churn:0.02x4,flash:10,part:2x3,quiet:2".into();
    config.freshness = workload::FreshnessChoice::Both;
    let run = workload::run(&config).expect("valid schedule");
    let mut digest = Digest::new();
    for result in &run.results {
        assert_eq!(result.cycle.len(), 13);
        assert_eq!(result.event.len(), 13);
        for record in result.cycle.iter().chain(&result.event) {
            digest.period(record);
        }
    }
    assert_eq!(digest.0, WORKLOAD);
}

#[test]
fn matrix_cells_are_pinned_on_both_engines() {
    let result = workload::matrix(&workload::MatrixConfig::at_scale(tiny())).expect("valid");
    assert_eq!(result.cells.len(), 16);
    let mut digest = Digest::new();
    for cell in &result.cells {
        digest.period(&cell.cycle_end);
        digest.period(&cell.event_end);
    }
    assert_eq!(digest.0, MATRIX);
}

#[test]
fn protocol_rows_are_pinned_on_both_engines() {
    let result = protocols::run(&protocols::ProtocolsConfig::at_scale(tiny())).expect("valid");
    assert_eq!(result.runs.len(), 16);
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
fn attack_records_are_pinned_on_both_engines() {
    let mut config = adversary::AdversaryConfig::at_scale(tiny());
    config.schedule = "adv:hub@0.05,quiet:8".into();
    let result = adversary::run(&config).expect("valid schedule");
    assert_eq!(result.outcomes.len(), 8);
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

const WORKLOAD: u64 = 362041301676028430;
const MATRIX: u64 = 16965542888508163589;
const PROTOCOLS: u64 = 5633405237867706408;
const ADVERSARY: u64 = 571509363189020044;
