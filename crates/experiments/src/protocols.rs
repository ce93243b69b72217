//! **Extension X7** — applications on the sampling service, cross-stack.
//!
//! The paper's motivation: gossip applications assume uniform sampling.
//! This experiment runs the two canonical consumers — epidemic broadcast
//! and push-pull averaging — on every simulation stack ([`Stack::ALL`])
//! under one compiled schedule per row, and on each the application layer
//! runs with both peer supplies: the node's own overlay view (dead links
//! and all) and the uniform live oracle. The sweep crosses policy ×
//! sampler × stack per row, so every delivery/decay number is
//! attributable to exactly one of those axes under an identical membership
//! trajectory.
//!
//! Each row names its schedule and its `Start`:
//! - `churn`, from the tree bootstrap: the conformance churn schedule;
//! - `partition`, from the tree bootstrap: a Table-1-style two-group
//!   partition, where coverage stalls at the cut (blocked messages
//!   counted) and re-floods after the heal;
//! - `quiet`, from a random start: thirty quiet periods on a
//!   converged-like overlay, where the overlay samplers' dissemination
//!   speed and aggregation decay are read against the oracle's.

use pss_core::{
    PeerSelection as Ps, PolicyTriple, ProtocolConfig, ViewPropagation as Vp, ViewSelection as Vs,
};
use pss_protocols::{run_under_workload, AppConfig, AppReport, Sampler};
use pss_sim::audit::HonestPolicy;
use pss_sim::workload::{PeriodRecord, Workload};

use crate::parallel::parallel_map;
use crate::report::{fmt_f64, fmt_percent, Cell, Cmp, Report, Section, Table};
use crate::stacks::{on_every_stack, Health, Stack, Start};
use crate::Options;

/// The default `(label, start, schedule)` rows ([`pss_sim::workload`]
/// grammar): the conformance churn schedule and a two-group partition
/// schedule from the tree bootstrap, and a quiet schedule from a random
/// start.
const SCHEDULES: [(&str, Start, &str); 3] = [
    ("churn", Start::Tree, "quiet:5,kill:0.3,churn:0.01x15"),
    ("partition", Start::Tree, "part:2x6,quiet:14"),
    ("quiet", Start::Random, "quiet:30"),
];

/// The overlay policies hosting the applications. Both heal dead links
/// through head view selection (keep the freshest); rand view selection
/// holds stale entries past the 10% dead-link health gate under sustained
/// churn.
const POLICIES: [PolicyTriple; 2] = [
    PolicyTriple::newscast(),
    PolicyTriple::new(Ps::Tail, Vs::Head, Vp::PushPull),
];

/// One cell of the sweep: a (schedule, policy, sampler, stack) run.
#[derive(Debug)]
pub struct ProtocolRun {
    /// Schedule label (`custom` for `--schedule`).
    pub schedule: String,
    /// The stack it ran on.
    pub stack: Stack,
    /// Overlay policy hosting the applications.
    pub policy: PolicyTriple,
    /// Peer supply the applications drew from.
    pub sampler: Sampler,
    /// Overlay trajectory (the same records the workload experiment pins).
    pub records: Vec<PeriodRecord>,
    /// Application rows and derived metrics.
    pub report: AppReport,
}

/// Result of the sweep.
#[derive(Debug)]
pub struct ProtocolsResult {
    /// All runs, grouped by schedule, then policy, sampler, and stack in
    /// [`Stack::ALL`] order.
    pub runs: Vec<ProtocolRun>,
}

impl Report for ProtocolsResult {
    /// One row per run, and the per-period series of every run —
    /// application rows alongside the overlay health they rode on.
    fn sections(&self) -> Vec<Section> {
        let mut table = Table::new(vec![
            "schedule",
            "engine",
            "policy",
            "sampler",
            "delivery",
            "rounds to 99%",
            "redundancy",
            "wasted",
            "blocked",
            "agg decay",
            "final live",
            "largest comp",
        ]);
        for r in &self.runs {
            let last = r.records.last();
            table.row(vec![
                r.schedule.clone(),
                r.stack.label().into(),
                r.policy.to_string(),
                r.sampler.label().into(),
                fmt_percent(r.report.delivery_ratio()),
                r.report
                    .rounds_to_99()
                    .map_or("-".into(), |p| p.to_string()),
                fmt_f64(r.report.redundancy(), 3),
                r.report.wasted().to_string(),
                r.report.blocked().to_string(),
                fmt_f64(r.report.decay_factor(), 3),
                last.map_or(0, |l| l.live).to_string(),
                fmt_percent(last.map_or(0.0, PeriodRecord::component_fraction)),
            ]);
        }
        let mut series = Table::new(vec![
            "schedule",
            "engine",
            "policy",
            "sampler",
            "period",
            "live",
            "informed",
            "delivered",
            "redundant",
            "wasted",
            "blocked",
            "variance",
            "largest comp",
        ]);
        for r in &self.runs {
            for (row, rec) in r.report.rows().iter().zip(r.records.iter()) {
                series.row(vec![
                    r.schedule.clone(),
                    r.stack.label().into(),
                    r.policy.to_string(),
                    r.sampler.label().into(),
                    row.period.to_string(),
                    row.live.to_string(),
                    row.informed.to_string(),
                    row.delivered.to_string(),
                    row.redundant.to_string(),
                    row.wasted.to_string(),
                    row.blocked.to_string(),
                    fmt_f64(row.variance, 2),
                    fmt_percent(rec.component_fraction()),
                ]);
            }
        }
        vec![Section::new("protocols", table, Some(series))]
    }

    /// Per run, keyed `{schedule} × {stack} × {policy} × {sampler}`: the
    /// end of the run is healthy ([`Health::healthy`]: `component`
    /// ≥ 0.95, `dead links` ≤ 0.10) and the rumor reached ≥ 90% of the
    /// surviving population (`delivery` ≥ 0.90).
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for r in &self.runs {
            let (stack, sampler) = (r.stack.label(), r.sampler.label());
            let key = format!("{} × {stack} × {} × {sampler}", r.schedule, r.policy);
            cells.extend(Health::worst(r.records.last()).healthy(&key));
            let (delivery, key) = (r.report.delivery_ratio(), format!("{key}: delivery"));
            cells.push(Cell::new(key, delivery, Cmp::AtLeast, 0.90));
        }
        cells
    }
}

/// Runs the sweep (broadcast fanout: [`AppConfig`]'s default, 2) over
/// the default rows, or `--schedule` alone from the tree bootstrap, on
/// every stack of `--shards` shards (default 2). `scale.cycles` is
/// ignored: each schedule fixes its own period count.
///
/// # Errors
///
/// Returns schedule-parse or configuration error text verbatim.
pub fn run(o: &Options) -> Result<ProtocolsResult, String> {
    match &o.schedule {
        Some(schedule) => sweep(o, &[("custom", Start::Tree, schedule)], &POLICIES),
        None => sweep(o, &SCHEDULES, &POLICIES),
    }
}

/// The sweep over `(label, start, schedule)` rows × `policies` × both
/// samplers.
pub(crate) fn sweep(
    o: &Options,
    schedules: &[(&str, Start, &str)],
    policies: &[PolicyTriple],
) -> Result<ProtocolsResult, String> {
    // Compile every schedule up front so a typo fails fast, not after
    // half the sweep has run.
    let mut compiled = Vec::with_capacity(schedules.len());
    for &(label, start, schedule) in schedules {
        let workload = Workload::parse(schedule, o.scale.seed)
            .map_err(|e| format!("schedule `{label}`: {e}"))?;
        compiled.push((label, start, workload.compile(o.scale.nodes)));
    }
    let shards = o.shards_or(2);
    let mut jobs = Vec::new();
    for (label, start, compiled) in &compiled {
        for &policy in policies {
            for sampler in [Sampler::Overlay, Sampler::Oracle] {
                jobs.push((*label, *start, compiled, policy, sampler));
            }
        }
    }

    // One (schedule, policy, sampler) cell per job, each on every stack.
    let (scale, c) = (o.scale, o.scale.view_size);
    let cells = parallel_map(jobs, |(label, start, compiled, policy, sampler)| {
        let protocol = ProtocolConfig::new(policy, c).map_err(|e| e.to_string())?;
        let app = AppConfig {
            sampler,
            seed: scale.seed ^ 0x0a99_5eed,
            ..AppConfig::default()
        };
        on_every_stack(
            HonestPolicy::Sampling(protocol),
            None,
            start,
            &scale,
            shards,
            o.workers,
            |stack, target| {
                let (records, report) = run_under_workload(target, compiled, c, &app);
                ProtocolRun {
                    schedule: label.to_owned(),
                    stack,
                    policy,
                    sampler,
                    records,
                    report,
                }
            },
        )
    });
    let cells: Vec<Vec<_>> = cells.into_iter().collect::<Result<_, _>>()?;
    Ok(ProtocolsResult {
        runs: cells.into_iter().flatten().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_gate_holds;
    use crate::stacks::{assert_same_membership, membership};
    use crate::Scale;

    #[test]
    fn tiny_sweep_covers_all_axes_and_is_healthy() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.view_size = 12;
        // One policy keeps the test at 6 cells (3 schedules × 2 samplers),
        // each run on every stack.
        let o = Options::at(scale);
        let result = sweep(&o, &SCHEDULES, &[PolicyTriple::newscast()]).expect("valid config");
        assert_eq!(result.runs.len(), 6 * Stack::ALL.len());
        for cell in result.runs.chunks(Stack::ALL.len()) {
            assert_same_membership(cell.iter().map(|r| {
                (
                    r.stack,
                    r.records.iter().map(membership).collect::<Vec<_>>(),
                )
            }));
        }
        let section = result.sections().remove(0);
        assert_gate_holds(&result);
        // The partition schedule must show blocked app traffic; the churn
        // schedule must show wasted deliveries on the overlay sampler.
        let blocked: u64 = result
            .runs
            .iter()
            .filter(|r| r.schedule == "partition")
            .map(|r| r.report.blocked())
            .sum();
        assert!(blocked > 0);
        let churn_overlay_wasted: u64 = result
            .runs
            .iter()
            .filter(|r| r.schedule == "churn" && r.sampler == Sampler::Overlay)
            .map(|r| r.report.wasted() + r.report.agg_wasted())
            .sum();
        assert!(churn_overlay_wasted > 0);
        // The oracle is never slower than the overlay on the same axis.
        for r in result.runs.iter().filter(|r| r.sampler == Sampler::Oracle) {
            let twin = result
                .runs
                .iter()
                .find(|t| {
                    t.sampler == Sampler::Overlay
                        && t.schedule == r.schedule
                        && t.stack == r.stack
                        && t.policy == r.policy
                })
                .expect("paired run");
            assert!(
                r.report.decay_factor() <= twin.report.decay_factor() + 0.05,
                "oracle decays slower than overlay on {}/{}",
                r.schedule,
                r.stack.label()
            );
        }
        assert!(!section.summary.is_empty());
        assert!(section.series.as_ref().is_some_and(|s| s.len() > 100));
    }

    /// The quiet row's overlay sampler against the oracle, on every
    /// stack. Passes at 16 of seeds 1..=16.
    #[test]
    fn gossip_samplers_approach_oracle_quality() {
        let scale = Scale {
            seed: 81,
            ..Scale::tiny()
        };
        let quiet = [SCHEDULES[2]];
        assert_eq!(quiet[0].0, "quiet");
        let newscast = [PolicyTriple::newscast()];
        let result = sweep(&Options::at(scale), &quiet, &newscast).expect("valid config");
        let (overlay, oracle) = result.runs.split_at(Stack::ALL.len());
        for (newscast, oracle) in overlay.iter().zip(oracle) {
            assert_eq!(oracle.sampler, Sampler::Oracle);
            let (newscast, oracle) = (&newscast.report, &oracle.report);
            assert!(oracle.delivery_ratio() > 0.999);
            let coverage = newscast.delivery_ratio();
            assert!(coverage > 0.95, "coverage {coverage}");
            // Both converge; the oracle is at least as fast.
            assert!(oracle.decay_factor() < 0.5);
            assert!(newscast.decay_factor() < 0.7);
            assert!(
                oracle.decay_factor() <= newscast.decay_factor() + 0.1,
                "oracle {} vs newscast {}",
                oracle.decay_factor(),
                newscast.decay_factor()
            );
        }
    }

    #[test]
    fn bad_schedule_fails_fast() {
        let o = Options {
            schedule: Some("bogus:1".into()),
            ..Options::at(Scale::tiny())
        };
        let err = run(&o).unwrap_err();
        assert!(err.contains("custom"), "{err}");
    }
}
