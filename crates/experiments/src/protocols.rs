//! **Extension X7** — applications under membership schedules, cross-engine.
//!
//! The `apps` experiment measures sampling quality on a *static* overlay;
//! this one puts the same two consumers — epidemic broadcast and push-pull
//! averaging — under full membership dynamics. One compiled workload
//! schedule drives the sharded cycle engine and the sharded event engine,
//! and on each the application layer runs with both peer supplies: the
//! node's own overlay view (dead links and all) and the uniform live
//! oracle. The sweep crosses policy × sampler × engine per schedule, so
//! every delivery/decay number is attributable to exactly one of those
//! axes under an identical membership trajectory.
//!
//! The default schedule list pairs the conformance churn schedule with a
//! Table-1-style partition schedule: the overlay splits in two, and the
//! application rows show coverage stalling at the cut (blocked messages
//! counted) and re-flooding after the heal.

use pss_core::{PolicyTriple, ProtocolConfig};
use pss_protocols::{run_under_workload, AppConfig, AppReport, Sampler};
use pss_sim::workload::{CompiledWorkload, PeriodRecord, Workload};

use crate::engines::{on_both_engines, sampling_nodes};
use crate::parallel::parallel_map;
use crate::report::{fmt_f64, fmt_percent, Report, Section, Table};
use crate::Scale;

/// Configuration of the application-protocols sweep (broadcast fanout:
/// [`AppConfig`]'s default, 2).
#[derive(Debug, Clone)]
pub struct ProtocolsConfig {
    /// Population, view size and seed (`cycles` is ignored — each schedule
    /// fixes its own period count).
    pub scale: Scale,
    /// `(label, schedule)` pairs ([`pss_sim::workload`] grammar).
    pub schedules: Vec<(String, String)>,
    /// Overlay policies to host the applications on.
    pub policies: Vec<PolicyTriple>,
    /// Shard count for both engines.
    pub shards: usize,
    /// Worker-thread override (results are worker-invariant).
    pub workers: Option<usize>,
}

impl ProtocolsConfig {
    /// Defaults at the given scale: the conformance churn schedule plus a
    /// two-group partition schedule, newscast and `(rand,rand,pushpull)`.
    pub fn at_scale(scale: Scale) -> Self {
        ProtocolsConfig {
            scale,
            schedules: vec![
                ("churn".into(), "quiet:5,kill:0.3,churn:0.01x15".into()),
                ("partition".into(), "part:2x6,quiet:14".into()),
            ],
            // Both heal dead links through head view selection (keep the
            // freshest); rand view selection holds stale entries past the
            // 10% dead-link health gate under sustained churn.
            policies: vec![
                PolicyTriple::newscast(),
                "(tail,head,pushpull)".parse().expect("valid"),
            ],
            shards: 2,
            workers: None,
        }
    }
}

/// One cell of the sweep: a (schedule, engine, policy, sampler) run.
#[derive(Debug)]
pub struct ProtocolRun {
    /// Schedule label from the config.
    pub schedule: String,
    /// `cycle` or `event`.
    pub engine: &'static str,
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
    /// All runs, grouped by schedule, then engine, policy, sampler.
    pub runs: Vec<ProtocolRun>,
    /// Population every schedule was compiled for.
    pub nodes: usize,
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
                r.engine.into(),
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
                    r.engine.into(),
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

    /// Passes when every run ends on a healthy overlay (largest component
    /// ≥ 95% of live, dead links ≤ 10%) with the rumor delivered to
    /// ≥ 90% of the surviving population.
    fn verdict(&self) -> Result<(), String> {
        let healthy = self.runs.iter().all(|r| {
            let overlay_ok = r.records.last().is_some_and(|rec| {
                rec.component_fraction() >= 0.95 && rec.dead_link_fraction() <= 0.10
            });
            overlay_ok && r.report.delivery_ratio() >= 0.90
        });
        if healthy {
            Ok(())
        } else {
            Err("an application run missed delivery or left an unhealthy overlay".into())
        }
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} nodes, {} runs: healthy = {}",
            self.nodes,
            self.runs.len(),
            self.verdict().is_ok()
        ))
    }
}

/// Runs the sweep.
///
/// # Errors
///
/// Returns schedule-parse or configuration error text verbatim.
pub fn run(config: &ProtocolsConfig) -> Result<ProtocolsResult, String> {
    // Compile every schedule up front so a typo fails fast, not after
    // half the sweep has run.
    let mut compiled = Vec::with_capacity(config.schedules.len());
    for (label, schedule) in &config.schedules {
        let workload = Workload::parse(schedule, config.scale.seed)
            .map_err(|e| format!("schedule `{label}`: {e}"))?;
        compiled.push((label.as_str(), workload.compile(config.scale.nodes)));
    }
    let mut jobs = Vec::new();
    for (label, compiled) in &compiled {
        for &policy in &config.policies {
            for sampler in [Sampler::Overlay, Sampler::Oracle] {
                jobs.push((*label, compiled, policy, sampler));
            }
        }
    }

    let pairs = parallel_map(jobs, |(label, compiled, policy, sampler)| {
        run_pair(config, label, compiled, policy, sampler)
    });
    let mut runs = Vec::with_capacity(2 * pairs.len());
    for pair in pairs {
        runs.extend(pair?);
    }
    Ok(ProtocolsResult {
        runs,
        nodes: config.scale.nodes,
    })
}

/// One (schedule, policy, sampler) cell on both engines, cycle first.
fn run_pair(
    config: &ProtocolsConfig,
    label: &str,
    compiled: &CompiledWorkload,
    policy: PolicyTriple,
    sampler: Sampler,
) -> Result<[ProtocolRun; 2], String> {
    let scale = config.scale;
    let c = scale.view_size;
    let protocol = ProtocolConfig::new(policy, c).map_err(|e| e.to_string())?;
    let app = AppConfig {
        sampler,
        seed: scale.seed ^ 0x0a99_5eed,
        ..AppConfig::default()
    };
    on_both_engines(
        sampling_nodes(protocol),
        scale.nodes,
        scale.seed,
        config.shards,
        config.workers,
        |engine, target| {
            let (records, report) = run_under_workload(target, compiled, c, &app);
            ProtocolRun {
                schedule: label.to_owned(),
                engine,
                policy,
                sampler,
                records,
                report,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_covers_all_axes_and_is_healthy() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.view_size = 12;
        let mut config = ProtocolsConfig::at_scale(scale);
        // One policy keeps the test at 8 runs (2 schedules × 2 samplers ×
        // 2 engines).
        config.policies = vec![PolicyTriple::newscast()];
        let result = run(&config).expect("valid config");
        assert_eq!(result.runs.len(), 8);
        let section = result.sections().remove(0);
        assert!(result.verdict().is_ok(), "{}", section.summary);
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
                        && t.engine == r.engine
                        && t.policy == r.policy
                })
                .expect("paired run");
            assert!(
                r.report.decay_factor() <= twin.report.decay_factor() + 0.05,
                "oracle decays slower than overlay on {}/{}",
                r.schedule,
                r.engine
            );
        }
        assert!(!section.summary.is_empty());
        assert!(section.series.as_ref().is_some_and(|s| s.len() > 100));
    }

    #[test]
    fn bad_schedule_fails_fast() {
        let mut config = ProtocolsConfig::at_scale(Scale::tiny());
        config.schedules = vec![("bad".into(), "bogus:1".into())];
        let err = run(&config).unwrap_err();
        assert!(err.contains("bad"));
    }
}
