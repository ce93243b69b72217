//! **Extension X5** — the protocol on a *real* network: a live loopback
//! UDP cluster.
//!
//! Every other experiment drives the protocol in-process. This one runs it
//! end to end through the deployment stack: `pss-net`'s wire codec, UDP
//! sockets on `127.0.0.1`, and multi-node runtimes stepped from one thread
//! against the wall clock ([`pss_net::cluster::run`]). It reports the
//! convergence trajectory (full-view fraction and in-degree statistics per
//! gossip period, from the same streamed
//! [`measure_rows`](pss_sim::workload::measure_rows) pass the simulators'
//! workload runs use; no CSR is built) plus live throughput — and the codec error
//! count, which must be zero. With a schedule (`--schedule`, the
//! [`pss_sim::workload`] grammar) the cluster runs it through the same
//! workload driver as the simulators, and the gate becomes a recovery gate.
//!
//! Unlike the simulators this measures wall-clock behavior: results vary
//! with machine load, and only the overlay statistics (not exact frame
//! counts) are comparable across runs.

use pss_core::{PolicyTriple, ProtocolConfig};
use pss_net::cluster::{self, ClusterConfig, ClusterReport};
use pss_sim::Workload;

use crate::report::{fmt_f64, fmt_percent, Report, Section, Table};
use crate::Scale;

/// Configuration for the loopback-cluster experiment (each joiner knows
/// [`ClusterConfig::small`]'s 3 introducers).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Population size, view size and period budget (`cycles` = periods).
    pub scale: Scale,
    /// Runtimes (one UDP socket each), all stepped from one thread.
    pub runtimes: usize,
    /// Gossip period in milliseconds — also the wall-clock cost per period.
    pub period_ms: u64,
    /// Timer jitter in milliseconds.
    pub jitter_ms: u64,
    /// Optional membership schedule, compiled against `scale.nodes` with
    /// `scale.seed`; its period count overrides `scale.cycles`.
    pub schedule: Option<String>,
}

impl NetConfig {
    /// Default configuration at the given scale: nodes capped at 2000 (the
    /// loopback run is wall-clock bound), 100 ms periods, at most 30
    /// periods, 4 runtimes.
    pub fn at_scale(scale: Scale) -> Self {
        let mut scale = scale;
        scale.nodes = scale.nodes.min(2000);
        scale.cycles = scale.cycles.min(30);
        NetConfig {
            scale,
            runtimes: 4,
            period_ms: 100,
            jitter_ms: 20,
            schedule: None,
        }
    }
}

/// Result of the loopback-cluster experiment.
#[derive(Debug)]
pub struct NetResult {
    /// The cluster report (per-period stats, counters, throughput).
    pub report: ClusterReport,
    /// Nodes in the run.
    pub nodes: usize,
    /// Runtimes used.
    pub runtimes: usize,
    /// The view size (for the in-degree ≈ c check).
    pub view_size: usize,
    /// Whether a schedule drove the run (selects the recovery gate).
    scheduled: bool,
}

impl Report for NetResult {
    /// Per-period convergence table.
    fn sections(&self) -> Vec<Section> {
        let mut table = Table::new(vec![
            "period",
            "full views",
            "in-degree mean",
            "in-degree sd",
            "live",
            "dead links",
            "largest component",
        ]);
        for r in &self.report.records {
            table.row(vec![
                r.period.to_string(),
                fmt_percent(r.full_fraction()),
                fmt_f64(r.in_degree_mean, 2),
                fmt_f64(r.in_degree_sd, 2),
                r.live.to_string(),
                fmt_percent(r.dead_link_fraction()),
                fmt_percent(r.component_fraction()),
            ]);
        }
        let stats = &self.report.stats;
        table.row(vec![
            "≥99% full at".into(),
            self.report
                .converged_at
                .map_or("never".into(), |p| format!("period {p}")),
            format!("{} frames", stats.frames_in + stats.frames_out),
            format!(
                "{} kfps / {} kxps",
                fmt_f64(self.report.frames_per_sec() / 1000.0, 1),
                fmt_f64(self.report.exchanges_per_sec() / 1000.0, 1)
            ),
        ]);
        table.row(vec![
            "codec errors".into(),
            stats.decode_failures().to_string(),
            format!("{} timeouts", stats.timeouts),
            format!("{} send failures", stats.send_failures),
        ]);
        vec![Section::new("net", table, None)]
    }

    /// The acceptance gate the CI smokes check: no codec error, and in the
    /// final period either ≥ 99% full views with the in-degree mean within
    /// half a link of `c`, or — after a schedule, whose damage must have
    /// healed — ≥ 95% full views, ≥ 95% of live nodes in the largest
    /// component and ≤ 10% dead links.
    fn verdict(&self) -> Result<(), String> {
        let overlay = self.report.records.last().is_some_and(|last| {
            if self.scheduled {
                last.full_fraction() >= 0.95
                    && last.component_fraction() >= 0.95
                    && last.dead_link_fraction() <= 0.10
            } else {
                last.full_fraction() >= 0.99
                    && (last.in_degree_mean - self.view_size as f64).abs() <= 0.5
            }
        });
        if overlay && self.report.stats.decode_failures() == 0 {
            Ok(())
        } else {
            Err("loopback cluster failed to converge or recover cleanly".into())
        }
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} nodes on {} runtimes: {} frames/s, {} exchanges/s, healthy = {}",
            self.nodes,
            self.runtimes,
            fmt_rate(self.report.frames_per_sec()),
            fmt_rate(self.report.exchanges_per_sec()),
            self.verdict().is_ok()
        ))
    }
}

/// Human throughput formatting for the summary line.
fn fmt_rate(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.1}k", x / 1000.0)
    } else {
        format!("{x:.0}")
    }
}

/// Runs the loopback cluster experiment.
///
/// # Errors
///
/// A malformed schedule string.
///
/// # Panics
///
/// Panics if the loopback sockets cannot be bound (no loopback interface —
/// not a scenario the experiment supports degrading through).
pub fn run(config: &NetConfig) -> Result<NetResult, String> {
    let workload = config
        .schedule
        .as_deref()
        .map(|s| Workload::parse(s, config.scale.seed))
        .transpose()
        .map_err(|e| e.to_string())?;
    let protocol =
        ProtocolConfig::new(PolicyTriple::newscast(), config.scale.view_size).expect("valid scale");
    let cluster_config = ClusterConfig {
        nodes: config.scale.nodes,
        runtimes: config.runtimes.min(config.scale.nodes),
        period_ms: config.period_ms,
        jitter_ms: config.jitter_ms,
        periods: config.scale.cycles,
        seed: config.scale.seed,
        workload,
        ..ClusterConfig::small(protocol)
    };
    let report = cluster::run(&cluster_config).expect("loopback sockets available");
    Ok(NetResult {
        report,
        nodes: config.scale.nodes,
        runtimes: cluster_config.runtimes,
        view_size: config.scale.view_size,
        scheduled: config.schedule.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cluster_runs_and_reports() {
        let mut scale = Scale::tiny();
        scale.nodes = 48;
        scale.cycles = 12;
        let mut config = NetConfig::at_scale(scale);
        config.runtimes = 2;
        let result = run(&config).unwrap();
        assert_eq!(result.report.periods.len(), 12);
        assert!(result.verdict().is_ok(), "{:?}", result.report);
        // Table has one row per period plus two summary rows.
        assert_eq!(result.sections()[0].summary.len(), 14);
    }

    #[test]
    fn malformed_schedule_is_an_error() {
        let mut config = NetConfig::at_scale(Scale::tiny());
        config.schedule = Some("quiet:0".into());
        assert!(run(&config).is_err());
    }
}
