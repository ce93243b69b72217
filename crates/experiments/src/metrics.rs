//! **Extension X8** — the telemetry registry, end to end.
//!
//! Every stack in this workspace records into the global
//! [`pss_telemetry`] registry: the sharded cycle engine and the sharded
//! event engine time their phases and shard imbalance, the workload
//! driver stamps per-period wall time, per-period measurement time and
//! membership ops, the UDP runtime histograms exchange RTTs, timer-wheel
//! lag, per-frame-kind decode latency (one frame in 64) and frames
//! drained per tick, the
//! cluster harness times periods, and the application layer times its
//! rounds. This experiment exercises all of them in one deterministic
//! pass — a churned workload on both simulation engines, a
//! broadcast/aggregation run on top, and a tiny loopback UDP cluster —
//! then reports the registry: one row per metric series with count,
//! p50/p99 and max from the log2 histograms, plus the full Prometheus text
//! exposition.
//!
//! The health gate checks that every required metric family is present
//! and nonzero — CI's "Assert required metric families present and
//! nonzero" step scrapes exactly this. Telemetry never feeds back into
//! protocol state: the pinned determinism digests are recorded with the
//! registry recording, as it always does.

use pss_telemetry::MetricRow;

use crate::report::{Report, Section, Table};
use crate::{net, protocols, workload, Options};

/// Metric families the cross-stack run must populate (the list CI's
/// observability step asserts). Scalar families must be nonzero;
/// histogram families must have observations.
pub const REQUIRED_FAMILIES: &[&str] = &[
    "pss_phase_ns",
    "pss_cycles_total",
    "pss_shard_work_ns",
    "pss_workload_period_ns",
    "pss_workload_measure_ns",
    "pss_workload_ops_total",
    "pss_app_round_ns",
    "pss_net_rtt_ticks",
    "pss_net_decode_ns",
    "pss_net_tick_frames",
    "pss_cluster_period_ms",
];

/// Result of the telemetry exercise: the registry contents after the
/// cross-stack run.
#[derive(Debug)]
pub struct MetricsResult {
    /// One row per registered metric series.
    pub rows: Vec<MetricRow>,
    /// Prometheus text exposition of the whole registry.
    pub prometheus: String,
    /// JSON exposition of the whole registry.
    pub json: String,
    /// Events currently buffered in the flight recorder.
    pub flight_len: usize,
    /// Total events ever recorded by the flight recorder (≥ `flight_len`).
    pub flight_recorded: u64,
}

impl Report for MetricsResult {
    /// Registry summary: one row per series with log2-histogram quantiles,
    /// followed by the Prometheus exposition; `--out` also writes it and
    /// the JSON exposition as `metrics.prom` and `metrics.json`.
    fn sections(&self) -> Vec<Section> {
        let mut table = Table::new(vec![
            "metric", "labels", "kind", "count", "p50", "p99", "max",
        ]);
        for row in &self.rows {
            let (count, p50, p99, max) = match &row.histogram {
                Some(h) => (
                    h.total().to_string(),
                    h.p50().to_string(),
                    h.p99().to_string(),
                    h.max().to_string(),
                ),
                None => (row.value.to_string(), "-".into(), "-".into(), "-".into()),
            };
            table.row(vec![
                row.name.clone(),
                if row.labels.is_empty() {
                    "-".into()
                } else {
                    row.labels.clone()
                },
                row.kind.to_string(),
                count,
                p50,
                p99,
                max,
            ]);
        }
        let mut section = Section::new("metrics", table, None);
        section.text = Some(self.prometheus.clone());
        section.files = vec![
            ("prom", self.prometheus.clone()),
            ("json", self.json.clone()),
        ];
        vec![section]
    }

    /// Passes when every family of [`REQUIRED_FAMILIES`] recorded at least
    /// one nonzero observation and the flight recorder captured events.
    fn verdict(&self) -> Result<(), String> {
        let missing: Vec<&str> = REQUIRED_FAMILIES
            .iter()
            .filter(|family| !self.rows.iter().any(|r| r.name == **family && r.value > 0))
            .copied()
            .collect();
        if missing.is_empty() && self.flight_recorded > 0 {
            Ok(())
        } else {
            Err(format!(
                "telemetry exercise left metric families empty: {missing:?}"
            ))
        }
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} series, flight recorder {}/{} events buffered, healthy = {}",
            self.rows.len(),
            self.flight_len,
            self.flight_recorded,
            self.verdict().is_ok()
        ))
    }
}

/// Runs the cross-stack telemetry exercise: this run measures the
/// telemetry plumbing, not the protocol at scale, so the `metrics` command
/// caps the population at 600 nodes. Both simulation stacks run on
/// `--shards` shards (default 2).
///
/// Resets the global registry and flight recorder, then drives every
/// instrumented stack once.
///
/// # Errors
///
/// Propagates schedule-parse or engine-construction errors verbatim.
pub fn run(o: &Options) -> Result<MetricsResult, String> {
    pss_telemetry::global().reset();
    pss_telemetry::flight().clear();
    let on_stacks = |scale| Options {
        shards: Some(vec![o.shards_or(2)]),
        workers: o.workers,
        ..Options::at(scale)
    };

    // Both simulation engines under a churned schedule: phase timings,
    // shard imbalance, workload period rows and membership-op events.
    workload::run(&Options {
        schedule: Some("quiet:4,kill:0.3,churn:0.02x8".into()),
        ..on_stacks(o.scale)
    })?;

    // The application layer on both engines: per-round timings.
    let mut app_scale = o.scale;
    app_scale.nodes = app_scale.nodes.min(200);
    let churn = [("churn", "quiet:3,kill:0.3,churn:0.02x5")];
    let newscast = [pss_core::PolicyTriple::newscast()];
    protocols::sweep(&on_stacks(app_scale), &churn, &newscast)?;

    // A tiny loopback UDP cluster: RTTs, decode latency, period wall time.
    let mut net_scale = o.scale;
    net_scale.nodes = net_scale.nodes.min(48);
    net_scale.cycles = net_scale.cycles.min(10);
    net::loopback(net_scale, 2, 40, 10, None)?;

    let registry = pss_telemetry::global();
    Ok(MetricsResult {
        rows: registry.rows(),
        prometheus: registry.render_prometheus(),
        json: registry.render_json(),
        flight_len: pss_telemetry::flight().len(),
        flight_recorded: pss_telemetry::flight().recorded(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn tiny_exercise_populates_every_family() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        let result = run(&Options::at(scale)).expect("valid schedules");
        result.verdict().expect("every family populated");
        assert!(!result.sections()[0].summary.is_empty());
        for family in REQUIRED_FAMILIES {
            assert!(
                result.prometheus.contains(family),
                "{family} absent from Prometheus exposition"
            );
            assert!(
                result.json.contains(family),
                "{family} absent from JSON exposition"
            );
        }
        assert!(result.flight_recorded > 0);
    }
}
