//! **Extension X8** — the telemetry registry, end to end.
//!
//! Every stack in this workspace records into the global
//! [`pss_telemetry`] registry: the sharded cycle engine and the sharded
//! event engine time their phases and shard imbalance, the workload
//! driver stamps per-period wall time, per-period measurement time and
//! membership ops, the network runtime histograms exchange RTTs,
//! timer-wheel lag, per-frame-kind decode latency (one frame in 64) and
//! frames drained per tick, the cluster harness times periods, and the
//! application layer times its rounds. This experiment exercises all of them in one deterministic
//! pass — a churned workload on both simulation engines, a
//! broadcast/aggregation run on top, and a tiny cluster of runtimes over
//! the in-memory mesh whose broadcast carries app frames — then reports
//! the registry: one row per metric series with count, p50/p99 and max
//! from the log2 histograms, plus the full Prometheus text exposition.
//!
//! The gate's cells check that every required metric family, and every
//! frame kind of the decode histogram, recorded; CI runs the command and
//! fails on its exit code. Telemetry never feeds back into protocol state: the pinned determinism digests are recorded with the
//! registry recording, as it always does.

use pss_net::cluster::{self, ClusterBroadcast};
use pss_telemetry::MetricRow;

use crate::report::{Cell, Cmp, Report, Section, Table};
use crate::stacks::Start;
use crate::{net, protocols, workload, Options};

/// Metric families the cross-stack run must populate. Scalar families
/// must be nonzero; histogram families must have observations.
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

    /// `{family}` ≥ 1 observation, summed over its series, for every
    /// family of [`REQUIRED_FAMILIES`]; `pss_net_decode_ns{kind=…}` ≥ 1
    /// for every frame kind (`request`, `reply`, `app`), not only the
    /// family; and `flight recorder events` ≥ 1.
    fn cells(&self) -> Vec<Cell> {
        let at_least_one = |key: String, n: u64| Cell::new(key, n as f64, Cmp::AtLeast, 1.0);
        let mut cells: Vec<Cell> = (REQUIRED_FAMILIES.iter())
            .map(|&family| {
                let rows = self.rows.iter().filter(|r| r.name == family);
                at_least_one(family.into(), rows.map(|r| r.value).sum())
            })
            .collect();
        let decode = self.rows.iter().filter(|r| r.name == "pss_net_decode_ns");
        cells.extend(decode.map(|r| at_least_one(format!("{}{{{}}}", r.name, r.labels), r.value)));
        let events = self.flight_recorded;
        cells.push(at_least_one("flight recorder events".into(), events));
        cells
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} series, flight recorder {}/{} events buffered",
            self.rows.len(),
            self.flight_len,
            self.flight_recorded,
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
    workload::run(&on_stacks(o.scale), "quiet:4,kill:0.3,churn:0.02x8")?;

    // The application layer on both engines: per-round timings.
    let mut app_scale = o.scale;
    app_scale.nodes = app_scale.nodes.min(200);
    let churn = [("churn", Start::Tree, "quiet:3,kill:0.3,churn:0.02x5")];
    let newscast = [pss_core::PolicyTriple::newscast()];
    protocols::sweep(&on_stacks(app_scale), &churn, &newscast)?;

    // A tiny cluster of runtimes carrying a broadcast over the in-memory
    // mesh, in virtual time: RTTs, per-kind decode latency (app frames
    // included) and period times, all a function of the seed alone.
    let mut net_scale = o.scale;
    net_scale.nodes = net_scale.nodes.min(48);
    net_scale.cycles = net_scale.cycles.min(10);
    let mut config = net::cluster_config(net_scale, 2, 40, 10, None)?;
    config.broadcast = Some(ClusterBroadcast {
        origin: pss_core::NodeId::new(0),
        fanout: 2,
        start_period: 2,
    });
    let latency = pss_sim::LatencyModel::Uniform { min: 1, max: 10 };
    let mesh = pss_net::MemNetwork::new(net_scale.seed, latency, 0.0);
    let mesh = mesh.map_err(|e| e.to_string())?;
    cluster::run_mem(&config, &mesh).map_err(|e| e.to_string())?;

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
    use crate::report::assert_gate_holds;
    use crate::Scale;

    #[test]
    fn tiny_exercise_populates_every_family() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        let result = run(&Options::at(scale)).expect("valid schedules");
        assert_gate_holds(&result);
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
