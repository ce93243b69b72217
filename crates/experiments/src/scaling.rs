//! **Scaling extension** — throughput and overlay quality vs shard count.
//!
//! The paper's experiments stop at N = 10⁴; this experiment drives the
//! sharded engine ([`pss_sim::ShardedSimulation`]) through the same
//! newscast workload at arbitrary N (the [`Scale::million`] preset is the
//! headline configuration) across a sweep of shard counts, reporting:
//!
//! * **node-cycles per second** as a function of parallelism (the perf
//!   ledger's `cycle_steady` workload times the same engine at one fixed
//!   N), and
//! * the **converged in-degree distribution** (mean/σ/min/max) plus sampled
//!   path-length and clustering estimates from the CSR snapshot — evidence
//!   the parallel runs still produce the paper's overlay, not just a fast
//!   one.
//!
//! Shard count legitimately changes the trajectory (cross-shard exchanges
//! resolve in mailbox order), so per-shard-count results differ in the
//! decimals exactly like reseeded runs; the invariant worth watching is
//! that the *distribution statistics* agree across the sweep.

use std::time::Instant;

use pss_core::PolicyTriple;
use pss_graph::{clustering, paths};
use pss_sim::scenario;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// BFS sources for the sampled path length; the clustering estimate
/// samples eight times as many nodes.
const METRIC_SAMPLES: usize = 16;

/// The default sweep at `scale`: shard counts {1, 2, 4} plus the
/// available core count when it exceeds 4, none above the population.
fn default_shard_counts(scale: Scale) -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut shard_counts = vec![1, 2, 4];
    if cores > 4 {
        shard_counts.push(cores);
    }
    shard_counts.retain(|&s| s <= scale.nodes.max(1));
    shard_counts
}

/// One row of the sweep: a complete run at one shard count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Shard count of this run.
    pub shards: usize,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock seconds for the cycle loop.
    pub seconds: f64,
    /// N × cycles / seconds.
    pub node_cycles_per_sec: f64,
    /// Mean in-degree of the converged overlay (= c when views are full).
    pub in_degree_mean: f64,
    /// In-degree standard deviation (population).
    pub in_degree_std: f64,
    /// Smallest in-degree.
    pub in_degree_min: f64,
    /// Largest in-degree.
    pub in_degree_max: f64,
    /// Sampled average path length.
    pub path_length: f64,
    /// Sampled clustering coefficient.
    pub clustering: f64,
}

/// Result of the sweep.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// One row per shard count, in sweep order.
    pub rows: Vec<ScalingRow>,
    /// Population of every run.
    pub nodes: usize,
    /// Cycles each run executed.
    pub cycles: u64,
}

impl ScalingResult {
    /// Throughput speedup of the best row over the 1-shard row (NaN if the
    /// sweep had no 1-shard baseline).
    pub fn best_speedup(&self) -> f64 {
        let base = self
            .rows
            .iter()
            .find(|r| r.shards == 1)
            .map(|r| r.node_cycles_per_sec);
        match base {
            Some(base) if base > 0.0 => self
                .rows
                .iter()
                .map(|r| r.node_cycles_per_sec / base)
                .fold(f64::NAN, f64::max),
            _ => f64::NAN,
        }
    }
}

impl Report for ScalingResult {
    /// The sweep, one row per shard count.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "shards",
            "workers",
            "seconds",
            "node-cycles/s",
            "in-deg mean",
            "in-deg std",
            "in-deg min",
            "in-deg max",
            "~path len",
            "~clustering",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.shards.to_string(),
                r.workers.to_string(),
                fmt_f64(r.seconds, 2),
                format!("{:.0}", r.node_cycles_per_sec),
                fmt_f64(r.in_degree_mean, 2),
                fmt_f64(r.in_degree_std, 2),
                fmt_f64(r.in_degree_min, 0),
                fmt_f64(r.in_degree_max, 0),
                fmt_f64(r.path_length, 3),
                fmt_f64(r.clustering, 4),
            ]);
        }
        vec![Section::new("scaling", t, None)]
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "best speedup over 1 shard: {:.2}x (N = {}, {} cycles)",
            self.best_speedup(),
            self.nodes,
            self.cycles
        ))
    }
}

/// Runs the sweep over `--shards` (default: {1, 2, 4} plus the available
/// core count when it exceeds 4, none above the population). Each shard
/// count gets a fresh overlay from the same `(seed, N)` (identical
/// initial topology), runs `scale.cycles` cycles, and is measured through
/// the CSR snapshot. `--workers` overrides the worker threads (default:
/// available parallelism, capped at the shard count); results are
/// identical for any value.
pub fn run(o: &Options) -> ScalingResult {
    let scale = o.scale;
    let shard_counts = o
        .shards
        .clone()
        .unwrap_or_else(|| default_shard_counts(scale));
    // Newscast, as in the perf ledger's `cycle_steady`.
    let protocol = scale.protocol(PolicyTriple::newscast());
    let mut rows = Vec::with_capacity(shard_counts.len());
    for shards in shard_counts {
        let mut sim = scenario::random_overlay_sharded(&protocol, scale.nodes, scale.seed, shards);
        if let Some(workers) = o.workers {
            sim.set_workers(workers);
        }
        let workers = sim.workers();
        let started = Instant::now();
        sim.run_cycles(scale.cycles);
        let seconds = started.elapsed().as_secs_f64();
        let node_cycles = scale.nodes as f64 * scale.cycles as f64;

        let snapshot = sim.csr_snapshot();
        let csr = snapshot.graph();
        let mut in_deg = pss_stats::Summary::new();
        for d in csr.in_degrees() {
            in_deg.push(d as f64);
        }
        let graph = csr.undirected();
        let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0x5ca1_ab1e);
        let path_length =
            paths::estimate_average_path_length(&graph, METRIC_SAMPLES, &mut rng).average;
        let clustering = clustering::estimate_clustering(&graph, METRIC_SAMPLES * 8, &mut rng);

        rows.push(ScalingRow {
            shards,
            workers,
            seconds,
            node_cycles_per_sec: if seconds > 0.0 {
                node_cycles / seconds
            } else {
                f64::INFINITY
            },
            in_degree_mean: in_deg.mean(),
            in_degree_std: in_deg.population_std_dev(),
            in_degree_min: in_deg.min().unwrap_or(f64::NAN),
            in_degree_max: in_deg.max().unwrap_or(f64::NAN),
            path_length,
            clustering,
        });
    }
    ScalingResult {
        rows,
        nodes: scale.nodes,
        cycles: scale.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_reports_converged_overlay() {
        let mut scale = Scale::tiny();
        scale.nodes = 250;
        scale.cycles = 25;
        let result = run(&Options {
            shards: Some(vec![1, 2]),
            workers: Some(2),
            ..Options::at(scale)
        });
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].workers, 1); // clamped to the shard count
        assert_eq!(result.rows[1].workers, 2);
        assert_eq!(result.nodes, 250);
        for row in &result.rows {
            assert!(row.node_cycles_per_sec > 0.0);
            // Every view holds c = 15 live entries, so the mean in-degree
            // must be exactly c.
            assert!(
                (row.in_degree_mean - 15.0).abs() < 1e-9,
                "mean in-degree {}",
                row.in_degree_mean
            );
            assert!(row.in_degree_std > 0.0);
            assert!(row.in_degree_max >= row.in_degree_mean);
            assert!(row.path_length > 1.0 && row.path_length < 4.0);
            assert!(row.clustering.is_finite());
        }
        assert_eq!(result.sections()[0].summary.len(), 2);
        assert!(result.best_speedup().is_finite());
    }

    #[test]
    fn default_sweep_includes_required_shard_counts() {
        assert!(default_shard_counts(Scale::tiny()).starts_with(&[1, 2, 4]));
    }

    #[test]
    fn best_speedup_is_nan_without_a_one_shard_row() {
        let mut scale = Scale::tiny();
        scale.nodes = 60;
        scale.cycles = 3;
        let o = Options {
            shards: Some(vec![2]),
            ..Options::at(scale)
        };
        assert!(run(&o).best_speedup().is_nan());
    }
}
