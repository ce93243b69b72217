//! **Extension X2** — do the cycle-model conclusions survive asynchrony?
//!
//! The paper simulates an idealized synchronous cycle model. This
//! experiment reruns representative protocols on the event-driven engine —
//! timer jitter, message latency, message loss — and compares the converged
//! overlay properties against the cycle-driven run at the same scale.
//!
//! The event rows run on [`pss_sim::ShardedEventSimulation`] (conservative
//! lookahead = minimum latency) once per entry of the CLI's `--shards`
//! (default one shard), reporting node-cycles/s per row — which
//! opens the asynchrony comparison at `Scale::million()`: beyond ~10⁵ nodes
//! the overlay metrics switch to the sampled CSR estimators (exact
//! connectivity is skipped), the same large-N path the `scaling` experiment
//! uses. `--scale million` took ≈ 30 min and 8.3 GB peak RSS on 2 vCPUs; on
//! a shared host add `--nodes 200000`.

use std::time::Instant;

use pss_core::{
    GossipNode, PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs,
};
use pss_graph::csr::Csr;
use pss_graph::{clustering, paths, GraphMetrics, MetricsConfig};
use pss_sim::{scenario, EventConfig, LatencyModel, Mode, Sharded};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{fmt_f64, Report, Section, Table};
use crate::Options;

/// Above this population the overlay metrics come from the sampled CSR
/// estimators instead of the full undirected graph.
const SAMPLED_METRICS_THRESHOLD: usize = 100_000;

/// Message loss probabilities of the event rows.
const LOSS_LEVELS: [f64; 2] = [0.0, 0.05];

/// The protocols compared: one per view-selection × propagation corner.
const PROTOCOLS: [PolicyTriple; 3] = [
    PolicyTriple::newscast(),
    PolicyTriple::new(Ps::Rand, Vs::Rand, Vp::PushPull),
    PolicyTriple::lpbcast(),
];

/// The event engine's timing: 20 % timer jitter and message latency
/// uniform in 1–10 % of the period. The latency floor is the sharded
/// engine's lookahead window; a 1-tick floor would force a bucket exchange
/// every tick, all overhead at small N.
fn event_config(loss: f64) -> EventConfig {
    let period = 1000;
    EventConfig {
        period,
        jitter: period / 5,
        latency: LatencyModel::Uniform {
            min: period / 100,
            max: period / 10,
        },
        loss_probability: loss,
    }
}

/// Converged overlay statistics of one run. Exact or sampled depending on
/// scale; `connected` is `None` when the exact check was skipped (CSR
/// sampled path at large N).
#[derive(Debug, Clone, Copy)]
pub struct OverlayStats {
    /// Mean degree of the communication graph (in-degree mean on the CSR
    /// path — identical in expectation, since out-degrees are `c`).
    pub average_degree: f64,
    /// (Sampled) clustering coefficient.
    pub clustering: f64,
    /// (Sampled) average shortest-path length.
    pub path_length: f64,
    /// Exact connectivity, when measured.
    pub connected: Option<bool>,
}

impl From<GraphMetrics> for OverlayStats {
    fn from(m: GraphMetrics) -> Self {
        OverlayStats {
            average_degree: m.average_degree,
            clustering: m.clustering_coefficient,
            path_length: m.path_lengths.average,
            connected: Some(m.is_connected()),
        }
    }
}

/// One comparison row: a protocol under one engine/loss/sharding setting.
#[derive(Debug, Clone)]
pub struct EngineComparison {
    /// The protocol.
    pub policy: PolicyTriple,
    /// Engine label (`cycle` or `event`).
    pub engine: &'static str,
    /// Shard count the row ran on (1 = sequential).
    pub shards: usize,
    /// Loss probability used (0 for the cycle engine).
    pub loss: f64,
    /// Simulation throughput of the run, N × cycles / seconds.
    pub node_cycles_per_sec: f64,
    /// Converged overlay statistics.
    pub stats: OverlayStats,
}

/// Result of the asynchrony experiment.
#[derive(Debug, Clone)]
pub struct AsyncResult {
    /// All comparison rows.
    pub rows: Vec<EngineComparison>,
}

impl Report for AsyncResult {
    /// The comparison table.
    fn sections(&self) -> Vec<Section> {
        let mut t = Table::new(vec![
            "protocol",
            "engine",
            "shards",
            "loss",
            "node-cycles/s",
            "avg degree",
            "clustering",
            "path length",
            "connected",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.policy.to_string(),
                r.engine.into(),
                r.shards.to_string(),
                fmt_f64(r.loss, 2),
                format!("{:.0}", r.node_cycles_per_sec),
                fmt_f64(r.stats.average_degree, 2),
                fmt_f64(r.stats.clustering, 4),
                fmt_f64(r.stats.path_length, 3),
                match r.stats.connected {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "-",
                }
                .into(),
            ]);
        }
        vec![Section::new("async", t, None)]
    }
}

/// Exact(ish) metrics on the full undirected graph: the small-N path.
fn measure_graph(graph: &Csr, seed: u64) -> OverlayStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    GraphMetrics::measure(
        graph,
        &MetricsConfig {
            clustering_samples: Some(1000.min(graph.node_count())),
            path_sources: Some(50.min(graph.node_count())),
        },
        &mut rng,
    )
    .into()
}

/// Sampled metrics from a CSR snapshot: the large-N path (16 BFS sources,
/// 256 clustering samples, no exact connectivity sweep).
fn measure_csr(snapshot: &pss_sim::CsrSnapshot, seed: u64) -> OverlayStats {
    let csr = snapshot.graph();
    let mut in_deg = pss_stats::Summary::new();
    for d in csr.in_degrees() {
        in_deg.push(d as f64);
    }
    let graph = csr.undirected();
    let mut rng = SmallRng::seed_from_u64(seed);
    OverlayStats {
        average_degree: in_deg.mean(),
        clustering: clustering::estimate_clustering(&graph, 256, &mut rng),
        path_length: paths::estimate_average_path_length(&graph, 16, &mut rng).average,
        connected: None,
    }
}

/// Runs the asynchrony experiment (`scale.cycles` ≈ gossip periods for
/// the event engine): per protocol, the cycle baseline on the sharded
/// cycle engine at the largest shard count, then the event rows on
/// [`pss_sim::ShardedEventSimulation`] per loss level and shard count.
/// Rows run one after another — each run parallelizes internally across
/// its worker threads (`--workers`, default: available parallelism).
pub fn run(o: &Options) -> AsyncResult {
    let shard_counts = o.shards.clone().unwrap_or_else(|| vec![1]);
    let cycle_shards = shard_counts.iter().copied().max().unwrap_or(1);
    let mut rows = Vec::new();
    for policy in PROTOCOLS {
        rows.push(cycle_row(o, policy, cycle_shards));
        // Event rows: loss sweep × shard counts, identical initial overlay
        // per (seed, N, c) across all of them.
        for loss in LOSS_LEVELS {
            for &shards in &shard_counts {
                rows.push(event_row(o, policy, loss, shards));
            }
        }
    }
    AsyncResult { rows }
}

/// The cycle-engine baseline of `policy` on `shards` shards.
fn cycle_row(o: &Options, policy: PolicyTriple, shards: usize) -> EngineComparison {
    let scale = o.scale;
    let protocol = scale.protocol(policy);
    let sim = scenario::random_overlay_sharded(&protocol, scale.nodes, scale.seed, shards);
    let (node_cycles_per_sec, stats) =
        timed(o, sim, scale.seed, |sim| sim.run_cycles(scale.cycles));
    EngineComparison {
        policy,
        engine: "cycle",
        shards,
        loss: 0.0,
        node_cycles_per_sec,
        stats,
    }
}

/// One event-engine row of `policy` at message `loss` on `shards` shards.
fn event_row(o: &Options, policy: PolicyTriple, loss: f64, shards: usize) -> EngineComparison {
    let scale = o.scale;
    let event = event_config(loss);
    let sim = scenario::event_random_overlay_sharded(
        &scale.protocol(policy),
        event,
        scale.nodes,
        scale.seed,
        shards,
    )
    .expect("asynchrony sweep uses a validated event config");
    let (node_cycles_per_sec, stats) = timed(o, sim, scale.seed ^ 1, |sim| {
        sim.run_for(scale.cycles * event.period);
    });
    EngineComparison {
        policy,
        engine: "event",
        shards,
        loss,
        node_cycles_per_sec,
        stats,
    }
}

/// What a row of either engine shares: times `advance` on `sim` at the
/// configured worker count and measures the overlay it leaves. Returns
/// node-cycles/s and the overlay statistics.
fn timed<N: GossipNode + Send, M: Mode>(
    o: &Options,
    mut sim: Sharded<N, M>,
    metrics_seed: u64,
    advance: impl FnOnce(&mut Sharded<N, M>),
) -> (f64, OverlayStats) {
    if let Some(w) = o.workers {
        sim.set_workers(w);
    }
    let started = Instant::now();
    advance(&mut sim);
    let seconds = started.elapsed().as_secs_f64();
    let stats = if o.scale.nodes >= SAMPLED_METRICS_THRESHOLD {
        measure_csr(&sim.csr_snapshot(), metrics_seed)
    } else {
        measure_graph(&sim.csr_snapshot().graph().undirected(), metrics_seed)
    };
    let node_cycles = o.scale.nodes as f64 * o.scale.cycles as f64;
    let throughput = if seconds > 0.0 {
        node_cycles / seconds
    } else {
        f64::INFINITY
    };
    (throughput, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn event_engine_matches_cycle_engine_shape() {
        let scale = Scale {
            nodes: 250,
            cycles: 40,
            view_size: 12,
            seed: 71,
        };
        let o = Options::at(scale);
        let newscast = PolicyTriple::newscast();
        let result = AsyncResult {
            rows: vec![cycle_row(&o, newscast, 1), event_row(&o, newscast, 0.0, 1)],
        };
        let (cycle, event) = (&result.rows[0], &result.rows[1]);
        assert_eq!(cycle.stats.connected, Some(true));
        assert_eq!(event.stats.connected, Some(true));
        // Converged degree within 25% between engines.
        let rel = (cycle.stats.average_degree - event.stats.average_degree).abs()
            / cycle.stats.average_degree;
        assert!(rel < 0.25, "engines disagree on degree: {rel}");
        assert!(cycle.node_cycles_per_sec > 0.0);
        assert!(!result.sections()[0].summary.is_empty());
    }

    #[test]
    fn sharded_path_sweeps_shard_counts() {
        let scale = Scale {
            nodes: 200,
            cycles: 25,
            view_size: 12,
            seed: 71,
        };
        let result = run(&Options {
            shards: Some(vec![1, 2]),
            workers: Some(2),
            ..Options::at(scale)
        });
        // Per protocol: the cycle baseline at the largest shard count, then
        // one event row per loss level and shard count.
        let layout: Vec<(&str, usize, f64)> = (result.rows.iter())
            .map(|r| (r.engine, r.shards, r.loss))
            .collect();
        let per_protocol = [
            ("cycle", 2, 0.0),
            ("event", 1, 0.0),
            ("event", 2, 0.0),
            ("event", 1, 0.05),
            ("event", 2, 0.05),
        ];
        assert_eq!(layout, per_protocol.repeat(3));
        for row in &result.rows {
            assert!(row.node_cycles_per_sec > 0.0);
            assert!(row.stats.average_degree > 10.0);
            assert_eq!(row.stats.connected, Some(true), "{row:?}");
        }
        assert_eq!(result.sections()[0].summary.len(), 15);
    }

    /// `run` switches to `measure_csr` at
    /// `SAMPLED_METRICS_THRESHOLD` nodes, a size no test reaches: check the
    /// sampled path against the exact one on the same converged overlay.
    #[test]
    fn sampled_csr_metrics_agree_with_the_full_graph() {
        let scale = Scale {
            nodes: 400,
            cycles: 30,
            view_size: 12,
            seed: 71,
        };
        let event = event_config(0.0);
        let protocol = scale.protocol(PolicyTriple::newscast());
        let mut sim =
            scenario::event_random_overlay_sharded(&protocol, event, scale.nodes, scale.seed, 2)
                .expect("validated event config");
        sim.run_for(scale.cycles * event.period);

        let sampled = measure_csr(&sim.csr_snapshot(), scale.seed);
        let exact = measure_graph(&sim.csr_snapshot().graph().undirected(), scale.seed);
        assert_eq!(sampled.connected, None);
        assert_eq!(exact.connected, Some(true));
        // Every view is full, so in-degrees sum to N × c (the streaming mean
        // rounds in the last place).
        assert!((sampled.average_degree - scale.view_size as f64).abs() < 1e-9);
        // 16 BFS sources and 256 clustering samples against 50 and all 400.
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(
            rel(sampled.path_length, exact.path_length) < 0.02,
            "path length {} vs {}",
            sampled.path_length,
            exact.path_length
        );
        assert!(
            rel(sampled.clustering, exact.clustering) < 0.05,
            "clustering {} vs {}",
            sampled.clustering,
            exact.clustering
        );
    }
}
