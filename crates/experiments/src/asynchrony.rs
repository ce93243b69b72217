//! **Extension X2** — do the cycle-model conclusions survive asynchrony,
//! and how fast does each engine reach them?
//!
//! The paper simulates an idealized synchronous cycle model. This
//! experiment runs representative protocols on the sharded cycle engine
//! ([`pss_sim::ShardedSimulation`]) and on the event-driven engine
//! ([`pss_sim::ShardedEventSimulation`]: timer jitter, message latency,
//! message loss), each once per entry of the CLI's `--shards` (default one
//! shard), and compares the converged overlays. Every row reports
//! node-cycles/s; the summary line gives the best newscast cycle-engine
//! speedup over one shard. Cross-shard exchanges resolve in mailbox order,
//! so the shard count moves a trajectory the way a reseed does: the
//! in-degree distribution, not its bits, should agree across the sweep.
//!
//! Beyond 10⁵ nodes clustering and path length come from the sampled
//! estimators and exact connectivity is skipped, which opens
//! [`crate::Scale::million`]. There an event row peaks at 8.3 GB RSS
//! (measured on 2 vCPUs); on a shared host add `--nodes 200000`.

use std::time::Instant;

use pss_core::{
    GossipNode, PeerSelection as Ps, PolicyTriple, ViewPropagation as Vp, ViewSelection as Vs,
};
use pss_graph::{clustering, paths, GraphMetrics, MetricsConfig};
use pss_sim::{scenario, CsrSnapshot, EventConfig, LatencyModel, Mode, Sharded};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{fmt_f64, Report, Section, Table};
use crate::{Options, Scale};

/// Above this population clustering and path length come from the
/// sampled estimators instead of [`GraphMetrics`].
const SAMPLED_METRICS_THRESHOLD: usize = 100_000;

/// The engine settings of every protocol, in row order: the cycle engine
/// (`None`), then the event engine at each message loss probability.
const ENGINES: [Option<f64>; 3] = [None, Some(0.0), Some(0.05)];

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

/// Converged overlay statistics of one run. Degrees are exact at every N;
/// clustering and path length are sampled, more sparsely above
/// 10⁵ nodes, where `connected` is `None`.
#[derive(Debug, Clone, Copy)]
pub struct OverlayStats {
    /// Mean degree of the undirected communication graph.
    pub average_degree: f64,
    /// Mean in-degree of the directed view graph (= c when views are full).
    pub in_degree_mean: f64,
    /// In-degree standard deviation (population).
    pub in_degree_std: f64,
    /// Smallest in-degree.
    pub in_degree_min: f64,
    /// Largest in-degree.
    pub in_degree_max: f64,
    /// (Sampled) clustering coefficient.
    pub clustering: f64,
    /// (Sampled) average shortest-path length.
    pub path_length: f64,
    /// Exact connectivity, when measured.
    pub connected: Option<bool>,
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
    /// The scale every row ran at.
    pub scale: Scale,
}

impl AsyncResult {
    /// Throughput speedup of the fastest newscast cycle-engine row over the
    /// 1-shard one (NaN without a 1-shard row).
    pub fn best_speedup(&self) -> f64 {
        let newscast = PolicyTriple::newscast();
        let cycle = || (self.rows.iter()).filter(|r| r.engine == "cycle" && r.policy == newscast);
        match cycle().find(|r| r.shards == 1) {
            Some(base) if base.node_cycles_per_sec > 0.0 => cycle()
                .map(|r| r.node_cycles_per_sec / base.node_cycles_per_sec)
                .fold(f64::NAN, f64::max),
            _ => f64::NAN,
        }
    }
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
            "in-deg mean",
            "in-deg std",
            "in-deg min",
            "in-deg max",
            "clustering",
            "path length",
            "connected",
        ]);
        for r in &self.rows {
            let s = &r.stats;
            t.row(vec![
                r.policy.to_string(),
                r.engine.into(),
                r.shards.to_string(),
                fmt_f64(r.loss, 2),
                format!("{:.0}", r.node_cycles_per_sec),
                fmt_f64(s.average_degree, 2),
                fmt_f64(s.in_degree_mean, 2),
                fmt_f64(s.in_degree_std, 2),
                fmt_f64(s.in_degree_min, 0),
                fmt_f64(s.in_degree_max, 0),
                fmt_f64(s.clustering, 4),
                fmt_f64(s.path_length, 3),
                match s.connected {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "-",
                }
                .into(),
            ]);
        }
        vec![Section::new("async", t, None)]
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "best speedup over 1 shard: {:.2}x (N = {}, {} cycles)",
            self.best_speedup(),
            self.scale.nodes,
            self.scale.cycles
        ))
    }
}

/// Measures the overlay in `snapshot`. `sampled` is the large-N path: 256
/// clustering samples, 16 BFS sources and no connectivity sweep. Otherwise
/// [`GraphMetrics`] samples 1000 nodes and 50 sources and checks
/// connectivity exactly.
fn measure(snapshot: &CsrSnapshot, seed: u64, sampled: bool) -> OverlayStats {
    let csr = snapshot.graph();
    let mut in_deg = pss_stats::Summary::new();
    for d in csr.in_degrees() {
        in_deg.push(d as f64);
    }
    let graph = csr.undirected();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (clustering, path_length, connected) = if sampled {
        let clustering = clustering::estimate_clustering(&graph, 256, &mut rng);
        let paths = paths::estimate_average_path_length(&graph, 16, &mut rng);
        (clustering, paths.average, None)
    } else {
        let n = graph.node_count();
        let config = MetricsConfig {
            clustering_samples: Some(1000.min(n)),
            path_sources: Some(50.min(n)),
        };
        let m = GraphMetrics::measure(&graph, &config, &mut rng);
        let connected = Some(m.is_connected());
        (m.clustering_coefficient, m.path_lengths.average, connected)
    };
    OverlayStats {
        average_degree: graph.average_degree(),
        in_degree_mean: in_deg.mean(),
        in_degree_std: in_deg.population_std_dev(),
        in_degree_min: in_deg.min().unwrap_or(f64::NAN),
        in_degree_max: in_deg.max().unwrap_or(f64::NAN),
        clustering,
        path_length,
        connected,
    }
}

/// Runs the asynchrony experiment (`scale.cycles` ≈ gossip periods for
/// the event engine): per protocol and engine setting, one row per
/// `--shards` entry, each from the identical initial overlay of
/// `(seed, N, c)`. Rows run one after another; each run parallelizes
/// internally across its worker threads (`--workers`, default: available
/// parallelism, capped at the shard count).
pub fn run(o: &Options) -> AsyncResult {
    let shard_counts = o.shards.clone().unwrap_or_else(|| vec![1]);
    let mut rows = Vec::new();
    for policy in PROTOCOLS {
        for engine in ENGINES {
            for &shards in &shard_counts {
                rows.push(match engine {
                    None => cycle_row(o, policy, shards),
                    Some(loss) => event_row(o, policy, loss, shards),
                });
            }
        }
    }
    AsyncResult {
        rows,
        scale: o.scale,
    }
}

/// The cycle-engine row of `policy` on `shards` shards.
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
    let sampled = o.scale.nodes >= SAMPLED_METRICS_THRESHOLD;
    let stats = measure(&sim.csr_snapshot(), metrics_seed, sampled);
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
            scale,
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
        // Per protocol and engine setting: one row per shard count.
        let layout: Vec<(&str, usize, f64)> = (result.rows.iter())
            .map(|r| (r.engine, r.shards, r.loss))
            .collect();
        let per_protocol = [
            ("cycle", 1, 0.0),
            ("cycle", 2, 0.0),
            ("event", 1, 0.0),
            ("event", 2, 0.0),
            ("event", 1, 0.05),
            ("event", 2, 0.05),
        ];
        assert_eq!(layout, per_protocol.repeat(3));
        for row in &result.rows {
            let s = &row.stats;
            assert!(row.node_cycles_per_sec > 0.0);
            assert!(s.average_degree > 10.0);
            assert_eq!(s.connected, Some(true), "{row:?}");
            assert!(s.path_length > 1.0 && s.path_length < 4.0);
            assert!(s.clustering.is_finite());
            if row.engine == "cycle" {
                // Every view holds c = 12 live entries, so the mean
                // in-degree must be exactly c.
                assert!((s.in_degree_mean - 12.0).abs() < 1e-9, "{row:?}");
                assert!(s.in_degree_std > 0.0);
                assert!(s.in_degree_max >= s.in_degree_mean);
            }
        }
        assert_eq!(result.sections()[0].summary.len(), 18);
        assert!(result.best_speedup().is_finite());
    }

    #[test]
    fn best_speedup_is_nan_without_a_one_shard_row() {
        let scale = Scale {
            nodes: 60,
            cycles: 3,
            ..Scale::tiny()
        };
        let o = Options {
            shards: Some(vec![2]),
            ..Options::at(scale)
        };
        assert!(run(&o).best_speedup().is_nan());
    }

    /// `run` switches to the sampled path at `SAMPLED_METRICS_THRESHOLD`
    /// nodes, a size no test reaches: check it against the exact one on
    /// the same converged overlay.
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

        let sampled = measure(&sim.csr_snapshot(), scale.seed, true);
        let exact = measure(&sim.csr_snapshot(), scale.seed, false);
        assert_eq!(sampled.connected, None);
        assert_eq!(exact.connected, Some(true));
        // Degrees are exact on both paths. Every view is full, so
        // in-degrees sum to N × c (the streaming mean rounds in the last
        // place).
        assert_eq!(sampled.average_degree, exact.average_degree);
        assert!((sampled.in_degree_mean - scale.view_size as f64).abs() < 1e-9);
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
