//! Per-cycle observation: recorders for the published metrics.
//!
//! The experiment harness runs a simulation under a set of observers; after
//! every cycle each observer sees the same [`CycleContext`] (CSR snapshot,
//! its undirected graph, dead-link counter), so expensive snapshots are
//! built once per cycle regardless of how many metrics are recorded.

use pss_core::{GossipNode, NodeId};
use pss_graph::csr::Csr;
use pss_graph::{GraphMetrics, MetricsConfig};
use pss_stats::TimeSeries;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{CsrSnapshot, Mode, Sharded};

/// Everything an observer may look at after a cycle. Nothing in it names
/// the engine, so observers work unchanged on the cycle and the event
/// engine at any shard count.
pub struct CycleContext<'a> {
    /// The cycle that just completed.
    pub cycle: u64,
    /// Counts the descriptors in live views that point to dead nodes
    /// ([`Sharded::dead_link_count`]): a sweep over every view, run only
    /// when an observer asks.
    pub dead_links: &'a dyn Fn() -> usize,
    /// Directed view graph over live nodes, with the id mapping.
    pub snapshot: &'a CsrSnapshot,
    /// Undirected communication graph of the snapshot.
    pub graph: &'a Csr,
}

/// A per-cycle metric recorder.
pub trait Observer {
    /// Called once after every completed cycle.
    fn observe(&mut self, ctx: &CycleContext<'_>);
}

/// Runs `cycles` cycles of `sim`, invoking every observer after each cycle.
///
/// Observation order follows the slice order. The snapshot/undirected graph
/// are rebuilt once per cycle and shared.
pub fn run_observed<N: GossipNode + Send, M: Mode>(
    sim: &mut Sharded<N, M>,
    cycles: u64,
    observers: &mut [&mut dyn Observer],
) {
    for _ in 0..cycles {
        sim.run_cycle();
        let snapshot = sim.csr_snapshot();
        let graph = snapshot.graph().undirected();
        let ctx = CycleContext {
            cycle: sim.cycle(),
            dead_links: &|| sim.dead_link_count(),
            snapshot: &snapshot,
            graph: &graph,
        };
        for obs in observers.iter_mut() {
            obs.observe(&ctx);
        }
    }
}

/// Records the three headline graph properties per cycle: clustering
/// coefficient, average node degree and average path length (Figures 2, 3).
#[derive(Debug)]
pub struct MetricsRecorder {
    config: MetricsConfig,
    rng: SmallRng,
    clustering: TimeSeries,
    average_degree: TimeSeries,
    path_length: TimeSeries,
    largest_component: TimeSeries,
}

impl MetricsRecorder {
    /// Creates a recorder; `config` chooses exact vs sampled measurement.
    pub fn new(config: MetricsConfig, seed: u64) -> Self {
        MetricsRecorder {
            config,
            rng: SmallRng::seed_from_u64(seed),
            clustering: TimeSeries::new("clustering coefficient"),
            average_degree: TimeSeries::new("average node degree"),
            path_length: TimeSeries::new("average path length"),
            largest_component: TimeSeries::new("largest component"),
        }
    }

    /// Clustering coefficient per cycle (Figure 2a / 3c / 3d).
    pub fn clustering(&self) -> &TimeSeries {
        &self.clustering
    }

    /// Average node degree per cycle (Figure 2b / 3e / 3f).
    pub fn average_degree(&self) -> &TimeSeries {
        &self.average_degree
    }

    /// Average path length per cycle (Figure 2c / 3a / 3b).
    pub fn path_length(&self) -> &TimeSeries {
        &self.path_length
    }

    /// Largest connected component size per cycle.
    pub fn largest_component(&self) -> &TimeSeries {
        &self.largest_component
    }
}

impl Observer for MetricsRecorder {
    fn observe(&mut self, ctx: &CycleContext<'_>) {
        let m = GraphMetrics::measure(ctx.graph, &self.config, &mut self.rng);
        self.clustering.push(ctx.cycle, m.clustering_coefficient);
        self.average_degree.push(ctx.cycle, m.average_degree);
        self.path_length.push(ctx.cycle, m.path_lengths.average);
        self.largest_component
            .push(ctx.cycle, m.largest_component as f64);
    }
}

/// Traces the undirected degree of a fixed set of nodes over time
/// (Table 2 and Figure 5 of the paper use 50 traced nodes over 300 cycles).
#[derive(Debug)]
pub struct DegreeTracer {
    traced: Vec<NodeId>,
    series: Vec<TimeSeries>,
}

impl DegreeTracer {
    /// Creates a tracer for the given nodes.
    pub fn new(traced: Vec<NodeId>) -> Self {
        let series = traced
            .iter()
            .map(|id| TimeSeries::new(format!("degree of {id}")))
            .collect();
        DegreeTracer { traced, series }
    }

    /// The traced node ids.
    pub fn traced(&self) -> &[NodeId] {
        &self.traced
    }

    /// Degree series of the `i`-th traced node.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn series(&self, i: usize) -> &TimeSeries {
        &self.series[i]
    }

    /// All degree series, aligned with [`DegreeTracer::traced`].
    pub fn all_series(&self) -> &[TimeSeries] {
        &self.series
    }
}

impl Observer for DegreeTracer {
    fn observe(&mut self, ctx: &CycleContext<'_>) {
        for (id, series) in self.traced.iter().zip(&mut self.series) {
            if let Some(idx) = ctx.snapshot.index_of(*id) {
                series.push(ctx.cycle, ctx.graph.degree(idx) as f64);
            }
            // Dead/unknown nodes simply record nothing this cycle.
        }
    }
}

/// Records the number of dead links per cycle (Figure 7).
#[derive(Debug)]
pub struct DeadLinkCounter {
    series: TimeSeries,
}

impl DeadLinkCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        DeadLinkCounter {
            series: TimeSeries::new("overall dead links"),
        }
    }

    /// Dead links per cycle.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl Default for DeadLinkCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for DeadLinkCounter {
    fn observe(&mut self, ctx: &CycleContext<'_>) {
        self.series.push(ctx.cycle, (ctx.dead_links)() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use pss_core::{PolicyTriple, ProtocolConfig};

    fn config() -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap()
    }

    #[test]
    fn metrics_recorder_collects_each_cycle() {
        let mut sim = scenario::random_overlay(&config(), 60, 1);
        let mut rec = MetricsRecorder::new(MetricsConfig::exact(), 2);
        run_observed(&mut sim, 5, &mut [&mut rec]);
        assert_eq!(rec.clustering().len(), 5);
        assert_eq!(rec.average_degree().len(), 5);
        assert_eq!(rec.path_length().len(), 5);
        assert_eq!(rec.largest_component().len(), 5);
        assert_eq!(rec.clustering().cycles(), &[1, 2, 3, 4, 5]);
        // Degrees in a converged small overlay stay near 2c.
        let (_, degree) = rec.average_degree().last().unwrap();
        assert!((8.0..=16.0).contains(&degree), "degree {degree}");
    }

    #[test]
    fn degree_tracer_follows_nodes() {
        let mut sim = scenario::random_overlay(&config(), 40, 3);
        let traced = vec![NodeId::new(0), NodeId::new(7)];
        let mut tracer = DegreeTracer::new(traced.clone());
        run_observed(&mut sim, 4, &mut [&mut tracer]);
        assert_eq!(tracer.traced(), traced.as_slice());
        assert_eq!(tracer.series(0).len(), 4);
        assert_eq!(tracer.all_series()[1].len(), 4);
        assert!(tracer.series(0).values().iter().all(|&d| d >= 1.0));
    }

    #[test]
    fn degree_tracer_skips_dead_nodes() {
        let mut sim = scenario::random_overlay(&config(), 40, 4);
        let mut tracer = DegreeTracer::new(vec![NodeId::new(5)]);
        run_observed(&mut sim, 2, &mut [&mut tracer]);
        sim.kill(NodeId::new(5));
        run_observed(&mut sim, 3, &mut [&mut tracer]);
        assert_eq!(tracer.series(0).len(), 2);
    }

    #[test]
    fn dead_link_counter_sees_failure() {
        let mut sim = scenario::random_overlay(&config(), 50, 5);
        sim.run_cycles(5);
        let mut counter = DeadLinkCounter::new();
        run_observed(&mut sim, 1, &mut [&mut counter]);
        let (_, before) = counter.series().last().unwrap();
        assert_eq!(before, 0.0);
        sim.kill_random_fraction(0.5);
        run_observed(&mut sim, 1, &mut [&mut counter]);
        let (_, after) = counter.series().last().unwrap();
        assert!(after > 0.0, "dead links should appear after mass failure");
    }

    #[test]
    fn multiple_observers_share_context() {
        let mut sim = scenario::random_overlay(&config(), 30, 6);
        let mut rec = MetricsRecorder::new(MetricsConfig::exact(), 7);
        let mut counter = DeadLinkCounter::new();
        let mut tracer = DegreeTracer::new(vec![NodeId::new(1)]);
        run_observed(&mut sim, 3, &mut [&mut rec, &mut counter, &mut tracer]);
        assert_eq!(rec.clustering().len(), 3);
        assert_eq!(counter.series().len(), 3);
        assert_eq!(tracer.series(0).len(), 3);
    }
}
