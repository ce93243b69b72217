//! The per-cycle property trace of Figures 2 and 3, and the uniform random
//! baseline both plot it against.

use pss_core::GossipNode;
use pss_graph::csr::Csr;
use pss_graph::{gen, GraphMetrics, MetricsConfig};
use pss_sim::ShardedSimulation;
use pss_stats::TimeSeries;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::report::{fmt_f64, Table};
use crate::Scale;

/// The three headline properties of Figures 2 and 3, one value per cycle:
/// the clustering coefficient, average degree and average path length of
/// the undirected overlay, measured with [`MetricsConfig::sampled`].
#[derive(Debug, Clone)]
pub struct PropertyTrace {
    /// Clustering coefficient per cycle.
    pub clustering: TimeSeries,
    /// Average node degree per cycle.
    pub degree: TimeSeries,
    /// Average path length per cycle.
    pub path_length: TimeSeries,
    /// The sampling stream: a stream of its own, so measuring never
    /// perturbs the run it measures.
    rng: SmallRng,
}

impl PropertyTrace {
    /// An empty trace of the run at `seed`.
    pub fn new(seed: u64) -> Self {
        PropertyTrace {
            clustering: TimeSeries::default(),
            degree: TimeSeries::default(),
            path_length: TimeSeries::default(),
            rng: SmallRng::seed_from_u64(seed ^ 0xabcd),
        }
    }

    /// Measures `graph`, the undirected overlay after `cycle`.
    pub fn record(&mut self, cycle: u64, graph: &Csr) {
        let m = GraphMetrics::measure(graph, &MetricsConfig::sampled(), &mut self.rng);
        self.clustering.push(cycle, m.clustering_coefficient);
        self.degree.push(cycle, m.average_degree);
        self.path_length.push(cycle, m.path_lengths.average);
    }

    /// Runs `n` cycles of `sim`, recording each; returns the final
    /// undirected overlay.
    pub fn run(&mut self, sim: &mut ShardedSimulation<impl GossipNode + Send>, n: u64) -> Csr {
        let mut graph = sim.csr_snapshot().graph().undirected();
        for _ in 0..n {
            sim.run_cycle();
            graph = sim.csr_snapshot().graph().undirected();
            self.record(sim.cycle(), &graph);
        }
        graph
    }

    /// The last clustering coefficient, average degree and average path
    /// length, formatted (`-` before the first cycle).
    pub fn final_cells(&self) -> [String; 3] {
        let series = [&self.clustering, &self.degree, &self.path_length];
        cells(series.map(|s| s.values().last().copied().unwrap_or(f64::NAN)))
    }

    /// Appends one row per cycle to a [`series`] table, after `leading`.
    pub fn push_rows(&self, table: &mut Table, leading: &[String]) {
        let values = self.degree.values().iter().zip(self.path_length.values());
        for ((cycle, cc), (deg, apl)) in self.clustering.iter().zip(values) {
            let cells = [fmt_f64(cc, 6), fmt_f64(*deg, 4), fmt_f64(*apl, 4)];
            let row = leading.iter().cloned().chain([cycle.to_string()]);
            table.row(row.chain(cells).collect());
        }
    }
}

/// The long-format series table of Figures 2 and 3: the `leading`
/// columns, then one column per cycle property.
pub fn series(leading: &[&str]) -> Table {
    let properties = ["cycle", "clustering", "avg_degree", "avg_path_length"];
    Table::new(leading.iter().chain(&properties).copied().collect())
}

/// The baseline's clustering coefficient, average degree and average path
/// length, formatted as [`PropertyTrace::final_cells`] formats a run's.
pub fn baseline_cells(b: &GraphMetrics) -> [String; 3] {
    let path_length = b.path_lengths.average;
    cells([b.clustering_coefficient, b.average_degree, path_length])
}

fn cells([cc, deg, apl]: [f64; 3]) -> [String; 3] {
    [fmt_f64(cc, 4), fmt_f64(deg, 2), fmt_f64(apl, 3)]
}

/// Measures the paper's uniform random baseline (each view a uniform random
/// sample) at the given scale — the horizontal reference lines of
/// Figures 2 and 3.
pub fn random_baseline(scale: Scale) -> GraphMetrics {
    let mut rng = SmallRng::seed_from_u64(scale.seed ^ 0xba5e_b411);
    let g = gen::uniform_view_digraph(scale.nodes, scale.view_size, &mut rng).undirected();
    let config = MetricsConfig {
        clustering_samples: Some(2000.min(scale.nodes)),
        path_sources: Some(50.min(scale.nodes)),
    };
    GraphMetrics::measure(&g, &config, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::{PolicyTriple, ProtocolConfig};
    use pss_sim::scenario;

    fn newscast(c: usize) -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), c).expect("valid")
    }

    #[test]
    fn dynamics_records_every_cycle() {
        let mut sim = scenario::random_overlay(&newscast(10), 120, 5);
        let mut trace = PropertyTrace::new(5);
        let graph = trace.run(&mut sim, 10);
        assert_eq!(trace.clustering.len(), 10);
        assert_eq!(trace.degree.len(), 10);
        assert_eq!(trace.path_length.len(), 10);
        assert_eq!(
            graph.average_degree(),
            *trace.degree.values().last().unwrap()
        );
        let mut table = series(&["protocol"]);
        trace.push_rows(&mut table, &["newscast".into()]);
        assert_eq!(table.len(), 10);
        assert!(trace.final_cells().iter().all(|v| v != "-"));
    }

    #[test]
    fn growing_dynamics_reaches_target() {
        let mut sim = scenario::growing_overlay(&newscast(8), 100, 10, 6);
        let mut trace = PropertyTrace::new(6);
        trace.run(&mut sim, 20);
        // Degree series grows as the population does.
        let degree = trace.degree.values();
        assert!(degree.last().unwrap() > &degree[0]);
    }

    #[test]
    fn baseline_close_to_theory() {
        let scale = Scale {
            nodes: 1000,
            cycles: 1,
            view_size: 20,
            seed: 7,
        };
        let b = random_baseline(scale);
        // Average degree just under 2c (duplicate edges), clustering near
        // 2c/n, path length around log(n)/log(degree).
        assert!(b.average_degree > 38.0 && b.average_degree <= 40.0);
        assert!(b.clustering_coefficient < 0.08);
        assert!(b.path_lengths.average > 1.5 && b.path_lengths.average < 3.5);
    }
}
