//! One-call measurement of all overlay properties tracked by the paper.

use rand::Rng;

use crate::clustering::{clustering_coefficient, estimate_clustering};
use crate::components::{connected_components, ComponentReport};
use crate::csr::Csr;
use crate::paths::{average_path_length, estimate_average_path_length, PathLengthStats};

/// How expensively to measure a snapshot.
///
/// `None` for a field means "exact"; a value means "estimate from that many
/// samples". The per-cycle experiment loops use sampling, end-of-run reports
/// use exact values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsConfig {
    /// Number of nodes to sample for the clustering coefficient.
    pub clustering_samples: Option<usize>,
    /// Number of BFS sources for the average path length.
    pub path_sources: Option<usize>,
}

impl MetricsConfig {
    /// Exact measurement (no sampling anywhere).
    pub fn exact() -> Self {
        MetricsConfig::default()
    }

    /// The sampling configuration used by the per-cycle experiment loops:
    /// 1000 clustering samples and 50 BFS sources, accurate to well under
    /// the plot resolution of the paper's figures.
    pub fn sampled() -> Self {
        MetricsConfig {
            clustering_samples: Some(1000),
            path_sources: Some(50),
        }
    }
}

/// A full property snapshot of an undirected communication graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of undirected edges.
    pub edge_count: usize,
    /// Mean degree (Figures 2b, 3e, 3f).
    pub average_degree: f64,
    /// Smallest degree.
    pub min_degree: usize,
    /// Largest degree.
    pub max_degree: usize,
    /// (Possibly sampled) clustering coefficient (Figures 2a, 3c, 3d).
    pub clustering_coefficient: f64,
    /// (Possibly sampled) shortest-path statistics (Figures 2c, 3a, 3b).
    pub path_lengths: PathLengthStats,
    /// Number of connected components (Table 1).
    pub component_count: usize,
    /// Size of the largest component (Table 1).
    pub largest_component: usize,
}

impl GraphMetrics {
    /// Measures the undirected graph `g` ([`Csr::undirected`]) under
    /// `config`, using `rng` for any sampling.
    pub fn measure(g: &Csr, config: &MetricsConfig, rng: &mut impl Rng) -> Self {
        let components: ComponentReport = connected_components(g);
        let clustering = match config.clustering_samples {
            Some(k) => estimate_clustering(g, k, rng),
            None => clustering_coefficient(g),
        };
        let path_lengths = match config.path_sources {
            Some(k) => estimate_average_path_length(g, k, rng),
            None => average_path_length(g),
        };
        GraphMetrics {
            node_count: g.node_count(),
            edge_count: g.edge_count() / 2,
            average_degree: g.average_degree(),
            min_degree: g.min_degree(),
            max_degree: g.max_degree(),
            clustering_coefficient: clustering,
            path_lengths,
            component_count: components.count(),
            largest_component: components.largest(),
        }
    }

    /// True if the measured graph was connected.
    pub fn is_connected(&self) -> bool {
        self.component_count <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::undirected_from_edges as graph;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exact_metrics_of_triangle() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut rng = SmallRng::seed_from_u64(1);
        let m = GraphMetrics::measure(&g, &MetricsConfig::exact(), &mut rng);
        assert_eq!(m.node_count, 3);
        assert_eq!(m.edge_count, 3);
        assert_eq!(m.average_degree, 2.0);
        assert_eq!(m.clustering_coefficient, 1.0);
        assert_eq!(m.path_lengths.average, 1.0);
        assert_eq!(m.component_count, 1);
        assert_eq!(m.largest_component, 3);
        assert!(m.is_connected());
    }

    #[test]
    fn sampled_metrics_close_to_exact() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = gen::uniform_view_digraph(800, 20, &mut rng).undirected();
        let exact = GraphMetrics::measure(&g, &MetricsConfig::exact(), &mut rng);
        let sampled = GraphMetrics::measure(&g, &MetricsConfig::sampled(), &mut rng);
        assert_eq!(exact.node_count, sampled.node_count);
        assert_eq!(exact.average_degree, sampled.average_degree);
        assert!((exact.clustering_coefficient - sampled.clustering_coefficient).abs() < 0.02);
        assert!((exact.path_lengths.average - sampled.path_lengths.average).abs() < 0.1);
    }

    #[test]
    fn disconnected_graph_reports_components() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        let mut rng = SmallRng::seed_from_u64(3);
        let m = GraphMetrics::measure(&g, &MetricsConfig::exact(), &mut rng);
        assert_eq!(m.component_count, 2);
        assert_eq!(m.largest_component, 2);
        assert!(!m.is_connected());
        assert!(!m.path_lengths.fully_reachable());
    }

    #[test]
    fn metrics_config_presets() {
        assert_eq!(MetricsConfig::exact().clustering_samples, None);
        assert_eq!(MetricsConfig::sampled().path_sources, Some(50));
    }
}
