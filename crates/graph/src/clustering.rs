//! Clustering coefficients.
//!
//! "The clustering coefficient of a node a is defined as the number of edges
//! between the neighbors of a divided by the number of all possible edges
//! between those neighbors. … The clustering coefficient of the graph is the
//! average of the clustering coefficients of the nodes, and always lies
//! between 0 and 1." (paper, Section 4.2)

use rand::seq::index::sample;
use rand::Rng;

use crate::csr::Csr;

/// Local clustering coefficient of node `v` of the undirected graph `g`
/// ([`Csr::undirected`]): `2L / (k(k−1))` for `L` links among its `k`
/// neighbors.
///
/// Nodes with degree below 2 have no possible neighbor pairs; by the usual
/// Watts–Strogatz convention their coefficient is 0. (The paper's overlays
/// have minimum degree `c = 30`, so the convention never matters there.)
///
/// # Panics
///
/// Panics if `v` is out of range.
pub fn local_clustering(g: &Csr, v: u32) -> f64 {
    let neigh = g.neighbors(v);
    let k = neigh.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    // Count edges among neighbors; neighbor lists are sorted, so iterate
    // pairs (i < j) and binary-search the shorter list's membership.
    for (i, &a) in neigh.iter().enumerate() {
        let adj_a = g.neighbors(a);
        for &b in &neigh[i + 1..] {
            if adj_a.binary_search(&b).is_ok() {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Graph clustering coefficient: the mean of [`local_clustering`] over all
/// nodes. Returns 0.0 for the empty graph.
///
/// Cost is `O(Σ_v deg(v)² · log deg)`; at the paper's scale (N = 10⁴, degree
/// ≈ 60) the exact value is affordable, but per-cycle plotting uses
/// [`estimate_clustering`].
///
/// # Examples
///
/// ```
/// use pss_graph::{clustering, csr::CsrBuilder};
///
/// // A directed 3-cycle is an undirected triangle: fully clustered.
/// let mut b = CsrBuilder::new();
/// for next in [1, 2, 0] {
///     b.push_node([next]);
/// }
/// let g = b.finish()?.undirected();
/// assert_eq!(clustering::clustering_coefficient(&g), 1.0);
/// # Ok::<(), pss_graph::GraphError>(())
/// ```
pub fn clustering_coefficient(g: &Csr) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    let sum: f64 = (0..n as u32).map(|v| local_clustering(g, v)).sum();
    sum / n as f64
}

/// Estimates the clustering coefficient from `samples` random nodes.
///
/// Unbiased: the exact coefficient is the mean of i.i.d.-sampled local
/// coefficients. Falls back to the exact computation, with no draw from
/// `rng`, when `samples >= N`.
pub fn estimate_clustering(g: &Csr, samples: usize, rng: &mut impl Rng) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 0.0;
    }
    if samples >= n {
        return clustering_coefficient(g);
    }
    let chosen = sample(rng, n, samples);
    let sum: f64 = chosen.iter().map(|v| local_clustering(g, v as u32)).sum();
    sum / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::csr::undirected_from_edges as graph;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(clustering_coefficient(&g), 1.0);
    }

    #[test]
    fn tree_has_zero_clustering() {
        // Paper: "For a complete graph, it is 1, for a tree it is 0."
        let g = graph(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn complete_graph_is_one() {
        let edges: Vec<_> = (0..6u32)
            .flat_map(|u| (u + 1..6).map(move |v| (u, v)))
            .collect();
        let g = graph(6, &edges);
        assert_eq!(clustering_coefficient(&g), 1.0);
    }

    #[test]
    fn local_values() {
        // Kite: triangle 0-1-2 plus pendant 3 attached to 0.
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        assert!((local_clustering(&g, 0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local_clustering(&g, 1), 1.0);
        assert_eq!(local_clustering(&g, 3), 0.0); // degree 1
        let expected = (1.0 / 3.0 + 1.0 + 1.0 + 0.0) / 4.0;
        assert!((clustering_coefficient(&g) - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(clustering_coefficient(&graph(0, &[])), 0.0);
        assert_eq!(clustering_coefficient(&graph(1, &[])), 0.0);
    }

    #[test]
    fn estimate_matches_exact_when_oversampled() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 0), (0, 3)]);
        let mut rng = SmallRng::seed_from_u64(5);
        let est = estimate_clustering(&g, 100, &mut rng);
        assert_eq!(est, clustering_coefficient(&g));
    }

    #[test]
    fn estimate_close_on_random_graph() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = crate::gen::uniform_view_digraph(600, 15, &mut rng).undirected();
        let exact = clustering_coefficient(&g);
        let est = estimate_clustering(&g, 300, &mut rng);
        assert!(
            (exact - est).abs() < 0.02,
            "exact {exact} vs estimate {est}"
        );
    }

    #[test]
    fn lattice_clustering_known_value() {
        // Ring lattice where each node connects to 2 neighbors on each side:
        // local clustering is 0.5 for every node (3 of 6 possible links).
        let g = crate::gen::ring_lattice(20, 4).undirected();
        assert!((clustering_coefficient(&g) - 0.5).abs() < 1e-12);
    }
}
