//! Shortest path lengths: BFS, exact and sampled averages.
//!
//! "The average path length is the average of shortest path lengths over all
//! pairs of nodes in the graph" (paper, Section 4.2). At N = 10⁴ the exact
//! all-pairs computation is `O(N·E)` per snapshot; the per-cycle plots use a
//! sampled estimator (BFS from a random subset of sources), whose accuracy is
//! verified against the exact value in tests.

use std::collections::VecDeque;

use rand::seq::index::sample;
use rand::Rng;

use crate::csr::Csr;

/// Distance sentinel for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source shortest path lengths (in hops) from `src` to every node
/// of the undirected graph `g` ([`Csr::undirected`]).
///
/// Unreachable nodes get [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs_distances(g: &Csr, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let next = dist[v as usize] + 1;
        for &w in g.neighbors(v) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = next;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Aggregate shortest-path statistics for a graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLengthStats {
    /// Mean shortest-path length over the measured reachable ordered pairs.
    pub average: f64,
    /// Longest shortest path seen (the diameter when exact and connected).
    pub max: u32,
    /// Ordered reachable pairs measured (excluding self-pairs).
    pub pairs: u64,
    /// Ordered pairs that were unreachable (nonzero iff disconnected).
    pub unreachable_pairs: u64,
}

impl PathLengthStats {
    /// True if every measured pair was reachable.
    pub fn fully_reachable(&self) -> bool {
        self.unreachable_pairs == 0
    }
}

fn accumulate_from_sources(g: &Csr, sources: impl Iterator<Item = u32>) -> PathLengthStats {
    let n = g.node_count() as u64;
    let mut sum = 0f64;
    let mut pairs = 0u64;
    let mut unreachable = 0u64;
    let mut max = 0u32;
    for src in sources {
        let dist = bfs_distances(g, src);
        let mut reached = 0u64;
        for &d in &dist {
            if d != UNREACHABLE && d > 0 {
                sum += d as f64;
                reached += 1;
                max = max.max(d);
            }
        }
        pairs += reached;
        unreachable += n.saturating_sub(1 + reached);
    }
    PathLengthStats {
        average: if pairs > 0 {
            sum / pairs as f64
        } else {
            f64::NAN
        },
        max,
        pairs,
        unreachable_pairs: unreachable,
    }
}

/// Exact average shortest path length over all ordered reachable pairs of
/// the undirected graph `g`.
///
/// `O(N·(N+E))`: fine for tests and one-off snapshots, too slow for per-cycle
/// measurement at paper scale — use [`estimate_average_path_length`] there.
///
/// The average is `NaN` when the graph has fewer than two nodes (no pairs to
/// measure), mirroring the convention that path length is undefined there.
pub fn average_path_length(g: &Csr) -> PathLengthStats {
    accumulate_from_sources(g, 0..g.node_count() as u32)
}

/// Estimates average path length by exact BFS from `sources` random sources.
///
/// Every BFS measures `N−1` ordered pairs exactly, so with `k` sources the
/// estimator averages `k·(N−1)` of the `N·(N−1)` terms of the exact mean —
/// an unbiased estimate whose error shrinks as `1/√k`. If `sources >= N` the
/// computation falls back to the exact value and draws nothing from `rng`.
///
/// # Examples
///
/// ```
/// use pss_graph::{gen, paths};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let g = gen::uniform_view_digraph(500, 20, &mut rng).undirected();
/// let exact = paths::average_path_length(&g);
/// let est = paths::estimate_average_path_length(&g, 50, &mut rng);
/// assert!((exact.average - est.average).abs() < 0.1);
/// ```
pub fn estimate_average_path_length(
    g: &Csr,
    sources: usize,
    rng: &mut impl Rng,
) -> PathLengthStats {
    let n = g.node_count();
    if sources >= n {
        return average_path_length(g);
    }
    let chosen = sample(rng, n, sources);
    accumulate_from_sources(g, chosen.iter().map(|i| i as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::csr::undirected_from_edges as graph;

    #[test]
    fn bfs_on_path_graph() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = graph(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn average_path_length_of_path_graph() {
        // Path 0-1-2: ordered pair distances 1,2,1,1,2,1 -> mean 8/6.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let s = average_path_length(&g);
        assert!((s.average - 8.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.max, 2);
        assert_eq!(s.pairs, 6);
        assert!(s.fully_reachable());
    }

    #[test]
    fn average_path_length_of_complete_graph() {
        let edges: Vec<_> = (0..5u32)
            .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
            .collect();
        let g = graph(5, &edges);
        let s = average_path_length(&g);
        assert_eq!(s.average, 1.0);
        assert_eq!(s.max, 1);
    }

    #[test]
    fn disconnected_pairs_are_counted() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        let s = average_path_length(&g);
        assert_eq!(s.average, 1.0);
        assert_eq!(s.pairs, 4);
        assert_eq!(s.unreachable_pairs, 8);
        assert!(!s.fully_reachable());
    }

    #[test]
    fn tiny_graphs_have_nan_average() {
        assert!(average_path_length(&graph(0, &[])).average.is_nan());
        assert!(average_path_length(&graph(1, &[])).average.is_nan());
    }

    #[test]
    fn estimator_with_all_sources_is_exact() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let exact = average_path_length(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let est = estimate_average_path_length(&g, 10, &mut rng);
        assert_eq!(exact, est);
    }

    #[test]
    fn estimator_close_to_exact_on_random_graph() {
        let mut rng = SmallRng::seed_from_u64(99);
        let g = crate::gen::uniform_view_digraph(400, 10, &mut rng).undirected();
        let exact = average_path_length(&g);
        let est = estimate_average_path_length(&g, 80, &mut rng);
        assert!(
            (exact.average - est.average).abs() < 0.15,
            "exact {} vs est {}",
            exact.average,
            est.average
        );
    }

    #[test]
    fn eccentricity_and_diameter_of_path() {
        // Eccentricity is the largest BFS distance; the diameter is the
        // exact `max`.
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(bfs_distances(&g, 0).into_iter().max(), Some(4));
        assert_eq!(bfs_distances(&g, 2).into_iter().max(), Some(2));
        assert_eq!(average_path_length(&g).max, 4);
    }

    #[test]
    fn diameter_ignores_unreachable() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        assert_eq!(average_path_length(&g).max, 1);
    }

    #[test]
    fn isolated_node_eccentricity_is_zero() {
        let g = graph(2, &[]);
        let s = average_path_length(&g);
        assert_eq!(s.max, 0);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.unreachable_pairs, 2);
    }

    #[test]
    fn ring_average_path_length_known_closed_form() {
        // Cycle of 6: distances from any node are 1,1,2,2,3 -> mean 9/5.
        let g = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let s = average_path_length(&g);
        assert!((s.average - 9.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.max, 3);
    }
}
