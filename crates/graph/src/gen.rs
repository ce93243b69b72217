//! Graph generators: baselines and initial topologies for the experiments.
//! Each returns the directed view graph; [`Csr::undirected`] gives the
//! communication graph to measure.
//!
//! * [`uniform_view_digraph`] — the paper's random baseline: every view is a
//!   uniform random sample of the other nodes. The horizontal reference lines
//!   in Figures 2 and 3 are measured on this graph.
//! * [`ring_lattice`] — the structured, large-diameter start of Section 5.2.
//! * [`star`] — the pathological topology that `(*,*,pull)` collapses to.

use rand::seq::index::sample;
use rand::Rng;

use crate::csr::{Csr, CsrBuilder};

/// The paper's uniform random baseline: each node's view holds `c` distinct
/// uniform-random other nodes (or `n − 1` if the group is smaller).
///
/// # Examples
///
/// ```
/// use pss_graph::gen::uniform_view_digraph;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = uniform_view_digraph(100, 30, &mut rng);
/// assert!((0..100).all(|v| g.degree(v) == 30));
/// ```
pub fn uniform_view_digraph(n: usize, c: usize, rng: &mut impl Rng) -> Csr {
    let per_node = c.min(n.saturating_sub(1));
    let mut b = CsrBuilder::with_capacity(n, n * per_node);
    for v in 0..n {
        // Sample from n-1 candidates (everyone but v), then shift indices at
        // or above v up by one to skip the self entry.
        let chosen = sample(rng, n - 1, per_node);
        b.push_node(
            chosen
                .iter()
                .map(|i| if i < v { i as u32 } else { (i + 1) as u32 }),
        );
    }
    b.finish().expect("generated indices are in range")
}

/// Ring lattice used as the structured initial topology in Section 5.2.
///
/// Nodes sit on a ring; each node's view holds its `k` nearest ring
/// neighbors, filled alternating right (+1, +2, …) and left (−1, −2, …), the
/// way the paper fills views "of the nearest nodes in the ring until the view
/// is filled". `k` is clamped to `n − 1`.
pub fn ring_lattice(n: usize, k: usize) -> Csr {
    let k = k.min(n.saturating_sub(1));
    let mut b = CsrBuilder::with_capacity(n, n * k);
    let n64 = n as u64;
    for v in 0..n64 {
        b.push_node((0..k as u64).map(|i| {
            let offset = i / 2 + 1;
            let target = if i % 2 == 0 {
                v + offset
            } else {
                v + n64 - offset
            };
            (target % n64) as u32
        }));
    }
    b.finish().expect("ring indices are in range")
}

/// Star topology: every non-center node's view is `{0}`, the center's view is
/// `{1}` (views must be non-empty for the protocol to run). Returns the empty
/// or singleton graph for `n <= 1`.
///
/// This is the degenerate topology that pull-only protocols collapse to and
/// the implicit shape of the growing scenario's bootstrap.
pub fn star(n: usize) -> Csr {
    let mut b = CsrBuilder::with_capacity(n, n);
    for v in 0..n {
        b.push_node((n > 1).then_some(if v == 0 { 1 } else { 0 }));
    }
    b.finish().expect("star indices are in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_views_have_exact_out_degree() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = uniform_view_digraph(50, 10, &mut rng);
        for v in 0..50 {
            assert_eq!(g.degree(v), 10);
            assert!(!g.has_edge(v, v));
        }
    }

    #[test]
    fn uniform_views_clamp_c() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = uniform_view_digraph(5, 100, &mut rng);
        for v in 0..5 {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn uniform_views_tiny_groups() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(uniform_view_digraph(0, 5, &mut rng).node_count(), 0);
        assert_eq!(uniform_view_digraph(1, 5, &mut rng).edge_count(), 0);
    }

    #[test]
    fn uniform_view_graph_is_connected_at_paper_density() {
        let mut rng = SmallRng::seed_from_u64(17);
        let g = uniform_view_digraph(2000, 30, &mut rng).undirected();
        assert!(connected_components(&g).is_connected());
        assert!(g.min_degree() >= 30);
    }

    #[test]
    fn ring_lattice_small() {
        let g = ring_lattice(5, 2);
        // Each node sees +1 and -1.
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        let u = g.undirected();
        assert_eq!(u.edge_count(), 2 * 5);
        assert_eq!(u.average_degree(), 2.0);
    }

    #[test]
    fn ring_lattice_odd_k_fills_asymmetrically() {
        let g = ring_lattice(7, 3);
        // +1, -1, +2
        let mut expected = vec![1u32, 6, 2];
        expected.sort_unstable();
        assert_eq!(g.neighbors(0), expected.as_slice());
    }

    #[test]
    fn ring_lattice_k_clamped() {
        let g = ring_lattice(4, 10);
        for v in 0..4 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn ring_lattice_diameter_is_large() {
        let g = ring_lattice(100, 2).undirected();
        assert_eq!(crate::paths::average_path_length(&g).max, 50);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.neighbors(0), &[1]);
        for v in 1..6 {
            assert_eq!(g.neighbors(v), &[0]);
        }
        let u = g.undirected();
        assert_eq!(u.degree(0), 5);
        assert_eq!(u.edge_count(), 2 * 5);
    }

    #[test]
    fn star_trivial_sizes() {
        assert_eq!(star(0).node_count(), 0);
        assert_eq!(star(1).edge_count(), 0);
    }
}
