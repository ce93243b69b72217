//! Property-based tests for the graph toolkit.

use std::collections::BTreeSet;

use proptest::prelude::*;
use pss_graph::csr::{Csr, CsrBuilder};
use pss_graph::{clustering, components, gen, paths};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy producing a random edge list over `n` nodes.
fn edge_list(max_n: usize, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_n).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..max_edges);
        (Just(n), edges)
    })
}

/// The directed graph whose node `u` lists every `v` of an edge `(u, v)`.
fn directed(n: usize, edges: &[(u32, u32)]) -> Csr {
    let mut b = CsrBuilder::new();
    for u in 0..n as u32 {
        b.push_node(edges.iter().filter(|(s, _)| *s == u).map(|&(_, t)| t));
    }
    b.finish().unwrap()
}

/// The undirected communication graph of an edge list.
fn undirected(n: usize, edges: &[(u32, u32)]) -> Csr {
    directed(n, edges).undirected()
}

proptest! {
    #[test]
    fn undirected_degree_sum_is_twice_edges((n, edges) in edge_list(60, 200)) {
        let g = undirected(n, &edges);
        let distinct: BTreeSet<(u32, u32)> = edges
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        let degree_sum: usize = (0..n as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * distinct.len());
        prop_assert_eq!(g.edge_count(), degree_sum);
    }

    #[test]
    fn undirected_adjacency_is_symmetric((n, edges) in edge_list(40, 120)) {
        let g = undirected(n, &edges);
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge {}-{}", u, v);
            }
        }
    }

    /// `Csr::undirected` row by row against a `BTreeSet` built from the
    /// directed edge list: symmetric, sorted, no self-loops, and a mutual
    /// pair counted once.
    #[test]
    fn undirected_rows_match_a_btreeset_reference((n, edges) in edge_list(50, 200)) {
        let mut reference = vec![BTreeSet::new(); n];
        for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
            reference[u as usize].insert(v);
            reference[v as usize].insert(u);
        }
        let g = undirected(n, &edges);
        prop_assert_eq!(g.node_count(), n);
        for (v, row) in reference.iter().enumerate() {
            let want: Vec<u32> = row.iter().copied().collect();
            prop_assert_eq!(g.neighbors(v as u32), want.as_slice());
        }
    }

    #[test]
    fn components_partition_the_nodes((n, edges) in edge_list(60, 150)) {
        let g = undirected(n, &edges);
        let r = components::connected_components(&g);
        prop_assert_eq!(r.sizes().iter().sum::<usize>(), n);
        prop_assert_eq!(r.assignment().len(), n);
        // Sizes are sorted decreasing and consistent with the assignment.
        for w in r.sizes().windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for comp in 0..r.count() as u32 {
            let count = r.assignment().iter().filter(|&&c| c == comp).count();
            prop_assert_eq!(count, r.sizes()[comp as usize]);
        }
        prop_assert_eq!(components::largest_weak_component(&directed(n, &edges)), r.largest());
    }

    #[test]
    fn connected_nodes_share_components((n, edges) in edge_list(40, 100)) {
        let g = undirected(n, &edges);
        let r = components::connected_components(&g);
        for (u, v) in edges {
            if u != v {
                prop_assert!(r.same_component(u, v));
            }
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges((n, edges) in edge_list(40, 100)) {
        let g = undirected(n, &edges);
        let dist = paths::bfs_distances(&g, 0);
        // Adjacent nodes differ by at most one hop.
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                let (du, dv) = (dist[u as usize], dist[v as usize]);
                if du != paths::UNREACHABLE && dv != paths::UNREACHABLE {
                    prop_assert!(du.abs_diff(dv) <= 1);
                } else {
                    prop_assert_eq!(du, dv); // both unreachable
                }
            }
        }
    }

    #[test]
    fn bfs_is_symmetric_between_node_pairs((n, edges) in edge_list(30, 80)) {
        let g = undirected(n, &edges);
        let d0 = paths::bfs_distances(&g, 0);
        for v in 1..n as u32 {
            let dv = paths::bfs_distances(&g, v);
            prop_assert_eq!(d0[v as usize], dv[0]);
        }
    }

    #[test]
    fn local_clustering_in_unit_interval((n, edges) in edge_list(40, 150)) {
        let g = undirected(n, &edges);
        for v in 0..n as u32 {
            let c = clustering::local_clustering(&g, v);
            prop_assert!((0.0..=1.0).contains(&c));
        }
        let cc = clustering::clustering_coefficient(&g);
        prop_assert!((0.0..=1.0).contains(&cc));
    }

    #[test]
    fn digraph_roundtrip_preserves_views(views in prop::collection::vec(prop::collection::vec(0u32..20, 0..10), 20)) {
        let mut b = CsrBuilder::new();
        for view in &views {
            b.push_node(view.iter().copied());
        }
        let g = b.finish().unwrap();
        for (v, view) in views.iter().enumerate() {
            let mut expected: Vec<u32> = view
                .iter()
                .copied()
                .filter(|&d| d as usize != v)
                .collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(g.neighbors(v as u32), expected.as_slice());
        }
    }

    #[test]
    fn induced_subgraph_never_gains_edges((n, edges) in edge_list(40, 120), seed in 0u64..1000) {
        let g = undirected(n, &edges);
        let keep: Vec<bool> = (0..n).map(|i| !(i as u64 + seed).is_multiple_of(3)).collect();
        let sub = g.induced_subgraph(&keep);
        prop_assert!(sub.edge_count() <= g.edge_count());
        prop_assert_eq!(sub.node_count(), keep.iter().filter(|&&k| k).count());
    }

    #[test]
    fn uniform_view_digraph_has_requested_degree(n in 2usize..100, c in 1usize..40, seed in 0u64..100) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::uniform_view_digraph(n, c, &mut rng);
        let want = c.min(n - 1);
        for v in 0..n as u32 {
            prop_assert_eq!(g.degree(v), want);
        }
        prop_assert_eq!(g.edge_count(), n * want);
    }

    #[test]
    fn ring_lattice_is_regular_and_connected(n in 3usize..120, k in 2usize..8) {
        let k = k.min(n - 1);
        let g = gen::ring_lattice(n, k);
        for v in 0..n as u32 {
            prop_assert_eq!(g.degree(v), k);
        }
        prop_assert!(components::connected_components(&g.undirected()).is_connected());
    }

    #[test]
    fn sampled_path_length_within_tolerance(seed in 0u64..30) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::uniform_view_digraph(300, 8, &mut rng).undirected();
        let exact = paths::average_path_length(&g);
        let est = paths::estimate_average_path_length(&g, 60, &mut rng);
        prop_assert!((exact.average - est.average).abs() < 0.25,
            "exact {} vs est {}", exact.average, est.average);
    }
}
