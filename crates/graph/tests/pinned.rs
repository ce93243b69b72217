//! Bit-level pins of every metric the figure commands print, on two seeded
//! graphs: the paper's uniform random baseline and a ring lattice. Each
//! value is an `f64::to_bits` (or an exact count), so a change of graph
//! representation or algorithm that moves any figure by one ulp fails here
//! before it reaches `results/*.md5`.

use pss_graph::components::connected_components;
use pss_graph::csr::Csr;
use pss_graph::{clustering, gen, paths, GraphMetrics, MetricsConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// FNV-1a over a `u64` sequence: one pinned word for a whole distribution.
fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every metric of `g` that a figure or table prints, by name. Sampled
/// metrics draw from one seeded stream in a fixed order.
fn pins(g: &Csr, clustering_samples: usize) -> Vec<(&'static str, u64)> {
    let mut rng = SmallRng::seed_from_u64(5);
    let exact = paths::average_path_length(g);
    let sampled = paths::estimate_average_path_length(g, 40, &mut rng);
    let exact_cc = clustering::clustering_coefficient(g);
    let sampled_cc = clustering::estimate_clustering(g, clustering_samples, &mut rng);
    let metrics = GraphMetrics::measure(g, &MetricsConfig::sampled(), &mut rng);
    let histogram = digest(g.degree_distribution().iter().flat_map(|(d, c)| [d, c]));
    let components = connected_components(g);

    // Figure 6's damage: remove 85 % of the nodes, ten times over, and count
    // the pieces of what is left.
    let n = g.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    let mut damage = Vec::new();
    for _ in 0..10 {
        order.shuffle(&mut rng);
        let mut keep = vec![true; n];
        for &victim in order.iter().take(n * 85 / 100) {
            keep[victim] = false;
        }
        let report = connected_components(&g.induced_subgraph(&keep));
        damage.extend([report.count() as u64, report.nodes_outside_largest() as u64]);
    }

    vec![
        ("path.exact", exact.average.to_bits()),
        ("path.exact.max", u64::from(exact.max)),
        ("path.exact.pairs", exact.pairs),
        ("path.sampled", sampled.average.to_bits()),
        ("path.sampled.pairs", sampled.pairs),
        ("clustering.exact", exact_cc.to_bits()),
        ("clustering.sampled", sampled_cc.to_bits()),
        (
            "metrics.clustering",
            metrics.clustering_coefficient.to_bits(),
        ),
        ("metrics.path", metrics.path_lengths.average.to_bits()),
        ("metrics.degree", metrics.average_degree.to_bits()),
        ("metrics.min_degree", metrics.min_degree as u64),
        ("metrics.max_degree", metrics.max_degree as u64),
        ("metrics.edges", metrics.edge_count as u64),
        ("degree.histogram", histogram),
        (
            "components",
            digest(components.sizes().iter().map(|&s| s as u64)),
        ),
        ("damage", digest(damage)),
    ]
}

#[test]
fn uniform_baseline_metrics_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(9);
    let g = gen::uniform_view_digraph(600, 15, &mut rng).undirected();
    assert_eq!(
        pins(&g, 300),
        vec![
            ("path.exact", 0x400154ddb67abb5a),
            ("path.exact.max", 3),
            ("path.exact.pairs", 359400),
            ("path.sampled", 0x400170a837636889),
            ("path.sampled.pairs", 23960),
            ("clustering.exact", 0x3fa83e88a0f4a5a8),
            ("clustering.sampled", 0x3fa88014522b91be),
            ("metrics.clustering", 0x3fa83e88a0f4a5a8),
            ("metrics.path", 0x400152d37794a475),
            ("metrics.degree", 0x403dad3a06d3a06d),
            ("metrics.min_degree", 19),
            ("metrics.max_degree", 42),
            ("metrics.edges", 8903),
            ("degree.histogram", 0xadcef51a8d2d888b),
            ("components", 0xc4576c3946b40f67),
            ("damage", 0x8e054c90e12b00e5),
        ]
    );
}

#[test]
fn ring_lattice_metrics_are_pinned() {
    let g = gen::ring_lattice(200, 8).undirected();
    assert_eq!(
        pins(&g, 100),
        vec![
            ("path.exact", 0x4029e120292a73c7),
            ("path.exact.max", 25),
            ("path.exact.pairs", 39800),
            ("path.sampled", 0x4029e120292a73c7),
            ("path.sampled.pairs", 7960),
            ("clustering.exact", 0x3fe4924924924918),
            ("clustering.sampled", 0x3fe4924924924931),
            ("metrics.clustering", 0x3fe4924924924918),
            ("metrics.path", 0x4029e120292a73c7),
            ("metrics.degree", 0x4020000000000000),
            ("metrics.min_degree", 8),
            ("metrics.max_degree", 8),
            ("metrics.edges", 800),
            ("degree.histogram", 0xcc254ee96eb63ca5),
            ("components", 0xdcb37742b30c238d),
            ("damage", 0xaf63049e07e58dda),
        ]
    );
}
