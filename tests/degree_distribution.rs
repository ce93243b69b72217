//! Cross-crate integration: Section 6's degree-distribution results at
//! small scale — the fundamental split between head and rand view
//! selection.

use peer_sampling::{scenario, NodeId, PolicyTriple, ProtocolConfig};
use pss_stats::Summary;

const N: usize = 800;
const C: usize = 20;
const CYCLES: u64 = 80;

fn converged_distribution(policy: &str, seed: u64) -> pss_stats::CountDistribution {
    let policy: PolicyTriple = policy.parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut sim = scenario::random_overlay(&config, N, seed);
    sim.run_cycles(CYCLES);
    sim.csr_snapshot()
        .graph()
        .undirected()
        .degree_distribution()
}

#[test]
fn degree_is_never_below_view_size() {
    // Every node keeps c out-links, so undirected degree >= c (once views
    // are full and all targets are alive).
    let dist = converged_distribution("(rand,head,pushpull)", 1);
    assert!(dist.min().unwrap() >= C as u64);
}

#[test]
fn head_view_selection_balances_degrees() {
    let head = converged_distribution("(rand,head,pushpull)", 2);
    let rand = converged_distribution("(rand,rand,pushpull)", 3);
    assert!(
        rand.variance() > 2.0 * head.variance(),
        "rand variance {} should dwarf head variance {}",
        rand.variance(),
        head.variance()
    );
    assert!(
        rand.max().unwrap() > head.max().unwrap(),
        "rand max {} should exceed head max {}",
        rand.max().unwrap(),
        head.max().unwrap()
    );
}

#[test]
fn all_protocols_keep_mean_degree_near_2c() {
    for policy in [
        "(rand,head,pushpull)",
        "(rand,rand,push)",
        "(tail,head,push)",
    ] {
        let dist = converged_distribution(policy, 4);
        let mean = dist.mean();
        assert!(
            mean > 1.3 * C as f64 && mean < 2.0 * C as f64,
            "{policy}: mean degree {mean} outside [1.3c, 2c]"
        );
    }
}

#[test]
fn node_degrees_oscillate_around_common_mean_without_hubs() {
    // Table 2: "the degree of all nodes oscillates around the overall
    // average … there are no emerging higher degree nodes on the long run".
    let policy: PolicyTriple = "(rand,head,pushpull)".parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut sim = scenario::random_overlay(&config, N, 5);
    let traced: Vec<NodeId> = (0..20).map(|i| NodeId::new(i * 7)).collect();
    let mut degrees = vec![Summary::new(); traced.len()];
    for _ in 0..CYCLES {
        sim.run_cycle();
        let snapshot = sim.csr_snapshot();
        let graph = snapshot.graph().undirected();
        for (id, d) in traced.iter().zip(&mut degrees) {
            d.push(graph.degree(snapshot.index_of(*id).expect("no node dies")) as f64);
        }
    }

    let time_averages: Summary = degrees.iter().map(Summary::mean).collect();
    let overall = sim.csr_snapshot().graph().undirected().average_degree();
    assert!(
        (time_averages.mean() - overall).abs() < 4.0,
        "traced mean {} vs overall {overall}",
        time_averages.mean()
    );
    // Per-node time averages cluster tightly for head view selection.
    assert!(
        time_averages.sample_std_dev() < 4.0,
        "head selection time-average spread too wide: {}",
        time_averages.sample_std_dev()
    );
}

#[test]
fn head_degree_series_decorrelates_quickly() {
    // Figure 5: (rand,head,pushpull) is white-noise-like while
    // (rand,rand,pushpull) has strong short-term correlation.
    let run = |policy: &str| {
        let policy: PolicyTriple = policy.parse().expect("valid");
        let config = ProtocolConfig::new(policy, C).expect("valid");
        let mut sim = scenario::random_overlay(&config, N, 6);
        let mut degrees = Vec::new();
        for _ in 0..120 {
            sim.run_cycle();
            let snapshot = sim.csr_snapshot();
            let idx = snapshot.index_of(NodeId::new(10)).expect("no node dies");
            degrees.push(snapshot.graph().undirected().degree(idx) as f64);
        }
        pss_stats::autocorrelation_at(&degrees, 1)
    };
    let head_r1 = run("(rand,head,pushpull)");
    let rand_r1 = run("(rand,rand,pushpull)");
    assert!(
        rand_r1 > head_r1 + 0.2,
        "rand r1 {rand_r1} should clearly exceed head r1 {head_r1}"
    );
}
