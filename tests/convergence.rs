//! Cross-crate integration: the paper's convergence claims at small scale.
//!
//! Section 5's central result — overlay properties converge to the same
//! values regardless of the initial topology ("self-organization") — and
//! Section 4.3's connectivity requirement.

use peer_sampling::{scenario, PolicyTriple, ProtocolConfig};
use pss_graph::{clustering, components, gen, paths};

const N: usize = 600;
const C: usize = 20;
const CYCLES: u64 = 80;

fn converged_metrics(policy: PolicyTriple, which: &str, seed: u64) -> (f64, f64, f64) {
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut sim = match which {
        "lattice" => scenario::from_digraph(&config, &gen::ring_lattice(N, C), seed),
        "random" => scenario::random_overlay(&config, N, seed),
        "growing" => scenario::growing_overlay(&config, N, N / 50, seed),
        other => panic!("unknown scenario {other}"),
    };
    sim.run_cycles(CYCLES);
    let g = sim.csr_snapshot().graph().undirected();
    assert!(
        components::connected_components(&g).is_connected(),
        "{policy} from {which} start must stay connected"
    );
    (
        clustering::clustering_coefficient(&g),
        g.average_degree(),
        paths::average_path_length(&g).average,
    )
}

#[test]
fn pushpull_protocols_converge_to_same_state_from_any_start() {
    for policy in PolicyTriple::paper_eight()
        .into_iter()
        .filter(|p| p.propagation == peer_sampling::ViewPropagation::PushPull)
    {
        let (cc_l, deg_l, apl_l) = converged_metrics(policy, "lattice", 1);
        let (cc_r, deg_r, apl_r) = converged_metrics(policy, "random", 2);
        assert!(
            (cc_l - cc_r).abs() < 0.07,
            "{policy}: clustering {cc_l} (lattice) vs {cc_r} (random)"
        );
        assert!(
            (deg_l - deg_r).abs() < 4.0,
            "{policy}: degree {deg_l} vs {deg_r}"
        );
        assert!(
            (apl_l - apl_r).abs() < 0.25,
            "{policy}: path length {apl_l} vs {apl_r}"
        );
    }
}

#[test]
fn lattice_diameter_collapses_quickly() {
    // Figure 3a: from a ring lattice (path length O(N/c)) the overlay
    // reaches random-like distances within tens of cycles.
    let config = ProtocolConfig::new(PolicyTriple::newscast(), C).expect("valid");
    let mut sim = scenario::from_digraph(&config, &gen::ring_lattice(N, C), 3);
    let initial = paths::average_path_length(&sim.csr_snapshot().graph().undirected()).average;
    sim.run_cycles(20);
    let after = paths::average_path_length(&sim.csr_snapshot().graph().undirected()).average;
    assert!(
        initial > 3.0 * after,
        "expected sharp drop: initial {initial}, after 20 cycles {after}"
    );
    assert!(after < 3.0, "converged path length {after} should be tiny");
}

#[test]
fn growing_overlay_converges_for_pushpull() {
    let (cc_g, deg_g, _) = converged_metrics(PolicyTriple::newscast(), "growing", 4);
    let (cc_r, deg_r, _) = converged_metrics(PolicyTriple::newscast(), "random", 5);
    assert!(
        (cc_g - cc_r).abs() < 0.08,
        "growing {cc_g} vs random {cc_r}"
    );
    assert!((deg_g - deg_r).abs() < 4.0, "degree {deg_g} vs {deg_r}");
}

#[test]
fn overlays_are_small_world() {
    // Section 8: all overlays are small-world — clustering far above the
    // random baseline, path length close to it.
    let config = ProtocolConfig::new(PolicyTriple::newscast(), C).expect("valid");
    let mut sim = scenario::random_overlay(&config, N, 6);
    sim.run_cycles(CYCLES);
    let g = sim.csr_snapshot().graph().undirected();

    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
    let baseline = pss_graph::gen::uniform_view_digraph(N, C, &mut rng).undirected();

    let cc = clustering::clustering_coefficient(&g);
    let cc_base = clustering::clustering_coefficient(&baseline);
    assert!(
        cc > 2.0 * cc_base,
        "overlay clustering {cc} should exceed baseline {cc_base}"
    );

    let apl = paths::average_path_length(&g).average;
    let apl_base = paths::average_path_length(&baseline).average;
    assert!(
        apl < apl_base + 0.8,
        "overlay path length {apl} should stay near baseline {apl_base}"
    );
}

#[test]
fn degenerate_pull_collapses_to_star() {
    // Section 4.3: (*,*,pull) converges to a star topology.
    let policy: PolicyTriple = "(rand,head,pull)".parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut sim = scenario::random_overlay(&config, 300, 8);
    sim.run_cycles(80);
    let g = sim.csr_snapshot().graph().undirected();
    let hubness = g.max_degree() as f64 / (g.node_count() - 1) as f64;
    assert!(
        hubness > 0.5,
        "pull-only overlay should grow a dominant hub, got {hubness}"
    );
}

#[test]
fn degenerate_tail_view_selection_ignores_joiners() {
    // Section 4.3: (*,tail,*) cannot handle joining nodes.
    let policy: PolicyTriple = "(rand,tail,pushpull)".parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut sim = scenario::random_overlay(&config, 300, 9);
    sim.run_cycles(40);
    let joined_from = sim.node_count();
    sim.add_nodes_with_random_contacts(30, 1);
    sim.run_cycles(20);
    let snap = sim.csr_snapshot();
    let in_degrees = snap.graph().in_degrees();
    let joiner_in: u32 = (joined_from..joined_from + 30)
        .filter_map(|i| snap.index_of(peer_sampling::NodeId::new(i as u64)))
        .map(|idx| in_degrees[idx as usize])
        .sum();
    assert!(
        joiner_in < 30,
        "tail view selection should leave joiners unknown, total in-degree {joiner_in}"
    );
}
