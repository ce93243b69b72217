//! Cross-crate integration: Section 7's self-healing results at small
//! scale — head view selection heals exponentially, rand barely heals, and
//! converged overlays survive massive removal (Figure 6).

use peer_sampling::sim::LatencyModel;
use peer_sampling::{scenario, EventConfig, PolicyTriple, ProtocolConfig, ShardedEventSimulation};
use pss_graph::components::connected_components;

const N: usize = 800;
const C: usize = 20;

fn converged(
    policy: &str,
    seed: u64,
) -> peer_sampling::ShardedSimulation<peer_sampling::PeerSamplingNode> {
    let policy: PolicyTriple = policy.parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut sim = scenario::random_overlay(&config, N, seed);
    sim.run_cycles(60);
    sim
}

#[test]
fn head_view_selection_heals_exponentially() {
    let mut sim = converged("(rand,head,pushpull)", 1);
    sim.kill_random_fraction(0.5);
    let initial = sim.dead_link_count();
    assert!(initial > N, "expected substantial damage, got {initial}");
    // Exponential healing: gone (or nearly) within 15 cycles.
    sim.run_cycles(15);
    let remaining = sim.dead_link_count();
    assert!(
        remaining <= initial / 50,
        "head selection should heal fast: {remaining} of {initial} left"
    );
    sim.run_cycles(15);
    assert_eq!(sim.dead_link_count(), 0, "head selection heals completely");
}

#[test]
fn tail_peer_selection_overlaps_rand_for_pushpull_healing() {
    // Figure 7: "(∗,head,pushpull) protocols fully overlap".
    let mut a = converged("(rand,head,pushpull)", 2);
    let mut b = converged("(tail,head,pushpull)", 3);
    a.kill_random_fraction(0.5);
    b.kill_random_fraction(0.5);
    a.run_cycles(30);
    b.run_cycles(30);
    assert_eq!(a.dead_link_count(), 0);
    assert_eq!(b.dead_link_count(), 0);
}

#[test]
fn rand_view_selection_heals_slowly_at_best() {
    let mut sim = converged("(rand,rand,pushpull)", 4);
    sim.kill_random_fraction(0.5);
    let initial = sim.dead_link_count();
    sim.run_cycles(30);
    let remaining = sim.dead_link_count();
    assert!(
        remaining > initial / 3,
        "rand selection should retain most dead links: {remaining} of {initial}"
    );
}

#[test]
fn surviving_half_stays_connected() {
    // Section 7: after killing 50% "we did not observe partitioning with
    // any of the protocols".
    for policy in ["(rand,head,pushpull)", "(rand,rand,pushpull)"] {
        let mut sim = converged(policy, 5);
        sim.kill_random_fraction(0.5);
        sim.run_cycles(5);
        let g = sim.csr_snapshot().graph().undirected();
        assert!(
            pss_graph::components::connected_components(&g).is_connected(),
            "{policy}: survivors should stay connected"
        );
    }
}

#[test]
fn massive_removal_keeps_one_dominant_cluster() {
    // Figure 6: even when partitioning occurs, "most of the nodes form a
    // single large connected cluster".
    let sim = converged("(rand,head,pushpull)", 6);
    let graph = sim.csr_snapshot().graph().undirected();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
    use rand::seq::SliceRandom;

    for percent in [50usize, 65, 80] {
        let mut order: Vec<usize> = (0..N).collect();
        order.shuffle(&mut rng);
        let mut keep = vec![true; N];
        for &v in order.iter().take(N * percent / 100) {
            keep[v] = false;
        }
        let sub = graph.induced_subgraph(&keep);
        let report = connected_components(&sub);
        let survivors = sub.node_count();
        assert!(
            report.largest() * 100 >= survivors * 95,
            "{percent}% removal: largest cluster {} of {survivors}",
            report.largest()
        );
    }
}

#[test]
fn head_view_selection_heals_on_the_event_engine() {
    // The same catastrophe bounds on the event engine — jitter, latency
    // and loss on, two shards — guarding the schedule path against
    // regression. The event engine is liveness-blind (it may select a dead
    // peer), so healing takes more periods than the cycle model; the decay
    // is still exponential.
    let policy: PolicyTriple = "(rand,head,pushpull)".parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let event = EventConfig {
        period: 1000,
        jitter: 300,
        latency: LatencyModel::Uniform { min: 10, max: 200 },
        loss_probability: 0.05,
    };
    let mut sim = ShardedEventSimulation::new(config, event, 61, 2).expect("valid");
    scenario::seed_tree(&mut sim, N);
    sim.run_cycles(30);
    let victims = sim.kill_random(sim.alive_count() / 2);
    assert_eq!(victims.len(), N / 2);
    let initial = sim.dead_link_count();
    assert!(initial > N, "expected substantial damage, got {initial}");
    sim.run_cycles(30);
    let remaining = sim.dead_link_count();
    assert!(
        remaining <= initial / 20,
        "head selection should heal fast: {remaining} of {initial} left after 30 periods"
    );
}

#[test]
fn tail_selection_wedges_without_live_peer_selection() {
    // The extension finding: without the paper's live-peer selection,
    // tail peer selection wedges on dead entries and healing stalls. The
    // cycle engine selects only live peers and heals fully; the event
    // engine is liveness-blind, so a node whose stalest entry is dead
    // keeps sending to it.
    let policy: PolicyTriple = "(tail,head,pushpull)".parse().expect("valid");
    let config = ProtocolConfig::new(policy, C).expect("valid");
    let mut skip = scenario::random_overlay(&config, N, 8);
    skip.run_cycles(60);
    skip.kill_random_fraction(0.5);
    skip.run_cycles(40);
    assert_eq!(skip.dead_link_count(), 0, "paper model heals fully");
    let mut blind =
        scenario::event_random_overlay_sharded(&config, EventConfig::default(), N, 8, 1)
            .expect("valid");
    blind.run_cycles(60);
    blind.kill_random_fraction(0.5);
    blind.run_cycles(40);
    assert!(
        blind.dead_link_count() > 100,
        "liveness-blind tail selection should stall with dead links, got {}",
        blind.dead_link_count()
    );
}
