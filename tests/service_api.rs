//! Cross-crate integration: the peer sampling service API (Section 2) and
//! the H&S extension running under the standard simulator.

use peer_sampling::{
    GossipNode, NodeDescriptor, NodeId, OracleSampler, PeerSampler, PeerSamplingNode, PolicyTriple,
    ProtocolConfig,
};
use pss_core::hs::{HsConfig, HsNode, HsPeerSelection};
use pss_sim::{scenario, ShardedSimulation};
use std::collections::HashSet;

#[test]
fn get_peer_returns_group_members_only() {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 20).expect("valid");
    let mut sim = scenario::random_overlay(&config, 200, 1);
    sim.run_cycles(20);
    for caller in [0u64, 50, 199] {
        let caller = NodeId::new(caller);
        for _ in 0..30 {
            let peer = sim.get_peer(caller).expect("converged view is non-empty");
            assert_ne!(peer, caller, "getPeer must not return the caller");
            assert!(peer.as_u64() < 200);
        }
    }
}

#[test]
fn gossip_sampler_covers_the_whole_group_over_time() {
    // Unlike a static partial view, the *service* over a gossiping view
    // reaches far beyond c distinct peers across calls.
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).expect("valid");
    let mut sim = scenario::random_overlay(&config, 150, 2);
    sim.run_cycles(10);
    let mut seen = HashSet::new();
    for _ in 0..40 {
        sim.run_cycle();
        for _ in 0..5 {
            seen.insert(sim.get_peer(NodeId::new(0)).expect("non-empty"));
        }
    }
    assert!(
        seen.len() > 60,
        "a gossiping view should expose many distinct peers, saw {}",
        seen.len()
    );
}

#[test]
fn oracle_and_gossip_samplers_are_interchangeable() {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 10).expect("valid");
    let mut samplers: Vec<Box<dyn PeerSampler>> = vec![
        Box::new(OracleSampler::new(NodeId::new(0), 3)),
        Box::new(PeerSamplingNode::with_seed(NodeId::new(0), config, 4)),
    ];
    for sampler in &mut samplers {
        sampler.init(&mut (1..=5u64).map(|i| NodeDescriptor::fresh(NodeId::new(i))));
        let peer = sampler.get_peer().expect("five candidates");
        assert!((1..=5).contains(&peer.as_u64()));
    }
}

#[test]
fn hs_nodes_run_under_the_standard_simulator() {
    // The healer/swapper extension plugs into the same driver.
    let hs = HsConfig::new(20, 3, 2, HsPeerSelection::Rand).expect("valid");
    let mut sim = ShardedSimulation::with_factory(7, 1, move |id, seed| {
        Box::new(HsNode::with_seed(id, hs, seed)) as pss_sim::BoxedNode
    });
    let first = sim.add_node([]);
    for i in 1..300u64 {
        sim.add_node([
            NodeDescriptor::fresh(NodeId::new(i / 2)),
            NodeDescriptor::fresh(first),
        ]);
    }
    sim.run_cycles(40);
    let g = sim.csr_snapshot().graph().undirected();
    assert!(pss_graph::components::connected_components(&g).is_connected());
    // H&S sends half-views, so degrees stay near 2c like the base protocol.
    assert!(g.average_degree() > 20.0, "degree {}", g.average_degree());

    // Healer removes dead links fast.
    sim.kill_random_fraction(0.5);
    let initial = sim.dead_link_count();
    sim.run_cycles(25);
    assert!(
        sim.dead_link_count() < initial / 5,
        "H=3 should heal most dead links: {} of {initial} left",
        sim.dead_link_count()
    );
}

#[test]
fn mixed_node_types_interoperate() {
    // A population mixing the generic protocol and H&S nodes still forms
    // one connected overlay: the wire format is shared.
    let base = ProtocolConfig::new(PolicyTriple::newscast(), 16).expect("valid");
    let hs = HsConfig::new(16, 2, 2, HsPeerSelection::Rand).expect("valid");
    let mut sim = ShardedSimulation::with_factory(9, 1, move |id, seed| {
        if id.as_u64() % 2 == 0 {
            Box::new(PeerSamplingNode::with_seed(id, base.clone(), seed)) as pss_sim::BoxedNode
        } else {
            Box::new(HsNode::with_seed(id, hs, seed)) as pss_sim::BoxedNode
        }
    });
    scenario::seed_tree(&mut sim, 200);
    sim.run_cycles(40);
    let g = sim.csr_snapshot().graph().undirected();
    assert!(pss_graph::components::connected_components(&g).is_connected());
}

#[test]
fn reinitialization_resets_the_view() {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 10).expect("valid");
    let mut node = PeerSamplingNode::with_seed(NodeId::new(0), config, 5);
    node.init([NodeDescriptor::fresh(NodeId::new(1))]);
    assert!(node.view().contains(NodeId::new(1)));
    GossipNode::init(
        &mut node,
        &mut [NodeDescriptor::fresh(NodeId::new(2))].into_iter(),
    );
    assert!(!node.view().contains(NodeId::new(1)));
    assert!(node.view().contains(NodeId::new(2)));
}
