//! Adversarial behavior on the deployed stack: the runtime's hardening
//! counters (address-book rebind rejection, reply-source validation) under
//! hand-forged frames, and the headline Byzantine result reproduced on the
//! deployed stack — a mem cluster ([`cluster::run_mem`], the runtime over
//! the in-memory mesh in virtual time) where hub attackers skew in-degree
//! under newscast while the H&S swapper policy bounds the capture, with
//! zero codec errors.

use pss_core::hs::{HsConfig, HsPeerSelection};
use pss_core::wire::{self, FrameKind};
use pss_core::{NodeDescriptor, NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_net::cluster::{self, ClusterConfig};
use pss_net::{MemNetwork, NetConfig, NetRuntime, Transport};
use pss_sim::audit::HonestPolicy;
use pss_sim::workload::Workload;
use pss_sim::LatencyModel;

fn protocol(c: usize) -> ProtocolConfig {
    ProtocolConfig::new(PolicyTriple::newscast(), c).unwrap()
}

fn net_config() -> NetConfig {
    NetConfig {
        period: 100,
        jitter: 10,
    }
}

/// A forged-src frame may introduce an unknown id's address but must never
/// rebind an established entry — one spoofed header cannot redirect an
/// established peer's traffic.
#[test]
fn forged_src_frame_cannot_rebind_an_established_address() {
    let net = MemNetwork::new(11, LatencyModel::Uniform { min: 1, max: 1 }, 0.0).unwrap();
    let honest_endpoint = net.endpoint();
    let honest_addr = honest_endpoint.net_addr();
    let peer_addr = net.endpoint().net_addr();
    let mut attacker = net.endpoint();
    let attacker_addr = attacker.net_addr();

    let mut rt = NetRuntime::new(honest_endpoint, net_config(), 3).unwrap();
    // Node 1 is introduced to peer 2 at `peer_addr` — the established entry.
    let node = PeerSamplingNode::with_seed(NodeId::new(1), protocol(8), 5);
    rt.add_node(node, &[(NodeId::new(2), peer_addr)]);
    assert_eq!(rt.address_of(NodeId::new(2)), Some(peer_addr));

    // The attacker claims to BE peer 2, sending from its own address.
    let mut buf = Vec::new();
    wire::encode(
        &mut buf,
        FrameKind::Request,
        false,
        NodeId::new(2),
        NodeId::new(1),
        attacker_addr,
        &[],
        |_| None,
    )
    .unwrap();
    assert!(attacker.send(honest_addr, &buf));
    rt.run_until(rt.now() + 5);

    // The established binding survives; the spoof is counted, not obeyed.
    assert_eq!(rt.address_of(NodeId::new(2)), Some(peer_addr));
    let stats = rt.stats();
    assert_eq!(stats.addr_rebinds_rejected, 1, "{stats:?}");

    // A frame from a genuinely unknown id still introduces its address.
    let mut buf = Vec::new();
    wire::encode(
        &mut buf,
        FrameKind::Request,
        false,
        NodeId::new(77),
        NodeId::new(1),
        attacker_addr,
        &[],
        |_| None,
    )
    .unwrap();
    assert!(attacker.send(honest_addr, &buf));
    rt.run_until(rt.now() + 5);
    assert_eq!(rt.address_of(NodeId::new(77)), Some(attacker_addr));
    assert_eq!(rt.stats().addr_rebinds_rejected, 1);
}

/// Replies are only absorbed from the exact peer a node has a pending
/// exchange with: a blind-fired reply frame cannot inject view content.
#[test]
fn unsolicited_reply_is_rejected_and_counted() {
    let net = MemNetwork::new(13, LatencyModel::Uniform { min: 1, max: 1 }, 0.0).unwrap();
    let honest_endpoint = net.endpoint();
    let honest_addr = honest_endpoint.net_addr();
    let mut attacker = net.endpoint();
    let attacker_addr = attacker.net_addr();

    let mut rt = NetRuntime::new(honest_endpoint, net_config(), 3).unwrap();
    let node = PeerSamplingNode::with_seed(NodeId::new(1), protocol(8), 5);
    rt.add_node(node, &[(NodeId::new(2), attacker_addr)]);

    // Node 1 has no pending exchange with id 99; fire a forged reply
    // carrying colluder descriptors.
    let colluders = [
        NodeDescriptor::fresh(NodeId::new(99)),
        NodeDescriptor::fresh(NodeId::new(98)),
    ];
    let mut buf = Vec::new();
    wire::encode(
        &mut buf,
        FrameKind::Reply,
        false,
        NodeId::new(99),
        NodeId::new(1),
        attacker_addr,
        &colluders,
        |_| Some(attacker_addr),
    )
    .unwrap();
    assert!(attacker.send(honest_addr, &buf));
    rt.run_until(rt.now() + 5);

    let stats = rt.stats();
    assert_eq!(stats.forged_replies_rejected, 1, "{stats:?}");
    assert_eq!(stats.replies_in, 0, "{stats:?}");
    let view = rt.view_of(NodeId::new(1)).unwrap();
    assert!(
        !view.contains(NodeId::new(99)) && !view.contains(NodeId::new(98)),
        "forged reply content reached the view"
    );
}

/// The headline Byzantine result on the deployed stack: a 128-node
/// two-runtime mem cluster with ~2 % hub attackers. Under newscast the
/// colluders capture in-degree far beyond their share; under the H&S
/// swapper policy the capture is measurably bounded. Codec stays clean
/// under attack traffic on both runs.
#[test]
fn mem_cluster_hub_attack_skews_newscast_and_swapper_bounds_it() {
    const C: usize = 15;
    let run_policy = |honest_policy: Option<HonestPolicy>| {
        let config = ClusterConfig {
            nodes: 128,
            runtimes: 2,
            protocol: protocol(C),
            period_ms: 100,
            jitter_ms: 20,
            periods: 0, // overridden by the workload
            introducers: 3,
            seed: 20040601,
            workload: Some(Workload::parse("adv:hub@0.02,quiet:20", 7).unwrap()),
            honest_policy,
            broadcast: None,
        };
        let net =
            MemNetwork::new(config.seed, LatencyModel::Uniform { min: 1, max: 10 }, 0.0).unwrap();
        cluster::run_mem(&config, &net).expect("cluster runs")
    };

    let news = run_policy(None);
    let swap = run_policy(Some(HonestPolicy::Hs(
        HsConfig::new(C, 0, C / 2, HsPeerSelection::Rand).unwrap(),
    )));

    let news_final = news.attack_records.last().expect("attacked run audited");
    let swap_final = swap.attack_records.last().expect("attacked run audited");
    eprintln!(
        "mem newscast: skew {:.2} edge {:.3} | mem swapper: skew {:.2} edge {:.3}",
        news_final.skew(),
        news_final.attacker_edge_fraction,
        swap_final.skew(),
        swap_final.attacker_edge_fraction,
    );

    // Attackers are ~2 % of the population; clean skew would be ≈ 1.
    assert!(
        news_final.skew() >= 2.5,
        "hub attackers failed to capture the mem cluster: {news_final:?}"
    );
    assert!(
        swap_final.skew() <= news_final.skew() * 0.6,
        "swapper did not bound the capture: {swap_final:?} vs {news_final:?}"
    );
    // Beyond the skew, the structural claims must hold:
    // honest overlay intact, codec clean, and attack frames all decoded.
    assert!(
        news_final.honest_component_fraction() >= 0.75,
        "{news_final:?}"
    );
    assert!(
        swap_final.honest_component_fraction() >= 0.95,
        "{swap_final:?}"
    );
    assert_eq!(news.stats.decode_failures(), 0, "{:?}", news.stats);
    assert_eq!(swap.stats.decode_failures(), 0, "{:?}", swap.stats);
}
