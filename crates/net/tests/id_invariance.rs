//! No trajectory of the runtime depends on the values of node ids: the
//! same mesh runtime, run once over ids `0..N` and once over scattered
//! ids σ(i) near the top of the id space, must produce σ-mapped views and
//! equal counters. The first run keeps every id small and contiguous, the
//! second spreads them over the whole upper half of `u64`, so any lookup
//! structure keyed by id takes a different path in each run while the
//! frame order, RNG draws and counters must not change.

use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_net::{MemNetwork, NetAddr, NetConfig, NetRuntime, RuntimeStats};
use pss_sim::LatencyModel;

const NODES: u64 = 48;

/// A splitmix64 finalizer: a bijection on `u64`, so σ is injective on the
/// low 63 bits it keeps.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn scattered(i: u64) -> u64 {
    mix(i) | 1 << 63
}

/// Runs one chain-bootstrapped mesh runtime over ids `id(0..NODES)` and
/// returns every live view, as `(hop count, id)` in view order, with the
/// runtime's counters.
fn run(policy: PolicyTriple, id: impl Fn(u64) -> u64) -> (Vec<Vec<(u32, u64)>>, RuntimeStats) {
    let net = MemNetwork::new(77, LatencyModel::Uniform { min: 1, max: 20 }, 0.05).unwrap();
    let transport = net.endpoint();
    let addr = transport.net_addr();
    let config = NetConfig {
        period: 100,
        jitter: 10,
    };
    let mut rt = NetRuntime::new(transport, config, 5).unwrap();
    let protocol = ProtocolConfig::new(policy, 8).unwrap();
    for i in 0..NODES {
        let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
            Vec::new()
        } else {
            vec![(NodeId::new(id(i - 1)), addr)]
        };
        let node = PeerSamplingNode::with_seed(NodeId::new(id(i)), protocol.clone(), i * 31 + 5);
        rt.add_node(node, &introducers);
    }
    rt.run_until(30 * config.period);
    let mut views = Vec::new();
    rt.for_each_live_view(|_, view| {
        views.push(
            view.iter()
                .map(|d| (d.hop_count(), d.id().as_u64()))
                .collect(),
        );
    });
    (views, rt.stats())
}

#[test]
fn scattered_ids_give_the_sigma_mapped_trajectory() {
    let ids: std::collections::HashSet<u64> = (0..NODES).map(scattered).collect();
    assert_eq!(ids.len(), NODES as usize, "σ must be injective");
    for policy in [
        PolicyTriple::newscast(),
        "(rand,rand,pushpull)".parse().unwrap(),
        "(rand,rand,push)".parse().unwrap(),
    ] {
        let (dense_views, dense_stats) = run(policy, |i| i);
        let (sparse_views, sparse_stats) = run(policy, scattered);
        assert_eq!(dense_stats, sparse_stats, "{policy}");
        assert!(dense_stats.exchanges_completed > 0, "{dense_stats:?}");
        let mapped: Vec<Vec<(u32, u64)>> = dense_views
            .iter()
            .map(|view| view.iter().map(|&(hop, id)| (hop, scattered(id))).collect())
            .collect();
        assert_eq!(mapped, sparse_views, "{policy}");
    }
}
