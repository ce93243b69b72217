//! `pss_net_decode_ns` samples one received frame in 64, chosen by arrival
//! count alone: on a clean mesh run, where every frame decodes and reaches
//! a live node, the histogram holds exactly one observation per 64 frames
//! in (the first frame included), and it is never empty. This binary holds
//! one test, so no other runtime in the process writes the shared cells.

use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_net::{MemNetwork, NetAddr, NetConfig, NetRuntime};
use pss_sim::LatencyModel;

fn decode_observations() -> u64 {
    pss_telemetry::global()
        .rows()
        .iter()
        .filter(|row| row.name == "pss_net_decode_ns")
        .map(|row| row.value)
        .sum()
}

#[test]
fn one_frame_in_64_is_timed() {
    let net = MemNetwork::new(7, LatencyModel::Uniform { min: 1, max: 20 }, 0.0).unwrap();
    let transport = net.endpoint();
    let addr = transport.net_addr();
    let config = NetConfig {
        period: 100,
        jitter: 10,
    };
    let mut rt = NetRuntime::new(transport, config, 5).unwrap();
    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
    for i in 0..32u64 {
        let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
            Vec::new()
        } else {
            vec![(NodeId::new(i - 1), addr)]
        };
        let node = PeerSamplingNode::with_seed(NodeId::new(i), protocol.clone(), i * 31 + 5);
        rt.add_node(node, &introducers);
    }
    assert_eq!(decode_observations(), 0);
    rt.run_until(1);
    for period in 1..=20 {
        rt.run_until(period * config.period);
        let stats = rt.stats();
        assert_eq!(stats.decode_failures() + stats.dead_deliveries, 0);
        assert_eq!(stats.unknown_destination, 0);
        assert_eq!(
            decode_observations(),
            stats.frames_in.div_ceil(64),
            "{stats:?}"
        );
    }
    assert!(decode_observations() >= 16, "{:?}", rt.stats());
}
