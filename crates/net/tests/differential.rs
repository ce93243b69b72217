//! Differential test: the network runtime over the deterministic in-memory
//! transport, against the event-driven simulator at equal
//! `(latency, loss, period, jitter)`.
//!
//! The two stacks share the protocol state machines but nothing else — the
//! event engine moves `Request`/`Reply` values through event queues, the
//! runtime encodes them through the full wire codec and a transport mesh.
//! Their trajectories cannot be bit-identical (different RNG streams,
//! different scheduling), but the *statistics* of the overlay they build
//! must agree: in-degree mean and standard deviation, tracked over 20
//! gossip periods from the same chain bootstrap. A codec bug (dropped or
//! duplicated descriptors), a timer bug (wrong firing rate), or a loss/
//! latency mismatch all show up here as a diverging in-degree trajectory.

use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_net::{MemNetwork, MemTransport, NetAddr, NetConfig, NetRuntime};
use pss_sim::{CsrSnapshot, EventConfig, LatencyModel, ShardedEventSimulation};

const N: usize = 200;
const C: usize = 15;
const PERIODS: u64 = 20;

fn event_config() -> EventConfig {
    EventConfig {
        period: 1000,
        jitter: 300,
        latency: LatencyModel::Uniform { min: 10, max: 200 },
        loss_probability: 0.05,
    }
}

fn protocol() -> ProtocolConfig {
    ProtocolConfig::new(PolicyTriple::newscast(), C).expect("valid")
}

#[derive(Debug, Clone, Copy)]
struct DegreeStats {
    mean: f64,
    sd: f64,
    full_fraction: f64,
}

fn stats_of(in_degrees: &[u32], out_degrees: impl Iterator<Item = usize>) -> DegreeStats {
    let n = in_degrees.len().max(1) as f64;
    let mean = in_degrees.iter().map(|&d| d as f64).sum::<f64>() / n;
    let var = in_degrees
        .iter()
        .map(|&d| {
            let diff = d as f64 - mean;
            diff * diff
        })
        .sum::<f64>()
        / n;
    let full = out_degrees.filter(|&d| d == C).count() as f64 / n;
    DegreeStats {
        mean,
        sd: var.sqrt(),
        full_fraction: full,
    }
}

/// Event-engine trajectory: per-period in-degree stats, chain bootstrap.
fn event_trajectory(seed: u64) -> Vec<DegreeStats> {
    let mut sim = ShardedEventSimulation::new(protocol(), event_config(), seed, 1).expect("valid");
    sim.add_connected_nodes(N);
    let mut out = Vec::new();
    for _ in 0..PERIODS {
        sim.run_for(event_config().period);
        let csr = sim.csr_snapshot();
        let in_degrees = csr.graph().in_degrees();
        let outs: Vec<usize> = (0..csr.node_count() as u32)
            .map(|v| csr.graph().degree(v))
            .collect();
        out.push(stats_of(&in_degrees, outs.into_iter()));
    }
    out
}

/// Net-runtime trajectory over the in-memory mesh: same chain bootstrap,
/// same `(latency, loss, period, jitter)` — through the real wire codec.
fn net_trajectory(seed: u64) -> (Vec<DegreeStats>, pss_net::RuntimeStats) {
    let net = MemNetwork::from_event(seed ^ 0x6d65_6d6e_6574, &event_config()).expect("valid");
    let transport = net.endpoint();
    let addr = transport.net_addr();
    let mut rt: NetRuntime<MemTransport> =
        NetRuntime::new(transport, NetConfig::from_event(&event_config()), seed).expect("valid");
    for i in 0..N as u64 {
        let node = PeerSamplingNode::with_seed(NodeId::new(i), protocol(), seed ^ (i * 977 + 3));
        let introducers: Vec<(NodeId, NetAddr)> = if i == 0 {
            Vec::new()
        } else {
            vec![(NodeId::new(i - 1), addr)]
        };
        rt.add_node(node, &introducers);
    }
    let mut out = Vec::new();
    for p in 1..=PERIODS {
        rt.run_until(p * event_config().period);
        let mut rows: Vec<(NodeId, Vec<NodeId>)> = Vec::with_capacity(N);
        rt.for_each_live_view(|id, view| rows.push((id, view.ids().collect())));
        rows.sort_by_key(|(id, _)| *id);
        let csr = CsrSnapshot::from_rows(N, &rows);
        let in_degrees = csr.graph().in_degrees();
        let outs: Vec<usize> = rows.iter().map(|(_, targets)| targets.len()).collect();
        out.push(stats_of(&in_degrees, outs.into_iter()));
    }
    (out, rt.stats())
}

#[test]
fn mem_runtime_matches_event_simulation_statistically() {
    let event = event_trajectory(4242);
    let (net, net_stats) = net_trajectory(4242);
    assert_eq!(event.len(), PERIODS as usize);
    assert_eq!(net.len(), PERIODS as usize);

    // The wire path must be clean: every diverging statistic below would
    // otherwise be confounded by codec rejects.
    assert_eq!(net_stats.decode_failures(), 0, "{net_stats:?}");
    assert_eq!(net_stats.missing_address, 0, "{net_stats:?}");

    // Both stacks must converge to full views from the chain bootstrap.
    let last_e = event.last().unwrap();
    let last_n = net.last().unwrap();
    assert!(last_e.full_fraction >= 0.99, "event: {last_e:?}");
    assert!(last_n.full_fraction >= 0.99, "net: {last_n:?}");

    // In-degree mean: identical up to snapshot effects once warm (full
    // views make the mean exactly c on both sides).
    for (p, (e, n)) in event.iter().zip(net.iter()).enumerate().skip(3) {
        assert!(
            (e.mean - n.mean).abs() <= 1.0,
            "period {p}: in-degree means diverged (event {e:?} vs net {n:?})"
        );
    }
    assert!((last_e.mean - C as f64).abs() < 0.2, "event: {last_e:?}");
    assert!((last_n.mean - C as f64).abs() < 0.2, "net: {last_n:?}");

    // In-degree spread: compare the converged tail (averaged over the last
    // five periods to damp single-snapshot noise) within 20%.
    let tail = |t: &[DegreeStats]| {
        let k = t.len() - 5;
        t[k..].iter().map(|s| s.sd).sum::<f64>() / 5.0
    };
    let (sd_e, sd_n) = (tail(&event), tail(&net));
    let ratio = sd_n / sd_e;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "converged in-degree σ diverged: event {sd_e:.3} vs net {sd_n:.3} (ratio {ratio:.3})"
    );
}

#[test]
fn net_trajectory_is_deterministic() {
    // The mesh + runtime pair is seeded end to end; the whole trajectory
    // (overlay statistics and frame counts) must reproduce exactly.
    let (a, stats_a) = net_trajectory(777);
    let (b, stats_b) = net_trajectory(777);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        assert_eq!(x.sd.to_bits(), y.sd.to_bits());
    }
    assert_eq!(stats_a, stats_b);
}
