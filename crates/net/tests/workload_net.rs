//! Workload conformance across the simulated ↔ deployed gap.
//!
//! The acceptance pin: the *same* compiled workload — catastrophic 50%
//! kill at period 10, 1%/period churn thereafter — runs on the sharded
//! event engine and on a two-runtime mem cluster (the deployed runtime
//! over the in-memory mesh, in virtual time), and their recovery
//! trajectories agree statistically (post-recovery in-degree means within
//! 1.0, both ≥ 99% full views by the pinned period). Bit-determinism of
//! the mem cluster under workloads is pinned separately by digest in
//! `pss_net::cluster`'s unit tests.
//!
//! Plus the leave/late-join runtime coverage: counters stay consistent
//! under load (zero decode failures, bounded timeouts) and the address
//! book drops departed ids and learns arrived ones.

use pss_core::{NodeId, PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_net::cluster::{self, ClusterConfig};
use pss_net::{MemNetwork, MemTransport, NetConfig, NetRuntime};
use pss_sim::workload::{run_workload, Workload};
use pss_sim::{scenario, EventConfig, LatencyModel, ShardedEventSimulation};

const N: usize = 128;
const C: usize = 15;

/// The acceptance schedule: converge for 10 periods, kill 50%, then churn
/// at 1%/period for 20 periods.
fn acceptance_workload() -> Workload {
    Workload::parse("quiet:10,kill:0.5,churn:0.01x20", 42).expect("valid schedule")
}

#[test]
fn acceptance_schedule_agrees_between_event_engine_and_mem_cluster() {
    let workload = acceptance_workload();
    let compiled = workload.compile(N);

    // Event engine: virtual time, jitter + latency + loss on.
    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), C).expect("valid");
    let event_config = EventConfig {
        period: 100,
        jitter: 20,
        latency: LatencyModel::Uniform { min: 1, max: 20 },
        loss_probability: 0.02,
    };
    let mut sim =
        ShardedEventSimulation::new(protocol.clone(), event_config, 11, 2).expect("valid");
    scenario::seed_tree(&mut sim, N);
    let event_records = run_workload(&mut sim, &compiled, C);

    // Mem cluster: the same compiled schedule, virtual-time driven.
    let config = ClusterConfig {
        nodes: N,
        runtimes: 2,
        protocol,
        period_ms: 100,
        jitter_ms: 20,
        periods: 0, // overridden by the workload
        introducers: 3,
        seed: 20040601,
        workload: Some(workload),
        honest_policy: None,
        broadcast: None,
    };
    let net = MemNetwork::new(config.seed, LatencyModel::Uniform { min: 1, max: 10 }, 0.0)
        .expect("valid");
    let report = cluster::run_mem(&config, &net).expect("cluster runs");
    let net_records = &report.records;

    assert_eq!(event_records.len(), compiled.periods() as usize);
    assert_eq!(net_records.len(), compiled.periods() as usize);
    assert_eq!(report.stats.decode_failures(), 0, "{:?}", report.stats);

    // Identical membership trajectory on both stacks.
    for (e, n) in event_records.iter().zip(net_records.iter()) {
        assert_eq!(
            (e.live, e.killed, e.joined),
            (n.live, n.killed, n.joined),
            "membership diverged at period {}",
            e.period
        );
    }

    // Both converged before the kill, and the kill bit both.
    assert!(
        event_records[9].full_fraction() >= 0.99,
        "{:?}",
        event_records[9]
    );
    assert!(
        net_records[9].full_fraction() >= 0.99,
        "{:?}",
        net_records[9]
    );
    assert!(event_records[10].dead_link_fraction() >= 0.3);
    assert!(net_records[10].dead_link_fraction() >= 0.3);

    // Recovery: ≥99% full views by the pinned period on both stacks, and
    // post-recovery in-degree means within 1.0 of each other.
    const RECOVERED_BY: usize = 25;
    let e = &event_records[RECOVERED_BY - 1];
    let n = &net_records[RECOVERED_BY - 1];
    assert!(e.full_fraction() >= 0.99, "event not recovered: {e:?}");
    assert!(n.full_fraction() >= 0.99, "net not recovered: {n:?}");
    for p in RECOVERED_BY..compiled.periods() as usize {
        let (e, n) = (&event_records[p], &net_records[p]);
        assert!(
            (e.in_degree_mean - n.in_degree_mean).abs() <= 1.0,
            "period {}: in-degree means diverged (event {e:?} vs net {n:?})",
            p + 1
        );
    }
    // Self-healing on the deployed stack: dead links decayed, one live
    // component.
    let last = net_records.last().unwrap();
    assert!(last.dead_link_fraction() <= 0.08, "{last:?}");
    assert!(last.component_fraction() >= 0.98, "{last:?}");
}

/// Satellite coverage: `NetRuntime::leave` plus late `add_node` under
/// sustained load, across two runtimes on the deterministic mesh.
#[test]
fn leave_and_late_add_keep_counters_and_book_consistent() {
    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
    let net = MemNetwork::new(17, LatencyModel::Uniform { min: 1, max: 8 }, 0.0).expect("valid");
    let config = NetConfig {
        period: 100,
        jitter: 20,
    };
    let ta = net.endpoint();
    let tb = net.endpoint();
    let (addr_a, addr_b) = (ta.net_addr(), tb.net_addr());
    let mut a: NetRuntime<MemTransport> = NetRuntime::new(ta, config, 1).expect("valid");
    let mut b: NetRuntime<MemTransport> = NetRuntime::new(tb, config, 2).expect("valid");

    // 20 nodes on A, 20 on B, tree-bootstrapped across the runtimes.
    let node = |i: u64| PeerSamplingNode::with_seed(NodeId::new(i), protocol.clone(), i * 131 + 7);
    let addr_of = |i: u64| if i < 20 { addr_a } else { addr_b };
    for i in 0..40u64 {
        let introducers: Vec<(NodeId, pss_net::NetAddr)> = if i == 0 {
            Vec::new()
        } else {
            vec![(NodeId::new(i / 2), addr_of(i / 2))]
        };
        if i < 20 {
            a.add_node(node(i), &introducers);
        } else {
            b.add_node(node(i), &introducers);
        }
    }
    let drive = |a: &mut NetRuntime<MemTransport>, b: &mut NetRuntime<MemTransport>, to: u64| {
        // Lock-step ticks keep the mesh deterministic and both runtimes
        // under continuous load.
        let now = a.now();
        for t in now + 1..=to {
            a.run_until(t);
            b.run_until(t);
        }
    };
    drive(&mut a, &mut b, 1000);
    assert!(a.stats().requests_in > 0 && b.stats().requests_in > 0);

    // Graceful leaves on A while traffic keeps flowing.
    for i in [3u64, 7, 11] {
        assert!(a.leave(NodeId::new(i)));
        // The book drops the departed id immediately…
        assert_eq!(a.address_of(NodeId::new(i)), None, "book kept node {i}");
    }
    assert_eq!(a.alive_count(), 17);

    // …and a late joiner lands on B under load, introduced to an A node.
    let joiner = NodeId::new(40);
    b.add_node(node(40), &[(NodeId::new(0), addr_a)]);
    drive(&mut a, &mut b, 3000);

    // The arrived id's address is learned across the cluster (A hears
    // about node 40 through gossiped descriptors and its frames).
    assert_eq!(b.address_of(joiner), Some(addr_b));
    assert_eq!(
        a.address_of(joiner),
        Some(addr_b),
        "A never learned the joiner"
    );
    // The joiner integrated: full-ish view, and somebody points back.
    assert!(b.view_of(joiner).unwrap().len() >= 4);

    // Counters stayed consistent under leave + late join: the wire path
    // is clean, sends never lacked an address, and timeouts (peers gossip
    // at the departed trio until healed) stay bounded well below the
    // exchange volume.
    for (name, stats) in [("A", a.stats()), ("B", b.stats())] {
        assert_eq!(stats.decode_failures(), 0, "{name}: {stats:?}");
        assert_eq!(stats.missing_address, 0, "{name}: {stats:?}");
        assert_eq!(stats.send_failures, 0, "{name}: {stats:?}");
        assert!(
            stats.timeouts < stats.timers_fired / 4,
            "{name}: timeouts unbounded: {stats:?}"
        );
    }
    // Frames to the departed nodes were dropped as dead deliveries, not
    // errors.
    assert!(a.stats().dead_deliveries > 0);
}
