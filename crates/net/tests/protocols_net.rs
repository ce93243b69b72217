//! Application traffic on the deployed stack: the broadcast storm that
//! `pss-protocols` runs over the simulators here rides real wire frames —
//! rumor pushes are [`pss_core::wire::FrameKind::App`] frames interleaved
//! with the gossip exchanges on the same codec. The cluster is the mem
//! cluster ([`cluster::run_mem`]): the deployed runtime over the in-memory
//! mesh, in virtual time, so every run is reproducible per seed.
//!
//! The acceptance pin: a ≥128-node cluster floods the rumor to
//! ≥ 99% of live nodes with zero codec errors. A second run layers the
//! storm over a kill + churn schedule: deliveries at departed nodes are
//! counted (`app_wasted`), joiners enter uninformed, and the rumor still
//! reaches essentially every survivor.

use pss_core::{NodeId, PolicyTriple, ProtocolConfig};
use pss_net::cluster::{self, ClusterBroadcast, ClusterConfig, ClusterReport};
use pss_net::MemNetwork;
use pss_sim::workload::Workload;
use pss_sim::LatencyModel;

const N: usize = 128;
const C: usize = 20;

fn base_config() -> ClusterConfig {
    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), C).expect("valid");
    ClusterConfig {
        nodes: N,
        runtimes: 2,
        protocol,
        period_ms: 100,
        jitter_ms: 20,
        periods: 20,
        introducers: 3,
        seed: 20040601,
        workload: None,
        honest_policy: None,
        broadcast: Some(ClusterBroadcast {
            origin: NodeId::new(1),
            fanout: 2,
            start_period: 8,
        }),
    }
}

fn run(config: &ClusterConfig) -> ClusterReport {
    let net = MemNetwork::new(config.seed, LatencyModel::Uniform { min: 1, max: 10 }, 0.0)
        .expect("valid");
    cluster::run_mem(config, &net).expect("cluster runs")
}

#[test]
fn mem_cluster_broadcast_reaches_all_live_nodes_with_clean_codec() {
    let report = run(&base_config());
    assert_eq!(report.broadcast.len(), 20);
    // Nothing is informed before the seed period.
    assert!(report
        .broadcast
        .iter()
        .take_while(|b| b.period < 8)
        .all(|b| b.informed == 0));
    let last = report.broadcast.last().unwrap();
    assert_eq!(last.live, N);
    assert!(
        report.broadcast_coverage() >= 0.99,
        "rumor reached only {}/{} live nodes",
        last.informed,
        last.live
    );
    let stats = &report.stats;
    assert_eq!(stats.decode_failures(), 0, "{stats:?}");
    // Everyone but the origin was informed by a real frame, and the storm
    // kept pushing after saturation.
    assert!(
        stats.app_delivered >= (N as u64) * 99 / 100 - 1,
        "{stats:?}"
    );
    assert!(stats.app_redundant > 0, "{stats:?}");
}

#[test]
fn mem_cluster_broadcast_survives_kill_and_churn() {
    let mut config = base_config();
    // Converge 8 periods, kill 20%, then 1%/period churn for 12: the storm
    // starts two periods before the catastrophe, so informed nodes die and
    // stale views waste pushes on them, while joiners arrive uninformed.
    config.workload = Some(Workload::parse("quiet:8,kill:0.2,churn:0.01x12", 9).unwrap());
    config.broadcast = Some(ClusterBroadcast {
        origin: NodeId::new(1),
        fanout: 2,
        start_period: 6,
    });
    let report = run(&config);
    let last = report.broadcast.last().unwrap();
    assert!(last.live < N, "the kill must have landed");
    assert_eq!(last.live, report.records.last().unwrap().live);
    assert!(
        report.broadcast_coverage() >= 0.95,
        "rumor reached only {}/{} live nodes",
        last.informed,
        last.live
    );
    let stats = &report.stats;
    assert_eq!(stats.decode_failures(), 0, "{stats:?}");
    assert!(
        stats.app_wasted > 0,
        "pushes at killed informed nodes never surfaced: {stats:?}"
    );
}
