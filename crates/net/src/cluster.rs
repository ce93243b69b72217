//! Loopback cluster harness: N nodes across K runtime threads on UDP.
//!
//! [`run`] binds one [`UdpTransport`] per runtime on `127.0.0.1:0`, splits
//! the node population into contiguous id ranges (the sharded engines'
//! placement), bootstraps every node off earlier nodes (a tree plus random
//! extra introducers, the join pattern of the simulators' churn scenarios),
//! and drives all runtimes against the shared wall clock — 1 tick = 1 ms.
//!
//! At every period boundary each runtime thread snapshots its nodes' views
//! and sends them to the driver, which assembles the global overlay into a
//! [`pss_sim::CsrSnapshot`] — the same CSR metrics path the simulators use
//! — and records in-degree statistics plus the full-view fraction. Threads
//! realign on a barrier per period so snapshot skew stays bounded by the
//! slowest runtime, not the full run.
//!
//! # Workload schedules
//!
//! A [`ClusterConfig::workload`] compiles a
//! [`pss_sim::workload::Workload`] against the initial population and
//! executes every membership event at the matching period boundary:
//! kills become [`NetRuntime::leave`] on the hosting runtime, joins become
//! late [`NetRuntime::add_node`] calls with resolved introducer addresses
//! (initial ids stay on their contiguous range; joined ids land on runtime
//! `id mod K`), and partition ops install the same loss matrix on *every*
//! runtime. The driver reduces each period's assembled rows to the same
//! [`pss_sim::workload::PeriodRecord`]s the simulators report, so one
//! schedule yields directly comparable recovery trajectories on the
//! simulated and the deployed stack — the conformance suite pins exactly
//! that.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pss_core::adversary::AdversaryKind;
use pss_core::wire::NetAddr;
use pss_core::{NodeId, ProtocolConfig};
use pss_sim::audit::{audit_rows, role_factory, AttackRecord, HonestPolicy};
use pss_sim::workload::{self, CompiledWorkload, Op, Partition, PeriodRecord, Workload};
use pss_sim::BoxedNode;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::runtime::{NetConfig, NetRuntime, RuntimeStats};
use crate::udp::UdpTransport;
use crate::workload::{mix, node_seed};

/// Parameters of a loopback cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total nodes, split contiguously across the runtimes.
    pub nodes: usize,
    /// Runtime threads (one UDP socket each).
    pub runtimes: usize,
    /// The protocol every node runs.
    pub protocol: ProtocolConfig,
    /// Gossip period in milliseconds.
    pub period_ms: u64,
    /// Timer jitter in milliseconds (strictly below the period).
    pub jitter_ms: u64,
    /// Gossip periods to run.
    pub periods: u64,
    /// Bootstrap introducers per node (tree parent + random earlier nodes).
    pub introducers: usize,
    /// Master seed for node RNGs, phases, and bootstrap choices.
    pub seed: u64,
    /// Optional membership-dynamics schedule. When set, it is compiled
    /// against `nodes` and **its period count overrides `periods`**; every
    /// kill/join/partition op executes at the matching period boundary. A
    /// schedule with an `adv:` placement deploys real attacker nodes (the
    /// same even-spread ids as the simulators) and makes the report carry
    /// per-period [`AttackRecord`]s.
    pub workload: Option<Workload>,
    /// Honest-node policy override: when set, honest nodes run this policy
    /// (e.g. an H&S healer/swapper corner) instead of `protocol`, and its
    /// view size governs the full-view metric. Attackers always mimic the
    /// skeleton at the same view size.
    pub honest_policy: Option<HonestPolicy>,
    /// Optional broadcast application: every runtime enables the rumor app
    /// and the report carries a per-period spread trace.
    pub broadcast: Option<ClusterBroadcast>,
}

/// Broadcast app parameters for a cluster run ([`ClusterConfig::broadcast`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterBroadcast {
    /// The node seeded with the rumor. Must be an initial id (`< nodes`).
    pub origin: NodeId,
    /// Rumor pushes per period per informed node.
    pub fanout: usize,
    /// 1-based period at whose boundary the rumor is planted (after that
    /// boundary's membership events).
    pub start_period: u64,
}

impl ClusterConfig {
    /// A small default: 256 nodes on 2 runtimes, 100 ms periods.
    pub fn small(protocol: ProtocolConfig) -> Self {
        ClusterConfig {
            nodes: 256,
            runtimes: 2,
            protocol,
            period_ms: 100,
            jitter_ms: 20,
            periods: 20,
            introducers: 3,
            seed: 20040601,
            workload: None,
            honest_policy: None,
            broadcast: None,
        }
    }
}

/// Overlay statistics of one period-boundary snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodStats {
    /// 1-based period index.
    pub period: u64,
    /// Nodes whose view is full (length = c).
    pub full_views: usize,
    /// Nodes in the snapshot.
    pub nodes: usize,
    /// Mean in-degree of the directed view graph.
    pub in_degree_mean: f64,
    /// Standard deviation of the in-degree.
    pub in_degree_sd: f64,
    /// Wall-clock milliseconds since cluster start when this period's
    /// snapshots were fully assembled — the timing row of the period.
    pub wall_ms: u64,
}

impl PeriodStats {
    /// Fraction of nodes with full views.
    pub fn full_fraction(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.full_views as f64 / self.nodes as f64
        }
    }
}

/// The result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-period overlay statistics, in period order.
    pub periods: Vec<PeriodStats>,
    /// Per-period workload-grade records (dead links, components,
    /// membership deltas) — the cross-stack comparable trajectory, from
    /// the same rows as [`ClusterReport::periods`].
    pub records: Vec<PeriodRecord>,
    /// Per-period attack observables, from the same rows; empty unless the
    /// workload placed adversaries.
    pub attack_records: Vec<AttackRecord>,
    /// Per-period rumor spread; empty unless [`ClusterConfig::broadcast`]
    /// was set.
    pub broadcast: Vec<BroadcastPeriod>,
    /// First period at which ≥ 99% of nodes had full views.
    pub converged_at: Option<u64>,
    /// Runtime statistics summed across all runtimes (final).
    pub stats: RuntimeStats,
    /// Wall-clock duration of the driven phase.
    pub elapsed: Duration,
}

impl ClusterReport {
    /// Frames per wall-clock second across the cluster.
    pub fn frames_per_sec(&self) -> f64 {
        (self.stats.frames_in + self.stats.frames_out) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Completed gossip exchanges per wall-clock second (replies absorbed
    /// plus push-only requests absorbed — the event engine's notion; a
    /// pushpull exchange whose reply was lost does not count).
    pub fn exchanges_per_sec(&self) -> f64 {
        self.stats.exchanges_completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Final rumor coverage: informed live nodes over live nodes at the
    /// last period (0.0 without a broadcast trace).
    pub fn broadcast_coverage(&self) -> f64 {
        match self.broadcast.last() {
            Some(b) if b.live > 0 => b.informed as f64 / b.live as f64,
            _ => 0.0,
        }
    }
}

/// One period of cluster-wide rumor spread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastPeriod {
    /// 1-based period index.
    pub period: u64,
    /// Live nodes at the snapshot.
    pub live: usize,
    /// Live nodes holding the rumor.
    pub informed: usize,
}

/// The contiguous id range runtime `r` of `k` owns under `n` nodes — the
/// sharded engines' planned-range formula.
fn range_of(n: usize, k: usize, r: usize) -> (usize, usize) {
    let start = (r * n).div_ceil(k);
    let end = ((r + 1) * n).div_ceil(k);
    (start, end.min(n))
}

fn runtime_of(n: usize, k: usize, id: usize) -> usize {
    (id * k) / n
}

/// One runtime thread's per-period message to the driver.
struct PeriodSnapshot {
    runtime: usize,
    period: u64,
    rows: Vec<(NodeId, Vec<NodeId>)>,
    /// Live hosted nodes holding the rumor (empty when the app is off).
    informed: Vec<NodeId>,
    stats: RuntimeStats,
}

/// A compiled workload op routed to one runtime thread, with introducer
/// addresses already resolved on the driver.
enum RtOp {
    Leave(NodeId),
    Join {
        id: NodeId,
        introducers: Vec<(NodeId, NetAddr)>,
    },
    SetPartition(Option<Partition>),
}

/// Runs a loopback UDP cluster; see the [module docs](self).
///
/// # Errors
///
/// Socket-level errors from binding the loopback transports, or an invalid
/// timer configuration surfaced as `InvalidInput`.
///
/// # Panics
///
/// Panics if `nodes < 2` or `runtimes` is zero or exceeds `nodes`.
pub fn run(config: &ClusterConfig) -> std::io::Result<ClusterReport> {
    assert!(config.nodes >= 2, "need at least two nodes");
    assert!(
        config.runtimes >= 1 && config.runtimes <= config.nodes,
        "need 1..=nodes runtimes"
    );
    let net_config = NetConfig {
        period: config.period_ms,
        jitter: config.jitter_ms,
        reply_timeout: config.period_ms,
    };
    net_config
        .validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;

    // A workload fixes the membership trajectory (and the run length) up
    // front; without one the run is the bootstrap-only schedule.
    let compiled: Option<CompiledWorkload> =
        config.workload.as_ref().map(|w| w.compile(config.nodes));
    let periods = compiled.as_ref().map_or(config.periods, |c| c.periods());
    let id_space = compiled.as_ref().map_or(config.nodes, |c| c.id_space);
    // Initial ids keep their contiguous range; workload joiners land on
    // runtime `id mod K`.
    let placement = |id: usize| {
        if id < config.nodes {
            runtime_of(config.nodes, config.runtimes, id)
        } else {
            id % config.runtimes
        }
    };

    // Bind every runtime's socket first so the full id → address map is
    // known before any node bootstraps.
    let transports: Vec<UdpTransport> = (0..config.runtimes)
        .map(|_| UdpTransport::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<NetAddr> = transports.iter().map(UdpTransport::net_addr).collect();
    let addr_of = |id: usize| addrs[placement(id)];

    // Route every compiled op to the runtime that must execute it, with
    // introducer addresses resolved: one op list per (runtime, period).
    let mut schedules: Vec<Vec<Vec<RtOp>>> = (0..config.runtimes)
        .map(|_| (0..periods as usize).map(|_| Vec::new()).collect())
        .collect();
    if let Some(compiled) = &compiled {
        for (p, step) in compiled.steps.iter().enumerate() {
            for op in &step.ops {
                match op {
                    Op::Kill(id) => {
                        schedules[placement(id.as_index())][p].push(RtOp::Leave(*id));
                    }
                    Op::Join { id, contacts } => {
                        let introducers = contacts
                            .iter()
                            .map(|&c| (c, addr_of(c.as_index())))
                            .collect();
                        schedules[placement(id.as_index())][p].push(RtOp::Join {
                            id: *id,
                            introducers,
                        });
                    }
                    Op::SetPartition(partition) => {
                        for schedule in schedules.iter_mut() {
                            schedule[p].push(RtOp::SetPartition(*partition));
                        }
                    }
                }
            }
        }
    }

    // Mixed honest/adversarial population: the same role dispatch as the
    // simulators' engine factories, shared across runtime threads.
    let roles = compiled.as_ref().and_then(|c| c.adversary);
    let policy = config
        .honest_policy
        .clone()
        .unwrap_or_else(|| HonestPolicy::Sampling(config.protocol.clone()));
    let build: Arc<dyn Fn(NodeId, u64) -> BoxedNode + Send + Sync> =
        Arc::new(role_factory(policy.clone(), roles));
    // Eclipse attackers address their victims directly, so their hosting
    // runtime's book must resolve the victim ids up front.
    let victim_intros: Vec<(NodeId, NetAddr)> = roles
        .filter(|r| r.kind() == AdversaryKind::Eclipse)
        .map(|r| r.victim_ids().map(|v| (v, addr_of(v.as_index()))).collect())
        .unwrap_or_default();

    // Build the runtimes and their node populations.
    let mut runtimes: Vec<NetRuntime<UdpTransport, BoxedNode>> =
        Vec::with_capacity(config.runtimes);
    let mut boot_rng = SmallRng::seed_from_u64(config.seed ^ 0xb007_b007_b007_b007);
    for (r, transport) in transports.into_iter().enumerate() {
        let mut rt = NetRuntime::new(transport, net_config, mix(config.seed ^ (r as u64 + 1)))
            .expect("validated above");
        let (start, end) = range_of(config.nodes, config.runtimes, r);
        for i in start..end {
            // The same (seed, id)-pure node seed workload joiners get, so
            // a node's RNG stream does not depend on when it joined.
            let node = build(NodeId::new(i as u64), node_seed(config.seed, i as u64));
            let mut introducers: Vec<(NodeId, NetAddr)> = Vec::new();
            if i > 0 {
                // Tree parent first (guarantees a connected bootstrap
                // graph), then random earlier nodes.
                let parent = i / 2;
                introducers.push((NodeId::new(parent as u64), addr_of(parent)));
                while introducers.len() < config.introducers.min(i) {
                    let pick = boot_rng.random_range(0..i);
                    if introducers.iter().all(|(id, _)| id.as_index() != pick) {
                        introducers.push((NodeId::new(pick as u64), addr_of(pick)));
                    }
                }
            }
            if roles.is_some_and(|r| r.is_attacker(NodeId::new(i as u64))) {
                introducers.extend(victim_intros.iter().copied());
            }
            rt.add_node(node, &introducers);
        }
        if let Some(bcast) = config.broadcast {
            rt.enable_broadcast(bcast.fanout);
        }
        runtimes.push(rt);
    }

    // Drive: every thread follows the shared wall clock (1 tick = 1 ms),
    // applies its workload ops at period boundaries, snapshots, and
    // realigns on the barrier.
    let started = Instant::now();
    let barrier = Arc::new(Barrier::new(config.runtimes));
    let (tx, rx) = mpsc::channel::<PeriodSnapshot>();
    let period_ms = config.period_ms;
    let view_size = policy.view_size();
    let seed = config.seed;
    let broadcast = config.broadcast;
    let origin_runtime = broadcast.map(|b| placement(b.origin.as_index()));

    std::thread::scope(|scope| {
        for ((runtime_idx, mut rt), mut schedule) in
            runtimes.drain(..).enumerate().zip(schedules.drain(..))
        {
            let tx = tx.clone();
            let barrier = Arc::clone(&barrier);
            let build = Arc::clone(&build);
            scope.spawn(move || {
                for p in 1..=periods {
                    // Membership events fire at the boundary, before the
                    // period's gossip — the workload runner's semantics.
                    for op in schedule[p as usize - 1].drain(..) {
                        match op {
                            RtOp::Leave(id) => {
                                // Routing guarantees this runtime hosts a
                                // live `id`; a no-op leave means the
                                // placement map diverged from the schedule.
                                let left = rt.leave(id);
                                debug_assert!(left, "leave of live node {id} was a no-op");
                            }
                            RtOp::Join { id, introducers } => {
                                let node = build(id, node_seed(seed, id.as_u64()));
                                rt.add_node(node, &introducers);
                            }
                            RtOp::SetPartition(partition) => rt.set_partition(partition),
                        }
                    }
                    // The rumor is planted after the boundary's membership
                    // events, so a killed origin stays uninformed.
                    if let Some(bcast) = broadcast {
                        if p == bcast.start_period && origin_runtime == Some(runtime_idx) {
                            rt.seed_rumor(bcast.origin);
                        }
                    }
                    let target = p * period_ms;
                    loop {
                        let elapsed = started.elapsed().as_millis() as u64;
                        rt.run_until(elapsed.min(target));
                        if elapsed >= target {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    let mut rows = Vec::with_capacity(rt.node_count());
                    rt.for_each_live_view(|id, view| {
                        rows.push((id, view.ids().collect::<Vec<NodeId>>()));
                    });
                    let mut informed = Vec::new();
                    if broadcast.is_some() {
                        rt.for_each_informed(|id| informed.push(id));
                    }
                    let snapshot = PeriodSnapshot {
                        runtime: runtime_idx,
                        period: p,
                        rows,
                        informed,
                        stats: rt.stats(),
                    };
                    if tx.send(snapshot).is_err() {
                        return;
                    }
                    barrier.wait();
                }
            });
        }
        drop(tx);

        // Driver side: assemble K snapshots per period into the CSR
        // metrics while the threads run the next period. The end-of-period
        // barrier guarantees periods complete in order, so the workload's
        // dead set can advance step by step.
        let period_ms_hist = pss_telemetry::global().histogram(
            "pss_cluster_period_ms",
            "Wall time between consecutive assembled cluster periods, milliseconds",
        );
        let mut period_stats: Vec<PeriodStats> = Vec::with_capacity(periods as usize);
        let mut records: Vec<PeriodRecord> = Vec::with_capacity(periods as usize);
        let mut attack_records: Vec<AttackRecord> = Vec::new();
        let mut broadcast_trace: Vec<BroadcastPeriod> = Vec::new();
        let mut latest_stats: Vec<RuntimeStats> = vec![RuntimeStats::default(); config.runtimes];
        let mut pending: Vec<Vec<PeriodSnapshot>> = (0..periods).map(|_| Vec::new()).collect();
        let mut dead = vec![false; id_space];
        let mut partitioned = false;
        for snapshot in rx.iter() {
            latest_stats[snapshot.runtime] = snapshot.stats;
            let p = snapshot.period as usize - 1;
            pending[p].push(snapshot);
            if pending[p].len() == config.runtimes {
                assert_eq!(
                    records.len(),
                    p,
                    "period snapshots must complete in order (barrier contract)"
                );
                let batch = std::mem::take(&mut pending[p]);
                let informed: usize = batch.iter().map(|s| s.informed.len()).sum();
                let mut rows: Vec<(NodeId, Vec<NodeId>)> =
                    batch.into_iter().flat_map(|s| s.rows).collect();
                // Joined ids land out of range order; sort globally.
                rows.sort_by_key(|(id, _)| *id);
                let mut killed = 0;
                let mut joined = 0;
                if let Some(compiled) = &compiled {
                    for op in &compiled.steps[p].ops {
                        match op {
                            Op::Kill(id) => {
                                dead[id.as_index()] = true;
                                killed += 1;
                            }
                            Op::Join { .. } => joined += 1,
                            Op::SetPartition(partition) => partitioned = partition.is_some(),
                        }
                    }
                }
                let mut record =
                    workload::measure_rows(id_space, &rows, |id| !dead[id.as_index()], view_size);
                record.period = p as u64 + 1;
                record.killed = killed;
                record.joined = joined;
                record.partitioned = partitioned;
                if let Some(roles) = &roles {
                    attack_records.push(audit_rows(roles, id_space, &rows, record.period));
                }
                let wall_ms = started.elapsed().as_millis() as u64;
                let prev_wall = period_stats.last().map_or(0, |s: &PeriodStats| s.wall_ms);
                period_ms_hist.record(wall_ms.saturating_sub(prev_wall));
                period_stats.push(PeriodStats {
                    period: record.period,
                    full_views: record.full_views,
                    nodes: record.live,
                    in_degree_mean: record.in_degree_mean,
                    in_degree_sd: record.in_degree_sd,
                    wall_ms,
                });
                if broadcast.is_some() {
                    broadcast_trace.push(BroadcastPeriod {
                        period: record.period,
                        live: record.live,
                        informed,
                    });
                }
                records.push(record);
            }
        }

        let elapsed = started.elapsed();
        let mut stats = RuntimeStats::default();
        for s in &latest_stats {
            stats.merge(s);
        }
        let converged_at = period_stats
            .iter()
            .find(|s| s.full_fraction() >= 0.99)
            .map(|s| s.period);
        Ok(ClusterReport {
            periods: period_stats,
            records,
            attack_records,
            broadcast: broadcast_trace,
            converged_at,
            stats,
            elapsed,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::{Freshness, PolicyTriple};

    #[test]
    fn range_partition_covers_all_ids_in_order() {
        for (n, k) in [(10, 3), (7, 7), (1000, 4), (5, 1)] {
            let mut seen = 0usize;
            for r in 0..k {
                let (start, end) = range_of(n, k, r);
                assert_eq!(start, seen, "gap at runtime {r} for ({n}, {k})");
                for id in start..end {
                    assert_eq!(runtime_of(n, k, id), r, "id {id} misrouted");
                }
                seen = end;
            }
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn small_loopback_cluster_converges() {
        // Wall-clock test: 64 nodes, 2 runtimes, 100 ms periods. Generous
        // period budget for a loaded CI box; typically converges in ~6.
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 12).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 64;
        config.periods = 15;
        let report = run(&config).expect("cluster runs");
        assert_eq!(report.periods.len(), 15);
        let last = report.periods.last().unwrap();
        assert!(
            last.full_fraction() >= 0.99,
            "only {}/{} full views",
            last.full_views,
            last.nodes
        );
        // Mean in-degree of a converged overlay equals c.
        assert!((last.in_degree_mean - 12.0).abs() < 0.5, "{last:?}");
        assert_eq!(report.stats.decode_failures(), 0, "{:?}", report.stats);
        assert!(report.stats.frames_in > 0);
        assert!(report.converged_at.is_some());
        assert!(report.frames_per_sec() > 0.0);
        assert!(report.exchanges_per_sec() > 0.0);
    }

    /// Timestamp freshness re-merges a 20-period lossy partition over real
    /// loopback UDP. The deterministic hop-splits/timestamp-heals
    /// differential is pinned in the sharded-sim conformance suite
    /// (`timestamp_freshness_heals_the_lossy_long_partition`); the cluster
    /// is wall-clock nondeterministic, so this test asserts only the
    /// robust positive half at a loss (0.45) where the timestamp heal
    /// succeeded in every probe run (8/8 across seeds, including three
    /// repeats of the least favourable one).
    #[test]
    fn timestamp_freshness_heals_the_lossy_partition_over_udp() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 12)
            .unwrap()
            .with_freshness(Freshness::Timestamp);
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 96;
        config.runtimes = 2;
        config.period_ms = 60;
        config.jitter_ms = 12;
        config.seed = 5;
        config.workload = Some(Workload::parse("quiet:6,part:2x20@0.45,quiet:15", 9).unwrap());
        let report = run(&config).expect("cluster runs");
        assert_eq!(report.records.len(), 41);
        // The overlay actually splits while the loss matrix is in force...
        assert!(report.records[25].partitioned);
        // ...and the timestamp-mode overlay re-merges once it lifts.
        let last = report.records.last().unwrap();
        assert!(
            last.component_fraction() >= 0.98,
            "largest component only {:.2} of {} live nodes",
            last.component_fraction(),
            last.live
        );
        assert!(
            last.dead_link_fraction() <= 0.06,
            "dead links {:.3}",
            last.dead_link_fraction()
        );
        assert_eq!(report.stats.decode_failures(), 0, "{:?}", report.stats);
    }

    /// A thundering herd of joiners — every one aimed at the same
    /// introducer by the `[herd]` override — all integrate over UDP: the
    /// bootstrap retry/backoff path means overload delays joiners instead
    /// of silently dropping them.
    #[test]
    fn flash_herd_joins_without_starvation_over_udp() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 12).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 64;
        config.runtimes = 2;
        config.period_ms = 60;
        config.jitter_ms = 12;
        config.seed = 11;
        config.workload = Some(Workload::parse("quiet:8,flash:64[herd],quiet:12", 9).unwrap());
        let report = run(&config).expect("cluster runs");
        let last = report.records.last().unwrap();
        assert_eq!(last.live, 128, "a joiner was lost");
        assert!(
            last.component_fraction() >= 0.99,
            "largest component only {:.2}",
            last.component_fraction()
        );
        assert!(
            last.full_fraction() >= 0.95,
            "only {:.2} full views",
            last.full_fraction()
        );
        assert_eq!(report.stats.decode_failures(), 0, "{:?}", report.stats);
    }
}
