//! Loopback cluster harness: N nodes across K runtime threads on UDP.
//!
//! [`run`] binds one [`UdpTransport`] per runtime on `127.0.0.1:0`, splits
//! the node population into contiguous id ranges (the sharded engines'
//! placement), bootstraps every node off earlier nodes (a tree plus random
//! extra introducers, the join pattern of the simulators' churn scenarios),
//! and drives all runtimes against the shared wall clock — 1 tick = 1 ms.
//!
//! The K runtimes are one more [`WorkloadTarget`], driven by the same
//! [`run_workload`] that steps the engines and [`crate::RuntimeWorkload`]
//! (or, when the schedule places adversaries, by [`audit::run_attacked`]).
//! So the cluster's [`PeriodRecord`]s and [`AttackRecord`]s come out of
//! the same function, through the same CSR metrics, as on every other
//! stack. Between periods every runtime thread is parked at the boundary:
//! the driver sends each thread the membership ops it hosts as the schedule
//! applies them, then the rumor plant if due, then the instant on the
//! shared clock to pace to, and waits for one view snapshot per thread — so
//! a period ends when its slowest runtime reaches the boundary. A run
//! without a schedule is the bootstrap-only schedule of
//! [`ClusterConfig::periods`] empty steps.
//!
//! # Workload schedules
//!
//! A [`ClusterConfig::workload`] compiles a
//! [`pss_sim::workload::Workload`] against the initial population.
//! Kills become [`NetRuntime::leave`] on the hosting runtime, joins become
//! late [`NetRuntime::add_node`] calls with resolved introducer addresses
//! (initial ids stay on their contiguous range; joined ids land on runtime
//! `id mod K`), and partition ops install the same loss matrix on *every*
//! runtime. One schedule therefore yields directly comparable recovery
//! trajectories on the simulated and the deployed stack — the conformance
//! suite pins exactly that.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use pss_core::adversary::AdversaryKind;
use pss_core::wire::NetAddr;
use pss_core::{NodeId, ProtocolConfig};
use pss_sim::audit::{self, role_factory, AttackRecord, HonestPolicy};
use pss_sim::workload::{
    run_workload, CompiledWorkload, Partition, PeriodRecord, Step, Workload, WorkloadTarget,
};
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
    /// Wall-clock milliseconds since cluster start when the last runtime's
    /// snapshot of this period arrived — the timing row of the period.
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

/// The runtime of `k` hosting `id` under `n` initial nodes: initial ids
/// keep their [`range_of`] range, workload joiners land on runtime
/// `id mod k`.
fn host_of(n: usize, k: usize, id: usize) -> usize {
    if id < n {
        (id * k) / n
    } else {
        id % k
    }
}

/// A driver → runtime-thread message. Between periods a thread is parked
/// at the boundary, so membership ops and the rumor plant take effect
/// there, before the period's gossip — the workload driver's semantics.
enum Command {
    Leave(NodeId),
    /// A workload joiner, with introducer addresses resolved on the driver.
    Join {
        id: NodeId,
        introducers: Vec<(NodeId, NetAddr)>,
    },
    SetPartition(Option<Partition>),
    /// Plants the rumor at a hosted node (after the boundary's membership
    /// ops, so a killed origin stays uninformed).
    Plant(NodeId),
    /// Runs the period: pace to this many milliseconds after the shared
    /// start, then reply with a [`PeriodEnd`].
    EndPeriod {
        until_ms: u64,
    },
}

/// A runtime thread's reply at the end of a period.
struct PeriodEnd {
    rows: Vec<(NodeId, Vec<NodeId>)>,
    /// Live hosted nodes holding the rumor.
    informed: usize,
}

/// One runtime thread: executes the driver's commands in order against the
/// shared wall clock. Returns the runtime's final statistics once the
/// driver closes the channel.
fn serve(
    mut rt: NetRuntime<UdpTransport, BoxedNode>,
    commands: mpsc::Receiver<Command>,
    snapshots: mpsc::Sender<PeriodEnd>,
    started: Instant,
    build: impl Fn(NodeId) -> BoxedNode,
) -> RuntimeStats {
    for command in commands {
        match command {
            Command::Leave(id) => {
                // The driver's liveness vector admitted this leave; a no-op
                // means the two diverged.
                let left = rt.leave(id);
                debug_assert!(left, "leave of live node {id} was a no-op");
            }
            Command::Join { id, introducers } => {
                rt.add_node(build(id), &introducers);
            }
            Command::SetPartition(partition) => rt.set_partition(partition),
            Command::Plant(origin) => {
                rt.seed_rumor(origin);
            }
            Command::EndPeriod { until_ms } => {
                loop {
                    let elapsed = started.elapsed().as_millis() as u64;
                    rt.run_until(elapsed.min(until_ms));
                    if elapsed >= until_ms {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                let mut rows = Vec::with_capacity(rt.node_count());
                rt.for_each_live_view(|id, view| rows.push((id, view.ids().collect())));
                let mut informed = 0;
                rt.for_each_informed(|_| informed += 1);
                if snapshots.send(PeriodEnd { rows, informed }).is_err() {
                    break;
                }
            }
        }
    }
    rt.stats()
}

/// K runtime threads driven as one [`WorkloadTarget`]; see the [module
/// docs](self).
struct UdpCluster {
    /// The initial population size, for [`host_of`].
    nodes: usize,
    /// One socket address per runtime.
    addrs: Vec<NetAddr>,
    /// Liveness by id, kept on the driver so `kill` answers without a
    /// round trip to the runtime threads.
    live: Vec<bool>,
    /// Per runtime thread: its command channel and its snapshot channel.
    /// A thread that panics drops its sender, so the driver fails instead
    /// of waiting forever.
    links: Vec<(mpsc::Sender<Command>, mpsc::Receiver<PeriodEnd>)>,
    /// The last period's live rows of every runtime, sorted by id.
    rows: Vec<(NodeId, Vec<NodeId>)>,
    period_ms: u64,
    started: Instant,
    broadcast: Option<ClusterBroadcast>,
    /// Per period: when its last snapshot arrived (ms after `started`).
    wall_ms: Vec<u64>,
    /// Per period: live nodes holding the rumor.
    informed: Vec<usize>,
    period_ms_hist: pss_telemetry::Histogram,
}

impl UdpCluster {
    fn new(
        config: &ClusterConfig,
        addrs: Vec<NetAddr>,
        started: Instant,
        links: Vec<(mpsc::Sender<Command>, mpsc::Receiver<PeriodEnd>)>,
    ) -> Self {
        UdpCluster {
            nodes: config.nodes,
            addrs,
            live: vec![true; config.nodes],
            links,
            rows: Vec::new(),
            period_ms: config.period_ms,
            started,
            broadcast: config.broadcast,
            wall_ms: Vec::new(),
            informed: Vec::new(),
            period_ms_hist: pss_telemetry::global().histogram(
                "pss_cluster_period_ms",
                "Wall time between consecutive assembled cluster periods, milliseconds",
            ),
        }
    }

    fn host(&self, id: NodeId) -> usize {
        host_of(self.nodes, self.addrs.len(), id.as_index())
    }

    fn send(&self, runtime: usize, command: Command) {
        self.links[runtime]
            .0
            .send(command)
            .expect("runtime thread alive");
    }
}

impl WorkloadTarget for UdpCluster {
    fn kill(&mut self, id: NodeId) -> bool {
        match self.live.get_mut(id.as_index()) {
            Some(live) if *live => {
                *live = false;
                self.send(self.host(id), Command::Leave(id));
                true
            }
            _ => false,
        }
    }

    fn join(&mut self, id: NodeId, contacts: &[NodeId]) {
        assert_eq!(
            id.as_index(),
            self.live.len(),
            "cluster expected the next sequential id, workload compiled id {id}"
        );
        self.live.push(true);
        let introducers = contacts
            .iter()
            .map(|&c| (c, self.addrs[self.host(c)]))
            .collect();
        self.send(self.host(id), Command::Join { id, introducers });
    }

    fn set_partition(&mut self, partition: Option<Partition>) {
        for r in 0..self.links.len() {
            self.send(r, Command::SetPartition(partition));
        }
    }

    fn run_period(&mut self) {
        let period = self.wall_ms.len() as u64 + 1;
        if let Some(b) = self.broadcast.filter(|b| b.start_period == period) {
            self.send(self.host(b.origin), Command::Plant(b.origin));
        }
        let until_ms = period * self.period_ms;
        for r in 0..self.links.len() {
            self.send(r, Command::EndPeriod { until_ms });
        }
        self.rows.clear();
        let mut informed = 0;
        for (_, snapshots) in &self.links {
            let snapshot = snapshots.recv().expect("runtime thread alive");
            self.rows.extend(snapshot.rows);
            informed += snapshot.informed;
        }
        // Joined ids land out of range order; sort globally.
        self.rows.sort_unstable_by_key(|(id, _)| *id);
        let wall_ms = self.started.elapsed().as_millis() as u64;
        self.period_ms_hist
            .record(wall_ms - self.wall_ms.last().copied().unwrap_or(0));
        self.wall_ms.push(wall_ms);
        self.informed.push(informed);
    }

    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>) {
        rows.extend_from_slice(&self.rows);
    }
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
    let compiled = match &config.workload {
        Some(workload) => workload.compile(config.nodes),
        None => CompiledWorkload {
            initial_nodes: config.nodes,
            id_space: config.nodes,
            steps: vec![Step::default(); config.periods as usize],
            adversary: None,
        },
    };

    // Bind every runtime's socket first so the full id → address map is
    // known before any node bootstraps.
    let transports: Vec<UdpTransport> = (0..config.runtimes)
        .map(|_| UdpTransport::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<NetAddr> = transports.iter().map(UdpTransport::net_addr).collect();
    let addr_of = |id: usize| addrs[host_of(config.nodes, config.runtimes, id)];

    // Mixed honest/adversarial population: the same role dispatch as the
    // simulators' engine factories, shared across runtime threads.
    let roles = compiled.adversary;
    let policy = config
        .honest_policy
        .clone()
        .unwrap_or_else(|| HonestPolicy::Sampling(config.protocol.clone()));
    let view_size = policy.view_size();
    let build = role_factory(policy, roles);
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

    // Drive: one thread per runtime follows the shared wall clock (1 tick =
    // 1 ms) period by period, on the driver's commands.
    let started = Instant::now();
    let (records, attack_records, wall_ms, informed, stats) = std::thread::scope(|scope| {
        let mut threads = Vec::with_capacity(config.runtimes);
        let links = runtimes
            .into_iter()
            .map(|rt| {
                let (command_tx, commands) = mpsc::channel();
                let (snapshot_tx, snapshots) = mpsc::channel();
                // The (seed, id)-pure node seed the initial population got.
                let joiner = |id: NodeId| build(id, node_seed(config.seed, id.as_u64()));
                threads
                    .push(scope.spawn(move || serve(rt, commands, snapshot_tx, started, joiner)));
                (command_tx, snapshots)
            })
            .collect();
        let mut cluster = UdpCluster::new(config, addrs, started, links);
        let (records, attack_records) = if roles.is_some() {
            let (records, audit) = audit::run_attacked(&mut cluster, &compiled, view_size);
            (records, audit.records)
        } else {
            (run_workload(&mut cluster, &compiled, view_size), Vec::new())
        };
        // Closing the command channels stops the runtime threads.
        let UdpCluster {
            links,
            wall_ms,
            informed,
            ..
        } = cluster;
        drop(links);
        let mut stats = RuntimeStats::default();
        for thread in threads {
            stats.merge(&thread.join().expect("runtime thread panicked"));
        }
        (records, attack_records, wall_ms, informed, stats)
    });
    // Taken once every runtime thread has stopped, from the same instant
    // as the per-period wall times.
    let elapsed = started.elapsed();

    let periods: Vec<PeriodStats> = records
        .iter()
        .zip(wall_ms)
        .map(|(r, wall_ms)| PeriodStats {
            period: r.period,
            full_views: r.full_views,
            nodes: r.live,
            in_degree_mean: r.in_degree_mean,
            in_degree_sd: r.in_degree_sd,
            wall_ms,
        })
        .collect();
    let broadcast = match config.broadcast {
        Some(_) => records
            .iter()
            .zip(informed)
            .map(|(r, informed)| BroadcastPeriod {
                period: r.period,
                live: r.live,
                informed,
            })
            .collect(),
        None => Vec::new(),
    };
    let converged_at = periods
        .iter()
        .find(|s| s.full_fraction() >= 0.99)
        .map(|s| s.period);
    Ok(ClusterReport {
        periods,
        records,
        attack_records,
        broadcast,
        converged_at,
        stats,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::{Freshness, PolicyTriple};
    use pss_sim::workload::Op;

    #[test]
    fn range_partition_covers_all_ids_in_order() {
        for (n, k) in [(10, 3), (7, 7), (1000, 4), (5, 1)] {
            let mut seen = 0usize;
            for r in 0..k {
                let (start, end) = range_of(n, k, r);
                assert_eq!(start, seen, "gap at runtime {r} for ({n}, {k})");
                for id in start..end {
                    assert_eq!(host_of(n, k, id), r, "id {id} misrouted");
                }
                seen = end;
            }
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn a_second_kill_of_the_same_id_is_refused() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 4).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 4;
        let addrs = vec![NetAddr::Virtual(0), NetAddr::Virtual(1)];
        let (links, commands): (Vec<_>, Vec<_>) = addrs
            .iter()
            .map(|_| {
                let (command_tx, commands) = mpsc::channel();
                ((command_tx, mpsc::channel().1), commands)
            })
            .unzip();
        let mut cluster = UdpCluster::new(&config, addrs, Instant::now(), links);
        assert!(cluster.kill(NodeId::new(3)));
        assert!(!cluster.kill(NodeId::new(3)), "a departed node is not live");
        assert!(!cluster.kill(NodeId::new(9)), "an unknown id is not live");
        // Only the first kill reaches a runtime: id 3's host.
        assert!(commands[0].try_recv().is_err());
        assert!(matches!(commands[1].try_recv(), Ok(Command::Leave(id)) if id == NodeId::new(3)));
        assert!(commands[1].try_recv().is_err());
    }

    /// The report's rows are period-aligned and timed against the shared
    /// clock (the perf ledger's lag and `setup_s` rows read exactly these),
    /// and the membership columns replay the compiled schedule exactly.
    #[test]
    fn report_is_period_aligned_and_follows_the_schedule() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 48;
        config.period_ms = 40;
        config.jitter_ms = 8;
        let workload = Workload::parse("quiet:2,kill:0.25,flash:8,part:2x2,quiet:2", 3).unwrap();
        let compiled = workload.compile(config.nodes);
        config.workload = Some(workload);
        let report = run(&config).expect("cluster runs");
        assert_eq!(report.periods.len(), compiled.steps.len());
        assert_eq!(report.records.len(), compiled.steps.len());

        let mut previous = 0;
        for (i, (stats, record)) in report.periods.iter().zip(&report.records).enumerate() {
            let period = i as u64 + 1;
            assert_eq!((stats.period, record.period), (period, period));
            assert!(stats.wall_ms >= previous, "{stats:?}");
            assert!(stats.wall_ms >= period * config.period_ms, "{stats:?}");
            previous = stats.wall_ms;
        }
        assert!(report.elapsed.as_millis() as u64 >= previous);

        let (mut live, mut partitioned) = (config.nodes, false);
        for (step, record) in compiled.steps.iter().zip(&report.records) {
            let (mut killed, mut joined) = (0, 0);
            for op in &step.ops {
                match op {
                    Op::Kill(_) => killed += 1,
                    Op::Join { .. } => joined += 1,
                    Op::SetPartition(p) => partitioned = p.is_some(),
                }
            }
            live = live + joined - killed;
            assert_eq!(
                (
                    record.live,
                    record.killed,
                    record.joined,
                    record.partitioned
                ),
                (live, killed, joined, partitioned),
                "period {}",
                record.period
            );
        }
        assert!(report.records.iter().any(|r| r.partitioned));
        assert!(report.records.iter().any(|r| r.killed > 0 && r.joined > 0));
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
