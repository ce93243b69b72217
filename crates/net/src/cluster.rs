//! Cluster harness: N nodes across K runtimes, stepped from one thread.
//!
//! Both entry points split the node population into contiguous id ranges
//! (the sharded engines' placement), bootstrap every node off earlier
//! nodes (a tree plus random extra introducers, the join pattern of the
//! simulators' churn scenarios), and step all K runtimes from the calling
//! thread, 1 tick = 1 ms. They differ only in transport and clock:
//!
//! * [`run`] binds one [`UdpTransport`] per runtime on `127.0.0.1:0` and
//!   paces every period against the wall clock: each pass advances every
//!   runtime to the elapsed millisecond, then sleeps 500 µs.
//! * [`run_mem`] takes one [`MemNetwork`] endpoint per runtime and runs in
//!   virtual time: every runtime steps one tick in turn, so the mesh sees
//!   one fixed order and the whole report — `wall_ms` and `elapsed`
//!   included, which read virtual milliseconds — is bit-reproducible per
//!   seed.
//!
//! The K runtimes are one more [`WorkloadTarget`], driven by the same
//! [`run_workload`] that steps the engines (or, when the schedule places
//! adversaries, by [`audit::run_attacked`]). So the cluster's
//! [`PeriodRecord`]s and [`AttackRecord`]s come out of the same function,
//! from the same streamed pass over the collected view rows (no CSR is
//! built), as on every other stack. Membership ops
//! and the rumor plant take effect at the period boundary, before the
//! period's gossip, and a period ends when every runtime has reached it. A
//! run without a schedule is the bootstrap-only schedule of
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

use std::time::{Duration, Instant};

use pss_core::adversary::AdversaryKind;
use pss_core::wire::NetAddr;
use pss_core::{NodeId, ProtocolConfig};
use pss_sim::audit::{self, role_factory, AttackRecord, HonestPolicy};
use pss_sim::workload::{
    run_workload, CompiledWorkload, Partition, PeriodRecord, Step, Workload, WorkloadTarget,
};
use pss_sim::{mix, planned_range, BoxedNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::mem::MemNetwork;
use crate::runtime::{NetConfig, NetRuntime, RuntimeStats};
use crate::transport::Transport;
use crate::udp::UdpTransport;

/// Parameters of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Total nodes, split contiguously across the runtimes.
    pub nodes: usize,
    /// Runtimes (one transport endpoint each), all stepped from the
    /// calling thread.
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

    /// Every runtime's timers: 1 tick = 1 ms.
    fn net_config(&self) -> NetConfig {
        NetConfig {
            period: self.period_ms,
            jitter: self.jitter_ms,
        }
    }

    /// The honest nodes' policy: the override if set, else `protocol`.
    fn policy(&self) -> HonestPolicy {
        self.honest_policy
            .clone()
            .unwrap_or_else(|| HonestPolicy::Sampling(self.protocol.clone()))
    }

    /// A workload fixes the membership trajectory (and the run length) up
    /// front; without one the run is the bootstrap-only schedule.
    fn compiled(&self) -> CompiledWorkload {
        match &self.workload {
            Some(workload) => workload.compile(self.nodes),
            None => CompiledWorkload {
                initial_nodes: self.nodes,
                id_space: self.nodes,
                steps: vec![Step::default(); self.periods as usize],
                adversary: None,
            },
        }
    }
}

/// The timing of one period, which only the cluster knows; the period's
/// overlay statistics are its [`PeriodRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodStats {
    /// 1-based period index.
    pub period: u64,
    /// Milliseconds since cluster start when every runtime had reached
    /// the end of this period (virtual milliseconds under [`run_mem`]).
    pub wall_ms: u64,
}

/// The result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-period timing, in period order.
    pub periods: Vec<PeriodStats>,
    /// Per-period overlay records (full views, in-degree, dead links,
    /// components, membership deltas) — the cross-stack comparable
    /// trajectory.
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
    /// Duration of the driven phase: wall clock under [`run`], virtual
    /// time under [`run_mem`].
    pub elapsed: Duration,
}

impl ClusterReport {
    /// Frames per second of [`ClusterReport::elapsed`] across the cluster.
    pub fn frames_per_sec(&self) -> f64 {
        (self.stats.frames_in + self.stats.frames_out) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Completed gossip exchanges per second of [`ClusterReport::elapsed`]
    /// (replies absorbed plus push-only requests absorbed — the event
    /// engine's notion; a pushpull exchange whose reply was lost does not
    /// count).
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

/// The runtime of `k` hosting `id` under `n` initial nodes: initial ids
/// keep their [`planned_range`] range, workload joiners land on runtime
/// `id mod k`.
fn host_of(n: usize, k: usize, id: usize) -> usize {
    if id < n {
        (id * k) / n
    } else {
        id % k
    }
}

/// `(seed, id)`-pure node seed, so a node's RNG stream does not depend on
/// when it joined or which runtime hosts it.
fn node_seed(seed: u64, id: u64) -> u64 {
    mix(seed ^ 0x5eed ^ id.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// Which clock paces the periods.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Clock {
    Wall,
    Virtual,
}

/// K runtimes driven as one [`WorkloadTarget`]; see the [module
/// docs](self).
struct Cluster<T: Transport> {
    /// The initial population size, for [`host_of`].
    nodes: usize,
    runtimes: Vec<NetRuntime<T, BoxedNode>>,
    /// Builds a workload joiner with its `(seed, id)`-pure node seed.
    build: Box<dyn Fn(NodeId) -> BoxedNode>,
    period_ms: u64,
    /// When the driven phase began; `None` in virtual time.
    started: Option<Instant>,
    broadcast: Option<ClusterBroadcast>,
    /// Per period: milliseconds after the start when every runtime had
    /// reached its end.
    wall_ms: Vec<u64>,
    /// Per period: live nodes holding the rumor.
    informed: Vec<usize>,
    period_ms_hist: pss_telemetry::Histogram,
}

impl<T: Transport> Cluster<T> {
    /// One runtime per transport, its node range bootstrapped; the clock
    /// starts once every node is in place.
    fn new(
        config: &ClusterConfig,
        compiled: &CompiledWorkload,
        transports: Vec<T>,
        clock: Clock,
    ) -> Self {
        let k = transports.len();
        let addrs: Vec<NetAddr> = transports.iter().map(Transport::local_addr).collect();
        let addr_of = |id: usize| addrs[host_of(config.nodes, k, id)];

        // Mixed honest/adversarial population: the same role dispatch as
        // the simulators' engine factories.
        let roles = compiled.adversary;
        let build = role_factory(config.policy(), roles);
        // Eclipse attackers address their victims directly, so their
        // hosting runtime's book must resolve the victim ids up front.
        let victim_intros: Vec<(NodeId, NetAddr)> = roles
            .filter(|r| r.kind() == AdversaryKind::Eclipse)
            .map(|r| r.victim_ids().map(|v| (v, addr_of(v.as_index()))).collect())
            .unwrap_or_default();

        let mut boot_rng = SmallRng::seed_from_u64(config.seed ^ 0xb007_b007_b007_b007);
        let mut runtimes = Vec::with_capacity(k);
        for (r, transport) in transports.into_iter().enumerate() {
            let seed = mix(config.seed ^ (r as u64 + 1));
            let mut rt = NetRuntime::new(transport, config.net_config(), seed)
                .expect("validated by the caller");
            let (start, end) = planned_range(config.nodes, k, r);
            for i in start..end {
                let id = NodeId::new(i as u64);
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
                if roles.is_some_and(|r| r.is_attacker(id)) {
                    introducers.extend(victim_intros.iter().copied());
                }
                rt.add_node(build(id, node_seed(config.seed, i as u64)), &introducers);
            }
            if let Some(bcast) = config.broadcast {
                rt.enable_broadcast(bcast.fanout);
            }
            runtimes.push(rt);
        }

        let seed = config.seed;
        Cluster {
            nodes: config.nodes,
            runtimes,
            build: Box::new(move |id| build(id, node_seed(seed, id.as_u64()))),
            period_ms: config.period_ms,
            started: (clock == Clock::Wall).then(Instant::now),
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
        host_of(self.nodes, self.runtimes.len(), id.as_index())
    }

    /// Time since the start: wall-clock, or the runtimes' virtual time
    /// (all of them stand at the same tick between periods).
    fn elapsed(&self) -> Duration {
        match self.started {
            Some(started) => started.elapsed(),
            None => Duration::from_millis(self.runtimes[0].now()),
        }
    }
}

impl<T: Transport> WorkloadTarget for Cluster<T> {
    fn kill(&mut self, id: NodeId) -> bool {
        let host = self.host(id);
        self.runtimes[host].leave(id)
    }

    fn join(&mut self, id: NodeId, contacts: &[NodeId]) {
        let introducers: Vec<(NodeId, NetAddr)> = contacts
            .iter()
            .map(|&c| (c, self.runtimes[self.host(c)].local_addr()))
            .collect();
        let host = self.host(id);
        self.runtimes[host].add_node((self.build)(id), &introducers);
    }

    fn set_partition(&mut self, partition: Option<Partition>) {
        for rt in &mut self.runtimes {
            rt.set_partition(partition);
        }
    }

    fn run_period(&mut self) {
        let period = self.wall_ms.len() as u64 + 1;
        if let Some(b) = self.broadcast.filter(|b| b.start_period == period) {
            let host = self.host(b.origin);
            self.runtimes[host].seed_rumor(b.origin);
        }
        let until = period * self.period_ms;
        loop {
            let t = match self.started {
                Some(started) => (started.elapsed().as_millis() as u64).min(until),
                // Every runtime steps one tick in turn, so the mesh sees
                // one fixed order.
                None => self.runtimes[0].now() + 1,
            };
            for rt in &mut self.runtimes {
                rt.run_until(t);
            }
            if t == until {
                break;
            }
            if self.started.is_some() {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        let wall_ms = self.elapsed().as_millis() as u64;
        self.period_ms_hist
            .record(wall_ms - self.wall_ms.last().copied().unwrap_or(0));
        self.wall_ms.push(wall_ms);
        let mut informed = 0;
        for rt in &self.runtimes {
            rt.for_each_informed(|_| informed += 1);
        }
        self.informed.push(informed);
    }

    fn collect_rows(&self, rows: &mut Vec<(NodeId, Vec<NodeId>)>) {
        let start = rows.len();
        for rt in &self.runtimes {
            rt.for_each_live_view(|id, view| rows.push((id, view.ids().collect())));
        }
        // Joined ids land out of range order; sort globally.
        rows[start..].sort_unstable_by_key(|(id, _)| *id);
    }
}

/// Runs a loopback UDP cluster paced by the wall clock; see the [module
/// docs](self).
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
    run_on(config, || UdpTransport::bind("127.0.0.1:0"), Clock::Wall)
}

/// Runs the cluster over `net` in virtual time, one mesh endpoint per
/// runtime; see the [module docs](self). The report is bit-reproducible
/// per `(config, mesh seed)`.
///
/// # Errors
///
/// An invalid timer configuration, surfaced as `InvalidInput`.
///
/// # Panics
///
/// Panics if `nodes < 2` or `runtimes` is zero or exceeds `nodes`.
pub fn run_mem(config: &ClusterConfig, net: &MemNetwork) -> std::io::Result<ClusterReport> {
    run_on(config, || Ok(net.endpoint()), Clock::Virtual)
}

fn run_on<T: Transport>(
    config: &ClusterConfig,
    mut bind: impl FnMut() -> std::io::Result<T>,
    clock: Clock,
) -> std::io::Result<ClusterReport> {
    assert!(config.nodes >= 2, "need at least two nodes");
    assert!(
        config.runtimes >= 1 && config.runtimes <= config.nodes,
        "need 1..=nodes runtimes"
    );
    config
        .net_config()
        .validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let compiled = config.compiled();

    // Every transport exists before any node bootstraps, so the full
    // id → address map is known.
    let transports = (0..config.runtimes)
        .map(|_| bind())
        .collect::<std::io::Result<Vec<T>>>()?;
    let mut cluster = Cluster::new(config, &compiled, transports, clock);
    let view_size = config.policy().view_size();
    let (records, attack_records) = if compiled.adversary.is_some() {
        let (records, audit) = audit::run_attacked(&mut cluster, &compiled, view_size);
        (records, audit.records)
    } else {
        (run_workload(&mut cluster, &compiled, view_size), Vec::new())
    };
    // From the same instant as the per-period times.
    let elapsed = cluster.elapsed();
    let mut stats = RuntimeStats::default();
    for rt in &cluster.runtimes {
        stats.merge(&rt.stats());
    }

    let periods = records
        .iter()
        .zip(cluster.wall_ms)
        .map(|(r, wall_ms)| PeriodStats {
            period: r.period,
            wall_ms,
        })
        .collect();
    let broadcast = match config.broadcast {
        Some(_) => records
            .iter()
            .zip(cluster.informed)
            .map(|(r, informed)| BroadcastPeriod {
                period: r.period,
                live: r.live,
                informed,
            })
            .collect(),
        None => Vec::new(),
    };
    let converged_at = records
        .iter()
        .find(|r| r.full_fraction() >= 0.99)
        .map(|r| r.period);
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
    use pss_sim::LatencyModel;

    /// FNV-1a over a `Debug` rendering: `f64`s print their shortest
    /// round-trip form, so equal digests mean bit-equal values.
    fn digest(rendered: &str) -> u64 {
        rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |acc, b| {
            (acc ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The mesh every ported wall-clock test runs on.
    fn mesh(config: &ClusterConfig) -> MemNetwork {
        MemNetwork::new(config.seed, LatencyModel::Uniform { min: 1, max: 10 }, 0.0).expect("valid")
    }

    #[test]
    fn range_partition_covers_all_ids_in_order() {
        for (n, k) in [(10, 3), (7, 7), (1000, 4), (5, 1)] {
            let mut seen = 0usize;
            for r in 0..k {
                let (start, end) = planned_range(n, k, r);
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
        let net = mesh(&config);
        let transports = vec![net.endpoint(), net.endpoint()];
        let mut cluster = Cluster::new(&config, &config.compiled(), transports, Clock::Virtual);
        assert!(cluster.kill(NodeId::new(3)));
        assert!(!cluster.kill(NodeId::new(3)), "a departed node is not live");
        assert!(!cluster.kill(NodeId::new(9)), "an unknown id is not live");
        // Only the first kill reached a runtime: id 3's host.
        let alive: Vec<usize> = cluster
            .runtimes
            .iter()
            .map(NetRuntime::alive_count)
            .collect();
        assert_eq!(alive, [2, 1]);
    }

    /// The one-runtime, one-introducer mem cluster is the single-runtime
    /// harness it replaced: this constant was recorded from that harness
    /// (one `NetRuntime` on `MemNetwork` seed `0x77`, runtime seed
    /// `mix(9 ^ 1)`, node `i` introduced to node `i / 2`).
    #[test]
    fn single_runtime_mem_trajectory_matches_the_recorded_digest() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 60;
        config.runtimes = 1;
        config.introducers = 1;
        config.seed = 9;
        config.workload =
            Some(Workload::parse("quiet:8,kill:0.5,churn:0.02x8,part:2x3,quiet:3", 5).unwrap());
        let net =
            MemNetwork::new(0x77, LatencyModel::Uniform { min: 1, max: 10 }, 0.0).expect("valid");
        let report = run_mem(&config, &net).expect("cluster runs");
        assert_eq!(report.records.len(), 22);
        let rendered = format!("{:?}{:?}", report.records, report.stats);
        assert_eq!(
            digest(&rendered),
            0xaf4f_ffbd_1c75_fc03,
            "{:?}",
            report.stats
        );
    }

    /// A two-runtime mem run through every cluster path — attackers,
    /// kill, flash crowd, partition and a broadcast — twice: the reports
    /// are equal field by field, virtual `wall_ms` and `elapsed` included.
    #[test]
    fn two_runtime_mem_cluster_is_bit_reproducible() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 64;
        config.seed = 13;
        config.workload = Some(
            Workload::parse("adv:hub@0.05,quiet:4,kill:0.25,flash:8,part:2x3,quiet:3", 3).unwrap(),
        );
        config.broadcast = Some(ClusterBroadcast {
            origin: NodeId::new(1),
            fanout: 2,
            start_period: 3,
        });
        let run = || run_mem(&config, &mesh(&config)).expect("cluster runs");
        let (a, b) = (run(), run());
        assert_eq!(a.records, b.records);
        assert_eq!(a.attack_records, b.attack_records);
        assert_eq!(a.broadcast, b.broadcast);
        assert_eq!(a.periods, b.periods);
        assert_eq!((a.stats, a.elapsed), (b.stats, b.elapsed));
        assert_eq!(a.records.len(), 10);
        assert_eq!(a.elapsed, Duration::from_millis(10 * config.period_ms));
        assert_eq!(a.attack_records.len(), 10);
        assert!(a.broadcast_coverage() > 0.0, "{:?}", a.broadcast);
        assert!(a.stats.partition_blocked > 0, "{:?}", a.stats);
        let timing: Vec<(u64, u64)> = a.periods.iter().map(|p| (p.period, p.wall_ms)).collect();
        let rendered = format!(
            "{:?}{:?}{:?}{:?}{:?}",
            a.records, a.attack_records, a.broadcast, timing, a.stats
        );
        assert_eq!(digest(&rendered), 0x9edf_fa03_8ba2_8ba5, "{:?}", a.stats);
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
        let last = report.records.last().unwrap();
        assert!(
            last.full_fraction() >= 0.99,
            "only {}/{} full views",
            last.full_views,
            last.live
        );
        // Mean in-degree of a converged overlay equals c.
        assert!((last.in_degree_mean - 12.0).abs() < 0.5, "{last:?}");
        assert_eq!(report.stats.decode_failures(), 0, "{:?}", report.stats);
        assert!(report.stats.frames_in > 0);
        assert!(report.converged_at.is_some());
        assert!(report.frames_per_sec() > 0.0);
        assert!(report.exchanges_per_sec() > 0.0);
    }

    /// Every cluster path over real loopback sockets — attackers, kill,
    /// flash crowd, partition and a broadcast. Wall-clock runs are not
    /// reproducible, so this gates only on what load cannot move: frames
    /// flowed, none failed to decode, and one record per compiled period.
    #[test]
    fn loopback_cluster_runs_every_path() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 48;
        config.period_ms = 40;
        config.jitter_ms = 8;
        let workload =
            Workload::parse("adv:hub@0.05,quiet:2,kill:0.25,flash:8,part:2x2,quiet:2", 3).unwrap();
        let periods = workload.compile(config.nodes).periods() as usize;
        config.workload = Some(workload);
        config.broadcast = Some(ClusterBroadcast {
            origin: NodeId::new(1),
            fanout: 2,
            start_period: 2,
        });
        let report = run(&config).expect("cluster runs");
        assert!(report.stats.frames_in > 0, "{:?}", report.stats);
        assert_eq!(report.stats.decode_failures(), 0, "{:?}", report.stats);
        for rows in [
            report.periods.len(),
            report.records.len(),
            report.attack_records.len(),
            report.broadcast.len(),
        ] {
            assert_eq!(rows, periods);
        }
    }

    /// Timestamp freshness re-merges a 20-period lossy partition. The
    /// hop-splits/timestamp-heals differential is pinned in the
    /// sharded-sim conformance suite
    /// (`timestamp_freshness_heals_the_lossy_long_partition`); this test
    /// asserts only the positive half, on the deployed stack.
    #[test]
    fn timestamp_freshness_heals_the_lossy_partition() {
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
        let report = run_mem(&config, &mesh(&config)).expect("cluster runs");
        assert_eq!(report.records.len(), 41);
        // The loss matrix is in force at period 26. Whether the overlay
        // actually splits under it is not asserted...
        assert!(report.records[25].partitioned);
        // ...only that the timestamp-mode overlay is one component once it
        // lifts.
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
    /// introducer by the `[herd]` override — all integrate: the bootstrap
    /// retry/backoff path means overload delays joiners instead of
    /// silently dropping them.
    #[test]
    fn flash_herd_joins_without_starvation() {
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 12).unwrap();
        let mut config = ClusterConfig::small(protocol);
        config.nodes = 64;
        config.runtimes = 2;
        config.period_ms = 60;
        config.jitter_ms = 12;
        config.seed = 11;
        config.workload = Some(Workload::parse("quiet:8,flash:64[herd],quiet:12", 9).unwrap());
        let report = run_mem(&config, &mesh(&config)).expect("cluster runs");
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
