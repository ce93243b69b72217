//! Application protocols driven by compiled membership-dynamics schedules.
//!
//! [`run_under_workload`] rides the overlay workload driver
//! ([`pss_sim::workload::run_workload_observed`]): the compiled schedule
//! applies its kills/joins/partitions and runs one gossip period per step,
//! and after every period the application layer executes one broadcast
//! round and one push-pull averaging round *over the period's live view
//! rows*. The overlay rows are bit-identical per `(seed, shard_count)` at
//! any worker count, and the application layer draws from its own seeded
//! RNG in row order — so the per-period [`AppPeriodRow`]s inherit the same
//! determinism contract on every engine.
//!
//! Two samplers make sampling quality measurable under identical membership
//! trajectories: [`Sampler::Overlay`] pushes to raw view entries (dead
//! links waste deliveries, exactly as they would on the wire), while
//! [`Sampler::Oracle`] draws uniformly from the true live set — the ideal
//! baseline every epidemic-analysis result assumes.

use pss_core::NodeId;
use pss_sim::workload::{run_workload_observed, CompiledWorkload, Op, Partition, PeriodRecord};
use pss_sim::WorkloadTarget;
use pss_stats::Summary;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where the application layer gets its per-period gossip partners.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampler {
    /// The node's own partial view, dead links included — the deployed
    /// behavior of a peer-sampling consumer.
    Overlay,
    /// Uniform over the true live membership — the ideal baseline.
    Oracle,
}

impl Sampler {
    /// Lower-case label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Sampler::Overlay => "overlay",
            Sampler::Oracle => "oracle",
        }
    }
}

/// The node that injects the rumor (informed from period 1 if live).
const ORIGIN: usize = 0;

/// Aggregation value joiners start from: the mean of the initial values.
const JOINER_VALUE: f64 = 50.0;

/// Initial aggregation value of initial node `index`. Bimodal start: half
/// at 0, half at 100, mean 50 — the classic worst case for averaging.
fn bimodal_start(index: usize) -> f64 {
    ((index % 2) * 100) as f64
}

/// Application-layer parameters for [`run_under_workload`].
#[derive(Debug, Clone, Copy)]
pub struct AppConfig {
    /// Peers each informed node pushes the rumor to per period.
    pub fanout: usize,
    /// Seed of the application's own RNG; never touches the engine's.
    pub seed: u64,
    /// Peer supply for both protocols.
    pub sampler: Sampler,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            fanout: 2,
            seed: 0xa11c_a57e_5eed,
            sampler: Sampler::Overlay,
        }
    }
}

/// One period of application-level observables, produced alongside the
/// overlay [`PeriodRecord`] for the same period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppPeriodRow {
    /// 1-based period index, aligned with [`PeriodRecord::period`].
    pub period: u64,
    /// Live nodes after this period.
    pub live: usize,
    /// Informed *live* nodes after this period.
    pub informed: usize,
    /// Rumor pushes that landed on a live node this period.
    pub delivered: u64,
    /// Pushes that landed on an already-informed live node.
    pub redundant: u64,
    /// Pushes addressed to a dead id this period.
    pub wasted: u64,
    /// App messages (pushes and averaging exchanges) suppressed by an
    /// active partition this period — the application rides the same
    /// network the overlay does.
    pub blocked: u64,
    /// Averaging exchanges that targeted a dead peer this period.
    pub agg_wasted: u64,
    /// Value mean over the live population after this period — averaging
    /// conserves it while nobody dies.
    pub mean: f64,
    /// Value variance over the live population after this period.
    pub variance: f64,
}

/// Application-level result of a workload run: one [`AppPeriodRow`] per
/// period plus the derived dissemination/aggregation metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    rows: Vec<AppPeriodRow>,
    initial_variance: f64,
}

impl AppReport {
    /// The per-period application rows.
    pub fn rows(&self) -> &[AppPeriodRow] {
        &self.rows
    }

    /// Variance of the initial values over the initial population.
    pub fn initial_variance(&self) -> f64 {
        self.initial_variance
    }

    /// Final informed fraction of the live population.
    pub fn delivery_ratio(&self) -> f64 {
        match self.rows.last() {
            Some(row) if row.live > 0 => row.informed as f64 / row.live as f64,
            _ => 0.0,
        }
    }

    /// First period by which ≥ 99 % of the then-live population was
    /// informed, if ever.
    pub fn rounds_to_99(&self) -> Option<u64> {
        self.rows
            .iter()
            .find(|r| r.live > 0 && r.informed as f64 >= (0.99 * r.live as f64).ceil())
            .map(|r| r.period)
    }

    /// Redundant fraction of all live deliveries.
    pub fn redundancy(&self) -> f64 {
        let delivered: u64 = self.rows.iter().map(|r| r.delivered).sum();
        if delivered == 0 {
            return 0.0;
        }
        self.rows.iter().map(|r| r.redundant).sum::<u64>() as f64 / delivered as f64
    }

    /// Total rumor pushes that hit dead ids.
    pub fn wasted(&self) -> u64 {
        self.rows.iter().map(|r| r.wasted).sum()
    }

    /// Total app messages suppressed by partitions.
    pub fn blocked(&self) -> u64 {
        self.rows.iter().map(|r| r.blocked).sum()
    }

    /// Total averaging exchanges that hit dead peers.
    pub fn agg_wasted(&self) -> u64 {
        self.rows.iter().map(|r| r.agg_wasted).sum()
    }

    /// Per-period variance decay factor over the whole run (geometric
    /// mean): `(var_T / var_0)^(1/T)`. Smaller is faster convergence;
    /// uniform sampling achieves ≈ 1/(2√e) ≈ 0.303. Exact convergence
    /// (`var_T == 0`) reports 0.0; `NaN` is reserved for undefined cases
    /// (no periods, or a non-positive initial variance).
    pub fn decay_factor(&self) -> f64 {
        let t = self.rows.len();
        let last = match self.rows.last() {
            Some(row) => row.variance,
            None => return f64::NAN,
        };
        if self.initial_variance <= 0.0 {
            return f64::NAN;
        }
        if last <= 0.0 {
            return 0.0;
        }
        (last / self.initial_variance).powf(1.0 / t as f64)
    }
}

/// Runs the compiled workload on `target` while a broadcast and an
/// averaging run ride every period, returning the overlay records and the
/// application rows side by side. See the [module docs](self) for the
/// execution model and determinism contract.
pub fn run_under_workload<T: WorkloadTarget + ?Sized>(
    target: &mut T,
    compiled: &CompiledWorkload,
    view_size: usize,
    app: &AppConfig,
) -> (Vec<PeriodRecord>, AppReport) {
    let id_space = compiled.id_space;
    let mut rng = SmallRng::seed_from_u64(app.seed ^ 0x000a_2211_ed70_ca57);
    let mut informed = vec![false; id_space];
    let mut present = vec![false; id_space];
    let mut values = vec![0.0f64; id_space];
    let mut live_bit = vec![false; id_space];
    for i in 0..compiled.initial_nodes.min(id_space) {
        present[i] = true;
        values[i] = bimodal_start(i);
    }
    let initial_variance = {
        let s: Summary = values[..compiled.initial_nodes.min(id_space)]
            .iter()
            .copied()
            .collect();
        s.population_variance()
    };
    if ORIGIN < compiled.initial_nodes {
        informed[ORIGIN] = true;
    }

    let mut app_rows: Vec<AppPeriodRow> = Vec::with_capacity(compiled.steps.len());
    let mut senders: Vec<usize> = Vec::new();
    let mut partition: Option<Partition> = None;

    let app_round_ns = pss_telemetry::global().histogram(
        "pss_app_round_ns",
        "Wall time of one application round (broadcast + averaging) over a period's rows, nanoseconds",
    );
    let records = run_workload_observed(target, compiled, view_size, &mut |period, rows| {
        let round_started = std::time::Instant::now();
        // Mirror the partition the engine gossiped this period under: its
        // ops applied at the boundary, before the period ran.
        for op in &compiled.steps[period as usize - 1].ops {
            if let Op::SetPartition(p) = op {
                partition = *p;
            }
        }
        // Lossy matrices draw from the app RNG per cross-group message;
        // total blackouts and same-group traffic consume no randomness.
        let blocks = |a: usize, b: usize, rng: &mut SmallRng| {
            partition.is_some_and(|p| p.drops(NodeId::new(a as u64), NodeId::new(b as u64), rng))
        };
        // Admit joiners: first appearance in the live rows, uninformed and
        // holding the mean of the initial values.
        for (id, _) in rows {
            let idx = id.as_index();
            if !present[idx] {
                present[idx] = true;
                values[idx] = JOINER_VALUE;
            }
        }
        live_bit.iter_mut().for_each(|b| *b = false);
        for (id, _) in rows {
            live_bit[id.as_index()] = true;
        }

        // Uniform live pick excluding `self_idx`, for the oracle sampler.
        fn oracle_pick(
            rng: &mut SmallRng,
            rows: &[(NodeId, Vec<NodeId>)],
            self_idx: usize,
        ) -> Option<usize> {
            if rows.len() < 2 {
                return None;
            }
            let r = rng.random_range(0..rows.len() - 1);
            let idx = rows[r].0.as_index();
            if idx == self_idx {
                Some(rows[rows.len() - 1].0.as_index())
            } else {
                Some(idx)
            }
        }

        // One broadcast round: the senders are the nodes informed at the
        // start of the period (fresh recipients forward next period).
        let mut delivered = 0u64;
        let mut redundant = 0u64;
        let mut wasted = 0u64;
        let mut blocked = 0u64;
        senders.clear();
        senders.extend(
            rows.iter()
                .map(|(id, _)| id.as_index())
                .filter(|&i| informed[i]),
        );
        for &sender in &senders {
            let targets = &rows[rows
                .binary_search_by_key(&sender, |(id, _)| id.as_index())
                .expect("sender comes from rows")]
            .1;
            for _ in 0..app.fanout {
                let peer = match app.sampler {
                    Sampler::Overlay => {
                        if targets.is_empty() {
                            None
                        } else {
                            Some(targets[rng.random_range(0..targets.len())].as_index())
                        }
                    }
                    Sampler::Oracle => oracle_pick(&mut rng, rows, sender),
                };
                let Some(peer) = peer else { continue };
                if blocks(sender, peer, &mut rng) {
                    blocked += 1;
                    continue;
                }
                if peer >= id_space || !live_bit[peer] {
                    wasted += 1;
                    continue;
                }
                delivered += 1;
                if informed[peer] {
                    redundant += 1;
                } else {
                    informed[peer] = true;
                }
            }
        }

        // One push-pull averaging round over the live rows, in id order.
        let mut agg_wasted = 0u64;
        for (id, targets) in rows {
            let i = id.as_index();
            let peer = match app.sampler {
                Sampler::Overlay => {
                    if targets.is_empty() {
                        None
                    } else {
                        Some(targets[rng.random_range(0..targets.len())].as_index())
                    }
                }
                Sampler::Oracle => oracle_pick(&mut rng, rows, i),
            };
            let Some(j) = peer else { continue };
            if blocks(i, j, &mut rng) {
                blocked += 1;
                continue;
            }
            if j >= id_space || !live_bit[j] {
                agg_wasted += 1;
                continue;
            }
            if j != i {
                let avg = (values[i] + values[j]) / 2.0;
                values[i] = avg;
                values[j] = avg;
            }
        }

        let live_values: Summary = rows.iter().map(|(id, _)| values[id.as_index()]).collect();
        app_rows.push(AppPeriodRow {
            period,
            live: rows.len(),
            informed: rows
                .iter()
                .filter(|(id, _)| informed[id.as_index()])
                .count(),
            delivered,
            redundant,
            wasted,
            blocked,
            agg_wasted,
            mean: live_values.mean(),
            variance: live_values.population_variance(),
        });
        app_round_ns.record(round_started.elapsed().as_nanos() as u64);
    });

    (
        records,
        AppReport {
            rows: app_rows,
            initial_variance,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::{PolicyTriple, ProtocolConfig};
    use pss_sim::{
        scenario, EventConfig, LatencyModel, Mode, Sharded, ShardedEventSimulation,
        ShardedSimulation, Workload,
    };

    const VIEW: usize = 10;
    const NODES: usize = 96;

    fn protocol() -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), VIEW).unwrap()
    }

    fn tree_overlay(nodes: usize) -> ShardedSimulation<pss_core::PeerSamplingNode> {
        let mut sim = ShardedSimulation::new(protocol(), 11, 2);
        scenario::seed_tree(&mut sim, nodes);
        sim
    }

    fn cycle_engine(workers: usize) -> ShardedSimulation<pss_core::PeerSamplingNode> {
        let mut sim = tree_overlay(NODES);
        sim.set_workers(workers);
        sim
    }

    fn oracle() -> AppConfig {
        AppConfig {
            sampler: Sampler::Oracle,
            ..AppConfig::default()
        }
    }

    fn event_engine(workers: usize) -> ShardedEventSimulation<pss_core::PeerSamplingNode> {
        let event_config = EventConfig {
            period: 1000,
            jitter: 200,
            latency: LatencyModel::Uniform { min: 10, max: 200 },
            loss_probability: 0.01,
        };
        let mut sim = ShardedEventSimulation::new(protocol(), event_config, 11, 2).unwrap();
        scenario::seed_tree(&mut sim, NODES);
        sim.set_workers(workers);
        sim
    }

    fn acceptance() -> CompiledWorkload {
        Workload::parse("quiet:5,kill:0.3,churn:0.01x15", 7)
            .unwrap()
            .compile(NODES)
    }

    #[test]
    fn app_rows_bit_identical_across_worker_counts() {
        fn check<M: Mode>(build: fn(usize) -> Sharded<pss_core::PeerSamplingNode, M>) {
            let compiled = acceptance();
            let run = |workers: usize| {
                let (records, report) =
                    run_under_workload(&mut build(workers), &compiled, VIEW, &AppConfig::default());
                assert_eq!(records.len(), compiled.steps.len());
                report
            };
            let baseline = run(1);
            for workers in [2usize, 4] {
                assert_eq!(baseline, run(workers), "rows diverged at {workers} workers");
            }
        }
        check(cycle_engine);
        check(event_engine);
    }

    #[test]
    fn oracle_sampler_floods_a_quiet_overlay() {
        // Theory: fanout-2 push informs N nodes in O(log N) periods, and
        // push-pull averaging over uniform pairs shrinks the variance by
        // E[var_{t+1}] / var_t = 1/(2√e) ≈ 0.303 per period.
        const N: usize = 2000;
        let compiled = Workload::parse("quiet:20", 3).unwrap().compile(N);
        let (_, report) = run_under_workload(&mut tree_overlay(N), &compiled, VIEW, &oracle());
        assert_eq!(report.delivery_ratio(), 1.0);
        let rounds = report.rounds_to_99().expect("the oracle floods");
        assert!(
            rounds as f64 <= 1.5 * (N as f64).log2(),
            "took {rounds} periods"
        );
        assert_eq!(report.wasted(), 0, "oracle never pushes to the dead");
        assert!(report.redundancy() > 0.0);
        let d = report.decay_factor();
        assert!((0.2..0.45).contains(&d), "decay factor {d}");
    }

    #[test]
    fn exact_convergence_reports_zero_decay() {
        // One push-pull exchange leaves both nodes at the mean: variance
        // is exactly zero, the best possible outcome, so decay reads 0.0.
        let compiled = Workload::parse("quiet:1", 1).unwrap().compile(2);
        let (_, report) = run_under_workload(&mut tree_overlay(2), &compiled, VIEW, &oracle());
        let row = report.rows()[0];
        assert_eq!((row.mean, row.variance), (50.0, 0.0));
        assert_eq!(report.decay_factor(), 0.0);
    }

    #[test]
    fn empty_schedule_reports_undefined_metrics() {
        let compiled = Workload::parse("", 1).unwrap().compile(NODES);
        let (records, report) =
            run_under_workload(&mut cycle_engine(1), &compiled, VIEW, &oracle());
        assert!(records.is_empty() && report.rows().is_empty());
        assert!(report.decay_factor().is_nan());
        assert_eq!(report.delivery_ratio(), 0.0);
        assert_eq!(report.rounds_to_99(), None);
    }

    #[test]
    fn zero_fanout_never_spreads() {
        let compiled = Workload::parse("quiet:5", 1).unwrap().compile(NODES);
        let app = AppConfig {
            fanout: 0,
            ..oracle()
        };
        let (_, report) = run_under_workload(&mut cycle_engine(1), &compiled, VIEW, &app);
        assert!(report
            .rows()
            .iter()
            .all(|r| r.informed == 1 && r.delivered == 0));
        assert_eq!(report.delivery_ratio(), 1.0 / NODES as f64);
    }

    #[test]
    fn partitions_block_app_traffic_until_heal() {
        // Table-1-style: the overlay splits in two for the first 6
        // periods. Even the oracle sampler cannot push across the cut —
        // the app rides the same network — so coverage stalls inside the
        // origin's group and only floods the rest after the heal.
        let compiled = Workload::parse("part:2x6,quiet:10", 5)
            .unwrap()
            .compile(NODES);
        let mut sim = cycle_engine(1);
        let (records, report) = run_under_workload(&mut sim, &compiled, VIEW, &oracle());
        assert!(report.blocked() > 0, "no app message ever hit the cut");
        let mid = &report.rows()[3]; // period 4, mid-partition
        assert!(
            mid.informed < mid.live / 2 + mid.live % 2 + 1,
            "rumor crossed the partition: {mid:?}"
        );
        assert!(records[3].partitioned && !records.last().unwrap().partitioned);
        assert_eq!(report.delivery_ratio(), 1.0, "heal must re-flood");
        // Once healed, nothing is blocked any more.
        assert_eq!(report.rows().last().unwrap().blocked, 0);
    }

    #[test]
    fn overlay_sampler_wastes_on_catastrophe_and_joiners_start_cold() {
        let compiled = acceptance();
        let app = AppConfig::default();
        let mut sim = cycle_engine(2);
        let (records, report) = run_under_workload(&mut sim, &compiled, VIEW, &app);
        // The kill at period 6 leaves stale view entries: pushes and
        // exchanges must observably waste on them.
        assert!(report.wasted() + report.agg_wasted() > 0);
        // Informed never exceeds live, and the delivery ratio is over live.
        for row in report.rows() {
            assert!(row.informed <= row.live, "{row:?}");
        }
        assert!(report.delivery_ratio() > 0.9, "{}", report.delivery_ratio());
        // Overlay records rode along unchanged.
        assert!(records.last().unwrap().component_fraction() > 0.95);
    }
}
