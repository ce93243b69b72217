//! Cross-engine workload conformance: the same compiled schedule —
//! churn, catastrophe, flash crowd, partition/heal, growth — must (a) be
//! bit-deterministic per `(seed, shard_count)` at any worker count on the
//! sharded engines, (b) produce statistically agreeing recovery
//! trajectories across engines, and (c) satisfy the self-healing bounds
//! (dead-link decay, largest-live-component recovery) on every schedule in
//! the family — generalizing `tests/self_healing.rs` from one hand-rolled
//! catastrophe to the whole schedule family.

mod common;

use common::{boxed_factory, event_config, view_digest};
use pss_core::{PeerSamplingNode, PolicyTriple, ProtocolConfig};
use pss_sim::workload::{run_workload, PeriodRecord, Workload};
use pss_sim::{
    scenario, BoxedNode, Mode, Sharded, ShardedEventSimulation, ShardedSimulation, WorkloadTarget,
};

const N: usize = 200;
const C: usize = 15;

fn headline_policies() -> [(&'static str, PolicyTriple); 3] {
    [
        ("newscast", PolicyTriple::newscast()),
        ("lpbcast", PolicyTriple::lpbcast()),
        (
            "tail-pushpull",
            "(tail,tail,pushpull)".parse().expect("valid policy"),
        ),
    ]
}

/// The schedule family under test. Every schedule starts with a quiet
/// convergence window so dynamics hit a warm overlay.
fn schedule_family() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "churn",
            Workload::parse("quiet:6,churn:0.02x12", 41).unwrap(),
        ),
        (
            "catastrophe",
            Workload::parse("quiet:6,kill:0.5,churn:0.01x14", 42).unwrap(),
        ),
        (
            "flash-crowd",
            Workload::parse("quiet:6,flash:100,quiet:10", 43).unwrap(),
        ),
        (
            "partition",
            Workload::parse("quiet:6,part:2x3,quiet:8", 44).unwrap(),
        ),
        (
            "growth",
            Workload::parse("quiet:4,grow:60/10,quiet:6", 45).unwrap(),
        ),
    ]
}

fn protocol(policy: PolicyTriple) -> ProtocolConfig {
    ProtocolConfig::new(policy, C).expect("valid")
}

/// Tree-bootstrapped sharded event engine.
fn event_sim(
    protocol: ProtocolConfig,
    seed: u64,
    shards: usize,
) -> ShardedEventSimulation<PeerSamplingNode> {
    let mut sim =
        ShardedEventSimulation::new(protocol, event_config(), seed, shards).expect("valid");
    scenario::seed_tree(&mut sim, N);
    sim
}

/// Tree-bootstrapped sharded cycle engine.
fn cycle_sim(
    protocol: ProtocolConfig,
    seed: u64,
    shards: usize,
) -> ShardedSimulation<PeerSamplingNode> {
    let mut sim = ShardedSimulation::new(protocol, seed, shards);
    scenario::seed_tree(&mut sim, N);
    sim
}

/// (a) Bit-determinism: for a fixed `(seed, shard_count)`, the full
/// per-period trajectory and the final overlay are identical at any worker
/// count — for every headline policy and every schedule in the family, on
/// both sharded engines.
#[test]
fn every_schedule_is_bit_deterministic_across_worker_counts() {
    fn check<M: Mode>(
        build: impl Fn() -> Sharded<PeerSamplingNode, M>,
        workload: &Workload,
        what: &str,
    ) {
        let compiled = workload.compile(N);
        let run = |workers: usize| {
            let mut sim = build();
            sim.set_workers(workers);
            let records = run_workload(&mut sim, &compiled, C);
            (records, view_digest(&sim))
        };
        let (records1, digest1) = run(1);
        let (records2, digest2) = run(2);
        let engine = std::any::type_name::<M>();
        assert_eq!(records1, records2, "{engine} records diverged ({what})");
        assert_eq!(digest1, digest2, "{engine} overlays diverged ({what})");
    }
    for (policy_name, policy) in headline_policies() {
        for (schedule_name, workload) in schedule_family() {
            let what = format!("{policy_name}, {schedule_name}");
            check(|| event_sim(protocol(policy), 7, 2), &workload, &what);
            check(|| cycle_sim(protocol(policy), 7, 2), &workload, &what);
        }
    }
}

/// Boxed and monomorphized populations stay interchangeable under workload
/// driving (kills, churn joins): a `with_factory` engine of boxed nodes and
/// the `new` engine produce identical trajectories for the same schedule —
/// on both engines at two shards, so the cycle engine's mailbox phases and
/// the event engine's tick loop run their lookahead over boxed nodes too.
#[test]
fn boxed_population_matches_monomorphized_under_workloads() {
    fn check<M: Mode>(mut boxed: Sharded<BoxedNode, M>, mut typed: Sharded<PeerSamplingNode, M>) {
        let compiled = Workload::parse("quiet:4,kill:0.3,churn:0.02x6", 3)
            .unwrap()
            .compile(N);
        scenario::seed_tree(&mut boxed, N);
        scenario::seed_tree(&mut typed, N);
        let a = run_workload(&mut boxed, &compiled, C);
        let b = run_workload(&mut typed, &compiled, C);
        let engine = std::any::type_name::<M>();
        assert_eq!(a, b, "{engine} records diverged");
        assert_eq!(view_digest(&boxed), view_digest(&typed), "{engine}");
    }
    let protocol = protocol(PolicyTriple::newscast());
    check(
        ShardedSimulation::with_factory(5, 2, boxed_factory(protocol.clone())),
        ShardedSimulation::new(protocol.clone(), 5, 2),
    );
    check(
        ShardedEventSimulation::with_factory(event_config(), 5, 2, boxed_factory(protocol.clone()))
            .expect("valid"),
        ShardedEventSimulation::new(protocol, event_config(), 5, 2).expect("valid"),
    );
}

/// Type erasure changes nothing: one schedule driven through
/// `&mut dyn WorkloadTarget` — how the cross-engine experiment commands
/// hold their engine pair — yields the records and the overlay the concrete
/// engine type yields, on both engines.
#[test]
fn dyn_target_matches_the_concrete_type() {
    fn check<M: Mode>(build: impl Fn() -> Sharded<PeerSamplingNode, M>) {
        let compiled =
            Workload::parse("quiet:3,kill:0.3,churn:0.02x4,flash:20,part:2x2,quiet:2", 5)
                .unwrap()
                .compile(N);
        let mut concrete = build();
        let mut erased = build();
        let target: &mut dyn WorkloadTarget = &mut erased;
        assert_eq!(
            run_workload(&mut concrete, &compiled, C),
            run_workload(target, &compiled, C)
        );
        assert_eq!(view_digest(&concrete), view_digest(&erased));
    }
    check(|| cycle_sim(protocol(PolicyTriple::newscast()), 17, 2));
    check(|| event_sim(protocol(PolicyTriple::newscast()), 17, 2));
}

/// (b) Cross-engine statistical agreement on the acceptance schedule
/// (catastrophic 50% kill, 1%/period churn thereafter): the cycle engine
/// (the paper's live-peer selection) and the event engine (liveness-blind,
/// jitter + latency + loss) must both recover — ≥ 99% full views by the
/// pinned period, post-recovery in-degree means within 1.0 of each other.
#[test]
fn cycle_and_event_recovery_trajectories_agree() {
    let workload = Workload::parse("quiet:10,kill:0.5,churn:0.01x20", 42).unwrap();
    let compiled = workload.compile(N);

    let mut cycle = cycle_sim(protocol(PolicyTriple::newscast()), 11, 2);
    let cycle_records = run_workload(&mut cycle, &compiled, C);
    let mut event = event_sim(protocol(PolicyTriple::newscast()), 11, 2);
    let event_records = run_workload(&mut event, &compiled, C);

    // Pinned recovery period: 14 periods after the kill at period 11.
    const RECOVERED_BY: usize = 25;
    for records in [&cycle_records, &event_records] {
        let r = &records[RECOVERED_BY - 1];
        assert!(
            r.full_fraction() >= 0.99,
            "not ≥99% full views by period {RECOVERED_BY}: {r:?}"
        );
    }
    for p in RECOVERED_BY..compiled.periods() as usize {
        let (c_rec, e_rec) = (&cycle_records[p], &event_records[p]);
        assert!(
            (c_rec.in_degree_mean - e_rec.in_degree_mean).abs() <= 1.0,
            "post-recovery in-degree means diverged at period {}: cycle {c_rec:?} vs event {e_rec:?}",
            p + 1
        );
    }
    // Both engines executed the identical membership trajectory.
    for (c_rec, e_rec) in cycle_records.iter().zip(event_records.iter()) {
        assert_eq!(
            (c_rec.live, c_rec.killed, c_rec.joined),
            (e_rec.live, e_rec.killed, e_rec.joined)
        );
    }
}

/// (c) Self-healing bounds across the schedule family, on the event
/// engine with jitter, latency and loss on.
#[test]
fn self_healing_bounds_hold_for_every_schedule() {
    let check = |records: &[PeriodRecord], name: &str| {
        let last = records.last().unwrap();
        assert!(
            last.dead_link_fraction() <= 0.06,
            "{name}: dead links did not decay: {last:?}"
        );
        assert!(
            last.component_fraction() >= 0.98,
            "{name}: live overlay did not recover: {last:?}"
        );
        assert!(
            last.full_fraction() >= 0.95,
            "{name}: views did not refill: {last:?}"
        );
    };

    for (name, workload) in schedule_family() {
        let compiled = workload.compile(N);
        let mut sim = event_sim(protocol(PolicyTriple::newscast()), 23, 2);
        let records = run_workload(&mut sim, &compiled, C);
        check(&records, name);

        match name {
            "catastrophe" => {
                // Half the population died at period 7: the damage must be
                // visible before it heals (healing is the claim, not the
                // absence of damage).
                assert!(records[6].killed >= N / 2, "{:?}", records[6]);
                assert!(records[6].dead_link_fraction() >= 0.3, "{:?}", records[6]);
                // Exponential decay: monotone-ish halving over recovery.
                let mid = &records[15];
                assert!(
                    mid.dead_link_fraction() < records[6].dead_link_fraction() / 2.0,
                    "decay too slow: {mid:?}"
                );
            }
            "churn" => {
                // Sustained 2%/period churn keeps dead links bounded.
                for r in &records[6..] {
                    assert!(
                        r.dead_link_fraction() <= 0.2,
                        "churn dead links unbounded: {r:?}"
                    );
                    assert!(r.component_fraction() >= 0.95, "{r:?}");
                }
            }
            "flash-crowd" => {
                // 100 joiners all integrated: population grew, everyone
                // reaches a full view by the end.
                assert_eq!(records.last().unwrap().live, N + 100);
                assert_eq!(records[6].joined, 100);
            }
            "partition" => {
                // Covered in detail below.
            }
            "growth" => {
                // 10 joiners a period for 6 periods, each knowing only
                // node 0, all integrated by the end.
                let joined: Vec<usize> = records.iter().map(|r| r.joined).collect();
                assert_eq!(joined[4..10], [10; 6]);
                assert_eq!(records.last().unwrap().live, N + 60);
            }
            other => panic!("unknown schedule {other}"),
        }
    }
}

/// Partition/heal in detail: the loss matrix actually blocks traffic
/// (dropped messages spike), a *short* partition leaves enough stale
/// cross-group descriptors for the overlay to re-merge after healing, and
/// the healed overlay recovers full quality.
#[test]
fn short_partition_blocks_traffic_then_remerges() {
    let workload = Workload::parse("quiet:6,part:2x3,quiet:8", 9).unwrap();
    let compiled = workload.compile(N);
    let mut sim = event_sim(protocol(PolicyTriple::newscast()), 31, 2);

    let records = run_workload(&mut sim, &compiled, C);
    let report = sim.report();
    assert!(
        report.dropped_messages > (N as u64) / 2,
        "partition never blocked traffic: {report:?}"
    );
    for r in &records[6..9] {
        assert!(r.partitioned, "{r:?}");
    }
    let last = records.last().unwrap();
    assert!(!last.partitioned);
    assert_eq!(
        last.largest_component, N,
        "overlay failed to re-merge after a short partition: {last:?}"
    );
    assert!(last.full_fraction() >= 0.99, "{last:?}");
    assert!(
        (last.in_degree_mean - C as f64).abs() < 0.5,
        "healed overlay should be converged: {last:?}"
    );
}

/// A *long* partition is genuinely destructive under head view selection:
/// cross-group descriptors age out, the live communication graph splits
/// into the two groups, and healing the loss matrix cannot re-merge what
/// no view remembers. This is the honest gossip result — partitions heal
/// only if the partition is shorter than the views' memory.
#[test]
fn long_partition_splits_the_overlay() {
    let workload = Workload::parse("quiet:6,part:2x20,quiet:6", 9).unwrap();
    let compiled = workload.compile(N);
    let mut sim = event_sim(protocol(PolicyTriple::newscast()), 13, 2);
    let records = run_workload(&mut sim, &compiled, C);

    // Hop-count freshness decays cross-group entries slowly (they only
    // age on transfer), so the split takes a dozen-plus periods — but late
    // in the partition no component spans both groups any more (and the
    // marooned halves may fragment further as views collapse onto
    // self-reinforcing subsets).
    let during = &records[25];
    assert!(during.partitioned);
    assert!(
        during.component_fraction() <= 0.55,
        "cross-group links should have aged out: {during:?}"
    );
    // And the split survives the heal: no view remembers the other side.
    let last = records.last().unwrap();
    assert!(!last.partitioned);
    assert!(
        last.component_fraction() <= 0.55,
        "nothing should re-introduce the groups: {last:?}"
    );
}

/// Sibling of [`long_partition_splits_the_overlay`]: the same 20-period
/// partition, now as a lossy matrix (65% cross-group loss) instead of a
/// total egress block, run under both freshness modes on both sharded
/// engines.
///
/// The trickle of surviving cross-group exchanges is what separates the
/// modes. Under [`Freshness::HopCount`] a descriptor's age inflates by one
/// on *every* transfer, so trickle-delivered cross entries — which arrive
/// via long relay chains — age past the head-selection eviction bar while
/// the short-hop in-group traffic stays young: the cross population dies
/// and the overlay maroons exactly as in the total-block pin. Under
/// [`Freshness::Timestamp`] age is the owner's clock reading, transit adds
/// nothing, so the same trickle sustains a standing cross-group population
/// through the partition and the overlay re-merges fully after heal.
///
/// The run is bit-deterministic per `(engine seed, shards)`; the pinned
/// seed makes the demonstration exact. The effect is statistical but
/// strong: at this loss rate, over seeds 1..=20 on both engines, timestamp
/// healed 20/40 runs while hop-count healed 4/40.
#[test]
fn timestamp_freshness_heals_the_lossy_long_partition() {
    use pss_core::Freshness;
    let workload = Workload::parse("quiet:6,part:2x20@0.65,quiet:15", 9).unwrap();
    let compiled = workload.compile(N);

    let newscast = |f: Freshness| protocol(PolicyTriple::newscast()).with_freshness(f);
    let run_event = |f: Freshness| run_workload(&mut event_sim(newscast(f), 7, 2), &compiled, C);
    let run_cycle = |f: Freshness| run_workload(&mut cycle_sim(newscast(f), 7, 2), &compiled, C);
    type Run<'a> = &'a dyn Fn(Freshness) -> Vec<PeriodRecord>;
    for (engine, run) in [("event", &run_event as Run), ("cycle", &run_cycle as Run)] {
        // Hop-count mode: marooned, same as the total-block pin.
        let hop = run(Freshness::HopCount);
        let hop_last = hop.last().unwrap();
        assert!(!hop_last.partitioned);
        assert!(
            hop_last.component_fraction() <= 0.55,
            "{engine}: hop-count should stay split after the lossy \
             partition heals: {hop_last:?}"
        );

        // Timestamp mode: the identical schedule re-merges.
        let ts = run(Freshness::Timestamp);
        let ts_last = ts.last().unwrap();
        assert!(!ts_last.partitioned);
        assert!(
            ts_last.component_fraction() >= 0.98,
            "{engine}: timestamp freshness should re-merge the overlay: \
             {ts_last:?}"
        );
        assert!(
            ts_last.dead_link_fraction() <= 0.06,
            "{engine}: healed overlay should not be full of dead links: \
             {ts_last:?}"
        );
        assert!(hop[25].partitioned && ts[25].partitioned);
    }
}
