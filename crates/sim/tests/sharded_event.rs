//! Sharded event-engine regression tests — the event-driven analogue of
//! `sharded.rs`.
//!
//! Contracts pinned here:
//!
//! 1. **Boxed ≡ monomorphized, chunked ≡ unchunked** — a 1-shard
//!    `with_factory` engine of boxed nodes and the `new` engine the
//!    scenarios build produce identical per-event delivery order, final
//!    views, and event statistics for all three headline policies,
//!    regardless of how the run is chunked into `run_until` calls; the
//!    1-shard serial path itself is pinned by its own digest.
//! 2. **Worker invariance** — for a fixed `(seed, shard_count)`, the full
//!    per-period digest stream is bit-identical at 1, 2, or 4 workers,
//!    under timer jitter, message latency, message loss, and churn.
//! 3. **Pinned digest** — a constant digest of a tiny-scale 2-shard run;
//!    update the constant only for an intentional engine change, and say so
//!    in the commit.
//! 4. **Chunk invariance** — cross-shard mail is exchanged only at absolute
//!    bucket boundaries, so splitting a run into arbitrary `run_until`
//!    chunks can never change results.
//! 5. **Parallel bootstrap invariance** — `add_nodes_bulk` builds the same
//!    population and event schedule at any worker count, on both engines.

mod common;

use common::{
    apply_step, assert_csr_matches_views, assert_streaming_matches_csr, boxed_factory,
    digest_event_report, fnv1a, view_digest, FNV_OFFSET,
};
use pss_core::{NodeDescriptor, NodeId, PolicyTriple, ProtocolConfig};
use pss_graph::gen;
use pss_sim::workload::{run_workload, Workload};
use pss_sim::{scenario, EventConfig, LatencyModel, ShardedEventSimulation, ShardedSimulation};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn stressed_config() -> EventConfig {
    EventConfig {
        period: 500,
        jitter: 120,
        latency: LatencyModel::Uniform { min: 9, max: 60 },
        loss_probability: 0.04,
    }
}

fn views_of(
    sim: &ShardedEventSimulation<impl pss_core::GossipNode + Send>,
) -> Vec<Vec<(u64, u32)>> {
    sim.alive_ids()
        .into_iter()
        .map(|id| {
            sim.view_of(id)
                .expect("alive")
                .iter()
                .map(|d| (d.id().as_u64(), d.hop_count()))
                .collect()
        })
        .collect()
}

#[test]
fn one_shard_matches_sequential_for_headline_policies() {
    let policies: [(&str, PolicyTriple); 3] = [
        ("newscast", PolicyTriple::newscast()),
        ("lpbcast", PolicyTriple::lpbcast()),
        (
            "tail-pushpull",
            "(tail,tail,pushpull)".parse().expect("valid policy"),
        ),
    ];
    let event = EventConfig {
        period: 400,
        jitter: 90,
        latency: LatencyModel::Uniform { min: 5, max: 45 },
        loss_probability: 0.03,
    };
    for (name, policy) in policies {
        let config = ProtocolConfig::new(policy, 10).expect("valid");
        let mut topo = SmallRng::seed_from_u64(99);
        let graph = gen::uniform_view_digraph(120, 10, &mut topo);

        // A heterogeneous-capable boxed population, built by serial
        // joins...
        let mut boxed =
            ShardedEventSimulation::with_factory(event, 31, 1, boxed_factory(config.clone()))
                .expect("valid");
        scenario::seed_from_digraph(&mut boxed, 10, &graph);
        // ...vs the monomorphized engine, run in a different chunking.
        let mut typed = ShardedEventSimulation::new(config, event, 31, 1).expect("valid");
        scenario::seed_from_digraph(&mut typed, 10, &graph);

        boxed.set_record_deliveries(true);
        typed.set_record_deliveries(true);

        boxed.run_for(4000);
        let mut at = 0u64;
        for chunk in [137u64, 600, 263, 1500, 1500] {
            at += chunk;
            typed.run_until(at);
        }
        assert_eq!(at, 4000);

        // Per-event delivery order, bit for bit.
        let boxed_log = boxed.take_deliveries();
        let typed_log = typed.take_deliveries();
        assert_eq!(boxed_log, typed_log, "{name}: delivery order diverged");
        assert!(!typed_log.is_empty(), "{name}: no deliveries recorded");

        // CycleReport-equivalent statistics.
        assert_eq!(boxed.report(), typed.report(), "{name}: reports diverged");

        // Final views.
        assert_eq!(views_of(&boxed), views_of(&typed), "{name}: views diverged");
    }
}

/// Runs a 4-shard event simulation under jitter + latency + loss + churn
/// — with a mid-run mass failure that exercises the dead-delivery paths —
/// and digests every period's report and overlay stream.
fn stressed_run(workers: usize) -> u64 {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).expect("valid");
    let mut sim = scenario::event_random_overlay_sharded(&config, stressed_config(), 120, 77, 4)
        .expect("valid");
    sim.set_workers(workers);
    let compiled = Workload::parse("churn:0.03x6,kill:0.2,churn:0.03x4", 77)
        .expect("valid schedule")
        .compile(120);
    let mut digest = FNV_OFFSET;
    for step in &compiled.steps {
        apply_step(&mut digest, &mut sim, step);
        // One gossip period per cycle.
        let report = sim.run_cycle();
        fnv1a(&mut digest, report.completed);
        fnv1a(&mut digest, report.failed_dead_peer);
        fnv1a(&mut digest, report.empty_view);
        fnv1a(&mut digest, report.dropped_messages);
        fnv1a(&mut digest, view_digest(&sim));
        fnv1a(&mut digest, sim.alive_count() as u64);
    }
    digest_event_report(&mut digest, &sim.report());
    fnv1a(&mut digest, sim.dead_link_count() as u64);
    fnv1a(&mut digest, sim.events_processed());
    digest
}

#[test]
fn worker_count_never_changes_results() {
    let one = stressed_run(1);
    let two = stressed_run(2);
    let four = stressed_run(4);
    assert_eq!(one, two, "1 vs 2 workers diverged");
    assert_eq!(one, four, "1 vs 4 workers diverged");
}

/// The pinned digest: `Scale::tiny()` parameters (N = 300, c = 15, seed
/// 20040601) on 2 shards, 20 gossip periods of the default event config.
/// If this fails and you did not intend to change engine semantics, you
/// broke determinism.
#[test]
fn pinned_digest_at_tiny_scale() {
    // The persistent worker pool must be invisible to results: the pinned
    // value holds at every pool width, not just the historical 2.
    for workers in [1, 2, 4] {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).expect("valid");
        let mut sim = scenario::event_random_overlay_sharded(
            &config,
            EventConfig::default(),
            300,
            20040601,
            2,
        )
        .expect("valid");
        sim.set_workers(workers);
        let mut digest = FNV_OFFSET;
        for _ in 0..20 {
            sim.run_for(1000);
            digest_event_report(&mut digest, &sim.report());
        }
        fnv1a(&mut digest, view_digest(&sim));
        assert_eq!(
            digest, PINNED_TINY_EVENT_DIGEST,
            "tiny-scale 2-shard event digest changed at {workers} workers: engine semantics moved"
        );
    }
}

/// See [`pinned_digest_at_tiny_scale`].
const PINNED_TINY_EVENT_DIGEST: u64 = 3724866096535109322;

/// The 1-shard **serial** path — one queue pair, no mailbox, node seeds and
/// timer phases drawn from the control RNG in join order — built by
/// `add_node` from the digraph `scenario::random_overlay` seeds the cycle
/// engine with: same parameters as [`pinned_digest_at_tiny_scale`].
#[test]
fn pinned_serial_one_shard_digest_at_tiny_scale() {
    let seed = 20040601;
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 15).expect("valid");
    let mut sim =
        ShardedEventSimulation::new(config, EventConfig::default(), seed, 1).expect("valid");
    scenario::seed_from_digraph(&mut sim, 15, &scenario::random_digraph(300, 15, seed));
    let mut digest = FNV_OFFSET;
    for _ in 0..20 {
        sim.run_for(1000);
        digest_event_report(&mut digest, &sim.report());
    }
    fnv1a(&mut digest, view_digest(&sim));
    assert_eq!(digest, PINNED_TINY_SERIAL_EVENT_DIGEST);
}

/// See [`pinned_serial_one_shard_digest_at_tiny_scale`].
const PINNED_TINY_SERIAL_EVENT_DIGEST: u64 = 2809468924367393821;

/// The timestamp freshness axis obeys the same determinism contract as the
/// default hop-count mode on the event engine: fixed `(seed, shard_count)`
/// digests are identical at every worker count, and differ from the
/// hop-count pin (the mode is load-bearing).
#[test]
fn timestamp_freshness_is_worker_invariant() {
    use pss_core::Freshness;
    let run = |workers: usize| {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 15)
            .expect("valid")
            .with_freshness(Freshness::Timestamp);
        let mut sim = scenario::event_random_overlay_sharded(
            &config,
            EventConfig::default(),
            300,
            20040601,
            2,
        )
        .expect("valid");
        sim.set_workers(workers);
        let mut digest = FNV_OFFSET;
        for _ in 0..20 {
            sim.run_for(1000);
            digest_event_report(&mut digest, &sim.report());
        }
        fnv1a(&mut digest, view_digest(&sim));
        digest
    };
    let one = run(1);
    assert_eq!(one, run(2), "1 vs 2 workers diverged under Timestamp");
    assert_eq!(one, run(4), "1 vs 4 workers diverged under Timestamp");
    assert_ne!(
        one, PINNED_TINY_EVENT_DIGEST,
        "timestamp mode must actually change the trajectory"
    );
}

#[test]
fn chunked_runs_are_bit_identical() {
    // Cross-shard mail parks in its fixed-order lanes across mid-bucket
    // stops, so arbitrary run_until chunkings merge it identically.
    let run = |chunks: &[u64]| {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 9).expect("valid");
        let mut sim = scenario::event_random_overlay_sharded(&config, stressed_config(), 90, 13, 3)
            .expect("valid");
        sim.set_record_deliveries(true);
        let mut at = 0;
        for &chunk in chunks {
            at += chunk;
            sim.run_until(at);
        }
        assert_eq!(at, 3000);
        let mut digest = FNV_OFFSET;
        for d in sim.take_deliveries() {
            fnv1a(&mut digest, d.sent);
            fnv1a(&mut digest, d.delivered);
            fnv1a(&mut digest, d.from.as_u64());
            fnv1a(&mut digest, d.to.as_u64());
            fnv1a(&mut digest, d.sent_seq);
        }
        digest_event_report(&mut digest, &sim.report());
        fnv1a(&mut digest, view_digest(&sim));
        digest
    };
    let whole = run(&[3000]);
    assert_eq!(whole, run(&[1, 2, 4, 8, 985, 1000, 1000]));
    assert_eq!(whole, run(&[299, 1, 700, 2000]));
}

#[test]
fn shard_count_is_part_of_the_result_contract() {
    // Different shard counts legitimately produce different (equally
    // valid) trajectories — same-time deliveries tie-break in mailbox
    // order. Pin that they are not accidentally identical, so nobody
    // "simplifies" the bucket exchange into something serialized.
    let run = |shards: usize| {
        let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).expect("valid");
        let mut sim =
            scenario::event_random_overlay_sharded(&config, EventConfig::default(), 100, 7, shards)
                .expect("valid");
        sim.run_for(5000);
        view_digest(&sim)
    };
    assert_ne!(run(1), run(4));
}

#[test]
fn bulk_construction_is_worker_invariant_on_each_engine() {
    let config = || ProtocolConfig::new(PolicyTriple::newscast(), 10).expect("valid");
    let ring = |id: NodeId| [NodeDescriptor::fresh(NodeId::new((id.as_u64() + 1) % 200))];

    // Event engine: population, views, and the initial event schedule.
    let build_event = |workers: usize| {
        let mut sim =
            ShardedEventSimulation::new(config(), EventConfig::default(), 5, 4).expect("valid");
        sim.set_workers(workers);
        sim.add_nodes_bulk(200, ring);
        // Run a little so timer phases influence state.
        sim.run_for(2500);
        let mut digest = view_digest(&sim);
        digest_event_report(&mut digest, &sim.report());
        digest
    };
    assert_eq!(build_event(1), build_event(4));

    // Cycle engine: same bulk path, same invariance.
    let build_cycle = |workers: usize| {
        let mut sim = ShardedSimulation::new(config(), 5, 4);
        sim.set_workers(workers);
        sim.add_nodes_bulk(200, ring);
        sim.run_cycles(5);
        view_digest(&sim)
    };
    assert_eq!(build_cycle(1), build_cycle(4));
}

#[test]
fn joins_after_a_frozen_bucket_respect_the_lookahead() {
    // Ending a run one tick short of a bucket boundary freezes that bucket
    // (its mail is already exchanged). A joiner drawing timer phase 0 would
    // land inside it; the engine must clamp the timer to the processing
    // frontier or a cross-shard message comes due before the next boundary
    // (the merge-path debug_assert catches the violation in debug builds).
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).expect("valid");
    let event = EventConfig {
        period: 50,
        jitter: 0,
        latency: LatencyModel::Uniform { min: 10, max: 10 },
        loss_probability: 0.0,
    };
    let mut sim = ShardedEventSimulation::new(config, event, 40, 2).expect("valid");
    sim.add_connected_nodes(10);
    sim.run_until(9); // frontier lands exactly on the bucket boundary (10)
    for _ in 0..200 {
        // 200 control-RNG phase draws from [0, 50): phase 0 occurs.
        sim.add_nodes_with_random_contacts(1, 2);
    }
    sim.run_until(2000);
    assert_eq!(sim.now(), 2000);
    assert_eq!(sim.alive_count(), 210);
    assert!(sim.report().exchanges_completed > 0);
}

#[test]
fn run_to_exhaustion_near_u64_max_does_not_overflow() {
    // run_until(u64::MAX) is the idiomatic "drain everything" call; the
    // saturated frontier must not overflow the bucket arithmetic when the
    // engine is driven again afterwards.
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 8).expect("valid");
    let event = EventConfig {
        period: 100,
        jitter: 0,
        latency: LatencyModel::Uniform { min: 7, max: 13 },
        loss_probability: 0.0,
    };
    let mut sim = ShardedEventSimulation::new(config, event, 3, 2).expect("valid");
    assert_eq!(sim.run_until(u64::MAX), 0);
    assert_eq!(sim.now(), u64::MAX);
    assert_eq!(sim.run_for(1000), 0);
    assert_eq!(sim.run_until(u64::MAX), 0);
}

#[test]
fn event_csr_snapshot_matches_vec_snapshot() {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 7).expect("valid");
    let mut sim = scenario::event_random_overlay_sharded(&config, EventConfig::default(), 70, 3, 2)
        .expect("valid");
    sim.run_for(4000);
    sim.kill_random_fraction(0.2); // dead targets must be dropped by both
    assert_csr_matches_views(&sim);
}

/// See the cycle engine's `streaming_metrics_match_materialized_snapshot`:
/// the event engine streams the same rows, so the estimator must agree
/// with its materialized CSR too.
#[test]
fn event_streaming_metrics_match_materialized_snapshot() {
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 12).expect("valid");
    let mut sim =
        scenario::event_random_overlay_sharded(&config, EventConfig::default(), 500, 97, 4)
            .expect("valid");
    sim.run_for(8000);
    sim.kill_random_fraction(0.15);
    assert_streaming_matches_csr(&sim);
}

#[test]
fn churn_and_per_cycle_loops_drive_the_event_engine() {
    // A per-cycle measurement loop and compiled churn schedules run
    // unchanged on the event engine.
    let config = ProtocolConfig::new(PolicyTriple::newscast(), 12).expect("valid");
    let mut sim =
        scenario::event_random_overlay_sharded(&config, EventConfig::default(), 150, 21, 2)
            .expect("valid");
    let mut degrees = Vec::new();
    for _ in 0..6 {
        sim.run_cycle();
        degrees.push(sim.csr_snapshot().graph().undirected().average_degree());
    }
    assert_eq!(degrees.len(), 6);
    assert_eq!(sim.cycle(), 6);
    assert_eq!(sim.now(), 6000);
    assert!(degrees.iter().all(|&d| d > 11.0));

    let before = sim.node_count();
    let compiled = Workload::parse("churn:0.05x5", 21)
        .expect("valid schedule")
        .compile(before);
    assert_eq!(run_workload(&mut sim, &compiled, 12).len(), 5);
    assert!(sim.node_count() > before, "churn joins must happen");
    assert!(sim.alive_count() > 100);
}
