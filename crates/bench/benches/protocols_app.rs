//! Application-layer throughput under membership dynamics: how fast the
//! broadcast + aggregation pair (`pss_protocols::run_under_workload`)
//! pushes node-periods through the sharded cycle engine, oracle vs
//! overlay sampler.
//!
//! Each iteration is a complete run: build the engine, compile the
//! conformance churn schedule, and drive both applications over it —
//! workloads kill and add nodes, so a fresh engine per iteration is the
//! only honest steady state. One element = one node-period, comparable
//! with the engine-only numbers in `BENCH_scale.json` — the gap is the
//! price of the application layer (sampling, rumor pushes, push-pull
//! exchanges, liveness accounting) on top of bare gossip.
//!
//! Run `BENCH_JSON=BENCH_protocols.json cargo bench --bench
//! protocols_app` to record; ids are `protocols_app/churn-{sampler}`.
//! Set `BENCH_PROTOCOLS_NODES` to override the population (default
//! 2000; CI pins 1000). Before timing, each sampler's quality numbers
//! (rounds to 99% coverage, aggregation decay factor) are printed once
//! so the paired oracle/overlay ordering is visible next to the
//! throughput rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pss_core::{NodeDescriptor, NodeId, PeerSamplingNode, PolicyTriple};
use pss_experiments::Scale;
use pss_protocols::{run_under_workload, AppConfig, Sampler};
use pss_sim::workload::Workload;
use pss_sim::ShardedSimulation;
use std::hint::black_box;

const SCHEDULE: &str = "quiet:5,kill:0.3,churn:0.01x15";
const PERIODS: u64 = 21; // quiet 5 + kill-merged churn period + 15 churn

fn build_engine(scale: &Scale, shards: usize) -> ShardedSimulation<PeerSamplingNode> {
    let config = scale.protocol(PolicyTriple::newscast());
    let mut sim = ShardedSimulation::new(config, scale.seed, shards);
    for i in 0..scale.nodes as u64 {
        let seeds = if i == 0 {
            Vec::new()
        } else {
            vec![NodeDescriptor::fresh(NodeId::new(i / 2))]
        };
        sim.add_node(seeds);
    }
    sim
}

fn bench_protocols_app(c: &mut Criterion) {
    let mut scale = Scale::tiny(); // c = 15, fixed seed
    scale.nodes = std::env::var("BENCH_PROTOCOLS_NODES")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(2000);
    let shards = 2;
    let compiled = Workload::parse(SCHEDULE, scale.seed)
        .expect("valid schedule")
        .compile(scale.nodes);

    let mut group = c.benchmark_group("protocols_app");
    group.sample_size(10);
    group.throughput(Throughput::Elements(scale.nodes as u64 * PERIODS));
    group
        .meta("nodes", scale.nodes)
        .meta("shards", shards)
        .meta("policy", "newscast")
        .meta("schedule", SCHEDULE);
    for sampler in [Sampler::Oracle, Sampler::Overlay] {
        group.meta("sampler", sampler.label());
        let app = AppConfig {
            fanout: 2,
            sampler,
            seed: scale.seed ^ 0x0a99_5eed,
            ..AppConfig::default()
        };
        // One untimed run per sampler surfaces the quality numbers the
        // throughput rows ride on (paired ordering: oracle ≤ overlay).
        let mut sim = build_engine(&scale, shards);
        let (_, report) = run_under_workload(&mut sim, &compiled, scale.view_size, &app);
        eprintln!(
            "protocols_app/churn-{}: delivery {:.1}%, rounds-to-99 {}, agg decay {:.3}",
            sampler.label(),
            report.delivery_ratio() * 100.0,
            report
                .rounds_to_99()
                .map_or("-".to_string(), |p| p.to_string()),
            report.decay_factor(),
        );
        group.bench_with_input(
            BenchmarkId::new("churn", sampler.label()),
            &sampler,
            |bencher, _| {
                bencher.iter(|| {
                    let mut sim = build_engine(&scale, shards);
                    let out = run_under_workload(&mut sim, &compiled, scale.view_size, &app);
                    black_box(out.1.delivery_ratio())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_protocols_app);
criterion_main!(benches);
