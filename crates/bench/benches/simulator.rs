//! Simulator throughput: cycles per second at increasing population sizes,
//! for both execution engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pss_core::{PolicyTriple, ProtocolConfig};
use pss_sim::{scenario, EventConfig, LatencyModel, ShardedEventSimulation};
use std::hint::black_box;

fn bench_cycle_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("cycle_engine");
    group.sample_size(10);
    for &n in &[500usize, 2000] {
        group.throughput(Throughput::Elements(n as u64));
        for policy in [PolicyTriple::newscast(), PolicyTriple::lpbcast()] {
            let config = ProtocolConfig::new(policy, 30).expect("valid");
            group.bench_with_input(
                BenchmarkId::new(policy.to_string(), n),
                &n,
                |bencher, &n| {
                    bencher.iter_batched(
                        || {
                            let mut sim = scenario::random_overlay(&config, n, 42);
                            sim.run_cycles(5); // warm views
                            sim
                        },
                        |mut sim| {
                            sim.run_cycles(5);
                            black_box(sim.cycle())
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

fn bench_event_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_engine");
    group.sample_size(10);
    let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 30).expect("valid");
    let event_config = EventConfig {
        period: 1000,
        jitter: 100,
        latency: LatencyModel::Uniform { min: 10, max: 50 },
        loss_probability: 0.01,
    };
    for &n in &[500usize, 2000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, &n| {
            bencher.iter_batched(
                || {
                    let mut sim =
                        ShardedEventSimulation::new(protocol.clone(), event_config, 42, 1)
                            .expect("valid event config");
                    sim.add_connected_nodes(n);
                    sim.run_for(5_000);
                    sim
                },
                |mut sim| {
                    sim.run_for(5_000); // ≈ 5 periods
                    black_box(sim.now())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cycle_engine, bench_event_engine);
criterion_main!(benches);
