//! Sharded **event-engine** throughput: node-cycles per second vs shard
//! count, where one "cycle" is one gossip period of the event model.
//!
//! The asynchrony companion to `sharded_throughput.rs`: a steady-state
//! newscast workload on [`pss_sim::ShardedEventSimulation`] (conservative
//! lookahead = minimum latency, default event config) at shard counts
//! {1, 2, 4}, workers matched to shards (capped by the host's cores). One
//! element = one node-cycle, so numbers are directly comparable with
//! `BENCH_scale.json` and `BENCH_throughput.json` — the gap between the
//! two files is the price of full asynchrony (per-message latency draws,
//! per-tick calendar queues, bucket exchange) relative to the cycle model.
//!
//! Run `BENCH_JSON=BENCH_event_scale.json cargo bench --bench event_scale`
//! to record the measurements; `BENCH_event_scale.json` at the repository
//! root tracks node-cycles/sec per shard count across PRs. Set
//! `BENCH_EVENT_NODES` to override the population (default 50 000) — the
//! committed file is produced at `BENCH_EVENT_NODES=1000000`
//! (`Scale::million()`'s N and c), while CI pins
//! `BENCH_EVENT_NODES=20000`. On a single-core host the sweep
//! measures pure sharding overhead (workers collapse to 1); >1 speedups
//! appear on multi-core hardware.
//!
//! Set `BENCH_WORKERS=1,2,4` to sweep the **worker-pool width** instead:
//! a fixed 4-shard overlay rerun at each pool width (ids
//! `event_scale/newscast-workers/{w}`), isolating the persistent pool's
//! parallel speedup from sharding overhead. The CI `perf-smoke` job
//! records this sweep as `BENCH_multicore.json`; optionally set
//! `PSS_PIN_WORKERS=1` to pin pool threads to cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pss_core::PolicyTriple;
use pss_experiments::Scale;
use pss_sim::{scenario, EventConfig};
use std::hint::black_box;

fn bench_event_cycles(c: &mut Criterion) {
    let scale = Scale::million(); // c = 30, seed, cycles — N comes from the env
    let n: usize = std::env::var("BENCH_EVENT_NODES")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(50_000);
    let event = EventConfig::default(); // period 1000, latency U[10, 50]
    let periods = scale.cycles; // one iteration = one full 20-period run
    let mut group = c.benchmark_group("event_scale");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64 * periods));
    group
        .meta("nodes", n)
        .meta("periods", periods)
        .meta("policy", "newscast");
    let config = scale.protocol(PolicyTriple::newscast());
    let worker_sweep: Option<Vec<usize>> = std::env::var("BENCH_WORKERS")
        .ok()
        .map(|v| v.split(',').filter_map(|w| w.trim().parse().ok()).collect());
    if let Some(worker_counts) = worker_sweep {
        // Pool-width sweep: one fixed 4-shard overlay, re-run at each
        // worker count (`set_workers` rebuilds the persistent pool), so
        // the only variable is how many pool threads share the shards.
        let shards = 4;
        group.meta("shards", shards);
        let mut sim = scenario::event_random_overlay_sharded(&config, event, n, scale.seed, shards)
            .expect("default event config is valid");
        sim.run_for(2 * event.period);
        for workers in worker_counts {
            group.meta("workers", workers);
            sim.set_workers(workers);
            group.bench_with_input(
                BenchmarkId::new("newscast-workers", workers),
                &workers,
                |bencher, _| {
                    bencher.iter(|| {
                        sim.run_for(periods * event.period);
                        black_box(sim.now())
                    });
                },
            );
        }
        group.finish();
        return;
    }
    for shards in [1usize, 2, 4] {
        group.meta("shards", shards).meta("workers", shards);
        // Warm a converged overlay once per shard count; each iteration
        // advances it further (steady-state gossip, not bootstrap).
        let mut sim = scenario::event_random_overlay_sharded(&config, event, n, scale.seed, shards)
            .expect("default event config is valid");
        sim.set_workers(shards);
        sim.run_for(2 * event.period);
        group.bench_with_input(
            BenchmarkId::new("newscast", shards),
            &shards,
            |bencher, _| {
                bencher.iter(|| {
                    sim.run_for(periods * event.period);
                    black_box(sim.now())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_cycles);
criterion_main!(benches);
