//! End-to-end simulator throughput: cycles per second at N = 1k / 10k for
//! the three protocol policies the paper's core experiments use.
//!
//! This is the north-star perf number for the reproduction: every
//! figure/table is a function of how fast the cycle engine turns views
//! over. Measured as elements/second where an element is one *node-cycle*
//! (N nodes × cycles run), so numbers are comparable across N.
//!
//! Run `cargo bench --bench throughput -- --bench-json "$PWD/BENCH_throughput.json"`
//! (or set `BENCH_JSON`; bench binaries run in `crates/bench/`, hence the
//! absolute path) to record the measurements; `BENCH_throughput.json` at
//! the repository root tracks the trajectory across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pss_core::PolicyTriple;
use pss_experiments::Scale;
use pss_sim::scenario;
use std::hint::black_box;

/// Policies covered: the two named protocols plus the tail/pushpull healer
/// corner — together they exercise all three view-selection code paths.
fn policies() -> [(&'static str, PolicyTriple); 3] {
    [
        ("newscast", PolicyTriple::newscast()),
        ("lpbcast", PolicyTriple::lpbcast()),
        (
            "tail-pushpull",
            "(tail,tail,pushpull)".parse().expect("valid policy"),
        ),
    ]
}

/// The 1-shard serial engine ([`scenario::random_overlay`]): this is the
/// headline number recorded in `BENCH_throughput.json`.
fn bench_cycles(c: &mut Criterion) {
    let scale = Scale::throughput_bench();
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);
    group.meta("cycles", scale.cycles);
    for &n in &[scale.nodes / 10, scale.nodes] {
        // One element = one node-cycle.
        group.throughput(Throughput::Elements(n as u64 * scale.cycles));
        group.meta("nodes", n);
        for (name, policy) in policies() {
            group.meta("policy", name);
            let config = scale.protocol(policy);
            // Warm a converged overlay once; each iteration advances it
            // further, so the workload is steady-state gossip, not bootstrap.
            let mut sim = scenario::random_overlay(&config, n, scale.seed);
            sim.run_cycles(10);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bencher, _| {
                bencher.iter(|| {
                    sim.run_cycles(scale.cycles);
                    black_box(sim.cycle())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cycles);
criterion_main!(benches);
