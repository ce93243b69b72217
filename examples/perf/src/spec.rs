//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` is generated from these tables
//! (`perf manifest`) and the self-test fails when the two disagree.

use crate::json::Json;

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 20040601;

/// The directory that holds the benchmark, relative to the repo root.
pub const PATH: &str = "examples/perf";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// `(name, why)` of every workload, in the order `all` runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cycle_steady",
        "cycle engine at steady state: view algebra, node exchange and shard phases do all the work; event queue, codec and transports are bypassed",
    ),
    (
        "event_steady",
        "same node layer under the event engine: event queue, latency draws and lookahead buckets make the gap to cycle_steady; codec and transports are bypassed",
    ),
    (
        "churn_app",
        "cycle engine under churn, kill, flash crowd and partition with per-period observation, broadcast and aggregation: membership writes and observer reads beside gossip",
    ),
    (
        "runtime_mem",
        "the deployed NetRuntime over the in-memory mesh in virtual time: wire codec, timer wheel, address book and MemTransport; engines and kernel are bypassed",
    ),
    (
        "cluster_udp",
        "open loop: 1000 nodes on one runtime over loopback UDP, timers on the wall clock at 10000 exchanges/s; syscalls, receive ring and receive thread make the gap to runtime_mem",
    ),
];

use Better::{Higher, Lower};

/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("node_periods_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_exchange", "us", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Every workload reports every one of these with `--trace 1`; a layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // core::view
    layer("view.merge_select_ns", "ns", Lower),
    layer("view.age_ns", "ns", Lower),
    layer("view.sample_ns", "ns", Lower),
    // core::node
    layer("node.exchange_ns.newscast", "ns", Lower),
    layer("node.exchange_ns.lpbcast", "ns", Lower),
    layer("node.exchange_ns.tail-pushpull", "ns", Lower),
    layer("node.exchange_allocs", "count", Lower),
    // core::wire
    layer("wire.encode_ns", "ns", Lower),
    layer("wire.decode_ns", "ns", Lower),
    layer("wire.decode_ns.c8", "ns", Lower),
    layer("wire.frame_bytes", "B", Lower),
    layer("wire.allocs_per_frame", "count", Lower),
    // sim::shard (+ exec, pool)
    layer("shard.cycle_ns_per_node", "ns", Lower),
    layer("shard.self_share", "ratio", Lower),
    layer("shard.completed", "count", Higher),
    layer("shard.failed_dead_peer", "count", Lower),
    layer("shard.empty_view", "count", Lower),
    layer("shard.dropped", "count", Lower),
    layer("shard.speedup_w2", "ratio", Higher),
    // sim::event
    layer("event.ns_per_event", "ns", Lower),
    layer("event.events_per_node_period", "count", Lower),
    layer("event.self_share", "ratio", Lower),
    layer("event.exchanges_completed", "count", Higher),
    layer("event.dead_deliveries", "count", Lower),
    layer("event.dropped", "count", Lower),
    layer("event.speedup_w2", "ratio", Higher),
    // sim::workload
    layer("workload.compile_ms", "ms", Lower),
    layer("workload.ops_applied", "count", Higher),
    layer("workload.period_ms_p50", "ms", Lower),
    layer("workload.period_ms_max", "ms", Lower),
    layer("workload.measure_ms", "ms", Lower),
    // sim::snapshot + pss-graph
    layer("snapshot.csr_ms", "ms", Lower),
    layer("snapshot.streaming_ms", "ms", Lower),
    layer("graph.components_ms", "ms", Lower),
    // pss-protocols
    layer("protocols.app_ns_per_node_period", "ns", Lower),
    layer("protocols.delivered", "count", Higher),
    layer("protocols.redundant", "count", Lower),
    layer("protocols.wasted", "count", Lower),
    layer("protocols.blocked", "count", Lower),
    layer("protocols.rounds_to_99", "count", Lower),
    // net::mem
    layer("mem.frame_ns", "ns", Lower),
    layer("mem.allocs_per_frame", "count", Lower),
    layer("mem.lost", "count", Lower),
    layer("mem.unroutable", "count", Lower),
    // net::runtime (+ wheel)
    layer("runtime.us_per_exchange", "us", Lower),
    layer("runtime.self_share", "ratio", Lower),
    layer("runtime.frames_per_exchange", "count", Lower),
    layer("runtime.allocs_per_exchange", "count", Lower),
    layer("runtime.timeouts", "count", Lower),
    layer("runtime.decode_failures", "count", Lower),
    layer("runtime.missing_address", "count", Lower),
    layer("runtime.backoffs", "count", Lower),
    // net::udp
    layer("udp.send_ns", "ns", Lower),
    layer("udp.recv_ns", "ns", Lower),
    layer("udp.burst_frames_per_s", "1/s", Higher),
    layer("udp.burst_loss_share", "ratio", Lower),
    layer("udp.ring_empty_per_kframe", "count", Lower),
    // net::cluster
    layer("cluster.sys_cpu_share", "ratio", Lower),
    layer("cluster.frames_per_s", "1/s", Higher),
    layer("cluster.period_lag_ms_p50", "ms", Lower),
    layer("cluster.period_lag_ms_max", "ms", Lower),
    layer("cluster.converged_at", "count", Lower),
    layer("cluster.unattributed_share", "ratio", Lower),
    // every workload
    layer("failed_share", "ratio", Lower),
    layer("peak_rss_mb", "MiB", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The metrics a run must print: end-to-end when timed, per-layer when traced.
pub fn metrics_for(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "examples/perf/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(PATH)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_and_limits_meet_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(manifest().pretty().len() < 64 * 1024);
    }
}
