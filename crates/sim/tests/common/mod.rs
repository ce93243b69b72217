//! Digest helpers shared by the sharded-engine regression tests
//! (`sharded.rs` for the cycle engine, `sharded_event.rs` for the event
//! engine). Determinism contracts are pinned as FNV-1a digests of report
//! streams and full overlay state; any accidental change to RNG streams,
//! mailbox ordering, or bucket exchange changes the digest and fails
//! loudly.

// Each integration-test target compiles its own copy and uses a subset.
#![allow(dead_code)]

use pss_core::{GossipNode, NodeId, PeerSamplingNode, ProtocolConfig};
use pss_sim::workload::{Op, Step};
use pss_sim::{
    BoxedNode, CycleReport, EventConfig, EventReport, LatencyModel, Mode, Sharded, WorkloadTarget,
};

/// The FNV-1a offset basis: the canonical digest seed.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a `u64` stream: stable, dependency-free fingerprinting.
pub fn fnv1a(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest ^= byte as u64;
        *digest = digest.wrapping_mul(0x1000_0000_01b3);
    }
}

/// Digest of the full overlay state of either engine: every live node's
/// id and exact view contents (ids and hop counts, in stored order).
pub fn view_digest<N: GossipNode + Send, M: Mode>(sim: &Sharded<N, M>) -> u64 {
    let mut digest = FNV_OFFSET;
    sim.for_each_live_view(|id, view| {
        fnv1a(&mut digest, id.as_u64());
        for d in view.iter() {
            fnv1a(&mut digest, d.id().as_u64());
            fnv1a(&mut digest, d.hop_count() as u64);
        }
    });
    digest
}

/// The CSR snapshot must hold exactly the live views, rebuilt here as one
/// `Vec` per live node (sorted, deduplicated, dead targets dropped), on
/// either engine.
pub fn assert_csr_matches_views<N: GossipNode + Send, M: Mode>(sim: &Sharded<N, M>) {
    let mut ids = Vec::new();
    let mut views = Vec::new();
    sim.for_each_live_view(|id, view| {
        ids.push(id);
        views.push(view.ids().collect::<Vec<_>>());
    });
    let csr = sim.csr_snapshot();
    assert_eq!(csr.node_ids(), ids.as_slice());
    for (v, view) in views.iter().enumerate() {
        let mut row: Vec<u32> = view.iter().filter_map(|&t| csr.index_of(t)).collect();
        row.sort_unstable();
        row.dedup();
        assert_eq!(
            csr.graph().neighbors(v as u32),
            row.as_slice(),
            "row {v} diverged"
        );
    }
    assert_eq!(csr.index_of(csr.node_id(0)), Some(0));
    assert_eq!(csr.index_of(NodeId::new(u64::MAX >> 1)), None);
}

/// The streaming estimator must agree with the materialized CSR path —
/// same component size, same in-degree histogram, same edge count, without
/// ever building the edge array — on either engine.
pub fn assert_streaming_matches_csr<N: GossipNode + Send, M: Mode>(sim: &Sharded<N, M>) {
    let streamed = sim.streaming_metrics();
    let csr = sim.csr_snapshot();
    assert_eq!(streamed.live_nodes, csr.node_count());
    assert_eq!(streamed.edge_count, csr.graph().edge_count() as u64);
    assert_eq!(
        streamed.largest_component,
        pss_graph::components::largest_weak_component(csr.graph())
    );
    let mut histogram = Vec::new();
    for d in csr.graph().in_degrees() {
        let d = d as usize;
        if d >= histogram.len() {
            histogram.resize(d + 1, 0u64);
        }
        histogram[d] += 1;
    }
    assert_eq!(streamed.in_degree_histogram, histogram);
}

/// The event engine of the conformance suites: a 100-tick period with 20 %
/// jitter, 1–20 % latency and 2 % loss.
pub fn event_config() -> EventConfig {
    EventConfig {
        period: 100,
        jitter: 20,
        latency: LatencyModel::Uniform { min: 1, max: 20 },
        loss_probability: 0.02,
    }
}

/// A `with_factory` factory building the population `new` builds, but
/// boxed (virtual dispatch per protocol call): the other side of the
/// boxed ≡ monomorphized differentials.
pub fn boxed_factory(
    config: ProtocolConfig,
) -> impl Fn(NodeId, u64) -> BoxedNode + Send + Sync + 'static {
    move |id, seed| Box::new(PeerSamplingNode::with_seed(id, config.clone(), seed)) as BoxedNode
}

/// Folds a cycle report into the digest.
pub fn digest_report(digest: &mut u64, report: &CycleReport) {
    fnv1a(digest, report.completed);
    fnv1a(digest, report.failed_dead_peer);
    fnv1a(digest, report.empty_view);
    fnv1a(digest, report.dropped_messages);
}

/// Folds an event report into the digest.
pub fn digest_event_report(digest: &mut u64, report: &EventReport) {
    fnv1a(digest, report.timers_fired);
    fnv1a(digest, report.empty_view);
    fnv1a(digest, report.requests_delivered);
    fnv1a(digest, report.replies_delivered);
    fnv1a(digest, report.exchanges_completed);
    fnv1a(digest, report.dead_deliveries);
    fnv1a(digest, report.dropped_messages);
}

/// Applies one compiled step's membership ops to `sim` and folds the
/// kill and join counts into the digest — the digest suites step the
/// engine themselves because they fold each period's engine report, which
/// `run_workload` does not surface.
pub fn apply_step<N: GossipNode + Send, M: Mode>(
    digest: &mut u64,
    sim: &mut Sharded<N, M>,
    step: &Step,
) {
    let (mut killed, mut joined) = (0, 0);
    for op in &step.ops {
        match op {
            Op::Kill(id) => {
                assert!(sim.kill(*id), "kill of live node {id} was a no-op");
                killed += 1;
            }
            Op::Join { id, contacts } => {
                WorkloadTarget::join(sim, *id, contacts);
                joined += 1;
            }
            Op::SetPartition(partition) => sim.set_partition(*partition),
        }
    }
    fnv1a(digest, killed);
    fnv1a(digest, joined);
}
