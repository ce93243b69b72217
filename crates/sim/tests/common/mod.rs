//! Digest helpers shared by the sharded-engine regression tests
//! (`sharded.rs` for the cycle engine, `sharded_event.rs` for the event
//! engine). Determinism contracts are pinned as FNV-1a digests of report
//! streams and full overlay state; any accidental change to RNG streams,
//! mailbox ordering, or bucket exchange changes the digest and fails
//! loudly.

// Each integration-test target compiles its own copy and uses a subset.
#![allow(dead_code)]

use pss_core::{NodeId, PeerSamplingNode, ProtocolConfig, View};
use pss_sim::{BoxedNode, CycleReport, EventReport};

/// The FNV-1a offset basis: the canonical digest seed.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a `u64` stream: stable, dependency-free fingerprinting.
pub fn fnv1a(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest ^= byte as u64;
        *digest = digest.wrapping_mul(0x1000_0000_01b3);
    }
}

/// Digest of the full overlay state: every live node's id and exact view
/// contents (ids and hop counts, in stored order). `for_each` adapts an
/// engine's `for_each_live_view` — pass `|f| sim.for_each_live_view(f)`.
pub fn view_digest(for_each: impl Fn(&mut dyn FnMut(NodeId, &View))) -> u64 {
    let mut digest = FNV_OFFSET;
    for_each(&mut |id, view| {
        fnv1a(&mut digest, id.as_u64());
        for d in view.iter() {
            fnv1a(&mut digest, d.id().as_u64());
            fnv1a(&mut digest, d.hop_count() as u64);
        }
    });
    digest
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
