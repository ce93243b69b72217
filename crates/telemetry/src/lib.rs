//! Always-on telemetry for the peer sampling stacks: a lock-free metrics
//! registry and a bounded flight recorder.
//!
//! Every layer of the workspace — the sharded cycle and event engines, the
//! network runtime, the cluster harness, the application-workload drivers —
//! records into one process-global [`Registry`] of [`Counter`]s,
//! [`Gauge`]s, and power-of-two-bucketed [`Histogram`]s, whose
//! [`Histogram::snapshot`] is a [`Log2Histogram`] with p50/p99 extraction.
//! Recording is a handful of relaxed atomic operations: no locks, no RNG,
//! no floats, and no allocation (the counting-allocator test in
//! `tests/alloc_record.rs` pins that). Structured *events* — phase
//! boundaries, membership operations, health-gate evaluations, decode
//! errors — go to the global [`FlightRecorder`], a preallocated ring that
//! keeps the most recent few thousand events and dumps them as JSON on
//! panic or on a failed health gate.
//!
//! # Determinism contract
//!
//! Telemetry **observes**; it never participates. It draws no randomness,
//! never reorders or delays a message, and writes into no structure that
//! feeds a protocol decision or a pinned digest. Wall-clock readings exist
//! only inside metric cells and flight events.
//!
//! # Exposition
//!
//! [`Registry::render_prometheus`] emits the Prometheus text format
//! (histograms as cumulative `_bucket{le="..."}` series);
//! [`Registry::render_json`] emits one flat JSON array, an object per
//! series. `experiments metrics` wires both to the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod log2hist;
mod metrics;
mod recorder;
mod registry;

pub use log2hist::Log2Histogram;
pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{
    dump_path, flight, install_panic_hook, EventKind, FlightEvent, FlightRecorder, FLIGHT_CAPACITY,
};
pub use registry::{global, MetricRow, Registry};
