//! Always-on telemetry for the peer sampling stacks: a lock-free metrics
//! registry and a bounded flight recorder.
//!
//! Every layer of the workspace — the sharded cycle and event engines, the
//! network runtime, the cluster harness, the application-workload drivers —
//! records into one process-global [`Registry`] of [`Counter`]s,
//! [`Gauge`]s, and power-of-two-bucketed [`Histogram`]s. Recording is a
//! handful of relaxed atomic operations: no locks, no RNG, no floats, and
//! no allocation (the counting-allocator test in `tests/alloc_record.rs`
//! pins that). Structured *events* — phase boundaries, membership
//! operations, health-gate evaluations, decode errors — go to the global
//! [`FlightRecorder`], a preallocated ring that keeps the most recent few
//! thousand events and dumps them as JSON on panic or on a failed health
//! gate.
//!
//! # Determinism contract
//!
//! Telemetry **observes**; it never participates. It draws no randomness,
//! never reorders or delays a message, and writes into no structure that
//! feeds a protocol decision or a pinned digest. The sharded engines'
//! determinism digests are byte-identical with telemetry enabled or
//! disabled, at any worker count. Wall-clock readings exist only inside
//! metric cells and flight events.
//!
//! # Switching off
//!
//! [`enabled()`] is a single relaxed atomic load, initialised from the
//! `PSS_TELEMETRY` environment variable (`0` or `off` disables) and
//! overridable with [`set_enabled`]. Instrumentation sites that pay for a
//! clock read check it first; the record methods also check it, so a
//! disabled process does no telemetry work beyond one load per site.
//!
//! # Exposition
//!
//! [`Registry::render_prometheus`] emits the Prometheus text format
//! (histograms as cumulative `_bucket{le="..."}` series);
//! [`Registry::render_json`] emits one flat JSON array, an object per
//! series. `experiments metrics` wires both to the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod recorder;
mod registry;

pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{
    dump_path, flight, install_panic_hook, EventKind, FlightEvent, FlightRecorder, FLIGHT_CAPACITY,
};
pub use registry::{global, MetricRow, Registry};

use std::sync::atomic::{AtomicU8, Ordering};

// 0 = uninitialised, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is recording. One relaxed load on the fast path;
/// the first call reads `PSS_TELEMETRY` (`"0"`/`"off"`/`"false"` disable).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = match std::env::var("PSS_TELEMETRY") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        }
        Err(_) => true,
    };
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Force telemetry on or off, overriding the environment.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}
