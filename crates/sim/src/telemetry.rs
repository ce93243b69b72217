//! Engine-side telemetry: per-phase wall time and shard work imbalance.
//!
//! Each sharded engine owns one [`EngineTele`] registered against the
//! global [`pss_telemetry`] registry under an `engine` label. Timing wraps
//! [`exec::run_phase`] from the *outside*: the phase closure is executed
//! unchanged, per-shard durations land in a preallocated scratch array of
//! atomics (reused every phase — the engines' steady-state allocation
//! pins stay intact), and nothing telemetry records ever feeds back into
//! protocol state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pss_telemetry::{flight, Counter, EventKind, Histogram};

use crate::exec;
use crate::pool::WorkerPool;
use crate::shard::Shard;

/// Telemetry handles for one engine instance. Handles are shared cells:
/// every `ShardedSimulation` in the process accumulates into the same
/// `engine="cycle"` series, mirroring how a Prometheus process exports
/// one series per family, not one per object.
pub(crate) struct EngineTele {
    /// Per-phase `(label, wall-time histogram)`, indexed by the phase
    /// constants the engine passes to [`EngineTele::run_phase`].
    phases: Vec<(&'static str, Histogram)>,
    shard_work: Histogram,
    imbalance: Histogram,
    cycles: Counter,
    /// Per-shard nanosecond scratch, written by workers during a phase and
    /// folded into `shard_work`/`imbalance` afterwards. Sized once at
    /// construction (shard count never changes after that).
    shard_ns: Vec<AtomicU64>,
}

impl EngineTele {
    pub(crate) fn new(engine: &'static str, phase_names: &[&'static str], shards: usize) -> Self {
        let reg = pss_telemetry::global();
        let phases = phase_names
            .iter()
            .map(|&phase| {
                (
                    phase,
                    reg.histogram_with(
                        "pss_phase_ns",
                        &[("engine", engine), ("phase", phase)],
                        "Wall time of one parallel engine phase, nanoseconds",
                    ),
                )
            })
            .collect();
        Self {
            phases,
            shard_work: reg.histogram_with(
                "pss_shard_work_ns",
                &[("engine", engine)],
                "Per-shard wall time inside one engine phase, nanoseconds",
            ),
            imbalance: reg.histogram_with(
                "pss_shard_imbalance_permille",
                &[("engine", engine)],
                "Slowest shard over mean shard work per phase, in permille (1000 = perfectly balanced)",
            ),
            cycles: reg.counter_with(
                "pss_cycles_total",
                &[("engine", engine)],
                "Completed engine cycles (periods for the event engine)",
            ),
            shard_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// One engine cycle (or period) finished.
    pub(crate) fn cycle_done(&self) {
        self.cycles.inc();
    }

    /// [`exec::run_phase`] with timing: whole-phase wall time into the
    /// phase histogram, per-shard durations into the work histogram, the
    /// max/mean ratio into the imbalance histogram, and — when `trail` is
    /// `Some(tick)` — phase start/end events into the flight recorder
    /// (`tick` is the cycle or bucket index carried on those events).
    pub(crate) fn run_phase<N, S, F>(
        &self,
        phase: usize,
        trail: Option<u64>,
        shards: &mut [Shard<N, S>],
        pool: &WorkerPool,
        f: F,
    ) where
        N: Send,
        S: Send,
        F: Fn(&mut Shard<N, S>) + Sync,
    {
        let (label, phase_hist) = &self.phases[phase];
        if let Some(tick) = trail {
            flight().record(EventKind::PhaseStart, label, tick, 0);
        }
        let started = Instant::now();
        exec::run_phase(shards, pool, |shard| {
            let t = Instant::now();
            f(shard);
            self.shard_ns[shard.index].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        let elapsed = started.elapsed().as_nanos() as u64;
        phase_hist.record(elapsed);
        if let Some(tick) = trail {
            flight().record(EventKind::PhaseEnd, label, tick, elapsed);
        }
        let live = &self.shard_ns[..shards.len().min(self.shard_ns.len())];
        let mut max = 0u64;
        let mut sum = 0u64;
        for cell in live {
            let v = cell.load(Ordering::Relaxed);
            self.shard_work.record(v);
            max = max.max(v);
            sum = sum.saturating_add(v);
        }
        if live.len() > 1 {
            let mean = sum / live.len() as u64;
            if let Some(ratio) = max.saturating_mul(1000).checked_div(mean) {
                self.imbalance.record(ratio);
            }
        }
    }

    /// Times a sequential (single-shard) phase body into the same phase
    /// histogram — the 1-shard fast paths skip the pool entirely but
    /// should not disappear from the timing picture.
    pub(crate) fn time_solo<R>(&self, phase: usize, body: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = body();
        self.phases[phase]
            .1
            .record(started.elapsed().as_nanos() as u64);
        out
    }
}
