//! The flight recorder: a bounded ring of structured events.
//!
//! Metrics answer "how much / how slow"; the flight recorder answers
//! "what just happened". Every stack appends fixed-size events — phase
//! boundaries, membership operations, gate evaluations, decode errors —
//! to a preallocated ring that keeps the most recent [`FLIGHT_CAPACITY`]
//! of them. When a health gate fails or the process panics, the ring is
//! dumped as JSON: the last few thousand structured steps leading up to
//! the failure, in order.
//!
//! Recording takes a mutex (uncontended in practice: one writer per
//! stack, microsecond hold times) and never allocates — events are plain
//! `Copy` structs written into storage reserved at construction. The
//! counting-allocator test pins that.

use std::fmt::Write as _;
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Ring capacity of the global recorder: enough for several periods of a
/// sharded run (6 events per cycle) without growing past ~a quarter MB.
pub const FLIGHT_CAPACITY: usize = 4096;

/// What happened. The meaning of an event's `label` and payload fields is
/// fixed per kind; see the variant docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A timed phase began. `label` is `engine/phase` (e.g.
    /// `cycle/initiate`), `a` the cycle or period index, `b` unused.
    PhaseStart,
    /// A timed phase ended. Fields as [`EventKind::PhaseStart`], with `b`
    /// the elapsed nanoseconds.
    PhaseEnd,
    /// A membership operation was applied to a running target. `label` is
    /// the op (`kill`, `join`, `partition_on`, `partition_off`), `a` the
    /// node id (0 for partition ops), `b` the 1-based period.
    MembershipOp,
    /// An experiment health gate was evaluated. `label` is the experiment
    /// name, `a` is 1 for pass / 0 for fail, `b` the number of the gate's
    /// cells that fail.
    GateEval,
    /// A frame failed to decode in the network runtime. `label` is the
    /// decode stage or frame kind (`header`, `request`, `reply`, `app`),
    /// `a` the source address index if known, `b` the frame length.
    DecodeError,
}

impl EventKind {
    /// Stable lowercase name used in the JSON dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PhaseStart => "phase_start",
            EventKind::PhaseEnd => "phase_end",
            EventKind::MembershipOp => "membership_op",
            EventKind::GateEval => "gate_eval",
            EventKind::DecodeError => "decode_error",
        }
    }
}

/// One recorded event. `Copy` and fixed-size by construction so the ring
/// never allocates after start-up.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Monotonic sequence number (total events ever recorded, 1-based).
    pub seq: u64,
    /// Microseconds since the recorder was constructed.
    pub at_micros: u64,
    /// Event kind; fixes the interpretation of the other fields.
    pub kind: EventKind,
    /// Static context string; per-kind meaning (see [`EventKind`]).
    pub label: &'static str,
    /// First payload word (per-kind meaning).
    pub a: u64,
    /// Second payload word (per-kind meaning).
    pub b: u64,
}

struct Ring {
    events: Vec<FlightEvent>,
    /// Next write position once the ring is full.
    head: usize,
    seq: u64,
}

/// Bounded, preallocated ring of [`FlightEvent`]s. Use [`flight()`] for
/// the process-global instance.
pub struct FlightRecorder {
    inner: Mutex<Ring>,
    epoch: Instant,
    capacity: usize,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events. All event
    /// storage is reserved here, up front.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs room for events");
        Self {
            inner: Mutex::new(Ring {
                events: Vec::with_capacity(capacity),
                head: 0,
                seq: 0,
            }),
            epoch: Instant::now(),
            capacity,
        }
    }

    /// Appends an event, evicting the oldest once the ring is full.
    pub fn record(&self, kind: EventKind, label: &'static str, a: u64, b: u64) {
        let at_micros = self.epoch.elapsed().as_micros() as u64;
        let mut ring = self.inner.lock().expect("flight recorder poisoned");
        ring.seq += 1;
        let event = FlightEvent {
            seq: ring.seq,
            at_micros,
            kind,
            label,
            a,
            b,
        };
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let head = ring.head;
            ring.events[head] = event;
            ring.head = (head + 1) % self.capacity;
        }
    }

    /// Number of events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .events
            .len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including evicted ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("flight recorder poisoned").seq
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<FlightEvent> {
        let ring = self.inner.lock().expect("flight recorder poisoned");
        let mut out = Vec::with_capacity(ring.events.len());
        out.extend_from_slice(&ring.events[ring.head..]);
        out.extend_from_slice(&ring.events[..ring.head]);
        out
    }

    /// Empties the ring (sequence numbering continues).
    pub fn clear(&self) {
        let mut ring = self.inner.lock().expect("flight recorder poisoned");
        ring.events.clear();
        ring.head = 0;
    }

    /// The retained events as a JSON document: a header with totals, then
    /// one object per event, oldest first.
    #[must_use]
    pub fn dump_json(&self) -> String {
        let events = self.events();
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"recorded_total\": {},", self.recorded());
        let _ = writeln!(out, "  \"retained\": {},", events.len());
        let _ = writeln!(out, "  \"events\": [");
        for (i, e) in events.iter().enumerate() {
            let comma = if i + 1 < events.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"seq\": {}, \"at_micros\": {}, \"kind\": \"{}\", \"label\": \"{}\", \"a\": {}, \"b\": {}}}{}",
                e.seq,
                e.at_micros,
                e.kind.name(),
                e.label,
                e.a,
                e.b,
                comma,
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Writes [`FlightRecorder::dump_json`] to `path`.
    ///
    /// # Errors
    /// Propagates the underlying file-system error.
    pub fn dump_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json())
    }
}

static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global flight recorder ([`FLIGHT_CAPACITY`] events).
#[must_use]
pub fn flight() -> &'static FlightRecorder {
    FLIGHT.get_or_init(|| FlightRecorder::with_capacity(FLIGHT_CAPACITY))
}

/// Path the panic hook and gate-failure handlers dump to: the
/// `PSS_FLIGHT_DUMP` environment variable, or `flight-recorder.json` in
/// the working directory.
#[must_use]
pub fn dump_path() -> std::path::PathBuf {
    std::env::var_os("PSS_FLIGHT_DUMP")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("flight-recorder.json"))
}

/// Installs a panic hook (once; chains the previous hook) that dumps the
/// global flight recorder to [`dump_path()`] and prints the location on
/// stderr. Binaries that want post-mortem trails opt in by calling this
/// at start-up; libraries never install it behind anyone's back.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let path = dump_path();
            match flight().dump_to_file(&path) {
                Ok(()) => eprintln!("flight recorder dumped to {}", path.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_wraps() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..6u64 {
            r.record(EventKind::MembershipOp, "kill", i, 1);
        }
        assert_eq!(r.recorded(), 6);
        assert_eq!(r.len(), 4);
        let events = r.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
    }

    #[test]
    fn dump_is_json_shaped() {
        let r = FlightRecorder::with_capacity(8);
        r.record(EventKind::PhaseStart, "cycle/initiate", 1, 0);
        r.record(EventKind::PhaseEnd, "cycle/initiate", 1, 12_345);
        r.record(EventKind::GateEval, "churn", 0, 3);
        let json = r.dump_json();
        assert!(json.contains("\"recorded_total\": 3"));
        assert!(json.contains("\"kind\": \"phase_start\""));
        assert!(json.contains("\"label\": \"cycle/initiate\""));
        assert!(json.contains("\"b\": 12345"));
        assert!(json.contains("\"kind\": \"gate_eval\""));
        assert!(json.contains("\"a\": 0, \"b\": 3"), "{json}");
        // Balanced braces / brackets (cheap well-formedness check; the CI
        // smoke job parses a real dump with a real JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn clear_keeps_sequence_numbers() {
        let r = FlightRecorder::with_capacity(4);
        r.record(EventKind::GateEval, "a", 1, 0);
        r.clear();
        assert!(r.is_empty());
        r.record(EventKind::GateEval, "b", 1, 0);
        assert_eq!(r.events()[0].seq, 2);
    }
}
