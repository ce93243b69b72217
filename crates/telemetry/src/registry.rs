//! The metric registry: named series, idempotent registration, exposition.
//!
//! Registration takes a short-lived lock and possibly allocates; it
//! happens when an engine or runtime is *constructed*. Recording goes
//! through the returned handles and never touches the registry again —
//! that split is what keeps the hot path lock- and allocation-free.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::log2hist::Log2Histogram;
use crate::metrics::{Counter, Gauge, Histogram};

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    metric: Metric,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    // (name, rendered labels) → index into `entries`.
    index: HashMap<(String, String), usize>,
}

/// A set of named metric series with Prometheus and JSON exposition.
///
/// Registration is **idempotent**: asking for the same name and label set
/// twice returns a handle to the same cell (the kind must match, or the
/// second caller panics — that is a programming error, not a runtime
/// condition). Use [`global()`] for the process-wide registry every stack
/// records into.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// One registered series flattened for table display: the name, the
/// rendered label set, the kind, and the headline numbers (a counter or
/// gauge carries only `value`; a histogram fills the quantile columns from
/// a point-in-time snapshot).
#[derive(Clone, Debug)]
pub struct MetricRow {
    /// Metric family name, e.g. `pss_phase_ns`.
    pub name: String,
    /// Rendered labels, e.g. `engine=cycle,phase=initiate` (empty if none).
    pub labels: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Counter/gauge value, or histogram observation count.
    pub value: u64,
    /// Histogram snapshot (quantiles, sum, extremes); `None` for scalars.
    pub histogram: Option<Log2Histogram>,
}

fn render_labels(labels: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}={v}");
    }
    out
}

/// `{k="v",...}` with an extra label appended; empty string when no labels.
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{v}\"");
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

impl Registry {
    /// An empty registry (tests and tooling; production code uses
    /// [`global()`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key = (
            name.to_string(),
            render_labels(
                &labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect::<Vec<_>>(),
            ),
        );
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some(&i) = inner.index.get(&key) {
            let entry = &inner.entries[i];
            let metric = entry.metric.clone();
            assert_eq!(
                std::mem::discriminant(&metric),
                std::mem::discriminant(&make()),
                "metric {name} re-registered as a different kind",
            );
            return metric;
        }
        let metric = make();
        let i = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            metric: metric.clone(),
        });
        inner.index.insert(key, i);
        metric
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers (or retrieves) a labelled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(name, labels, help, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind mismatch is caught in register()"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or retrieves) a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.register(name, labels, help, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind mismatch is caught in register()"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Registers (or retrieves) a labelled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.register(name, labels, help, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind mismatch is caught in register()"),
        }
    }

    /// Every registered series flattened to a [`MetricRow`], in
    /// registration order.
    #[must_use]
    pub fn rows(&self) -> Vec<MetricRow> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .entries
            .iter()
            .map(|e| {
                let (value, histogram) = match &e.metric {
                    Metric::Counter(c) => (c.get(), None),
                    Metric::Gauge(g) => (g.get(), None),
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        (snap.total(), Some(snap))
                    }
                };
                MetricRow {
                    name: e.name.clone(),
                    labels: render_labels(&e.labels),
                    kind: e.metric.kind(),
                    value,
                    histogram,
                }
            })
            .collect()
    }

    /// Prometheus text exposition format: `# HELP`/`# TYPE` headers per
    /// family, histograms as cumulative `_bucket{le="..."}` series plus
    /// `_sum` and `_count`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut seen_header: Vec<&str> = Vec::new();
        for e in &inner.entries {
            if !seen_header.contains(&e.name.as_str()) {
                seen_header.push(&e.name);
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                let _ = writeln!(out, "# TYPE {} {}", e.name, e.metric.kind());
            }
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        c.get()
                    );
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        g.get()
                    );
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (_, ceil, count) in snap.nonzero_buckets() {
                        cumulative = cumulative.saturating_add(count);
                        let le = ceil.to_string();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            e.name,
                            prom_labels(&e.labels, Some(("le", &le))),
                            cumulative,
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        e.name,
                        prom_labels(&e.labels, Some(("le", "+Inf"))),
                        snap.total(),
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        snap.sum(),
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        e.name,
                        prom_labels(&e.labels, None),
                        snap.total(),
                    );
                }
            }
        }
        out
    }

    /// JSON exposition as one flat array: an object per series with
    /// `name`, `labels`, `kind`, and either `value` or the histogram
    /// summary plus its `[floor, ceil, count]` bucket triples.
    #[must_use]
    pub fn render_json(&self) -> String {
        let rows = self.rows();
        let mut out = String::from("[");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"name\": \"{}\", \"labels\": \"{}\", \"kind\": \"{}\"",
                row.name, row.labels, row.kind,
            );
            match &row.histogram {
                None => {
                    let _ = write!(out, ", \"value\": {}", row.value);
                }
                Some(snap) => {
                    let _ = write!(
                        out,
                        ", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                        snap.total(),
                        snap.sum(),
                        snap.min(),
                        snap.max(),
                        snap.p50(),
                        snap.p99(),
                    );
                    for (j, (floor, ceil, count)) in snap.nonzero_buckets().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "[{floor}, {ceil}, {count}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }

    /// Zeroes every registered cell (entries stay registered). Tooling
    /// that wants a clean measurement window — `experiments metrics` —
    /// calls this before its run; nothing in the engines does.
    pub fn reset(&self) {
        let inner = self.inner.lock().expect("registry poisoned");
        for e in &inner.entries {
            match &e.metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every stack records into.
#[must_use]
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("pss_test_total", "a test counter");
        let b = r.counter("pss_test_total", "a test counter");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.rows().len(), 1);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        let a = r.counter_with("pss_ops_total", &[("op", "kill")], "ops");
        let b = r.counter_with("pss_ops_total", &[("op", "join")], "ops");
        a.add(3);
        b.add(5);
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].labels, "op=kill");
        assert_eq!(rows[0].value, 3);
        assert_eq!(rows[1].value, 5);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("pss_conflicted", "first as counter");
        let _ = r.gauge("pss_conflicted", "then as gauge");
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter_with("pss_frames_total", &[("dir", "in")], "frames")
            .add(7);
        let h = r.histogram_with("pss_rtt_ticks", &[("engine", "net")], "round trips");
        h.record(1);
        h.record(3);
        h.record(3);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE pss_frames_total counter"));
        assert!(text.contains("pss_frames_total{dir=\"in\"} 7"));
        assert!(text.contains("# TYPE pss_rtt_ticks histogram"));
        assert!(text.contains("pss_rtt_ticks_bucket{engine=\"net\",le=\"1\"} 1"));
        assert!(text.contains("pss_rtt_ticks_bucket{engine=\"net\",le=\"3\"} 3"));
        assert!(text.contains("pss_rtt_ticks_bucket{engine=\"net\",le=\"+Inf\"} 3"));
        assert!(text.contains("pss_rtt_ticks_sum{engine=\"net\"} 7"));
        assert!(text.contains("pss_rtt_ticks_count{engine=\"net\"} 3"));
    }

    #[test]
    fn json_rendering_shape() {
        let r = Registry::new();
        r.gauge("pss_live_nodes", "live population").set(42);
        let h = r.histogram("pss_phase_ns", "phase wall time");
        h.record(1000);
        let json = r.render_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\": \"pss_live_nodes\""));
        assert!(json.contains("\"value\": 42"));
        assert!(json.contains("\"kind\": \"histogram\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"p50\": 1000"));
    }

    #[test]
    fn reset_zeroes_but_keeps_series() {
        let r = Registry::new();
        let c = r.counter("pss_reset_me", "resettable");
        c.add(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(r.rows().len(), 1);
    }
}
