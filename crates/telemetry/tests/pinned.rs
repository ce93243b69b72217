//! Pins the registry's exposition of log₂ histograms: a fixed value set
//! (0, 1, 2ᵏ ± 1 for every k, `u64::MAX`, and repeats) is recorded into
//! registry histograms, and an FNV-1a digest covers `render_prometheus()`,
//! `render_json()` and each `MetricRow`'s total, sum, max, p50 and p99. A
//! change to how a histogram is bucketed, snapshotted or rendered changes
//! the constant.

use pss_telemetry::Registry;

/// FNV-1a over bytes.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

fn fixed_values() -> Vec<u64> {
    let mut values = vec![0, 1, 0, 1, u64::MAX, u64::MAX];
    for k in 1..64 {
        let p = 1u64 << k;
        values.extend([p - 1, p, p + 1]);
    }
    values.extend([7, 7, 7, 1000, 1000]);
    values
}

#[test]
fn histogram_exposition_is_pinned() {
    let r = Registry::new();
    r.counter_with("pss_pin_total", &[("kind", "a")], "a counter")
        .add(3);
    r.gauge("pss_pin_gauge", "a gauge").set(11);
    let all = r.histogram_with("pss_pin_ns", &[("set", "all")], "every value");
    let small = r.histogram_with("pss_pin_ns", &[("set", "small")], "values below 2^20");
    let _empty = r.histogram("pss_pin_empty", "nothing recorded");
    for v in fixed_values() {
        all.record(v);
        if v < 1 << 20 {
            small.record(v);
        }
    }

    let mut digest = Digest::new();
    digest.bytes(r.render_prometheus().as_bytes());
    digest.bytes(r.render_json().as_bytes());
    let rows = r.rows();
    assert_eq!(rows.len(), 5);
    for row in &rows {
        digest.words(&[row.value]);
        if let Some(h) = &row.histogram {
            digest.words(&[h.total(), h.sum(), h.max(), h.p50(), h.p99()]);
        }
    }
    assert_eq!(digest.0, EXPOSITION);
}

const EXPOSITION: u64 = 1448955067627572419;
