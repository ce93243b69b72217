//! Measuring tools shared by every workload: spans, the counting allocator,
//! quartiles, process CPU time and peak memory, and the digest hasher.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::Json;

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// Counts allocations (and reallocations) while [`count_allocs`] is on. The
/// flag is off in timed runs, where the only cost is one relaxed load per
/// allocation on paths that are allocation-free in steady state anyway.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so relaxed atomics suffice.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Turns allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, by every thread.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations made by `f` (on any thread), counting only while it runs.
pub fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let was = COUNTING.swap(true, Ordering::Relaxed);
    let before = allocs();
    let result = f();
    let counted = allocs() - before;
    COUNTING.store(was, Ordering::Relaxed);
    (result, counted)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded call from the harness into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Spans are recorded around the calls the harness
/// makes into a layer, never inside the program; they are written out once,
/// when the run ends. While `on` is false every method is a no-op that
/// reads no clock.
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `enter` returned (a `None` token closes nothing).
    pub fn exit(&mut self, token: Option<usize>) {
        if let Some(index) = token {
            assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Records a leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.enter(name);
        let result = f();
        self.exit(token);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Share of span `index`'s duration covered by its direct children.
pub fn child_coverage(spans: &[Span], index: usize) -> f64 {
    let total = spans[index].nanos();
    if total == 0 {
        return 1.0;
    }
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::nanos)
        .sum();
    children as f64 / total as f64
}

/// Checks that `spans` form a tree in recording order: every parent comes
/// first, every child lies within its parent, and every span is closed.
pub fn check_span_tree(spans: &[Span]) -> Result<(), String> {
    for (i, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", span.name));
        }
        if let Some(p) = span.parent {
            if p >= i {
                return Err(format!("span {i} ({}) precedes its parent {p}", span.name));
            }
            let parent = &spans[p];
            if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent {p} ({})",
                    span.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// The span file: one object per span, self time included.
pub fn spans_to_json(workload: &str, spans: &[Span]) -> Json {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.nanos();
        }
    }
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            ("name", Json::str(s.name)),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            (
                                "self_ns",
                                Json::Num(s.nanos().saturating_sub(child_ns[i]) as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Reads a span file back (the self-test checks what was written, not what
/// was meant to be written). Names are checked to be present, not kept.
pub fn spans_from_json(doc: &Json) -> Result<Vec<Span>, String> {
    let field = |span: &Json, key: &str| {
        span.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("span without {key}"))
    };
    doc.get("spans")
        .ok_or("no spans array")?
        .as_arr()
        .iter()
        .map(|span| {
            span.get("name")
                .and_then(Json::as_str)
                .ok_or("span without name")?;
            Ok(Span {
                name: "",
                start_ns: field(span, "start_ns")? as u64,
                end_ns: field(span, "end_ns")? as u64,
                parent: span
                    .get("parent")
                    .and_then(Json::as_f64)
                    .map(|p| p as usize),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// the numbers printed here are the numbers the driver derives.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("q1", Json::Num(self.q1)),
            ("median", Json::Num(self.median)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
            (
                "values",
                Json::Arr(self.values.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ])
    }
}

/// Summarizes a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: usize| {
        if n == 1 {
            return sorted[0];
        }
        // Position k(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    Summary {
        q1: quantile(1),
        median: quantile(2),
        q3: quantile(3),
        n,
        values: values.to_vec(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

// ---------------------------------------------------------------------------
// Process accounting (/proc)
// ---------------------------------------------------------------------------

/// CPU time of a process: user and system seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub user: f64,
    pub system: f64,
}

impl CpuTime {
    pub fn total(self) -> f64 {
        self.user + self.system
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user - earlier.user,
            system: self.system - earlier.system,
        }
    }
}

/// utime + stime of this process, all threads, exited ones included, from
/// `/proc/self/stat`. The kernel reports ticks of `USER_HZ`, which Linux
/// fixes at 100 for every architecture it exports this file on.
pub fn process_cpu() -> CpuTime {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    let user = ticks() / USER_HZ;
    let system = ticks() / USER_HZ;
    CpuTime { user, system }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: the `sim_digest` printed by the deterministic
/// workloads. Not a pinned value; two runs at equal seed must agree.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[7.0]).q3, 7.0);
    }

    #[test]
    fn spans_nest_and_round_trip() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.time("inner", || ());
        t.exit(outer);
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        check_span_tree(&spans).unwrap();
        assert!(child_coverage(&spans, 0) <= 1.0);
        let back = spans_from_json(&spans_to_json("w", &spans)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].parent, Some(0));

        let mut off = Tracer::new(false);
        assert_eq!(off.enter("x"), None);
        off.exit(None);
        assert!(off.spans().is_empty());

        let mut bad = spans;
        bad[2].end_ns = bad[0].end_ns + 1;
        assert!(check_span_tree(&bad).is_err());
    }

    #[test]
    fn allocation_counter_sees_a_vec() {
        let (_, n) = allocs_during(|| std::hint::black_box(vec![1u8; 64]));
        assert!(n >= 1);
        assert!(process_cpu().total() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
