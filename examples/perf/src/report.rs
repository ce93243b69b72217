//! Printing one run, running the whole set in child processes (`all`),
//! comparing two result files (`compare`) and the self-test.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::harness::{check_span_tree, spans_from_json, spans_to_json};
use crate::json::Json;
use crate::spec::{self, Better, MetricSpec};
use crate::workloads::{self, Ctx, Outcome, Sizes};

/// Prefix of the line that carries what the contract's result line has no
/// room for (parameters, digest, gates, quartiles); `all` reads it back.
const DETAIL_PREFIX: &str = "detail ";

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// Value of `spec` in `outcome`. A per-layer metric the workload did not set
/// belongs to a layer off its path and reads 0; an end-to-end metric must
/// have been set.
fn metric_value(outcome: &Outcome, trace: bool, spec: &MetricSpec) -> f64 {
    match outcome.metrics.get(spec.name) {
        Some(v) => *v,
        None if trace => 0.0,
        None => f64::NAN,
    }
}

/// The contract's result line.
pub fn result_line(outcome: &Outcome, trace: bool) -> Json {
    let metrics = spec::metrics_for(trace).iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(metric_value(outcome, trace, m))),
                ("unit", Json::str(m.unit)),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn detail_line(outcome: &Outcome, seed: u64, seconds: f64, trace: bool, stripped: bool) -> Json {
    Json::obj([
        ("workload", Json::str(outcome.workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("telemetry_env_stripped", Json::Bool(stripped)),
        (
            "params",
            Json::obj(
                outcome
                    .params
                    .iter()
                    .map(|(k, v)| (*k, Json::str(v.clone()))),
            ),
        ),
        (
            "sim_digest",
            outcome
                .digest
                .map_or(Json::Null, |d| Json::str(format!("{d:016x}"))),
        ),
        (
            "gates",
            Json::Arr(
                outcome
                    .gates
                    .iter()
                    .map(|g| {
                        Json::obj([
                            ("name", Json::str(g.name)),
                            ("ok", Json::Bool(g.ok)),
                            ("detail", Json::str(g.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::obj(outcome.samples.iter().map(|(k, s)| (*k, s.to_json()))),
        ),
    ])
}

/// Runs one workload in this process and prints it: every gate, every
/// metric by name with its unit, the detail line, then the result line
/// last. Returns false when a gate failed.
pub fn run_and_print(name: &str, seed: u64, seconds: f64, trace: bool, stripped: bool) -> bool {
    let ctx = Ctx::new(seed, seconds, trace, Sizes::full());
    println!(
        "workload {name}: seed {seed}, {seconds} s, trace {}",
        u8::from(trace)
    );
    let outcome = workloads::run(name, ctx);
    for (key, value) in &outcome.params {
        println!("  {key} = {value}");
    }
    for gate in &outcome.gates {
        println!(
            "  gate {} {}: {}",
            gate.name,
            if gate.ok { "ok" } else { "FAILED" },
            gate.detail
        );
    }
    if let Some(digest) = outcome.digest {
        println!("  sim_digest {digest:016x}");
    }
    for m in spec::metrics_for(trace) {
        let value = metric_value(&outcome, trace, m);
        match outcome.samples.get(m.name) {
            Some(s) => println!(
                "  {} = {value} {} (q1 {}, q3 {}, n {})",
                m.name, m.unit, s.q1, s.q3, s.n
            ),
            None => println!("  {} = {value} {}", m.name, m.unit),
        }
    }
    if trace {
        let path = format!("results/trace-{name}.json");
        match write_file(&path, &spans_to_json(name, &outcome.spans).pretty()) {
            Ok(()) => println!("  {} spans written to {path}", outcome.spans.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    println!(
        "{DETAIL_PREFIX}{}",
        detail_line(&outcome, seed, seconds, trace, stripped)
    );
    println!("{}", result_line(&outcome, trace));
    outcome.correct()
}

fn write_file(path: &str, content: &str) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, content)
}

// ---------------------------------------------------------------------------
// all
// ---------------------------------------------------------------------------

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(seed: u64, seconds: f64, stripped: bool, wall_s: f64) -> Json {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| unknown());
    Json::obj([
        (
            "commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::str(command_output("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("telemetry_env_stripped", Json::Bool(stripped)),
        ("wall_s", Json::Num(wall_s)),
    ])
}

/// Runs `--workload name` in a child process and returns its detail and
/// result lines. The child's other output is echoed as it is.
fn run_child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        // Timed as users run it: recording on, whatever the caller exported.
        .env_remove("PSS_TELEMETRY")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().ok_or("child printed nothing")?;
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    for line in lines {
        println!("{line}");
    }
    if !out.status.success() {
        println!("  {name} exited with {}", out.status);
    }
    Ok((Json::parse(detail)?, Json::parse(result)?))
}

/// One run as the result file stores it: the result line's fields, with
/// each sampled metric's quartiles beside its value.
fn stored_run(detail: &Json, result: &Json) -> Json {
    let samples = detail.get("samples");
    let metrics = result.get("metrics").map_or(&[][..], Json::as_obj);
    Json::obj([
        (
            "correct",
            result.get("correct").cloned().unwrap_or(Json::Null),
        ),
        (
            "attempted",
            result.get("attempted").cloned().unwrap_or(Json::Null),
        ),
        (
            "failed",
            result.get("failed").cloned().unwrap_or(Json::Null),
        ),
        ("gates", detail.get("gates").cloned().unwrap_or(Json::Null)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, metric)| {
                let mut pairs = metric.as_obj().to_vec();
                if let Some(s) = samples.and_then(|s| s.get(name)) {
                    for key in ["q1", "q3", "n"] {
                        if let Some(v) = s.get(key) {
                            pairs.push((key.to_string(), v.clone()));
                        }
                    }
                }
                (name.clone(), Json::Obj(pairs))
            })),
        ),
    ])
}

/// `perf all`: every workload in its own child process, one after another,
/// so no more threads are busy than a single run uses. Returns false when a
/// gate failed anywhere.
pub fn all(seed: u64, seconds: f64, trace: bool, out: &str, stripped: bool) -> bool {
    let started = Instant::now();
    let mut ok = true;
    let mut workloads = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let mut entry = vec![("name".to_string(), Json::str(*name))];
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            match run_child(name, seed, seconds, traced) {
                Ok((detail, result)) => {
                    ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
                    if !traced {
                        for key in ["params", "sim_digest"] {
                            entry
                                .push((key.into(), detail.get(key).cloned().unwrap_or(Json::Null)));
                        }
                    }
                    let key = if traced { "traced" } else { "timed" };
                    entry.push((key.into(), stored_run(&detail, &result)));
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    ok = false;
                }
            }
        }
        workloads.push(Json::Obj(entry));
    }
    let doc = Json::obj([
        (
            "provenance",
            provenance(seed, seconds, stripped, started.elapsed().as_secs_f64()),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    print_table(&doc);
    match write_file(out, &doc.pretty()) {
        Ok(()) => println!("results written to {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            ok = false;
        }
    }
    ok
}

fn print_table(doc: &Json) {
    println!();
    for workload in doc.get("workloads").map_or(&[][..], Json::as_arr) {
        let name = workload.get("name").and_then(Json::as_str).unwrap_or("?");
        let digest = workload
            .get("sim_digest")
            .and_then(Json::as_str)
            .unwrap_or("-");
        println!("{name} (sim_digest {digest})");
        for run in ["timed", "traced"] {
            let Some(metrics) = workload.get(run).and_then(|r| r.get("metrics")) else {
                continue;
            };
            for (metric, body) in metrics.as_obj() {
                let value = body.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
                // A layer off this workload's path reads exactly 0.
                if run == "traced" && value == 0.0 {
                    continue;
                }
                println!("  {metric:<34} {value:>16.4} {unit}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs' own quartile spread is wider than the bound.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `(value, quartile spread)` of one stored metric. The spread of a metric
/// with fewer than four samples behind it is unknown and taken as 0.
fn stored_metric(run: &Json, name: &str) -> Option<(f64, f64)> {
    let metric = run.get("metrics")?.get(name)?;
    let value = metric.get("value")?.as_f64()?;
    let field = |key: &str| metric.get(key).and_then(Json::as_f64);
    let spread = match (field("q1"), field("q3"), field("n")) {
        (Some(q1), Some(q3), Some(n)) if n >= 4.0 && value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some((value, spread))
}

fn failed_share(run: &Json) -> f64 {
    let field = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    field("failed") / field("attempted").max(1.0)
}

/// `perf compare a.json b.json`: one row per (workload, end-to-end metric),
/// with the bounds of `benchmark` (the parsed `BENCHMARK.json`). Returns
/// false on any regression or higher failed share.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse", "spread", "bound"
    );
    for wa in a.get("workloads").map_or(&[][..], Json::as_arr) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let wb = b
            .get("workloads")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name));
        let (Some(ra), Some(rb)) = (wa.get("timed"), wb.and_then(|w| w.get("timed"))) else {
            println!("{name:<14} missing from one of the files");
            ok = false;
            continue;
        };
        for m in benchmark.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let (Some((va, sa)), Some((vb, sb))) =
                (stored_metric(ra, metric), stored_metric(rb, metric))
            else {
                println!("{name:<14} {metric:<22} missing from one of the files");
                ok = false;
                continue;
            };
            let worse = worsening(va, vb, better);
            let spread = sa.max(sb);
            let v = verdict(worse, spread, bound);
            ok &= v != Verdict::Regressed;
            println!(
                "{name:<14} {metric:<22} {va:>14.4} {vb:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        if fb > fa {
            println!("{name:<14} failed share rose from {fa} to {fb}");
            ok = false;
        }
    }
    ok
}

// ---------------------------------------------------------------------------
// selftest
// ---------------------------------------------------------------------------

/// `perf selftest`: every workload at tiny size, timed and traced, in this
/// process. Checks the gates, that every metric `BENCHMARK.json` names comes
/// out finite, and that every span file is a well-formed tree.
pub fn selftest() -> bool {
    let started = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let expected = spec::manifest();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => match Json::parse(&text) {
            Ok(on_disk) if on_disk == expected => println!("BENCHMARK.json matches the tables"),
            Ok(_) => failures.push("BENCHMARK.json differs from `perf manifest`".into()),
            Err(e) => failures.push(format!("BENCHMARK.json does not parse: {e}")),
        },
        Err(_) => println!("no BENCHMARK.json in this directory; checking the built-in tables"),
    }
    for (name, _) in spec::WORKLOADS {
        for trace in [false, true] {
            let ctx = Ctx::new(spec::DEFAULT_SEED, 0.2, trace, Sizes::tiny());
            let outcome = workloads::run(name, ctx);
            let label = format!("{name} trace {}", u8::from(trace));
            for gate in outcome.gates.iter().filter(|g| !g.ok) {
                failures.push(format!(
                    "{label}: gate {} failed: {}",
                    gate.name, gate.detail
                ));
            }
            // The result line is what the driver reads: check that.
            let line = result_line(&outcome, trace);
            for m in spec::metrics_for(trace) {
                let value = line
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64);
                match value {
                    Some(v) if v.is_finite() && (trace || v != 0.0) => {}
                    other => failures.push(format!("{label}: {} = {other:?}", m.name)),
                }
            }
            if trace {
                let path = format!("results/selftest/trace-{name}.json");
                let written = write_file(&path, &spans_to_json(name, &outcome.spans).pretty())
                    .map_err(|e| e.to_string())
                    .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
                    .and_then(|text| Json::parse(&text))
                    .and_then(|doc| spans_from_json(&doc));
                match written {
                    Ok(spans) if spans.is_empty() => failures.push(format!("{label}: no spans")),
                    Ok(spans) => {
                        if let Err(e) = check_span_tree(&spans) {
                            failures.push(format!("{label}: {e}"));
                        }
                    }
                    Err(e) => failures.push(format!("{label}: span file: {e}")),
                }
            }
            println!(
                "{label}: {} gates, {} metrics, {} spans",
                outcome.gates.len(),
                outcome.metrics.len(),
                outcome.spans.len()
            );
        }
    }
    let wall = started.elapsed().as_secs_f64();
    if wall > 30.0 {
        failures.push(format!("self-test took {wall:.1} s, budget 30 s"));
    }
    for failure in &failures {
        println!("FAILED {failure}");
    }
    println!("self-test: {} failures in {wall:.1} s", failures.len());
    failures.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rate: f64, q1: f64, q3: f64, failed: f64) -> Json {
        let metric = |value: f64, q1: f64, q3: f64| {
            Json::obj([
                ("value", Json::Num(value)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("n", Json::Num(10.0)),
            ])
        };
        let metrics = Json::obj([
            ("node_periods_per_s", metric(rate, q1, q3)),
            ("cpu_us_per_exchange", metric(3.0, 3.0, 3.0)),
            ("setup_s", metric(1.0, 1.0, 1.0)),
        ]);
        let timed = Json::obj([
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed)),
            ("metrics", metrics),
        ]);
        let workload = Json::obj([("name", Json::str("cycle_steady")), ("timed", timed)]);
        Json::obj([("workloads", Json::Arr(vec![workload]))])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(0.11, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.10, 0.10, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(0.05, 0.02, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(-0.2, 0.02, 0.10), Verdict::Improved);
        assert_eq!(verdict(0.3, 0.12, 0.10), Verdict::Unresolved);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Lower) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn compare_fails_on_regression_and_on_more_failures() {
        let benchmark = spec::manifest();
        let base = file(1000.0, 990.0, 1010.0, 0.0);
        assert!(compare(&base, &base, &benchmark));
        assert!(compare(
            &base,
            &file(1500.0, 1490.0, 1510.0, 0.0),
            &benchmark
        ));
        assert!(!compare(&base, &file(700.0, 690.0, 710.0, 0.0), &benchmark));
        assert!(!compare(
            &base,
            &file(1000.0, 990.0, 1010.0, 3.0),
            &benchmark
        ));
        // A noisy pair is unresolved, which is not a regression.
        assert!(compare(&base, &file(700.0, 500.0, 900.0, 0.0), &benchmark));
    }
}
