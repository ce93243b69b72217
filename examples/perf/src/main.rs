//! The repo's performance benchmark. See `README.md` beside `Cargo.toml`
//! for what is measured and why, and `BENCHMARK.json` at the repo root for
//! the contract the numbers are judged by.
//!
//! ```text
//! perf --workload <name> [--seed S] [--seconds T] [--trace 0|1]   one run; result line last
//! perf all [--seed S] [--seconds T] [--trace] [--out FILE]        every workload, child processes
//! perf compare <a.json> <b.json> [--benchmark BENCHMARK.json]     bounds applied to two result files
//! perf selftest                                                   every workload at tiny size
//! perf manifest                                                   prints BENCHMARK.json
//! ```

// The counting allocator in `harness` is the only unsafe code.
#![deny(unsafe_op_in_unsafe_fn)]

mod harness;
mod json;
mod micro;
mod report;
mod spec;
mod workloads;

use std::process::ExitCode;

use json::Json;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  perf --workload <{}> [--seed S] [--seconds T] [--trace 0|1]\n  perf all [--seed S] [--seconds T] [--trace] [--out FILE]\n  perf compare <a.json> <b.json> [--benchmark BENCHMARK.json]\n  perf selftest\n  perf manifest",
        spec::WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

/// Command-line options; positional arguments are kept in order.
#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
    benchmark: String,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: "results/perf.json".into(),
        benchmark: "BENCHMARK.json".into(),
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--out" => options.out = value("--out")?,
            "--benchmark" => options.benchmark = value("--benchmark")?,
            // `--trace 0|1` in the contract's form, bare `--trace` with `all`.
            "--trace" => match args.clone().next().map(String::as_str) {
                Some("0") => {
                    args.next();
                    options.trace = false;
                }
                Some("1") => {
                    args.next();
                    options.trace = true;
                }
                _ => options.trace = true,
            },
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    // Timed as users run the program: telemetry recording on, whatever the
    // caller exported. Done before any thread exists or any library reads it.
    let stripped = std::env::var_os("PSS_TELEMETRY").is_some();
    std::env::remove_var("PSS_TELEMETRY");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    let ok = match (
        options.workload.as_deref(),
        options.positional.first().map(String::as_str),
    ) {
        (Some(name), None) if spec::is_workload(name) => {
            report::run_and_print(name, options.seed, options.seconds, options.trace, stripped)
        }
        (None, Some("all")) => report::all(
            options.seed,
            options.seconds,
            options.trace,
            &options.out,
            stripped,
        ),
        (None, Some("compare")) if options.positional.len() == 3 => {
            let loaded = read_json(&options.positional[1]).and_then(|a| {
                let b = read_json(&options.positional[2])?;
                Ok((a, b, read_json(&options.benchmark)?))
            });
            match loaded {
                Ok((a, b, benchmark)) => report::compare(&a, &b, &benchmark),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
        (None, Some("selftest")) => report::selftest(),
        (None, Some("manifest")) => {
            print!("{}", spec::manifest().pretty());
            true
        }
        _ => return usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
