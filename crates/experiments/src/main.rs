//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! experiments <command> [options]
//!
//! commands:
//!   table1   partitioning of push protocols (growing overlay)
//!   fig2     property dynamics in the growing scenario
//!   fig3     convergence from lattice and random starts
//!   fig4     degree distribution evolution
//!   table2   degree statistics of traced nodes
//!   fig5     degree autocorrelation of a fixed node
//!   fig6     robustness to massive node removal
//!   fig7     self-healing after 50% node failure
//!   policies sweep of all 27 policy combinations (Section 4.3)
//!   async    event-driven engine comparison (extension; --shards runs the
//!            event rows once per shard count, default 1; scales to
//!            --scale million)
//!   apps     broadcast/aggregation sampling-quality comparison (extension)
//!   hs       healer/swapper (H,S) ablation (extension)
//!   scaling  sharded-engine throughput vs shard count (extension)
//!   net      live loopback UDP cluster: convergence + throughput through
//!            the wire codec (--workers sets the runtime-thread count;
//!            --schedule runs a workload schedule on the cluster and gates
//!            on recovery instead of convergence)
//!   workload membership-dynamics schedule on the cycle AND event engines
//!            (--schedule "quiet:10,kill:0.5,churn:0.01x20"; the grammar
//!            also has flash:N[herd], part:GxP@L lossy partitions, (…)xR
//!            repetition — see pss_sim::workload); --freshness both runs
//!            hop-count and timestamp age back to back and gates on the
//!            freshness ordering under partition schedules
//!   matrix   failure-physics scenario matrix: policy × freshness ×
//!            failure family (churn, catastrophe, herd, lossy partition),
//!            gated on timestamp freshness healing the lossy long
//!            partition that hop-count leaves split
//!   adversary Byzantine attack sweep: one adv: schedule across the honest
//!            policy corners (newscast, blind, H&S healer, H&S swapper)
//!            on both engines (--schedule "adv:hub@0.02,quiet:30")
//!   protocols broadcast + aggregation under membership schedules: policy ×
//!            sampler (overlay vs oracle) × engine per schedule, including
//!            a Table-1-style partition schedule under application load
//!            (--schedule overrides the schedule list)
//!   metrics  exercise the telemetry registry across every stack and print
//!            the per-series quantile table plus the Prometheus exposition
//!            (--out writes metrics.prom and metrics.json)
//!   all      everything above, in order
//!
//! options:
//!   --scale paper|small|tiny|million  preset scale     [default: paper]
//!   --nodes N                  override population size
//!   --cycles N                 override cycle budget
//!   --view-size C              override view size
//!   --runs R                   override runs/repetitions (table1, fig6)
//!   --shards LIST              comma-separated shard counts (scaling, async;
//!                              workload uses the first entry)
//!   --workers N                worker-pool width override (scaling, async,
//!                              workload)
//!   --schedule S               workload schedule string (workload, net,
//!                              adversary, protocols)
//!   --freshness hop|timestamp|both  descriptor-age mode (workload)
//!   --seed S                   override master seed
//!   --out DIR                  also write CSV series under DIR
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pss_experiments::report::Table;
use pss_experiments::{
    adversary, apps, asynchrony, fig2, fig3, fig4, fig5, fig6, fig7, hs_ablation, metrics, net,
    policies, protocols, scaling, table1, table2, workload, Scale,
};
use pss_telemetry::EventKind;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: String,
    scale: Scale,
    runs: Option<usize>,
    shards: Option<Vec<usize>>,
    workers: Option<usize>,
    schedule: Option<String>,
    freshness: workload::FreshnessChoice,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut command = None;
    let mut scale = Scale::paper();
    let mut nodes = None;
    let mut cycles = None;
    let mut view_size = None;
    let mut seed = None;
    let mut runs = None;
    let mut shards = None;
    let mut workers = None;
    let mut schedule = None;
    let mut freshness = workload::FreshnessChoice::default();
    let mut out = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--scale" => {
                scale = match grab("--scale")?.as_str() {
                    "paper" => Scale::paper(),
                    "small" => Scale::small(),
                    "tiny" => Scale::tiny(),
                    "million" => Scale::million(),
                    other => return Err(format!("unknown scale preset `{other}`")),
                }
            }
            "--nodes" => nodes = Some(parse_num(&grab("--nodes")?)?),
            "--cycles" => cycles = Some(parse_num(&grab("--cycles")?)? as u64),
            "--view-size" => view_size = Some(parse_num(&grab("--view-size")?)?),
            "--seed" => seed = Some(parse_num(&grab("--seed")?)? as u64),
            "--runs" => runs = Some(parse_num(&grab("--runs")?)?),
            "--shards" => {
                let list = grab("--shards")?
                    .split(',')
                    .map(parse_num)
                    .collect::<Result<Vec<usize>, String>>()?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--shards needs positive counts".into());
                }
                shards = Some(list);
            }
            "--workers" => {
                let n = parse_num(&grab("--workers")?)?;
                if n == 0 {
                    return Err("--workers needs a positive count".into());
                }
                workers = Some(n);
            }
            "--schedule" => schedule = Some(grab("--schedule")?),
            "--freshness" => freshness = workload::FreshnessChoice::parse(&grab("--freshness")?)?,
            "--out" => out = Some(PathBuf::from(grab("--out")?)),
            "--help" | "-h" => return Err("help".into()),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if command.is_some() {
                    return Err(format!("unexpected extra argument `{other}`"));
                }
                command = Some(other.to_owned());
            }
        }
    }

    if let Some(n) = nodes {
        scale.nodes = n;
    }
    if let Some(c) = cycles {
        scale.cycles = c;
    }
    if let Some(v) = view_size {
        scale.view_size = v;
    }
    if let Some(s) = seed {
        scale.seed = s;
    }
    if scale.nodes < 2 || scale.view_size == 0 {
        return Err("need at least 2 nodes and a positive view size".into());
    }

    Ok(Options {
        command: command.ok_or_else(|| "no command given (try --help)".to_owned())?,
        scale,
        runs,
        shards,
        workers,
        schedule,
        freshness,
        out,
    })
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("invalid number `{s}`"))
}

fn emit(opts: &Options, name: &str, summary: &Table, series: Option<&Table>) {
    println!("== {name} ==");
    print!("{summary}");
    println!();
    if let Some(dir) = &opts.out {
        let write = |suffix: &str, table: &Table| {
            let path = dir.join(format!("{name}{suffix}.csv"));
            match table.write_csv(&path) {
                Ok(()) => println!("   wrote {}", path.display()),
                Err(e) => eprintln!("   failed to write {}: {e}", path.display()),
            }
        };
        write("", summary);
        if let Some(series) = series {
            write("_series", series);
        }
    }
    telemetry_footer(name);
}

/// One-line registry digest after every experiment's summary table:
/// series count and total timed observations. Silent when telemetry is
/// off (`PSS_TELEMETRY=0`) or nothing recorded yet.
fn telemetry_footer(name: &str) {
    if !pss_telemetry::enabled() {
        return;
    }
    let rows = pss_telemetry::global().rows();
    if rows.is_empty() {
        return;
    }
    let observations: u64 = rows
        .iter()
        .filter(|r| r.kind == "histogram")
        .map(|r| r.value)
        .sum();
    eprintln!(
        "   [telemetry after {name}: {} series, {observations} timed observations — \
         run `experiments metrics` for quantiles]",
        rows.len()
    );
}

/// Records a health-gate evaluation in the flight recorder and passes
/// the verdict through (`a` = 1 pass / 0 fail).
fn gate(name: &'static str, pass: bool) -> bool {
    pss_telemetry::flight().record(EventKind::GateEval, name, u64::from(pass), 0);
    pass
}

/// Caps the population a many-run command measures, and says so rather
/// than silently measuring a different N.
fn cap_nodes(command: &str, mut scale: Scale, cap: usize) -> Scale {
    if scale.nodes > cap {
        eprintln!(
            "   note: {command} caps the population at {cap} nodes ({} requested)",
            scale.nodes
        );
        scale.nodes = cap;
    }
    scale
}

fn run_command(opts: &Options, command: &str) -> Result<(), String> {
    let scale = opts.scale;
    let started = Instant::now();
    match command {
        "table1" => {
            let mut config = table1::Table1Config::at_scale(scale);
            if let Some(r) = opts.runs {
                config.runs = r;
            }
            let result = table1::run(&config);
            emit(opts, "table1", &result.table(), None);
        }
        "fig2" => {
            let config = fig2::Fig2Config::at_scale(scale);
            let result = fig2::run(&config);
            emit(opts, "fig2", &result.table(), Some(&result.series_table()));
        }
        "fig3" => {
            let config = fig3::Fig3Config::at_scale(scale);
            let result = fig3::run(&config);
            emit(opts, "fig3", &result.table(), Some(&result.series_table()));
        }
        "fig4" => {
            let config = fig4::Fig4Config::at_scale(scale);
            let result = fig4::run(&config);
            emit(opts, "fig4", &result.table(), Some(&result.series_table()));
        }
        "table2" => {
            let config = table2::Table2Config::at_scale(scale);
            let result = table2::run(&config);
            emit(opts, "table2", &result.table(), None);
        }
        "fig5" => {
            let config = fig5::Fig5Config::at_scale(scale);
            let result = fig5::run(&config);
            emit(opts, "fig5", &result.table(), Some(&result.series_table()));
        }
        "fig6" => {
            let mut config = fig6::Fig6Config::at_scale(scale);
            if let Some(r) = opts.runs {
                config.repetitions = r;
            }
            let result = fig6::run(&config);
            emit(opts, "fig6", &result.table(), Some(&result.series_table()));
        }
        "fig7" => {
            let config = fig7::Fig7Config::at_scale(scale);
            let result = fig7::run(&config);
            emit(opts, "fig7", &result.table(), Some(&result.series_table()));
        }
        "policies" => {
            // The sweep runs 27 simulations; cap the default cost.
            let mut sweep_scale = cap_nodes("policies", scale, 1000);
            sweep_scale.cycles = sweep_scale.cycles.min(100);
            let config = policies::PoliciesConfig::at_scale(sweep_scale);
            let result = policies::run(&config);
            emit(opts, "policies", &result.table(), None);
        }
        "async" => {
            let mut async_scale = scale;
            async_scale.cycles = async_scale.cycles.min(100);
            let mut config = asynchrony::AsyncConfig::at_scale(async_scale);
            if let Some(shards) = &opts.shards {
                config.shard_counts = shards.clone();
            }
            config.workers = opts.workers;
            let result = asynchrony::run(&config);
            emit(opts, "async", &result.table(), None);
        }
        "apps" => {
            let mut apps_scale = cap_nodes("apps", scale, 2000);
            apps_scale.cycles = apps_scale.cycles.min(100);
            let config = apps::AppsConfig::at_scale(apps_scale);
            let result = apps::run(&config);
            emit(opts, "apps", &result.table(), None);
        }
        "hs" => {
            let mut hs_scale = cap_nodes("hs", scale, 2000);
            hs_scale.cycles = hs_scale.cycles.min(100);
            let config = hs_ablation::HsAblationConfig::at_scale(hs_scale);
            let result = hs_ablation::run(&config);
            emit(opts, "hs", &result.table(), None);
        }
        "scaling" => {
            let mut config = scaling::ScalingConfig::at_scale(scale);
            if let Some(shards) = &opts.shards {
                config.shard_counts = shards.clone();
            }
            config.workers = opts.workers;
            let result = scaling::run(&config);
            emit(opts, "scaling", &result.table(), None);
            eprintln!(
                "   best speedup over 1 shard: {:.2}x (N = {}, {} cycles)",
                result.best_speedup(),
                result.nodes,
                result.cycles
            );
        }
        "net" => {
            let mut config = net::NetConfig::at_scale(scale);
            if let Some(workers) = opts.workers {
                config.runtimes = workers;
            }
            config.schedule = opts.schedule.clone();
            let result = net::run(&config)?;
            emit(opts, "net", &result.table(), None);
            eprintln!(
                "   {} nodes on {} runtimes: {} frames/s, {} exchanges/s, healthy = {}",
                result.nodes,
                result.runtimes,
                fmt_num(result.report.frames_per_sec()),
                fmt_num(result.report.exchanges_per_sec()),
                result.healthy()
            );
            if !gate("net", result.healthy()) {
                return Err("loopback cluster failed to converge or recover cleanly".into());
            }
        }
        "workload" => {
            // Two engines × full per-period metrics.
            let wl_scale = cap_nodes("workload", scale, 20_000);
            let mut config = workload::WorkloadConfig::at_scale(wl_scale);
            if let Some(schedule) = &opts.schedule {
                config.schedule = schedule.clone();
            }
            if let Some(shards) = &opts.shards {
                config.shards = shards[0];
            }
            config.workers = opts.workers;
            config.freshness = opts.freshness;
            let run = workload::run(&config)?;
            for result in &run.results {
                emit(opts, result.emit_name(), &result.table(), None);
                eprintln!(
                    "   {} nodes, schedule `{}`, {} shards, {} freshness: healthy = {} \
                     (periods marked * ran under a partition)",
                    result.nodes,
                    config.schedule,
                    config.shards,
                    match result.freshness {
                        pss_core::Freshness::HopCount => "hop-count",
                        pss_core::Freshness::Timestamp => "timestamp",
                    },
                    result.healthy()
                );
            }
            let verdict = run.verdict();
            eprintln!(
                "   gate = {}{}",
                if verdict.is_ok() { "pass" } else { "FAIL" },
                if run.partitioned && run.results.len() == 2 {
                    " (cross-mode freshness ordering asserted)"
                } else {
                    ""
                }
            );
            if !gate("workload", verdict.is_ok()) {
                return Err(format!("workload gate failed: {}", verdict.unwrap_err()));
            }
        }
        "matrix" => {
            // Sixteen cross-engine runs.
            let mx_scale = cap_nodes("matrix", scale, 2_000);
            let mut config = workload::MatrixConfig::at_scale(mx_scale);
            if let Some(shards) = &opts.shards {
                config.shards = shards[0];
            }
            config.workers = opts.workers;
            let result = workload::matrix(&config)?;
            emit(opts, "matrix", &result.table(), None);
            let verdict = result.verdict();
            eprintln!(
                "   {} nodes, {} cells: gate = {}",
                result.nodes,
                result.cells.len(),
                if verdict.is_ok() { "pass" } else { "FAIL" }
            );
            if !gate("matrix", verdict.is_ok()) {
                return Err(format!("matrix gate failed: {}", verdict.unwrap_err()));
            }
        }
        "adversary" => {
            // Four policy corners × two engines with full per-period audits.
            let adv_scale = cap_nodes("adversary", scale, 10_000);
            let mut config = adversary::AdversaryConfig::at_scale(adv_scale);
            if let Some(schedule) = &opts.schedule {
                config.schedule = schedule.clone();
            }
            if let Some(shards) = &opts.shards {
                config.shards = shards[0];
            }
            config.workers = opts.workers;
            let result = adversary::run(&config)?;
            emit(opts, "adversary", &result.table(), None);
            eprintln!(
                "   {} nodes, schedule `{}`, {} shards: healthy = {}",
                result.nodes,
                config.schedule,
                config.shards,
                result.healthy()
            );
            if !gate("adversary", result.healthy()) {
                return Err(
                    "adversary sweep broke the honest overlay or the defense ordering".into(),
                );
            }
        }
        "protocols" => {
            // Sixteen runs × two protocols per run.
            let app_scale = cap_nodes("protocols", scale, 10_000);
            let mut config = protocols::ProtocolsConfig::at_scale(app_scale);
            if let Some(schedule) = &opts.schedule {
                config.schedules = vec![("custom".into(), schedule.clone())];
            }
            if let Some(shards) = &opts.shards {
                config.shards = shards[0];
            }
            config.workers = opts.workers;
            let result = protocols::run(&config)?;
            emit(
                opts,
                "protocols",
                &result.table(),
                Some(&result.series_table()),
            );
            eprintln!(
                "   {} nodes, {} runs: healthy = {}",
                result.nodes,
                result.runs.len(),
                result.healthy()
            );
            if !gate("protocols", result.healthy()) {
                return Err(
                    "an application run missed delivery or left an unhealthy overlay".into(),
                );
            }
        }
        "metrics" => {
            let mut config = metrics::MetricsConfig::at_scale(scale);
            if let Some(shards) = &opts.shards {
                config.shards = shards[0];
            }
            config.workers = opts.workers;
            let result = metrics::run(&config)?;
            emit(opts, "metrics", &result.table(), None);
            print!("{}", result.prometheus);
            if let Some(dir) = &opts.out {
                for (suffix, body) in [("prom", &result.prometheus), ("json", &result.json)] {
                    let path = dir.join(format!("metrics.{suffix}"));
                    match std::fs::write(&path, body) {
                        Ok(()) => println!("   wrote {}", path.display()),
                        Err(e) => eprintln!("   failed to write {}: {e}", path.display()),
                    }
                }
            }
            eprintln!(
                "   {} series, flight recorder {}/{} events buffered, healthy = {}",
                result.rows.len(),
                result.flight_len,
                result.flight_recorded,
                result.healthy()
            );
            if !gate("metrics", result.healthy()) {
                return Err(format!(
                    "telemetry exercise left metric families empty: {:?}",
                    result.missing_families()
                ));
            }
        }
        "all" => {
            for c in [
                "table1",
                "fig2",
                "fig3",
                "fig4",
                "table2",
                "fig5",
                "fig6",
                "fig7",
                "policies",
                "async",
                "apps",
                "hs",
                "scaling",
                "net",
                "workload",
                "matrix",
                "adversary",
                "protocols",
                // Last: the telemetry exercise resets the global registry.
                "metrics",
            ] {
                run_command(opts, c)?;
            }
            return Ok(());
        }
        other => return Err(format!("unknown command `{other}` (try --help)")),
    }
    eprintln!("[{command} finished in {:.1?}]", started.elapsed());
    Ok(())
}

fn main() -> ExitCode {
    pss_telemetry::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg == "help" {
                eprintln!("{}", USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run_command(&opts, &opts.command.clone()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            // A failed health gate is exactly what the flight recorder
            // is for: dump the event trail next to the error.
            let flight = pss_telemetry::flight();
            if !flight.is_empty() {
                let path = pss_telemetry::dump_path();
                match flight.dump_to_file(&path) {
                    Ok(()) => eprintln!("flight recorder dumped to {}", path.display()),
                    Err(e) => eprintln!("flight recorder dump failed: {e}"),
                }
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: experiments \
       <table1|fig2|fig3|fig4|table2|fig5|fig6|fig7|policies|async|apps|hs|scaling|net|workload|matrix|adversary|protocols|metrics|all>
       [--scale paper|small|tiny|million] [--nodes N] [--cycles N] [--view-size C]
       [--runs R] [--shards LIST] [--workers N] [--schedule S]
       [--freshness hop|timestamp|both] [--seed S] [--out DIR]";

/// Human throughput formatting for the `net` summary line.
fn fmt_num(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.1}k", x / 1000.0)
    } else {
        format!("{x:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_defaults() {
        let o = parse_args(&args("table1")).unwrap();
        assert_eq!(o.command, "table1");
        assert_eq!(o.scale, Scale::paper());
        assert_eq!(o.runs, None);
        assert_eq!(o.out, None);
    }

    #[test]
    fn parses_scale_presets_and_overrides() {
        let o = parse_args(&args("fig7 --scale tiny --nodes 500 --cycles 70 --seed 9")).unwrap();
        assert_eq!(o.scale.nodes, 500);
        assert_eq!(o.scale.cycles, 70);
        assert_eq!(o.scale.seed, 9);
        assert_eq!(o.scale.view_size, Scale::tiny().view_size);
    }

    #[test]
    fn parses_runs_and_out() {
        let o = parse_args(&args("fig6 --runs 100 --out /tmp/results")).unwrap();
        assert_eq!(o.runs, Some(100));
        assert_eq!(o.out, Some(PathBuf::from("/tmp/results")));
    }

    #[test]
    fn parses_shards_and_workers() {
        let o = parse_args(&args("scaling --scale tiny --shards 1,2,4 --workers 2")).unwrap();
        assert_eq!(o.shards, Some(vec![1, 2, 4]));
        assert_eq!(o.workers, Some(2));
        assert!(parse_args(&args("scaling --shards 0,2")).is_err());
        assert!(parse_args(&args("scaling --shards 1,x")).is_err());
        assert!(parse_args(&args("scaling --workers 0")).is_err());
    }

    #[test]
    fn parses_schedule() {
        let o = parse_args(&args("workload --schedule quiet:5,kill:0.5 --shards 2")).unwrap();
        assert_eq!(o.schedule.as_deref(), Some("quiet:5,kill:0.5"));
        assert!(parse_args(&args("workload --schedule")).is_err());
    }

    #[test]
    fn parses_freshness() {
        let o = parse_args(&args("workload --freshness both")).unwrap();
        assert_eq!(o.freshness, workload::FreshnessChoice::Both);
        let o = parse_args(&args("workload --freshness timestamp")).unwrap();
        assert_eq!(o.freshness, workload::FreshnessChoice::Timestamp);
        let o = parse_args(&args("workload")).unwrap();
        assert_eq!(o.freshness, workload::FreshnessChoice::Hop);
        assert!(parse_args(&args("workload --freshness stale")).is_err());
        assert!(parse_args(&args("workload --freshness")).is_err());
    }

    #[test]
    fn numbers_allow_underscores() {
        let o = parse_args(&args("fig2 --nodes 10_000")).unwrap();
        assert_eq!(o.scale.nodes, 10_000);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("")).is_err());
        assert!(parse_args(&args("--scale tiny")).is_err()); // no command
        assert!(parse_args(&args("fig2 --scale huge")).is_err());
        assert!(parse_args(&args("fig2 --nodes abc")).is_err());
        assert!(parse_args(&args("fig2 extra")).is_err());
        assert!(parse_args(&args("fig2 --nodes")).is_err());
        assert!(parse_args(&args("fig2 --bogus 1")).is_err());
        assert!(parse_args(&args("fig2 --nodes 1")).is_err()); // too small
    }

    #[test]
    fn unknown_command_is_rejected_late() {
        let o = parse_args(&args("nonsense --scale tiny")).unwrap();
        assert!(run_command(&o, "nonsense").is_err());
    }

    #[test]
    fn tiny_end_to_end_policies() {
        // Smoke: run the cheapest real command end-to-end.
        let mut o = parse_args(&args("apps --scale tiny")).unwrap();
        o.scale.nodes = 120;
        o.scale.cycles = 15;
        assert!(run_command(&o, "apps").is_ok());
    }
}
