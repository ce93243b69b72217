//! `experiments` — regenerate every table and figure of the paper.
//!
//! ```text
//! experiments <command> [options]
//! ```
//!
//! `experiments --help` lists the commands, one per row of the `COMMANDS`
//! table below, with the options each reads beyond the scale options and
//! `--out`. A command rejects every other option; `all` runs every row in
//! order and accepts them all. The experiments read the parsed options as
//! one [`Options`] value; commands that run one shard count take the
//! first entry of `--shards`, and `net` runs `--workers` runtimes (one UDP
//! socket each, all stepped from one thread).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pss_experiments::report::{Cell, Report, Section};
use pss_experiments::{
    adversary, asynchrony, growing, metrics, net, policies, protocols, random, workload, Options,
    Scale,
};
use pss_telemetry::EventKind;
use workload::FreshnessChoice;

/// One command of the CLI.
#[derive(Debug)]
struct Command {
    name: &'static str,
    help: &'static str,
    /// Options the command reads beyond the first six of [`OPTIONS`].
    options: &'static [&'static str],
    /// Population and cycle caps applied before `run`: many-run commands
    /// keep their default cost bounded.
    caps: (usize, u64),
    /// Runs the experiment on the (capped) options.
    run: fn(&Options) -> Result<Box<dyn Report>, String>,
}

const UNCAPPED: (usize, u64) = (usize::MAX, u64::MAX);
const SWEEP: &[&str] = &["--shards", "--workers"];
const SCHEDULED: &[&str] = &["--shards", "--workers", "--schedule"];

// One row per command, in `all` order; laid out by hand as a table.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command {
        name: "growing", help: "Table 1 and Fig 2 from growing-overlay runs per protocol",
        options: &["--runs"], caps: UNCAPPED,
        run: |o| Ok(Box::new(growing::run(o))),
    },
    Command {
        name: "random", help: "Fig 3-7 and Table 2 from one random-start run per protocol, with H&S corners",
        options: &["--runs"], caps: UNCAPPED,
        run: |o| Ok(Box::new(random::run(o))),
    },
    Command {
        name: "policies", help: "sweep of all 27 policy combinations (Section 4.3)",
        options: &[], caps: (1000, 100), // 27 simulations
        run: |o| Ok(Box::new(policies::run(o))),
    },
    Command {
        name: "async", help: "cycle vs event engine per shard count (extension)",
        options: SWEEP, caps: (usize::MAX, 100),
        run: |o| Ok(Box::new(asynchrony::run(o))),
    },
    Command {
        name: "net", help: "live loopback UDP cluster through the wire codec (extension)",
        options: &["--workers", "--schedule"], caps: (2000, 30), // wall-clock bound
        run: |o| Ok(Box::new(net::run(o)?)),
    },
    Command {
        name: "matrix", help: "failure-physics scenario matrix, or one --schedule (extension)",
        options: &["--shards", "--workers", "--schedule", "--freshness"],
        caps: (2000, u64::MAX), // sixteen cells, each on every stack
        run: |o| Ok(match &o.schedule {
            Some(schedule) => Box::new(workload::run(o, schedule)?),
            None => Box::new(workload::matrix(o)?),
        }),
    },
    Command {
        name: "adversary", help: "Byzantine attack sweep across honest policies (extension)",
        options: SCHEDULED, caps: (10_000, u64::MAX), // 4 policies × 2 engines, audited per period
        run: |o| Ok(Box::new(adversary::run(o)?)),
    },
    Command {
        name: "protocols", help: "broadcast + aggregation under membership schedules (extension)",
        options: SCHEDULED, caps: (10_000, u64::MAX), // sixteen runs × two protocols
        run: |o| Ok(Box::new(protocols::run(o)?)),
    },
    // Last, so `all` runs it last: it resets the telemetry registry.
    Command {
        name: "metrics", help: "telemetry registry across every stack (extension)",
        options: SWEEP, caps: (600, u64::MAX), // measures the plumbing, not the protocol
        run: |o| Ok(Box::new(metrics::run(o)?)),
    },
];

/// The parsed command line: the commands to run, the options they read
/// and where `--out` writes.
#[derive(Debug, Clone)]
struct Cli {
    /// One row of [`COMMANDS`], or all of them for `all`.
    commands: &'static [Command],
    options: Options,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut command = None;
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err("help".into());
        } else if let Some(&(flag, ..)) = OPTIONS.iter().find(|(flag, ..)| flag == arg) {
            let value = it.next().ok_or(format!("missing value for {flag}"))?;
            given.push((flag, value));
        } else if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        } else if command.replace(arg.as_str()).is_some() {
            return Err(format!("unexpected extra argument `{arg}`"));
        }
    }

    let command = command.ok_or("no command given (try --help)")?;
    let commands = if command == "all" {
        COMMANDS
    } else {
        let row = COMMANDS
            .iter()
            .find(|c| c.name == command)
            .ok_or(format!("unknown command `{command}` (try --help)"))?;
        let reads =
            |flag: &str| OPTIONS[..6].iter().any(|o| o.0 == flag) || row.options.contains(&flag);
        if let Some((flag, _)) = given.iter().find(|(flag, _)| !reads(flag)) {
            return Err(format!("`{command}` does not read {flag} (try --help)"));
        }
        std::slice::from_ref(row)
    };

    // The last occurrence of a flag wins.
    let value = |flag: &str| given.iter().rev().find(|g| g.0 == flag).map(|g| g.1);
    let mut scale = match value("--scale").unwrap_or("paper") {
        "paper" => Scale::paper(),
        "small" => Scale::small(),
        "tiny" => Scale::tiny(),
        "million" => Scale::million(),
        other => return Err(format!("unknown scale preset `{other}`")),
    };
    scale.nodes = value("--nodes").map_or(Ok(scale.nodes), parse_num)?;
    scale.cycles = value("--cycles").map_or(Ok(scale.cycles), parse_num)?;
    scale.view_size = value("--view-size").map_or(Ok(scale.view_size), parse_num)?;
    scale.seed = value("--seed").map_or(Ok(scale.seed), parse_num)?;
    if scale.nodes < 2 || scale.view_size == 0 || scale.cycles == 0 {
        return Err("need at least 2 nodes, and a positive view size and cycles".into());
    }
    let shards: Option<Vec<usize>> = value("--shards")
        .map(|l| l.split(',').map(parse_num).collect())
        .transpose()?;
    let workers = value("--workers").map(parse_num).transpose()?;
    if shards.as_ref().is_some_and(|s| s.contains(&0)) || workers == Some(0) {
        return Err("--shards and --workers need positive counts".into());
    }
    Ok(Cli {
        commands,
        options: Options {
            scale,
            runs: value("--runs").map(parse_num).transpose()?,
            shards,
            workers,
            schedule: value("--schedule").map(String::from),
            freshness: value("--freshness")
                .map_or(Ok(Default::default()), FreshnessChoice::parse)?,
        },
        out: value("--out").map(PathBuf::from),
    })
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("invalid number `{s}`"))
}

/// Runs one command: caps its scale, prints its sections, prints its
/// summary and its gate line, records its gate in the flight recorder
/// and fails with `<command> gate failed: <cell>` on the first failing
/// cell.
fn run_command(command: &Command, cli: &Cli) -> Result<(), String> {
    let started = Instant::now();
    let (max_nodes, max_cycles) = command.caps;
    let mut options = cli.options.clone();
    let scale = &mut options.scale;
    if scale.nodes > max_nodes {
        eprintln!(
            "   note: {} caps the population at {max_nodes} nodes ({} requested)",
            command.name, scale.nodes
        );
        scale.nodes = max_nodes;
    }
    scale.cycles = scale.cycles.min(max_cycles);

    let report = (command.run)(&options)?;
    for section in report.sections() {
        emit(cli.out.as_deref(), &section);
    }
    if let Some(summary) = report.summary() {
        for line in summary.lines() {
            eprintln!("   {line}");
        }
    }
    let cells = report.cells();
    let failing: Vec<&Cell> = cells.iter().filter(|c| !c.holds).collect();
    let gate = if failing.is_empty() { "pass" } else { "FAIL" };
    let (held, all) = (cells.len() - failing.len(), cells.len());
    if all > 0 {
        eprintln!("   gate: {gate} ({held}/{all} cells hold)");
    }
    let (pass, failed) = (u64::from(failing.is_empty()), failing.len() as u64);
    pss_telemetry::flight().record(EventKind::GateEval, command.name, pass, failed);
    if let Some(cell) = failing.first() {
        return Err(format!("{} gate failed: {cell}", command.name));
    }
    eprintln!("[{} finished in {:.1?}]", command.name, started.elapsed());
    Ok(())
}

/// Prints one section; with `--out` also writes its CSVs and files.
fn emit(out: Option<&Path>, section: &Section) {
    let name = section.name;
    println!("== {name} ==");
    print!("{}", section.summary);
    println!();
    if let Some(dir) = out {
        let path = dir.join(format!("{name}.csv"));
        wrote(&path, section.summary.write_csv(&path));
        if let Some(series) = &section.series {
            let path = dir.join(format!("{name}_series.csv"));
            wrote(&path, series.write_csv(&path));
        }
    }
    if let Some(text) = &section.text {
        print!("{text}");
    }
    if let Some(dir) = out {
        for (extension, body) in &section.files {
            let path = dir.join(format!("{name}.{extension}"));
            wrote(&path, fs::write(&path, body));
        }
    }
    telemetry_footer(name);
}

fn wrote(path: &Path, result: io::Result<()>) {
    match result {
        Ok(()) => println!("   wrote {}", path.display()),
        Err(e) => eprintln!("   failed to write {}: {e}", path.display()),
    }
}

/// One-line registry digest after every section: series count and total
/// timed observations. Silent when nothing has recorded yet.
fn telemetry_footer(name: &str) {
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

/// Every option: flag, value and help. Every command reads the first six;
/// the others only where its row lists them.
const OPTIONS: &[(&str, &str, &str)] = &[
    ("--scale", "PRESET", "paper, small, tiny or million [paper]"),
    ("--nodes", "N", "override population size"),
    ("--cycles", "N", "override cycle budget"),
    ("--view-size", "C", "override view size"),
    ("--seed", "S", "override master seed"),
    ("--out", "DIR", "also write every table as CSV under DIR"),
    ("--runs", "R", "override runs/repetitions"),
    ("--shards", "LIST", "comma-separated shard counts"),
    ("--workers", "N", "worker-pool width (net: runtime count)"),
    ("--schedule", "S", "a pss_sim::workload schedule"),
    ("--freshness", "hop|timestamp|both", "descriptor-age mode"),
];

/// The `--help` text: one line per row of [`COMMANDS`], then [`OPTIONS`].
fn help() -> String {
    let mut text = String::from("usage: experiments <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        text += &format!("  {:<10} {}", c.name, c.help);
        if !c.options.is_empty() {
            text += &format!("  [{}]", c.options.join(" "));
        }
        text.push('\n');
    }
    text += "  all        every command above, in order\n\n";
    text += "options (every command reads the first six):\n";
    for (flag, value, help) in OPTIONS {
        text += &format!("  {:<34} {help}\n", format!("{flag} {value}"));
    }
    text
}

fn main() -> ExitCode {
    pss_telemetry::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg == "help" => {
            eprintln!("{}", help());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", help());
            return ExitCode::FAILURE;
        }
    };
    match cli.commands.iter().try_for_each(|c| run_command(c, &cli)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use pss_experiments::report::Cmp;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_defaults() {
        let o = parse_args(&args("growing")).unwrap();
        assert_eq!(o.commands.len(), 1);
        assert_eq!(o.commands[0].name, "growing");
        assert_eq!(o.options.scale, Scale::paper());
        assert_eq!(o.options.runs, None);
        assert_eq!(o.out, None);
        assert_eq!(
            parse_args(&args("all")).unwrap().commands.len(),
            COMMANDS.len()
        );
    }

    #[test]
    fn parses_scale_presets_and_overrides() {
        let o = parse_args(&args(
            "growing --scale tiny --nodes 500 --cycles 70 --seed 9",
        ))
        .unwrap();
        assert_eq!(o.options.scale.nodes, 500);
        assert_eq!(o.options.scale.cycles, 70);
        assert_eq!(o.options.scale.seed, 9);
        assert_eq!(o.options.scale.view_size, Scale::tiny().view_size);
    }

    #[test]
    fn parses_runs_and_out() {
        let o = parse_args(&args("random --runs 100 --out /tmp/results")).unwrap();
        assert_eq!(o.options.runs, Some(100));
        assert_eq!(o.out, Some(PathBuf::from("/tmp/results")));
    }

    #[test]
    fn parses_shards_and_workers() {
        let o = parse_args(&args("async --scale tiny --shards 1,2,4 --workers 2")).unwrap();
        assert_eq!(o.options.shards, Some(vec![1, 2, 4]));
        assert_eq!(o.options.workers, Some(2));
        assert!(parse_args(&args("async --shards 0,2")).is_err());
        assert!(parse_args(&args("async --shards 1,x")).is_err());
        assert!(parse_args(&args("async --workers 0")).is_err());
    }

    #[test]
    fn parses_schedule() {
        let o = parse_args(&args("matrix --schedule quiet:5,kill:0.5 --shards 2")).unwrap();
        assert_eq!(o.options.schedule.as_deref(), Some("quiet:5,kill:0.5"));
        assert!(parse_args(&args("matrix --schedule")).is_err());
    }

    #[test]
    fn parses_freshness() {
        let o = parse_args(&args("matrix --freshness both")).unwrap();
        assert_eq!(o.options.freshness, FreshnessChoice::Both);
        let o = parse_args(&args("matrix --freshness timestamp")).unwrap();
        assert_eq!(o.options.freshness, FreshnessChoice::Timestamp);
        let o = parse_args(&args("matrix")).unwrap();
        assert_eq!(o.options.freshness, FreshnessChoice::Hop);
        assert!(parse_args(&args("matrix --freshness stale")).is_err());
        assert!(parse_args(&args("matrix --freshness")).is_err());
    }

    #[test]
    fn numbers_allow_underscores() {
        let o = parse_args(&args("growing --nodes 10_000")).unwrap();
        assert_eq!(o.options.scale.nodes, 10_000);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("")).is_err());
        assert!(parse_args(&args("--scale tiny")).is_err()); // no command
        assert!(parse_args(&args("growing --scale huge")).is_err());
        assert!(parse_args(&args("growing --nodes abc")).is_err());
        assert!(parse_args(&args("growing extra")).is_err());
        assert!(parse_args(&args("growing --nodes")).is_err());
        assert!(parse_args(&args("growing --bogus 1")).is_err());
        assert!(parse_args(&args("growing --nodes 1")).is_err()); // too small
        assert!(parse_args(&args("random --cycles 0")).is_err()); // no schedule
    }

    #[test]
    fn unknown_command_is_rejected_at_parse() {
        let err = parse_args(&args("nonsense --scale tiny")).unwrap_err();
        assert!(err.contains("unknown command `nonsense`"), "{err}");
    }

    #[test]
    fn folded_commands_are_unknown() {
        // `workload` is `matrix --schedule`; `apps` is `protocols`' quiet row.
        for command in ["workload", "apps"] {
            let err = parse_args(&args(&format!("{command} --scale tiny"))).unwrap_err();
            assert!(
                err.contains(&format!("unknown command `{command}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn matrix_runs_a_schedule_when_given_one() {
        let cli = parse_args(&args("matrix --scale tiny --schedule bogus:1")).unwrap();
        let err = run_command(&cli.commands[0], &cli).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn unread_options_are_rejected_naming_the_command() {
        for line in [
            "policies --runs 3",
            "random --schedule quiet:5",
            "growing --freshness both",
        ] {
            let (command, option) = line.split_once(' ').unwrap();
            let option = option.split(' ').next().unwrap();
            let err = parse_args(&args(line)).unwrap_err();
            assert!(
                err.contains(&format!("`{command}` does not read {option}")),
                "{err}"
            );
        }
        assert!(parse_args(&args("net --shards 2")).is_err());
        // `all` accepts every option.
        let everything = "all --runs 2 --shards 2 --workers 1 --schedule quiet:5 --freshness both";
        assert!(parse_args(&args(everything)).is_ok());
    }

    #[test]
    fn table_names_are_unique_and_cover_the_pinned_commands() {
        let mut names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names.last(), Some(&"metrics"));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COMMANDS.len(), "duplicate command name");
        let tiny = include_str!("../../../results/tiny.md5");
        let small = include_str!("../../../results/small.md5");
        assert_eq!((tiny.lines().count(), small.lines().count()), (6, 6));
        for line in tiny.lines().chain(small.lines()) {
            let name = line.split_whitespace().nth(1).unwrap_or_default();
            assert!(
                names.contains(&name),
                "`{name}` is pinned but not a command"
            );
        }
    }

    #[test]
    fn help_lists_every_command_and_its_options() {
        let text = help();
        for c in COMMANDS {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(c.name))
                .unwrap_or_else(|| panic!("`{}` missing from --help", c.name));
            for option in c.options {
                assert!(line.contains(option), "{line}");
            }
        }
        assert!(parse_args(&args("growing --help")).is_err_and(|e| e == "help"));
    }

    fn caps(name: &str) -> (usize, u64) {
        COMMANDS.iter().find(|c| c.name == name).unwrap().caps
    }

    #[test]
    fn net_declares_its_caps_in_its_row() {
        assert_eq!(caps("net"), (2000, 30));
    }

    #[test]
    fn metrics_declares_its_caps_in_its_row() {
        assert_eq!(caps("metrics"), (600, u64::MAX));
    }

    /// A gate of two cells, the second failing.
    struct HalfGate;

    impl Report for HalfGate {
        fn sections(&self) -> Vec<Section> {
            Vec::new()
        }

        fn cells(&self) -> Vec<Cell> {
            let cell = |key, value| Cell::new(key, value, Cmp::AtLeast, 1.0);
            vec![cell("held", 1.0), cell("missed", 0.5)]
        }
    }

    #[test]
    fn the_first_failing_cell_is_the_error_line() {
        let command = Command {
            name: "half",
            help: "",
            options: &[],
            caps: UNCAPPED,
            run: |_| Ok(Box::new(HalfGate)),
        };
        let cli = parse_args(&args("policies --scale tiny")).unwrap();
        let err = run_command(&command, &cli).unwrap_err();
        assert_eq!(err, "half gate failed: missed = 0.500, needs ≥ 1");
    }

    #[test]
    fn tiny_end_to_end_policies() {
        // Smoke: run a cheap real command end-to-end.
        let mut o = parse_args(&args("policies --scale tiny")).unwrap();
        o.options.scale.nodes = 120;
        o.options.scale.cycles = 15;
        assert!(run_command(&o.commands[0], &o).is_ok());
    }
}
