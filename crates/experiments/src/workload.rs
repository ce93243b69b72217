//! **Extension X6** — membership-dynamics workloads, cross-stack: the
//! `matrix` command.
//!
//! [`matrix`] runs the failure-physics scenario matrix: policy ×
//! freshness × failure family (churn, catastrophe, thundering herd, lossy
//! partition), one row per cell, each cell a declarative [`Workload`]
//! schedule (see the `pss_sim::workload` grammar) on **every** simulation
//! stack ([`Stack::ALL`]: the sharded cycle engine, the paper's model, and
//! the sharded event engine, with jitter, latency and loss) through the
//! same compiled per-period operations. It gates on every non-partition
//! cell staying healthy and on Newscast timestamp healing the lossy long
//! partition that hop-count leaves split.
//!
//! `matrix --schedule S` runs one schedule instead ([`run`]), newscast
//! only, and tabulates its recovery trajectories side by side: live
//! population, then per stack the full-view fraction, in-degree mean,
//! dead-link fraction and largest live component. It covers one or both
//! **freshness modes** (`--freshness`, [`FreshnessChoice`]): hop-count age
//! (the repo's historic default) and the paper's Newscast timestamp age.
//! Under lossy partitions the two modes diverge — hop-count inflates
//! trickle-delivered cross-partition descriptors one hop per transfer
//! until view selection evicts them, timestamp age is owner-clock and
//! survives relaying — so `--freshness both` on a partition schedule gates
//! on the *ordering* (timestamp end-component ≥ hop-count's) instead of
//! demanding that the hop-count overlay heal.
//!
//! This is the CLI face of the conformance suite: the same schedules that
//! `tests/workload_conformance.rs` and the `pss-net` loopback harness pin
//! are explorable at any scale with `--schedule`.

use pss_core::{Freshness, PolicyTriple, ProtocolConfig};
use pss_sim::audit::HonestPolicy;
use pss_sim::workload::{run_workload, CompiledWorkload, PeriodRecord, PhaseSpec, Workload};

use crate::report::{fmt_f64, fmt_percent, Cell, Cmp, Report, Section, Table};
use crate::stacks::{on_every_stack, stack_table, Health, Stack, Start};
use crate::{Options, Scale};

/// Which freshness modes a `matrix --schedule` run covers (`--freshness`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreshnessChoice {
    /// Hop-count transfer age only (the historic default).
    #[default]
    Hop,
    /// Timestamp (owner-clock) age only.
    Timestamp,
    /// Both modes, back to back, on identical compiled schedules.
    Both,
}

impl FreshnessChoice {
    /// Parses the `--freshness` flag value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hop" | "hopcount" => Ok(FreshnessChoice::Hop),
            "timestamp" | "ts" => Ok(FreshnessChoice::Timestamp),
            "both" => Ok(FreshnessChoice::Both),
            other => Err(format!(
                "unknown freshness `{other}` (expected hop, timestamp or both)"
            )),
        }
    }

    /// The concrete modes to run, in run order.
    pub fn modes(self) -> &'static [Freshness] {
        match self {
            FreshnessChoice::Hop => &[Freshness::HopCount],
            FreshnessChoice::Timestamp => &[Freshness::Timestamp],
            FreshnessChoice::Both => &[Freshness::HopCount, Freshness::Timestamp],
        }
    }
}

/// Short table/CSV label for a freshness mode.
fn mode_slug(freshness: Freshness) -> &'static str {
    match freshness {
        Freshness::HopCount => "hop",
        Freshness::Timestamp => "timestamp",
    }
}

/// The per-period trajectories of one schedule under one freshness mode,
/// one per stack.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The freshness mode this result ran under.
    pub freshness: Freshness,
    /// Each stack's per-period records, in [`Stack::ALL`] order.
    pub records: Vec<(Stack, Vec<PeriodRecord>)>,
    /// Population the schedule was compiled for.
    pub nodes: usize,
}

impl WorkloadResult {
    /// Side-by-side per-period table: period and live population, then
    /// four columns per stack.
    fn table(&self) -> Table {
        let mut table = stack_table(&["period", "live"], &["full", "in-deg", "dead", "comp"]);
        let (_, first) = &self.records[0];
        for (i, r) in first.iter().enumerate() {
            let mut row = vec![
                format!("{}{}", r.period, if r.partitioned { "*" } else { "" }),
                r.live.to_string(),
            ];
            for (_, records) in &self.records {
                let r = &records[i];
                row.extend([
                    fmt_percent(r.full_fraction()),
                    fmt_f64(r.in_degree_mean, 2),
                    fmt_percent(r.dead_link_fraction()),
                    fmt_percent(r.component_fraction()),
                ]);
            }
            table.row(row);
        }
        table
    }

    /// The worst end-of-run overlay across the stacks.
    pub fn end(&self) -> Health {
        Health::worst(self.records.iter().filter_map(|(_, r)| r.last()))
    }

    /// The worst end's [`Health::healthy`] cells, keyed by the mode
    /// (`hop: component`, `timestamp: dead links`).
    pub fn healthy(&self) -> [Cell; 2] {
        self.end().healthy(mode_slug(self.freshness))
    }
}

/// All freshness modes of one schedule, plus the gate's inputs.
#[derive(Debug)]
pub struct WorkloadRun {
    /// One result per requested mode, in [`FreshnessChoice::modes`] order.
    pub results: Vec<WorkloadResult>,
    /// True when the schedule contains a partition phase — the regime
    /// where the freshness modes are *expected* to diverge.
    pub partitioned: bool,
    /// The schedule string as configured.
    pub schedule: String,
    /// Shard count of every stack.
    pub shards: usize,
}

impl Report for WorkloadRun {
    /// One section per mode: `workload` for hop-count (the historic name),
    /// `workload_timestamp` for timestamp.
    fn sections(&self) -> Vec<Section> {
        let name = |r: &WorkloadResult| match r.freshness {
            Freshness::HopCount => "workload",
            Freshness::Timestamp => "workload_timestamp",
        };
        let section = |r| Section::new(name(r), r.table(), None);
        self.results.iter().map(section).collect()
    }

    /// The gate across modes.
    ///
    /// A single-mode run keeps the full health gate
    /// ([`WorkloadResult::healthy`]: `{mode}: component` ≥ 0.95 and
    /// `{mode}: dead links` ≤ 0.10). A `--freshness both` run gates each
    /// mode on `{mode}: component` only — schedules that end on an
    /// instantaneous kill legitimately leave fresh dead entries behind —
    /// except on partition schedules: the hop-count side has no cell
    /// (leaving the overlay split is its documented failure mode, not a
    /// harness bug), the timestamp side must *fully* heal, and per stack
    /// `{stack}: timestamp component vs hop-count` asserts the freshness
    /// *ordering*: timestamp's end component ≥ hop-count's − 1e-9.
    fn cells(&self) -> Vec<Cell> {
        let both = self.results.len() == 2;
        let mut cells = Vec::new();
        for r in &self.results {
            if !both {
                cells.extend(r.healthy());
            } else if !self.partitioned {
                cells.push(r.end().connected(mode_slug(r.freshness)));
            } else if r.freshness == Freshness::Timestamp {
                cells.extend(r.healthy());
            }
        }
        if self.partitioned && both {
            let (hop, ts) = (&self.results[0], &self.results[1]);
            for ((stack, h), (_, t)) in hop.records.iter().zip(&ts.records) {
                if let (Some(h), Some(t)) = (h.last(), t.last()) {
                    let key = format!("{}: timestamp component vs hop-count", stack.label());
                    let (t, h) = (t.component_fraction(), h.component_fraction());
                    cells.push(Cell::new(key, t, Cmp::AtLeast, h - 1e-9));
                }
            }
        }
        cells
    }

    fn summary(&self) -> Option<String> {
        Some(format!(
            "{} nodes, schedule `{}`, {} shards (periods marked * ran under a partition)",
            self.results[0].nodes, self.schedule, self.shards
        ))
    }
}

/// Runs `schedule` (`matrix --schedule`) on every stack of `--shards`
/// shards (default 2) under the `--freshness` mode(s). `scale.cycles` is
/// ignored: the schedule fixes the period count.
///
/// # Errors
///
/// Returns the schedule-parse error text verbatim.
pub fn run(o: &Options, schedule: &str) -> Result<WorkloadRun, String> {
    let workload = Workload::parse(schedule, o.scale.seed).map_err(|e| e.to_string())?;
    let partitioned = workload
        .phases()
        .iter()
        .any(|p| matches!(p, PhaseSpec::Partition { .. }));
    let compiled = workload.compile(o.scale.nodes);
    let shards = o.shards_or(2);
    let at = (&o.scale, shards, o.workers);
    let newscast = PolicyTriple::newscast();
    let mut results = Vec::new();
    for &freshness in o.freshness.modes() {
        results.push(WorkloadResult {
            freshness,
            records: stack_records(at, newscast, freshness, &compiled)?,
            nodes: o.scale.nodes,
        });
    }
    Ok(WorkloadRun {
        results,
        partitioned,
        schedule: schedule.to_owned(),
        shards,
    })
}

/// Runs `compiled` under `policy` with `freshness` on every stack at
/// `(scale, shards, workers)`: each stack's per-period records.
fn stack_records(
    (scale, shards, workers): (&Scale, usize, Option<usize>),
    policy: PolicyTriple,
    freshness: Freshness,
    compiled: &CompiledWorkload,
) -> Result<Vec<(Stack, Vec<PeriodRecord>)>, String> {
    let c = scale.view_size;
    let protocol = ProtocolConfig::new(policy, c)
        .map_err(|e| e.to_string())?
        .with_freshness(freshness);
    on_every_stack(
        HonestPolicy::Sampling(protocol),
        None,
        Start::Tree,
        scale,
        shards,
        workers,
        |stack, target| (stack, run_workload(target, compiled, c)),
    )
}

/// One (failure family × policy × freshness) cell of the matrix.
#[derive(Debug)]
pub struct MatrixCell {
    /// Failure-family label (`churn`, `catastrophe`, `herd`, `partition`).
    pub family: &'static str,
    /// The gossip policy under test.
    pub policy: PolicyTriple,
    /// The freshness mode under test.
    pub freshness: Freshness,
    /// Each stack's end-of-run record, in [`Stack::ALL`] order.
    pub ends: Vec<(Stack, PeriodRecord)>,
}

impl MatrixCell {
    /// The worst end-of-run overlay across the stacks.
    pub fn end(&self) -> Health {
        Health::worst(self.ends.iter().map(|(_, r)| r))
    }
}

/// The full scenario matrix: one cell per (family, policy, freshness).
#[derive(Debug)]
pub struct MatrixResult {
    /// All cells, grouped by family then policy then freshness.
    pub cells: Vec<MatrixCell>,
}

impl Report for MatrixResult {
    /// One row per cell: end-of-run state on every stack.
    fn sections(&self) -> Vec<Section> {
        let cell_columns = ["family", "policy", "freshness", "live"];
        let mut table = stack_table(&cell_columns, &["comp", "dead"]);
        for cell in &self.cells {
            let mut row = vec![
                cell.family.to_owned(),
                cell.policy.to_string(),
                mode_slug(cell.freshness).to_owned(),
                cell.ends.first().map_or(0, |(_, r)| r.live).to_string(),
            ];
            for (_, r) in &cell.ends {
                row.extend([
                    fmt_percent(r.component_fraction()),
                    fmt_percent(r.dead_link_fraction()),
                ]);
            }
            table.row(row);
        }
        vec![Section::new("matrix", table, None)]
    }

    /// The matrix gate, keyed `{family} × {policy} × {mode}`.
    ///
    /// Every non-partition cell must keep one connected component
    /// (`component` ≥ 0.95) in both modes — churn, catastrophe and
    /// thundering-herd recovery must not depend on the freshness
    /// dimension. The dead-link bound (`dead links` ≤ 0.10) applies only to
    /// Newscast cells: head view selection is the paper's self-healing
    /// mechanism, and the `(rand,rand,pushpull)` control column retains
    /// stale entries by design. The partition family is the
    /// demonstration: Newscast under timestamp freshness must re-merge
    /// (`component` ≥ 0.98, `dead links` ≤ 0.06) while hop-count stays
    /// split below it (`component` < timestamp's − 1e-9) — the marooning
    /// defect this axis fixes. The control column heals in both modes
    /// there (random view selection never age-evicts the surviving
    /// cross-group entries), so it falls under the component gate like
    /// any other cell.
    fn cells(&self) -> Vec<Cell> {
        let newscast = PolicyTriple::newscast();
        let mut cells = Vec::new();
        for cell in &self.cells {
            let mode = mode_slug(cell.freshness);
            let key = format!("{} × {} × {mode}", cell.family, cell.policy);
            let end = cell.end();
            if cell.family != "partition" || cell.policy != newscast {
                if cell.policy == newscast {
                    cells.extend(end.healthy(&key));
                } else {
                    cells.push(end.connected(&key));
                }
            } else if cell.freshness == Freshness::Timestamp {
                let component = format!("{key}: component");
                cells.push(Cell::new(component, end.component, Cmp::AtLeast, 0.98));
                let dead = format!("{key}: dead links");
                cells.push(Cell::new(dead, end.dead, Cmp::AtMost, 0.06));
            } else {
                // Against its timestamp twin; a missing twin reads NaN and fails.
                let twin = ("partition", cell.policy, Freshness::Timestamp);
                let ts = (self.cells.iter())
                    .find(|c| (c.family, c.policy, c.freshness) == twin)
                    .map_or(f64::NAN, |c| c.end().component);
                let component = format!("{key}: component");
                cells.push(Cell::new(component, end.component, Cmp::Below, ts - 1e-9));
            }
        }
        cells
    }
}

/// Runs the scenario matrix (`matrix` without `--schedule`): failure
/// family × policy × freshness, each cell a full cross-stack workload run.
///
/// The churn, catastrophe and herd families run at the configured scale,
/// on every stack of `--shards` shards (default 2).
/// The partition family replays the conformance suite's pinned regime
/// **verbatim** — 200 nodes, view size 15, engine seed 7, workload seed
/// 9, 2 shards — independent of the scale knobs: healing a loss-0.65
/// partition is percolation-marginal (20/40 timestamp heals vs 4/40
/// hop-count across a 20-seed sweep), so only the pinned point is a
/// deterministic differential and a gate anywhere else would flip with
/// (N, c, seed). All cells are bit-deterministic at any worker count, so
/// the gate is reproducible.
///
/// # Errors
///
/// Propagates schedule-parse or engine-construction errors.
pub fn matrix(o: &Options) -> Result<MatrixResult, String> {
    let herd = (o.scale.nodes / 2).max(1);
    let herd_schedule = format!("quiet:6,flash:{herd}[herd],quiet:12");
    // The partition family's pinned demonstration regime (see the
    // function docs): its own population, view size, engine seed and
    // shard count, and workload seed 9.
    let pinned_scale = Scale {
        nodes: 200,
        view_size: 15,
        seed: 7,
        ..o.scale
    };
    let pinned = (&pinned_scale, 2, o.workers);
    // (family, schedule, workload seed, where it runs: scale, shards,
    // workers)
    let seed = o.scale.seed;
    let here = (&o.scale, o.shards_or(2), o.workers);
    let families = [
        ("churn", "quiet:6,(churn:0.02x5)x3", seed, here),
        // Churned recovery after the kill: the paper's self-healing result
        // needs membership turnover to flush the dead half from views.
        ("catastrophe", "quiet:6,kill:0.5,churn:0.01x12", seed, here),
        ("herd", &herd_schedule, seed, here),
        ("partition", "quiet:6,part:2x20@0.65,quiet:15", 9, pinned),
    ];
    let policies = [
        PolicyTriple::newscast(),
        "(rand,rand,pushpull)"
            .parse::<PolicyTriple>()
            .map_err(|e| e.to_string())?,
    ];

    let mut cells = Vec::new();
    for (family, schedule, wl_seed, at @ (scale, _, _)) in families {
        let workload = Workload::parse(schedule, wl_seed).map_err(|e| e.to_string())?;
        let compiled = workload.compile(scale.nodes);
        for policy in policies {
            for freshness in [Freshness::HopCount, Freshness::Timestamp] {
                let records = stack_records(at, policy, freshness, &compiled)?;
                cells.push(MatrixCell {
                    family,
                    policy,
                    freshness,
                    ends: (records.into_iter())
                        .map(|(stack, mut r)| Some((stack, r.pop()?)))
                        .collect::<Option<_>>()
                        .ok_or("empty schedule")?,
                });
            }
        }
    }
    Ok(MatrixResult { cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_gate_holds;
    use crate::stacks::{assert_same_membership, membership};

    #[test]
    fn tiny_workload_runs_both_engines() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.view_size = 12;
        let run =
            run(&Options::at(scale), "quiet:6,kill:0.5,churn:0.02x10").expect("valid schedule");
        assert!(!run.partitioned);
        assert_eq!(run.results.len(), 1);
        let result = &run.results[0];
        assert_eq!(result.freshness, Freshness::HopCount);
        assert!(result.records.iter().all(|(_, r)| r.len() == 16));
        assert_same_membership(
            (result.records.iter())
                .map(|(s, r)| (*s, r.iter().map(membership).collect::<Vec<_>>())),
        );
        assert!(result.healthy().iter().all(|c| c.holds), "{result:?}");
        assert_eq!(result.table().len(), 16);
        assert_gate_holds(&run);
    }

    #[test]
    fn both_modes_run_and_gate_on_ordering() {
        let mut scale = Scale::tiny();
        scale.nodes = 150;
        scale.view_size = 12;
        let o = Options {
            freshness: FreshnessChoice::Both,
            ..Options::at(scale)
        };
        let run = run(&o, "quiet:6,(churn:0.02x3)x2").expect("valid schedule");
        assert_eq!(run.results.len(), 2);
        assert_eq!(run.results[0].freshness, Freshness::HopCount);
        assert_eq!(run.results[1].freshness, Freshness::Timestamp);
        let names: Vec<&str> = run.sections().iter().map(|s| s.name).collect();
        assert_eq!(names, ["workload", "workload_timestamp"]);
        assert_gate_holds(&run);
    }

    #[test]
    fn tiny_matrix_keeps_the_membership_contract() {
        let mut scale = Scale::tiny();
        scale.nodes = 120;
        scale.view_size = 12;
        let result = matrix(&Options::at(scale)).expect("valid matrix");
        assert_eq!(result.cells.len(), 16);
        for cell in &result.cells {
            assert_same_membership(cell.ends.iter().map(|(s, r)| (*s, membership(r))));
        }
        assert_gate_holds(&result);
    }

    #[test]
    fn freshness_flag_parses() {
        assert_eq!(FreshnessChoice::parse("hop"), Ok(FreshnessChoice::Hop));
        assert_eq!(FreshnessChoice::parse("ts"), Ok(FreshnessChoice::Timestamp));
        assert_eq!(FreshnessChoice::parse("both"), Ok(FreshnessChoice::Both));
        assert!(FreshnessChoice::parse("stale").is_err());
    }

    #[test]
    fn bad_schedule_is_reported() {
        let err = run(&Options::at(Scale::tiny()), "bogus:1").unwrap_err();
        assert!(err.contains("bogus"));
    }
}
