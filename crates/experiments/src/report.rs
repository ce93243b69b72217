//! Plain-text tables and CSV emission for experiment results, the
//! [`Report`] trait every result implements for the `experiments` CLI,
//! and the [`Cell`] every gate is made of.
//!
//! A gate is data: [`Report::cells`], one [`Cell`] per gated predicate
//! per row. The CLI prints `gate: pass|FAIL (k/n cells hold)` to stderr
//! and fails with `<command> gate failed: <first failing cell>`. The six
//! gated commands (`workload`, `matrix`, `protocols`, `adversary`, `net`,
//! `metrics`) list their cells in their `cells()` docs.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// What an experiment result shows the `experiments` CLI.
pub trait Report {
    /// The stdout sections, in print order.
    fn sections(&self) -> Vec<Section>;

    /// The gate: one [`Cell`] per gated predicate per row, in the order
    /// the rows print. Empty for an ungated command.
    fn cells(&self) -> Vec<Cell> {
        Vec::new()
    }

    /// The gate's outcome.
    ///
    /// # Errors
    ///
    /// The first cell of [`Report::cells`] that fails.
    fn verdict(&self) -> Result<(), Cell> {
        let failing = self.cells().into_iter().find(|c| !c.holds);
        failing.map_or(Ok(()), Err)
    }

    /// Printed to stderr after the sections.
    fn summary(&self) -> Option<String> {
        None
    }
}

/// How a [`Cell`] compares its value with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// value ≥ bound.
    AtLeast,
    /// value ≤ bound.
    AtMost,
    /// value < bound.
    Below,
}

/// One gated predicate of one row: a measured value against a bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// What was measured, e.g. `churn × cycle: component`.
    pub key: String,
    /// The measured value.
    pub value: f64,
    /// How the value is compared with the bound.
    pub cmp: Cmp,
    /// The bound.
    pub bound: f64,
    /// Whether `value cmp bound`.
    pub holds: bool,
}

impl Cell {
    /// A cell that holds when `value cmp bound`.
    pub fn new(key: impl Into<String>, value: f64, cmp: Cmp, bound: f64) -> Cell {
        let holds = match cmp {
            Cmp::AtLeast => value >= bound,
            Cmp::AtMost => value <= bound,
            Cmp::Below => value < bound,
        };
        let key = key.into();
        Cell {
            key,
            value,
            cmp,
            bound,
            holds,
        }
    }
}

/// `key = value, needs ≥ bound`; whole numbers print without decimals.
impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let num = |x: f64| format!("{x:.*}", if x.fract() == 0.0 { 0 } else { 3 });
        let cmp = ["≥", "≤", "<"][self.cmp as usize];
        let (key, value, bound) = (&self.key, num(self.value), num(self.bound));
        write!(f, "{key} = {value}, needs {cmp} {bound}")
    }
}

/// `== name ==` and a table on stdout. With `--out DIR` the CLI also writes
/// `DIR/name.csv`, `DIR/name_series.csv` and `DIR/name.<ext>` per file.
#[derive(Debug, Clone)]
pub struct Section {
    /// Header label and file stem.
    pub name: &'static str,
    /// The table printed to stdout.
    pub summary: Table,
    /// A long-format series, written as CSV only.
    pub series: Option<Table>,
    /// Raw text printed after the summary.
    pub text: Option<String>,
    /// `(extension, contents)` of further files.
    pub files: Vec<(&'static str, String)>,
}

impl Section {
    /// A summary table and an optional series.
    pub fn new(name: &'static str, summary: Table, series: Option<Table>) -> Self {
        Section {
            name,
            summary,
            series,
            text: None,
            files: Vec::new(),
        }
    }
}

/// A simple fixed-width text table, printed like the paper's tables.
///
/// # Examples
///
/// ```
/// use pss_experiments::report::Table;
///
/// let mut t = Table::new(vec!["protocol", "partitioned"]);
/// t.row(vec!["(rand,head,push)".into(), "100%".into()]);
/// let text = t.to_string();
/// assert!(text.contains("protocol"));
/// assert!(text.contains("(rand,head,push)"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<impl Into<String>>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (headers + rows, comma-separated, quoted as needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimal places, rendering NaN as `-`.
pub fn fmt_f64(x: f64, digits: usize) -> String {
    if x.is_nan() {
        "-".to_owned()
    } else {
        format!("{x:.digits$}")
    }
}

/// Formats a fraction as a percentage with no decimals (e.g. `0.33` → `33%`).
pub fn fmt_percent(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
/// Asserts that `report` is gated and that every cell of its gate holds.
pub(crate) fn assert_gate_holds(report: &dyn Report) {
    let cells = report.cells();
    assert!(!cells.is_empty(), "no gate cells");
    let failing: Vec<String> = (cells.iter().filter(|c| !c.holds))
        .map(ToString::to_string)
        .collect();
    assert!(failing.is_empty(), "failing cells: {failing:#?}");
    assert_eq!(report.verdict(), Ok(()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a", "long header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into()]); // padded
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a   "));
        assert!(lines[1].starts_with("---"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["p", "v"]);
        t.row(vec!["(rand,head,push)".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"(rand,head,push)\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn csv_written_to_disk() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["1".into()]);
        let dir = std::env::temp_dir().join("pss_report_test");
        let path = dir.join("nested").join("t.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_prints_key_value_and_bound() {
        let cell = Cell::new("churn × cycle: component", 0.93, Cmp::AtLeast, 0.95);
        assert!(!cell.holds);
        let text = "churn × cycle: component = 0.930, needs ≥ 0.950";
        assert_eq!(cell.to_string(), text);
        let cell = Cell::new("decode failures", 0.0, Cmp::AtMost, 0.0);
        assert!(cell.holds);
        assert_eq!(cell.to_string(), "decode failures = 0, needs ≤ 0");
        let cell = Cell::new("hop", 0.5, Cmp::Below, 0.5);
        assert!(!cell.holds);
        assert_eq!(cell.to_string(), "hop = 0.500, needs < 0.500");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
        assert_eq!(fmt_percent(0.335), "34%");
        assert_eq!(fmt_percent(1.0), "100%");
    }
}

/// Every gate of the six gated commands, on hand-built results set
/// exactly at each bound (the gate holds) and just past it (it fails).
#[cfg(test)]
mod gate_bounds {
    use std::time::Duration;

    use pss_core::{Freshness, PolicyTriple, ProtocolConfig};
    use pss_net::cluster::ClusterReport;
    use pss_net::RuntimeStats;
    use pss_protocols::{run_under_workload, AppConfig, AppReport, Sampler};
    use pss_sim::audit::{AttackRecord, HonestPolicy};
    use pss_sim::workload::{PeriodRecord, Workload};
    use pss_telemetry::MetricRow;

    use super::Report;
    use crate::adversary::{AdversaryResult, PolicyOutcome};
    use crate::metrics::{MetricsResult, REQUIRED_FAMILIES};
    use crate::net::NetResult;
    use crate::protocols::{ProtocolRun, ProtocolsResult};
    use crate::stacks::{on_every_stack, Stack};
    use crate::workload::{MatrixCell, MatrixResult, WorkloadResult, WorkloadRun};
    use crate::Scale;

    const HOP: Freshness = Freshness::HopCount;
    const TS: Freshness = Freshness::Timestamp;
    /// `(part, whole)` pairs: a fraction as the integer counts behind it.
    const WHOLE: (usize, usize) = (100, 100);
    const CLEAN: (usize, usize) = (0, 100);
    const AT_95: (usize, usize) = (95, 100);
    const PAST_95: (usize, usize) = (9_499, 10_000);
    const AT_10: (usize, usize) = (10, 100);
    const PAST_10: (usize, usize) = (1_001, 10_000);

    fn holds(report: &dyn Report) {
        if let Err(e) = report.verdict() {
            panic!("the gate fails: {e}");
        }
    }

    /// The gate fails, and its first failing cell's key names `what`.
    fn fails_on(report: &dyn Report, what: &str) {
        let err = report.verdict().expect_err("the gate fails");
        assert!(err.key.contains(what), "`{err}` does not name `{what}`");
    }

    /// An end-of-run record: largest component `comp.0 / comp.1` of the
    /// live population, dead links `dead.0 / dead.1` of all view entries,
    /// every view full.
    fn record(comp: (usize, usize), dead: (usize, usize)) -> PeriodRecord {
        PeriodRecord {
            period: 1,
            live: comp.1,
            killed: 0,
            joined: 0,
            full_views: comp.1,
            in_degree_mean: 0.0,
            in_degree_sd: 0.0,
            dead_links: dead.0,
            total_links: dead.1,
            largest_component: comp.0,
            partitioned: false,
        }
    }

    fn on_every(end: PeriodRecord) -> Vec<(Stack, PeriodRecord)> {
        Stack::ALL.map(|s| (s, end)).to_vec()
    }

    fn workload(ends: &[(Freshness, PeriodRecord)], partitioned: bool) -> WorkloadRun {
        let results = (ends.iter())
            .map(|&(freshness, end)| WorkloadResult {
                freshness,
                records: (on_every(end).into_iter())
                    .map(|(s, r)| (s, vec![r]))
                    .collect(),
                nodes: 100,
            })
            .collect();
        WorkloadRun {
            results,
            partitioned,
            schedule: String::new(),
            shards: 2,
        }
    }

    #[test]
    fn workload_single_mode_is_healthy_at_95_and_10() {
        holds(&workload(&[(HOP, record(AT_95, AT_10))], false));
        fails_on(
            &workload(&[(HOP, record(PAST_95, CLEAN))], false),
            "hop: component",
        );
        fails_on(
            &workload(&[(TS, record(WHOLE, PAST_10))], false),
            "timestamp: dead links",
        );
    }

    #[test]
    fn workload_both_modes_gate_connectivity_only() {
        let split = record(PAST_95, CLEAN);
        holds(&workload(
            &[(HOP, record(AT_95, (1, 2))), (TS, record(AT_95, (1, 2)))],
            false,
        ));
        fails_on(
            &workload(&[(HOP, split), (TS, record(WHOLE, CLEAN))], false),
            "hop: component",
        );
    }

    #[test]
    fn workload_partition_exempts_hop_and_orders_timestamp_within_1e_9() {
        let split = record((1, 2), (1, 2));
        holds(&workload(&[(HOP, split), (TS, record(AT_95, AT_10))], true));
        fails_on(
            &workload(&[(HOP, split), (TS, record(AT_95, PAST_10))], true),
            "timestamp: dead links",
        );
        // Timestamp 1e-10 below hop-count holds inside the slack; 2e-9
        // below fails.
        let hop = record((97, 100), CLEAN);
        let within = record((9_699_999_999, 10_000_000_000), CLEAN);
        let below = record((9_699_999_980, 10_000_000_000), CLEAN);
        holds(&workload(&[(HOP, hop), (TS, within)], true));
        fails_on(
            &workload(&[(HOP, hop), (TS, below)], true),
            "cycle: timestamp component vs hop-count",
        );
    }

    /// The sixteen-cell matrix, every cell ending whole and clean except
    /// partition × newscast × hop, which ends split in two, and the
    /// `edits` cells.
    fn matrix(edits: &[(&str, bool, Freshness, PeriodRecord)]) -> MatrixResult {
        let control: PolicyTriple = "(rand,rand,pushpull)".parse().unwrap();
        let mut cells = Vec::new();
        for family in ["churn", "catastrophe", "herd", "partition"] {
            for (newscast, policy) in [(true, PolicyTriple::newscast()), (false, control)] {
                for freshness in [HOP, TS] {
                    let split = family == "partition" && newscast && freshness == HOP;
                    let edit = edits
                        .iter()
                        .find(|e| (e.0, e.1, e.2) == (family, newscast, freshness));
                    let end = match edit {
                        Some(e) => e.3,
                        None if split => record((1, 2), CLEAN),
                        None => record(WHOLE, CLEAN),
                    };
                    let ends = on_every(end);
                    cells.push(MatrixCell {
                        family,
                        policy,
                        freshness,
                        ends,
                    });
                }
            }
        }
        MatrixResult { cells, nodes: 100 }
    }

    #[test]
    fn matrix_cells_hold_at_their_bounds() {
        holds(&matrix(&[]));
        // The control column: component only.
        holds(&matrix(&[("churn", false, HOP, record(AT_95, (1, 2)))]));
        let split = record(PAST_95, CLEAN);
        fails_on(
            &matrix(&[("churn", false, HOP, split)]),
            "churn × (rand,rand,pushpull) × hop: component",
        );
        // Newscast: component and dead links.
        holds(&matrix(&[("catastrophe", true, TS, record(AT_95, AT_10))]));
        let stale = record(WHOLE, PAST_10);
        fails_on(
            &matrix(&[("herd", true, TS, stale)]),
            "herd × (rand,head,pushpull) × timestamp: dead links",
        );
    }

    #[test]
    fn matrix_partition_remerges_at_98_and_6() {
        let ts = |comp, dead| [("partition", true, TS, record(comp, dead))];
        holds(&matrix(&ts((98, 100), (6, 100))));
        let key = "partition × (rand,head,pushpull) × timestamp";
        fails_on(
            &matrix(&ts((9_799, 10_000), (6, 100))),
            &format!("{key}: component"),
        );
        fails_on(
            &matrix(&ts((98, 100), (601, 10_000))),
            &format!("{key}: dead links"),
        );
    }

    #[test]
    fn matrix_partition_hop_splits_below_timestamp_within_1e_9() {
        let hop = |comp| {
            [
                ("partition", true, HOP, record(comp, CLEAN)),
                ("partition", true, TS, record((98, 100), CLEAN)),
            ]
        };
        holds(&matrix(&hop((9_799_999_980, 10_000_000_000))));
        let key = "partition × (rand,head,pushpull) × hop: component";
        fails_on(&matrix(&hop((9_799_999_999, 10_000_000_000))), key);
        fails_on(&matrix(&hop((98, 100))), key);
    }

    /// Two real application reports on a 60-node newscast overlay: one
    /// run long enough to inform everyone, one cut after its first
    /// period. A report is built only by `run_under_workload`, so the
    /// delivery bound is pinned on either side of 0.90, not at it.
    fn app_reports() -> (AppReport, AppReport) {
        let scale = Scale {
            nodes: 60,
            view_size: 8,
            ..Scale::tiny()
        };
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap();
        let report = |schedule: &str| {
            let compiled = Workload::parse(schedule, 1).unwrap().compile(60);
            let policy = HonestPolicy::Sampling(protocol.clone());
            on_every_stack(policy, None, &scale, 1, None, |_, target| {
                run_under_workload(target, &compiled, 8, &AppConfig::default()).1
            })
            .unwrap()
            .remove(0)
        };
        let (full, partial) = (report("quiet:20"), report("quiet:1"));
        assert!(full.delivery_ratio() >= 0.90, "{}", full.delivery_ratio());
        assert!(
            partial.delivery_ratio() < 0.90,
            "{}",
            partial.delivery_ratio()
        );
        (full, partial)
    }

    fn protocols(end: PeriodRecord, report: &AppReport) -> ProtocolsResult {
        let run = |stack| ProtocolRun {
            schedule: "churn".into(),
            stack,
            policy: PolicyTriple::newscast(),
            sampler: Sampler::Overlay,
            records: vec![end],
            report: report.clone(),
        };
        ProtocolsResult {
            runs: Stack::ALL.into_iter().map(run).collect(),
            nodes: 100,
        }
    }

    #[test]
    fn protocols_runs_hold_at_95_10_and_delivery() {
        let (full, partial) = app_reports();
        let key = |what| format!("churn × cycle × (rand,head,pushpull) × overlay: {what}");
        holds(&protocols(record(AT_95, AT_10), &full));
        fails_on(&protocols(record(PAST_95, CLEAN), &full), &key("component"));
        fails_on(
            &protocols(record(WHOLE, PAST_10), &full),
            &key("dead links"),
        );
        fails_on(&protocols(record(WHOLE, CLEAN), &partial), &key("delivery"));
    }

    /// Four corners on every stack: each honest component `comp`, newscast
    /// at skew `news`, the swapper at skew `swap`.
    fn adversary(comp: (usize, usize), news: f64, swap: f64) -> AdversaryResult {
        let corners = [
            ("newscast (rand,head,pushpull)", news),
            ("blind (rand,rand,pushpull)", 1.0),
            ("hs healer (H=6,S=0)", news),
            ("hs swapper (H=0,S=6)", swap),
        ];
        let mut outcomes = Vec::new();
        for (policy, skew) in corners {
            for stack in Stack::ALL {
                let final_record = AttackRecord {
                    period: 1,
                    live: comp.1,
                    honest_live: comp.1,
                    attackers_live: 0,
                    attacker_in_degree_mean: skew,
                    honest_in_degree_mean: 1.0,
                    attacker_edge_fraction: 0.0,
                    in_degree_gini: 0.0,
                    eclipsed_victims: 0,
                    largest_honest_component: comp.0,
                };
                outcomes.push(PolicyOutcome {
                    policy: policy.into(),
                    stack,
                    final_record,
                    attacker_sample_share: 0.0,
                    uniformity_p: None,
                });
            }
        }
        AdversaryResult {
            schedule: String::new(),
            shards: 2,
            nodes: 100,
            outcomes,
        }
    }

    #[test]
    fn adversary_holds_at_half_the_honest_nodes() {
        holds(&adversary((50, 100), 1.0, 1.0));
        fails_on(
            &adversary((4_999, 10_000), 1.0, 1.0),
            "newscast (rand,head,pushpull) × cycle: honest component",
        );
    }

    #[test]
    fn adversary_swapper_stays_within_max_of_newscast_and_2() {
        holds(&adversary(WHOLE, 1.0, 2.0));
        fails_on(&adversary(WHOLE, 1.0, 2.0001), "cycle: hs swapper skew");
        holds(&adversary(WHOLE, 3.0, 3.0));
        fails_on(&adversary(WHOLE, 3.0, 3.0001), "cycle: hs swapper skew");
    }

    /// A 100-node net run of view size 20 whose last period is `end`.
    fn net(scheduled: bool, end: PeriodRecord, decode_failures: u64) -> NetResult {
        NetResult {
            report: ClusterReport {
                periods: Vec::new(),
                records: vec![end],
                attack_records: Vec::new(),
                broadcast: Vec::new(),
                converged_at: None,
                stats: RuntimeStats {
                    body_decode_failures: decode_failures,
                    ..RuntimeStats::default()
                },
                elapsed: Duration::ZERO,
            },
            nodes: end.live,
            runtimes: 2,
            view_size: 20,
            scheduled,
        }
    }

    /// A converged end: `full` of the views full, in-degree mean `mean`.
    fn converged(full: (usize, usize), mean: f64) -> PeriodRecord {
        PeriodRecord {
            full_views: full.0,
            in_degree_mean: mean,
            ..record((full.1, full.1), CLEAN)
        }
    }

    #[test]
    fn net_converges_at_99_and_half_a_link_of_c() {
        const IN_DEGREE: &str = "last period: |in-degree mean − c|";
        holds(&net(false, converged((99, 100), 20.5), 0));
        holds(&net(false, converged((99, 100), 19.5), 0));
        fails_on(
            &net(false, converged((9_899, 10_000), 20.0), 0),
            "last period: full views",
        );
        fails_on(&net(false, converged((99, 100), 20.5001), 0), IN_DEGREE);
        fails_on(&net(false, converged((99, 100), 19.4999), 0), IN_DEGREE);
        fails_on(&net(false, converged(WHOLE, 20.0), 1), "decode failures");
    }

    #[test]
    fn net_recovers_at_95_95_and_10() {
        let last = |what| format!("last period: {what}");
        // 10 000 live nodes: `full` of them with full views, `comp` in
        // the largest component.
        let end = |full, comp, dead| PeriodRecord {
            full_views: full,
            ..record((comp, 10_000), dead)
        };
        holds(&net(true, end(9_500, 9_500, (1_000, 10_000)), 0));
        fails_on(
            &net(true, end(9_499, 10_000, CLEAN), 0),
            &last("full views"),
        );
        fails_on(&net(true, end(10_000, 9_499, CLEAN), 0), &last("component"));
        fails_on(
            &net(true, end(10_000, 10_000, PAST_10), 0),
            &last("dead links"),
        );
        fails_on(&net(true, end(10_000, 10_000, CLEAN), 1), "decode failures");
    }

    /// One series per required family and three of `pss_net_decode_ns`
    /// (one per frame kind), each with one observation, except the family
    /// or series named `empty` (`name` or `name{labels}`), which has none.
    fn metrics(empty: &str, flight_recorded: u64) -> MetricsResult {
        let mut rows = Vec::new();
        for &name in REQUIRED_FAMILIES {
            let series: &[&str] = match name {
                "pss_net_decode_ns" => &["kind=request", "kind=reply", "kind=app"],
                _ => &[""],
            };
            for labels in series {
                let none = empty == name || empty == format!("{name}{{{labels}}}");
                rows.push(MetricRow {
                    name: name.into(),
                    labels: labels.to_string(),
                    kind: "counter",
                    value: u64::from(!none),
                    histogram: None,
                });
            }
        }
        MetricsResult {
            rows,
            prometheus: String::new(),
            json: String::new(),
            flight_len: 0,
            flight_recorded,
        }
    }

    #[test]
    fn metrics_needs_one_observation_per_family_and_a_flight_event() {
        holds(&metrics("", 1));
        fails_on(&metrics("pss_app_round_ns", 1), "pss_app_round_ns");
        fails_on(&metrics("pss_net_decode_ns", 1), "pss_net_decode_ns");
        fails_on(&metrics("", 0), "flight recorder events");
    }

    #[test]
    fn metrics_needs_one_observation_per_decode_kind() {
        let app = "pss_net_decode_ns{kind=app}";
        fails_on(&metrics(app, 1), app);
    }
}
