//! Plain-text tables and CSV emission for experiment results, and the
//! [`Report`] trait every result implements for the `experiments` CLI.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// What an experiment result shows the `experiments` CLI.
pub trait Report {
    /// The stdout sections, in print order.
    fn sections(&self) -> Vec<Section>;

    /// The health gate; the error is what the CLI prints before it exits 1.
    ///
    /// # Errors
    ///
    /// Describes the first violated condition.
    fn verdict(&self) -> Result<(), String> {
        Ok(())
    }

    /// Printed to stderr after the sections.
    fn summary(&self) -> Option<String> {
        None
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
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
        assert_eq!(fmt_percent(0.335), "34%");
        assert_eq!(fmt_percent(1.0), "100%");
    }
}
