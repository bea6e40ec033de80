//! Report rendering: CSV and aligned ASCII tables.
//!
//! The experiment harness produces tabular data (one row per `(platform, n,
//! algorithm)` combination, one table per figure panel).  To keep the
//! dependency set at the approved crates, CSV writing and table alignment are
//! implemented here rather than pulled from a formatting crate.

use std::fmt::Write as _;

/// A simple in-memory table: named columns plus rows of cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Column headers.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the number of cells does not match the number of columns.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table as CSV (header line + one line per row).  Cells
    /// containing commas, quotes or newlines are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{}",
            self.columns.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(",")
        )
        .expect("writing to String cannot fail");
        for row in &self.rows {
            writeln!(out, "{}", row.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(","))
                .expect("writing to String cannot fail");
        }
        out
    }

    /// Renders the table as an aligned, human-readable text block.
    pub fn to_aligned_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            writeln!(out, "# {}", self.title).expect("writing to String cannot fail");
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        writeln!(out, "{}", header.join("  ")).expect("writing to String cannot fail");
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(out, "{}", rule.join("  ")).expect("writing to String cannot fail");
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            writeln!(out, "{}", cells.join("  ")).expect("writing to String cannot fail");
        }
        out
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Formats a float with a fixed number of decimals, trimming `-0`.
pub fn fmt_f64(value: f64, decimals: usize) -> String {
    let s = format!("{value:.decimals$}");
    if s.starts_with("-0.") && s[3..].chars().all(|c| c == '0') {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("demo", &["platform", "n", "makespan"]);
        t.push_row(vec!["Hera".into(), "10".into(), "1.0452".into()]);
        t.push_row(vec!["Coastal SSD".into(), "50".into(), "1.1310".into()]);
        t
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_table().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "platform,n,makespan");
        assert_eq!(lines[1], "Hera,10,1.0452");
        assert!(lines[2].starts_with("Coastal SSD"));
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn aligned_text_pads_columns() {
        let text = sample_table().to_aligned_text();
        let lines: Vec<&str> = text.lines().collect();
        // title, header, rule, two rows = 5 lines.
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("# demo"));
        // All data lines have equal length (aligned).
        let widths: Vec<usize> = text.lines().skip(1).map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn fmt_f64_fixed_decimals() {
        assert_eq!(fmt_f64(1.23456, 3), "1.235");
        assert_eq!(fmt_f64(-0.00001, 3), "0.000");
        assert_eq!(fmt_f64(2.0, 0), "2");
    }
}
