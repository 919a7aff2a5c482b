//! Table formatting and JSON persistence for experiment output.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// A simple fixed-width table printer for experiment rows.
#[derive(Debug, Clone)]
pub struct Reporter {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Reporter {
    /// Start a new table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Append a row of `f64` values after a label cell.
    pub fn add_metric_row(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.add_row(cells);
    }

    /// Render the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// The directory experiment documents go to: `target/experiments`, under a
/// runtime `CARGO_TARGET_DIR` when set.
pub(crate) fn experiments_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("experiments")
}

/// Write a serializable result object to `target/experiments/<name>.json`.
/// Panics when the file cannot be written, so a run never reports a
/// document it did not write.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = experiments_dir();
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("the report serializes");
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&path, json))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

/// Peak resident set size (`VmHWM`) of the current process, in bytes.
///
/// Read from `/proc/self/status`, so `None` on hosts without procfs; the
/// kernel reports the high-water mark in kB.  Recorded in the smoke reports
/// so the trajectory tracks memory alongside wall-clock.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Reporter::new("Demo", &["Dataset", "P", "R"]);
        r.add_row(vec!["LongDatasetName".into(), "0.9".into(), "0.5".into()]);
        r.add_metric_row("x", &[0.123456, 0.9]);
        let s = r.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("LongDatasetName"));
        assert!(s.contains("0.123"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_width_panics() {
        let mut r = Reporter::new("Demo", &["a", "b"]);
        r.add_row(vec!["only one".into()]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_reported_and_plausible() {
        let rss = peak_rss_bytes().expect("procfs reports VmHWM on Linux");
        // A test process has touched at least a few hundred kB and (far)
        // less than a TB.
        assert!(rss > 100 * 1024, "{rss}");
        assert!(rss < 1 << 40, "{rss}");
    }

    #[test]
    fn write_json_creates_file() {
        let path = write_json("unit_test_report", &vec![1, 2, 3]);
        assert!(path.exists());
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains('2'));
    }
}
