//! Plain-text table rendering for the experiment binaries.

use std::fmt;
use std::fmt::Write as _;

/// A simple aligned-column text table with an optional CSV view.
///
/// # Example
///
/// ```
/// use trrip_analysis::TextTable;
///
/// let mut t = TextTable::new(vec!["bench", "speedup"]);
/// t.row(vec!["gcc".into(), "3.9%".into()]);
/// let text = t.to_string();
/// assert!(text.contains("bench"));
/// assert!(text.contains("gcc"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends one row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut TextTable {
        assert!(cells.len() <= self.headers.len(), "row wider than header");
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// CSV rendering (headers + rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ =
                writeln!(out, "{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{cell:>w$}", w = *w);
            }
            writeln!(f, "{}", line.trim_end())
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Geometric mean of `1 + x/100` minus one, in percent: the mean of
/// speedups, each a ratio `new / old` of performance, and negative ones
/// included. A reduction is a ratio `1 − x/100` of what remains; average
/// it with [`geomean_reduction_pct`].
#[must_use]
pub fn geomean_pct(percents: &[f64]) -> f64 {
    if percents.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = percents.iter().map(|p| (1.0 + p / 100.0).max(1e-9).ln()).sum();
    ((log_sum / percents.len() as f64).exp() - 1.0) * 100.0
}

/// One minus the geometric mean of `1 − p/100`, in percent: the mean
/// of reductions (an MPKI reduction keeps `1 − p/100` of the misses),
/// negative ones included. A 100 % reduction counts as keeping 10⁻⁹ of
/// them, so the mean stays finite.
#[must_use]
pub fn geomean_reduction_pct(percents: &[f64]) -> f64 {
    if percents.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = percents.iter().map(|p| (1.0 - p / 100.0).max(1e-9).ln()).sum();
    (1.0 - (log_sum / percents.len() as f64).exp()) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("name"));
        assert!(s.contains("long-name"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.to_csv(), "a,b,c\nx,,\n");
    }

    #[test]
    #[should_panic(expected = "wider than header")]
    fn wide_rows_rejected() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("plain"));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_pct_handles_negatives() {
        // +10% and -10% → slightly negative geomean.
        let g = geomean_pct(&[10.0, -10.0]);
        assert!(g < 0.0 && g > -1.0, "{g}");
        assert_eq!(geomean_pct(&[]), 0.0);
    }

    #[test]
    fn geomean_reduction_pct_averages_what_remains() {
        // Half the misses, then all of them: sqrt(0.5) of them remain.
        assert!((geomean_reduction_pct(&[50.0, 0.0]) - 29.289_321_881).abs() < 1e-6);
        // 0.9 × 1.1 = 0.99 remains: a small reduction, where geomean_pct
        // sees a small increase.
        assert!((geomean_reduction_pct(&[10.0, -10.0]) - 0.501_256_289).abs() < 1e-6);
        assert_eq!(geomean_reduction_pct(&[]), 0.0);
        let all = geomean_reduction_pct(&[100.0, 20.0]);
        assert!(all.is_finite() && all > 20.0 && all < 100.0, "{all}");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.265), "26.5%");
    }
}
