//! Experiment output tables.
//!
//! Every experiment produces one or more [`Table`]s: a captioned grid of
//! strings with a stated paper prediction, printable as aligned text (for
//! the terminal), markdown (for reports), or CSV (for plotting).

use serde::Serialize;
use std::fmt;

/// A captioned result table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table {
    /// Short identifier, e.g. `"E1"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper predicts for this table's shape.
    pub prediction: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (each row must match `headers.len()`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        prediction: impl Into<String>,
        headers: Vec<&str>,
    ) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            prediction: prediction.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.chars().count());
            }
        }
        w
    }

    /// Renders as a GitHub-flavored markdown table with caption.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "### {}: {}\n\n*Paper prediction:* {}\n\n",
            self.id, self.title, self.prediction
        );
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders as CSV (headers first; fields quoted only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = self
            .headers
            .iter()
            .map(|h| esc(h))
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.id, self.title)?;
        writeln!(f, "  prediction: {}", self.prediction)?;
        let w = self.widths();
        let line = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "  ")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:<width$}  ", c, width = w[i])?;
            }
            writeln!(f)
        };
        line(&self.headers, f)?;
        let total: usize = w.iter().sum::<usize>() + 2 * w.len();
        writeln!(f, "  {}", "-".repeat(total))?;
        for row in &self.rows {
            line(row, f)?;
        }
        Ok(())
    }
}

/// Convenience: format a float with sensible precision for tables.
/// Non-finite values render as `—` (an absent measurement), never as
/// `NaN`/`inf` cells.
pub fn fnum(v: f64) -> String {
    if !v.is_finite() {
        "—".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.01 {
        format!("{v:.3}")
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E0", "demo", "flat", vec!["x", "y"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["10".into(), "20".into()]);
        t
    }

    #[test]
    fn display_is_aligned_and_captioned() {
        let s = sample().to_string();
        assert!(s.contains("[E0] demo"));
        assert!(s.contains("prediction: flat"));
        assert!(s.contains("x "));
    }

    #[test]
    fn markdown_has_separator_row() {
        let md = sample().to_markdown();
        assert!(md.contains("| x | y |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 10 | 20 |"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("E0", "t", "p", vec!["a"]);
        t.push_row(vec!["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("E0", "t", "p", vec!["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn fnum_scales_precision() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1234.6), "1235");
        assert_eq!(fnum(12.34), "12.3");
        assert_eq!(fnum(0.5), "0.500");
        assert_eq!(fnum(0.0001), "1.00e-4");
    }

    #[test]
    fn fnum_renders_non_finite_as_dash() {
        // Regression: NaN fell through to the `{:.2e}` branch and ±inf
        // to `{:.0}`, producing `NaN`/`inf` cells in check tables.
        assert_eq!(fnum(f64::NAN), "—");
        assert_eq!(fnum(f64::INFINITY), "—");
        assert_eq!(fnum(f64::NEG_INFINITY), "—");
    }
}
