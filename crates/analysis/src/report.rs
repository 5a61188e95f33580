//! Combined markdown reports and tolerance-aware metric comparison.
//!
//! A campaign aggregates many experiments' [`Table`]s into a single
//! markdown document, and a regression gate compares freshly measured
//! means against checked-in golden values with a symmetric absolute
//! tolerance. Both live here so
//! every producer of tables — the hard-coded experiment suite and the
//! declarative scenario campaigns — shares one report format and one
//! notion of "within tolerance".

use crate::table::{fnum, Table};

/// Renders a titled markdown document from captioned sections.
///
/// Each section is `(heading, tables)`; the heading becomes an `##`
/// header and every table renders through [`Table::to_markdown`]. An
/// empty `intro` is skipped. The output is a pure function of the
/// inputs — byte-identical across runs and thread counts — so reports
/// are diffable artifacts.
pub fn markdown_report(title: &str, intro: &str, sections: &[(String, Vec<Table>)]) -> String {
    let mut out = format!("# {title}\n\n");
    if !intro.is_empty() {
        out.push_str(intro);
        out.push_str("\n\n");
    }
    for (heading, tables) in sections {
        out.push_str(&format!("## {heading}\n\n"));
        for t in tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
    }
    out
}

/// Whether `actual` lies within `tolerance` of `expected`.
///
/// The comparison is an absolute-difference band, `|expected − actual|
/// ≤ tolerance`, so it is **symmetric** in its two value arguments and
/// reflexive for any `tolerance ≥ 0` — a blessed value always accepts
/// itself. Any NaN among the inputs (or a negative tolerance) fails:
/// a golden gate must never pass vacuously.
pub fn within_tolerance(expected: f64, actual: f64, tolerance: f64) -> bool {
    tolerance >= 0.0 && (expected - actual).abs() <= tolerance
}

/// Formats a golden expectation as `mean ± tolerance` for report tables.
pub fn pm(mean: f64, tolerance: f64) -> String {
    format!("{} ± {}", fnum(mean), fnum(tolerance))
}

/// A run-performance footer for written campaign/sweep reports: total
/// wall-clock, aggregate trial throughput, and worker-thread count, so
/// every checked-in report doubles as a perf datapoint.
///
/// This is deliberately **not** part of [`markdown_report`] /
/// `to_markdown` output: those stay pure functions of the measured
/// metrics (byte-identical across runs), and the caller appends the
/// footer only when writing a report file.
pub fn perf_footer(trials: usize, wall_s: f64, threads: usize) -> String {
    let rate = if wall_s > 0.0 { trials as f64 / wall_s } else { 0.0 };
    format!(
        "\n---\n\n_Run: {trials} trials in {wall_s:.2} s ({rate:.0} trials/s) on {threads} worker thread{}._\n",
        if threads == 1 { "" } else { "s" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_title_sections_and_tables() {
        let mut t = Table::new("X", "demo", "flat", vec!["a"]);
        t.push_row(vec!["1".into()]);
        let md = markdown_report(
            "Campaign",
            "three scenarios",
            &[("first".to_string(), vec![t])],
        );
        assert!(md.starts_with("# Campaign\n"));
        assert!(md.contains("three scenarios"));
        assert!(md.contains("## first"));
        assert!(md.contains("### X: demo"));
        assert!(md.contains("| 1 |"));
    }

    #[test]
    fn report_skips_empty_intro() {
        let md = markdown_report("T", "", &[]);
        assert_eq!(md, "# T\n\n");
    }

    #[test]
    fn tolerance_band_is_symmetric_and_closed() {
        assert!(within_tolerance(10.0, 12.0, 2.0));
        assert!(within_tolerance(12.0, 10.0, 2.0));
        assert!(!within_tolerance(10.0, 12.1, 2.0));
        assert!(within_tolerance(5.0, 5.0, 0.0));
    }

    #[test]
    fn tolerance_rejects_nan_and_negative_band() {
        assert!(!within_tolerance(f64::NAN, 1.0, 10.0));
        assert!(!within_tolerance(1.0, f64::NAN, 10.0));
        assert!(!within_tolerance(1.0, 1.0, -0.5));
        assert!(!within_tolerance(1.0, 1.0, f64::NAN));
    }

    #[test]
    fn perf_footer_reports_rate_and_threads() {
        let f = perf_footer(448, 2.0, 8);
        assert!(f.contains("448 trials in 2.00 s"), "{f}");
        assert!(f.contains("(224 trials/s)"), "{f}");
        assert!(f.contains("8 worker threads"), "{f}");
        let one = perf_footer(1, 0.0, 1);
        assert!(one.contains("(0 trials/s) on 1 worker thread."), "{one}");
    }

    #[test]
    fn pm_uses_table_number_formatting() {
        assert_eq!(pm(12.34, 2.0), "12.3 ± 2.000");
    }

    #[test]
    fn pm_renders_non_finite_parts_as_dash() {
        // Non-finite means/tolerances never reach a blessed golden file
        // (validation rejects them), but a freshly measured NaN must
        // still render readably rather than as a `NaN` cell.
        assert_eq!(pm(f64::NAN, 2.0), "— ± 2.000");
        assert_eq!(pm(1.0, f64::INFINITY), "1.000 ± —");
    }
}
