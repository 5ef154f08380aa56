//! Plain-text rendering of tables and series.
//!
//! The harness prints the same rows/series the paper's tables and figures
//! report; these helpers keep the formatting uniform across experiments.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<w$}", cells[i], w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            fmt_row(&mut out, r);
        }
        out
    }
}

/// Format a fraction as a signed percentage ("+33%", "-111%").
pub fn pct(x: f64) -> String {
    format!("{}{:.0}%", if x >= 0.0 { "+" } else { "" }, x * 100.0)
}

/// Format seconds with one decimal.
pub fn secs(x: f64) -> String {
    format!("{x:.1}")
}

/// Format bytes as a human-readable size.
pub fn bytes(b: u64) -> String {
    const GB: f64 = (1u64 << 30) as f64;
    const MB: f64 = (1u64 << 20) as f64;
    let b = b as f64;
    if b >= GB {
        format!("{:.1}GB", b / GB)
    } else if b >= MB {
        format!("{:.0}MB", b / MB)
    } else {
        format!("{:.0}B", b)
    }
}

/// Render an `(x, y)` series as an ASCII sparkline block for the figure
/// printouts: one row of `height` levels per `bucket` of x.
pub fn ascii_series(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let (xmin, xmax) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &(x, _)| {
            (lo.min(x), hi.max(x))
        });
    let ymax = points.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
    let span = (xmax - xmin).max(1e-12);
    // Bucket means.
    let mut sums = vec![0.0f64; width];
    let mut counts = vec![0usize; width];
    for &(x, y) in points {
        let i = (((x - xmin) / span) * (width as f64 - 1.0)).round() as usize;
        sums[i] += y;
        counts[i] += 1;
    }
    let levels: Vec<f64> = sums
        .iter()
        .zip(&counts)
        .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect();
    let mut out = String::new();
    for h in (1..=height).rev() {
        let threshold = ymax * h as f64 / height as f64;
        for &v in &levels {
            let filled = v >= threshold - 1e-12 && v > 0.0;
            out.push(if filled { '█' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{}", "-".repeat(width));
    let _ = writeln!(out, "ymax={ymax:.2}  x=[{xmin:.1}..{xmax:.1}]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.33), "+33%");
        assert_eq!(pct(-1.11), "-111%");
        assert_eq!(secs(31.52), "31.5");
        assert_eq!(bytes(256 << 20), "256MB");
        assert_eq!(bytes(24 << 30), "24.0GB");
        assert_eq!(bytes(100), "100B");
    }

    #[test]
    fn ascii_series_shape() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, (i % 10) as f64)).collect();
        let s = ascii_series(&pts, 40, 5);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 7); // 5 levels + rule + label
        assert!(lines[6].contains("ymax"));
        assert!(ascii_series(&[], 10, 3).is_empty());
    }
}
