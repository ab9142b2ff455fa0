//! Plain-text table and histogram rendering for the experiment binaries.

/// Escapes a string for embedding in a JSON string literal (the snapshot
/// writers keep their JSON hand-rolled to stay dependency-free).
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Summary statistics of a sample (the row shape of Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub q2: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`SampleStats`] (linear-interpolation quantiles, matching
/// numpy's default).
///
/// # Panics
/// On an empty sample.
pub fn sample_stats(values: &[f64]) -> SampleStats {
    assert!(!values.is_empty(), "empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len();
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    let quantile = |q: f64| -> f64 { morpheus_oracle::obs::percentile_exact(&sorted, q) };
    SampleStats {
        mean,
        std: var.sqrt(),
        min: sorted[0],
        q1: quantile(0.25),
        q2: quantile(0.5),
        q3: quantile(0.75),
        max: sorted[n - 1],
    }
}

/// Renders an ASCII histogram of `values` over logarithmic bins, one line
/// per bin — the textual stand-in for the scatter plots of Figures 3-5.
pub fn log_histogram(values: &[f64], bins: &[f64]) -> String {
    let mut counts = vec![0usize; bins.len() + 1];
    for &v in values {
        let mut b = bins.len();
        for (i, &edge) in bins.iter().enumerate() {
            if v < edge {
                b = i;
                break;
            }
        }
        counts[b] += 1;
    }
    let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let label = if i == 0 {
            format!("        < {:<8.2}", bins[0])
        } else if i == bins.len() {
            format!("       >= {:<8.2}", bins[bins.len() - 1])
        } else {
            format!("{:8.2}..{:<8.2}", bins[i - 1], bins[i])
        };
        let bar = "#".repeat((c * 50).div_ceil(max_count).min(50));
        out.push_str(&format!("  {label} |{bar:<50}| {c}\n"));
    }
    out
}

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width");
        self.rows.push(cells);
    }

    /// Renders with per-column alignment.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:>w$}", w = width[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_sample() {
        let s = sample_stats(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q2, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!((s.std - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_single_value() {
        let s = sample_stats(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.q1, 7.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = sample_stats(&[0.0, 10.0]);
        assert_eq!(s.q2, 5.0);
        assert_eq!(s.q1, 2.5);
    }

    #[test]
    fn histogram_buckets() {
        let h = log_histogram(&[0.5, 1.2, 2.0, 8.0, 100.0], &[1.0, 1.5, 2.5, 10.0]);
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("| 1"), "{h}");
        assert!(lines[4].contains("| 1"), "{h}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_wrong_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
