//! Minimal fixed-width text tables for experiment reports.

/// A text table under construction.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Convenience for &str cells.
    pub fn row_str(&mut self, cells: &[&str]) {
        self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format minutes with two decimals.
pub fn mins(m: f64) -> String {
    format!("{m:.2}")
}

/// Format dollars with four decimals.
pub fn dollars(d: f64) -> String {
    format!("{d:.4}")
}

/// Format Mbit/s with two decimals.
pub fn mbps(r: f64) -> String {
    format!("{r:.2}")
}

/// Round to four decimals — the precision of every `BENCH_*.json` grid
/// figure.
pub fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// Relative error as a percentage string.
pub fn err_pct(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", (measured - paper) / paper * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row_str(&["a", "1"]);
        t.row_str(&["long-name", "2"]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("long-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("demo", &["a", "b", "c"]);
        t.row_str(&["only-one"]);
        assert!(t.render().contains("only-one"));
    }

    #[test]
    fn formatters() {
        assert_eq!(mins(10.666), "10.67");
        assert_eq!(dollars(0.00713), "0.0071");
        assert_eq!(mbps(37.414), "37.41");
        assert_eq!(err_pct(11.0, 10.0), "+10.0%");
        assert_eq!(err_pct(1.0, 0.0), "-");
    }
}
